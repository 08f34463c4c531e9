//! The `supmr` command-line tool; `supmr --help` prints its usage.

use std::path::Path;
use supmr_cli::{execute, parse_args, RunSummary, USAGE};
use supmr_metrics::ascii::{render_timeline, ChartOptions};
use supmr_metrics::chrome::{to_chrome_json, to_jsonl};
use supmr_metrics::{JobTrace, PhaseTimings};

/// Serialize `trace` in the format implied by `path`'s extension.
fn render_trace(trace: &JobTrace, path: &Path) -> String {
    match path.extension().and_then(|e| e.to_str()) {
        Some("jsonl") => to_jsonl(trace),
        Some("txt") => render_timeline(
            trace,
            &ChartOptions { title: "supmr job timeline".to_string(), ..Default::default() },
        ),
        _ => to_chrome_json(trace),
    }
}

fn print_summary(
    summary: &RunSummary,
    trace_out: Option<&Path>,
    report_out: Option<&Path>,
    diagnose: bool,
) {
    println!("{}", PhaseTimings::table_header());
    println!("{}", summary.report.timings.table_row("job"));
    let stalls = summary.report.stalls();
    if !stalls.map_waiting.is_zero() || !stalls.ingest_waiting.is_zero() {
        println!(
            "stalls: map workers waited {:.3}s in all for splits, ingest waited {:.3}s for mappers",
            stalls.map_waiting.as_secs_f64(),
            stalls.ingest_waiting.as_secs_f64()
        );
    }
    println!("\n{} output pairs, {} ingest chunks\n", summary.output_pairs(), summary.chunks());
    for line in &summary.lines {
        println!("{line}");
    }
    if diagnose {
        match &summary.report.diag {
            Some(d) => println!("\n{}", d.render_ascii()),
            None => eprintln!("supmr: no diagnosis recorded for this app"),
        }
    }
    if let Some(gov) = &summary.report.governor {
        println!(
            "\ngovernor: {} ticks, {} actions; final widths map={} reduce={} prefetch={}",
            gov.ticks,
            gov.actions.len() as u64 + gov.dropped_actions,
            gov.final_map_width,
            gov.final_reduce_width,
            gov.final_prefetch_depth
        );
        for a in gov.actions.iter().take(8) {
            println!("  +{:>7}us  {:<18} {} -> {}", a.t_us, a.verdict, a.knob, a.value);
        }
        if gov.actions.len() > 8 {
            println!("  ... {} more (see --report-out)", gov.actions.len() - 8);
        }
    }
    if let Some(path) = report_out {
        if let Err(e) = std::fs::write(path, summary.report.to_json().render()) {
            eprintln!("supmr: cannot write report to {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\nreport: {}", path.display());
    }
    if let Some(path) = trace_out {
        match &summary.report.trace {
            Some(trace) => match std::fs::write(path, render_trace(trace, path)) {
                Ok(()) => println!("\ntrace ({} events): {}", trace.event_count(), path.display()),
                Err(e) => {
                    eprintln!("supmr: cannot write trace to {}: {e}", path.display());
                    std::process::exit(1);
                }
            },
            // Only the kmeans driver lands here (per-iteration jobs,
            // no single job trace).
            None => eprintln!("supmr: no trace recorded for this app; nothing written"),
        }
    }
}

/// Parse `supmr serve` flags and run the daemon until SIGTERM or
/// `POST /shutdown`. Never returns on success.
fn run_serve(argv: &[String]) -> Result<(), String> {
    let mut listen = "127.0.0.1:8900".to_string();
    let mut config = supmr_serve::ServeConfig::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--listen" => listen = value("--listen")?.clone(),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_string())?;
            }
            "--max-concurrent" => {
                config.max_concurrent = value("--max-concurrent")?
                    .parse()
                    .map_err(|_| "--max-concurrent needs a positive integer".to_string())?;
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs a positive integer".to_string())?;
            }
            "--memory-budget" => {
                config.memory_budget =
                    Some(supmr::parse_size(value("--memory-budget")?).map_err(|e| e.to_string())?);
            }
            "--job-workers" => {
                config.default_job_workers = value("--job-workers")?
                    .parse()
                    .map_err(|_| "--job-workers needs a positive integer".to_string())?;
            }
            other => return Err(format!("unknown serve flag: {other}")),
        }
    }
    let daemon = supmr_serve::Daemon::start(&listen, config)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    eprintln!("supmr serve: listening on http://{}/ (POST /jobs to submit)", daemon.addr());
    daemon.run();
    eprintln!("supmr serve: drained, exiting");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        print!("{USAGE}");
        std::process::exit(if argv.is_empty() { 2 } else { 0 });
    }
    if argv[0] == "serve" {
        if let Err(e) = run_serve(&argv[1..]) {
            eprintln!("supmr: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("supmr: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match execute(&args) {
        Ok(summary) => print_summary(
            &summary,
            args.trace_out.as_deref(),
            args.report_out.as_deref(),
            args.diagnose,
        ),
        Err(e) => {
            eprintln!("supmr: {e}");
            std::process::exit(1);
        }
    }
}
