//! Command line of the benchmark. Three forms:
//!
//! ```text
//! supmr-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--spans FILE]
//! supmr-benchmark run --seed N --out FILE [--runs K] [--seconds S] [--quick]
//! supmr-benchmark compare A.json B.json
//! ```
//!
//! The first is what the driver calls: one workload, one pass, metrics
//! by name and unit on standard output and the result object as its last
//! line. `run` calls it once per workload and pass, in child processes.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use supmr_benchmark::compare::compare;
use supmr_benchmark::measure::{end_to_end, per_layer, Rep};
use supmr_benchmark::spec::{Scale, Workload};
use supmr_benchmark::suite::{self, RunOptions, SELF_TIME_PREFIX};
use supmr_metrics::Json;

const USAGE: &str = "usage:
  supmr-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--spans FILE]
  supmr-benchmark run --seed N --out FILE [--runs K] [--seconds S] [--quick]
  supmr-benchmark compare A.json B.json
workloads: wc_mem wc_disk sort_mem sort_spill tera_dag serve_mix";

/// `--name value` pairs and bare `--quick`.
struct Flags {
    values: HashMap<String, String>,
    quick: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags { values: HashMap::new(), quick: false };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("quick") => flags.quick = true,
                Some(name) => {
                    let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.values.insert(name.to_string(), value.clone());
                }
                None => return Err(format!("unexpected argument '{arg}'")),
            }
        }
        Ok(flags)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{name}: cannot read '{v}'")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or_else(|| format!("--{name} is required"))
    }

    fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

fn seconds(flags: &Flags, default: f64) -> Result<f64, String> {
    let seconds = flags.get("seconds")?.unwrap_or(default);
    if (0.0..=600.0).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds: {seconds} is not between 0 and 600"))
    }
}

/// One workload, one pass; the driver's form.
fn one(flags: &Flags) -> Result<(), String> {
    let name: String = flags.require("workload")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let seed: u64 = flags.require("seed")?;
    let trace: u8 = flags.require("trace")?;
    let seconds = seconds(flags, 0.0)?;
    let outcome = match trace {
        0 => end_to_end(workload, seed, seconds, flags.scale()),
        1 => per_layer(workload, seed, seconds, flags.scale()),
        other => Err(format!("--trace: {other} is neither 0 nor 1")),
    }?;
    if let Some(path) = flags.get::<PathBuf>("spans")? {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut file| file.write_all(outcome.spans_jsonl.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    println!("{name} seed {seed}: {} operations, {} failed", outcome.attempted, outcome.failed);
    if !outcome.reps.is_empty() {
        println!("#setup_s {:?}", outcome.setups_s);
        let series = |f: fn(&Rep) -> f64| outcome.reps.iter().map(f).collect::<Vec<f64>>();
        println!("#job_wall_s {:?}", series(|r| r.job_wall_s));
        println!("#input_mb_per_s {:?}", series(|r| r.input_mb_per_s));
        println!("#cpu_s_per_gb {:?}", series(|r| r.cpu_s_per_gb));
    }
    for error in &outcome.errors {
        println!("failed: {error}");
    }
    for (metric, value) in &outcome.metrics {
        println!("{} {value} {}", metric.name, metric.unit);
    }
    if !outcome.self_times_ns.is_empty() {
        let times = outcome.self_times_ns.iter().map(|(k, &v)| (k.as_str(), Json::from(v)));
        println!("{SELF_TIME_PREFIX}{}", Json::obj(times.collect()).render());
    }
    println!("{}", outcome.to_json().render());
    Ok(())
}

fn run(flags: &Flags) -> Result<(), String> {
    let opts = RunOptions {
        seed: flags.require("seed")?,
        seconds: seconds(flags, if flags.quick { 0.0 } else { 8.0 })?,
        runs: flags.get("runs")?.unwrap_or(if flags.quick { 1 } else { 3 }),
        quick: flags.quick,
        out: flags.require("out")?,
    };
    if opts.runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let results = suite::run(&exe, &opts)?;
    print!("{}", suite::render(&results));
    println!("results: {}  spans: {}", opts.out.display(), suite::spans_path(&opts.out).display());
    let failed: f64 = results
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("failed").and_then(Json::as_f64))
        .sum();
    if failed > 0.0 {
        return Err(format!("{failed} operations failed or returned a wrong output"));
    }
    Ok(())
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else { return Err(format!("compare takes two files\n{USAGE}")) };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare(&load(a)?, &load(b)?)?;
    print!("{}", comparison.render());
    Ok(comparison.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        Some("compare") => compare_files(&args[1..]),
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f)).map(|()| true),
        Some(_) => Flags::parse(&args).and_then(|f| one(&f)).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("supmr-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
