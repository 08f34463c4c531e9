//! `run`: every workload, each in a process of its own, into one results
//! file and one span file.

use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::sys;
use std::path::{Path, PathBuf};
use std::process::Command;
use supmr_metrics::Json;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Length of each timed pass.
    pub seconds: f64,
    /// Timed runs per workload; run `k` uses seed `seed + k`, and the
    /// reported value of each metric is the median over the runs.
    pub runs: usize,
    pub quick: bool,
    pub out: PathBuf,
}

/// The span file written beside a results file.
pub fn spans_path(out: &Path) -> PathBuf {
    let mut name = out.as_os_str().to_os_string();
    name.push(".spans.jsonl");
    PathBuf::from(name)
}

/// Prefix of the line on which a traced child reports self times.
pub const SELF_TIME_PREFIX: &str = "#self_time_ns ";

struct Child {
    result: Json,
    self_times: Json,
}

/// Re-execute this binary for one workload and one pass, so the peak
/// resident set and CPU time it reports are that workload's alone.
fn child(
    exe: &Path,
    workload: Workload,
    seed: u64,
    trace: bool,
    opts: &RunOptions,
) -> Result<Child, String> {
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        command.arg("--quick");
    }
    if trace {
        command.arg("--spans").arg(spans_path(&opts.out));
    }
    let output = command.output().map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}: {}",
            workload.name(),
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let self_times = stdout
        .lines()
        .find_map(|l| l.strip_prefix(SELF_TIME_PREFIX))
        .and_then(|json| Json::parse(json).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    Ok(Child { result, self_times })
}

fn metric_value(result: &Json, metric: &Metric) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(metric.name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("a child did not report {}", metric.name))
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn rustc_version() -> String {
    Command::new("rustc").arg("--version").output().ok().filter(|o| o.status.success()).map_or_else(
        || "unknown".to_string(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
    )
}

/// Run the whole benchmark and return the results document, which is
/// also written to `opts.out` (spans beside it).
pub fn run(exe: &Path, opts: &RunOptions) -> Result<Json, String> {
    let spans = spans_path(&opts.out);
    std::fs::write(&spans, "").map_err(|e| format!("creating {}: {e}", spans.display()))?;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let (mut attempted, mut failed) = (0, 0);
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for k in 0..opts.runs {
            let timed = child(exe, workload, opts.seed + k as u64, false, opts)?;
            attempted += count(&timed.result, "attempted");
            failed += count(&timed.result, "failed");
            for (values, metric) in runs.iter_mut().zip(END_TO_END) {
                values.push(metric_value(&timed.result, metric)?);
            }
        }
        let traced = child(exe, workload, opts.seed, true, opts)?;

        let end_to_end = END_TO_END
            .iter()
            .zip(&runs)
            .map(|(metric, values)| {
                let entry = Json::obj(vec![
                    ("unit", Json::str(metric.unit)),
                    ("value", Json::from(median(values))),
                    ("values", Json::Arr(values.iter().map(|&v| Json::from(v)).collect())),
                ]);
                (metric.name, entry)
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|metric| {
                let value = metric_value(&traced.result, metric)?;
                let entry =
                    Json::obj(vec![("unit", Json::str(metric.unit)), ("value", Json::from(value))]);
                Ok((metric.name, entry))
            })
            .collect::<Result<Vec<_>, String>>()?;
        workloads.push(Json::obj(vec![
            ("name", Json::str(workload.name())),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("failed_share", Json::from(failed as f64 / attempted.max(1) as f64)),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
            ("self_time_ns", traced.self_times),
        ]));
    }
    let results = Json::obj(vec![
        ("schema", Json::str("supmr.benchmark.v1")),
        ("seed", Json::from(opts.seed)),
        ("scale", Json::str(if opts.quick { "quick" } else { "full" })),
        ("seconds", Json::from(opts.seconds)),
        ("runs", Json::from(opts.runs as u64)),
        (
            "env",
            Json::obj(vec![
                ("nproc", Json::from(sys::nproc() as u64)),
                ("kernel", Json::str(sys::kernel_release())),
                ("rustc", Json::str(rustc_version())),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::write(&opts.out, format!("{}\n", results.render()))
        .map_err(|e| format!("writing {}: {e}", opts.out.display()))?;
    Ok(results)
}

/// Every metric of a results document by name, with its unit.
pub fn render(results: &Json) -> String {
    let mut out = String::new();
    for workload in results.get("workloads").and_then(Json::as_arr).unwrap_or_default() {
        let name = workload.get("name").and_then(Json::as_str).unwrap_or_default();
        let failed_share = workload.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!("{name} failed_share {failed_share} ratio\n"));
        for block in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(metrics)) = workload.get(block) else { continue };
            for (metric, entry) in metrics {
                let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or_default();
                out.push_str(&format!("{name} {metric} {value} {unit}\n"));
            }
        }
    }
    out
}
