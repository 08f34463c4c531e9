//! One workload, one process: set-up, then either the untraced timed
//! pass (end-to-end metrics) or the traced pass (per-layer metrics).

use crate::batch::{Batch, Tweak};
use crate::layers::{self, Layers};
use crate::serve::Served;
use crate::spans::Spans;
use crate::spec::{Metric, Scale, Workload, END_TO_END, PER_LAYER};
use crate::stats::{best, median};
use crate::sys;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use supmr_metrics::Json;

/// A workload after set-up.
enum Prepared {
    Batch(Batch),
    Served(Served),
}

impl Prepared {
    fn set_up(workload: Workload, seed: u64, scale: Scale) -> Result<Prepared, String> {
        match workload {
            Workload::ServeMix => Served::set_up(seed, scale).map(Prepared::Served),
            _ => Batch::set_up(workload, seed, scale).map(Prepared::Batch),
        }
    }
}

/// One repetition of a timed pass — a batch job, or one `serve_mix`
/// cycle — in the units of the end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// The job's wall; for a cycle, the median latency of its jobs.
    pub job_wall_s: f64,
    pub input_mb_per_s: f64,
    pub cpu_s_per_gb: f64,
}

impl Rep {
    fn new(job_wall_s: f64, input_bytes: u64, wall_s: f64, cpu_s: f64) -> Rep {
        Rep {
            job_wall_s,
            input_mb_per_s: input_bytes as f64 / 1e6 / wall_s,
            cpu_s_per_gb: cpu_s / (input_bytes as f64 / 1e9),
        }
    }
}

/// What one run measured, in the shape the driver reads.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
    /// The verified repetitions of the timed pass, in the order made.
    pub reps: Vec<Rep>,
    /// Seconds each set-up took, in the order made (timed pass only).
    pub setups_s: Vec<f64>,
    /// What went wrong with each failed operation.
    pub errors: Vec<String>,
    /// Self time per span name (traced pass only).
    pub self_times_ns: BTreeMap<String, u64>,
    pub spans_jsonl: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, value)| {
                (
                    m.name,
                    Json::obj(vec![("value", Json::from(*value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// What a timed pass hands back.
#[derive(Default)]
struct Pass {
    reps: Vec<Rep>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    peak_rss_mb: f64,
}

/// The timed pass of a batch workload: verified jobs, one after the
/// other, until `seconds` have passed and `min_reps` were made.
fn timed_batch(batch: &Batch, seconds: f64) -> Pass {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = Pass::default();
    let mut peaks = Vec::new();
    while (pass.attempted as usize) < batch.scale.min_reps || Instant::now() < deadline {
        let op = batch.run(batch.workload, Tweak::Plain);
        pass.attempted += 1;
        match op.error {
            None => {
                let wall = op.wall.as_secs_f64();
                pass.reps.push(Rep::new(wall, batch.input_bytes(), wall, op.cpu_s));
                peaks.push(op.peak_rss_mb);
            }
            Some(error) => {
                pass.failed += 1;
                pass.errors.push(error);
            }
        }
    }
    // A job's peak depends on how its threads raced (when a spill fell,
    // how far map ran ahead of absorb); the largest of a pass's peaks
    // grows with their number, their median does not.
    pass.peak_rss_mb = median(&peaks);
    pass
}

/// `serve_mix`'s peak resident set is read when this cycle ends (or the
/// last one, in a shorter pass): the daemon keeps every finished job, so
/// its footprint grows with the number served, and a pass of fixed length
/// serves more of them on a faster day.
const SERVE_RSS_CYCLE: usize = 6;

/// The timed pass of `serve_mix`: cycles until `seconds` have passed. A
/// cycle with a failed job is no repetition.
fn timed_served(served: &Served, seconds: f64) -> Pass {
    let cycles = served.replay(seconds);
    let mut pass = Pass {
        peak_rss_mb: cycles
            .get(SERVE_RSS_CYCLE - 1)
            .or(cycles.last())
            .map_or(0.0, |c| c.peak_rss_mb),
        ..Pass::default()
    };
    for cycle in cycles {
        pass.attempted += cycle.attempted;
        pass.failed += cycle.failed();
        if cycle.rejected > 0 {
            pass.errors.push(format!("{} submissions refused with 503", cycle.rejected));
        }
        if cycle.failed() == 0 {
            let wall = cycle.wall.as_secs_f64();
            pass.reps.push(Rep::new(median(&cycle.latencies), cycle.ok_bytes, wall, cycle.cpu_s));
        }
        pass.errors.extend(cycle.errors);
    }
    pass
}

/// Set up several times (one at a time, so the peak resident set is one
/// set-up's), keep the last, and run the timed pass on it: at least
/// `scale.setups` set-ups, and more of a cheap one — until
/// `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are made — because a
/// sub-second set-up is the noisiest.
///
/// Every time-based metric is the **best** of its repetitions, each
/// metric on its own: interference on a shared machine only ever adds
/// time, so the best repetition is the one least disturbed (README.md,
/// "Why the best repetition", has the measurements behind this).
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    const SETUP_BUDGET_S: f64 = 4.0;
    const MAX_SETUPS: usize = 7;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared = None;
    while setup_s.len() < scale.setups
        || (scale.setups > 1
            && setup_s.len() < MAX_SETUPS
            && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(prepared.take());
        // A set-up's user starts a process; without this only the first
        // set-up of a run would start from a fresh heap, and the fastest
        // of them would be that one sample.
        sys::reset_heap();
        let clock = Instant::now();
        prepared = Some(Prepared::set_up(workload, seed, scale)?);
        setup_s.push(clock.elapsed().as_secs_f64());
    }
    let pass = match prepared.as_ref().ok_or("the scale asks for no set-up at all")? {
        Prepared::Batch(batch) => timed_batch(batch, seconds),
        Prepared::Served(served) => timed_served(served, seconds),
    };
    drop(prepared);

    let value = |m: &Metric| match m.name {
        "setup_s" => best(setup_s.iter().copied(), m.better),
        "job_wall_s" => best(pass.reps.iter().map(|r| r.job_wall_s), m.better),
        "input_mb_per_s" => best(pass.reps.iter().map(|r| r.input_mb_per_s), m.better),
        "cpu_s_per_gb" => best(pass.reps.iter().map(|r| r.cpu_s_per_gb), m.better),
        "peak_rss_mb" => pass.peak_rss_mb,
        other => unreachable!("{other} is not an end-to-end metric"),
    };
    Ok(Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m, if pass.reps.is_empty() { 0.0 } else { value(m) }))
            .collect(),
        reps: pass.reps,
        setups_s: setup_s,
        errors: pass.errors,
        self_times_ns: BTreeMap::new(),
        spans_jsonl: String::new(),
    })
}

/// Set up once and run the traced pass. A wrong output anywhere in it is
/// an error, not a number.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    let prepared = Prepared::set_up(workload, seed, scale)?;
    let mut spans = Spans::new(workload.name());
    let layers: Layers = match &prepared {
        Prepared::Batch(batch) => layers::traced_pass(batch, &mut spans)?,
        // Two replays: an unrecorded and a recorded one.
        Prepared::Served(served) => served.traced_pass(seconds / 2.0, &mut spans)?,
    };
    drop(prepared);
    Ok(Outcome {
        attempted: 1,
        failed: 0,
        metrics: PER_LAYER.iter().map(|m| (m, layers.get(m.name))).collect(),
        reps: Vec::new(),
        setups_s: Vec::new(),
        errors: Vec::new(),
        self_times_ns: spans.self_times_ns(),
        spans_jsonl: spans.to_jsonl(),
    })
}
