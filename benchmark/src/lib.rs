//! **supmr-benchmark** — the repository's one benchmark: six workloads,
//! verified outputs, end-to-end metrics from an untraced timed pass and
//! per-layer metrics from a traced pass. README.md beside this crate
//! says what each workload and metric is for; `BENCHMARK.json` at the
//! repository root is the same contract in the driver's form.

pub mod batch;
pub mod compare;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod sys;
