//! Fluent job construction.
//!
//! [`Job`] wraps a [`MapReduce`] application and a [`JobConfig`] behind
//! a builder so call sites read as configuration rather than struct
//! plumbing:
//!
//! ```
//! use supmr::api::{Emit, MapReduce};
//! use supmr::combiner::Count;
//! use supmr::container::HashContainer;
//! use supmr::runtime::{Input, Job, MergeMode};
//! use supmr::Chunking;
//! use supmr_storage::MemSource;
//!
//! struct LineCount;
//! impl MapReduce for LineCount {
//!     type Key = ();
//!     type Value = u8;
//!     type Combiner = Count;
//!     type Output = u64;
//!     type Container = HashContainer<(), u8, Count>;
//!     fn make_container(&self) -> Self::Container { HashContainer::default() }
//!     fn map(&self, split: &[u8], emit: &mut dyn Emit<(), u8>) {
//!         for _ in split.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
//!             emit.emit((), 0);
//!         }
//!     }
//!     fn reduce(&self, _k: &(), n: u64) -> u64 { n }
//! }
//!
//! let result = Job::new(LineCount)
//!     .chunking(Chunking::Inter { chunk_bytes: 16 })
//!     .merge(MergeMode::Unsorted)
//!     .workers(2)
//!     .split_bytes(8)
//!     .run(Input::stream(MemSource::from(b"a\nb\nc\n".to_vec())))
//!     .unwrap();
//! assert_eq!(result.pairs, vec![((), 3)]);
//! ```

use super::{run_single, GovernorConfig, Input, JobConfig, JobResult, MergeMode};
use crate::api::MapReduce;
use crate::chunk::Chunking;
use crate::error::Result;
use crate::pool::PoolMode;
use std::sync::Arc;
use std::time::Duration;
use supmr_metrics::{Registry, TraceEvent, TraceLevel};
use supmr_storage::RecordFormat;

/// A configured-but-not-yet-run job.
#[derive(Debug)]
pub struct Job<J: MapReduce> {
    app: J,
    config: JobConfig,
}

impl<J: MapReduce> Job<J> {
    /// Start building a job around an application, with default
    /// configuration (no chunking, unsorted output).
    pub fn new(app: J) -> Job<J> {
        Job { app, config: JobConfig::default() }
    }

    /// Set the ingest chunking strategy.
    pub fn chunking(mut self, chunking: Chunking) -> Self {
        self.config.chunking = chunking;
        self
    }

    /// Set the merge mode.
    pub fn merge(mut self, merge: MergeMode) -> Self {
        self.config.merge = merge;
        self
    }

    /// Set both mapper and reducer worker counts.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.map_workers = workers;
        self.config.reduce_workers = workers;
        self
    }

    /// Set the input split size.
    pub fn split_bytes(mut self, bytes: usize) -> Self {
        self.config.split_bytes = bytes;
        self
    }

    /// Set the record framing used for chunk/split boundary adjustment.
    pub fn record_format(mut self, format: RecordFormat) -> Self {
        self.config.record_format = format;
        self
    }

    /// Set the ingest prefetch depth (1 = the paper's double buffering).
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.config.prefetch_depth = depth;
        self
    }

    /// Set the worker provisioning mode (per-wave spawn/join vs one
    /// persistent pool per job).
    pub fn pool(mut self, mode: PoolMode) -> Self {
        self.config.pool = mode;
        self
    }

    /// Collect a CPU utilization trace at this sampling interval.
    pub fn sample_utilization(mut self, interval: Duration) -> Self {
        self.config.sample_utilization = Some(interval);
        self
    }

    /// Record a typed event trace at this detail level; the trace comes
    /// back in [`JobReport::trace`](super::JobReport::trace).
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.config.trace = level;
        self
    }

    /// Invoke `callback` synchronously on every trace event as the job
    /// runs (live progress, streaming exporters). Requires
    /// [`trace`](Job::trace) to be set to an enabled level. Keep the
    /// callback cheap: it runs on the emitting worker thread.
    pub fn on_event(mut self, callback: impl Fn(&TraceEvent) + Send + Sync + 'static) -> Self {
        self.config.on_event = Some(Arc::new(callback));
        self
    }

    /// Attach a live metrics [`Registry`]: every layer maintains its
    /// `supmr.*` families there while the job runs, and the final
    /// snapshot comes back in
    /// [`JobReport::metrics`](super::JobReport::metrics).
    pub fn metrics(mut self, registry: Registry) -> Self {
        self.config.metrics = Some(registry);
        self
    }

    /// Serve a `/metrics` OpenMetrics scrape endpoint at `addr` (e.g.
    /// `"127.0.0.1:9400"`) for the duration of the job. Creates a
    /// registry if [`metrics`](Job::metrics) was not called.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.metrics_addr = Some(addr.into());
        self
    }

    /// Fix the container's hash seed so key→partition placement (and,
    /// single-threaded, output order) is reproducible across runs. The
    /// default is a random per-container seed.
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.config.hash_seed = Some(seed);
        self
    }

    /// Run the job adaptively: a feedback governor samples the live
    /// metrics at `governor.interval` and retunes scheduling widths,
    /// prefetch depth, the absorb sweep mask, and spill watermarks
    /// mid-job (DESIGN.md §3k). Creates a registry if
    /// [`metrics`](Job::metrics) was not called; decisions come back in
    /// [`JobReport::governor`](super::JobReport::governor).
    pub fn adaptive(mut self, governor: GovernorConfig) -> Self {
        self.config.governor = Some(governor);
        self
    }

    /// Cap the intermediate set's resident footprint at `bytes`: past
    /// the budget the container spills sorted runs to disk and the
    /// reduce phase streams an external merge over them. Requires the
    /// application to provide a
    /// [`spill_codec`](crate::api::MapReduce::spill_codec).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.config.memory_budget = Some(bytes);
        self
    }

    /// Write spill runs under `dir` (created if absent) instead of a
    /// per-job temporary directory.
    pub fn spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.spill_dir = Some(dir.into());
        self
    }

    /// Override the whole configuration.
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = config;
        self
    }

    /// The configuration as currently built.
    pub fn config_ref(&self) -> &JobConfig {
        &self.config
    }

    /// Run the job on `input` — the degenerate single-stage pipeline.
    ///
    /// # Errors
    /// Returns [`SupmrError::InvalidConfig`](crate::SupmrError::InvalidConfig)
    /// for invalid configurations or a chunking strategy that does not
    /// match the input shape,
    /// [`SupmrError::Ingest`](crate::SupmrError::Ingest) for I/O
    /// failures during ingest, and
    /// [`SupmrError::TaskPanic`](crate::SupmrError::TaskPanic) for
    /// crashed tasks.
    pub fn run(self, input: Input) -> Result<JobResult<J::Key, J::Output>> {
        run_single(self.app, input, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Emit;
    use crate::combiner::Sum;
    use crate::container::HashContainer;
    use supmr_storage::MemSource;

    struct CharCount;

    impl MapReduce for CharCount {
        type Key = u8;
        type Value = u64;
        type Combiner = Sum;
        type Output = u64;
        type Container = HashContainer<u8, u64, Sum>;

        fn make_container(&self) -> Self::Container {
            HashContainer::default()
        }

        fn map(&self, split: &[u8], emit: &mut dyn Emit<u8, u64>) {
            for &b in split.iter().filter(|b| !b.is_ascii_whitespace()) {
                emit.emit(b, 1);
            }
        }

        fn reduce(&self, _k: &u8, acc: u64) -> u64 {
            acc
        }
    }

    #[test]
    fn builder_settings_reach_the_config() {
        let job = Job::new(CharCount)
            .chunking(Chunking::Inter { chunk_bytes: 128 })
            .merge(MergeMode::PWay { ways: 2 })
            .workers(3)
            .split_bytes(64)
            .record_format(RecordFormat::Newline)
            .prefetch_depth(2)
            .pool(PoolMode::Persistent)
            .sample_utilization(Duration::from_millis(50))
            .hash_seed(42)
            .adaptive(GovernorConfig::default());
        let c = job.config_ref();
        assert_eq!(c.chunking, Chunking::Inter { chunk_bytes: 128 });
        assert_eq!(c.merge, MergeMode::PWay { ways: 2 });
        assert_eq!(c.map_workers, 3);
        assert_eq!(c.reduce_workers, 3);
        assert_eq!(c.split_bytes, 64);
        assert_eq!(c.prefetch_depth, 2);
        assert_eq!(c.pool, PoolMode::Persistent);
        assert!(c.sample_utilization.is_some());
        assert_eq!(c.hash_seed, Some(42));
        assert_eq!(c.governor, Some(GovernorConfig::default()));
    }

    #[test]
    fn adaptive_run_reports_governor_state() {
        let result = Job::new(CharCount)
            .chunking(Chunking::Inter { chunk_bytes: 8 })
            .workers(2)
            .split_bytes(4)
            .adaptive(GovernorConfig {
                interval: Duration::from_millis(1),
                ..GovernorConfig::default()
            })
            .run(Input::stream(MemSource::from(b"aa b\nab\ncd e\nfg\n".to_vec())))
            .unwrap();
        let gov = result.report.governor.as_ref().expect("governor report present");
        assert_eq!(gov.interval_ms, 1);
        assert!(gov.final_map_width >= 1);
        let text = result.report.to_json_string();
        assert!(text.contains("\"supmr.governor.v1\""), "report JSON carries the governor block");
    }

    #[test]
    fn builder_runs_jobs() {
        let result = Job::new(CharCount)
            .chunking(Chunking::Inter { chunk_bytes: 8 })
            .merge(MergeMode::PWay { ways: 2 })
            .workers(2)
            .split_bytes(4)
            .run(Input::stream(MemSource::from(b"aa b\nab\n".to_vec())))
            .unwrap();
        assert_eq!(result.pairs, vec![(b'a', 3), (b'b', 2)], "sorted by key via p-way merge");
    }

    #[test]
    fn builder_propagates_validation_errors() {
        let err = Job::new(CharCount)
            .workers(0)
            .run(Input::stream(MemSource::from(vec![1u8])))
            .unwrap_err();
        assert!(matches!(err, crate::SupmrError::InvalidConfig { .. }));
    }

    #[test]
    fn trace_and_on_event_reach_the_config() {
        let job = Job::new(CharCount).trace(TraceLevel::Task).on_event(|_e| {});
        assert_eq!(job.config_ref().trace, TraceLevel::Task);
        assert!(job.config_ref().on_event.is_some());
    }

    #[test]
    fn traced_run_returns_a_trace_and_callback_fires() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let result = Job::new(CharCount)
            .chunking(Chunking::Inter { chunk_bytes: 8 })
            .workers(2)
            .split_bytes(4)
            .trace(TraceLevel::Wave)
            .on_event(move |_e| {
                seen2.fetch_add(1, Ordering::Relaxed);
            })
            .run(Input::stream(MemSource::from(b"aa b\nab\ncd e\nfg\n".to_vec())))
            .unwrap();
        let trace = result.report.trace.as_ref().expect("trace recorded");
        assert!(trace.event_count() > 0);
        trace.validate().expect("spans nest cleanly");
        assert_eq!(seen.load(Ordering::Relaxed), trace.event_count() as u64);
    }
}
