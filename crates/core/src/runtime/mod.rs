//! Job configuration, results, and the two runtimes.
//!
//! [`Job`] is the single entry surface (the paper's `run_ingestMR()`
//! API launches "in exactly the same way as the original library with a
//! few additional chunk-related parameters" — here those parameters live
//! in [`JobConfig`]); multi-stage work composes jobs into a [`Pipeline`]
//! ([`dag`]). Jobs with [`Chunking::None`] execute on the original
//! Phoenix++-style runtime ([`original`]); any other chunking strategy
//! engages the SupMR ingest chunk pipeline ([`pipeline`]). The reduce
//! and merge phases are shared — the merge backend is chosen by
//! [`MergeMode`], which is how experiments isolate the paper's two
//! modifications.
//!
//! Two pieces of plumbing are shared by everything here. A `JobScope`
//! stands up a run's facilities (registry and scrape server, flow
//! ledger, tracer, sampler, private pool) and folds them into the
//! report at the end, for a single job and a [`Pipeline`] alike. And
//! every function of a running stage takes a `StageCtx` — its config,
//! its executor and its `StageProbe` (`runtime/probe.rs`), the one
//! writer of the trace, the registry families, the flow ledger, the
//! phase clock and [`JobStats`]: the functions below say *when* a site
//! is reached, the probe says what it records.

pub mod builder;
pub mod dag;
pub mod governor;
pub mod handoff;
pub mod original;
pub mod pipeline;
pub(crate) mod probe;

pub use builder::Job;
pub use dag::{IterationReport, Pipeline, PipelineResult, Stage, StageId};
pub use governor::{ActionRecord, ActiveConfig, GovernorConfig, GovernorReport};
pub use handoff::{FrameIter, HandoffStats, StageData};

use crate::api::{AccOf, MapReduce};
use crate::chunk::{Chunking, IngestChunk};
use crate::container::{Container, ContainerHooks, ContainerMetrics};
use crate::error::{panic_payload_string, Result, SupmrError};
use crate::pool::{Executor, PoolMetrics, PoolMode, WaveOutcome, WaveWorkers, WorkerPool};
use crate::spill::{
    read_block_bytes, DecodedRun, JobSpill, MemoryAccountant, PairCodec, SpillHooks, SpillMetrics,
    SpilledRun,
};
use crate::split::chunk_splits;
use parking_lot::Mutex;
use probe::StageProbe;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use supmr_merge::{
    merge_fold_by, merge_iterators_by, merge_runs, pairwise_round, partitioned_sort, ByKey,
    PairwiseStats, SortedRun, Workers,
};
use supmr_metrics::sampler::UtilizationSampler;
use supmr_metrics::{
    BottleneckReport, DebugState, DiagInputs, EventCallback, FlowLedger, FlowPhase, JobTrace, Json,
    MetricsServer, MetricsSnapshot, Phase, PhaseTimings, Registry, StallStats, TraceLevel,
    TraceRing, Tracer, UtilTrace,
};
use supmr_storage::{
    DataSource, DiskRunStore, FileSet, RecordFormat, RunStore, SharedBytes, SourceExt,
};

/// Job input: one large byte stream or a set of small files — the two
/// Hadoop input shapes the paper's chunking strategies mirror — or a
/// chunk of bytes already resident in memory (a pipeline stage feeding
/// the next).
pub enum Input {
    /// A single byte-addressed input (Terasort shape).
    Stream(Box<dyn DataSource>),
    /// A set of small files (word count shape).
    Files(Box<dyn FileSet>),
    /// Bytes already resident in shared memory, with segment
    /// boundaries splits must respect — how a [`Pipeline`] stage's
    /// hand-off buffer enters the next stage with zero copies. Ingest
    /// is a no-op; chunked ingest strategies reject this shape.
    Resident(IngestChunk),
}

impl Input {
    /// Wrap a [`DataSource`].
    pub fn stream(source: impl DataSource + 'static) -> Input {
        Input::Stream(Box::new(source))
    }

    /// Wrap a [`FileSet`].
    pub fn files(files: impl FileSet + 'static) -> Input {
        Input::Files(Box::new(files))
    }

    /// Wrap an already-resident chunk of input bytes.
    pub fn resident(chunk: IngestChunk) -> Input {
        Input::Resident(chunk)
    }

    /// Total input bytes.
    pub fn total_bytes(&self) -> u64 {
        match self {
            Input::Stream(s) => s.len(),
            Input::Files(f) => f.total_len(),
            Input::Resident(c) => c.len() as u64,
        }
    }

    /// Human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Input::Stream(s) => s.describe(),
            Input::Files(f) => f.describe(),
            Input::Resident(c) => {
                format!("resident chunk ({} bytes, {} segments)", c.len(), c.segments.len())
            }
        }
    }
}

/// How the final output is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// No ordering: reduce outputs are concatenated.
    Unsorted,
    /// The baseline runtime's merge: sort partitions in parallel, then
    /// iterative 2-way merge rounds with halving parallelism.
    PairwiseRounds,
    /// SupMR's merge: sort partitions in parallel, then one parallel
    /// p-way merge round.
    PWay {
        /// Output-partition parallelism of the p-way merge.
        ways: usize,
    },
}

/// Runtime configuration — the original Phoenix++ knobs plus SupMR's
/// "few additional chunk-related parameters".
#[derive(Clone)]
pub struct JobConfig {
    /// Mapper threads per map wave.
    pub map_workers: usize,
    /// Reducer threads (and reduce partition target).
    pub reduce_workers: usize,
    /// Input split size in bytes (the unit of map-task work).
    pub split_bytes: usize,
    /// Record framing, used for chunk and split boundary adjustment.
    pub record_format: RecordFormat,
    /// Ingest chunking strategy; `None` selects the original runtime.
    pub chunking: Chunking,
    /// Final merge behaviour.
    pub merge: MergeMode,
    /// Worker provisioning: fresh threads per wave (the paper's
    /// observable per-chunk overhead) or one persistent pool per job.
    pub pool: PoolMode,
    /// How many ingest chunks may be buffered ahead of the mappers.
    /// `1` is the paper's double-buffering (one ingest thread created
    /// and destroyed per round); larger values use one long-lived
    /// ingest thread with a bounded buffer of this depth.
    pub prefetch_depth: usize,
    /// If set, sample real CPU utilization at this interval for the
    /// duration of the job (collectl-style trace in the result).
    pub sample_utilization: Option<Duration>,
    /// Event-trace detail recorded into [`JobReport::trace`].
    pub trace: TraceLevel,
    /// Callback invoked synchronously on every trace event (requires
    /// `trace` to be enabled).
    pub on_event: Option<EventCallback>,
    /// Live metrics registry. When set, every layer (runtimes, pool,
    /// merge) maintains its `supmr.*` families here while the job runs,
    /// and [`JobReport::metrics`] carries a final snapshot.
    pub metrics: Option<Registry>,
    /// Serve a `/metrics` OpenMetrics scrape endpoint at this address
    /// (e.g. `"127.0.0.1:9400"`; port 0 picks a free port) for the
    /// duration of the job. Implies a registry: if [`JobConfig::metrics`]
    /// is unset, one is created for the run.
    pub metrics_addr: Option<String>,
    /// Seed for the container's key hasher. `Some` makes key→partition
    /// placement (and, with one worker, output order) reproducible
    /// across runs; `None` (default) keeps the per-container random
    /// seed, the HashDoS posture documented in DESIGN.md §3f.
    pub hash_seed: Option<u64>,
    /// Byte budget for the intermediate container. `Some` engages
    /// out-of-core execution: under memory pressure the container
    /// spills sorted runs to the spill store and the reduce phase
    /// switches to a streaming external merge (DESIGN.md §3g). Requires
    /// the application to provide a
    /// [`spill_codec`](crate::api::MapReduce::spill_codec) and the
    /// container to accept
    /// [`configure_spill`](crate::container::Container::configure_spill).
    pub memory_budget: Option<u64>,
    /// Directory for spill run files. `None` (default) uses a fresh
    /// per-job directory under the system temp dir, removed when the
    /// job completes. Ignored when [`JobConfig::spill_store`] is set.
    pub spill_dir: Option<PathBuf>,
    /// Explicit spill run store — how spill traffic joins the simulated
    /// storage environment (throttled, observed, fault-injected run
    /// stores stack like ingest sources do). `None` builds a plain
    /// [`DiskRunStore`] from [`JobConfig::spill_dir`].
    pub spill_store: Option<Arc<dyn RunStore>>,
    /// Per-phase bandwidth ledger feeding [`JobReport::diag`]. `None`
    /// (default) builds a job-private one; pass a shared ledger to fold
    /// in storage-level meters (e.g.
    /// `IngestMeter::with_flow`), which then own their phases and the
    /// runtime-level recorders stand down.
    pub flow: Option<Arc<FlowLedger>>,
    /// Run the feedback governor: a sampling thread that classifies the
    /// live metrics every interval and retunes scheduling widths,
    /// prefetch depth, the absorb sweep mask, and spill watermarks
    /// mid-job (DESIGN.md §3k). Implies a registry, like
    /// [`JobConfig::metrics_addr`]. Decisions are traced as
    /// [`GovernorAction`](supmr_metrics::EventKind::GovernorAction)
    /// events and summarized in [`JobReport::governor`].
    pub governor: Option<GovernorConfig>,
    /// Pre-built dynamic knobs, normally `None` and built by
    /// [`Job::run`] when [`JobConfig::governor`] is set. Public only so
    /// struct-update syntax (`..JobConfig::default()`) works across the
    /// crate boundary; inject a pre-built handle here to drive actuation
    /// sequences without a governor thread (the determinism tests do).
    #[doc(hidden)]
    pub active: Option<Arc<ActiveConfig>>,
}

impl std::fmt::Debug for JobConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobConfig")
            .field("map_workers", &self.map_workers)
            .field("reduce_workers", &self.reduce_workers)
            .field("split_bytes", &self.split_bytes)
            .field("record_format", &self.record_format)
            .field("chunking", &self.chunking)
            .field("merge", &self.merge)
            .field("pool", &self.pool)
            .field("prefetch_depth", &self.prefetch_depth)
            .field("sample_utilization", &self.sample_utilization)
            .field("trace", &self.trace)
            .field("on_event", &self.on_event.as_ref().map(|_| "<callback>"))
            .field("metrics", &self.metrics)
            .field("metrics_addr", &self.metrics_addr)
            .field("hash_seed", &self.hash_seed)
            .field("memory_budget", &self.memory_budget)
            .field("spill_dir", &self.spill_dir)
            .field("spill_store", &self.spill_store.as_ref().map(|s| s.describe()))
            .field("flow", &self.flow)
            .field("governor", &self.governor)
            .field("active", &self.active)
            .finish()
    }
}

impl Default for JobConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, usize::from);
        JobConfig {
            map_workers: workers,
            reduce_workers: workers,
            split_bytes: 1024 * 1024,
            record_format: RecordFormat::Newline,
            chunking: Chunking::None,
            merge: MergeMode::Unsorted,
            pool: PoolMode::default(),
            prefetch_depth: 1,
            sample_utilization: None,
            trace: TraceLevel::Off,
            on_event: None,
            metrics: None,
            metrics_addr: None,
            hash_seed: None,
            memory_budget: None,
            spill_dir: None,
            spill_store: None,
            flow: None,
            governor: None,
            active: None,
        }
    }
}

impl JobConfig {
    /// Check the configuration for inconsistent knobs — zero worker
    /// counts, a zero split or chunk size, `prefetch_depth == 0`, a
    /// zero-way p-way merge, a zero memory budget, an event callback
    /// without tracing, and the adaptive-chunking shape constraints.
    ///
    /// Every entry path ([`Job::run`], [`Pipeline::run`], the CLI)
    /// routes through this before any work starts.
    ///
    /// # Errors
    /// Returns [`SupmrError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: &str| Err(SupmrError::invalid_config(msg));
        if self.map_workers == 0 || self.reduce_workers == 0 {
            return bad("worker counts must be non-zero");
        }
        if self.split_bytes == 0 {
            return bad("split size must be non-zero");
        }
        match self.chunking {
            Chunking::Inter { chunk_bytes: 0 } | Chunking::Hybrid { chunk_bytes: 0 } => {
                bad("chunk size must be non-zero")
            }
            Chunking::Intra { files_per_chunk: 0 } => bad("files per chunk must be non-zero"),
            Chunking::Adaptive(a) => {
                if a.min_chunk_bytes == 0
                    || a.min_chunk_bytes > a.initial_chunk_bytes
                    || a.initial_chunk_bytes > a.max_chunk_bytes
                    || !(a.overhead_fraction > 0.0 && a.overhead_fraction < 1.0)
                {
                    bad("adaptive chunking needs 0 < min <= initial <= max and a fraction in (0,1)")
                } else if self.prefetch_depth > 1 {
                    // Feedback cannot reach a chunker owned by the
                    // buffered ingest thread.
                    bad("adaptive chunking requires prefetch_depth == 1")
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }?;
        if self.prefetch_depth == 0 {
            return bad("prefetch depth must be at least 1");
        }
        if let MergeMode::PWay { ways: 0 } = self.merge {
            return bad("p-way merge needs at least one way");
        }
        if let RecordFormat::FixedWidth(0) = self.record_format {
            return bad("record width must be non-zero");
        }
        if self.on_event.is_some() && !self.trace.enabled() {
            return bad("an on_event callback requires trace level wave or task");
        }
        if self.memory_budget == Some(0) {
            return bad("a memory budget must be non-zero (omit it to run unbounded)");
        }
        if let Some(g) = &self.governor {
            if g.interval.is_zero() {
                return bad("the governor sampling interval must be non-zero");
            }
            if g.hysteresis == 0 {
                return bad("governor hysteresis must be at least 1 tick");
            }
        }
        Ok(())
    }

    /// Effective map wave width: the governor's dynamic knob when one
    /// is live, else the static [`JobConfig::map_workers`].
    pub(crate) fn effective_map_workers(&self) -> usize {
        self.active.as_ref().map_or(self.map_workers, |a| a.map_width())
    }

    /// Effective reduce wave width (scheduling only — partition counts
    /// always come from the static [`JobConfig::reduce_workers`]).
    pub(crate) fn effective_reduce_workers(&self) -> usize {
        self.active.as_ref().map_or(self.reduce_workers, |a| a.reduce_width())
    }

    /// Cooperative cancellation point: fail with
    /// [`SupmrError::Cancelled`] once any holder of the job's
    /// [`ActiveConfig`] has called `cancel()`. Checked at round and
    /// phase boundaries, so a cancelled job stops within one wave.
    pub(crate) fn check_cancelled(&self) -> Result<()> {
        match &self.active {
            Some(a) if a.is_cancelled() => Err(SupmrError::Cancelled),
            _ => Ok(()),
        }
    }
}

/// Measured timeline of one pipeline round — the Fig. 2/Fig. 4
/// mechanism ("ingest chunks are read into memory while mapper threads
/// operate on earlier chunks") as observed data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Bytes of the chunk mapped this round.
    pub chunk_bytes: u64,
    /// Time the overlapped ingest of the *next* chunk took.
    pub ingest: Duration,
    /// Time this round's map wave took.
    pub map: Duration,
}

/// Execution counters for one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    /// Bytes read from primary storage.
    pub bytes_ingested: u64,
    /// Ingest chunks processed (1 for the original runtime).
    pub ingest_chunks: u32,
    /// Map waves executed (1 for the original runtime, one per chunk for
    /// the pipeline).
    pub map_rounds: u32,
    /// Map tasks (input splits) executed.
    pub map_tasks: u64,
    /// Reduce tasks (partitions) executed.
    pub reduce_tasks: u64,
    /// Threads spawned across all waves plus ingest threads — the
    /// recurring thread cost the chunk-size discussion is about. With
    /// [`PoolMode::Persistent`] the pool's threads are counted exactly
    /// once, at job start.
    pub threads_spawned: u64,
    /// Pool-thread dispatches that replaced a spawn — the per-wave cost
    /// a persistent pool avoided (0 in [`PoolMode::WavePerRound`]).
    pub threads_reused: u64,
    /// Intermediate pairs emitted by map (pre-combining).
    pub intermediate_pairs: u64,
    /// Distinct intermediate keys.
    pub distinct_keys: u64,
    /// Final output pairs.
    pub output_pairs: u64,
    /// Merge rounds executed (0 = unsorted, 1 = p-way, log₂ = pairwise).
    pub merge_rounds: u32,
    /// Elements written during merging across all rounds (the
    /// "re-scanning" cost; equals output pairs for a single-pass merge).
    pub merge_elements_moved: u64,
    /// Per-round pipeline timeline (empty for the original runtime and
    /// for `prefetch_depth > 1`, where rounds are not individually
    /// bounded).
    pub rounds: Vec<RoundRecord>,
    /// Total time the map side sat idle waiting for a chunk's ingest to
    /// complete — the pipeline was ingest-bound for this long. Always
    /// accounted, independent of the trace level.
    pub map_waiting: Duration,
    /// Total time the ingest side sat idle waiting for the mappers to
    /// release the buffer — the pipeline was map-bound for this long.
    pub ingest_waiting: Duration,
    /// Sorted run files spilled under the memory budget (0 without a
    /// budget or when the intermediate set stayed under it).
    pub spill_runs: u64,
    /// Framed bytes written into spill run files.
    pub spill_bytes: u64,
}

/// Everything measured about a finished job, in one handle with a
/// stable JSON rendering: phase timings (a Table II row), execution
/// counters with stall accounting, and the optional utilization and
/// event traces.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Per-phase wall-clock breakdown (a Table II row).
    pub timings: PhaseTimings,
    /// Execution counters, including stall totals.
    pub stats: JobStats,
    /// CPU utilization trace, when sampling was requested.
    pub util: Option<UtilTrace>,
    /// Typed event trace, when tracing was enabled.
    pub trace: Option<JobTrace>,
    /// Final snapshot of the live metrics registry, when one was
    /// attached ([`JobConfig::metrics`] / [`JobConfig::metrics_addr`]).
    pub metrics: Option<MetricsSnapshot>,
    /// Per-stage breakdown, in completion order. Empty for single-stage
    /// jobs run outside a [`Pipeline`].
    pub stages: Vec<StageReport>,
    /// Bottleneck diagnosis: per-phase achieved bandwidth plus the
    /// classifier's verdict (`supmr.diag.v1`). Always computed for jobs
    /// run through [`Job::run`] / [`Pipeline::run`].
    pub diag: Option<BottleneckReport>,
    /// Feedback-governor action log and final knob positions
    /// (`supmr.governor.v1`), present when the job ran with
    /// [`JobConfig::governor`] set.
    pub governor: Option<GovernorReport>,
}

/// One pipeline stage's slice of the [`JobReport`].
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// The stage's name, as given to [`Stage::new`].
    pub name: String,
    /// Scheduling index of the stage within its pipeline.
    pub stage: u32,
    /// Pipeline iteration this execution belongs to (0 except under
    /// [`Pipeline::until`]).
    pub iteration: u64,
    /// The stage's own phase timings.
    pub timings: PhaseTimings,
    /// The stage's own execution counters.
    pub stats: JobStats,
    /// Hand-off counters, when the stage fed a downstream stage.
    pub handoff: Option<HandoffStats>,
}

impl StageReport {
    fn to_json(&self) -> Json {
        let us = |d: Duration| Json::from(d.as_micros() as u64);
        let handoff = match &self.handoff {
            Some(h) => Json::obj(vec![
                ("pairs", Json::from(h.pairs)),
                ("bytes", Json::from(h.bytes)),
                ("segments", Json::from(h.segments)),
                ("materialized_pairs", Json::from(h.materialized_pairs)),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            ("name", Json::str(self.name.as_str())),
            ("stage", Json::from(u64::from(self.stage))),
            ("iteration", Json::from(self.iteration)),
            ("total_us", us(self.timings.total())),
            ("output_pairs", Json::from(self.stats.output_pairs)),
            ("spill_runs", Json::from(self.stats.spill_runs)),
            ("handoff", handoff),
        ])
    }
}

impl JobReport {
    /// Summed pipeline stall time by side.
    pub fn stalls(&self) -> StallStats {
        StallStats {
            map_waiting: self.stats.map_waiting,
            ingest_waiting: self.stats.ingest_waiting,
        }
    }

    /// The report as a JSON value with the stable
    /// `supmr.job_report.v1` schema. Full event traces are exported
    /// separately ([`supmr_metrics::chrome`]); here the trace appears
    /// as a summary (thread/event counts).
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::from(d.as_micros() as u64);
        let timings = Json::obj(vec![
            ("total_us", us(self.timings.total())),
            ("ingest_us", us(self.timings.phase(Phase::Ingest))),
            ("map_us", us(self.timings.phase(Phase::Map))),
            ("reduce_us", us(self.timings.phase(Phase::Reduce))),
            ("merge_us", us(self.timings.phase(Phase::Merge))),
            ("fused_ingest_map", Json::Bool(self.timings.is_fused())),
        ]);
        let s = &self.stats;
        let rounds = Json::Arr(
            s.rounds
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("chunk_bytes", Json::from(r.chunk_bytes)),
                        ("ingest_us", us(r.ingest)),
                        ("map_us", us(r.map)),
                    ])
                })
                .collect(),
        );
        let stats = Json::obj(vec![
            ("bytes_ingested", Json::from(s.bytes_ingested)),
            ("ingest_chunks", Json::from(u64::from(s.ingest_chunks))),
            ("map_rounds", Json::from(u64::from(s.map_rounds))),
            ("map_tasks", Json::from(s.map_tasks)),
            ("reduce_tasks", Json::from(s.reduce_tasks)),
            ("threads_spawned", Json::from(s.threads_spawned)),
            ("threads_reused", Json::from(s.threads_reused)),
            ("intermediate_pairs", Json::from(s.intermediate_pairs)),
            ("distinct_keys", Json::from(s.distinct_keys)),
            ("output_pairs", Json::from(s.output_pairs)),
            ("merge_rounds", Json::from(u64::from(s.merge_rounds))),
            ("merge_elements_moved", Json::from(s.merge_elements_moved)),
            ("spill_runs", Json::from(s.spill_runs)),
            ("spill_bytes", Json::from(s.spill_bytes)),
            ("rounds", rounds),
        ]);
        let stalls = Json::obj(vec![
            ("map_waiting_us", us(s.map_waiting)),
            ("ingest_waiting_us", us(s.ingest_waiting)),
        ]);
        let util = match &self.util {
            Some(u) => Json::obj(vec![
                ("available", Json::Bool(!u.is_unavailable())),
                ("samples", Json::from(u.samples().len() as u64)),
                ("duration_s", Json::Num(u.duration())),
            ]),
            None => Json::Null,
        };
        let trace = match &self.trace {
            Some(t) => Json::obj(vec![
                ("threads", Json::from(t.threads.len() as u64)),
                ("events", Json::from(t.event_count() as u64)),
            ]),
            None => Json::Null,
        };
        let metrics = match &self.metrics {
            Some(m) => m.to_json(),
            None => Json::Null,
        };
        let stages = Json::Arr(self.stages.iter().map(StageReport::to_json).collect());
        let diag = match &self.diag {
            Some(d) => d.to_json(),
            None => Json::Null,
        };
        let governor = match &self.governor {
            Some(g) => g.to_json(),
            None => Json::Null,
        };
        Json::obj(vec![
            ("schema", Json::str("supmr.job_report.v1")),
            ("timings", timings),
            ("stats", stats),
            ("stalls", stalls),
            ("stages", stages),
            ("diag", diag),
            ("governor", governor),
            ("util", util),
            ("trace", trace),
            ("metrics", metrics),
        ])
    }

    /// [`to_json`](JobReport::to_json) rendered as compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

/// A finished job: output pairs plus the [`JobReport`] every experiment
/// consumes.
#[derive(Debug)]
pub struct JobResult<K, O> {
    /// Reduced output pairs, ordered according to [`MergeMode`].
    pub pairs: Vec<(K, O)>,
    /// Everything measured about the run.
    pub report: JobReport,
}

impl<K: Ord + Clone, O: Clone> JobResult<K, O> {
    /// The output pairs sorted by key (stable), regardless of merge mode
    /// — convenient for assertions.
    pub fn sorted_pairs(&self) -> Vec<(K, O)> {
        let mut v = self.pairs.clone();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// What one stage hands back: either the job's terminal pairs or a
/// framed hand-off buffer for the next stage.
pub(crate) enum StageOutput<K, O> {
    /// Terminal output, merged per [`MergeMode`].
    Pairs(Vec<(K, O)>),
    /// Framed bytes for the downstream stage (non-terminal stages).
    Handoff(StageData),
}

/// One executed stage: its output plus its own report.
pub(crate) struct StageResult<K, O> {
    pub output: StageOutput<K, O>,
    pub report: JobReport,
}

/// Pipeline-level wiring threaded into one stage execution. Default
/// wiring (no hand-off codec, job-private accountant, empty run prefix)
/// is the degenerate single-stage case.
pub(crate) struct StageWiring<J: MapReduce> {
    /// When set, the stage's reduced output is encoded through this
    /// codec into a [`StageData`] instead of materializing pairs.
    pub handoff: Option<PairCodec<J::Key, J::Output>>,
    /// A pipeline-shared byte ledger; `None` builds a per-job one.
    pub accountant: Option<Arc<MemoryAccountant>>,
    /// Prefix for spill run names, so concurrent stages sharing one
    /// run store never collide.
    pub run_prefix: String,
}

impl<J: MapReduce> Default for StageWiring<J> {
    fn default() -> Self {
        StageWiring { handoff: None, accountant: None, run_prefix: String::new() }
    }
}

/// What every function of a running stage is handed: the stage's
/// configuration, the executor its waves run on, and the probe it
/// reports through.
pub(crate) struct StageCtx<'a> {
    pub config: &'a JobConfig,
    pub exec: Executor<'a>,
    pub probe: StageProbe,
}

/// Execute one stage: dispatch to the original runtime
/// ([`Chunking::None`]) or the SupMR ingest chunk pipeline, converting
/// a panic inside a user map/reduce function into
/// [`SupmrError::TaskPanic`] so a crashing task fails the job instead
/// of the process. The shared dispatch core under [`Job::run`] and
/// [`Pipeline::run`].
pub(crate) fn run_stage<J: MapReduce>(
    job: &Arc<J>,
    input: Input,
    config: &JobConfig,
    exec: Executor<'_>,
    tracer: &Tracer,
    wiring: StageWiring<J>,
) -> Result<StageResult<J::Key, J::Output>> {
    let ctx = StageCtx { config, exec, probe: StageProbe::new(config, tracer) };
    let dispatch = catch_unwind(AssertUnwindSafe(|| match config.chunking {
        Chunking::None => original::run(job, input, ctx, wiring),
        _ => pipeline::run(job, input, ctx, wiring),
    }));
    match dispatch {
        Ok(stage_result) => stage_result,
        Err(payload) => Err(SupmrError::TaskPanic { payload: panic_payload_string(payload) }),
    }
}

/// Host-provided facilities for running a job inside a larger serving
/// process: a shared persistent [`WorkerPool`] instead of a job-private
/// one, a pre-built byte ledger (a tenant's partition of a global
/// budget), and a run-name prefix so concurrent jobs sharing one spill
/// store never collide. [`Job::run`] is the degenerate case where
/// everything is job-private.
#[derive(Default)]
pub struct SharedRun<'p> {
    /// Dispatch waves onto this pool rather than provisioning one.
    /// Overrides [`JobConfig::pool`]; the pool's spawn cost is the
    /// host's, so `threads_spawned` stays 0 for the job.
    pub pool: Option<&'p WorkerPool>,
    /// A host-built [`MemoryAccountant`] (gauge already attached); the
    /// job budgets against it instead of building its own.
    pub accountant: Option<Arc<MemoryAccountant>>,
    /// Prefix for this job's spill run names.
    pub run_prefix: String,
}

/// The job-scoped facilities a run stands up before its first stage and
/// tears down after its last, for a single job ([`run_with`]) and a
/// pipeline ([`Pipeline::run`]) alike: the metrics registry (implied by a
/// scrape address or a governor) and its scrape/debug server, the flow
/// ledger, the tracer with its event callbacks, the utilization sampler,
/// and the job-private persistent pool.
pub(crate) struct JobScope<'p> {
    /// The validated configuration, with the registry and flow ledger
    /// the scope settled on written back so every stage sees them.
    pub config: JobConfig,
    pub tracer: Tracer,
    /// A byte ledger every stage budgets against — a host's partition
    /// of its global budget, or a pipeline's one ledger. `None` leaves a
    /// stage to build its own.
    pub accountant: Option<Arc<MemoryAccountant>>,
    flow: Arc<FlowLedger>,
    server: Option<MetricsServer>,
    sampler: Option<UtilizationSampler>,
    pool: Option<WorkerPool>,
    host_pool: Option<&'p WorkerPool>,
}

impl<'p> JobScope<'p> {
    /// Validate `config` and stand the facilities up. Waves dispatch
    /// onto `host_pool`, and stages budget against `accountant`, when
    /// the host lends them.
    pub fn open(
        mut config: JobConfig,
        host_pool: Option<&'p WorkerPool>,
        accountant: Option<Arc<MemoryAccountant>>,
    ) -> Result<JobScope<'p>> {
        config.validate()?;
        // A scrape endpoint implies a registry for it to expose; so does
        // the governor, which samples one.
        if (config.metrics_addr.is_some() || config.governor.is_some()) && config.metrics.is_none()
        {
            config.metrics = Some(Registry::new());
        }
        // The ledger from the config (shared with storage-level meters)
        // or a fresh job-private one; it mirrors into a live registry.
        let flow = Arc::clone(config.flow.get_or_insert_with(Default::default));
        if let Some(r) = &config.metrics {
            flow.attach_registry(r);
        }
        // A live server with tracing on gets a bounded event ring behind
        // `/debug/trace`, fed by the tracer's callback.
        let ring = (config.metrics_addr.is_some() && config.trace.enabled())
            .then(|| TraceRing::new(TraceRing::DEFAULT_CAP));
        let server = match (&config.metrics_addr, &config.metrics) {
            (Some(addr), Some(r)) => {
                let mut state = DebugState::new(r.clone());
                if let Some(ring) = &ring {
                    state = state.with_ring(Arc::clone(ring));
                }
                Some(MetricsServer::serve_debug(addr, state).map_err(|e| {
                    SupmrError::invalid_config(format!("cannot serve metrics on {addr}: {e}"))
                })?)
            }
            _ => None,
        };
        let callback = compose_callbacks(config.on_event.clone(), ring.map(|r| r.callback()));
        let tracer = Tracer::new(config.trace, callback);
        let sampler = config.sample_utilization.map(UtilizationSampler::start);
        let pool = (host_pool.is_none() && config.pool == PoolMode::Persistent).then(|| {
            WorkerPool::new_instrumented(
                config.map_workers.max(config.reduce_workers),
                tracer.clone(),
                config.metrics.as_ref().map(PoolMetrics::register),
            )
        });
        Ok(JobScope { config, tracer, accountant, flow, server, sampler, pool, host_pool })
    }

    /// Where the scope's waves run: the host's pool, the scope's own, or
    /// fresh threads per wave.
    pub fn exec(&self) -> Executor<'_> {
        match self.host_pool.or(self.pool.as_ref()) {
            Some(pool) => Executor::Pool(pool),
            None => Executor::Wave,
        }
    }

    /// Tear down, folding what the facilities gathered into `report`.
    pub fn close(self, report: &mut JobReport) {
        if let Some(p) = &self.pool {
            // The pool's one-time spawn cost, counted once per job.
            report.stats.threads_spawned += p.size() as u64;
        }
        if let Some(s) = self.sampler {
            report.util = Some(s.stop());
        }
        if self.tracer.level().enabled() {
            report.trace = Some(self.tracer.finish());
        }
        if let Some(r) = &self.config.metrics {
            report.metrics = Some(r.snapshot());
        }
        report.diag = Some(diagnose(report, &self.flow, &self.config));
        if let Some(s) = self.server {
            s.shutdown();
        }
    }
}

/// The single-stage orchestration behind [`Job::run`]: everything
/// job-private.
pub(crate) fn run_single<J: MapReduce>(
    job: J,
    input: Input,
    config: JobConfig,
) -> Result<JobResult<J::Key, J::Output>> {
    run_with(job, input, config, SharedRun::default())
}

/// Run one job against host-shared facilities ([`SharedRun`]) — the
/// serve daemon's per-job entry point. Behaves exactly like
/// [`Job::run`] when `shared` is default.
pub fn run_with<J: MapReduce>(
    job: J,
    input: Input,
    config: JobConfig,
    shared: SharedRun<'_>,
) -> Result<JobResult<J::Key, J::Output>> {
    let mut scope = JobScope::open(config, shared.pool, shared.accountant)?;
    // Stand up the feedback governor: shared dynamic knobs seeded from
    // the static widths, plus the sampling thread that moves them.
    let governor = scope.config.governor.map(|g| {
        let config = &mut scope.config;
        let active = config.active.get_or_insert_with(|| {
            Arc::new(ActiveConfig::new(
                config.map_workers,
                config.reduce_workers,
                config.prefetch_depth,
            ))
        });
        governor::GovernorRuntime::spawn(
            g,
            config.metrics.clone().expect("the governor implies a registry"),
            Arc::clone(active),
            scope.tracer.clone(),
            governor::GovernorLimits {
                map_base: config.map_workers,
                reduce_cap: config.map_workers.max(config.reduce_workers),
            },
        )
    });
    let wiring = StageWiring {
        handoff: None,
        accountant: scope.accountant.clone(),
        run_prefix: shared.run_prefix,
    };
    let stage =
        run_stage(&Arc::new(job), input, &scope.config, scope.exec(), &scope.tracer, wiring)?;
    let mut result = match stage.output {
        StageOutput::Pairs(pairs) => JobResult { pairs, report: stage.report },
        StageOutput::Handoff(_) => unreachable!("single-stage wiring requests no hand-off"),
    };
    if let Some(g) = governor {
        result.report.governor = Some(g.stop());
    }
    scope.close(&mut result.report);
    Ok(result)
}

/// Compose the user's event callback with the debug ring's, preserving
/// `None` when neither exists (the tracer's zero-cost path).
fn compose_callbacks(
    user: Option<EventCallback>,
    ring: Option<EventCallback>,
) -> Option<EventCallback> {
    match (user, ring) {
        (Some(a), Some(b)) => Some(Arc::new(move |event| {
            a(event);
            b(event);
        })),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Fold a finished report plus the flow ledger into the classifier's
/// inputs and run it — the report-time counterpart of the live
/// `/debug/diag` endpoint.
fn diagnose(report: &JobReport, flow: &FlowLedger, config: &JobConfig) -> BottleneckReport {
    let us = |d: Duration| d.as_micros() as u64;
    let t = &report.timings;
    let snapshot_hist_sum = |name: &str| {
        report
            .metrics
            .as_ref()
            .map(|snap| {
                snap.entries
                    .iter()
                    .filter(|e| e.name == name)
                    .filter_map(|e| match &e.value {
                        supmr_metrics::MetricValue::Histogram(h) => Some(h.sum),
                        _ => None,
                    })
                    .sum()
            })
            .unwrap_or(0)
    };
    let inputs = DiagInputs {
        wall_us: us(t.total()),
        // When ingest is fused into the map rounds there is no serial
        // ingest phase; the stall counters carry the pressure signal.
        ingest_us: if t.is_fused() { 0 } else { us(t.phase(Phase::Ingest)) },
        map_us: us(t.phase(Phase::Map)),
        merge_us: us(t.phase(Phase::Merge)),
        map_stall_us: us(report.stats.map_waiting),
        ingest_stall_us: us(report.stats.ingest_waiting),
        absorb_wait_us: snapshot_hist_sum("supmr.container.absorb_wait_us"),
        map_workers: config.map_workers.max(1) as u64,
        budget_bytes: config.memory_budget.unwrap_or(0),
        resident_bytes: report
            .metrics
            .as_ref()
            .and_then(|snap| {
                snap.entries.iter().find(|e| e.name == "supmr.spill.resident_bytes").and_then(|e| {
                    match &e.value {
                        supmr_metrics::MetricValue::Gauge(v) => Some((*v).max(0) as u64),
                        _ => None,
                    }
                })
            })
            .unwrap_or(0),
        spill_runs: report.stats.spill_runs,
        spill_bytes: report.stats.spill_bytes,
        // The merge flow also carries the in-memory merge phase; without
        // spilled runs that is all it carries, and none of it is the
        // budget's doing.
        spill_busy_us: if report.stats.spill_runs == 0 {
            0
        } else {
            us(flow.busy(FlowPhase::Spill)) + us(flow.busy(FlowPhase::Merge))
        },
        flows: flow.snapshot(),
    };
    BottleneckReport::from_inputs(inputs)
}

/// Read the entire input into one resident chunk (the original runtime's
/// ingest phase). File inputs keep per-file segment boundaries.
///
/// Sources whose bytes are already resident in shared memory
/// ([`DataSource::shared`]) are wrapped zero-copy; everything else is
/// read once and sealed into a [`SharedBytes`] allocation.
pub(crate) fn ingest_entire(input: Input) -> io::Result<IngestChunk> {
    match input {
        Input::Resident(chunk) => Ok(chunk),
        Input::Stream(mut s) => {
            let total = s.len();
            let data = match s.shared().filter(|b| b.len() as u64 == total) {
                Some(resident) => resident,
                None => SharedBytes::from(s.read_all()?),
            };
            #[allow(clippy::single_range_in_vec_init)] // one segment covering everything
            let segments = vec![0..data.len()];
            Ok(IngestChunk { index: 0, offset: 0, segments, data })
        }
        Input::Files(mut f) => {
            if f.file_count() == 1 {
                if let Some(data) = f.shared_file(0) {
                    #[allow(clippy::single_range_in_vec_init)] // one segment covering everything
                    let segments = vec![0..data.len()];
                    return Ok(IngestChunk { index: 0, offset: 0, segments, data });
                }
            }
            let mut data = Vec::new();
            let mut segments = Vec::with_capacity(f.file_count());
            for i in 0..f.file_count() {
                let start = data.len();
                data.extend_from_slice(&f.read_file(i)?);
                segments.push(start..data.len());
            }
            Ok(IngestChunk { index: 0, offset: 0, segments, data: SharedBytes::from(data) })
        }
    }
}

/// Run one map wave over a chunk's splits. Tasks borrow the job, the
/// container and the chunk buffer, on wave threads and pool threads alike.
pub(crate) fn map_wave<J: MapReduce>(
    job: &Arc<J>,
    container: &J::Container,
    chunk: &IngestChunk,
    ctx: &StageCtx<'_>,
    round: u32,
) -> WaveOutcome {
    let splits = chunk_splits(chunk, ctx.config.split_bytes, ctx.config.record_format);
    let data = &chunk.data;
    ctx.probe.map_wave(round, splits.len(), || {
        ctx.exec.run(ctx.config.effective_map_workers(), splits, |idx, range| {
            ctx.probe.map_task(round, idx, range.len(), || {
                let mut local = container.local();
                job.map(&data[range], &mut local);
                container.absorb(local);
            });
        })
    })
}

/// One job's shared out-of-core state, typed by the application.
type SpillOf<J> = Arc<JobSpill<<J as MapReduce>::Key, AccOf<J>>>;

/// One sorted source feeding the external merge — an in-memory drain or
/// a decoded run file — or the merged stream itself, which borrows the
/// job for its key prefix.
type MergeSource<'a, J> = Box<dyn Iterator<Item = (<J as MapReduce>::Key, AccOf<J>)> + 'a>;

/// The wiring a runtime hands its freshly built container: the job's
/// hash seed and, when a registry is live, the `supmr.container.*`
/// metric handles.
pub(crate) fn container_hooks(config: &JobConfig) -> ContainerHooks {
    ContainerHooks {
        hash_seed: config.hash_seed,
        metrics: config.metrics.as_ref().map(ContainerMetrics::register),
        active: config.active.clone(),
    }
}

/// The out-of-core wiring for one job, when
/// [`JobConfig::memory_budget`] is set: build the run store (explicit
/// store > spill dir > fresh temp dir), the byte ledger, and the
/// job-level spill sink, then hand the container its [`SpillHooks`].
///
/// Fails with [`SupmrError::InvalidConfig`] when the application has no
/// [`spill_codec`](MapReduce::spill_codec) or the container refuses to
/// spill — a budget the runtime cannot honor must not silently run
/// unbounded.
pub(crate) fn setup_spill<J: MapReduce>(
    job: &Arc<J>,
    container: &J::Container,
    ctx: &mut StageCtx<'_>,
    wiring: &StageWiring<J>,
) -> Result<Option<SpillOf<J>>> {
    let config = ctx.config;
    let Some(budget) = config.memory_budget else { return Ok(None) };
    let codec = job.spill_codec().ok_or_else(|| {
        SupmrError::invalid_config(
            "memory_budget is set but the application provides no spill codec",
        )
    })?;
    let (store, cleanup): (Arc<dyn RunStore>, Option<PathBuf>) =
        match (&config.spill_store, &config.spill_dir) {
            (Some(store), _) => (Arc::clone(store), None),
            (None, Some(dir)) => (Arc::new(DiskRunStore::create(dir)?), None),
            (None, None) => {
                // Unique per job within the process; removed (with the
                // runs already gone) when the spill state drops.
                static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "supmr-spill-{}-{}",
                    std::process::id(),
                    SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                (Arc::new(DiskRunStore::create(&dir)?), Some(dir))
            }
        };
    let metrics = config.metrics.as_ref().map(SpillMetrics::register);
    let accountant = match &wiring.accountant {
        // A pipeline-shared ledger arrives fully built (gauge attached
        // at pipeline start); all stages budget against it together.
        Some(shared) => Arc::clone(shared),
        None => {
            let mut accountant = MemoryAccountant::new(budget);
            if let Some(m) = &metrics {
                m.budget_bytes.set(budget.min(i64::MAX as u64) as i64);
                accountant = accountant.with_gauge(m.resident_bytes.clone());
            }
            Arc::new(accountant)
        }
    };
    // The governor's low-watermark lever reaches the ledger here.
    if let Some(active) = &config.active {
        active.attach_accountant(Arc::clone(&accountant));
    }
    let spill = Arc::new(JobSpill::new(
        Arc::clone(&accountant),
        codec,
        store,
        cleanup,
        wiring.run_prefix.clone(),
        ctx.probe.spill_probe(metrics),
    ));
    let sink = {
        let spill = Arc::clone(&spill);
        let job = Arc::clone(job);
        Arc::new(move |partition: usize, pairs: Vec<(J::Key, AccOf<J>)>| {
            spill.spill_partition(partition, pairs, &ByKey(|key: &J::Key| job.key_prefix(key)));
        })
    };
    let hooks = SpillHooks {
        accountant,
        partitions: config.reduce_workers,
        size_hint: codec.size_hint,
        sink,
    };
    if !container.configure_spill(&hooks) {
        return Err(SupmrError::invalid_config(
            "memory_budget is set but the job's container does not support spilling",
        ));
    }
    Ok(Some(spill))
}

/// One reduce task's output: materialized pairs, or (on the streamed
/// hand-off path) codec-framed bytes with no pair `Vec` ever built.
struct PartOut<K, O> {
    pairs: Vec<(K, O)>,
    frames: handoff::FrameBuf,
}

impl<K, O> PartOut<K, O> {
    fn from_pairs(pairs: Vec<(K, O)>) -> Self {
        PartOut { pairs, frames: handoff::FrameBuf::default() }
    }

    fn from_frames(frames: handoff::FrameBuf) -> Self {
        PartOut { pairs: Vec::new(), frames }
    }
}

/// Reduce one partition's key-grouped pairs: into hand-off frames when
/// `encode` is set (the streamed stage boundary — no pair `Vec` is
/// built), into output pairs otherwise.
fn reduce_into<J: MapReduce>(
    job: &J,
    grouped: impl Iterator<Item = (J::Key, AccOf<J>)>,
    encode: Option<PairCodec<J::Key, J::Output>>,
) -> PartOut<J::Key, J::Output> {
    match encode {
        Some(codec) => {
            let mut frames = handoff::FrameBuf::default();
            for (k, acc) in grouped {
                let o = job.reduce(&k, acc);
                frames.push(codec, &k, &o);
            }
            PartOut::from_frames(frames)
        }
        None => PartOut::from_pairs(
            grouped
                .map(|(k, acc)| {
                    let out = job.reduce(&k, acc);
                    (k, out)
                })
                .collect(),
        ),
    }
}

/// Shared tail of both runtimes: reduce, merge, and result assembly.
/// With spilled runs on disk the reduce phase runs as a streaming
/// external merge per partition; otherwise it is the in-memory
/// drain-and-reduce wave. With a hand-off codec in the wiring the
/// output is a framed [`StageData`] for the next stage instead of
/// terminal pairs — streamed pair-by-pair out of the reduce workers
/// when the stage's merge mode is [`MergeMode::Unsorted`], or encoded
/// after the merge (and counted as materialized) otherwise.
pub(crate) fn finish_job<J: MapReduce>(
    job: &Arc<J>,
    container: J::Container,
    spill: Option<SpillOf<J>>,
    mut ctx: StageCtx<'_>,
    wiring: StageWiring<J>,
) -> Result<StageResult<J::Key, J::Output>> {
    // A run that failed to write means the intermediate set is
    // incomplete: surface the parked fault before reducing over it.
    if let Some(sp) = &spill {
        sp.check().map_err(|source| SupmrError::Ingest { chunk: None, source })?;
    }
    ctx.probe.shuffled(
        container.total_pairs(),
        container.distinct_keys() as u64,
        spill.as_ref().map(|sp| (sp.runs_written(), sp.bytes_written())),
    );

    ctx.config.check_cancelled()?;
    // Stream reduced pairs straight into frames only when no merge
    // reorders them afterwards; a sorted hand-off must materialize.
    let streamed = wiring.handoff.filter(|_| matches!(ctx.config.merge, MergeMode::Unsorted));
    ctx.probe.enter(Phase::Reduce);
    // The external reduce streams each partition out of a key-ordered
    // merge; the in-memory drain leaves partitions in container order.
    let (reduced, presorted) = match &spill {
        Some(sp) if sp.runs_written() > 0 => {
            (external_reduce(job, container, sp, &mut ctx, streamed)?, true)
        }
        _ => (in_memory_reduce(job, container, &mut ctx, streamed), false),
    };
    let reduce_took = ctx.probe.leave(Phase::Reduce);
    // Run guards have deleted their files inside the reduce tasks; this
    // removes the per-job temp spill directory, when we created one.
    drop(spill);

    let (output, output_pairs) = if streamed.is_some() {
        let data = handoff::assemble(reduced.into_iter().map(|p| p.frames).collect(), false);
        // The framed bytes crossed the stage boundary over the reduce
        // span that encoded them.
        ctx.probe.handed_off(data.stats.bytes, reduce_took);
        let pairs = data.stats.pairs;
        (StageOutput::Handoff(data), pairs)
    } else {
        ctx.probe.enter(Phase::Merge);
        let parts = reduced.into_iter().map(|p| p.pairs).collect();
        let pairs = merge_phase(job, parts, presorted, &mut ctx)?;
        ctx.probe.leave(Phase::Merge);
        let output_pairs = pairs.len() as u64;
        let output = match wiring.handoff {
            // Sorted hand-off: frame the merged pairs as one segment.
            // Every pair counts as materialized.
            Some(codec) => {
                let encode_t0 = Instant::now();
                let mut frames = handoff::FrameBuf::default();
                for (k, o) in &pairs {
                    frames.push(codec, k, o);
                }
                let data = handoff::assemble(vec![frames], true);
                ctx.probe.handed_off(data.stats.bytes, encode_t0.elapsed());
                StageOutput::Handoff(data)
            }
            None => StageOutput::Pairs(pairs),
        };
        (output, output_pairs)
    };

    let (timings, stats) = ctx.probe.finish(output_pairs);
    Ok(StageResult { output, report: JobReport { timings, stats, ..JobReport::default() } })
}

/// The in-memory reduce wave: decompose the container into per-partition
/// drain payloads (cheap, here) and materialize each on a reduce worker
/// (the expensive part), fused with that partition's reduce so the pairs
/// stay hot in the worker's cache.
fn in_memory_reduce<J: MapReduce>(
    job: &Arc<J>,
    container: J::Container,
    ctx: &mut StageCtx<'_>,
    encode: Option<PairCodec<J::Key, J::Output>>,
) -> Vec<PartOut<J::Key, J::Output>> {
    let drains = container.into_drains(ctx.config.reduce_workers);
    ctx.probe.reduce_wave_start(drains.len());
    let probe = &ctx.probe;
    let (reduced, outcome) = ctx.exec.run_collect(
        ctx.config.effective_reduce_workers(),
        drains,
        |idx, payload: <J::Container as Container<J::Key, J::Value, J::Combiner>>::Drain| {
            let part: Vec<(J::Key, AccOf<J>)> =
                probe.drain(Some(idx), || <J::Container>::drain(payload));
            probe
                .reduce_partition(idx, None, || reduce_into(job.as_ref(), part.into_iter(), encode))
        },
    );
    ctx.probe.reduce_wave_end(outcome);
    reduced
}

/// The out-of-core reduce wave: group in-memory drains and spilled runs
/// by partition, then per partition stream a p-way merge of the sorted
/// run files plus the sorted in-memory remainder straight through
/// `reduce` — one pass, no run read twice, run files deleted (by their
/// guards) the moment their partition completes. Partitions are
/// whatever the container tagged its runs with — hash-prefix shards or
/// key ranges — and merge side by side, one task each. Combining
/// containers keep folding equal keys across runs; identity containers
/// pass pairs through unfolded.
fn external_reduce<J: MapReduce>(
    job: &Arc<J>,
    container: J::Container,
    spill: &SpillOf<J>,
    ctx: &mut StageCtx<'_>,
    encode: Option<PairCodec<J::Key, J::Output>>,
) -> Result<Vec<PartOut<J::Key, J::Output>>> {
    type Grouped<J> = BTreeMap<
        usize,
        (
            Vec<
                <<J as MapReduce>::Container as Container<
                    <J as MapReduce>::Key,
                    <J as MapReduce>::Value,
                    <J as MapReduce>::Combiner,
                >>::Drain,
            >,
            Vec<SpilledRun>,
        ),
    >;
    let mut grouped: Grouped<J> = BTreeMap::new();
    for (partition, drain) in container.into_indexed_drains(ctx.config.reduce_workers) {
        grouped.entry(partition).or_default().0.push(drain);
    }
    for run in spill.take_runs() {
        grouped.entry(run.partition).or_default().1.push(run);
    }
    let tasks: Vec<_> = grouped.into_iter().map(|(p, (drains, runs))| (p, drains, runs)).collect();

    ctx.probe.reduce_wave_start(tasks.len());
    let probe = &ctx.probe;
    let store = spill.store();
    let codec = spill.codec();
    let budget = spill.accountant().budget();
    let folds = <J::Container as Container<J::Key, J::Value, J::Combiner>>::spill_folds();
    let (reduced, outcome) = ctx.exec.run_collect(
        ctx.config.effective_reduce_workers(),
        tasks,
        |_idx, (partition, drains, runs)| -> Result<PartOut<J::Key, J::Output>> {
            let run_bytes: u64 = runs.iter().map(|r| r.bytes).sum();
            probe.reduce_partition(partition, Some((runs.len(), run_bytes)), || {
                // Read/decode faults inside the merge stream park here
                // (an iterator can't return Result mid-merge).
                let parked: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
                let mut sources: Vec<MergeSource<J>> =
                    Vec::with_capacity(drains.len() + runs.len());
                // The job's order, as in the in-memory merge: the tree
                // settles most matches on cached prefixes.
                let order = ByKey(|key: &J::Key| job.key_prefix(key));
                for payload in drains {
                    let part = probe.drain(None, || <J::Container>::drain(payload));
                    sources.push(Box::new(SortedRun::sort(part, &order).into_items().into_iter()));
                }
                let block_bytes = read_block_bytes(budget, runs.len());
                for run in &runs {
                    let decoded = DecodedRun::open(
                        store.as_ref(),
                        &run.name,
                        codec.decode,
                        Arc::clone(&parked),
                        block_bytes,
                    )
                    .map_err(|source| SupmrError::Ingest { chunk: None, source })?;
                    sources.push(Box::new(decoded));
                }
                let mut merged: MergeSource<J> = if folds {
                    Box::new(merge_fold_by(sources, order, |acc, other| {
                        <J::Combiner as crate::combiner::Combiner<J::Value>>::merge(acc, other);
                    }))
                } else {
                    Box::new(merge_iterators_by(sources, order))
                };
                // The stream's lower size bound — the tree's heads plus
                // the in-memory remainders — is a fraction of what it
                // yields; hidden, the output grows by doubling from
                // empty rather than from that odd base (measured: 4 %
                // of `sort_spill`'s peak RSS).
                let unsized_stream = std::iter::from_fn(|| merged.next());
                let out = reduce_into(job.as_ref(), unsized_stream, encode);
                if let Some(detail) = parked.lock().take() {
                    return Err(SupmrError::Merge { message: detail });
                }
                Ok(out)
            })
        },
    );
    ctx.probe.reduce_wave_end(outcome);
    reduced.into_iter().collect()
}

/// The merge phase: order the reduce partitions' pairs by key,
/// [`MapReduce::key_prefix`] first, with the configured backend. The
/// p-way round takes unsorted partitions as they are — one
/// [`partitioned_sort`], no runs formed — and `presorted` ones (the
/// external reduce's) as the runs they already are; the pairwise
/// baseline sorts the partitions into runs in a full-width wave and
/// merges them round by round. Every round is a wave on `exec` at the
/// reduce width, so the share cap, the governor's width, the pool's
/// events and the thread counts cover the merge as they cover map and
/// reduce. Cancellation is checked on entry and before every round.
fn merge_phase<J: MapReduce>(
    job: &Arc<J>,
    reduced: Vec<Vec<(J::Key, J::Output)>>,
    presorted: bool,
    ctx: &mut StageCtx<'_>,
) -> Result<Vec<(J::Key, J::Output)>> {
    let (config, exec) = (ctx.config, ctx.exec);
    if matches!(config.merge, MergeMode::Unsorted) {
        return Ok(reduced.into_iter().flatten().collect());
    }
    let started = Instant::now();
    config.check_cancelled()?;
    // One ordered partition is the output as it stands and nothing will
    // be compared, so its keys are not read for prefixes either: the
    // phase is a move.
    let moved = presorted && reduced.iter().filter(|part| !part.is_empty()).count() <= 1;
    let order = ByKey(|key: &J::Key| if moved { 0 } else { job.key_prefix(key) });
    // A merge round as it starts: a cancellation point, its span, its
    // wave on the job's workers at the reduce width.
    let round_start =
        |probe: &StageProbe, round: u32, width: usize| -> Result<(Instant, WaveWorkers<'_>)> {
            config.check_cancelled()?;
            let started = probe.merge_round_start(round, width);
            Ok((started, exec.at_width(config.effective_reduce_workers())))
        };
    let (merged, rounds, elements_moved) = match config.merge {
        MergeMode::Unsorted => unreachable!("handled above"),
        MergeMode::PairwiseRounds => {
            // "each round (1) sorts many small lists in parallel and (2)
            // merges the lists" — step (1) is a full-width wave.
            let (mut runs, outcome) =
                exec.run_collect(config.effective_map_workers(), reduced, |_, part| {
                    if presorted {
                        SortedRun::presorted(part, &order)
                    } else {
                        SortedRun::sort(part, &order)
                    }
                });
            ctx.probe.wave(outcome);
            let mut pw = PairwiseStats::default();
            runs.retain(|run| !run.is_empty());
            while runs.len() > 1 {
                let round = pw.rounds;
                let (t0, workers) = round_start(&ctx.probe, round, runs.len() / 2)?;
                runs = pairwise_round(runs, &order, &workers, &mut pw);
                let keys = pw.round_keys[round as usize];
                ctx.probe.merge_round_end(round, t0, workers.outcome(), keys);
            }
            let merged = runs.pop().map(SortedRun::into_items).unwrap_or_default();
            (merged, pw.rounds, pw.elements_moved)
        }
        MergeMode::PWay { ways } => {
            let (t0, workers) = round_start(&ctx.probe, 0, ways)?;
            let (merged, kw) = if presorted {
                let runs = workers.run(reduced, |part| SortedRun::presorted(part, &order));
                merge_runs(runs, &order, ways, &workers)
            } else {
                partitioned_sort(reduced, &order, ways, &workers)
            };
            ctx.probe.merge_round_end(0, t0, workers.outcome(), kw.elements_moved);
            let rounds = u32::from(kw.partitions >= 1 && !merged.is_empty());
            (merged, rounds, kw.elements_moved)
        }
    };
    ctx.probe.merged(rounds, elements_moved, std::mem::size_of::<(J::Key, J::Output)>(), started);
    Ok(merged)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use supmr_storage::{MemFileSet, MemSource};

    #[test]
    fn input_wrappers_report_sizes() {
        let s = Input::stream(MemSource::from(vec![0u8; 123]));
        assert_eq!(s.total_bytes(), 123);
        assert!(s.describe().contains("123"));
        let f = Input::files(MemFileSet::new(vec![vec![1; 10], vec![2; 5]]));
        assert_eq!(f.total_bytes(), 15);
    }

    #[test]
    fn ingest_entire_preserves_file_segments() {
        let chunk =
            ingest_entire(Input::files(MemFileSet::new(vec![b"aaa".to_vec(), b"bb".to_vec()])))
                .unwrap();
        assert_eq!(chunk.data, b"aaabb".to_vec());
        assert_eq!(chunk.segments, vec![0..3, 3..5]);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = JobConfig::default();
        assert!(ok.validate().is_ok());
        let mut c = JobConfig::default();
        c.map_workers = 0;
        assert!(c.validate().is_err());
        let mut c = JobConfig::default();
        c.split_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = JobConfig::default();
        c.chunking = Chunking::Inter { chunk_bytes: 0 };
        assert!(c.validate().is_err());
        let mut c = JobConfig::default();
        c.chunking = Chunking::Intra { files_per_chunk: 0 };
        assert!(c.validate().is_err());
        let mut c = JobConfig::default();
        c.merge = MergeMode::PWay { ways: 0 };
        assert!(c.validate().is_err());
        let mut c = JobConfig::default();
        c.record_format = RecordFormat::FixedWidth(0);
        assert!(c.validate().is_err());
    }
}
