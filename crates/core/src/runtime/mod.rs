//! Job configuration, results, and the stage runtime.
//!
//! [`Job`] is the single entry surface (the paper's `run_ingestMR()`
//! API launches "in exactly the same way as the original library with a
//! few additional chunk-related parameters" — here those parameters live
//! in [`JobConfig`]); multi-stage work composes jobs into a [`Pipeline`]
//! ([`dag`]). Every stage that maps an input runs on the SupMR ingest
//! chunk pipeline ([`pipeline`]); with [`Chunking::None`] its input is
//! one chunk, read whole before one map wave — the Phoenix++ baseline.
//! The reduce and merge phases are shared — the merge backend is chosen
//! by [`MergeMode`], which is how experiments isolate the paper's two
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
pub mod pipeline;
pub(crate) mod probe;

pub use builder::Job;
pub use dag::{IterationReport, Pipeline, PipelineResult, Stage};
pub use governor::{ActionRecord, ActiveConfig, GovernorConfig, GovernorReport};
pub use handoff::HandoffStats;

use crate::api::{AccOf, MapReduce};
use crate::chunk::Chunking;
use crate::container::{Container, ContainerHooks};
use crate::error::{panic_payload_string, Result, SupmrError};
use crate::pool::{Executor, PoolMetrics, PoolMode, WaveOutcome, WaveWorkers, Width, WorkerPool};
use crate::spill::{
    read_block_bytes, DecodedRun, JobSpill, KeyPrefixFn, MemoryAccountant, SpillHooks,
    SpillMetrics, SpilledRun,
};
use probe::StageProbe;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use supmr_merge::{
    merge_fold_by, merge_iterators_by, merge_runs, pairwise_round, partitioned_sort, ByKey,
    KwayStats, OutputSlots, PairwiseStats, SortedRun, Workers,
};
use supmr_metrics::sampler::UtilizationSampler;
use supmr_metrics::{
    unpoisoned, BottleneckReport, DebugState, DiagInputs, EventCallback, FlowLedger, FlowPhase,
    JobTrace, Json, MetricsServer, MetricsSnapshot, Phase, PhaseTimings, Registry, StallSide,
    StallStats, TraceLevel, TraceRing, Tracer, UtilTrace,
};
use supmr_storage::{DataSource, DiskRunStore, FileSet, RecordFormat, RunStore, SharedBytes};

/// Job input: one large byte stream or a set of small files — the two
/// Hadoop input shapes the paper's chunking strategies mirror.
pub enum Input {
    /// A single byte-addressed input (Terasort shape).
    Stream(Box<dyn DataSource>),
    /// A set of small files (word count shape).
    Files(Box<dyn FileSet>),
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

    /// Total input bytes.
    pub fn total_bytes(&self) -> u64 {
        match self {
            Input::Stream(s) => s.len(),
            Input::Files(f) => f.total_len(),
        }
    }

    /// Human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Input::Stream(s) => s.describe(),
            Input::Files(f) => f.describe(),
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
    /// Upper bound on the input split size in bytes (the unit of
    /// map-task work). A chunk too small to give every map worker a
    /// split this big is cut finer, down to 64 KiB.
    pub split_bytes: usize,
    /// Record framing, used for chunk and split boundary adjustment.
    pub record_format: RecordFormat,
    /// Ingest chunking strategy; `None` reads the input as one chunk.
    pub chunking: Chunking,
    /// Final merge behaviour.
    pub merge: MergeMode,
    /// Worker provisioning: fresh threads per wave (the paper's
    /// observable per-chunk overhead) or one persistent pool per job.
    pub pool: PoolMode,
    /// How many ingest chunks the mappers may not yet have taken, the
    /// one being read included. `1` is the paper's double buffering (two
    /// chunks' buffers); depth *d* holds *d*+1. A governor ([`JobConfig::governor`]) moves it live.
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
    /// [`DiskRunStore`] from [`JobConfig::spill_dir`]. The store's
    /// devices shape and count its I/O; the job's flow ledger and
    /// diagnosis are the runtime's alone, whatever the store is.
    pub spill_store: Option<Arc<dyn RunStore>>,
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
            governor: None,
            active: None,
        }
    }
}

impl JobConfig {
    /// Check the configuration for inconsistent knobs — zero worker
    /// counts, a zero split or chunk size, `prefetch_depth == 0`, a
    /// zero-way p-way merge, a zero memory budget and an event callback
    /// without tracing.
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
                return bad("chunk size must be non-zero");
            }
            Chunking::Intra { files_per_chunk: 0 } => {
                return bad("files per chunk must be non-zero");
            }
            _ => {}
        }
        if self.prefetch_depth == 0 {
            return bad("prefetch depth must be at least 1");
        }
        if let MergeMode::PWay { ways: 0 } = self.merge {
            return bad("p-way merge needs at least one way");
        }
        if self.record_format == RecordFormat::FixedWidth(0) {
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

    /// The map wave width: the governor's dynamic knob when one is
    /// live, else the static [`JobConfig::map_workers`]; live under a
    /// share cap ([`ActiveConfig::set_share_cap`]).
    pub(crate) fn map_width(&self) -> Width<'_> {
        self.active.as_ref().map_or(Width::Fixed(self.map_workers), |a| a.map_batch_width())
    }

    /// The reduce wave width (scheduling only — partition counts always
    /// come from the static [`JobConfig::reduce_workers`]).
    pub(crate) fn reduce_width(&self) -> Width<'_> {
        self.active.as_ref().map_or(Width::Fixed(self.reduce_workers), |a| a.reduce_batch_width())
    }

    /// The ingest prefetch depth: the governor's dynamic knob when one
    /// is live, else the static [`JobConfig::prefetch_depth`].
    pub(crate) fn live_prefetch_depth(&self) -> usize {
        self.active.as_ref().map_or(self.prefetch_depth, |a| a.prefetch_depth())
    }

    /// Cooperative cancellation point: fail with
    /// [`SupmrError::Cancelled`] once any holder of the job's
    /// [`ActiveConfig`] has called `cancel()`. Checked before every map
    /// and reduce task and at round and phase boundaries, so a
    /// cancelled job starts no task after it sees the flag.
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
    /// Time the read of the *next* chunk took (zero in the last round).
    pub ingest: Duration,
    /// Time this round's map wave took, from the end of the round before
    /// it: its tasks' waits for their splits included.
    pub map: Duration,
}

/// Execution counters for one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    /// Bytes read from primary storage.
    pub bytes_ingested: u64,
    /// Ingest chunks processed (1 without chunking, 0 for an empty
    /// input).
    pub ingest_chunks: u32,
    /// Map waves executed, one per chunk.
    pub map_rounds: u32,
    /// Map tasks (input splits) executed.
    pub map_tasks: u64,
    /// Reduce tasks (partitions) executed.
    pub reduce_tasks: u64,
    /// Threads spawned across all waves plus one ingest thread per
    /// pipelined stage; the waves' under [`PoolMode::WavePerRound`] are
    /// the recurring cost the chunk-size discussion is about. With
    /// [`PoolMode::Persistent`] the pool's threads count once, at start.
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
    /// Per-round pipeline timeline: one record per map round, at every
    /// prefetch depth and without chunking.
    pub rounds: Vec<RoundRecord>,
    /// Total time the map side sat idle waiting on ingest, in worker
    /// time: each map task's wait for its split to land, and each wave's
    /// wait for its chunk's read to begin times the map width. Always
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
    /// classifier's verdict (`supmr.diag.v2`). Always computed for jobs
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
    /// Position of the stage in its pipeline's chain (0 is the first).
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

/// What one stage hands back: the job's terminal pairs, or its reduce
/// partitions for the next stage, by move.
pub(crate) enum StageOutput<K, O> {
    /// Terminal output, merged per [`MergeMode`].
    Pairs(Vec<(K, O)>),
    /// Reduce partitions for the stage that takes this one
    /// ([`Pipeline::then_with`]; one partition after a sorted merge).
    Moved(Vec<Vec<(K, O)>>),
}

/// One executed stage: its output plus its own report.
pub(crate) struct StageResult<K, O> {
    pub output: StageOutput<K, O>,
    pub report: JobReport,
}

/// Pipeline-level wiring threaded into one stage execution.
pub(crate) struct StageWiring {
    /// The stage's reduce partitions move to the next stage instead of
    /// becoming terminal pairs.
    pub moves: bool,
    /// The scope's byte ledger ([`JobScope::accountant`]), set whenever
    /// the stage has a memory budget.
    pub accountant: Option<Arc<MemoryAccountant>>,
    /// Prefix for spill run names, so the stages and iterations of a
    /// pipeline, and concurrent jobs, sharing one run store never
    /// collide.
    pub run_prefix: String,
}

/// What every function of a running stage is handed: the stage's
/// configuration, the executor its waves run on, and the probe it
/// reports through.
pub(crate) struct StageCtx<'a> {
    pub config: &'a JobConfig,
    pub exec: Executor<'a>,
    pub probe: StageProbe,
}

/// Run one stage's `body`, converting a panic inside a user map/reduce
/// function into [`SupmrError::TaskPanic`] so a crashing task fails the
/// job instead of the process.
pub(crate) fn catching<T>(body: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(SupmrError::TaskPanic { payload: panic_payload_string(payload) })
    })
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
    /// The validated configuration, with the registry the scope settled
    /// on written back so every stage sees it.
    pub config: JobConfig,
    pub tracer: Tracer,
    /// The byte ledger every stage budgets against under a memory
    /// budget — a host's partition of its global budget, or one built for
    /// the scope, so a pipeline's budget bounds all its stages together.
    pub accountant: Option<Arc<MemoryAccountant>>,
    /// The job's per-phase bandwidth ledger; every stage's probe records
    /// into it, and nothing else does.
    flow: Arc<FlowLedger>,
    server: Option<MetricsServer>,
    sampler: Option<UtilizationSampler>,
    pool: Option<WorkerPool>,
    host_pool: Option<&'p WorkerPool>,
}

impl<'p> JobScope<'p> {
    /// Validate `config` and stand the facilities up. Waves dispatch
    /// onto `host_pool`, and stages budget against `accountant`, when
    /// the host lends them; under a budget the host does not lend a
    /// ledger for, the scope builds one, its gauges in the registry.
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
        // The job's one ledger; it mirrors into a live registry.
        let flow = Arc::new(FlowLedger::new());
        if let Some(r) = &config.metrics {
            flow.attach_registry(r);
        }
        // A live server with tracing on gets a bounded event ring behind
        // `/debug/trace`, fed by the tracer's callback.
        let ring = (config.metrics_addr.is_some() && config.trace.enabled())
            .then(|| TraceRing::new(TraceRing::DEFAULT_CAP));
        let server = match (&config.metrics_addr, &config.metrics) {
            (Some(addr), Some(r)) => {
                let mut state =
                    DebugState::new(r.clone()).with_map_workers(config.map_workers as u64);
                if let Some(ring) = &ring {
                    state = state.with_ring(Arc::clone(ring));
                }
                Some(MetricsServer::serve_debug(addr, state).map_err(|e| {
                    SupmrError::invalid_config(format!("cannot serve metrics on {addr}: {e}"))
                })?)
            }
            _ => None,
        };
        let accountant = accountant.or_else(|| {
            let budget = config.memory_budget?;
            let mut accountant = MemoryAccountant::new(budget);
            if let Some(m) = config.metrics.as_ref().map(SpillMetrics::register) {
                m.budget_bytes.set(budget.min(i64::MAX as u64) as i64);
                accountant = accountant.with_gauge(m.resident_bytes.clone());
            }
            Some(Arc::new(accountant))
        });
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

    /// The probe for one execution of a stage configured by `config`,
    /// recording into the scope's tracer and flow ledger.
    pub fn probe(&self, config: &JobConfig) -> StageProbe {
        StageProbe::new(config, &self.tracer, Arc::clone(&self.flow))
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
        report.diag = Some(self.diagnose(report));
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
        if let Some(s) = self.server {
            s.shutdown();
        }
    }

    /// Fold a finished report plus the flow ledger and the accountant
    /// into the classifier's inputs and run it — the report-time
    /// counterpart of the live `/debug/diag` endpoint.
    fn diagnose(&self, report: &JobReport) -> BottleneckReport {
        let (config, flow) = (&self.config, &self.flow);
        let us = |d: Duration| d.as_micros() as u64;
        let t = &report.timings;
        let inputs = DiagInputs {
            wall_us: us(t.total()),
            // When ingest is fused into the map rounds there is no serial
            // ingest phase; the stall counters carry the pressure signal.
            ingest_us: if t.is_fused() { 0 } else { us(t.phase(Phase::Ingest)) },
            map_us: us(t.phase(Phase::Map)),
            merge_us: us(t.phase(Phase::Merge)),
            map_stall_us: us(report.stats.map_waiting) / config.map_workers.max(1) as u64,
            ingest_stall_us: us(report.stats.ingest_waiting),
            map_workers: config.map_workers.max(1) as u64,
            budget_bytes: config.memory_budget.unwrap_or(0),
            resident_bytes: self.accountant.as_ref().map_or(0, |a| a.resident()),
            spill_runs: report.stats.spill_runs,
            spill_bytes: report.stats.spill_bytes,
            // The merge flow also carries the in-memory merge phase;
            // without spilled runs that is all it carries, and none of it
            // is the budget's doing.
            spill_busy_us: if report.stats.spill_runs == 0 {
                0
            } else {
                us(flow.busy(FlowPhase::Spill)) + us(flow.busy(FlowPhase::Merge))
            },
            flows: flow.snapshot(),
        };
        BottleneckReport::from_inputs(inputs)
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
        moves: false,
        accountant: scope.accountant.clone(),
        run_prefix: shared.run_prefix,
    };
    let config = &scope.config;
    let ctx = StageCtx { config, exec: scope.exec(), probe: scope.probe(config) };
    let stage = catching(|| pipeline::run(&Arc::new(job), input, ctx, wiring))?;
    let mut result = match stage.output {
        StageOutput::Pairs(pairs) => JobResult { pairs, report: stage.report },
        StageOutput::Moved(_) => unreachable!("single-stage wiring requests no hand-off"),
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

/// A job's container insert handle.
type LocalOf<J> = <<J as MapReduce>::Container as Container<
    <J as MapReduce>::Key,
    <J as MapReduce>::Value,
    <J as MapReduce>::Combiner,
>>::Local;

/// The local handles one stage's map phase emits into. When the
/// container [`combines`](Container::combines) and the job has no memory
/// budget they are worker tables, resident for the whole phase: a map
/// task takes a free one (a fresh one when none is free), maps into it
/// and puts it back, so the phase builds one per concurrently running
/// task rather than one per split, and [`MapTables::flush`] absorbs
/// them after the last round. Otherwise each task absorbs its handle as
/// it ends: a budget charges pairs at absorb, so a budgeted job keeps no
/// table the ledger cannot see, and a run container's handle is the
/// task's own run.
pub(crate) struct MapTables<'c, J: MapReduce> {
    container: &'c J::Container,
    /// The free worker tables; `None` absorbs each handle at task end.
    free: Option<Mutex<Vec<LocalOf<J>>>>,
    /// Map tasks run, which bound the tables there can be.
    tasks: AtomicUsize,
}

impl<'c, J: MapReduce> MapTables<'c, J> {
    /// The map phase's handles into `container`, resident or not as
    /// `config` and the container decide.
    pub fn new(container: &'c J::Container, config: &JobConfig) -> Self {
        let resident = <J::Container as Container<J::Key, J::Value, J::Combiner>>::combines()
            && config.memory_budget.is_none();
        MapTables { container, free: resident.then(Mutex::default), tasks: AtomicUsize::new(0) }
    }

    /// One map task: `map` emits into a handle, which `probe` absorbs
    /// when it is not a worker table.
    fn task(&self, probe: &StageProbe, map: impl FnOnce(&mut LocalOf<J>)) {
        let free = self.free.as_ref();
        let mut local = free
            .and_then(|free| unpoisoned(free.lock()).pop())
            .unwrap_or_else(|| self.container.local());
        map(&mut local);
        self.tasks.fetch_add(1, Ordering::Relaxed);
        match free {
            Some(free) => unpoisoned(free.lock()).push(local),
            None => probe.absorb::<J>(self.container, local),
        }
    }

    /// Absorb the worker tables in one wave at the map width — in
    /// parallel, as their tasks would have. The tables are dealt to one
    /// flush task per worker (fewer when fewer map tasks ran), so the
    /// wave, and the threads a spawned wave starts, is sized by the map
    /// width and the task count alone, not by how many tables the
    /// overlap of map tasks happened to build. The caller runs it inside
    /// [`Phase::Map`], after the last round.
    pub fn flush(self, ctx: &mut StageCtx<'_>) {
        let Some(free) = self.free else { return };
        let tables = unpoisoned(free.into_inner());
        if tables.is_empty() {
            return; // no map task ran
        }
        let width = ctx.config.map_width();
        let workers = width.now().min(self.tasks.into_inner()).max(1);
        let mut dealt: Vec<Vec<LocalOf<J>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, table) in tables.into_iter().enumerate() {
            dealt[i % workers].push(table);
        }
        let (container, probe) = (self.container, &ctx.probe);
        let outcome = ctx.exec.run(width, dealt, |_, tables| {
            for local in tables {
                probe.absorb::<J>(container, local);
            }
        });
        ctx.probe.wave(outcome);
    }
}

/// Run round `round`'s map wave: `tasks` tasks, each mapping the next
/// split of the round's chunk that `split` hands it — waiting for it to
/// land — or nothing once the chunk has no split left. A task's wait is
/// a map-side stall, outside its map task. Tasks borrow the job, the map
/// phase's handles and the split views, on wave threads and pool threads
/// alike. A task of a cancelled job does not start. Returns the wave,
/// its tasks counting the splits mapped, the bytes mapped, and the
/// stall as recorded.
pub(crate) fn map_wave<J: MapReduce>(
    job: &Arc<J>,
    tables: &MapTables<'_, J>,
    ctx: &StageCtx<'_>,
    round: u32,
    tasks: usize,
    split: impl Fn() -> (Option<(usize, SharedBytes)>, Duration) + Sync,
) -> (WaveOutcome, u64, Duration) {
    let (mapped, wave) = ctx.exec.run_collect(ctx.config.map_width(), vec![(); tasks], |_, ()| {
        if ctx.config.check_cancelled().is_err() {
            return (Duration::ZERO, None);
        }
        let (next, wait) = split();
        let stalled = ctx.probe.stall(StallSide::Map, round, wait);
        let Some((idx, data)) = next else { return (stalled, None) };
        tables.task(&ctx.probe, |local| {
            ctx.probe.map_task(round, idx, data.len(), || job.map(&data, local));
        });
        (stalled, Some(data.len() as u64))
    });
    let (mut stalled, mut bytes, mut tasks) = (Duration::ZERO, 0, 0);
    for (wait, split) in mapped {
        stalled += wait;
        if let Some(len) = split {
            (bytes, tasks) = (bytes + len, tasks + 1);
        }
    }
    (WaveOutcome { tasks, ..wave }, bytes, stalled)
}

/// One job's shared out-of-core state, typed by the application.
type SpillOf<J> = Arc<JobSpill<<J as MapReduce>::Key, AccOf<J>>>;

/// A reduce wave's output: one partition of reduced pairs per task.
type Reduced<J> = Vec<Vec<(<J as MapReduce>::Key, <J as MapReduce>::Output)>>;

/// One sorted source feeding the external merge: an in-memory drain or
/// a decoded run file.
type MergeSource<J> = Box<dyn Iterator<Item = (<J as MapReduce>::Key, AccOf<J>)>>;

/// Every stage's prologue: make the container that persists across the
/// stage's rounds and hand it the job's hash seed and the governor's
/// dynamic knobs. Under [`JobConfig::memory_budget`] the container also
/// gets its [`SpillHooks`]: the run store (explicit store > spill dir >
/// fresh temp dir) and the stage's spill sink over the scope's byte
/// ledger.
///
/// Fails with [`SupmrError::InvalidConfig`] when the application has no
/// [`spill_codec`](MapReduce::spill_codec) or the container refuses to
/// spill — a budget the runtime cannot honor must not silently run
/// unbounded.
pub(crate) fn stage_container<J: MapReduce>(
    job: &Arc<J>,
    ctx: &mut StageCtx<'_>,
    wiring: &StageWiring,
) -> Result<(J::Container, Option<SpillOf<J>>)> {
    let config = ctx.config;
    let container = job.make_container();
    container
        .configure(&ContainerHooks { hash_seed: config.hash_seed, active: config.active.clone() });
    if config.memory_budget.is_none() {
        return Ok((container, None));
    }
    let codec = job.spill_codec().ok_or_else(|| {
        SupmrError::invalid_config(
            "memory_budget is set but the application provides no spill codec",
        )
    })?;
    let store: Arc<dyn RunStore> = match (&config.spill_store, &config.spill_dir) {
        (Some(store), _) => Arc::clone(store),
        (None, Some(dir)) => Arc::new(DiskRunStore::create(dir)?),
        (None, None) => Arc::new(DiskRunStore::temp()?),
    };
    let metrics = config.metrics.as_ref().map(SpillMetrics::register);
    // Built, gauge attached, when the scope opened; every stage of a
    // pipeline budgets against it together.
    let accountant = wiring.accountant.clone().expect("a budgeted scope holds a byte ledger");
    // The governor's low-watermark lever reaches the ledger here.
    if let Some(active) = &config.active {
        active.attach_accountant(Arc::clone(&accountant));
    }
    let key_prefix: KeyPrefixFn<J::Key> = {
        let job = Arc::clone(job);
        Arc::new(move |key: &J::Key| job.key_prefix(key))
    };
    let spill = Arc::new(JobSpill::new(
        Arc::clone(&accountant),
        codec,
        Arc::clone(&key_prefix),
        store,
        wiring.run_prefix.clone(),
        ctx.probe.spill_probe(metrics),
    ));
    let hooks = SpillHooks {
        accountant,
        partitions: config.reduce_workers,
        codec,
        key_prefix,
        sink: Arc::clone(&spill) as _,
    };
    if !container.configure_spill(&hooks) {
        return Err(SupmrError::invalid_config(
            "memory_budget is set but the job's container does not support spilling",
        ));
    }
    Ok((container, Some(spill)))
}

/// Reduce one partition's key-grouped pairs.
fn reduce_into<J: MapReduce>(
    job: &J,
    grouped: impl Iterator<Item = (J::Key, AccOf<J>)>,
) -> Vec<(J::Key, J::Output)> {
    grouped
        .map(|(k, acc)| {
            let out = job.reduce(&k, acc);
            (k, out)
        })
        .collect()
}

/// Shared tail of every stage: reduce, merge, and result assembly.
/// With spilled runs on disk the reduce phase runs as a streaming
/// external merge per partition; otherwise it is the in-memory
/// drain-and-reduce wave. When the wiring moves the output, the reduce
/// partitions go to the next stage as they stand instead of becoming
/// terminal pairs (merged into one first when the merge mode sorts).
pub(crate) fn finish_job<J: MapReduce>(
    job: &Arc<J>,
    container: J::Container,
    spill: Option<SpillOf<J>>,
    mut ctx: StageCtx<'_>,
    wiring: StageWiring,
) -> Result<StageResult<J::Key, J::Output>> {
    // A run that failed to write means the intermediate set is
    // incomplete: surface the parked fault before reducing over it.
    if let Some(sp) = &spill {
        sp.check().map_err(|source| SupmrError::Ingest { chunk: None, source })?;
        sp.check_decodes()?;
    }
    ctx.probe.shuffled(
        container.total_pairs(),
        container.distinct_keys() as u64,
        spill.as_ref().map(|sp| (sp.runs_written(), sp.bytes_written())),
    );

    ctx.config.check_cancelled()?;
    // Move the reduce partitions as they stand only when no merge
    // reorders them afterwards; a sorted hand-off merges first.
    let moved = wiring.moves && matches!(ctx.config.merge, MergeMode::Unsorted);
    ctx.probe.enter(Phase::Reduce);
    // The external reduce streams each partition out of a key-ordered
    // merge; the in-memory drain leaves partitions in container order.
    let (reduced, presorted) = match &spill {
        Some(sp) if sp.runs_written() > 0 => external_reduce(job, container, sp, &mut ctx)?,
        _ => (in_memory_reduce(job, container, &mut ctx), false),
    };
    ctx.probe.leave(Phase::Reduce);
    // A cancelled reduce wave left its partitions unreduced.
    ctx.config.check_cancelled()?;
    // A held record that did not decode into its drain is missing from
    // what was reduced.
    if let Some(sp) = &spill {
        sp.check_decodes()?;
    }
    // Run guards have deleted their files inside the reduce tasks; this
    // removes the per-job temp spill directory, when we created one.
    drop(spill);

    let (output, output_pairs) = if moved {
        let pairs = reduced.iter().map(|p| p.len() as u64).sum();
        (StageOutput::Moved(reduced), pairs)
    } else {
        ctx.probe.enter(Phase::Merge);
        let pairs = merge_phase(job, reduced, presorted, &mut ctx)?;
        ctx.probe.leave(Phase::Merge);
        let output_pairs = pairs.len() as u64;
        let output =
            if wiring.moves { StageOutput::Moved(vec![pairs]) } else { StageOutput::Pairs(pairs) };
        (output, output_pairs)
    };

    let (timings, stats) = ctx.probe.finish(output_pairs);
    Ok(StageResult { output, report: JobReport { timings, stats, ..JobReport::default() } })
}

/// The in-memory reduce wave: decompose the container into per-partition
/// drain payloads (cheap, here) and materialize each on a reduce worker
/// (the expensive part), fused with that partition's reduce so the pairs
/// stay hot in the worker's cache. A task of a cancelled job drops its
/// payload unreduced.
fn in_memory_reduce<J: MapReduce>(
    job: &Arc<J>,
    container: J::Container,
    ctx: &mut StageCtx<'_>,
) -> Reduced<J> {
    let drains = container.into_drains(ctx.config.reduce_workers);
    ctx.probe.reduce_wave_start(drains.len());
    let (config, probe) = (ctx.config, &ctx.probe);
    let (reduced, outcome) = ctx.exec.run_collect(
        config.reduce_width(),
        drains,
        |idx, payload: <J::Container as Container<J::Key, J::Value, J::Combiner>>::Drain| {
            if config.check_cancelled().is_err() {
                return Vec::new();
            }
            let part: Vec<(J::Key, AccOf<J>)> =
                probe.drain(Some(idx), || <J::Container>::drain(payload));
            probe.reduce_partition(idx, None, || reduce_into(job.as_ref(), part.into_iter()))
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
/// key ranges — and merge side by side, one task each.
///
/// Combining containers keep folding equal keys across runs, so a
/// partition's output length is known only at its end: each collects
/// its own. Identity containers pass pairs through unfolded and
/// `reduce` is 1:1, so each partition yields exactly the pairs of its
/// runs and remainder: every partition writes straight into its own
/// window of one exact-size allocation ([`OutputSlots`]), in partition
/// order, and the result is that one partition — presorted when the
/// partitions are key ranges in order, which the windows' ends confirm.
fn external_reduce<J: MapReduce>(
    job: &Arc<J>,
    container: J::Container,
    spill: &SpillOf<J>,
    ctx: &mut StageCtx<'_>,
) -> Result<(Reduced<J>, bool)> {
    type Drains<J> = Vec<
        <<J as MapReduce>::Container as Container<
            <J as MapReduce>::Key,
            <J as MapReduce>::Value,
            <J as MapReduce>::Combiner,
        >>::Drain,
    >;
    let mut grouped: BTreeMap<usize, (Drains<J>, Vec<SpilledRun>)> = BTreeMap::new();
    for (partition, drain) in container.into_indexed_drains(ctx.config.reduce_workers) {
        grouped.entry(partition).or_default().0.push(drain);
    }
    let runs = spill.take_runs();
    // Every partition's merge streams at once: the wave's read blocks
    // share the budget.
    let block_bytes = read_block_bytes(spill.accountant().budget(), runs.len());
    for run in runs {
        grouped.entry(run.partition).or_default().1.push(run);
    }

    let (store, codec) = (spill.store(), spill.codec());
    // The job's order, as in the in-memory merge: the tree settles most
    // matches on cached prefixes.
    let order = ByKey(|key: &J::Key| job.key_prefix(key));
    let probe = &ctx.probe;
    // One partition's merge sources, opened on its task: its remainders,
    // drained and sorted, then its runs read back. Read/decode faults
    // inside the merge stream park in `parked` (an iterator can't return
    // Result mid-merge).
    let open_sources = |drains: Drains<J>,
                        runs: &[SpilledRun],
                        parked: &Arc<Mutex<Option<String>>>|
     -> Result<Vec<MergeSource<J>>> {
        let mut sources: Vec<MergeSource<J>> = Vec::with_capacity(drains.len() + runs.len());
        for payload in drains {
            let part = probe.drain(None, || <J::Container>::drain(payload));
            sources.push(Box::new(SortedRun::sort(part, &order).into_items().into_iter()));
        }
        for run in runs {
            let decoded = DecodedRun::open(
                store.as_ref(),
                &run.name,
                run.records,
                codec.decode,
                Arc::clone(parked),
                block_bytes,
            )
            .map_err(|source| SupmrError::Ingest { chunk: None, source })?;
            sources.push(Box::new(decoded));
        }
        Ok(sources)
    };
    let parked_error = |parked: &Mutex<Option<String>>| {
        unpoisoned(parked.lock()).take().map(|message| SupmrError::Merge { message })
    };
    let run_stats = |runs: &[SpilledRun]| Some((runs.len(), runs.iter().map(|r| r.bytes).sum()));
    let config = ctx.config;
    let width = config.reduce_width();

    if <J::Container as Container<J::Key, J::Value, J::Combiner>>::combines() {
        probe.reduce_wave_start(grouped.len());
        let (reduced, outcome) = ctx.exec.run_collect(
            width,
            grouped.into_iter().collect(),
            |_, (partition, (drains, runs))| -> Result<Vec<(J::Key, J::Output)>> {
                config.check_cancelled()?;
                probe.reduce_partition(partition, run_stats(&runs), || {
                    let parked = Arc::default();
                    let sources = open_sources(drains, &runs, &parked)?;
                    let mut merged = merge_fold_by(sources, &order, |acc, other| {
                        <J::Combiner as crate::combiner::Combiner<J::Value>>::merge(acc, other);
                    });
                    // Folded, the stream's lower size bound — the tree's
                    // heads plus the in-memory remainders — is a fraction
                    // of what it yields; hidden, the output grows by
                    // doubling from empty rather than from that odd base.
                    let out = reduce_into(job.as_ref(), std::iter::from_fn(|| merged.next()));
                    parked_error(&parked).map_or(Ok(out), Err)
                })
            },
        );
        ctx.probe.reduce_wave_end(outcome);
        return Ok((reduced.into_iter().collect::<Result<_>>()?, true));
    }

    // An identity container knows what each drain holds before it is
    // drained, so each partition's exact output length is known up front.
    let mut lens = Vec::with_capacity(grouped.len());
    for (drains, runs) in grouped.values() {
        let held: Option<usize> = drains.iter().map(<J::Container>::drain_len).sum();
        let held = held.ok_or_else(|| {
            SupmrError::invalid_config("a container that does not combine must size its drains")
        })?;
        lens.push(held + runs.iter().map(|r| r.records as usize).sum::<usize>());
    }
    let mut slots = OutputSlots::new(&lens);
    probe.reduce_wave_start(grouped.len());
    let (done, outcome) = ctx.exec.run_collect(
        width,
        grouped.into_iter().zip(slots.windows()).collect(),
        |_, ((partition, (drains, runs)), mut window)| -> Result<()> {
            config.check_cancelled()?;
            probe.reduce_partition(partition, run_stats(&runs), || {
                let parked = Arc::default();
                let len = window.capacity();
                let sources = open_sources(drains, &runs, &parked)?;
                for (key, acc) in merge_iterators_by(sources, &order) {
                    let out = job.reduce(&key, acc);
                    if window.push((key, out)).is_err() {
                        let message = format!("partition {partition} yields more than {len} pairs");
                        return Err(SupmrError::Merge { message });
                    }
                }
                parked_error(&parked).map_or(Ok(()), Err)?;
                // A held record that did not decode is the pair missing.
                window.commit().map_err(|filled| {
                    spill.check_decodes().err().unwrap_or_else(|| SupmrError::Merge {
                        message: format!("partition {partition} yields {filled} of {len} pairs"),
                    })
                })
            })
        },
    );
    ctx.probe.reduce_wave_end(outcome);
    done.into_iter().collect::<Result<()>>()?;
    let out = slots.into_vec().expect("every partition committed its window");
    // Key ranges taken in index order follow one another; where a window
    // ends is the one place that could show otherwise.
    let mut end = 0;
    let in_sequence = lens.iter().all(|len| {
        end += len;
        end == 0 || end == out.len() || out[end - 1].0 <= out[end].0
    });
    Ok((vec![out], in_sequence))
}

/// The merge phase: order the reduce partitions' pairs by key,
/// [`MapReduce::key_prefix`] first, with the configured backend. The
/// p-way round takes unsorted partitions as they are — one
/// [`partitioned_sort`], no runs formed — and `presorted` ones (the
/// external reduce's) as the runs they already are; the pairwise
/// baseline sorts the partitions into runs in a full-width wave and
/// merges them round by round. A lone partition that needs no ordering
/// — presorted, or under [`MergeMode::Unsorted`] — is the output as it
/// stands, under every mode: nothing is compared, so no prefix is read.
/// Every round is a wave on `exec` at the reduce width, so the share
/// cap, the governor's width, the pool's events and the thread counts
/// cover the merge as they cover map and reduce. Cancellation is
/// checked on entry and before every round.
fn merge_phase<J: MapReduce>(
    job: &Arc<J>,
    mut reduced: Vec<Vec<(J::Key, J::Output)>>,
    presorted: bool,
    ctx: &mut StageCtx<'_>,
) -> Result<Vec<(J::Key, J::Output)>> {
    let (config, exec) = (ctx.config, ctx.exec);
    reduced.retain(|part| !part.is_empty());
    if matches!(config.merge, MergeMode::Unsorted) {
        return Ok(if reduced.len() == 1 {
            reduced.remove(0)
        } else {
            reduced.into_iter().flatten().collect()
        });
    }
    let lone = presorted && reduced.len() <= 1;
    let started = Instant::now();
    config.check_cancelled()?;
    let order = ByKey(|key: &J::Key| job.key_prefix(key));
    // A merge round as it starts: a cancellation point, its span, its
    // wave on the job's workers at the reduce width.
    let round_start =
        |probe: &StageProbe, round: u32, width: usize| -> Result<(Instant, WaveWorkers<'_>)> {
            config.check_cancelled()?;
            let started = probe.merge_round_start(round, width);
            Ok((started, exec.at_width(config.reduce_width().now())))
        };
    let (merged, rounds, elements_moved) = match config.merge {
        MergeMode::Unsorted => unreachable!("handled above"),
        MergeMode::PairwiseRounds if lone => (reduced.pop().unwrap_or_default(), 0, 0),
        MergeMode::PairwiseRounds => {
            // "each round (1) sorts many small lists in parallel and (2)
            // merges the lists" — step (1) is a full-width wave.
            let (mut runs, outcome) = exec.run_collect(config.map_width(), reduced, |_, part| {
                if presorted {
                    SortedRun::presorted(part, &order)
                } else {
                    SortedRun::sort(part, &order)
                }
            });
            ctx.probe.wave(outcome);
            let mut pw = PairwiseStats::default();
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
            let (merged, kw) = if lone {
                let merged = reduced.pop().unwrap_or_default();
                let elements_moved = merged.len() as u64;
                (merged, KwayStats { comparisons: 0, elements_moved, partitions: 1 })
            } else if presorted {
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
    fn whole_input_chunk_preserves_file_segments() {
        let files = Input::files(MemFileSet::new(vec![b"aaa".to_vec(), b"bb".to_vec()]));
        let chunk = pipeline::make_chunker(files, &JobConfig::default())
            .unwrap()
            .next_chunk()
            .unwrap()
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
