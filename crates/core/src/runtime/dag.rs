//! Multi-stage DAG pipelines: [`Pipeline`], [`Stage`], [`StageId`].
//!
//! A [`Pipeline`] strings several MapReduce applications together so
//! the reduced output of one stage feeds the next as an in-memory
//! input — the multi-pass jobs (sample→sort, iterative clustering)
//! that a scale-up runtime otherwise forces through `Vec<(K, V)>`
//! materialization or, worse, the filesystem. The hand-off reuses the
//! spill-run framing ([`PairCodec`]-encoded records behind a
//! `len | crc32` header): a feeding stage's reduce workers encode
//! straight into frame buffers (see
//! [`MapReduce::handoff_codec`]), and the fed stage maps over the
//! framed bytes with [`FrameIter`](super::FrameIter) — no intermediate
//! pair vector exists between the stages, which
//! [`HandoffStats::materialized_pairs`](super::HandoffStats) asserts.
//!
//! Scheduling respects declared dependencies ([`Stage::reads`],
//! [`Stage::after`]): every stage whose upstreams have completed runs
//! immediately on its own driver thread, so independent branches of
//! the DAG execute concurrently — sharing one persistent
//! [`WorkerPool`], one [`Tracer`], one metrics [`Registry`], and (under
//! a memory budget) one [`MemoryAccountant`], so the budget bounds the
//! *pipeline's* resident footprint, not each stage's separately.
//!
//! ```
//! use supmr::api::{Emit, MapReduce};
//! use supmr::combiner::Sum;
//! use supmr::container::HashContainer;
//! use supmr::runtime::{FrameIter, Input, Pipeline, Stage};
//! use supmr::spill::PairCodec;
//! use supmr_storage::MemSource;
//!
//! // How (byte, count) pairs cross the stage boundary.
//! const COUNTS: PairCodec<u8, u64> = PairCodec {
//!     encode: |k, n, buf| {
//!         buf.push(*k);
//!         buf.extend_from_slice(&n.to_le_bytes());
//!     },
//!     decode: |b| Some((*b.first()?, u64::from_le_bytes(b.get(1..9)?.try_into().ok()?))),
//!     size_hint: |_, _| 9,
//! };
//!
//! struct CharCount;
//! impl MapReduce for CharCount {
//!     type Key = u8;
//!     type Value = u64;
//!     type Combiner = Sum;
//!     type Output = u64;
//!     type Container = HashContainer<u8, u64, Sum>;
//!     fn make_container(&self) -> Self::Container { HashContainer::default() }
//!     fn map(&self, split: &[u8], emit: &mut dyn Emit<u8, u64>) {
//!         for &b in split.iter().filter(|b| !b.is_ascii_whitespace()) {
//!             emit.emit(b, 1);
//!         }
//!     }
//!     fn reduce(&self, _k: &u8, n: u64) -> u64 { n }
//!     // Reduced pairs stream to the next stage as framed bytes.
//!     fn handoff_codec(&self) -> Option<PairCodec<u8, u64>> { Some(COUNTS) }
//! }
//!
//! struct Total;
//! impl MapReduce for Total {
//!     type Key = ();
//!     type Value = u64;
//!     type Combiner = Sum;
//!     type Output = u64;
//!     type Container = HashContainer<(), u64, Sum>;
//!     fn make_container(&self) -> Self::Container { HashContainer::default() }
//!     fn map(&self, split: &[u8], emit: &mut dyn Emit<(), u64>) {
//!         for (_key, n) in FrameIter::new(split, COUNTS) {
//!             emit.emit((), n);
//!         }
//!     }
//!     fn reduce(&self, _k: &(), n: u64) -> u64 { n }
//! }
//!
//! let mut p: Pipeline<(), u64> = Pipeline::new();
//! let counts = p.stage(
//!     Stage::new("count", CharCount)
//!         .input(Input::stream(MemSource::from(b"ab ba c\n".to_vec()))),
//! );
//! p.stage(Stage::new("total", Total).reads(counts));
//! let result = p.run()?;
//! assert_eq!(result.pairs, vec![((), 5)]);
//! # Ok::<(), supmr::SupmrError>(())
//! ```
//!
//! [`PairCodec`]: crate::spill::PairCodec
//! [`MapReduce::handoff_codec`]: crate::api::MapReduce::handoff_codec
//! [`WorkerPool`]: crate::pool::WorkerPool
//! [`Tracer`]: supmr_metrics::Tracer
//! [`Registry`]: supmr_metrics::Registry
//! [`MemoryAccountant`]: crate::spill::MemoryAccountant

use super::handoff::StageData;
use super::probe::{pipeline_totals, stage_ended, stage_started, StageMetrics};
use super::{
    run_stage, Input, JobConfig, JobReport, JobScope, StageOutput, StageReport, StageResult,
    StageWiring,
};
use crate::api::MapReduce;
use crate::chunk::Chunking;
use crate::error::{panic_payload_string, Result, SupmrError};
use crate::pool::Executor;
use crate::spill::{MemoryAccountant, SpillMetrics};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use supmr_metrics::Tracer;
use supmr_storage::RecordFormat;

/// Handle to a stage within the [`Pipeline`] that created it — the only
/// way to name a dependency ([`Stage::reads`], [`Stage::after`]).
///
/// Handles are issued in insertion order by [`Pipeline::stage`], so a
/// dependency edge always points at an *earlier* stage and a pipeline
/// is acyclic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageId(pub(crate) usize);

type AppFactory<J> = Box<dyn FnMut(u64) -> J + Send>;
type InputFactory = Box<dyn FnMut(u64) -> Result<Input> + Send>;

/// One named MapReduce application within a [`Pipeline`], plus its
/// input edge (an external [`Input`] or an upstream stage's hand-off)
/// and optional ordering constraints.
pub struct Stage<J: MapReduce> {
    name: String,
    factory: AppFactory<J>,
    input: Option<InputFactory>,
    reads: Option<StageId>,
    after: Vec<usize>,
    config: Option<JobConfig>,
}

impl<J: MapReduce> Stage<J> {
    /// A stage that runs `app` once. For iterative pipelines
    /// ([`Pipeline::until`]) use [`Stage::from_factory`], which builds
    /// a fresh application per iteration.
    pub fn new(name: impl Into<String>, app: J) -> Stage<J> {
        let mut app = Some(app);
        Stage::from_factory(name, move |_| {
            app.take().expect(
                "one-shot stage application re-run; build iterative stages with Stage::from_factory",
            )
        })
    }

    /// A stage whose application is rebuilt by `factory` at every
    /// pipeline iteration (the argument is the 0-based iteration) —
    /// how an iterative job like k-means re-parameterizes each pass.
    pub fn from_factory(
        name: impl Into<String>,
        factory: impl FnMut(u64) -> J + Send + 'static,
    ) -> Stage<J> {
        Stage {
            name: name.into(),
            factory: Box::new(factory),
            input: None,
            reads: None,
            after: Vec::new(),
            config: None,
        }
    }

    /// Feed the stage from an external input. One-shot: an iterative
    /// pipeline re-opens its input via [`Stage::input_with`] instead.
    /// Mutually exclusive with [`Stage::reads`].
    pub fn input(self, input: Input) -> Self {
        let mut input = Some(input);
        self.input_with(move |_| {
            Ok(input.take().expect(
                "one-shot stage input re-run; build iterative inputs with Stage::input_with",
            ))
        })
    }

    /// Feed the stage from an input rebuilt per iteration. Mutually
    /// exclusive with [`Stage::reads`].
    pub fn input_with(mut self, f: impl FnMut(u64) -> Result<Input> + Send + 'static) -> Self {
        self.input = Some(Box::new(f));
        self
    }

    /// Feed the stage from `upstream`'s reduced output: the upstream
    /// stage encodes each `(key, output)` pair through its
    /// [`handoff_codec`](MapReduce::handoff_codec) into framed bytes,
    /// and this stage's `map` decodes them with
    /// [`FrameIter`](super::FrameIter). Mutually exclusive with an
    /// external input.
    pub fn reads(mut self, upstream: StageId) -> Self {
        self.reads = Some(upstream);
        self
    }

    /// Order this stage after `upstream` without consuming its output
    /// (a pure scheduling edge).
    pub fn after(mut self, upstream: StageId) -> Self {
        self.after.push(upstream.0);
        self
    }

    /// Override stage-local knobs (workers, chunking, split size,
    /// merge mode, record format, hash seed). Pipeline-owned
    /// facilities — tracing, metrics, utilization sampling, the memory
    /// budget and spill store — always come from the *pipeline's*
    /// config so all stages share them; overrides of those fields are
    /// ignored.
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = Some(config);
        self
    }
}

/// A prepared stage execution: everything resolved on the coordinator,
/// ready to run on a driver thread against the pipeline's executor and
/// tracer.
type StageRun = Box<dyn for<'p> FnOnce(Executor<'p>, &'p Tracer) -> Result<ErasedOutcome> + Send>;

/// A finished stage with its key/output types erased so the scheduler
/// stays monomorphization-free across heterogeneous stages.
struct ErasedOutcome {
    /// Framed hand-off for downstream stages (non-terminal stages).
    handoff: Option<StageData>,
    /// Terminal output pairs, as `Vec<(K, O)>` behind `Any`.
    pairs: Option<Box<dyn Any + Send>>,
    report: JobReport,
    out_pairs: u64,
}

/// Object-safe view of a [`Stage`] the scheduler drives.
trait ErasedStage: Send {
    fn name(&self) -> &str;
    fn reads(&self) -> Option<usize>;
    fn after(&self) -> &[usize];
    fn has_input(&self) -> bool;
    /// Resolve the stage's application, input, and configuration for
    /// one iteration into a runnable closure.
    fn prepare(
        &mut self,
        index: usize,
        iteration: u64,
        feed: Option<StageData>,
        wants_handoff: bool,
        scope: &JobScope<'_>,
    ) -> Result<StageRun>;
}

impl<J: MapReduce> ErasedStage for Stage<J> {
    fn name(&self) -> &str {
        &self.name
    }

    fn reads(&self) -> Option<usize> {
        self.reads.map(|StageId(i)| i)
    }

    fn after(&self) -> &[usize] {
        &self.after
    }

    fn has_input(&self) -> bool {
        self.input.is_some()
    }

    fn prepare(
        &mut self,
        index: usize,
        iteration: u64,
        feed: Option<StageData>,
        wants_handoff: bool,
        scope: &JobScope<'_>,
    ) -> Result<StageRun> {
        let app = (self.factory)(iteration);
        let base = &scope.config;
        let mut config = self.config.clone().unwrap_or_else(|| base.clone());
        // Pipeline-owned facilities: one registry, tracer, sampler,
        // scrape server, pool, and byte budget for every stage.
        config.metrics = base.metrics.clone();
        config.metrics_addr = None;
        config.sample_utilization = None;
        config.on_event = None;
        config.trace = base.trace;
        config.pool = base.pool;
        config.memory_budget = base.memory_budget;
        config.spill_dir = base.spill_dir.clone();
        config.spill_store = base.spill_store.clone();
        let input = match (feed, &mut self.input) {
            (Some(data), None) => {
                // A fed stage maps over the upstream hand-off buffer:
                // already resident, one frame-aligned split per
                // upstream partition, no record re-framing.
                config.chunking = Chunking::None;
                config.split_bytes = data.max_segment_len().max(1);
                config.record_format = RecordFormat::None;
                Input::resident(data.into_chunk())
            }
            (None, Some(f)) => f(iteration)?,
            (Some(_), Some(_)) => {
                unreachable!("validated: `reads` and an input are mutually exclusive")
            }
            (None, None) => {
                unreachable!("validated: every stage has an input or a `reads` upstream")
            }
        };
        config.validate()?;
        let codec = match wants_handoff {
            true => Some(app.handoff_codec().ok_or_else(|| {
                SupmrError::invalid_config(format!(
                    "stage '{}' feeds a downstream stage but its application provides no \
                     handoff codec",
                    self.name
                ))
            })?),
            false => None,
        };
        let app = Arc::new(app);
        let accountant = scope.accountant.clone();
        // Spill runs from concurrent stages and successive iterations
        // share one store: the prefix keeps their run names disjoint.
        let run_prefix = format!("s{index:02}-i{iteration:03}-");
        Ok(Box::new(move |exec: Executor<'_>, tracer: &Tracer| {
            let wiring = StageWiring { handoff: codec, accountant, run_prefix };
            let StageResult { output, report } =
                run_stage(&app, input, &config, exec, tracer, wiring)?;
            let out_pairs = report.stats.output_pairs;
            Ok(match output {
                StageOutput::Handoff(data) => {
                    ErasedOutcome { handoff: Some(data), pairs: None, report, out_pairs }
                }
                StageOutput::Pairs(p) => ErasedOutcome {
                    handoff: None,
                    pairs: Some(Box::new(p) as Box<dyn Any + Send>),
                    report,
                    out_pairs,
                },
            })
        }))
    }
}

/// One iteration's outcome, handed to the [`Pipeline::until`]
/// predicate: the terminal stage's output plus this iteration's
/// per-stage reports.
#[derive(Debug)]
pub struct IterationReport<'a, K, O> {
    /// Completed iterations so far (1-based: the first call sees `1`).
    pub iteration: u64,
    /// The terminal stage's output pairs for this iteration.
    pub pairs: &'a [(K, O)],
    /// Per-stage reports for this iteration, in completion order.
    pub stages: &'a [StageReport],
}

/// A finished pipeline: the terminal stage's output (of the *last*
/// iteration) plus the aggregated [`JobReport`] with its per-stage
/// breakdown across all iterations.
#[derive(Debug)]
pub struct PipelineResult<K, O> {
    /// The terminal stage's reduced pairs, ordered per its
    /// [`MergeMode`](super::MergeMode).
    pub pairs: Vec<(K, O)>,
    /// Iterations executed (1 without [`Pipeline::until`]).
    pub iterations: u64,
    /// Aggregated timings/counters, with
    /// [`stages`](JobReport::stages) carrying the per-stage slices.
    pub report: JobReport,
}

impl<K: Ord + Clone, O: Clone> PipelineResult<K, O> {
    /// The output pairs sorted by key (stable), regardless of the
    /// terminal stage's merge mode — convenient for assertions.
    pub fn sorted_pairs(&self) -> Vec<(K, O)> {
        let mut v = self.pairs.clone();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

type UntilPred<K, O> = Box<dyn FnMut(&IterationReport<'_, K, O>) -> bool>;

/// A DAG of MapReduce stages executed as one job. See the
/// [module docs](self) for the model and a worked example.
///
/// `K` and `O` are the *terminal* stage's key and output types — the
/// types [`Pipeline::run`] returns. Exactly one stage must be terminal
/// (read by no other stage).
pub struct Pipeline<K, O> {
    config: JobConfig,
    stages: Vec<Box<dyn ErasedStage>>,
    until: Option<UntilPred<K, O>>,
    max_iterations: u64,
    _terminal: PhantomData<fn() -> (K, O)>,
}

impl<K: Send + 'static, O: Send + 'static> Default for Pipeline<K, O> {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl<K: Send + 'static, O: Send + 'static> Pipeline<K, O> {
    /// An empty pipeline with default configuration.
    pub fn new() -> Pipeline<K, O> {
        Pipeline {
            config: JobConfig::default(),
            stages: Vec::new(),
            until: None,
            max_iterations: u64::MAX,
            _terminal: PhantomData,
        }
    }

    /// Set the pipeline-wide configuration: the default for every
    /// stage, and the sole source of the pipeline-owned facilities
    /// (tracing, metrics, sampling, memory budget, spill store).
    ///
    /// A pipeline runs ungoverned: [`JobConfig::governor`] still implies
    /// a registry, as it does for a single job, but no governor thread
    /// is started and [`JobReport::governor`] stays `None`.
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = config;
        self
    }

    /// Append a stage; the returned [`StageId`] names it in downstream
    /// [`Stage::reads`]/[`Stage::after`] edges.
    pub fn stage<J: MapReduce>(&mut self, stage: Stage<J>) -> StageId {
        self.stages.push(Box::new(stage));
        StageId(self.stages.len() - 1)
    }

    /// Re-run the whole DAG until `stop` returns `true` (it sees each
    /// iteration's terminal output and stage reports) — the iterative
    /// driver k-means-style jobs need. Without `until` the pipeline
    /// runs exactly once. Stages that should vary per iteration use
    /// [`Stage::from_factory`]/[`Stage::input_with`].
    pub fn until(mut self, stop: impl FnMut(&IterationReport<'_, K, O>) -> bool + 'static) -> Self {
        self.until = Some(Box::new(stop));
        self
    }

    /// Hard cap on iterations under [`Pipeline::until`] (the pipeline
    /// stops after `n` iterations even if the predicate never fires).
    pub fn max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = n.max(1);
        self
    }

    /// Execute the pipeline.
    ///
    /// # Errors
    /// [`SupmrError::InvalidConfig`] for a malformed DAG (no stages,
    /// zero or several terminal stages, a stage with both or neither
    /// of an input and a `reads` edge, a feeding stage without a
    /// hand-off codec, or a terminal stage whose key/output types
    /// don't match `K, O`), plus every per-stage error
    /// [`Job::run`](super::Job::run) can produce.
    pub fn run(mut self) -> Result<PipelineResult<K, O>> {
        if self.stages.is_empty() {
            return Err(SupmrError::invalid_config("a pipeline needs at least one stage"));
        }
        for (i, s) in self.stages.iter().enumerate() {
            let bad = |msg: String| Err(SupmrError::invalid_config(msg));
            match (s.reads(), s.has_input()) {
                (Some(u), false) if u >= i => {
                    return bad(format!(
                        "stage '{}' must read an earlier stage of the same pipeline",
                        s.name()
                    ));
                }
                (Some(_), true) => {
                    return bad(format!(
                        "stage '{}' has both an external input and a `reads` upstream",
                        s.name()
                    ));
                }
                (None, false) => {
                    return bad(format!(
                        "stage '{}' has neither an input nor a `reads` upstream",
                        s.name()
                    ));
                }
                _ => {}
            }
            if s.after().iter().any(|&a| a >= i) {
                return Err(SupmrError::invalid_config(format!(
                    "stage '{}' must be ordered after an earlier stage of the same pipeline",
                    s.name()
                )));
            }
        }
        // Exactly one terminal (unread) stage supplies the result.
        let mut consumers = vec![0usize; self.stages.len()];
        for s in &self.stages {
            if let Some(u) = s.reads() {
                consumers[u] += 1;
            }
        }
        let unread: Vec<usize> = (0..self.stages.len()).filter(|&i| consumers[i] == 0).collect();
        if unread.len() != 1 {
            let names: Vec<&str> = unread.iter().map(|&i| self.stages[i].name()).collect();
            return Err(SupmrError::invalid_config(format!(
                "a pipeline needs exactly one terminal (unread) stage; found {}: [{}]",
                unread.len(),
                names.join(", ")
            )));
        }

        let mut scope = JobScope::open(self.config, None, None)?;
        let registry = scope.config.metrics.clone();
        // One byte ledger for the whole pipeline: concurrent stages
        // budget against it together, so `memory_budget` bounds the
        // pipeline's resident footprint rather than each stage's.
        scope.accountant = scope.config.memory_budget.map(|budget| {
            let metrics = registry.as_ref().map(SpillMetrics::register);
            let mut accountant = MemoryAccountant::new(budget);
            if let Some(m) = &metrics {
                m.budget_bytes.set(budget.min(i64::MAX as u64) as i64);
                accountant = accountant.with_gauge(m.resident_bytes.clone());
            }
            Arc::new(accountant)
        });
        let stage_metrics: Vec<Option<StageMetrics>> = self
            .stages
            .iter()
            .map(|s| registry.as_ref().map(|r| StageMetrics::register(r, s.name())))
            .collect();

        let t0 = Instant::now();
        let mut stage_reports: Vec<StageReport> = Vec::new();
        let mut iterations: u64 = 0;
        let pairs: Vec<(K, O)> = loop {
            let iter_base = stage_reports.len();
            let raw = run_iteration(
                &mut self.stages,
                iterations,
                &consumers,
                &scope,
                &stage_metrics,
                &mut stage_reports,
            )?;
            let pairs = *raw.downcast::<Vec<(K, O)>>().map_err(|_| {
                SupmrError::invalid_config(
                    "the terminal stage's key/output types do not match the pipeline's; \
                     `Pipeline<K, O>` must use the terminal application's Key and Output",
                )
            })?;
            iterations += 1;
            let stop = match &mut self.until {
                Some(pred) => pred(&IterationReport {
                    iteration: iterations,
                    pairs: &pairs,
                    stages: &stage_reports[iter_base..],
                }),
                None => true,
            };
            if stop || iterations >= self.max_iterations {
                break pairs;
            }
        };

        let (timings, stats) = pipeline_totals(&stage_reports, t0.elapsed(), pairs.len() as u64);
        let mut report =
            JobReport { timings, stats, stages: stage_reports, ..JobReport::default() };
        scope.close(&mut report);
        Ok(PipelineResult { pairs, iterations, report })
    }
}

/// Run every stage once, respecting dependency order: each stage whose
/// upstreams are done is dispatched onto its own driver thread, so
/// independent stages run concurrently over the shared executor.
/// Returns the terminal stage's pairs (type-erased).
fn run_iteration(
    stages: &mut [Box<dyn ErasedStage>],
    iteration: u64,
    consumers: &[usize],
    scope: &JobScope<'_>,
    stage_metrics: &[Option<StageMetrics>],
    stage_reports: &mut Vec<StageReport>,
) -> Result<Box<dyn Any + Send>> {
    let (exec, tracer) = (scope.exec(), &scope.tracer);
    let n = stages.len();
    let mut launched = vec![false; n];
    let mut done = vec![false; n];
    let mut outputs: Vec<Option<StageData>> = vec![None; n];
    std::thread::scope(|threads| -> Result<Box<dyn Any + Send>> {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<ErasedOutcome>)>();
        let mut terminal_pairs: Option<Box<dyn Any + Send>> = None;
        let mut completed = 0usize;
        while completed < n {
            // Launch every ready stage. Dependency edges point at
            // earlier stages only, so some stage is always ready and
            // the loop makes progress.
            for i in 0..n {
                let ready = !launched[i]
                    && stages[i].reads().is_none_or(|u| done[u])
                    && stages[i].after().iter().all(|&a| done[a]);
                if !ready {
                    continue;
                }
                // Hand-off buffers clone cheaply (shared bytes), which
                // lets several stages read one upstream.
                let feed = stages[i]
                    .reads()
                    .map(|u| outputs[u].clone().expect("a completed upstream produced a hand-off"));
                let run = stages[i].prepare(i, iteration, feed, consumers[i] > 0, scope)?;
                launched[i] = true;
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("supmr-stage-{i}"))
                    .spawn_scoped(threads, move || {
                        // The span wraps the whole stage on this driver
                        // thread; inner phase spans nest inside it.
                        let stage = i as u32;
                        stage_started(tracer, stage);
                        let result = catch_unwind(AssertUnwindSafe(|| run(exec, tracer)))
                            .unwrap_or_else(|payload| {
                                Err(SupmrError::TaskPanic {
                                    payload: panic_payload_string(payload),
                                })
                            });
                        stage_ended(tracer, stage, result.as_ref().map_or(0, |o| o.out_pairs));
                        // The receiver is gone iff the iteration
                        // already failed; this result is then moot.
                        let _ = tx.send((i, result));
                    })
                    .expect("spawning a pipeline stage driver thread");
            }
            let (i, result) = rx.recv().expect("a launched stage driver reports");
            let outcome = result?;
            done[i] = true;
            completed += 1;
            let handoff_stats = outcome.handoff.as_ref().map(StageData::stats);
            if let Some(m) = &stage_metrics[i] {
                m.executed(
                    outcome.report.timings.total(),
                    outcome.out_pairs,
                    handoff_stats.map(|h| h.bytes),
                );
            }
            stage_reports.push(StageReport {
                name: stages[i].name().to_string(),
                stage: i as u32,
                iteration,
                timings: outcome.report.timings,
                stats: outcome.report.stats,
                handoff: handoff_stats,
            });
            outputs[i] = outcome.handoff;
            if let Some(p) = outcome.pairs {
                terminal_pairs = Some(p);
            }
        }
        Ok(terminal_pairs.expect("the terminal stage produced pairs"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Emit, MapReduce};
    use crate::combiner::Sum;
    use crate::container::HashContainer;
    use crate::runtime::{FrameIter, MergeMode};
    use crate::spill::PairCodec;
    use supmr_storage::MemSource;

    const COUNTS: PairCodec<u8, u64> = PairCodec {
        encode: |k, n, buf| {
            buf.push(*k);
            buf.extend_from_slice(&n.to_le_bytes());
        },
        decode: |b| Some((*b.first()?, u64::from_le_bytes(b.get(1..9)?.try_into().ok()?))),
        size_hint: |_, _| 9,
    };

    struct CharCount {
        with_codec: bool,
    }

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

        fn reduce(&self, _k: &u8, n: u64) -> u64 {
            n
        }

        fn handoff_codec(&self) -> Option<PairCodec<u8, u64>> {
            self.with_codec.then_some(COUNTS)
        }
    }

    struct Total;

    impl MapReduce for Total {
        type Key = ();
        type Value = u64;
        type Combiner = Sum;
        type Output = u64;
        type Container = HashContainer<(), u64, Sum>;

        fn make_container(&self) -> Self::Container {
            HashContainer::default()
        }

        fn map(&self, split: &[u8], emit: &mut dyn Emit<(), u64>) {
            for (_key, n) in FrameIter::new(split, COUNTS) {
                emit.emit((), n);
            }
        }

        fn reduce(&self, _k: &(), n: u64) -> u64 {
            n
        }
    }

    fn text_input() -> Input {
        Input::stream(MemSource::from(b"ab ba c\nca bc\n".to_vec()))
    }

    #[test]
    fn two_stage_pipeline_streams_the_handoff() {
        let mut p: Pipeline<(), u64> = Pipeline::new();
        let counts = p.stage(
            Stage::new("count", CharCount { with_codec: true })
                .input(text_input())
                .config(JobConfig { merge: MergeMode::Unsorted, ..JobConfig::default() }),
        );
        p.stage(Stage::new("total", Total).reads(counts));
        let result = p.run().unwrap();
        assert_eq!(result.pairs, vec![((), 9)]);
        assert_eq!(result.iterations, 1);
        assert_eq!(result.report.stages.len(), 2);
        let count_stage = &result.report.stages[0];
        assert_eq!(count_stage.name, "count");
        let handoff = count_stage.handoff.expect("feeding stage reports hand-off stats");
        assert_eq!(handoff.pairs, 3, "one hand-off frame per distinct character");
        assert_eq!(
            handoff.materialized_pairs, 0,
            "unsorted hand-off streams straight out of the reduce workers"
        );
        assert!(handoff.bytes > 0);
        assert!(result.report.stages[1].handoff.is_none());
    }

    #[test]
    fn sorted_handoff_is_counted_as_materialized() {
        let mut p: Pipeline<(), u64> = Pipeline::new();
        let counts = p.stage(
            Stage::new("count", CharCount { with_codec: true })
                .input(text_input())
                .config(JobConfig { merge: MergeMode::PWay { ways: 2 }, ..JobConfig::default() }),
        );
        p.stage(Stage::new("total", Total).reads(counts));
        let result = p.run().unwrap();
        assert_eq!(result.pairs, vec![((), 9)]);
        let handoff = result.report.stages[0].handoff.expect("hand-off stats");
        assert_eq!(handoff.materialized_pairs, handoff.pairs, "sorted hand-off merges first");
    }

    #[test]
    fn until_reruns_the_dag() {
        let mut p: Pipeline<u8, u64> = Pipeline::new();
        p.stage(
            Stage::from_factory("count", |_| CharCount { with_codec: false })
                .input_with(|_| Ok(text_input())),
        );
        let result = p.until(|report| report.iteration >= 3).run().unwrap();
        assert_eq!(result.iterations, 3);
        assert_eq!(result.report.stages.len(), 3);
        assert_eq!(result.report.stages[2].iteration, 2);
        assert_eq!(result.sorted_pairs(), vec![(b'a', 3), (b'b', 3), (b'c', 3)]);
    }

    #[test]
    fn max_iterations_caps_a_never_satisfied_predicate() {
        let mut p: Pipeline<u8, u64> = Pipeline::new();
        p.stage(
            Stage::from_factory("count", |_| CharCount { with_codec: false })
                .input_with(|_| Ok(text_input())),
        );
        let result = p.until(|_| false).max_iterations(2).run().unwrap();
        assert_eq!(result.iterations, 2);
    }

    #[test]
    fn after_edges_schedule_without_consuming() {
        let mut p: Pipeline<(), u64> = Pipeline::new();
        let first =
            p.stage(Stage::new("first", CharCount { with_codec: true }).input(text_input()));
        p.stage(Stage::new("total", Total).reads(first).after(first));
        let result = p.run().unwrap();
        assert_eq!(result.pairs, vec![((), 9)]);
    }

    #[test]
    fn rejects_two_terminal_stages() {
        let mut p: Pipeline<u8, u64> = Pipeline::new();
        p.stage(Stage::new("one", CharCount { with_codec: false }).input(text_input()));
        p.stage(Stage::new("two", CharCount { with_codec: false }).input(text_input()));
        let err = p.run().unwrap_err();
        assert!(err.to_string().contains("exactly one terminal"), "{err}");
    }

    #[test]
    fn rejects_a_feeding_stage_without_a_codec() {
        let mut p: Pipeline<(), u64> = Pipeline::new();
        let counts =
            p.stage(Stage::new("count", CharCount { with_codec: false }).input(text_input()));
        p.stage(Stage::new("total", Total).reads(counts));
        let err = p.run().unwrap_err();
        assert!(matches!(err, SupmrError::InvalidConfig { .. }));
        assert!(err.to_string().contains("handoff codec"), "{err}");
    }

    #[test]
    fn rejects_input_and_reads_on_one_stage() {
        let mut p: Pipeline<(), u64> = Pipeline::new();
        let counts =
            p.stage(Stage::new("count", CharCount { with_codec: true }).input(text_input()));
        p.stage(Stage::new("total", Total).input(text_input()).reads(counts));
        let err = p.run().unwrap_err();
        assert!(err.to_string().contains("both"), "{err}");
    }

    #[test]
    fn rejects_a_stage_with_no_input_edge() {
        let mut p: Pipeline<(), u64> = Pipeline::new();
        p.stage(Stage::new("orphan", Total));
        let err = p.run().unwrap_err();
        assert!(err.to_string().contains("neither"), "{err}");
    }

    #[test]
    fn rejects_an_empty_pipeline() {
        let p: Pipeline<(), u64> = Pipeline::new();
        let err = p.run().unwrap_err();
        assert!(err.to_string().contains("at least one stage"), "{err}");
    }

    #[test]
    fn rejects_a_mismatched_terminal_type() {
        let mut p: Pipeline<String, String> = Pipeline::new();
        p.stage(Stage::new("count", CharCount { with_codec: false }).input(text_input()));
        let err = p.run().unwrap_err();
        assert!(err.to_string().contains("terminal stage"), "{err}");
    }
}
