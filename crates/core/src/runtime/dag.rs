//! Multi-stage pipelines: [`Pipeline`], [`Stage`].
//!
//! A [`Pipeline`] chains MapReduce applications so each stage's reduced
//! output feeds the next in memory — multi-round jobs (partition→sort,
//! prefix doubling, iterative clustering) with no copied `Vec<(K, V)>`
//! or file between rounds. [`Pipeline::new`] starts the chain with a
//! stage that maps an [`Input`]; [`Pipeline::then_with`] appends one
//! whose map is a function of the previous round's pairs: the
//! predecessor's reduce partitions move to it as they stand, one absorb
//! wave hands every `(key, output)` pair to the edge function, which
//! emits the stage's own pairs (re-keyed, or as they are with
//! [`Pipeline::then`]), and the stage reduces and merges like any job.
//! Nothing is encoded or copied at the boundary ([`HandoffStats`]).
//!
//! The chain is typed — an edge takes its predecessor's `(Key, Output)`
//! and `Pipeline<K, O>` names the last stage's — so a malformed pipeline
//! does not compile. Each iteration runs the stages in order on one
//! driver thread, over one shared [`WorkerPool`], [`Tracer`], metrics
//! [`Registry`], flow ledger and (under a budget) [`MemoryAccountant`],
//! so the budget bounds the *pipeline's* footprint, not each stage's.
//!
//! The example's second stage re-keys every count to `()`:
//!
//! ```
//! use supmr::api::{Emit, MapReduce};
//! use supmr::combiner::Sum;
//! use supmr::container::HashContainer;
//! use supmr::runtime::{Input, Pipeline, Stage};
//! use supmr_storage::MemSource;
//!
//! struct CharCount;
//! impl MapReduce for CharCount {
//!     type Key = u8; type Value = u64; type Combiner = Sum; type Output = u64;
//!     type Container = HashContainer<u8, u64, Sum>;
//!     fn make_container(&self) -> Self::Container { HashContainer::default() }
//!     fn map(&self, split: &[u8], emit: &mut dyn Emit<u8, u64>) {
//!         for &b in split.iter().filter(|b| !b.is_ascii_whitespace()) {
//!             emit.emit(b, 1);
//!         }
//!     }
//!     fn reduce(&self, _k: &u8, n: u64) -> u64 { n }
//! }
//!
//! struct Total;
//! impl MapReduce for Total {
//!     type Key = (); type Value = u64; type Combiner = Sum; type Output = u64;
//!     type Container = HashContainer<(), u64, Sum>;
//!     fn make_container(&self) -> Self::Container { HashContainer::default() }
//!     // A taking stage runs no map.
//!     fn map(&self, _split: &[u8], _emit: &mut dyn Emit<(), u64>) {}
//!     fn reduce(&self, _k: &(), n: u64) -> u64 { n }
//! }
//!
//! let input = Input::stream(MemSource::from(b"ab ba c\n".to_vec()));
//! let result = Pipeline::new(Stage::new("count", CharCount), input)
//!     // Every (byte, count) pair the count stage hands over becomes ((), count).
//!     .then_with(Stage::new("total", Total), |_byte, n, emit| emit.emit((), n))
//!     .run()?;
//! assert_eq!(result.pairs, vec![((), 5)]);
//! # Ok::<(), supmr::SupmrError>(())
//! ```
//!
//! [`HandoffStats`]: super::HandoffStats
//! [`WorkerPool`]: crate::pool::WorkerPool
//! [`Tracer`]: supmr_metrics::Tracer
//! [`Registry`]: supmr_metrics::Registry
//! [`MemoryAccountant`]: crate::spill::MemoryAccountant

use super::handoff::moved_stats;
use super::probe::{pipeline_totals, stage_ended, stage_started, StageMetrics};
use super::{
    catching, finish_job, pipeline, stage_container, Input, JobConfig, JobReport, JobScope,
    StageCtx, StageOutput, StageReport, StageResult, StageWiring,
};
use crate::api::{Emit, MapReduce};
use crate::chunk::Chunking;
use crate::container::Container;
use crate::error::Result;
use std::sync::Arc;
use std::time::Instant;
use supmr_metrics::Phase;

type AppFactory<J> = Box<dyn FnMut(u64) -> J + Send>;

/// One named MapReduce application within a [`Pipeline`], plus an
/// optional stage-local configuration.
pub struct Stage<J: MapReduce> {
    name: String,
    factory: AppFactory<J>,
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
        Stage { name: name.into(), factory: Box::new(factory), config: None }
    }

    /// Override stage-local knobs (workers, chunking, split size, merge
    /// mode, record format, hash seed). The pipeline-owned facilities —
    /// tracing, metrics, flow ledger, sampling, memory budget, spill
    /// store — always come from the pipeline's config, shared by all.
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Execute the stage as stage `index` of `round`: `feed` maps its
    /// input, or absorbs its predecessor's partitions, inside its span, a
    /// panic becoming `TaskPanic`; `moves` hands its partitions on.
    fn run(
        &mut self,
        round: &mut Round<'_>,
        index: usize,
        moves: bool,
        feed: impl FnOnce(&Arc<J>, StageCtx<'_>, StageWiring) -> Result<StageResult<J::Key, J::Output>>,
    ) -> Result<StageOutput<J::Key, J::Output>> {
        let app = Arc::new((self.factory)(round.iteration));
        let scope = round.scope;
        let base = &scope.config;
        let mut config = self.config.clone().unwrap_or_else(|| base.clone());
        // Pipeline-owned facilities, one of each for every stage.
        config.metrics = base.metrics.clone();
        config.metrics_addr = None;
        config.sample_utilization = None;
        config.on_event = None;
        config.trace = base.trace;
        config.pool = base.pool;
        config.memory_budget = base.memory_budget;
        config.spill_dir = base.spill_dir.clone();
        config.spill_store = base.spill_store.clone();
        if index > 0 {
            // A taking stage's input is already resident.
            config.chunking = Chunking::None;
        }
        config.validate()?;
        let wiring = StageWiring {
            moves,
            accountant: scope.accountant.clone(),
            // Disjoint run names for every stage and iteration in one store.
            run_prefix: format!("s{index:02}-i{:03}-", round.iteration),
        };
        let (tracer, stage) = (&scope.tracer, index as u32);
        // The span wraps the whole stage; its phase spans nest inside.
        stage_started(tracer, stage);
        let ctx = StageCtx { config: &config, exec: scope.exec(), probe: scope.probe(&config) };
        let result = catching(|| feed(&app, ctx, wiring));
        stage_ended(tracer, stage, result.as_ref().map_or(0, |r| r.report.stats.output_pairs));
        let StageResult { output, report } = result?;
        let handoff = match &output {
            StageOutput::Moved(parts) => Some(moved_stats(parts)),
            StageOutput::Pairs(_) => None,
        };
        if let Some(m) = &round.metrics[index] {
            m.executed(report.timings.total(), report.stats.output_pairs, handoff.map(|h| h.bytes));
        }
        round.reports.push(StageReport {
            name: self.name.clone(),
            stage,
            iteration: round.iteration,
            timings: report.timings,
            stats: report.stats,
            handoff,
        });
        Ok(output)
    }
}

/// What the stages of one iteration share: the pipeline's scope, each
/// stage's `supmr.stage.*` families, and the stage reports so far.
struct Round<'a> {
    scope: &'a JobScope<'a>,
    metrics: &'a [Option<StageMetrics>],
    iteration: u64,
    reports: Vec<StageReport>,
}

/// The chain so far: runs every stage of one iteration and returns the
/// last one's output — its partitions by move when `moves` (it has a
/// successor), its merged pairs otherwise.
type Chain<K, O> = Box<dyn FnMut(&mut Round<'_>, bool) -> Result<StageOutput<K, O>> + Send>;

/// One iteration's outcome, handed to the [`Pipeline::until`]
/// predicate: the last stage's output plus this iteration's per-stage
/// reports.
#[derive(Debug)]
pub struct IterationReport<'a, K, O> {
    /// Completed iterations so far (1-based: the first call sees `1`).
    pub iteration: u64,
    /// The last stage's output pairs for this iteration.
    pub pairs: &'a [(K, O)],
    /// Per-stage reports for this iteration, in chain order.
    pub stages: &'a [StageReport],
}

/// A finished pipeline: the last stage's output (of the *last*
/// iteration) plus the aggregated [`JobReport`] with its per-stage
/// breakdown across all iterations.
#[derive(Debug)]
pub struct PipelineResult<K, O> {
    /// The last stage's reduced pairs, ordered per its
    /// [`MergeMode`](super::MergeMode).
    pub pairs: Vec<(K, O)>,
    /// Iterations executed (1 without [`Pipeline::until`]).
    pub iterations: u64,
    /// Aggregated timings/counters, with
    /// [`stages`](JobReport::stages) carrying the per-stage slices.
    pub report: JobReport,
}

impl<K: Ord + Clone, O: Clone> PipelineResult<K, O> {
    /// The output pairs sorted by key (stable), regardless of the last
    /// stage's merge mode — convenient for assertions.
    pub fn sorted_pairs(&self) -> Vec<(K, O)> {
        let mut v = self.pairs.clone();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

type UntilPred<K, O> = Box<dyn FnMut(&IterationReport<'_, K, O>) -> bool>;

/// A chain of MapReduce stages executed as one job. See the
/// [module docs](self) for the model and a worked example.
///
/// `K` and `O` are the *last* stage's key and output types — the types
/// [`Pipeline::run`] returns.
pub struct Pipeline<K, O> {
    config: JobConfig,
    /// Stage names in chain order, for the `supmr.stage.*` labels.
    names: Vec<String>,
    chain: Chain<K, O>,
    until: Option<UntilPred<K, O>>,
    max_iterations: u64,
}

impl<K: Send + 'static, O: Send + 'static> Pipeline<K, O> {
    /// A pipeline whose first stage maps `input`, with default
    /// configuration. One-shot: an iterative pipeline re-opens its input
    /// via [`Pipeline::new_with`] instead.
    pub fn new<J: MapReduce<Key = K, Output = O>>(stage: Stage<J>, input: Input) -> Self {
        let mut input = Some(input);
        Pipeline::new_with(stage, move |_| {
            Ok(input.take().expect(
                "one-shot pipeline input re-run; build iterative inputs with Pipeline::new_with",
            ))
        })
    }

    /// A pipeline whose first stage maps the input `input` opens for
    /// each iteration (the argument is the 0-based iteration).
    pub fn new_with<J: MapReduce<Key = K, Output = O>>(
        mut stage: Stage<J>,
        mut input: impl FnMut(u64) -> Result<Input> + Send + 'static,
    ) -> Self {
        let names = vec![stage.name.clone()];
        let chain: Chain<K, O> = Box::new(move |round: &mut Round<'_>, moves| {
            let input = input(round.iteration)?;
            stage.run(round, 0, moves, |app, ctx, wiring| pipeline::run(app, input, ctx, wiring))
        });
        let config = JobConfig::default();
        Pipeline { config, names, chain, until: None, max_iterations: u64::MAX }
    }

    /// Append `stage`, taking the last stage's reduce partitions by move
    /// — no codec, no frames — and running no `map`: one absorb wave
    /// calls `edge` once per `(key, output)` pair on the pool's workers,
    /// and what it emits enters `stage`'s container. `edge` takes the
    /// last stage's `(Key, Output)`, and the pipeline becomes `stage`'s;
    /// anything else does not compile. An edge of the wrong pair type:
    ///
    /// ```compile_fail,E0631
    /// # use supmr::api::{Emit, MapReduce};
    /// # use supmr::{combiner::Sum, container::HashContainer, runtime::*};
    /// # struct Count<K>(K);
    /// # impl<K: Ord + std::hash::Hash + Clone + Send + Sync + 'static> MapReduce for Count<K> {
    /// #     type Key = K; type Value = u64; type Combiner = Sum; type Output = u64;
    /// #     type Container = HashContainer<K, u64, Sum>;
    /// #     fn make_container(&self) -> Self::Container { HashContainer::default() }
    /// #     fn map(&self, _s: &[u8], emit: &mut dyn Emit<K, u64>) { emit.emit(self.0.clone(), 1) }
    /// #     fn reduce(&self, _k: &K, n: u64) -> u64 { n }
    /// # }
    /// # let input = Input::stream(supmr_storage::MemSource::from(b"abc".to_vec()));
    /// // The count stage hands over (u8, u64) pairs, not (String, u64).
    /// let edge = |word: String, n: u64, emit: &mut dyn Emit<u8, u64>| emit.emit(word.len() as u8, n);
    /// Pipeline::new(Stage::new("count", Count(0u8)), input).then_with(Stage::new("re", Count(0u8)), edge);
    /// ```
    ///
    /// A `Pipeline<K, O>` that names another stage's types:
    ///
    /// ```compile_fail,E0308
    /// # use supmr::api::{Emit, MapReduce};
    /// # use supmr::{combiner::Sum, container::HashContainer, runtime::*};
    /// # struct Count<K>(K);
    /// # impl<K: Ord + std::hash::Hash + Clone + Send + Sync + 'static> MapReduce for Count<K> {
    /// #     type Key = K; type Value = u64; type Combiner = Sum; type Output = u64;
    /// #     type Container = HashContainer<K, u64, Sum>;
    /// #     fn make_container(&self) -> Self::Container { HashContainer::default() }
    /// #     fn map(&self, _s: &[u8], emit: &mut dyn Emit<K, u64>) { emit.emit(self.0.clone(), 1) }
    /// #     fn reduce(&self, _k: &K, n: u64) -> u64 { n }
    /// # }
    /// # let input = Input::stream(supmr_storage::MemSource::from(b"abc".to_vec()));
    /// // The last stage counts under `()`: the pipeline is `Pipeline<(), u64>`.
    /// let p: Pipeline<u8, u64> = Pipeline::new(Stage::new("count", Count(0u8)), input)
    ///     .then_with(Stage::new("total", Count(())), |_byte, n, emit| emit.emit((), n));
    /// ```
    pub fn then_with<J: MapReduce>(
        self,
        mut stage: Stage<J>,
        edge: impl Fn(K, O, &mut dyn Emit<J::Key, J::Value>) + Send + Sync + 'static,
    ) -> Pipeline<J::Key, J::Output> {
        let Pipeline { config, mut names, chain: mut upstream, until, max_iterations } = self;
        assert!(until.is_none(), "Pipeline::until must follow the last stage");
        let index = names.len();
        names.push(stage.name.clone());
        let chain: Chain<J::Key, J::Output> = Box::new(move |round: &mut Round<'_>, moves| {
            let StageOutput::Moved(parts) = upstream(round, true)? else {
                unreachable!("a stage with a successor hands off its partitions")
            };
            stage
                .run(round, index, moves, |app, ctx, wiring| absorb(app, parts, &edge, ctx, wiring))
        });
        Pipeline { config, names, chain, until: None, max_iterations }
    }

    /// [`then_with`](Pipeline::then_with) an edge that emits every pair
    /// as it is: the last stage's `(Key, Output)` must be `stage`'s
    /// `(Key, Value)`.
    pub fn then<J: MapReduce<Key = K, Value = O>>(self, stage: Stage<J>) -> Pipeline<K, J::Output> {
        self.then_with(stage, |k, v, emit| emit.emit(k, v))
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

    /// Re-run the whole chain until `stop` returns `true` (it sees each
    /// iteration's last-stage output and stage reports) — the iterative
    /// driver k-means-style jobs need. Without `until` the pipeline
    /// runs exactly once. Stages that should vary per iteration use
    /// [`Stage::from_factory`]/[`Pipeline::new_with`]. Set it after the
    /// last stage: [`then_with`](Pipeline::then_with) panics on a chain
    /// that already has one.
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

    /// Execute the pipeline, each iteration on one driver thread.
    ///
    /// # Errors
    /// Every per-stage error [`Job::run`](super::Job::run) can produce.
    pub fn run(mut self) -> Result<PipelineResult<K, O>> {
        // The scope's one byte ledger bounds the pipeline's resident
        // footprint under `memory_budget`, not each stage's.
        let scope = JobScope::open(self.config, None, None)?;
        let registry = scope.config.metrics.clone();
        // Registered up front, so a scrape sees every stage's families
        // before the stage first runs.
        let metrics: Vec<Option<StageMetrics>> = self
            .names
            .iter()
            .map(|name| registry.as_ref().map(|r| StageMetrics::register(r, name)))
            .collect();

        let t0 = Instant::now();
        let mut stage_reports: Vec<StageReport> = Vec::new();
        let mut iterations: u64 = 0;
        let pairs: Vec<(K, O)> = loop {
            let mut round = Round {
                scope: &scope,
                metrics: &metrics,
                iteration: iterations,
                reports: Vec::new(),
            };
            let chain = &mut self.chain;
            let StageOutput::Pairs(pairs) = on_driver_thread(|| chain(&mut round, false))? else {
                unreachable!("the last stage has no successor to hand off to")
            };
            iterations += 1;
            let stop = match &mut self.until {
                Some(pred) => pred(&IterationReport {
                    iteration: iterations,
                    pairs: &pairs,
                    stages: &round.reports,
                }),
                None => true,
            };
            stage_reports.append(&mut round.reports);
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

/// Execute a taking stage over the reduce partitions of the stage before
/// it: no ingest and no map — one absorb wave hands each partition's
/// pairs to `edge`, which emits them into the container (charging them to
/// the budget, as a map task's pairs are), then reduce and merge as any
/// stage does.
fn absorb<J: MapReduce, UK, UO>(
    job: &Arc<J>,
    parts: Vec<Vec<(UK, UO)>>,
    edge: &(impl Fn(UK, UO, &mut dyn Emit<J::Key, J::Value>) + Sync),
    mut ctx: StageCtx<'_>,
    wiring: StageWiring,
) -> Result<StageResult<J::Key, J::Output>>
where
    (UK, UO): Send,
{
    let (container, spill) = stage_container(job, &mut ctx, &wiring)?;
    ctx.config.check_cancelled()?;
    ctx.probe.enter(Phase::Map);
    let pair_bytes = std::mem::size_of::<(UK, UO)>();
    let outcome = ctx.probe.map_wave(0, Instant::now(), parts.len(), || {
        ctx.exec.run(ctx.config.map_width(), parts, |idx, part| {
            let mut local = container.local();
            ctx.probe.map_task(0, idx, part.len() * pair_bytes, || {
                for (key, value) in part {
                    edge(key, value, &mut local);
                }
            });
            ctx.probe.absorb::<J>(&container, local);
        })
    });
    ctx.probe.leave(Phase::Map);
    // One resident round; nothing was read from storage.
    ctx.probe.round_mapped(0, outcome);
    finish_job(job, container, spill, ctx, wiring)
}

/// Run `f` on a scoped thread of its own, re-raising its panic. An
/// iteration runs here, not on the caller's thread, which measured
/// 9–13 % slower on `tera_dag` (DESIGN.md §3i).
fn on_driver_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|threads| {
        std::thread::Builder::new()
            .name("supmr-pipeline".into())
            .spawn_scoped(threads, f)
            .expect("spawning the pipeline driver thread")
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::Sum;
    use crate::container::HashContainer;
    use crate::runtime::MergeMode;
    use crate::SupmrError;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Mutex;
    use supmr_metrics::{EventKind, FlowPhase, MetricValue, Registry, SpanKey, TraceLevel};
    use supmr_storage::MemSource;

    /// Counts non-whitespace bytes.
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

        fn reduce(&self, _k: &u8, n: u64) -> u64 {
            n
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

        fn map(&self, _split: &[u8], _emit: &mut dyn Emit<(), u64>) {}

        fn reduce(&self, _k: &(), n: u64) -> u64 {
            n
        }
    }

    /// The `CharCount` → `Total` edge: every count re-keyed to `()`.
    fn to_total(_byte: u8, n: u64, emit: &mut dyn Emit<(), u64>) {
        emit.emit((), n);
    }

    fn text_input() -> Input {
        Input::stream(MemSource::from(b"ab ba c\nca bc\n".to_vec()))
    }

    fn count_stage(merge: MergeMode) -> Stage<CharCount> {
        Stage::new("count", CharCount).config(JobConfig { merge, ..JobConfig::default() })
    }

    #[test]
    fn then_with_rekeys_every_moved_pair() {
        for merge in [MergeMode::Unsorted, MergeMode::PWay { ways: 2 }] {
            let result = Pipeline::new(count_stage(merge), text_input())
                .then_with(Stage::new("total", Total), to_total)
                .run()
                .unwrap();
            assert_eq!(result.pairs, vec![((), 9)]);
            assert_eq!(result.report.stages.len(), 2);
            let handoff = result.report.stages[0].handoff.expect("hand-off stats");
            assert_eq!(handoff.pairs, 3, "{merge:?}: one pair per distinct character");
            assert_eq!(handoff.bytes, 3 * std::mem::size_of::<(u8, u64)>() as u64);
            assert_eq!(handoff.materialized_pairs, 0, "{merge:?}: nothing is copied");
            assert_eq!(result.report.stages[1].stats.bytes_ingested, 0, "no ingest");
            assert!(result.report.stages[1].handoff.is_none());
        }
    }

    #[test]
    fn a_stage_with_its_own_config_shares_the_flow_ledger() {
        let result = Pipeline::new(count_stage(MergeMode::Unsorted), text_input())
            .then_with(Stage::new("total", Total), to_total)
            .run()
            .unwrap();
        let handoff = result.report.stages[0].handoff.expect("hand-off stats");
        let flows = &result.report.diag.as_ref().expect("diagnosed").inputs.flows;
        assert_eq!(
            flows.get(FlowPhase::Map).bytes,
            text_input().total_bytes() + handoff.bytes,
            "the Map flow counts the count stage's input and the pairs the total stage took"
        );
    }

    #[test]
    fn then_moves_the_partitions_without_a_codec() {
        for merge in [MergeMode::Unsorted, MergeMode::PWay { ways: 2 }] {
            let result = Pipeline::new(count_stage(merge), text_input())
                .then(Stage::new("recount", CharCount))
                .run()
                .unwrap();
            assert_eq!(result.sorted_pairs(), vec![(b'a', 3), (b'b', 3), (b'c', 3)]);
            let handoff = result.report.stages[0].handoff.expect("hand-off stats");
            assert_eq!(handoff.pairs, 3);
            assert_eq!(handoff.bytes, 3 * std::mem::size_of::<(u8, u64)>() as u64);
            assert_eq!(handoff.materialized_pairs, 0, "{merge:?}: nothing is copied");
            assert_eq!(result.report.stages[1].stats.bytes_ingested, 0, "no ingest");
        }
    }

    #[test]
    fn a_chain_runs_its_stages_in_order_on_one_driver_thread() {
        let config = JobConfig { trace: TraceLevel::Wave, ..JobConfig::default() };
        let result = Pipeline::new(Stage::new("count", CharCount), text_input())
            .then(Stage::new("recount", CharCount))
            .then_with(Stage::new("total", Total), to_total)
            .config(config)
            .run()
            .unwrap();
        assert_eq!(result.pairs, vec![((), 9)]);
        let trace = result.report.trace.as_ref().expect("trace requested");
        trace.validate().expect("spans nest cleanly");
        let stage_starts: Vec<u32> = trace
            .ordered_events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::StageStart { stage } => Some(stage),
                _ => None,
            })
            .collect();
        assert_eq!(stage_starts, vec![0, 1, 2], "stages start in chain order");
        let threads: Vec<usize> = trace
            .spans()
            .iter()
            .filter(|s| matches!(s.key, SpanKey::Stage(_)))
            .map(|s| s.thread)
            .collect();
        assert_eq!(threads.len(), 3, "every stage span closes");
        assert!(threads.iter().all(|&t| t == threads[0]), "one driver thread: {threads:?}");
        assert_eq!(trace.threads[threads[0]].name, "supmr-pipeline");
    }

    #[test]
    fn a_panicking_edge_fails_the_pipeline_as_a_task_panic() {
        let err = Pipeline::new(Stage::new("count", CharCount), text_input())
            .then_with(Stage::new("total", Total), |_, _, _| panic!("edge exploded"))
            .run()
            .unwrap_err();
        assert!(matches!(err, SupmrError::TaskPanic { .. }), "{err}");
    }

    #[test]
    fn until_reruns_the_chain() {
        let result =
            Pipeline::new_with(Stage::from_factory("count", |_| CharCount), |_| Ok(text_input()))
                .until(|report| report.iteration >= 3)
                .run()
                .unwrap();
        assert_eq!(result.iterations, 3);
        assert_eq!(result.report.stages.len(), 3);
        assert_eq!(result.report.stages[2].iteration, 2);
        assert_eq!(result.sorted_pairs(), vec![(b'a', 3), (b'b', 3), (b'c', 3)]);
    }

    #[test]
    fn until_reruns_a_two_stage_chain_over_one_edge() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&seen);
        let result =
            Pipeline::new_with(Stage::from_factory("count", |_| CharCount), |_| Ok(text_input()))
                .then_with(Stage::from_factory("total", |_| Total), to_total)
                .until(move |report| {
                    log.borrow_mut().push(report.pairs.to_vec());
                    report.iteration >= 3
                })
                .run()
                .unwrap();
        assert_eq!(result.iterations, 3);
        let stages = &result.report.stages;
        assert_eq!(stages.len(), 6, "two stage reports per iteration");
        let order: Vec<(u64, &str)> =
            stages.iter().map(|s| (s.iteration, s.name.as_str())).collect();
        assert_eq!(
            order,
            [0, 1, 2].iter().flat_map(|&i| [(i, "count"), (i, "total")]).collect::<Vec<_>>()
        );
        assert!(stages.iter().step_by(2).all(|s| s.handoff.is_some_and(|h| h.pairs == 3)));
        assert_eq!(*seen.borrow(), vec![vec![((), 9)]; 3], "the same pairs every iteration");
    }

    #[test]
    fn max_iterations_caps_a_never_satisfied_predicate() {
        let result =
            Pipeline::new_with(Stage::from_factory("count", |_| CharCount), |_| Ok(text_input()))
                .until(|_| false)
                .max_iterations(2)
                .run()
                .unwrap();
        assert_eq!(result.iterations, 2);
    }

    #[test]
    fn new_with_opens_the_input_once_per_iteration() {
        let opened = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&opened);
        let result = Pipeline::new_with(Stage::from_factory("count", |_| CharCount), move |i| {
            log.lock().unwrap().push(i);
            Ok(text_input())
        })
        .until(|report| report.iteration >= 3)
        .run()
        .unwrap();
        assert_eq!(result.iterations, 3);
        assert_eq!(*opened.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn stage_families_count_every_execution_under_the_stage_label() {
        let config = JobConfig { metrics: Some(Registry::new()), ..JobConfig::default() };
        let result =
            Pipeline::new_with(Stage::from_factory("count", |_| CharCount), |_| Ok(text_input()))
                .then_with(Stage::from_factory("total", |_| Total), to_total)
                .config(config)
                .until(|report| report.iteration >= 2)
                .run()
                .unwrap();
        let snapshot = result.report.metrics.as_ref().expect("registry snapshot");
        let series = |name: &str| -> Vec<(&str, &MetricValue)> {
            snapshot
                .entries
                .iter()
                .filter(|e| e.name == name)
                .map(|e| (e.labels[0].1.as_str(), &e.value))
                .collect()
        };
        let moved = 2 * 3 * std::mem::size_of::<(u8, u64)>() as u64;
        use MetricValue::Counter;
        assert_eq!(series("supmr.stage.runs"), [("count", &Counter(2)), ("total", &Counter(2))]);
        assert_eq!(
            series("supmr.stage.pairs_out"),
            [("count", &Counter(6)), ("total", &Counter(2))]
        );
        assert_eq!(
            series("supmr.stage.handoff_bytes"),
            [("count", &Counter(moved)), ("total", &Counter(0))]
        );
    }

    #[test]
    fn an_invalid_stage_config_fails_the_pipeline() {
        let broken = JobConfig { reduce_workers: 0, ..JobConfig::default() };
        let err = Pipeline::new(Stage::new("count", CharCount), text_input())
            .then_with(Stage::new("total", Total).config(broken), to_total)
            .run()
            .unwrap_err();
        assert!(matches!(err, SupmrError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "Pipeline::until must follow the last stage")]
    fn until_must_follow_the_last_stage() {
        let _ = Pipeline::new(Stage::new("count", CharCount), text_input())
            .until(|_| true)
            .then_with(Stage::new("total", Total), to_total);
    }
}
