//! The instrumentation spine: one writer for everything a stage reports.
//!
//! A running stage reports into five sinks — the typed event trace
//! ([`Tracer`]), the live `supmr.*` registry families, the per-phase
//! bandwidth ledger ([`FlowLedger`]), the phase clock behind
//! [`PhaseTimings`], and the [`JobStats`] counters. A [`StageProbe`],
//! built once per stage execution, is the only thing that writes any of
//! them: the runtimes call it once per *site* (a chunk was ingested, a
//! side stalled, a map task ran, a partition reduced, a run spilled …)
//! and the probe decides what that site records and where, from one
//! clock reading. The site table is DESIGN.md §3d.
//!
//! Sites that worker or ingest threads reach take `&self` and return
//! what the driver has to fold; everything that writes the phase clock
//! or [`JobStats`] takes `&mut self`, so both stay driver-written and
//! need no synchronisation.
//!
//! The container is a site like any other: it measures each absorb and
//! returns an [`Absorbed`], and [`StageProbe::absorb`] records the
//! shuffle flow and the `supmr.container.*` absorb families from it.
//!
//! Out of scope, each with its own handles: the pool's dispatch
//! metrics, the accountant's two gauges in [`SpillMetrics`], and
//! storage-level meters — which may claim a ledger phase
//! ([`FlowLedger::mark_external`]); the probe then stands down for it.

use super::{JobConfig, JobStats, LocalOf, RoundRecord, StageReport};
use crate::api::{AccOf, MapReduce};
use crate::container::{Absorbed, Container};
use crate::pool::WaveOutcome;
use crate::spill::SpillMetrics;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use supmr_metrics::{
    Counter, EventKind, FlowLedger, FlowPhase, Gauge, Histogram, Phase, PhaseTimings, Registry,
    StallSide, Tracer,
};

/// One accumulating wall clock: a phase that runs once per ingest round
/// reports the sum of its laps.
#[derive(Default)]
struct Lap {
    total: Duration,
    since: Option<Instant>,
}

impl Lap {
    /// Start (or keep) timing.
    fn start(&mut self) {
        self.since.get_or_insert_with(Instant::now);
    }

    /// Stop timing; the lap just finished (zero if it was not running).
    fn stop(&mut self) -> Duration {
        let lap = self.since.take().map_or(Duration::ZERO, |t0| t0.elapsed());
        self.total += lap;
        lap
    }
}

/// The phase clock: a [`Lap`] per [`Phase`], one for the job, and — for
/// pipelined runs, whose ingest and map overlap — one that runs while
/// either of the two does.
struct PhaseTimer {
    phases: [Lap; Phase::ALL.len()],
    job: Lap,
    fused: Option<Lap>,
}

impl PhaseTimer {
    /// A timer whose job clock starts now.
    fn start_job(fused: bool) -> PhaseTimer {
        let mut timer = PhaseTimer {
            phases: Default::default(),
            job: Lap::default(),
            fused: fused.then(Lap::default),
        };
        timer.job.start();
        timer
    }

    fn begin(&mut self, p: Phase) {
        self.phases[p as usize].start();
        if let Some(fused) = &mut self.fused {
            if matches!(p, Phase::Ingest | Phase::Map) {
                fused.start();
            }
        }
    }

    fn end(&mut self, p: Phase) -> Duration {
        let lap = self.phases[p as usize].stop();
        let running = |q: Phase| self.phases[q as usize].since.is_some();
        if !running(Phase::Ingest) && !running(Phase::Map) {
            // Stopping a stopped lap adds nothing.
            if let Some(fused) = &mut self.fused {
                fused.stop();
            }
        }
        lap
    }

    fn finish(mut self) -> PhaseTimings {
        let mut t = PhaseTimings::zero();
        for p in Phase::ALL {
            self.phases[p as usize].stop();
            t.set_phase(p, self.phases[p as usize].total);
        }
        self.job.stop();
        t.set_total(self.job.total);
        if let Some(mut fused) = self.fused {
            fused.stop();
            t.set_fused_ingest_map(fused.total);
        }
        t
    }
}

/// The `supmr.*` families a stage's sites maintain. Families that differ
/// between a one-chunk stage and a pipelined one carry a
/// `runtime="original"|"pipeline"` label, as Table II compares one
/// workload with and without chunking.
struct JobMetrics {
    map_task_us: Histogram,
    map_in_flight: Gauge,
    wave_tasks: Histogram,
    scan_bytes: Counter,
    ingest_bytes: Counter,
    ingest_chunk_us: Histogram,
    drain_us: Histogram,
    reduce_partition_us: Histogram,
    merge_rounds: Counter,
    merge_keys: Counter,
    merge_round_us: Histogram,
    stall_map_us: Counter,
    stall_ingest_us: Counter,
    jobs_completed: Counter,
    absorb_wait_us: Histogram,
    absorb_batch: Histogram,
    absorb_in_flight: Gauge,
    local_load: Gauge,
    local_probe_len: Gauge,
    tokens: Counter,
    alloc_spills: Counter,
}

impl JobMetrics {
    /// Register (or re-attach to) every family under `registry`.
    fn register(registry: &Registry, runtime: &str) -> JobMetrics {
        let rt = &[("runtime", runtime)][..];
        let (histogram, gauge, counter) = (
            |name, help| registry.histogram(name, help, &[]),
            |name, help| registry.gauge(name, help, &[]),
            |name, help| registry.counter(name, help, &[]),
        );
        JobMetrics {
            map_task_us: registry.histogram(
                "supmr.map.task_us",
                "Map task latency, microseconds.",
                rt,
            ),
            map_in_flight: gauge(
                "supmr.map.in_flight",
                "Map tasks currently executing (wave occupancy).",
            ),
            wave_tasks: registry.histogram(
                "supmr.map.wave_tasks",
                "Tasks dispatched per map wave.",
                rt,
            ),
            scan_bytes: registry.counter(
                "supmr.map.scan_bytes",
                "Split bytes handed to map tasks (SWAR-scanned volume).",
                rt,
            ),
            ingest_bytes: registry.counter(
                "supmr.ingest.bytes",
                "Bytes read from primary storage into ingest chunks.",
                rt,
            ),
            ingest_chunk_us: registry.histogram(
                "supmr.ingest.chunk_us",
                "Per-chunk ingest latency, microseconds.",
                rt,
            ),
            drain_us: histogram(
                "supmr.container.drain_us",
                "Per-partition container drain latency, microseconds.",
            ),
            reduce_partition_us: histogram(
                "supmr.reduce.partition_us",
                "Reduce partition latency, microseconds.",
            ),
            merge_rounds: counter("supmr.merge.rounds", "Merge rounds executed across all jobs."),
            merge_keys: counter(
                "supmr.merge.keys_merged",
                "Elements moved while merging (the re-scanning cost).",
            ),
            merge_round_us: histogram(
                "supmr.merge.round_us",
                "Per-merge-round latency, microseconds.",
            ),
            stall_map_us: counter(
                "supmr.stall.map_us",
                "Time the map side sat idle waiting for chunk ingest, microseconds.",
            ),
            stall_ingest_us: counter(
                "supmr.stall.ingest_us",
                "Time the ingest side sat idle waiting for the mappers, microseconds.",
            ),
            jobs_completed: counter("supmr.jobs_completed", "Jobs that ran to completion."),
            absorb_wait_us: histogram(
                "supmr.container.absorb_wait_us",
                "Shard-lock wait summed over one absorb, microseconds.",
            ),
            absorb_batch: histogram(
                "supmr.container.absorb_batch",
                "Entries one absorb merged per shard-lock acquisition.",
            ),
            absorb_in_flight: gauge(
                "supmr.container.absorb_in_flight",
                "Absorb operations currently merging into the shared table.",
            ),
            // Gauges, not histograms: a histogram is 88 KB, and the
            // daemon keeps every finished job's registry.
            local_load: gauge(
                "supmr.container.local_load",
                "Occupied share of the last absorbed worker table's slots, percent.",
            ),
            local_probe_len: gauge(
                "supmr.container.local_probe_len",
                "Mean displacement of the last absorbed worker table's entries from their home \
                 slots, hundredths of a slot.",
            ),
            tokens: counter(
                "supmr.map.tokens",
                "Borrowed-slice tokens emitted through the zero-copy map path.",
            ),
            alloc_spills: counter(
                "supmr.map.alloc_spills",
                "Zero-copy emissions whose first insert heap-allocated the key.",
            ),
        }
    }
}

/// The instrument one stage execution reports through. See the
/// [module docs](self).
pub(crate) struct StageProbe {
    tracer: Tracer,
    /// Whether per-task spans are recorded ([`TraceLevel::tasks`]).
    ///
    /// [`TraceLevel::tasks`]: supmr_metrics::TraceLevel::tasks
    tasks: bool,
    metrics: Option<JobMetrics>,
    /// The spill families, once a memory budget has set them up.
    spill: Option<Arc<SpillMetrics>>,
    flow: Arc<FlowLedger>,
    clock: PhaseTimer,
    stats: JobStats,
}

impl StageProbe {
    /// The probe for one execution of a stage configured by `config`
    /// (its runtime, registry and flow ledger), tracing into `tracer`.
    /// The job clock starts now.
    pub fn new(config: &JobConfig, tracer: &Tracer) -> StageProbe {
        let pipelined = config.chunking.is_pipelined();
        let runtime = if pipelined { "pipeline" } else { "original" };
        StageProbe {
            tracer: tracer.clone(),
            tasks: tracer.level().tasks(),
            metrics: config.metrics.as_ref().map(|r| JobMetrics::register(r, runtime)),
            spill: None,
            flow: config.flow.clone().unwrap_or_default(),
            clock: PhaseTimer::start_job(pipelined),
            stats: JobStats::default(),
        }
    }

    /// The handle a [`JobSpill`](crate::spill::JobSpill) records its
    /// runs through. `metrics` also feeds this stage's external merges.
    pub fn spill_probe(&mut self, metrics: Option<Arc<SpillMetrics>>) -> SpillProbe {
        self.spill = metrics;
        SpillProbe {
            tracer: self.tracer.clone(),
            tasks: self.tasks,
            metrics: self.spill.clone(),
            flow: Arc::clone(&self.flow),
        }
    }

    // ---- sites any thread may reach ----------------------------------

    /// Chunk `chunk` (`bytes` long) finished ingesting, having started
    /// at `started`. Returns how long the read took.
    pub fn chunk_ingested(&self, chunk: u32, started: Instant, bytes: usize) -> Duration {
        let (took, bytes) = (started.elapsed(), bytes as u64);
        self.tracer.emit_at(started, EventKind::ChunkIngestStart { chunk });
        self.tracer.emit(EventKind::ChunkIngestEnd { chunk, bytes });
        if let Some(m) = &self.metrics {
            m.ingest_bytes.add(bytes);
            m.ingest_chunk_us.record_duration_us(took);
        }
        self.flow.record_owned(FlowPhase::Ingest, bytes, took);
        took
    }

    /// One side of the pipeline sat idle for `wait`: the mappers after
    /// round `index`, or the ingest of chunk `index`. Returns the stall
    /// as recorded (whole microseconds, so every sink sums to the same
    /// total), for the driver to hand to [`StageProbe::stalled`].
    pub fn stall(&self, side: StallSide, index: u32, wait: Duration) -> Duration {
        if wait.is_zero() {
            return Duration::ZERO;
        }
        let wait_us = wait.as_micros() as u64;
        self.tracer.emit(match side {
            StallSide::Map => EventKind::MapWaitingForChunk { round: index, wait_us },
            StallSide::Ingest => EventKind::IngestWaitingForContainer { chunk: index, wait_us },
        });
        if let Some(m) = &self.metrics {
            match side {
                StallSide::Map => m.stall_map_us.add(wait_us),
                StallSide::Ingest => m.stall_ingest_us.add(wait_us),
            }
        }
        Duration::from_micros(wait_us)
    }

    /// The map wave of `round`, opened at `opened` and `tasks` tasks
    /// wide, runs inside `wave`. Nothing else on the calling thread may
    /// have been recorded since `opened`.
    pub fn map_wave<T>(
        &self,
        round: u32,
        opened: Instant,
        tasks: usize,
        wave: impl FnOnce() -> T,
    ) -> T {
        self.tracer.emit_at(opened, EventKind::MapWaveStart { round, tasks: tasks as u64 });
        if let Some(m) = &self.metrics {
            m.wave_tasks.record(tasks as u64);
        }
        let out = wave();
        self.tracer.emit(EventKind::MapWaveEnd { round });
        out
    }

    /// Map task `task` of `round` scans `bytes` inside `map` — the
    /// application's map alone; the absorb of its handle, if any, is
    /// [`StageProbe::absorb`]'s. A panic in `map` unwinds through here
    /// and restores the in-flight gauge.
    pub fn map_task(&self, round: u32, task: usize, bytes: usize, map: impl FnOnce()) {
        let (task, bytes) = (task as u64, bytes as u64);
        if self.tasks {
            self.tracer.emit(EventKind::MapTaskStart { round, task, bytes });
        }
        let in_flight = self.metrics.as_ref().map(|m| m.map_in_flight.track(1));
        let t0 = Instant::now();
        map();
        let took = t0.elapsed();
        drop(in_flight);
        self.flow.record_owned(FlowPhase::Map, bytes, took);
        if let Some(m) = &self.metrics {
            m.scan_bytes.add(bytes);
            m.map_task_us.record_duration_us(took);
        }
        if self.tasks {
            self.tracer.emit(EventKind::MapTaskEnd { round, task });
        }
    }

    /// `local` is absorbed into `container`, on a map worker: the
    /// shuffle flow (each entry at its in-memory `(key, accumulator)`
    /// size, as [`StageProbe::merged`] counts pairs) and one sample of
    /// each absorb family. A panic in the absorb unwinds through here
    /// and restores the in-flight gauge.
    pub fn absorb<J: MapReduce>(&self, container: &J::Container, local: LocalOf<J>) {
        let in_flight = self.metrics.as_ref().map(|m| m.absorb_in_flight.track(1));
        let Absorbed { entries, locks, lock_wait, busy, table } = container.absorb(local);
        drop(in_flight);
        let pair_bytes = std::mem::size_of::<(J::Key, AccOf<J>)>() as u64;
        self.flow.record_owned(FlowPhase::Shuffle, entries * pair_bytes, busy);
        if let Some(m) = &self.metrics {
            m.absorb_wait_us.record_duration_us(lock_wait);
            m.absorb_batch.record(entries / locks.max(1));
            if let Some(t) = table {
                m.tokens.add(t.tokens);
                m.alloc_spills.add(t.alloc_spills);
                m.local_load.set((t.load * 100.0).round() as i64);
                m.local_probe_len.set((t.displacement * 100.0).round() as i64);
            }
        }
    }

    /// The reduce wave starts over `partitions` tasks.
    pub fn reduce_wave_start(&self, partitions: usize) {
        self.tracer.emit(EventKind::ReduceWaveStart { partitions: partitions as u64 });
    }

    /// One container payload drains inside `drain`, on a reduce worker.
    /// `span` names the partition when the drain is a span of its own
    /// (the in-memory reduce); inside an external merge it is not.
    pub fn drain<T>(&self, span: Option<usize>, drain: impl FnOnce() -> T) -> T {
        let span = span.filter(|_| self.tasks).map(|p| p as u64);
        if let Some(partition) = span {
            self.tracer.emit(EventKind::DrainPartitionStart { partition });
        }
        let t0 = Instant::now();
        let out = drain();
        if let Some(m) = &self.metrics {
            m.drain_us.record_duration_us(t0.elapsed());
        }
        if let Some(partition) = span {
            self.tracer.emit(EventKind::DrainPartitionEnd { partition });
        }
        out
    }

    /// Reduce task `partition` runs inside `reduce` — over drained
    /// pairs, or, with `external = (runs, run bytes)`, over a streaming
    /// merge of that many spilled runs read back.
    pub fn reduce_partition<T>(
        &self,
        partition: usize,
        external: Option<(usize, u64)>,
        reduce: impl FnOnce() -> T,
    ) -> T {
        let partition = partition as u64;
        if self.tasks {
            self.tracer.emit(match external {
                Some((runs, _)) => EventKind::ExternalMergeStart { partition, runs: runs as u64 },
                None => EventKind::ReducePartitionStart { partition },
            });
        }
        let t0 = Instant::now();
        let out = reduce();
        let took = t0.elapsed();
        if let Some(m) = &self.metrics {
            m.reduce_partition_us.record_duration_us(took);
        }
        if let Some((_, run_bytes)) = external {
            if let Some(m) = &self.spill {
                m.merge_us.record_duration_us(took);
            }
            self.flow.record_owned(FlowPhase::Merge, run_bytes, took);
        }
        if self.tasks {
            self.tracer.emit(match external {
                Some(_) => EventKind::ExternalMergeEnd { partition },
                None => EventKind::ReducePartitionEnd { partition },
            });
        }
        out
    }

    /// Merge round `round` starts, `width` merges wide.
    pub fn merge_round_start(&self, round: u32, width: usize) -> Instant {
        self.tracer.emit(EventKind::MergeRoundStart { round, width: width as u32 });
        Instant::now()
    }

    // ---- the driver's sites ------------------------------------------

    /// Enter phase `p`.
    pub fn enter(&mut self, p: Phase) {
        self.clock.begin(p);
    }

    /// Leave phase `p`; returns how long this visit took.
    pub fn leave(&mut self, p: Phase) -> Duration {
        self.clock.end(p)
    }

    /// A wave ran: its threads, spawned or reused.
    pub fn wave(&mut self, wave: WaveOutcome) {
        self.stats.threads_spawned += wave.threads_spawned;
        self.stats.threads_reused += wave.threads_reused;
    }

    /// The pipeline's ingest thread was created (one per stage).
    pub fn ingest_thread_spawned(&mut self) {
        self.stats.threads_spawned += 1;
    }

    /// A chunk of `chunk_bytes` was ingested and mapped by `wave`.
    pub fn round_mapped(&mut self, chunk_bytes: usize, wave: WaveOutcome) {
        self.stats.ingest_chunks += 1;
        self.stats.bytes_ingested += chunk_bytes as u64;
        self.stats.map_rounds += 1;
        self.stats.map_tasks += wave.tasks;
        self.wave(wave);
    }

    /// A pipeline round's measured timeline.
    pub fn round_timed(&mut self, round: RoundRecord) {
        self.stats.rounds.push(round);
    }

    /// Stall time as [`StageProbe::stall`] returned it, by side.
    pub fn stalled(&mut self, map: Duration, ingest: Duration) {
        self.stats.map_waiting += map;
        self.stats.ingest_waiting += ingest;
    }

    /// The map side is done: what the container holds, and what it
    /// spilled on the way.
    pub fn shuffled(&mut self, pairs: u64, distinct_keys: u64, spilled: Option<(u64, u64)>) {
        self.stats.intermediate_pairs = pairs;
        self.stats.distinct_keys = distinct_keys;
        (self.stats.spill_runs, self.stats.spill_bytes) = spilled.unwrap_or_default();
    }

    /// The reduce wave ended.
    pub fn reduce_wave_end(&mut self, wave: WaveOutcome) {
        self.tracer.emit(EventKind::ReduceWaveEnd);
        self.stats.reduce_tasks = wave.tasks;
        self.wave(wave);
    }

    /// The merge round begun at `started` ended, having moved `keys`
    /// elements on `wave`'s threads.
    pub fn merge_round_end(&mut self, round: u32, started: Instant, wave: WaveOutcome, keys: u64) {
        self.tracer.emit(EventKind::MergeRoundEnd { round });
        self.wave(wave);
        if let Some(m) = &self.metrics {
            m.merge_round_us.record_duration_us(started.elapsed());
            m.merge_keys.add(keys);
        }
    }

    /// The merge phase begun at `started` took `rounds` rounds and moved
    /// `elements_moved` pairs of `pair_bytes` each.
    pub fn merged(
        &mut self,
        rounds: u32,
        elements_moved: u64,
        pair_bytes: usize,
        started: Instant,
    ) {
        self.stats.merge_rounds = rounds;
        self.stats.merge_elements_moved = elements_moved;
        if let Some(m) = &self.metrics {
            m.merge_rounds.add(u64::from(rounds));
        }
        self.flow.record_owned(
            FlowPhase::Merge,
            elements_moved * pair_bytes as u64,
            started.elapsed(),
        );
    }

    /// The stage completed with `output_pairs`: stop the clocks and hand
    /// back what was measured.
    pub fn finish(mut self, output_pairs: u64) -> (PhaseTimings, JobStats) {
        self.stats.output_pairs = output_pairs;
        if let Some(m) = &self.metrics {
            m.jobs_completed.inc();
        }
        (self.clock.finish(), self.stats)
    }
}

/// The spill-run site, detached from its stage's [`StageProbe`] so the
/// container's spill sink (which outlives any borrow) can own it.
#[derive(Clone)]
pub(crate) struct SpillProbe {
    tracer: Tracer,
    tasks: bool,
    metrics: Option<Arc<SpillMetrics>>,
    flow: Arc<FlowLedger>,
}

impl SpillProbe {
    /// Run `run` of `partition` is sorted, framed and written inside
    /// `write`, which returns its `(records, framed bytes)`. A failed
    /// write closes the span empty and counts nothing.
    pub fn spill_run(
        &self,
        run: u64,
        partition: usize,
        write: impl FnOnce() -> io::Result<(u64, u64)>,
    ) -> io::Result<(u64, u64)> {
        if self.tasks {
            self.tracer.emit(EventKind::SpillRunStart { run, partition: partition as u64 });
        }
        let t0 = Instant::now();
        let result = write();
        let (records, bytes) = *result.as_ref().unwrap_or(&(0, 0));
        if result.is_ok() {
            let took = t0.elapsed();
            if let Some(m) = &self.metrics {
                m.runs.inc();
                m.bytes.add(bytes);
                m.drain_us.record_duration_us(took);
            }
            self.flow.record_owned(FlowPhase::Spill, bytes, took);
        }
        if self.tasks {
            self.tracer.emit(EventKind::SpillRunEnd { run, records, bytes });
        }
        result
    }
}

/// Pipeline stage `stage` starts on the pipeline's driver thread; the
/// span wraps the whole stage, so its phase spans nest inside.
pub(crate) fn stage_started(tracer: &Tracer, stage: u32) {
    tracer.emit(EventKind::StageStart { stage });
}

/// Pipeline stage `stage` ended, having produced `pairs`.
pub(crate) fn stage_ended(tracer: &Tracer, stage: u32, pairs: u64) {
    tracer.emit(EventKind::StageEnd { stage, pairs });
}

/// A pipeline's report-level totals over its stage executions: phase
/// times and counters sum (stages run one after another, so the phase
/// sums stay within `wall`), `output_pairs` is the last stage's, and
/// per-round timelines stay in the per-stage reports.
pub(crate) fn pipeline_totals(
    stages: &[StageReport],
    wall: Duration,
    output_pairs: u64,
) -> (PhaseTimings, JobStats) {
    let mut timings = PhaseTimings::zero();
    for p in [Phase::Ingest, Phase::Map, Phase::Reduce, Phase::Merge] {
        timings.set_phase(p, stages.iter().map(|s| s.timings.phase(p)).sum());
    }
    timings.set_total(wall);
    let mut total = JobStats { output_pairs, ..JobStats::default() };
    for s in stages.iter().map(|stage| &stage.stats) {
        total.bytes_ingested += s.bytes_ingested;
        total.ingest_chunks += s.ingest_chunks;
        total.map_rounds += s.map_rounds;
        total.map_tasks += s.map_tasks;
        total.reduce_tasks += s.reduce_tasks;
        total.threads_spawned += s.threads_spawned;
        total.threads_reused += s.threads_reused;
        total.intermediate_pairs += s.intermediate_pairs;
        total.distinct_keys += s.distinct_keys;
        total.merge_rounds += s.merge_rounds;
        total.merge_elements_moved += s.merge_elements_moved;
        total.map_waiting += s.map_waiting;
        total.ingest_waiting += s.ingest_waiting;
        total.spill_runs += s.spill_runs;
        total.spill_bytes += s.spill_bytes;
    }
    (timings, total)
}

/// The `supmr.stage.*` families of one pipeline stage, labelled with its
/// name — how a scrape tells a pipeline's stages apart.
pub(crate) struct StageMetrics {
    total_us: Histogram,
    pairs_out: Counter,
    handoff_bytes: Counter,
    runs: Counter,
}

impl StageMetrics {
    /// Register (or re-attach to) the stage families under `registry`.
    pub fn register(registry: &Registry, stage: &str) -> StageMetrics {
        let st = &[("stage", stage)][..];
        StageMetrics {
            total_us: registry.histogram(
                "supmr.stage.total_us",
                "Pipeline stage wall-clock per execution, microseconds.",
                st,
            ),
            pairs_out: registry.counter(
                "supmr.stage.pairs_out",
                "Pairs a pipeline stage produced (terminal or hand-off).",
                st,
            ),
            handoff_bytes: registry.counter(
                "supmr.stage.handoff_bytes",
                "Bytes, in place, of the pairs a pipeline stage moved to its successor.",
                st,
            ),
            runs: registry.counter(
                "supmr.stage.runs",
                "Pipeline stage executions (one per iteration).",
                st,
            ),
        }
    }

    /// One execution of the stage completed.
    pub fn executed(&self, total: Duration, pairs_out: u64, handoff_bytes: Option<u64>) {
        self.runs.add(1);
        self.total_us.record_duration_us(total);
        self.pairs_out.add(pairs_out);
        if let Some(bytes) = handoff_bytes {
            self.handoff_bytes.add(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn timer_accumulates_per_phase_waves() {
        let mut timer = PhaseTimer::start_job(false);
        for _ in 0..3 {
            timer.begin(Phase::Map);
            sleep(Duration::from_millis(3));
            assert!(timer.end(Phase::Map) >= Duration::from_millis(3));
        }
        timer.begin(Phase::Merge);
        sleep(Duration::from_millis(4));
        timer.end(Phase::Merge);
        let t = timer.finish();
        assert!(t.phase(Phase::Map) >= Duration::from_millis(9));
        assert!(t.phase(Phase::Merge) >= Duration::from_millis(4));
        assert!(t.total() >= t.phase(Phase::Map) + t.phase(Phase::Merge));
        assert!(!t.is_fused());
    }

    #[test]
    fn fused_timer_reports_span_not_sum() {
        let mut timer = PhaseTimer::start_job(true);
        // Overlapping ingest and map: ingest spans the whole interval, map
        // nests inside it. The fused span must equal the outer interval,
        // not ingest+map.
        timer.begin(Phase::Ingest);
        timer.begin(Phase::Map);
        sleep(Duration::from_millis(10));
        timer.end(Phase::Map);
        timer.end(Phase::Ingest);
        let t = timer.finish();
        let fused = t.fused_ingest_map().expect("fused duration");
        assert!(fused >= Duration::from_millis(10));
        let naive_sum = Duration::from_millis(20);
        assert!(fused < naive_sum, "fused {fused:?} should be < {naive_sum:?}");
        assert_eq!(t.phase(Phase::Ingest), fused);
        assert_eq!(t.phase(Phase::Map), fused);
    }

    #[test]
    fn a_stall_reaches_every_sink_as_the_same_whole_microseconds() {
        let registry = Registry::new();
        let events = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&events);
        let tracer = Tracer::new(
            supmr_metrics::TraceLevel::Wave,
            Some(Arc::new(move |e: &supmr_metrics::TraceEvent| {
                seen.lock().unwrap().push(e.kind.clone())
            })),
        );
        let config = JobConfig { metrics: Some(registry.clone()), ..JobConfig::default() };
        let mut probe = StageProbe::new(&config, &tracer);
        let recorded = probe.stall(StallSide::Map, 2, Duration::from_nanos(1_234_567));
        assert_eq!(recorded, Duration::from_micros(1234));
        assert_eq!(probe.stall(StallSide::Ingest, 3, Duration::ZERO), Duration::ZERO);
        probe.stalled(recorded, Duration::ZERO);
        let (_, stats) = probe.finish(0);
        assert_eq!(stats.map_waiting, Duration::from_micros(1234));
        assert_eq!(stats.ingest_waiting, Duration::ZERO);
        assert_eq!(
            *events.lock().unwrap(),
            vec![EventKind::MapWaitingForChunk { round: 2, wait_us: 1234 }],
            "a zero wait is not an event"
        );
        assert_eq!(registry.counter("supmr.stall.map_us", "", &[]).value(), 1234);
        assert_eq!(registry.counter("supmr.stall.ingest_us", "", &[]).value(), 0);
    }

    /// Sum-like combiner whose cross-task `merge` panics, to prove an
    /// absorb unwinds cleanly through the probe.
    struct BoomOnMerge;

    impl crate::combiner::Combiner<u64> for BoomOnMerge {
        type Acc = u64;
        fn unit(v: u64) -> u64 {
            v
        }
        fn fold(acc: &mut u64, v: u64) {
            *acc += v;
        }
        fn merge(_into: &mut u64, _from: u64) {
            panic!("merge exploded");
        }
    }

    struct Boom;

    impl MapReduce for Boom {
        type Key = String;
        type Value = u64;
        type Combiner = BoomOnMerge;
        type Output = u64;
        type Container = crate::container::HashContainer<String, u64, BoomOnMerge>;

        fn make_container(&self) -> Self::Container {
            Self::Container::default()
        }

        fn map(&self, _split: &[u8], emit: &mut dyn crate::api::Emit<String, u64>) {
            emit.emit("k".to_string(), 1);
        }

        fn reduce(&self, _key: &String, acc: u64) -> u64 {
            acc
        }
    }

    #[test]
    fn absorb_records_the_shuffle_flow_and_unwinds_the_in_flight_gauge() {
        let registry = Registry::new();
        let config = JobConfig { metrics: Some(registry.clone()), ..JobConfig::default() };
        let probe = StageProbe::new(&config, &Tracer::new(supmr_metrics::TraceLevel::Off, None));
        let container = Boom.make_container();
        let local = || {
            let mut local = container.local();
            Boom.map(b"", &mut local);
            local
        };
        probe.absorb::<Boom>(&container, local());
        let pair_bytes = std::mem::size_of::<(String, u64)>() as u64;
        assert_eq!(probe.flow.bytes(FlowPhase::Shuffle), pair_bytes, "one entry absorbed");
        assert!(!probe.flow.busy(FlowPhase::Shuffle).is_zero());
        let in_flight = registry.gauge("supmr.container.absorb_in_flight", "", &[]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            probe.absorb::<Boom>(&container, local())
        }));
        assert!(panicked.is_err(), "the duplicate key must hit the panicking merge");
        assert_eq!(in_flight.value(), 0, "the in-flight gauge unwinds with the absorb");
        let batches = registry.histogram("supmr.container.absorb_batch", "", &[]).snapshot();
        assert_eq!((batches.count, batches.sum), (1, 1), "one sample per completed absorb");
    }
}
