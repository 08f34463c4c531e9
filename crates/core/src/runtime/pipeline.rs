//! The SupMR runtime: the ingest chunk pipeline.
//!
//! Implements the paper's pseudo-code (§III-B) directly:
//!
//! ```text
//! partition input into ingest chunks
//! ingest 1st chunk
//! for each ingest chunk do
//!     create thread to ingest next chunk
//!     run mappers on previous chunk
//!     destroy thread
//! end
//! run mappers on last chunk
//! ```
//!
//! A job over n chunks executes n+1 rounds: round 0 ingests chunk 0
//! serially (nothing else to overlap with); each subsequent round runs a
//! full map wave on chunk *i* while a dedicated ingest thread reads chunk
//! *i+1* (double-buffering). The intermediate container is created once
//! and **persists across every map round** (§III-C) — each wave's local
//! emitters absorb into the same shared container.
//!
//! The pipeline is also where the job's **stall accounting** is
//! measured: each round ends with either the mappers waiting for the
//! next chunk's ingest ([`EventKind::MapWaitingForChunk`], the pipeline
//! is ingest-bound) or the finished ingest waiting for the mappers to
//! release it ([`EventKind::IngestWaitingForContainer`], map-bound).
//! Exactly one side idles per round; both totals accumulate into
//! [`JobStats`] regardless of the trace level, so the Fig. 2 overlap is
//! always quantified, not inferred.
//!
//! Two extensions beyond the paper's prototype live here as well:
//!
//! * **Round feedback** — each round's measured ingest/map durations are
//!   handed back to the chunker, which is how
//!   [`Chunking::Adaptive`] retunes its chunk size online (the paper's
//!   future-work feedback loop).
//! * **Deeper prefetch** — `JobConfig::prefetch_depth > 1` replaces the
//!   per-round create/destroy ingest thread with one long-lived ingest
//!   thread pushing into a bounded buffer of that depth (N-buffering
//!   instead of double-buffering), an ablatable design variant. There
//!   the stalls are measured at the buffer boundary: map-side time
//!   blocked in `recv` and ingest-side time blocked in `send`.

use super::governor::{self, ActiveConfig, AdaptiveGauges};
use super::{
    finish_job, map_wave, Input, JobConfig, JobMetrics, JobStats, StageResult, StageWiring,
};
use crate::api::MapReduce;
use crate::chunk::{
    AdaptiveChunker, AdaptiveTuning, Chunker, Chunking, HybridChunker, IngestChunk,
    InterFileChunker, IntraFileChunker, RoundFeedback,
};
use crate::container::Container;
use crate::error::{Result, SupmrError};
use crate::pool::Executor;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use supmr_metrics::{EventKind, FlowPhase, Phase, PhaseTimer, Tracer};

/// Build the chunker matching the configured strategy, rejecting
/// mismatched input shapes: inter-file and adaptive chunking need a
/// stream, intra-file and hybrid chunking need a file set.
fn make_chunker(input: Input, config: &JobConfig) -> Result<Box<dyn Chunker>> {
    let mismatch = |msg: &str| Err(SupmrError::invalid_config(msg));
    match (config.chunking, input) {
        (Chunking::Inter { chunk_bytes }, Input::Stream(s)) => {
            Ok(Box::new(InterFileChunker::new(s, chunk_bytes, config.record_format)))
        }
        (Chunking::Adaptive(adaptive), Input::Stream(s)) => {
            Ok(Box::new(AdaptiveChunker::new(s, config.record_format, adaptive)))
        }
        (Chunking::Intra { files_per_chunk }, Input::Files(f)) => {
            Ok(Box::new(IntraFileChunker::new(f, files_per_chunk)))
        }
        (Chunking::Hybrid { chunk_bytes }, Input::Files(f)) => {
            Ok(Box::new(HybridChunker::new(f, chunk_bytes, config.record_format)))
        }
        (Chunking::Inter { .. } | Chunking::Adaptive(_), Input::Files(_)) => {
            mismatch("inter-file/adaptive chunking requires a stream input; got a file set")
        }
        (Chunking::Intra { .. } | Chunking::Hybrid { .. }, Input::Stream(_)) => {
            mismatch("intra-file/hybrid chunking requires a file-set input; got a stream")
        }
        (_, Input::Resident(_)) => {
            mismatch("chunked ingest requires an external input; resident hand-off bytes pair with Chunking::None")
        }
        (Chunking::None, _) => mismatch("pipeline runtime requires a chunking strategy"),
    }
}

/// Execute `job` on the ingest chunk pipeline (`run_ingestMR()` in the
/// paper's API).
pub(crate) fn run<J: MapReduce>(
    job: &Arc<J>,
    input: Input,
    config: &JobConfig,
    exec: Executor<'_>,
    tracer: &Tracer,
    wiring: StageWiring<J>,
) -> Result<StageResult<J::Key, J::Output>> {
    let chunker = make_chunker(input, config)?;
    if config.prefetch_depth > 1 {
        run_buffered(job, chunker, config, exec, tracer, wiring)
    } else {
        run_double_buffered(job, chunker, config, exec, tracer, wiring)
    }
}

/// Surface a self-tuning chunker's state after a feedback round: mirror
/// the fitted model into the `supmr.adaptive.*` gauges every round, and
/// when the chosen size actually moved, record it as a `chunk-feedback`
/// governor action (trace event, plus the report log when the job runs
/// under a governor).
fn surface_tuning(
    tuning: Option<AdaptiveTuning>,
    last_chunk_bytes: &mut u64,
    gauges: Option<&AdaptiveGauges>,
    active: Option<&Arc<ActiveConfig>>,
    tracer: &Tracer,
) {
    let Some(tuning) = tuning else { return };
    if let Some(g) = gauges {
        g.mirror(&tuning);
    }
    if tuning.chunk_bytes != *last_chunk_bytes {
        *last_chunk_bytes = tuning.chunk_bytes;
        tracer.emit(EventKind::GovernorAction {
            verdict: "chunk-feedback",
            knob: "chunk_bytes",
            value: tuning.chunk_bytes,
        });
        if let Some(a) = active {
            a.record("chunk-feedback", "chunk_bytes", tuning.chunk_bytes);
        }
    }
}

/// The `supmr.adaptive.*` gauge handles, registered only for adaptive
/// chunking runs with a live registry.
fn adaptive_gauges(config: &JobConfig) -> Option<AdaptiveGauges> {
    matches!(config.chunking, Chunking::Adaptive(_))
        .then(|| config.metrics.as_ref().map(AdaptiveGauges::register))
        .flatten()
}

/// What one overlapped ingest reports back to the round loop.
struct IngestProbe {
    next: io::Result<Option<IngestChunk>>,
    /// Time the read itself took.
    took: Duration,
    /// When the read finished (the ingest side idles from here until
    /// the map wave releases the container).
    done: Instant,
}

/// The paper's pipeline: one ingest thread per round (double buffering).
fn run_double_buffered<J: MapReduce>(
    job: &Arc<J>,
    mut chunker: Box<dyn Chunker>,
    config: &JobConfig,
    exec: Executor<'_>,
    tracer: &Tracer,
    wiring: StageWiring<J>,
) -> Result<StageResult<J::Key, J::Output>> {
    let mut timer = PhaseTimer::start_job();
    timer.mark_fused();
    let mut stats = JobStats::default();
    let metrics = config.metrics.as_ref().map(|r| JobMetrics::register(r, "pipeline"));
    // Created once, persists across all map rounds.
    let container = job.make_container();
    container.configure(&super::container_hooks(config));
    let spill = super::setup_spill(job, &container, config, tracer, &wiring)?;
    let gauges = adaptive_gauges(config);
    let mut last_tuned_bytes = 0u64;

    // Round 0: ingest the first chunk serially.
    timer.begin(Phase::Ingest);
    let ingest0 = Instant::now();
    let mut current = chunker.next_chunk().map_err(|e| SupmrError::ingest(0, e))?;
    if let Some(chunk) = &current {
        tracer.emit_at(ingest0, EventKind::ChunkIngestStart { chunk: 0 });
        tracer.emit(EventKind::ChunkIngestEnd { chunk: 0, bytes: chunk.len() as u64 });
        if let Some(m) = &metrics {
            m.record_ingest(chunk.len() as u64, ingest0.elapsed());
        }
        if let Some(f) = &config.flow {
            f.record_owned(FlowPhase::Ingest, chunk.len() as u64, ingest0.elapsed());
        }
    }
    timer.end(Phase::Ingest);

    let mut round: u32 = 0;
    while let Some(chunk) = current.take() {
        config.check_cancelled()?;
        stats.ingest_chunks += 1;
        stats.bytes_ingested += chunk.len() as u64;
        stats.map_rounds += 1;
        let next_index = round + 1;

        timer.begin(Phase::Ingest);
        timer.begin(Phase::Map);
        // "create thread to ingest next chunk / run mappers on previous
        // chunk / destroy thread" — the scope is the create/destroy.
        let ingest_tracer = tracer.clone();
        let ingest_metrics = metrics.clone();
        let ingest_flow = config.flow.clone();
        let chunker_ref = &mut chunker;
        let (probe, map_time, map_done) = std::thread::scope(|scope| {
            let ingest = std::thread::Builder::new()
                .name("supmr-ingest".to_string())
                .spawn_scoped(scope, move || {
                    let t0 = Instant::now();
                    let next = chunker_ref.next_chunk();
                    let took = t0.elapsed();
                    if let Ok(Some(c)) = &next {
                        ingest_tracer
                            .emit_at(t0, EventKind::ChunkIngestStart { chunk: next_index });
                        ingest_tracer.emit(EventKind::ChunkIngestEnd {
                            chunk: next_index,
                            bytes: c.len() as u64,
                        });
                        if let Some(m) = &ingest_metrics {
                            m.record_ingest(c.len() as u64, took);
                        }
                        if let Some(f) = &ingest_flow {
                            f.record_owned(FlowPhase::Ingest, c.len() as u64, took);
                        }
                    }
                    IngestProbe { next, took, done: Instant::now() }
                })
                .expect("spawning the round's ingest thread");
            let t0 = Instant::now();
            let outcome =
                map_wave(job, &container, &chunk, config, exec, tracer, metrics.as_ref(), round);
            let map_time = t0.elapsed();
            let map_done = Instant::now();
            stats.map_tasks += outcome.tasks;
            stats.add_wave(outcome);
            (ingest.join().expect("ingest thread panicked"), map_time, map_done)
        });
        stats.threads_spawned += 1; // the ingest thread
        timer.end(Phase::Map);
        timer.end(Phase::Ingest);

        let next = probe.next.map_err(|e| SupmrError::ingest(next_index, e))?;
        // Exactly one side of the pipeline idled this round: mappers
        // from their wave end until the ingest came back, or the ingest
        // from its read end until the wave released the container.
        if next.is_some() {
            let map_wait = probe.done.saturating_duration_since(map_done);
            let ingest_wait = map_done.saturating_duration_since(probe.done);
            stats.map_waiting += map_wait;
            stats.ingest_waiting += ingest_wait;
            if let Some(m) = &metrics {
                m.record_stalls(map_wait, ingest_wait);
            }
            if !map_wait.is_zero() {
                tracer.emit(EventKind::MapWaitingForChunk {
                    round,
                    wait_us: map_wait.as_micros() as u64,
                });
            }
            if !ingest_wait.is_zero() {
                tracer.emit(EventKind::IngestWaitingForContainer {
                    chunk: next_index,
                    wait_us: ingest_wait.as_micros() as u64,
                });
            }
        }

        let feedback =
            RoundFeedback { chunk_bytes: chunk.len() as u64, ingest: probe.took, map: map_time };
        chunker.feedback(feedback);
        surface_tuning(
            chunker.tuning(),
            &mut last_tuned_bytes,
            gauges.as_ref(),
            config.active.as_ref(),
            tracer,
        );
        stats.rounds.push(super::RoundRecord {
            chunk_bytes: feedback.chunk_bytes,
            ingest: feedback.ingest,
            map: feedback.map,
        });
        current = next;
        round += 1;
    }

    finish_job(job, container, config, exec, tracer, metrics.as_ref(), spill, timer, stats, wiring)
}

/// Admission gate for the N-buffered producer when a governor may
/// deepen the prefetch depth mid-job: the channel is sized to the cap
/// and this gate enforces the *current* dynamic depth. Waits poll on a
/// short timeout so a governor widening the depth takes effect without
/// a wakeup; the consumer closes the gate on exit (unwinds included, via
/// [`GateGuard`]) so the producer can never wait on a dead pipeline.
struct PrefetchGate {
    state: std::sync::Mutex<GateState>,
    cvar: std::sync::Condvar,
}

#[derive(Default)]
struct GateState {
    in_flight: usize,
    closed: bool,
}

impl PrefetchGate {
    fn new() -> PrefetchGate {
        PrefetchGate {
            state: std::sync::Mutex::new(GateState::default()),
            cvar: std::sync::Condvar::new(),
        }
    }

    /// Block until a buffer slot is admissible under the current
    /// dynamic depth, then claim it. Returns immediately once closed.
    fn admit(&self, active: &ActiveConfig) {
        let mut st = self.state.lock().expect("prefetch gate poisoned");
        while !st.closed && st.in_flight >= active.prefetch_depth() {
            let (guard, _timeout) = self
                .cvar
                .wait_timeout(st, Duration::from_millis(5))
                .expect("prefetch gate poisoned");
            st = guard;
        }
        st.in_flight += 1;
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("prefetch gate poisoned");
        st.in_flight = st.in_flight.saturating_sub(1);
        self.cvar.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("prefetch gate poisoned").closed = true;
        self.cvar.notify_all();
    }
}

/// Closes the consumer's side of a [`PrefetchGate`] when dropped.
struct GateGuard<'a>(&'a PrefetchGate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// N-buffered variant: a single long-lived ingest thread streams chunks
/// through a bounded channel of `prefetch_depth` chunks while the main
/// thread runs map waves. Round feedback is not delivered here — the
/// chunker lives on the ingest thread — so adaptive chunking pairs with
/// `prefetch_depth == 1` (enforced by config validation). Under a
/// governor the channel is widened to [`governor::PREFETCH_CAP`] and a
/// [`PrefetchGate`] enforces the dynamic depth instead.
fn run_buffered<J: MapReduce>(
    job: &Arc<J>,
    mut chunker: Box<dyn Chunker>,
    config: &JobConfig,
    exec: Executor<'_>,
    tracer: &Tracer,
    wiring: StageWiring<J>,
) -> Result<StageResult<J::Key, J::Output>> {
    let mut timer = PhaseTimer::start_job();
    timer.mark_fused();
    let mut stats = JobStats::default();
    let metrics = config.metrics.as_ref().map(|r| JobMetrics::register(r, "pipeline"));
    let container = job.make_container();
    container.configure(&super::container_hooks(config));
    let spill = super::setup_spill(job, &container, config, tracer, &wiring)?;

    timer.begin(Phase::Ingest);
    timer.begin(Phase::Map);
    let mut map_waiting = Duration::ZERO;
    let gate = config.active.as_ref().map(|a| (Arc::new(PrefetchGate::new()), Arc::clone(a)));
    let capacity = match &gate {
        Some(_) => config.prefetch_depth.max(governor::PREFETCH_CAP),
        None => config.prefetch_depth,
    };
    let ingest_result: Result<Duration> = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<IngestChunk>(capacity);
        let producer_gate = gate.clone();
        let producer_tracer = tracer.clone();
        let producer_metrics = metrics.clone();
        let producer_flow = config.flow.clone();
        let producer = std::thread::Builder::new()
            .name("supmr-ingest".to_string())
            .spawn_scoped(scope, move || -> (Result<()>, Duration) {
                let mut index: u32 = 0;
                let mut waited = Duration::ZERO;
                loop {
                    let t0 = Instant::now();
                    match chunker.next_chunk() {
                        Ok(Some(chunk)) => {
                            producer_tracer
                                .emit_at(t0, EventKind::ChunkIngestStart { chunk: index });
                            producer_tracer.emit(EventKind::ChunkIngestEnd {
                                chunk: index,
                                bytes: chunk.len() as u64,
                            });
                            if let Some(m) = &producer_metrics {
                                m.record_ingest(chunk.len() as u64, t0.elapsed());
                            }
                            if let Some(f) = &producer_flow {
                                f.record_owned(FlowPhase::Ingest, chunk.len() as u64, t0.elapsed());
                            }
                            let s0 = Instant::now();
                            if let Some((gate, active)) = &producer_gate {
                                gate.admit(active);
                            }
                            if tx.send(chunk).is_err() {
                                break (Ok(()), waited); // consumer went away
                            }
                            // Time blocked handing over = buffer full =
                            // the ingest side waiting on the mappers.
                            let wait = s0.elapsed();
                            waited += wait;
                            if !wait.is_zero() {
                                producer_tracer.emit(EventKind::IngestWaitingForContainer {
                                    chunk: index,
                                    wait_us: wait.as_micros() as u64,
                                });
                                if let Some(m) = &producer_metrics {
                                    m.record_stalls(Duration::ZERO, wait);
                                }
                            }
                            index += 1;
                        }
                        Ok(None) => break (Ok(()), waited),
                        Err(e) => break (Err(SupmrError::ingest(index, e)), waited),
                    }
                }
            })
            .expect("spawning the pipeline ingest thread");
        let gate_guard = gate.as_ref().map(|(g, _)| GateGuard(g));
        let mut round: u32 = 0;
        let mut cancelled = false;
        loop {
            if config.check_cancelled().is_err() {
                cancelled = true;
                break;
            }
            let r0 = Instant::now();
            let Ok(chunk) = rx.recv() else { break };
            if let Some((g, _)) = &gate {
                g.release();
            }
            // Time blocked in recv = the mappers waiting on ingest. The
            // first recv is the pipeline filling (the serial first
            // ingest), not a stall.
            let wait = r0.elapsed();
            if round > 0 && !wait.is_zero() {
                map_waiting += wait;
                tracer.emit(EventKind::MapWaitingForChunk {
                    round: round - 1,
                    wait_us: wait.as_micros() as u64,
                });
                if let Some(m) = &metrics {
                    m.record_stalls(wait, Duration::ZERO);
                }
            }
            stats.ingest_chunks += 1;
            stats.bytes_ingested += chunk.len() as u64;
            stats.map_rounds += 1;
            let outcome =
                map_wave(job, &container, &chunk, config, exec, tracer, metrics.as_ref(), round);
            stats.map_tasks += outcome.tasks;
            stats.add_wave(outcome);
            round += 1;
        }
        // On cancellation the producer may be blocked in `send` (full
        // channel) or in the prefetch gate; dropping the receiver and
        // the gate guard unblocks it so the join below cannot hang.
        drop(rx);
        drop(gate_guard);
        let (result, ingest_waited) = producer.join().expect("ingest thread panicked");
        if cancelled {
            return Err(SupmrError::Cancelled);
        }
        result.map(|()| ingest_waited)
    });
    stats.ingest_waiting += ingest_result?;
    stats.map_waiting += map_waiting;
    stats.threads_spawned += 1; // the long-lived ingest thread
    timer.end(Phase::Map);
    timer.end(Phase::Ingest);

    finish_job(job, container, config, exec, tracer, metrics.as_ref(), spill, timer, stats, wiring)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use crate::chunk::{AdaptiveConfig, Chunking};
    use supmr_storage::{MemFileSet, MemSource};

    #[test]
    fn chunker_construction_validates_shape() {
        let mut config = JobConfig::default();
        config.chunking = Chunking::Inter { chunk_bytes: 64 };
        assert!(make_chunker(Input::stream(MemSource::from(vec![0u8; 10])), &config).is_ok());
        assert!(make_chunker(Input::files(MemFileSet::new(vec![])), &config).is_err());

        config.chunking = Chunking::Intra { files_per_chunk: 2 };
        assert!(make_chunker(Input::files(MemFileSet::new(vec![])), &config).is_ok());
        assert!(make_chunker(Input::stream(MemSource::from(vec![])), &config).is_err());

        config.chunking = Chunking::Hybrid { chunk_bytes: 100 };
        assert!(make_chunker(Input::files(MemFileSet::new(vec![])), &config).is_ok());
        assert!(make_chunker(Input::stream(MemSource::from(vec![])), &config).is_err());

        config.chunking = Chunking::Adaptive(AdaptiveConfig::default());
        assert!(make_chunker(Input::stream(MemSource::from(vec![])), &config).is_ok());
        assert!(make_chunker(Input::files(MemFileSet::new(vec![])), &config).is_err());

        config.chunking = Chunking::None;
        assert!(make_chunker(Input::stream(MemSource::from(vec![])), &config).is_err());
    }

    #[test]
    fn shape_mismatch_is_an_invalid_config_error() {
        let mut config = JobConfig::default();
        config.chunking = Chunking::Inter { chunk_bytes: 64 };
        let err = match make_chunker(Input::files(MemFileSet::new(vec![])), &config) {
            Err(err) => err,
            Ok(_) => panic!("shape mismatch accepted"),
        };
        assert!(matches!(err, SupmrError::InvalidConfig { .. }));
        assert_eq!(err.io_kind(), None);
    }
}
