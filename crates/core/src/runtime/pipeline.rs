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
//! emitters absorb into the same shared container. A combining job
//! without a memory budget keeps its worker tables across rounds too
//! (`MapTables`), and absorbs them in one wave after the last round,
//! still inside the map phase.
//!
//! The pipeline is also where the job's **stall accounting** is
//! measured: each round ends with either the mappers waiting for the
//! next chunk's ingest ([`EventKind::MapWaitingForChunk`], the pipeline
//! is ingest-bound) or the finished ingest waiting for the mappers to
//! release it ([`EventKind::IngestWaitingForContainer`], map-bound).
//! Exactly one side idles per round. The round loops only *measure*
//! the waits; what a wait (or an ingested chunk, or a mapped round)
//! records is decided by the stage's `StageProbe` (`runtime/probe.rs`),
//! which totals stalls into `JobStats` regardless of the trace level,
//! so the Fig. 2 overlap is always quantified, not inferred.
//!
//! One extension beyond the paper's prototype lives here as well:
//! **deeper prefetch**. `JobConfig::prefetch_depth > 1` replaces the
//! per-round create/destroy ingest thread with one long-lived ingest
//! thread pushing into a bounded buffer of that depth (N-buffering
//! instead of double-buffering), an ablatable design variant. There the
//! stalls are measured at the buffer boundary: map-side time blocked in
//! `recv` and ingest-side time blocked in `send`.
//!
//! [`EventKind::MapWaitingForChunk`]: supmr_metrics::EventKind::MapWaitingForChunk
//! [`EventKind::IngestWaitingForContainer`]: supmr_metrics::EventKind::IngestWaitingForContainer

use super::governor::{self, ActiveConfig};
use super::{
    finish_job, map_wave, Input, JobConfig, MapTables, RoundRecord, StageCtx, StageResult,
    StageWiring,
};
use crate::api::MapReduce;
use crate::chunk::{
    Chunker, Chunking, HybridChunker, IngestChunk, InterFileChunker, IntraFileChunker,
};
use crate::container::Container;
use crate::error::{Result, SupmrError};
use crate::pool::WaveOutcome;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use supmr_metrics::{Phase, StallSide};

/// Build the chunker matching the configured strategy, rejecting
/// mismatched input shapes: inter-file chunking needs a stream,
/// intra-file and hybrid chunking need a file set.
fn make_chunker(input: Input, config: &JobConfig) -> Result<Box<dyn Chunker>> {
    let mismatch = |msg: &str| Err(SupmrError::invalid_config(msg));
    match (config.chunking, input) {
        (Chunking::Inter { chunk_bytes }, Input::Stream(s)) => {
            Ok(Box::new(InterFileChunker::new(s, chunk_bytes, config.record_format)))
        }
        (Chunking::Intra { files_per_chunk }, Input::Files(f)) => {
            Ok(Box::new(IntraFileChunker::new(f, files_per_chunk)))
        }
        (Chunking::Hybrid { chunk_bytes }, Input::Files(f)) => {
            Ok(Box::new(HybridChunker::new(f, chunk_bytes, config.record_format)))
        }
        (Chunking::Inter { .. }, Input::Files(_)) => {
            mismatch("inter-file chunking requires a stream input; got a file set")
        }
        (Chunking::Intra { .. } | Chunking::Hybrid { .. }, Input::Stream(_)) => {
            mismatch("intra-file/hybrid chunking requires a file-set input; got a stream")
        }
        (Chunking::None, _) => mismatch("pipeline runtime requires a chunking strategy"),
    }
}

/// Execute `job` on the ingest chunk pipeline (`run_ingestMR()` in the
/// paper's API).
pub(crate) fn run<J: MapReduce>(
    job: &Arc<J>,
    input: Input,
    ctx: StageCtx<'_>,
    wiring: StageWiring,
) -> Result<StageResult<J::Key, J::Output>> {
    let chunker = make_chunker(input, ctx.config)?;
    if ctx.config.prefetch_depth > 1 {
        run_buffered(job, chunker, ctx, wiring)
    } else {
        run_double_buffered(job, chunker, ctx, wiring)
    }
}

/// What one overlapped ingest reports back to the round loop.
struct Ingested {
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
    mut ctx: StageCtx<'_>,
    wiring: StageWiring,
) -> Result<StageResult<J::Key, J::Output>> {
    let config = ctx.config;
    // Created once, persists across all map rounds.
    let container = job.make_container();
    container.configure(&super::container_hooks(config));
    let spill = super::setup_spill(job, &container, &mut ctx, &wiring)?;
    let tables = MapTables::new(&container, config);

    // Round 0: ingest the first chunk serially.
    ctx.probe.enter(Phase::Ingest);
    let started = Instant::now();
    let mut current = chunker.next_chunk().map_err(|e| SupmrError::ingest(0, e))?;
    if let Some(chunk) = &current {
        ctx.probe.chunk_ingested(0, started, chunk.len());
    }
    ctx.probe.leave(Phase::Ingest);

    let mut round: u32 = 0;
    while let Some(chunk) = current.take() {
        config.check_cancelled()?;
        let next_index = round + 1;

        ctx.probe.enter(Phase::Ingest);
        ctx.probe.enter(Phase::Map);
        // "create thread to ingest next chunk / run mappers on previous
        // chunk / destroy thread" — the scope is the create/destroy.
        let chunker_ref = &mut chunker;
        let (ingested, outcome, map_time, map_done) = std::thread::scope(|scope| {
            let probe = &ctx.probe;
            let ingest = std::thread::Builder::new()
                .name("supmr-ingest".to_string())
                .spawn_scoped(scope, move || {
                    let t0 = Instant::now();
                    let next = chunker_ref.next_chunk();
                    let took = match &next {
                        Ok(Some(c)) => probe.chunk_ingested(next_index, t0, c.len()),
                        _ => t0.elapsed(),
                    };
                    Ingested { next, took, done: Instant::now() }
                })
                .expect("spawning the round's ingest thread");
            let t0 = Instant::now();
            let outcome = map_wave(job, &tables, &chunk, &ctx, round);
            let map_time = t0.elapsed();
            let map_done = Instant::now();
            (ingest.join().expect("ingest thread panicked"), outcome, map_time, map_done)
        });
        ctx.probe.leave(Phase::Map);
        ctx.probe.leave(Phase::Ingest);
        ctx.probe.round_mapped(chunk.len(), outcome);
        ctx.probe.ingest_thread_spawned();

        let next = ingested.next.map_err(|e| SupmrError::ingest(next_index, e))?;
        // Exactly one side of the pipeline idled this round: mappers
        // from their wave end until the ingest came back, or the ingest
        // from its read end until the wave released the container.
        if next.is_some() {
            let map_wait = ingested.done.saturating_duration_since(map_done);
            let ingest_wait = map_done.saturating_duration_since(ingested.done);
            let map_wait = ctx.probe.stall(StallSide::Map, round, map_wait);
            let ingest_wait = ctx.probe.stall(StallSide::Ingest, next_index, ingest_wait);
            ctx.probe.stalled(map_wait, ingest_wait);
        }

        ctx.probe.round_timed(RoundRecord {
            chunk_bytes: chunk.len() as u64,
            ingest: ingested.took,
            map: map_time,
        });
        current = next;
        round += 1;
    }
    ctx.probe.enter(Phase::Map);
    tables.flush(&mut ctx);
    ctx.probe.leave(Phase::Map);

    finish_job(job, container, spill, ctx, wiring)
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
/// thread runs map waves. Under a governor the channel is widened to [`governor::PREFETCH_CAP`] and a
/// [`PrefetchGate`] enforces the dynamic depth instead.
fn run_buffered<J: MapReduce>(
    job: &Arc<J>,
    mut chunker: Box<dyn Chunker>,
    mut ctx: StageCtx<'_>,
    wiring: StageWiring,
) -> Result<StageResult<J::Key, J::Output>> {
    let config = ctx.config;
    let container = job.make_container();
    container.configure(&super::container_hooks(config));
    let spill = super::setup_spill(job, &container, &mut ctx, &wiring)?;
    let tables = MapTables::new(&container, config);

    ctx.probe.enter(Phase::Ingest);
    ctx.probe.enter(Phase::Map);
    // The ingest thread shares the probe for as long as it runs; what
    // the rounds did is folded in once it has let go.
    let mut mapped: Vec<(usize, WaveOutcome)> = Vec::new();
    let mut map_waiting = Duration::ZERO;
    let gate = config.active.as_ref().map(|a| (Arc::new(PrefetchGate::new()), Arc::clone(a)));
    let capacity = match &gate {
        Some(_) => config.prefetch_depth.max(governor::PREFETCH_CAP),
        None => config.prefetch_depth,
    };
    let ingest_result: Result<Duration> = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<IngestChunk>(capacity);
        let producer_gate = gate.clone();
        let probe = &ctx.probe;
        let producer = std::thread::Builder::new()
            .name("supmr-ingest".to_string())
            .spawn_scoped(scope, move || -> (Result<()>, Duration) {
                let mut index: u32 = 0;
                let mut waited = Duration::ZERO;
                loop {
                    let t0 = Instant::now();
                    match chunker.next_chunk() {
                        Ok(Some(chunk)) => {
                            probe.chunk_ingested(index, t0, chunk.len());
                            let s0 = Instant::now();
                            if let Some((gate, active)) = &producer_gate {
                                gate.admit(active);
                            }
                            if tx.send(chunk).is_err() {
                                break (Ok(()), waited); // consumer went away
                            }
                            // Time blocked handing over = buffer full =
                            // the ingest side waiting on the mappers.
                            waited += probe.stall(StallSide::Ingest, index, s0.elapsed());
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
            if round > 0 {
                map_waiting += probe.stall(StallSide::Map, round - 1, wait);
            }
            mapped.push((chunk.len(), map_wave(job, &tables, &chunk, &ctx, round)));
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
    ctx.probe.stalled(map_waiting, ingest_result?);
    for (chunk_bytes, outcome) in mapped {
        ctx.probe.round_mapped(chunk_bytes, outcome);
    }
    ctx.probe.ingest_thread_spawned(); // the long-lived one
    tables.flush(&mut ctx);
    ctx.probe.leave(Phase::Map);
    ctx.probe.leave(Phase::Ingest);

    finish_job(job, container, spill, ctx, wiring)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use crate::chunk::Chunking;
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
