//! The SupMR runtime: the ingest chunk pipeline.
//!
//! Implements the paper's pseudo-code (§III-B):
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
//! serially (nothing else to overlap with); each later round runs a map
//! wave on chunk *i* while chunk *i+1* is read. Without chunking
//! ([`Chunking::None`]) the input is one chunk and this is the Phoenix++
//! baseline: round 0 reads everything, one map wave follows, and no
//! ingest thread starts. The thread the paper
//! creates and destroys per round is one ingest thread that lives for
//! the stage and hands chunks to the map loop through one bounded
//! `Handoff`. Its bound, the **prefetch depth**, counts the chunks
//! the mappers have not yet taken, the one being read included: depth 1
//! is the paper's double buffering (two buffers; chunk *i+1* is read
//! during round *i*, and the next read waits for that round to end),
//! depth *d* holds *d*+1 buffers.
//! The depth is read live, like the map width, so a governor that
//! deepens it lets the ingest thread read further ahead from the
//! mappers' next take on. The per-round thread cost of §III-A2 stays
//! visible in the map waves of `PoolMode::WavePerRound`.
//!
//! The intermediate container is created once and **persists across
//! every map round** (§III-C). A combining job without a memory budget
//! keeps its worker tables across rounds too (`MapTables`), and absorbs
//! them in one wave after the last round, still inside the map phase.
//!
//! **Stalls** are measured where one side waits on the other: the
//! mappers for the next chunk ([`EventKind::MapWaitingForChunk`],
//! ingest-bound) and the ingest thread for the mappers to take the
//! chunk it read ([`EventKind::IngestWaitingForContainer`], map-bound);
//! at depth 1 exactly one side idles per round. The stage's `StageProbe`
//! decides what a wait records and totals stalls into `JobStats` at
//! every trace level, so the Fig. 2 overlap is always quantified.
//!
//! [`EventKind::MapWaitingForChunk`]: supmr_metrics::EventKind::MapWaitingForChunk
//! [`EventKind::IngestWaitingForContainer`]: supmr_metrics::EventKind::IngestWaitingForContainer

use super::probe::StageProbe;
use super::{
    finish_job, map_wave, Input, JobConfig, MapTables, RoundRecord, StageCtx, StageResult,
    StageWiring,
};
use crate::api::MapReduce;
use crate::chunk::{Chunker, Chunking, FileSetChunker, IngestChunk, InterFileChunker};
use crate::error::{Result, SupmrError};
use crate::pool::WaveOutcome;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use supmr_metrics::{unpoisoned, Phase, StallSide};

/// Build the chunker matching the configured strategy, rejecting
/// mismatched input shapes: inter-file chunking needs a stream,
/// intra-file and hybrid chunking need a file set. With no chunking the
/// input's chunker has no limit, so its first chunk is the whole input.
pub(super) fn make_chunker(input: Input, config: &JobConfig) -> Result<Box<dyn Chunker>> {
    let mismatch = |msg: &str| Err(SupmrError::invalid_config(msg));
    let format = config.record_format;
    match (config.chunking, input) {
        (Chunking::None, Input::Stream(s)) => {
            Ok(Box::new(InterFileChunker::new(s, u64::MAX, format)))
        }
        (Chunking::None, Input::Files(f)) => Ok(Box::new(FileSetChunker::intra(f, usize::MAX))),
        (Chunking::Inter { chunk_bytes }, Input::Stream(s)) => {
            Ok(Box::new(InterFileChunker::new(s, chunk_bytes, format)))
        }
        (Chunking::Intra { files_per_chunk }, Input::Files(f)) => {
            Ok(Box::new(FileSetChunker::intra(f, files_per_chunk)))
        }
        (Chunking::Hybrid { chunk_bytes }, Input::Files(f)) => {
            Ok(Box::new(FileSetChunker::hybrid(f, chunk_bytes, format)))
        }
        (Chunking::Inter { .. }, Input::Files(_)) => {
            mismatch("inter-file chunking requires a stream input; got a file set")
        }
        (Chunking::Intra { .. } | Chunking::Hybrid { .. }, Input::Stream(_)) => {
            mismatch("intra-file/hybrid chunking requires a file-set input; got a stream")
        }
    }
}

/// Execute `job` on the ingest chunk pipeline (`run_ingestMR()` in the
/// paper's API): the one runtime of every stage that maps an input,
/// under [`Job::run`](super::Job::run) and
/// [`Pipeline::run`](super::Pipeline::run), whatever its chunking.
pub(crate) fn run<J: MapReduce>(
    job: &Arc<J>,
    input: Input,
    mut ctx: StageCtx<'_>,
    wiring: StageWiring,
) -> Result<StageResult<J::Key, J::Output>> {
    let config = ctx.config;
    let mut chunker = make_chunker(input, config)?;
    // Created once, persists across all map rounds.
    let (container, spill) = super::stage_container(job, &mut ctx, &wiring)?;
    let tables = MapTables::new(&container, config);

    // Round 0: ingest the first chunk serially.
    ctx.probe.enter(Phase::Ingest);
    let started = Instant::now();
    let first = chunker.next_chunk().map_err(|e| SupmrError::ingest(0, e))?;
    if let Some(chunk) = &first {
        ctx.probe.chunk_ingested(0, started, chunk.len());
    }
    ctx.probe.leave(Phase::Ingest);
    ctx.probe.enter(Phase::Map);
    if let Some(first) = first {
        // One chunk has nothing to read ahead: no ingest thread, and a
        // hand-off already closed, so the map loop ends after round 0.
        let pipelined = config.chunking.is_pipelined();
        let handoff = Handoff::default();
        if !pipelined {
            drop(End(&handoff));
        }
        // The ingest thread shares the probe for as long as it runs; what
        // the rounds did is folded in once it has let go.
        let (mapped, ingest_waiting) = std::thread::scope(|scope| {
            let (handoff, probe) = (&handoff, &ctx.probe);
            let ingest = pipelined.then(|| {
                std::thread::Builder::new()
                    .name("supmr-ingest".to_string())
                    .spawn_scoped(scope, move || read_ahead(chunker, handoff, probe, config))
                    .expect("spawning the pipeline ingest thread")
            });
            let mapped = map_rounds(job, &tables, first, handoff, &ctx);
            (mapped, ingest.map_or(Duration::ZERO, |t| t.join().expect("ingest thread panicked")))
        });
        if pipelined {
            ctx.probe.ingest_thread_spawned();
        }
        let (rounds, map_waiting) = mapped?;
        ctx.probe.stalled(map_waiting, ingest_waiting);
        for (round, wave) in rounds {
            ctx.probe.round_mapped(round.chunk_bytes as usize, wave);
            ctx.probe.round_timed(round);
        }
    }
    tables.flush(&mut ctx);
    ctx.probe.leave(Phase::Map);

    finish_job(job, container, spill, ctx, wiring)
}

/// A chunk the ingest thread read, with the time the read took — or
/// the read's error, in the place of the chunk that failed.
type Fetched = Result<(IngestChunk, Duration)>;

/// The one hand-off between the ingest thread and the map loop: the
/// chunks read that the mappers have not yet taken, bounded by the
/// live prefetch depth. Each side holds an [`End`] of it.
#[derive(Default)]
struct Handoff {
    state: Mutex<Ahead>,
    moved: Condvar,
}

#[derive(Default)]
struct Ahead {
    chunks: VecDeque<Fetched>,
    /// One side has gone: read nothing more, and take only what is here.
    closed: bool,
}

impl Handoff {
    /// Ingest side: wait until the chunk about to be read fits under the
    /// depth beside the untaken ones; how long that took, or `None` once
    /// the hand-off is closed. Every take re-reads the depth.
    fn room(&self, config: &JobConfig) -> Option<Duration> {
        let t0 = Instant::now();
        let ahead = unpoisoned(self.moved.wait_while(unpoisoned(self.state.lock()), |a| {
            !a.closed && a.chunks.len() >= config.live_prefetch_depth()
        }));
        (!ahead.closed).then(|| t0.elapsed())
    }

    fn put(&self, fetched: Fetched) {
        unpoisoned(self.state.lock()).chunks.push_back(fetched);
        self.moved.notify_all();
    }

    /// Map side: the next chunk, `None` once there is none to come, and
    /// how long the mappers waited for it.
    fn take(&self) -> (Option<Fetched>, Duration) {
        let t0 = Instant::now();
        let mut ahead = unpoisoned(
            self.moved
                .wait_while(unpoisoned(self.state.lock()), |a| a.chunks.is_empty() && !a.closed),
        );
        let fetched = ahead.chunks.pop_front();
        self.moved.notify_all();
        (fetched, t0.elapsed())
    }
}

/// One side's hold on a [`Handoff`]: dropping it, on return or unwind,
/// closes the hand-off, so the other side never waits on a side that
/// has gone.
struct End<'a>(&'a Handoff);

impl Drop for End<'_> {
    fn drop(&mut self) {
        unpoisoned(self.0.state.lock()).closed = true;
        self.0.moved.notify_all();
    }
}

/// The ingest thread: read chunks 1, 2, … into `handoff` until the
/// input ends, a read fails or the hand-off closes, waiting for room
/// before each read. Returns the time it waited on the mappers, as
/// recorded.
fn read_ahead(
    mut chunker: Box<dyn Chunker>,
    handoff: &Handoff,
    probe: &StageProbe,
    config: &JobConfig,
) -> Duration {
    let _end = End(handoff);
    let mut waited = Duration::ZERO;
    for index in 1u32.. {
        let Some(wait) = handoff.room(config) else { break };
        // Room opened when chunk `index - 1` was taken: until then the
        // ingest side waited on the mappers. Chunk 0 was taken at once.
        if index > 1 {
            waited += probe.stall(StallSide::Ingest, index - 1, wait);
        }
        let t0 = Instant::now();
        match chunker.next_chunk() {
            Ok(Some(chunk)) => {
                let took = probe.chunk_ingested(index, t0, chunk.len());
                handoff.put(Ok((chunk, took)));
            }
            Ok(None) => break,
            Err(e) => {
                handoff.put(Err(SupmrError::ingest(index, e)));
                break;
            }
        }
    }
    waited
}

/// The map loop: one wave per chunk, from `first` on, until the input
/// is exhausted. Returns each round's record and wave, and the time the
/// mappers waited on ingest, as recorded.
fn map_rounds<J: MapReduce>(
    job: &Arc<J>,
    tables: &MapTables<'_, J>,
    first: IngestChunk,
    handoff: &Handoff,
    ctx: &StageCtx<'_>,
) -> Result<(Vec<(RoundRecord, WaveOutcome)>, Duration)> {
    let _end = End(handoff);
    let (mut rounds, mut waited) = (Vec::new(), Duration::ZERO);
    let mut chunk = first;
    for round in 0u32.. {
        ctx.config.check_cancelled()?;
        let t0 = Instant::now();
        let wave = map_wave(job, tables, &chunk, ctx, round);
        let (map, chunk_bytes) = (t0.elapsed(), chunk.len() as u64);
        // Dropped before the take, which makes room for a read: that
        // read can reuse this chunk's buffer.
        drop(chunk);
        let (fetched, wait) = handoff.take();
        let next = fetched.transpose()?;
        let ingest = next.as_ref().map_or(Duration::ZERO, |(_, took)| *took);
        rounds.push((RoundRecord { chunk_bytes, ingest, map }, wave));
        let Some((next, _)) = next else { break };
        waited += ctx.probe.stall(StallSide::Map, round, wait);
        chunk = next;
    }
    Ok((rounds, waited))
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

        // No chunking takes either shape whole.
        config.chunking = Chunking::None;
        assert!(make_chunker(Input::stream(MemSource::from(vec![])), &config).is_ok());
        assert!(make_chunker(Input::files(MemFileSet::new(vec![])), &config).is_ok());
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
