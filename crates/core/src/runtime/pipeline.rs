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
//! the stage and hands the map loop its reads through one bounded
//! `Handoff`. Its bound, the **prefetch depth**, counts the chunks
//! the mappers have not yet taken, the one being read included: depth 1
//! is the paper's double buffering (chunk *i+1* is read during round
//! *i*, and the next read waits for round *i+1* to take it), depth *d*
//! holds *d*+1 chunks' buffers.
//! The depth is read live, like the map width, so a governor that
//! deepens it lets the ingest thread read further ahead from the
//! mappers' next take on. The per-round thread cost of §III-A2 stays
//! visible in the map waves of `PoolMode::WavePerRound`.
//!
//! **The split hand-off.** What the ingest thread hands over is not a
//! chunk but each of its input splits, as it lands: it reads a chunk as
//! the splits it will be mapped in ([`Chunker::next_split`]). Round *i*
//! is still chunk *i* — its wave opens when round *i−1* ends, and takes
//! the chunk as soon as its read has begun — but each task waits only
//! for its own split. So a read-bound job's last round ends one split's
//! map after the last byte lands, not one chunk's wave after it. A
//! chunk still landing when its wave opens dispatches the most splits
//! it can have; tasks past its last split map nothing.
//!
//! The intermediate container is created once and **persists across
//! every map round** (§III-C). A combining job without a memory budget
//! keeps its worker tables across rounds too (`MapTables`), and absorbs
//! them in one wave after the last round, still inside the map phase.
//!
//! **Stalls** are measured where one side waits on the other: a map task
//! for its split, and a wave for its chunk's read to begin, every worker
//! idle ([`EventKind::MapWaitingForChunk`], ingest-bound, in worker
//! time); and the ingest thread for a round to take the chunk it read
//! ([`EventKind::IngestWaitingForContainer`], map-bound). So a round's
//! map busy and map stall fit in its wave's wall clock times the map
//! width. The stage's `StageProbe` decides what a wait records and
//! totals stalls into `JobStats` at every trace level, so the Fig. 2
//! overlap is always quantified.
//!
//! [`EventKind::MapWaitingForChunk`]: supmr_metrics::EventKind::MapWaitingForChunk
//! [`EventKind::IngestWaitingForContainer`]: supmr_metrics::EventKind::IngestWaitingForContainer

use super::probe::StageProbe;
use super::{
    finish_job, map_wave, Input, JobConfig, MapTables, RoundRecord, StageCtx, StageResult,
    StageWiring,
};
use crate::api::MapReduce;
use crate::chunk::{Chunker, Chunking, FileSetChunker, InterFileChunker, SplitCut};
use crate::error::{Result, SupmrError};
use crate::pool::WaveOutcome;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use supmr_metrics::{unpoisoned, Phase, StallSide};
use supmr_storage::SharedBytes;

/// Build the chunker matching the configured strategy, rejecting
/// mismatched input shapes: inter-file chunking needs a stream,
/// intra-file and hybrid chunking need a file set. With no chunking the
/// input's chunker has no limit, so its first chunk is the whole input.
/// Every chunker cuts splits at the job's record format.
pub(super) fn make_chunker(input: Input, config: &JobConfig) -> Result<Box<dyn Chunker>> {
    let mismatch = |msg: &str| Err(SupmrError::invalid_config(msg));
    let format = config.record_format;
    match (config.chunking, input) {
        (Chunking::None, Input::Stream(s)) => {
            Ok(Box::new(InterFileChunker::new(s, u64::MAX, format)))
        }
        (Chunking::None, Input::Files(f)) => {
            Ok(Box::new(FileSetChunker::new(f, usize::MAX, u64::MAX, format)))
        }
        (Chunking::Inter { chunk_bytes }, Input::Stream(s)) => {
            Ok(Box::new(InterFileChunker::new(s, chunk_bytes, format)))
        }
        (Chunking::Intra { files_per_chunk }, Input::Files(f)) => {
            Ok(Box::new(FileSetChunker::new(f, files_per_chunk, u64::MAX, format)))
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
    let handoff = Handoff::default();

    // Round 0: ingest the first chunk serially.
    ctx.probe.enter(Phase::Ingest);
    let first = ingest(&mut *chunker, &handoff, &ctx.probe, config, 0)?;
    ctx.probe.leave(Phase::Ingest);
    ctx.probe.enter(Phase::Map);
    if first.is_some() {
        // One chunk has nothing to read ahead: no ingest thread, and a
        // hand-off already closed, so the map loop ends after round 0.
        let pipelined = config.chunking.is_pipelined();
        if !pipelined {
            drop(End(&handoff));
        }
        // The ingest thread shares the probe for as long as it runs; what
        // the rounds did is folded in once it has let go.
        let (mapped, (ingest_waiting, reads)) = std::thread::scope(|scope| {
            let (handoff, probe) = (&handoff, &ctx.probe);
            let ingest = pipelined.then(|| {
                std::thread::Builder::new()
                    .name("supmr-ingest".to_string())
                    .spawn_scoped(scope, move || read_ahead(chunker, handoff, probe, config))
                    .expect("spawning the pipeline ingest thread")
            });
            let mapped = map_rounds(job, &tables, handoff, &ctx);
            (
                mapped,
                ingest.map_or_else(Default::default, |t| t.join().expect("ingest thread panicked")),
            )
        });
        if pipelined {
            ctx.probe.ingest_thread_spawned();
        }
        let (rounds, map_waiting) = mapped?;
        ctx.probe.stalled(map_waiting, ingest_waiting);
        // Round i overlapped the read of chunk i + 1.
        for (i, (round, wave)) in rounds.into_iter().enumerate() {
            let ingest = reads.get(i).copied().unwrap_or_default();
            ctx.probe.round_mapped(round.chunk_bytes as usize, wave);
            ctx.probe.round_timed(RoundRecord { ingest, ..round });
        }
    }
    tables.flush(&mut ctx);
    ctx.probe.leave(Phase::Map);

    finish_job(job, container, spill, ctx, wiring)
}

/// Read chunk `index` into `handoff`, split by split as the live map
/// width cuts it: how long the read took, or `None` once the input is
/// exhausted.
fn ingest(
    chunker: &mut dyn Chunker,
    handoff: &Handoff,
    probe: &StageProbe,
    config: &JobConfig,
    index: u32,
) -> Result<Option<Duration>> {
    let started = Instant::now();
    let failed = |e| SupmrError::ingest(index, e);
    let cut = SplitCut { split_bytes: config.split_bytes, width: config.map_width().now() };
    let Some(most) = chunker.begin_chunk(cut).map_err(failed)? else { return Ok(None) };
    handoff.update(|a| a.begun.push_back(most));
    let mut bytes = 0;
    while let Some(split) = chunker.next_split().map_err(failed)? {
        bytes += split.len();
        handoff.update(|a| a.splits.push_back((index, split)));
    }
    handoff.update(|a| a.landed += 1);
    Ok(Some(probe.chunk_ingested(index, started, bytes)))
}

/// The one hand-off between the ingest thread and the map loop: the
/// chunks begun that no round has taken, bounded by the live prefetch
/// depth, and the splits landed that no task has taken. Each side holds
/// an [`End`] of it.
#[derive(Default)]
struct Handoff {
    state: Mutex<Ahead>,
    moved: Condvar,
}

#[derive(Default)]
struct Ahead {
    /// For each chunk begun that no round has taken, oldest first, the
    /// most splits it can have.
    begun: VecDeque<usize>,
    /// The splits landed that no task has taken, oldest first, each with
    /// its chunk.
    splits: VecDeque<(u32, SharedBytes)>,
    /// Chunks whose every split has landed.
    landed: u32,
    /// Splits of the round's chunk its tasks have taken.
    taken: usize,
    /// A read failed: its error, in the place of what it would have read.
    failed: Option<SupmrError>,
    /// One side has gone: read nothing more, and take only what is here.
    closed: bool,
}

impl Handoff {
    /// Change what is ahead, and wake whoever waits on it.
    fn update(&self, change: impl FnOnce(&mut Ahead)) {
        let mut ahead = unpoisoned(self.state.lock());
        change(&mut ahead);
        drop(ahead);
        self.moved.notify_all();
    }

    /// Wait until `cond` no longer holds; what holds then, and how long
    /// that took — zero when it did not hold to begin with.
    fn wait_while(
        &self,
        mut cond: impl FnMut(&mut Ahead) -> bool,
    ) -> (MutexGuard<'_, Ahead>, Duration) {
        let mut ahead = unpoisoned(self.state.lock());
        if !cond(&mut ahead) {
            return (ahead, Duration::ZERO);
        }
        let t0 = Instant::now();
        let ahead = unpoisoned(self.moved.wait_while(ahead, cond));
        (ahead, t0.elapsed())
    }

    /// Ingest side: wait until the chunk about to be read fits under the
    /// depth beside the untaken ones; how long that took, or `None` once
    /// the hand-off is closed. Every take re-reads the depth.
    fn room(&self, config: &JobConfig) -> Option<Duration> {
        let (ahead, wait) =
            self.wait_while(|a| !a.closed && a.begun.len() >= config.live_prefetch_depth());
        (!ahead.closed).then_some(wait)
    }

    /// Map side, as round `round` opens: take its chunk once its read
    /// has begun — the tasks to dispatch, its splits when every one has
    /// landed, else the most it can have — or `None` once there is none
    /// to come; and how long the round waited for it.
    fn take(&self, round: u32) -> (Result<Option<usize>>, Duration) {
        let (mut ahead, wait) =
            self.wait_while(|a| a.begun.is_empty() && a.failed.is_none() && !a.closed);
        if let Some(e) = ahead.failed.take() {
            return (Err(e), wait);
        }
        let Some(most) = ahead.begun.pop_front() else { return (Ok(None), wait) };
        ahead.taken = 0;
        let tasks = if ahead.landed > round {
            ahead.splits.iter().filter(|(chunk, _)| *chunk == round).count()
        } else {
            most
        };
        self.moved.notify_all();
        (Ok(Some(tasks)), wait)
    }

    /// A map task of round `round`: the next split of the round's chunk
    /// and its index in the chunk, waiting for it to land, or `None`
    /// once the chunk has no split left; and how long the task waited.
    fn split(&self, round: u32) -> (Option<(usize, SharedBytes)>, Duration) {
        let (mut ahead, wait) = self.wait_while(|a| {
            a.splits.is_empty() && a.landed <= round && a.failed.is_none() && !a.closed
        });
        if ahead.splits.front().is_none_or(|(chunk, _)| *chunk != round) {
            return (None, wait);
        }
        let (_, split) = ahead.splits.pop_front().expect("a split of the round");
        ahead.taken += 1;
        (Some((ahead.taken - 1, split)), wait)
    }
}

/// One side's hold on a [`Handoff`]: dropping it, on return or unwind,
/// closes the hand-off, so the other side never waits on a side that
/// has gone.
struct End<'a>(&'a Handoff);

impl Drop for End<'_> {
    fn drop(&mut self) {
        self.0.update(|a| a.closed = true);
    }
}

/// The ingest thread: read chunks 1, 2, … into `handoff` until the
/// input ends, a read fails or the hand-off closes, waiting for room
/// before each chunk. Returns the time it waited on the mappers, as
/// recorded, and how long each chunk's read took.
fn read_ahead(
    mut chunker: Box<dyn Chunker>,
    handoff: &Handoff,
    probe: &StageProbe,
    config: &JobConfig,
) -> (Duration, Vec<Duration>) {
    let _end = End(handoff);
    let (mut waited, mut reads) = (Duration::ZERO, Vec::new());
    for index in 1u32.. {
        let Some(wait) = handoff.room(config) else { break };
        // Room opened when chunk `index - 1` was taken: until then the
        // ingest side waited on the mappers. Chunk 0 is taken at once.
        if index > 1 {
            waited += probe.stall(StallSide::Ingest, index - 1, wait);
        }
        match ingest(&mut *chunker, handoff, probe, config, index) {
            Ok(Some(took)) => reads.push(took),
            Ok(None) => break,
            Err(e) => {
                handoff.update(|a| a.failed = Some(e));
                break;
            }
        }
    }
    (waited, reads)
}

/// The map loop: one wave per chunk, from chunk 0 on, until the input
/// is exhausted. A wave opens as the round before it ends; until its
/// chunk's read has begun every worker of it is idle. Returns each
/// round's record (its overlapped ingest left to the caller) and wave,
/// and the time the mappers waited on ingest, as recorded.
fn map_rounds<J: MapReduce>(
    job: &Arc<J>,
    tables: &MapTables<'_, J>,
    handoff: &Handoff,
    ctx: &StageCtx<'_>,
) -> Result<(Vec<(RoundRecord, WaveOutcome)>, Duration)> {
    let _end = End(handoff);
    let (mut rounds, mut waited) = (Vec::new(), Duration::ZERO);
    for round in 0u32.. {
        ctx.config.check_cancelled()?;
        let opened = Instant::now();
        let (taken, wait) = handoff.take(round);
        let Some(tasks) = taken? else { break };
        let (wave, chunk_bytes, stalled) = ctx.probe.map_wave(round, opened, tasks, || {
            let idle = wait * ctx.config.map_width().now() as u32;
            let idle = ctx.probe.stall(StallSide::Map, round, idle);
            let (wave, bytes, stalled) =
                map_wave(job, tables, ctx, round, tasks, || handoff.split(round));
            (wave, bytes, idle + stalled)
        });
        waited += stalled;
        let map = opened.elapsed();
        rounds.push((RoundRecord { chunk_bytes, ingest: Duration::ZERO, map }, wave));
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
