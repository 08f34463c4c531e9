//! End-to-end tests of the extension features: hybrid inter/intra-file
//! chunking and N-deep prefetch. Both must be observationally identical
//! to the fixed double-buffered pipeline — they reorganize scheduling,
//! never results.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::HashContainer;
use supmr::runtime::{ActiveConfig, Input, Job, JobConfig};
use supmr::{Chunking, PoolMode, TraceLevel};
use supmr_metrics::{EventKind, SpanKey};
use supmr_storage::{DataSource, MemFileSet, MemSource, ThrottledSource, TokenBucket};
use supmr_workloads::{small_files_corpus, TextGen, TextGenConfig};

struct WordCount;

impl MapReduce for WordCount {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        for word in split.split(|b| b.is_ascii_whitespace()) {
            if !word.is_empty() {
                emit.emit(String::from_utf8_lossy(word).into_owned(), 1);
            }
        }
    }

    fn reduce(&self, _key: &String, acc: u64) -> u64 {
        acc
    }
}

fn config() -> JobConfig {
    JobConfig { map_workers: 3, reduce_workers: 3, split_bytes: 4096, ..JobConfig::default() }
}

fn text(bytes: usize) -> Vec<u8> {
    TextGen::new(TextGenConfig::default()).generate_bytes(17, bytes)
}

#[test]
fn hybrid_chunking_end_to_end_matches_baseline() {
    // Mixed directory: small files plus one big file.
    let mut files = small_files_corpus(8, 6, 3_000);
    files.insert(3, text(60_000)); // 20x the target
    let baseline = Job::new(WordCount)
        .config(config())
        .run(Input::files(MemFileSet::new(files.clone())))
        .unwrap();

    let mut cfg = config();
    cfg.chunking = Chunking::Hybrid { chunk_bytes: 8_000 };
    let piped = Job::new(WordCount).config(cfg).run(Input::files(MemFileSet::new(files))).unwrap();
    assert_eq!(piped.sorted_pairs(), baseline.sorted_pairs());
    // The big file alone forces more chunks than intra-file grouping of
    // 7 files would produce.
    assert!(piped.report.stats.ingest_chunks >= 8, "chunks = {}", piped.report.stats.ingest_chunks);
}

#[test]
fn prefetch_depths_agree_and_count_one_ingest_thread() {
    let data = text(200_000);
    let run_with_depth = |depth: usize| {
        let mut cfg = config();
        cfg.chunking = Chunking::Inter { chunk_bytes: 16 * 1024 };
        cfg.prefetch_depth = depth;
        // A persistent pool counts its threads once, so what is left
        // between depths is the ingest thread.
        cfg.pool = PoolMode::Persistent;
        Job::new(WordCount).config(cfg).run(Input::stream(MemSource::from(data.clone()))).unwrap()
    };
    let d1 = run_with_depth(1);
    let d2 = run_with_depth(2);
    let d8 = run_with_depth(8);
    assert_eq!(d1.sorted_pairs(), d2.sorted_pairs());
    assert_eq!(d1.sorted_pairs(), d8.sorted_pairs());
    for r in [&d1, &d2, &d8] {
        assert_eq!(r.report.stats.ingest_chunks, d1.report.stats.ingest_chunks);
        assert_eq!(r.report.stats.bytes_ingested, data.len() as u64);
        assert!(r.report.timings.is_fused());
    }
    // Every depth runs one long-lived ingest thread, none per round.
    assert_eq!(d1.report.stats.threads_spawned, d2.report.stats.threads_spawned);
    assert_eq!(d1.report.stats.threads_spawned, d8.report.stats.threads_spawned);
}

/// A wave-mode job spawns the same threads every run: the worker tables
/// a combining job builds depend on how its map tasks overlapped, but
/// the wave that absorbs them is as wide as the map width.
#[test]
fn wave_mode_spawns_the_same_threads_every_run() {
    let data = text(200_000);
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 16 * 1024 };
    cfg.prefetch_depth = 8;
    cfg.pool = PoolMode::WavePerRound;
    let runs: Vec<_> = (0..10)
        .map(|_| {
            let input = Input::stream(MemSource::from(data.clone()));
            Job::new(WordCount).config(cfg.clone()).run(input).unwrap()
        })
        .collect();
    for r in &runs {
        assert_eq!(r.report.stats.threads_spawned, runs[0].report.stats.threads_spawned);
        assert_eq!(r.sorted_pairs(), runs[0].sorted_pairs());
    }
}

/// Bytes in each chunk of [`Recorded`] input: 64 lines of 64 bytes, so
/// every chunk ends on a record boundary and is read in one `read_at`.
const CHUNK: usize = 4096;

/// A source of `chunks` chunks that is not resident, so every chunk is
/// read into chunker buffers. It records the memory its reads land in,
/// as address ranges, and counts the reads.
struct Recorded {
    data: Vec<u8>,
    buffers: Arc<Mutex<Vec<std::ops::Range<usize>>>>,
    reads: Arc<AtomicUsize>,
}

impl Recorded {
    fn new(chunks: usize) -> Recorded {
        let lines = (0..chunks * CHUNK / 64).map(|i| format!("{:063}\n", i % 50));
        let data = lines.collect::<String>().into_bytes();
        Recorded { data, buffers: Arc::default(), reads: Arc::default() }
    }
}

impl DataSource for Recorded {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let start = (offset as usize).min(self.data.len());
        let n = buf.len().min(self.data.len() - start);
        buf[..n].copy_from_slice(&self.data[start..start + n]);
        let at = buf.as_ptr() as usize;
        self.buffers.lock().unwrap().push(at..at + buf.len());
        self.reads.fetch_add(1, Ordering::SeqCst);
        Ok(n)
    }
}

/// Word count that first hands each map call's number to a hook. With
/// one worker and chunks under the smallest wave split, call *i* is
/// round *i*.
struct Hooked<F> {
    hook: F,
    calls: AtomicUsize,
}

impl<F: Fn(usize) + Send + Sync + 'static> MapReduce for Hooked<F> {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        (self.hook)(self.calls.fetch_add(1, Ordering::SeqCst));
        WordCount.map(split, emit);
    }

    fn reduce(&self, _key: &String, acc: u64) -> u64 {
        acc
    }
}

fn one_worker(depth: usize) -> JobConfig {
    JobConfig {
        map_workers: 1,
        reduce_workers: 1,
        chunking: Chunking::Inter { chunk_bytes: CHUNK as u64 },
        prefetch_depth: depth,
        ..JobConfig::default()
    }
}

/// Wait (up to 5 s) until `reads` reaches `at_least`; returns `reads`.
fn wait_for(reads: &AtomicUsize, at_least: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    while reads.load(Ordering::SeqCst) < at_least && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    reads.load(Ordering::SeqCst)
}

/// The bytes of memory `ranges` cover, each byte once.
fn covered(ranges: &[std::ops::Range<usize>]) -> usize {
    let mut ranges = ranges.to_vec();
    ranges.sort_by_key(|r| r.start);
    let (mut bytes, mut reach) = (0, 0);
    for r in ranges {
        let start = r.start.max(reach);
        if r.end > start {
            (bytes, reach) = (bytes + r.end - start, r.end);
        }
    }
    bytes
}

/// Depth *d* holds *d* + 1 chunks' worth of buffer bytes: the chunk
/// being mapped and the *d* the mappers have not taken, the one being
/// read included, each at most a chunk, its longest record and two
/// boundary windows. Each round's map waits until the ingest thread has
/// filled the hand-off.
#[test]
fn prefetch_depth_bounds_the_chunk_buffers() {
    const CHUNKS: usize = 12;
    for depth in [1usize, 3] {
        let source = Recorded::new(CHUNKS);
        let (buffers, reads) = (Arc::clone(&source.buffers), Arc::clone(&source.reads));
        // Each round holds a chunk-sized allocation, which takes a
        // buffer the chunker gave back to the allocator: a later chunk
        // can only land in a buffer the chunker kept.
        let held = Mutex::new(Vec::new());
        let job = Hooked {
            hook: move |round: usize| {
                held.lock().unwrap().push(vec![1u8; CHUNK]);
                wait_for(&reads, (round + 1 + depth).min(CHUNKS));
            },
            calls: AtomicUsize::new(0),
        };
        let result = Job::new(job).config(one_worker(depth)).run(Input::stream(source)).unwrap();
        assert_eq!(result.report.stats.map_rounds, CHUNKS as u32);
        let bytes = covered(&buffers.lock().unwrap());
        let bound = (depth + 1) * (CHUNK + 64 + 2 * 4096);
        assert!(bytes <= bound, "depth {depth}: reads landed in {bytes} bytes, over {bound}");
    }
}

/// A governor's deeper prefetch reaches a job configured at depth 1:
/// raised from the first map task, it lets the ingest thread get more
/// than one untaken chunk ahead of the second round.
#[test]
fn a_raised_prefetch_depth_reaches_a_depth_one_job() {
    let source = Recorded::new(8);
    let reads = Arc::clone(&source.reads);
    let active = Arc::new(ActiveConfig::new(1, 1, 1));
    let ahead = Arc::new(AtomicUsize::new(0));
    let (knob, seen) = (Arc::clone(&active), Arc::clone(&ahead));
    let job = Hooked {
        hook: move |round| match round {
            0 => knob.set_prefetch_depth(3),
            // Chunk 1 is mapped: a read past chunk 2 is a second
            // untaken chunk.
            1 => seen.store(wait_for(&reads, 4), Ordering::SeqCst),
            _ => {}
        },
        calls: AtomicUsize::new(0),
    };
    let cfg = JobConfig { active: Some(active), ..one_worker(1) };
    let result = Job::new(job).config(cfg).run(Input::stream(source)).unwrap();
    assert_eq!(result.report.stats.map_rounds, 8);
    let read = ahead.load(Ordering::SeqCst);
    assert!(read >= 4, "round 1 saw {read} chunks read: the raised depth never reached ingest");
}

#[test]
fn zero_prefetch_depth_rejected() {
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 1024 };
    cfg.prefetch_depth = 0;
    assert!(Job::new(WordCount)
        .config(cfg)
        .run(Input::stream(MemSource::from(vec![1u8])))
        .is_err());
}

#[test]
fn hybrid_with_zero_target_rejected() {
    let mut cfg = config();
    cfg.chunking = Chunking::Hybrid { chunk_bytes: 0 };
    assert!(Job::new(WordCount).config(cfg).run(Input::files(MemFileSet::new(vec![]))).is_err());
}

/// Word count whose map sleeps `map_ms` first, over 4 chunks of 32 KiB
/// of 50 distinct words behind a 384 KiB/s bucket, cut into 8 KiB splits
/// for 2 workers, traced per task. A throttled source is not resident:
/// every chunk is read split by split.
fn split_handoff_run(map_ms: u64) -> supmr::runtime::JobResult<String, u64> {
    let job = Hooked {
        hook: move |_| std::thread::sleep(Duration::from_millis(map_ms)),
        calls: AtomicUsize::new(0),
    };
    let cfg = JobConfig {
        map_workers: 2,
        reduce_workers: 1,
        split_bytes: 8 * 1024,
        chunking: Chunking::Inter { chunk_bytes: 32 * 1024 },
        trace: TraceLevel::Task,
        ..JobConfig::default()
    };
    let bucket = TokenBucket::with_burst(384.0 * 1024.0, 4096.0);
    let input = MemSource::from(Recorded::new(128 * 1024 / CHUNK).data);
    let source = ThrottledSource::with_bucket(input, bucket);
    Job::new(job).config(cfg).run(Input::stream(source)).unwrap()
}

/// The mappers get each split as it lands: every round after the first
/// starts a map task before its chunk's last split has been read.
#[test]
fn every_round_maps_before_its_chunk_has_landed() {
    let result = split_handoff_run(0);
    let trace = result.report.trace.as_ref().expect("traced");
    let rounds = result.report.stats.map_rounds;
    assert!(rounds >= 4, "{rounds} rounds");
    let events = trace.ordered_events();
    for round in 1..rounds {
        let first_task = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::MapTaskStart { round: r, .. } if r == round));
        let landed = events.iter().position(
            |e| matches!(e.kind, EventKind::ChunkIngestEnd { chunk, .. } if chunk == round),
        );
        let (Some(first_task), Some(landed)) = (first_task, landed) else {
            panic!("round {round}: no map task or no ingest end");
        };
        assert!(first_task < landed, "round {round} mapped nothing before its chunk landed");
    }
}

/// A read-bound job ends one split's map after its last read, not one
/// chunk's wave after it: the last chunk's splits are mapped as they
/// land, so what follows the last chunk's read is its last split's map
/// (and a reduce of a few keys).
#[test]
fn a_read_bound_job_ends_one_split_after_its_last_read() {
    // Two workers map two 8 KiB splits in 30 ms, faster than the bucket
    // reads one (21 ms): every round is read-bound.
    let result = split_handoff_run(30);
    let trace = result.report.trace.as_ref().expect("traced");
    let last_read = trace
        .ordered_events()
        .iter()
        .rev()
        .find(|e| matches!(e.kind, EventKind::ChunkIngestEnd { .. }))
        .map(|e| Duration::from_micros(e.t_us))
        .expect("a chunk was read");
    let last_round = result.report.stats.map_rounds - 1;
    let longest_task = trace
        .spans()
        .iter()
        .filter(|s| matches!(s.key, SpanKey::MapTask(r, _) if r == last_round))
        .map(|s| Duration::from_micros(s.dur_us))
        .max()
        .expect("the last round mapped");
    let tail = result.report.timings.total().saturating_sub(last_read);
    let slop = Duration::from_millis(10);
    assert!(
        tail <= longest_task + slop,
        "the job ran {tail:?} past its last read; its last round's longest task took {longest_task:?}"
    );
}
