//! Failure injection: ingest errors must surface as typed
//! [`SupmrError`]s from `Job::run` — cleanly, from whichever thread hit
//! them — never as hangs, partial results, or panics. Exercises all
//! three ingest paths (original, double-buffered pipeline, N-buffered
//! pipeline) and both input shapes, plus map panics (which come back as
//! [`SupmrError::TaskPanic`] rather than unwinding through the caller),
//! plus the one fault that enters from the *output* side of the map
//! phase: a spill run store that fills up under several spilling
//! workers.

use std::io::ErrorKind;
use std::sync::Arc;
use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::HashContainer;
use supmr::runtime::{Input, Job, JobConfig};
use supmr::{Chunking, PairCodec, PoolMode, SupmrError};
use supmr_storage::{
    FaultyFileSet, FaultyRunStore, FaultySource, MemFileSet, MemRunStore, MemSource,
};
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

    fn reduce(&self, _k: &String, acc: u64) -> u64 {
        acc
    }

    /// `u64 LE` count, then the word.
    fn spill_codec(&self) -> Option<PairCodec<String, u64>> {
        Some(PairCodec {
            encode: |word, count, buf| {
                buf.extend_from_slice(&count.to_le_bytes());
                buf.extend_from_slice(word.as_bytes());
            },
            decode: |rec| {
                let count = u64::from_le_bytes(rec.get(..8)?.try_into().ok()?);
                Some((String::from_utf8(rec[8..].to_vec()).ok()?, count))
            },
            size_hint: |word, _| 32 + word.len(),
        })
    }
}

/// WordCount whose map panics when its split contains the trigger token.
struct PanicOnToken;

impl MapReduce for PanicOnToken {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        assert!(!split.windows(5).any(|w| w == b"BOOM!"), "injected map panic");
        for word in split.split(|b| b.is_ascii_whitespace()) {
            if !word.is_empty() {
                emit.emit(String::from_utf8_lossy(word).into_owned(), 1);
            }
        }
    }

    fn reduce(&self, _k: &String, acc: u64) -> u64 {
        acc
    }
}

fn text(bytes: usize) -> Vec<u8> {
    TextGen::new(TextGenConfig::default()).generate_bytes(2, bytes)
}

fn config() -> JobConfig {
    JobConfig { map_workers: 2, reduce_workers: 2, split_bytes: 4096, ..JobConfig::default() }
}

#[test]
fn original_runtime_surfaces_ingest_errors() {
    let source = FaultySource::new(MemSource::from(text(100_000)), 50_000, ErrorKind::BrokenPipe);
    let err = Job::new(WordCount).config(config()).run(Input::stream(source)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::BrokenPipe));
}

#[test]
fn double_buffered_pipeline_surfaces_mid_stream_errors() {
    // Fault lands several chunks in, so the error happens on the
    // overlapped ingest thread while a map wave is running.
    let source = FaultySource::new(MemSource::from(text(200_000)), 90_000, ErrorKind::BrokenPipe);
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 16 * 1024 };
    let err = Job::new(WordCount).config(cfg).run(Input::stream(source)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::BrokenPipe));
    assert!(
        matches!(err, SupmrError::Ingest { chunk: Some(c), .. } if c > 0),
        "mid-stream fault must carry a non-zero chunk index: {err:?}"
    );
}

#[test]
fn buffered_pipeline_surfaces_mid_stream_errors() {
    let source = FaultySource::new(MemSource::from(text(200_000)), 90_000, ErrorKind::TimedOut);
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 16 * 1024 };
    cfg.prefetch_depth = 4;
    let err = Job::new(WordCount).config(cfg).run(Input::stream(source)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::TimedOut));
}

#[test]
fn fault_on_first_chunk_fails_before_any_round() {
    let source = FaultySource::new(MemSource::from(text(50_000)), 0, ErrorKind::NotFound);
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 8 * 1024 };
    let err = Job::new(WordCount).config(cfg).run(Input::stream(source)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::NotFound));
    assert!(
        matches!(err, SupmrError::Ingest { chunk: Some(0), .. }),
        "first-chunk fault must name chunk 0: {err:?}"
    );
}

#[test]
fn intra_file_pipeline_surfaces_file_errors() {
    let files = small_files_corpus(6, 9, 2_000);
    let faulty = FaultyFileSet::new(MemFileSet::new(files), 5, ErrorKind::PermissionDenied);
    let mut cfg = config();
    cfg.chunking = Chunking::Intra { files_per_chunk: 2 };
    let err = Job::new(WordCount).config(cfg).run(Input::files(faulty)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::PermissionDenied));
}

#[test]
fn hybrid_pipeline_surfaces_file_errors() {
    let files = small_files_corpus(6, 6, 2_000);
    let faulty = FaultyFileSet::new(MemFileSet::new(files), 3, ErrorKind::PermissionDenied);
    let mut cfg = config();
    cfg.chunking = Chunking::Hybrid { chunk_bytes: 3_000 };
    let err = Job::new(WordCount).config(cfg).run(Input::files(faulty)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::PermissionDenied));
}

#[test]
fn original_runtime_surfaces_file_errors() {
    let files = small_files_corpus(6, 4, 1_000);
    let faulty = FaultyFileSet::new(MemFileSet::new(files), 0, ErrorKind::Interrupted);
    let err = Job::new(WordCount).config(config()).run(Input::files(faulty)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::Interrupted));
}

#[test]
fn pooled_map_panic_fails_the_job_with_the_original_payload() {
    // The trigger sits near the end so several waves dispatch through
    // the pool (reusing its threads) before one of them panics. The
    // panic must come back to Job::run's caller as a typed
    // `TaskPanic` carrying the payload text — not hang waiting for
    // results, not kill the process, and not unwind through Job::run.
    let mut data = text(40_000);
    data.extend_from_slice(b"\nBOOM! tail words\n");
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 8 * 1024 };
    cfg.pool = PoolMode::Persistent;
    let err = Job::new(PanicOnToken)
        .config(cfg)
        .run(Input::stream(MemSource::from(data)))
        .expect_err("map panic must surface as an error from Job::run");
    match &err {
        SupmrError::TaskPanic { payload } => {
            assert!(payload.contains("injected map panic"), "unexpected payload: {payload:?}");
        }
        other => panic!("expected TaskPanic, got {other:?}"),
    }
    assert_eq!(err.io_kind(), None);

    // The unwind dropped the job's pool (joining its workers); a fresh
    // pooled job afterwards must run to completion.
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 8 * 1024 };
    cfg.pool = PoolMode::Persistent;
    let r =
        Job::new(WordCount).config(cfg).run(Input::stream(MemSource::from(text(20_000)))).unwrap();
    assert!(!r.pairs.is_empty());
    assert!(r.report.stats.threads_reused > 0);
}

#[test]
fn pooled_job_surfaces_ingest_errors_and_joins_the_pool() {
    let source = FaultySource::new(MemSource::from(text(200_000)), 90_000, ErrorKind::BrokenPipe);
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 16 * 1024 };
    cfg.pool = PoolMode::Persistent;
    let err = Job::new(WordCount).config(cfg).run(Input::stream(source)).unwrap_err();
    assert_eq!(err.io_kind(), Some(ErrorKind::BrokenPipe));
}

#[test]
fn spill_store_filling_up_under_concurrent_spillers_fails_the_job_cleanly() {
    // A budget far below the vocabulary: every worker of the pooled
    // pipeline spills, repeatedly, and the store runs out of room while
    // they do. The job must fail with the store's error, at a phase
    // boundary, with every run — whole or cut short — removed.
    let store = MemRunStore::new();
    let faulty =
        FaultyRunStore::fail_writes_after(Arc::new(store.clone()), 20_000, ErrorKind::StorageFull);
    let mut cfg = config();
    cfg.map_workers = 4;
    cfg.reduce_workers = 3;
    cfg.chunking = Chunking::Inter { chunk_bytes: 16 * 1024 };
    cfg.pool = PoolMode::Persistent;
    cfg.memory_budget = Some(4 * 1024);
    cfg.spill_store = Some(Arc::new(faulty));
    let err = Job::new(WordCount)
        .config(cfg)
        .run(Input::stream(MemSource::from(text(200_000))))
        .unwrap_err();
    assert!(matches!(err, SupmrError::Ingest { .. }), "got {err:?}");
    assert_eq!(err.io_kind(), Some(ErrorKind::StorageFull));
    assert!(store.is_empty(), "no run file may outlive the failed job");
}

#[test]
fn fault_beyond_input_never_fires() {
    // A fault past EOF must be unreachable: job completes normally.
    let data = text(30_000);
    let expected = Job::new(WordCount)
        .config(config())
        .run(Input::stream(MemSource::from(data.clone())))
        .unwrap();
    let source = FaultySource::new(MemSource::from(data), u64::MAX, ErrorKind::BrokenPipe);
    let mut cfg = config();
    cfg.chunking = Chunking::Inter { chunk_bytes: 8 * 1024 };
    let result = Job::new(WordCount).config(cfg).run(Input::stream(source)).unwrap();
    assert_eq!(result.sorted_pairs(), expected.sorted_pairs());
}
