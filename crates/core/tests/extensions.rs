//! End-to-end tests of the extension features: hybrid inter/intra-file
//! chunking and N-deep prefetch. Both must be observationally identical
//! to the fixed double-buffered pipeline — they reorganize scheduling,
//! never results.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::HashContainer;
use supmr::runtime::{Input, Job, JobConfig};
use supmr::Chunking;
use supmr_storage::{MemFileSet, MemSource};
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
    // Depth 1 spawns one ingest thread per round; deeper prefetch uses
    // a single long-lived one.
    assert!(d1.report.stats.threads_spawned > d8.report.stats.threads_spawned);
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
