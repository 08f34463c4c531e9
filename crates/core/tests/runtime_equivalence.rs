//! End-to-end runtime tests: the original runtime and the SupMR ingest
//! chunk pipeline must produce identical results for every application
//! shape, across chunk sizes, merge backends, and input edge cases. This
//! is the Fig. 2/Fig. 4 contract — the pipeline reorganizes *when* data
//! moves, never *what* is computed.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use supmr::api::{Emit, MapReduce};
use supmr::combiner::{Count, Identity, Sum};
use supmr::container::{ArrayContainer, HashContainer, UnlockedContainer};
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::{
    ActiveConfig, Chunking, EventKind, KeyPrefix, PoolMode, SupmrError, TraceEvent, TraceLevel,
};
use supmr_storage::{MemFileSet, MemSource, RecordFormat};
use supmr_workloads::{
    small_files_corpus, TeraGen, TextGen, TextGenConfig, TERA_KEY_LEN, TERA_RECORD_LEN,
};

// ---------------------------------------------------------------- jobs

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

/// Terasort: unique 10-byte keys, unlocked container, sorted output.
struct Sort;

impl MapReduce for Sort {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        for rec in RecordFormat::CrLf.records(split) {
            if rec.len() >= TERA_KEY_LEN {
                emit.emit(rec[..TERA_KEY_LEN].to_vec(), rec.to_vec());
            }
        }
    }

    fn reduce(&self, _key: &Vec<u8>, value: Vec<u8>) -> Vec<u8> {
        value
    }
}

/// [`Sort`] on the first `key_len` bytes of each record, with their
/// prefix: short keys repeat, and the records tell equal keys apart.
struct PrefixSort {
    key_len: usize,
}

impl MapReduce for PrefixSort {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        for rec in RecordFormat::CrLf.records(split) {
            emit.emit(rec[..self.key_len.min(rec.len())].to_vec(), rec.to_vec());
        }
    }

    fn reduce(&self, _key: &Vec<u8>, value: Vec<u8>) -> Vec<u8> {
        value
    }

    fn key_prefix(&self, key: &Vec<u8>) -> u64 {
        key.key_prefix()
    }
}

/// [`Sort`] that records the length of every split it maps.
struct SplitSort {
    lens: Arc<Mutex<Vec<usize>>>,
}

impl MapReduce for SplitSort {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        self.lens.lock().unwrap().push(split.len());
        Sort.map(split, emit);
    }

    fn reduce(&self, _key: &Vec<u8>, value: Vec<u8>) -> Vec<u8> {
        value
    }
}

/// Histogram over byte values: dense usize keys, array container.
struct ByteHistogram;

impl MapReduce for ByteHistogram {
    type Key = usize;
    type Value = u8;
    type Combiner = Count;
    type Output = u64;
    type Container = ArrayContainer<u8, Count>;

    fn make_container(&self) -> Self::Container {
        ArrayContainer::new(256)
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<usize, u8>) {
        for &b in split {
            emit.emit(b as usize, b);
        }
    }

    fn reduce(&self, _key: &usize, count: u64) -> u64 {
        count
    }
}

/// What [`ProbedSort`]'s key comparisons report while a merge round is
/// open: armed by the round's own trace events, so it sees exactly the
/// comparisons the merge makes, as the round runs.
#[derive(Default)]
struct MergeProbe {
    armed: AtomicBool,
    rounds_started: AtomicUsize,
    inside: AtomicUsize,
    peak: AtomicUsize,
    panic_in_merge: bool,
}

impl MergeProbe {
    /// The `on_event` hook that arms the probe for the span of a round.
    fn hook(self: &Arc<Self>) -> Arc<dyn Fn(&TraceEvent) + Send + Sync> {
        let probe = Arc::clone(self);
        Arc::new(move |event: &TraceEvent| match event.kind {
            EventKind::MergeRoundStart { .. } => {
                probe.rounds_started.fetch_add(1, Ordering::SeqCst);
                probe.armed.store(true, Ordering::SeqCst);
            }
            EventKind::MergeRoundEnd { .. } => probe.armed.store(false, Ordering::SeqCst),
            _ => {}
        })
    }
}

/// A TeraSort key that compares by its bytes and tells the probe.
#[derive(Clone)]
struct ProbedKey(Vec<u8>, Arc<MergeProbe>);

impl Ord for ProbedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let probe = &self.1;
        if probe.armed.load(Ordering::SeqCst) {
            assert!(!probe.panic_in_merge, "injected merge panic");
            let now = probe.inside.fetch_add(1, Ordering::SeqCst) + 1;
            probe.peak.fetch_max(now, Ordering::SeqCst);
            // Stay counted across a reschedule, so ways that may overlap do.
            std::thread::yield_now();
            probe.inside.fetch_sub(1, Ordering::SeqCst);
        }
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for ProbedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ProbedKey {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for ProbedKey {}

impl std::hash::Hash for ProbedKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// [`Sort`] over [`ProbedKey`]s, with no key prefix so every merge
/// comparison reaches the key; optionally cancels its own job from
/// inside `reduce`.
struct ProbedSort {
    probe: Arc<MergeProbe>,
    cancel_in_reduce: Option<Arc<ActiveConfig>>,
}

impl MapReduce for ProbedSort {
    type Key = ProbedKey;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<ProbedKey, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<ProbedKey, Vec<u8>>) {
        for rec in RecordFormat::CrLf.records(split) {
            if rec.len() >= TERA_KEY_LEN {
                let key = ProbedKey(rec[..TERA_KEY_LEN].to_vec(), Arc::clone(&self.probe));
                emit.emit(key, rec.to_vec());
            }
        }
    }

    fn reduce(&self, _key: &ProbedKey, value: Vec<u8>) -> Vec<u8> {
        if let Some(active) = &self.cancel_in_reduce {
            active.cancel();
        }
        value
    }
}

/// [`WordCount`] that counts the map tasks it starts and cancels its own
/// job from inside the first.
struct CancelInMap {
    active: Arc<ActiveConfig>,
    started: Arc<AtomicUsize>,
}

impl MapReduce for CancelInMap {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        if self.started.fetch_add(1, Ordering::SeqCst) == 0 {
            self.active.cancel();
        }
        WordCount.map(split, emit);
    }

    fn reduce(&self, _key: &String, acc: u64) -> u64 {
        acc
    }
}

/// [`WordCount`] whose first map task raises its own job's map width
/// from 1 to 2, and whose second waits until a third has started beside
/// it. Records the most map tasks it saw in flight.
struct WidenInMap {
    active: Arc<ActiveConfig>,
    started: AtomicUsize,
    in_flight: AtomicUsize,
    peak: Arc<AtomicUsize>,
}

impl MapReduce for WidenInMap {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        match self.started.fetch_add(1, Ordering::SeqCst) {
            0 => self.active.set_map_width(2),
            1 => {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while self.peak.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            _ => {}
        }
        WordCount.map(split, emit);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn reduce(&self, _key: &String, acc: u64) -> u64 {
        acc
    }
}

/// Run [`ProbedSort`] over 400 Teragen records on 4 workers, the reduce
/// (and so the merge) width held at `width` by an [`ActiveConfig`].
fn probed_sort(
    probe: &Arc<MergeProbe>,
    pool: PoolMode,
    merge: MergeMode,
    width: usize,
    cancel_in_reduce: bool,
) -> supmr::Result<Vec<Vec<u8>>> {
    let active = Arc::new(ActiveConfig::new(4, width, 1));
    let mut config = base_config();
    config.record_format = RecordFormat::CrLf;
    config.split_bytes = 1000;
    config.merge = merge;
    config.pool = pool;
    config.trace = TraceLevel::Wave;
    config.on_event = Some(probe.hook());
    config.active = Some(Arc::clone(&active));
    let job = ProbedSort {
        probe: Arc::clone(probe),
        cancel_in_reduce: cancel_in_reduce.then_some(active),
    };
    let data = TeraGen::new(33, 400).generate_all();
    let result = Job::new(job).config(config).run(Input::stream(MemSource::from(data)))?;
    Ok(result.pairs.into_iter().map(|(_, record)| record).collect())
}

// ------------------------------------------------------------- helpers

fn base_config() -> JobConfig {
    JobConfig { map_workers: 4, reduce_workers: 4, split_bytes: 512, ..JobConfig::default() }
}

fn text_input(bytes: usize) -> Vec<u8> {
    TextGen::new(TextGenConfig { vocabulary: 200, exponent: 1.0, line_len: 60 })
        .generate_bytes(11, bytes)
}

// --------------------------------------------------------------- tests

#[test]
fn wordcount_pipeline_equals_original_across_chunk_sizes() {
    let data = text_input(20_000);
    let baseline = Job::new(WordCount)
        .config(base_config())
        .run(Input::stream(MemSource::from(data.clone())))
        .unwrap();
    assert!(baseline.report.stats.ingest_chunks == 1 && baseline.report.stats.map_rounds == 1);

    for chunk_bytes in [256u64, 1000, 4096, 100_000] {
        let mut config = base_config();
        config.chunking = Chunking::Inter { chunk_bytes };
        let piped = Job::new(WordCount)
            .config(config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        assert_eq!(piped.sorted_pairs(), baseline.sorted_pairs(), "chunk_bytes = {chunk_bytes}");
        assert_eq!(piped.report.stats.intermediate_pairs, baseline.report.stats.intermediate_pairs);
        assert_eq!(piped.report.stats.bytes_ingested, data.len() as u64);
        if chunk_bytes < data.len() as u64 {
            assert!(piped.report.stats.ingest_chunks > 1);
            assert_eq!(piped.report.stats.map_rounds, piped.report.stats.ingest_chunks);
            assert!(piped.report.timings.is_fused());
        }
    }
}

#[test]
fn wordcount_counts_are_exact() {
    // Hand-checkable input.
    let data = b"apple pear apple\nplum apple pear\n".to_vec();
    let result = Job::new(WordCount)
        .config(base_config())
        .run(Input::stream(MemSource::from(data)))
        .unwrap();
    assert_eq!(
        result.sorted_pairs(),
        vec![("apple".to_string(), 3), ("pear".to_string(), 2), ("plum".to_string(), 1)]
    );
    assert_eq!(result.report.stats.intermediate_pairs, 6);
    assert_eq!(result.report.stats.distinct_keys, 3);
    assert_eq!(result.report.stats.output_pairs, 3);
}

#[test]
fn intra_file_pipeline_equals_original_on_file_sets() {
    let files = small_files_corpus(3, 13, 700);
    let baseline = Job::new(WordCount)
        .config(base_config())
        .run(Input::files(MemFileSet::new(files.clone())))
        .unwrap();

    for files_per_chunk in [1usize, 4, 13, 50] {
        let mut config = base_config();
        config.chunking = Chunking::Intra { files_per_chunk };
        let piped = Job::new(WordCount)
            .config(config)
            .run(Input::files(MemFileSet::new(files.clone())))
            .unwrap();
        assert_eq!(
            piped.sorted_pairs(),
            baseline.sorted_pairs(),
            "files_per_chunk = {files_per_chunk}"
        );
        let expected_chunks = 13_usize.div_ceil(files_per_chunk);
        assert_eq!(piped.report.stats.ingest_chunks as usize, expected_chunks);
    }
}

#[test]
fn sort_produces_globally_sorted_output_on_both_runtimes_and_merges() {
    let gen = TeraGen::new(21, 300);
    let data = gen.generate_all();

    let run = |chunking: Chunking, merge: MergeMode| {
        let mut config = base_config();
        config.record_format = RecordFormat::CrLf;
        config.split_bytes = 1000;
        config.chunking = chunking;
        config.merge = merge;
        Job::new(Sort).config(config).run(Input::stream(MemSource::from(data.clone()))).unwrap()
    };

    let baseline = run(Chunking::None, MergeMode::PairwiseRounds);
    let supmr = run(Chunking::Inter { chunk_bytes: 5000 }, MergeMode::PWay { ways: 4 });

    // Both sorted, same multiset.
    for r in [&baseline, &supmr] {
        assert_eq!(r.pairs.len(), 300);
        assert!(r.pairs.windows(2).all(|w| w[0].0 <= w[1].0), "output must be sorted");
    }
    assert_eq!(
        baseline.pairs.iter().map(|p| &p.0).collect::<Vec<_>>(),
        supmr.pairs.iter().map(|p| &p.0).collect::<Vec<_>>()
    );

    // The headline merge-work claim: pairwise rounds re-scan, p-way does
    // a single pass.
    assert!(baseline.report.stats.merge_rounds >= 2);
    assert_eq!(supmr.report.stats.merge_rounds, 1);
    assert!(baseline.report.stats.merge_elements_moved > supmr.report.stats.merge_elements_moved);
    assert_eq!(supmr.report.stats.merge_elements_moved, 300);
}

/// `split_bytes` bounds a split; it does not set the wave's width. A
/// chunk smaller than `width × split_bytes` is cut into at least `width`
/// splits (never below 64 KiB), an explicit `split_bytes` under that
/// floor stands, and every split is still whole CRLF records.
#[test]
fn waves_cut_chunks_finer_than_split_bytes_to_fill_the_pool() {
    let kib = 1024;
    let data = TeraGen::new(21, 12_000).generate_all();
    let expected = Job::new(Sort)
        .config(JobConfig { record_format: RecordFormat::CrLf, ..base_config() })
        .run(Input::stream(MemSource::from(data.clone())))
        .unwrap()
        .sorted_pairs();
    // (chunking, split_bytes, fewest tasks in a round but the last,
    // longest split)
    let cases = [
        (Chunking::None, 1 << 20, 4, 300 * kib),
        (Chunking::Inter { chunk_bytes: 512 * kib as u64 }, 1 << 20, 4, 129 * kib),
        (Chunking::Inter { chunk_bytes: 200 * kib as u64 }, 1 << 20, 3, 64 * kib + 100),
        (Chunking::Inter { chunk_bytes: 256 * kib as u64 }, 10_000, 26, 10_000 + 100),
    ];
    for (chunking, split_bytes, fewest, longest) in cases {
        let case = format!("{chunking:?}, split {split_bytes}");
        let lens = Arc::default();
        let config = JobConfig {
            record_format: RecordFormat::CrLf,
            split_bytes,
            chunking,
            merge: MergeMode::PWay { ways: 4 },
            trace: TraceLevel::Wave,
            ..base_config()
        };
        let result = Job::new(SplitSort { lens: Arc::clone(&lens) })
            .config(config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        assert_eq!(result.pairs, expected, "{case}");
        let trace = result.report.trace.as_ref().expect("traced");
        let waves: Vec<u64> = trace
            .ordered_events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MapWaveStart { tasks, .. } => Some(tasks),
                _ => None,
            })
            .collect();
        let (_, full) = waves.split_last().expect("at least one wave");
        let full = if full.is_empty() { &waves[..] } else { full };
        assert!(full.iter().all(|&tasks| tasks >= fewest), "{case}: tasks per round {waves:?}");
        let lens = lens.lock().unwrap();
        assert_eq!(lens.len() as u64, result.report.stats.map_tasks, "{case}");
        for &len in lens.iter() {
            assert_eq!(len % TERA_RECORD_LEN, 0, "{case}: a split of {len} bytes tears a record");
            assert!(len <= longest, "{case}: a split of {len} bytes");
        }
    }
}

/// The p-way phase sorts the reduce partitions in one partitioned pass;
/// the pairwise baseline sorts each into a run and merges the runs.
/// Byte for byte they are the same stable sort — equal keys in map
/// order — whether keys are unique or a handful repeated.
#[test]
fn pway_equals_pairwise_rounds_byte_for_byte_with_repeated_keys() {
    let data = TeraGen::new(8, 900).generate_all();
    for key_len in [1, 2, TERA_KEY_LEN] {
        // One map worker: runs reach the container in split order.
        let mut expected: Vec<(Vec<u8>, Vec<u8>)> = RecordFormat::CrLf
            .records(&data)
            .map(|rec| (rec[..key_len].to_vec(), rec.to_vec()))
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        for chunking in [Chunking::None, Chunking::Inter { chunk_bytes: 7000 }] {
            for merge in [MergeMode::PairwiseRounds, MergeMode::PWay { ways: 3 }] {
                let config = JobConfig {
                    map_workers: 1,
                    reduce_workers: 3,
                    split_bytes: 2000,
                    record_format: RecordFormat::CrLf,
                    chunking,
                    merge,
                    ..JobConfig::default()
                };
                let sorted = Job::new(PrefixSort { key_len })
                    .config(config)
                    .run(Input::stream(MemSource::from(data.clone())))
                    .unwrap();
                assert_eq!(sorted.pairs, expected, "{key_len}-byte keys, {chunking:?}, {merge:?}");
                if matches!(merge, MergeMode::PWay { .. }) {
                    assert_eq!(sorted.report.stats.merge_rounds, 1);
                    assert_eq!(sorted.report.stats.merge_elements_moved, 900);
                }
            }
        }
    }
}

#[test]
fn histogram_on_array_container_both_runtimes() {
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let mut config = base_config();
    config.record_format = RecordFormat::None;
    let baseline = Job::new(ByteHistogram)
        .config(config.clone())
        .run(Input::stream(MemSource::from(data.clone())))
        .unwrap();
    config.chunking = Chunking::Inter { chunk_bytes: 777 };
    let piped =
        Job::new(ByteHistogram).config(config).run(Input::stream(MemSource::from(data))).unwrap();
    assert_eq!(baseline.sorted_pairs(), piped.sorted_pairs());
    let total: u64 = baseline.pairs.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 10_000);
    assert_eq!(baseline.report.stats.distinct_keys, 251);
}

#[test]
fn empty_inputs_produce_empty_results() {
    let r = Job::new(WordCount)
        .config(base_config())
        .run(Input::stream(MemSource::from(Vec::new())))
        .unwrap();
    assert!(r.pairs.is_empty());
    assert_eq!(r.report.stats.bytes_ingested, 0);

    let mut config = base_config();
    config.chunking = Chunking::Inter { chunk_bytes: 64 };
    let r =
        Job::new(WordCount).config(config).run(Input::stream(MemSource::from(Vec::new()))).unwrap();
    assert!(r.pairs.is_empty());
    assert_eq!(r.report.stats.ingest_chunks, 0);

    let mut config = base_config();
    config.chunking = Chunking::Intra { files_per_chunk: 3 };
    let r = Job::new(WordCount).config(config).run(Input::files(MemFileSet::new(vec![]))).unwrap();
    assert!(r.pairs.is_empty());
}

#[test]
fn single_record_larger_than_chunk_size() {
    // One 5KB line with 100-byte chunks: the chunker must deliver the
    // whole record in one chunk and the job must still count correctly.
    let mut data = vec![b'x'; 5000];
    data.push(b'\n');
    data.extend_from_slice(b"tail word\n");
    let mut config = base_config();
    config.chunking = Chunking::Inter { chunk_bytes: 100 };
    let r = Job::new(WordCount).config(config).run(Input::stream(MemSource::from(data))).unwrap();
    let pairs = r.sorted_pairs();
    assert_eq!(pairs.len(), 3); // "x...x", "tail", "word"
    assert!(pairs.iter().any(|(k, c)| k == "tail" && *c == 1));
}

#[test]
fn mismatched_chunking_and_input_shape_is_an_error() {
    let mut config = base_config();
    config.chunking = Chunking::Intra { files_per_chunk: 2 };
    let err = Job::new(WordCount)
        .config(config)
        .run(Input::stream(MemSource::from(vec![1u8])))
        .expect_err("stream input with intra-file chunking must fail");
    assert!(matches!(err, supmr::SupmrError::InvalidConfig { .. }), "{err:?}");

    let mut config = base_config();
    config.chunking = Chunking::Inter { chunk_bytes: 64 };
    let err = Job::new(WordCount)
        .config(config)
        .run(Input::files(MemFileSet::new(vec![])))
        .expect_err("file input with inter-file chunking must fail");
    assert!(matches!(err, supmr::SupmrError::InvalidConfig { .. }), "{err:?}");
}

#[test]
fn invalid_configs_are_rejected_before_running() {
    for config in [
        JobConfig { map_workers: 0, ..base_config() },
        JobConfig { split_bytes: 0, ..base_config() },
        JobConfig { chunking: Chunking::Inter { chunk_bytes: 0 }, ..base_config() },
        JobConfig { merge: MergeMode::PWay { ways: 0 }, ..base_config() },
    ] {
        assert!(Job::new(WordCount)
            .config(config)
            .run(Input::stream(MemSource::from(vec![1u8])))
            .is_err());
    }
}

#[test]
fn pipeline_counts_rounds_and_threads() {
    let data = text_input(10_000);
    let mut config = base_config();
    config.chunking = Chunking::Inter { chunk_bytes: 1000 };
    let r = Job::new(WordCount).config(config).run(Input::stream(MemSource::from(data))).unwrap();
    assert!(r.report.stats.ingest_chunks >= 9);
    assert_eq!(r.report.stats.map_rounds, r.report.stats.ingest_chunks);
    // Threads: at least one ingest thread per round plus map waves.
    assert!(r.report.stats.threads_spawned as u32 >= 2 * r.report.stats.map_rounds);
    assert!(r.report.stats.map_tasks >= r.report.stats.map_rounds as u64);
}

#[test]
fn persistent_pool_matches_wave_per_round_on_streams() {
    // Both pool modes must compute byte-identical results for every
    // stream chunking strategy and both runtimes (None = original).
    let data = text_input(20_000);
    let strategies = [
        Chunking::None,
        Chunking::Inter { chunk_bytes: 1000 },
        Chunking::Inter { chunk_bytes: 4096 },
    ];
    for chunking in strategies {
        let run = |pool: PoolMode| {
            let mut config = base_config();
            config.chunking = chunking;
            config.pool = pool;
            Job::new(WordCount)
                .config(config)
                .run(Input::stream(MemSource::from(data.clone())))
                .unwrap()
        };
        let wave = run(PoolMode::WavePerRound);
        let pooled = run(PoolMode::Persistent);
        assert_eq!(pooled.sorted_pairs(), wave.sorted_pairs(), "chunking = {chunking:?}");
        assert_eq!(pooled.report.stats.map_tasks, wave.report.stats.map_tasks);
        assert_eq!(pooled.report.stats.bytes_ingested, wave.report.stats.bytes_ingested);
        assert_eq!(wave.report.stats.threads_reused, 0, "waves never reuse threads");
        assert!(
            pooled.report.stats.threads_reused > 0,
            "pooled job must report reused threads (chunking = {chunking:?})"
        );
    }
}

#[test]
fn persistent_pool_matches_wave_per_round_on_file_sets() {
    let files = small_files_corpus(7, 11, 600);
    for chunking in [
        Chunking::None,
        Chunking::Intra { files_per_chunk: 2 },
        Chunking::Hybrid { chunk_bytes: 2000 },
    ] {
        let run = |pool: PoolMode| {
            let mut config = base_config();
            config.chunking = chunking;
            config.pool = pool;
            Job::new(WordCount)
                .config(config)
                .run(Input::files(MemFileSet::new(files.clone())))
                .unwrap()
        };
        let wave = run(PoolMode::WavePerRound);
        let pooled = run(PoolMode::Persistent);
        assert_eq!(pooled.sorted_pairs(), wave.sorted_pairs(), "chunking = {chunking:?}");
        assert!(pooled.report.stats.threads_reused > 0);
    }
}

#[test]
fn persistent_pool_matches_wave_for_sort_merges_and_prefetch() {
    let data = TeraGen::new(33, 400).generate_all();
    for merge in [MergeMode::PairwiseRounds, MergeMode::PWay { ways: 4 }] {
        for prefetch_depth in [1usize, 4] {
            let run = |pool: PoolMode| {
                let mut config = base_config();
                config.record_format = RecordFormat::CrLf;
                config.split_bytes = 1000;
                config.chunking = Chunking::Inter { chunk_bytes: 5000 };
                config.merge = merge;
                config.prefetch_depth = prefetch_depth;
                config.pool = pool;
                Job::new(Sort)
                    .config(config)
                    .run(Input::stream(MemSource::from(data.clone())))
                    .unwrap()
            };
            let wave = run(PoolMode::WavePerRound);
            let pooled = run(PoolMode::Persistent);
            assert_eq!(pooled.pairs, wave.pairs, "merge = {merge:?}, prefetch = {prefetch_depth}");
            assert!(pooled.report.stats.threads_reused > 0);
        }
    }
}

#[test]
fn sort_is_identical_and_its_merge_capped_across_pools_backends_and_widths() {
    let mut expected: Option<Vec<Vec<u8>>> = None;
    for pool in [PoolMode::WavePerRound, PoolMode::Persistent] {
        let merges = [1, 2, 4, 8].map(|ways| MergeMode::PWay { ways });
        for merge in [MergeMode::PairwiseRounds].into_iter().chain(merges) {
            for width in [1usize, 2, 4] {
                let probe = Arc::new(MergeProbe::default());
                let sorted = probed_sort(&probe, pool, merge, width, false).unwrap();
                let case = format!("{pool} pool, {merge:?}, width {width}");
                assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "{case}: sorted");
                assert_eq!(expected.get_or_insert_with(|| sorted.clone()), &sorted, "{case}");
                // The comparisons ran inside the round's span — it is
                // emitted as the round runs — and never on more threads
                // than the reduce width allows.
                let peak = probe.peak.load(Ordering::SeqCst);
                assert!((1..=width).contains(&peak), "{case}: {peak} threads merged at once");
            }
        }
    }
}

#[test]
fn cancel_in_the_first_map_task_starts_no_task_after_it() {
    // 256 KiB in 4 KiB splits: 64 map tasks in one wave, or 16 in each of
    // four 64 KiB chunks. Only tasks already running beside the first may
    // start; every later one sees the flag.
    const WIDTH: usize = 2;
    let data = text_input(256 * 1024);
    for chunking in [Chunking::None, Chunking::Inter { chunk_bytes: 64 * 1024 }] {
        for pool in [PoolMode::WavePerRound, PoolMode::Persistent] {
            let active = Arc::new(ActiveConfig::new(WIDTH, WIDTH, 1));
            let started = Arc::new(AtomicUsize::new(0));
            let config = JobConfig {
                map_workers: WIDTH,
                reduce_workers: WIDTH,
                split_bytes: 4096,
                chunking,
                pool,
                active: Some(Arc::clone(&active)),
                ..JobConfig::default()
            };
            let job = CancelInMap { active, started: Arc::clone(&started) };
            let result =
                Job::new(job).config(config).run(Input::stream(MemSource::from(data.clone())));
            assert!(matches!(result, Err(SupmrError::Cancelled)), "{chunking:?} {pool:?}");
            let started = started.load(Ordering::SeqCst);
            assert!(started <= WIDTH, "{chunking:?} {pool:?}: {started} map tasks started");
        }
    }
}

#[test]
fn map_width_raised_mid_wave_widens_the_running_wave_under_a_share_cap() {
    // One unchunked wave of 16 splits on a two-thread pool, started at
    // map width 1 under a share cap of 2: a governor's raise must reach
    // the wave already running, not wait for the next one.
    let data = text_input(64 * 1024);
    let active = Arc::new(ActiveConfig::new(1, 1, 1));
    active.set_share_cap(2);
    let config = JobConfig {
        map_workers: 2,
        reduce_workers: 2,
        split_bytes: 4096,
        chunking: Chunking::None,
        pool: PoolMode::Persistent,
        active: Some(Arc::clone(&active)),
        ..JobConfig::default()
    };
    let peak = Arc::new(AtomicUsize::new(0));
    let job = WidenInMap {
        active,
        started: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
        peak: Arc::clone(&peak),
    };
    let result =
        Job::new(job).config(config).run(Input::stream(MemSource::from(data))).expect("widened");
    assert!(!result.pairs.is_empty());
    assert_eq!(peak.load(Ordering::SeqCst), 2, "the raise widened the running wave");
}

#[test]
fn cancel_during_reduce_stops_before_any_merge_round() {
    for merge in [MergeMode::PairwiseRounds, MergeMode::PWay { ways: 4 }] {
        let probe = Arc::new(MergeProbe::default());
        let result = probed_sort(&probe, PoolMode::Persistent, merge, 4, true);
        assert!(matches!(result, Err(SupmrError::Cancelled)), "{merge:?}: {result:?}");
        assert_eq!(probe.rounds_started.load(Ordering::SeqCst), 0, "{merge:?}: merge rounds");
    }
}

#[test]
fn panic_in_a_merge_way_fails_the_job_like_a_map_panic() {
    for pool in [PoolMode::WavePerRound, PoolMode::Persistent] {
        let probe = Arc::new(MergeProbe { panic_in_merge: true, ..MergeProbe::default() });
        match probed_sort(&probe, pool, MergeMode::PWay { ways: 4 }, 4, false) {
            Err(SupmrError::TaskPanic { payload }) => {
                assert!(payload.contains("injected merge panic"), "{pool}: {payload}")
            }
            other => panic!("{pool}: expected a task panic, got {other:?}"),
        }
    }
}

#[test]
fn persistent_pool_spawns_once_per_job() {
    // A multi-chunk job: wave mode pays a spawn per wave per round,
    // persistent mode pays the pool once plus per-round ingest threads.
    let data = text_input(20_000);
    let run = |pool: PoolMode| {
        let mut config = base_config();
        config.chunking = Chunking::Inter { chunk_bytes: 1000 };
        config.pool = pool;
        Job::new(WordCount)
            .config(config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap()
    };
    let wave = run(PoolMode::WavePerRound);
    let pooled = run(PoolMode::Persistent);
    assert!(wave.report.stats.ingest_chunks > 5);
    assert!(
        pooled.report.stats.threads_spawned < wave.report.stats.threads_spawned,
        "pool must spawn fewer threads ({} vs {})",
        pooled.report.stats.threads_spawned,
        wave.report.stats.threads_spawned
    );
    // Pool size (4) + one ingest thread per round.
    assert_eq!(pooled.report.stats.threads_spawned, 4 + u64::from(pooled.report.stats.map_rounds));
}

#[test]
fn persistent_pool_handles_empty_input() {
    let mut config = base_config();
    config.pool = PoolMode::Persistent;
    let r =
        Job::new(WordCount).config(config).run(Input::stream(MemSource::from(Vec::new()))).unwrap();
    assert!(r.pairs.is_empty());

    let mut config = base_config();
    config.pool = PoolMode::Persistent;
    config.chunking = Chunking::Inter { chunk_bytes: 64 };
    let r =
        Job::new(WordCount).config(config).run(Input::stream(MemSource::from(Vec::new()))).unwrap();
    assert!(r.pairs.is_empty());
}

#[test]
fn merge_modes_agree_on_content() {
    let gen = TeraGen::new(5, 200);
    let data = gen.generate_all();
    let mut keys_by_mode = Vec::new();
    for merge in [MergeMode::Unsorted, MergeMode::PairwiseRounds, MergeMode::PWay { ways: 3 }] {
        let mut config = base_config();
        config.record_format = RecordFormat::CrLf;
        config.merge = merge;
        let r = Job::new(Sort)
            .config(config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        let mut keys: Vec<Vec<u8>> = r.pairs.into_iter().map(|(k, _)| k).collect();
        if matches!(merge, MergeMode::Unsorted) {
            keys.sort();
        }
        keys_by_mode.push(keys);
    }
    assert_eq!(keys_by_mode[0], keys_by_mode[1]);
    assert_eq!(keys_by_mode[1], keys_by_mode[2]);
}

#[test]
fn utilization_sampling_attaches_a_trace() {
    let data = text_input(30_000);
    let mut config = base_config();
    config.sample_utilization = Some(std::time::Duration::from_millis(5));
    let r = Job::new(WordCount).config(config).run(Input::stream(MemSource::from(data))).unwrap();
    let trace = r.report.util.expect("trace requested");
    if std::path::Path::new("/proc/stat").exists() {
        // The job may be too fast for many samples, but the plumbing
        // must deliver a well-formed trace object.
        for s in trace.samples() {
            assert!(s.total() <= 100.0 + 1e-6);
        }
    }
}
