//! Out-of-core execution: jobs run under a memory budget must spill,
//! produce output identical to an unbounded run, surface spill-run I/O
//! faults as typed errors (never panics or hangs), and leave no run
//! files behind — on success, failure, or task panic.

use proptest::collection::vec;
use proptest::prelude::*;
use std::io::ErrorKind;
use std::sync::Arc;
use supmr::api::{Emit, MapReduce};
use supmr::combiner::{Identity, Sum};
use supmr::container::{HashContainer, UnlockedContainer};
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::{Chunking, PairCodec, SupmrError};
use supmr_metrics::{MetricValue, Registry};
use supmr_storage::{FaultyRunStore, MemRunStore, MemSource, RunStore};

/// WordCount with a spill codec: `u32 LE` word length, word, `u64 LE`
/// count. Folding container, so spilled runs keep folding on merge.
struct SpillingWordCount;

impl MapReduce for SpillingWordCount {
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

    fn spill_codec(&self) -> Option<PairCodec<String, u64>> {
        fn encode(key: &String, count: &u64, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            buf.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
        fn decode(rec: &[u8]) -> Option<(String, u64)> {
            let klen = u32::from_le_bytes(rec.get(..4)?.try_into().ok()?) as usize;
            let key = String::from_utf8(rec.get(4..4 + klen)?.to_vec()).ok()?;
            let count = u64::from_le_bytes(rec.get(4 + klen..4 + klen + 8)?.try_into().ok()?);
            (rec.len() == 4 + klen + 8).then_some((key, count))
        }
        // `&String` is forced by `PairCodec`'s fn-pointer signature.
        #[allow(clippy::ptr_arg)]
        fn size_hint(key: &String, _count: &u64) -> usize {
            std::mem::size_of::<String>() + key.len() + 8
        }
        Some(PairCodec { encode, decode, size_hint })
    }
}

/// WordCount without a codec, for the must-reject configuration test.
struct CodeclessWordCount;

impl MapReduce for CodeclessWordCount {
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
}

/// A tiny identity-combined sorter over newline records (key = first 3
/// bytes), exercising the unlocked container's spill path, which must
/// NOT fold duplicate keys across runs.
struct MiniSort;

impl MapReduce for MiniSort {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        for rec in split.split(|&b| b == b'\n').filter(|r| !r.is_empty()) {
            emit.emit(rec[..rec.len().min(3)].to_vec(), rec.to_vec());
        }
    }

    fn reduce(&self, _k: &Vec<u8>, rec: Vec<u8>) -> Vec<u8> {
        rec
    }

    fn spill_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        // `&Vec` is forced by `PairCodec`'s fn-pointer signature.
        #[allow(clippy::ptr_arg)]
        fn encode(key: &Vec<u8>, rec: &Vec<u8>, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            buf.extend_from_slice(key);
            buf.extend_from_slice(rec);
        }
        fn decode(rec: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
            let klen = u32::from_le_bytes(rec.get(..4)?.try_into().ok()?) as usize;
            Some((rec.get(4..4 + klen)?.to_vec(), rec.get(4 + klen..)?.to_vec()))
        }
        #[allow(clippy::ptr_arg)]
        fn size_hint(key: &Vec<u8>, rec: &Vec<u8>) -> usize {
            2 * std::mem::size_of::<Vec<u8>>() + key.len() + rec.len()
        }
        Some(PairCodec { encode, decode, size_hint })
    }
}

fn base_config() -> JobConfig {
    JobConfig {
        map_workers: 3,
        reduce_workers: 2,
        split_bytes: 16,
        merge: MergeMode::PWay { ways: 4 },
        ..JobConfig::default()
    }
}

fn budgeted_config(budget: u64, store: &MemRunStore) -> JobConfig {
    let mut config = base_config();
    config.memory_budget = Some(budget);
    config.spill_store = Some(Arc::new(store.clone()));
    config
}

/// Newline text over a small alphabet so keys collide and fold.
fn arb_text() -> impl Strategy<Value = Vec<u8>> {
    vec(vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b' ')], 0..30), 0..60).prop_map(
        |lines| {
            let mut out = Vec::new();
            for l in lines {
                out.extend_from_slice(&l);
                out.push(b'\n');
            }
            out
        },
    )
}

/// Enough distinct words that any byte-scale budget forces spills.
fn wide_corpus() -> Vec<u8> {
    let mut text = Vec::new();
    for i in 0..400u32 {
        text.extend_from_slice(
            format!("word{:04} common{} word{:04}\n", i, i % 7, i / 2).as_bytes(),
        );
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn budgeted_wordcount_matches_unbounded(data in arb_text(), budget in 1u64..4096) {
        let unbounded = Job::new(SpillingWordCount).config(base_config()).run(Input::stream(MemSource::from(data.clone()))).unwrap();
        let store = MemRunStore::new();
        let spilled = Job::new(SpillingWordCount).config(budgeted_config(budget, &store)).run(Input::stream(MemSource::from(data))).unwrap();
        prop_assert_eq!(spilled.sorted_pairs(), unbounded.sorted_pairs());
        prop_assert!(store.is_empty(), "run files must be deleted after the merge");
    }

    #[test]
    fn budgeted_sort_matches_unbounded(data in arb_text(), budget in 1u64..4096) {
        let unbounded = Job::new(MiniSort).config(base_config()).run(Input::stream(MemSource::from(data.clone()))).unwrap();
        let store = MemRunStore::new();
        let spilled = Job::new(MiniSort).config(budgeted_config(budget, &store)).run(Input::stream(MemSource::from(data))).unwrap();
        // Duplicate keys make equal-key order path-dependent; compare
        // the full (key, record) multiset.
        let mut a = unbounded.pairs;
        let mut b = spilled.pairs;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        prop_assert!(store.is_empty(), "run files must be deleted after the merge");
    }
}

/// MiniSort corpora by key shape: `n` newline records whose first three
/// bytes are the key, the rest a payload that tells records apart.
fn sort_corpus(n: u32, key_of: impl Fn(u32) -> u32) -> Vec<u8> {
    let mut text = Vec::new();
    for i in 0..n {
        let k = key_of(i) % 17_576;
        let key = [b'a' + (k / 676) as u8, b'a' + (k / 26 % 26) as u8, b'a' + (k % 26) as u8];
        text.extend_from_slice(&key);
        text.extend_from_slice(format!(":payload-{i:05}\n").as_bytes());
    }
    text
}

/// Range-partitioned spill must not show in the output: for every key
/// shape that stresses the splitters, every reduce width and a budget
/// from "every absorb spills" up, the budgeted sort is the unbounded
/// sort — byte for byte where keys are unique, and as a key-ordered
/// permutation of the same pairs where equal keys leave their relative
/// order to the path.
#[test]
fn range_partitioned_sort_matches_unbounded_for_every_key_shape() {
    // 7919 is coprime to 26^3, so `i * 7919` visits distinct keys.
    type KeyOf = fn(u32) -> u32;
    let shapes: [(&str, bool, KeyOf); 5] = [
        ("unique, shuffled", true, |i| i * 7919),
        ("pre-sorted", true, |i| i * 20),
        ("reverse-sorted", true, |i| (700 - i) * 20),
        ("five keys, duplicates on both sides of every splitter", false, |i| (i % 5) * 3000),
        ("all equal", false, |_| 4242),
    ];
    for (shape, unique, key_of) in shapes {
        let data = sort_corpus(700, key_of);
        for reduce_workers in [1usize, 2, 3, 4, 7] {
            let mut unbounded_cfg = base_config();
            unbounded_cfg.reduce_workers = reduce_workers;
            let unbounded = Job::new(MiniSort)
                .config(unbounded_cfg)
                .run(Input::stream(MemSource::from(data.clone())))
                .unwrap();
            for budget in [1u64, 900, 6000] {
                let what = format!("{shape}, {reduce_workers} reduce workers, budget {budget}");
                let store = MemRunStore::new();
                let mut cfg = budgeted_config(budget, &store);
                cfg.reduce_workers = reduce_workers;
                let spilled = Job::new(MiniSort)
                    .config(cfg)
                    .run(Input::stream(MemSource::from(data.clone())))
                    .unwrap();
                assert!(spilled.report.stats.spill_runs > 0, "{what}: must spill");
                assert!(store.is_empty(), "{what}: run files must be deleted after the merge");
                assert!(
                    spilled.report.stats.reduce_tasks <= reduce_workers as u64,
                    "{what}: at most one external merge per key range"
                );
                // (A budget of 1 samples its splitters from the one
                // record resident at the first spill: degenerate.)
                if shape.starts_with("unique") && reduce_workers > 1 && budget > 1 {
                    assert!(
                        spilled.report.stats.reduce_tasks > 1,
                        "{what}: spread keys must reduce in more than one range"
                    );
                }
                assert!(
                    spilled.pairs.windows(2).all(|w| w[0].0 <= w[1].0),
                    "{what}: output must be in key order"
                );
                if unique {
                    assert_eq!(spilled.pairs, unbounded.pairs, "{what}");
                } else {
                    let (mut a, mut b) = (unbounded.pairs.clone(), spilled.pairs);
                    a.sort();
                    b.sort();
                    assert_eq!(a, b, "{what}");
                }
            }
        }
    }
}

/// A map task's run starts out sized for the run absorbed before it, so
/// after a split of many short records the runs of few long records hold
/// far more capacity than pairs. The ledger charges pairs: a budget the
/// pairs fit in does not spill, and the output is the unbounded one.
#[test]
fn run_capacity_carried_from_the_last_run_is_not_charged() {
    // One 4 KiB split of 5-byte records (~800 pairs, ~45 KB by the
    // codec's size hint), then ten of two 2000-byte records each
    // (~41 KB): 86 KB of pairs under a 250 KB budget. Those ten runs'
    // spare capacity alone — 800 pair slots each — would be 380 KB.
    let mut data = Vec::new();
    for i in 0..800u32 {
        data.extend_from_slice(format!("{:03}:\n", i % 1000).as_bytes());
    }
    for i in 0..20u32 {
        data.extend_from_slice(format!("z{i:02}:{}\n", "x".repeat(2043)).as_bytes());
    }
    let mut config = base_config();
    config.map_workers = 1;
    config.split_bytes = 4096;
    let unbounded = Job::new(MiniSort)
        .config(config.clone())
        .run(Input::stream(MemSource::from(data.clone())))
        .unwrap();
    let store = MemRunStore::new();
    config.memory_budget = Some(250_000);
    config.spill_store = Some(Arc::new(store.clone()));
    let budgeted =
        Job::new(MiniSort).config(config).run(Input::stream(MemSource::from(data))).unwrap();
    assert_eq!(budgeted.report.stats.spill_runs, 0, "86 KB of pairs fit a 250 KB budget");
    assert_eq!(budgeted.pairs.len(), 820);
    assert_eq!(budgeted.pairs, unbounded.pairs);
}

#[test]
fn tiny_budget_actually_spills_and_reports_it() {
    let store = MemRunStore::new();
    let r = Job::new(SpillingWordCount)
        .config(budgeted_config(64, &store))
        .run(Input::stream(MemSource::from(wide_corpus())))
        .unwrap();
    assert!(r.report.stats.spill_runs > 0, "64-byte budget must spill");
    assert!(r.report.stats.spill_bytes > 0);
    let json = r.report.to_json().render();
    assert!(json.contains("\"spill_runs\""), "report JSON carries spill stats: {json}");
    assert!(store.is_empty(), "run files must be deleted after the merge");
}

/// Whichever reduce path a job takes, it samples
/// `supmr.reduce.partition_us` once per reduce task — and a spilled
/// job's external merges drain their in-memory remainders under
/// `supmr.container.drain_us` like any other drain.
#[test]
fn both_reduce_paths_sample_partition_and_drain_latency() {
    fn samples<J: MapReduce>(job: J, data: Vec<u8>, budget: Option<u64>) -> (u64, u64, u64, u64) {
        let registry = Registry::new();
        let store = MemRunStore::new();
        let mut config = match budget {
            Some(budget) => budgeted_config(budget, &store),
            None => base_config(),
        };
        config.metrics = Some(registry.clone());
        let r = Job::new(job).config(config).run(Input::stream(MemSource::from(data))).unwrap();
        let count = |name: &str| {
            let snap = registry.snapshot();
            let entry = snap.entries.iter().find(|e| e.name == name);
            match entry.map(|e| &e.value) {
                Some(MetricValue::Histogram(h)) => h.count,
                other => panic!("{name} must be a registered histogram, got {other:?}"),
            }
        };
        (
            r.report.stats.spill_runs,
            r.report.stats.reduce_tasks,
            count("supmr.reduce.partition_us"),
            count("supmr.container.drain_us"),
        )
    }
    type Run = fn(Option<u64>) -> (u64, u64, u64, u64);
    let shapes: [(&str, Run, u64); 2] = [
        ("sort", |budget| samples(MiniSort, sort_corpus(700, |i| i * 7919), budget), 6000),
        ("wordcount", |budget| samples(SpillingWordCount, wide_corpus(), budget), 4096),
    ];
    for (shape, run, budget) in shapes {
        let (runs, tasks, partition_samples, drain_samples) = run(None);
        assert_eq!(runs, 0, "{shape}: an unbounded run stays in memory");
        assert!(tasks > 0, "{shape}");
        assert_eq!(partition_samples, tasks, "{shape}, unbounded");
        assert_eq!(drain_samples, tasks, "{shape}, unbounded: one drain per partition");

        let (runs, tasks, partition_samples, drain_samples) = run(Some(budget));
        assert!(runs > 0, "{shape}: a {budget}-byte budget must spill");
        assert!(tasks > 0, "{shape}");
        assert_eq!(partition_samples, tasks, "{shape}, budgeted");
        assert!(drain_samples > 0, "{shape}, budgeted: the remainders it drains are sampled");
    }
}

#[test]
fn unbudgeted_jobs_report_zero_spill() {
    let r = Job::new(SpillingWordCount)
        .config(base_config())
        .run(Input::stream(MemSource::from(wide_corpus())))
        .unwrap();
    assert_eq!(r.report.stats.spill_runs, 0);
    assert_eq!(r.report.stats.spill_bytes, 0);
}

#[test]
fn budgeted_pipeline_runtime_matches_unbounded() {
    let data = wide_corpus();
    let mut unbounded_cfg = base_config();
    unbounded_cfg.chunking = Chunking::Inter { chunk_bytes: 512 };
    let unbounded = Job::new(SpillingWordCount)
        .config(unbounded_cfg)
        .run(Input::stream(MemSource::from(data.clone())))
        .unwrap();
    let store = MemRunStore::new();
    let mut cfg = budgeted_config(128, &store);
    cfg.chunking = Chunking::Inter { chunk_bytes: 512 };
    let spilled =
        Job::new(SpillingWordCount).config(cfg).run(Input::stream(MemSource::from(data))).unwrap();
    assert!(spilled.report.stats.spill_runs > 0);
    assert_eq!(spilled.sorted_pairs(), unbounded.sorted_pairs());
    assert!(store.is_empty());
}

#[test]
fn budget_without_codec_is_rejected() {
    let mut config = base_config();
    config.memory_budget = Some(1024);
    let err = Job::new(CodeclessWordCount)
        .config(config)
        .run(Input::stream(MemSource::from(wide_corpus())))
        .unwrap_err();
    assert!(matches!(err, SupmrError::InvalidConfig { .. }), "got {err:?}");
}

#[test]
fn zero_budget_is_rejected() {
    let mut config = base_config();
    config.memory_budget = Some(0);
    let err = Job::new(SpillingWordCount)
        .config(config)
        .run(Input::stream(MemSource::from(vec![b'a'])))
        .unwrap_err();
    assert!(matches!(err, SupmrError::InvalidConfig { .. }), "got {err:?}");
}

#[test]
fn run_write_faults_surface_as_ingest_errors() {
    let store = MemRunStore::new();
    let faulty = FaultyRunStore::fail_writes_after(Arc::new(store.clone()), 0, ErrorKind::Other);
    let mut config = base_config();
    config.memory_budget = Some(64);
    config.spill_store = Some(Arc::new(faulty));
    let err = Job::new(SpillingWordCount)
        .config(config)
        .run(Input::stream(MemSource::from(wide_corpus())))
        .unwrap_err();
    assert!(matches!(err, SupmrError::Ingest { .. }), "got {err:?}");
    assert!(store.is_empty(), "partial runs must be cleaned up after a write fault");
}

#[test]
fn run_read_faults_surface_as_typed_errors_not_panics() {
    let store = MemRunStore::new();
    // Writes succeed (runs land intact), reads die partway through the
    // external merge.
    let faulty = FaultyRunStore::fail_reads_after(Arc::new(store.clone()), 32, ErrorKind::Other);
    let mut config = base_config();
    config.memory_budget = Some(64);
    config.spill_store = Some(Arc::new(faulty));
    let err = Job::new(SpillingWordCount)
        .config(config)
        .run(Input::stream(MemSource::from(wide_corpus())))
        .unwrap_err();
    assert!(
        matches!(err, SupmrError::Merge { .. } | SupmrError::Ingest { .. }),
        "read faults must come back typed, got {err:?}"
    );
    assert!(store.is_empty(), "run files must be cleaned up after a read fault");
}

/// Serves runs with one bit flipped in the middle: bit rot between the
/// spill and its read-back.
struct RottingStore(MemRunStore);

impl RunStore for RottingStore {
    fn create(&self, name: &str) -> std::io::Result<Box<dyn std::io::Write + Send>> {
        self.0.create(name)
    }

    fn open(&self, name: &str) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        let mut bytes = Vec::new();
        self.0.open(name)?.read_to_end(&mut bytes)?;
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x10;
        Ok(Box::new(std::io::Cursor::new(bytes)))
    }

    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.0.remove(name)
    }
}

/// The run-store fault cases again, on both containers, with several
/// map workers spilling at once and several key ranges (or hash
/// partitions) merging at once: a disk that fills up mid-job, a write
/// that dies inside a run, and a run that comes back corrupt must each
/// surface as a typed error — never a panic — and leave no run behind.
#[test]
fn run_store_faults_under_concurrent_spill_and_wide_reduce_stay_typed() {
    fn check<J: MapReduce>(job: fn() -> J, data: &[u8], budget: u64) {
        let config = |store: Arc<dyn RunStore>| {
            let mut config = base_config();
            config.map_workers = 4;
            config.reduce_workers = 3;
            config.memory_budget = Some(budget);
            config.spill_store = Some(store);
            config
        };
        let run = |store: Arc<dyn RunStore>| {
            Job::new(job()).config(config(store)).run(Input::stream(MemSource::from(data.to_vec())))
        };
        // How much a clean run writes, to place the faults inside it.
        let clean = MemRunStore::new();
        let written = run(Arc::new(clean.clone())).unwrap().report.stats.spill_bytes;
        assert!(written > 400, "the job must spill for the faults to land: {written}");

        for (what, fail_at) in [("ENOSPC after some runs", written / 2), ("short write", 13)] {
            let store = MemRunStore::new();
            let faulty = FaultyRunStore::fail_writes_after(
                Arc::new(store.clone()),
                fail_at,
                ErrorKind::StorageFull,
            );
            let err = run(Arc::new(faulty)).err().unwrap_or_else(|| panic!("{what}: must fail"));
            assert!(matches!(err, SupmrError::Ingest { .. }), "{what}: got {err:?}");
            assert_eq!(err.io_kind(), Some(ErrorKind::StorageFull), "{what}");
            assert!(store.is_empty(), "{what}: whole and partial runs must all be removed");
        }

        let store = MemRunStore::new();
        let faulty = FaultyRunStore::fail_reads_after(
            Arc::new(store.clone()),
            written / 2,
            ErrorKind::Other,
        );
        let err = run(Arc::new(faulty)).err().expect("read fault must fail the job");
        assert!(matches!(err, SupmrError::Merge { .. } | SupmrError::Ingest { .. }), "got {err:?}");
        assert!(store.is_empty(), "runs must be removed after a read fault");

        let store = MemRunStore::new();
        let err = run(Arc::new(RottingStore(store.clone()))).err().expect("bit rot must fail");
        match &err {
            SupmrError::Merge { message } => assert!(message.contains("corrupt"), "{message}"),
            other => panic!("corrupt read-back must be a merge error, got {other:?}"),
        }
        assert!(store.is_empty(), "runs must be removed after a corrupt read-back");
    }
    check(|| MiniSort, &sort_corpus(700, |i| i * 7919), 900);
    check(|| SpillingWordCount, &wide_corpus(), 256);
}

/// WordCount that panics mid-map once enough input has passed, so some
/// spill runs exist when the wave dies.
struct PanicAfterSpill;

impl MapReduce for PanicAfterSpill {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        if split.contains(&b'!') {
            panic!("injected map panic");
        }
        for word in split.split(|b| b.is_ascii_whitespace()) {
            if !word.is_empty() {
                emit.emit(String::from_utf8_lossy(word).into_owned(), 1);
            }
        }
    }

    fn reduce(&self, _k: &String, acc: u64) -> u64 {
        acc
    }

    fn spill_codec(&self) -> Option<PairCodec<String, u64>> {
        SpillingWordCount.spill_codec()
    }
}

#[test]
fn map_panic_mid_spill_leaks_no_run_files() {
    let mut data = wide_corpus();
    data.extend_from_slice(b"boom!\n");
    let store = MemRunStore::new();
    let err = Job::new(PanicAfterSpill)
        .config(budgeted_config(64, &store))
        .run(Input::stream(MemSource::from(data)))
        .unwrap_err();
    assert!(matches!(err, SupmrError::TaskPanic { .. }), "got {err:?}");
    assert!(store.is_empty(), "abandoned runs must be deleted when the job dies");
}
