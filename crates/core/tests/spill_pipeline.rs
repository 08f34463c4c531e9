//! Out-of-core execution: jobs run under a memory budget must spill,
//! produce output identical to an unbounded run, surface spill-run I/O
//! faults as typed errors (never panics or hangs), and leave no run
//! files behind — on success, failure, or task panic.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use supmr::api::{Emit, MapReduce};
use supmr::combiner::{Identity, Sum};
use supmr::container::{HashContainer, UnlockedContainer};
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::{Chunking, KeyPrefix, PairCodec, SupmrError};
use supmr_metrics::{MetricValue, Registry};
use supmr_storage::{Fault, FaultySource, MemRunStore, MemSource, RunStore};
use supmr_workloads::check::{check, Gen};

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

/// Every `Counted` made (emitted, decoded, cloned) and every one dropped,
/// across all threads: level once a job is over means nothing leaked and
/// nothing was dropped twice.
static MADE: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicUsize = AtomicUsize::new(0);
/// The tallies are process-wide, so tests that count take turns.
static COUNTING: Mutex<()> = Mutex::new(());

#[derive(Debug)]
struct Counted(u64);

impl Counted {
    fn new(id: u64) -> Counted {
        MADE.fetch_add(1, Ordering::SeqCst);
        Counted(id)
    }
}

impl Clone for Counted {
    fn clone(&self) -> Counted {
        Counted::new(self.0)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        DROPPED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Hold for as long as a test makes `Counted` values.
fn counting() -> MutexGuard<'static, ()> {
    let turn = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    assert_balanced();
    turn
}

fn assert_balanced() {
    let (made, dropped) = (MADE.load(Ordering::SeqCst), DROPPED.load(Ordering::SeqCst));
    assert_eq!(made, dropped, "{made} values made, {dropped} dropped");
}

/// MiniSort's records as integer keys with drop-counted values, on the
/// unlocked container: under a budget, every value passes from a decoded
/// run through `reduce` into a key range's output window. `reduce` panics
/// on the key `panic_at`.
#[derive(Default)]
struct CountedSort {
    panic_at: Option<u64>,
}

impl MapReduce for CountedSort {
    type Key = u64;
    type Value = Counted;
    type Combiner = Identity;
    type Output = Counted;
    type Container = UnlockedContainer<u64, Counted>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<u64, Counted>) {
        for rec in split.split(|&b| b == b'\n').filter(|r| r.len() >= 3) {
            let key = rec[..3].iter().fold(0, |key, &b| key << 8 | u64::from(b));
            emit.emit(key, Counted::new(key));
        }
    }

    fn reduce(&self, key: &u64, value: Counted) -> Counted {
        assert_ne!(Some(*key), self.panic_at, "injected reduce panic");
        value
    }

    fn spill_codec(&self) -> Option<PairCodec<u64, Counted>> {
        Some(PairCodec {
            encode: |key, value, buf| {
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&value.0.to_le_bytes());
            },
            decode: |rec| {
                let key = u64::from_le_bytes(rec.get(..8)?.try_into().ok()?);
                let id = u64::from_le_bytes(rec.get(8..)?.try_into().ok()?);
                Some((key, Counted::new(id)))
            },
            size_hint: |_, _| 32,
        })
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
fn arb_text(g: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    for l in g.vec(0..60, |g| g.vec(0..30, |g| g.pick(b"abc "))) {
        out.extend_from_slice(&l);
        out.push(b'\n');
    }
    out
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

#[test]
fn budgeted_wordcount_matches_unbounded() {
    check("budgeted_wordcount_matches_unbounded", 24, |g| {
        let (data, budget) = (arb_text(g), g.range(1u64..4096));
        let input = || Input::stream(MemSource::from(data.clone()));
        let unbounded = Job::new(SpillingWordCount).config(base_config()).run(input()).unwrap();
        let store = MemRunStore::new();
        let config = budgeted_config(budget, &store);
        let spilled = Job::new(SpillingWordCount).config(config).run(input()).unwrap();
        assert_eq!(spilled.sorted_pairs(), unbounded.sorted_pairs());
        assert!(store.is_empty(), "run files must be deleted after the merge");
    });
}

#[test]
fn budgeted_sort_matches_unbounded() {
    check("budgeted_sort_matches_unbounded", 24, |g| {
        let (data, budget) = (arb_text(g), g.range(1u64..4096));
        let input = || Input::stream(MemSource::from(data.clone()));
        let unbounded = Job::new(MiniSort).config(base_config()).run(input()).unwrap();
        let store = MemRunStore::new();
        let config = budgeted_config(budget, &store);
        let spilled = Job::new(MiniSort).config(config).run(input()).unwrap();
        // Duplicate keys make equal-key order path-dependent; compare
        // the full (key, record) multiset.
        let mut a = unbounded.pairs;
        let mut b = spilled.pairs;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(store.is_empty(), "run files must be deleted after the merge");
    });
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

/// Decodes made by [`TiedSort`]'s codec, across all threads.
static TIED_DECODES: AtomicUsize = AtomicUsize::new(0);

/// MiniSort with 11-byte keys that agree in their first 8 bytes and a
/// byte-string key prefix, so every prefix ties and a spilled run's
/// order rests on decoded keys. Its codec counts decodes.
struct TiedSort;

impl MapReduce for TiedSort {
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
            emit.emit(rec[..rec.len().min(11)].to_vec(), rec.to_vec());
        }
    }

    fn reduce(&self, _k: &Vec<u8>, rec: Vec<u8>) -> Vec<u8> {
        rec
    }

    fn key_prefix(&self, key: &Vec<u8>) -> u64 {
        key.key_prefix()
    }

    fn spill_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        fn decode(rec: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
            TIED_DECODES.fetch_add(1, Ordering::SeqCst);
            (MiniSort.spill_codec()?.decode)(rec)
        }
        Some(PairCodec { decode, ..MiniSort.spill_codec()? })
    }
}

/// Keys whose prefixes tie go through the encoded spill in key order,
/// each decoded once per sort: for a budget from "every absorb spills"
/// up, the budgeted sort is the unbounded one — byte for byte where keys
/// are unique, as the same key-ordered multiset where they repeat — and
/// the map phase decodes no more than every record once plus the
/// splitter sample. (A sort that decoded per comparison would decode
/// each run's records about `2 log₂ n` times.)
#[test]
fn prefix_ties_through_the_encoded_path_decode_each_key_once_per_sort() {
    type KeyOf = fn(u32) -> u32;
    let shapes: [(&str, bool, KeyOf); 2] = [
        ("unique, shuffled", true, |i| i * 7919),
        ("five keys, duplicates on both sides of every splitter", false, |i| (i % 5) * 3000),
    ];
    const RECORDS: usize = 700;
    for (shape, unique, key_of) in shapes {
        let mut data = Vec::new();
        for line in sort_corpus(RECORDS as u32, key_of).split_inclusive(|&b| b == b'\n') {
            data.extend_from_slice(b"tiedkey:");
            data.extend_from_slice(line);
        }
        for reduce_workers in [2usize, 3] {
            let mut config = base_config();
            config.split_bytes = 1024;
            config.reduce_workers = reduce_workers;
            let unbounded = Job::new(TiedSort)
                .config(config.clone())
                .run(Input::stream(MemSource::from(data.clone())))
                .unwrap();
            for budget in [1u64, 900, 6000] {
                let what = format!("{shape}, {reduce_workers} reduce workers, budget {budget}");
                let store = MemRunStore::new();
                let mut cfg = config.clone();
                cfg.memory_budget = Some(budget);
                cfg.spill_store = Some(Arc::new(store.clone()));
                let before = TIED_DECODES.load(Ordering::SeqCst);
                let spilled = Job::new(TiedSort)
                    .config(cfg)
                    .run(Input::stream(MemSource::from(data.clone())))
                    .unwrap();
                let decodes = TIED_DECODES.load(Ordering::SeqCst) - before;
                let stats = &spilled.report.stats;
                assert!(stats.spill_runs > 0, "{what}: must spill");
                assert!(store.is_empty(), "{what}: run files must be deleted after the merge");
                // The reduce decodes every record exactly once, read back
                // from its run or drained from memory; the rest is the
                // map phase's: spill sorts and the splitter sample.
                let samples = (stats.map_tasks as usize * reduce_workers * 32).min(RECORDS);
                assert!(decodes >= RECORDS, "{what}: {decodes} decodes");
                assert!(
                    decodes - RECORDS <= RECORDS + samples,
                    "{what}: the map phase decoded {} times for {RECORDS} records and at most \
                     {samples} samples",
                    decodes - RECORDS
                );
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

/// MiniSort whose codec cannot decode the records of key `bad`.
struct UndecodableSort;

impl MapReduce for UndecodableSort {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        MiniSort.map(split, emit);
    }

    fn reduce(&self, _k: &Vec<u8>, rec: Vec<u8>) -> Vec<u8> {
        rec
    }

    fn spill_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        fn decode(rec: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
            (MiniSort.spill_codec()?.decode)(rec).filter(|(key, _)| key != b"bad")
        }
        Some(PairCodec { decode, ..MiniSort.spill_codec()? })
    }
}

/// A held record that does not decode — when a spill sorts it, when
/// the splitters are sampled, or when the remainder is drained, on a
/// job that spills and on one that never does — fails the job with a
/// typed merge error, not a panic, and leaves no run behind.
#[test]
fn undecodable_held_records_fail_the_job_as_merge_errors() {
    let mut data = sort_corpus(700, |i| i * 7919);
    data.extend_from_slice(b"bad:payload\n");
    for budget in [1u64, 900, 1 << 30] {
        let store = MemRunStore::new();
        let err = Job::new(UndecodableSort)
            .config(budgeted_config(budget, &store))
            .run(Input::stream(MemSource::from(data.clone())))
            .expect_err("an undecodable record must fail the job");
        match err {
            SupmrError::Merge { message } => assert!(message.contains("undecodable"), "{message}"),
            other => panic!("budget {budget}: want a merge error, got {other:?}"),
        }
        assert!(store.is_empty(), "budget {budget}: run files must be deleted");
    }
}

thread_local! {
    /// Decodes [`KeyedSort`]'s codec made on this thread.
    static DECODED_HERE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Records keyed by their first 8 bytes as a big-endian `u64`, with the
/// key as its own prefix: a record's prefix ties another's, or a
/// splitter's, only where the keys are equal. Its codec counts decodes
/// per thread.
struct KeyedSort;

impl MapReduce for KeyedSort {
    type Key = u64;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<u64, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<u64, Vec<u8>>) {
        for rec in split.split(|&b| b == b'\n').filter(|r| r.len() >= 8) {
            emit.emit(u64::from_be_bytes(rec[..8].try_into().unwrap()), rec.to_vec());
        }
    }

    fn reduce(&self, _k: &u64, rec: Vec<u8>) -> Vec<u8> {
        rec
    }

    fn key_prefix(&self, key: &u64) -> u64 {
        *key
    }

    fn spill_codec(&self) -> Option<PairCodec<u64, Vec<u8>>> {
        Some(PairCodec {
            encode: |key, rec, buf| {
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(rec);
            },
            decode: |rec| {
                DECODED_HERE.with(|n| n.set(n.get() + 1));
                Some((u64::from_le_bytes(rec.get(..8)?.try_into().ok()?), rec[8..].to_vec()))
            },
            size_hint: |_, rec| 8 + rec.len(),
        })
    }
}

/// `n` 32-byte records under unique, shuffled 8-digit keys.
fn keyed_corpus(n: u64) -> Vec<u8> {
    (0..n).flat_map(|i| format!("{:08}:{i:022}\n", i * 7919 % 100_000_000).into_bytes()).collect()
}

/// One spill takes every run it needs to get back to the low watermark
/// and writes one run per key range, so the run count follows the
/// budget: at most `p` runs per `high − low` bytes held, plus one spill
/// of slack, with splits of a sixteenth of the budget as with splits
/// of all of it. The output is the unbounded job's.
#[test]
fn spill_runs_follow_the_budget_not_the_split() {
    const RECORDS: u64 = 1 << 16;
    let data = keyed_corpus(RECORDS);
    let unbounded = Job::new(KeyedSort)
        .config(base_config())
        .run(Input::stream(MemSource::from(data.clone())))
        .unwrap();
    let budget = 1 << 20;
    let ledger = supmr::MemoryAccountant::new(budget);
    // What the container charges per record: the codec's 8 key bytes and
    // 31 record bytes, and a 16-byte end offset and prefix.
    let held = RECORDS * (8 + 31 + 16);
    let bound =
        base_config().reduce_workers as u64 * (held.div_ceil(ledger.high() - ledger.low()) + 1);
    for split_bytes in [64 << 10, 1 << 20] {
        let store = MemRunStore::new();
        let mut config = budgeted_config(budget, &store);
        config.split_bytes = split_bytes;
        let spilled = Job::new(KeyedSort)
            .config(config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        let runs = spilled.report.stats.spill_runs;
        assert!(runs > 0 && runs <= bound, "split {split_bytes}: {runs} runs, at most {bound}");
        assert_eq!(spilled.pairs, unbounded.pairs, "split {split_bytes}");
        assert!(store.is_empty(), "split {split_bytes}: run files must be deleted");
    }
}

/// The coordinator only assigns the held remainder to key ranges; each
/// range's reduce task decodes its own share. Keys are unique and are
/// their own prefixes, so the one record the calling thread may decode
/// per splitter is the one the splitter was sampled from; the rest of
/// the remainder decodes on the pool.
#[test]
fn no_held_record_is_decoded_on_the_calling_thread() {
    const RECORDS: u64 = 20_000;
    let data = keyed_corpus(RECORDS);
    for reduce_workers in [1usize, 3] {
        let store = MemRunStore::new();
        let mut config = budgeted_config(256 << 10, &store);
        config.split_bytes = 16 << 10;
        config.reduce_workers = reduce_workers;
        config.pool = supmr::PoolMode::Persistent;
        let before = DECODED_HERE.with(|n| n.get());
        let spilled = Job::new(KeyedSort)
            .config(config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        let here = DECODED_HERE.with(|n| n.get()) - before;
        // A spilled record is framed with an 8-byte header.
        let remainder = RECORDS - spilled.report.stats.spill_bytes / (8 + 8 + 31);
        assert!(remainder >= RECORDS / 20, "{reduce_workers} ranges: {remainder} records held");
        assert!(
            here < reduce_workers,
            "{reduce_workers} ranges: the calling thread decoded {here} of {remainder} held records"
        );
        assert_eq!(spilled.pairs.len() as u64, RECORDS);
        assert!(spilled.pairs.windows(2).all(|w| w[0].0 < w[1].0), "{reduce_workers} ranges");
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
    let faulty = FaultySource::new(store.clone(), Fault::writes_after(0, ErrorKind::Other));
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
    let faulty = FaultySource::new(store.clone(), Fault::reads_after(32, ErrorKind::Other));
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

/// How a run is damaged between the spill and its read-back.
#[derive(Clone, Copy)]
enum Damage {
    /// One bit flipped in the middle: bit rot.
    Rot,
    /// The last frame cut off, on a frame boundary: to the frame reader
    /// the run ends cleanly.
    CutLastFrame,
}

/// Serves runs damaged by `damage` — every run, or with `one` only the
/// first one read back, so one partition fails mid-merge while the
/// others complete theirs.
struct DamagingStore {
    inner: MemRunStore,
    damage: Damage,
    one: bool,
    victim: Mutex<Option<String>>,
}

impl DamagingStore {
    fn new(inner: &MemRunStore, damage: Damage, one: bool) -> Arc<DamagingStore> {
        Arc::new(DamagingStore { inner: inner.clone(), damage, one, victim: Mutex::new(None) })
    }
}

impl RunStore for DamagingStore {
    fn create(&self, name: &str) -> std::io::Result<Box<dyn std::io::Write + Send>> {
        self.inner.create(name)
    }

    fn open(&self, name: &str) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        let mut bytes = Vec::new();
        self.inner.open(name)?.read_to_end(&mut bytes)?;
        let victim = {
            let mut victim = self.victim.lock().unwrap_or_else(PoisonError::into_inner);
            *victim.get_or_insert_with(|| name.to_string()) == name
        };
        if victim || !self.one {
            match self.damage {
                Damage::Rot => {
                    let middle = bytes.len() / 2;
                    bytes[middle] ^= 0x10;
                }
                Damage::CutLastFrame => {
                    let (mut rest, mut last) = (&bytes[..], 0);
                    while !rest.is_empty() {
                        last = bytes.len() - rest.len();
                        rest = supmr_merge::split_frame(rest).expect("an intact run").1;
                    }
                    bytes.truncate(last);
                }
            }
        }
        Ok(Box::new(std::io::Cursor::new(bytes)))
    }

    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.inner.remove(name)
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
            let faulty = FaultySource::new(
                store.clone(),
                Fault::writes_after(fail_at, ErrorKind::StorageFull),
            );
            let err = run(Arc::new(faulty)).err().unwrap_or_else(|| panic!("{what}: must fail"));
            assert!(matches!(err, SupmrError::Ingest { .. }), "{what}: got {err:?}");
            assert_eq!(err.io_kind(), Some(ErrorKind::StorageFull), "{what}");
            assert!(store.is_empty(), "{what}: whole and partial runs must all be removed");
        }

        let store = MemRunStore::new();
        let faulty =
            FaultySource::new(store.clone(), Fault::reads_after(written / 2, ErrorKind::Other));
        let err = run(Arc::new(faulty)).err().expect("read fault must fail the job");
        assert!(matches!(err, SupmrError::Merge { .. } | SupmrError::Ingest { .. }), "got {err:?}");
        assert!(store.is_empty(), "runs must be removed after a read fault");

        // Every run rotten, then one: that partition fails mid-merge
        // while the others run their merges to the end.
        for one in [false, true] {
            let store = MemRunStore::new();
            let err =
                run(DamagingStore::new(&store, Damage::Rot, one)).err().expect("bit rot must fail");
            match &err {
                SupmrError::Merge { message } => assert!(message.contains("corrupt"), "{message}"),
                other => panic!("corrupt read-back must be a merge error, got {other:?}"),
            }
            assert!(store.is_empty(), "runs must be removed after a corrupt read-back");
        }
    }
    check(|| MiniSort, &sort_corpus(700, |i| i * 7919), 900);
    check(|| SpillingWordCount, &wide_corpus(), 256);
    // The in-place reduce's failure paths, counted: values in a window
    // that fails, in windows that completed, and still in the merge.
    let _counting = counting();
    check(CountedSort::default, &sort_corpus(700, |i| i * 7919), 900);
    assert_balanced();
}

/// A run that lost its last frame ends on a frame boundary, which the
/// frame reader takes for the end of the run; only the record count the
/// run was written with tells. On either container the job fails, with
/// no pair lost silently and no run left behind — with drop-counted
/// values, when one key range comes up one pair short while the others
/// fill their windows.
#[test]
fn a_run_cut_at_a_frame_boundary_fails_the_job_on_both_containers() {
    fn check<J: MapReduce>(job: J, data: Vec<u8>, budget: u64, one: bool) {
        let store = MemRunStore::new();
        let mut config = budgeted_config(budget, &store);
        config.reduce_workers = 3;
        config.spill_store = Some(DamagingStore::new(&store, Damage::CutLastFrame, one));
        let err = Job::new(job).config(config).run(Input::stream(MemSource::from(data))).err();
        match err.expect("a truncated run must fail the job") {
            SupmrError::Merge { message } => {
                assert!(message.contains("truncated") && message.contains(" records"), "{message}")
            }
            other => panic!("a truncated run must be a merge error, got {other:?}"),
        }
        assert!(store.is_empty(), "runs must be removed after a truncated read-back");
    }
    check(MiniSort, sort_corpus(700, |i| i * 7919), 900, false);
    check(SpillingWordCount, wide_corpus(), 256, false);
    let _counting = counting();
    check(CountedSort::default(), sort_corpus(700, |i| i * 7919), 900, true);
    assert_balanced();
}

/// A `reduce` that panics partway through a key range: the job fails as
/// `TaskPanic`, every value — in the panicking range's window, in the
/// windows of ranges that completed, in the merge it abandoned — is
/// dropped once, and no run file is left.
#[test]
fn a_reduce_panic_mid_range_drops_every_value_once_and_leaks_no_run() {
    let _counting = counting();
    let data = sort_corpus(700, |i| i * 7919);
    let panic_at = data[350 * 18..350 * 18 + 3].iter().fold(0, |key, &b| key << 8 | u64::from(b));
    let store = MemRunStore::new();
    let mut config = budgeted_config(900, &store);
    config.reduce_workers = 3;
    let err = Job::new(CountedSort { panic_at: Some(panic_at) })
        .config(config)
        .run(Input::stream(MemSource::from(data)))
        .unwrap_err();
    assert!(matches!(err, SupmrError::TaskPanic { .. }), "got {err:?}");
    assert!(store.is_empty(), "runs must be removed after a reduce panic");
    assert_balanced();
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
