//! The unlocked container: per-task run storage with no per-pair
//! synchronization.
//!
//! For applications like sort "the large input set is transformed to an
//! equal sized intermediate set" with unique keys, so a hash container
//! pays for key lookups that never hit and reducers "needlessly sweep
//! the array" (§V-B). Phoenix's answer is *unlocked storage*: every map
//! task writes to its own region of a shared array without
//! synchronization. The safe-Rust equivalent keeps each task's output as
//! an owned run and shares only the run list — one lock acquisition per
//! *task* (to publish the run), zero per pair, and the runs double as
//! the sorted-run inputs the merge phase consumes.
//!
//! Under a memory budget a run is held **encoded**: each pair is
//! encoded with the job's codec as it is emitted and dropped, and the
//! run is one payload buffer with an end offset and a key prefix per
//! record — what the ledger is charged for. The runs leave for disk
//! **key-range partitioned**, a budget's worth at a time: the first
//! spill samples `p − 1` splitter keys (`p` the job's reduce width) from
//! the runs then resident, and every spill takes as many runs as bring
//! residency down to the low watermark, puts their records in the job's
//! order together by sorting their `(prefix, run, index)` tags —
//! decoding only keys whose prefixes tie, once each — and writes their
//! payloads, as they are, as one run file per key range. A run file
//! thus holds about `(high − low) ÷ p` bytes, whatever the split size.
//! At the end the in-memory remainder is only assigned to the same
//! ranges, by prefix (a record whose prefix ties a splitter's is
//! decoded there); each range's reduce task decodes its own share. The
//! external reduce thereby gets `p` disjoint key ranges to merge in
//! parallel, and its outputs, taken in range order, are one sorted
//! sequence. The splitters only balance the ranges: any splitters,
//! however skewed, give sorted output.

use super::{Absorbed, Container};
use crate::api::Emit;
use crate::combiner::Combiner;
use crate::spill::{KeyPrefixFn, PairCodec, SpillHooks};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use supmr_metrics::unpoisoned;

/// One map run under a memory budget: its records' codec payloads back
/// to back, with each record's end offset and key prefix.
struct EncodedRun {
    payload: Vec<u8>,
    ends: Vec<usize>,
    prefixes: Vec<u64>,
}

impl EncodedRun {
    fn with_capacity(bytes: usize, records: usize) -> EncodedRun {
        EncodedRun {
            payload: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(records),
            prefixes: Vec::with_capacity(records),
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The bytes the run holds, by length: payloads and index entries.
    /// Capacity a run was sized with but never filled is not charged.
    fn held_bytes(&self) -> u64 {
        let index = std::mem::size_of::<usize>() + std::mem::size_of::<u64>();
        (self.payload.len() + self.len() * index) as u64
    }

    fn record(&self, at: usize) -> &[u8] {
        let start = if at == 0 { 0 } else { self.ends[at - 1] };
        &self.payload[start..self.ends[at]]
    }

    /// Decode record `at`, parking a failure on the job.
    fn decode<K, V>(&self, at: usize, hooks: &SpillHooks<K, V>) -> Option<(K, V)> {
        let pair = (hooks.codec.decode)(self.record(at));
        if pair.is_none() {
            hooks.sink.undecodable(format!("undecodable record {at} in a held map run"));
        }
        pair
    }

    fn key<K, V>(&self, at: usize, hooks: &SpillHooks<K, V>) -> Option<K> {
        self.decode(at, hooks).map(|(key, _)| key)
    }
}

/// Put the records of `runs` in the job's order together and sink their
/// payloads, one run per non-empty key range. Tags sort by prefix; a
/// record's key is decoded — once — only where its prefix ties another
/// record's or a splitter's.
fn spill_together<K: Ord + Clone, V>(
    runs: &[EncodedRun],
    splitters: &Splitters<K>,
    hooks: &SpillHooks<K, V>,
) {
    let mut tags: Vec<(u64, u32, u32)> = (0..)
        .zip(runs)
        .flat_map(|(r, run)| (0..).zip(&run.prefixes).map(move |(at, &prefix)| (prefix, r, at)))
        .collect();
    tags.sort_unstable();
    let mut per_range = vec![0usize; splitters.keys.len() + 1];
    for tied in tags.chunk_by_mut(|a, b| a.0 == b.0) {
        let span = splitters.span_of(tied[0].0);
        if tied.len() == 1 && span.is_empty() {
            per_range[span.start] += 1;
            continue;
        }
        let keys: Option<Vec<K>> =
            tied.iter().map(|&(_, r, at)| runs[r as usize].key(at as usize, hooks)).collect();
        let Some(keys) = keys else {
            // The job fails at the next phase boundary; the tied
            // records keep their tag order meanwhile.
            per_range[span.start] += tied.len();
            continue;
        };
        let mut keyed: Vec<(K, u32, u32)> =
            keys.into_iter().zip(tied.iter()).map(|(key, &(_, r, at))| (key, r, at)).collect();
        keyed.sort_unstable();
        for (tag, (key, r, at)) in tied.iter_mut().zip(keyed) {
            (tag.1, tag.2) = (r, at);
            per_range[splitters.range_in(span.clone(), &key)] += 1;
        }
    }
    let mut start = 0;
    for (range, count) in per_range.into_iter().enumerate() {
        let cut = &tags[start..start + count];
        start += count;
        if !cut.is_empty() {
            let mut payloads = cut.iter().map(|&(_, r, at)| runs[r as usize].record(at as usize));
            hooks.sink.encoded(range, &mut payloads);
        }
    }
}

/// The ascending keys that cut the key space into reduce ranges, with
/// their prefixes. Range `i` holds the keys with exactly `i` splitters
/// at or below them, so equal keys always share a range.
struct Splitters<K> {
    keys: Vec<K>,
    prefixes: Vec<u64>,
}

impl<K: Ord + Clone> Splitters<K> {
    /// `ranges − 1` splitters that roughly equipartition the keys of
    /// `runs`: quantiles of a regular sample of every run, decoded. Map
    /// runs are unsorted, so regular offsets are as good as random
    /// ones.
    fn sample<V>(runs: &[EncodedRun], hooks: &SpillHooks<K, V>) -> Splitters<K> {
        const OVERSAMPLE: usize = 32;
        let ranges = hooks.partitions;
        let mut sample: Vec<(u64, K)> = Vec::new();
        for run in runs {
            let len = run.len();
            let take = (ranges * OVERSAMPLE).min(len);
            sample.extend((0..take).filter_map(|i| {
                let at = i * len / take;
                run.key(at, hooks).map(|key| (run.prefixes[at], key))
            }));
        }
        sample.sort_unstable();
        if sample.is_empty() {
            return Splitters::default();
        }
        let (prefixes, keys) =
            (1..ranges).map(|r| sample[r * sample.len() / ranges].clone()).unzip();
        Splitters { keys, prefixes }
    }

    /// The splitters whose prefix is `prefix`: a record with that
    /// prefix has every splitter before them at or below its key and
    /// every one after them above it, and needs its key compared only
    /// with them.
    fn span_of(&self, prefix: u64) -> std::ops::Range<usize> {
        self.prefixes.partition_point(|&p| p < prefix)
            ..self.prefixes.partition_point(|&p| p <= prefix)
    }

    /// The key range of `key`, given the splitters of its prefix.
    fn range_in(&self, span: std::ops::Range<usize>, key: &K) -> usize {
        span.start + self.keys[span].partition_point(|s| s <= key)
    }
}

impl<K> Default for Splitters<K> {
    fn default() -> Self {
        Splitters { keys: Vec::new(), prefixes: Vec::new() }
    }
}

/// One drain of the container: typed pairs, and held records still
/// encoded — `(run, index)` picks into the runs of `held` — which
/// [`Container::drain`] decodes on the task that reduces them.
pub struct RunDrain<K, V> {
    pairs: Vec<(K, V)>,
    picks: Vec<(u32, u32)>,
    held: Option<Held<K, V>>,
}

/// The held runs a drain picks from, shared, and how to decode them.
type Held<K, V> = (Arc<[EncodedRun]>, SpillHooks<K, V>);

/// Run-per-task storage for unique-key workloads.
pub struct UnlockedContainer<K, V> {
    /// Typed runs, published when the job has no memory budget.
    runs: Mutex<Vec<Vec<(K, V)>>>,
    /// Encoded runs, published under a budget.
    encoded: Mutex<Vec<EncodedRun>>,
    pairs: AtomicU64,
    /// Records and payload bytes of the run absorbed last: what the
    /// next task's run starts out sized for (splits are about equal, so
    /// runs are too).
    last_run_len: AtomicUsize,
    last_run_bytes: AtomicUsize,
    /// Held bytes a spill has taken off the run list and not yet
    /// released from the ledger.
    evicting: AtomicU64,
    /// Out-of-core wiring ([`Container::configure_spill`]); unset keeps
    /// runs typed and absorb on the unmetered hot path.
    spill: OnceLock<SpillHooks<K, V>>,
    /// The splitters, fixed by the first spill (never set by a job that
    /// never spills).
    splitters: OnceLock<Splitters<K>>,
}

impl<K, V> Default for UnlockedContainer<K, V> {
    fn default() -> Self {
        UnlockedContainer {
            runs: Mutex::new(Vec::new()),
            encoded: Mutex::new(Vec::new()),
            pairs: AtomicU64::new(0),
            last_run_len: AtomicUsize::new(0),
            last_run_bytes: AtomicUsize::new(0),
            evicting: AtomicU64::new(0),
            spill: OnceLock::new(),
            splitters: OnceLock::new(),
        }
    }
}

impl<K, V> UnlockedContainer<K, V> {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of runs published so far (= completed map tasks that
    /// emitted at least one pair).
    pub fn run_count(&self) -> usize {
        unpoisoned(self.runs.lock()).len() + unpoisoned(self.encoded.lock()).len()
    }

    /// Total pairs published (inherent counterpart of
    /// [`Container::total_pairs`], callable without naming a combiner).
    pub fn pair_count(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }
}

impl<K: Ord + Clone, V> UnlockedContainer<K, V> {
    /// Bring residency down to the low watermark in one spill: take the
    /// largest published runs until what they hold covers the excess,
    /// and sink them together, one run file per key range. Bytes another
    /// absorber is already spilling do not count, so two absorbers never
    /// spill for the same excess: one spills only while what stays
    /// resident tops the high watermark, and so writes more than
    /// `high − low` bytes. Victims are taken under the run-list lock.
    fn spill_down(&self, hooks: &SpillHooks<K, V>) {
        let ledger = &hooks.accountant;
        let (victims, splitters, taken) = {
            let mut runs = unpoisoned(self.encoded.lock());
            let evicting = self.evicting.load(Ordering::Acquire);
            let staying = ledger.resident().saturating_sub(evicting);
            if staying <= ledger.high() {
                return;
            }
            let splitters = self.splitters.get_or_init(|| Splitters::sample(&runs, hooks));
            runs.sort_unstable_by_key(EncodedRun::held_bytes);
            let (mut victims, mut taken) = (Vec::new(), 0);
            while taken < staying.saturating_sub(ledger.low()) {
                let Some(run) = runs.pop() else { break };
                taken += run.held_bytes();
                victims.push(run);
            }
            self.evicting.fetch_add(taken, Ordering::Relaxed);
            (victims, splitters, taken)
        };
        spill_together(&victims, splitters, hooks);
        // Released before it stops counting as in flight, and read after
        // it: a spiller in between sees too little resident, never more.
        ledger.release(taken);
        self.evicting.fetch_sub(taken, Ordering::Release);
    }
}

/// Thread-local run under construction: typed pairs, or under a budget
/// the run encoded as it is emitted.
pub struct LocalRun<K, V>(Local<K, V>);

enum Local<K, V> {
    Pairs(Vec<(K, V)>),
    Encoded { run: EncodedRun, codec: PairCodec<K, V>, key_prefix: KeyPrefixFn<K> },
}

impl<K, V> Emit<K, V> for LocalRun<K, V> {
    fn emit(&mut self, key: K, value: V) {
        match &mut self.0 {
            Local::Pairs(pairs) => pairs.push((key, value)),
            Local::Encoded { run, codec, key_prefix } => {
                (codec.encode)(&key, &value, &mut run.payload);
                run.ends.push(run.payload.len());
                run.prefixes.push(key_prefix(&key));
            }
        }
    }
}

impl<K, V, C> Container<K, V, C> for UnlockedContainer<K, V>
where
    K: Ord + std::hash::Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    C: Combiner<V, Acc = V>,
{
    type Local = LocalRun<K, V>;
    type Drain = RunDrain<K, V>;

    fn local(&self) -> Self::Local {
        let records = self.last_run_len.load(Ordering::Relaxed);
        LocalRun(match self.spill.get() {
            None => Local::Pairs(Vec::with_capacity(records)),
            Some(hooks) => Local::Encoded {
                run: EncodedRun::with_capacity(
                    self.last_run_bytes.load(Ordering::Relaxed),
                    records,
                ),
                codec: hooks.codec,
                key_prefix: Arc::clone(&hooks.key_prefix),
            },
        })
    }

    fn absorb(&self, local: Self::Local) -> Absorbed {
        let started = Instant::now();
        let (entries, lock_wait, charged) = match local.0 {
            Local::Pairs(pairs) if !pairs.is_empty() => {
                let entries = pairs.len();
                let waited = Instant::now();
                let mut runs = unpoisoned(self.runs.lock());
                let lock_wait = waited.elapsed();
                runs.push(pairs);
                (entries, lock_wait, 0)
            }
            Local::Encoded { run, .. } if run.len() > 0 => {
                let (entries, bytes) = (run.len(), run.held_bytes());
                self.last_run_bytes.store(run.payload.len(), Ordering::Relaxed);
                let waited = Instant::now();
                let mut runs = unpoisoned(self.encoded.lock());
                let lock_wait = waited.elapsed();
                runs.push(run);
                (entries, lock_wait, bytes)
            }
            _ => return Absorbed::default(),
        };
        self.pairs.fetch_add(entries as u64, Ordering::Relaxed);
        self.last_run_len.store(entries, Ordering::Relaxed);
        let busy = started.elapsed();
        if let Some(hooks) = self.spill.get() {
            if hooks.accountant.charge(charged) {
                self.spill_down(hooks);
            }
        }
        Absorbed { entries: entries as u64, locks: 1, lock_wait, busy, table: None }
    }

    fn configure_spill(&self, hooks: &SpillHooks<K, V>) -> bool {
        // Called at most once, before any run exists.
        let _ = self.spill.set(hooks.clone());
        true
    }

    /// Runs hold independent unique-key pairs; folding them across runs
    /// would corrupt identity-combined values, and each task publishes
    /// its own run.
    fn combines() -> bool {
        false
    }

    /// The in-memory remainder assigned to the same key ranges as the
    /// spilled runs, by prefix: one drain per non-empty key range,
    /// tagged with it. Only a record whose prefix ties a splitter's is
    /// decoded here; the rest stay encoded for their range's task.
    fn into_indexed_drains(self, _parts: usize) -> Vec<(usize, Self::Drain)> {
        let splitters = self.splitters.into_inner().unwrap_or_default();
        let all = 0..splitters.keys.len();
        let mut ranges: Vec<RunDrain<K, V>> = (0..=all.end)
            .map(|_| RunDrain { pairs: Vec::new(), picks: Vec::new(), held: None })
            .collect();
        for (key, value) in unpoisoned(self.runs.into_inner()).into_iter().flatten() {
            ranges[splitters.range_in(all.clone(), &key)].pairs.push((key, value));
        }
        if let Some(hooks) = self.spill.get() {
            let runs: Arc<[EncodedRun]> = unpoisoned(self.encoded.into_inner()).into();
            for (r, run) in (0..).zip(runs.iter()) {
                for (at, &prefix) in (0..).zip(&run.prefixes) {
                    let span = splitters.span_of(prefix);
                    if span.is_empty() {
                        ranges[span.start].picks.push((r, at));
                    } else if let Some(pair) = run.decode(at as usize, hooks) {
                        ranges[splitters.range_in(span, &pair.0)].pairs.push(pair);
                    }
                }
            }
            for range in &mut ranges {
                range.held = Some((Arc::clone(&runs), hooks.clone()));
            }
        }
        let empty = |range: &RunDrain<K, V>| range.pairs.is_empty() && range.picks.is_empty();
        ranges.into_iter().enumerate().filter(|(_, range)| !empty(range)).collect()
    }

    /// Unique-key assumption: every pair is its own key.
    fn distinct_keys(&self) -> usize {
        self.pairs.load(Ordering::Relaxed) as usize
    }

    fn total_pairs(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }

    /// Returns one drain per map run, ignoring `parts`: the runs are
    /// exactly the sorted lists the merge phase operates on, and keeping
    /// them separate is what lets the merge experiments control the
    /// baseline's round count. Encoded runs decode when drained.
    fn into_drains(self, _parts: usize) -> Vec<Self::Drain> {
        let typed = unpoisoned(self.runs.into_inner()).into_iter();
        let mut drains: Vec<_> =
            typed.map(|pairs| RunDrain { pairs, picks: Vec::new(), held: None }).collect();
        if let Some(hooks) = self.spill.get() {
            let runs: Arc<[EncodedRun]> = unpoisoned(self.encoded.into_inner()).into();
            drains.extend((0..).zip(runs.iter()).map(|(r, run)| RunDrain {
                pairs: Vec::new(),
                picks: (0..run.len() as u32).map(|at| (r, at)).collect(),
                held: Some((Arc::clone(&runs), hooks.clone())),
            }));
        }
        drains
    }

    /// Typed pairs move; held records decode, on the calling task.
    fn drain(payload: Self::Drain) -> Vec<(K, V)> {
        let RunDrain { mut pairs, picks, held } = payload;
        if let Some((runs, hooks)) = held {
            let decode = |(r, at): (u32, u32)| runs[r as usize].decode(at as usize, &hooks);
            pairs.reserve_exact(picks.len());
            pairs.extend(picks.into_iter().filter_map(decode));
        }
        pairs
    }

    fn drain_len(payload: &Self::Drain) -> Option<usize> {
        Some(payload.pairs.len() + payload.picks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::Identity;

    fn absorb_run(c: &UnlockedContainer<u64, String>, pairs: Vec<(u64, String)>) -> Absorbed {
        let mut local =
            <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::local(c);
        for (k, v) in pairs {
            local.emit(k, v);
        }
        <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::absorb(c, local)
    }

    fn partitions(c: UnlockedContainer<u64, String>) -> Vec<Vec<(u64, String)>> {
        <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::into_partitions(c, 99)
    }

    /// Spill wiring over a `budget`-byte ledger whose sink hands every
    /// batch, decoded, to `f`. Prefixes are coarse (`key / 8`), so
    /// records and splitters tie on them.
    fn hooks(
        budget: u64,
        partitions: usize,
        f: impl Fn(usize, Vec<(u64, String)>) + Send + Sync + 'static,
    ) -> SpillHooks<u64, String> {
        use crate::spill::{BatchSink, MemoryAccountant};
        use std::sync::Arc;

        let codec = PairCodec {
            encode: |k: &u64, v: &String, buf: &mut Vec<u8>| {
                buf.extend_from_slice(&k.to_le_bytes());
                buf.extend_from_slice(v.as_bytes());
            },
            decode: |rec| {
                let key = u64::from_le_bytes(rec.get(..8)?.try_into().ok()?);
                Some((key, String::from_utf8(rec[8..].to_vec()).ok()?))
            },
            size_hint: |_, _| 10,
        };
        SpillHooks {
            accountant: Arc::new(MemoryAccountant::new(budget)),
            partitions,
            codec,
            key_prefix: Arc::new(|k| k / 8),
            sink: Arc::new(BatchSink { codec, f }),
        }
    }

    #[test]
    fn spilled_and_resident_pairs_share_disjoint_key_ranges() {
        use std::sync::Arc;

        type Sunk = Arc<Mutex<Vec<(usize, Vec<(u64, String)>)>>>;
        let sunk: Sunk = Arc::default();
        let sink_log = Arc::clone(&sunk);
        let hooks =
            hooks(400, 3, move |range, batch| unpoisoned(sink_log.lock()).push((range, batch)));
        let c = UnlockedContainer::new();
        assert!(
            <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::configure_spill(
                &c, &hooks
            )
        );
        // Keys 0..60 in a scattered order, every key three times over,
        // eight pairs to a run (~210 bytes held): the ledger trips on
        // the second run.
        let keys = (0..180u64).map(|i| i * 7 % 60);
        for run in keys.collect::<Vec<_>>().chunks(8) {
            absorb_run(&c, run.iter().map(|&k| (k, format!("v{k}"))).collect());
        }
        let mut tagged = std::mem::take(&mut *unpoisoned(sunk.lock()));
        assert!(!tagged.is_empty(), "a 400-byte budget must spill");
        type Unlocked = UnlockedContainer<u64, String>;
        tagged.extend(
            <Unlocked as Container<u64, String, Identity>>::into_indexed_drains(c, 3)
                .into_iter()
                .map(|(range, drain)| {
                    (range, <Unlocked as Container<u64, String, Identity>>::drain(drain))
                }),
        );
        // Per range tag: the span of keys seen under it, spilled or not.
        let mut spans = [(u64::MAX, 0u64); 3];
        let mut total = 0;
        for (range, batch) in &tagged {
            for (k, _) in batch {
                spans[*range] = (spans[*range].0.min(*k), spans[*range].1.max(*k));
                total += 1;
            }
        }
        assert_eq!(total, 180, "every pair is in exactly one batch");
        assert!(spans.iter().all(|&(lo, hi)| lo <= hi), "three populated ranges: {spans:?}");
        assert!(
            spans.windows(2).all(|w| w[0].1 < w[1].0),
            "ranges must be disjoint and ascending, equal keys together: {spans:?}"
        );
    }

    #[test]
    fn absorb_reports_its_run_and_stops_timing_before_the_spill_it_triggers() {
        use std::time::{Duration, Instant};

        let nap = Duration::from_millis(100);
        let hooks = hooks(40, 1, move |_, _| std::thread::sleep(nap));
        let c = UnlockedContainer::new();
        <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::configure_spill(
            &c, &hooks,
        );
        let started = Instant::now();
        let absorbed = absorb_run(&c, (0..8).map(|k| (k, String::new())).collect());
        assert!(started.elapsed() >= nap, "192 bytes against a 40-byte budget must spill");
        assert_eq!((absorbed.entries, absorbed.locks), (8, 1));
        assert!(absorbed.busy < nap, "{absorbed:?}: spilling is not absorb time");
        assert!(absorbed.lock_wait <= absorbed.busy, "{absorbed:?}");
        assert_eq!(absorb_run(&c, vec![]), Absorbed::default(), "an empty run absorbs nothing");
    }

    #[test]
    fn runs_stay_separate_and_ordered() {
        let c = UnlockedContainer::new();
        absorb_run(&c, vec![(3, "c".into()), (1, "a".into())]);
        absorb_run(&c, vec![(2, "b".into())]);
        assert_eq!(c.run_count(), 2);
        assert_eq!(c.pair_count(), 3);
        let parts = partitions(c);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], vec![(3, "c".to_string()), (1, "a".to_string())]);
        assert_eq!(parts[1], vec![(2, "b".to_string())]);
    }

    #[test]
    fn empty_tasks_publish_nothing() {
        let c = UnlockedContainer::new();
        absorb_run(&c, vec![]);
        assert_eq!(c.run_count(), 0);
        assert!(partitions(c).is_empty());
    }

    #[test]
    fn concurrent_publication() {
        let c = std::sync::Arc::new(UnlockedContainer::new());
        std::thread::scope(|s| {
            for t in 0..16u64 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    absorb_run(&c, (0..100).map(|i| (t * 1000 + i, format!("v{i}"))).collect());
                });
            }
        });
        let c = std::sync::Arc::into_inner(c).unwrap();
        assert_eq!(c.run_count(), 16);
        assert_eq!(c.pair_count(), 1600);
        let parts = partitions(c);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 1600);
    }
}
