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
//! Under a memory budget the runs leave for disk **key-range
//! partitioned**: the first spill samples `p − 1` splitter keys (`p` the
//! job's reduce width) from the runs then resident, and from then on
//! every drained run — and, at the end, the in-memory remainder — is cut
//! along those splitters into up to `p` batches tagged with their range.
//! The external reduce thereby gets `p` disjoint key ranges to merge in
//! parallel, and its outputs, taken in range order, are one sorted
//! sequence. The splitters only balance the ranges: any splitters,
//! however skewed, give sorted output.

use super::Container;
use crate::api::Emit;
use crate::combiner::Combiner;
use crate::spill::SpillHooks;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One published map run, with its estimated in-memory footprint (the
/// summed codec size hints; 0 when no budget is configured).
struct SizedRun<K, V> {
    bytes: u64,
    pairs: Vec<(K, V)>,
}

/// Run-per-task storage for unique-key workloads.
pub struct UnlockedContainer<K, V> {
    runs: Mutex<Vec<SizedRun<K, V>>>,
    pairs: AtomicU64,
    /// Length of the run absorbed last: what the next task's run starts
    /// out sized for (splits are about equal, so runs are too).
    last_run_len: AtomicUsize,
    /// Out-of-core wiring ([`Container::configure_spill`]); `None`
    /// keeps absorb on the unmetered hot path.
    spill: Mutex<Option<SpillHooks<K, V>>>,
    /// The ascending keys that cut the key space into reduce ranges,
    /// fixed by the first spill (never set by a job that never spills).
    /// Range `i` holds the keys with exactly `i` splitters at or below
    /// them, so equal keys always share a range.
    splitters: OnceLock<Vec<K>>,
}

impl<K, V> Default for UnlockedContainer<K, V> {
    fn default() -> Self {
        UnlockedContainer {
            runs: Mutex::new(Vec::new()),
            pairs: AtomicU64::new(0),
            last_run_len: AtomicUsize::new(0),
            spill: Mutex::new(None),
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
        self.runs.lock().len()
    }

    /// Total pairs published (inherent counterpart of
    /// [`Container::total_pairs`], callable without naming a combiner).
    pub fn pair_count(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }
}

/// `ranges − 1` splitters that roughly equipartition the keys of
/// `runs` (not empty): quantiles of a regular sample of every run. Map
/// runs are unsorted, so regular offsets are as good as random ones.
fn sample_splitters<K: Ord + Clone, V>(runs: &[SizedRun<K, V>], ranges: usize) -> Vec<K> {
    const OVERSAMPLE: usize = 32;
    let mut sample: Vec<&K> = Vec::new();
    for run in runs {
        let len = run.pairs.len();
        let take = (ranges * OVERSAMPLE).min(len);
        sample.extend((0..take).map(|i| &run.pairs[i * len / take].0));
    }
    sample.sort_unstable();
    (1..ranges).map(|r| sample[r * sample.len() / ranges].clone()).collect()
}

/// The key range `key` belongs to: how many splitters are at or below
/// it.
fn range_of<K: Ord>(splitters: &[K], key: &K) -> usize {
    splitters.partition_point(|s| s <= key)
}

/// Cut `pairs` into one batch per key range, in range order (some may
/// be empty; no splitters, one range).
fn cut_by_range<K: Ord, V>(splitters: &[K], pairs: Vec<(K, V)>) -> Vec<Vec<(K, V)>> {
    if splitters.is_empty() {
        return vec![pairs];
    }
    let ranges = splitters.len() + 1;
    let mut cut: Vec<Vec<(K, V)>> =
        (0..ranges).map(|_| Vec::with_capacity(pairs.len() / ranges)).collect();
    for pair in pairs {
        cut[range_of(splitters, &pair.0)].push(pair);
    }
    cut
}

impl<K: Ord + Clone, V> UnlockedContainer<K, V> {
    /// Spill largest published runs until the ledger is below its low
    /// watermark, each cut into its key ranges and sunk as one run file
    /// per range. Every absorber that trips the high watermark drains:
    /// victims are whole runs taken under the run-list lock, so
    /// concurrent spillers never share one.
    fn spill_down(&self, hooks: &SpillHooks<K, V>) {
        while hooks.accountant.over_low() {
            let (run, splitters) = {
                let mut runs = self.runs.lock();
                let victim =
                    runs.iter().enumerate().max_by_key(|(_, r)| r.bytes).map(|(idx, _)| idx);
                let Some(idx) = victim else { break };
                let splitters =
                    self.splitters.get_or_init(|| sample_splitters(&runs, hooks.partitions));
                (runs.swap_remove(idx), splitters)
            };
            for (range, batch) in cut_by_range(splitters, run.pairs).into_iter().enumerate() {
                if !batch.is_empty() {
                    (hooks.sink)(range, batch);
                }
            }
            hooks.accountant.release(run.bytes);
        }
    }
}

/// Thread-local run under construction.
pub struct LocalRun<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emit<K, V> for LocalRun<K, V> {
    fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }
}

impl<K, V, C> Container<K, V, C> for UnlockedContainer<K, V>
where
    K: Ord + std::hash::Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    C: Combiner<V, Acc = V>,
{
    type Local = LocalRun<K, V>;
    type Drain = Vec<(K, V)>;

    fn local(&self) -> Self::Local {
        LocalRun { pairs: Vec::with_capacity(self.last_run_len.load(Ordering::Relaxed)) }
    }

    fn absorb(&self, local: Self::Local) {
        if local.pairs.is_empty() {
            return;
        }
        self.pairs.fetch_add(local.pairs.len() as u64, Ordering::Relaxed);
        self.last_run_len.store(local.pairs.len(), Ordering::Relaxed);
        let spill = self.spill.lock().clone();
        let bytes = match &spill {
            Some(h) => local.pairs.iter().map(|(k, v)| (h.size_hint)(k, v) as u64).sum(),
            None => 0,
        };
        self.runs.lock().push(SizedRun { bytes, pairs: local.pairs });
        if let Some(hooks) = &spill {
            if hooks.accountant.charge(bytes) {
                self.spill_down(hooks);
            }
        }
    }

    fn configure_spill(&self, hooks: &SpillHooks<K, V>) -> bool {
        *self.spill.lock() = Some(hooks.clone());
        true
    }

    /// Runs hold independent unique-key pairs; folding them across runs
    /// would corrupt identity-combined values.
    fn spill_folds() -> bool {
        false
    }

    /// The in-memory remainder cut along the same splitters as the
    /// spilled runs: one drain per non-empty key range, tagged with it.
    fn into_indexed_drains(self, _parts: usize) -> Vec<(usize, Self::Drain)> {
        let splitters = self.splitters.into_inner().unwrap_or_default();
        let mut ranges: Vec<Vec<(K, V)>> = (0..=splitters.len()).map(|_| Vec::new()).collect();
        for pair in self.runs.into_inner().into_iter().flat_map(|run| run.pairs) {
            ranges[range_of(&splitters, &pair.0)].push(pair);
        }
        ranges.into_iter().enumerate().filter(|(_, pairs)| !pairs.is_empty()).collect()
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
    /// baseline's round count.
    fn into_drains(self, _parts: usize) -> Vec<Self::Drain> {
        self.runs.into_inner().into_iter().map(|r| r.pairs).collect()
    }

    /// A run already *is* reduce input; draining is the identity.
    fn drain(payload: Self::Drain) -> Vec<(K, V)> {
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::Identity;

    fn absorb_run(c: &UnlockedContainer<u64, String>, pairs: Vec<(u64, String)>) {
        let mut local =
            <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::local(c);
        for (k, v) in pairs {
            local.emit(k, v);
        }
        <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::absorb(c, local);
    }

    fn partitions(c: UnlockedContainer<u64, String>) -> Vec<Vec<(u64, String)>> {
        <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::into_partitions(c, 99)
    }

    #[test]
    fn spilled_and_resident_pairs_share_disjoint_key_ranges() {
        use crate::spill::MemoryAccountant;
        use std::sync::Arc;

        type Sunk = Arc<Mutex<Vec<(usize, Vec<(u64, String)>)>>>;
        let sunk: Sunk = Arc::default();
        let sink_log = Arc::clone(&sunk);
        let hooks = SpillHooks {
            accountant: Arc::new(MemoryAccountant::new(400)),
            partitions: 3,
            size_hint: |_, _| 10,
            sink: Arc::new(move |range, batch| sink_log.lock().push((range, batch))),
        };
        let c = UnlockedContainer::new();
        assert!(
            <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::configure_spill(
                &c, &hooks
            )
        );
        // Keys 0..60 in a scattered order, every key three times over,
        // eight pairs to a run: the ledger trips on the fifth run.
        let keys = (0..180u64).map(|i| i * 7 % 60);
        for run in keys.collect::<Vec<_>>().chunks(8) {
            absorb_run(&c, run.iter().map(|&k| (k, format!("v{k}"))).collect());
        }
        let mut tagged = std::mem::take(&mut *sunk.lock());
        assert!(!tagged.is_empty(), "a 400-byte budget must spill");
        tagged.extend(
            <UnlockedContainer<u64, String> as Container<u64, String, Identity>>::into_indexed_drains(
                c, 3,
            ),
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
