//! The hash container: keys hash to cells, values combine at insert.
//!
//! The shuffle path hashes each key **exactly once**: a local emit
//! computes the key's Fx hash ([`FxSeededState`]), stores it beside the
//! key, and every later step reuses it — the high bits pick the shard
//! (power-of-two mask), the shard map keys on the stored value through a
//! passthrough hasher, and the drain unwraps without rehashing. Absorbs
//! are batched: the local map is grouped by destination shard first,
//! then each shard lock is taken once per task instead of once per key.
//! Shards are hash-prefix partitions, so draining partition `p` is the
//! concatenation of a contiguous shard range — no re-bucketing.

use super::fast_hash::{FxSeededState, PassthroughState, SeedableBuildHasher, ShortKeyHasher};
use super::local_table::{Entry, LocalTable};
use super::{Container, ContainerHooks, ContainerMetrics};
use crate::api::Emit;
use crate::combiner::Combiner;
use crate::key::ByteKey;
use crate::runtime::ActiveConfig;
use crate::spill::SpillHooks;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use supmr_storage::scan;

/// Lock shards in the global table; must stay a power of two (shard
/// index is a mask over the hash's high bits). Larger than any
/// realistic worker count so absorbs rarely contend, and enough
/// hash-prefix granularity to feed up to 64 reduce partitions.
const SHARDS: usize = 64;
/// log₂([`SHARDS`]).
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// Shard index from a key hash: the high [`SHARD_BITS`] bits, masked —
/// never a modulo. High bits are the best-mixed bits of an Fx hash
/// (carries propagate upward through the multiply).
#[inline]
fn shard_of(hash: u64) -> usize {
    ((hash >> (64 - SHARD_BITS)) as usize) & (SHARDS - 1)
}

/// Reduce partition a shard belongs to — the inverse of the contiguous
/// ranges [`Container::into_drains`] hands out: with `p` the largest
/// power of two ≤ `parts`, partition = shard / (64/p). Spilled runs are
/// tagged with this so they meet their in-memory remainder at merge.
fn partition_of(shard: usize, parts: usize) -> usize {
    let p = 1usize << parts.clamp(1, SHARDS).ilog2();
    shard / (SHARDS / p)
}

/// A key carrying its hash, computed once at emit time. Equality is on
/// the key (hash equality is implied); hashing writes the stored value
/// for [`PassthroughState`] maps.
struct Prehashed<K> {
    hash: u64,
    key: K,
}

impl<K: Eq> PartialEq for Prehashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<K: Eq> Eq for Prehashed<K> {}

impl<K> Hash for Prehashed<K> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

type Shard<K, A> = HashMap<Prehashed<K>, A, PassthroughState>;

/// Phoenix++-style hash container.
///
/// Each map task combines into a private map; task completion merges
/// that map into a sharded global table, shard-batched. The reduce
/// phase drains contiguous shard ranges as hash-prefix partitions.
///
/// `S` is the key hasher — [`FxSeededState`] by default; tests inject
/// instrumented states through [`HashContainer::with_hasher`].
pub struct HashContainer<K, V, C, S = FxSeededState>
where
    K: Eq + Hash,
    C: Combiner<V>,
    S: BuildHasher,
{
    shards: Vec<Mutex<Shard<K, C::Acc>>>,
    state: Mutex<S>,
    metrics: Mutex<Option<Arc<ContainerMetrics>>>,
    pairs: AtomicU64,
    /// Out-of-core wiring, set once via [`Container::configure_spill`]
    /// when the job runs under a memory budget; `None` leaves absorb on
    /// the unmetered hot path.
    spill: Mutex<Option<SpillHooks<K, C::Acc>>>,
    /// Estimated resident bytes per shard (vacant-insert size hints),
    /// maintained only while spilling is configured. The hottest shard
    /// by this estimate is the spill victim.
    shard_bytes: Vec<AtomicU64>,
    /// Single-spiller token: absorbs that find the ledger over budget
    /// while another thread is already draining just keep going.
    spilling: Mutex<()>,
    /// High-water mark of absorbed local-table sizes. New locals
    /// pre-size to it, so steady-state map tasks (same split size, same
    /// vocabulary) skip the whole grow-and-rehash cascade.
    local_hint: AtomicUsize,
    /// Absorb counter feeding the lock-sweep rotation: under a governor
    /// with a widened shard mask, concurrent absorbs start their sweep
    /// at different shards so their first lock acquisitions spread out.
    sweep: AtomicU64,
    /// The governor's dynamic knobs, when the job runs adaptively.
    active: Mutex<Option<Arc<ActiveConfig>>>,
    _marker: PhantomData<fn(V)>,
}

impl<K, V, C, S> Default for HashContainer<K, V, C, S>
where
    K: Eq + Hash,
    C: Combiner<V>,
    S: BuildHasher + Default,
{
    fn default() -> Self {
        Self::with_hasher(S::default())
    }
}

impl<K, V, C, S> HashContainer<K, V, C, S>
where
    K: Eq + Hash,
    C: Combiner<V>,
    S: BuildHasher,
{
    /// An empty container (random hash seed).
    pub fn new() -> Self
    where
        S: Default,
    {
        Self::default()
    }

    /// An empty container keyed by an explicit build hasher.
    pub fn with_hasher(state: S) -> Self {
        HashContainer {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            state: Mutex::new(state),
            metrics: Mutex::new(None),
            pairs: AtomicU64::new(0),
            spill: Mutex::new(None),
            shard_bytes: (0..SHARDS).map(|_| AtomicU64::new(0)).collect(),
            spilling: Mutex::new(()),
            local_hint: AtomicUsize::new(0),
            sweep: AtomicU64::new(0),
            active: Mutex::new(None),
            _marker: PhantomData,
        }
    }

    /// Drain hottest shards into spill runs until the ledger is below
    /// its low watermark. At most one thread spills at a time; the
    /// estimate is swapped out *before* the shard map is taken, so keys
    /// racing in between are still charged (the ledger over-counts
    /// rather than leaks).
    fn spill_down(&self, hooks: &SpillHooks<K, C::Acc>) {
        let Some(_token) = self.spilling.try_lock() else { return };
        while hooks.accountant.over_low() {
            let victim = self
                .shard_bytes
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .enumerate()
                .max_by_key(|&(_, bytes)| bytes);
            let Some((idx, est)) = victim else { break };
            if est == 0 {
                break; // every shard already drained; remainder is local maps
            }
            let est = self.shard_bytes[idx].swap(0, Ordering::Relaxed);
            let map = std::mem::take(&mut *self.shards[idx].lock());
            if !map.is_empty() {
                let pairs: Vec<(K, C::Acc)> =
                    map.into_iter().map(|(pk, acc)| (pk.key, acc)).collect();
                (hooks.sink)(partition_of(idx, hooks.partitions), pairs);
            }
            hooks.accountant.release(est);
        }
    }
}

impl<K, V, C> HashContainer<K, V, C>
where
    K: Eq + Hash,
    C: Combiner<V>,
{
    /// An empty container with a fixed hash seed: key→shard placement
    /// (and therefore partition contents) is identical across runs.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_hasher(FxSeededState::with_seed(seed))
    }
}

/// Thread-local insert handle: a private table with insert-time
/// combining. Keys are hashed here, once, and never again.
///
/// The table is an open-addressed [`LocalTable`] rather than a std
/// `HashMap` so the zero-copy emit path can probe with a *borrowed*
/// byte slice: [`Emit::emit_span`] (and [`Emit::emit_bytes`], the same
/// path with the key as its own buffer) hashes the slice through
/// [`ByteKey::write_bytes`] and compares it against stored keys
/// bytewise — or, for a key of at most eight bytes, loads it as one
/// word and hashes and compares that — and materializes an owned key
/// only on the first insert of each distinct key: the
/// allocation-hardening half of the SWAR map path.
pub struct LocalHash<K, V, C: Combiner<V>, S = FxSeededState> {
    table: LocalTable<K, C::Acc>,
    state: S,
    emitted: u64,
    /// Borrowed-slice emissions seen (`supmr.map.tokens`).
    tokens: u64,
    /// Borrowed-slice first-inserts that heap-allocated
    /// (`supmr.map.alloc_spills`).
    alloc_spills: u64,
    _marker: PhantomData<fn(V)>,
}

impl<K, V, C, S> Emit<K, V> for LocalHash<K, V, C, S>
where
    K: Eq + Hash,
    C: Combiner<V>,
    S: BuildHasher<Hasher: ShortKeyHasher> + Send,
{
    fn emit(&mut self, key: K, value: V) {
        self.emitted += 1;
        let hash = self.state.hash_one(&key);
        match self.table.entry(hash, |k| *k == key) {
            Entry::Occupied(acc) => C::fold(acc, value),
            Entry::Vacant(slot) => slot.insert(key, C::unit(value)),
        }
    }

    fn emit_bytes(&mut self, key: &[u8], value: V)
    where
        K: ByteKey,
    {
        self.emit_span(key, 0..key.len(), value);
    }

    fn emit_span(&mut self, buf: &[u8], span: Range<usize>, value: V)
    where
        K: ByteKey,
    {
        let start = span.start;
        let key = &buf[span];
        self.emitted += 1;
        self.tokens += 1;
        // One build_hasher call per emission, same as the owned path —
        // the `one_hash_invocation_per_absorbed_key` invariant holds
        // for borrowed emissions too.
        let mut hasher = self.state.build_hasher();
        if key.len() <= 8 {
            // Most tokens of any text: one load from the buffer, and
            // the word is both what is hashed and what is compared.
            let word = scan::short_word(buf, start, key.len());
            K::write_short(word, key.len(), &mut hasher);
            self.fold_bytes(hasher.finish(), |k| k.eq_short(word, key.len()), key, value);
        } else {
            K::write_bytes(key, &mut hasher);
            self.fold_bytes(hasher.finish(), |k| k.eq_bytes(key), key, value);
        }
    }
}

impl<K: ByteKey, V, C: Combiner<V>, S> LocalHash<K, V, C, S> {
    /// Fold `value` into the entry `hash` and `eq` find, or insert
    /// `key` — materialized only now — with it.
    #[inline]
    fn fold_bytes(&mut self, hash: u64, eq: impl Fn(&K) -> bool, key: &[u8], value: V) {
        match self.table.entry(hash, eq) {
            Entry::Occupied(acc) => C::fold(acc, value),
            Entry::Vacant(slot) => {
                if K::spills(key) {
                    self.alloc_spills += 1;
                }
                slot.insert(K::from_bytes(key), C::unit(value));
            }
        }
    }
}

/// One hash partition's payload: a contiguous range of shard maps,
/// concatenated (and unwrapped) on a worker by [`Container::drain`].
pub struct HashDrain<K, A> {
    maps: Vec<Shard<K, A>>,
}

impl<K, V, C, S> Container<K, V, C> for HashContainer<K, V, C, S>
where
    K: Ord + Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    C: Combiner<V>,
    S: SeedableBuildHasher<Hasher: ShortKeyHasher>,
{
    type Local = LocalHash<K, V, C, S>;
    type Drain = HashDrain<K, C::Acc>;

    fn local(&self) -> Self::Local {
        LocalHash {
            table: LocalTable::with_capacity(self.local_hint.load(Ordering::Relaxed)),
            state: self.state.lock().clone(),
            emitted: 0,
            tokens: 0,
            alloc_spills: 0,
            _marker: PhantomData,
        }
    }

    fn absorb(&self, local: Self::Local) {
        self.pairs.fetch_add(local.emitted, Ordering::Relaxed);
        let metrics = self.metrics.lock().clone();
        if let Some(m) = &metrics {
            if local.tokens > 0 {
                m.emit_tokens.add(local.tokens);
            }
            if local.alloc_spills > 0 {
                m.alloc_spills.add(local.alloc_spills);
            }
        }
        if local.table.is_empty() {
            return;
        }
        if let Some(m) = &metrics {
            let (load, displacement) = local.table.probe_stats();
            m.local_load.set((load * 100.0).round() as i64);
            m.local_probe_len.set((displacement * 100.0).round() as i64);
        }
        self.local_hint.fetch_max(local.table.len(), Ordering::Relaxed);
        let spill = self.spill.lock().clone();
        // RAII occupancy guard: decrements even if a combiner merge
        // panics mid-absorb, so the gauge cannot leak upward.
        let _in_flight = metrics.as_ref().map(|m| m.absorb_in_flight.track(1));

        // Group by destination shard first so each shard lock is taken
        // once per task, not once per key. Uniform hashing spreads the
        // local map evenly, so size every batch for its expected share
        // up front instead of growing it a doubling at a time.
        let hint = local.table.len() / SHARDS + 1;
        let mut batches: Vec<Vec<(Prehashed<K>, C::Acc)>> =
            (0..SHARDS).map(|_| Vec::with_capacity(hint)).collect();
        for (hash, key, acc) in local.table {
            batches[shard_of(hash)].push((Prehashed { hash, key }, acc));
        }
        // Ledger approximation under a budget: vacant inserts charge
        // their codec size hint; merges charge nothing (for counting
        // combiners the accumulator does not grow).
        let mut charged: u64 = 0;
        // Sweep rotation: each shard still receives its batch exactly
        // once; only the *order* locks are taken in changes (already
        // unordered across concurrent absorbs), never placement.
        let active = self.active.lock().clone();
        let start = active
            .as_ref()
            .map_or(0, |a| (self.sweep.fetch_add(1, Ordering::Relaxed) & a.shard_mask()) as usize);
        for step in 0..SHARDS {
            let shard = (start + step) & (SHARDS - 1);
            let batch = std::mem::take(&mut batches[shard]);
            if batch.is_empty() {
                continue;
            }
            let mut guard = match &metrics {
                Some(m) => {
                    let t0 = Instant::now();
                    let guard = self.shards[shard].lock();
                    m.absorb_wait_us.record_duration_us(t0.elapsed());
                    m.absorb_batch.record(batch.len() as u64);
                    guard
                }
                None => self.shards[shard].lock(),
            };
            guard.reserve(batch.len());
            let mut added: u64 = 0;
            for (pk, acc) in batch {
                let size = spill.as_ref().map(|h| (h.size_hint)(&pk.key, &acc) as u64);
                match guard.entry(pk) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        C::merge(e.get_mut(), acc);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        added += size.unwrap_or(0);
                        e.insert(acc);
                    }
                }
            }
            drop(guard);
            if added > 0 {
                self.shard_bytes[shard].fetch_add(added, Ordering::Relaxed);
                charged += added;
            }
        }
        if let Some(hooks) = &spill {
            let over = charged > 0 && hooks.accountant.charge(charged);
            // A governor-requested pre-emptive drain rides the same
            // single-spiller path as budget pressure.
            let requested = active.as_ref().is_some_and(|a| a.take_drain());
            if over || requested {
                self.spill_down(hooks);
            }
        }
    }

    fn configure(&self, hooks: &ContainerHooks) {
        debug_assert_eq!(
            self.pairs.load(Ordering::Relaxed),
            0,
            "configure must precede the first absorb"
        );
        if let Some(seed) = hooks.hash_seed {
            *self.state.lock() = S::from_seed(seed);
        }
        *self.metrics.lock() = hooks.metrics.clone();
        *self.active.lock() = hooks.active.clone();
    }

    fn configure_spill(&self, hooks: &SpillHooks<K, C::Acc>) -> bool {
        debug_assert_eq!(
            self.pairs.load(Ordering::Relaxed),
            0,
            "configure_spill must precede the first absorb"
        );
        *self.spill.lock() = Some(hooks.clone());
        true
    }

    fn distinct_keys(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn total_pairs(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }

    /// Shards *are* hash-prefix partitions: with `p` the largest power
    /// of two ≤ `parts` (capped at the 64 shards), partition `i` is the
    /// contiguous shard range `[i·64/p, (i+1)·64/p)` — the keys whose
    /// hashes start with prefix `i`. No per-key work happens here;
    /// all-empty ranges are dropped.
    fn into_drains(self, parts: usize) -> Vec<Self::Drain> {
        self.into_indexed_drains(parts).into_iter().map(|(_, d)| d).collect()
    }

    /// Enumerate *before* filtering out all-empty ranges, so a drain's
    /// tag is its true hash-prefix partition — the index spilled runs
    /// of the same shard range carry (`partition_of`).
    fn into_indexed_drains(self, parts: usize) -> Vec<(usize, Self::Drain)> {
        let p = 1usize << parts.clamp(1, SHARDS).ilog2();
        let per = SHARDS / p;
        let mut shards = self.shards.into_iter().map(Mutex::into_inner);
        (0..p)
            .map(|i| (i, HashDrain { maps: shards.by_ref().take(per).collect() }))
            .filter(|(_, d)| d.maps.iter().any(|m| !m.is_empty()))
            .collect()
    }

    fn drain(payload: Self::Drain) -> Vec<(K, C::Acc)> {
        let total: usize = payload.maps.iter().map(HashMap::len).sum();
        let mut out = Vec::with_capacity(total);
        for map in payload.maps {
            out.extend(map.into_iter().map(|(pk, acc)| (pk.key, acc)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::{Buffer, Sum};
    use supmr_metrics::Registry;

    type WC = HashContainer<String, u64, Sum>;

    #[test]
    fn local_combining_shrinks_pairs() {
        let c = WC::new();
        let mut local = c.local();
        for _ in 0..100 {
            local.emit("the".to_string(), 1);
        }
        local.emit("word".to_string(), 1);
        c.absorb(local);
        assert_eq!(c.total_pairs(), 101);
        assert_eq!(c.distinct_keys(), 2);
        let parts = c.into_partitions(4);
        let mut all: Vec<(String, u64)> = parts.into_iter().flatten().collect();
        all.sort();
        assert_eq!(all, vec![("the".to_string(), 100), ("word".to_string(), 1)]);
    }

    #[test]
    fn cross_task_merge_by_key() {
        let c = WC::new();
        for _ in 0..8 {
            let mut local = c.local();
            local.emit("k".to_string(), 2);
            c.absorb(local);
        }
        let all: Vec<(String, u64)> = c.into_partitions(3).into_iter().flatten().collect();
        assert_eq!(all, vec![("k".to_string(), 16)]);
    }

    #[test]
    fn partition_count_is_bounded_and_covering() {
        let c = WC::new();
        let mut local = c.local();
        for i in 0..1000 {
            local.emit(format!("key{i}"), 1);
        }
        c.absorb(local);
        let parts = c.into_partitions(7);
        assert!(parts.len() <= 7);
        assert!(!parts.iter().any(Vec::is_empty));
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn empty_container_has_no_partitions() {
        let c = WC::new();
        assert_eq!(c.distinct_keys(), 0);
        assert_eq!(c.total_pairs(), 0);
        assert!(c.into_partitions(4).is_empty());
    }

    #[test]
    fn buffer_combiner_collects_values() {
        let c: HashContainer<u32, &'static str, Buffer> = HashContainer::new();
        let mut a = c.local();
        a.emit(1, "x");
        a.emit(1, "y");
        c.absorb(a);
        let mut b = c.local();
        b.emit(1, "z");
        c.absorb(b);
        let all: Vec<(u32, Vec<&str>)> = c.into_partitions(1).into_iter().flatten().collect();
        assert_eq!(all.len(), 1);
        let mut vals = all[0].1.clone();
        vals.sort();
        assert_eq!(vals, vec!["x", "y", "z"]);
    }

    #[test]
    fn concurrent_absorbs_are_consistent() {
        let c = std::sync::Arc::new(WC::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    let mut local = c.local();
                    for i in 0..500 {
                        local.emit(format!("key{}", i % 50), 1);
                        local.emit(format!("t{t}-{i}"), 1);
                    }
                    c.absorb(local);
                });
            }
        });
        let c = std::sync::Arc::into_inner(c).unwrap();
        assert_eq!(c.total_pairs(), 8 * 1000);
        assert_eq!(c.distinct_keys(), 50 + 8 * 500);
        let all: Vec<(String, u64)> = c.into_partitions(4).into_iter().flatten().collect();
        let shared: u64 = all.iter().filter(|(k, _)| k.starts_with("key")).map(|(_, v)| v).sum();
        assert_eq!(shared, 8 * 500);
    }

    #[test]
    fn fixed_seed_makes_partition_contents_reproducible() {
        let run = || {
            let c: HashContainer<String, u64, Sum> = HashContainer::with_seed(99);
            let mut local = c.local();
            for i in 0..500 {
                local.emit(format!("key{i}"), 1);
            }
            c.absorb(local);
            c.into_partitions(8)
                .into_iter()
                .map(|mut p| {
                    p.sort();
                    p
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed, same key→partition placement");
    }

    #[test]
    fn configure_reseeds_and_attaches_metrics() {
        let registry = Registry::new();
        let hooks = ContainerHooks {
            hash_seed: Some(7),
            metrics: Some(ContainerMetrics::register(&registry)),
            active: None,
        };
        let place = |with_hooks: bool| {
            let c: HashContainer<String, u64, Sum> = HashContainer::new();
            if with_hooks {
                c.configure(&hooks);
            }
            let mut local = c.local();
            for i in 0..200 {
                local.emit(format!("key{i}"), 1);
            }
            c.absorb(local);
            c.into_partitions(8).into_iter().map(|p| p.len()).collect::<Vec<_>>()
        };
        assert_eq!(place(true), place(true), "seed 7 fixes placement");
        let batches = registry
            .snapshot()
            .entries
            .iter()
            .find_map(|e| match (&e.name[..], &e.value) {
                ("supmr.container.absorb_batch", supmr_metrics::MetricValue::Histogram(h)) => {
                    Some(h.clone())
                }
                _ => None,
            })
            .expect("absorb batch histogram registered");
        assert_eq!(batches.sum, 2 * 200, "every key counted in exactly one shard batch");
    }

    /// A build hasher that counts how many hashers it hands out — i.e.
    /// how many times a key is hashed through it.
    #[derive(Clone, Default)]
    struct CountingState {
        inner: FxSeededState,
        handed_out: Arc<AtomicU64>,
    }

    impl BuildHasher for CountingState {
        type Hasher = <FxSeededState as BuildHasher>::Hasher;

        fn build_hasher(&self) -> Self::Hasher {
            self.handed_out.fetch_add(1, Ordering::Relaxed);
            self.inner.build_hasher()
        }
    }

    impl SeedableBuildHasher for CountingState {
        fn from_seed(seed: u64) -> Self {
            CountingState {
                inner: FxSeededState::with_seed(seed),
                handed_out: Arc::new(AtomicU64::new(0)),
            }
        }
    }

    #[test]
    fn one_hash_invocation_per_absorbed_key() {
        // Regression for the old double-hash shuffle path (SipHash for
        // shard_for + SipHash again inside the shard map): each emitted
        // key is hashed exactly once, and absorb + drain add zero.
        let state = CountingState::default();
        let counter = Arc::clone(&state.handed_out);
        let c: HashContainer<String, u64, Sum, CountingState> = HashContainer::with_hasher(state);
        let mut local = c.local();
        for i in 0..300 {
            local.emit(format!("key{i}"), 1);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 300, "one hash per emitted key");
        c.absorb(local);
        let parts = c.into_partitions(4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 300);
        assert_eq!(
            counter.load(Ordering::Relaxed),
            300,
            "absorb and drain must reuse the emit-time hash"
        );
    }

    #[test]
    fn borrowed_emit_hashes_once_and_matches_owned_path() {
        use crate::key::CompactKey;
        let state = CountingState::default();
        let counter = Arc::clone(&state.handed_out);
        let c: HashContainer<CompactKey, u64, Sum, CountingState> =
            HashContainer::with_hasher(state);
        let mut local = c.local();
        for _ in 0..50 {
            local.emit_bytes(b"the", 1);
        }
        let long = "a-key-well-beyond-the-twenty-two-byte-inline-cap";
        local.emit_bytes(long.as_bytes(), 1);
        assert_eq!(counter.load(Ordering::Relaxed), 51, "one hash per borrowed emission");
        c.absorb(local);
        let mut all: Vec<(CompactKey, u64)> = c.into_partitions(4).into_iter().flatten().collect();
        all.sort();
        assert_eq!(all, vec![(CompactKey::from(long), 1), (CompactKey::from("the"), 50)]);
        assert_eq!(counter.load(Ordering::Relaxed), 51, "absorb and drain reuse the emit hash");
    }

    #[test]
    fn borrowed_emissions_feed_map_counters() {
        use crate::key::CompactKey;
        let registry = Registry::new();
        let c: HashContainer<CompactKey, u64, Sum> = HashContainer::new();
        c.configure(&ContainerHooks {
            hash_seed: None,
            metrics: Some(ContainerMetrics::register(&registry)),
            active: None,
        });
        let mut local = c.local();
        for _ in 0..10 {
            local.emit_bytes(b"short", 1);
        }
        // Two emissions of one heap-spilling key: only the first insert
        // allocates, so alloc_spills counts 1, not 2.
        let long = b"this key is long enough to heap-spill".as_slice();
        local.emit_bytes(long, 1);
        local.emit_bytes(long, 1);
        c.absorb(local);
        let snapshot = registry.snapshot();
        let counter = |name: &str| {
            snapshot
                .entries
                .iter()
                .find_map(|e| match (&e.name[..], &e.value) {
                    (n, supmr_metrics::MetricValue::Counter(v)) if n == name => Some(*v),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        assert_eq!(counter("supmr.map.tokens"), 12);
        assert_eq!(counter("supmr.map.alloc_spills"), 1);
    }

    /// Every pair `c` holds, sorted.
    fn drained<K: Ord + Eq + Hash + Clone + Send + Sync + 'static>(
        c: HashContainer<K, u64, Sum>,
    ) -> Vec<(K, u64)> {
        let mut all: Vec<(K, u64)> = c.into_partitions(4).into_iter().flatten().collect();
        all.sort();
        all
    }

    /// Emit each of `spans` of `buf` `repeats` times through the owned,
    /// span and borrowed-slice routes; the three containers must end
    /// up equal.
    fn assert_routes_agree<K>(seed: u64, buf: &[u8], spans: &[Range<usize>], repeats: usize)
    where
        K: ByteKey + Ord + Clone + Send + Sync + std::fmt::Debug + 'static,
    {
        let fill = |route: &str| {
            let c: HashContainer<K, u64, Sum> = HashContainer::with_seed(seed);
            let mut local = c.local();
            for span in spans.iter().cycle().take(spans.len() * repeats).cloned() {
                match route {
                    "owned" => local.emit(K::from_bytes(&buf[span]), 1),
                    "span" => local.emit_span(buf, span, 1),
                    // The key alone: nothing after it is in bounds.
                    _ => local.emit_bytes(&buf[span], 1),
                }
            }
            c.absorb(local);
            drained(c)
        };
        let owned = fill("owned");
        assert_eq!(owned.iter().map(|(_, n)| n).sum::<u64>(), (spans.len() * repeats) as u64);
        assert_eq!(fill("span"), owned, "span route");
        assert_eq!(fill("slice"), owned, "borrowed-slice route");
    }

    /// Keys around every edge of the one-word path, laid out in one
    /// buffer; returns it with each key's span.
    fn boundary_keys() -> (Vec<u8>, Vec<Range<usize>>) {
        let long = *b"abcdefgh-tail-of-a-key!"; // 23 bytes: one past the inline cap
        let keys: Vec<&[u8]> = vec![
            b"",
            b"a",
            b"abc",
            b"abcd",
            b"abcdefg",
            b"abcdefgh",  // exactly one word
            b"abcdefghi", // equal to the above in its first 8 bytes
            b"abcdefghj", // ... and differing from this one only after them
            &long[..22],
            &long,
            b"a\0",                    // a trailing NUL is a byte of the key, not padding
            b"\xff\xfe\x80",           // non-ASCII
            b"\xc3\xa9t\xc3\xa9 \x00", // ... with a space and a NUL inside
            b"xyz",                    // starts within the buffer's last 8 bytes
            b"q",                      // ends on its last byte
        ];
        let mut buf = Vec::new();
        let mut spans = Vec::new();
        for key in keys {
            buf.push(b' ');
            spans.push(buf.len()..buf.len() + key.len());
            buf.extend_from_slice(key);
        }
        assert!(buf.len() - spans[spans.len() - 2].start < 8);
        (buf, spans)
    }

    #[test]
    fn short_key_path_counts_like_the_owned_path_at_every_boundary() {
        use crate::key::CompactKey;
        let (buf, spans) = boundary_keys();
        for seed in [0, 1, 99] {
            assert_routes_agree::<CompactKey>(seed, &buf, &spans, 3);
            // String takes ByteKey's default one-word methods.
            assert_routes_agree::<String>(seed, &buf, &spans[..10], 3);
        }
    }

    #[test]
    fn a_key_hashing_to_zero_counts_like_any_other() {
        use crate::key::CompactKey;
        // Solve the two Fx rounds of a short key backwards for the seed
        // under which b"zero" hashes to 0: the last round is zero iff
        // its input is, and an odd multiplier inverts by Newton steps.
        const FX_K: u64 = 0x517c_c1b7_2722_0a95;
        let mut inverse = FX_K;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FX_K.wrapping_mul(inverse)));
        }
        let after_first_round = 0xffu64.rotate_right(5);
        let word = scan::short_word(b"zero", 0, 4) ^ (4 << 56);
        let seed = (after_first_round.wrapping_mul(inverse) ^ word).rotate_right(5);
        let state = FxSeededState::with_seed(seed);
        assert_eq!(state.hash_one(CompactKey::from("zero")), 0, "the seed was solved for this");
        let buf = b"zero one zero";
        assert_routes_agree::<CompactKey>(seed, buf, &[0..4, 5..8, 9..13], 2);
    }

    #[test]
    fn absorb_records_the_local_tables_load_and_probe_length() {
        use crate::key::CompactKey;
        let metrics = ContainerMetrics::register(&Registry::new());
        let c: HashContainer<CompactKey, u64, Sum> = HashContainer::with_seed(3);
        c.configure(&ContainerHooks {
            hash_seed: None,
            metrics: Some(Arc::clone(&metrics)),
            active: None,
        });
        c.absorb(c.local()); // an empty table records nothing
        assert_eq!(metrics.local_load.value(), 0);
        let mut local = c.local();
        for i in 0..1000 {
            local.emit_bytes(format!("key{i}").as_bytes(), 1);
        }
        c.absorb(local);
        assert_eq!(metrics.local_load.value(), 49, "1000 keys in 2048 slots, percent");
        let probe_len = metrics.local_probe_len.value();
        assert!((0..=100).contains(&probe_len), "mean displacement {probe_len}/100 of a slot");
    }

    /// Sum-like combiner whose cross-task `merge` panics, to prove
    /// absorb unwinds cleanly.
    struct BoomOnMerge;

    impl Combiner<u64> for BoomOnMerge {
        type Acc = u64;
        fn unit(v: u64) -> u64 {
            v
        }
        fn fold(acc: &mut u64, v: u64) {
            *acc += v;
        }
        fn merge(_into: &mut u64, _from: u64) {
            panic!("merge exploded");
        }
    }

    #[test]
    fn panicking_absorb_leaves_gauges_consistent() {
        let registry = Registry::new();
        let metrics = ContainerMetrics::register(&registry);
        let c: HashContainer<String, u64, BoomOnMerge> = HashContainer::new();
        c.configure(&ContainerHooks {
            hash_seed: None,
            metrics: Some(Arc::clone(&metrics)),
            active: None,
        });
        let mut a = c.local();
        a.emit("k".to_string(), 1);
        c.absorb(a);
        let mut b = c.local();
        b.emit("k".to_string(), 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.absorb(b)));
        assert!(panicked.is_err(), "duplicate key must hit the panicking merge");
        assert_eq!(
            metrics.absorb_in_flight.value(),
            0,
            "in-flight gauge must unwind with the absorb"
        );
    }
}
