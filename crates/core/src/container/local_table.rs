//! Open-addressed task-local hash table with borrowed-slice probes.
//!
//! `std::collections::HashMap` cannot look a key up by a *borrowed*
//! `&[u8]` unless the owned key implements `Borrow<[u8]>` with a
//! byte-slice-consistent hash — impossible for `Prehashed`-style wrapped
//! keys, and the unstable raw-entry API is off the table. This small
//! linear-probe table is the stable-Rust replacement backing
//! [`LocalHash`](super::hash::LocalHash): the caller supplies the
//! precomputed hash and an equality closure, so the zero-copy emit path
//! ([`Emit::emit_bytes`](crate::api::Emit::emit_bytes)) probes with the
//! borrowed token bytes and materializes an owned key only when the
//! probe misses.
//!
//! **Which bits index.** The home slot is the top `log₂ slots` bits of
//! `hash · 2⁶⁴/φ` — the stored Fx hash multiplied once more, never its
//! low bits. An Fx hash ends in a multiply, whose low bits depend only
//! on the low bits of its input (carries travel upward), so masking
//! them clusters any key set that differs in few bytes. Mean / longest
//! displacement from the home slot, the 10 000-word `TextGen`
//! vocabulary in 16 384 slots, seeds 1–8: low bits 17.4–20.5 / 467–646,
//! high bits 4.6–4.7 / 58–66, re-multiplied 0.67–0.72 / 20–33 (a random
//! function gives 0.78). Sequential `u64`s and strings differing only
//! in their last bytes were as bad on the low bits (up to 49 / 853) and
//! sit under 1.5 re-multiplied. Hash *values* are untouched: the
//! multiply only picks the slot.
//!
//! **Slot layout.** The slot array is one `u64` per slot — the stored
//! hash's high 32 bits as a tag over the entry's index + 1, zero for an
//! empty slot — and the entries, `(hash, key, accumulator)`, sit apart
//! in a dense vector in first-seen order. A fresh table for a 10 000
//! word vocabulary therefore initialises 128 KB, not the 786 KB of
//! 16 384 × 48 B `(hash, Option<(key, acc)>)` slots; a drain walks only
//! live entries; growth re-places indices and moves no entry; and since
//! a skewed key stream meets its hot keys first, those sit contiguously
//! at the front of the entry vector. The tag settles almost every probe
//! of another key's slot without touching its entry. The layout
//! rejected was the wide slot array kept and recycled through the
//! container (a free list `local()` draws from and `absorb` returns
//! to): it saves the allocation but still clears and walks 786 KB per
//! task, and needs a lock-guarded pool for what this does with none.
//!
//! The table grows on *insert*, not on probe, keeping the repeat-token
//! fold path free of load arithmetic, and stays at most 5/8 full: with
//! 8-byte slots room is cheap, and at that load a well-spread key set
//! sits a mean 0.8 slots from home with no chain past a few dozen (at
//! 7/8 a *random* function already gives 3.5 and chains in the
//! hundreds). The stored hash travels with the key into the sharded
//! global table, preserving the hash-exactly-once shuffle invariant.

/// Initial slot count on first insert (power of two).
const FIRST_CAPACITY: usize = 16;

/// 2⁶⁴ / φ, the Fibonacci-hashing multiplier that spreads a stored hash
/// over the slot index (see the module docs).
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The half of a slot word that holds the stored hash's high bits; the
/// low half holds the entry's index + 1.
const TAG: u64 = !(u32::MAX as u64);

/// Slots [`LocalTable::probe_stats`] reads at most.
const SAMPLED_SLOTS: usize = 2048;

/// Entries a table of `slots` slots holds before it grows: 5/8 of them.
const fn limit(slots: usize) -> usize {
    slots / 8 * 5
}

/// Home slot of `hash` among `slots` (a power of two, at least 2) slots.
#[inline]
fn home(hash: u64, slots: usize) -> usize {
    (hash.wrapping_mul(SPREAD) >> (64 - slots.trailing_zeros())) as usize
}

/// First empty slot at or after `hash`'s home.
fn vacant(slots: &[u64], hash: u64) -> usize {
    let mask = slots.len() - 1;
    let mut i = home(hash, slots.len());
    while slots[i] != 0 {
        i = (i + 1) & mask;
    }
    i
}

/// A task-local linear-probe table keyed by precomputed hashes.
pub struct LocalTable<K, A> {
    /// `tag | entry index + 1` per slot; 0 = empty.
    slots: Vec<u64>,
    /// `(stored hash, key, accumulator)` in first-seen order.
    entries: Vec<(u64, K, A)>,
}

impl<K, A> Default for LocalTable<K, A> {
    fn default() -> Self {
        LocalTable { slots: Vec::new(), entries: Vec::new() }
    }
}

impl<K, A> LocalTable<K, A> {
    /// An empty table pre-sized so `expected` entries insert without
    /// growing (used by containers to carry a high-water-mark hint
    /// across tasks, skipping the per-task rehash cascade).
    pub fn with_capacity(expected: usize) -> Self {
        if expected == 0 {
            return LocalTable::default();
        }
        let slots = (expected * 8).div_ceil(5).next_power_of_two().max(FIRST_CAPACITY);
        LocalTable { slots: vec![0; slots], entries: Vec::with_capacity(expected) }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Locate `hash`'s entry: `Occupied` borrows the accumulator of the
    /// entry whose slot carries the hash's tag and whose key satisfies
    /// `eq`; `Vacant` is positioned at the insertion slot (and
    /// re-probes after growing if materializing it would cross the
    /// load limit).
    #[inline]
    pub fn entry(&mut self, hash: u64, eq: impl Fn(&K) -> bool) -> Entry<'_, K, A> {
        if self.slots.is_empty() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let tag = hash & TAG;
        let mut i = home(hash, self.slots.len());
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Entry::Vacant(VacantSlot { table: self, slot: i, hash });
            }
            if slot & TAG == tag {
                let e = (slot as u32 - 1) as usize;
                if eq(&self.entries[e].1) {
                    return Entry::Occupied(&mut self.entries[e].2);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slot array and re-place every entry's index by its
    /// stored hash (no key re-hashing, no entry moved).
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(FIRST_CAPACITY);
        self.slots = vec![0; new_cap];
        for (index, (hash, _, _)) in self.entries.iter().enumerate() {
            let i = vacant(&self.slots, *hash);
            self.slots[i] = (hash & TAG) | (index as u64 + 1);
        }
    }

    /// How far past its home slot each entry sits, in slot order, for
    /// the entries in every `stride`-th cache line (8 slots) of the
    /// slot array.
    fn displacements(&self, stride: usize) -> impl Iterator<Item = usize> + '_ {
        let mask = self.slots.len().wrapping_sub(1);
        self.slots.chunks(8).enumerate().step_by(stride).flat_map(move |(line, slots)| {
            slots.iter().enumerate().filter(|(_, &slot)| slot != 0).map(move |(at, &slot)| {
                let hash = self.entries[(slot as u32 - 1) as usize].0;
                (line * 8 + at).wrapping_sub(home(hash, self.slots.len())) & mask
            })
        })
    }

    /// `(load, mean displacement)`: the occupied share of the slot
    /// array, and the mean distance of an entry from its home slot —
    /// one less than the slots a lookup of it reads. For a finished
    /// table's metrics, not the emit path; the mean is over at most
    /// [`SAMPLED_SLOTS`] slots, whole cache lines spread evenly over
    /// the array, so it costs microseconds whatever the table's size.
    pub fn probe_stats(&self) -> (f64, f64) {
        let stride = (self.slots.len() / SAMPLED_SLOTS).max(1);
        let (seen, total) =
            self.displacements(stride).fold((0usize, 0usize), |(n, sum), d| (n + 1, sum + d));
        let load = self.len() as f64 / self.slots.len().max(1) as f64;
        (load, total as f64 / seen.max(1) as f64)
    }
}

/// Result of a [`LocalTable::entry`] probe.
pub enum Entry<'t, K, A> {
    /// The key is present; fold into its accumulator.
    Occupied(&'t mut A),
    /// The key is absent; insert at the probed slot.
    Vacant(VacantSlot<'t, K, A>),
}

/// An insertion point returned by a missed probe.
pub struct VacantSlot<'t, K, A> {
    table: &'t mut LocalTable<K, A>,
    slot: usize,
    hash: u64,
}

impl<K, A> VacantSlot<'_, K, A> {
    /// Materialize the key as the next entry and point the probed slot
    /// at it, growing (and re-probing, since growth moves slots) when
    /// this insert would cross the load limit. The limit keeps the
    /// table strictly under-full, so every probe sequence terminates at
    /// an empty slot.
    #[inline]
    pub fn insert(self, key: K, acc: A) {
        let t = self.table;
        let mut i = self.slot;
        if t.entries.len() + 1 > limit(t.slots.len()) {
            t.grow();
            i = vacant(&t.slots, self.hash);
        }
        let index = u32::try_from(t.entries.len() + 1).expect("a slot indexes entries in 32 bits");
        t.slots[i] = (self.hash & TAG) | u64::from(index);
        t.entries.push((self.hash, key, acc));
    }
}

impl<K, A> IntoIterator for LocalTable<K, A> {
    type Item = (u64, K, A);
    type IntoIter = std::vec::IntoIter<(u64, K, A)>;

    /// Drain `(stored hash, key, accumulator)` in first-seen order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::FxSeededState;
    use crate::key::CompactKey;
    use std::hash::BuildHasher;
    use supmr_workloads::{TextGen, TextGenConfig};

    fn insert_str(t: &mut LocalTable<String, u64>, key: &str, hash: u64) {
        match t.entry(hash, |k| k == key) {
            Entry::Occupied(acc) => *acc += 1,
            Entry::Vacant(v) => v.insert(key.to_string(), 1),
        }
    }

    #[test]
    fn folds_repeats_and_inserts_distinct() {
        let mut t = LocalTable::default();
        for _ in 0..10 {
            insert_str(&mut t, "the", 42);
        }
        insert_str(&mut t, "word", 7);
        assert_eq!(t.len(), 2);
        let all: Vec<(u64, String, u64)> = t.into_iter().collect();
        assert_eq!(all, vec![(42, "the".into(), 10), (7, "word".into(), 1)], "first-seen order");
    }

    #[test]
    fn colliding_hashes_stay_distinct_keys() {
        // Same hash, different keys: linear probing must keep both.
        let mut t = LocalTable::default();
        insert_str(&mut t, "alpha", 99);
        insert_str(&mut t, "beta", 99);
        insert_str(&mut t, "alpha", 99);
        assert_eq!(t.len(), 2);
        let all: Vec<(String, u64)> = t.into_iter().map(|(_, k, a)| (k, a)).collect();
        assert_eq!(all, vec![("alpha".into(), 2), ("beta".into(), 1)]);
    }

    #[test]
    fn hash_zero_is_a_hash_like_any_other() {
        // 0 marks an empty slot, but an occupied one always carries a
        // nonzero index: a real zero hash inserts, folds and drains as
        // itself, next to a key whose hash shares its (zero) tag.
        let mut t = LocalTable::default();
        insert_str(&mut t, "zero", 0);
        insert_str(&mut t, "low", 5);
        insert_str(&mut t, "zero", 0);
        let all: Vec<(u64, String, u64)> = t.into_iter().collect();
        assert_eq!(all, vec![(0, "zero".into(), 2), (5, "low".into(), 1)]);
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut t = LocalTable::default();
        // Far past several doublings, with adversarial hashes: SPREAD's
        // inverse undoes the index multiply, so every key's home is
        // slot 0 and the table is one 5 000-slot chain.
        const UNSPREAD: u64 = 0xF1DE_83E1_9937_733D;
        assert_eq!(SPREAD.wrapping_mul(UNSPREAD), 1);
        let keys = if cfg!(miri) { 300 } else { 5_000u64 }; // the chain walk is quadratic
        for i in 0..keys {
            let key = format!("key{i}");
            match t.entry(i.wrapping_mul(UNSPREAD), |k| *k == key) {
                Entry::Occupied(acc) => *acc += 1,
                Entry::Vacant(v) => v.insert(key, 1),
            }
        }
        assert_eq!(t.len() as u64, keys);
        for i in (0..keys).step_by(97) {
            let key = format!("key{i}");
            match t.entry(i.wrapping_mul(UNSPREAD), |k| *k == key) {
                Entry::Occupied(acc) => assert_eq!(*acc, 1),
                Entry::Vacant(_) => panic!("key{i} lost in growth"),
            }
        }
    }

    #[test]
    fn with_capacity_inserts_without_growing() {
        for expected in [1, 10, 100, 10_240, 10_241] {
            let mut t: LocalTable<String, u64> = LocalTable::with_capacity(expected);
            let slots = t.slots.len();
            assert!(limit(slots) >= expected);
            assert!(
                slots == FIRST_CAPACITY || limit(slots / 2) < expected,
                "{expected}: oversized"
            );
            for i in 0..expected as u64 {
                insert_str(&mut t, &format!("key{i}"), (i + 1).wrapping_mul(SPREAD));
            }
            assert_eq!(t.len(), expected);
            assert_eq!(t.slots.len(), slots, "pre-sized table must not grow");
        }
    }

    #[test]
    fn empty_table_iterates_nothing() {
        let t: LocalTable<String, u64> = LocalTable::default();
        assert!(t.is_empty());
        assert_eq!(t.probe_stats(), (0.0, 0.0));
        assert_eq!(t.into_iter().count(), 0);
    }

    /// `keys` hashed under `state` into a growing table; returns the
    /// `(mean, longest)` displacement and the load it ended at.
    fn displacement<Q: std::hash::Hash>(
        state: &FxSeededState,
        keys: impl Iterator<Item = Q>,
    ) -> (f64, usize, f64) {
        let mut t: LocalTable<(), ()> = LocalTable::default();
        for key in keys {
            match t.entry(state.hash_one(key), |_| false) {
                Entry::Occupied(_) => unreachable!("eq never matches"),
                Entry::Vacant(v) => v.insert((), ()),
            }
        }
        let (load, sampled) = t.probe_stats();
        let mean = t.displacements(1).sum::<usize>() as f64 / t.len() as f64;
        assert!((sampled - mean).abs() < 0.5, "a 1-in-8 sample says {sampled}, every entry {mean}");
        (mean, t.displacements(1).max().unwrap_or(0), load)
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "a statistic over 370 000 inserts; touches no memory the rest do not"
    )]
    fn low_entropy_keys_sit_near_their_home_slots() {
        // The regression this guards: indexing by the hash's low bits
        // put the benchmark's own vocabulary a mean 18–21 slots from
        // home (longest chain 468–636), and sequential integers or
        // strings differing in few bytes fared no better. 10 240 and
        // 5 120 keys fill 16 384 and 8 192 slots to exactly the 5/8
        // load limit; the vocabulary stops just short of it.
        let vocabulary = TextGen::new(TextGenConfig::default());
        let suffixed = |i: usize| format!("a-common-prefix-{}{}", (i / 256) as u8 as char, i % 256);
        let prefixed = |i: usize| {
            let mut key = b"..-a-common-suffix".to_vec();
            key[0] = (i % 256) as u8;
            key[1] = (i / 256) as u8;
            CompactKey::from_bytes(&key)
        };
        for seed in 1..=8 {
            let state = FxSeededState::with_seed(seed);
            let words = vocabulary.words().iter().map(|w| CompactKey::from(w.as_str()));
            let cases = [
                ("vocabulary", 0.61, displacement(&state, words)),
                ("sequential u64", 0.625, displacement(&state, 0..10_240u64)),
                ("last bytes differ", 0.625, displacement(&state, (0..10_240).map(suffixed))),
                ("first bytes differ", 0.625, displacement(&state, (0..10_240).map(prefixed))),
                ("first bytes, 8 192", 0.625, displacement(&state, (0..5_120).map(prefixed))),
            ];
            for (name, at, (mean, longest, load)) in cases {
                assert!((load - at).abs() < 0.001, "{name}: load {load}, meant to sit at {at}");
                assert!(mean <= 3.0, "{name}, seed {seed}: mean displacement {mean}");
                assert!(longest <= 64, "{name}, seed {seed}: longest chain {longest}");
            }
        }
    }
}
