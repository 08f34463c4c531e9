//! Dependency-free FxHash-style hashing for the shuffle hot path.
//!
//! The default [`std::collections::HashMap`] hasher (SipHash-1-3) is
//! keyed and DoS-resistant but costs tens of cycles per word — and the
//! old container paid it **twice** per absorbed key (once to pick a
//! shard, once inside the shard map). [`FxSeededState`] replaces it with
//! the multiply-xor scheme rustc uses internally: a rotate, an xor, and
//! one 64-bit multiply per word, unkeyed by design and therefore
//! seedable for reproducible runs (`--hash-seed`). Intermediate keys
//! come from job *data*, not from a network adversary, so the HashDoS
//! posture is: random seed by default (per-container, from the
//! process's SipHash keys), explicit seed on request (see DESIGN.md
//! §3f).
//!
//! The container hashes every key **once** with this state, routes the
//! high bits to a shard, and stores the full hash alongside the key so
//! the shard map never re-hashes (`PassthroughState`).

use std::hash::{BuildHasher, Hasher, RandomState};
use supmr_storage::scan;

/// The Fx multiplier (the 64-bit golden-ratio constant rustc uses).
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

/// A [`BuildHasher`] that can be reconstructed from an explicit seed —
/// the hook [`JobConfig::hash_seed`](crate::runtime::JobConfig) uses to
/// make a container's key placement reproducible across runs.
pub trait SeedableBuildHasher: BuildHasher + Clone + Send + Sync + 'static {
    /// A state that hashes identically for equal seeds.
    fn from_seed(seed: u64) -> Self;
}

/// Seedable FxHash-style build hasher.
///
/// Equal seeds hash equally — across containers, threads, and runs.
/// [`FxSeededState::new`] draws a random seed so distinct containers
/// disagree by default (flooding one run teaches nothing about the
/// next).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FxSeededState {
    seed: u64,
}

impl FxSeededState {
    /// A state with a random per-instance seed.
    pub fn new() -> FxSeededState {
        // Derive the seed from std's per-process random SipHash keys;
        // no extra entropy source or dependency needed.
        FxSeededState { seed: RandomState::new().hash_one(0x5eed_5eedu64) }
    }

    /// A state with an explicit seed (reproducible placement).
    pub fn with_seed(seed: u64) -> FxSeededState {
        FxSeededState { seed }
    }

    /// The seed this state hashes with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for FxSeededState {
    fn default() -> Self {
        FxSeededState::new()
    }
}

impl BuildHasher for FxSeededState {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

impl SeedableBuildHasher for FxSeededState {
    fn from_seed(seed: u64) -> Self {
        FxSeededState::with_seed(seed)
    }
}

/// The word-at-a-time multiply-xor hasher [`FxSeededState`] builds.
#[derive(Debug, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            self.write_short(scan::short_word(tail, 0, tail.len()), tail.len());
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// A [`Hasher`] that takes a key of at most eight bytes as one word —
/// what lets the emit path hash a short token from the single load it
/// also compares with, instead of handing `write` a slice to take apart
/// again.
pub trait ShortKeyHasher: Hasher {
    /// Feed exactly what `write(&word.to_le_bytes()[..len])` would.
    /// `len <= 8`, and `word` is zero above its low `len` bytes
    /// ([`scan::short_word`]).
    fn write_short(&mut self, word: u64, len: usize);
}

impl ShortKeyHasher for FxHasher {
    /// A full word goes in as it is; a shorter one has its length
    /// folded into the top byte (which it leaves zero), so "ab" + ""
    /// and "a" + "b" prefixes cannot collide trivially; no bytes add
    /// nothing. `len & 7` makes the first two one expression.
    #[inline]
    fn write_short(&mut self, word: u64, len: usize) {
        debug_assert!(len <= 8 && (len == 8 || word >> (8 * len) == 0));
        if len > 0 {
            self.add_to_hash(word ^ ((len as u64 & 7) << 56));
        }
    }
}

/// A build hasher whose "hash" is the pre-computed value itself.
///
/// The shard maps key on `Prehashed` wrappers that carry the Fx hash
/// computed at emit time; this state just passes that value
/// through (rotated so hashbrown's top-7-bit control tags don't all
/// collide on the shard prefix). Never use it with keys that hash more
/// than one `u64`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassthroughState;

impl BuildHasher for PassthroughState {
    type Hasher = PassthroughHasher;

    #[inline]
    fn build_hasher(&self) -> PassthroughHasher {
        PassthroughHasher { hash: 0 }
    }
}

/// Hasher built by [`PassthroughState`].
#[derive(Debug, Clone)]
pub(crate) struct PassthroughHasher {
    hash: u64,
}

impl Hasher for PassthroughHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The top bits of a prehashed value encode the shard, so inside
        // one shard they are constant; rotate them away from the bucket
        // control bits the map derives from the top of the hash.
        self.hash.rotate_left(16)
    }

    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("passthrough hashing accepts only write_u64");
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_hash_equally_distinct_seeds_differ() {
        let a = FxSeededState::with_seed(7);
        let b = FxSeededState::with_seed(7);
        let c = FxSeededState::with_seed(8);
        for key in ["", "a", "hello world", "0123456789abcdef-longer-than-a-word"] {
            assert_eq!(a.hash_one(key), b.hash_one(key), "{key:?}");
            assert_ne!(a.hash_one(key), c.hash_one(key), "{key:?}");
        }
        assert_eq!(a.hash_one(12345u64), b.hash_one(12345u64));
    }

    #[test]
    fn random_states_disagree() {
        let a = FxSeededState::new();
        let b = FxSeededState::new();
        assert_ne!(a.seed(), b.seed(), "independent states must draw distinct seeds");
    }

    #[test]
    fn bytes_hash_spreads_prefixes() {
        let s = FxSeededState::with_seed(0);
        // Tail-length folding: a split prefix is not the concatenation.
        assert_ne!(s.hash_one("ab"), s.hash_one("a"));
        assert_ne!(s.hash_one([1u8; 7].as_slice()), s.hash_one([1u8; 8].as_slice()));
        // High bits (the shard prefix) vary across small keys.
        let tops: std::collections::HashSet<u64> =
            (0u64..64).map(|i| s.hash_one(i) >> 58).collect();
        assert!(tops.len() > 16, "only {} distinct top-6-bit prefixes", tops.len());
    }

    #[test]
    fn passthrough_returns_rotated_written_word() {
        let s = PassthroughState;
        let mut h = s.build_hasher();
        h.write_u64(0xdead_beef_0000_0001);
        assert_eq!(h.finish(), 0xdead_beef_0000_0001u64.rotate_left(16));
    }
}
