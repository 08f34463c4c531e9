//! Inline-small byte keys and zero-copy emission ([`CompactKey`],
//! [`ByteKey`]).
//!
//! The map side of a text workload is dominated by short keys — words,
//! patterns, index terms. Representing each as a fresh heap `String`
//! (the pre-PR-6 path: `String::from_utf8_lossy(word).into_owned()` per
//! token) makes the allocator the hot path. [`CompactKey`] is the
//! allocation-hardened replacement: keys up to [`CompactKey::INLINE_CAP`]
//! bytes live inline in the 24-byte key value itself (the same size as a
//! `String` header), and only longer keys spill to one boxed slice.
//!
//! [`ByteKey`] is the contract that lets the emit path defer even that:
//! a map task hands [`Emit::emit_bytes`](crate::api::Emit::emit_bytes) a
//! *borrowed* slice of the ingest chunk, the container probes its table
//! with the borrowed bytes, and an owned key materializes only on the
//! first insert of each distinct key — a vocabulary-sized number of
//! constructions instead of a token-count-sized one.

use crate::container::ShortKeyHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use supmr_storage::scan::short_word;

/// Maximum key length stored inline (no heap allocation).
const INLINE_CAP: usize = 22;

/// A byte-string key that stores short keys inline.
///
/// Layout is one byte of discriminant + length, 22 inline payload bytes
/// (or a boxed slice for longer keys) — 24 bytes total, matching
/// `String`'s pointer/len/capacity header, so swapping key types never
/// grows the container's cells.
///
/// Ordering, equality, and hashing are all over the raw bytes;
/// `Ord`/`Hash` agree with `String`'s for valid-ASCII content (see the
/// equivalence property tests), so merge order and shard placement are
/// unchanged from the `String`-keyed implementation.
#[derive(Clone)]
pub enum CompactKey {
    /// Up to [`CompactKey::INLINE_CAP`] bytes stored in place.
    Inline {
        /// Number of payload bytes in `buf`.
        len: u8,
        /// Inline payload storage. Invariant: bytes past `len` are zero
        /// — [`CompactKey::from_bytes`] is the only constructor, and
        /// [`ByteKey::eq_short`] compares the first word whole.
        buf: [u8; INLINE_CAP],
    },
    /// Longer keys spill to one exact-size heap allocation.
    Heap(Box<[u8]>),
}

impl CompactKey {
    /// Longest key representable without a heap allocation.
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// Build a key from raw bytes, inlining when they fit.
    #[inline]
    pub fn from_bytes(bytes: &[u8]) -> CompactKey {
        if bytes.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            CompactKey::Inline { len: bytes.len() as u8, buf }
        } else {
            CompactKey::Heap(bytes.into())
        }
    }

    /// The key's bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            CompactKey::Inline { len, buf } => &buf[..*len as usize],
            CompactKey::Heap(b) => b,
        }
    }

    /// Key length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this key required a heap allocation.
    pub fn is_heap(&self) -> bool {
        matches!(self, CompactKey::Heap(_))
    }

    /// Heap bytes owned beyond the inline cell itself (0 when inline) —
    /// the input to spill size accounting.
    pub fn heap_bytes(&self) -> usize {
        match self {
            CompactKey::Inline { .. } => 0,
            CompactKey::Heap(b) => b.len(),
        }
    }

    /// The key as UTF-8 text (tokenizers in this workspace only emit
    /// ASCII, so display paths use this; invalid bytes are replaced).
    pub fn to_string_lossy(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(self.as_bytes())
    }
}

/// Length check + word-at-a-time compare, fully inlined. Slice `==`
/// lowers to a `bcmp` libcall for runtime lengths; at one compare per
/// probe on the emit hot path, the call overhead alone would dwarf the
/// few bytes of a typical token, so keys compare through this instead.
#[inline]
fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let n = a.len();
    if n >= 8 {
        let mut i = 0;
        while i + 8 <= n {
            let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte window"));
            let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte window"));
            if x != y {
                return false;
            }
            i += 8;
        }
        // Final (possibly overlapping) word covers the tail without a
        // serial byte loop.
        let x = u64::from_le_bytes(a[n - 8..].try_into().expect("8-byte window"));
        let y = u64::from_le_bytes(b[n - 8..].try_into().expect("8-byte window"));
        x == y
    } else {
        // Under a word: each side's overlapping loads, compared whole.
        short_word(a, 0, n) == short_word(b, 0, n)
    }
}

impl PartialEq for CompactKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        bytes_eq(self.as_bytes(), other.as_bytes())
    }
}

impl Eq for CompactKey {}

impl PartialOrd for CompactKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompactKey {
    /// Lexicographic byte order — identical to `str` order for ASCII
    /// (and to `str` order for any UTF-8, since UTF-8 sorts bytewise).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for CompactKey {
    /// Mirrors `str`'s hash (`write(bytes)` + a `0xFF` terminator), so a
    /// seeded build hasher places a `CompactKey` in the same shard as
    /// the equal `String` — guarded by an equivalence test against
    /// libstd drift.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for CompactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompactKey({:?})", self.to_string_lossy())
    }
}

impl fmt::Display for CompactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_lossy())
    }
}

impl Default for CompactKey {
    /// The empty key, inline.
    fn default() -> Self {
        CompactKey::from_bytes(&[])
    }
}

impl PartialEq<str> for CompactKey {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for CompactKey {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<[u8]> for CompactKey {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_bytes() == other
    }
}

impl From<&[u8]> for CompactKey {
    fn from(bytes: &[u8]) -> Self {
        CompactKey::from_bytes(bytes)
    }
}

impl From<&str> for CompactKey {
    fn from(s: &str) -> Self {
        CompactKey::from_bytes(s.as_bytes())
    }
}

/// Key types with a canonical order-preserving 8-byte prefix — what an
/// application's [`MapReduce::key_prefix`](crate::api::MapReduce::key_prefix)
/// returns for them.
///
/// Implementations are monotone in the key's `Ord`
/// (`a <= b` ⟹ `a.key_prefix() <= b.key_prefix()`); keys the prefix
/// cannot tell apart merely tie.
pub trait KeyPrefix {
    /// The prefix.
    fn key_prefix(&self) -> u64;
}

impl KeyPrefix for [u8] {
    /// The first 8 bytes, big-endian, zero-padded: byte-string order on
    /// everything the 8 bytes can tell apart. Keys that differ only
    /// past them — or only in trailing NULs — tie.
    #[inline]
    fn key_prefix(&self) -> u64 {
        let mut word = [0u8; 8];
        let n = self.len().min(8);
        word[..n].copy_from_slice(&self[..n]);
        u64::from_be_bytes(word)
    }
}

impl KeyPrefix for CompactKey {
    #[inline]
    fn key_prefix(&self) -> u64 {
        self.as_bytes().key_prefix()
    }
}

impl KeyPrefix for usize {
    #[inline]
    fn key_prefix(&self) -> u64 {
        *self as u64
    }
}

/// A key constructible from (and comparable against) a borrowed byte
/// slice, with a hash that can be computed from the slice alone.
///
/// This is what makes the zero-copy emit path
/// ([`Emit::emit_bytes`](crate::api::Emit::emit_bytes)) possible: the
/// container hashes and probes with the borrowed bytes, calls
/// [`ByteKey::from_bytes`] only on first insert, and trusts that
/// [`ByteKey::write_bytes`] feeds a hasher the exact byte sequence the
/// key's own [`Hash`] impl would — the invariant the `CompactKey` /
/// `String` equivalence property tests pin down.
pub trait ByteKey: Hash + Eq {
    /// Materialize an owned key from its bytes.
    fn from_bytes(bytes: &[u8]) -> Self;

    /// The key's bytes (must round-trip through [`ByteKey::from_bytes`]).
    fn as_bytes(&self) -> &[u8];

    /// Feed `hasher` exactly what `Self::from_bytes(bytes).hash(hasher)`
    /// would, without materializing the key.
    fn write_bytes<H: Hasher>(bytes: &[u8], hasher: &mut H);

    /// Whether materializing `bytes` heap-allocates (feeds the
    /// `supmr.map.alloc_spills` counter).
    fn spills(bytes: &[u8]) -> bool;

    /// Borrowed-probe equality: must agree with
    /// `*self == Self::from_bytes(bytes)`. The default routes through
    /// the inlined word-at-a-time compare rather than slice `==` (a
    /// `bcmp` libcall), since this runs once per emit-path probe.
    #[inline]
    fn eq_bytes(&self, bytes: &[u8]) -> bool {
        bytes_eq(self.as_bytes(), bytes)
    }

    /// [`ByteKey::write_bytes`] for a key of `len <= 8` bytes held as
    /// one zero-padded little-endian word
    /// ([`scan::short_word`](supmr_storage::scan::short_word)): must
    /// feed `hasher` what `write_bytes(&word.to_le_bytes()[..len], ..)`
    /// would, which is what the default does.
    #[inline]
    fn write_short<H: ShortKeyHasher>(word: u64, len: usize, hasher: &mut H) {
        Self::write_bytes(&word.to_le_bytes()[..len], hasher);
    }

    /// [`ByteKey::eq_bytes`] against such a word.
    #[inline]
    fn eq_short(&self, word: u64, len: usize) -> bool {
        self.eq_bytes(&word.to_le_bytes()[..len])
    }
}

impl ByteKey for CompactKey {
    #[inline]
    fn from_bytes(bytes: &[u8]) -> Self {
        CompactKey::from_bytes(bytes)
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        self.as_bytes()
    }

    #[inline]
    fn write_bytes<H: Hasher>(bytes: &[u8], hasher: &mut H) {
        hasher.write(bytes);
        hasher.write_u8(0xff);
    }

    #[inline]
    fn spills(bytes: &[u8]) -> bool {
        bytes.len() > INLINE_CAP
    }

    #[inline]
    fn write_short<H: ShortKeyHasher>(word: u64, len: usize, hasher: &mut H) {
        hasher.write_short(word, len);
        hasher.write_u8(0xff);
    }

    /// One length compare and one word compare. Leans on the inline
    /// invariant: with the bytes past `len` zero, the buffer's first
    /// word *is* the zero-padded word of a key of at most eight bytes.
    #[inline]
    fn eq_short(&self, word: u64, len: usize) -> bool {
        match self {
            CompactKey::Inline { len: own, buf } => {
                debug_assert!(buf[*own as usize..].iter().all(|&b| b == 0), "inline tail not zero");
                let first = u64::from_le_bytes(buf[..8].try_into().expect("8-byte window"));
                *own as usize == len && first == word
            }
            CompactKey::Heap(_) => false, // longer than any short key
        }
    }
}

impl ByteKey for String {
    /// Tokenizers in this workspace only emit ASCII slices, for which
    /// `from_utf8_lossy` is the identity; invalid UTF-8 is replaced,
    /// matching the historical `String`-keyed emit path byte for byte.
    fn from_bytes(bytes: &[u8]) -> Self {
        String::from_utf8_lossy(bytes).into_owned()
    }

    fn as_bytes(&self) -> &[u8] {
        str::as_bytes(self)
    }

    /// `str` hashes as `write(bytes)` + `write_u8(0xff)`; asserted
    /// against libstd in `string_hash_contract_matches_libstd`.
    fn write_bytes<H: Hasher>(bytes: &[u8], hasher: &mut H) {
        hasher.write(bytes);
        hasher.write_u8(0xff);
    }

    fn spills(_bytes: &[u8]) -> bool {
        true // every String key is a heap allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    #[test]
    fn inline_and_heap_round_trip() {
        for len in [0, 1, 21, 22, 23, 64, 300] {
            let bytes: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
            let k = CompactKey::from_bytes(&bytes);
            assert_eq!(k.as_bytes(), &bytes[..]);
            assert_eq!(k.len(), len);
            assert_eq!(k.is_heap(), len > CompactKey::INLINE_CAP);
            assert_eq!(k.heap_bytes(), if len > CompactKey::INLINE_CAP { len } else { 0 });
            assert_eq!(k, k.clone());
        }
    }

    #[test]
    fn value_stays_string_header_sized() {
        assert_eq!(
            std::mem::size_of::<CompactKey>(),
            std::mem::size_of::<String>(),
            "CompactKey must not grow container cells"
        );
    }

    #[test]
    fn ordering_matches_str_ordering() {
        let words = ["", "a", "ab", "abc", "b", "zz", "a-very-long-key-beyond-the-inline-cap"];
        for x in words {
            for y in words {
                assert_eq!(
                    CompactKey::from(x).cmp(&CompactKey::from(y)),
                    x.cmp(y),
                    "{x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn string_hash_contract_matches_libstd() {
        // ByteKey::write_bytes must mirror libstd's str hashing exactly,
        // or CompactKey and String keys would shard differently. This
        // is the drift guard: if libstd ever changes str's hash layout,
        // this test fails loudly.
        let state = RandomState::new();
        for s in ["", "a", "word", "a somewhat longer key that heap-spills the inline cap"] {
            let direct = state.hash_one(s);
            let mut h = state.build_hasher();
            <String as ByteKey>::write_bytes(s.as_bytes(), &mut h);
            assert_eq!(h.finish(), direct, "libstd str hash drifted for {s:?}");
            let mut h = state.build_hasher();
            <CompactKey as ByteKey>::write_bytes(s.as_bytes(), &mut h);
            assert_eq!(h.finish(), state.hash_one(CompactKey::from(s)));
        }
    }

    #[test]
    fn compact_and_string_hash_identically() {
        let state = RandomState::new();
        for s in ["", "x", "hello", "the quick brown fox jumps over the lazy dog"] {
            assert_eq!(
                state.hash_one(CompactKey::from(s)),
                state.hash_one(s.to_string()),
                "hash mismatch for {s:?}"
            );
        }
    }

    /// The bytes of an inline key's buffer past its length.
    fn inline_tail(key: &CompactKey) -> &[u8] {
        match key {
            CompactKey::Inline { len, buf } => &buf[*len as usize..],
            CompactKey::Heap(_) => &[],
        }
    }

    #[test]
    fn inline_tail_is_zero_however_the_key_was_made() {
        // `eq_short` compares the buffer's first word whole, so a key
        // shorter than a word must carry zeros after its bytes — from
        // the constructor, through `Clone`, and in `Default`.
        assert!(inline_tail(&CompactKey::default()).iter().all(|&b| b == 0));
        for len in 0..=CompactKey::INLINE_CAP {
            let key = CompactKey::from_bytes(&vec![0xa5; len]);
            let clone = key.clone();
            for k in [&key, &clone] {
                assert_eq!(inline_tail(k).len(), CompactKey::INLINE_CAP - len);
                assert!(inline_tail(k).iter().all(|&b| b == 0), "len {len}");
            }
        }
    }

    #[test]
    fn one_word_methods_agree_with_the_slice_methods() {
        use crate::container::FxSeededState;
        let state = FxSeededState::with_seed(5);
        let stored: Vec<CompactKey> =
            [&b""[..], b"a", b"ab\0", b"abcdefg", b"abcdefgh", b"abcdefghi"]
                .into_iter()
                .map(CompactKey::from_bytes)
                .collect();
        for probe in [&b""[..], b"a", b"ab", b"ab\0", b"abcdefg", b"abcdefgh", b"\xff\x80"] {
            let word = short_word(probe, 0, probe.len());
            let mut by_word = state.build_hasher();
            CompactKey::write_short(word, probe.len(), &mut by_word);
            assert_eq!(by_word.finish(), state.hash_one(CompactKey::from_bytes(probe)));
            // String keeps the trait's default, which must say the same.
            let mut by_default = state.build_hasher();
            <String as ByteKey>::write_short(word, probe.len(), &mut by_default);
            assert_eq!(by_default.finish(), by_word.finish(), "{probe:?}");
            for key in &stored {
                assert_eq!(key.eq_short(word, probe.len()), key.eq_bytes(probe), "{key:?}");
            }
        }
    }

    #[test]
    fn display_and_debug_render_text() {
        let k = CompactKey::from("word");
        assert_eq!(format!("{k}"), "word");
        assert_eq!(format!("{k:?}"), "CompactKey(\"word\")");
    }
}
