//! Shared immutable byte buffers.
//!
//! [`SharedBytes`] is the currency of the zero-copy ingest path: one
//! reference-counted vector (`Arc<Vec<u8>>`) with a window onto it.
//! The ingest thread reads a chunk into a vector and the `SharedBytes`
//! *adopts* it: the vector's allocation becomes the shared one, so the
//! bytes are written to memory once. The chunker, the feedback path and
//! every map split then hold cheap clones (an `Arc` bump plus two
//! indices) of the same allocation instead of copying the payload per
//! consumer.
//!
//! Windows never re-slice the underlying storage: [`SharedBytes::slice`]
//! produces a narrower view of the *same* allocation, so a resident
//! source can hand out per-chunk views of one file-sized buffer.
//!
//! Once the last other view has dropped, the vector can be taken back
//! ([`SharedBytes::try_reclaim`]) and the next chunk read into it: a
//! double-buffered pipeline cycles two buffers instead of faulting in a
//! fresh one per chunk.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, cheaply-cloneable view into a shared byte buffer.
///
/// Dereferences to `[u8]`, so all slice methods and indexing work
/// directly on it. Cloning copies two `usize`s and bumps a refcount;
/// the payload is never duplicated.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl SharedBytes {
    /// An empty buffer (no allocation is shared).
    pub fn empty() -> Self {
        SharedBytes::from(Vec::new())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Copy the viewed bytes into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A narrower view of the same allocation. `range` is relative to
    /// this view. No bytes are copied.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds or inverted.
    pub fn slice(&self, range: Range<usize>) -> SharedBytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {}..{} out of bounds for SharedBytes of length {}",
            range.start,
            range.end,
            self.len()
        );
        SharedBytes {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Number of views (including this one) sharing the allocation.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Take back the whole vector behind this view if this is its last
    /// view (the reference count says no other is alive); otherwise
    /// return the view unchanged. The vector keeps its length and
    /// contents.
    pub fn try_reclaim(self) -> Result<Vec<u8>, SharedBytes> {
        let SharedBytes { buf, start, end } = self;
        Arc::try_unwrap(buf).map_err(|buf| SharedBytes { buf, start, end })
    }
}

impl Default for SharedBytes {
    fn default() -> Self {
        SharedBytes::empty()
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for SharedBytes {
    /// Adopt an owned vector as the shared buffer: its allocation is
    /// kept, no byte is copied, and every later clone is free.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        SharedBytes { buf: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(s: &[u8]) -> Self {
        SharedBytes::from(s.to_vec())
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len())
            .field("data", &self.as_slice())
            .finish()
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl PartialEq<[u8]> for SharedBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for SharedBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for SharedBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other as &[u8]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for SharedBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other as &[u8]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_one_allocation() {
        let whole = SharedBytes::from(b"hello world".to_vec());
        let hello = whole.slice(0..5);
        let world = whole.slice(6..11);
        assert_eq!(hello, b"hello");
        assert_eq!(world, b"world");
        // Three views, one allocation.
        assert_eq!(whole.ref_count(), 3);
    }

    #[test]
    fn nested_slices_stay_relative() {
        let whole = SharedBytes::from(b"abcdefgh".to_vec());
        let mid = whole.slice(2..6); // "cdef"
        let inner = mid.slice(1..3); // "de"
        assert_eq!(inner, b"de");
        assert_eq!(inner.len(), 2);
    }

    #[test]
    fn deref_gives_slice_methods_and_indexing() {
        let b = SharedBytes::from(b"line\n".to_vec());
        assert_eq!(b.last(), Some(&b'\n'));
        assert!(b.ends_with(b"e\n"));
        assert_eq!(&b[0..4], b"line");
        assert_eq!(b.iter().filter(|&&c| c == b'n').count(), 1);
    }

    #[test]
    fn equality_crosses_representations() {
        let b = SharedBytes::from(b"xy".to_vec());
        assert_eq!(b, b"xy".to_vec());
        assert_eq!(b, b"xy");
        assert_eq!(b, *b"xy");
        assert_eq!(b, SharedBytes::from(b"xy".to_vec()));
        assert_ne!(b, SharedBytes::from(b"xz".to_vec()));
    }

    #[test]
    fn empty_views() {
        let e = SharedBytes::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let whole = SharedBytes::from(b"ab".to_vec());
        assert!(whole.slice(1..1).is_empty());
    }

    #[test]
    fn adopting_a_vector_keeps_its_allocation() {
        let v = b"adopted, not copied".to_vec();
        let ptr = v.as_ptr();
        let shared = SharedBytes::from(v);
        assert_eq!(shared.as_ptr(), ptr);
        assert_eq!(shared.slice(9..12).as_ptr(), ptr.wrapping_add(9));
    }

    #[test]
    fn only_the_last_view_reclaims_the_vector() {
        let v = b"chunk bytes".to_vec();
        let ptr = v.as_ptr();
        let whole = SharedBytes::from(v);
        let split = whole.slice(0..5);
        let whole = whole.try_reclaim().expect_err("a split still views the buffer");
        assert_eq!(whole, b"chunk bytes", "a failed reclaim leaves the view as it was");
        drop(split);
        let back = whole.try_reclaim().expect("no other view is alive");
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back, b"chunk bytes");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slice_panics() {
        let b = SharedBytes::from(b"ab".to_vec());
        let _ = b.slice(0..3);
    }
}
