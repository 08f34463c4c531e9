//! The user-facing MapReduce API.
//!
//! Mirrors the Phoenix++ application contract as modified by SupMR
//! (Table I of the paper): the application supplies `map` and `reduce`
//! callbacks plus its choice of intermediate container and combiner; the
//! runtime owns memory management, chunking, splitting, scheduling, and
//! merging. The paper's `set_data()` callback — "pass the chunk length
//! and ingest chunk pointer back to the application" — is subsumed by
//! `map` receiving a borrowed byte slice of the current ingest chunk:
//! the runtime dictates which memory the callbacks operate on, the
//! application never re-implements ingest.

use crate::combiner::Combiner;
use crate::container::Container;
use crate::key::ByteKey;
use crate::spill::PairCodec;
use std::hash::Hash;
use std::ops::Range;

/// Sink for intermediate key/value pairs emitted by `map`.
///
/// The concrete emitter is the container's thread-local insert handle,
/// so combining happens at emit time with no synchronization.
pub trait Emit<K, V> {
    /// Emit one intermediate pair.
    fn emit(&mut self, key: K, value: V);

    /// Emit one pair whose key is a *borrowed* byte slice — typically a
    /// token pointing straight into the ingest chunk.
    ///
    /// The default materializes an owned key and forwards to
    /// [`Emit::emit`]; containers override it to probe with the
    /// borrowed bytes and only call [`ByteKey::from_bytes`] on the
    /// first insert of each distinct key, so a repeat of a hot word
    /// costs zero allocations.
    fn emit_bytes(&mut self, key: &[u8], value: V)
    where
        K: ByteKey,
    {
        self.emit(K::from_bytes(key), value);
    }

    /// [`Emit::emit_bytes`] of the key `buf[span]`, for a map that
    /// knows where its token sits in a larger buffer (a tokenizer's
    /// [`next_span`](supmr_storage::scan::Tokens::next_span) over the
    /// split). Containers override it to read a short key as one word
    /// straight from `buf`, where the bytes after it are in bounds.
    ///
    /// # Panics
    /// If `span` is not inside `buf`.
    fn emit_span(&mut self, buf: &[u8], span: Range<usize>, value: V)
    where
        K: ByteKey,
    {
        self.emit_bytes(&buf[span], value);
    }
}

/// Convenience accumulator type alias: the accumulator a job's combiner
/// produces for its values.
pub type AccOf<J> = <<J as MapReduce>::Combiner as Combiner<<J as MapReduce>::Value>>::Acc;

/// A MapReduce application.
///
/// Implementations choose their intermediate representation the way
/// Phoenix++ applications do — by container and combiner type — because
/// that choice is workload-dependent (§V-B: hash for word count's skewed
/// keys, unlocked array storage for sort's unique keys).
pub trait MapReduce: Send + Sync + 'static {
    /// Intermediate key.
    type Key: Ord + Hash + Clone + Send + Sync + 'static;
    /// Intermediate value.
    type Value: Clone + Send + Sync + 'static;
    /// Insert-time folding of values per key.
    type Combiner: Combiner<Self::Value>;
    /// Per-key result of `reduce`.
    type Output: Clone + Send + Sync + 'static;
    /// Intermediate pair storage.
    type Container: Container<Self::Key, Self::Value, Self::Combiner>;

    /// Build the job's container. Called exactly once per job — in the
    /// pipeline runtime the container *persists across all map rounds*
    /// (§III-C), which is why the runtime rather than the map phase owns
    /// its construction.
    fn make_container(&self) -> Self::Container;

    /// Transform one input split into intermediate pairs. The split is a
    /// record-aligned byte range of the current ingest chunk.
    fn map(&self, split: &[u8], emit: &mut dyn Emit<Self::Key, Self::Value>);

    /// Coalesce the accumulated values of one key into an output.
    fn reduce(&self, key: &Self::Key, acc: AccOf<Self>) -> Self::Output;

    /// An order-preserving 8-byte prefix of `key`, which every sort and
    /// merge of this job's pairs compares before the keys themselves
    /// (the merge phase, spill-run sorts, the external reduce) — dense
    /// `u64`s instead of two pointer chases per comparison.
    ///
    /// # Contract
    /// `a <= b` ⟹ `key_prefix(a) <= key_prefix(b)`. Equal prefixes
    /// decide nothing: the comparison falls through to `Key::cmp`, so
    /// the default — `0` for every key, "compare full keys" — is always
    /// correct, and a prefix only ever changes speed. Implement it with
    /// [`KeyPrefix`](crate::key::KeyPrefix) where the key type has one
    /// (byte strings, `usize`): `key.key_prefix()`.
    fn key_prefix(&self, _key: &Self::Key) -> u64 {
        0
    }

    /// How this application's intermediate pairs cross the byte
    /// boundary into spill run files, enabling out-of-core execution
    /// under [`JobConfig::memory_budget`]. The default — `None` — keeps
    /// the job fully in-memory; setting a budget without a codec is an
    /// [`InvalidConfig`](crate::error::SupmrError::InvalidConfig) error.
    ///
    /// [`JobConfig::memory_budget`]: crate::runtime::JobConfig::memory_budget
    fn spill_codec(&self) -> Option<PairCodec<Self::Key, AccOf<Self>>> {
        None
    }

    /// How this application's *reduced output* pairs cross a pipeline
    /// stage boundary: a non-terminal [`Pipeline`] stage encodes each
    /// `(key, output)` straight out of its reduce workers into the
    /// framed hand-off buffer the next stage maps over. The default —
    /// `None` — limits the application to terminal (or single-stage)
    /// use; wiring it into a stage that feeds another is an
    /// [`InvalidConfig`](crate::error::SupmrError::InvalidConfig) error.
    ///
    /// [`Pipeline`]: crate::runtime::Pipeline
    fn handoff_codec(&self) -> Option<PairCodec<Self::Key, Self::Output>> {
        None
    }
}

/// An [`Emit`] adapter that counts pairs as they pass through, used by
/// the runtime to report intermediate-pair statistics.
pub struct CountingEmit<'e, K, V> {
    inner: &'e mut dyn Emit<K, V>,
    emitted: u64,
}

impl<'e, K, V> CountingEmit<'e, K, V> {
    /// Wrap an emitter.
    pub fn new(inner: &'e mut dyn Emit<K, V>) -> Self {
        CountingEmit { inner, emitted: 0 }
    }

    /// Pairs emitted through this adapter.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl<K, V> Emit<K, V> for CountingEmit<'_, K, V> {
    fn emit(&mut self, key: K, value: V) {
        self.emitted += 1;
        self.inner.emit(key, value);
    }

    fn emit_bytes(&mut self, key: &[u8], value: V)
    where
        K: ByteKey,
    {
        self.emitted += 1;
        self.inner.emit_bytes(key, value);
    }

    fn emit_span(&mut self, buf: &[u8], span: Range<usize>, value: V)
    where
        K: ByteKey,
    {
        self.emitted += 1;
        self.inner.emit_span(buf, span, value);
    }
}

/// A trivial vector-backed emitter for tests and small tools.
#[derive(Debug, Default)]
pub struct VecEmit<K, V> {
    /// The collected pairs, in emission order.
    pub pairs: Vec<(K, V)>,
}

impl<K, V> Emit<K, V> for VecEmit<K, V> {
    fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_emit_collects_in_order() {
        let mut e = VecEmit::default();
        e.emit("b", 1);
        e.emit("a", 2);
        assert_eq!(e.pairs, vec![("b", 1), ("a", 2)]);
    }

    #[test]
    fn counting_emit_counts_and_forwards() {
        let mut sink = VecEmit::default();
        let mut counter = CountingEmit::new(&mut sink);
        for i in 0..5 {
            counter.emit(i, i * 10);
        }
        assert_eq!(counter.emitted(), 5);
        assert_eq!(sink.pairs.len(), 5);
        assert_eq!(sink.pairs[3], (3, 30));
    }
}
