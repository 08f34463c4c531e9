//! Word count — the paper's ingest-bound benchmark (155GB input).
//!
//! Maps text splits into `(word, 1)` pairs; the hash container's sum
//! combiner collapses them at insert time, so the 155GB input shrinks to
//! a vocabulary-sized intermediate set and the reduce/merge phases are
//! nearly free (Table II: 0.03s / 0.01s). What remains is ingest — which
//! is exactly why the ingest chunk pipeline helps this application most.
//!
//! The map path is the SWAR/zero-copy fast path end to end: the
//! tokenizer walks word-class runs eight bytes at a time
//! ([`scan::tokens`]), every token is emitted as a *borrowed* slice of
//! the ingest chunk ([`Emit::emit_bytes`]), and [`CompactKey`] keeps
//! vocabulary words ≤ 22 bytes inline — so a hot word costs zero
//! allocations after its first appearance.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::HashContainer;
use supmr::{CompactKey, KeyPrefix, PairCodec};
use supmr_storage::scan::{self, ByteClass};

/// The word count application.
#[derive(Debug, Clone, Default)]
pub struct WordCount {
    /// Fold words to ASCII lowercase before counting.
    pub case_insensitive: bool,
}

impl WordCount {
    /// Case-sensitive word count.
    pub fn new() -> WordCount {
        WordCount::default()
    }

    /// Case-insensitive word count.
    pub fn case_insensitive() -> WordCount {
        WordCount { case_insensitive: true }
    }
}

impl MapReduce for WordCount {
    type Key = CompactKey;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<CompactKey, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<CompactKey, u64>) {
        if self.case_insensitive {
            // Fold case during tokenization, on the borrowed slice, into
            // one reusable scratch buffer — the container still probes
            // with borrowed bytes, so a token allocates at most once (on
            // its first container insert), never per emission.
            let mut folded = Vec::with_capacity(CompactKey::INLINE_CAP);
            for word in scan::tokens(split, ByteClass::Word) {
                folded.clear();
                scan::push_ascii_lower(word, &mut folded);
                emit.emit_bytes(&folded, 1);
            }
        } else {
            for word in scan::tokens(split, ByteClass::Word) {
                emit.emit_bytes(word, 1);
            }
        }
    }

    fn reduce(&self, _key: &CompactKey, count: u64) -> u64 {
        count
    }

    fn key_prefix(&self, key: &CompactKey) -> u64 {
        key.key_prefix()
    }

    /// Spill format: `u32 LE` word length, word bytes, `u64 LE` count —
    /// byte-identical to the `String`-keyed codec it replaced.
    fn spill_codec(&self) -> Option<PairCodec<CompactKey, u64>> {
        fn encode(key: &CompactKey, count: &u64, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            buf.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
        fn decode(rec: &[u8]) -> Option<(CompactKey, u64)> {
            let klen = u32::from_le_bytes(rec.get(..4)?.try_into().ok()?) as usize;
            let key = CompactKey::from_bytes(rec.get(4..4 + klen)?);
            let count = u64::from_le_bytes(rec.get(4 + klen..4 + klen + 8)?.try_into().ok()?);
            (rec.len() == 4 + klen + 8).then_some((key, count))
        }
        fn size_hint(key: &CompactKey, _count: &u64) -> usize {
            // Inline cell + any heap spill + the u64 accumulator.
            std::mem::size_of::<CompactKey>() + key.heap_bytes() + std::mem::size_of::<u64>()
        }
        Some(PairCodec { encode, decode, size_hint })
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use supmr::api::VecEmit;
    use supmr::runtime::{Input, Job, JobConfig, MergeMode};
    use supmr_storage::MemSource;

    #[test]
    fn tokenizes_on_non_word_bytes() {
        let mut sink = VecEmit::default();
        WordCount::new().map(b"it's a test--really, a_test!", &mut sink);
        let words: Vec<String> = sink.pairs.iter().map(|(w, _)| w.to_string()).collect();
        assert_eq!(words, vec!["it's", "a", "test", "really", "a_test"]);
    }

    #[test]
    fn case_folding() {
        let mut sink = VecEmit::default();
        WordCount::case_insensitive().map(b"The THE the", &mut sink);
        assert!(!sink.pairs.is_empty());
        assert!(sink.pairs.iter().all(|(w, _)| w.as_bytes() == b"the"));
    }

    #[test]
    fn word_at_split_edges_counted_once() {
        let mut sink = VecEmit::default();
        WordCount::new().map(b"edge", &mut sink);
        assert_eq!(sink.pairs, vec![(CompactKey::from("edge"), 1)]);
    }

    #[test]
    fn empty_and_punctuation_only_splits() {
        let mut sink = VecEmit::default();
        WordCount::new().map(b"", &mut sink);
        WordCount::new().map(b"--- ... !!!", &mut sink);
        assert!(sink.pairs.is_empty());
    }

    #[test]
    fn end_to_end_counts_match_reference() {
        let text = b"the quick the lazy the dog dog".to_vec();
        let mut config = JobConfig::default();
        config.merge = MergeMode::PWay { ways: 2 };
        let r = Job::new(WordCount::new())
            .config(config)
            .run(Input::stream(MemSource::from(text)))
            .unwrap();
        assert_eq!(
            r.pairs,
            vec![
                (CompactKey::from("dog"), 2),
                (CompactKey::from("lazy"), 1),
                (CompactKey::from("quick"), 1),
                (CompactKey::from("the"), 3),
            ]
        );
    }
}
