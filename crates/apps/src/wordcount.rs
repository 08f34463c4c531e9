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
            let mut words = scan::tokens(split, ByteClass::Word);
            while let Some((start, end)) = words.next_span() {
                emit.emit_span(split, start..end, 1);
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

    /// Word counts of `split` as a real container's local table folds
    /// them, and as `VecEmit` collects them — the trait's default
    /// route, an owned `emit(K::from_bytes(..))` per token.
    fn counts_both_ways(app: &WordCount, split: &[u8]) -> [Vec<(CompactKey, u64)>; 2] {
        use supmr::container::Container;
        let container = app.make_container();
        let mut local = container.local();
        app.map(split, &mut local);
        container.absorb(local);
        let mut folded: Vec<_> = container.into_partitions(4).into_iter().flatten().collect();
        folded.sort();
        let mut sink = VecEmit::default();
        app.map(split, &mut sink);
        let mut reference = std::collections::BTreeMap::new();
        for (word, one) in sink.pairs {
            *reference.entry(word).or_insert(0) += one;
        }
        [folded, reference.into_iter().collect()]
    }

    #[test]
    fn one_word_path_counts_like_the_owned_path() {
        // Tokens of 1, 3, 4, 7, 8, 9, 22 and 23 bytes, repeats in both
        // cases, words equal in their first 8 bytes, non-ASCII
        // separators — and every split end: a token on the last byte,
        // within the last 8, and well clear of them.
        let text = "a abc abcd ABCD abcdefg abcdefgh abcdefghi abcdefghj Abcdefghi \
                    twenty_two_bytes_long_ twenty_two_bytes_long_x caf\u{e9} na\u{ef}ve \
                    a abc it's IT'S x_1 tail end q";
        for app in [WordCount::new(), WordCount::case_insensitive()] {
            for cut in 0..12 {
                let split = &text.as_bytes()[..text.len() - cut];
                let [folded, reference] = counts_both_ways(&app, split);
                assert_eq!(
                    folded, reference,
                    "case_insensitive {}, cut {cut}",
                    app.case_insensitive
                );
            }
        }
    }

    #[test]
    fn spill_decode_keeps_the_inline_tail_zero() {
        // The one-word compare reads an inline key's whole first word:
        // a key that came back from a run file must be as zero-padded
        // as one built in the map.
        let codec = WordCount::new().spill_codec().expect("word count spills");
        for word in ["", "a", "seven77", "exactly8", "twenty_two_bytes_long_"] {
            let mut rec = Vec::new();
            (codec.encode)(&CompactKey::from(word), &3, &mut rec);
            let (key, count) = (codec.decode)(&rec).expect("round trip");
            assert_eq!((key.as_bytes(), count), (word.as_bytes(), 3));
            let CompactKey::Inline { len, buf } = key else { panic!("{word:?} fits inline") };
            assert!(buf[len as usize..].iter().all(|&b| b == 0), "{word:?}");
        }
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
