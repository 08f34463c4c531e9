//! Grep / string match: count occurrences of fixed patterns.
//!
//! The Phoenix string-match family: the map function scans its split for
//! a set of fixed byte patterns and emits `(pattern, 1)` per hit; the
//! output is one count per pattern. Map-heavy with a tiny intermediate
//! set — the opposite end of the spectrum from sort.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::HashContainer;
use supmr::{CompactKey, KeyPrefix};
use supmr_storage::scan::find_byte;

/// Count occurrences of fixed byte patterns.
#[derive(Debug, Clone)]
pub struct Grep {
    patterns: Vec<Vec<u8>>,
}

impl Grep {
    /// A matcher for the given patterns. Empty patterns are ignored.
    pub fn new<P: Into<Vec<u8>>>(patterns: Vec<P>) -> Grep {
        Grep {
            patterns: patterns
                .into_iter()
                .map(Into::into)
                .filter(|p: &Vec<u8>| !p.is_empty())
                .collect(),
        }
    }

    /// The configured patterns.
    pub fn patterns(&self) -> &[Vec<u8>] {
        &self.patterns
    }
}

/// Count non-overlapping occurrences of `needle` in `haystack`.
///
/// The word-at-a-time [`find_byte`] scanner skips to each candidate
/// first byte; only candidates pay the full slice comparison, so the
/// common no-match stretches run at SWAR speed instead of byte-at-a-time.
fn count_occurrences(haystack: &[u8], needle: &[u8]) -> u64 {
    if needle.is_empty() || haystack.len() < needle.len() {
        return 0;
    }
    let (&first, rest) = needle.split_first().expect("needle checked non-empty");
    let last_start = haystack.len() - needle.len();
    let mut count = 0;
    let mut i = 0;
    while i <= last_start {
        let Some(j) = find_byte(&haystack[i..], first) else { break };
        let start = i + j;
        if start > last_start {
            break;
        }
        if &haystack[start + 1..start + needle.len()] == rest {
            count += 1;
            i = start + needle.len();
        } else {
            i = start + 1;
        }
    }
    count
}

impl MapReduce for Grep {
    type Key = CompactKey;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<CompactKey, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<CompactKey, u64>) {
        for pattern in &self.patterns {
            let hits = count_occurrences(split, pattern);
            if hits > 0 {
                emit.emit_bytes(pattern, hits);
            }
        }
    }

    fn reduce(&self, _key: &CompactKey, count: u64) -> u64 {
        count
    }

    fn key_prefix(&self, key: &CompactKey) -> u64 {
        key.key_prefix()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use supmr::api::VecEmit;
    use supmr::runtime::{Input, Job, JobConfig};
    use supmr::Chunking;
    use supmr_storage::MemSource;

    #[test]
    fn counts_non_overlapping_occurrences() {
        assert_eq!(count_occurrences(b"aaaa", b"aa"), 2);
        assert_eq!(count_occurrences(b"abcabcab", b"abc"), 2);
        assert_eq!(count_occurrences(b"xyz", b"q"), 0);
        assert_eq!(count_occurrences(b"", b"a"), 0);
        assert_eq!(count_occurrences(b"a", b""), 0);
        // First-byte candidate too close to the end to fit the needle.
        assert_eq!(count_occurrences(b"xxa", b"ab"), 0);
        assert_eq!(count_occurrences(b"aab", b"ab"), 1);
    }

    #[test]
    fn map_emits_only_matching_patterns() {
        let grep = Grep::new(vec![&b"cat"[..], &b"dog"[..], &b""[..]]);
        assert_eq!(grep.patterns().len(), 2, "empty pattern dropped");
        let mut sink = VecEmit::default();
        grep.map(b"cat catalog dogcat", &mut sink);
        let get = |p: &[u8]| sink.pairs.iter().find(|(k, _)| k.as_bytes() == p).map(|(_, c)| *c);
        assert_eq!(get(b"cat"), Some(3));
        assert_eq!(get(b"dog"), Some(1));
    }

    #[test]
    fn end_to_end_matches_on_chunked_input() {
        // Lines keep patterns intact across chunk boundaries.
        let mut text = Vec::new();
        for i in 0..200 {
            text.extend_from_slice(
                format!("line {i} with needle inside and more text\n").as_bytes(),
            );
        }
        let mut config = JobConfig::default();
        config.chunking = Chunking::Inter { chunk_bytes: 512 };
        config.split_bytes = 128;
        let r = Job::new(Grep::new(vec![b"needle".to_vec(), b"missing".to_vec()]))
            .config(config)
            .run(Input::stream(MemSource::from(text)))
            .unwrap();
        assert_eq!(r.pairs.len(), 1);
        assert_eq!(r.pairs[0], (CompactKey::from("needle"), 200));
    }
}
