//! Inverted index — word → sorted list of documents containing it.
//!
//! The Phoenix reverse-index family: the input is a corpus of
//! self-describing lines (`docid<TAB>text…`), map emits `(word, docid)`
//! and the buffer combiner keeps every posting; reduce sorts and
//! deduplicates each posting list. Unlike word count, the intermediate
//! set does *not* collapse — this is the hash-container workload with
//! real value buffering.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Buffer;
use supmr::container::HashContainer;
use supmr::{CompactKey, KeyPrefix};
use supmr_storage::scan::{self, find_byte, ByteClass};

/// Build an inverted index over `docid<TAB>text` lines.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex;

impl InvertedIndex {
    /// A new indexing job.
    pub fn new() -> InvertedIndex {
        InvertedIndex
    }

    /// Render a document as an input line.
    pub fn format_doc(doc_id: u32, text: &str) -> String {
        format!("{doc_id}\t{text}\n")
    }
}

impl MapReduce for InvertedIndex {
    type Key = CompactKey;
    type Value = u32;
    type Combiner = Buffer;
    type Output = Vec<u32>;
    type Container = HashContainer<CompactKey, u32, Buffer>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<CompactKey, u32>) {
        // Line and tab scans are word-at-a-time ([`find_byte`]); terms
        // are alphanumeric runs from the SWAR tokenizer, emitted as
        // borrowed slices so repeated terms never re-allocate.
        let mut pos = 0;
        while pos < split.len() {
            let end = match find_byte(&split[pos..], b'\n') {
                Some(i) => pos + i,
                None => split.len(),
            };
            let line = &split[pos..end];
            pos = end + 1;
            let Some(tab) = find_byte(line, b'\t') else {
                continue;
            };
            let Ok(doc_id) = std::str::from_utf8(&line[..tab]).unwrap_or("").trim().parse::<u32>()
            else {
                continue;
            };
            for word in scan::tokens(&line[tab + 1..], ByteClass::Alnum) {
                emit.emit_bytes(word, doc_id);
            }
        }
    }

    /// Sort and deduplicate the posting list.
    fn reduce(&self, _key: &CompactKey, mut postings: Vec<u32>) -> Vec<u32> {
        postings.sort_unstable();
        postings.dedup();
        postings
    }

    fn key_prefix(&self, key: &CompactKey) -> u64 {
        key.key_prefix()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use supmr::runtime::{Input, Job, JobConfig, MergeMode};
    use supmr::Chunking;
    use supmr_storage::{MemFileSet, MemSource};

    fn corpus() -> Vec<u8> {
        let mut c = String::new();
        c.push_str(&InvertedIndex::format_doc(1, "rust memory safety"));
        c.push_str(&InvertedIndex::format_doc(2, "rust speed"));
        c.push_str(&InvertedIndex::format_doc(3, "memory speed rust rust"));
        c.into_bytes()
    }

    #[test]
    fn builds_sorted_deduplicated_postings() {
        let mut config = JobConfig::default();
        config.merge = MergeMode::PWay { ways: 2 };
        let r = Job::new(InvertedIndex::new())
            .config(config)
            .run(Input::stream(MemSource::from(corpus())))
            .unwrap();
        let index: std::collections::HashMap<String, Vec<u32>> =
            r.pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(index["rust"], vec![1, 2, 3]); // deduped despite doc 3 repeats
        assert_eq!(index["memory"], vec![1, 3]);
        assert_eq!(index["speed"], vec![2, 3]);
        assert_eq!(index["safety"], vec![1]);
    }

    #[test]
    fn lines_without_tab_or_bad_ids_are_skipped() {
        let data = b"no tab here\nxyz\tbad id words\n7\tgood words\n".to_vec();
        let r = Job::new(InvertedIndex::new()).run(Input::stream(MemSource::from(data))).unwrap();
        let index: std::collections::HashMap<String, Vec<u32>> =
            r.pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(index.len(), 2);
        assert_eq!(index["good"], vec![7]);
        assert_eq!(index["words"], vec![7]);
    }

    #[test]
    fn intra_file_chunking_over_document_files() {
        // One file per group of documents; the index must be identical
        // however files group into chunks.
        let files: Vec<Vec<u8>> = (0..9)
            .map(|f| {
                let mut s = String::new();
                for d in 0..5u32 {
                    let id = f as u32 * 5 + d;
                    s.push_str(&InvertedIndex::format_doc(id, &format!("term{} shared", id % 3)));
                }
                s.into_bytes()
            })
            .collect();
        let base = Job::new(InvertedIndex::new())
            .run(Input::files(MemFileSet::new(files.clone())))
            .unwrap();
        let mut config = JobConfig::default();
        config.chunking = Chunking::Intra { files_per_chunk: 4 };
        let piped = Job::new(InvertedIndex::new())
            .config(config)
            .run(Input::files(MemFileSet::new(files)))
            .unwrap();
        assert_eq!(base.sorted_pairs(), piped.sorted_pairs());
        let index: std::collections::HashMap<String, Vec<u32>> =
            base.pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(index["shared"].len(), 45);
    }
}
