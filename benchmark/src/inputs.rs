//! Seeded inputs and the reference outputs they are checked against.
//! The seed reaches the generators here and nothing else: the program
//! only ever sees the bytes they produce.

use std::collections::HashMap;
use std::hash::Hasher;
use supmr_workloads::{TeraGen, TextGen, TextGenConfig, TERA_KEY_LEN, TERA_RECORD_LEN};

/// Zipf text: vocabulary 10 000, exponent 1.0 — a few hot words and a
/// long tail, so the hash container combines nearly every pair.
pub fn text(seed: u64, bytes: usize) -> Vec<u8> {
    TextGen::new(TextGenConfig { vocabulary: 10_000, exponent: 1.0, line_len: 80 })
        .generate_bytes(seed, bytes)
}

/// Word counts by a whitespace split over the standard library alone —
/// no tokenizer, key type or table of the program.
pub fn reference_word_count(text: &[u8]) -> HashMap<&[u8], u64> {
    let mut counts = HashMap::new();
    for word in text.split(u8::is_ascii_whitespace).filter(|w| !w.is_empty()) {
        *counts.entry(word).or_insert(0) += 1;
    }
    counts
}

/// Teragen records: 100 bytes each, a 10-byte random key first.
pub fn tera(seed: u64, bytes: usize) -> Vec<u8> {
    TeraGen::with_total_bytes(seed, bytes as u64).generate_all()
}

/// Digest of one sort output pair. Summed (wrapping) over all pairs it
/// is independent of their order, so the sum over a job's output can be
/// compared with the sum over the generator's records.
pub fn pair_digest(key: &[u8], record: &[u8]) -> u64 {
    // `DefaultHasher::new()` has fixed keys, so reference and output,
    // digested in one process, agree.
    let mut hasher = std::hash::DefaultHasher::new();
    hasher.write(key);
    hasher.write(record);
    hasher.finish()
}

/// What a correct sort of `data` must output: the record count and the
/// order-independent checksum of `(key, record)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortReference {
    pub records: u64,
    pub checksum: u64,
}

pub fn sort_reference(data: &[u8]) -> SortReference {
    let records = data.chunks_exact(TERA_RECORD_LEN);
    assert!(records.remainder().is_empty(), "Teragen output is whole records");
    let mut reference = SortReference { records: 0, checksum: 0 };
    for record in records {
        reference.records += 1;
        reference.checksum =
            reference.checksum.wrapping_add(pair_digest(&record[..TERA_KEY_LEN], record));
    }
    reference
}

/// The same numbers computed from a job's output.
pub fn sort_output_summary(pairs: &[(Vec<u8>, Vec<u8>)]) -> SortReference {
    SortReference {
        records: pairs.len() as u64,
        checksum: pairs.iter().fold(0u64, |sum, (k, v)| sum.wrapping_add(pair_digest(k, v))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_another_seed_differs() {
        assert_eq!(text(3, 4096), text(3, 4096));
        assert_ne!(text(3, 4096), text(4, 4096));
        assert_eq!(tera(3, 4096), tera(3, 4096));
        assert_ne!(tera(3, 4096), tera(4, 4096));
    }

    #[test]
    fn references_count_what_is_there() {
        let counts = reference_word_count(b"a bb a\nbb  a\n");
        assert_eq!(counts[&b"a"[..]], 3);
        assert_eq!(counts[&b"bb"[..]], 2);
        assert_eq!(counts.len(), 2);

        let data = tera(1, 1000);
        let reference = sort_reference(&data);
        assert_eq!(reference.records, 10);
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = data
            .chunks_exact(TERA_RECORD_LEN)
            .map(|r| (r[..TERA_KEY_LEN].to_vec(), r.to_vec()))
            .collect();
        pairs.reverse();
        assert_eq!(sort_output_summary(&pairs), reference, "order does not matter");
        pairs[0].1[50] ^= 1;
        assert_ne!(sort_output_summary(&pairs), reference, "a flipped bit does");
    }
}
