//! Property tests for the core runtime: for arbitrary inputs and chunk
//! geometries, the pipeline must compute exactly what the original
//! runtime computes, and chunking must account for every input byte.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use supmr::api::{Emit, MapReduce};
use supmr::chunk::{Chunker, InterFileChunker, IntraFileChunker};
use supmr::combiner::Sum;
use supmr::container::{Container, HashContainer};
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::{Chunking, CompactKey, KeyPrefix, PoolMode};
use supmr_storage::{MemFileSet, MemSource, RecordFormat};

struct WordCount;

impl MapReduce for WordCount {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        for word in split.split(|b| b.is_ascii_whitespace()) {
            if !word.is_empty() {
                emit.emit(String::from_utf8_lossy(word).into_owned(), 1);
            }
        }
    }

    fn reduce(&self, _key: &String, acc: u64) -> u64 {
        acc
    }
}

/// Arbitrary newline-framed text (words of a–e letters so collisions are
/// frequent and combining is exercised).
fn arb_text() -> impl Strategy<Value = Vec<u8>> {
    vec(vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b' ')], 0..30), 0..40).prop_map(
        |lines| {
            let mut out = Vec::new();
            for l in lines {
                out.extend_from_slice(&l);
                out.push(b'\n');
            }
            out
        },
    )
}

fn small_config() -> JobConfig {
    JobConfig { map_workers: 3, reduce_workers: 2, split_bytes: 16, ..JobConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipeline_equals_original_for_any_text_and_chunk_size(
        data in arb_text(),
        chunk_bytes in 1u64..200,
    ) {
        let baseline = Job::new(WordCount).config(small_config()).run(Input::stream(MemSource::from(data.clone()))).unwrap();
        let mut config = small_config();
        config.chunking = Chunking::Inter { chunk_bytes };
        let piped = Job::new(WordCount).config(config).run(Input::stream(MemSource::from(data.clone()))).unwrap();
        prop_assert_eq!(piped.sorted_pairs(), baseline.sorted_pairs());
        prop_assert_eq!(piped.report.stats.bytes_ingested, data.len() as u64);
    }

    #[test]
    fn intra_pipeline_equals_original_for_any_file_grouping(
        files in vec(arb_text(), 0..10),
        files_per_chunk in 1usize..12,
    ) {
        let baseline = Job::new(WordCount).config(small_config()).run(Input::files(MemFileSet::new(files.clone()))).unwrap();
        let mut config = small_config();
        config.chunking = Chunking::Intra { files_per_chunk };
        let piped = Job::new(WordCount).config(config).run(Input::files(MemFileSet::new(files))).unwrap();
        prop_assert_eq!(piped.sorted_pairs(), baseline.sorted_pairs());
    }

    #[test]
    fn inter_chunker_is_a_lossless_partition(
        data in arb_text(),
        chunk_bytes in 1u64..100,
    ) {
        let mut chunker = InterFileChunker::new(
            MemSource::from(data.clone()),
            chunk_bytes,
            RecordFormat::Newline,
        );
        let mut rebuilt = Vec::new();
        let mut index = 0;
        while let Some(chunk) = chunker.next_chunk().unwrap() {
            prop_assert_eq!(chunk.index, index);
            prop_assert_eq!(chunk.offset as usize, rebuilt.len());
            prop_assert!(!chunk.data.is_empty());
            rebuilt.extend_from_slice(&chunk.data);
            index += 1;
        }
        prop_assert_eq!(rebuilt, data);
    }

    #[test]
    fn intra_chunker_is_a_lossless_partition(
        files in vec(arb_text(), 0..12),
        files_per_chunk in 1usize..6,
    ) {
        let mut chunker =
            IntraFileChunker::new(MemFileSet::new(files.clone()), files_per_chunk);
        let mut seen_files: Vec<Vec<u8>> = Vec::new();
        while let Some(chunk) = chunker.next_chunk().unwrap() {
            prop_assert!(chunk.segments.len() <= files_per_chunk);
            for seg in &chunk.segments {
                seen_files.push(chunk.data[seg.clone()].to_vec());
            }
        }
        prop_assert_eq!(seen_files, files);
    }

    #[test]
    fn pool_modes_produce_identical_results(
        data in arb_text(),
        chunk_bytes in 1u64..200,
    ) {
        // Persistent pool vs per-wave spawning: pure execution policy,
        // zero observable difference — on the original runtime and on
        // the chunked pipeline alike.
        for chunking in [Chunking::None, Chunking::Inter { chunk_bytes }] {
            let run = |pool: PoolMode| {
                let mut config = small_config();
                config.chunking = chunking;
                config.pool = pool;
                Job::new(WordCount).config(config).run(Input::stream(MemSource::from(data.clone()))).unwrap()
            };
            let wave = run(PoolMode::WavePerRound);
            let pooled = run(PoolMode::Persistent);
            prop_assert_eq!(pooled.sorted_pairs(), wave.sorted_pairs());
            prop_assert_eq!(pooled.report.stats.map_tasks, wave.report.stats.map_tasks);
            if !data.is_empty() {
                prop_assert!(pooled.report.stats.threads_reused > 0);
            }
        }
    }

    #[test]
    fn pool_modes_agree_on_file_sets(
        files in vec(arb_text(), 0..8),
        files_per_chunk in 1usize..5,
    ) {
        let run = |pool: PoolMode| {
            let mut config = small_config();
            config.chunking = Chunking::Intra { files_per_chunk };
            config.pool = pool;
            Job::new(WordCount).config(config).run(Input::files(MemFileSet::new(files.clone()))).unwrap()
        };
        let wave = run(PoolMode::WavePerRound);
        let pooled = run(PoolMode::Persistent);
        prop_assert_eq!(pooled.sorted_pairs(), wave.sorted_pairs());
    }

    #[test]
    fn merge_modes_are_observationally_equal(
        data in arb_text(),
        ways in 1usize..5,
    ) {
        let mut sorted_config = small_config();
        sorted_config.merge = MergeMode::PairwiseRounds;
        let a = Job::new(WordCount).config(sorted_config).run(Input::stream(MemSource::from(data.clone()))).unwrap();
        let mut pway_config = small_config();
        pway_config.merge = MergeMode::PWay { ways };
        let b = Job::new(WordCount).config(pway_config).run(Input::stream(MemSource::from(data))).unwrap();
        // Both fully sorted and identical (word count keys are unique
        // post-reduce, so ordering is total).
        prop_assert_eq!(&a.pairs, &b.pairs);
        prop_assert!(a.pairs.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

/// Arbitrary key bytes straddling both [`CompactKey`] representations
/// (the inline cap is 22, so 0..48 crosses the heap boundary often).
fn arb_key_bytes() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..48)
}

proptest! {
    #[test]
    fn compact_key_round_trips_and_orders_like_raw_bytes(
        a in arb_key_bytes(),
        b in arb_key_bytes(),
    ) {
        let ka = CompactKey::from_bytes(&a);
        let kb = CompactKey::from_bytes(&b);
        prop_assert_eq!(ka.as_bytes(), &a[..]);
        prop_assert_eq!(ka.len(), a.len());
        prop_assert_eq!(ka.is_heap(), a.len() > CompactKey::INLINE_CAP);
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
    }

    #[test]
    fn key_prefixes_are_monotone_in_key_order(
        // A four-byte alphabet with NUL in it, lengths either side of 8:
        // keys shorter than the prefix, keys differing only in trailing
        // NULs and keys alike in their first 8 bytes are all common.
        a in vec(prop_oneof![Just(0u8), Just(1u8), Just(b'a'), Just(0xffu8)], 0..12),
        b in vec(prop_oneof![Just(0u8), Just(1u8), Just(b'a'), Just(0xffu8)], 0..12),
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        // The contract, a <= b ⟹ prefix(a) <= prefix(b), in the form
        // that also pins down what a differing prefix promises.
        let (pa, pb) = (a.key_prefix(), b.key_prefix());
        if pa != pb {
            prop_assert_eq!(pa.cmp(&pb), a.cmp(&b));
        }
        let (ka, kb) = (CompactKey::from_bytes(&a), CompactKey::from_bytes(&b));
        prop_assert_eq!(ka.key_prefix(), pa);
        if ka.key_prefix() != kb.key_prefix() {
            prop_assert_eq!(ka.key_prefix().cmp(&kb.key_prefix()), ka.cmp(&kb));
        }
        // Trailing NULs are invisible to the prefix: a tie, never a lie.
        let mut padded = a.clone();
        padded.push(0);
        prop_assert!(pa <= padded.key_prefix());
        if a.len() < 8 {
            prop_assert_eq!(pa, padded.key_prefix());
        }
        let (x, y) = (x as usize, y as usize);
        prop_assert_eq!(x.key_prefix().cmp(&y.key_prefix()), x.cmp(&y));
    }

    #[test]
    fn compact_key_hashes_exactly_like_string(
        bytes in vec(b' '..=b'~', 0..48),
    ) {
        // Same RandomState: a CompactKey must land in the bucket a
        // String key would, or borrowed-probe lookups silently miss.
        let s = String::from_utf8(bytes.clone()).unwrap();
        let state = RandomState::new();
        prop_assert_eq!(
            state.hash_one(CompactKey::from_bytes(&bytes)),
            state.hash_one(&s)
        );
    }

    #[test]
    fn borrowed_and_owned_emission_fill_identical_tables(
        words in vec(vec(b'a'..=b'd', 1..30), 0..60),
    ) {
        // emit_bytes (borrowed probe, key materialized on first insert)
        // and emit (owned key up front) must build the same table.
        let drain = |c: HashContainer<CompactKey, u64, Sum>| {
            let mut v: Vec<(CompactKey, u64)> =
                c.into_partitions(1).into_iter().flatten().collect();
            v.sort();
            v
        };
        let owned: HashContainer<CompactKey, u64, Sum> = HashContainer::new();
        let mut local = owned.local();
        for w in &words {
            local.emit(CompactKey::from_bytes(w), 1);
        }
        owned.absorb(local);
        let borrowed: HashContainer<CompactKey, u64, Sum> = HashContainer::new();
        let mut local = borrowed.local();
        for w in &words {
            local.emit_bytes(w, 1);
        }
        borrowed.absorb(local);
        prop_assert_eq!(drain(owned), drain(borrowed));
    }
}
