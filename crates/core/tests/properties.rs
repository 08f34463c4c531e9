//! Property tests for the core runtime: for arbitrary inputs and chunk
//! geometries, the pipeline must compute exactly what the original
//! runtime computes, and chunking must account for every input byte.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use supmr::api::{Emit, MapReduce};
use supmr::chunk::{Chunker, FileSetChunker, IngestChunk, InterFileChunker, SplitCut};
use supmr::combiner::Sum;
use supmr::container::{Container, HashContainer};
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::split::chunk_splits;
use supmr::{Chunking, CompactKey, KeyPrefix, PoolMode};
use supmr_storage::{
    DataSource, MemFileSet, MemSource, RecordFormat, SharedBytes, ThrottledSource,
};
use supmr_workloads::check::{check, Gen};

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
fn arb_text(g: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    for l in g.vec(0..40, |g| g.vec(0..30, |g| g.pick(b"abc "))) {
        out.extend_from_slice(&l);
        out.push(b'\n');
    }
    out
}

fn small_config() -> JobConfig {
    JobConfig { map_workers: 3, reduce_workers: 2, split_bytes: 16, ..JobConfig::default() }
}

#[test]
fn pipeline_equals_original_for_any_text_and_chunk_size() {
    check("pipeline_equals_original_for_any_text_and_chunk_size", 64, |g| {
        let data = arb_text(g);
        let chunk_bytes = g.range(1u64..200);
        let baseline = Job::new(WordCount)
            .config(small_config())
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        let mut config = small_config();
        config.chunking = Chunking::Inter { chunk_bytes };
        let piped = Job::new(WordCount)
            .config(config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        assert_eq!(piped.sorted_pairs(), baseline.sorted_pairs());
        assert_eq!(piped.report.stats.bytes_ingested, data.len() as u64);
    });
}

#[test]
fn intra_pipeline_equals_original_for_any_file_grouping() {
    check("intra_pipeline_equals_original_for_any_file_grouping", 64, |g| {
        let files = g.vec(0..10, arb_text);
        let files_per_chunk = g.range(1usize..12);
        let baseline = Job::new(WordCount)
            .config(small_config())
            .run(Input::files(MemFileSet::new(files.clone())))
            .unwrap();
        let mut config = small_config();
        config.chunking = Chunking::Intra { files_per_chunk };
        let piped =
            Job::new(WordCount).config(config).run(Input::files(MemFileSet::new(files))).unwrap();
        assert_eq!(piped.sorted_pairs(), baseline.sorted_pairs());
    });
}

#[test]
fn inter_chunker_is_a_lossless_partition() {
    check("inter_chunker_is_a_lossless_partition", 64, |g| {
        let data = arb_text(g);
        let chunk_bytes = g.range(1u64..100);
        let mut chunker = InterFileChunker::new(
            MemSource::from(data.clone()),
            chunk_bytes,
            RecordFormat::Newline,
        );
        let mut rebuilt = Vec::new();
        let mut index = 0;
        while let Some(chunk) = chunker.next_chunk().unwrap() {
            assert_eq!(chunk.index, index);
            assert_eq!(chunk.offset as usize, rebuilt.len());
            assert!(!chunk.data.is_empty());
            rebuilt.extend_from_slice(&chunk.data);
            index += 1;
        }
        assert_eq!(rebuilt, data);
    });
}

#[test]
fn intra_chunker_is_a_lossless_partition() {
    check("intra_chunker_is_a_lossless_partition", 64, |g| {
        let files = g.vec(0..12, arb_text);
        let files_per_chunk = g.range(1usize..6);
        let mut chunker = FileSetChunker::intra(MemFileSet::new(files.clone()), files_per_chunk);
        let mut seen_files: Vec<Vec<u8>> = Vec::new();
        while let Some(chunk) = chunker.next_chunk().unwrap() {
            assert!(chunk.segments.len() <= files_per_chunk);
            for seg in &chunk.segments {
                seen_files.push(chunk.data[seg.clone()].to_vec());
            }
        }
        assert_eq!(seen_files, files);
    });
}

/// Bytes of `format`'s records whose bodies are drawn from `alphabet`
/// (terminator bytes included, so bare halves of a terminator occur),
/// the last record left unterminated half the time.
fn arb_records(g: &mut Gen, format: RecordFormat) -> Vec<u8> {
    let (alphabet, terminator): (&[u8], &[u8]) = match format {
        RecordFormat::Newline => (b"ab \r", b"\n"),
        RecordFormat::CrLf => (b"ab\r\n", b"\r\n"),
        _ => (b"ab\r\n", b""),
    };
    let mut out = Vec::new();
    for body in g.vec(1..30, |g| g.vec(0..12, |g| g.pick(alphabet))) {
        out.extend_from_slice(&body);
        out.extend_from_slice(terminator);
    }
    if g.bool() {
        out.extend(g.vec(1..6, |g| g.pick(alphabet)));
    }
    out
}

fn drain(mut chunker: impl Chunker) -> Vec<IngestChunk> {
    std::iter::from_fn(|| chunker.next_chunk().unwrap()).collect()
}

/// Every input shape is cut by the one boundary rule: a resident
/// stream, a stream that must be read, a one-file set and a hybrid set
/// holding an oversized file give the same chunks of the same records,
/// and a file count of at least the set's gives the whole set as one
/// chunk, one segment per file.
#[test]
fn every_ingest_shape_cuts_at_the_same_record_boundaries() {
    check("every_ingest_shape_cuts_at_the_same_record_boundaries", 256, |g| {
        let format = match g.range(0..4) {
            0 => RecordFormat::Newline,
            1 => RecordFormat::CrLf,
            2 => RecordFormat::FixedWidth(g.range(1usize..20)),
            _ => RecordFormat::None,
        };
        let input = arb_records(g, format);
        let chunk_bytes = g.range(1u64..120);

        let resident =
            drain(InterFileChunker::new(MemSource::from(input.clone()), chunk_bytes, format));
        let rebuilt: Vec<u8> = resident.iter().flat_map(|c| c.data.to_vec()).collect();
        assert_eq!(rebuilt, input, "{format:?}");
        for (i, c) in resident.iter().enumerate() {
            let (start, end) = (c.offset as usize, c.offset as usize + c.len());
            #[allow(clippy::single_range_in_vec_init)] // one segment covering the chunk
            let whole = vec![0..c.len()];
            assert_eq!((c.index, &c.segments), (i, &whole));
            if i + 1 < resident.len() {
                assert!(format.is_boundary(&input, end), "{format:?}: chunk {i} ends mid-record");
            }
            // The first boundary at or past the chunk size, no later.
            let nominal = start + chunk_bytes as usize;
            assert!((nominal..end).all(|p| !format.is_boundary(&input, p)), "{format:?}");
        }

        let streamed = drain(InterFileChunker::new(
            ThrottledSource::new(MemSource::from(input.clone()), 1e12),
            chunk_bytes,
            format,
        ));
        assert_eq!(streamed, resident, "{format:?}: streamed chunks differ");

        let one_file = drain(FileSetChunker::hybrid(
            MemFileSet::new(vec![input.clone()]),
            chunk_bytes,
            format,
        ));
        assert_eq!(one_file, resident, "{format:?}: a one-file set differs");

        // Small files around an oversized one: the oversized file is cut
        // exactly like the stream, its cuts in chunks of their own.
        let small = |g: &mut Gen| g.vec(0..chunk_bytes as usize, |g| g.pick(b"xy\n"));
        let (before, after) = (g.vec(0..4, small), g.vec(0..4, small));
        let files: Vec<Vec<u8>> = before.iter().chain([&input]).chain(&after).cloned().collect();
        let hybrid =
            drain(FileSetChunker::hybrid(MemFileSet::new(files.clone()), chunk_bytes, format));
        let rebuilt: Vec<u8> = hybrid.iter().flat_map(|c| c.data.to_vec()).collect();
        assert_eq!(rebuilt, files.concat(), "{format:?}");
        let oversized_at = before.iter().map(Vec::len).sum::<usize>() as u64;
        if input.len() as u64 > chunk_bytes {
            let cuts: Vec<&IngestChunk> = hybrid
                .iter()
                .filter(|c| !c.is_empty())
                .filter(|c| (oversized_at..oversized_at + input.len() as u64).contains(&c.offset))
                .collect();
            assert_eq!(cuts.len(), resident.len(), "{format:?}");
            for (cut, chunk) in cuts.iter().zip(&resident) {
                assert_eq!((&cut.data, &cut.segments), (&chunk.data, &chunk.segments));
            }
        }

        // A file count at or past the set's: the whole set, one chunk.
        let count = before.len();
        let limit = g.range(count.max(1)..count + 4);
        let mut whole = FileSetChunker::intra(MemFileSet::new(before.clone()), limit);
        let mut segments = Vec::new();
        for f in &before {
            let start = segments.last().map_or(0, |s: &std::ops::Range<usize>| s.end);
            segments.push(start..start + f.len());
        }
        let expected = IngestChunk { index: 0, offset: 0, data: before.concat().into(), segments };
        assert_eq!(whole.next_chunk().unwrap().unwrap_or_default(), expected);
        assert!(whole.next_chunk().unwrap().is_none());
    });
}

/// Begin each chunk of `chunker` cut as `cut` says, and take its splits:
/// per chunk, the most splits it said it could have and the splits.
fn drain_splits(mut chunker: impl Chunker, cut: SplitCut) -> Vec<(usize, Vec<SharedBytes>)> {
    let mut chunks = Vec::new();
    while let Some(most) = chunker.begin_chunk(cut).unwrap() {
        chunks.push((most, std::iter::from_fn(|| chunker.next_split().unwrap()).collect()));
    }
    chunks
}

/// The splits of `chunks`, cut `split_bytes` apart the resident way.
fn resident_cut(chunks: &[IngestChunk], split_bytes: usize, format: RecordFormat) -> Vec<Vec<u8>> {
    let ranges = chunks.iter().map(|c| (c, chunk_splits(c, split_bytes, format)));
    ranges.flat_map(|(c, splits)| splits.into_iter().map(|r| c.data[r].to_vec())).collect()
}

fn arb_format(g: &mut Gen) -> RecordFormat {
    match g.range(0..4) {
        0 => RecordFormat::Newline,
        1 => RecordFormat::CrLf,
        2 => RecordFormat::FixedWidth(g.range(1usize..20)),
        _ => RecordFormat::None,
    }
}

/// A streamed chunk is read as the splits it is mapped in: for every
/// format, resident or not, a chunk's splits are `chunk_splits` of the
/// chunk, each at most what its begin promised, for chunks of at least
/// the width's worth of splits and several split sizes.
#[test]
fn streamed_splits_equal_the_resident_cut() {
    check("streamed_splits_equal_the_resident_cut", 256, |g| {
        let format = arb_format(g);
        let input = arb_records(g, format);
        let cut = SplitCut { split_bytes: g.range(1usize..48), width: g.range(1usize..4) };
        let least = (cut.split_bytes * cut.width) as u64;
        let chunk_bytes = g.range(least..least + 120);
        let chunks =
            drain(InterFileChunker::new(MemSource::from(input.clone()), chunk_bytes, format));
        let expected: Vec<Vec<Vec<u8>>> = chunks
            .iter()
            .map(|c| resident_cut(std::slice::from_ref(c), cut.split_bytes, format))
            .collect();
        let resident = MemSource::from(input.clone());
        let streamed = ThrottledSource::new(MemSource::from(input.clone()), 1e12);
        for (name, cuts) in [
            ("resident", drain_splits(InterFileChunker::new(resident, chunk_bytes, format), cut)),
            ("streamed", drain_splits(InterFileChunker::new(streamed, chunk_bytes, format), cut)),
        ] {
            let what = format!("{name}, {format:?}, chunk {chunk_bytes}, {cut:?}");
            assert_eq!(cuts.len(), expected.len(), "{what}: chunks");
            for ((most, splits), expected) in cuts.iter().zip(&expected) {
                assert!(splits.len() <= *most, "{what}: {} splits, at most {most}", splits.len());
                let splits: Vec<Vec<u8>> = splits.iter().map(SharedBytes::to_vec).collect();
                assert_eq!(&splits, expected, "{what}");
            }
        }
    });
}

/// A source that hands out at most `max_read` bytes per read and may
/// list more bytes than it holds: its reads end early, and it ends
/// before its listed length.
struct Hostile {
    data: Vec<u8>,
    listed: u64,
    max_read: usize,
}

impl DataSource for Hostile {
    fn len(&self) -> u64 {
        self.listed
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = (offset as usize).min(self.data.len());
        let n = buf.len().min(self.max_read).min(self.data.len() - start);
        buf[..n].copy_from_slice(&self.data[start..start + n]);
        Ok(n)
    }
}

/// Hostile input for the streamed cut: arbitrary bytes in every format,
/// records longer than a split, a chunk and a boundary window, input
/// with no terminator, a CRLF split across a window edge, short reads
/// and a source that ends before its listed length, at chunk and split
/// sizes from one byte up. Nothing panics, the splits tile exactly the
/// bytes read, and they are the resident cut of those bytes.
#[test]
fn streamed_cut_of_hostile_input_is_the_resident_cut() {
    const WINDOW: usize = 4096; // the chunkers' boundary window
    check("streamed_cut_of_hostile_input_is_the_resident_cut", 256, |g| {
        let format = arb_format(g);
        let cut = SplitCut { split_bytes: g.range(1usize..64), width: g.range(1usize..4) };
        let chunk_bytes = g.range(1u64..200);
        let mut data: Vec<u8> = match g.range(0..4) {
            // Bytes from the terminators' alphabet, any order.
            0 => g.vec(0..300, |g| g.pick(b"a\r\n")),
            // Records longer than a window, maybe unterminated.
            1 => {
                let mut out = Vec::new();
                for _ in 0..g.range(1..4) {
                    out.resize(out.len() + g.range(1..3 * WINDOW), b'a');
                    out.extend_from_slice(if g.bool() { b"\r\n" } else { b"\n" });
                }
                out
            }
            // A CRLF across the edge of the first split's first window:
            // the split reads its target, then a window ending on '\r'.
            2 => {
                let mut out = vec![b'a'; cut.split_bytes.min(chunk_bytes as usize) + WINDOW - 1];
                out.extend_from_slice(b"\r\nb\r\n");
                out
            }
            _ => arb_records(g, format),
        };
        if g.bool() {
            data.extend(g.vec(1..9, |g| g.pick(b"ab\r")));
        }
        let listed = data.len() as u64 + if g.bool() { g.range(1u64..5000) } else { 0 };
        let max_read = if g.bool() { g.range(1usize..700) } else { usize::MAX };
        let what = format!(
            "{format:?}, {} bytes listed {listed}, chunk {chunk_bytes}, {cut:?}, reads of {max_read}",
            data.len()
        );

        let resident =
            drain(InterFileChunker::new(MemSource::from(data.clone()), chunk_bytes, format));
        let hostile = |data: &Vec<u8>| Hostile { data: data.clone(), listed, max_read };
        let chunks = drain(InterFileChunker::new(hostile(&data), chunk_bytes, format));
        assert_eq!(chunks, resident, "{what}: chunks");

        let cuts = drain_splits(InterFileChunker::new(hostile(&data), chunk_bytes, format), cut);
        let splits: Vec<Vec<u8>> =
            cuts.iter().flat_map(|(_, splits)| splits.iter().map(SharedBytes::to_vec)).collect();
        assert!(splits.iter().all(|s| !s.is_empty()), "{what}: an empty split");
        assert_eq!(splits.concat(), data, "{what}: the splits do not tile the input");
        assert_eq!(splits, resident_cut(&resident, cut.split_bytes, format), "{what}");
    });
}

#[test]
fn pool_modes_produce_identical_results() {
    check("pool_modes_produce_identical_results", 64, |g| {
        let data = arb_text(g);
        let chunk_bytes = g.range(1u64..200);
        // Persistent pool vs per-wave spawning: pure execution policy,
        // zero observable difference — on the original runtime and on
        // the chunked pipeline alike.
        for chunking in [Chunking::None, Chunking::Inter { chunk_bytes }] {
            let run = |pool: PoolMode| {
                let mut config = small_config();
                config.chunking = chunking;
                config.pool = pool;
                Job::new(WordCount)
                    .config(config)
                    .run(Input::stream(MemSource::from(data.clone())))
                    .unwrap()
            };
            let wave = run(PoolMode::WavePerRound);
            let pooled = run(PoolMode::Persistent);
            assert_eq!(pooled.sorted_pairs(), wave.sorted_pairs());
            assert_eq!(pooled.report.stats.map_tasks, wave.report.stats.map_tasks);
            if !data.is_empty() {
                assert!(pooled.report.stats.threads_reused > 0);
            }
        }
    });
}

#[test]
fn pool_modes_agree_on_file_sets() {
    check("pool_modes_agree_on_file_sets", 64, |g| {
        let files = g.vec(0..8, arb_text);
        let files_per_chunk = g.range(1usize..5);
        let run = |pool: PoolMode| {
            let mut config = small_config();
            config.chunking = Chunking::Intra { files_per_chunk };
            config.pool = pool;
            Job::new(WordCount)
                .config(config)
                .run(Input::files(MemFileSet::new(files.clone())))
                .unwrap()
        };
        let wave = run(PoolMode::WavePerRound);
        let pooled = run(PoolMode::Persistent);
        assert_eq!(pooled.sorted_pairs(), wave.sorted_pairs());
    });
}

#[test]
fn merge_modes_are_observationally_equal() {
    check("merge_modes_are_observationally_equal", 64, |g| {
        let data = arb_text(g);
        let ways = g.range(1usize..5);
        let mut sorted_config = small_config();
        sorted_config.merge = MergeMode::PairwiseRounds;
        let a = Job::new(WordCount)
            .config(sorted_config)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        let mut pway_config = small_config();
        pway_config.merge = MergeMode::PWay { ways };
        let b = Job::new(WordCount)
            .config(pway_config)
            .run(Input::stream(MemSource::from(data)))
            .unwrap();
        // Both fully sorted and identical (word count keys are unique
        // post-reduce, so ordering is total).
        assert_eq!(&a.pairs, &b.pairs);
        assert!(a.pairs.windows(2).all(|w| w[0].0 <= w[1].0));
    });
}

/// Arbitrary key bytes straddling both [`CompactKey`] representations
/// (the inline cap is 22, so 0..48 crosses the heap boundary often).
fn arb_key_bytes(g: &mut Gen) -> Vec<u8> {
    g.vec(0..48, |g| g.range(..))
}

#[test]
fn compact_key_round_trips_and_orders_like_raw_bytes() {
    check("compact_key_round_trips_and_orders_like_raw_bytes", 256, |g| {
        let a = arb_key_bytes(g);
        let b = arb_key_bytes(g);
        let ka = CompactKey::from_bytes(&a);
        let kb = CompactKey::from_bytes(&b);
        assert_eq!(ka.as_bytes(), &a[..]);
        assert_eq!(ka.len(), a.len());
        assert_eq!(ka.is_heap(), a.len() > CompactKey::INLINE_CAP);
        assert_eq!(ka == kb, a == b);
        assert_eq!(ka.cmp(&kb), a.cmp(&b));
    });
}

#[test]
fn key_prefixes_are_monotone_in_key_order() {
    check("key_prefixes_are_monotone_in_key_order", 256, |g| {
        // A four-byte alphabet with NUL in it, lengths either side of 8:
        // keys shorter than the prefix, keys differing only in trailing
        // NULs and keys alike in their first 8 bytes are all common.
        let a = g.vec(0..12, |g| g.pick(&[0u8, 1u8, b'a', 0xffu8]));
        let b = g.vec(0..12, |g| g.pick(&[0u8, 1u8, b'a', 0xffu8]));
        let x: u64 = g.range(..);
        let y: u64 = g.range(..);
        // The contract, a <= b ⟹ prefix(a) <= prefix(b), in the form
        // that also pins down what a differing prefix promises.
        let (pa, pb) = (a.key_prefix(), b.key_prefix());
        if pa != pb {
            assert_eq!(pa.cmp(&pb), a.cmp(&b));
        }
        let (ka, kb) = (CompactKey::from_bytes(&a), CompactKey::from_bytes(&b));
        assert_eq!(ka.key_prefix(), pa);
        if ka.key_prefix() != kb.key_prefix() {
            assert_eq!(ka.key_prefix().cmp(&kb.key_prefix()), ka.cmp(&kb));
        }
        // Trailing NULs are invisible to the prefix: a tie, never a lie.
        let mut padded = a.clone();
        padded.push(0);
        assert!(pa <= padded.key_prefix());
        if a.len() < 8 {
            assert_eq!(pa, padded.key_prefix());
        }
        let (x, y) = (x as usize, y as usize);
        assert_eq!(x.key_prefix().cmp(&y.key_prefix()), x.cmp(&y));
    });
}

#[test]
fn compact_key_hashes_exactly_like_string() {
    check("compact_key_hashes_exactly_like_string", 256, |g| {
        let bytes = g.vec(0..48, |g| g.range(b' '..=b'~'));
        // Same RandomState: a CompactKey must land in the bucket a
        // String key would, or borrowed-probe lookups silently miss.
        let s = String::from_utf8(bytes.clone()).unwrap();
        let state = RandomState::new();
        assert_eq!(state.hash_one(CompactKey::from_bytes(&bytes)), state.hash_one(&s));
    });
}

#[test]
fn borrowed_and_owned_emission_fill_identical_tables() {
    check("borrowed_and_owned_emission_fill_identical_tables", 256, |g| {
        let words = g.vec(0..60, |g| g.vec(1..30, |g| g.range(b'a'..=b'd')));
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
        assert_eq!(drain(owned), drain(borrowed));
    });
}
