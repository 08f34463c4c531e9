//! Input splits: the unit of map-task work inside an ingest chunk.
//!
//! In the traditional runtime the whole input is partitioned into input
//! splits and each map thread processes one split; with the ingest chunk
//! pipeline the same partitioning happens *per chunk* ("the ingest chunk
//! pipeline operates on a single ingest chunk instead of the entire
//! input"). Splits are record-aligned so a map callback never sees a
//! torn record, and they respect chunk segments (intra-file chunks never
//! merge two files into one split).
//!
//! The configured split size is an upper bound: a chunk too small to
//! give every worker of a wave a split at that size is cut finer
//! (`wave_split_bytes`, of the chunk's nominal length), so no wave is
//! narrower than its workers.
//!
//! The chunkers cut the splits ([`Chunker::next_split`]): a chunk that
//! lands whole through [`chunk_splits`], a chunk read split by split by
//! the same rule as it streams in — each split ends at the first record
//! boundary at or after its start plus the split size, the chunk's last
//! at the chunk's end — so both give the same splits.
//!
//! [`Chunker::next_split`]: crate::chunk::Chunker::next_split

use crate::chunk::IngestChunk;
use std::ops::Range;
use supmr_storage::RecordFormat;

/// The floor of a wave-sized split: a chunk is never cut finer than this
/// to widen its wave, since below it the per-task cost outweighs an
/// idle worker.
const MIN_WAVE_SPLIT: usize = 64 * 1024;

/// The split size a map wave of `width` workers cuts a `chunk_bytes`
/// chunk at: `split_bytes`, lowered to `chunk_bytes ÷ width` (rounded
/// up, so the remainder adds no sliver task) when that is smaller, but
/// not below [`MIN_WAVE_SPLIT`]. An explicit `split_bytes` under the
/// floor stands.
pub(crate) fn wave_split_bytes(chunk_bytes: usize, split_bytes: usize, width: usize) -> usize {
    split_bytes.min(chunk_bytes.div_ceil(width.max(1)).max(MIN_WAVE_SPLIT))
}

/// Compute record-aligned split ranges for one contiguous byte region.
///
/// Every byte lands in exactly one split; splits are at least one record
/// long and approximately `split_bytes` big.
///
/// # Panics
/// Panics if `split_bytes == 0`.
pub fn split_ranges(data: &[u8], split_bytes: usize, format: RecordFormat) -> Vec<Range<usize>> {
    assert!(split_bytes > 0, "split size must be non-zero");
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let want = (pos + split_bytes).min(data.len());
        let end = format.adjust_split_point(data, want);
        debug_assert!(end > pos, "split made no progress");
        out.push(pos..end);
        pos = end;
    }
    out
}

/// Compute the split ranges of a whole ingest chunk, segment by segment.
/// Returned ranges index into `chunk.data`.
pub fn chunk_splits(
    chunk: &IngestChunk,
    split_bytes: usize,
    format: RecordFormat,
) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for seg in &chunk.segments {
        for r in split_ranges(&chunk.data[seg.clone()], split_bytes, format) {
            out.push(seg.start + r.start..seg.start + r.end);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| format!("line-{i:04}\n").into_bytes()).collect()
    }

    #[test]
    fn splits_partition_without_loss() {
        let data = lines(100); // 10 bytes per line
        let splits = split_ranges(&data, 64, RecordFormat::Newline);
        assert!(splits.len() > 1);
        let mut pos = 0;
        for s in &splits {
            assert_eq!(s.start, pos, "splits must be contiguous");
            pos = s.end;
            assert_eq!(data[s.end - 1], b'\n');
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn splits_are_record_aligned() {
        let data = lines(50);
        for s in split_ranges(&data, 33, RecordFormat::Newline) {
            assert_eq!((s.end - s.start) % 10, 0, "whole 10-byte records only");
        }
    }

    #[test]
    fn single_split_when_data_smaller_than_split_size() {
        let data = lines(3);
        let splits = split_ranges(&data, 1_000_000, RecordFormat::Newline);
        assert_eq!(splits.len(), 1);
        assert_eq!(splits[0], 0..30);
    }

    #[test]
    fn empty_data_no_splits() {
        assert!(split_ranges(&[], 64, RecordFormat::Newline).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_split_size_rejected() {
        split_ranges(b"x\n", 0, RecordFormat::Newline);
    }

    #[test]
    fn chunk_splits_respect_segments() {
        // Two segments (two files); splits must not cross the segment
        // boundary even though the bytes are contiguous.
        let data = b"aaaa\nbb\nCCCC\nDD\n".to_vec();
        let chunk =
            IngestChunk { index: 0, offset: 0, segments: vec![0..8, 8..16], data: data.into() };
        let splits = chunk_splits(&chunk, 1000, RecordFormat::Newline);
        assert_eq!(splits, vec![0..8, 8..16]);
    }

    #[test]
    fn chunk_splits_split_large_segments() {
        let data = lines(40); // 400 bytes
        #[allow(clippy::single_range_in_vec_init)] // one segment covering the chunk
        let chunk =
            IngestChunk { index: 0, offset: 0, segments: vec![0..data.len()], data: data.into() };
        let splits = chunk_splits(&chunk, 100, RecordFormat::Newline);
        assert_eq!(splits.len(), 4);
        assert_eq!(splits.iter().map(|s| s.end - s.start).sum::<usize>(), 400);
    }

    #[test]
    fn wave_split_size_is_bounded_by_the_config_and_floored() {
        let mib = 1024 * 1024;
        // Wide enough already: the configured size stands.
        assert_eq!(wave_split_bytes(32 * mib, mib, 2), mib);
        assert_eq!(wave_split_bytes(4 * mib, mib, 2), mib);
        // Too narrow: one split per worker, rounded up.
        assert_eq!(wave_split_bytes(256 * 1024, mib, 2), 128 * 1024);
        assert_eq!(wave_split_bytes(mib + 1, mib, 2), mib / 2 + 1);
        // Never below the floor, unless configured below it.
        assert_eq!(wave_split_bytes(100 * 1024, mib, 4), MIN_WAVE_SPLIT);
        assert_eq!(wave_split_bytes(8 * mib, 2048, 2), 2048);
    }

    #[test]
    fn fixed_width_splits() {
        let data = vec![0u8; 1000];
        let splits = split_ranges(&data, 256, RecordFormat::FixedWidth(100));
        for s in &splits {
            assert_eq!(s.start % 100, 0);
        }
        assert_eq!(splits.last().unwrap().end, 1000);
    }
}
