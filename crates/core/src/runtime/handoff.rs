//! Typed inter-stage hand-off: how one pipeline stage's reduced output
//! becomes the next stage's [`Input`](super::Input) without ever
//! materializing through `Vec<(K, V)>`.
//!
//! A non-terminal stage encodes each reduced pair straight out of its
//! reduce workers into per-partition byte buffers, using the same
//! [`PairCodec`] contract and the same frame codec
//! ([`supmr_merge::frame`]: one encoder, one walker, one checksum) the
//! spill pipeline writes run files with — one codec teaches the runtime
//! both how to spill a stage *and* how to feed its successor.
//! The buffers are sealed into one [`SharedBytes`] allocation whose
//! per-partition segment ranges become the ingest-chunk segments of the
//! downstream stage, so the downstream map wave splits along partition
//! boundaries and walks the frames zero-copy with a [`FrameIter`].
//!
//! [`HandoffStats::materialized_pairs`] is the accounting behind the
//! design's central claim: it counts pairs that crossed the stage
//! boundary through an intermediate `Vec<(K, V)>` (only the sorted-merge
//! hand-off path does this) and stays `0` on the streamed path.

use crate::chunk::IngestChunk;
use crate::spill::PairCodec;
use std::ops::Range;
use supmr_merge::{push_frame, split_frame};
use supmr_storage::SharedBytes;

/// Counters describing one inter-stage hand-off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Pairs encoded into the hand-off buffer.
    pub pairs: u64,
    /// Total framed bytes (headers included).
    pub bytes: u64,
    /// Non-empty partition segments in the buffer.
    pub segments: u64,
    /// Pairs that crossed the stage boundary through an intermediate
    /// `Vec<(K, V)>`. `0` on the streamed (unsorted) hand-off path —
    /// the zero-copy guarantee, asserted by tests; equal to
    /// [`pairs`](HandoffStats::pairs) when the stage's merge mode
    /// forced a sorted materialization first.
    pub materialized_pairs: u64,
}

/// The reduced output of a non-terminal stage: one shared allocation of
/// codec-framed pairs, segmented by upstream reduce partition.
#[derive(Debug, Clone)]
pub struct StageData {
    pub(crate) data: SharedBytes,
    pub(crate) segments: Vec<Range<usize>>,
    pub(crate) stats: HandoffStats,
}

impl StageData {
    /// The hand-off counters.
    pub fn stats(&self) -> HandoffStats {
        self.stats
    }

    /// Walk the framed pairs with `codec` (all segments, in order).
    pub fn iter<K, A>(&self, codec: PairCodec<K, A>) -> FrameIter<'_, K, A> {
        FrameIter::new(&self.data, codec)
    }

    /// Longest partition segment in bytes — the downstream stage's
    /// split size, so each partition maps as exactly one task.
    pub(crate) fn max_segment_len(&self) -> usize {
        self.segments.iter().map(Range::len).max().unwrap_or(0)
    }

    /// Seal into a resident ingest chunk for the downstream stage. The
    /// buffer is shared, not copied; segment boundaries become the
    /// chunk's file-style segments so splits never straddle partitions.
    pub(crate) fn into_chunk(self) -> IngestChunk {
        IngestChunk { index: 0, offset: 0, segments: self.segments, data: self.data }
    }
}

/// Accumulates one reduce partition's framed pairs; the encode-side of
/// the hand-off, called from reduce workers.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    out: Vec<u8>,
    pairs: u64,
}

impl FrameBuf {
    /// Append one framed pair, encoded in place.
    pub(crate) fn push<K, A>(&mut self, codec: PairCodec<K, A>, key: &K, acc: &A) {
        push_frame(&mut self.out, |out| (codec.encode)(key, acc, out))
            .expect("a hand-off pair encodes to less than 4 GiB");
        self.pairs += 1;
    }

    pub(crate) fn pairs(&self) -> u64 {
        self.pairs
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.out
    }
}

/// Assemble per-partition frame buffers into one [`StageData`]:
/// a single allocation with one segment per non-empty partition.
/// `materialized` marks pairs that passed through a `Vec<(K, V)>` on
/// the way here (the sorted hand-off path).
pub(crate) fn assemble(parts: Vec<FrameBuf>, materialized: bool) -> StageData {
    let total: usize = parts.iter().map(|p| p.out.len()).sum();
    let mut data = Vec::with_capacity(total);
    let mut segments = Vec::new();
    let mut pairs = 0u64;
    for part in &parts {
        if part.is_empty() {
            continue;
        }
        let start = data.len();
        data.extend_from_slice(part.bytes());
        segments.push(start..data.len());
        pairs += part.pairs();
    }
    let stats = HandoffStats {
        pairs,
        bytes: data.len() as u64,
        segments: segments.len() as u64,
        materialized_pairs: if materialized { pairs } else { 0 },
    };
    StageData { data: SharedBytes::from(data), segments, stats }
}

/// Decodes codec-framed pairs from a hand-off byte range — the map-side
/// walker a downstream stage uses on its (partition-aligned) splits.
///
/// Hand-off buffers never leave the process, so a framing or checksum
/// mismatch is a runtime bug, not an input fault: the iterator panics
/// (which the runtime surfaces as a
/// [`TaskPanic`](crate::error::SupmrError::TaskPanic)) rather than
/// silently truncating the stream.
pub struct FrameIter<'a, K, A> {
    bytes: &'a [u8],
    decode: fn(&[u8]) -> Option<(K, A)>,
}

impl<'a, K, A> FrameIter<'a, K, A> {
    /// Walk `bytes` (a whole hand-off split) with `codec`.
    pub fn new(bytes: &'a [u8], codec: PairCodec<K, A>) -> FrameIter<'a, K, A> {
        FrameIter { bytes, decode: codec.decode }
    }
}

impl<K, A> Iterator for FrameIter<'_, K, A> {
    type Item = (K, A);

    fn next(&mut self) -> Option<(K, A)> {
        if self.bytes.is_empty() {
            return None;
        }
        let (payload, rest) =
            split_frame(self.bytes).unwrap_or_else(|e| panic!("corrupt hand-off buffer: {e}"));
        let pair = (self.decode)(payload).expect("undecodable hand-off frame");
        self.bytes = rest;
        Some(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> PairCodec<u64, u64> {
        PairCodec {
            encode: |k, a, buf| {
                buf.extend_from_slice(&k.to_le_bytes());
                buf.extend_from_slice(&a.to_le_bytes());
            },
            decode: |rec| {
                if rec.len() != 16 {
                    return None;
                }
                Some((
                    u64::from_le_bytes(rec[..8].try_into().unwrap()),
                    u64::from_le_bytes(rec[8..].try_into().unwrap()),
                ))
            },
            size_hint: |_, _| 16,
        }
    }

    #[test]
    fn frames_round_trip_per_partition() {
        let c = codec();
        let mut p0 = FrameBuf::default();
        p0.push(c, &1, &10);
        p0.push(c, &2, &20);
        let p1 = FrameBuf::default(); // empty partition drops out
        let mut p2 = FrameBuf::default();
        p2.push(c, &3, &30);
        let data = assemble(vec![p0, p1, p2], false);
        assert_eq!(data.stats().pairs, 3);
        assert_eq!(data.stats().segments, 2);
        assert_eq!(data.stats().materialized_pairs, 0);
        assert_eq!(data.stats().bytes, 3 * (16 + 8));
        let decoded: Vec<(u64, u64)> = data.iter(c).collect();
        assert_eq!(decoded, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn chunk_segments_follow_partitions() {
        let c = codec();
        let mut p0 = FrameBuf::default();
        p0.push(c, &1, &10);
        let mut p1 = FrameBuf::default();
        p1.push(c, &2, &20);
        p1.push(c, &3, &30);
        let data = assemble(vec![p0, p1], true);
        assert_eq!(data.stats().materialized_pairs, 3, "sorted path counts every pair");
        assert_eq!(data.max_segment_len(), 48);
        let chunk = data.into_chunk();
        assert_eq!(chunk.segments, vec![0..24, 24..72]);
    }

    #[test]
    #[should_panic(expected = "checksum mismatch")]
    fn corruption_panics_instead_of_truncating() {
        let c = codec();
        let mut p = FrameBuf::default();
        p.push(c, &1, &10);
        let mut bytes = p.bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let _: Vec<(u64, u64)> = FrameIter::new(&bytes, c).collect();
    }
}
