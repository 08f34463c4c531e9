//! Hybrid inter/intra-file chunking.
//!
//! Real input directories mix file sizes: a Hadoop output directory can
//! hold thousands of small part files next to multi-gigabyte ones. The
//! paper names "a hybrid inter/intra-file chunking approach" as a more
//! complicated abstraction it did not implement (§III-A1). This chunker
//! implements it: files are packed into chunks **by bytes** — small
//! files coalesce (intra-file behaviour) until the target size is
//! reached, and a file bigger than the target is split at record
//! boundaries (inter-file behaviour), so every chunk is close to the
//! target size regardless of the directory's shape.

use super::{Chunker, IngestChunk, Recycler};
use std::io;
use std::ops::Range;
use supmr_storage::{FileSet, RecordFormat};

/// Byte-targeted chunking over a [`FileSet`] with mixed file sizes.
pub struct HybridChunker<F> {
    files: F,
    chunk_bytes: u64,
    format: RecordFormat,
    /// Next file to read.
    next_file: usize,
    /// Remainder of a large file currently being split, with its
    /// consumed-prefix position.
    carry: Option<(Vec<u8>, usize)>,
    index: usize,
    offset: u64,
    buffers: Recycler,
}

impl<F: FileSet> HybridChunker<F> {
    /// Pack `files` into ~`chunk_bytes` chunks, splitting oversized
    /// files at `format` record boundaries.
    ///
    /// # Panics
    /// Panics if `chunk_bytes == 0`.
    pub fn new(files: F, chunk_bytes: u64, format: RecordFormat) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be non-zero");
        HybridChunker {
            files,
            chunk_bytes,
            format,
            next_file: 0,
            carry: None,
            index: 0,
            offset: 0,
            buffers: Recycler::default(),
        }
    }

    /// Take up to `want` bytes (extended to a record boundary) from a
    /// buffer starting at `pos`; returns the slice end.
    fn cut(&self, buf: &[u8], pos: usize, want: usize) -> usize {
        let target = (pos + want).min(buf.len());
        if target == buf.len() {
            return target;
        }
        self.format.adjust_split_point(buf, target)
    }
}

impl<F: FileSet> Chunker for HybridChunker<F> {
    fn next_chunk(&mut self) -> io::Result<Option<IngestChunk>> {
        let target = self.chunk_bytes as usize;
        let mut data = self.buffers.take(target);
        data.clear();
        let mut segments: Vec<Range<usize>> = Vec::new();

        loop {
            let room = target.saturating_sub(data.len());
            if room == 0 && !data.is_empty() {
                break;
            }
            // Drain a carried large-file remainder first.
            if let Some((buf, pos)) = self.carry.take() {
                let end = self.cut(&buf, pos, room.max(1));
                let start = data.len();
                data.extend_from_slice(&buf[pos..end]);
                segments.push(start..data.len());
                if end < buf.len() {
                    self.carry = Some((buf, end));
                    break; // chunk is full (or target met) with more to carry
                }
                continue;
            }
            if self.next_file >= self.files.file_count() {
                break;
            }
            // Peek the next file's size before reading: if this chunk
            // already holds data and the file would overflow the target
            // by more than the target itself, close the chunk first so
            // chunks stay near-target.
            let flen = self.files.file_len(self.next_file) as usize;
            if !data.is_empty() && data.len() + flen > 2 * target {
                break;
            }
            let idx = self.next_file;
            self.next_file += 1;
            if flen > target {
                // Oversized file: split it; first piece goes here.
                self.carry = Some((self.files.read_file(idx)?, 0));
                continue;
            }
            let start = data.len();
            self.files.append_file(idx, &mut data)?;
            segments.push(start..data.len());
        }

        if data.is_empty() {
            return Ok(None);
        }
        let chunk = IngestChunk {
            index: self.index,
            offset: self.offset,
            data: self.buffers.seal(data),
            segments,
        };
        self.index += 1;
        self.offset += chunk.data.len() as u64;
        Ok(Some(chunk))
    }

    fn total_bytes(&self) -> u64 {
        self.files.total_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supmr_storage::MemFileSet;

    fn lines(n: usize, tag: u8) -> Vec<u8> {
        (0..n).flat_map(|i| format!("{}{i:06}\n", tag as char).into_bytes()).collect()
    }

    fn drain(mut c: impl Chunker) -> Vec<IngestChunk> {
        let mut out = Vec::new();
        while let Some(chunk) = c.next_chunk().unwrap() {
            out.push(chunk);
        }
        out
    }

    fn reassemble(chunks: &[IngestChunk]) -> Vec<u8> {
        chunks.iter().flat_map(|c| c.data.to_vec()).collect()
    }

    #[test]
    fn small_files_coalesce_like_intra() {
        // 10 files of 80 bytes, 200-byte chunks: 2 files and change per
        // chunk.
        let files: Vec<Vec<u8>> = (0..10).map(|i| lines(10, b'a' + i)).collect();
        let total: Vec<u8> = files.iter().flatten().copied().collect();
        let chunks = drain(HybridChunker::new(MemFileSet::new(files), 200, RecordFormat::Newline));
        assert_eq!(reassemble(&chunks), total);
        // Every chunk except possibly the final remainder coalesces
        // several files.
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.segments.len() >= 2, "small files must coalesce: {:?}", c.segments);
        }
    }

    #[test]
    fn oversized_file_splits_like_inter() {
        // One 8KB file, 1KB chunks.
        let big = lines(1000, b'x');
        let total = big.clone();
        let chunks =
            drain(HybridChunker::new(MemFileSet::new(vec![big]), 1024, RecordFormat::Newline));
        assert!(chunks.len() >= 7);
        assert_eq!(reassemble(&chunks), total);
        for c in &chunks {
            assert_eq!(*c.data.last().unwrap(), b'\n', "splits at record boundaries");
        }
    }

    #[test]
    fn mixed_directory_produces_near_target_chunks() {
        // Mix: small (80B), huge (4KB), small, small, huge.
        let files = vec![
            lines(10, b'a'),
            lines(500, b'b'),
            lines(10, b'c'),
            lines(10, b'd'),
            lines(500, b'e'),
        ];
        let total: Vec<u8> = files.iter().flatten().copied().collect();
        let target = 512usize;
        let chunks =
            drain(HybridChunker::new(MemFileSet::new(files), target as u64, RecordFormat::Newline));
        assert_eq!(reassemble(&chunks), total);
        for (i, c) in chunks.iter().enumerate() {
            assert!(
                c.len() <= 2 * target + 16 || c.segments.len() == 1,
                "chunk {i} too large: {}",
                c.len()
            );
        }
        // Offsets and indices are consistent.
        let mut offset = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.offset, offset);
            offset += c.len() as u64;
        }
    }

    #[test]
    fn empty_set_and_empty_files() {
        assert!(drain(HybridChunker::new(MemFileSet::new(vec![]), 100, RecordFormat::Newline))
            .is_empty());
        let files = vec![Vec::new(), lines(5, b'a'), Vec::new()];
        let total: Vec<u8> = files.iter().flatten().copied().collect();
        let chunks = drain(HybridChunker::new(MemFileSet::new(files), 100, RecordFormat::Newline));
        assert_eq!(reassemble(&chunks), total);
    }

    #[test]
    fn segment_boundaries_respect_file_and_record_edges() {
        let files = vec![lines(3, b'a'), lines(300, b'b'), lines(3, b'c')];
        let chunks =
            drain(HybridChunker::new(MemFileSet::new(files.clone()), 256, RecordFormat::Newline));
        // Every segment's bytes must be a contiguous piece of exactly
        // one original file.
        let mut remaining: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
        let mut file_idx = 0;
        for c in &chunks {
            for seg in &c.segments {
                let piece = &c.data[seg.clone()];
                while remaining[file_idx].is_empty() {
                    file_idx += 1;
                }
                let cur = remaining[file_idx];
                assert!(cur.starts_with(piece), "segment is not a prefix of the current file");
                remaining[file_idx] = &cur[piece.len()..];
            }
        }
        assert!(remaining.iter().all(|r| r.is_empty()), "all file bytes consumed");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_target_rejected() {
        HybridChunker::new(MemFileSet::new(vec![]), 0, RecordFormat::Newline);
    }
}
