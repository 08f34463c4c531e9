//! Tests of hybrid chunking: a [`FileSetChunker`](super::FileSetChunker)
//! under a byte target, over directories that mix small files with
//! files bigger than the target.

#[cfg(test)]
mod tests {
    use crate::chunk::{Chunker, FileSetChunker, IngestChunk};
    use std::io;
    use std::sync::{Arc, Mutex};
    use supmr_storage::{FileSet, MemFileSet, RecordFormat, SharedBytes};

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
        let chunks =
            drain(FileSetChunker::hybrid(MemFileSet::new(files), 200, RecordFormat::Newline));
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
            drain(FileSetChunker::hybrid(MemFileSet::new(vec![big]), 1024, RecordFormat::Newline));
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
        let chunks = drain(FileSetChunker::hybrid(
            MemFileSet::new(files),
            target as u64,
            RecordFormat::Newline,
        ));
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
        assert!(drain(FileSetChunker::hybrid(MemFileSet::new(vec![]), 100, RecordFormat::Newline))
            .is_empty());
        let files = vec![Vec::new(), lines(5, b'a'), Vec::new()];
        let total: Vec<u8> = files.iter().flatten().copied().collect();
        let chunks =
            drain(FileSetChunker::hybrid(MemFileSet::new(files), 100, RecordFormat::Newline));
        assert_eq!(reassemble(&chunks), total);
    }

    #[test]
    fn segment_boundaries_respect_file_and_record_edges() {
        let files = vec![lines(3, b'a'), lines(300, b'b'), lines(3, b'c')];
        let chunks = drain(FileSetChunker::hybrid(
            MemFileSet::new(files.clone()),
            256,
            RecordFormat::Newline,
        ));
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
        FileSetChunker::hybrid(MemFileSet::new(vec![]), 0, RecordFormat::Newline);
    }

    /// How a [`Counting`] file set's files were read: per file, whole
    /// reads, appends into a chunk buffer, and the bytes appended.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Reads {
        read: Vec<usize>,
        appended: Vec<usize>,
        appended_bytes: usize,
    }

    /// A file set that counts its reads, resident or not.
    struct Counting {
        files: MemFileSet,
        resident: bool,
        reads: Arc<Mutex<Reads>>,
    }

    impl FileSet for Counting {
        fn file_count(&self) -> usize {
            self.files.file_count()
        }

        fn file_len(&self, idx: usize) -> u64 {
            self.files.file_len(idx)
        }

        fn append_file(&mut self, idx: usize, buf: &mut Vec<u8>) -> io::Result<usize> {
            let n = self.files.append_file(idx, buf)?;
            let mut reads = self.reads.lock().unwrap();
            reads.appended[idx] += 1;
            reads.appended_bytes += n;
            Ok(n)
        }

        fn read_file(&mut self, idx: usize) -> io::Result<Vec<u8>> {
            self.reads.lock().unwrap().read[idx] += 1;
            Ok(self.files.shared_file(idx).expect("in memory").to_vec())
        }

        fn shared_file(&mut self, idx: usize) -> Option<SharedBytes> {
            self.resident.then(|| self.files.shared_file(idx)).flatten()
        }
    }

    #[test]
    fn an_oversized_file_is_read_at_most_once_and_never_copied() {
        let files = vec![lines(3, b'a'), lines(3, b'b'), lines(400, b'c'), lines(3, b'd')];
        let big = files[2].clone();
        for resident in [false, true] {
            let reads = Arc::new(Mutex::new(Reads {
                read: vec![0; files.len()],
                appended: vec![0; files.len()],
                ..Reads::default()
            }));
            let set = Counting {
                files: MemFileSet::new(files.clone()),
                resident,
                reads: Arc::clone(&reads),
            };
            let chunks = drain(FileSetChunker::hybrid(set, 256, RecordFormat::Newline));
            assert_eq!(reassemble(&chunks), files.concat());
            let reads = reads.lock().unwrap().clone();
            assert_eq!(reads.read[2], usize::from(!resident), "resident: {resident}");
            assert_eq!(reads.appended[2], 0, "resident: {resident}");
            assert!(reads.appended_bytes <= files.concat().len() - big.len());
            // The cuts are views of one copy of the file, back to back.
            let cuts: Vec<&IngestChunk> = chunks.iter().filter(|c| c.data[0] == b'c').collect();
            assert!(cuts.len() >= 10, "{} cuts", cuts.len());
            assert_eq!(cuts.iter().map(|c| c.len()).sum::<usize>(), big.len());
            for pair in cuts.windows(2) {
                assert_eq!(
                    pair[0].data.as_ptr().wrapping_add(pair[0].len()),
                    pair[1].data.as_ptr()
                );
            }
        }
    }
}
