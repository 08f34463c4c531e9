//! Ingest chunks and chunking strategies (§III-A of the paper).
//!
//! SupMR partitions the input into small, similarly-sized **ingest
//! chunks** *before* producing input splits; the chunks stream through
//! the ingest pipeline one at a time. Two chunkers cover every input
//! shape:
//!
//! * **Inter-file** ([`InterFileChunker`]) — one large input is split
//!   into byte ranges of the user-chosen chunk size. The split point is
//!   adjusted forward so no record straddles two chunks: "it seeks to the
//!   user-defined chunk size, checks to see if it is in the middle of a
//!   key or value, and then continually increases the split point until
//!   reaching the end of the value."
//! * **File sets** ([`FileSetChunker`]) — whole files are packed into
//!   chunks up to a file count (intra-file: "if the user-defined chunk
//!   size is higher than the number of files left in the job, then the
//!   last chunk is smaller than the rest") or up to a byte target
//!   (hybrid). Under a byte target a file larger than the target is
//!   chunked alone, the way an inter-file input is.
//!
//! Where a record ends is decided in one place,
//! [`RecordFormat::next_boundary`]: chunk ends, the cuts of an oversized
//! file and input splits ([`crate::split`]) all ask it. The whole-input
//! ingest of a job without chunking is the same two chunkers with no limit:
//! its one chunk is the first chunk of an inter-file chunker whose chunk
//! size is unbounded, or of a file-set chunker whose file count is.
//!
//! A chunker also cuts each chunk into the **input splits** it will be
//! mapped in ([`Chunker::begin_chunk`], then [`Chunker::next_split`]), so
//! the pipeline can hand the mappers each split as it lands. A split
//! ends at the first record boundary at or after its start plus the
//! split size, and a chunk's last split at the chunk's end. An input
//! that is not resident is read split by split, each split into a buffer
//! of its own; a resident one, and every file-set chunk, lands whole, and
//! its splits are views of it ([`chunk_splits`]).
//!
//! A chunker whose input is not resident reads into buffers of its own,
//! which the [`SharedBytes`] of a chunk or split adopts without a copy.
//! Once every view of a buffer has dropped, the chunker takes it back and
//! reads later bytes into it, so a double-buffered job cycles the same
//! buffers instead of faulting in fresh ones per chunk. Resident bytes
//! are never copied: a resident stream, a lone resident file and the cuts
//! of an oversized file are views of one allocation.

//! ```
//! use supmr::chunk::{Chunker, InterFileChunker, SplitCut};
//! use supmr_storage::{MemSource, RecordFormat};
//!
//! let input = b"alpha\nbeta\ngamma\ndelta\n".to_vec();
//! let mut chunker =
//!     InterFileChunker::new(MemSource::from(input.clone()), 8, RecordFormat::Newline);
//! let first = chunker.next_chunk().unwrap().unwrap();
//! // 8 bytes requested, extended to the record boundary after "beta\n".
//! assert_eq!(first.data, b"alpha\nbeta\n");
//!
//! // The same chunks again, each cut into splits of at least 4 bytes.
//! let mut chunker = InterFileChunker::new(MemSource::from(input), 8, RecordFormat::Newline);
//! let cut = SplitCut { split_bytes: 4, width: 1 };
//! assert_eq!(chunker.begin_chunk(cut).unwrap(), Some(2)); // resident: it lands whole
//! assert_eq!(chunker.next_split().unwrap().unwrap(), b"alpha\n");
//! assert_eq!(chunker.next_split().unwrap().unwrap(), b"beta\n");
//! assert!(chunker.next_split().unwrap().is_none());
//! ```

use crate::split::{chunk_splits, wave_split_bytes};
use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use supmr_storage::{DataSource, FileSet, MemSource, RecordFormat, SharedBytes};

/// How the input is partitioned into ingest chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunking {
    /// No chunking: one whole-input chunk (the input's chunker with no
    /// limit), read before the one map wave — the Phoenix++ baseline.
    None,
    /// Inter-file chunking of a single large input into byte ranges.
    Inter {
        /// Target chunk size in bytes (actual chunks extend to the next
        /// record boundary).
        chunk_bytes: u64,
    },
    /// Intra-file chunking of a file set.
    Intra {
        /// Number of files coalesced into each chunk.
        files_per_chunk: usize,
    },
    /// Hybrid chunking of a file set by *bytes*: small files coalesce
    /// until the target size is reached, and files larger than the
    /// target are split at record boundaries — the "hybrid
    /// inter/intra-file chunking approach" the paper describes but
    /// leaves unimplemented (§III-A1).
    Hybrid {
        /// Target chunk size in bytes.
        chunk_bytes: u64,
    },
}

impl Chunking {
    /// Whether this strategy cuts the input into more than one chunk:
    /// an ingest thread then reads ahead while the mappers work, and
    /// ingest and map report one fused time. The one place a one-chunk
    /// stage is told from a pipelined one.
    pub fn is_pipelined(&self) -> bool {
        !matches!(self, Chunking::None)
    }
}

/// One ingest chunk: a contiguous region of input resident in memory.
///
/// `data` is a [`SharedBytes`] view: the ingest thread and every map
/// split reference one shared allocation, and cloning a chunk (or
/// handing its bytes to a map wave) never copies the payload. Fully
/// resident sources go further — each chunk is a window of the
/// *source's* buffer, so chunking itself is copy-free. Otherwise the
/// allocation is the chunker's read buffer, which it reuses for a later
/// chunk once every view of this one has dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestChunk {
    /// Chunk sequence number (0-based).
    pub index: usize,
    /// Absolute byte offset of the chunk in the logical input: the
    /// bytes of every chunk before it.
    pub offset: u64,
    /// The chunk bytes (a shared, immutable view).
    pub data: SharedBytes,
    /// Sub-ranges of `data` that must not be split across map tasks
    /// beyond record boundaries. Inter-file chunks have one range
    /// covering everything; file-set chunks have one per file.
    pub segments: Vec<Range<usize>>,
}

impl IngestChunk {
    /// Chunk length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// How a chunker cuts a chunk into input splits: at most `split_bytes`
/// long, and fine enough to give each of `width` map workers one, though
/// not below 64 KiB unless `split_bytes` is — sized by the chunk's
/// nominal length: the size an inter-file chunk was cut at (the rest of
/// the input, for the last), a file-set chunk's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitCut {
    /// The configured split size (non-zero).
    pub split_bytes: usize,
    /// The map width the splits are cut for.
    pub width: usize,
}

impl SplitCut {
    /// One split per chunk: the chunk itself.
    const WHOLE: SplitCut = SplitCut { split_bytes: usize::MAX, width: 1 };

    /// The split size of a chunk `nominal` bytes long.
    ///
    /// # Panics
    /// Panics if `split_bytes == 0`.
    fn bytes(&self, nominal: usize) -> usize {
        assert!(self.split_bytes > 0, "split size must be non-zero");
        wave_split_bytes(nominal, self.split_bytes, self.width)
    }
}

/// A stream of ingest chunks. The pipeline runtime pulls from this on a
/// dedicated ingest thread while mappers work on the previous chunk,
/// split by split: [`begin_chunk`](Chunker::begin_chunk), then
/// [`next_split`](Chunker::next_split) until it returns `None`.
pub trait Chunker: Send {
    /// Produce the next chunk, or `None` when the input is exhausted.
    fn next_chunk(&mut self) -> io::Result<Option<IngestChunk>>;

    /// Begin the next chunk, to be cut as `cut` says: the most splits it
    /// can have (exactly its splits when it lands whole), or `None` when
    /// the input is exhausted. The chunk is the one
    /// [`next_chunk`](Chunker::next_chunk) would produce.
    fn begin_chunk(&mut self, cut: SplitCut) -> io::Result<Option<usize>>;

    /// The next split of the chunk begun, in input order, or `None` once
    /// it has no more. A split is never empty.
    fn next_split(&mut self) -> io::Result<Option<SharedBytes>>;

    /// Total input bytes this chunker will eventually deliver.
    fn total_bytes(&self) -> u64;
}

/// Window size for reading past the nominal chunk end to the next
/// record boundary. Records larger than this still work — the read
/// keeps extending window by window.
const BOUNDARY_WINDOW: usize = 4096;

/// Where the next chunk a chunker hands out sits in its sequence.
#[derive(Default)]
struct Next {
    index: usize,
    offset: u64,
}

impl Next {
    /// Number `data` as the next chunk, cut into `segments`.
    fn chunk(&mut self, data: SharedBytes, segments: Vec<Range<usize>>) -> IngestChunk {
        let chunk = IngestChunk { index: self.index, offset: self.offset, data, segments };
        self.index += 1;
        self.offset += chunk.len() as u64;
        chunk
    }

    /// Number `data` as the next chunk, one segment.
    fn whole(&mut self, data: SharedBytes) -> IngestChunk {
        #[allow(clippy::single_range_in_vec_init)] // one segment covering the chunk
        let segments = vec![0..data.len()];
        self.chunk(data, segments)
    }
}

/// The splits of a chunk that landed whole: views of it, cut `split`
/// bytes apart at `format`'s record boundaries, segment by segment.
fn views(chunk: &IngestChunk, split: usize, format: RecordFormat) -> VecDeque<SharedBytes> {
    chunk_splits(chunk, split, format).into_iter().map(|r| chunk.data.slice(r)).collect()
}

/// The buffers of the chunks and splits a chunker has handed out. Each
/// is kept as one more view, so its reference count falls to 1 once
/// every view the job took of it has dropped; the buffer is then taken
/// back and later bytes read into it. A buffer is kept until the chunker
/// drops, so the buffers never outnumber the most that were ever viewed
/// at once.
#[derive(Default)]
struct Recycler {
    lent: Vec<SharedBytes>,
}

impl Recycler {
    /// A buffer with room for `capacity` bytes: a lent one that nothing
    /// else views any more, or a new one. A reclaimed buffer keeps its
    /// old length and bytes; [`read_into`] overwrites them.
    fn take(&mut self, capacity: usize) -> Vec<u8> {
        let mut buf = match self.lent.iter().position(|b| b.ref_count() == 1) {
            Some(i) => self.lent.swap_remove(i).try_reclaim().unwrap_or_default(),
            None => Vec::new(),
        };
        if buf.capacity() < capacity {
            buf.clear(); // growing must not copy the old bytes
            buf.reserve_exact(capacity);
        }
        buf
    }

    /// Adopt a filled buffer as a chunk's or split's bytes, keeping a
    /// view of it to take it back later.
    fn seal(&mut self, buf: Vec<u8>) -> SharedBytes {
        let data = SharedBytes::from(buf);
        self.lent.push(data.clone());
        data
    }
}

/// Read `source` from `offset` into `buf[at..at + want]`, stopping early
/// at end of input; returns the bytes read. `buf` grows to cover the
/// range if it is shorter — by exactly that much, so a record longer
/// than a window never doubles it — and bytes it already holds are
/// overwritten, not zeroed first.
fn read_into<S: DataSource>(
    source: &mut S,
    offset: u64,
    buf: &mut Vec<u8>,
    at: usize,
    want: usize,
) -> io::Result<usize> {
    if buf.len() < at + want {
        buf.reserve_exact(at + want - buf.len());
        buf.resize(at + want, 0);
    }
    let mut filled = 0;
    while filled < want {
        let n = source.read_at(offset + filled as u64, &mut buf[at + filled..at + want])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// Inter-file chunking of a [`DataSource`].
pub struct InterFileChunker<S> {
    source: S,
    chunk_bytes: u64,
    format: RecordFormat,
    /// The next chunk to begin; `offset` is the next byte to cut.
    next: Next,
    buffers: Recycler,
    /// The bytes the last boundary window read past the piece it ended:
    /// the head of the next piece, so no byte is read twice.
    carry: Vec<u8>,
    /// The splits of a chunk that landed whole, not yet handed out.
    landed: VecDeque<SharedBytes>,
    /// A chunk being read split by split: where it nominally ends, and
    /// its split size.
    streaming: Option<(u64, usize)>,
}

impl<S: DataSource> InterFileChunker<S> {
    /// Chunk `source` into ~`chunk_bytes` pieces aligned to `format`
    /// record boundaries.
    ///
    /// # Panics
    /// Panics if `chunk_bytes == 0`.
    pub fn new(source: S, chunk_bytes: u64, format: RecordFormat) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be non-zero");
        InterFileChunker {
            source,
            chunk_bytes,
            format,
            next: Next::default(),
            buffers: Recycler::default(),
            carry: Vec::new(),
            landed: VecDeque::new(),
            streaming: None,
        }
    }

    /// Read the piece at absolute offset `start`: the carried bytes, the
    /// rest of `want`, then window by window, each straight into the tail
    /// of the buffer, until the bytes read prove a record boundary at or
    /// after `want` or the input ends. What the last window read past
    /// that boundary is carried to the next piece.
    fn read_piece(&mut self, start: u64, want: usize) -> io::Result<SharedBytes> {
        let total = self.source.len();
        let carried = self.carry.len();
        let mut buf = self.buffers.take(want.max(carried) + BOUNDARY_WINDOW);
        buf.splice(..carried.min(buf.len()), self.carry.drain(..));
        let (at, rest) = (start + carried as u64, want.saturating_sub(carried));
        let mut len = carried + read_into(&mut self.source, at, &mut buf, carried, rest)?;
        let mut from = len.min(want);
        let end = loop {
            if let Some(end) = self.format.next_boundary(&buf[..len], from) {
                break end;
            }
            let at = start + len as u64;
            let window = BOUNDARY_WINDOW.min(total.saturating_sub(at) as usize);
            let n = read_into(&mut self.source, at, &mut buf, len, window)?;
            if n == 0 {
                break len; // trailing partial record travels with this piece
            }
            (from, len) = (len, len + n);
        };
        self.carry.extend_from_slice(&buf[end..len]);
        buf.truncate(end);
        Ok(self.buffers.seal(buf))
    }
}

impl<S: DataSource> Chunker for InterFileChunker<S> {
    fn next_chunk(&mut self) -> io::Result<Option<IngestChunk>> {
        let (index, offset) = (self.next.index, self.next.offset);
        if self.begin_chunk(SplitCut::WHOLE)?.is_none() {
            return Ok(None);
        }
        // A whole-chunk cut has one split; a source that ends before its
        // listed length may leave the chunk with none.
        let data = self.next_split()?.unwrap_or_default();
        #[allow(clippy::single_range_in_vec_init)] // one segment covering the chunk
        let segments = vec![0..data.len()];
        Ok(Some(IngestChunk { index, offset, data, segments }))
    }

    fn begin_chunk(&mut self, cut: SplitCut) -> io::Result<Option<usize>> {
        let (start, total) = (self.next.offset, self.source.len());
        if start >= total {
            return Ok(None);
        }
        let want = self.chunk_bytes.min(total - start) as usize;
        let split = cut.bytes(want);
        // Zero-copy fast path: a fully resident source lands each chunk
        // whole, a record-aligned window of its one shared allocation.
        if let Some(all) = self.source.shared().filter(|b| b.len() as u64 == total) {
            let start = start as usize;
            let data =
                all.slice(start..start + self.format.adjust_split_point(&all[start..], want));
            let chunk = self.next.whole(data);
            self.landed = views(&chunk, split, self.format);
            return Ok(Some(self.landed.len()));
        }
        // A source that ends before its listed length has no chunk here:
        // read the chunk's first byte now, to open its first split.
        if self.carry.is_empty() && read_into(&mut self.source, start, &mut self.carry, 0, 1)? == 0
        {
            self.carry.clear();
            return Ok(None);
        }
        self.next.index += 1;
        self.streaming = Some((start + want as u64, split));
        Ok(Some(want.div_ceil(split)))
    }

    fn next_split(&mut self) -> io::Result<Option<SharedBytes>> {
        if let Some(split) = self.landed.pop_front() {
            return Ok(Some(split));
        }
        let Some((end, split)) = self.streaming else { return Ok(None) };
        // Cut at the first boundary at or after start + split; the last
        // split's target, the chunk's nominal end, ends the chunk.
        let start = self.next.offset;
        let want = split.min((end - start) as usize);
        let data = self.read_piece(start, want)?;
        self.next.offset += data.len() as u64;
        // Short of its target, a piece ends where the input does.
        if data.len() < want || self.next.offset >= end {
            self.streaming = None;
        }
        Ok((!data.is_empty()).then_some(data))
    }

    fn total_bytes(&self) -> u64 {
        self.source.len()
    }
}

/// File-set chunking: whole files packed into chunks, up to a file
/// count ([`Chunking::Intra`]) or until a byte target is met
/// ([`Chunking::Hybrid`]).
///
/// A chunk of one resident file is a view of that file's buffer; any
/// other chunk of whole files is one buffer they are appended to, one
/// segment per file. Under a byte target a file larger than the target
/// is never packed with others: it is chunked alone, like a resident
/// inter-file input, out of its resident view or one read of it, and
/// every chunk of it is a view of that one copy. Every chunk lands
/// whole; its splits are views cut segment by segment.
pub struct FileSetChunker<F> {
    files: F,
    max_files: usize,
    max_bytes: u64,
    format: RecordFormat,
    /// The next file not yet in a chunk.
    next_file: usize,
    /// The chunks of the oversized file being cut.
    oversized: Option<InterFileChunker<MemSource>>,
    next: Next,
    buffers: Recycler,
    /// The splits of the chunk begun, not yet handed out.
    landed: VecDeque<SharedBytes>,
}

impl<F: FileSet> FileSetChunker<F> {
    /// Intra-file chunking: `files_per_chunk` files per chunk, the last
    /// chunk taking the files left. A count of at least the file count
    /// gives the whole set as one chunk. Its splits may end at any byte
    /// of a file; a job's chunker cuts them at the job's record format.
    ///
    /// # Panics
    /// Panics if `files_per_chunk == 0`.
    pub fn intra(files: F, files_per_chunk: usize) -> Self {
        assert!(files_per_chunk > 0, "files per chunk must be non-zero");
        Self::new(files, files_per_chunk, u64::MAX, RecordFormat::None)
    }

    /// Hybrid chunking: pack files into ~`chunk_bytes` chunks, and cut
    /// files bigger than that at `format` record boundaries.
    ///
    /// # Panics
    /// Panics if `chunk_bytes == 0`.
    pub fn hybrid(files: F, chunk_bytes: u64, format: RecordFormat) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be non-zero");
        Self::new(files, usize::MAX, chunk_bytes, format)
    }

    /// Up to `max_files` files, or until `max_bytes` is met, per chunk,
    /// with records — oversized files' cuts and splits — in `format`.
    pub(crate) fn new(files: F, max_files: usize, max_bytes: u64, format: RecordFormat) -> Self {
        FileSetChunker {
            files,
            max_files,
            max_bytes,
            format,
            next_file: 0,
            oversized: None,
            next: Next::default(),
            buffers: Recycler::default(),
            landed: VecDeque::new(),
        }
    }
}

impl<F: FileSet> Chunker for FileSetChunker<F> {
    fn next_chunk(&mut self) -> io::Result<Option<IngestChunk>> {
        if let Some(cuts) = &mut self.oversized {
            match cuts.next_chunk()? {
                Some(cut) => return Ok(Some(self.next.whole(cut.data))),
                None => self.oversized = None,
            }
        }
        let (first, count) = (self.next_file, self.files.file_count());
        if first >= count {
            return Ok(None);
        }
        if self.files.file_len(first) > self.max_bytes {
            self.next_file += 1;
            let file = match self.files.shared_file(first) {
                Some(view) => view,
                None => SharedBytes::from(self.files.read_file(first)?),
            };
            self.oversized =
                Some(InterFileChunker::new(MemSource::new(file), self.max_bytes, self.format));
            return self.next_chunk();
        }

        // Whole files up to the count, until the target is met; an
        // oversized file waits for chunks of its own.
        let (mut end, mut listed) = (first, 0);
        while end < count && end - first < self.max_files && listed < self.max_bytes {
            let len = self.files.file_len(end);
            if len > self.max_bytes {
                break;
            }
            (end, listed) = (end + 1, listed + len);
        }
        self.next_file = end;
        if end - first == 1 {
            if let Some(view) = self.files.shared_file(first) {
                return Ok(Some(self.next.whole(view)));
            }
        }
        // Pre-size to the files' listed lengths; a file that has grown
        // since it was listed still fits — "the runtime dynamically
        // increases the allocated space to ensure that all files in the
        // intra-file chunk are collocated".
        let mut data = self.buffers.take(listed as usize);
        data.clear();
        let mut segments = Vec::with_capacity(end - first);
        for i in first..end {
            let start = data.len();
            self.files.append_file(i, &mut data)?;
            segments.push(start..data.len());
        }
        let data = self.buffers.seal(data);
        Ok(Some(self.next.chunk(data, segments)))
    }

    fn begin_chunk(&mut self, cut: SplitCut) -> io::Result<Option<usize>> {
        let Some(chunk) = self.next_chunk()? else { return Ok(None) };
        self.landed = views(&chunk, cut.bytes(chunk.len()), self.format);
        Ok(Some(self.landed.len()))
    }

    fn next_split(&mut self) -> io::Result<Option<SharedBytes>> {
        Ok(self.landed.pop_front())
    }

    fn total_bytes(&self) -> u64 {
        self.files.total_len()
    }
}

#[cfg(test)]
mod hybrid;

#[cfg(test)]
mod tests {
    use super::*;
    use supmr_storage::{MemFileSet, MemSource, ThrottledSource};

    fn newline_input(records: usize, record_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..records {
            let body = format!("{i:0width$}", width = record_len - 1);
            out.extend_from_slice(body.as_bytes());
            out.push(b'\n');
        }
        out
    }

    fn drain(mut c: impl Chunker) -> Vec<IngestChunk> {
        let mut out = Vec::new();
        while let Some(chunk) = c.next_chunk().unwrap() {
            out.push(chunk);
        }
        out
    }

    /// Drain `c`, dropping each chunk before the next is read, so every
    /// read after the first overwrites a recycled buffer. The chunks
    /// come back as owned copies.
    fn drain_recycled(mut c: impl Chunker) -> Vec<IngestChunk> {
        let mut out = Vec::new();
        while let Some(chunk) = c.next_chunk().unwrap() {
            out.push(IngestChunk { data: SharedBytes::from(chunk.data.to_vec()), ..chunk });
        }
        out
    }

    /// Drain `c` the way a double-buffered job does: chunk i is held
    /// while chunk i + 1 is read and dropped before chunk i + 2 is.
    /// Returns the chunk count, the number of distinct buffers the
    /// chunks were read into, and the bytes.
    fn double_buffered(mut c: impl Chunker) -> (usize, usize, Vec<u8>) {
        let (mut chunks, mut buffers, mut bytes) = (0, Vec::new(), Vec::new());
        let mut held: Option<IngestChunk> = None;
        // A shared buffer of the dropped chunk's length, allocated and
        // held after each round, takes that chunk's buffer if it went
        // back to the allocator: only a buffer the chunker kept can be
        // read into again.
        let mut between_rounds = Vec::new();
        while let Some(chunk) = c.next_chunk().unwrap() {
            chunks += 1;
            if !buffers.contains(&chunk.data.as_ptr()) {
                buffers.push(chunk.data.as_ptr());
            }
            bytes.extend_from_slice(&chunk.data);
            if let Some(previous) = held.replace(chunk) {
                let len = previous.len();
                drop(previous);
                between_rounds.push(SharedBytes::from(vec![1u8; len]));
            }
        }
        (chunks, buffers.len(), bytes)
    }

    #[test]
    fn inter_chunks_partition_the_input_exactly() {
        let input = newline_input(100, 10); // 1000 bytes
        let chunker =
            InterFileChunker::new(MemSource::from(input.clone()), 256, RecordFormat::Newline);
        let chunks = drain(chunker);
        assert!(chunks.len() >= 3);
        let rebuilt: Vec<u8> = chunks.iter().flat_map(|c| c.data.to_vec()).collect();
        assert_eq!(rebuilt, input);
        // Offsets are cumulative and indices sequential.
        let mut expect_offset = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.offset, expect_offset);
            expect_offset += c.len() as u64;
            assert_eq!(c.segments, vec![0..c.len()]);
        }
    }

    #[test]
    fn inter_chunks_end_on_record_boundaries() {
        let input = newline_input(100, 10);
        // 250 is mid-record (records are 10 bytes).
        let chunker = InterFileChunker::new(MemSource::from(input), 250, RecordFormat::Newline);
        for chunk in drain(chunker) {
            assert_eq!(*chunk.data.last().unwrap(), b'\n', "chunk must end at a record end");
            assert!(chunk.len() >= 250 || chunk.index > 0);
        }
    }

    #[test]
    fn crlf_terminators_never_split() {
        // Terasort-style CRLF records of 20 bytes.
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(format!("{i:018}\r\n").as_bytes());
        }
        // Chunk size chosen to land between \r and \n (20*k + 19).
        let chunker = InterFileChunker::new(MemSource::from(input.clone()), 99, RecordFormat::CrLf);
        let chunks = drain(chunker);
        let rebuilt: Vec<u8> = chunks.iter().flat_map(|c| c.data.to_vec()).collect();
        assert_eq!(rebuilt, input);
        for chunk in &chunks {
            assert!(chunk.data.ends_with(b"\r\n"));
            assert_eq!(chunk.len() % 20, 0, "whole records only");
        }
    }

    #[test]
    fn fixed_width_chunks_are_record_multiples() {
        let input = vec![7u8; 1000];
        let chunker =
            InterFileChunker::new(MemSource::from(input), 130, RecordFormat::FixedWidth(100));
        let chunks = drain(chunker);
        for c in &chunks {
            assert_eq!(c.len() % 100, 0);
        }
        assert_eq!(chunks.iter().map(IngestChunk::len).sum::<usize>(), 1000);
    }

    #[test]
    fn record_longer_than_boundary_window_is_kept_whole() {
        // One 10KB record then a small one; window is 4KB.
        let mut input = vec![b'x'; 10_000];
        input.push(b'\n');
        input.extend_from_slice(b"tail\n");
        let chunker =
            InterFileChunker::new(MemSource::from(input.clone()), 100, RecordFormat::Newline);
        let chunks = drain(chunker);
        assert_eq!(chunks[0].len(), 10_001);
        let rebuilt: Vec<u8> = chunks.iter().flat_map(|c| c.data.to_vec()).collect();
        assert_eq!(rebuilt, input);
    }

    #[test]
    fn input_without_trailing_terminator() {
        let input = b"complete\npartial-record-no-newline".to_vec();
        let chunker =
            InterFileChunker::new(MemSource::from(input.clone()), 4, RecordFormat::Newline);
        let chunks = drain(chunker);
        let rebuilt: Vec<u8> = chunks.iter().flat_map(|c| c.data.to_vec()).collect();
        assert_eq!(rebuilt, input, "partial trailing record must not be lost");
    }

    #[test]
    fn empty_source_yields_no_chunks() {
        let chunker = InterFileChunker::new(MemSource::from(Vec::new()), 64, RecordFormat::Newline);
        assert!(drain(chunker).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_chunk_size_rejected() {
        InterFileChunker::new(MemSource::from(vec![1u8]), 0, RecordFormat::None);
    }

    #[test]
    fn intra_chunker_groups_files_with_short_last_chunk() {
        // The paper's worked example: 30 files, 4 per chunk => 8 chunks,
        // 7 full and 1 with the 2 remaining files.
        let files: Vec<Vec<u8>> = (0..30).map(|i| format!("file{i}\n").into_bytes()).collect();
        let chunker = FileSetChunker::intra(MemFileSet::new(files.clone()), 4);
        let chunks = drain(chunker);
        assert_eq!(chunks.len(), 8);
        for c in &chunks[..7] {
            assert_eq!(c.segments.len(), 4);
        }
        assert_eq!(chunks[7].segments.len(), 2);
        // Contents and segment boundaries reconstruct the files.
        let mut file_idx = 0;
        for c in &chunks {
            for seg in &c.segments {
                assert_eq!(&c.data[seg.clone()], files[file_idx].as_slice());
                file_idx += 1;
            }
        }
        assert_eq!(file_idx, 30);
    }

    #[test]
    fn intra_chunker_handles_empty_files_and_empty_set() {
        let files = vec![b"a\n".to_vec(), Vec::new(), b"c\n".to_vec()];
        let chunker = FileSetChunker::intra(MemFileSet::new(files), 2);
        let chunks = drain(chunker);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].segments.len(), 2);
        assert_eq!(chunks[0].segments[1], 2..2); // the empty file

        let empty = FileSetChunker::intra(MemFileSet::new(vec![]), 3);
        assert!(drain(empty).is_empty());
    }

    #[test]
    fn chunker_total_bytes() {
        let c = InterFileChunker::new(MemSource::from(vec![0u8; 500]), 100, RecordFormat::None);
        assert_eq!(c.total_bytes(), 500);
        let f = FileSetChunker::intra(MemFileSet::new(vec![vec![1; 10], vec![2; 20]]), 1);
        assert_eq!(f.total_bytes(), 30);
    }

    #[test]
    fn chunking_kind_predicates() {
        assert!(!Chunking::None.is_pipelined());
        assert!(Chunking::Inter { chunk_bytes: 1 }.is_pipelined());
        assert!(Chunking::Intra { files_per_chunk: 1 }.is_pipelined());
    }

    /// A source that hides its residency, forcing the read/copy path, and
    /// counts the bytes its reads ask for.
    struct CopyOnly<S> {
        source: S,
        asked: usize,
    }

    impl<S> CopyOnly<S> {
        fn new(source: S) -> Self {
            CopyOnly { source, asked: 0 }
        }
    }

    impl<S: DataSource> DataSource for CopyOnly<S> {
        fn len(&self) -> u64 {
            self.source.len()
        }

        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.asked += buf.len();
            self.source.read_at(offset, buf)
        }
    }

    #[test]
    fn resident_fast_path_matches_copy_path_for_every_format() {
        let mut crlf = Vec::new();
        for i in 0..50 {
            crlf.extend_from_slice(format!("{i:018}\r\n").as_bytes());
        }
        let cases: Vec<(Vec<u8>, RecordFormat)> = vec![
            (newline_input(100, 10), RecordFormat::Newline),
            (b"complete\npartial-record-no-newline".to_vec(), RecordFormat::Newline),
            (crlf, RecordFormat::CrLf),
            (vec![7u8; 1000], RecordFormat::FixedWidth(100)),
            ((0u8..=255).collect(), RecordFormat::None),
        ];
        for (input, format) in cases {
            for chunk_bytes in [1u64, 7, 19, 99, 250, 10_000] {
                let fast = drain(InterFileChunker::new(
                    MemSource::from(input.clone()),
                    chunk_bytes,
                    format,
                ));
                let copy = drain(InterFileChunker::new(
                    CopyOnly::new(MemSource::from(input.clone())),
                    chunk_bytes,
                    format,
                ));
                let recycled = drain_recycled(InterFileChunker::new(
                    CopyOnly::new(MemSource::from(input.clone())),
                    chunk_bytes,
                    format,
                ));
                assert_eq!(fast, copy, "format {format:?}, chunk_bytes {chunk_bytes}");
                assert_eq!(
                    fast, recycled,
                    "recycled: format {format:?}, chunk_bytes {chunk_bytes}"
                );
            }
        }
    }

    /// A streamed chunk ends where a boundary window proves a record
    /// end, and what that window read past the end opens the next chunk:
    /// every byte is asked of the source once, the chunks are the
    /// resident ones, and no buffer outgrows the chunk size plus the
    /// longest record plus two windows.
    #[test]
    fn streamed_chunks_read_each_byte_once_into_bounded_buffers() {
        // Records from one byte to three windows long, the last one
        // unterminated.
        let records = |terminator: &[u8]| {
            let lens = [3usize, 700, 5_000, 13_000, 90, 1];
            let mut out = Vec::new();
            for i in 0..24 {
                out.resize(out.len() + lens[i % lens.len()], b'a' + i as u8);
                out.extend_from_slice(terminator);
            }
            out.extend_from_slice(b"tail");
            out
        };
        let cases = [
            (records(b"\n"), RecordFormat::Newline, 13_001),
            (records(b"\r\n"), RecordFormat::CrLf, 13_002),
            (newline_input(600, 100), RecordFormat::FixedWidth(100), 100),
            (newline_input(12, 5_000), RecordFormat::FixedWidth(5_000), 5_000),
            (newline_input(500, 100), RecordFormat::None, 1),
        ];
        for (input, format, longest) in cases {
            for chunk_bytes in [1u64, 100, 4_095, 4_096, 10_000, 65_536, u64::MAX] {
                let what = format!("{format:?}, chunk_bytes {chunk_bytes}");
                let bound = (chunk_bytes as usize).min(input.len()) + longest + 2 * BOUNDARY_WINDOW;
                let resident = drain(InterFileChunker::new(
                    MemSource::from(input.clone()),
                    chunk_bytes,
                    format,
                ));
                let mut chunker = InterFileChunker::new(
                    CopyOnly::new(MemSource::from(input.clone())),
                    chunk_bytes,
                    format,
                );
                for expected in &resident {
                    assert_eq!(chunker.next_chunk().unwrap().as_ref(), Some(expected), "{what}");
                    // The chunk has dropped: take each lent buffer back to
                    // look at its capacity, and lend it again.
                    for view in std::mem::take(&mut chunker.buffers.lent) {
                        let buf = view.try_reclaim().expect("no view of the chunk is left");
                        assert!(buf.capacity() <= bound, "{what}: {} bytes", buf.capacity());
                        chunker.buffers.lent.push(SharedBytes::from(buf));
                    }
                }
                assert!(chunker.next_chunk().unwrap().is_none(), "{what}");
                assert_eq!(chunker.source.asked, input.len(), "{what}: bytes asked of the source");
            }
        }
    }

    #[test]
    fn non_resident_chunks_cycle_two_buffers() {
        let input = newline_input(4000, 10);
        // A throttled source refuses shared views, so every chunk is read.
        let source = ThrottledSource::new(MemSource::from(input.clone()), 1e12);
        let (chunks, buffers, bytes) =
            double_buffered(InterFileChunker::new(source, 4096, RecordFormat::Newline));
        assert!(chunks >= 8, "{chunks} chunks");
        assert!(buffers <= 2, "{chunks} chunks were read into {buffers} buffers");
        assert_eq!(bytes, input);
    }

    #[test]
    fn file_set_chunkers_cycle_two_buffers() {
        let files: Vec<Vec<u8>> = (0..64).map(|i| format!("{i:099}\n").into_bytes()).collect();
        let input = files.concat();
        for (name, (chunks, buffers, bytes)) in [
            ("intra", double_buffered(FileSetChunker::intra(MemFileSet::new(files.clone()), 4))),
            (
                "hybrid",
                double_buffered(FileSetChunker::hybrid(
                    MemFileSet::new(files.clone()),
                    400,
                    RecordFormat::Newline,
                )),
            ),
        ] {
            assert_eq!(chunks, 16, "{name}");
            assert!(buffers <= 2, "{name}: {chunks} chunks were read into {buffers} buffers");
            assert_eq!(bytes, input, "{name}");
        }
    }

    #[test]
    fn held_chunks_and_splits_are_never_overwritten() {
        let input = newline_input(2000, 10);
        let mut chunker = InterFileChunker::new(
            CopyOnly::new(MemSource::from(input.clone())),
            1000,
            RecordFormat::Newline,
        );
        // Keep every third chunk whole and a one-record split of every
        // other one; drop the rest of each chunk at once.
        let mut held = Vec::new();
        while let Some(chunk) = chunker.next_chunk().unwrap() {
            let start = chunk.offset as usize;
            if chunk.index % 3 == 0 {
                held.push((start, chunk.data.clone()));
            } else {
                held.push((start, chunk.data.slice(0..10)));
            }
        }
        assert!(held.len() >= 20);
        for (start, bytes) in &held {
            assert_eq!(&bytes[..], &input[*start..start + bytes.len()], "the view at {start}");
        }
    }

    #[test]
    fn resident_inter_chunks_share_the_source_allocation() {
        let input = newline_input(40, 10);
        let chunker = InterFileChunker::new(MemSource::from(input), 64, RecordFormat::Newline);
        let chunks = drain(chunker);
        assert!(chunks.len() > 1);
        // Every chunk is a window of the one MemSource buffer (held by
        // the drained chunker's source until it was dropped; the chunks
        // alone keep it alive now).
        for c in &chunks {
            assert_eq!(c.data.ref_count(), chunks.len(), "no per-chunk copies");
        }
    }

    #[test]
    fn single_file_intra_chunks_share_file_buffers() {
        let files: Vec<Vec<u8>> = (0..4).map(|i| format!("file-{i}\n").into_bytes()).collect();
        let chunks = drain(FileSetChunker::intra(MemFileSet::new(files.clone()), 1));
        assert_eq!(chunks.len(), 4);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.data, files[i]);
            // The chunk's view plus the MemFileSet's own Arc (the set
            // was dropped with the chunker, so just the view remains).
            assert_eq!(c.data.ref_count(), 1);
        }
        // Multi-file chunks still coalesce (and therefore copy).
        let grouped = drain(FileSetChunker::intra(MemFileSet::new(files), 2));
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].segments.len(), 2);
    }
}
