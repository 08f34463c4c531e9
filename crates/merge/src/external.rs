//! Run files: sorted runs spilled to disk and stream-merged back.
//!
//! The paper's p-way merge citation — Salzberg, *"Merging Sorted Runs
//! Using Large Main Memory"* — is an external-merge paper: the classic
//! discipline for inputs that exceed RAM is to sort bounded in-memory
//! runs, spill each to a run file, and k-way merge the run streams. The
//! in-memory SupMR runtime never needs this on the paper's 384GB box;
//! its out-of-core spill path (`supmr::spill`) writes runs with
//! [`RunWriter`] and reads them back with [`RunReader`], and
//! [`merge_run_files`] merges plain byte runs through the same
//! [`LoserTree`](crate::LoserTree).
//!
//! Records are opaque byte strings ordered lexicographically (the
//! Terasort order), each framed by the crate's one
//! [frame codec](crate#the-frame-format): a truncated or bit-rotted run
//! file surfaces as a typed [`RunReadError::Corrupt`] instead of a
//! mis-parsed length prefix. Writer and reader move whole blocks of
//! [`BLOCK_BYTES`]: frames are encoded in place in the writer's block and
//! walked in place in the reader's, so a record costs no `write`/`read`
//! call of its own.

use crate::frame::{push_frame, split_frame, FrameError, FRAME_HEADER};
use crate::loser_tree::merge_iterators;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Bytes a [`RunWriter`] collects before handing them to its sink, and
/// the default size of a [`RunReader`]'s block buffer: large enough that
/// a buffered file underneath is bypassed and a block is one `write` or
/// `read` call.
pub const BLOCK_BYTES: usize = 256 * 1024;

/// Room a [`RunWriter`]'s block has past [`BLOCK_BYTES`]: the block is
/// written once a frame takes it to `BLOCK_BYTES` or beyond, so with
/// this much headroom no frame of up to this length ever grows it.
const BLOCK_HEADROOM: usize = 64 * 1024;

/// What went wrong while reading a run file.
///
/// `Io` is the transport failing (disk error, injected fault); `Corrupt`
/// is the file contents lying (truncation mid-record, checksum
/// mismatch, impossible length prefix).
#[derive(Debug)]
pub enum RunReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file bytes are inconsistent with the run format.
    Corrupt {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl RunReadError {
    /// The closest `io::ErrorKind`: corruption maps to `InvalidData`.
    pub fn kind(&self) -> io::ErrorKind {
        match self {
            RunReadError::Io(e) => e.kind(),
            RunReadError::Corrupt { .. } => io::ErrorKind::InvalidData,
        }
    }

    /// Whether this is a corruption (vs transport) error.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, RunReadError::Corrupt { .. })
    }
}

impl fmt::Display for RunReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunReadError::Io(e) => write!(f, "run file read failed: {e}"),
            RunReadError::Corrupt { detail } => write!(f, "run file corrupt: {detail}"),
        }
    }
}

impl std::error::Error for RunReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunReadError::Io(e) => Some(e),
            RunReadError::Corrupt { .. } => None,
        }
    }
}

impl From<FrameError> for RunReadError {
    fn from(e: FrameError) -> RunReadError {
        RunReadError::Corrupt { detail: e.to_string() }
    }
}

impl From<RunReadError> for io::Error {
    fn from(e: RunReadError) -> io::Error {
        match e {
            RunReadError::Io(e) => e,
            RunReadError::Corrupt { detail } => io::Error::new(io::ErrorKind::InvalidData, detail),
        }
    }
}

/// Writes one sorted run as a checksummed, length-prefixed record file.
///
/// Generic over the sink so spill runs can be written through the
/// storage layer (throttled, observed, fault-injected); plain file runs
/// use the [`RunWriter::create`] constructor. Frames collect in one
/// block, allocated once, that goes to the sink whole each time it
/// reaches [`BLOCK_BYTES`]; [`finish`](RunWriter::finish) writes the
/// last one, so a writer dropped unfinished leaves a short run behind.
pub struct RunWriter<W: Write = File> {
    out: W,
    path: PathBuf,
    block: Vec<u8>,
    records: u64,
    bytes: u64,
}

impl RunWriter<File> {
    /// Create a run file at `path` (parent directories are created).
    pub fn create(path: impl AsRef<Path>) -> io::Result<RunWriter> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::create(&path)?;
        Ok(RunWriter { path, ..RunWriter::from_writer(file) })
    }
}

impl<W: Write> RunWriter<W> {
    /// Wrap an arbitrary sink (the returned path from [`finish`] is
    /// empty; stream writers name their runs out of band).
    ///
    /// [`finish`]: RunWriter::finish
    pub fn from_writer(out: W) -> RunWriter<W> {
        let block = Vec::with_capacity(BLOCK_BYTES + BLOCK_HEADROOM);
        RunWriter { out, path: PathBuf::new(), block, records: 0, bytes: 0 }
    }

    /// Append one record (caller guarantees run order).
    ///
    /// # Errors
    /// Fails for records longer than `u32::MAX` bytes or on I/O errors.
    pub fn push(&mut self, record: &[u8]) -> io::Result<()> {
        self.push_with(|block| block.extend_from_slice(record))
    }

    /// Append one record that `encode` writes straight into the output
    /// block (it must only append) — [`push`](RunWriter::push) without
    /// the caller-side copy of the record.
    ///
    /// # Errors
    /// As [`push`](RunWriter::push).
    pub fn push_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.bytes += push_frame(&mut self.block, encode)? as u64;
        self.records += 1;
        if self.block.len() >= BLOCK_BYTES {
            self.write_block()?;
        }
        Ok(())
    }

    fn write_block(&mut self) -> io::Result<()> {
        self.out.write_all(&self.block)?;
        self.block.clear();
        Ok(())
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes framed so far (record payloads plus headers).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush and close, returning the path and record count.
    pub fn finish(mut self) -> io::Result<(PathBuf, u64)> {
        self.write_block()?;
        self.out.flush()?;
        Ok((self.path, self.records))
    }
}

/// Streams the records of one run file, verifying each checksum.
///
/// Generic over the byte source so spill runs can be read back through
/// the storage layer; plain files use [`RunReader::open`]. Input arrives
/// a block at a time in one reusable buffer that frames are walked in:
/// [`next_record`](RunReader::next_record) lends each payload out of it,
/// the [`Iterator`] form copies it into a `Vec`.
pub struct RunReader<R: Read = File> {
    input: R,
    /// The block buffer; `block[start..end]` is read but not yet walked.
    block: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes asked of `input` per refill (and the buffer's size unless a
    /// longer record stretches it).
    block_bytes: usize,
    eof: bool,
    /// Deferred error (iterators can't return `Result` cleanly; the
    /// merge surfaces this after iteration).
    error: Option<RunReadError>,
}

impl RunReader<File> {
    /// Open a run file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<RunReader> {
        Ok(RunReader::from_reader(File::open(path)?))
    }
}

impl<R: Read> RunReader<R> {
    /// Wrap an arbitrary byte source, reading [`BLOCK_BYTES`] at a time.
    pub fn from_reader(input: R) -> RunReader<R> {
        RunReader::with_block_bytes(input, BLOCK_BYTES)
    }

    /// Wrap a byte source, reading `block_bytes` (at least one frame
    /// header) at a time — for callers that hold many runs open at once
    /// and must bound what their buffers add up to.
    pub fn with_block_bytes(input: R, block_bytes: usize) -> RunReader<R> {
        RunReader {
            input,
            block: Vec::new(),
            start: 0,
            end: 0,
            block_bytes: block_bytes.max(FRAME_HEADER),
            eof: false,
            error: None,
        }
    }

    /// Any error encountered while iterating.
    pub fn take_error(&mut self) -> Option<RunReadError> {
        self.error.take()
    }

    /// The next record, borrowed from the block buffer until the next
    /// call. `None` is the end of the run or an error parked for
    /// [`take_error`](RunReader::take_error).
    pub fn next_record(&mut self) -> Option<&[u8]> {
        if self.error.is_some() {
            return None;
        }
        loop {
            match split_frame(&self.block[self.start..self.end]) {
                Ok((payload, _)) => {
                    let at = self.start + FRAME_HEADER;
                    self.start = at + payload.len();
                    return Some(&self.block[at..self.start]);
                }
                // EOF is legitimate on a frame boundary and nowhere else.
                Err(FrameError::Truncated { have: 0, .. }) if self.eof => return None,
                Err(FrameError::Truncated { need, .. }) if !self.eof => {
                    if let Err(e) = self.refill(need) {
                        self.error = Some(RunReadError::Io(e));
                        return None;
                    }
                }
                Err(e) => {
                    self.error = Some(e.into());
                    return None;
                }
            }
        }
    }

    /// Read more input behind the unwalked bytes, which move to the
    /// front of the buffer first. The buffer outgrows `block_bytes` only
    /// for a frame of `need` bytes that does not fit, and then by at most
    /// one block beyond the bytes actually held: a corrupt length prefix
    /// can claim [`MAX_RECORD`](crate::frame::MAX_RECORD), but memory
    /// follows the bytes that arrive, not the claim.
    fn refill(&mut self, need: usize) -> io::Result<()> {
        self.block.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let want = need.max(self.block_bytes).min(self.end + self.block_bytes);
        if self.block.len() < want {
            self.block.resize(want, 0);
        }
        loop {
            match self.input.read(&mut self.block[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            return Ok(());
        }
    }
}

impl<R: Read> Iterator for RunReader<R> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        self.next_record().map(<[u8]>::to_vec)
    }
}

/// Merge previously-spilled run files into one sorted record stream.
/// The merge is streaming: memory use is one buffered record per run.
///
/// Caveat: mid-stream read errors end the affected run silently (the
/// iterator protocol has nowhere to put them). Callers that must detect
/// truncation should compare the merged record count against the counts
/// [`RunWriter::finish`] returned for the runs.
pub fn merge_run_files(paths: &[PathBuf]) -> io::Result<impl Iterator<Item = Vec<u8>>> {
    let readers = paths.iter().map(RunReader::open).collect::<io::Result<Vec<RunReader>>>()?;
    Ok(merge_iterators(readers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use supmr_workloads::Xoshiro256;

    #[test]
    fn the_writer_block_is_allocated_once() {
        let mut writer = RunWriter::from_writer(io::sink());
        let capacity = writer.block.capacity();
        // 114-byte payloads, a spilled TeraSort pair's length, through
        // four block writes.
        let record = [7u8; 114];
        for _ in 0..4 * BLOCK_BYTES / (record.len() + crate::frame::FRAME_HEADER) + 1 {
            writer.push(&record).unwrap();
            assert_eq!(writer.block.capacity(), capacity, "after {} records", writer.records());
        }
        let long = vec![1u8; BLOCK_HEADROOM - crate::frame::FRAME_HEADER];
        for _ in 0..8 {
            writer.push(&long).unwrap();
        }
        assert_eq!(writer.block.capacity(), capacity, "a frame of the headroom's length fits");
        writer.finish().unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("supmr-external-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Sort `records` into runs of at most `per_run` records, write each
    /// with a [`RunWriter`] under `dir`, and return the paths with their
    /// record counts.
    fn write_sorted_runs(records: &[Vec<u8>], per_run: usize, dir: &Path) -> Vec<(PathBuf, u64)> {
        records
            .chunks(per_run)
            .enumerate()
            .map(|(i, run)| {
                let mut run = run.to_vec();
                run.sort_unstable();
                let mut w = RunWriter::create(dir.join(format!("run-{i:05}.dat"))).unwrap();
                for rec in &run {
                    w.push(rec).unwrap();
                }
                w.finish().unwrap()
            })
            .collect()
    }

    /// Every record of `runs`, in the order [`merge_run_files`] yields.
    fn merged(runs: &[(PathBuf, u64)]) -> Vec<Vec<u8>> {
        let paths: Vec<PathBuf> = runs.iter().map(|(p, _)| p.clone()).collect();
        merge_run_files(&paths).unwrap().collect()
    }

    fn random_records(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.below(40);
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect()
    }

    #[test]
    fn run_file_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut w = RunWriter::create(dir.join("r.dat")).unwrap();
        let records = vec![b"".to_vec(), b"alpha".to_vec(), b"beta".to_vec()];
        for r in &records {
            w.push(r).unwrap();
        }
        assert_eq!(w.records(), 3);
        let (path, count) = w.finish().unwrap();
        assert_eq!(count, 3);
        let mut reader = RunReader::open(&path).unwrap();
        let got: Vec<Vec<u8>> = reader.by_ref().collect();
        assert_eq!(got, records);
        assert!(reader.take_error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_writer_reader_round_trip() {
        let mut buf = Vec::new();
        let mut w = RunWriter::from_writer(&mut buf);
        w.push(b"one").unwrap();
        w.push(b"two").unwrap();
        assert_eq!(w.bytes(), 8 + 3 + 8 + 3);
        let (path, n) = w.finish().unwrap();
        assert_eq!(path, PathBuf::new());
        assert_eq!(n, 2);
        let mut r = RunReader::from_reader(buf.as_slice());
        let got: Vec<Vec<u8>> = r.by_ref().collect();
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(r.take_error().is_none());
    }

    /// Frames the way the format is documented, independently of
    /// `push_frame`: what a run file written before the block writer
    /// holds.
    fn framed(records: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            out.extend_from_slice(&(r.len() as u32).to_le_bytes());
            out.extend_from_slice(&crate::crc32(r).to_le_bytes());
            out.extend_from_slice(r);
        }
        out
    }

    #[test]
    fn bytes_on_disk_are_the_documented_format_both_ways() {
        let records: [&[u8]; 3] = [b"", b"alpha", b"a somewhat longer record"];
        let mut written = Vec::new();
        let mut w = RunWriter::from_writer(&mut written);
        for r in records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(written, framed(&records));
        let got: Vec<Vec<u8>> = RunReader::from_reader(framed(&records).as_slice()).collect();
        assert_eq!(got, records.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
    }

    #[test]
    fn records_straddle_blocks_of_any_size() {
        // Payloads from empty to several blocks long, read back through
        // block buffers smaller than a header, a record, and the run.
        let records: Vec<Vec<u8>> = (0..40usize).map(|i| vec![i as u8; (i * 37) % 300]).collect();
        let mut run = Vec::new();
        let mut w = RunWriter::from_writer(&mut run);
        for r in &records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        for block_bytes in [1, 8, 9, 64, 311, 4096, run.len()] {
            let mut reader = RunReader::with_block_bytes(run.as_slice(), block_bytes);
            let got: Vec<Vec<u8>> = reader.by_ref().collect();
            assert_eq!(got, records, "block of {block_bytes}");
            assert!(reader.take_error().is_none());
        }
    }

    #[test]
    fn writer_hands_over_whole_blocks() {
        struct Sink(Vec<usize>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Sink(Vec::new());
        let mut w = RunWriter::from_writer(&mut sink);
        let record = [7u8; 1000];
        for _ in 0..600 {
            w.push(&record).unwrap();
        }
        let bytes = w.bytes();
        w.finish().unwrap();
        assert_eq!(sink.0.iter().sum::<usize>() as u64, bytes);
        assert_eq!(sink.0.len(), 3, "two full blocks and the tail: {:?}", sink.0);
        assert!(sink.0.iter().all(|&n| n < BLOCK_BYTES + record.len() + FRAME_HEADER));
    }

    #[test]
    fn corruption_surfaces_as_a_deferred_typed_error() {
        let good = framed(&[b"first record", b"stable payload"]);
        let n = good.len();
        let mut rotten = good.clone();
        rotten[n - 1] ^= 0x01;
        // (bytes, records readable before the fault, message fragment)
        let cases: [(Vec<u8>, usize, &str); 4] = [
            (good[..n - 3].to_vec(), 1, "truncated frame payload"),
            (good[..20 + 2].to_vec(), 1, "truncated frame header"),
            (rotten, 1, "checksum mismatch"),
            (u32::MAX.to_le_bytes().repeat(2), 0, "impossible record length"),
        ];
        for (bytes, readable, fragment) in cases {
            for block_bytes in [8, 16, BLOCK_BYTES] {
                let mut reader = RunReader::with_block_bytes(bytes.as_slice(), block_bytes);
                assert_eq!(reader.by_ref().count(), readable, "{fragment}");
                let err = reader.take_error().expect("corruption must surface");
                assert!(err.is_corrupt(), "{err}");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains(fragment), "{err}");
                assert!(reader.next().is_none(), "a failed reader stays ended");
            }
        }
    }

    #[test]
    fn a_lying_length_prefix_allocates_nothing_for_the_bytes_it_claims() {
        // Twelve bytes whose prefix claims 200 MiB (below `MAX_RECORD`,
        // so only the missing payload gives it away).
        let mut bytes = (200u32 * 1024 * 1024).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xAB; 8]);
        for block_bytes in [16, BLOCK_BYTES] {
            let mut reader = RunReader::with_block_bytes(bytes.as_slice(), block_bytes);
            assert!(reader.next_record().is_none());
            let err = reader.take_error().expect("the truncation must surface");
            assert!(err.is_corrupt(), "{err}");
            assert!(
                reader.block.capacity() <= bytes.len() + 2 * block_bytes,
                "buffer grew to {} for {} bytes of input",
                reader.block.capacity(),
                bytes.len()
            );
        }
    }

    #[test]
    fn transport_errors_are_not_corruption() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
        }
        let mut reader = RunReader::from_reader(Broken);
        assert!(reader.next().is_none());
        let err = reader.take_error().expect("the failure must surface");
        assert!(!err.is_corrupt());
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn merged_runs_match_in_memory_sort() {
        let dir = temp_dir("sorteq");
        let records = random_records(5_000, 9);
        let mut expected = records.clone();
        expected.sort_unstable();
        // Small runs, so the merge has many heads.
        let runs = write_sorted_runs(&records, 200, &dir);
        assert_eq!(runs.len(), 25);
        assert_eq!(merged(&runs), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_produces_multiple_sorted_runs() {
        let dir = temp_dir("spill");
        let records = random_records(1_000, 4);
        let runs = write_sorted_runs(&records, 64, &dir);
        assert!(runs.len() > 3, "expected several runs, got {}", runs.len());
        for (p, n) in &runs {
            let run: Vec<Vec<u8>> = RunReader::open(p).unwrap().collect();
            assert_eq!(run.len() as u64, *n);
            assert!(run.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
        }
        // The writers' counts are what a truncation check compares the
        // merge against.
        let total: u64 = runs.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 1_000);
        assert_eq!(merged(&runs).len() as u64, total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_input_yields_no_runs_and_empty_output() {
        let dir = temp_dir("empty");
        assert!(write_sorted_runs(&[], 16, &dir).is_empty());
        assert!(merged(&[]).is_empty());
        // An empty run file merges to nothing alongside a non-empty one.
        let (empty, n) = RunWriter::create(dir.join("empty.dat")).unwrap().finish().unwrap();
        assert_eq!(n, 0);
        let full = write_sorted_runs(&[b"only".to_vec()], 16, &dir);
        assert!(merged(&[(empty.clone(), 0)]).is_empty());
        assert_eq!(merged(&[(empty, 0), full[0].clone()]), vec![b"only".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_stable_across_runs_with_duplicates() {
        let dir = temp_dir("dups");
        // Every run holds every key, ten times over: ties inside a run
        // and across runs.
        let runs: Vec<(PathBuf, u64)> = (0..4u8)
            .map(|run| {
                let mut w = RunWriter::create(dir.join(format!("run-{run}.dat"))).unwrap();
                for key in 0..3u8 {
                    for _ in 0..10 {
                        w.push(&[key]).unwrap();
                    }
                }
                w.finish().unwrap()
            })
            .collect();
        let out = merged(&runs);
        assert_eq!(out.len(), 120);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        for key in 0..3u8 {
            assert_eq!(out.iter().filter(|r| r[..] == [key]).count(), 40);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terasort_records_sort_externally() {
        let dir = temp_dir("tera");
        // Length-100 CRLF records sort by their whole body, which starts
        // with the 10-byte key — the Terasort order.
        let mut rng = Xoshiro256::seed_from_u64(3);
        let records: Vec<Vec<u8>> = (0..500)
            .map(|_| {
                let mut r = vec![0u8; 100];
                for b in r.iter_mut().take(10) {
                    *b = b'A' + rng.below(26) as u8;
                }
                r[98] = b'\r';
                r[99] = b'\n';
                r
            })
            .collect();
        let runs = write_sorted_runs(&records, 30, &dir);
        let mut expected = records;
        expected.sort_unstable();
        assert_eq!(merged(&runs), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
