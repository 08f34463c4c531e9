//! The storage abstraction the runtime ingests from.
//!
//! Two shapes of input exist in the paper (§III-A): "Hadoop processes
//! input as either one big file (e.g., Terasort) or as many small files
//! (e.g., Word count)". [`DataSource`] is the one-big-file shape —
//! byte-addressed, sequentially ingested; [`FileSet`] is the
//! many-small-files shape — whole files are the unit of ingest and of
//! intra-file chunking.

use crate::shared::SharedBytes;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// A byte-addressed input that the ingest phase reads sequentially.
///
/// Implementations must be `Send` so the ingest thread of the chunk
/// pipeline can own one while mapper threads run elsewhere.
pub trait DataSource: Send {
    /// Total input length in bytes.
    fn len(&self) -> u64;

    /// Whether the source has no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read up to `buf.len()` bytes starting at `offset`, returning the
    /// number of bytes read (0 at or past end of input).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// A zero-copy view of the *entire* source, if the bytes are already
    /// resident in shared memory. `None` (the default) means callers must
    /// fall back to [`read_at`](DataSource::read_at) copies. Pacing and
    /// fault wrappers ([`ThrottledSource`](crate::ThrottledSource),
    /// [`FaultySource`](crate::FaultySource)) refuse the view so their
    /// per-read behavior cannot be bypassed.
    fn shared(&mut self) -> Option<SharedBytes> {
        None
    }

    /// Human-readable description for logs and experiment records.
    fn describe(&self) -> String {
        format!("source ({} bytes)", self.len())
    }
}

impl<S: DataSource + ?Sized> DataSource for Box<S> {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        (**self).read_at(offset, buf)
    }

    fn shared(&mut self) -> Option<SharedBytes> {
        (**self).shared()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Convenience helpers available on every [`DataSource`].
pub trait SourceExt: DataSource {
    /// Read the exact byte range `[offset, offset + len)`, truncated at
    /// end of input.
    fn read_range(&mut self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let available = self.len().saturating_sub(offset).min(len as u64) as usize;
        let mut buf = vec![0u8; available];
        let mut filled = 0;
        while filled < available {
            let n = self.read_at(offset + filled as u64, &mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        Ok(buf)
    }

    /// Read the entire source into memory (the original runtime's ingest
    /// phase).
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let len = self.len();
        let cap = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::OutOfMemory, "source too large for memory")
        })?;
        self.read_range(0, cap)
    }
}

impl<S: DataSource + ?Sized> SourceExt for S {}

/// An in-memory source; the backing bytes are shared so cloning is cheap.
#[derive(Debug, Clone)]
pub struct MemSource {
    data: SharedBytes,
}

impl MemSource {
    /// Wrap a byte buffer; an owned vector is adopted, not copied.
    pub fn new(data: impl Into<SharedBytes>) -> MemSource {
        MemSource { data: data.into() }
    }

    /// Borrow the whole backing buffer.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for MemSource {
    fn from(v: Vec<u8>) -> Self {
        MemSource::new(v)
    }
}

impl DataSource for MemSource {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let Ok(offset) = usize::try_from(offset) else {
            return Ok(0);
        };
        if offset >= self.data.len() {
            return Ok(0);
        }
        let n = buf.len().min(self.data.len() - offset);
        buf[..n].copy_from_slice(&self.data[offset..offset + n]);
        Ok(n)
    }

    fn shared(&mut self) -> Option<SharedBytes> {
        Some(self.data.clone())
    }

    fn describe(&self) -> String {
        format!("mem ({} bytes)", self.data.len())
    }
}

/// A source backed by one large file on disk (the Terasort input shape).
#[derive(Debug)]
pub struct FileSource {
    file: File,
    len: u64,
    path: PathBuf,
}

impl FileSource {
    /// Open a file for ingest.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileSource> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        Ok(FileSource { file, len, path })
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl DataSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if offset >= self.len {
            return Ok(0);
        }
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read(buf)
    }

    fn describe(&self) -> String {
        format!("file {} ({} bytes)", self.path.display(), self.len)
    }
}

/// A caching decorator: materializes the inner source into memory on
/// first access and serves every later read from RAM.
///
/// This is the related-work idea the paper borrows from MixApart-style
/// systems ("SupMR adopts many of these caching techniques", §VII)
/// applied at the source layer: an *iterative* job (kmeans) that
/// re-ingests its input every pass pays the slow device exactly once.
pub struct CachedSource<S> {
    inner: S,
    cache: Option<SharedBytes>,
}

impl<S: DataSource> CachedSource<S> {
    /// Wrap a source; nothing is read until the first access.
    pub fn new(inner: S) -> CachedSource<S> {
        CachedSource { inner, cache: None }
    }

    /// Whether the cache has been populated.
    pub fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    /// A cheap handle to the cached bytes, filling the cache if needed
    /// (the one read of the inner source is adopted, not copied).
    pub fn cached(&mut self) -> io::Result<SharedBytes> {
        if self.cache.is_none() {
            self.cache = Some(SharedBytes::from(self.inner.read_all()?));
        }
        Ok(self.cache.clone().expect("just filled"))
    }
}

impl<S: DataSource> DataSource for CachedSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let data = self.cached()?;
        let Ok(offset) = usize::try_from(offset) else {
            return Ok(0);
        };
        if offset >= data.len() {
            return Ok(0);
        }
        let n = buf.len().min(data.len() - offset);
        buf[..n].copy_from_slice(&data[offset..offset + n]);
        Ok(n)
    }

    fn shared(&mut self) -> Option<SharedBytes> {
        // Only a *warm* cache is zero-copy; a cold one would have to pay
        // the inner device first, and errors cannot surface from here.
        self.cache.clone()
    }

    fn describe(&self) -> String {
        format!(
            "{} (cached: {})",
            self.inner.describe(),
            if self.is_cached() { "warm" } else { "cold" }
        )
    }
}

/// A collection of small files — the word-count input shape and the unit
/// of intra-file chunking ("multiple files combine to form a chunk").
pub trait FileSet: Send {
    /// Number of files.
    fn file_count(&self) -> usize;

    /// Size in bytes of file `idx`.
    ///
    /// # Panics
    /// May panic if `idx >= file_count()`.
    fn file_len(&self, idx: usize) -> u64;

    /// Append the whole contents of file `idx` to `buf`, returning the
    /// number of bytes appended. A chunker passes its chunk buffer, so
    /// the file's bytes land in the chunk without a per-file copy.
    fn append_file(&mut self, idx: usize, buf: &mut Vec<u8>) -> io::Result<usize>;

    /// Read the whole contents of file `idx` into a new vector.
    fn read_file(&mut self, idx: usize) -> io::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(self.file_len(idx) as usize);
        self.append_file(idx, &mut buf)?;
        Ok(buf)
    }

    /// A zero-copy view of file `idx`, if its bytes are already resident
    /// in shared memory. Mirrors [`DataSource::shared`]: `None` (the
    /// default) means callers fall back to
    /// [`append_file`](FileSet::append_file) copies, and pacing/fault
    /// wrappers refuse the view.
    fn shared_file(&mut self, _idx: usize) -> Option<SharedBytes> {
        None
    }

    /// Total bytes across all files.
    fn total_len(&self) -> u64 {
        (0..self.file_count()).map(|i| self.file_len(i)).sum()
    }

    /// Human-readable description.
    fn describe(&self) -> String {
        format!("fileset ({} files, {} bytes)", self.file_count(), self.total_len())
    }
}

impl<F: FileSet + ?Sized> FileSet for Box<F> {
    fn file_count(&self) -> usize {
        (**self).file_count()
    }

    fn file_len(&self, idx: usize) -> u64 {
        (**self).file_len(idx)
    }

    fn append_file(&mut self, idx: usize, buf: &mut Vec<u8>) -> io::Result<usize> {
        (**self).append_file(idx, buf)
    }

    fn read_file(&mut self, idx: usize) -> io::Result<Vec<u8>> {
        (**self).read_file(idx)
    }

    fn shared_file(&mut self, idx: usize) -> Option<SharedBytes> {
        (**self).shared_file(idx)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// An in-memory file set.
#[derive(Debug, Clone, Default)]
pub struct MemFileSet {
    files: Vec<SharedBytes>,
}

impl MemFileSet {
    /// Build from a list of file contents (adopted, not copied).
    pub fn new(files: Vec<Vec<u8>>) -> MemFileSet {
        MemFileSet { files: files.into_iter().map(SharedBytes::from).collect() }
    }

    /// Append one file.
    pub fn push(&mut self, contents: Vec<u8>) {
        self.files.push(SharedBytes::from(contents));
    }
}

impl FileSet for MemFileSet {
    fn file_count(&self) -> usize {
        self.files.len()
    }

    fn file_len(&self, idx: usize) -> u64 {
        self.files[idx].len() as u64
    }

    fn append_file(&mut self, idx: usize, buf: &mut Vec<u8>) -> io::Result<usize> {
        buf.extend_from_slice(&self.files[idx]);
        Ok(self.files[idx].len())
    }

    fn shared_file(&mut self, idx: usize) -> Option<SharedBytes> {
        Some(self.files[idx].clone())
    }
}

/// A directory of real files, ordered by file name for determinism.
#[derive(Debug)]
pub struct DirFileSet {
    paths: Vec<PathBuf>,
    lens: Vec<u64>,
}

impl DirFileSet {
    /// Enumerate the regular files directly inside `dir` (sorted by name).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DirFileSet> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        let lens = paths
            .iter()
            .map(|p| p.metadata().map(|m| m.len()))
            .collect::<io::Result<Vec<u64>>>()?;
        Ok(DirFileSet { paths, lens })
    }

    /// The ordered file paths.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }
}

impl FileSet for DirFileSet {
    fn file_count(&self) -> usize {
        self.paths.len()
    }

    fn file_len(&self, idx: usize) -> u64 {
        self.lens[idx]
    }

    fn append_file(&mut self, idx: usize, buf: &mut Vec<u8>) -> io::Result<usize> {
        File::open(&self.paths[idx])?.read_to_end(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_source_reads_ranges() {
        let mut s = MemSource::from((0u8..100).collect::<Vec<u8>>());
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        assert_eq!(s.read_range(10, 5).unwrap(), vec![10, 11, 12, 13, 14]);
        // Truncated at EOF.
        assert_eq!(s.read_range(95, 10).unwrap(), vec![95, 96, 97, 98, 99]);
        // Past EOF.
        assert!(s.read_range(100, 10).unwrap().is_empty());
        assert!(s.read_range(u64::MAX, 4).unwrap().is_empty());
    }

    #[test]
    fn mem_source_read_all() {
        let data: Vec<u8> = (0..=255).collect();
        let mut s = MemSource::from(data.clone());
        assert_eq!(s.read_all().unwrap(), data);
        assert!(s.describe().contains("256"));
    }

    #[test]
    fn empty_mem_source() {
        let mut s = MemSource::from(Vec::new());
        assert!(s.is_empty());
        assert!(s.read_all().unwrap().is_empty());
    }

    #[test]
    fn file_source_round_trip() {
        let dir = std::env::temp_dir().join("supmr-storage-test-file");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.bin");
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();

        let mut s = FileSource::open(&path).unwrap();
        assert_eq!(s.len(), data.len() as u64);
        assert_eq!(s.read_all().unwrap(), data);
        assert_eq!(s.read_range(4, 4).unwrap(), 1u32.to_le_bytes());
        assert_eq!(s.path(), path.as_path());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_source_missing_file_errors() {
        assert!(FileSource::open("/nonexistent/supmr/input").is_err());
    }

    #[test]
    fn cached_source_reads_inner_exactly_once() {
        use crate::throttle::{ThrottledSource, TokenBucket};
        use std::time::Instant;
        let data: Vec<u8> = (0..120_000u32).map(|x| x as u8).collect();
        // Cold read pays the 1 MB/s device; warm reads are instant.
        let slow = ThrottledSource::with_bucket(
            MemSource::from(data.clone()),
            TokenBucket::with_burst(1_000_000.0, 32.0 * 1024.0),
        );
        let mut cached = CachedSource::new(slow);
        assert!(!cached.is_cached());
        assert!(cached.describe().contains("cold"));

        let t0 = Instant::now();
        assert_eq!(cached.read_all().unwrap(), data);
        let cold = t0.elapsed();
        assert!(cold.as_secs_f64() > 0.05, "cold read should be paced: {cold:?}");
        assert!(cached.is_cached());

        let t1 = Instant::now();
        assert_eq!(cached.read_all().unwrap(), data);
        assert_eq!(cached.read_range(5, 10).unwrap(), data[5..15].to_vec());
        let warm = t1.elapsed();
        assert!(warm < cold / 5, "warm reads must skip the device: {warm:?}");
        assert!(cached.describe().contains("warm"));
    }

    #[test]
    fn cached_source_edge_reads() {
        let mut c = CachedSource::new(MemSource::from(vec![1u8, 2, 3]));
        let mut buf = [0u8; 8];
        assert_eq!(c.read_at(3, &mut buf).unwrap(), 0);
        assert_eq!(c.read_at(u64::MAX, &mut buf).unwrap(), 0);
        assert_eq!(c.read_at(1, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], &[2, 3]);
    }

    #[test]
    fn mem_fileset_accounts_lengths() {
        let mut fs = MemFileSet::new(vec![b"hello".to_vec(), b"".to_vec()]);
        fs.push(b"world!".to_vec());
        assert_eq!(fs.file_count(), 3);
        assert_eq!(fs.file_len(0), 5);
        assert_eq!(fs.file_len(1), 0);
        assert_eq!(fs.total_len(), 11);
        assert_eq!(fs.read_file(2).unwrap(), b"world!".to_vec());
        assert!(fs.describe().contains("3 files"));
    }

    #[test]
    fn mem_source_shares_without_copy() {
        let data: Vec<u8> = (0..64).collect();
        let mut s = MemSource::from(data.clone());
        let a = s.shared().expect("mem sources are always resident");
        let b = s.shared().expect("shared view is repeatable");
        assert_eq!(a, data);
        // Both views plus the source itself reference one allocation.
        assert_eq!(a.ref_count(), 3);
        drop(b);
        assert_eq!(a.ref_count(), 2);
    }

    #[test]
    fn cached_source_shares_only_when_warm() {
        let mut c = CachedSource::new(MemSource::from(vec![9u8; 16]));
        assert!(c.shared().is_none(), "cold cache must not claim residency");
        c.cached().unwrap();
        let view = c.shared().expect("warm cache is resident");
        assert_eq!(view, vec![9u8; 16]);
    }

    #[test]
    fn mem_fileset_shares_individual_files() {
        let mut fs = MemFileSet::new(vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(fs.shared_file(1).unwrap(), b"two");
        let boxed: &mut dyn FileSet = &mut fs;
        assert_eq!(boxed.shared_file(0).unwrap(), b"one");
    }

    #[test]
    fn dir_fileset_sorted_enumeration() {
        let dir = std::env::temp_dir().join("supmr-storage-test-dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.txt"), b"bbb").unwrap();
        std::fs::write(dir.join("a.txt"), b"aa").unwrap();
        std::fs::create_dir_all(dir.join("subdir")).unwrap(); // ignored

        let mut fs = DirFileSet::open(&dir).unwrap();
        assert_eq!(fs.file_count(), 2);
        assert_eq!(fs.file_len(0), 2); // a.txt first
        assert_eq!(fs.read_file(1).unwrap(), b"bbb".to_vec());
        assert_eq!(fs.total_len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
