//! Spill-run storage: where out-of-core intermediate runs live.
//!
//! The runtime's spill pipeline (`supmr::spill`) writes sorted runs when
//! the memory accountant trips and streams them back for the external
//! reduce merge. This module owns the *where*: a [`RunStore`] names runs
//! and hands out byte sinks/sources, so the same wrappers that shape
//! ingest apply to spill traffic: a run store in a
//! [`ThrottledSource`](crate::ThrottledSource) draws on the `--throttle`
//! device's token bucket, in an [`ObservedSource`](crate::ObservedSource)
//! it feeds the `supmr.storage.*` read and write families, and in a
//! [`FaultySource`](crate::FaultySource) it fails deterministically for
//! error-path tests. [`RunGuard`] is the RAII cleanup: a run file a panic
//! leaves behind is deleted when its guard unwinds.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use supmr_metrics::unpoisoned;

/// Named byte blobs for spill runs.
///
/// Implementations must be safe to use from several reduce workers at
/// once (distinct names; concurrent opens of the same finished run are
/// also fine).
pub trait RunStore: Send + Sync {
    /// Create (or truncate) the run called `name` and return its sink.
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>>;

    /// Open a finished run for streaming reads.
    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>>;

    /// Delete the run. Missing runs are not an error.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Human-readable description for reports and errors.
    fn describe(&self) -> String {
        "run store".to_string()
    }
}

impl<R: RunStore + ?Sized> RunStore for Arc<R> {
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>> {
        (**self).create(name)
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        (**self).open(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        (**self).remove(name)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Run files in a directory on disk (the production store).
///
/// Its sinks and sources are the files themselves, unbuffered: the run
/// writer hands over whole blocks and the run reader asks for them, so a
/// buffer in between would only add a copy (and an allocation per open
/// run).
#[derive(Debug)]
pub struct DiskRunStore {
    dir: PathBuf,
    /// Whether the store made `dir` for itself ([`DiskRunStore::temp`])
    /// and so removes it on drop.
    temp: bool,
}

impl DiskRunStore {
    /// Use (and create) `dir` as the spill directory. The directory is
    /// the caller's: the store never removes it.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<DiskRunStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskRunStore { dir, temp: false })
    }

    /// A fresh directory under the system temp dir, unique within the
    /// process (`supmr-spill-<pid>-<n>`), removed when the store drops.
    pub fn temp() -> io::Result<DiskRunStore> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("supmr-spill-{}-{n}", std::process::id()));
        let mut store = DiskRunStore::create(dir)?;
        store.temp = true;
        Ok(store)
    }

    /// The spill directory.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for DiskRunStore {
    fn drop(&mut self) {
        if self.temp {
            // Run guards hold the store, so their runs are gone by now;
            // only an empty directory is removed, and failure is not an
            // error.
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

impl RunStore for DiskRunStore {
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(File::create(self.path(name))?))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(File::open(self.path(name))?))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn describe(&self) -> String {
        format!("disk runs at {}", self.dir.display())
    }
}

type MemRuns = Arc<Mutex<HashMap<String, Vec<u8>>>>;

/// In-memory run store for tests and simulations.
#[derive(Debug, Clone, Default)]
pub struct MemRunStore {
    runs: MemRuns,
}

impl MemRunStore {
    /// An empty store.
    pub fn new() -> MemRunStore {
        MemRunStore::default()
    }

    /// Names of the runs currently stored.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = unpoisoned(self.runs.lock()).keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of runs currently stored.
    pub fn len(&self) -> usize {
        unpoisoned(self.runs.lock()).len()
    }

    /// Whether no runs are stored.
    pub fn is_empty(&self) -> bool {
        unpoisoned(self.runs.lock()).is_empty()
    }
}

/// Sink that publishes its buffer into the shared map on flush/drop.
struct MemRunWriter {
    runs: MemRuns,
    name: String,
    buf: Vec<u8>,
}

impl Write for MemRunWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        unpoisoned(self.runs.lock()).insert(self.name.clone(), self.buf.clone());
        Ok(())
    }
}

impl Drop for MemRunWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl RunStore for MemRunStore {
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(MemRunWriter {
            runs: Arc::clone(&self.runs),
            name: name.to_string(),
            buf: Vec::new(),
        }))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        let runs = unpoisoned(self.runs.lock());
        let data = runs
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no run {name}")))?;
        Ok(Box::new(io::Cursor::new(data)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        unpoisoned(self.runs.lock()).remove(name);
        Ok(())
    }

    fn describe(&self) -> String {
        format!("mem runs ({} stored)", self.len())
    }
}

/// Deletes a named run on drop unless [`keep`](RunGuard::keep) was
/// called: a panic that unwinds through the spill pipeline removes its
/// run files instead of leaking them into the spill directory.
pub struct RunGuard {
    store: Arc<dyn RunStore>,
    name: String,
    kept: bool,
}

impl RunGuard {
    /// Guard the run called `name` in `store`.
    pub fn new(store: Arc<dyn RunStore>, name: impl Into<String>) -> RunGuard {
        RunGuard { store, name: name.into(), kept: false }
    }

    /// The guarded run's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Keep the run on drop (it still gets deleted when the job's spill
    /// state is torn down via [`RunGuard::release`]).
    pub fn keep(&mut self) {
        self.kept = true;
    }

    /// Un-keep: the next drop deletes the run.
    pub fn release(&mut self) {
        self.kept = false;
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        if !self.kept {
            let _ = self.store.remove(&self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::tests::metered;
    use crate::{Fault, FaultySource, ObservedSource, ThrottledSource, TokenBucket};
    use std::time::Instant;

    fn temp_store(tag: &str) -> (DiskRunStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("supmr-spill-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        (DiskRunStore::create(&dir).unwrap(), dir)
    }

    fn write_run(store: &dyn RunStore, name: &str, data: &[u8]) {
        let mut w = store.create(name).unwrap();
        w.write_all(data).unwrap();
        w.flush().unwrap();
    }

    fn read_run(store: &dyn RunStore, name: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        store.open(name).unwrap().read_to_end(&mut buf).unwrap();
        buf
    }

    #[test]
    fn disk_store_round_trip_and_remove() {
        let (store, dir) = temp_store("disk");
        write_run(&store, "p0-run0.dat", b"hello runs");
        assert_eq!(read_run(&store, "p0-run0.dat"), b"hello runs");
        store.remove("p0-run0.dat").unwrap();
        assert!(store.open("p0-run0.dat").is_err());
        // Removing a missing run is not an error.
        store.remove("p0-run0.dat").unwrap();
        assert!(store.describe().contains("disk runs"));
        drop(store);
        assert!(dir.is_dir(), "a named directory is the caller's to remove");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_store_removes_its_directory_after_the_last_clone() {
        let store = Arc::new(DiskRunStore::temp().unwrap());
        let dir = store.dir().clone();
        assert!(dir.is_dir());
        assert_ne!(DiskRunStore::temp().unwrap().dir(), &dir, "each store gets its own directory");
        write_run(store.as_ref(), "r", b"run");
        let guard = RunGuard::new(store.clone(), "r");
        drop(store);
        assert!(dir.join("r").is_file(), "the guard's clone keeps the store alive");
        drop(guard);
        assert!(!dir.exists(), "the last clone removed the emptied directory");
    }

    #[test]
    fn mem_store_round_trip() {
        let store = MemRunStore::new();
        write_run(&store, "a", b"alpha");
        write_run(&store, "b", b"beta");
        assert_eq!(store.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(read_run(&store, "a"), b"alpha");
        store.remove("a").unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.open("a").is_err());
    }

    #[test]
    fn guard_deletes_on_drop_unless_kept() {
        let store = Arc::new(MemRunStore::new());
        write_run(store.as_ref(), "dropme", b"x");
        write_run(store.as_ref(), "keepme", b"y");
        {
            let _g = RunGuard::new(store.clone() as Arc<dyn RunStore>, "dropme");
            let mut k = RunGuard::new(store.clone() as Arc<dyn RunStore>, "keepme");
            k.keep();
        }
        assert_eq!(store.names(), vec!["keepme".to_string()]);
    }

    #[test]
    fn guard_cleans_up_across_a_panic() {
        let store = Arc::new(MemRunStore::new());
        write_run(store.as_ref(), "leaky", b"z");
        let store2 = store.clone();
        let result = std::panic::catch_unwind(move || {
            let _g = RunGuard::new(store2 as Arc<dyn RunStore>, "leaky");
            panic!("mid-spill failure");
        });
        assert!(result.is_err());
        assert!(store.is_empty(), "panic must not leak run files");
    }

    #[test]
    fn throttled_store_paces_writes() {
        let store = Arc::new(MemRunStore::new());
        let bucket = TokenBucket::with_burst(1_000_000.0, 32.0 * 1024.0);
        let throttled = ThrottledSource::with_bucket(store.clone(), bucket);
        let t0 = Instant::now();
        // 150KB at 1MB/s minus the 32KiB burst: >= ~0.11s.
        write_run(&throttled, "slow", &vec![7u8; 150_000]);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.10, "throttled write took {dt}s");
        assert_eq!(read_run(&throttled, "slow").len(), 150_000);
    }

    #[test]
    fn observed_store_feeds_both_directions() {
        let store = Arc::new(MemRunStore::new());
        let (meter, counter) = metered();
        let observed = ObservedSource::new(store, meter);
        write_run(&observed, "m", &vec![1u8; 4096]);
        assert_eq!(counter("bytes_written"), 4096);
        assert!(counter("write_calls") >= 1);
        let back = read_run(&observed, "m");
        assert_eq!(back.len(), 4096);
        assert_eq!(counter("bytes_read"), 4096);
    }

    #[test]
    fn faulty_store_fails_reads_past_the_threshold() {
        let store = Arc::new(MemRunStore::new());
        write_run(store.as_ref(), "r", &vec![2u8; 8192]);
        let faulty = FaultySource::new(store, Fault::reads_after(1024, io::ErrorKind::BrokenPipe));
        let mut rd = faulty.open("r").unwrap();
        let mut buf = vec![0u8; 512];
        rd.read_exact(&mut buf).unwrap();
        let err = loop {
            if let Err(e) = rd.read_exact(&mut buf) {
                break e;
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn faulty_store_fails_writes_past_the_threshold() {
        let store = Arc::new(MemRunStore::new());
        let faulty =
            FaultySource::new(store, Fault::writes_after(1024, io::ErrorKind::StorageFull));
        let mut w = faulty.create("w").unwrap();
        w.write_all(&vec![3u8; 512]).unwrap();
        let err = w.write_all(&vec![3u8; 1024]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn disk_store_survives_concurrent_runs() {
        let (store, dir) = temp_store("concurrent");
        let store = Arc::new(store);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = store.clone();
                std::thread::spawn(move || {
                    let name = format!("t{i}.dat");
                    write_run(s.as_ref(), &name, &vec![i as u8; 10_000]);
                    read_run(s.as_ref(), &name)
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), vec![i as u8; 10_000]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
