//! One wrapper for every storage concern.
//!
//! A simulated device acts on the bytes that cross the storage layer's
//! three interfaces — a [`DataSource`] range read, a [`FileSet`] file
//! read, a [`RunStore`] stream read or write — and on nothing else. It
//! paces them ([`TokenBucket`](crate::TokenBucket)), meters them
//! ([`IngestMeter`](crate::IngestMeter)) or fails them
//! ([`Fault`](crate::Fault)). Each of those is a [`Device`]: a hook
//! before a transfer, a hook after it, and whether a zero-copy view may
//! pass. [`Shaped`] is the one wrapper that puts a device in front of an
//! endpoint; it implements each interface once (plus [`Read`] and
//! [`Write`] for the streams a run store hands out).
//!
//! A zero-copy view skips the per-transfer hooks, so a device that
//! paces or fails reads refuses it and callers fall back to copies; a
//! device that lets one pass sees it once, as one read of its length.
//! Wrappers stack: in `ObservedSource<ThrottledSource<FileSource>>` the
//! meter's read time includes the pacing sleeps.

use crate::shared::SharedBytes;
use crate::source::{DataSource, FileSet};
use crate::spill::RunStore;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// One transfer across a [`Shaped`] endpoint, as its [`Device`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transfer {
    /// A [`DataSource`] read of `len` bytes starting at byte `offset`.
    Range {
        /// First byte asked for.
        offset: u64,
        /// Bytes asked for.
        len: u64,
    },
    /// A whole-file read of file `idx` of a [`FileSet`].
    File(usize),
    /// A stream read of up to this many bytes (a run read back).
    StreamRead(u64),
    /// A stream write of this many bytes (a run written).
    StreamWrite(u64),
}

/// How a simulated device treats the bytes crossing a [`Shaped`]
/// endpoint.
///
/// Clones share their state (a bucket's tokens, a meter's counters, a
/// fault's byte count), so every stream a run store hands out draws on
/// the same device.
pub trait Device: Clone + Send + Sync + 'static {
    /// Runs before `transfer` reaches the endpoint; an error fails the
    /// transfer without touching the endpoint.
    fn before(&self, transfer: Transfer) -> io::Result<()> {
        let _ = transfer;
        Ok(())
    }

    /// Runs after `transfer` moved `bytes`; `elapsed` covers the
    /// endpoint's work.
    fn after(&self, transfer: Transfer, bytes: u64, elapsed: Duration) {
        let _ = (transfer, bytes, elapsed);
    }

    /// Whether a zero-copy view may pass. `false` (the default) keeps
    /// every byte on the hooked copy path.
    fn passes_views(&self) -> bool {
        false
    }

    /// Describe the endpoint `inner` as seen through this device.
    fn describe(&self, inner: String) -> String;
}

/// An endpoint — a [`DataSource`], a [`FileSet`], a [`RunStore`] or one
/// of its streams — behind a [`Device`]. Named by concern:
/// [`ThrottledSource`](crate::ThrottledSource),
/// [`ObservedSource`](crate::ObservedSource) and
/// [`FaultySource`](crate::FaultySource) wrap any of the three.
#[derive(Debug)]
pub struct Shaped<T, D> {
    pub(crate) inner: T,
    pub(crate) device: D,
}

impl<T, D: Device> Shaped<T, D> {
    /// Run `op` on the endpoint as `transfer`, between the device's
    /// hooks; `moved` reads the byte count off its result.
    fn transfer<R>(
        &mut self,
        transfer: Transfer,
        op: impl FnOnce(&mut T) -> io::Result<R>,
        moved: impl FnOnce(&R) -> usize,
    ) -> io::Result<R> {
        let start = Instant::now();
        self.device.before(transfer)?;
        let out = op(&mut self.inner)?;
        self.device.after(transfer, moved(&out) as u64, start.elapsed());
        Ok(out)
    }

    /// Take a zero-copy view as `transfer` if the device lets one pass.
    fn view(
        &mut self,
        transfer: Transfer,
        take: impl FnOnce(&mut T) -> Option<SharedBytes>,
    ) -> Option<SharedBytes> {
        if !self.device.passes_views() {
            return None;
        }
        let start = Instant::now();
        let view = take(&mut self.inner)?;
        self.device.after(transfer, view.len() as u64, start.elapsed());
        Some(view)
    }

    fn stream<S>(&self, inner: S) -> Shaped<S, D> {
        Shaped { inner, device: self.device.clone() }
    }
}

impl<S: DataSource, D: Device> DataSource for Shaped<S, D> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let t = Transfer::Range { offset, len: buf.len() as u64 };
        self.transfer(t, |s| s.read_at(offset, buf), |&n| n)
    }

    fn shared(&mut self) -> Option<SharedBytes> {
        let t = Transfer::Range { offset: 0, len: self.inner.len() };
        self.view(t, S::shared)
    }

    fn describe(&self) -> String {
        self.device.describe(self.inner.describe())
    }
}

impl<F: FileSet, D: Device> FileSet for Shaped<F, D> {
    fn file_count(&self) -> usize {
        self.inner.file_count()
    }

    fn file_len(&self, idx: usize) -> u64 {
        self.inner.file_len(idx)
    }

    fn append_file(&mut self, idx: usize, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.transfer(Transfer::File(idx), |f| f.append_file(idx, buf), |&n| n)
    }

    fn shared_file(&mut self, idx: usize) -> Option<SharedBytes> {
        self.view(Transfer::File(idx), |f| f.shared_file(idx))
    }

    fn describe(&self) -> String {
        self.device.describe(self.inner.describe())
    }
}

impl<S: RunStore, D: Device> RunStore for Shaped<S, D> {
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.stream(self.inner.create(name)?)))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(self.stream(self.inner.open(name)?)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn describe(&self) -> String {
        self.device.describe(self.inner.describe())
    }
}

impl<R: Read, D: Device> Read for Shaped<R, D> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.transfer(Transfer::StreamRead(buf.len() as u64), |r| r.read(buf), |&n| n)
    }
}

impl<W: Write, D: Device> Write for Shaped<W, D> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.transfer(Transfer::StreamWrite(buf.len() as u64), |w| w.write(buf), |&n| n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    //! One matrix: each device drives a source, a file set and a run
    //! store (write, then read) through the one wrapper.
    use super::*;
    use crate::observe::tests::metered;
    use crate::{
        Fault, FaultySource, MemFileSet, MemRunStore, MemSource, ObservedSource, SourceExt,
        ThrottledSource, TokenBucket,
    };

    const N: usize = 32 * 1024;
    const RATE: f64 = 1_000_000.0;
    const BURST: f64 = 4096.0;

    fn data() -> Vec<u8> {
        (0..N).map(|i| (i * 7 % 251) as u8).collect()
    }

    fn files() -> MemFileSet {
        let d = data();
        MemFileSet::new(vec![d[..N / 2].to_vec(), d[N / 2..].to_vec()])
    }

    fn read_files(set: &mut impl FileSet) -> io::Result<Vec<u8>> {
        Ok([set.read_file(0)?, set.read_file(1)?].concat())
    }

    fn write_run(store: &impl RunStore, bytes: &[u8]) -> io::Result<()> {
        let mut w = store.create("r")?;
        w.write_all(bytes)?;
        w.flush()
    }

    fn read_run(store: &impl RunStore) -> io::Result<Vec<u8>> {
        let mut back = Vec::new();
        store.open("r")?.read_to_end(&mut back)?;
        Ok(back)
    }

    /// Run `op`, returning its result and how long it took.
    fn timed<R>(op: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let out = op();
        (out, start.elapsed())
    }

    #[test]
    fn the_bucket_paces_every_interface_and_refuses_views() {
        let bucket = || TokenBucket::with_burst(RATE, BURST);
        let floor = Duration::from_secs_f64((N as f64 - BURST) / RATE);

        let mut src = ThrottledSource::with_bucket(MemSource::from(data()), bucket());
        assert!(src.shared().is_none(), "a view would skip the pacing");
        let (bytes, took) = timed(|| src.read_all().unwrap());
        assert_eq!(bytes, data());
        assert!(took >= floor, "source read took {took:?} < {floor:?}");

        let mut set = ThrottledSource::with_bucket(files(), bucket());
        assert!(set.shared_file(0).is_none(), "a view would skip the pacing");
        let (bytes, took) = timed(|| read_files(&mut set).unwrap());
        assert_eq!(bytes, data());
        assert!(took >= floor, "file-set read took {took:?} < {floor:?}");

        let store = ThrottledSource::with_bucket(MemRunStore::new(), bucket());
        let ((), took) = timed(|| write_run(&store, &data()).unwrap());
        assert!(took >= floor, "run write took {took:?} < {floor:?}");
        let (bytes, took) = timed(|| read_run(&store).unwrap());
        assert_eq!(bytes, data());
        assert!(took >= floor, "run read took {took:?} < {floor:?}");
    }

    #[test]
    fn the_meter_counts_every_interface_and_passes_views() {
        let (meter, counter) = metered();
        let mut src = ObservedSource::new(MemSource::from(data()), meter);
        assert_eq!(src.read_all().unwrap(), data());
        assert_eq!(counter("bytes_read"), N as u64);
        let calls = counter("read_calls");
        assert_eq!(src.shared().expect("the meter passes a view").as_ref(), &data()[..]);
        assert_eq!(counter("bytes_read"), 2 * N as u64, "a view counts its length");
        assert_eq!(counter("read_calls"), calls + 1, "a view counts as one read");

        let (meter, counter) = metered();
        let mut set = ObservedSource::new(files(), meter);
        assert_eq!(read_files(&mut set).unwrap(), data());
        assert_eq!((counter("bytes_read"), counter("read_calls")), (N as u64, 2));
        assert_eq!(set.shared_file(1).expect("the meter passes a view").len(), N / 2);
        assert_eq!((counter("bytes_read"), counter("read_calls")), (3 * N as u64 / 2, 3));

        let (meter, counter) = metered();
        let store = ObservedSource::new(MemRunStore::new(), meter);
        write_run(&store, &data()).unwrap();
        assert_eq!((counter("bytes_written"), counter("bytes_read")), (N as u64, 0));
        assert_eq!(read_run(&store).unwrap(), data());
        assert_eq!((counter("bytes_written"), counter("bytes_read")), (N as u64, N as u64));
    }

    #[test]
    fn faults_fire_at_their_rule_on_every_interface_and_refuse_views() {
        let kind = io::ErrorKind::BrokenPipe;
        let half = N / 2;

        let mut src = FaultySource::new(MemSource::from(data()), Fault::at_byte(half as u64, kind));
        assert!(src.shared().is_none(), "a view would skip the fault");
        assert_eq!(src.read_range(0, half).unwrap(), data()[..half]);
        assert_eq!(src.read_range(half as u64 - 1, 2).unwrap_err().kind(), kind);
        assert_eq!(src.read_range(half as u64, 1).unwrap_err().kind(), kind);

        let mut set = FaultySource::new(files(), Fault::file(1, kind));
        assert!(set.shared_file(0).is_none(), "a view would skip the fault");
        assert_eq!(set.read_file(0).unwrap(), data()[..half]);
        assert_eq!(set.read_file(1).unwrap_err().kind(), kind);
        assert_eq!(set.read_file(1).unwrap_err().kind(), kind, "every read of the file fails");

        let store = FaultySource::new(MemRunStore::new(), Fault::writes_after(half as u64, kind));
        let mut w = store.create("r").unwrap();
        w.write_all(&data()[..half]).unwrap();
        assert_eq!(w.write_all(&data()[half..half + 1]).unwrap_err().kind(), kind);

        let store = FaultySource::new(MemRunStore::new(), Fault::reads_after(half as u64, kind));
        write_run(&store, &data()).unwrap();
        let mut r = store.open("r").unwrap();
        let mut buf = vec![0u8; half];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf, data()[..half]);
        assert_eq!(r.read_exact(&mut buf[..1]).unwrap_err().kind(), kind);
        let mut again = store.open("r").unwrap();
        assert_eq!(again.read(&mut buf[..1]).unwrap_err().kind(), kind, "the count spans streams");
    }
}
