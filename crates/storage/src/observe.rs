//! Storage-side observability: the metering device.
//!
//! The runtime's tracer sees the pipeline's view of ingest (chunk spans,
//! stalls); [`IngestMeter`] sees the storage layer's view — how many
//! bytes crossed the source, file-set and run-store boundary, in how
//! many calls, and how long those took inside the storage layer.
//! Comparing the two separates "the disk was slow" from "the pipeline
//! did not ask" when diagnosing an ingest-bound run.
//!
//! The meter is a [`Device`] that writes the `supmr.storage.*` families
//! of a [`Registry`] and nothing else: wrap any source, file set or run
//! store in an [`ObservedSource`] and scrape or snapshot the registry,
//! from another thread while the job runs if need be. The job's flow
//! ledger is the runtime's to write, so metering a job's storage does
//! not change its diagnosis.

use crate::shape::{Device, Shaped, Transfer};
use std::time::Duration;
use supmr_metrics::{Counter, Histogram, Registry};

/// Storage-level counters for every source, file set and run store it
/// wraps: the `supmr.storage.bytes_read` / `read_calls` / `read_us`
/// families for reads and their `bytes_written` / `write_calls` /
/// `write_us` counterparts for run writes. Cloning is cheap and every
/// clone feeds the same families.
#[derive(Debug, Clone)]
pub struct IngestMeter {
    bytes: Counter,
    reads: Counter,
    read_us: Histogram,
    bytes_written: Counter,
    writes: Counter,
    write_us: Histogram,
}

impl IngestMeter {
    /// A meter that maintains the `supmr.storage.*` families of
    /// `registry`.
    pub fn with_registry(registry: &Registry) -> IngestMeter {
        IngestMeter {
            bytes: registry.counter(
                "supmr.storage.bytes_read",
                "Bytes delivered across the storage boundary.",
                &[],
            ),
            reads: registry.counter(
                "supmr.storage.read_calls",
                "Read calls against wrapped sources (a shared view counts once).",
                &[],
            ),
            read_us: registry.histogram(
                "supmr.storage.read_us",
                "Latency inside wrapped sources' reads, microseconds.",
                &[],
            ),
            bytes_written: registry.counter(
                "supmr.storage.bytes_written",
                "Bytes pushed across the storage boundary (spill runs).",
                &[],
            ),
            writes: registry.counter(
                "supmr.storage.write_calls",
                "Write calls against wrapped sinks.",
                &[],
            ),
            write_us: registry.histogram(
                "supmr.storage.write_us",
                "Latency inside wrapped sinks' writes, microseconds.",
                &[],
            ),
        }
    }
}

impl Device for IngestMeter {
    fn after(&self, transfer: Transfer, bytes: u64, elapsed: Duration) {
        let (bytes_moved, calls, us) = match transfer {
            Transfer::StreamWrite(_) => (&self.bytes_written, &self.writes, &self.write_us),
            _ => (&self.bytes, &self.reads, &self.read_us),
        };
        bytes_moved.add(bytes);
        calls.inc();
        us.record_duration_us(elapsed);
    }

    /// A view passes, counted once as one read of its length.
    fn passes_views(&self) -> bool {
        true
    }

    fn describe(&self, inner: String) -> String {
        format!("observed {inner}")
    }
}

/// A source, file set or run store metered through an [`IngestMeter`]:
/// reads feed its read families, run writes its write families.
pub type ObservedSource<T> = Shaped<T, IngestMeter>;

impl<T> ObservedSource<T> {
    /// Wrap `inner`, reporting into `meter`'s registry.
    pub fn new(inner: T, meter: IngestMeter) -> Self {
        Shaped { inner, device: meter }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::source::{DataSource, FileSet, MemFileSet, MemSource, SourceExt};
    use crate::throttle::ThrottledSource;

    /// A meter on a fresh registry, and a reader of its
    /// `supmr.storage.<name>` counters.
    pub(crate) fn metered() -> (IngestMeter, impl Fn(&str) -> u64) {
        let registry = Registry::new();
        let meter = IngestMeter::with_registry(&registry);
        (meter, move |name| registry.counter(&format!("supmr.storage.{name}"), "", &[]).value())
    }

    #[test]
    fn meter_counts_bytes_reads_and_time() {
        let registry = Registry::new();
        let meter = IngestMeter::with_registry(&registry);
        let mut src = ObservedSource::new(MemSource::from(vec![7u8; 1000]), meter);
        let mut buf = [0u8; 256];
        let n = src.read_at(0, &mut buf).unwrap();
        assert_eq!(n, 256);
        src.read_at(256, &mut buf).unwrap();
        assert_eq!(registry.counter("supmr.storage.bytes_read", "", &[]).value(), 512);
        assert_eq!(registry.counter("supmr.storage.read_calls", "", &[]).value(), 2);
        let read_us = registry.histogram("supmr.storage.read_us", "", &[]);
        assert_eq!(read_us.count(), 2, "one latency sample per read");
    }

    #[test]
    fn shared_view_counts_whole_source_once() {
        let (meter, counter) = metered();
        let mut src = ObservedSource::new(MemSource::from(vec![1u8; 300]), meter);
        let view = src.shared().expect("mem source is shared");
        assert_eq!(view.len(), 300);
        assert_eq!(counter("bytes_read"), 300);
        assert_eq!(counter("read_calls"), 1);
    }

    #[test]
    fn read_all_accounts_every_byte() {
        let (meter, counter) = metered();
        let mut src = ObservedSource::new(MemSource::from(vec![2u8; 4096]), meter);
        let data = src.read_all().unwrap();
        assert_eq!(data.len(), 4096);
        assert_eq!(counter("bytes_read"), 4096);
        assert_eq!(src.len(), 4096);
    }

    #[test]
    fn throttled_reads_show_up_as_time_reading() {
        let registry = Registry::new();
        let meter = IngestMeter::with_registry(&registry);
        // 1 MiB at 16 MiB/s with a small burst: reads must take real time.
        let inner = ThrottledSource::new(MemSource::from(vec![3u8; 1 << 20]), 16.0 * 1048576.0);
        let mut src = ObservedSource::new(inner, meter);
        src.read_all().unwrap();
        assert_eq!(registry.counter("supmr.storage.bytes_read", "", &[]).value(), 1 << 20);
        let read_us = registry.histogram("supmr.storage.read_us", "", &[]).snapshot();
        assert!(read_us.sum > 0, "pacing sleeps count as time reading: {read_us:?}");
    }

    #[test]
    fn throttled_source_does_not_expose_shared_view() {
        let (meter, counter) = metered();
        let inner = ThrottledSource::new(MemSource::from(vec![4u8; 64]), 1e9);
        let mut src = ObservedSource::new(inner, meter);
        assert!(src.shared().is_none(), "pacing wrappers must not be bypassed");
        assert_eq!(counter("bytes_read"), 0, "a refused view is not a read");
    }

    #[test]
    fn registry_backed_meter_feeds_storage_families() {
        let registry = Registry::new();
        let meter = IngestMeter::with_registry(&registry);
        let mut src = ObservedSource::new(MemSource::from(vec![9u8; 768]), meter);
        let mut buf = [0u8; 256];
        src.read_at(0, &mut buf).unwrap();
        src.read_at(256, &mut buf).unwrap();
        src.read_at(512, &mut buf).unwrap();
        let snap = registry.snapshot();
        let value = |name: &str| {
            snap.entries
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("{name} registered"))
                .value
                .clone()
        };
        assert_eq!(value("supmr.storage.bytes_read"), supmr_metrics::MetricValue::Counter(768));
        assert_eq!(value("supmr.storage.read_calls"), supmr_metrics::MetricValue::Counter(3));
        match value("supmr.storage.read_us") {
            supmr_metrics::MetricValue::Histogram(h) => assert_eq!(h.count, 3),
            other => panic!("read_us is a histogram, got {other:?}"),
        }
    }

    #[test]
    fn file_set_reads_are_metered() {
        let (meter, counter) = metered();
        let files = MemFileSet::new(vec![vec![0u8; 100], vec![0u8; 250]]);
        let mut set = ObservedSource::new(files, meter);
        assert_eq!(set.file_count(), 2);
        assert_eq!(set.total_len(), 350);
        set.read_file(0).unwrap();
        let view = set.shared_file(1).expect("mem file set is shared");
        assert_eq!(view.len(), 250);
        assert_eq!(counter("bytes_read"), 350);
        assert_eq!(counter("read_calls"), 2);
        assert!(set.describe().starts_with("observed "));
    }
}
