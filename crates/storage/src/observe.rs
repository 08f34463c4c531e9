//! Storage-side observability: the metering device.
//!
//! The runtime's tracer sees the pipeline's view of ingest (chunk spans,
//! stalls); [`IngestMeter`] sees the storage layer's view — how many
//! bytes crossed the source, file-set and run-store boundary, in how
//! many calls, and how long those took inside the storage layer.
//! Comparing the two separates "the disk was slow" from "the pipeline
//! did not ask" when diagnosing an ingest-bound run.
//!
//! The meter is a [`Device`]: wrap any source, file set or run store in
//! an [`ObservedSource`] and keep a clone of the meter; the counters are
//! shared atomics, so the meter can be polled from another thread while
//! the job runs.

use crate::shape::{Device, Shaped, Transfer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use supmr_metrics::{Counter, FlowLedger, FlowPhase, Histogram, Registry};

#[derive(Debug, Default)]
struct MeterInner {
    bytes: AtomicU64,
    reads: AtomicU64,
    read_nanos: AtomicU64,
    bytes_written: AtomicU64,
    writes: AtomicU64,
    write_nanos: AtomicU64,
}

/// Live registry handles a meter can additionally feed: the
/// `supmr.storage.*` families.
#[derive(Debug, Clone)]
struct MeterSink {
    bytes: Counter,
    reads: Counter,
    read_us: Histogram,
    bytes_written: Counter,
    writes: Counter,
    write_us: Histogram,
}

/// Shared read counters for one wrapped source. Cloning is cheap and
/// every clone observes the same totals.
///
/// A meter built with [`IngestMeter::with_registry`] additionally feeds
/// the `supmr.storage.bytes_read` / `supmr.storage.read_calls` counters
/// and the `supmr.storage.read_us` latency histogram of a live
/// [`Registry`], so scrapes see storage-level read behaviour while the
/// job runs.
#[derive(Debug, Clone, Default)]
pub struct IngestMeter {
    inner: Arc<MeterInner>,
    sink: Option<MeterSink>,
    flow: Option<FlowSink>,
}

/// Flow-ledger attribution for a meter: reads and writes feed two
/// (possibly different) phases of a shared [`FlowLedger`].
#[derive(Debug, Clone)]
struct FlowSink {
    ledger: Arc<FlowLedger>,
    read_phase: FlowPhase,
    write_phase: FlowPhase,
}

impl IngestMeter {
    /// A meter with all counters at zero.
    pub fn new() -> IngestMeter {
        IngestMeter::default()
    }

    /// A meter that also maintains the `supmr.storage.*` families of
    /// `registry` on every read.
    pub fn with_registry(registry: &Registry) -> IngestMeter {
        IngestMeter {
            inner: Arc::default(),
            sink: Some(MeterSink {
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
            }),
            flow: None,
        }
    }

    /// Additionally attribute this meter's reads to `read_phase` and
    /// its writes to `write_phase` of `ledger`. The phases are marked
    /// external on the ledger: this meter becomes their single
    /// recording owner, and the runtime-level recorder stands down
    /// (no double counting between layers).
    pub fn with_flow(
        mut self,
        ledger: Arc<FlowLedger>,
        read_phase: FlowPhase,
        write_phase: FlowPhase,
    ) -> IngestMeter {
        ledger.mark_external(read_phase);
        ledger.mark_external(write_phase);
        self.flow = Some(FlowSink { ledger, read_phase, write_phase });
        self
    }

    /// Total bytes delivered by the wrapped source (including zero-copy
    /// [`shared`](crate::DataSource::shared) views, counted once when
    /// taken).
    pub fn bytes_read(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Number of read calls (a shared view counts as one read).
    pub fn read_calls(&self) -> u64 {
        self.inner.reads.load(Ordering::Relaxed)
    }

    /// Wall time spent inside the wrapped source's reads. For a
    /// throttled source this includes the pacing sleeps, so it is the
    /// delivered-bandwidth denominator.
    pub fn time_reading(&self) -> Duration {
        Duration::from_nanos(self.inner.read_nanos.load(Ordering::Relaxed))
    }

    /// Observed delivery rate in bytes/sec, or 0.0 before any timed read.
    pub fn throughput_bytes_per_sec(&self) -> f64 {
        let secs = self.time_reading().as_secs_f64();
        if secs > 0.0 {
            self.bytes_read() as f64 / secs
        } else {
            0.0
        }
    }

    /// Total bytes pushed through wrapped sinks (spill run writes).
    pub fn bytes_written(&self) -> u64 {
        self.inner.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of write calls against wrapped sinks.
    pub fn write_calls(&self) -> u64 {
        self.inner.writes.load(Ordering::Relaxed)
    }

    /// Wall time spent inside wrapped sinks' writes (pacing included).
    pub fn time_writing(&self) -> Duration {
        Duration::from_nanos(self.inner.write_nanos.load(Ordering::Relaxed))
    }

    fn record(&self, bytes: u64, elapsed: Duration) {
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            sink.bytes.add(bytes);
            sink.reads.inc();
            sink.read_us.record_duration_us(elapsed);
        }
        if let Some(flow) = &self.flow {
            flow.ledger.record(flow.read_phase, bytes, elapsed);
        }
    }

    fn record_write(&self, bytes: u64, elapsed: Duration) {
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.inner.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            sink.bytes_written.add(bytes);
            sink.writes.inc();
            sink.write_us.record_duration_us(elapsed);
        }
        if let Some(flow) = &self.flow {
            flow.ledger.record(flow.write_phase, bytes, elapsed);
        }
    }
}

impl Device for IngestMeter {
    fn after(&self, transfer: Transfer, bytes: u64, elapsed: Duration) {
        match transfer {
            Transfer::StreamWrite(_) => self.record_write(bytes, elapsed),
            _ => self.record(bytes, elapsed),
        }
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
    /// Wrap `inner`, reporting into `meter` (keep a clone to poll it
    /// after the wrapper moves into a job).
    pub fn new(inner: T, meter: IngestMeter) -> Self {
        Shaped { inner, device: meter }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DataSource, FileSet, MemFileSet, MemSource, SourceExt};
    use crate::throttle::ThrottledSource;

    #[test]
    fn meter_counts_bytes_reads_and_time() {
        let meter = IngestMeter::new();
        let mut src = ObservedSource::new(MemSource::from(vec![7u8; 1000]), meter.clone());
        let mut buf = [0u8; 256];
        let n = src.read_at(0, &mut buf).unwrap();
        assert_eq!(n, 256);
        src.read_at(256, &mut buf).unwrap();
        assert_eq!(meter.bytes_read(), 512);
        assert_eq!(meter.read_calls(), 2);
    }

    #[test]
    fn shared_view_counts_whole_source_once() {
        let meter = IngestMeter::new();
        let mut src = ObservedSource::new(MemSource::from(vec![1u8; 300]), meter.clone());
        let view = src.shared().expect("mem source is shared");
        assert_eq!(view.len(), 300);
        assert_eq!(meter.bytes_read(), 300);
        assert_eq!(meter.read_calls(), 1);
    }

    #[test]
    fn read_all_accounts_every_byte() {
        let meter = IngestMeter::new();
        let mut src = ObservedSource::new(MemSource::from(vec![2u8; 4096]), meter.clone());
        let data = src.read_all().unwrap();
        assert_eq!(data.len(), 4096);
        assert_eq!(meter.bytes_read(), 4096);
        assert_eq!(src.len(), 4096);
    }

    #[test]
    fn throttled_reads_show_up_as_time_reading() {
        let meter = IngestMeter::new();
        // 1 MiB at 16 MiB/s with a small burst: reads must take real time.
        let inner = ThrottledSource::new(MemSource::from(vec![3u8; 1 << 20]), 16.0 * 1048576.0);
        let mut src = ObservedSource::new(inner, meter.clone());
        src.read_all().unwrap();
        assert_eq!(meter.bytes_read(), 1 << 20);
        assert!(meter.time_reading() > Duration::ZERO);
        let rate = meter.throughput_bytes_per_sec();
        assert!(rate > 0.0, "rate = {rate}");
    }

    #[test]
    fn throttled_source_does_not_expose_shared_view() {
        let meter = IngestMeter::new();
        let inner = ThrottledSource::new(MemSource::from(vec![4u8; 64]), 1e9);
        let mut src = ObservedSource::new(inner, meter.clone());
        assert!(src.shared().is_none(), "pacing wrappers must not be bypassed");
        assert_eq!(meter.bytes_read(), 0, "a refused view is not a read");
    }

    #[test]
    fn registry_backed_meter_feeds_storage_families() {
        let registry = Registry::new();
        let meter = IngestMeter::with_registry(&registry);
        let mut src = ObservedSource::new(MemSource::from(vec![9u8; 768]), meter.clone());
        let mut buf = [0u8; 256];
        src.read_at(0, &mut buf).unwrap();
        src.read_at(256, &mut buf).unwrap();
        src.read_at(512, &mut buf).unwrap();
        // The local meter and the registry families agree.
        assert_eq!(meter.bytes_read(), 768);
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
    fn flow_backed_meter_owns_its_phases() {
        let ledger = Arc::new(FlowLedger::new());
        let meter =
            IngestMeter::new().with_flow(Arc::clone(&ledger), FlowPhase::Ingest, FlowPhase::Spill);
        assert!(ledger.is_external(FlowPhase::Ingest), "meter claimed the read phase");
        assert!(ledger.is_external(FlowPhase::Spill), "meter claimed the write phase");
        let mut src = ObservedSource::new(MemSource::from(vec![5u8; 512]), meter.clone());
        src.read_all().unwrap();
        meter.record_write(128, Duration::from_micros(10));
        assert_eq!(ledger.bytes(FlowPhase::Ingest), 512, "reads feed the read phase");
        assert_eq!(ledger.bytes(FlowPhase::Spill), 128, "writes feed the write phase");
        // A runtime-level record against a claimed phase is a no-op.
        ledger.record_owned(FlowPhase::Ingest, 999, Duration::ZERO);
        assert_eq!(ledger.bytes(FlowPhase::Ingest), 512);
    }

    #[test]
    fn file_set_reads_are_metered() {
        let meter = IngestMeter::new();
        let files = MemFileSet::new(vec![vec![0u8; 100], vec![0u8; 250]]);
        let mut set = ObservedSource::new(files, meter.clone());
        assert_eq!(set.file_count(), 2);
        assert_eq!(set.total_len(), 350);
        set.read_file(0).unwrap();
        let view = set.shared_file(1).expect("mem file set is shared");
        assert_eq!(view.len(), 250);
        assert_eq!(meter.bytes_read(), 350);
        assert_eq!(meter.read_calls(), 2);
        assert!(set.describe().starts_with("observed "));
    }
}
