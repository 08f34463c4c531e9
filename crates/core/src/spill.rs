//! Out-of-core execution: the memory-budgeted spill pipeline.
//!
//! The paper's runtime assumes the intermediate set fits in RAM (a 384GB
//! box). A library adopted for "large batch computations" cannot: when
//! [`JobConfig::memory_budget`](crate::runtime::JobConfig::memory_budget)
//! is set, the runtime meters the intermediate container with a
//! [`MemoryAccountant`] and, under pressure, drains its hottest regions
//! into sorted, partition-tagged run files on disk (the Salzberg
//! external-sort discipline `supmr-merge` already implements). The
//! reduce phase then switches to a streaming external p-way merge of
//! each partition's spilled runs plus its in-memory remainder — one
//! pass, no run read twice.
//!
//! Division of labor:
//!
//! * [`MemoryAccountant`] — a lock-free byte ledger with high/low
//!   watermarks. Containers charge it as pairs land and ask "am I over?"
//!   with one relaxed atomic read.
//! * [`PairCodec`] — how an application's `(key, accumulator)` pairs
//!   cross the byte boundary ([`MapReduce::spill_codec`]). Plain
//!   function pointers, so the codec is `Copy` and free to clone into
//!   every worker.
//! * [`SpillHooks`] — the wiring a container receives via
//!   [`Container::configure_spill`]: the accountant, the job's reduce
//!   partition count (so spilled runs carry final partition tags), and
//!   the sink that turns a drained batch into a run file.
//! * [`JobSpill`] — the job-level sink behind that hook: sorts each
//!   batch, encodes it frame by frame straight into [`RunWriter`]'s
//!   output block (the shared frame codec of `supmr-merge`) onto the
//!   configured
//!   [`RunStore`] (so `--throttle` pacing and [`IngestMeter`]
//!   observation apply to spill traffic), guards every run file with a
//!   [`RunGuard`], and parks I/O errors for the runtime to surface as
//!   typed [`SupmrError`]s — the sink itself never panics the map wave.
//!
//! [`MapReduce::spill_codec`]: crate::api::MapReduce::spill_codec
//! [`Container::configure_spill`]: crate::container::Container::configure_spill
//! [`IngestMeter`]: supmr_storage::IngestMeter
//! [`SupmrError`]: crate::error::SupmrError

use crate::runtime::probe::SpillProbe;
use parking_lot::Mutex;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use supmr_merge::{Order, RunReadError, RunReader, RunWriter, SortedRun, BLOCK_BYTES};
use supmr_metrics::{Counter, Gauge, Histogram, Registry};
use supmr_storage::{RunGuard, RunStore};

/// A lock-cheap byte ledger for the intermediate set.
///
/// `charge` and `release` are single relaxed atomic ops; the watermarks
/// turn the ledger into a hysteresis controller: containers start
/// spilling when residency exceeds the **high** watermark (80% of the
/// budget) and drain until they fall below the **low** watermark (50%),
/// so one borderline insert does not cause a storm of tiny runs.
#[derive(Debug)]
pub struct MemoryAccountant {
    /// Atomic so a multi-tenant host can re-partition a global budget
    /// across live jobs mid-run ([`MemoryAccountant::set_budget`]).
    budget: AtomicU64,
    /// Watermarks are atomic so the feedback governor can tighten them
    /// mid-job (a pre-emptive drain lowers `low` to flush deeper).
    high: AtomicU64,
    low: AtomicU64,
    resident: AtomicU64,
    /// Live mirror of `resident` (`supmr.spill.resident_bytes`).
    gauge: Option<Gauge>,
}

impl MemoryAccountant {
    /// A ledger over `budget` bytes (high = 80%, low = 50%).
    pub fn new(budget: u64) -> MemoryAccountant {
        MemoryAccountant {
            budget: AtomicU64::new(budget),
            high: AtomicU64::new((budget / 5 * 4).max(1)),
            low: AtomicU64::new((budget / 2).max(1)),
            resident: AtomicU64::new(0),
            gauge: None,
        }
    }

    /// Mirror residency into `gauge` on every charge/release.
    pub fn with_gauge(mut self, gauge: Gauge) -> MemoryAccountant {
        self.gauge = Some(gauge);
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Re-point the ledger at a new budget, recomputing both watermarks
    /// at their default ratios (high = 80%, low = 50%). The resident
    /// count is untouched: if the new budget is smaller than what is
    /// already charged, the next `charge` reports over-high and the
    /// container spills its way down — shrinking a tenant's share never
    /// fails the job, it just makes it spill.
    pub fn set_budget(&self, budget: u64) {
        self.budget.store(budget, Ordering::Relaxed);
        self.high.store((budget / 5 * 4).max(1), Ordering::Relaxed);
        self.low.store((budget / 2).max(1), Ordering::Relaxed);
    }

    /// The current high watermark (start spilling above this).
    pub fn high(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }

    /// The current low watermark (drain down to this).
    pub fn low(&self) -> u64 {
        self.low.load(Ordering::Relaxed)
    }

    /// Move the low watermark — the governor's pre-emptive-drain lever.
    /// Clamped to at least 1 and at most the high watermark so the
    /// hysteresis band never inverts.
    pub fn set_low(&self, low: u64) {
        self.low.store(low.clamp(1, self.high()), Ordering::Relaxed);
    }

    /// Record `bytes` landing in memory. Returns `true` when residency
    /// is now above the high watermark (the caller should spill).
    pub fn charge(&self, bytes: u64) -> bool {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(g) = &self.gauge {
            g.set(now.min(i64::MAX as u64) as i64);
        }
        now > self.high()
    }

    /// Record `bytes` leaving memory (spilled or dropped).
    pub fn release(&self, bytes: u64) {
        // Saturating: estimates can drift under concurrency, and a
        // ledger that wraps negative would spill forever.
        let mut now = self.resident.load(Ordering::Relaxed);
        loop {
            let next = now.saturating_sub(bytes);
            match self.resident.compare_exchange_weak(
                now,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if let Some(g) = &self.gauge {
                        g.set(next.min(i64::MAX as u64) as i64);
                    }
                    return;
                }
                Err(seen) => now = seen,
            }
        }
    }

    /// Bytes currently charged.
    pub fn resident(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Whether residency still exceeds the low watermark (keep
    /// spilling).
    pub fn over_low(&self) -> bool {
        self.resident() > self.low()
    }

    /// Whether residency exceeds the high watermark (start spilling).
    pub fn over_high(&self) -> bool {
        self.resident() > self.high()
    }
}

/// How one application's `(key, accumulator)` pairs cross the byte
/// boundary into run files and back.
///
/// Function pointers rather than a trait object: the codec is `Copy`,
/// has no state, and clones into every map worker and reduce task for
/// free.
pub struct PairCodec<K, A> {
    /// Append the encoding of one pair to `buf`. Append only: `buf` is
    /// the run block or hand-off segment being built, and the bytes
    /// already in it are earlier frames.
    pub encode: fn(&K, &A, &mut Vec<u8>),
    /// Decode one record; `None` marks an undecodable record (surfaced
    /// as [`SupmrError::Merge`](crate::error::SupmrError::Merge)).
    pub decode: fn(&[u8]) -> Option<(K, A)>,
    /// Approximate in-memory footprint of one pair, for the accountant.
    pub size_hint: fn(&K, &A) -> usize,
}

impl<K, A> Clone for PairCodec<K, A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, A> Copy for PairCodec<K, A> {}

impl<K, A> std::fmt::Debug for PairCodec<K, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairCodec").finish_non_exhaustive()
    }
}

/// Turn one drained batch into a sorted run file tagged with its
/// partition ([`SpillHooks::sink`]).
pub type SpillSink<K, A> = Arc<dyn Fn(usize, Vec<(K, A)>) + Send + Sync>;

/// The wiring a container receives when the job runs under a memory
/// budget ([`Container::configure_spill`]).
///
/// [`Container::configure_spill`]: crate::container::Container::configure_spill
pub struct SpillHooks<K, A> {
    /// The job's byte ledger. Charge as pairs land, release as they
    /// spill; a `true` from [`MemoryAccountant::charge`] means drain.
    pub accountant: Arc<MemoryAccountant>,
    /// The job's reduce partition count. Spilled batches must carry the
    /// index of the partition their keys will reduce in — the same one
    /// the container's `into_indexed_drains` gives the in-memory
    /// remainder of those keys. What a partition *is* is the
    /// container's choice, as long as no key is in two: the hash
    /// container's are hash-prefix shard ranges, the unlocked
    /// container's are key ranges between splitters it samples at its
    /// first spill (so its partitions, in index order, are also in key
    /// order).
    pub partitions: usize,
    /// The codec's footprint estimator, for charging the ledger.
    pub size_hint: fn(&K, &A) -> usize,
    /// Turn one drained batch into a sorted run file tagged with its
    /// partition. Never panics; I/O errors are parked on the job.
    pub sink: SpillSink<K, A>,
}

impl<K, A> Clone for SpillHooks<K, A> {
    fn clone(&self) -> Self {
        SpillHooks {
            accountant: Arc::clone(&self.accountant),
            partitions: self.partitions,
            size_hint: self.size_hint,
            sink: Arc::clone(&self.sink),
        }
    }
}

impl<K, A> std::fmt::Debug for SpillHooks<K, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillHooks")
            .field("budget", &self.accountant.budget())
            .field("partitions", &self.partitions)
            .finish_non_exhaustive()
    }
}

/// Handles into the `supmr.spill.*` metric families.
#[derive(Debug, Clone)]
pub struct SpillMetrics {
    /// `supmr.spill.runs` — run files written.
    pub runs: Counter,
    /// `supmr.spill.bytes` — framed bytes written into run files.
    pub bytes: Counter,
    /// `supmr.spill.drain_us` — per-run spill latency (sort + encode +
    /// write), microseconds.
    pub drain_us: Histogram,
    /// `supmr.spill.merge_us` — per-partition external merge latency,
    /// microseconds.
    pub merge_us: Histogram,
    /// `supmr.spill.budget_bytes` — the configured memory budget.
    pub budget_bytes: Gauge,
    /// `supmr.spill.resident_bytes` — bytes currently charged to the
    /// ledger.
    pub resident_bytes: Gauge,
}

impl SpillMetrics {
    /// Register (or re-attach to) the spill families in `registry`.
    pub fn register(registry: &Registry) -> Arc<SpillMetrics> {
        Arc::new(SpillMetrics {
            runs: registry.counter(
                "supmr.spill.runs",
                "Sorted run files spilled under memory pressure.",
                &[],
            ),
            bytes: registry.counter(
                "supmr.spill.bytes",
                "Framed bytes written into spill run files.",
                &[],
            ),
            drain_us: registry.histogram(
                "supmr.spill.drain_us",
                "Per-run spill latency (sort + encode + write), microseconds.",
                &[],
            ),
            merge_us: registry.histogram(
                "supmr.spill.merge_us",
                "Per-partition external merge latency, microseconds.",
                &[],
            ),
            budget_bytes: registry.gauge(
                "supmr.spill.budget_bytes",
                "Configured intermediate-memory budget, bytes.",
                &[],
            ),
            resident_bytes: registry.gauge(
                "supmr.spill.resident_bytes",
                "Intermediate bytes currently charged to the memory ledger.",
                &[],
            ),
        })
    }
}

/// One spilled run: a sorted, checksummed record file on the store,
/// deleted by its guard when the merge is done with it.
#[allow(dead_code)] // `guard` acts through Drop; counts are inventory metadata
pub(crate) struct SpilledRun {
    /// Reduce partition whose keys this run holds.
    pub partition: usize,
    /// Name under the job's [`RunStore`].
    pub name: String,
    /// Records in the run.
    pub records: u64,
    /// Framed bytes in the run.
    pub bytes: u64,
    /// Deletes the run file on drop.
    pub guard: RunGuard,
}

/// Per-job spill state: the sink behind [`SpillHooks::sink`] plus the
/// run inventory the reduce phase merges.
pub struct JobSpill<K, A> {
    accountant: Arc<MemoryAccountant>,
    codec: PairCodec<K, A>,
    store: Arc<dyn RunStore>,
    runs: Mutex<Vec<SpilledRun>>,
    /// First I/O error hit while writing a run; surfaced by the runtime
    /// as [`SupmrError::Ingest`](crate::error::SupmrError::Ingest) at
    /// the next phase boundary.
    error: Mutex<Option<io::Error>>,
    seq: AtomicU64,
    runs_total: AtomicU64,
    bytes_total: AtomicU64,
    /// A temp directory the runtime created for this job, removed (if
    /// empty) when the spill state drops.
    cleanup_dir: Option<PathBuf>,
    /// Run-name prefix — pipeline stages sharing one explicit store
    /// prefix their runs with the stage index so names never collide.
    run_prefix: String,
    /// Where each run write is reported: its span, the `supmr.spill.*`
    /// families, the spill phase of the job's bandwidth ledger.
    probe: SpillProbe,
}

impl<K, A> JobSpill<K, A>
where
    K: Ord + Send + Sync + 'static,
    A: Send + Sync + 'static,
{
    /// Assemble the job's spill state.
    pub(crate) fn new(
        accountant: Arc<MemoryAccountant>,
        codec: PairCodec<K, A>,
        store: Arc<dyn RunStore>,
        cleanup_dir: Option<PathBuf>,
        run_prefix: String,
        probe: SpillProbe,
    ) -> JobSpill<K, A> {
        JobSpill {
            accountant,
            codec,
            store,
            runs: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            seq: AtomicU64::new(0),
            runs_total: AtomicU64::new(0),
            bytes_total: AtomicU64::new(0),
            cleanup_dir,
            run_prefix,
            probe,
        }
    }

    /// The job's byte ledger.
    pub fn accountant(&self) -> &Arc<MemoryAccountant> {
        &self.accountant
    }

    /// The codec pairs cross the byte boundary with.
    pub(crate) fn codec(&self) -> PairCodec<K, A> {
        self.codec
    }

    /// The store runs live on.
    pub(crate) fn store(&self) -> Arc<dyn RunStore> {
        Arc::clone(&self.store)
    }

    /// Runs written so far.
    pub fn runs_written(&self) -> u64 {
        self.runs_total.load(Ordering::Relaxed)
    }

    /// Framed bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_total.load(Ordering::Relaxed)
    }

    /// Sink one drained batch as a run tagged `partition`, sorted
    /// under `order` (by key, the job's
    /// [`MapReduce::key_prefix`](crate::api::MapReduce::key_prefix)
    /// first).
    ///
    /// Called from map workers mid-wave (via [`SpillHooks::sink`]), so
    /// it must not panic: I/O failures are parked and the batch is
    /// dropped — the job fails with the parked error at the next phase
    /// boundary, exactly like an ingest fault.
    pub(crate) fn spill_partition(
        &self,
        partition: usize,
        pairs: Vec<(K, A)>,
        order: &impl Order<(K, A)>,
    ) {
        if pairs.is_empty() {
            return;
        }
        let run_id = self.seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}run-{partition:03}-{run_id:06}", self.run_prefix);
        let result = self.probe.spill_run(run_id, partition, || {
            let run = SortedRun::sort(pairs, order);
            let mut writer = RunWriter::from_writer(self.store.create(&name)?);
            for (k, a) in run.items() {
                writer.push_with(|block| (self.codec.encode)(k, a, block))?;
            }
            let (records, bytes) = (writer.records(), writer.bytes());
            writer.finish()?;
            Ok((records, bytes))
        });
        // The guard exists either way: on failure its drop removes the
        // partial file, on success it travels with the run inventory.
        let guard = RunGuard::new(Arc::clone(&self.store), &name);
        match result {
            Ok((records, bytes)) => {
                self.runs_total.fetch_add(1, Ordering::Relaxed);
                self.bytes_total.fetch_add(bytes, Ordering::Relaxed);
                self.runs.lock().push(SpilledRun { partition, name, records, bytes, guard });
            }
            Err(e) => {
                self.error.lock().get_or_insert(e);
            }
        }
    }

    /// Surface any parked run-write error.
    pub(crate) fn check(&self) -> io::Result<()> {
        match self.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Take the run inventory (the reduce phase consumes it once).
    pub(crate) fn take_runs(&self) -> Vec<SpilledRun> {
        std::mem::take(&mut *self.runs.lock())
    }
}

impl<K, A> Drop for JobSpill<K, A> {
    fn drop(&mut self) {
        if let Some(dir) = &self.cleanup_dir {
            // Guards have removed the run files by now; only an empty
            // directory is removed, and failure is not an error.
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Streams one spilled run back as decoded pairs.
///
/// Iterators cannot return `Result`, so read/decode failures park a
/// message in the shared `error` slot and end the stream; the merge
/// driver checks the slot after iteration (the same deferred-error
/// pattern as [`RunReader`] itself).
pub(crate) struct DecodedRun<K, A> {
    reader: RunReader<Box<dyn io::Read + Send>>,
    decode: fn(&[u8]) -> Option<(K, A)>,
    name: String,
    error: Arc<Mutex<Option<String>>>,
}

/// Read-back buffer for each of `open_runs` runs that one external
/// merge streams side by side: an equal share of the job's memory
/// `budget`, so the buffers of one merge never add up to more than the
/// budget the spill was honoring, within 8 KiB (below which a block is
/// not worth a `read` call) and [`BLOCK_BYTES`] (beyond which a larger
/// block buys nothing).
pub(crate) fn read_block_bytes(budget: u64, open_runs: usize) -> usize {
    let share = budget / open_runs.max(1) as u64;
    share.clamp(8 * 1024, BLOCK_BYTES as u64) as usize
}

impl<K, A> DecodedRun<K, A> {
    /// Open run `name`, reading it `block_bytes` at a time straight from
    /// the store's reader (the frame reader's block is the only buffer).
    pub(crate) fn open(
        store: &dyn RunStore,
        name: &str,
        decode: fn(&[u8]) -> Option<(K, A)>,
        error: Arc<Mutex<Option<String>>>,
        block_bytes: usize,
    ) -> io::Result<DecodedRun<K, A>> {
        let input = store.open(name)?;
        Ok(DecodedRun {
            reader: RunReader::with_block_bytes(input, block_bytes),
            decode,
            name: name.to_string(),
            error,
        })
    }

    fn park(&self, detail: String) {
        self.error.lock().get_or_insert(detail);
    }
}

impl<K, A> Iterator for DecodedRun<K, A> {
    type Item = (K, A);

    fn next(&mut self) -> Option<(K, A)> {
        match self.reader.next_record() {
            Some(record) => match (self.decode)(record) {
                Some(pair) => Some(pair),
                None => {
                    self.park(format!("undecodable record in spill run {}", self.name));
                    None
                }
            },
            None => {
                if let Some(e) = self.reader.take_error() {
                    let what = if matches!(e, RunReadError::Corrupt { .. }) {
                        "corrupt"
                    } else {
                        "unreadable"
                    };
                    self.park(format!("spill run {} {what}: {e}", self.name));
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::probe::StageProbe;
    use crate::runtime::JobConfig;
    use supmr_merge::ByKey;
    use supmr_metrics::Tracer;
    use supmr_storage::MemRunStore;

    /// An uninstrumented spill state over `store`.
    fn spill_onto(store: Arc<dyn RunStore>) -> JobSpill<u64, u64> {
        let probe = StageProbe::new(&JobConfig::default(), &Tracer::off()).spill_probe(None);
        JobSpill::new(
            Arc::new(MemoryAccountant::new(1024)),
            u64_codec(),
            store,
            None,
            String::new(),
            probe,
        )
    }

    fn u64_codec() -> PairCodec<u64, u64> {
        PairCodec {
            encode: |k, a, buf| {
                buf.extend_from_slice(&k.to_le_bytes());
                buf.extend_from_slice(&a.to_le_bytes());
            },
            decode: |rec| {
                if rec.len() != 16 {
                    return None;
                }
                let k = u64::from_le_bytes(rec[..8].try_into().unwrap());
                let a = u64::from_le_bytes(rec[8..].try_into().unwrap());
                Some((k, a))
            },
            size_hint: |_, _| 16,
        }
    }

    #[test]
    fn accountant_watermarks_hysteresis() {
        let a = MemoryAccountant::new(1000);
        assert!(!a.charge(700), "below high");
        assert!(a.charge(200), "900 > 800 high watermark");
        assert!(a.over_low());
        a.release(500);
        assert!(!a.over_low(), "400 < 500 low watermark");
        assert_eq!(a.resident(), 400);
        a.release(10_000);
        assert_eq!(a.resident(), 0, "release saturates at zero");
    }

    #[test]
    fn accountant_mirrors_a_gauge() {
        let g = Gauge::new();
        let a = MemoryAccountant::new(100).with_gauge(g.clone());
        a.charge(60);
        assert_eq!(g.value(), 60);
        a.release(25);
        assert_eq!(g.value(), 35);
    }

    #[test]
    fn spill_round_trips_sorted_runs() {
        let store = MemRunStore::new();
        let spill = spill_onto(Arc::new(store.clone()));
        spill.spill_partition(3, vec![(9, 1), (2, 2), (5, 3)], &ByKey(|k: &u64| k >> 2));
        assert_eq!(spill.runs_written(), 1);
        let runs = spill.take_runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].partition, 3);
        assert_eq!(runs[0].records, 3);
        let err = Arc::new(Mutex::new(None));
        let decoded: Vec<(u64, u64)> =
            DecodedRun::open(&store, &runs[0].name, u64_codec().decode, Arc::clone(&err), 64)
                .unwrap()
                .collect();
        assert_eq!(decoded, vec![(2, 2), (5, 3), (9, 1)], "run is key-sorted");
        assert!(err.lock().is_none());
        drop(runs);
        assert!(store.is_empty(), "guards delete runs on drop");
    }

    #[test]
    fn empty_batches_write_nothing() {
        let store = MemRunStore::new();
        let spill = spill_onto(Arc::new(store.clone()));
        spill.spill_partition(0, Vec::new(), &ByKey(|_: &u64| 0));
        assert_eq!(spill.runs_written(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn write_faults_are_parked_not_panicked() {
        use supmr_storage::FaultyRunStore;
        let inner = MemRunStore::new();
        let store = FaultyRunStore::fail_writes_after(
            Arc::new(inner.clone()),
            4,
            io::ErrorKind::StorageFull,
        );
        let spill = spill_onto(Arc::new(store));
        spill.spill_partition(0, vec![(1, 1), (2, 2)], &ByKey(|_: &u64| 0));
        assert_eq!(spill.runs_written(), 0);
        let err = spill.check().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(spill.check().is_ok(), "error surfaces once");
        assert!(spill.take_runs().is_empty());
        assert!(inner.is_empty(), "partial run removed by the failure guard");
    }

    #[test]
    fn decode_failures_park_a_message() {
        let store = MemRunStore::new();
        {
            let mut w = RunWriter::from_writer(store.create("bad").unwrap());
            w.push(b"not sixteen bytes long!").unwrap();
            w.finish().unwrap();
        }
        let err = Arc::new(Mutex::new(None));
        let decoded: Vec<(u64, u64)> =
            DecodedRun::open(&store, "bad", u64_codec().decode, Arc::clone(&err), 64)
                .unwrap()
                .collect();
        assert!(decoded.is_empty());
        let msg = err.lock().clone().expect("decode failure parked");
        assert!(msg.contains("undecodable"), "{msg}");
    }
}
