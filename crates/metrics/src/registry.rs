//! A dependency-free, lock-cheap live metrics registry.
//!
//! The paper's evaluation is post-hoc: Phoenix++ phase timers and
//! `collectl` dumps are read after the run finishes. This module gives the
//! runtime *live* counters instead, cheap enough to sit on the hot path:
//!
//! * [`Counter`] — a monotonically increasing sum, striped across
//!   cache-line-padded shards so concurrent map workers never contend on
//!   one atomic (the same per-thread-aggregate recipe in-node combiners
//!   use for cheap hot-path accounting).
//! * [`Gauge`] — a point-in-time level (queue depth, tasks in flight).
//!   Gauges move rarely relative to counters, so a single atomic suffices.
//!   [`Gauge::track`] returns an RAII [`GaugeGuard`] so a panicking task
//!   can never leave the level permanently skewed.
//! * [`Histogram`] — an HDR-style log-bucketed latency/size distribution:
//!   values below 32 are exact, larger values land in one of 32
//!   sub-buckets per power of two (≤ 1/32 ≈ 3.2% relative error). Bucket
//!   arrays are striped like counters and allocated when a stripe is
//!   first written; [`HistogramSnapshot`]s merge exactly (bucket-wise
//!   addition) and answer p50/p90/p99/max.
//!
//! Handles are registered in a [`Registry`] under dotted names with label
//! sets (`supmr.map.task_us{runtime="pipeline"}`) and are `Clone` +
//! `Send` + `Sync`: clones share the same underlying cells, so a handle
//! can be captured by worker closures while the registry renders live
//! snapshots from another thread ([`Registry::render_openmetrics`],
//! [`Registry::render_ascii`], [`Registry::snapshot`]).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Number of stripes for counters and histograms. A power of two so the
/// shard pick is a mask, sized to cover typical scale-up core counts
/// without bloating snapshot merges.
const SHARDS: usize = 8;

/// Sub-bucket resolution: 2^5 = 32 linear buckets per octave, giving a
/// worst-case relative quantile error of 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Log-bucketed octaves above the exact range. Values at or above
/// 2^(SUB_BITS + OCTAVES - 1) saturate into the top bucket; with 42
/// octaves that is ~2^46 (≈ 8 × 10^13), far beyond any microsecond
/// latency or byte count the runtime records.
const OCTAVES: usize = 42;
/// Total buckets: one exact "octave" (values 0..SUB) + OCTAVES log ones.
const BUCKETS: usize = (OCTAVES + 1) * SUB as usize;

/// One cache line per shard so concurrent writers do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread stripe index; consecutive threads take consecutive
    /// stripes so a pool of N workers spreads across min(N, SHARDS) cells.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

#[inline]
fn shard() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// A monotonically increasing counter striped across padded shards.
/// Cloning shares the same underlying cells.
#[derive(Clone, Default)]
pub struct Counter {
    cells: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    /// A standalone counter (not attached to any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A point-in-time level. Single atomic: gauges move at wave/queue
/// granularity, not per-record, so striping would buy nothing.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A standalone gauge (not attached to any registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge to an absolute level.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Move the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Raise the gauge by `n` and return an RAII guard that lowers it by
    /// the same amount on drop — including during unwinding, so a map
    /// task panic ([`SupmrError::TaskPanic`]-style) cannot leave queue
    /// depth or in-flight levels permanently skewed.
    ///
    /// [`SupmrError::TaskPanic`]: https://docs.rs/supmr
    #[must_use = "the gauge is lowered when the guard drops"]
    pub fn track(&self, n: i64) -> GaugeGuard {
        self.add(n);
        GaugeGuard { gauge: self.clone(), n }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// RAII handle from [`Gauge::track`]: lowers the gauge on drop.
#[derive(Debug)]
pub struct GaugeGuard {
    gauge: Gauge,
    n: i64,
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.gauge.add(-self.n);
    }
}

#[derive(Default)]
struct HistShard {
    /// Allocated by the first `record` into this shard: the array is
    /// 11 KB, a histogram has [`SHARDS`] of them, and most are only ever
    /// written from one or two threads. An absent array reads as zeros.
    buckets: OnceLock<Box<[AtomicU64; BUCKETS]>>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn buckets(&self) -> &[AtomicU64; BUCKETS] {
        self.buckets.get_or_init(|| {
            // [AtomicU64; BUCKETS] has no Default impl for this length,
            // so build from a zeroed Vec.
            let zeroed: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
            zeroed.into_boxed_slice().try_into().unwrap_or_else(|_| unreachable!())
        })
    }
}

/// Map a value to its log bucket. Values below `SUB` are exact; above,
/// the top `SUB_BITS` bits below the leading one select a sub-bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let o = 63 - v.leading_zeros(); // position of leading one, >= SUB_BITS
    let octave = (o - SUB_BITS + 1) as usize;
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    let shift = o - SUB_BITS;
    let sub = ((v >> shift) & (SUB - 1)) as usize;
    octave * SUB as usize + sub
}

/// Inclusive upper bound of bucket `i` (the value reported for any
/// quantile that lands in the bucket).
fn bucket_bound(i: usize) -> u64 {
    let octave = i / SUB as usize;
    let sub = (i % SUB as usize) as u64;
    if octave == 0 {
        return sub;
    }
    let shift = (octave - 1) as u32;
    ((SUB + sub + 1) << shift) - 1
}

/// An HDR-style log-bucketed histogram, striped like [`Counter`].
/// Cloning shares the same cells; [`Histogram::snapshot`] folds the
/// stripes into an immutable, mergeable [`HistogramSnapshot`].
#[derive(Clone, Default)]
pub struct Histogram {
    shards: Arc<[HistShard; SHARDS]>,
}

impl Histogram {
    /// A standalone histogram (not attached to any registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.shards[shard()];
        s.buckets()[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds — the unit every `*_us`
    /// family in the runtime uses.
    #[inline]
    pub fn record_duration_us(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total number of observations so far.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.count.load(Ordering::Relaxed)).sum()
    }

    /// Fold all stripes into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for s in self.shards.iter() {
            snap.count += s.count.load(Ordering::Relaxed);
            snap.sum += s.sum.load(Ordering::Relaxed);
            snap.max = snap.max.max(s.max.load(Ordering::Relaxed));
            for (i, b) in s.buckets.get().into_iter().flat_map(|b| b.iter()).enumerate() {
                let n = b.load(Ordering::Relaxed);
                if n > 0 {
                    snap.buckets[i] += n;
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).finish()
    }
}

/// An immutable point-in-time view of a [`Histogram`]. Snapshots merge
/// exactly — bucket-wise addition loses nothing — so per-run or per-node
/// distributions can be combined before computing quantiles.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Merge another snapshot into this one. Exact: total count and sum
    /// add, and every quantile of the merged distribution is answered
    /// with the same bucket resolution as the inputs.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket holding the ceil(q·count)-th observation, so the
    /// answer is ≥ the true quantile and within 1/32 relative error of
    /// it. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report past the observed maximum (the top bucket
                // of a distribution usually extends beyond it).
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of all observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending bound order — the raw material for exposition formats.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (bucket_bound(i), *n))
            .collect()
    }

    /// Cumulative counts at power-of-two boundaries `1, 2, 4, …` up to
    /// the first boundary covering `max` — a compact, fixed-meaning
    /// bucket set for OpenMetrics exposition. Counts are nondecreasing
    /// and the last entry equals [`HistogramSnapshot::count`] minus any
    /// observations above the final boundary (the `+Inf` bucket closes
    /// the series at `count`).
    pub fn cumulative_pow2(&self) -> Vec<(u64, u64)> {
        let mut bounds: Vec<u64> = Vec::new();
        let mut b = 1u64;
        loop {
            bounds.push(b);
            if b >= self.max || b > (1u64 << 62) {
                break;
            }
            b <<= 1;
        }
        let mut out = Vec::with_capacity(bounds.len());
        let mut cum = 0u64;
        let mut bi = 0usize;
        for bound in bounds {
            while bi < BUCKETS && bucket_bound(bi) <= bound {
                cum += self.buckets[bi];
                bi += 1;
            }
            out.push((bound, cum));
        }
        out
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing sum.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The OpenMetrics type keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A named collection of metric families. Cheap to clone (shared
/// internally); registration takes a short lock, but the returned
/// handles touch only their own atomics afterwards.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Family>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
    ) -> Metric {
        let mut families = self.inner.lock();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(f.kind == kind, "metric {name:?} registered as {:?} and {kind:?}", f.kind);
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = family.series.iter().find(|s| {
            s.labels.len() == labels.len()
                && s.labels.iter().zip(labels).all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        }) {
            return s.metric.clone();
        }
        let metric = match kind {
            MetricKind::Counter => Metric::Counter(Counter::new()),
            MetricKind::Gauge => Metric::Gauge(Gauge::new()),
            MetricKind::Histogram => Metric::Histogram(Histogram::new()),
        };
        family.series.push(Series {
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// Get or create the counter `name{labels}`. Repeated calls with the
    /// same name and labels return handles to the same cells.
    ///
    /// # Panics
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_register(name, help, labels, MetricKind::Counter) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create the gauge `name{labels}`.
    ///
    /// # Panics
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_register(name, help, labels, MetricKind::Gauge) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create the histogram `name{labels}`.
    ///
    /// # Panics
    /// Panics if `name` is already registered with a different kind.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_register(name, help, labels, MetricKind::Histogram) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// A consistent point-in-time view of every registered series, in
    /// registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.inner.lock();
        let mut entries = Vec::new();
        for f in families.iter() {
            for s in &f.series {
                entries.push(MetricEntry {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    labels: s.labels.clone(),
                    value: match &s.metric {
                        Metric::Counter(c) => MetricValue::Counter(c.value()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                });
            }
        }
        MetricsSnapshot { entries }
    }

    /// Render the registry in OpenMetrics text exposition format (see
    /// [`crate::openmetrics`]).
    pub fn render_openmetrics(&self) -> String {
        crate::openmetrics::render(&self.snapshot())
    }

    /// Render a human-oriented aligned snapshot table — the in-run
    /// periodic reporter behind `supmr --metrics-interval`.
    pub fn render_ascii(&self) -> String {
        self.snapshot().render_ascii()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.inner.lock();
        f.debug_struct("Registry").field("families", &families.len()).finish()
    }
}

/// One series in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// Dotted family name, e.g. `supmr.map.task_us`.
    pub name: String,
    /// Family help text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Label set, in registration order.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: MetricValue,
}

/// A snapshot of one metric's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// A consistent view of every series in a [`Registry`], detached from
/// the live cells. Produced by [`Registry::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All series, families in registration order.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Serialize for the `supmr.job_report.v1` `metrics` section:
    /// an array of `{name, kind, labels, value | {count, sum, mean, p50,
    /// p90, p99, max}}` objects in registration order.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::Arr(
            self.entries
                .iter()
                .map(|e| {
                    let labels = Json::Obj(
                        e.labels.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect(),
                    );
                    let value = match &e.value {
                        MetricValue::Counter(v) => Json::from(*v),
                        MetricValue::Gauge(v) => Json::Num(*v as f64),
                        MetricValue::Histogram(h) => Json::obj(vec![
                            ("count", Json::from(h.count)),
                            ("sum", Json::from(h.sum)),
                            ("mean", Json::Num(h.mean())),
                            ("p50", Json::from(h.p50())),
                            ("p90", Json::from(h.p90())),
                            ("p99", Json::from(h.p99())),
                            ("max", Json::from(h.max)),
                        ]),
                    };
                    Json::obj(vec![
                        ("name", Json::str(e.name.clone())),
                        ("kind", Json::str(e.kind.as_str())),
                        ("labels", labels),
                        ("value", value),
                    ])
                })
                .collect(),
        )
    }

    /// Aligned terminal table: one row per series, histograms shown as
    /// `count/mean/p50/p99/max`.
    pub fn render_ascii(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for e in &self.entries {
            let mut name = e.name.clone();
            if !e.labels.is_empty() {
                name.push('{');
                for (i, (k, v)) in e.labels.iter().enumerate() {
                    if i > 0 {
                        name.push(',');
                    }
                    name.push_str(k);
                    name.push_str("=\"");
                    name.push_str(v);
                    name.push('"');
                }
                name.push('}');
            }
            let value = match &e.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Gauge(v) => format!("{v}"),
                MetricValue::Histogram(h) => format!(
                    "n={} mean={:.1} p50={} p90={} p99={} max={}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max
                ),
            };
            rows.push((name, value));
        }
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        let barrier = Arc::new(Barrier::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let b = Arc::clone(&barrier);
                s.spawn(move || {
                    b.wait();
                    for _ in 0..10_000 {
                        c.inc();
                    }
                    c.add(5);
                });
            }
        });
        assert_eq!(c.value(), 4 * 10_000 + 4 * 5);
    }

    #[test]
    fn gauge_guard_restores_on_drop_and_panic() {
        let g = Gauge::new();
        {
            let _guard = g.track(3);
            assert_eq!(g.value(), 3);
        }
        assert_eq!(g.value(), 0);

        let result = std::panic::catch_unwind(|| {
            let _guard = g.track(7);
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(g.value(), 0, "guard must unwind-restore the gauge");
    }

    #[test]
    fn bucket_index_and_bound_are_consistent() {
        for v in (0..100_000u64).step_by(7).chain([0, 1, 31, 32, 33, 1 << 20, u64::MAX]) {
            let i = bucket_index(v);
            let hi = bucket_bound(i);
            assert!(hi >= v || i == BUCKETS - 1, "bound {hi} < value {v} (bucket {i})");
            if i > 0 && i < BUCKETS - 1 {
                let lo = bucket_bound(i - 1) + 1;
                assert!(lo <= v, "bucket {i} lower bound {lo} > value {v}");
                // Relative width bound: ≤ 1/32 above the exact range.
                if v >= SUB {
                    assert!((hi - v) as f64 <= v as f64 / 16.0, "v={v} hi={hi}");
                }
            }
        }
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 1000 * 1001 / 2);
        assert_eq!(s.max, 1000);
        for (q, truth) in [(0.50, 500u64), (0.90, 900), (0.99, 990), (1.0, 1000)] {
            let est = s.quantile(q);
            assert!(est >= truth, "q={q} est={est} truth={truth}");
            assert!(est as f64 <= truth as f64 * (1.0 + 1.0 / 16.0) + 1.0, "q={q} est={est}");
        }
    }

    #[test]
    fn shards_allocate_on_first_record_and_absent_ones_read_as_zeros() {
        let h = Histogram::new();
        assert!(h.shards.iter().all(|s| s.buckets.get().is_none()), "nothing recorded yet");
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
        let (h, barrier) = (&h, &Barrier::new(4));
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                s.spawn(move || {
                    // First touches race each other and a snapshot.
                    barrier.wait();
                    for v in 0..1000 {
                        h.record(v * t);
                    }
                    assert!(h.snapshot().count >= 1000);
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.sum, (0..1000u64).sum::<u64>() * (1 + 2 + 3 + 4));
        assert_eq!(snap.max, 999 * 4);
        let touched = h.shards.iter().filter(|s| s.buckets.get().is_some()).count();
        assert!((1..=4).contains(&touched), "four threads write at most four shards: {touched}");
    }

    #[test]
    fn snapshots_merge_exactly() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            b.record(v * 7 + 1);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 1000);
        assert_eq!(m.sum, a.snapshot().sum + b.snapshot().sum);
        assert_eq!(m.max, b.snapshot().max.max(a.snapshot().max));
        // The merged distribution answers quantiles identically to a
        // single histogram fed both streams.
        let all = Histogram::new();
        for v in 0..500u64 {
            all.record(v * 3);
            all.record(v * 7 + 1);
        }
        let s = all.snapshot();
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(m.quantile(q), s.quantile(q), "q={q}");
        }
    }

    #[test]
    fn cumulative_pow2_is_monotone_and_closes_at_count() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 65_536, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative_pow2();
        assert!(!cum.is_empty());
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds must ascend");
            assert!(w[0].1 <= w[1].1, "cumulative counts must be monotone");
        }
        assert!(cum.last().unwrap().1 <= s.count);
    }

    #[test]
    fn registry_dedupes_series_and_keeps_order() {
        let r = Registry::new();
        let c1 = r.counter("supmr.a", "help a", &[("runtime", "pipeline")]);
        let c2 = r.counter("supmr.a", "ignored", &[("runtime", "pipeline")]);
        c1.add(2);
        c2.add(3);
        assert_eq!(c1.value(), 5, "same name+labels must share cells");
        let _other = r.counter("supmr.a", "", &[("runtime", "original")]);
        let g = r.gauge("supmr.b", "level", &[]);
        g.set(-4);
        let h = r.histogram("supmr.c", "dist", &[]);
        h.record(9);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["supmr.a", "supmr.a", "supmr.b", "supmr.c"]);
        match &snap.entries[2].value {
            MetricValue::Gauge(v) => assert_eq!(*v, -4),
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("supmr.x", "", &[]);
        let _ = r.gauge("supmr.x", "", &[]);
    }

    #[test]
    fn ascii_snapshot_lists_all_series() {
        let r = Registry::new();
        r.counter("supmr.bytes", "", &[("runtime", "pipeline")]).add(10);
        r.histogram("supmr.lat_us", "", &[]).record(100);
        let text = r.render_ascii();
        assert!(text.contains("supmr.bytes{runtime=\"pipeline\"}  10"), "got:\n{text}");
        assert!(text.contains("supmr.lat_us"), "got:\n{text}");
        assert!(text.contains("p99="), "got:\n{text}");
    }
}
