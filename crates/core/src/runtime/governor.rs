//! The feedback governor: closing the diag→config loop at runtime.
//!
//! PR 8's diagnosis layer names the saturated resource *after* (or
//! during) a run; this module acts on the verdict *while the job runs*.
//! A governor thread samples the live metrics registry every
//! [`GovernorConfig::interval`], classifies the snapshot through
//! [`supmr_metrics::BottleneckReport::from_inputs`] (via
//! [`GovernorSample`]), and actuates through [`ActiveConfig`] — a small
//! set of `Arc`-shared atomic knobs every layer of the runtime consults
//! on its hot path instead of the static [`JobConfig`](super::JobConfig)
//! values:
//!
//! | verdict / signal                 | actuation                                   |
//! |----------------------------------|---------------------------------------------|
//! | ingest-bound                     | shrink map wave width, deepen prefetch      |
//! | map-bound                        | restore map wave width toward its base      |
//! | shuffle-bound / absorb p99 rising| widen the absorb lock-sweep shard mask      |
//! | resident near the high watermark | pre-emptive spill drain + lower low mark    |
//! | reduce/merge-bound               | raise reduce parallelism up to the pool cap |
//!
//! Actuations are damped twice: a verdict must repeat for
//! [`GovernorConfig::hysteresis`] consecutive ticks before it acts, and
//! each knob then rests for [`GovernorConfig::cooldown_ticks`] ticks.
//! The one exception is memory pressure, which is urgent and bypasses
//! hysteresis (but still cools down).
//!
//! Every decision is emitted as an
//! [`EventKind::GovernorAction`] trace event, mirrored into the
//! `supmr.governor.*` metric families, and logged into the
//! [`GovernorReport`] (`supmr.governor.v1`) the job report carries.
//!
//! **Determinism invariant**: no knob changes *what* is computed — only
//! scheduling widths, buffer depths, lock-sweep order, and spill timing.
//! Key→partition placement ([`JobConfig::reduce_workers`](super::JobConfig::reduce_workers) as partition
//! count, the container's hash seed) is never touched mid-job, so any
//! action sequence yields byte-identical output (property-tested below).

use crate::pool::Width;
use crate::spill::MemoryAccountant;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use supmr_metrics::{
    unpoisoned, Bottleneck, Counter, EventKind, Gauge, GovernorSample, Json, Registry, Tracer,
};

/// Widest prefetch depth the governor may request (chunks buffered
/// ahead of the mappers in the N-buffered pipeline).
pub(crate) const PREFETCH_CAP: usize = 8;

/// Widest absorb lock-sweep rotation mask (the container has 64 lock
/// shards, so offsets cover `0..=63`).
const SHARD_MASK_CAP: u64 = 63;

/// Most actions retained in the report log; later actions are counted
/// as dropped instead of growing without bound.
const MAX_ACTIONS: usize = 256;

/// Feedback governor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Sampling period of the governor thread.
    pub interval: Duration,
    /// Consecutive identical verdicts required before actuating.
    pub hysteresis: u32,
    /// Quiet ticks a knob rests after being moved.
    pub cooldown_ticks: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig { interval: Duration::from_millis(50), hysteresis: 2, cooldown_ticks: 2 }
    }
}

/// One recorded governor decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionRecord {
    /// Microseconds since the job's knobs were created.
    pub t_us: u64,
    /// The verdict (or controller name) that motivated the change.
    pub verdict: &'static str,
    /// The knob that moved.
    pub knob: &'static str,
    /// Its new value.
    pub value: u64,
}

/// The runtime-shared dynamic knobs: what the static [`JobConfig`]
/// widths become once a governor may move them mid-job. Every accessor
/// is a relaxed atomic load, cheap enough for per-wave hot paths.
///
/// [`JobConfig`]: super::JobConfig
pub struct ActiveConfig {
    map_width: AtomicUsize,
    reduce_width: AtomicUsize,
    prefetch_depth: AtomicUsize,
    /// Absorb lock-sweep rotation window (0 = every absorb sweeps from
    /// shard 0, the static behaviour). Widening spreads concurrent
    /// absorbs' first lock acquisitions across the shard array. Never
    /// affects key→shard placement.
    shard_mask: AtomicU64,
    /// One-shot pre-emptive spill drain request, consumed by the next
    /// absorb that sees it.
    drain: AtomicBool,
    /// Multi-tenant fair-share ceiling on both wave widths (0 = no
    /// cap). The serve daemon's share ledger moves this as jobs come
    /// and go; the governor's own raises stay clamped underneath it,
    /// so per-job tuning actuates *within* the job's share. Pooled waves
    /// run under it live: their tasks follow it, and the width knobs,
    /// as they move.
    share_cap: AtomicUsize,
    /// Cooperative cancellation flag, polled before every map and
    /// reduce task and at round/phase boundaries.
    cancelled: AtomicBool,
    /// The job's byte ledger, attached once spill wiring exists — the
    /// governor's low-watermark lever.
    accountant: Mutex<Option<Arc<MemoryAccountant>>>,
    actions: Mutex<Vec<ActionRecord>>,
    dropped: AtomicU64,
    t0: Instant,
}

impl std::fmt::Debug for ActiveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveConfig")
            .field("map_width", &self.map_width())
            .field("reduce_width", &self.reduce_width())
            .field("prefetch_depth", &self.prefetch_depth())
            .field("shard_mask", &self.shard_mask())
            .finish()
    }
}

impl ActiveConfig {
    /// Knobs seeded from the static widths the job was configured with.
    pub fn new(map_width: usize, reduce_width: usize, prefetch_depth: usize) -> ActiveConfig {
        ActiveConfig {
            map_width: AtomicUsize::new(map_width.max(1)),
            reduce_width: AtomicUsize::new(reduce_width.max(1)),
            prefetch_depth: AtomicUsize::new(prefetch_depth.max(1)),
            shard_mask: AtomicU64::new(0),
            drain: AtomicBool::new(false),
            share_cap: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            accountant: Mutex::new(None),
            actions: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            t0: Instant::now(),
        }
    }

    /// Current effective map wave width, clamped under the share cap.
    pub fn map_width(&self) -> usize {
        self.live(&self.map_width).now()
    }

    /// Move the map wave width (clamped to at least 1).
    pub fn set_map_width(&self, w: usize) {
        self.map_width.store(w.max(1), Ordering::Relaxed);
    }

    /// Current effective reduce wave width, clamped under the share
    /// cap.
    pub fn reduce_width(&self) -> usize {
        self.live(&self.reduce_width).now()
    }

    /// Move the reduce wave width (clamped to at least 1). Partition
    /// *count* never moves — only how many run concurrently.
    pub fn set_reduce_width(&self, w: usize) {
        self.reduce_width.store(w.max(1), Ordering::Relaxed);
    }

    /// Current effective ingest prefetch depth.
    pub fn prefetch_depth(&self) -> usize {
        self.prefetch_depth.load(Ordering::Relaxed)
    }

    /// Move the prefetch depth (clamped to `1..=PREFETCH_CAP`).
    pub fn set_prefetch_depth(&self, d: usize) {
        self.prefetch_depth.store(d.clamp(1, PREFETCH_CAP), Ordering::Relaxed);
    }

    /// Current absorb lock-sweep rotation mask.
    pub fn shard_mask(&self) -> u64 {
        self.shard_mask.load(Ordering::Relaxed)
    }

    /// Move the sweep rotation mask (clamped to `0..=63`).
    pub fn set_shard_mask(&self, mask: u64) {
        self.shard_mask.store(mask.min(SHARD_MASK_CAP), Ordering::Relaxed);
    }

    /// `base` under the share cap, as it stands whenever it is read.
    fn live<'a>(&'a self, base: &'a AtomicUsize) -> Width<'a> {
        Width::Live { base, cap: &self.share_cap }
    }

    /// The map wave width a batch runs at: live under a share cap, so
    /// its tasks follow the cap and the map width as they move, and
    /// fixed at dispatch without one.
    pub(crate) fn map_batch_width(&self) -> Width<'_> {
        self.batch_width(&self.map_width)
    }

    /// [`map_batch_width`](ActiveConfig::map_batch_width) for reduce
    /// waves.
    pub(crate) fn reduce_batch_width(&self) -> Width<'_> {
        self.batch_width(&self.reduce_width)
    }

    fn batch_width<'a>(&'a self, base: &'a AtomicUsize) -> Width<'a> {
        match self.share_cap() {
            0 => Width::Fixed(base.load(Ordering::Relaxed)),
            _ => self.live(base),
        }
    }

    /// The current fair-share ceiling (0 = uncapped).
    pub fn share_cap(&self) -> usize {
        self.share_cap.load(Ordering::Relaxed)
    }

    /// Set the fair-share ceiling on both wave widths; 0 removes it.
    /// Running pooled waves follow it at their next task: a lowered cap
    /// retires threads, a raised one has more queued.
    pub fn set_share_cap(&self, cap: usize) {
        self.share_cap.store(cap, Ordering::Relaxed);
    }

    /// Ask the job to stop at its next cancellation point. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Request one pre-emptive spill drain from the container.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::Relaxed);
    }

    /// Consume a pending drain request (true at most once per request).
    pub fn take_drain(&self) -> bool {
        self.drain.swap(false, Ordering::Relaxed)
    }

    /// Attach the job's byte ledger so the governor can move its low
    /// watermark. Called by the spill wiring at job start.
    pub fn attach_accountant(&self, accountant: Arc<MemoryAccountant>) {
        *unpoisoned(self.accountant.lock()) = Some(accountant);
    }

    /// The attached byte ledger, if the job runs under a budget.
    pub fn accountant(&self) -> Option<Arc<MemoryAccountant>> {
        unpoisoned(self.accountant.lock()).clone()
    }

    /// Append a decision to the report log (bounded; overflow counts as
    /// dropped).
    pub fn record(&self, verdict: &'static str, knob: &'static str, value: u64) {
        let t_us = self.t0.elapsed().as_micros() as u64;
        let mut log = unpoisoned(self.actions.lock());
        if log.len() < MAX_ACTIONS {
            log.push(ActionRecord { t_us, verdict, knob, value });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take the recorded actions and the overflow count (report
    /// assembly).
    pub(crate) fn take_log(&self) -> (Vec<ActionRecord>, u64) {
        (
            std::mem::take(&mut *unpoisoned(self.actions.lock())),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

/// Record a decision everywhere it is observable: the trace stream and
/// the report log.
fn note_action(
    active: &ActiveConfig,
    tracer: &Tracer,
    verdict: &'static str,
    knob: &'static str,
    value: u64,
) {
    active.record(verdict, knob, value);
    tracer.emit(EventKind::GovernorAction { verdict, knob, value });
}

/// Static bounds the governor actuates within, derived from the job's
/// configured widths.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GovernorLimits {
    /// The configured map width — the restore target for map-bound.
    pub map_base: usize,
    /// Widest reduce parallelism (the pool size when persistent, the
    /// larger configured width otherwise).
    pub reduce_cap: usize,
}

/// Everything the job report keeps about a governor's run — rendered as
/// the `supmr.governor.v1` block.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorReport {
    /// Sampling period, milliseconds.
    pub interval_ms: u64,
    /// Sampling ticks taken.
    pub ticks: u64,
    /// Recorded decisions, in time order (bounded).
    pub actions: Vec<ActionRecord>,
    /// Decisions past the log bound.
    pub dropped_actions: u64,
    /// Tick counts per classifier verdict.
    pub verdicts: Vec<(String, u64)>,
    /// Final map wave width.
    pub final_map_width: usize,
    /// Final reduce wave width.
    pub final_reduce_width: usize,
    /// Final prefetch depth.
    pub final_prefetch_depth: usize,
    /// Final absorb sweep mask.
    pub final_shard_mask: u64,
}

impl GovernorReport {
    /// The report as a `supmr.governor.v1` JSON value.
    pub fn to_json(&self) -> Json {
        let actions = Json::Arr(
            self.actions
                .iter()
                .map(|a| {
                    Json::obj(vec![
                        ("t_us", Json::from(a.t_us)),
                        ("verdict", Json::str(a.verdict)),
                        ("knob", Json::str(a.knob)),
                        ("value", Json::from(a.value)),
                    ])
                })
                .collect(),
        );
        let verdicts =
            Json::obj(self.verdicts.iter().map(|(v, n)| (v.as_str(), Json::from(*n))).collect());
        let fin = Json::obj(vec![
            ("map_width", Json::from(self.final_map_width as u64)),
            ("reduce_width", Json::from(self.final_reduce_width as u64)),
            ("prefetch_depth", Json::from(self.final_prefetch_depth as u64)),
            ("shard_mask", Json::from(self.final_shard_mask)),
        ]);
        Json::obj(vec![
            ("schema", Json::str("supmr.governor.v1")),
            ("interval_ms", Json::from(self.interval_ms)),
            ("ticks", Json::from(self.ticks)),
            ("actions", actions),
            ("dropped_actions", Json::from(self.dropped_actions)),
            ("verdicts", verdicts),
            ("final", fin),
        ])
    }
}

/// Live `supmr.governor.*` handles.
struct GovernorMetrics {
    ticks: Counter,
    actions: Counter,
    map_width: Gauge,
    reduce_width: Gauge,
    prefetch_depth: Gauge,
    shard_mask: Gauge,
}

impl GovernorMetrics {
    fn register(registry: &Registry) -> GovernorMetrics {
        GovernorMetrics {
            ticks: registry.counter(
                "supmr.governor.ticks",
                "Sampling ticks the feedback governor has taken.",
                &[],
            ),
            actions: registry.counter(
                "supmr.governor.actions",
                "Knob movements the feedback governor has applied.",
                &[],
            ),
            map_width: registry.gauge(
                "supmr.governor.map_width",
                "Current effective map wave width.",
                &[],
            ),
            reduce_width: registry.gauge(
                "supmr.governor.reduce_width",
                "Current effective reduce wave width.",
                &[],
            ),
            prefetch_depth: registry.gauge(
                "supmr.governor.prefetch_depth",
                "Current effective ingest prefetch depth.",
                &[],
            ),
            shard_mask: registry.gauge(
                "supmr.governor.shard_mask",
                "Current absorb lock-sweep rotation mask.",
                &[],
            ),
        }
    }

    fn mirror(&self, active: &ActiveConfig) {
        self.map_width.set(active.map_width() as i64);
        self.reduce_width.set(active.reduce_width() as i64);
        self.prefetch_depth.set(active.prefetch_depth() as i64);
        self.shard_mask.set(active.shard_mask() as i64);
    }
}

/// The decision half of the governor, separated from the thread so the
/// table is unit-testable against synthetic samples.
struct GovernorState {
    config: GovernorConfig,
    limits: GovernorLimits,
    last_verdict: Option<Bottleneck>,
    streak: u32,
    last_p99: u64,
    rising: u32,
    cooldown: BTreeMap<&'static str, u32>,
    ticks: u64,
    verdicts: BTreeMap<&'static str, u64>,
}

impl GovernorState {
    fn new(config: GovernorConfig, limits: GovernorLimits) -> GovernorState {
        GovernorState {
            config,
            limits,
            last_verdict: None,
            streak: 0,
            last_p99: 0,
            rising: 0,
            cooldown: BTreeMap::new(),
            ticks: 0,
            verdicts: BTreeMap::new(),
        }
    }

    fn ready(&self, knob: &'static str) -> bool {
        self.cooldown.get(knob).copied().unwrap_or(0) == 0
    }

    fn cool(&mut self, knob: &'static str) {
        self.cooldown.insert(knob, self.config.cooldown_ticks);
    }

    /// Classify one sample and actuate; returns the applied decisions.
    fn tick(
        &mut self,
        sample: &GovernorSample,
        active: &ActiveConfig,
    ) -> Vec<(&'static str, &'static str, u64)> {
        self.ticks += 1;
        let verdict = sample.report.verdict;
        *self.verdicts.entry(verdict.as_str()).or_insert(0) += 1;
        if self.last_verdict == Some(verdict) {
            self.streak += 1;
        } else {
            self.last_verdict = Some(verdict);
            self.streak = 1;
        }
        self.rising = if sample.absorb_wait_p99_us > self.last_p99 { self.rising + 1 } else { 0 };
        self.last_p99 = sample.absorb_wait_p99_us;
        for ticks in self.cooldown.values_mut() {
            *ticks = ticks.saturating_sub(1);
        }
        let settled = self.streak >= self.config.hysteresis.max(1);

        let mut applied = Vec::new();
        let mut act =
            |state: &mut GovernorState, verdict: &'static str, knob: &'static str, value: u64| {
                applied.push((verdict, knob, value));
                state.cool(knob);
            };

        // Memory pressure is urgent: resident within 10% of the budget
        // (or a settled memory verdict) triggers a pre-emptive drain
        // and lowers the low watermark so the drain digs deeper.
        let near_budget = sample.budget_bytes > 0
            && sample.resident_bytes.saturating_mul(10) >= sample.budget_bytes.saturating_mul(9);
        if (near_budget || (settled && verdict == Bottleneck::MemoryBudgetBound))
            && self.ready("drain")
        {
            active.request_drain();
            act(self, Bottleneck::MemoryBudgetBound.as_str(), "drain", 1);
            if let Some(acct) = active.accountant() {
                let new_low = (acct.low() / 4 * 3).max(sample.budget_bytes / 8).max(1);
                if new_low < acct.low() {
                    acct.set_low(new_low);
                    act(self, Bottleneck::MemoryBudgetBound.as_str(), "low_watermark", new_low);
                }
            }
        }

        if settled {
            match verdict {
                Bottleneck::IngestBound => {
                    // The verdict keys on the ingest *busy* share, which
                    // inflates on a time-shared core (ingest read spans
                    // stretch across mapper preemption). Only actuate on
                    // direct starvation evidence: mappers measurably
                    // waiting for chunks for ≥5% of the wall.
                    let starved = sample.report.inputs.map_stall_us.saturating_mul(20)
                        >= sample.report.inputs.wall_us;
                    if starved && self.ready("map_width") {
                        let w = active.map_width();
                        if w > 1 {
                            active.set_map_width(w - 1);
                            act(self, verdict.as_str(), "map_width", (w - 1) as u64);
                        }
                    }
                    if starved && self.ready("prefetch_depth") {
                        let d = active.prefetch_depth();
                        if d < PREFETCH_CAP {
                            active.set_prefetch_depth(d + 1);
                            act(self, verdict.as_str(), "prefetch_depth", (d + 1) as u64);
                        }
                    }
                }
                Bottleneck::MapBound if self.ready("map_width") => {
                    let w = active.map_width();
                    if w < self.limits.map_base {
                        active.set_map_width(w + 1);
                        act(self, verdict.as_str(), "map_width", (w + 1) as u64);
                    }
                }
                Bottleneck::ReduceMergeBound if self.ready("reduce_width") => {
                    let w = active.reduce_width();
                    if w < self.limits.reduce_cap {
                        active.set_reduce_width(w + 1);
                        act(self, verdict.as_str(), "reduce_width", (w + 1) as u64);
                    }
                }
                _ => {}
            }
        }

        // Shuffle pressure: a settled shuffle verdict, or absorb-wait
        // p99 rising for `hysteresis` consecutive ticks above 1ms.
        let shuffling = (settled && verdict == Bottleneck::ShuffleBound)
            || (self.rising >= self.config.hysteresis.max(1) && sample.absorb_wait_p99_us > 1_000);
        if shuffling && self.ready("shard_mask") {
            let mask = active.shard_mask();
            if mask < SHARD_MASK_CAP {
                let next = ((mask << 1) | 1).min(SHARD_MASK_CAP);
                active.set_shard_mask(next);
                act(self, Bottleneck::ShuffleBound.as_str(), "shard_mask", next);
            }
        }

        applied
    }
}

/// What the governor thread hands back on stop.
struct ThreadStats {
    ticks: u64,
    verdicts: Vec<(String, u64)>,
}

/// A running governor: the sampling thread plus its stop signal.
pub(crate) struct GovernorRuntime {
    stop: std::sync::mpsc::Sender<()>,
    thread: JoinHandle<ThreadStats>,
    interval: Duration,
    active: Arc<ActiveConfig>,
}

impl GovernorRuntime {
    /// Start the governor thread sampling `registry` and actuating
    /// through `active`.
    pub(crate) fn spawn(
        config: GovernorConfig,
        registry: Registry,
        active: Arc<ActiveConfig>,
        tracer: Tracer,
        limits: GovernorLimits,
    ) -> GovernorRuntime {
        let (stop, stop_rx) = std::sync::mpsc::channel::<()>();
        let interval = config.interval;
        let thread_active = Arc::clone(&active);
        let thread = std::thread::Builder::new()
            .name("supmr-governor".to_string())
            .spawn(move || {
                let metrics = GovernorMetrics::register(&registry);
                metrics.mirror(&thread_active);
                let mut state = GovernorState::new(config, limits);
                let t0 = Instant::now();
                loop {
                    match stop_rx.recv_timeout(interval) {
                        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                    }
                    let snap = registry.snapshot();
                    let wall_us = (t0.elapsed().as_micros() as u64).max(1);
                    let sample =
                        GovernorSample::from_snapshot(&snap, wall_us, limits.map_base as u64);
                    let actions = state.tick(&sample, &thread_active);
                    metrics.ticks.inc();
                    for (verdict, knob, value) in actions {
                        note_action(&thread_active, &tracer, verdict, knob, value);
                        metrics.actions.inc();
                    }
                    metrics.mirror(&thread_active);
                }
                ThreadStats {
                    ticks: state.ticks,
                    verdicts: state.verdicts.into_iter().map(|(v, n)| (v.to_string(), n)).collect(),
                }
            })
            .expect("spawning the governor thread");
        GovernorRuntime { stop, thread, interval, active }
    }

    /// Stop the thread and assemble the `supmr.governor.v1` report.
    pub(crate) fn stop(self) -> GovernorReport {
        let _ = self.stop.send(());
        let stats = self.thread.join().expect("governor thread panicked");
        let (actions, dropped_actions) = self.active.take_log();
        GovernorReport {
            interval_ms: self.interval.as_millis() as u64,
            ticks: stats.ticks,
            actions,
            dropped_actions,
            verdicts: stats.verdicts,
            final_map_width: self.active.map_width(),
            final_reduce_width: self.active.reduce_width(),
            final_prefetch_depth: self.active.prefetch_depth(),
            final_shard_mask: self.active.shard_mask(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supmr_metrics::{BottleneckReport, DiagInputs};

    fn sample_for(inputs: DiagInputs, p99: u64) -> GovernorSample {
        let resident_bytes = inputs.resident_bytes;
        let budget_bytes = inputs.budget_bytes;
        GovernorSample {
            report: BottleneckReport::from_inputs(inputs),
            absorb_wait_p99_us: p99,
            resident_bytes,
            budget_bytes,
        }
    }

    fn ingest_bound() -> GovernorSample {
        // map_stall/wall = 0.5 >= the 0.25 primary-share threshold.
        sample_for(
            DiagInputs {
                wall_us: 1_000_000,
                map_stall_us: 500_000,
                map_workers: 4,
                ..DiagInputs::default()
            },
            0,
        )
    }

    fn balanced() -> GovernorSample {
        sample_for(DiagInputs { wall_us: 1_000_000, map_workers: 4, ..DiagInputs::default() }, 0)
    }

    fn state(hysteresis: u32, cooldown: u32) -> GovernorState {
        GovernorState::new(
            GovernorConfig {
                interval: Duration::from_millis(10),
                hysteresis,
                cooldown_ticks: cooldown,
            },
            GovernorLimits { map_base: 4, reduce_cap: 8 },
        )
    }

    #[test]
    fn knobs_clamp_to_sane_ranges() {
        let a = ActiveConfig::new(4, 4, 1);
        a.set_map_width(0);
        assert_eq!(a.map_width(), 1);
        a.set_prefetch_depth(100);
        assert_eq!(a.prefetch_depth(), PREFETCH_CAP);
        a.set_shard_mask(1 << 20);
        assert_eq!(a.shard_mask(), 63);
        assert!(!a.take_drain());
        a.request_drain();
        assert!(a.take_drain());
        assert!(!a.take_drain(), "drain requests are one-shot");
    }

    #[test]
    fn hysteresis_delays_actuation() {
        let active = ActiveConfig::new(4, 4, 1);
        let mut s = state(2, 0);
        assert!(s.tick(&ingest_bound(), &active).is_empty(), "first verdict must not act");
        let acted = s.tick(&ingest_bound(), &active);
        assert!(!acted.is_empty(), "second identical verdict acts");
        assert_eq!(active.map_width(), 3, "ingest-bound narrows the map wave");
        assert_eq!(active.prefetch_depth(), 2, "ingest-bound deepens prefetch");
    }

    #[test]
    fn ingest_verdict_without_starvation_evidence_is_inert() {
        // On a time-shared core the ingest *busy* share alone can carry
        // the verdict while mappers never actually wait for chunks;
        // acting on that would tax runs that are really map-bound.
        let sample = sample_for(
            DiagInputs {
                wall_us: 1_000_000,
                ingest_us: 600_000,
                map_stall_us: 20_000, // 2% of wall: below the 5% gate
                map_workers: 4,
                ..DiagInputs::default()
            },
            0,
        );
        assert_eq!(sample.report.verdict, Bottleneck::IngestBound);
        let active = ActiveConfig::new(4, 4, 1);
        let mut s = state(1, 0);
        for _ in 0..4 {
            assert!(s.tick(&sample, &active).is_empty(), "no starvation, no action");
        }
        assert_eq!(active.map_width(), 4);
        assert_eq!(active.prefetch_depth(), 1);
    }

    #[test]
    fn verdict_change_resets_the_streak() {
        let active = ActiveConfig::new(4, 4, 1);
        let mut s = state(2, 0);
        s.tick(&ingest_bound(), &active);
        s.tick(&balanced(), &active);
        assert!(s.tick(&ingest_bound(), &active).is_empty(), "streak restarted");
        assert_eq!(active.map_width(), 4);
    }

    #[test]
    fn cooldown_spaces_repeat_actuations() {
        let active = ActiveConfig::new(8, 4, 1);
        let mut s = state(1, 3);
        assert!(!s.tick(&ingest_bound(), &active).is_empty());
        assert_eq!(active.map_width(), 7);
        // The knob moves at most once per cooldown_ticks period: with
        // cooldown 3 it rests two ticks even though the verdict holds.
        assert!(s.tick(&ingest_bound(), &active).is_empty());
        assert!(s.tick(&ingest_bound(), &active).is_empty());
        assert!(!s.tick(&ingest_bound(), &active).is_empty());
        assert_eq!(active.map_width(), 6);
    }

    #[test]
    fn map_width_never_narrows_below_one() {
        let active = ActiveConfig::new(2, 4, 1);
        let mut s = state(1, 0);
        for _ in 0..10 {
            s.tick(&ingest_bound(), &active);
        }
        assert_eq!(active.map_width(), 1);
        assert_eq!(active.prefetch_depth(), PREFETCH_CAP);
    }

    #[test]
    fn map_bound_restores_width_toward_base() {
        let active = ActiveConfig::new(4, 4, 1);
        active.set_map_width(2);
        let mut s = state(1, 0);
        // ingest_stall/wall = 0.5 -> map-bound.
        let map_bound = sample_for(
            DiagInputs {
                wall_us: 1_000_000,
                ingest_stall_us: 500_000,
                map_workers: 4,
                ..DiagInputs::default()
            },
            0,
        );
        for _ in 0..10 {
            s.tick(&map_bound, &active);
        }
        assert_eq!(active.map_width(), 4, "restores to the configured base, not beyond");
    }

    #[test]
    fn rising_absorb_p99_widens_the_shard_mask() {
        let active = ActiveConfig::new(4, 4, 1);
        let mut s = state(2, 0);
        for p99 in [10_000u64, 20_000, 30_000, 40_000] {
            s.tick(
                &sample_for(DiagInputs { wall_us: 1_000_000, ..Default::default() }, p99),
                &active,
            );
        }
        assert!(active.shard_mask() > 0, "sustained rising p99 must widen the mask");
        // Widening is progressive: 1, then 3, ...
        assert!(active.shard_mask() <= 63);
    }

    #[test]
    fn memory_pressure_drains_preemptively_and_lowers_the_low_watermark() {
        let active = ActiveConfig::new(4, 4, 1);
        let accountant = Arc::new(MemoryAccountant::new(1000));
        active.attach_accountant(Arc::clone(&accountant));
        let low0 = accountant.low();
        let mut s = state(2, 0);
        // Resident at 95% of budget: urgent, bypasses hysteresis.
        let pressured = sample_for(
            DiagInputs {
                wall_us: 1_000_000,
                budget_bytes: 1000,
                resident_bytes: 950,
                ..DiagInputs::default()
            },
            0,
        );
        let acted = s.tick(&pressured, &active);
        assert!(acted.iter().any(|(_, knob, _)| *knob == "drain"), "first tick already drains");
        assert!(active.take_drain());
        assert!(accountant.low() < low0, "low watermark lowered");
        assert!(accountant.low() >= 1000 / 8, "but floored at budget/8");
    }

    #[test]
    fn reduce_bound_raises_reduce_width_to_the_cap() {
        let active = ActiveConfig::new(4, 4, 1);
        let mut s = state(1, 0);
        // merge/wall = 0.5 -> reduce/merge-bound.
        let merge_bound = sample_for(
            DiagInputs { wall_us: 1_000_000, merge_us: 500_000, ..DiagInputs::default() },
            0,
        );
        for _ in 0..20 {
            s.tick(&merge_bound, &active);
        }
        assert_eq!(active.reduce_width(), 8, "capped at the pool size");
    }

    #[test]
    fn balanced_ticks_leave_every_knob_alone() {
        let active = ActiveConfig::new(4, 4, 2);
        let mut s = state(1, 0);
        for _ in 0..10 {
            assert!(s.tick(&balanced(), &active).is_empty());
        }
        assert_eq!(active.map_width(), 4);
        assert_eq!(active.reduce_width(), 4);
        assert_eq!(active.prefetch_depth(), 2);
        assert_eq!(active.shard_mask(), 0);
    }

    #[test]
    fn action_log_is_bounded() {
        let a = ActiveConfig::new(1, 1, 1);
        for i in 0..(MAX_ACTIONS as u64 + 50) {
            a.record("balanced", "map_width", i);
        }
        let (log, dropped) = a.take_log();
        assert_eq!(log.len(), MAX_ACTIONS);
        assert_eq!(dropped, 50);
    }

    #[test]
    fn governor_report_renders_the_v1_schema() {
        let report = GovernorReport {
            interval_ms: 50,
            ticks: 7,
            actions: vec![ActionRecord {
                t_us: 123,
                verdict: "ingest-bound",
                knob: "map_width",
                value: 3,
            }],
            dropped_actions: 0,
            verdicts: vec![("ingest-bound".to_string(), 5), ("balanced".to_string(), 2)],
            final_map_width: 3,
            final_reduce_width: 4,
            final_prefetch_depth: 2,
            final_shard_mask: 1,
        };
        let text = report.to_json().render();
        assert!(text.contains("\"schema\":\"supmr.governor.v1\""));
        assert!(text.contains("\"knob\":\"map_width\""));
        assert!(text.contains("\"ingest-bound\":5"));
        assert!(text.contains("\"final\":{\"map_width\":3"));
    }

    mod determinism {
        //! The governor's safety argument, property-tested: every knob
        //! changes only scheduling widths, buffer depths, lock-sweep
        //! order, or spill timing — never key→partition placement — so
        //! ANY mid-job action sequence yields byte-identical output.

        use super::super::ActiveConfig;
        use crate::api::{Emit, MapReduce};
        use crate::chunk::Chunking;
        use crate::combiner::Sum;
        use crate::container::HashContainer;
        use crate::runtime::{Input, Job, JobConfig, MergeMode};
        use crate::spill::PairCodec;
        use std::collections::VecDeque;
        use std::sync::{Arc, Mutex};
        use supmr_metrics::{unpoisoned, TraceLevel};
        use supmr_storage::MemSource;
        use supmr_workloads::check::check;

        struct SpillingWordCount;

        impl MapReduce for SpillingWordCount {
            type Key = String;
            type Value = u64;
            type Combiner = Sum;
            type Output = u64;
            type Container = HashContainer<String, u64, Sum>;

            fn make_container(&self) -> Self::Container {
                HashContainer::default()
            }

            fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
                for word in split.split(|b| b.is_ascii_whitespace()) {
                    if !word.is_empty() {
                        emit.emit(String::from_utf8_lossy(word).into_owned(), 1);
                    }
                }
            }

            fn reduce(&self, _k: &String, acc: u64) -> u64 {
                acc
            }

            fn spill_codec(&self) -> Option<PairCodec<String, u64>> {
                fn encode(key: &String, count: &u64, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
                    buf.extend_from_slice(key.as_bytes());
                    buf.extend_from_slice(&count.to_le_bytes());
                }
                fn decode(rec: &[u8]) -> Option<(String, u64)> {
                    let klen = u32::from_le_bytes(rec.get(..4)?.try_into().ok()?) as usize;
                    let key = String::from_utf8(rec.get(4..4 + klen)?.to_vec()).ok()?;
                    let count =
                        u64::from_le_bytes(rec.get(4 + klen..4 + klen + 8)?.try_into().ok()?);
                    (rec.len() == 4 + klen + 8).then_some((key, count))
                }
                #[allow(clippy::ptr_arg)] // `&String` is PairCodec's fn-pointer shape
                fn size_hint(key: &String, _count: &u64) -> usize {
                    std::mem::size_of::<String>() + key.len() + 8
                }
                Some(PairCodec { encode, decode, size_hint })
            }
        }

        fn corpus() -> Vec<u8> {
            let mut text = Vec::new();
            for i in 0..1200u32 {
                text.extend_from_slice(format!("word{} common tail\n", i % 97).as_bytes());
            }
            text
        }

        /// One generated mid-job actuation: (knob selector, raw value).
        type Action = (u8, u64);

        fn apply(active: &ActiveConfig, (knob, value): Action) {
            match knob {
                0 => active.set_map_width(1 + (value % 4) as usize),
                1 => active.set_reduce_width(1 + (value % 6) as usize),
                2 => active.set_prefetch_depth(1 + (value % 8) as usize),
                3 => active.set_shard_mask(value & 63),
                4 => {
                    active.request_drain();
                    if let Some(acct) = active.accountant() {
                        acct.set_low((acct.low() / 2).max(1));
                    }
                }
                _ => unreachable!("knob selector is generated modulo 5"),
            }
        }

        fn run_wordcount(actions: Option<Vec<Action>>) -> Vec<(String, u64)> {
            let mut config = JobConfig {
                map_workers: 4,
                reduce_workers: 4,
                split_bytes: 128,
                chunking: Chunking::Inter { chunk_bytes: 512 },
                merge: MergeMode::PWay { ways: 2 },
                hash_seed: Some(7),
                memory_budget: Some(4 * 1024),
                ..JobConfig::default()
            };
            let mut callback = None;
            if let Some(actions) = actions {
                let active = Arc::new(ActiveConfig::new(4, 4, 1));
                config.active = Some(Arc::clone(&active));
                config.trace = TraceLevel::Wave;
                let queue = Mutex::new(VecDeque::from(actions));
                // One generated actuation per trace event: the sequence
                // lands at arbitrary points of the job's execution.
                callback = Some(move |_event: &supmr_metrics::TraceEvent| {
                    if let Some(action) = unpoisoned(queue.lock()).pop_front() {
                        apply(&active, action);
                    }
                });
            }
            let mut job = Job::new(SpillingWordCount).config(config);
            if let Some(callback) = callback {
                job = job.on_event(callback);
            }
            let result = job.run(Input::stream(MemSource::from(corpus()))).expect("wordcount runs");
            result.sorted_pairs()
        }

        #[test]
        fn any_action_sequence_preserves_output() {
            check("any_action_sequence_preserves_output", 6, |g| {
                let actions = g.vec(0..24, |g| (g.range(0u8..5), g.range(0u64..64)));
                let fixed = run_wordcount(None);
                let governed = run_wordcount(Some(actions));
                assert_eq!(fixed, governed);
            });
        }
    }

    #[test]
    fn spawned_governor_ticks_and_stops() {
        let registry = Registry::new();
        let active = Arc::new(ActiveConfig::new(4, 4, 1));
        let runtime = GovernorRuntime::spawn(
            GovernorConfig { interval: Duration::from_millis(1), ..GovernorConfig::default() },
            registry.clone(),
            Arc::clone(&active),
            Tracer::off(),
            GovernorLimits { map_base: 4, reduce_cap: 4 },
        );
        std::thread::sleep(Duration::from_millis(30));
        let report = runtime.stop();
        assert!(report.ticks > 0, "the thread must have sampled");
        assert_eq!(report.interval_ms, 1);
        let snap = registry.snapshot();
        assert!(
            snap.entries.iter().any(|e| e.name == "supmr.governor.ticks"),
            "governor families registered"
        );
    }
}
