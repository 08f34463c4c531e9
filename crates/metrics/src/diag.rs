//! Bandwidth attribution and bottleneck diagnosis (`supmr.diag`).
//!
//! The paper's analysis attributes wall-clock to the saturated resource
//! by hand (Fig. 7): a run is ingest-bound when the disk is pegged,
//! memory-bound when the intermediate set thrashes. This module closes
//! that loop inside the runtime:
//!
//! * [`FlowLedger`] — per-phase byte/busy-time accounting threaded
//!   through every byte-moving layer (chunk ingest, map scans, stage
//!   hand-offs, spill runs, the external merge), yielding achieved MB/s
//!   per phase alongside the existing [`PhaseTimings`](crate::phase).
//!   Each phase has exactly one recording owner; a storage-level meter
//!   can claim a phase with [`FlowLedger::mark_external`], which tells
//!   the runtime-level recorder to stand down (no double counting).
//! * [`DiagInputs`] + [`BottleneckReport`] — the classifier. It folds
//!   flow rates, stall sums (`MapWaitingForChunk` /
//!   `IngestWaitingForContainer`), the shuffle flow's busy time, and
//!   memory-budget pressure into blocked-time shares, names the
//!   bottleneck, and estimates the speedup from removing it (Amdahl).
//!   Serialized as the stable `supmr.diag.v2` JSON schema and rendered
//!   as an ASCII panel for the CLI's `--diagnose` flag.
//!
//! [`DiagInputs::from_snapshot`] rebuilds the inputs from a live
//! [`MetricsSnapshot`], which is how the `/debug/diag` endpoint
//! classifies a job mid-flight. The decision rules are documented in
//! DESIGN.md §3d.

use crate::json::Json;
use crate::registry::{Counter, MetricValue, MetricsSnapshot, Registry};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The byte-moving phases the ledger attributes bandwidth to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Reads from primary storage into ingest chunks.
    Ingest,
    /// Map-task scans over chunk splits.
    Map,
    /// Map output absorbed into the shared container: each absorbed
    /// entry at its in-memory `(key, accumulator)` size, over the time
    /// the absorbs took (never the spills they triggered).
    Shuffle,
    /// Framed bytes written into spill run files.
    Spill,
    /// Bytes a merge moved: spilled-run bytes read back by the external
    /// merge, and the pairs (at their in-memory size) the merge phase
    /// moved, once per round.
    Merge,
}

impl FlowPhase {
    /// Every phase, in display order.
    pub const ALL: [FlowPhase; 5] =
        [FlowPhase::Ingest, FlowPhase::Map, FlowPhase::Shuffle, FlowPhase::Spill, FlowPhase::Merge];

    /// The phase's stable label (used as the `phase` metric label and
    /// in the `supmr.diag.v2` schema).
    pub fn label(self) -> &'static str {
        match self {
            FlowPhase::Ingest => "ingest",
            FlowPhase::Map => "map",
            FlowPhase::Shuffle => "shuffle",
            FlowPhase::Spill => "spill",
            FlowPhase::Merge => "merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Parse a phase label back (the inverse of [`FlowPhase::label`]).
    pub fn from_label(label: &str) -> Option<FlowPhase> {
        FlowPhase::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// Registry handles mirroring the ledger (`supmr.flow.*`).
struct FlowCounters {
    bytes: [Counter; 5],
    busy_us: [Counter; 5],
}

/// A lock-free per-phase byte/busy-time ledger.
///
/// `record` is a pair of relaxed atomic adds (plus striped counter adds
/// when a registry is attached), cheap enough to sit on every map task
/// and every spilled run; the diagnosis itself runs once, at report
/// time or per `/debug/diag` request.
#[derive(Default)]
pub struct FlowLedger {
    bytes: [AtomicU64; 5],
    busy_ns: [AtomicU64; 5],
    /// Phases claimed by an external (storage-level) meter; the
    /// runtime-level recorder skips a claimed phase.
    external: [AtomicBool; 5],
    counters: OnceLock<FlowCounters>,
}

impl std::fmt::Debug for FlowLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowLedger").field("snapshot", &self.snapshot()).finish()
    }
}

impl FlowLedger {
    /// An empty ledger.
    pub fn new() -> FlowLedger {
        FlowLedger::default()
    }

    /// Mirror every phase into `supmr.flow.bytes{phase=…}` and
    /// `supmr.flow.busy_us{phase=…}` counter families in `registry`, so
    /// live scrapes (and `/debug/diag`) see the flows. First attachment
    /// wins; later calls are no-ops.
    pub fn attach_registry(&self, registry: &Registry) {
        self.counters.get_or_init(|| {
            let per_phase = |family: &str, help: &str| {
                FlowPhase::ALL.map(|p| registry.counter(family, help, &[("phase", p.label())]))
            };
            FlowCounters {
                bytes: per_phase(
                    "supmr.flow.bytes",
                    "Bytes moved, attributed to the owning phase.",
                ),
                busy_us: per_phase(
                    "supmr.flow.busy_us",
                    "Time spent moving those bytes, microseconds.",
                ),
            }
        });
    }

    /// Claim `phase` for an external (storage-level) meter. The
    /// runtime-level recorder checks [`FlowLedger::is_external`] and
    /// stands down, so each phase has one owner.
    pub fn mark_external(&self, phase: FlowPhase) {
        self.external[phase.index()].store(true, Ordering::Relaxed);
    }

    /// Whether `phase` is owned by an external meter.
    pub fn is_external(&self, phase: FlowPhase) -> bool {
        self.external[phase.index()].load(Ordering::Relaxed)
    }

    /// Record `bytes` moved in `phase` over `busy` of active time.
    pub fn record(&self, phase: FlowPhase, bytes: u64, busy: Duration) {
        let i = phase.index();
        self.bytes[i].fetch_add(bytes, Ordering::Relaxed);
        let ns = busy.as_nanos().min(u64::MAX as u128) as u64;
        self.busy_ns[i].fetch_add(ns, Ordering::Relaxed);
        if let Some(c) = self.counters.get() {
            c.bytes[i].add(bytes);
            c.busy_us[i].add(ns / 1_000);
        }
    }

    /// Record from the runtime-level owner: a no-op when an external
    /// meter has claimed the phase.
    pub fn record_owned(&self, phase: FlowPhase, bytes: u64, busy: Duration) {
        if !self.is_external(phase) {
            self.record(phase, bytes, busy);
        }
    }

    /// Bytes recorded for `phase`.
    pub fn bytes(&self, phase: FlowPhase) -> u64 {
        self.bytes[phase.index()].load(Ordering::Relaxed)
    }

    /// Busy time recorded for `phase`.
    pub fn busy(&self, phase: FlowPhase) -> Duration {
        Duration::from_nanos(self.busy_ns[phase.index()].load(Ordering::Relaxed))
    }

    /// A point-in-time copy of every phase's flow.
    pub fn snapshot(&self) -> FlowSnapshot {
        FlowSnapshot {
            flows: FlowPhase::ALL.map(|p| PhaseFlow {
                phase: p,
                bytes: self.bytes(p),
                busy_us: self.busy(p).as_micros() as u64,
            }),
        }
    }
}

/// One phase's achieved flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseFlow {
    /// The owning phase.
    pub phase: FlowPhase,
    /// Bytes moved.
    pub bytes: u64,
    /// Active time spent moving them, microseconds.
    pub busy_us: u64,
}

impl PhaseFlow {
    /// Achieved throughput while the phase was actually moving bytes.
    /// Zero when no time was recorded (no flow, no rate).
    pub fn mb_per_sec(&self) -> f64 {
        if self.busy_us == 0 {
            0.0
        } else {
            // bytes per microsecond == MB per second.
            self.bytes as f64 / self.busy_us as f64
        }
    }
}

/// A point-in-time copy of a [`FlowLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSnapshot {
    /// One entry per [`FlowPhase`], in [`FlowPhase::ALL`] order.
    pub flows: [PhaseFlow; 5],
}

impl Default for FlowSnapshot {
    fn default() -> Self {
        FlowSnapshot {
            flows: FlowPhase::ALL.map(|phase| PhaseFlow { phase, bytes: 0, busy_us: 0 }),
        }
    }
}

impl FlowSnapshot {
    /// The flow recorded for `phase`.
    pub fn get(&self, phase: FlowPhase) -> PhaseFlow {
        self.flows[phase.index()]
    }
}

/// The classifier's verdict: which resource bounds the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The job waits on primary-storage reads (the paper's Fig. 1).
    IngestBound,
    /// Map compute dominates; ingest waits on the mappers.
    MapBound,
    /// Absorbing map output into the shared container dominates.
    ShuffleBound,
    /// The memory budget forces spilling; the job pays disk twice.
    MemoryBudgetBound,
    /// The final reduce/merge tail dominates.
    ReduceMergeBound,
    /// No single resource crosses the attribution thresholds.
    Balanced,
}

impl Bottleneck {
    /// The stable verdict string used in `supmr.diag.v2`.
    pub fn as_str(self) -> &'static str {
        match self {
            Bottleneck::IngestBound => "ingest-bound",
            Bottleneck::MapBound => "map-bound",
            Bottleneck::ShuffleBound => "shuffle-bound",
            Bottleneck::MemoryBudgetBound => "memory-budget-bound",
            Bottleneck::ReduceMergeBound => "reduce/merge-bound",
            Bottleneck::Balanced => "balanced",
        }
    }
}

/// Everything the classifier consumes, flattened to plain numbers so
/// it can be built from a finished job report or from a live
/// [`MetricsSnapshot`] alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiagInputs {
    /// Job wall-clock so far, microseconds.
    pub wall_us: u64,
    /// Serial (unfused) ingest-phase time. Zero for pipelined runs,
    /// where the stall counters carry the ingest-pressure signal.
    pub ingest_us: u64,
    /// Map-phase time (the fused ingest+map span for pipelined runs).
    pub map_us: u64,
    /// Merge-phase time.
    pub merge_us: u64,
    /// Total `MapWaitingForChunk` per map worker — the map side's idle
    /// time waiting on ingest. The events sum the waits of every worker,
    /// so the total is divided by [`DiagInputs::map_workers`].
    pub map_stall_us: u64,
    /// Total `IngestWaitingForContainer` — ingest waited on the maps.
    pub ingest_stall_us: u64,
    /// Map workers, for normalizing cross-thread sums (the shuffle
    /// flow's busy time is summed over them). At least 1.
    pub map_workers: u64,
    /// Configured memory budget (0 = unbounded).
    pub budget_bytes: u64,
    /// Intermediate bytes currently resident against the budget.
    pub resident_bytes: u64,
    /// Spill runs written.
    pub spill_runs: u64,
    /// Framed bytes spilled.
    pub spill_bytes: u64,
    /// Time spent spilling plus externally merging runs back.
    pub spill_busy_us: u64,
    /// Per-phase achieved flows.
    pub flows: FlowSnapshot,
}

/// Attribution thresholds (DESIGN.md §3d). A share below the floor is
/// noise; spilling is categorical evidence the budget binds even at a
/// small share.
const PRIMARY_SHARE_MIN: f64 = 0.25;
const MEMORY_SHARE_MIN: f64 = 0.05;
const MAP_PHASE_MIN: f64 = 0.40;

impl DiagInputs {
    /// Rebuild the inputs from a live registry snapshot — the
    /// `/debug/diag` path. `wall_us` is the job's elapsed wall-clock and
    /// `map_workers` its map width, neither of which the registry
    /// carries.
    pub fn from_snapshot(snap: &MetricsSnapshot, wall_us: u64, map_workers: u64) -> DiagInputs {
        let counter = |name: &str| counter_sum(snap, name);
        let hist = |name: &str| hist_sum(snap, name);
        let gauge = |name: &str| gauge_max(snap, name);
        let mut flows = FlowSnapshot::default();
        for entry in &snap.entries {
            let phase = entry
                .labels
                .iter()
                .find(|(k, _)| k == "phase")
                .and_then(|(_, v)| FlowPhase::from_label(v));
            let (Some(phase), MetricValue::Counter(v)) = (phase, &entry.value) else { continue };
            let slot = &mut flows.flows[phase.index()];
            match entry.name.as_str() {
                "supmr.flow.bytes" => slot.bytes += v,
                "supmr.flow.busy_us" => slot.busy_us += v,
                _ => {}
            }
        }
        DiagInputs {
            wall_us,
            ingest_us: flows.get(FlowPhase::Ingest).busy_us.min(wall_us),
            map_us: flows.get(FlowPhase::Map).busy_us.min(wall_us),
            merge_us: hist("supmr.merge.round_us").min(wall_us),
            map_stall_us: counter("supmr.stall.map_us") / map_workers.max(1),
            ingest_stall_us: counter("supmr.stall.ingest_us"),
            map_workers: map_workers.max(1),
            budget_bytes: gauge("supmr.spill.budget_bytes"),
            resident_bytes: gauge("supmr.spill.resident_bytes"),
            spill_runs: counter("supmr.spill.runs"),
            spill_bytes: counter("supmr.spill.bytes"),
            spill_busy_us: hist("supmr.spill.drain_us") + hist("supmr.spill.merge_us"),
            flows,
        }
    }
}

/// One governor tick's view of the job: the classifier's report plus
/// the raw pressure signals the actuators key on — the sampling half of
/// the feedback loop (the actuation half lives in
/// `supmr::runtime::governor`).
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorSample {
    /// The classifier's report for this tick.
    pub report: BottleneckReport,
    /// p99 of the container absorb-wait histogram, microseconds — the
    /// shard-contention signal (a rising p99 means workers convoy on
    /// shard locks even when the summed wait share stays small).
    pub absorb_wait_p99_us: u64,
    /// Intermediate bytes currently resident against the budget.
    pub resident_bytes: u64,
    /// Configured memory budget (0 = unbounded).
    pub budget_bytes: u64,
}

impl GovernorSample {
    /// Classify a live registry snapshot for one governor tick.
    /// `wall_us` is the job's elapsed wall-clock and `map_workers` the
    /// configured map parallelism — the snapshot carries neither.
    pub fn from_snapshot(snap: &MetricsSnapshot, wall_us: u64, map_workers: u64) -> GovernorSample {
        let inputs = DiagInputs::from_snapshot(snap, wall_us, map_workers);
        let absorb_wait_p99_us = snap
            .entries
            .iter()
            .filter(|e| e.name == "supmr.container.absorb_wait_us")
            .filter_map(|e| match &e.value {
                MetricValue::Histogram(h) => Some(h.p99()),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let resident_bytes = inputs.resident_bytes;
        let budget_bytes = inputs.budget_bytes;
        GovernorSample {
            report: BottleneckReport::from_inputs(inputs),
            absorb_wait_p99_us,
            resident_bytes,
            budget_bytes,
        }
    }
}

fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| match &e.value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        })
        .sum()
}

fn hist_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| match &e.value {
            MetricValue::Histogram(h) => Some(h.sum),
            _ => None,
        })
        .sum()
}

fn gauge_max(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| match &e.value {
            MetricValue::Gauge(v) => Some((*v).max(0) as u64),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Per-resource blocked-time shares of wall-clock, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockedShares {
    /// Waiting on primary-storage reads (stalls + serial ingest).
    pub ingest: f64,
    /// Ingest waiting on map compute.
    pub map: f64,
    /// Absorbing map output into the shared container, per map worker.
    pub shuffle: f64,
    /// Spilling and externally re-merging under the memory budget.
    pub memory: f64,
    /// The final merge tail.
    pub merge: f64,
}

/// The diagnosis: verdict, shares, and the evidence behind them.
/// Serialized as the stable `supmr.diag.v2` schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Which resource bounds the job.
    pub verdict: Bottleneck,
    /// Per-resource blocked-time shares.
    pub shares: BlockedShares,
    /// Amdahl estimate: wall-clock speedup if the bounding resource's
    /// blocked time went to zero. `1.0` when balanced.
    pub speedup_if_removed: f64,
    /// The inputs the verdict was derived from.
    pub inputs: DiagInputs,
}

impl BottleneckReport {
    /// Classify `inputs` (DESIGN.md §3d):
    ///
    /// 1. A budgeted job that actually spilled is memory-budget-bound
    ///    once spill work clears a small floor or residency presses the
    ///    high watermark — spilling is categorical evidence.
    /// 2. Otherwise the largest blocked-time share wins if it clears
    ///    a 0.25 share floor: ingest (map stalls + serial ingest
    ///    phase), shuffle (the shuffle flow's busy time over workers),
    ///    merge (merge phase), or map (ingest stalls).
    /// 3. Otherwise a dominant map phase is map-bound; else balanced.
    pub fn from_inputs(inputs: DiagInputs) -> BottleneckReport {
        let wall = inputs.wall_us.max(1) as f64;
        let workers = inputs.map_workers.max(1) as f64;
        let share = |us: u64| (us as f64 / wall).min(1.0);
        let shares = BlockedShares {
            ingest: share(inputs.map_stall_us + inputs.ingest_us),
            map: share(inputs.ingest_stall_us),
            shuffle: (inputs.flows.get(FlowPhase::Shuffle).busy_us as f64 / (wall * workers))
                .min(1.0),
            memory: share(inputs.spill_busy_us),
            merge: share(inputs.merge_us),
        };
        let spilled = inputs.budget_bytes > 0 && inputs.spill_runs > 0;
        let pressured = inputs.resident_bytes * 10 >= inputs.budget_bytes * 8;
        let (verdict, winning) = if spilled && (shares.memory >= MEMORY_SHARE_MIN || pressured) {
            (Bottleneck::MemoryBudgetBound, shares.memory.max(MEMORY_SHARE_MIN))
        } else {
            let candidates = [
                (Bottleneck::IngestBound, shares.ingest),
                (Bottleneck::ShuffleBound, shares.shuffle),
                (Bottleneck::ReduceMergeBound, shares.merge),
                (Bottleneck::MapBound, shares.map),
            ];
            let (v, s) = candidates
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty candidates");
            if s >= PRIMARY_SHARE_MIN {
                (v, s)
            } else if share(inputs.map_us) >= MAP_PHASE_MIN {
                (Bottleneck::MapBound, share(inputs.map_us))
            } else {
                (Bottleneck::Balanced, 0.0)
            }
        };
        let speedup_if_removed = match verdict {
            Bottleneck::Balanced => 1.0,
            _ => 1.0 / (1.0 - winning.min(0.9)),
        };
        BottleneckReport { verdict, shares, speedup_if_removed, inputs }
    }

    /// The report as stable `supmr.diag.v2` JSON.
    pub fn to_json(&self) -> Json {
        let i = &self.inputs;
        let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
        let shares = Json::obj(vec![
            ("ingest", Json::Num(round3(self.shares.ingest))),
            ("map", Json::Num(round3(self.shares.map))),
            ("shuffle", Json::Num(round3(self.shares.shuffle))),
            ("memory", Json::Num(round3(self.shares.memory))),
            ("merge", Json::Num(round3(self.shares.merge))),
        ]);
        let stalls = Json::obj(vec![
            ("map_wait_us", Json::from(i.map_stall_us)),
            ("ingest_wait_us", Json::from(i.ingest_stall_us)),
        ]);
        let memory = Json::obj(vec![
            ("budget_bytes", Json::from(i.budget_bytes)),
            ("resident_bytes", Json::from(i.resident_bytes)),
            ("spill_runs", Json::from(i.spill_runs)),
            ("spill_bytes", Json::from(i.spill_bytes)),
            ("spill_busy_us", Json::from(i.spill_busy_us)),
        ]);
        let flows = Json::Arr(
            i.flows
                .flows
                .iter()
                .map(|f| {
                    Json::obj(vec![
                        ("phase", Json::str(f.phase.label())),
                        ("bytes", Json::from(f.bytes)),
                        ("busy_us", Json::from(f.busy_us)),
                        ("mb_per_sec", Json::Num(round3(f.mb_per_sec()))),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("schema", Json::str("supmr.diag.v2")),
            ("verdict", Json::str(self.verdict.as_str())),
            ("speedup_if_removed", Json::Num(round3(self.speedup_if_removed))),
            ("wall_us", Json::from(i.wall_us)),
            ("shares", shares),
            ("stalls", stalls),
            ("memory", memory),
            ("flows", flows),
        ])
    }

    /// Render as the `--diagnose` terminal panel.
    pub fn render_ascii(&self) -> String {
        const BAR: usize = 36;
        let mut out = String::new();
        let rule = format!("+{}+\n", "-".repeat(68));
        out.push_str(&rule);
        let _ = writeln!(
            out,
            "| supmr.diag  verdict: {:<24} speedup if removed: {:.2}x",
            self.verdict.as_str(),
            self.speedup_if_removed
        );
        out.push_str(&rule);
        let _ = writeln!(
            out,
            "| blocked-time shares (of {:.2}s wall)",
            self.inputs.wall_us as f64 / 1e6
        );
        let rows = [
            ("ingest", self.shares.ingest),
            ("map", self.shares.map),
            ("shuffle", self.shares.shuffle),
            ("memory", self.shares.memory),
            ("merge", self.shares.merge),
        ];
        for (label, s) in rows {
            let filled = ((s * BAR as f64).round() as usize).min(BAR);
            let _ = writeln!(
                out,
                "|   {label:<8}|{}{}| {:>5.1}%",
                "#".repeat(filled),
                " ".repeat(BAR - filled),
                s * 100.0
            );
        }
        out.push_str(&rule);
        let _ = writeln!(out, "| achieved flow");
        for f in &self.inputs.flows.flows {
            let _ = writeln!(
                out,
                "|   {:<8}{:>10.1} MB/s  ({:.1} MB over {:.2}s busy)",
                f.phase.label(),
                f.mb_per_sec(),
                f.bytes as f64 / 1e6,
                f.busy_us as f64 / 1e6
            );
        }
        if self.inputs.budget_bytes > 0 {
            let _ = writeln!(
                out,
                "| memory budget: {} bytes, resident {}, {} spill runs ({} bytes)",
                self.inputs.budget_bytes,
                self.inputs.resident_bytes,
                self.inputs.spill_runs,
                self.inputs.spill_bytes
            );
        }
        out.push_str(&rule);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DiagInputs {
        DiagInputs { wall_us: 10_000_000, map_workers: 4, ..DiagInputs::default() }
    }

    #[test]
    fn ledger_records_and_snapshots() {
        let ledger = FlowLedger::new();
        ledger.record(FlowPhase::Ingest, 2_000_000, Duration::from_millis(500));
        ledger.record(FlowPhase::Ingest, 2_000_000, Duration::from_millis(500));
        assert_eq!(ledger.bytes(FlowPhase::Ingest), 4_000_000);
        let snap = ledger.snapshot();
        let f = snap.get(FlowPhase::Ingest);
        assert_eq!(f.busy_us, 1_000_000);
        assert!((f.mb_per_sec() - 4.0).abs() < 1e-9, "4 MB over 1s = 4 MB/s");
        assert_eq!(snap.get(FlowPhase::Merge).bytes, 0);
    }

    #[test]
    fn external_claims_silence_owned_records() {
        let ledger = FlowLedger::new();
        ledger.mark_external(FlowPhase::Ingest);
        ledger.record_owned(FlowPhase::Ingest, 100, Duration::from_micros(10));
        assert_eq!(ledger.bytes(FlowPhase::Ingest), 0, "runtime recorder stood down");
        ledger.record(FlowPhase::Ingest, 100, Duration::from_micros(10));
        assert_eq!(ledger.bytes(FlowPhase::Ingest), 100, "the external owner still records");
        ledger.record_owned(FlowPhase::Spill, 7, Duration::ZERO);
        assert_eq!(ledger.bytes(FlowPhase::Spill), 7, "unclaimed phases record normally");
    }

    #[test]
    fn ledger_mirrors_registry_counters() {
        let registry = Registry::new();
        let ledger = FlowLedger::new();
        ledger.attach_registry(&registry);
        ledger.record(FlowPhase::Spill, 1024, Duration::from_micros(300));
        let snap = registry.snapshot();
        let spill_bytes = snap
            .entries
            .iter()
            .find(|e| {
                e.name == "supmr.flow.bytes"
                    && e.labels.iter().any(|(k, v)| k == "phase" && v == "spill")
            })
            .expect("flow family registered");
        assert_eq!(spill_bytes.value, MetricValue::Counter(1024));
    }

    #[test]
    fn throttled_ingest_classifies_ingest_bound() {
        let report = BottleneckReport::from_inputs(DiagInputs {
            map_stall_us: 6_000_000,
            map_us: 3_000_000,
            ..base()
        });
        assert_eq!(report.verdict, Bottleneck::IngestBound);
        assert!(report.shares.ingest >= 0.6);
        assert!(report.speedup_if_removed > 2.0, "{}", report.speedup_if_removed);
    }

    #[test]
    fn serial_ingest_phase_alone_is_ingest_bound() {
        // The original runtime has no stalls; the serial ingest phase
        // carries the whole signal.
        let report = BottleneckReport::from_inputs(DiagInputs { ingest_us: 7_000_000, ..base() });
        assert_eq!(report.verdict, Bottleneck::IngestBound);
    }

    #[test]
    fn spilling_budget_classifies_memory_bound() {
        let report = BottleneckReport::from_inputs(DiagInputs {
            budget_bytes: 1 << 20,
            resident_bytes: 900 << 10,
            spill_runs: 40,
            spill_bytes: 50 << 20,
            spill_busy_us: 2_000_000,
            map_stall_us: 6_000_000, // even with big ingest stalls, spilling wins
            ..base()
        });
        assert_eq!(report.verdict, Bottleneck::MemoryBudgetBound);
    }

    #[test]
    fn budget_without_spilling_is_not_memory_bound() {
        let report = BottleneckReport::from_inputs(DiagInputs {
            budget_bytes: 1 << 30,
            resident_bytes: 1 << 10,
            map_us: 8_000_000,
            ..base()
        });
        assert_eq!(report.verdict, Bottleneck::MapBound);
    }

    #[test]
    fn compute_heavy_run_is_map_bound_and_fast_runs_balance() {
        let report = BottleneckReport::from_inputs(DiagInputs { map_us: 9_000_000, ..base() });
        assert_eq!(report.verdict, Bottleneck::MapBound);
        let report = BottleneckReport::from_inputs(base());
        assert_eq!(report.verdict, Bottleneck::Balanced);
        assert_eq!(report.speedup_if_removed, 1.0);
    }

    #[test]
    fn ingest_stalls_mean_map_bound() {
        let report =
            BottleneckReport::from_inputs(DiagInputs { ingest_stall_us: 5_000_000, ..base() });
        assert_eq!(report.verdict, Bottleneck::MapBound);
    }

    #[test]
    fn absorb_time_means_shuffle_bound() {
        let mut inputs = base();
        // 4s per worker over 4 workers.
        inputs.flows.flows[FlowPhase::Shuffle.index()] =
            PhaseFlow { phase: FlowPhase::Shuffle, bytes: 1 << 30, busy_us: 16_000_000 };
        let report = BottleneckReport::from_inputs(inputs);
        assert_eq!(report.verdict, Bottleneck::ShuffleBound);
        assert!((report.shares.shuffle - 0.4).abs() < 1e-9);
    }

    #[test]
    fn merge_tail_means_reduce_merge_bound() {
        let report = BottleneckReport::from_inputs(DiagInputs { merge_us: 4_000_000, ..base() });
        assert_eq!(report.verdict, Bottleneck::ReduceMergeBound);
    }

    #[test]
    fn diag_v2_schema_is_stable() {
        let mut inputs = DiagInputs { map_stall_us: 6_000_000, map_us: 3_000_000, ..base() };
        inputs.flows.flows[0] =
            PhaseFlow { phase: FlowPhase::Ingest, bytes: 40_000_000, busy_us: 8_000_000 };
        let json = BottleneckReport::from_inputs(inputs).to_json();
        let text = json.render();
        // Golden: the schema's key set and order are stable.
        assert!(
            text.starts_with(r#"{"schema":"supmr.diag.v2","verdict":"ingest-bound""#),
            "{text}"
        );
        let parsed = Json::parse(&text).expect("valid JSON");
        for key in [
            "schema",
            "verdict",
            "speedup_if_removed",
            "wall_us",
            "shares",
            "stalls",
            "memory",
            "flows",
        ] {
            assert!(parsed.get(key).is_some(), "missing {key} in {text}");
        }
        let shares = parsed.get("shares").unwrap();
        for key in ["ingest", "map", "shuffle", "memory", "merge"] {
            assert!(shares.get(key).is_some(), "missing share {key}");
        }
        let stalls = parsed.get("stalls").unwrap();
        assert!(stalls.get("map_wait_us").is_some() && stalls.get("ingest_wait_us").is_some());
        assert!(stalls.get("absorb_wait_us").is_none(), "v2 dropped the absorb-wait sum");
        let flows = parsed.get("flows").unwrap().as_arr().unwrap();
        assert_eq!(flows.len(), 5);
        assert_eq!(flows[0].get("phase").unwrap().as_str(), Some("ingest"));
        assert_eq!(flows[0].get("mb_per_sec").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn from_snapshot_round_trips_registry_families() {
        let registry = Registry::new();
        let ledger = FlowLedger::new();
        ledger.attach_registry(&registry);
        ledger.record(FlowPhase::Ingest, 8_000_000, Duration::from_secs(8));
        registry.counter("supmr.stall.map_us", "", &[("runtime", "pipeline")]).add(6_000_000);
        registry.gauge("supmr.spill.budget_bytes", "", &[]).set(1 << 20);
        let inputs = DiagInputs::from_snapshot(&registry.snapshot(), 10_000_000, 1);
        assert_eq!(inputs.map_stall_us, 6_000_000);
        assert_eq!(inputs.budget_bytes, 1 << 20);
        assert_eq!(inputs.flows.get(FlowPhase::Ingest).bytes, 8_000_000);
        let report = BottleneckReport::from_inputs(inputs);
        assert_eq!(report.verdict, Bottleneck::IngestBound);
    }

    #[test]
    fn live_shuffle_share_divides_by_the_map_width() {
        let registry = Registry::new();
        let ledger = FlowLedger::new();
        ledger.attach_registry(&registry);
        // 6s of absorbing, summed over the workers, in a 10s job.
        ledger.record(FlowPhase::Shuffle, 1 << 20, Duration::from_secs(6));
        let snap = registry.snapshot();
        let share = |width| {
            let inputs = DiagInputs::from_snapshot(&snap, 10_000_000, width);
            BottleneckReport::from_inputs(inputs).shares.shuffle
        };
        assert!((share(1) - 0.6).abs() < 1e-9, "{}", share(1));
        assert!((share(4) - 6.0 / (10.0 * 4.0)).abs() < 1e-9, "busy ÷ (wall × 4): {}", share(4));
        assert_eq!(share(0), share(1), "a width of 0 counts as one worker");
    }

    #[test]
    fn governor_sample_overrides_workers_and_reads_p99() {
        let registry = Registry::new();
        let ledger = FlowLedger::new();
        ledger.attach_registry(&registry);
        ledger.record(FlowPhase::Ingest, 8_000_000, Duration::from_secs(8));
        let waits = registry.histogram("supmr.container.absorb_wait_us", "", &[]);
        for _ in 0..50 {
            waits.record(100);
        }
        waits.record(40_000);
        registry.gauge("supmr.spill.budget_bytes", "", &[]).set(1 << 20);
        registry.gauge("supmr.spill.resident_bytes", "", &[]).set(900 << 10);
        let sample = GovernorSample::from_snapshot(&registry.snapshot(), 10_000_000, 4);
        assert_eq!(sample.report.inputs.map_workers, 4, "governor supplies the real width");
        assert!(sample.absorb_wait_p99_us >= 40_000 * 31 / 32, "{}", sample.absorb_wait_p99_us);
        assert_eq!(sample.budget_bytes, 1 << 20);
        assert_eq!(sample.resident_bytes, 900 << 10);
        assert_eq!(sample.report.verdict, Bottleneck::IngestBound);
    }

    #[test]
    fn ascii_panel_names_the_verdict_and_flows() {
        let mut inputs = DiagInputs { map_stall_us: 6_000_000, ..base() };
        inputs.flows.flows[0] =
            PhaseFlow { phase: FlowPhase::Ingest, bytes: 40_000_000, busy_us: 8_000_000 };
        let panel = BottleneckReport::from_inputs(inputs).render_ascii();
        assert!(panel.contains("verdict: ingest-bound"), "{panel}");
        assert!(panel.contains("blocked-time shares"), "{panel}");
        assert!(panel.contains("5.0 MB/s"), "{panel}");
        assert!(panel.contains("60.0%"), "{panel}");
    }

    #[test]
    fn classification_overhead_is_negligible() {
        // The diagnosis runs once per report or scrape; even a thousand
        // classifications must be effectively free next to any job.
        let t0 = std::time::Instant::now();
        for i in 0..1000u64 {
            let report =
                BottleneckReport::from_inputs(DiagInputs { map_stall_us: i * 1000, ..base() });
            let _ = report.to_json().render();
        }
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}
