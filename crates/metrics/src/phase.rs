//! Job-phase vocabulary and per-phase timing breakdowns.
//!
//! Table II of the paper breaks a job into `total`, `read` (ingest), `map`,
//! `reduce`, and `merge` columns; in SupMR runs the ingest and map phases
//! are fused by the pipeline, so a breakdown can also report a combined
//! `read+map` figure. [`PhaseTimings`] is that row; the clock that fills
//! it in belongs to the runtime's probe, its one user.

use std::fmt;
use std::time::Duration;

/// The MapReduce job phases the paper distinguishes.
///
/// `Setup` and `Cleanup` exist because the paper notes the phase times "do
/// not add up to the total execution time because we do not list the
/// cleanup or setup times".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading input from primary storage into memory ("read" in Table II).
    Ingest,
    /// Running user map functions over input splits.
    Map,
    /// Coalescing intermediate key/value pairs with common keys.
    Reduce,
    /// Sorting/merging the final output.
    Merge,
    /// Job initialization not attributed to a data phase.
    Setup,
    /// Tear-down not attributed to a data phase.
    Cleanup,
}

impl Phase {
    /// All phases in canonical execution order.
    pub const ALL: [Phase; 6] =
        [Phase::Setup, Phase::Ingest, Phase::Map, Phase::Reduce, Phase::Merge, Phase::Cleanup];

    /// Column label used in table output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Ingest => "read",
            Phase::Map => "map",
            Phase::Reduce => "reduce",
            Phase::Merge => "merge",
            Phase::Setup => "setup",
            Phase::Cleanup => "cleanup",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Setup => 0,
            Phase::Ingest => 1,
            Phase::Map => 2,
            Phase::Reduce => 3,
            Phase::Merge => 4,
            Phase::Cleanup => 5,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A completed per-phase timing breakdown — one row of Table II.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimings {
    durations: [Duration; 6],
    total: Duration,
    /// In pipeline runs ingest and map overlap, so their separate wall-clock
    /// durations are not meaningful; the fused duration is reported instead.
    fused_ingest_map: Option<Duration>,
}

impl PhaseTimings {
    /// Breakdown with every phase at zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Wall-clock duration of one phase. For fused (pipelined) runs,
    /// `Ingest` and `Map` both report the fused duration.
    pub fn phase(&self, p: Phase) -> Duration {
        if let Some(fused) = self.fused_ingest_map {
            if matches!(p, Phase::Ingest | Phase::Map) {
                return fused;
            }
        }
        self.durations[p.index()]
    }

    /// Total job wall-clock time (may exceed the sum of phases when phases
    /// overlap, and includes setup/cleanup).
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Whether ingest and map were overlapped by the chunk pipeline.
    pub fn is_fused(&self) -> bool {
        self.fused_ingest_map.is_some()
    }

    /// The fused ingest+map wall-clock duration, if this run pipelined.
    pub fn fused_ingest_map(&self) -> Option<Duration> {
        self.fused_ingest_map
    }

    /// Set a phase duration directly (used by the simulator and tests).
    pub fn set_phase(&mut self, p: Phase, d: Duration) {
        self.durations[p.index()] = d;
    }

    /// Set the total job duration directly.
    pub fn set_total(&mut self, d: Duration) {
        self.total = d;
    }

    /// Mark this breakdown as a pipelined run with the given fused
    /// ingest+map duration.
    pub fn set_fused_ingest_map(&mut self, d: Duration) {
        self.fused_ingest_map = Some(d);
    }

    /// Speedup of `self` relative to `other` on total time
    /// (`other.total / self.total`), i.e. >1 means `self` is faster.
    pub fn total_speedup_vs(&self, other: &PhaseTimings) -> f64 {
        ratio(other.total, self.total)
    }

    /// Speedup on a single phase. For pipelined runs compare the fused
    /// ingest+map against the baseline's ingest+map sum.
    pub fn phase_speedup_vs(&self, other: &PhaseTimings, p: Phase) -> f64 {
        ratio(other.phase(p), self.phase(p))
    }

    /// Speedup of the combined ingest+map span versus a baseline. For a
    /// non-fused run this is the sum of the two phases.
    pub fn ingest_map_speedup_vs(&self, other: &PhaseTimings) -> f64 {
        ratio(other.ingest_map_span(), self.ingest_map_span())
    }

    /// Combined ingest+map wall-clock span.
    pub fn ingest_map_span(&self) -> Duration {
        match self.fused_ingest_map {
            Some(f) => f,
            None => self.durations[Phase::Ingest.index()] + self.durations[Phase::Map.index()],
        }
    }

    /// Render as a Table II-style row: total, read, map, reduce, merge.
    /// Fused runs print the combined read+map figure spanning both columns.
    pub fn table_row(&self, label: &str) -> String {
        let secs = |d: Duration| format!("{:.2}s", d.as_secs_f64());
        if let Some(fused) = self.fused_ingest_map {
            format!(
                "{:<8} {:>10} {:>21} {:>10} {:>10}",
                label,
                secs(self.total),
                format!("{} (read+map)", secs(fused)),
                secs(self.phase(Phase::Reduce)),
                secs(self.phase(Phase::Merge)),
            )
        } else {
            format!(
                "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                label,
                secs(self.total),
                secs(self.phase(Phase::Ingest)),
                secs(self.phase(Phase::Map)),
                secs(self.phase(Phase::Reduce)),
                secs(self.phase(Phase::Merge)),
            )
        }
    }

    /// The header matching [`PhaseTimings::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "", "total", "read", "map", "reduce", "merge"
        )
    }
}

fn ratio(num: Duration, den: Duration) -> f64 {
    let (n, d) = (num.as_secs_f64(), den.as_secs_f64());
    if d == 0.0 {
        if n == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        n / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_have_stable_labels() {
        assert_eq!(Phase::Ingest.label(), "read");
        assert_eq!(Phase::Merge.to_string(), "merge");
        assert_eq!(Phase::ALL.len(), 6);
    }

    #[test]
    fn speedup_ratios() {
        let mut a = PhaseTimings::zero();
        a.set_total(Duration::from_secs(100));
        a.set_phase(Phase::Merge, Duration::from_secs(60));
        let mut b = PhaseTimings::zero();
        b.set_total(Duration::from_secs(50));
        b.set_phase(Phase::Merge, Duration::from_secs(20));
        assert!((b.total_speedup_vs(&a) - 2.0).abs() < 1e-9);
        assert!((b.phase_speedup_vs(&a, Phase::Merge) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ingest_map_span_sums_when_not_fused() {
        let mut t = PhaseTimings::zero();
        t.set_phase(Phase::Ingest, Duration::from_secs(30));
        t.set_phase(Phase::Map, Duration::from_secs(10));
        assert_eq!(t.ingest_map_span(), Duration::from_secs(40));
        t.set_fused_ingest_map(Duration::from_secs(32));
        assert_eq!(t.ingest_map_span(), Duration::from_secs(32));
    }

    #[test]
    fn table_rows_render() {
        let mut t = PhaseTimings::zero();
        t.set_total(Duration::from_secs_f64(471.75));
        t.set_phase(Phase::Ingest, Duration::from_secs_f64(403.90));
        t.set_phase(Phase::Map, Duration::from_secs_f64(67.41));
        let row = t.table_row("none");
        assert!(row.contains("471.75s"));
        assert!(row.contains("403.90s"));
        let mut f = PhaseTimings::zero();
        f.set_fused_ingest_map(Duration::from_secs_f64(406.14));
        let frow = f.table_row("1GB");
        assert!(frow.contains("read+map"));
        assert!(PhaseTimings::table_header().contains("reduce"));
    }

    #[test]
    fn zero_division_speedup_is_defined() {
        let a = PhaseTimings::zero();
        let b = PhaseTimings::zero();
        assert_eq!(a.total_speedup_vs(&b), 1.0);
        let mut c = PhaseTimings::zero();
        c.set_total(Duration::from_secs(1));
        assert_eq!(c.phase_speedup_vs(&a, Phase::Map), 1.0);
    }
}
