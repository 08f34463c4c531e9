//! CPU-utilization traces — the data behind every figure in the paper.
//!
//! A trace is a time series of [`UtilSample`]s: at wall-clock second `t`,
//! what percentage of the machine's hardware contexts were executing
//! user-space code, kernel code, or were blocked waiting for IO. The paper
//! collects these with `collectl`; we produce identical series either from
//! `/proc/stat` sampling ([`crate::sampler`]) or exactly from the
//! simulator's event timeline.

use std::fmt::Write as _;

/// One utilization sample. Components are percentages of total machine
/// capacity in `[0, 100]`; they need not sum to 100 (the remainder is idle).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilSample {
    /// Seconds since the trace began.
    pub t: f64,
    /// % of capacity running user-space code.
    pub user: f64,
    /// % of capacity running kernel code.
    pub sys: f64,
    /// % of capacity blocked waiting for IO.
    pub iowait: f64,
}

impl UtilSample {
    /// Total non-idle percentage (user + sys + iowait), the quantity the
    /// paper's y-axes show.
    pub fn total(&self) -> f64 {
        self.user + self.sys + self.iowait
    }

    /// CPU-busy percentage (user + sys), excluding IO wait.
    pub fn busy(&self) -> f64 {
        self.user + self.sys
    }
}

/// A labelled point on the time axis (phase boundaries in the figures).
#[derive(Debug, Clone, PartialEq)]
pub struct Mark {
    /// Seconds since the trace began.
    pub t: f64,
    /// Label, e.g. `"merge begins"`.
    pub label: String,
}

/// A utilization trace: ordered samples plus optional phase marks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilTrace {
    samples: Vec<UtilSample>,
    marks: Vec<Mark>,
    unavailable: bool,
}

impl UtilTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An explicit "no utilization source" marker: the sampler ran but
    /// `/proc/stat` was unreachable (non-Linux hosts, restricted
    /// sandboxes). Distinguishable from a legitimately empty trace so
    /// `JobReport` JSON can say *why* the series is missing.
    pub fn unavailable() -> Self {
        UtilTrace { samples: Vec::new(), marks: Vec::new(), unavailable: true }
    }

    /// True if this trace is the [`UtilTrace::unavailable`] marker.
    pub fn is_unavailable(&self) -> bool {
        self.unavailable
    }

    /// Build from raw samples (must be in nondecreasing time order).
    ///
    /// # Panics
    /// Panics if sample times decrease.
    pub fn from_samples(samples: Vec<UtilSample>) -> Self {
        for w in samples.windows(2) {
            assert!(w[0].t <= w[1].t, "trace samples out of order: {} then {}", w[0].t, w[1].t);
        }
        UtilTrace { samples, marks: Vec::new(), unavailable: false }
    }

    /// Append a sample; time must not decrease.
    pub fn push(&mut self, s: UtilSample) {
        if let Some(last) = self.samples.last() {
            assert!(s.t >= last.t, "sample time went backwards");
        }
        self.samples.push(s);
    }

    /// Annotate a phase boundary.
    pub fn mark(&mut self, t: f64, label: impl Into<String>) {
        self.marks.push(Mark { t, label: label.into() });
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[UtilSample] {
        &self.samples
    }

    /// All phase marks.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Trace duration in seconds (time of last sample, 0 if empty).
    pub fn duration(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.t)
    }

    /// Time-weighted average of total utilization over the whole trace
    /// (trapezoidal). Returns 0 for traces with fewer than 2 samples.
    pub fn mean_total_utilization(&self) -> f64 {
        self.mean_over(|s| s.total())
    }

    /// Time-weighted average of CPU-busy (user+sys) utilization.
    pub fn mean_busy_utilization(&self) -> f64 {
        self.mean_over(|s| s.busy())
    }

    fn mean_over(&self, f: impl Fn(&UtilSample) -> f64) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mut area = 0.0;
        for w in self.samples.windows(2) {
            let dt = w[1].t - w[0].t;
            area += dt * (f(&w[0]) + f(&w[1])) / 2.0;
        }
        let span = self.duration() - self.samples[0].t;
        if span > 0.0 {
            area / span
        } else {
            0.0
        }
    }

    /// Peak total utilization.
    pub fn peak_total(&self) -> f64 {
        self.samples.iter().map(|s| s.total()).fold(0.0, f64::max)
    }

    /// Resample the trace onto a regular grid with `step` seconds between
    /// points (sample-and-hold of the most recent sample), which is what a
    /// fixed-interval monitor like collectl reports.
    ///
    /// # Panics
    /// Panics if `step` is not positive.
    pub fn resample(&self, step: f64) -> UtilTrace {
        assert!(step > 0.0, "resample step must be positive");
        if self.samples.is_empty() {
            return UtilTrace::new();
        }
        let end = self.duration();
        let mut out = Vec::new();
        let mut idx = 0;
        let mut t = self.samples[0].t;
        while t <= end + 1e-9 {
            while idx + 1 < self.samples.len() && self.samples[idx + 1].t <= t + 1e-9 {
                idx += 1;
            }
            let s = self.samples[idx];
            out.push(UtilSample { t, ..s });
            t += step;
        }
        UtilTrace { samples: out, marks: self.marks.clone(), unavailable: self.unavailable }
    }

    /// Render as CSV with header `t,user,sys,iowait,total`.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("t,user,sys,iowait,total\n");
        for p in &self.samples {
            let _ = writeln!(
                s,
                "{:.3},{:.2},{:.2},{:.2},{:.2}",
                p.t,
                p.user,
                p.sys,
                p.iowait,
                p.total()
            );
        }
        s
    }
}

/// Shape similarity between two traces: resample both onto `points`
/// normalized-time samples and return the Pearson correlation of their
/// total-utilization series, in `[-1, 1]`.
///
/// This is how the reproduction cross-checks the simulator against real
/// executions — absolute durations differ by orders of magnitude across
/// machines, but the *shape* (troughs, spikes, step-downs) must agree.
///
/// Returns `None` if either trace is empty or has zero variance.
pub fn shape_correlation(a: &UtilTrace, b: &UtilTrace, points: usize) -> Option<f64> {
    let series = |t: &UtilTrace| -> Option<Vec<f64>> {
        let samples = t.samples();
        if samples.is_empty() || points < 2 {
            return None;
        }
        let t0 = samples[0].t;
        let span = (t.duration() - t0).max(f64::EPSILON);
        let mut out = Vec::with_capacity(points);
        let mut idx = 0;
        for p in 0..points {
            let at = t0 + span * p as f64 / (points - 1) as f64;
            while idx + 1 < samples.len() && samples[idx + 1].t <= at {
                idx += 1;
            }
            out.push(samples[idx].total());
        }
        Some(out)
    };
    let xs = series(a)?;
    let ys = series(b)?;
    let n = points as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= f64::EPSILON || vy <= f64::EPSILON {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Incrementally builds a trace from busy-capacity intervals, used by the
/// simulator: report, for `[t0, t1)`, how many contexts were doing user
/// work, kernel work, and how many tasks were blocked on IO; the builder
/// turns that into percentage samples.
#[derive(Debug)]
pub struct TraceBuilder {
    contexts: f64,
    trace: UtilTrace,
}

impl TraceBuilder {
    /// `contexts` is the machine's total hardware context count (the 100%
    /// line).
    ///
    /// # Panics
    /// Panics if `contexts` is zero.
    pub fn new(contexts: usize) -> Self {
        assert!(contexts > 0, "machine must have at least one context");
        TraceBuilder { contexts: contexts as f64, trace: UtilTrace::new() }
    }

    /// Record that over `[t0, t1)` `user_busy` contexts ran user code,
    /// `sys_busy` ran kernel code and `io_blocked` tasks were in IO wait.
    /// Emits a step function (two samples per interval).
    pub fn interval(&mut self, t0: f64, t1: f64, user_busy: f64, sys_busy: f64, io_blocked: f64) {
        if t1 <= t0 {
            return;
        }
        let pct = |x: f64| (x / self.contexts * 100.0).min(100.0);
        let s =
            UtilSample { t: t0, user: pct(user_busy), sys: pct(sys_busy), iowait: pct(io_blocked) };
        self.trace.push(s);
        self.trace.push(UtilSample { t: t1, ..s });
    }

    /// Annotate a phase boundary.
    pub fn mark(&mut self, t: f64, label: impl Into<String>) {
        self.trace.mark(t, label);
    }

    /// Finish and return the trace.
    pub fn build(self) -> UtilTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, user: f64, sys: f64, iowait: f64) -> UtilSample {
        UtilSample { t, user, sys, iowait }
    }

    #[test]
    fn total_and_busy() {
        let s = sample(0.0, 50.0, 10.0, 25.0);
        assert_eq!(s.total(), 85.0);
        assert_eq!(s.busy(), 60.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_samples_rejects_disorder() {
        UtilTrace::from_samples(vec![sample(1.0, 0.0, 0.0, 0.0), sample(0.5, 0.0, 0.0, 0.0)]);
    }

    #[test]
    fn mean_utilization_trapezoid() {
        // 100% for 1s then 0% for 1s => mean 50% (with step transitions).
        let t = UtilTrace::from_samples(vec![
            sample(0.0, 100.0, 0.0, 0.0),
            sample(1.0, 100.0, 0.0, 0.0),
            sample(1.0, 0.0, 0.0, 0.0),
            sample(2.0, 0.0, 0.0, 0.0),
        ]);
        assert!((t.mean_total_utilization() - 50.0).abs() < 1e-9);
        assert_eq!(t.peak_total(), 100.0);
        assert_eq!(t.duration(), 2.0);
    }

    #[test]
    fn resample_holds_last_value() {
        let t = UtilTrace::from_samples(vec![
            sample(0.0, 10.0, 0.0, 0.0),
            sample(2.0, 10.0, 0.0, 0.0),
            sample(2.0, 80.0, 0.0, 0.0),
            sample(4.0, 80.0, 0.0, 0.0),
        ]);
        let r = t.resample(1.0);
        let vals: Vec<f64> = r.samples().iter().map(|s| s.user).collect();
        assert_eq!(vals, vec![10.0, 10.0, 80.0, 80.0, 80.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn resample_rejects_zero_step() {
        UtilTrace::new().resample(0.0);
    }

    #[test]
    fn csv_rendering() {
        let mut t = UtilTrace::new();
        t.push(sample(0.0, 12.5, 2.5, 10.0));
        let csv = t.to_csv();
        assert!(csv.starts_with("t,user,sys,iowait,total\n"));
        assert!(csv.contains("0.000,12.50,2.50,10.00,25.00"));
    }

    #[test]
    fn builder_produces_percentages_of_capacity() {
        let mut b = TraceBuilder::new(32);
        b.interval(0.0, 10.0, 16.0, 0.0, 8.0);
        b.interval(10.0, 12.0, 32.0, 0.0, 0.0);
        b.mark(10.0, "merge begins");
        let t = b.build();
        assert_eq!(t.samples()[0].user, 50.0);
        assert_eq!(t.samples()[0].iowait, 25.0);
        assert_eq!(t.samples()[2].user, 100.0);
        assert_eq!(t.marks().len(), 1);
        // Over-capacity reports clamp at 100%.
        let mut b2 = TraceBuilder::new(4);
        b2.interval(0.0, 1.0, 8.0, 0.0, 0.0);
        assert_eq!(b2.build().samples()[0].user, 100.0);
    }

    #[test]
    fn builder_skips_empty_intervals() {
        let mut b = TraceBuilder::new(1);
        b.interval(5.0, 5.0, 1.0, 0.0, 0.0);
        assert!(b.build().samples().is_empty());
    }

    #[test]
    fn shape_correlation_identical_traces_is_one() {
        let t = trace_of(&[(0.0, 10.0), (5.0, 90.0), (10.0, 10.0)]);
        let r = shape_correlation(&t, &t, 50).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shape_correlation_is_timescale_invariant() {
        // Same shape, 100x the duration: still correlation 1.
        let a = trace_of(&[(0.0, 10.0), (5.0, 90.0), (10.0, 10.0)]);
        let b = trace_of(&[(0.0, 10.0), (500.0, 90.0), (1000.0, 10.0)]);
        let r = shape_correlation(&a, &b, 64).unwrap();
        assert!(r > 0.99, "r = {r}");
    }

    #[test]
    fn shape_correlation_detects_opposite_shapes() {
        let rising = trace_of(&[(0.0, 0.0), (5.0, 50.0), (10.0, 100.0)]);
        let falling = trace_of(&[(0.0, 100.0), (5.0, 50.0), (10.0, 0.0)]);
        let r = shape_correlation(&rising, &falling, 64).unwrap();
        assert!(r < -0.9, "r = {r}");
    }

    #[test]
    fn shape_correlation_degenerate_cases() {
        let flat = trace_of(&[(0.0, 50.0), (10.0, 50.0)]);
        let varied = trace_of(&[(0.0, 0.0), (10.0, 100.0)]);
        assert!(shape_correlation(&flat, &varied, 32).is_none(), "zero variance");
        assert!(shape_correlation(&UtilTrace::new(), &varied, 32).is_none(), "empty");
        assert!(shape_correlation(&varied, &varied, 1).is_none(), "too few points");
    }

    fn trace_of(points: &[(f64, f64)]) -> UtilTrace {
        UtilTrace::from_samples(points.iter().map(|&(t, u)| sample(t, u, 0.0, 0.0)).collect())
    }

    #[test]
    fn push_rejects_backwards_time() {
        let mut t = UtilTrace::new();
        t.push(sample(1.0, 0.0, 0.0, 0.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.push(sample(0.0, 0.0, 0.0, 0.0));
        }));
        assert!(result.is_err());
    }
}
