//! Small summary statistics.
//!
//! The paper runs each experiment three times and reports the average;
//! [`Summary`] provides that plus the dispersion measures a careful
//! reproduction should report alongside it.

/// Summary statistics over a set of f64 observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    min: f64,
    max: f64,
    stdev: f64,
    median: f64,
}

impl Summary {
    /// Compute a summary. Returns `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Some(Summary { n, mean, min: sorted[0], max: sorted[n - 1], stdev: var.sqrt(), median })
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }
    /// Arithmetic mean — what the paper reports.
    pub fn mean(&self) -> f64 {
        self.mean
    }
    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }
    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }
    /// Sample standard deviation (0 for a single observation).
    pub fn stdev(&self) -> f64 {
        self.stdev
    }
    /// Median observation.
    pub fn median(&self) -> f64 {
        self.median
    }

    /// `mean ± stdev` rendering used in experiment reports.
    pub fn display(&self) -> String {
        format!("{:.2} ± {:.2} (n={})", self.mean, self.stdev, self.n)
    }
}

/// Linear-interpolated percentile of a sample set (`q` in `[0, 100]`).
/// Returns `None` for empty input or out-of-range `q`.
///
/// ```
/// use supmr_metrics::stats::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// ```
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slice_has_no_summary() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.stdev(), 0.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.n(), 1);
    }

    #[test]
    fn three_run_average_like_the_paper() {
        let s = Summary::of(&[470.0, 472.0, 473.25]).unwrap();
        assert!((s.mean() - 471.75).abs() < 1e-9);
        assert_eq!(s.min(), 470.0);
        assert_eq!(s.max(), 473.25);
        assert_eq!(s.median(), 472.0);
        assert!(s.stdev() > 0.0);
    }

    #[test]
    fn even_count_median_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn display_contains_mean_and_n() {
        let s = Summary::of(&[2.0, 4.0]).unwrap();
        let d = s.display();
        assert!(d.contains("3.00"));
        assert!(d.contains("n=2"));
    }

    #[test]
    fn percentile_edges_and_interpolation() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 50.0), Some(20.0));
        assert_eq!(percentile(&xs, 75.0), Some(25.0));
        assert_eq!(percentile(&xs, 100.0), Some(30.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, 101.0), None);
        assert_eq!(percentile(&xs, -0.1), None);
    }

    #[test]
    fn stdev_matches_known_value() {
        // Sample stdev of {2, 4, 4, 4, 5, 5, 7, 9} is ~2.138.
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.stdev() - 2.13809).abs() < 1e-4);
    }
}
