//! Order statistics over small samples.

use crate::spec::Better;

/// Median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q` quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The best of `values` in the direction of `better`: interference on a
/// shared machine only ever adds time, so the best repetition is the one
/// least disturbed (README.md, "Why the best repetition").
pub fn best(values: impl Iterator<Item = f64>, better: Better) -> f64 {
    match better {
        Better::Lower => values.fold(f64::INFINITY, f64::min),
        Better::Higher => values.fold(0.0, f64::max),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so a spread computed here is the
/// number the driver computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// values or for a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[3.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.5), 15.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }
}
