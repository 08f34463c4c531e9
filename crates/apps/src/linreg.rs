//! Linear regression — partial sums into a five-slot array container.
//!
//! The Phoenix linear-regression application: the input is a stream of
//! `x y\n` samples, the map phase accumulates the five sufficient
//! statistics (n, Σx, Σy, Σx², Σxy) and the fit is computed from the
//! five reduced values. The intermediate set is five keys regardless of
//! input size — the extreme end of the combining spectrum.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::ArrayContainer;
use supmr::KeyPrefix;

/// Statistic slot indices.
pub const N: usize = 0;
/// Σx slot.
pub const SUM_X: usize = 1;
/// Σy slot.
pub const SUM_Y: usize = 2;
/// Σx² slot.
pub const SUM_XX: usize = 3;
/// Σxy slot.
pub const SUM_XY: usize = 4;
const SLOTS: usize = 5;

/// Least-squares linear regression over `x y` text lines.
#[derive(Debug, Clone, Default)]
pub struct LinearRegression;

impl LinearRegression {
    /// A new regression job.
    pub fn new() -> LinearRegression {
        LinearRegression
    }
}

/// An ordered-by-bits wrapper so `f64` sums can live in the `Ord`-keyed
/// runtime plumbing. Not NaN-safe by design: regression sums of finite
/// inputs stay finite.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat(pub f64);

impl std::ops::AddAssign for Stat {
    fn add_assign(&mut self, rhs: Stat) {
        self.0 += rhs.0;
    }
}

impl MapReduce for LinearRegression {
    type Key = usize;
    type Value = Stat;
    type Combiner = Sum;
    type Output = Stat;
    type Container = ArrayContainer<Stat, Sum>;

    fn make_container(&self) -> Self::Container {
        ArrayContainer::new(SLOTS)
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<usize, Stat>) {
        for line in split.split(|&b| b == b'\n') {
            let mut fields = line
                .split(|b| b.is_ascii_whitespace())
                .filter(|f| !f.is_empty())
                .filter_map(|f| std::str::from_utf8(f).ok())
                .filter_map(|f| f.parse::<f64>().ok());
            let (Some(x), Some(y)) = (fields.next(), fields.next()) else {
                continue; // malformed lines are skipped, not fatal
            };
            emit.emit(N, Stat(1.0));
            emit.emit(SUM_X, Stat(x));
            emit.emit(SUM_Y, Stat(y));
            emit.emit(SUM_XX, Stat(x * x));
            emit.emit(SUM_XY, Stat(x * y));
        }
    }

    fn reduce(&self, _key: &usize, acc: Stat) -> Stat {
        acc
    }

    fn key_prefix(&self, key: &usize) -> u64 {
        key.key_prefix()
    }
}

/// The fitted line `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Slope of the least-squares line.
    pub slope: f64,
    /// Intercept of the least-squares line.
    pub intercept: f64,
    /// Number of samples.
    pub n: u64,
}

/// Compute the fit from a finished job's output pairs.
/// Returns `None` for degenerate inputs (fewer than 2 samples or zero
/// x-variance).
pub fn fit(pairs: &[(usize, Stat)]) -> Option<Fit> {
    let mut stats = [0.0f64; SLOTS];
    for (k, Stat(v)) in pairs {
        if *k < SLOTS {
            stats[*k] += v;
        }
    }
    let n = stats[N];
    if n < 2.0 {
        return None;
    }
    let denom = n * stats[SUM_XX] - stats[SUM_X] * stats[SUM_X];
    if denom.abs() < f64::EPSILON * n {
        return None;
    }
    let slope = (n * stats[SUM_XY] - stats[SUM_X] * stats[SUM_Y]) / denom;
    let intercept = (stats[SUM_Y] - slope * stats[SUM_X]) / n;
    Some(Fit { slope, intercept, n: n as u64 })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use supmr::runtime::{Input, Job, JobConfig};
    use supmr::Chunking;
    use supmr_storage::MemSource;

    fn samples(slope: f64, intercept: f64, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            let x = i as f64 / 10.0;
            let y = slope * x + intercept;
            out.extend_from_slice(format!("{x} {y}\n").as_bytes());
        }
        out
    }

    #[test]
    fn recovers_exact_line() {
        let data = samples(2.5, -1.0, 1000);
        let r =
            Job::new(LinearRegression::new()).run(Input::stream(MemSource::from(data))).unwrap();
        let f = fit(&r.pairs).unwrap();
        assert_eq!(f.n, 1000);
        assert!((f.slope - 2.5).abs() < 1e-9, "slope = {}", f.slope);
        assert!((f.intercept + 1.0).abs() < 1e-9, "intercept = {}", f.intercept);
    }

    #[test]
    fn chunked_pipeline_gives_same_fit() {
        let data = samples(0.5, 3.0, 2000);
        let mut config = JobConfig::default();
        config.chunking = Chunking::Inter { chunk_bytes: 512 };
        let r = Job::new(LinearRegression::new())
            .config(config)
            .run(Input::stream(MemSource::from(data)))
            .unwrap();
        let f = fit(&r.pairs).unwrap();
        assert!((f.slope - 0.5).abs() < 1e-9);
        assert!((f.intercept - 3.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let data = b"1 2\nnot numbers\n3\n2 4\n".to_vec();
        let r =
            Job::new(LinearRegression::new()).run(Input::stream(MemSource::from(data))).unwrap();
        let f = fit(&r.pairs).unwrap();
        assert_eq!(f.n, 2);
        assert!((f.slope - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_have_no_fit() {
        assert!(fit(&[]).is_none());
        // One sample.
        assert!(fit(&[(N, Stat(1.0)), (SUM_X, Stat(1.0))]).is_none());
        // Zero x-variance: all x equal.
        let r = Job::new(LinearRegression::new())
            .run(Input::stream(MemSource::from(b"1 2\n1 3\n1 4\n".to_vec())))
            .unwrap();
        assert!(fit(&r.pairs).is_none());
    }
}
