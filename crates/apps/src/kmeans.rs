//! KMeans — iterative MapReduce on the scale-up runtime.
//!
//! The related-work section's iterative frameworks (Twister, HaLoop)
//! exist because MapReduce jobs like kmeans run the same map/reduce
//! pair many times; SupMR borrows their persistent-container idea for
//! its multi-round map phase. This application closes the loop the
//! other way: the kmeans *driver* launches one SupMR job per iteration
//! — re-ingesting through the chunk pipeline each time — so the ingest
//! optimization compounds once per iteration, which is exactly the
//! scenario where a pipeline's per-pass savings multiply.
//!
//! Each map task assigns its points to the nearest current centroid
//! and emits partial sums `(cluster, (Σx, Σy, n))` into a dense array
//! container; the driver recomputes centroids from the k reduced
//! values and iterates to convergence.

use std::io;
use std::sync::{Arc, Mutex};
use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::ArrayContainer;
use supmr::runtime::{Input, JobConfig, JobReport, Pipeline, Stage};
use supmr::{KeyPrefix, SupmrError};

/// Partial sums for one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterSum {
    /// Σx of assigned points.
    pub sum_x: f64,
    /// Σy of assigned points.
    pub sum_y: f64,
    /// Number of assigned points.
    pub n: u64,
}

impl std::ops::AddAssign for ClusterSum {
    fn add_assign(&mut self, rhs: ClusterSum) {
        self.sum_x += rhs.sum_x;
        self.sum_y += rhs.sum_y;
        self.n += rhs.n;
    }
}

/// One kmeans assignment pass as a MapReduce job.
#[derive(Debug, Clone)]
pub struct KMeansStep {
    centroids: Vec<(f64, f64)>,
}

impl KMeansStep {
    /// A step assigning to the given centroids.
    ///
    /// # Panics
    /// Panics if `centroids` is empty.
    pub fn new(centroids: Vec<(f64, f64)>) -> KMeansStep {
        assert!(!centroids.is_empty(), "kmeans needs at least one centroid");
        KMeansStep { centroids }
    }

    fn nearest(&self, x: f64, y: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &(cx, cy)) in self.centroids.iter().enumerate() {
            let d = (x - cx).powi(2) + (y - cy).powi(2);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl MapReduce for KMeansStep {
    type Key = usize;
    type Value = ClusterSum;
    type Combiner = Sum;
    type Output = ClusterSum;
    type Container = ArrayContainer<ClusterSum, Sum>;

    fn make_container(&self) -> Self::Container {
        ArrayContainer::new(self.centroids.len())
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<usize, ClusterSum>) {
        for line in split.split(|&b| b == b'\n') {
            let mut fields = line
                .split(|b| b.is_ascii_whitespace())
                .filter(|f| !f.is_empty())
                .filter_map(|f| std::str::from_utf8(f).ok())
                .filter_map(|f| f.parse::<f64>().ok());
            let (Some(x), Some(y)) = (fields.next(), fields.next()) else {
                continue;
            };
            emit.emit(self.nearest(x, y), ClusterSum { sum_x: x, sum_y: y, n: 1 });
        }
    }

    fn reduce(&self, _key: &usize, acc: ClusterSum) -> ClusterSum {
        acc
    }

    fn key_prefix(&self, key: &usize) -> u64 {
        key.key_prefix()
    }
}

/// Result of a full kmeans run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids.
    pub centroids: Vec<(f64, f64)>,
    /// Iterations executed (≤ the configured maximum).
    pub iterations: usize,
    /// Whether the final iteration moved every centroid less than the
    /// tolerance.
    pub converged: bool,
    /// Total points assigned in the final iteration.
    pub points: u64,
    /// The pipeline's aggregated report: totals across all iterations,
    /// with [`JobReport::stages`] carrying one entry per pass.
    pub report: JobReport,
}

/// Driver state shared between the per-iteration step factory and the
/// convergence predicate of the iterative pipeline.
#[derive(Debug)]
struct KMeansState {
    centroids: Vec<(f64, f64)>,
    converged: bool,
    points: u64,
}

/// Run kmeans to convergence as an iterative single-stage
/// [`Pipeline`]: [`Stage::from_factory`] re-parameterizes the
/// assignment step with the current centroids each pass,
/// [`Stage::input_with`] re-opens the point corpus through `make_input`
/// (the driver re-ingests each pass, as a real out-of-core job would),
/// and [`Pipeline::until`] recomputes centroids from the reduced
/// cluster sums and stops once every centroid moves less than
/// `tolerance`.
///
/// # Errors
/// Propagates [`supmr::SupmrError`]s from each iteration's job, plus
/// failures to rebuild the input between iterations (as ingest errors).
pub fn run_kmeans(
    mut make_input: impl FnMut() -> io::Result<Input> + Send + 'static,
    initial_centroids: Vec<(f64, f64)>,
    config: &JobConfig,
    max_iterations: usize,
    tolerance: f64,
) -> supmr::Result<KMeansResult> {
    assert!(!initial_centroids.is_empty(), "kmeans needs at least one centroid");
    if max_iterations == 0 {
        return Ok(KMeansResult {
            centroids: initial_centroids,
            iterations: 0,
            converged: false,
            points: 0,
            report: JobReport::default(),
        });
    }
    let state = Arc::new(Mutex::new(KMeansState {
        centroids: initial_centroids,
        converged: false,
        points: 0,
    }));

    let step_state = Arc::clone(&state);
    let mut p: Pipeline<usize, ClusterSum> = Pipeline::new();
    p.stage(
        Stage::from_factory("assign", move |_| {
            KMeansStep::new(step_state.lock().unwrap().centroids.clone())
        })
        .input_with(move |_| make_input().map_err(SupmrError::from)),
    );

    let pred_state = Arc::clone(&state);
    let result =
        p.config(config.clone())
            .until(move |report| {
                let mut st = pred_state.lock().unwrap();
                st.points = report.pairs.iter().map(|(_, s)| s.n).sum();
                let mut next = st.centroids.clone();
                for (cluster, sum) in report.pairs {
                    if sum.n > 0 {
                        next[*cluster] = (sum.sum_x / sum.n as f64, sum.sum_y / sum.n as f64);
                    }
                    // Empty clusters keep their previous centroid.
                }
                st.converged =
                    st.centroids.iter().zip(&next).all(|(a, b)| {
                        ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt() < tolerance
                    });
                st.centroids = next;
                st.converged
            })
            .max_iterations(max_iterations as u64)
            .run()?;

    let st = state.lock().unwrap();
    Ok(KMeansResult {
        centroids: st.centroids.clone(),
        iterations: result.iterations as usize,
        converged: st.converged,
        points: st.points,
        report: result.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use supmr::Chunking;
    use supmr_storage::MemSource;
    use supmr_workloads::points::{clustered_points, true_centers, PointsConfig};

    fn config() -> JobConfig {
        JobConfig { map_workers: 3, reduce_workers: 2, split_bytes: 8192, ..JobConfig::default() }
    }

    fn match_centers(found: &[(f64, f64)], truth: &[(f64, f64)], tol: f64) {
        for &(tx, ty) in truth {
            let nearest = found
                .iter()
                .map(|&(x, y)| ((x - tx).powi(2) + (y - ty).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < tol, "no centroid near ({tx},{ty}), best {nearest}");
        }
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let pc = PointsConfig { clusters: 3, points_per_cluster: 300, ..Default::default() };
        let data = clustered_points(11, &pc);
        let truth = true_centers(&pc);
        // Start centroids near (but not at) the truth so label
        // correspondence is deterministic.
        let init: Vec<(f64, f64)> = truth.iter().map(|&(x, y)| (x + 1.0, y - 1.0)).collect();
        let result = run_kmeans(
            move || Ok(Input::stream(MemSource::from(data.clone()))),
            init,
            &config(),
            30,
            1e-6,
        )
        .unwrap();
        assert!(result.converged, "did not converge in {} iterations", result.iterations);
        assert_eq!(result.points, 900);
        match_centers(&result.centroids, &truth, 0.2);
        assert_eq!(
            result.report.stages.len(),
            result.iterations,
            "the pipeline reports one stage execution per pass"
        );
        assert!(result.report.stats.map_tasks > 0, "aggregated counters are populated");
    }

    #[test]
    fn chunked_iterations_give_same_centroids() {
        let pc = PointsConfig { clusters: 2, points_per_cluster: 200, ..Default::default() };
        let data = clustered_points(5, &pc);
        let init = vec![(1.0, 0.0), (-1.0, 0.0)];
        let base_data = data.clone();
        let base = run_kmeans(
            move || Ok(Input::stream(MemSource::from(base_data.clone()))),
            init.clone(),
            &config(),
            20,
            1e-9,
        )
        .unwrap();
        let mut chunked_config = config();
        chunked_config.chunking = Chunking::Inter { chunk_bytes: 4096 };
        let chunked = run_kmeans(
            move || Ok(Input::stream(MemSource::from(data.clone()))),
            init,
            &chunked_config,
            20,
            1e-9,
        )
        .unwrap();
        assert_eq!(base.iterations, chunked.iterations);
        for (a, b) in base.centroids.iter().zip(&chunked.centroids) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_cluster_keeps_its_centroid() {
        // Two points, three centroids: one centroid never gets points.
        let data = b"0 0\n0.5 0\n".to_vec();
        let init = vec![(0.0, 0.0), (100.0, 100.0), (0.6, 0.0)];
        let result = run_kmeans(
            move || Ok(Input::stream(MemSource::from(data.clone()))),
            init,
            &config(),
            5,
            1e-9,
        )
        .unwrap();
        assert_eq!(result.centroids[1], (100.0, 100.0), "empty cluster must not move");
        assert_eq!(result.points, 2);
    }

    #[test]
    fn single_iteration_cap_is_respected() {
        let data = b"0 0\n10 10\n".to_vec();
        let result = run_kmeans(
            move || Ok(Input::stream(MemSource::from(data.clone()))),
            vec![(5.0, 5.0)],
            &config(),
            1,
            1e-12,
        )
        .unwrap();
        assert_eq!(result.iterations, 1);
        assert!((result.centroids[0].0 - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one centroid")]
    fn empty_centroids_rejected() {
        KMeansStep::new(vec![]);
    }
}
