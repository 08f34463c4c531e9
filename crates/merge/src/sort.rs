//! Parallel sorting built from chunk sorts plus a merge backend.
//!
//! Both sides of the paper's merge comparison sort the same way —
//! partition the data into runs and sort runs in parallel — and differ
//! only in how the sorted runs are combined:
//!
//! * [`MergeBackend::PairwiseRounds`] — the stock runtime's iterative
//!   2-way rounds (the Fig. 1 step curve).
//! * [`MergeBackend::PWay`] — SupMR's single-round p-way merge (what
//!   `__gnu_parallel::sort` does after its local sorts).

use crate::kway::{merge_runs, KwayStats};
use crate::pairwise::{pairwise_rounds, PairwiseStats};
use crate::run::{Natural, SortedRun};
use crate::{ScopedThreads, Workers};

/// How sorted runs are combined into the final array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeBackend {
    /// Iterative 2-way merge rounds with halving parallelism (baseline).
    PairwiseRounds,
    /// Single-pass parallel p-way merge with the given way count
    /// (SupMR / OpenMP-style).
    PWay {
        /// Number of parallel output partitions.
        ways: usize,
    },
}

/// Work counters from a [`parallel_sort`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortStats {
    /// Number of sorted runs produced before merging.
    pub runs: usize,
    /// Merge rounds executed (1 for p-way, ⌈log₂ runs⌉ for pairwise).
    pub merge_rounds: u32,
    /// Elements written during merging, across all rounds.
    pub merge_elements_moved: u64,
    /// Key comparisons during merging.
    pub merge_comparisons: u64,
}

impl SortStats {
    fn from_pairwise(runs: usize, s: &PairwiseStats) -> SortStats {
        SortStats {
            runs,
            merge_rounds: s.rounds,
            merge_elements_moved: s.elements_moved,
            merge_comparisons: s.comparisons,
        }
    }

    fn from_kway(runs: usize, s: &KwayStats) -> SortStats {
        SortStats {
            runs,
            merge_rounds: u32::from(runs > 1),
            merge_elements_moved: s.elements_moved,
            merge_comparisons: s.comparisons,
        }
    }
}

/// Sort `data` by splitting it into `run_count` runs, sorting runs in
/// parallel, and combining them with `backend`, all on [`ScopedThreads`].
///
/// `run_count` models the number of worker threads the paper's runtimes
/// would use (e.g. 32 hardware contexts); it is independent of how many
/// threads actually run, so work-counter experiments are
/// machine-independent.
///
/// # Panics
/// Panics if `run_count == 0`.
pub fn parallel_sort<T>(
    mut data: Vec<T>,
    run_count: usize,
    backend: MergeBackend,
) -> (Vec<T>, SortStats)
where
    T: Ord + Send + Sync,
{
    assert!(run_count > 0, "need at least one run");
    let n = data.len();
    if n <= 1 {
        return (data, SortStats { runs: usize::from(n == 1), ..SortStats::default() });
    }

    // Split into near-equal runs — by move, from the tail, so the cuts
    // fall where `chunks(run_len)` would put them — and sort each in
    // parallel with the one run sort, which both backends then consume.
    let run_len = n.div_ceil(run_count.min(n));
    let mut chunks = Vec::with_capacity(n.div_ceil(run_len));
    while data.len() > run_len {
        chunks.push(data.split_off((data.len() - 1) / run_len * run_len));
    }
    chunks.push(data);
    chunks.reverse();
    let workers = ScopedThreads::available();
    let runs = workers.run(chunks, |run| SortedRun::sort(run, &Natural));
    let run_total = runs.len();

    match backend {
        MergeBackend::PairwiseRounds => {
            let (out, stats) = pairwise_rounds(runs, &Natural, &workers);
            (out, SortStats::from_pairwise(run_total, &stats))
        }
        MergeBackend::PWay { ways } => {
            let (out, stats) = merge_runs(runs, &Natural, ways.max(1), &workers);
            (out, SortStats::from_kway(run_total, &stats))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
    }

    #[test]
    fn both_backends_sort_correctly() {
        let data = random_data(10_000, 7);
        let mut expected = data.clone();
        expected.sort();
        for backend in [MergeBackend::PairwiseRounds, MergeBackend::PWay { ways: 4 }] {
            let (out, _) = parallel_sort(data.clone(), 16, backend);
            assert_eq!(out, expected, "{backend:?}");
        }
    }

    #[test]
    fn empty_and_single() {
        let (out, stats) = parallel_sort(Vec::<u64>::new(), 8, MergeBackend::PWay { ways: 4 });
        assert!(out.is_empty());
        assert_eq!(stats.runs, 0);
        let (out, stats) = parallel_sort(vec![42u64], 8, MergeBackend::PairwiseRounds);
        assert_eq!(out, vec![42]);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.merge_rounds, 0);
    }

    #[test]
    fn pway_uses_one_round_pairwise_uses_log() {
        let data = random_data(4096, 3);
        let (_, pw) = parallel_sort(data.clone(), 16, MergeBackend::PairwiseRounds);
        let (_, kw) = parallel_sort(data, 16, MergeBackend::PWay { ways: 8 });
        assert_eq!(pw.runs, 16);
        assert_eq!(kw.runs, 16);
        assert_eq!(pw.merge_rounds, 4); // log2(16)
        assert_eq!(kw.merge_rounds, 1);
        // log-factor more data movement for the baseline.
        assert_eq!(pw.merge_elements_moved, 4096 * 4);
        assert_eq!(kw.merge_elements_moved, 4096);
    }

    #[test]
    fn run_count_larger_than_data() {
        let (out, stats) = parallel_sort(vec![3u8, 1, 2], 64, MergeBackend::PWay { ways: 8 });
        assert_eq!(out, vec![1, 2, 3]);
        assert!(stats.runs <= 3);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        parallel_sort(vec![1u8], 0, MergeBackend::PairwiseRounds);
    }

    #[test]
    fn presorted_and_reverse_inputs() {
        let asc: Vec<u32> = (0..5000).collect();
        let desc: Vec<u32> = (0..5000).rev().collect();
        for data in [asc.clone(), desc] {
            let (out, _) = parallel_sort(data, 8, MergeBackend::PWay { ways: 4 });
            assert_eq!(out, asc);
        }
    }
}
