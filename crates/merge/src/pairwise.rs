//! The baseline: iterative 2-way merge rounds.
//!
//! This is what the stock runtime's merge phase does and what produces the
//! "step curve" in the paper's Fig. 1: round 1 merges k runs pairwise with
//! k/2 threads, round 2 merges the results with k/4 threads, … — each
//! round *re-scans every element*, so for k runs the data is moved
//! `⌈log₂ k⌉` times, and parallelism collapses geometrically while the
//! lists being compared grow.
//!
//! [`PairwiseStats`] captures exactly those two pathologies (elements
//! re-scanned, per-round wave widths) so benches can report the work-done
//! comparison independently of wall-clock noise on small machines.

use crate::run::{Natural, Order, SortedRun};
use crate::{Inline, ScopedThreads, Workers};
use std::cmp::Ordering;

/// Work counters from an iterative pairwise merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairwiseStats {
    /// Number of merge rounds executed (⌈log₂ k⌉ for k runs).
    pub rounds: u32,
    /// Total elements written across all rounds — the "multiple scans of
    /// the data" the paper calls out. A single-pass merge writes N; this
    /// writes ≈ N·rounds.
    pub elements_moved: u64,
    /// Total key comparisons across all rounds.
    pub comparisons: u64,
    /// Number of concurrent pair-merges in each round: k/2, k/4, …, 1.
    /// The step-down utilization curve is this sequence.
    pub wave_widths: Vec<usize>,
    /// Elements written by each round, parallel to `wave_widths` (sums
    /// to `elements_moved`). The runtime pairs these with its own timing
    /// of each round when feeding `supmr.merge.*` registry families, so a
    /// scrape shows which round moved how many keys and how slowly.
    pub round_keys: Vec<u64>,
}

/// The 2-way merge of one round: prefixes first, `order.cmp` on a tie,
/// `a` on a draw. The output keeps its prefixes for the next round.
fn merge_two<T, O: Order<T>>([a, b]: [SortedRun<T>; 2], order: &O) -> (SortedRun<T>, u64) {
    let len = a.len() + b.len();
    let mut items = Vec::with_capacity(len);
    let mut prefixes = Vec::with_capacity(len);
    let mut comparisons = 0u64;
    let mut ia = a.items.into_iter().peekable();
    let mut ib = b.items.into_iter().peekable();
    // Elements taken from each run so far: the position of its head in
    // its prefix array.
    let (mut na, mut nb) = (0, 0);
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                comparisons += 1;
                let (px, py) = (a.prefixes[na], b.prefixes[nb]);
                if order.cmp_prefixed((px, x), (py, y)) != Ordering::Greater {
                    items.extend(ia.next());
                    prefixes.push(px);
                    na += 1;
                } else {
                    items.extend(ib.next());
                    prefixes.push(py);
                    nb += 1;
                }
            }
            (Some(_), None) => {
                items.extend(ia);
                prefixes.extend_from_slice(&a.prefixes[na..]);
                break;
            }
            (None, _) => {
                items.extend(ib);
                prefixes.extend_from_slice(&b.prefixes[nb..]);
                break;
            }
        }
    }
    (SortedRun { items, prefixes }, comparisons)
}

/// Iteratively merge `runs` down to one sorted vector, two at a time, with
/// each round's pair-merges on [`ScopedThreads`] (`parallel = true`) or
/// [`Inline`] — the latter exists so work counters can be verified
/// deterministically in unit tests. [`pairwise_rounds`] under `T`'s own
/// [`Ord`] (no prefix).
pub fn pairwise_merge_rounds<T>(runs: Vec<Vec<T>>, parallel: bool) -> (Vec<T>, PairwiseStats)
where
    T: Ord + Send,
{
    let runs = runs.into_iter().map(|run| SortedRun::presorted(run, &Natural)).collect();
    if parallel {
        pairwise_rounds(runs, &Natural, &ScopedThreads::available())
    } else {
        pairwise_rounds(runs, &Natural, &Inline)
    }
}

/// The baseline's rounds over sorted runs under any [`Order`] — the same
/// run type and prefix-first comparison the p-way kernel gets, so the
/// two backends differ only in how often they move the data. Each
/// round's pair-merges run side by side on `workers`.
pub fn pairwise_rounds<T, O>(
    mut runs: Vec<SortedRun<T>>,
    order: &O,
    workers: &impl Workers,
) -> (Vec<T>, PairwiseStats)
where
    T: Send,
    O: Order<T> + Sync,
{
    let mut stats = PairwiseStats::default();
    runs.retain(|r| !r.is_empty());
    while runs.len() > 1 {
        runs = pairwise_round(runs, order, workers, &mut stats);
    }
    (runs.pop().map(SortedRun::into_items).unwrap_or_default(), stats)
}

/// One round of [`pairwise_rounds`], counted into `stats`: merge `runs`
/// two at a time into half as many (an odd last run is carried over).
/// For callers that act between rounds — trace them, check for a cancel:
/// drop empty runs, then loop on this while more than one run is left.
pub fn pairwise_round<T, O>(
    runs: Vec<SortedRun<T>>,
    order: &O,
    workers: &impl Workers,
    stats: &mut PairwiseStats,
) -> Vec<SortedRun<T>>
where
    T: Send,
    O: Order<T> + Sync,
{
    stats.rounds += 1;
    let pairs = runs.len() / 2;
    stats.wave_widths.push(pairs);

    let mut iter = runs.into_iter();
    let mut jobs: Vec<(SortedRun<T>, Option<SortedRun<T>>)> = Vec::with_capacity(pairs + 1);
    while let Some(a) = iter.next() {
        jobs.push((a, iter.next()));
    }

    // The third field records whether a real merge happened: an odd
    // run carried to the next round unmerged is not re-scanned, so it
    // does not count toward elements moved.
    let merged = workers.run(jobs, |(a, b)| match b {
        Some(b) => {
            let (r, c) = merge_two([a, b], order);
            (r, c, true)
        }
        None => (a, 0, false),
    });

    let mut next = Vec::with_capacity(merged.len());
    let mut round_keys = 0u64;
    for (r, c, was_merged) in merged {
        stats.comparisons += c;
        if was_merged {
            round_keys += r.len() as u64;
        }
        next.push(r);
    }
    stats.elements_moved += round_keys;
    stats.round_keys.push(round_keys);
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_way_merge<T: Ord>(a: Vec<T>, b: Vec<T>) -> (Vec<T>, u64) {
        let runs = [a, b].map(|run| SortedRun::presorted(run, &Natural));
        let (merged, comparisons) = merge_two(runs, &Natural);
        (merged.into_items(), comparisons)
    }

    #[test]
    fn two_way_basics() {
        let (out, c) = two_way_merge(vec![1, 3, 5], vec![2, 4, 6]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert!(c >= 5);
        let (out, c) = two_way_merge(Vec::<i32>::new(), vec![1]);
        assert_eq!(out, vec![1]);
        assert_eq!(c, 0);
    }

    #[test]
    fn two_way_is_stable() {
        let (out, _) = two_way_merge(vec![(1, 'a'), (2, 'a')], vec![(1, 'b'), (2, 'b')]);
        assert_eq!(out, vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
    }

    #[test]
    fn rounds_equals_log2_of_run_count() {
        for (k, expected_rounds) in [(2usize, 1u32), (4, 2), (8, 3), (16, 4), (5, 3), (9, 4)] {
            let runs: Vec<Vec<u64>> =
                (0..k).map(|i| (0..10).map(|j| (j * k + i) as u64).collect()).collect();
            let (_, stats) = pairwise_merge_rounds(runs, false);
            assert_eq!(stats.rounds, expected_rounds, "k = {k}");
        }
    }

    #[test]
    fn wave_widths_step_down() {
        let runs: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let (_, stats) = pairwise_merge_rounds(runs, false);
        assert_eq!(stats.wave_widths, vec![8, 4, 2, 1]);
        assert_eq!(stats.round_keys, vec![16, 16, 16, 16]);
    }

    #[test]
    fn round_keys_sum_to_elements_moved() {
        // 5 runs: the odd run carried over unmerged must not count.
        let runs: Vec<Vec<u64>> = (0..5).map(|i| vec![i as u64, i as u64 + 10]).collect();
        let (_, stats) = pairwise_merge_rounds(runs, false);
        assert_eq!(stats.round_keys.len(), stats.rounds as usize);
        assert_eq!(stats.round_keys.iter().sum::<u64>(), stats.elements_moved);
    }

    #[test]
    fn elements_moved_is_n_times_rounds_for_powers_of_two() {
        let k = 8usize;
        let n_per = 100usize;
        let runs: Vec<Vec<u64>> =
            (0..k).map(|i| (0..n_per).map(|j| (j * k + i) as u64).collect()).collect();
        let (out, stats) = pairwise_merge_rounds(runs, false);
        let n = (k * n_per) as u64;
        assert_eq!(out.len() as u64, n);
        // Every round re-scans all N elements.
        assert_eq!(stats.elements_moved, n * stats.rounds as u64);
    }

    #[test]
    fn result_is_sorted_concat() {
        let runs: Vec<Vec<i32>> = vec![vec![5, 6], vec![1, 9], vec![0], vec![2, 3, 4], vec![]];
        let mut expected: Vec<i32> = runs.iter().flatten().copied().collect();
        expected.sort();
        for parallel in [false, true] {
            let (out, _) = pairwise_merge_rounds(runs.clone(), parallel);
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let (out, stats) = pairwise_merge_rounds(Vec::<Vec<u8>>::new(), false);
        assert!(out.is_empty());
        assert_eq!(stats.rounds, 0);
        let (out, stats) = pairwise_merge_rounds(vec![vec![1u8, 2]], true);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn pairwise_moves_log_factor_more_than_single_pass() {
        // The quantitative heart of the paper's merge claim.
        let k = 32usize;
        let runs: Vec<Vec<u64>> =
            (0..k).map(|i| (0..50).map(|j| (j * k + i) as u64).collect()).collect();
        let n: u64 = (k * 50) as u64;
        let (_, pw) = pairwise_merge_rounds(runs.clone(), false);
        let (_, kw) = crate::kway::kway_merge(runs);
        assert_eq!(kw.elements_moved, n);
        assert_eq!(pw.elements_moved, n * 5); // log2(32) = 5 rounds
        assert!(pw.elements_moved > 4 * kw.elements_moved);
    }
}
