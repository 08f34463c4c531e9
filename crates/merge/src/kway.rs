//! Single-pass p-way merge, sequential and parallel.
//!
//! This is the merge SupMR substitutes for the runtime's iterative 2-way
//! rounds: "p-way merge merges N ordered lists into a single ordered array
//! using p processors" — one pass, one round, full parallelism throughout.
//!
//! The parallel variant partitions the *output* by splitter keys sampled
//! from the runs (the `gnu_parallel` multiway-merge strategy): each of the
//! `p` ways owns a disjoint key range, binary-searches every run for its
//! range boundaries, and loser-tree-merges just those index ranges
//! straight into its own slice of the one output allocation. Ways never
//! touch each other's input or output, so the round is embarrassingly
//! parallel and utilization stays flat-high instead of stepping down —
//! and each element is written exactly once: there is no carved sub-run,
//! per-way buffer or concatenation in between.

use crate::loser_tree::LoserTree;
use crate::run::{ByRef, Natural, Order, SortedRun};
use crate::{ScopedThreads, Workers};
use std::cmp::Ordering;
use std::mem::MaybeUninit;

/// Work counters from a k-way merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KwayStats {
    /// Number of key comparisons performed.
    pub comparisons: u64,
    /// Number of elements moved into the output (= N exactly: the merge is
    /// single-pass, the number the pairwise baseline multiplies by its
    /// round count).
    pub elements_moved: u64,
    /// Number of parallel partitions used (1 for the sequential variant).
    pub partitions: usize,
}

/// Merge `runs` (each sorted ascending) into one sorted vector in a single
/// sequential pass over the data.
pub fn kway_merge<T: Ord>(runs: Vec<Vec<T>>) -> (Vec<T>, KwayStats) {
    let total: usize = runs.iter().map(Vec::len).sum();
    let sources = runs.into_iter().map(|run| run.into_iter().map(|item| (0, item))).collect();
    let mut lt = LoserTree::new(sources, Natural);
    let mut out = Vec::with_capacity(total);
    out.extend(lt.by_ref().map(|(_, item)| item));
    let stats = KwayStats {
        comparisons: lt.comparisons(),
        elements_moved: out.len() as u64,
        partitions: 1,
    };
    (out, stats)
}

/// Merge `runs` into one sorted vector using `ways` parallel output
/// partitions: [`merge_runs`] under `T`'s own [`Ord`] (no prefix), on
/// [`ScopedThreads`].
///
/// # Panics
/// Panics if `ways == 0`.
pub fn parallel_kway_merge<T>(runs: Vec<Vec<T>>, ways: usize) -> (Vec<T>, KwayStats)
where
    T: Ord + Send + Sync,
{
    let runs = runs.into_iter().map(|run| SortedRun::presorted(run, &Natural)).collect();
    merge_runs(runs, &Natural, ways, &ScopedThreads::available())
}

/// Merge sorted runs into one vector sorted under `order`, using `ways`
/// output partitions merged side by side on `workers` — the p-way kernel
/// behind [`parallel_kway_merge`], [`parallel_sort`](crate::parallel_sort)
/// and, where its partitions are runs already, the runtime's merge phase
/// (unsorted ones go through [`partitioned_sort`](crate::partitioned_sort)).
///
/// Equal keys never straddle a partition boundary (boundaries are lower
/// bounds), and within a partition the loser tree is stable, so the merge
/// as a whole is stable: equal keys come out by (run index, position in
/// run).
///
/// Elements are **moved**, never cloned, and moved once. Runs that
/// already follow one another — each ending no later than the next
/// begins, as key-range-partitioned reduce outputs do — merge to their
/// concatenation, which is what is returned after the `k − 1` boundary
/// comparisons that establish it; a single run is the limiting case and
/// comes back as it stands, the same allocation. Either way the `N`
/// elements count as the one pass they took.
///
/// # Panics
/// Panics if `ways == 0`.
pub fn merge_runs<T, O>(
    mut runs: Vec<SortedRun<T>>,
    order: &O,
    ways: usize,
    workers: &impl Workers,
) -> (Vec<T>, KwayStats)
where
    T: Send + Sync,
    O: Order<T> + Sync,
{
    assert!(ways > 0, "need at least one way");
    runs.retain(|run| !run.is_empty());
    let total: usize = runs.iter().map(SortedRun::len).sum();
    let in_sequence = runs.windows(2).all(|pair| {
        // Empty runs went above, so both ends exist.
        let (before, after) = (&pair[0], &pair[1]);
        let last = before.len() - 1;
        let end = (before.prefixes[last], &before.items[last]);
        order.cmp_prefixed(end, (after.prefixes[0], &after.items[0])) != Ordering::Greater
    });
    if in_sequence {
        let comparisons = runs.len().saturating_sub(1) as u64;
        let mut parts = runs.into_iter().map(SortedRun::into_items);
        let mut out = parts.next().unwrap_or_default();
        out.reserve_exact(total - out.len());
        parts.for_each(|mut part| out.append(&mut part));
        return (out, KwayStats { comparisons, elements_moved: total as u64, partitions: 1 });
    }

    // cuts[p][r]..cuts[p + 1][r] is the index range of run r that way p
    // merges. Successive cuts of a run never decrease and the last is
    // its length, so the ranges tile every run exactly, whatever the
    // order does.
    let cuts = splitter_cuts(&runs, order, ways);
    let mut out: Vec<T> = Vec::with_capacity(total);
    let mut rest = &mut out.spare_capacity_mut()[..total];
    let mut jobs = Vec::with_capacity(ways);
    for bounds in cuts.windows(2) {
        let len = bounds[0].iter().zip(&bounds[1]).map(|(lo, hi)| hi - lo).sum();
        let (slots, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        jobs.push((bounds, slots));
    }
    // One way: merge its index ranges into its slots; returns
    // (comparisons, slots filled).
    let merge_way = |(bounds, slots): (&[Vec<usize>], &mut [MaybeUninit<T>])| {
        let sources = runs
            .iter()
            .zip(bounds[0].iter().zip(&bounds[1]))
            .map(|(run, (&lo, &hi))| run.prefixed(lo..hi))
            .collect();
        let mut lt = LoserTree::new(sources, ByRef(order));
        let mut filled = 0usize;
        for (slot, (_, item)) in slots.iter_mut().zip(lt.by_ref()) {
            // SAFETY: `item` is a valid `&T` into a run. This makes a
            // bitwise copy while the run still owns the original; the
            // copy sits in `out`'s spare capacity, neither dropped nor
            // exposed, until the block at the end of this function
            // makes the runs forget the originals.
            slot.write(unsafe { std::ptr::read(item) });
            filled += 1;
        }
        (lt.comparisons(), filled)
    };
    let partitions = jobs.len();
    let done: Vec<(u64, usize)> = workers.run(jobs, merge_way);
    let comparisons = done.iter().map(|&(c, _)| c).sum();
    let filled: usize = done.iter().map(|&(_, f)| f).sum();
    // Memory safety below rests on this: with the ranges tiling the runs
    // and every way filling all of its slots, each element was read
    // exactly once and every one of the first `total` slots is written.
    assert_eq!(filled, total, "p-way merge filled {filled} of {total} output slots");
    // SAFETY: the first `total` elements of `out` (within its capacity)
    // were initialized by the ways, each with a copy of a distinct run
    // element, and every run element was copied. Truncating the runs to
    // zero length without dropping makes those copies the sole owners.
    // A panic before this point (an `Order` that panics, the assert)
    // unwinds with `out` at length 0 and the runs owning every element,
    // so nothing is dropped twice; nothing in the block can panic.
    unsafe {
        for run in &mut runs {
            run.items.set_len(0);
        }
        out.set_len(total);
    }
    (out, KwayStats { comparisons, elements_moved: total as u64, partitions })
}

/// Per-run index cuts for `ways` output partitions: row `p` holds, for
/// every run, the lower bound of splitter `p` (row 0 is all zeros, the
/// last row the run lengths). The `ways - 1` splitters approximately
/// equipartition the merged output: each run is sampled at regular
/// offsets and the splitters are quantiles of the pooled, sorted sample.
fn splitter_cuts<T, O: Order<T>>(runs: &[SortedRun<T>], order: &O, ways: usize) -> Vec<Vec<usize>> {
    const OVERSAMPLE: usize = 8;
    let mut sample: Vec<(u64, &T)> = Vec::new();
    for run in runs {
        // Cap at the run length: sampling a short run more times than it
        // has elements would duplicate them, over-weighting the short
        // run in the pooled quantiles and skewing partition balance.
        let take = (ways * OVERSAMPLE).min(run.len());
        sample.extend((0..take).map(|i| {
            let idx = i * run.len() / take;
            (run.prefixes[idx], &run.items[idx])
        }));
    }
    sample.sort_by(|&a, &b| order.cmp_prefixed(a, b));
    let mut cuts = vec![vec![0; runs.len()]];
    if !sample.is_empty() {
        for p in 1..ways {
            let splitter = sample[(p * sample.len() / ways).min(sample.len() - 1)];
            let prev = &cuts[p - 1];
            let next =
                runs.iter().zip(prev).map(|(run, &from)| run.lower_bound(from, splitter, order));
            cuts.push(next.collect());
        }
    }
    cuts.push(runs.iter().map(SortedRun::len).collect());
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ByKey;
    use crate::Inline;

    fn runs_interleaved(k: usize, n_per: usize) -> Vec<Vec<u64>> {
        (0..k).map(|i| (0..n_per).map(|j| (j * k + i) as u64).collect()).collect()
    }

    #[test]
    fn sequential_kway_equals_sorted_concat() {
        let runs = runs_interleaved(7, 100);
        let mut expected: Vec<u64> = runs.iter().flatten().copied().collect();
        expected.sort();
        let (out, stats) = kway_merge(runs);
        assert_eq!(out, expected);
        assert_eq!(stats.elements_moved, 700);
        assert_eq!(stats.partitions, 1);
        assert!(stats.comparisons > 0);
    }

    #[test]
    fn parallel_kway_equals_sequential() {
        let runs = runs_interleaved(9, 250);
        let (expected, _) = kway_merge(runs.clone());
        for ways in [1usize, 2, 3, 4, 8] {
            let (out, stats) = parallel_kway_merge(runs.clone(), ways);
            assert_eq!(out, expected, "ways = {ways}");
            assert_eq!(stats.elements_moved as usize, expected.len());
            assert!(stats.partitions <= ways.max(1));
        }
    }

    #[test]
    fn parallel_kway_handles_empty_and_tiny_runs() {
        let runs: Vec<Vec<u64>> = vec![vec![], vec![5], vec![], vec![1, 9]];
        let (out, _) = parallel_kway_merge(runs, 4);
        assert_eq!(out, vec![1, 5, 9]);
        let (out, _) = parallel_kway_merge(Vec::<Vec<u64>>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_kway_with_heavy_duplicates() {
        let runs: Vec<Vec<u32>> = vec![vec![7; 500], vec![7; 300], vec![3; 200], vec![7; 100]];
        let (out, _) = parallel_kway_merge(runs, 4);
        assert_eq!(out.len(), 1100);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.iter().filter(|&&x| x == 3).count(), 200);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        parallel_kway_merge::<u32>(vec![vec![1]], 0);
    }

    fn natural_runs(runs: Vec<Vec<u32>>) -> Vec<SortedRun<u32>> {
        runs.into_iter().map(|run| SortedRun::presorted(run, &Natural)).collect()
    }

    #[test]
    fn cuts_tile_every_run_in_order() {
        let runs = natural_runs(
            runs_interleaved(4, 64)
                .into_iter()
                .map(|r| r.into_iter().map(|x| x as u32).collect())
                .collect(),
        );
        let cuts = splitter_cuts(&runs, &Natural, 8);
        assert_eq!(cuts.len(), 9);
        assert_eq!(cuts[0], vec![0; 4]);
        assert_eq!(cuts[8], vec![64; 4]);
        for bounds in cuts.windows(2) {
            assert!(bounds[0].iter().zip(&bounds[1]).all(|(lo, hi)| lo <= hi));
        }
    }

    #[test]
    fn short_runs_do_not_dominate_the_sample() {
        // A 2-element run next to a 100-element run. Uncapped sampling
        // would push 32 copies of {5, 6} into the pool (vs 32 samples of
        // 0..100), dragging every low quantile into the tiny run and
        // starving the early partitions.
        let runs = natural_runs(vec![vec![5, 6], (0..100).collect()]);
        let cuts = splitter_cuts(&runs, &Natural, 4);
        let long: Vec<usize> = cuts.iter().map(|row| row[1]).collect();
        assert!(long[1] > 6, "first splitter stuck inside the short run: {long:?}");
        assert!(long[3] > 50, "upper splitter must reach the long run's top half: {long:?}");
    }

    #[test]
    fn one_run_is_moved_not_merged() {
        let run: Vec<u32> = (0..1000).collect();
        let storage = run.as_ptr();
        let (out, stats) = parallel_kway_merge(vec![vec![], run, vec![]], 4);
        assert_eq!(out.as_ptr(), storage, "the run's own allocation is the output");
        assert_eq!(stats, KwayStats { comparisons: 0, elements_moved: 1000, partitions: 1 });
    }

    #[test]
    fn runs_in_sequence_are_concatenated_not_merged() {
        // Disjoint ascending ranges, touching at equal keys: the merge is
        // the concatenation, established by one comparison per boundary.
        let runs: Vec<Vec<(u32, usize)>> = vec![
            (0..100).map(|k| (k, 0)).collect(),
            vec![],
            (99..250).map(|k| (k, 1)).collect(),
            vec![(250, 2)],
        ];
        let expected: Vec<(u32, usize)> = runs.iter().flatten().copied().collect();
        let order = ByKey(|k: &u32| u64::from(*k >> 4));
        let sorted = runs.iter().map(|run| SortedRun::presorted(run.clone(), &order)).collect();
        let (out, stats) = merge_runs(sorted, &order, 4, &Inline);
        assert_eq!(out, expected);
        assert_eq!(stats, KwayStats { comparisons: 2, elements_moved: 252, partitions: 1 });
        // One overlapping boundary and it is a real merge again.
        let mut runs = runs;
        runs[3] = vec![(240, 2)];
        let mut expected: Vec<(u32, usize)> = runs.iter().flatten().copied().collect();
        expected.sort_by_key(|&(k, _)| k);
        let sorted = runs.into_iter().map(|run| SortedRun::presorted(run, &order)).collect();
        let (out, stats) = merge_runs(sorted, &order, 4, &Inline);
        assert_eq!(out, expected);
        assert!(stats.comparisons > 2);
    }

    #[test]
    fn owned_elements_are_moved_exactly_once() {
        // Heap-owning elements: a double move would double-free, a missed
        // one would leak; the reference counts see either.
        use std::sync::Arc;
        let tokens: Vec<Arc<u32>> = (0..300).map(Arc::new).collect();
        let runs: Vec<Vec<(u32, Arc<u32>)>> = (0..3)
            .map(|r| {
                (0..100).map(|i| (i * 3 + r, Arc::clone(&tokens[(i * 3 + r) as usize]))).collect()
            })
            .collect();
        let runs = runs
            .into_iter()
            .map(|run| SortedRun::presorted(run, &ByKey(|k: &u32| u64::from(*k >> 3))))
            .collect();
        let (out, _) = merge_runs(runs, &ByKey(|k: &u32| u64::from(*k >> 3)), 4, &ScopedThreads(4));
        assert!(out.iter().enumerate().all(|(i, (k, t))| *k == i as u32 && **t == i as u32));
        assert!(tokens.iter().all(|t| Arc::strong_count(t) == 2));
        drop(out);
        assert!(tokens.iter().all(|t| Arc::strong_count(t) == 1));
    }

    #[test]
    fn single_pass_moves_each_element_once() {
        let runs = runs_interleaved(16, 64);
        let n = 16 * 64;
        let (_, seq) = kway_merge(runs.clone());
        let (_, par) = parallel_kway_merge(runs, 4);
        assert_eq!(seq.elements_moved, n);
        assert_eq!(par.elements_moved, n);
    }
}
