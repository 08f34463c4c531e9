//! A k-way tournament ("loser") tree over sorted runs.
//!
//! The classic structure for merging many sorted runs in one pass
//! (Salzberg 1989, which the paper cites for p-way merging): internal
//! nodes remember the *loser* of the match played there while the overall
//! winner sits at the root, so replacing the winner after each pop replays
//! only one root-to-leaf path — `O(log k)` comparisons per element instead
//! of scanning all `k` heads.
//!
//! The layout is flat: one `u32` per node, the `k` leaves implicit at
//! positions `k..2k` of the same heap numbering (any `k`, no padding to a
//! power of two), and each leaf's cached key prefix in a dense `u64`
//! array that matches are decided on before a head is dereferenced.
//! Every leaf is live: a source that runs dry is removed and the
//! tournament replayed over the `k - 1` that remain — `k` rebuilds of
//! `O(k)` matches over a whole merge, against `N·log₂ k` for the merge
//! itself — so no match ever asks whether a head exists.
//!
//! The tree is stable: ties are broken by run index, so elements that
//! compare equal are emitted in run order.

use crate::run::{Natural, Order};
use std::cmp::Ordering;

/// A loser tree merging `k` sorted sources of `(prefix, T)` under an
/// [`Order`].
///
/// Sources are consumed as iterators; the tree itself yields the merged
/// `(prefix, T)` stream via [`Iterator`]. Each source must be sorted
/// under the tree's order and carry each item's `order.prefix` — the
/// caller's contract, unchecked (checking would cost the pass over the
/// data the structure exists to avoid). Comparison counts are tracked
/// so experiments can report work done, not just wall-clock time.
pub struct LoserTree<T, I, O> {
    order: O,
    /// `tree[0]` is the leaf holding the smallest head; `tree[n]` for
    /// `1 <= n < k` the leaf that *lost* the match at internal node `n`.
    tree: Vec<u32>,
    /// Cached prefix of each leaf's head.
    keys: Vec<u64>,
    /// Current head of each leaf.
    heads: Vec<T>,
    /// The rest of each leaf's source.
    sources: Vec<I>,
    comparisons: u64,
}

impl<T, I, O> LoserTree<T, I, O>
where
    I: Iterator<Item = (u64, T)>,
    O: Order<T>,
{
    /// Build a loser tree over the given sources. Empty sources are
    /// dropped here; the rest keep their relative order, which is the
    /// run order ties are broken by.
    pub fn new(sources: Vec<I>, order: O) -> Self {
        let mut lt = LoserTree {
            order,
            tree: Vec::new(),
            keys: Vec::with_capacity(sources.len()),
            heads: Vec::with_capacity(sources.len()),
            sources: Vec::with_capacity(sources.len()),
            comparisons: 0,
        };
        for mut source in sources {
            if let Some((key, head)) = source.next() {
                lt.keys.push(key);
                lt.heads.push(head);
                lt.sources.push(source);
            }
        }
        lt.build();
        lt
    }

    /// Does leaf `a` beat leaf `b`? Prefixes first, the full comparison
    /// on a tie, then the lower run index (stability).
    fn beats(&mut self, a: u32, b: u32) -> bool {
        self.comparisons += 1;
        let (ia, ib) = (a as usize, b as usize);
        match self
            .order
            .cmp_prefixed((self.keys[ia], &self.heads[ia]), (self.keys[ib], &self.heads[ib]))
        {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        }
    }

    /// Play the whole tournament bottom-up over the current leaves.
    fn build(&mut self) {
        let k = self.heads.len();
        // Winner of the subtree rooted at each node; a leaf wins its own.
        let mut winners: Vec<u32> = (0..2 * k).map(|n| n.saturating_sub(k) as u32).collect();
        self.tree.clear();
        self.tree.resize(k, 0);
        for node in (1..k).rev() {
            let (left, right) = (winners[2 * node], winners[2 * node + 1]);
            let (winner, loser) =
                if self.beats(left, right) { (left, right) } else { (right, left) };
            winners[node] = winner;
            self.tree[node] = loser;
        }
        if k > 0 {
            self.tree[0] = winners[1];
        }
    }

    /// Replay the path from `leaf` to the root after its head changed.
    fn replay(&mut self, leaf: usize) {
        let mut winner = leaf as u32;
        let mut node = (self.heads.len() + leaf) / 2;
        while node >= 1 {
            let stored = self.tree[node];
            if self.beats(stored, winner) {
                self.tree[node] = winner;
                winner = stored;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Number of key comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

impl<T, I, O> Iterator for LoserTree<T, I, O>
where
    I: Iterator<Item = (u64, T)>,
    O: Order<T>,
{
    type Item = (u64, T);

    fn next(&mut self) -> Option<(u64, T)> {
        let w = *self.tree.first()? as usize;
        match self.sources[w].next() {
            Some((key, head)) => {
                let out = (
                    std::mem::replace(&mut self.keys[w], key),
                    std::mem::replace(&mut self.heads[w], head),
                );
                self.replay(w);
                Some(out)
            }
            None => {
                // `remove` keeps the other leaves in run order.
                self.sources.remove(w);
                let out = (self.keys.remove(w), self.heads.remove(w));
                self.build();
                Some(out)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.heads.len() + self.sources.iter().map(|s| s.size_hint().0).sum::<usize>(), None)
    }
}

/// Merge sorted iterators into one sorted, stable stream under `order`,
/// computing each item's prefix as it arrives — the streaming form of
/// the merge for inputs that should not be materialized first.
pub fn merge_iterators_by<T, I, O>(sources: Vec<I>, order: O) -> impl Iterator<Item = T>
where
    I: Iterator<Item = T>,
    O: Order<T> + Copy,
{
    let prefixed = sources
        .into_iter()
        .map(|source| source.map(move |item| (order.prefix(&item), item)))
        .collect();
    LoserTree::new(prefixed, order).map(|(_, item)| item)
}

/// [`merge_iterators_by`] under `T`'s own [`Ord`] — the streaming form
/// of [`crate::kway_merge`].
///
/// ```
/// use supmr_merge::loser_tree::merge_iterators;
///
/// let evens = (0..20u32).step_by(2);
/// let odds = (1..20u32).step_by(2);
/// let merged: Vec<u32> = merge_iterators(vec![evens, odds]).collect();
/// assert_eq!(merged, (0..20).collect::<Vec<_>>());
/// ```
pub fn merge_iterators<T, I>(sources: Vec<I>) -> impl Iterator<Item = T>
where
    T: Ord,
    I: Iterator<Item = T>,
{
    merge_iterators_by(sources, Natural)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ByKey;

    fn tree_over(runs: Vec<Vec<i64>>) -> LoserTree<i64, impl Iterator<Item = (u64, i64)>, Natural> {
        LoserTree::new(runs.into_iter().map(|r| r.into_iter().map(|x| (0, x))).collect(), Natural)
    }

    fn merge_vecs(runs: Vec<Vec<i64>>) -> Vec<i64> {
        merge_iterators(runs.into_iter().map(Vec::into_iter).collect()).collect()
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(merge_vecs(vec![]).is_empty());
        assert!(merge_vecs(vec![vec![], vec![], vec![]]).is_empty());
    }

    #[test]
    fn single_run_passes_through_uncompared() {
        let mut lt = tree_over(vec![vec![], vec![1, 2, 3]]);
        assert_eq!(lt.by_ref().map(|(_, x)| x).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(lt.comparisons(), 0);
    }

    #[test]
    fn merges_uneven_runs() {
        let out = merge_vecs(vec![vec![1, 4, 7], vec![2, 5], vec![], vec![0, 3, 6, 8, 9]]);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn non_power_of_two_run_counts() {
        for k in 1..=9usize {
            let runs: Vec<Vec<i64>> =
                (0..k).map(|i| (0..5).map(|j| (j * k + i) as i64).collect()).collect();
            let out = merge_vecs(runs);
            let expected: Vec<i64> = (0..(5 * k) as i64).collect();
            assert_eq!(out, expected, "k = {k}");
        }
    }

    #[test]
    fn stability_ties_broken_by_run_index() {
        // Payloads carry their origin run; equal keys must come out in
        // run order, for every run count's tree shape.
        for k in 2..=7usize {
            let runs: Vec<Vec<(u32, usize)>> = (0..k).map(|r| vec![(1, r), (2, r)]).collect();
            let out: Vec<(u32, usize)> = merge_iterators_by(
                runs.into_iter().map(Vec::into_iter).collect(),
                ByKey(|_: &u32| 0),
            )
            .collect();
            let expected: Vec<(u32, usize)> =
                (1..=2).flat_map(|key| (0..k).map(move |r| (key, r))).collect();
            assert_eq!(out, expected, "k = {k}");
        }
    }

    #[test]
    fn prefixes_decide_before_keys_and_ties_fall_through() {
        // Prefix = key / 10: 12 vs 17 tie on the prefix and need `cmp`.
        let order = ByKey(|k: &u32| u64::from(*k / 10));
        let a = vec![(3u32, 'a'), (17, 'a'), (40, 'a')];
        let b = vec![(12u32, 'b'), (17, 'b'), (25, 'b')];
        let out: Vec<(u32, char)> =
            merge_iterators_by(vec![a.into_iter(), b.into_iter()], order).collect();
        assert_eq!(out, vec![(3, 'a'), (12, 'b'), (17, 'a'), (17, 'b'), (25, 'b'), (40, 'a')]);
    }

    #[test]
    fn comparison_count_is_n_log_k_ish() {
        let k = 16usize;
        let n_per = 1000usize;
        let runs: Vec<Vec<i64>> =
            (0..k).map(|i| (0..n_per).map(|j| (j * k + i) as i64).collect()).collect();
        let mut lt = tree_over(runs);
        assert_eq!(lt.by_ref().count(), k * n_per);
        let n = (k * n_per) as u64;
        let log_k = (k as f64).log2() as u64;
        // One root-to-leaf replay per element: <= n * log2(k) matches,
        // plus one tournament of < k matches at the start and after each
        // of the k sources runs dry; and at least n - k (every element
        // but the last of each source plays some match).
        assert!(lt.comparisons() <= n * log_k + (k * k) as u64);
        assert!(lt.comparisons() >= n - k as u64);
    }

    #[test]
    fn size_hint_lower_bound_is_sound() {
        let lt = tree_over(vec![vec![1, 2, 3], vec![4, 5]]);
        assert_eq!(lt.size_hint().0, 5);
        assert_eq!(lt.count(), 5);
    }

    #[test]
    fn duplicate_heavy_input() {
        let out = merge_vecs(vec![vec![2; 100], vec![2; 50], vec![1; 30]]);
        assert_eq!(out.len(), 180);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.iter().filter(|&&x| x == 1).count(), 30);
    }
}
