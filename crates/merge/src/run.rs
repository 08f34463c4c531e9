//! Sorted runs with a cached key prefix — the one run representation
//! every sort and merge in this crate produces and consumes.
//!
//! Comparing two records by key usually means chasing two pointers to
//! heap-allocated key bytes; a merge does `log₂ k` of those per element
//! and a sort `log₂ n`, each a likely cache miss. An [`Order`] therefore
//! supplies, next to the full comparison, an order-preserving 8-byte
//! **prefix** of the key. A [`SortedRun`] keeps its elements' prefixes in
//! a dense side array, so the sort and every merge compare cache-resident
//! `u64`s first and touch the elements only to break a tie and to move
//! them.

use std::cmp::Ordering;

/// How a sort or merge orders elements of `T`.
///
/// # The prefix contract
///
/// `prefix` must be monotone in `cmp`:
/// `cmp(a, b) != Greater` ⟹ `prefix(a) <= prefix(b)`. Equal prefixes
/// decide nothing — the comparison falls through to `cmp` — so the
/// constant `0` is always a valid prefix and means "compare full keys".
/// A prefix that breaks the contract yields mis-ordered output, never
/// memory unsafety.
pub trait Order<T> {
    /// An order-preserving 8-byte digest of `item`'s key.
    fn prefix(&self, item: &T) -> u64;

    /// The full comparison, consulted when prefixes tie.
    fn cmp(&self, a: &T, b: &T) -> Ordering;

    /// `(prefix, item)` pairs under this order: prefixes first, `cmp` on
    /// a tie.
    fn cmp_prefixed(&self, a: (u64, &T), b: (u64, &T)) -> Ordering {
        a.0.cmp(&b.0).then_with(|| self.cmp(a.1, b.1))
    }
}

impl<T, O: Order<T>> Order<T> for &O {
    fn prefix(&self, item: &T) -> u64 {
        (**self).prefix(item)
    }

    fn cmp(&self, a: &T, b: &T) -> Ordering {
        (**self).cmp(a, b)
    }
}

/// `T`'s own [`Ord`], with no prefix: what the `T: Ord` entry points
/// ([`kway_merge`](crate::kway_merge), [`parallel_sort`](crate::parallel_sort), …)
/// run the shared kernels with.
#[derive(Debug, Clone, Copy, Default)]
pub struct Natural;

impl<T: Ord> Order<T> for Natural {
    fn prefix(&self, _item: &T) -> u64 {
        0
    }

    fn cmp(&self, a: &T, b: &T) -> Ordering {
        a.cmp(b)
    }
}

/// `(key, payload)` pairs ordered by key alone — payloads need not be
/// `Ord` — with the key's prefix supplied by the wrapped function.
#[derive(Debug, Clone, Copy)]
pub struct ByKey<F>(pub F);

impl<K: Ord, V, F: Fn(&K) -> u64> Order<(K, V)> for ByKey<F> {
    fn prefix(&self, item: &(K, V)) -> u64 {
        (self.0)(&item.0)
    }

    fn cmp(&self, a: &(K, V), b: &(K, V)) -> Ordering {
        a.0.cmp(&b.0)
    }
}

/// Borrowed elements under the order of the elements themselves: how the
/// in-memory merge runs the tree over `&T` heads without moving a `T`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ByRef<O>(pub O);

impl<T, O: Order<T>> Order<&T> for ByRef<O> {
    fn prefix(&self, item: &&T) -> u64 {
        self.0.prefix(item)
    }

    fn cmp(&self, a: &&T, b: &&T) -> Ordering {
        self.0.cmp(a, b)
    }
}

/// Elements sorted under some [`Order`], plus the dense side array of
/// their prefixes (`prefixes[i] == order.prefix(&items[i])`).
///
/// The fields are crate-visible because the merges consume both arrays
/// index by index; no memory-safety argument in this crate rests on the
/// run actually being sorted.
#[derive(Debug, Clone)]
pub struct SortedRun<T> {
    pub(crate) items: Vec<T>,
    pub(crate) prefixes: Vec<u64>,
}

impl<T> SortedRun<T> {
    /// Sort `items` under `order` — the one run sort in the tree. Equal
    /// keys keep their input order: the result is that of a stable sort.
    ///
    /// Sorts 16-byte `(prefix, index)` tags instead of the elements
    /// (ties fall through to `order.cmp`, then to the index), then
    /// applies the permutation to the elements in place, cycle by
    /// cycle, so element storage is neither reallocated nor shuffled
    /// `log n` times. When one prefix is all there is — an order
    /// without one, or keys alike in their first 8 bytes — tags would
    /// decide nothing and only put an indirection into every
    /// comparison, so the elements are sorted directly.
    pub fn sort<O: Order<T>>(mut items: Vec<T>, order: &O) -> SortedRun<T> {
        let mut tags: Vec<(u64, usize)> =
            items.iter().enumerate().map(|(i, item)| (order.prefix(item), i)).collect();
        if tags.iter().all(|tag| tag.0 == tags[0].0) {
            items.sort_by(|a, b| order.cmp(a, b));
        } else {
            tags.sort_unstable_by(|a, b| {
                order
                    .cmp_prefixed((a.0, &items[a.1]), (b.0, &items[b.1]))
                    .then_with(|| a.1.cmp(&b.1))
            });
            // `tags[at].1` names the element that belongs at `at`. Walk
            // each cycle once, carrying its first element along by swaps;
            // a settled position is marked by pointing at itself.
            for start in 0..tags.len() {
                let mut at = start;
                loop {
                    let from = std::mem::replace(&mut tags[at].1, at);
                    if from == start {
                        break;
                    }
                    items.swap(at, from);
                    at = from;
                }
            }
        }
        SortedRun { prefixes: tags.into_iter().map(|(prefix, _)| prefix).collect(), items }
    }

    /// Wrap elements the caller vouches are already sorted under `order`
    /// (checked in debug builds only — checking costs the pass over the
    /// keys this type exists to avoid).
    pub fn presorted<O: Order<T>>(items: Vec<T>, order: &O) -> SortedRun<T> {
        debug_assert!(
            items.windows(2).all(|w| order.cmp(&w[0], &w[1]) != Ordering::Greater),
            "run is not sorted"
        );
        SortedRun { prefixes: items.iter().map(|item| order.prefix(item)).collect(), items }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the run holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The sorted elements.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The sorted elements, by value.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Elements `range` as a borrowed `(prefix, &element)` stream.
    pub(crate) fn prefixed(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (u64, &T)> {
        self.prefixes[range.clone()].iter().copied().zip(&self.items[range])
    }

    /// First index at or after `from` whose element does not sort before
    /// the splitter `(prefix, item)`: binary searches on the prefix array
    /// bracket the tie range, and only that range is searched by `cmp`.
    pub(crate) fn lower_bound<O: Order<T>>(
        &self,
        from: usize,
        splitter: (u64, &T),
        order: &O,
    ) -> usize {
        let tail = &self.prefixes[from..];
        let below = from + tail.partition_point(|&p| p < splitter.0);
        let through = from + tail.partition_point(|&p| p <= splitter.0);
        below
            + self.items[below..through]
                .partition_point(|item| order.cmp(item, splitter.1) == Ordering::Less)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Orders `(key, tag)` by key, with the key's high bits as prefix so
    /// prefixes collide and ties reach `cmp`.
    fn coarse() -> ByKey<impl Fn(&u32) -> u64> {
        ByKey(|k: &u32| u64::from(*k >> 4))
    }

    #[test]
    fn sort_is_stable_and_caches_prefixes() {
        let items: Vec<(u32, usize)> =
            [37u32, 5, 37, 0, 21, 5, 37, 16].into_iter().enumerate().map(|(i, k)| (k, i)).collect();
        let mut expected = items.clone();
        expected.sort_by_key(|&(k, _)| k);
        let run = SortedRun::sort(items, &coarse());
        assert_eq!(run.items(), &expected[..]);
        assert_eq!(
            run.prefixes,
            expected.iter().map(|&(k, _)| u64::from(k >> 4)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sort_handles_every_small_permutation() {
        // All 120 orders of five distinct keys: every cycle structure the
        // in-place permutation can meet.
        let mut perm = [0u32, 1, 2, 3, 4];
        let mut count = 0;
        loop {
            let run = SortedRun::sort(perm.to_vec(), &Natural);
            assert_eq!(run.items(), &[0, 1, 2, 3, 4], "input {perm:?}");
            count += 1;
            // Next lexicographic permutation.
            let Some(i) = (0..4).rev().find(|&i| perm[i] < perm[i + 1]) else { break };
            let j = (i + 1..5).rev().find(|&j| perm[j] > perm[i]).expect("a larger element");
            perm.swap(i, j);
            perm[i + 1..].reverse();
        }
        assert_eq!(count, 120);
    }

    #[test]
    fn empty_and_single_runs() {
        assert!(SortedRun::sort(Vec::<u8>::new(), &Natural).is_empty());
        let run = SortedRun::sort(vec![9u8], &Natural);
        assert_eq!((run.len(), run.into_items()), (1, vec![9]));
    }

    #[test]
    fn lower_bound_searches_prefix_then_key() {
        let keys = [1u32, 3, 16, 17, 17, 17, 18, 40];
        let run = SortedRun::presorted(keys.iter().map(|&k| (k, ())).collect(), &coarse());
        let order = coarse();
        for probe in 0u32..50 {
            let item = (probe, ());
            let want = keys.partition_point(|&k| k < probe);
            assert_eq!(run.lower_bound(0, (order.prefix(&item), &item), &order), want, "{probe}");
            // A search that starts past the answer stays where it starts.
            assert_eq!(run.lower_bound(6, (order.prefix(&item), &item), &order), want.max(6));
        }
    }
}
