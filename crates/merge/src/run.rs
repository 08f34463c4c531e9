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

/// An element's key prefix and an index that finds the element: what the
/// sorts move around in place of the elements themselves.
pub(crate) type Tag = (u64, usize);

/// Groups of at most this many tags are not split further: one insertion
/// pass over the whole slice finishes them all.
const SMALL_GROUP: usize = 8;
/// A radix pass takes at most this many prefix bits, so that its
/// counters stay in L1.
const MAX_DIGIT_BITS: u32 = 11;

/// Sort `tags` by prefix, then by `order.cmp` of the elements `item`
/// finds for their indices, then by index — the tag sort under
/// [`SortedRun::sort`] and [`partitioned_sort`](crate::partitioned_sort).
/// Returns how many times `order.cmp` ran.
///
/// Prefixes are ordered without comparing them: a stable MSD radix
/// partition on the bits below the ones all of `tags` share (so keys
/// drawn from a narrow alphabet spread over the buckets as random bytes
/// do) splits the tags into groups of a few, and one insertion pass over
/// `(prefix, index)` tuples, which now finds every tag within a few
/// slots of its place, finishes them. Only elements whose prefixes tie
/// are dereferenced, by a stable sort of their group, which the tuple
/// order left sorted by index. Callers pass tags in index order, which
/// the radix passes then preserve among equal prefixes; any other order
/// sorts the same, slower. Whatever `order` does, `tags` ends as a
/// permutation of what it was.
pub(crate) fn tag_sort<'a, T: 'a, O: Order<T>>(
    tags: &mut [Tag],
    item: impl Fn(usize) -> &'a T,
    order: &O,
) -> u64 {
    let Some(&(first, _)) = tags.first() else { return 0 };
    let differing = tags.iter().fold(0, |bits, tag| bits | (tag.0 ^ first));
    radix_partition(tags, u64::BITS - differing.leading_zeros());
    for at in 1..tags.len() {
        let tag = tags[at];
        let mut to = at;
        while to > 0 && tags[to - 1] > tag {
            tags[to] = tags[to - 1];
            to -= 1;
        }
        tags[to] = tag;
    }
    let mut comparisons = 0;
    for tied in tags.chunk_by_mut(|a, b| a.0 == b.0).filter(|tied| tied.len() > 1) {
        tied.sort_by(|a, b| {
            comparisons += 1;
            order.cmp(item(a.1), item(b.1))
        });
    }
    comparisons
}

/// Order `tags`, which agree in every prefix bit above the low `bits`,
/// by prefix down to groups of [`SMALL_GROUP`]: a stable counting sort
/// on the next digit, then the same within every larger bucket. Tags
/// with no bits left to tell them apart are sorted as tuples — a scan,
/// when they came in index order.
fn radix_partition(tags: &mut [Tag], bits: u32) {
    if bits == 0 {
        return tags.sort_unstable();
    }
    if tags.len() <= SMALL_GROUP {
        return;
    }
    // About one bucket per tag.
    let digit_bits = tags.len().ilog2().min(MAX_DIGIT_BITS).min(bits);
    let shift = bits - digit_bits;
    let digit = |tag: &Tag| (tag.0 >> shift) as usize & ((1 << digit_bits) - 1);
    // heads[d] is where the next tag of bucket d goes: the bucket's
    // start before the scatter, its end after.
    let mut heads = vec![0usize; (1 << digit_bits) + 1];
    tags.iter().for_each(|tag| heads[digit(tag) + 1] += 1);
    let mut total = 0;
    for head in &mut heads {
        total += *head;
        *head = total;
    }
    let unordered = tags.to_vec();
    for tag in &unordered {
        let head = &mut heads[digit(tag)];
        tags[*head] = *tag;
        *head += 1;
    }
    let mut start = 0;
    for &end in &heads[..heads.len() - 1] {
        if end - start > SMALL_GROUP {
            radix_partition(&mut tags[start..end], shift);
        }
        start = end;
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
    /// Radix-sorts 16-byte `(prefix, index)` tags instead of the
    /// elements (`tag_sort`), then applies the permutation to the
    /// elements in place, cycle by cycle, so element storage is neither
    /// reallocated nor shuffled `log n` times. When one prefix is all
    /// there is — an order without one, or keys alike in their first 8
    /// bytes — tags would decide nothing and only put an indirection
    /// into every comparison, so the elements are sorted directly.
    pub fn sort<O: Order<T>>(mut items: Vec<T>, order: &O) -> SortedRun<T> {
        let mut tags: Vec<Tag> =
            items.iter().enumerate().map(|(i, item)| (order.prefix(item), i)).collect();
        if tags.iter().all(|tag| tag.0 == tags[0].0) {
            items.sort_by(|a, b| order.cmp(a, b));
        } else {
            tag_sort(&mut tags, |i| &items[i], order);
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
