//! Key-ordered merging of `(key, accumulator)` streams.
//!
//! The spill-aware reduce path merges several key-sorted sources per
//! partition — spilled run files plus the in-memory remainder — and must
//! either **fold** equal keys with the job's combiner (hash-container
//! jobs, where each source holds at most one entry per key) or keep
//! every record (identity-combiner jobs like Terasort, where duplicates
//! are real data). Both shapes ride the same
//! [`LoserTree`](crate::LoserTree) used everywhere else in this crate,
//! under the key-only [`ByKey`] order, so the tree never compares (or
//! requires ordering on) accumulator values.

use crate::loser_tree::merge_iterators_by;
use crate::run::{ByKey, Order};

/// The key-only order with no prefix: every comparison is a full key
/// comparison.
fn unprefixed<K: Ord, A>() -> impl Order<(K, A)> + Copy {
    let no_prefix: fn(&K) -> u64 = |_| 0;
    ByKey(no_prefix)
}

/// Merge key-sorted `(key, acc)` sources into one key-sorted stream,
/// preserving duplicates (no folding). Memory use is one buffered pair
/// per source. With a key prefix to compare first, call
/// [`merge_iterators_by`] under a prefixed [`ByKey`] — this is that
/// merge without one.
pub fn merge_by_key<K: Ord, A, I>(sources: Vec<I>) -> impl Iterator<Item = (K, A)>
where
    I: Iterator<Item = (K, A)>,
{
    merge_iterators_by(sources, unprefixed())
}

/// [`merge_fold_by`] without a key prefix.
pub fn merge_fold<K, A, I, F>(
    sources: Vec<I>,
    fold: F,
) -> FoldedMerge<K, A, impl Iterator<Item = (K, A)>, F>
where
    K: Ord,
    I: Iterator<Item = (K, A)>,
    F: FnMut(&mut A, A),
{
    merge_fold_by(sources, unprefixed(), fold)
}

/// Merge sources sorted under `order` (a key order, such as a prefixed
/// [`ByKey`]) into one stream in that order, folding equal keys with
/// `fold` (first accumulator wins the slot, the rest are folded into it
/// in merge order). One output pair per distinct key.
pub fn merge_fold_by<K, A, I, O, F>(
    sources: Vec<I>,
    order: O,
    fold: F,
) -> FoldedMerge<K, A, impl Iterator<Item = (K, A)>, F>
where
    K: Ord,
    I: Iterator<Item = (K, A)>,
    O: Order<(K, A)> + Copy,
    F: FnMut(&mut A, A),
{
    FoldedMerge { inner: merge_iterators_by(sources, order), pending: None, fold }
}

/// Streaming combiner-folding merge returned by [`merge_fold`].
pub struct FoldedMerge<K, A, M, F> {
    inner: M,
    pending: Option<(K, A)>,
    fold: F,
}

impl<K, A, M, F> Iterator for FoldedMerge<K, A, M, F>
where
    K: Ord,
    M: Iterator<Item = (K, A)>,
    F: FnMut(&mut A, A),
{
    type Item = (K, A);

    fn next(&mut self) -> Option<(K, A)> {
        loop {
            match self.inner.next() {
                Some((key, acc)) => match &mut self.pending {
                    Some((pk, pa)) if *pk == key => (self.fold)(pa, acc),
                    pending => {
                        if let Some(done) = pending.replace((key, acc)) {
                            return Some(done);
                        }
                    }
                },
                None => return self.pending.take(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_by_key_keeps_duplicates() {
        let a = vec![(1, "a1"), (3, "a3"), (3, "a3b")];
        let b = vec![(2, "b2"), (3, "b3")];
        let merged: Vec<(i32, &str)> = merge_by_key(vec![a.into_iter(), b.into_iter()]).collect();
        assert_eq!(merged.len(), 5);
        let keys: Vec<i32> = merged.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 3, 3]);
    }

    #[test]
    fn merge_fold_folds_equal_keys() {
        let a = vec![("ant", 2u64), ("bee", 1)];
        let b = vec![("ant", 5u64), ("cat", 7)];
        let c = vec![("bee", 10u64)];
        let merged: Vec<(&str, u64)> =
            merge_fold(vec![a.into_iter(), b.into_iter(), c.into_iter()], |acc, v| *acc += v)
                .collect();
        assert_eq!(merged, vec![("ant", 7), ("bee", 11), ("cat", 7)]);
    }

    #[test]
    fn merge_fold_handles_empty_and_single_sources() {
        let empty: Vec<(i32, i32)> = Vec::new();
        let merged: Vec<(i32, i32)> =
            merge_fold(vec![empty.into_iter()], |acc, v| *acc += v).collect();
        assert!(merged.is_empty());

        let one = vec![(1, 10), (1, 20), (2, 5)];
        let merged: Vec<(i32, i32)> =
            merge_fold(vec![one.into_iter()], |acc, v| *acc += v).collect();
        assert_eq!(merged, vec![(1, 30), (2, 5)]);
    }

    #[test]
    fn a_key_prefix_changes_no_output() {
        // Keys collide within and across sources, so prefixes tie and
        // folds meet; a coarse, a constant and an exact prefix must all
        // give the unprefixed merge's stream.
        let sources = || -> Vec<std::vec::IntoIter<(u32, u64)>> {
            (0..5u32)
                .map(|s| {
                    let mut run: Vec<(u32, u64)> =
                        (0..400u32).map(|i| ((i * 37 + s * 101) % 1500, u64::from(s))).collect();
                    run.sort_by_key(|&(k, _)| k);
                    run.into_iter()
                })
                .collect()
        };
        let plain: Vec<(u32, u64)> = merge_by_key(sources()).collect();
        let folded: Vec<(u32, u64)> = merge_fold(sources(), |acc, v| *acc = *acc * 7 + v).collect();
        assert_eq!(plain.len(), 2000);
        assert!(folded.len() < plain.len());
        let prefixes: [fn(&u32) -> u64; 3] = [|k| u64::from(*k >> 8), |_| 0, |k| u64::from(*k)];
        for prefix in prefixes {
            let merged: Vec<(u32, u64)> = merge_iterators_by(sources(), ByKey(prefix)).collect();
            assert_eq!(merged, plain);
            let merged: Vec<(u32, u64)> =
                merge_fold_by(sources(), ByKey(prefix), |acc, v| *acc = *acc * 7 + v).collect();
            assert_eq!(merged, folded);
        }
    }

    #[test]
    fn merge_no_sources_is_empty() {
        let sources: Vec<std::vec::IntoIter<(u8, u8)>> = Vec::new();
        assert_eq!(merge_by_key(sources).count(), 0);
    }
}
