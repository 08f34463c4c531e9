//! Sort unsorted parts into one array in a single pass over the elements.
//!
//! [`merge_runs`] needs runs: sorting each part first moves every element
//! once (the in-place permutation of [`SortedRun::sort`]) and merging
//! moves it again, through `log₂ k` tree matches. When the parts are not
//! sorted yet, both are avoidable — the splitter-first shape of a sample
//! sort. Prefixes are read off each part once; a histogram of their top
//! bits cuts the key space into `ways` contiguous ranges of near-equal
//! count; and each way radix-sorts the `(prefix, index)` tags of its
//! range (the tag sort under [`SortedRun::sort`]) and moves the elements
//! they name, once, from wherever they sit in the parts straight into
//! its slice of the one output allocation.

use crate::kway::{merge_runs, KwayStats};
use crate::run::{tag_sort, Order, SortedRun, Tag};
use crate::Workers;
use std::mem::MaybeUninit;

/// Key ranges are cut along buckets of the prefixes' top differing bits
/// that hold about this many elements each …
const BUCKET_TARGET: usize = 128;
/// … but no more of those bits than this, so that a way's bucket heads
/// stay in L1 while it scatters.
const MAX_BUCKET_BITS: u32 = 11;

/// Sort the concatenation of `parts` under `order` — equal keys by part,
/// then by position, as a stable sort would leave them — using `ways`
/// key ranges sorted side by side on `workers`: what the runtime's p-way
/// merge phase runs when its reduce partitions are not sorted yet.
///
/// Elements are **moved**, never cloned, and moved once; no part is
/// sorted on the way. When one prefix is all there is (an order without
/// one, or keys alike in their first 8 bytes) there is nothing to cut
/// ranges along: the parts are sorted into runs and [`merge_runs`]
/// merges them, whose splitters are full keys.
///
/// # Panics
/// Panics if `ways == 0`.
pub fn partitioned_sort<T, O>(
    mut parts: Vec<Vec<T>>,
    order: &O,
    ways: usize,
    workers: &impl Workers,
) -> (Vec<T>, KwayStats)
where
    T: Send + Sync,
    O: Order<T> + Sync,
{
    assert!(ways > 0, "need at least one way");
    parts.retain(|part| !part.is_empty());
    let total: usize = parts.iter().map(Vec::len).sum();

    // Each part's prefixes, in position order, and the bits in which they
    // differ from the part's first.
    let prefixed: Vec<(Vec<u64>, u64)> = workers.run(parts.iter().collect(), |part: &Vec<T>| {
        let prefixes: Vec<u64> = part.iter().map(|item| order.prefix(item)).collect();
        let differing = prefixes.iter().fold(0, |bits, prefix| bits | (prefix ^ prefixes[0]));
        (prefixes, differing)
    });
    let first = prefixed.first().map_or(0, |(prefixes, _)| prefixes[0]);
    let differing =
        prefixed.iter().fold(0, |bits, (prefixes, within)| bits | within | (prefixes[0] ^ first));

    // A tag's index is the part's number above the position's bits.
    let longest = parts.iter().map(Vec::len).max().unwrap_or(1);
    let position_bits = usize::BITS - (longest - 1).leading_zeros();
    let indexable = usize::MAX
        .checked_shr(position_bits)
        .is_some_and(|last_part| parts.len().saturating_sub(1) <= last_part);
    if differing == 0 || !indexable {
        drop(prefixed);
        let runs = workers.run(parts, |part| SortedRun::sort(part, order));
        return merge_runs(runs, order, ways, workers);
    }
    let locate = |index: usize| &parts[index >> position_bits][index & ((1 << position_bits) - 1)];

    // Count the prefixes by their top differing bits, in buckets of a
    // hundred-odd (and enough of them to balance the ways), and give
    // each way the next buckets up to its share of the total.
    let bits = u64::BITS - differing.leading_zeros();
    let bucket_bits =
        (total / BUCKET_TARGET).max(ways.saturating_mul(8)).ilog2().min(MAX_BUCKET_BITS).min(bits);
    let bucket_of =
        |prefix: u64| (prefix >> (bits - bucket_bits)) as usize & ((1 << bucket_bits) - 1);
    let mut counts = vec![0usize; 1 << bucket_bits];
    for (prefixes, _) in &prefixed {
        prefixes.iter().for_each(|&prefix| counts[bucket_of(prefix)] += 1);
    }
    let mut out: Vec<T> = Vec::with_capacity(total);
    let mut rest = &mut out.spare_capacity_mut()[..total];
    let mut jobs = Vec::with_capacity(ways);
    let (mut from, mut taken) = (0, 0);
    for way in 1..=ways {
        let share = (total as u128 * way as u128 / ways as u128) as usize;
        let mut len = 0;
        let mut to = from;
        while to < counts.len() && (way == ways || taken + len < share) {
            len += counts[to];
            to += 1;
        }
        let (slots, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        if len > 0 {
            jobs.push((from..to, slots));
        }
        (from, taken) = (to, taken + len);
    }

    // One way: scatter the tags of its buckets into place, bucket by
    // bucket in index order, sort each bucket, move the elements;
    // returns (full comparisons, slots filled).
    let sort_way = |(buckets, slots): (std::ops::Range<usize>, &mut [MaybeUninit<T>])| {
        // heads[b] is where the next tag of the way's bucket b goes. A
        // tag of another way's bucket goes to the spare slot past the
        // end, which its head never leaves: no branch on whose it is.
        let mut heads = Vec::with_capacity(buckets.len() + 1);
        let mut next = 0;
        for &count in &counts[buckets.clone()] {
            heads.push(next);
            next += count;
        }
        heads.push(next);
        let mut tags: Vec<Tag> = vec![(0, 0); next + 1];
        for (part, (prefixes, _)) in prefixed.iter().enumerate() {
            for (at, &prefix) in prefixes.iter().enumerate() {
                let bucket = bucket_of(prefix).wrapping_sub(buckets.start).min(buckets.len());
                tags[heads[bucket]] = (prefix, part << position_bits | at);
                heads[bucket] += usize::from(bucket < buckets.len());
            }
        }
        tags.pop();
        // Each head now stands at its bucket's end.
        let mut comparisons = 0;
        let mut start = 0;
        for &end in &heads[..buckets.len()] {
            comparisons += tag_sort(&mut tags[start..end], locate, order);
            start = end;
        }
        let mut filled = 0usize;
        for (slot, &(_, index)) in slots.iter_mut().zip(&tags) {
            // SAFETY: `locate` returns a valid `&T` into a part. This
            // makes a bitwise copy while the part still owns the
            // original; the copy sits in `out`'s spare capacity, neither
            // dropped nor exposed, until the block at the end of this
            // function makes the parts forget the originals.
            slot.write(unsafe { std::ptr::read(locate(index)) });
            filled += 1;
        }
        (comparisons, filled)
    };
    let partitions = jobs.len();
    let done: Vec<(u64, usize)> = workers.run(jobs, sort_way);
    let comparisons = done.iter().map(|&(c, _)| c).sum();
    let filled: usize = done.iter().map(|&(_, f)| f).sum();
    // Memory safety below rests on this and on the tags: every position
    // of every part was tagged by exactly one way (the bucket ranges tile
    // the buckets) and took a slot of its own there (`counts` and the
    // scatter read the same prefixes through the same `bucket_of`),
    // `tag_sort` only permutes, and every way filled all of its slots —
    // so each element was read exactly once and every one of the first
    // `total` slots is written.
    assert_eq!(filled, total, "partitioned sort filled {filled} of {total} output slots");
    // SAFETY: the first `total` elements of `out` (within its capacity)
    // were initialized by the ways, each with a copy of a distinct part
    // element, and every part element was copied. Truncating the parts
    // to zero length without dropping makes those copies the sole
    // owners. A panic before this point (an `Order` that panics, the
    // assert) unwinds with `out` at length 0 and the parts owning every
    // element, so nothing is dropped twice; nothing in the block can
    // panic.
    unsafe {
        for part in &mut parts {
            part.set_len(0);
        }
        out.set_len(total);
    }
    (out, KwayStats { comparisons, elements_moved: total as u64, partitions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ByKey;
    use crate::{Inline, ScopedThreads};
    use std::sync::Arc;

    /// Tokens counted by reference: a double move would double-free, a
    /// missed one would leak.
    fn token_parts(tokens: &[Arc<u32>]) -> Vec<Vec<(u32, Arc<u32>)>> {
        // Key k sits in part k % 3 at a scattered position.
        (0..3)
            .map(|part| {
                (0..tokens.len() as u32)
                    .map(|i| i * 7 % tokens.len() as u32)
                    .filter(|key| key % 3 == part)
                    .map(|key| (key, Arc::clone(&tokens[key as usize])))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn partitioned_sort_moves_owned_elements_exactly_once() {
        let tokens: Vec<Arc<u32>> = (0..3000).map(Arc::new).collect();
        let order = ByKey(|k: &u32| u64::from(*k >> 3));
        let (out, _) = partitioned_sort(token_parts(&tokens), &order, 4, &ScopedThreads(4));
        assert!(out.iter().enumerate().all(|(i, (k, t))| *k == i as u32 && **t == i as u32));
        assert!(tokens.iter().all(|t| Arc::strong_count(t) == 2));
        drop(out);
        assert!(tokens.iter().all(|t| Arc::strong_count(t) == 1));
    }

    /// Orders keys by value, eight to a prefix, and panics on reaching a key
    /// at or above `fuse` — in `prefix` or in `cmp`.
    struct Fused {
        fuse: u32,
        in_cmp: bool,
    }

    impl Order<(u32, Arc<u32>)> for Fused {
        fn prefix(&self, item: &(u32, Arc<u32>)) -> u64 {
            assert!(self.in_cmp || item.0 < self.fuse, "fuse blown in prefix");
            u64::from(item.0 >> 3)
        }

        fn cmp(&self, a: &(u32, Arc<u32>), b: &(u32, Arc<u32>)) -> std::cmp::Ordering {
            assert!(a.0.max(b.0) < self.fuse, "fuse blown in cmp");
            a.0.cmp(&b.0)
        }
    }

    #[test]
    fn a_panicking_order_drops_every_element_exactly_once() {
        fn blow(order: Fused, workers: &(impl Workers + std::panic::RefUnwindSafe)) {
            let tokens: Vec<Arc<u32>> = (0..3000).map(Arc::new).collect();
            let parts = token_parts(&tokens);
            let unwound = std::panic::catch_unwind(|| partitioned_sort(parts, &order, 3, workers));
            assert!(unwound.is_err(), "the fuse must blow");
            // The unwind dropped the parts and the half-filled output: one
            // reference each is left, ours.
            assert!(tokens.iter().all(|t| Arc::strong_count(t) == 1));
        }
        // In the prefix pass, before anything moved; and in the last way's
        // tie-breaks, after the first two ways moved all of theirs.
        blow(Fused { fuse: 1500, in_cmp: false }, &Inline);
        blow(Fused { fuse: 2900, in_cmp: true }, &Inline);
        blow(Fused { fuse: 2900, in_cmp: true }, &ScopedThreads(3));
    }
}
