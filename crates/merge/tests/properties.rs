//! Property-based tests for the merge algorithms: all merge paths must
//! agree with plain sorting for arbitrary inputs, preserve multiplicity,
//! and respect stability.

use proptest::collection::vec;
use proptest::prelude::*;
use supmr_merge::{
    kway_merge, merge_runs, pairwise_merge_rounds, pairwise_rounds, parallel_kway_merge,
    parallel_sort, partitioned_sort, ByKey, Inline, MergeBackend, ScopedThreads, SortedRun,
};

/// Arbitrary sorted runs: up to 12 runs of up to 200 small values.
fn arb_runs() -> impl Strategy<Value = Vec<Vec<u16>>> {
    vec(vec(0u16..500, 0..200), 0..12).prop_map(|mut runs| {
        for r in &mut runs {
            r.sort_unstable();
        }
        runs
    })
}

/// Unsorted batches of `(key, (batch, position))` over a small key
/// alphabet: duplicates are the rule, so they straddle every splitter,
/// and the payload shows where each element came from.
fn arb_tagged_batches() -> impl Strategy<Value = Vec<Vec<(u16, (usize, usize))>>> {
    vec(vec(0u16..1024, 0..120), 0..9).prop_map(|batches| {
        batches
            .into_iter()
            .enumerate()
            .map(|(b, keys)| keys.into_iter().enumerate().map(|(i, k)| (k, (b, i))).collect())
            .collect()
    })
}

/// The three prefix regimes a key order can be in: none (`0`, compare
/// full keys), heavily colliding (`key >> 8`: four values), and exact.
fn prefix_of(regime: u8) -> impl Fn(&u16) -> u64 + Copy + Sync {
    move |key: &u16| match regime {
        0 => 0,
        1 => u64::from(*key >> 8),
        _ => u64::from(*key),
    }
}

fn sorted_concat(runs: &[Vec<u16>]) -> Vec<u16> {
    let mut all: Vec<u16> = runs.iter().flatten().copied().collect();
    all.sort_unstable();
    all
}

proptest! {
    #[test]
    fn kway_merge_equals_sorted_concat(runs in arb_runs()) {
        let expected = sorted_concat(&runs);
        let (out, stats) = kway_merge(runs);
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(stats.elements_moved as usize, expected.len());
    }

    #[test]
    fn parallel_kway_equals_sorted_concat(runs in arb_runs(), ways in 1usize..9) {
        let expected = sorted_concat(&runs);
        let (out, stats) = parallel_kway_merge(runs, ways);
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(stats.elements_moved as usize, expected.len());
    }

    #[test]
    fn pairwise_equals_sorted_concat(runs in arb_runs(), parallel in any::<bool>()) {
        let expected = sorted_concat(&runs);
        let (out, stats) = pairwise_merge_rounds(runs.clone(), parallel);
        prop_assert_eq!(&out, &expected);
        // Round count is ceil(log2(#non-empty runs)).
        let k = runs.iter().filter(|r| !r.is_empty()).count();
        if k > 1 {
            let expected_rounds = (k as f64).log2().ceil() as u32;
            prop_assert_eq!(stats.rounds, expected_rounds);
        } else {
            prop_assert_eq!(stats.rounds, 0);
        }
    }

    #[test]
    fn parallel_sort_equals_std_sort(
        data in vec(0u16..2000, 0..3000),
        run_count in 1usize..40,
        ways in 1usize..9,
    ) {
        let mut expected = data.clone();
        expected.sort_unstable();
        let (a, _) = parallel_sort(data.clone(), run_count, MergeBackend::PairwiseRounds);
        let (b, _) = parallel_sort(data, run_count, MergeBackend::PWay { ways });
        prop_assert_eq!(&a, &expected);
        prop_assert_eq!(&b, &expected);
    }

    #[test]
    fn merge_backends_agree_exactly(runs in arb_runs()) {
        let (a, _) = kway_merge(runs.clone());
        let (b, _) = parallel_kway_merge(runs.clone(), 4);
        let (c, _) = pairwise_merge_rounds(runs, true);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn kway_is_stable_by_run_index(
        keys in vec(vec(0u8..8, 0..40), 0..6)
    ) {
        // Tag each element with (key, run, position); stability means the
        // output's (run, position) is nondecreasing within equal keys.
        let runs: Vec<Vec<(u8, usize, usize)>> = keys
            .iter()
            .enumerate()
            .map(|(ri, ks)| {
                let mut ks: Vec<u8> = ks.clone();
                ks.sort_unstable();
                ks.into_iter().enumerate().map(|(pi, k)| (k, ri, pi)).collect()
            })
            .collect();
        // Compare only on the key: wrap in a struct ordering on key alone.
        #[derive(Clone, PartialEq, Eq, Debug)]
        struct E((u8, usize, usize));
        impl Ord for E {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering { self.0.0.cmp(&o.0.0) }
        }
        impl PartialOrd for E {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> { Some(self.cmp(o)) }
        }
        let wrapped: Vec<Vec<E>> =
            runs.into_iter().map(|r| r.into_iter().map(E).collect()).collect();
        let (out, _) = kway_merge(wrapped);
        for w in out.windows(2) {
            let (ka, ra, pa) = w[0].0;
            let (kb, rb, pb) = w[1].0;
            prop_assert!(ka <= kb);
            if ka == kb {
                prop_assert!((ra, pa) < (rb, pb), "stability violated");
            }
        }
    }

    #[test]
    fn prefix_sort_and_prefix_merges_equal_stable_sort_of_the_concatenation(
        batches in arb_tagged_batches(),
        regime in 0u8..3,
        ways in 1usize..12,
        threads in 1usize..5,
    ) {
        // Who runs the ways and the pair-merges is one more input that
        // must not show in the output; one thread runs them in order.
        let workers = ScopedThreads(threads);
        let order = ByKey(prefix_of(regime));
        // Stable sort of the concatenation: by key, then (batch, position).
        let mut expected: Vec<(u16, (usize, usize))> = batches.iter().flatten().copied().collect();
        expected.sort_by_key(|&(key, _)| key);

        let runs = || -> Vec<SortedRun<_>> {
            batches.iter().map(|batch| SortedRun::sort(batch.clone(), &order)).collect()
        };
        for run in runs() {
            // The run sort is itself stable: positions ascend within a key.
            prop_assert!(run.items().windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        }
        // `ways` may exceed the element count; empty batches are empty runs.
        let (pway, stats) = merge_runs(runs(), &order, ways, &workers);
        prop_assert_eq!(&pway, &expected);
        prop_assert_eq!(stats.elements_moved as usize, expected.len());
        let (pairwise, _) = pairwise_rounds(runs(), &order, &workers);
        prop_assert_eq!(&pairwise, &expected);
        // The same order straight from the unsorted batches, no runs.
        let (partitioned, stats) = partitioned_sort(batches.clone(), &order, ways, &workers);
        prop_assert_eq!(&partitioned, &expected);
        prop_assert_eq!(stats.elements_moved as usize, expected.len());
    }

    #[test]
    fn pway_is_stable_by_run_and_position_across_every_splitter(
        keys in vec(vec(0u8..4, 0..60), 0..7),
        regime in 0u8..3,
        ways in 1usize..10,
        threads in 1usize..5,
    ) {
        // Four distinct keys over up to nine ways: every splitter falls
        // inside a block of duplicates that spans all runs.
        let prefix = move |key: &u8| match regime {
            0 => 0,
            1 => u64::from(*key >> 1),
            _ => u64::from(*key),
        };
        let order = ByKey(prefix);
        let runs: Vec<SortedRun<(u8, (usize, usize))>> = keys
            .iter()
            .enumerate()
            .map(|(ri, ks)| {
                let mut ks = ks.clone();
                ks.sort_unstable();
                let tagged = ks.into_iter().enumerate().map(|(pi, k)| (k, (ri, pi))).collect();
                SortedRun::presorted(tagged, &order)
            })
            .collect();
        let (out, _) = merge_runs(runs, &order, ways, &ScopedThreads(threads));
        prop_assert_eq!(out.len(), keys.iter().map(Vec::len).sum::<usize>());
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }
}

/// `(key, (part, position))` parts of the given sizes, keys drawn by
/// `key_of` from a seeded xorshift stream.
fn keyed_parts(sizes: &[usize], key_of: fn(u64) -> u64) -> Vec<Vec<(u64, (usize, usize))>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    sizes
        .iter()
        .enumerate()
        .map(|(part, &len)| (0..len).map(|at| (key_of(draw()), (part, at))).collect())
        .collect()
}

/// The partitioned sort is the stable sort of the concatenation whatever
/// the prefixes look like — and however many ways, on whichever workers.
/// Parts are large enough that buckets split again, tie groups form, and
/// one way holds more than a radix pass's worth of tags.
#[test]
fn partitioned_sort_equals_stable_sort_on_hostile_prefix_distributions() {
    type Dist = (&'static str, fn(u64) -> u64, fn(&u64) -> u64);
    let distributions: [Dist; 7] = [
        ("uniform", |r| r, |k| *k),
        ("high 40 bits shared", |r| 0xABCD_EF01_2300_0000 | (r & 0xFF_FFFF), |k| *k),
        ("lowercase ascii", |r| u64::from_be_bytes(r.to_be_bytes().map(|b| b'a' + b % 26)), |k| *k),
        ("one prefix", |r| r % 5000, |_| 0),
        ("seven keys", |r| r % 7, |k| *k),
        ("prefixes tie in sixty-fours", |r| r % 100_000, |k| *k >> 6),
        ("nineteen in twenty alike", |r| if r % 20 == 0 { r } else { 42 << 40 }, |k| *k),
    ];
    let sizes = [0, 1, 5000, 0, 1, 3000, 257, 2];
    let total: usize = sizes.iter().sum();
    for (name, key_of, prefix) in distributions {
        let parts = keyed_parts(&sizes, key_of);
        let order = ByKey(prefix);
        let mut expected: Vec<_> = parts.iter().flatten().copied().collect();
        expected.sort_by_key(|&(key, _)| key);
        for ways in [1, 2, 3, 7, total + 5] {
            let (inline, stats) = partitioned_sort(parts.clone(), &order, ways, &Inline);
            assert_eq!(inline, expected, "{name}, {ways} ways, inline");
            assert_eq!(stats.elements_moved as usize, total, "{name}, {ways} ways");
            let (threaded, _) = partitioned_sort(parts.clone(), &order, ways, &ScopedThreads(4));
            assert_eq!(threaded, expected, "{name}, {ways} ways, 4 threads");
        }
        // The run sort shares the tag sort: one run of everything.
        let all: Vec<_> = parts.into_iter().flatten().collect();
        assert_eq!(SortedRun::sort(all, &order).into_items(), expected, "{name}, one run");
    }
    let none: Vec<Vec<(u64, (usize, usize))>> = vec![vec![], vec![]];
    assert!(partitioned_sort(none, &ByKey(|k: &u64| *k), 3, &Inline).0.is_empty());
}
