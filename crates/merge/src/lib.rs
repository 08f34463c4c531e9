//! Sorting and merging algorithms for the SupMR merge phase.
//!
//! The paper's merge-phase finding (§IV): the stock Phoenix++ runtime
//! merges sorted runs with **iterative 2-way rounds** — each round merges
//! pairs of lists in parallel, halving the number of active threads, and
//! every round re-scans all N elements, so total data movement is
//! `N·⌈log₂ k⌉` for `k` runs. SupMR replaces this with a **p-way merge**
//! (à la `gnu_parallel::sort`, Salzberg's "merging sorted runs using large
//! main memory"): one pass over the data using a tournament (loser) tree,
//! `N` element moves and `N·log₂ k` comparisons but no re-scanning, and a
//! single fully-parallel round instead of a thread-starved step-down.
//!
//! This crate implements both sides of that comparison plus the parallel
//! sorts built on them:
//!
//! * [`run`] — the sorted-run type all of them share: elements plus a
//!   dense side array of order-preserving 8-byte key prefixes, the
//!   [`Order`] that defines both, and the one run sort.
//! * [`loser_tree`] — the flat k-way tournament tree, deciding matches
//!   on cached prefixes first.
//! * [`kway`] — single-pass p-way merge, sequential and parallel
//!   (output-partitioned by splitter keys, every way writing its slice
//!   of the one output allocation).
//! * [`pairwise`] — the baseline iterative 2-way merge rounds with
//!   instrumentation (rounds, elements re-scanned, wave widths) so the
//!   "step curve" of the paper's Fig. 1 is observable.
//! * [`sort`] — parallel run sort + configurable merge backend: the
//!   "OpenMP sort" comparator.
//! * [`frame`], [`external`], [`folded`] — the out-of-core side: the
//!   frame codec, run files written and read a block at a time through
//!   it, and the streaming merges (plain and combiner-folding) that run
//!   the same tree over run streams under the same [`Order`].
//!
//! # The key prefix
//!
//! Every sort and merge here runs under an [`Order`]: the full
//! comparison plus an order-preserving 8-byte **prefix** of the key,
//! cached per element in a [`SortedRun`]'s side array and per head in
//! the tree. The contract is `cmp(a, b) != Greater` ⟹
//! `prefix(a) <= prefix(b)`; equal prefixes decide nothing and fall
//! through to `cmp` (then to run index and position, so every merge is
//! stable), which makes the constant `0` — [`Natural`], what the
//! `T: Ord` entry points use — always valid. A prefix changes how many
//! comparisons dereference a key, never the output.
//!
//! # The frame format
//!
//! Every record that leaves pair form — into a spill run file
//! ([`RunWriter`] / [`RunReader`]) or into the runtime's in-memory
//! stage hand-off — is one **frame**:
//!
//! ```text
//! u32 payload length (LE) | u32 CRC-32 of the payload (LE) | payload
//! ```
//!
//! Frames sit back to back with nothing between or around them: a run
//! file or hand-off segment is a whole number of frames, an empty
//! payload is a frame like any other, and the end of the bytes on a
//! frame boundary is the end of the stream. The checksum is the IEEE
//! (zlib/PNG) CRC-32 and covers the payload only, so truncation
//! anywhere, a flipped bit, or a length prefix that lies shows up as a
//! typed [`FrameError`] instead of a mis-parsed record; lengths above
//! [`frame::MAX_RECORD`] are rejected before anything is sized by them.
//! [`frame`] is the only implementation — [`crc32`], the in-place
//! encoder [`push_frame`] and the borrowing walker [`split_frame`] —
//! and what a payload *means* (a `PairCodec` encoding, an opaque sort
//! record) is its callers' business.
//!
//! ```
//! use supmr_merge::{kway_merge, pairwise_merge_rounds};
//!
//! let runs = vec![vec![1, 4, 7], vec![2, 5, 8], vec![0, 3, 6]];
//! let (merged, kw) = kway_merge(runs.clone());
//! assert_eq!(merged, (0..9).collect::<Vec<_>>());
//! assert_eq!(kw.elements_moved, 9);          // single pass
//!
//! let (_, pw) = pairwise_merge_rounds(runs, false);
//! assert_eq!(pw.rounds, 2);                  // ceil(log2(3))
//! assert!(pw.elements_moved > 9);            // re-scans each round
//! ```

pub mod external;
pub mod folded;
pub mod frame;
pub mod heap;
pub mod kway;
pub mod loser_tree;
pub mod pairwise;
pub mod run;
pub mod sort;

pub use external::{
    external_sort, merge_run_files, spill_sorted_runs, RunReadError, RunReader, RunWriter,
    BLOCK_BYTES,
};
pub use folded::{merge_by_key, merge_fold, merge_fold_by, FoldedMerge};
pub use frame::{crc32, push_frame, split_frame, FrameError};
pub use heap::heap_kway_merge;
pub use kway::{kway_merge, merge_runs, parallel_kway_merge, KwayStats};
pub use loser_tree::{merge_iterators, merge_iterators_by, LoserTree};
pub use pairwise::{pairwise_merge_rounds, pairwise_rounds, PairwiseStats};
pub use run::{ByKey, Natural, Order, SortedRun};
pub use sort::{parallel_sort, MergeBackend, SortStats};
