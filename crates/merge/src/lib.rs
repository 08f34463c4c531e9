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
//!   [`Order`] that defines both, the one tag sort (a radix sort of
//!   `(prefix, index)` tags that dereferences only elements whose
//!   prefixes tie) and the run sort built on it.
//! * [`loser_tree`] — the flat k-way tournament tree, deciding matches
//!   on cached prefixes first.
//! * [`kway`] — single-pass p-way merge, sequential and parallel
//!   (output-partitioned by splitter keys, every way writing its slice
//!   of the one output allocation).
//! * [`partitioned`] — the same single pass when the inputs are not
//!   sorted yet: key ranges cut along a histogram of the prefixes, every
//!   way tag-sorting its range and gathering the elements straight from
//!   the unsorted parts into its slice of the output. No runs are
//!   formed, so no element moves twice.
//! * [`pairwise`] — the baseline iterative 2-way merge rounds with
//!   instrumentation (rounds, elements re-scanned, wave widths) so the
//!   "step curve" of the paper's Fig. 1 is observable.
//! * [`sort`] — parallel run sort + configurable merge backend: the
//!   "OpenMP sort" comparator.
//! * [`slots`] — the one output allocation for producers outside the
//!   crate: a window of it per producer, each filled in place.
//! * [`Workers`] — the one seam to whoever owns the threads. A parallel
//!   round here is a `Vec` of jobs that borrow the runs, the order and
//!   disjoint slices of the output; [`merge_runs`], [`partitioned_sort`],
//!   [`pairwise_rounds`] and the run sort hand it to a `Workers` and get
//!   the results back in job order. [`Inline`] runs it on the caller,
//!   [`ScopedThreads`] on threads spawned for the call (what the
//!   `T: Ord` entry points use), and the `supmr` runtime passes its own
//!   executor, so its merge phase runs on the job's workers under the
//!   job's width. What a thread does for a round is the same wherever it
//!   came from: [`Batch::drain`].
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
//! ([`RunWriter`] / [`RunReader`]) — is one **frame**:
//!
//! ```text
//! u32 payload length (LE) | u32 CRC-32 of the payload (LE) | payload
//! ```
//!
//! Frames sit back to back with nothing between or around them: a run
//! file is a whole number of frames, an empty
//! payload is a frame like any other, and the end of the bytes on a
//! frame boundary is the end of the stream. The checksum is the IEEE
//! (zlib/PNG) CRC-32 and covers the payload only, so truncation
//! anywhere, a flipped bit, or a length prefix that lies shows up as a
//! typed [`FrameError`] instead of a mis-parsed record; lengths above
//! [`frame::MAX_RECORD`] are rejected before anything is sized by them.
//! A file cut on a frame boundary still reads as a whole stream: a reader
//! that knows its record count checks that too. [`crc32`] runs on
//! carry-less multiply (PCLMULQDQ) where the CPU has it and on
//! slicing-by-8 tables elsewhere, to the same value.
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
pub mod kway;
pub mod loser_tree;
pub mod pairwise;
pub mod partitioned;
pub mod run;
pub mod slots;
pub mod sort;

pub use external::{merge_run_files, RunReadError, RunReader, RunWriter, BLOCK_BYTES};
pub use folded::{merge_by_key, merge_fold, merge_fold_by, FoldedMerge};
pub use frame::{crc32, push_frame, split_frame, FrameError};
pub use kway::{kway_merge, merge_runs, parallel_kway_merge, KwayStats};
pub use loser_tree::{merge_iterators, merge_iterators_by, LoserTree};
pub use pairwise::{pairwise_merge_rounds, pairwise_round, pairwise_rounds, PairwiseStats};
pub use partitioned::partitioned_sort;
pub use run::{ByKey, Natural, Order, SortedRun};
pub use slots::{OutputSlots, SlotWindow};
pub use sort::{parallel_sort, MergeBackend, SortStats};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Whoever runs a round's jobs: "run these borrowed jobs, hand back
/// their results in job order".
///
/// `run` returns only when every job has finished, and a job's panic
/// reaches the caller only after the others are done — which is what
/// lets jobs borrow from the caller's frame. Calling `run` from inside a
/// job is not supported: an implementation with a fixed set of threads
/// would wait on itself.
pub trait Workers {
    /// Apply `job` to every element of `jobs`; results in job order.
    fn run<J: Send, R: Send>(&self, jobs: Vec<J>, job: impl Fn(J) -> R + Sync) -> Vec<R>;
}

/// Runs every job on the calling thread, in order — the serial baseline
/// whose work counters tests can pin.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl Workers for Inline {
    fn run<J: Send, R: Send>(&self, jobs: Vec<J>, job: impl Fn(J) -> R + Sync) -> Vec<R> {
        jobs.into_iter().map(job).collect()
    }
}

/// One round's work, whoever's threads run it: the jobs behind an index
/// and a slot per result. Threads call [`drain`](Batch::drain);
/// [`finish`](Batch::finish) hands the results back once they all have.
/// [`ScopedThreads`] is this plus spawned threads; the `supmr` runtime
/// lends it to its resident pool.
pub struct Batch<'f, J, R, F> {
    job: &'f F,
    state: Mutex<BatchState<J, R>>,
}

struct BatchState<J, R> {
    /// Jobs not yet taken, each with its index in the original order.
    jobs: std::iter::Enumerate<std::vec::IntoIter<J>>,
    /// What each job returned, or panicked with, by job index.
    slots: Vec<Option<std::thread::Result<R>>>,
}

impl<'f, J, R, F: Fn(usize, J) -> R> Batch<'f, J, R, F> {
    /// A batch applying `job` to every element of `jobs` and its index.
    pub fn new(jobs: Vec<J>, job: &'f F) -> Self {
        let slots = jobs.iter().map(|_| None).collect();
        Batch { job, state: Mutex::new(BatchState { jobs: jobs.into_iter().enumerate(), slots }) }
    }

    // No job runs under the lock, so its data is valid at every step
    // and a poison flag says nothing.
    fn state(&self) -> std::sync::MutexGuard<'_, BatchState<J, R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run jobs until none is left: what one thread does for a round. A
    /// panicking job is caught and kept; the thread goes on, so every
    /// job of a batch runs and `drain` never unwinds.
    pub fn drain(&self) {
        self.drain_while(|| true);
    }

    /// [`drain`](Batch::drain), asking `go` before each job whether to
    /// take it. Returns `true` when the batch ran out and `false` when
    /// `go` stopped this thread first; the jobs it left are for the
    /// threads still draining, so one of them must not stop.
    pub fn drain_while(&self, mut go: impl FnMut() -> bool) -> bool {
        let mut finished = None;
        loop {
            let stop = !go();
            // One lock per job: store the last result, take the next job.
            let next = {
                let mut state = self.state();
                if let Some((index, result)) = finished.take() {
                    state.slots[index] = Some(result);
                }
                if stop {
                    return false;
                }
                state.jobs.next()
            };
            let Some((index, item)) = next else { return true };
            finished = Some((index, catch_unwind(AssertUnwindSafe(|| (self.job)(index, item)))));
        }
    }

    /// The results in job order, or the panic of the first job that
    /// panicked re-raised. Call once every `drain` has returned.
    pub fn finish(self) -> Vec<R> {
        let slots = self.state.into_inner().unwrap_or_else(PoisonError::into_inner).slots;
        slots
            .into_iter()
            .map(|slot| match slot.expect("a drained batch ran every job") {
                Ok(result) => result,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

/// Runs each call's jobs on up to this many threads, spawned for the
/// call and joined before it returns; the threads pull jobs from one
/// queue, so a few large jobs balance across them.
#[derive(Debug, Clone, Copy)]
pub struct ScopedThreads(pub usize);

impl ScopedThreads {
    /// As many threads as the machine runs at once.
    pub fn available() -> ScopedThreads {
        ScopedThreads(std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// [`Workers::run`] with each job's index passed along.
    pub fn run_indexed<J: Send, R: Send>(
        &self,
        jobs: Vec<J>,
        job: impl Fn(usize, J) -> R + Sync,
    ) -> Vec<R> {
        let threads = self.0.min(jobs.len());
        let batch = Batch::new(jobs, &job);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| batch.drain());
            }
        });
        batch.finish()
    }
}

impl Workers for ScopedThreads {
    fn run<J: Send, R: Send>(&self, jobs: Vec<J>, job: impl Fn(J) -> R + Sync) -> Vec<R> {
        self.run_indexed(jobs, |_, item| job(item))
    }
}
