//! Intermediate key/value containers.
//!
//! Phoenix++'s central design idea — which SupMR inherits — is that the
//! intermediate container is chosen per workload (§V-B):
//!
//! * [`HashContainer`] — keys hash to cells; right when "many pairs share
//!   the same key" (word count) because combining shrinks the
//!   intermediate set at insert time.
//! * [`ArrayContainer`] — keys are dense `usize` indices into a fixed
//!   array (histogram-family applications).
//! * [`UnlockedContainer`] — "unlocked storage, which allows all threads
//!   to write to a single array without synchronization": each map task
//!   appends to its own run, no per-pair locking, for jobs with unique
//!   keys (sort) where hashing and key lookups are pure overhead.
//!
//! All containers are **persistent across map rounds** (§III-C): the
//! pipeline runtime creates a container once and every map wave absorbs
//! into it; nothing is reinitialized between rounds. A combining
//! container's task-local tables persist too: in an unbudgeted job each
//! concurrently running map task keeps one for the whole map phase, and
//! one wave absorbs them all after the last round.
//!
//! The map→reduce handoff is split in two so it can run on the worker
//! pool: [`Container::into_drains`] decomposes the finished container
//! into independent per-partition payloads (cheap, on the calling
//! thread), and [`Container::drain`] materializes one payload into
//! reduce input (the expensive part, dispatched as reduce-wave tasks by
//! `finish_job`). [`Container::into_partitions`] composes the two for
//! call sites that don't need the parallelism.

mod array;
pub mod fast_hash;
mod hash;
mod local_table;
mod unlocked;

pub use array::ArrayContainer;
pub use fast_hash::{FxSeededState, SeedableBuildHasher, ShortKeyHasher};
pub use hash::HashContainer;
pub use unlocked::UnlockedContainer;

use crate::api::Emit;
use crate::combiner::Combiner;
use crate::spill::SpillHooks;
use std::sync::Arc;
use std::time::Duration;

/// Runtime-provided wiring a container receives once, after
/// construction and before the first map wave.
///
/// [`MapReduce::make_container`](crate::api::MapReduce::make_container)
/// takes no configuration, so knobs that originate in
/// [`JobConfig`](crate::runtime::JobConfig) — the hash seed, the
/// governor's dynamic knobs — reach the container through this hook
/// instead. Metrics do not: a container reports what each absorb did
/// in the [`Absorbed`] it returns, and the runtime records it.
#[derive(Debug, Clone, Default)]
pub struct ContainerHooks {
    /// Reseed the container's key hasher for reproducible placement
    /// (`--hash-seed`). `None` keeps the per-container random seed.
    pub hash_seed: Option<u64>,
    /// The feedback governor's dynamic knobs, when the job runs
    /// adaptively: the absorb lock-sweep rotation mask and pre-emptive
    /// drain requests reach the container through this handle.
    pub active: Option<Arc<crate::runtime::ActiveConfig>>,
}

/// What one [`Container::absorb`] did: the container measures, the
/// runtime's probe records (the shuffle flow and the
/// `supmr.container.*` / `supmr.map.*` families).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Absorbed {
    /// Entries folded into the shared state: the handle's distinct keys
    /// for a combining container, its pairs for a run.
    pub entries: u64,
    /// Shared-state lock acquisitions.
    pub locks: u64,
    /// Time spent waiting to acquire those locks.
    pub lock_wait: Duration,
    /// Time the absorb took, ending before any spill it triggered, so
    /// absorbing and spilling never claim the same time.
    pub busy: Duration,
    /// The absorbed table's shape, from a container that keeps one (the
    /// hash container) and only when it held any entry.
    pub table: Option<TableShape>,
}

/// The shape of one absorbed local hash table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TableShape {
    /// Borrowed-slice emissions ([`Emit::emit_bytes`]) it folded.
    pub tokens: u64,
    /// Borrowed-slice first-inserts whose key exceeded the inline cap
    /// and heap-allocated ([`ByteKey::spills`](crate::key::ByteKey::spills)).
    pub alloc_spills: u64,
    /// Occupied share of its slot array, in `[0, 1]`.
    pub load: f64,
    /// Mean distance of its entries from their home slots, in slots.
    pub displacement: f64,
}

/// Storage for intermediate pairs between the map and reduce phases.
///
/// The runtime's contract:
///
/// 1. Each map task emits into a [`Container::local`] handle (combining
///    happens there, unsynchronized). When the container
///    [`combines`](Container::combines) and the job has no memory budget,
///    the handle is a worker table: a task takes a free one (or a fresh
///    one when none is free), maps into it and puts it back, so the map
///    phase holds one per concurrently running task, and after the last
///    round one wave [`Container::absorb`]s them all. Otherwise the
///    worker absorbs the handle when its task ends — a budget charges
///    pairs at absorb, and the handle of a container that does not
///    combine is the task's run.
/// 2. After the last map round, [`Container::into_drains`] splits the
///    accumulated pairs into at most `parts` disjoint payloads, each
///    [`Container::drain`]ed to reduce input on a worker. Every key
///    appears in exactly one partition, exactly once.
pub trait Container<K, V, C: Combiner<V>>: Send + Sync + Sized + 'static {
    /// Thread-local insert handle for one map task.
    type Local: Emit<K, V> + Send;

    /// One partition's un-materialized payload, movable to a worker.
    type Drain: Send + 'static;

    /// Create a fresh local insert handle.
    fn local(&self) -> Self::Local;

    /// Fold a local handle's pairs — one task's, or a worker table's
    /// from many tasks — into the shared state, and say what that took.
    fn absorb(&self, local: Self::Local) -> Absorbed;

    /// Apply runtime wiring (hash seed, governor knobs). Called at most once,
    /// before any [`Container::local`] handle exists; the default
    /// ignores the hooks.
    fn configure(&self, _hooks: &ContainerHooks) {}

    /// Attach the out-of-core spill wiring. Called at most once, before
    /// any [`Container::local`] handle exists, and only when the job
    /// runs under a memory budget. Returns whether this container can
    /// spill; the default refuses, which the runtime turns into an
    /// [`InvalidConfig`](crate::error::SupmrError::InvalidConfig) error
    /// rather than silently running unbounded.
    fn configure_spill(&self, _hooks: &SpillHooks<K, C::Acc>) -> bool {
        false
    }

    /// Whether the container combines: its local handles fold equal keys
    /// into one accumulator, so a handle may stay resident across map
    /// tasks, and spilled runs hold *folded* accumulators that must keep
    /// folding when equal keys meet across runs in the external merge
    /// (`true`, the hash and array containers). `false` for run
    /// containers, whose handles are per-task runs of independent pairs
    /// that pass through unfolded.
    fn combines() -> bool {
        true
    }

    /// [`Container::into_drains`], with each payload tagged by the
    /// partition index its keys belong to — the same index a spilled
    /// run of those keys carries, so the external merge can pair
    /// in-memory remainders with their on-disk runs. The default
    /// enumeration is correct for containers whose drains *are* the
    /// partitions in order.
    fn into_indexed_drains(self, parts: usize) -> Vec<(usize, Self::Drain)> {
        self.into_drains(parts).into_iter().enumerate().collect()
    }

    /// Number of distinct keys currently held.
    fn distinct_keys(&self) -> usize;

    /// Total pairs emitted into the container (pre-combining).
    fn total_pairs(&self) -> u64;

    /// Decompose into at most `parts` disjoint drain payloads (plus
    /// implementation slack: the unlocked container returns one per map
    /// run). This is the cheap step — no per-key work — so it may run
    /// on the coordinating thread.
    fn into_drains(self, parts: usize) -> Vec<Self::Drain>;

    /// Materialize one payload into reduce input. Associated function
    /// (no `&self`): the container is already consumed, and workers own
    /// their payloads outright.
    fn drain(payload: Self::Drain) -> Vec<(K, C::Acc)>;

    /// How many pairs `payload` drains to, when that is known without
    /// draining it. A container that does not
    /// [`combine`](Container::combines) must know: the external reduce
    /// sizes each partition's output by it before the partition's task
    /// drains.
    fn drain_len(_payload: &Self::Drain) -> Option<usize> {
        None
    }

    /// [`Container::into_drains`] + [`Container::drain`] on the calling
    /// thread. Returns at least one partition when any pairs are held.
    fn into_partitions(self, parts: usize) -> Vec<Vec<(K, C::Acc)>> {
        self.into_drains(parts).into_iter().map(Self::drain).filter(|p| !p.is_empty()).collect()
    }
}
