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
//! into it; nothing is reinitialized between rounds.
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
use supmr_metrics::{Counter, Gauge, Histogram, Registry};

/// Runtime-provided wiring a container receives once, after
/// construction and before the first map wave.
///
/// [`MapReduce::make_container`](crate::api::MapReduce::make_container)
/// takes no configuration, so knobs that originate in
/// [`JobConfig`](crate::runtime::JobConfig) — the hash seed, the live
/// metrics registry — reach the container through this hook instead.
#[derive(Debug, Clone, Default)]
pub struct ContainerHooks {
    /// Reseed the container's key hasher for reproducible placement
    /// (`--hash-seed`). `None` keeps the per-container random seed.
    pub hash_seed: Option<u64>,
    /// Handles into the `supmr.container.*` metric families.
    pub metrics: Option<Arc<ContainerMetrics>>,
    /// The feedback governor's dynamic knobs, when the job runs
    /// adaptively: the absorb lock-sweep rotation mask and pre-emptive
    /// drain requests reach the container through this handle.
    pub active: Option<Arc<crate::runtime::ActiveConfig>>,
}

/// Handles into the `supmr.container.*` metric families the shuffle
/// path maintains: absorb lock acquisition wait, absorbed batch sizes,
/// and absorb occupancy (drain duration is recorded by the runtime,
/// which owns the clock around [`Container::drain`]).
#[derive(Debug, Clone)]
pub struct ContainerMetrics {
    /// `supmr.container.absorb_wait_us` — time an absorb spent waiting
    /// to acquire shard locks, microseconds (per shard batch).
    pub absorb_wait_us: Histogram,
    /// `supmr.container.absorb_batch` — keys merged per shard-lock
    /// acquisition (how well absorbs amortize locking).
    pub absorb_batch: Histogram,
    /// `supmr.container.absorb_in_flight` — absorbs currently merging
    /// into the shared table (RAII-guarded; consistent across panics).
    pub absorb_in_flight: Gauge,
    /// `supmr.container.local_load` — occupied share of the last
    /// absorbed task-local table's slot array, percent.
    pub local_load: Gauge,
    /// `supmr.container.local_probe_len` — mean distance of the last
    /// absorbed task-local table's entries from their home slots, in
    /// hundredths of a slot: near 100 and the local combine walks a
    /// slot per lookup it should not; in the thousands and its index is
    /// broken. (Gauges, not histograms: a histogram is 88 KB, and the
    /// daemon keeps every finished job's registry.)
    pub local_probe_len: Gauge,
    /// `supmr.map.tokens` — borrowed-slice emissions
    /// ([`Emit::emit_bytes`]) folded through the zero-copy probe path.
    pub emit_tokens: Counter,
    /// `supmr.map.alloc_spills` — borrowed-slice first-inserts whose
    /// key exceeded the inline cap and heap-allocated
    /// ([`ByteKey::spills`](crate::key::ByteKey::spills)).
    pub alloc_spills: Counter,
}

impl ContainerMetrics {
    /// Register (or re-attach to) the container families in `registry`.
    pub fn register(registry: &Registry) -> Arc<ContainerMetrics> {
        Arc::new(ContainerMetrics {
            absorb_wait_us: registry.histogram(
                "supmr.container.absorb_wait_us",
                "Shard-lock acquisition wait during absorb, microseconds.",
                &[],
            ),
            absorb_batch: registry.histogram(
                "supmr.container.absorb_batch",
                "Keys merged per shard-lock acquisition.",
                &[],
            ),
            absorb_in_flight: registry.gauge(
                "supmr.container.absorb_in_flight",
                "Absorb operations currently merging into the shared table.",
                &[],
            ),
            local_load: registry.gauge(
                "supmr.container.local_load",
                "Occupied share of the last absorbed task-local table's slots, percent.",
                &[],
            ),
            local_probe_len: registry.gauge(
                "supmr.container.local_probe_len",
                "Mean displacement of the last absorbed task-local table's entries from their \
                 home slots, hundredths of a slot.",
                &[],
            ),
            emit_tokens: registry.counter(
                "supmr.map.tokens",
                "Borrowed-slice tokens emitted through the zero-copy map path.",
                &[],
            ),
            alloc_spills: registry.counter(
                "supmr.map.alloc_spills",
                "Zero-copy emissions whose first insert heap-allocated the key.",
                &[],
            ),
        })
    }
}

/// Storage for intermediate pairs between the map and reduce phases.
///
/// The runtime's contract:
///
/// 1. Each map task obtains a [`Container::local`] handle, emits into it
///    (combining happens there, unsynchronized), and the worker
///    [`Container::absorb`]s it when the task ends.
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

    /// Fold a finished task's local pairs into the shared state.
    fn absorb(&self, local: Self::Local);

    /// Apply runtime wiring (hash seed, metrics). Called at most once,
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

    /// Whether spilled runs from this container hold *folded*
    /// accumulators that must keep folding when equal keys meet across
    /// runs in the external merge (`true` for combining containers), or
    /// independent pairs that must pass through unfolded (`false` for
    /// identity/run containers).
    fn spill_folds() -> bool {
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

    /// [`Container::into_drains`] + [`Container::drain`] on the calling
    /// thread. Returns at least one partition when any pairs are held.
    fn into_partitions(self, parts: usize) -> Vec<Vec<(K, C::Acc)>> {
        self.into_drains(parts).into_iter().map(Self::drain).filter(|p| !p.is_empty()).collect()
    }
}
