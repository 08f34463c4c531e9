//! **SupMR** — a scale-up (single-node, shared-memory) MapReduce runtime
//! with an ingest chunk pipeline and a p-way merge phase.
//!
//! This crate reproduces the system of *"SupMR: Circumventing Disk and
//! Memory Bandwidth Bottlenecks for Scale-up MapReduce"* (Sevilla et al.,
//! 2014). It contains both the **baseline** Phoenix++-style runtime the
//! paper modifies and the **SupMR** modifications themselves:
//!
//! 1. **Ingest chunk pipeline** ([`runtime::pipeline`]) — the input is
//!    partitioned into ingest chunks ([`chunk`]); while mapper threads
//!    operate on chunk *i*, an ingest thread reads chunk *i+1* from
//!    primary storage (double-buffering). The intermediate key/value
//!    container persists across the resulting map rounds.
//! 2. **Merge optimization** — the final merge uses a single-round
//!    parallel p-way merge (`supmr-merge`) instead of the baseline's
//!    iterative 2-way rounds.
//!
//! # Architecture
//!
//! * [`api`] — the user-facing [`api::MapReduce`] trait (map/reduce
//!   callbacks, key/value/combiner/container choices) and [`api::Emit`].
//! * [`combiner`] — insert-time value folding (Phoenix++ "combiners").
//! * [`container`] — intermediate pair storage: hash (word count),
//!   dense array (histogram), and unlocked run storage (sort).
//! * [`chunk`] — ingest chunks: inter-file (byte ranges with record
//!   boundary adjustment) and intra-file (groups of small files).
//! * [`split`] — record-aligned input splits inside a chunk.
//! * [`pool`] — map/reduce task execution: Phoenix-style per-wave
//!   spawn/join plus a persistent worker pool
//!   ([`pool::PoolMode`] chooses per job).
//! * [`runtime`] — job configuration and the two runtimes behind one
//!   entry surface: [`runtime::Job`] for a single job (dispatching on
//!   the chunking strategy) and [`runtime::Pipeline`] for multi-stage
//!   DAGs whose intermediate results stream between stages in memory.
//!
//! # Quick example
//!
//! ```
//! use supmr::api::{Emit, MapReduce};
//! use supmr::combiner::Sum;
//! use supmr::container::HashContainer;
//! use supmr::runtime::{Input, Job};
//! use supmr_storage::MemSource;
//!
//! struct WordCount;
//!
//! impl MapReduce for WordCount {
//!     type Key = String;
//!     type Value = u64;
//!     type Combiner = Sum;
//!     type Output = u64;
//!     type Container = HashContainer<String, u64, Sum>;
//!
//!     fn make_container(&self) -> Self::Container {
//!         HashContainer::default()
//!     }
//!
//!     fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
//!         for word in split.split(|b| !b.is_ascii_alphanumeric()) {
//!             if !word.is_empty() {
//!                 emit.emit(String::from_utf8_lossy(word).into_owned(), 1);
//!             }
//!         }
//!     }
//!
//!     fn reduce(&self, _key: &String, count: u64) -> u64 {
//!         count
//!     }
//! }
//!
//! let input = Input::stream(MemSource::from(b"a b a\n".to_vec()));
//! let result = Job::new(WordCount).run(input).unwrap();
//! let pairs = result.sorted_pairs();
//! assert_eq!(pairs, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
//! ```

//! # Observability
//!
//! Every run produces a [`runtime::JobReport`] (phase timings, counters
//! with pipeline **stall accounting**, optional CPU-utilization and
//! typed event traces) with a stable JSON rendering. Tracing is enabled
//! per job ([`Job::trace`](runtime::Job::trace)) and exported through
//! `supmr-metrics` (Chrome `trace_event` JSON, JSONL, ASCII timeline).
//! Fallible entry points return the typed [`SupmrError`] ([`error`]).
//!
//! For *live* visibility, attach a metrics [`Registry`]
//! ([`Job::metrics`](runtime::Job::metrics)) or serve an OpenMetrics
//! scrape endpoint for the duration of a run
//! ([`Job::metrics_addr`](runtime::Job::metrics_addr)): the runtimes,
//! worker pool, and merge backends then maintain `supmr.*` counter,
//! gauge, and HDR-histogram families cheap enough to leave on under
//! load, and the job report folds the final percentile snapshot into
//! its JSON.

pub mod api;
pub mod chunk;
pub mod combiner;
pub mod container;
pub mod error;
pub mod key;
pub mod parse;
pub mod pool;
pub mod runtime;
pub mod spill;
pub mod split;

pub use api::{Emit, MapReduce};
pub use chunk::{Chunking, IngestChunk};
pub use error::{Result, SupmrError};
pub use key::{ByteKey, CompactKey, KeyPrefix};
pub use parse::{parse_duration, parse_size, ParseError};
pub use pool::{FairShare, PoolMetrics, PoolMode, ShareTicket};
pub use runtime::{
    run_with, ActionRecord, ActiveConfig, FrameIter, GovernorConfig, GovernorReport, HandoffStats,
    Input, IterationReport, Job, JobConfig, JobReport, JobResult, JobStats, MergeMode, Pipeline,
    PipelineResult, SharedRun, Stage, StageData, StageId, StageReport,
};
pub use spill::{MemoryAccountant, PairCodec, SpillMetrics};
pub use supmr_metrics::{
    EventKind, JobTrace, MetricsServer, MetricsSnapshot, Registry, StallStats, TraceEvent,
    TraceLevel,
};
