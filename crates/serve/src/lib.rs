//! **supmr-serve** — a long-lived job service over the SupMR runtime.
//!
//! Where `supmr-cli` runs one job per process, this crate keeps a
//! daemon alive (`supmr serve --listen ADDR`) that accepts MapReduce
//! jobs over a std-only HTTP API and multiplexes them onto shared
//! machinery:
//!
//! * **HTTP surface** ([`daemon`]) — `POST /jobs` (a hand-rolled,
//!   serde-free JSON spec decoder, [`spec`]), `GET /jobs/{id}` (status
//!   plus the full `supmr.job_report.v1` report and an output digest on
//!   completion), `DELETE /jobs/{id}` (cooperative cancel: a running
//!   job starts no map or reduce task after it), and
//!   `GET /metrics` (every family of every job, labelled `job_id=`),
//!   mounted on the generalized request machinery of
//!   [`supmr_metrics::server`].
//! * **Scheduler** ([`scheduler`]) — a bounded admission queue with
//!   priority classes; runner threads dispatch map/reduce waves of
//!   concurrent jobs onto **one shared persistent worker pool**, with
//!   per-job width caps from a weighted [`supmr::FairShare`]. A cap
//!   acts at every task, not only between waves: a lowered cap frees
//!   threads at their next task, and a raised one widens the running
//!   wave.
//! * **One wave per generated input** — inputs are synthesized in
//!   memory, so a spec without `chunk` maps them in one wave; `chunk`
//!   opts into the ingest pipeline.
//! * **Budget partitioning** — one global memory budget re-partitioned
//!   across live tenants by priority weight
//!   ([`supmr::spill::MemoryAccountant::set_budget`]): a job that
//!   outgrows its slice spills sorted runs to disk instead of failing
//!   or starving its neighbors.
//! * **Per-job adaptivity** — each job may run its own feedback
//!   governor, which actuates *inside* the job's fair share (the share
//!   cap clamps whatever widths the governor picks).
//!
//! The service runs on generated workloads (deterministic text or
//! teragen records), so outputs are independently checkable: the status
//! digest of a job run on the shared daemon equals the digest of the
//! same spec run in isolation.

pub mod daemon;
pub mod job;
pub mod runner;
pub mod scheduler;
pub mod spec;

pub use daemon::Daemon;
pub use job::{JobHandle, JobOutput, JobStatus};
pub use runner::reference_output;
pub use scheduler::{Scheduler, ServeConfig, SubmitError};
pub use spec::{AppSpec, JobSpec, Priority, SpecError};
