//! The multi-tenant scheduler behind the job API: a bounded admission
//! queue with priority classes, runner threads dispatching map/reduce
//! waves onto one shared persistent pool with fair-share width caps,
//! and one global memory budget partitioned across the tenants that can
//! spill.
//!
//! Scheduling is cooperative rather than preemptive: a job's wave
//! widths are clamped to its [`supmr::FairShare`] allocation (weighted
//! by priority class), re-read before every task, so a heavy neighbor
//! narrows instead of starving others, and a tenant whose budget
//! partition shrinks spills to disk
//! (PR 5 machinery) instead of failing. The per-job feedback governor,
//! when requested, actuates inside that share — its width moves are
//! capped by the same ticket.

use crate::job::{JobHandle, JobStatus};
use crate::runner::{run_job, JobFacilities};
use crate::spec::JobSpec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use supmr::pool::WorkerPool;
use supmr::spill::{MemoryAccountant, SpillMetrics};
use supmr::{FairShare, PoolMetrics};
use supmr_metrics::{unpoisoned, Counter, Gauge, Registry, Tracer};

/// Daemon-level configuration: the shared facilities every job runs
/// against.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Threads in the shared persistent pool (and the slot total the
    /// fair share divides).
    pub workers: usize,
    /// Runner threads: how many jobs execute concurrently.
    pub max_concurrent: usize,
    /// Bounded admission queue depth; a full queue rejects with 503.
    pub queue_depth: usize,
    /// Global memory budget partitioned across running spill-capable
    /// tenants; `None` leaves budgets to each job's own spec.
    pub memory_budget: Option<u64>,
    /// Default per-job worker width when a spec names none.
    pub default_job_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, usize::from);
        ServeConfig {
            workers: cores,
            max_concurrent: 2,
            queue_depth: 16,
            memory_budget: None,
            default_job_workers: cores,
        }
    }
}

/// Why a submission was turned away (rendered as a 503).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The daemon is draining for shutdown.
    Draining,
    /// The admission queue is at capacity.
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "shutting down: not accepting jobs"),
            SubmitError::QueueFull => write!(f, "admission queue full"),
        }
    }
}

/// One spill-capable tenant's slice of the global budget ledger.
struct Tenant {
    seq: u64,
    weight: u64,
    accountant: Arc<MemoryAccountant>,
    budget_gauge: Gauge,
}

/// The global memory budget, re-partitioned across live tenants by
/// priority weight on every membership change. Shrinking a partition
/// mid-run never fails the tenant — it just spills sooner.
struct BudgetLedger {
    total: u64,
    tenants: Mutex<Vec<Tenant>>,
}

impl BudgetLedger {
    fn join(&self, seq: u64, weight: u64, accountant: Arc<MemoryAccountant>, gauge: Gauge) {
        let mut tenants = unpoisoned(self.tenants.lock());
        tenants.push(Tenant { seq, weight, accountant, budget_gauge: gauge });
        self.rebalance(&tenants);
    }

    fn leave(&self, seq: u64) {
        let mut tenants = unpoisoned(self.tenants.lock());
        tenants.retain(|t| t.seq != seq);
        self.rebalance(&tenants);
    }

    fn rebalance(&self, tenants: &[Tenant]) {
        let total_weight: u64 = tenants.iter().map(|t| t.weight).sum();
        for t in tenants {
            let share = (self.total * t.weight / total_weight.max(1)).max(1);
            t.accountant.set_budget(share);
            t.budget_gauge.set(share.min(i64::MAX as u64) as i64);
        }
    }
}

/// Daemon-level metric families (the unlabelled rows on `/metrics`,
/// next to the per-job `job_id`-labelled ones).
pub(crate) struct ServeMetrics {
    pub submitted: Counter,
    pub rejected: Counter,
    pub completed: Counter,
    pub failed: Counter,
    pub cancelled: Counter,
    pub queue_depth: Gauge,
    pub running: Gauge,
}

impl ServeMetrics {
    fn register(r: &Registry) -> ServeMetrics {
        ServeMetrics {
            submitted: r.counter("supmr.serve.jobs_submitted", "Jobs admitted to the queue.", &[]),
            rejected: r.counter("supmr.serve.jobs_rejected", "Submissions turned away.", &[]),
            completed: r.counter("supmr.serve.jobs_completed", "Jobs finished successfully.", &[]),
            failed: r.counter("supmr.serve.jobs_failed", "Jobs finished with an error.", &[]),
            cancelled: r.counter("supmr.serve.jobs_cancelled", "Jobs cancelled.", &[]),
            queue_depth: r.gauge("supmr.serve.queue_depth", "Jobs waiting for a runner.", &[]),
            running: r.gauge("supmr.serve.jobs_running", "Jobs currently executing.", &[]),
        }
    }
}

struct SchedulerInner {
    config: ServeConfig,
    pool: WorkerPool,
    shares: Arc<FairShare>,
    registry: Registry,
    metrics: ServeMetrics,
    jobs: Mutex<Vec<Arc<JobHandle>>>,
    queue: Mutex<VecDeque<Arc<JobHandle>>>,
    /// Signals runners that the queue changed (or stop was requested).
    work: Condvar,
    /// Signals waiters that a job reached a terminal state.
    settled: Condvar,
    draining: AtomicBool,
    stop: AtomicBool,
    running: AtomicUsize,
    next_seq: AtomicU64,
    budget: Option<BudgetLedger>,
}

/// The running scheduler: owns the shared pool, the runner threads, and
/// every job handle ever admitted.
pub struct Scheduler {
    inner: Arc<SchedulerInner>,
    runners: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Stand up the shared pool and `max_concurrent` runner threads.
    pub fn start(config: ServeConfig) -> Scheduler {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let workers = config.workers.max(1);
        let inner = Arc::new(SchedulerInner {
            // Every tenant's map, reduce and merge waves run here, so
            // the daemon-level `supmr.pool.*` rows are the box's load.
            pool: WorkerPool::new_instrumented(
                workers,
                Tracer::off(),
                Some(PoolMetrics::register(&registry)),
            ),
            shares: FairShare::new(workers),
            metrics,
            registry,
            budget: config
                .memory_budget
                .map(|total| BudgetLedger { total: total.max(1), tenants: Mutex::new(Vec::new()) }),
            config,
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            settled: Condvar::new(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            next_seq: AtomicU64::new(1),
        });
        let runners = (0..inner.config.max_concurrent.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("supmr-runner-{i}"))
                    .spawn(move || runner_loop(&inner))
                    .expect("spawn runner thread")
            })
            .collect();
        Scheduler { inner, runners: Mutex::new(runners) }
    }

    /// The daemon-level registry (`supmr.serve.*` families).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Admit `spec`, returning its handle, or reject when draining or
    /// full.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<JobHandle>, SubmitError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::Relaxed) {
            inner.metrics.rejected.inc();
            return Err(SubmitError::Draining);
        }
        let workers = inner.config.default_job_workers.max(1);
        let map_w = spec.map_workers.unwrap_or(workers).max(1);
        let reduce_w = spec.reduce_workers.unwrap_or(workers).max(1);
        let mut queue = unpoisoned(inner.queue.lock());
        if queue.len() >= inner.config.queue_depth {
            inner.metrics.rejected.inc();
            return Err(SubmitError::QueueFull);
        }
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(JobHandle::new(seq, spec, map_w, reduce_w));
        queue.push_back(Arc::clone(&job));
        inner.metrics.submitted.inc();
        inner.metrics.queue_depth.set(queue.len() as i64);
        drop(queue);
        unpoisoned(inner.jobs.lock()).push(Arc::clone(&job));
        inner.work.notify_one();
        Ok(job)
    }

    /// Look up a job by its server-assigned id.
    pub fn job(&self, id: &str) -> Option<Arc<JobHandle>> {
        unpoisoned(self.inner.jobs.lock()).iter().find(|j| j.id == id).cloned()
    }

    /// Every admitted job, oldest first.
    pub fn jobs(&self) -> Vec<Arc<JobHandle>> {
        unpoisoned(self.inner.jobs.lock()).clone()
    }

    /// Cancel a job by id: queued jobs are dropped from the queue,
    /// running jobs get the cooperative flag. `None` means unknown id.
    pub fn cancel(&self, id: &str) -> Option<JobStatus> {
        let job = self.job(id)?;
        if job.cancel() {
            // Remove a queued casualty from the admission queue so no
            // runner dequeues a corpse.
            let mut queue = unpoisoned(self.inner.queue.lock());
            queue.retain(|j| j.seq != job.seq);
            self.inner.metrics.queue_depth.set(queue.len() as i64);
            drop(queue);
            if job.status() == JobStatus::Cancelled {
                self.inner.metrics.cancelled.inc();
                self.inner.settled.notify_all();
            }
        }
        Some(job.status())
    }

    /// Stop admitting new jobs. Queued and running jobs still finish.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Relaxed);
    }

    /// Whether [`Scheduler::drain`] was called.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Relaxed)
    }

    /// Block until every admitted job is terminal, or `timeout` passes.
    /// Returns whether the queue fully settled.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut queue = unpoisoned(self.inner.queue.lock());
        loop {
            let busy = !queue.is_empty() || self.inner.running.load(Ordering::Relaxed) > 0;
            if !busy {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            queue = unpoisoned(self.inner.settled.wait_timeout(queue, deadline - now)).0;
        }
    }

    /// Drain, wait for in-flight jobs, and join the runner threads.
    pub fn shutdown(&self, timeout: Duration) -> bool {
        self.drain();
        let settled = self.wait_idle(timeout);
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.work.notify_all();
        for handle in unpoisoned(self.runners.lock()).drain(..) {
            let _ = handle.join();
        }
        settled
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.work.notify_all();
        for handle in unpoisoned(self.runners.lock()).drain(..) {
            let _ = handle.join();
        }
    }
}

fn runner_loop(inner: &SchedulerInner) {
    loop {
        let job = {
            let mut queue = unpoisoned(inner.queue.lock());
            loop {
                if inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = pop_highest_priority(&mut queue) {
                    // Claim the running slot while still holding the
                    // queue lock, so `wait_idle` never observes the job
                    // as neither queued nor running.
                    inner.running.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.queue_depth.set(queue.len() as i64);
                    break job;
                }
                queue = unpoisoned(inner.work.wait(queue));
            }
        };
        execute(inner, &job);
        inner.running.fetch_sub(1, Ordering::Relaxed);
        inner.metrics.running.set(inner.running.load(Ordering::Relaxed) as i64);
        // Terminal-state edge: wake drain waiters under the queue lock
        // they sleep on.
        drop(unpoisoned(inner.queue.lock()));
        inner.settled.notify_all();
    }
}

/// Highest priority class first; FIFO within a class.
fn pop_highest_priority(queue: &mut VecDeque<Arc<JobHandle>>) -> Option<Arc<JobHandle>> {
    let best = queue
        .iter()
        .enumerate()
        .max_by_key(|(i, j)| (j.spec.priority, std::cmp::Reverse(*i)))
        .map(|(i, _)| i)?;
    queue.remove(best)
}

/// Run one admitted job end to end: claim it, take a fair-share ticket
/// and (when budgeted) a tenant partition, execute, settle the ledger,
/// and record the outcome.
fn execute(inner: &SchedulerInner, job: &Arc<JobHandle>) {
    if !job.begin() {
        return; // cancelled while queued, after we dequeued it
    }
    inner.metrics.running.set(inner.running.load(Ordering::Relaxed) as i64);

    // Fair share: this tenant's pool slots, applied as a live cap on
    // the job's wave widths. The ticket's Drop releases the share.
    let weight = job.spec.priority.weight();
    let active = Arc::clone(&job.active);
    let _ticket = inner.shares.register(weight, move |cap| active.set_share_cap(cap));

    // Budget: spill-capable tenants get a partition of the global
    // ledger; membership changes re-partition every live tenant.
    let accountant = match (&inner.budget, job.spec.app.supports_spill()) {
        (Some(ledger), true) => {
            let spill_metrics = SpillMetrics::register(&job.registry);
            let accountant =
                Arc::new(MemoryAccountant::new(1).with_gauge(spill_metrics.resident_bytes.clone()));
            ledger.join(
                job.seq,
                weight as u64,
                Arc::clone(&accountant),
                spill_metrics.budget_bytes.clone(),
            );
            Some(accountant)
        }
        _ => None,
    };

    let facilities = JobFacilities {
        pool: &inner.pool,
        accountant: accountant.clone(),
        registry: job.registry.clone(),
        ring: Arc::clone(&job.ring),
        active: Arc::clone(&job.active),
        default_workers: inner.config.default_job_workers,
    };
    let outcome = run_job(&job.spec, facilities);

    if let (Some(ledger), Some(_)) = (&inner.budget, &accountant) {
        ledger.leave(job.seq);
    }
    match outcome {
        Ok((output, report)) => {
            job.complete(output, report);
            inner.metrics.completed.inc();
        }
        Err(err) => {
            match err {
                supmr::SupmrError::Cancelled => inner.metrics.cancelled.inc(),
                _ => inner.metrics.failed.inc(),
            }
            job.fail(&err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Priority;

    fn quick_spec(bytes: u64) -> JobSpec {
        JobSpec { input_bytes: bytes, ..JobSpec::default() }
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_concurrent: 2,
            queue_depth: 4,
            memory_budget: None,
            default_job_workers: 2,
        }
    }

    #[test]
    fn submits_run_to_completion() {
        let sched = Scheduler::start(small_config());
        let job = sched.submit(quick_spec(16 * 1024)).expect("admit");
        assert!(sched.wait_idle(Duration::from_secs(30)), "job settles");
        assert_eq!(job.status(), JobStatus::Completed);
        let json = job.status_json();
        assert!(json.get("output").is_some());
        assert!(sched.job(&job.id).is_some());
        assert!(sched.job("job-999").is_none());
    }

    #[test]
    fn queue_bounds_and_drain_reject() {
        let sched =
            Scheduler::start(ServeConfig { max_concurrent: 1, queue_depth: 1, ..small_config() });
        // A grossly oversized queue burst: at most 1 + in-flight admit.
        let mut accepted = 0;
        for _ in 0..8 {
            if sched.submit(quick_spec(512 * 1024)).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted <= 3, "bounded admission, got {accepted}");
        sched.drain();
        assert_eq!(sched.submit(quick_spec(1024)).unwrap_err(), SubmitError::Draining);
        assert!(sched.wait_idle(Duration::from_secs(60)), "drain settles");
    }

    #[test]
    fn queued_jobs_dispatch_by_priority_class() {
        // One runner, pre-loaded queue: after the first job (FIFO grab)
        // the high-priority straggler must overtake the low one.
        let sched =
            Scheduler::start(ServeConfig { max_concurrent: 1, queue_depth: 8, ..small_config() });
        let blocker = sched.submit(quick_spec(256 * 1024)).expect("blocker");
        let low = sched
            .submit(JobSpec { priority: Priority::Low, ..quick_spec(16 * 1024) })
            .expect("low");
        let high = sched
            .submit(JobSpec { priority: Priority::High, ..quick_spec(16 * 1024) })
            .expect("high");
        assert!(sched.wait_idle(Duration::from_secs(60)), "all settle");
        for job in [&blocker, &low, &high] {
            assert_eq!(job.status(), JobStatus::Completed, "{}", job.id);
        }
        // Completion order is not directly observable post-hoc from
        // status; assert the selection function instead.
        let mut q = VecDeque::new();
        q.push_back(Arc::clone(&low));
        q.push_back(Arc::clone(&high));
        let first = pop_highest_priority(&mut q).unwrap();
        assert_eq!(first.seq, high.seq, "high priority leaves the queue first");
    }

    #[test]
    fn cancel_queued_and_unknown_ids() {
        let sched =
            Scheduler::start(ServeConfig { max_concurrent: 1, queue_depth: 8, ..small_config() });
        let blocker = sched.submit(quick_spec(512 * 1024)).expect("blocker");
        let victim = sched.submit(quick_spec(256 * 1024)).expect("victim");
        let status = sched.cancel(&victim.id).expect("known id");
        assert!(
            matches!(status, JobStatus::Cancelled | JobStatus::Running),
            "victim cancelled (or raced into running): {status:?}"
        );
        assert!(sched.cancel("job-777").is_none(), "unknown id is None");
        assert!(sched.wait_idle(Duration::from_secs(60)));
        assert_eq!(blocker.status(), JobStatus::Completed);
    }

    #[test]
    fn shared_budget_is_partitioned_and_returned() {
        let sched = Scheduler::start(ServeConfig {
            memory_budget: Some(64 * 1024),
            max_concurrent: 2,
            ..small_config()
        });
        let a = sched.submit(quick_spec(128 * 1024)).expect("a");
        let b = sched.submit(quick_spec(128 * 1024)).expect("b");
        assert!(sched.wait_idle(Duration::from_secs(60)));
        assert_eq!(a.status(), JobStatus::Completed, "{:?}", a.status_json().render());
        assert_eq!(b.status(), JobStatus::Completed);
        // Both ran under a partition small enough to make wordcount on
        // 128K of text spill; the ledger emptied afterwards.
        let ledger = sched.inner.budget.as_ref().expect("budgeted");
        assert!(unpoisoned(ledger.tenants.lock()).is_empty(), "tenants left the ledger");
    }
}
