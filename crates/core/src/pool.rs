//! Wave-based and pooled task execution.
//!
//! Phoenix++ launches mapper/reducer threads in *waves*: a wave starts a
//! set of worker threads, the workers drain a task queue, and the wave
//! ends when every task is done and the threads are destroyed. SupMR's
//! ingest pipeline "starts mapper threads multiple times to operate on
//! new chunks as they arrive", so thread start/stop costs recur once per
//! ingest chunk — the overhead the paper's chunk-size discussion (§III-A2,
//! Conclusion 2) is about. [`run_wave`] reproduces exactly that lifecycle
//! (real spawn + join per wave) and reports how many threads were
//! started, so that overhead is observable in experiments.
//!
//! [`WorkerPool`] is the avoidable version of the same cost: a set of
//! long-lived threads created once per job. [`PoolMode`] selects between
//! the two at the [`JobConfig`](crate::runtime::JobConfig) level, and
//! [`WaveOutcome::threads_reused`] quantifies the spawns a pooled wave
//! avoided, so ablations can put a number on the paper's overhead.
//!
//! # One body, two thread providers
//!
//! Either way a wave is one [`Batch`]: the tasks behind an index and a
//! slot per result. What a thread does for a wave is [`Batch::drain`] —
//! take the next task, run it, store its result, until none is left —
//! and the two modes differ only in whose threads call it: [`run_wave`]
//! spawns `min(workers, tasks)` scoped threads; the pool queues that
//! many *tickets* (references to the batch) for its resident threads and
//! blocks until every ticket is accounted for. Neither returns, or
//! unwinds, while a thread is still inside the batch, so tasks may
//! borrow from the caller's frame: the map, reduce and merge waves do.
//! A ticket is a unit of width, not a task: the cap on a wave's
//! concurrency is the number of tickets it queues.
//!
//! The pool's threads outlive the call, so handing them a reference to
//! the caller's batch erases a lifetime: the module's one `unsafe`, in
//! [`WorkerPool::run_collect_capped`].
//!
//! A batch's width is a [`Width`]: fixed at dispatch, or live, moving
//! while the batch runs (a served job's width under its fair share). A
//! pooled batch's tickets read it before every task, so a lowered width
//! frees threads at the next task boundary and a raised one wakes the
//! dispatcher to queue more tickets.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use supmr_merge::{Batch, ScopedThreads};
use supmr_metrics::{unpoisoned, Counter, EventKind, Gauge, Histogram, Registry, Tracer};

/// How the runtime provisions worker threads for map/reduce waves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PoolMode {
    /// Spawn and join a fresh set of threads per wave (the Phoenix++
    /// lifecycle the paper measures). The default, so the per-chunk
    /// thread overhead of §III-A2 stays observable.
    #[default]
    WavePerRound,
    /// One long-lived pool of threads created at job start runs every
    /// map, reduce and merge wave; no spawns after setup.
    Persistent,
}

impl std::fmt::Display for PoolMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolMode::WavePerRound => write!(f, "wave"),
            PoolMode::Persistent => write!(f, "persistent"),
        }
    }
}

/// What a completed wave did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveOutcome {
    /// Tasks executed.
    pub tasks: u64,
    /// Worker threads spawned (and destroyed) for the wave.
    pub threads_spawned: u64,
    /// Pre-existing pool threads the wave dispatched to instead of
    /// spawning — the spawn/join cost a persistent pool saved.
    pub threads_reused: u64,
}

/// Run `tasks` to completion on a wave of at most `workers` fresh
/// threads. Each task is passed to `f` together with its index in the
/// original order. Blocks until the wave ends.
///
/// Spawns `min(workers, tasks.len())` threads; zero tasks spawn nothing.
/// A panic inside any task propagates after the wave joins.
///
/// # Panics
/// Panics if `workers == 0` and there is at least one task.
pub fn run_wave<T, F>(workers: usize, tasks: Vec<T>, f: F) -> WaveOutcome
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    run_wave_collect(workers, tasks, f).1
}

/// Run a wave whose tasks each produce a value; results come back in
/// task order.
pub fn run_wave_collect<T, R, F>(workers: usize, tasks: Vec<T>, f: F) -> (Vec<R>, WaveOutcome)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return (Vec::new(), WaveOutcome::default());
    }
    assert!(workers > 0, "a wave needs at least one worker");
    let threads = workers.min(n);
    let outcome =
        WaveOutcome { tasks: n as u64, threads_spawned: threads as u64, threads_reused: 0 };
    (ScopedThreads(threads).run_indexed(tasks, f), outcome)
}

/// Live instrumentation handles for a [`WorkerPool`], registered under
/// the `supmr.pool.*` families of a [`Registry`].
///
/// A task leaves the queue-depth gauge when a thread takes it, and holds
/// the in-flight gauge through an RAII [`supmr_metrics::GaugeGuard`]
/// inside the frame that catches its panic, so a panicking task
/// (surfaced to callers as
/// [`SupmrError::TaskPanic`](crate::SupmrError::TaskPanic)) restores
/// both gauges instead of skewing them for the rest of the job.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Tasks enqueued to the pool but not yet picked up by a worker.
    pub queue_depth: Gauge,
    /// Tasks currently executing on a worker thread.
    pub in_flight: Gauge,
    /// Enqueue→start dispatch latency, microseconds.
    pub dispatch_us: Histogram,
    /// Pool threads a batch dispatched to instead of spawning.
    pub threads_reused: Counter,
}

impl PoolMetrics {
    /// Register (or re-attach to) the `supmr.pool.*` families.
    pub fn register(registry: &Registry) -> PoolMetrics {
        PoolMetrics {
            queue_depth: registry.gauge(
                "supmr.pool.queue_depth",
                "Tasks enqueued to the persistent pool awaiting a worker.",
                &[],
            ),
            in_flight: registry.gauge(
                "supmr.pool.in_flight",
                "Tasks currently executing on pool worker threads.",
                &[],
            ),
            dispatch_us: registry.histogram(
                "supmr.pool.dispatch_us",
                "Latency from task enqueue to execution start, microseconds.",
                &[],
            ),
            threads_reused: registry.counter(
                "supmr.pool.threads_reused",
                "Pool threads batches dispatched to instead of spawning.",
                &[],
            ),
        }
    }
}

/// How wide a batch may run.
#[derive(Debug, Clone, Copy)]
pub enum Width<'c> {
    /// Set once, at dispatch.
    Fixed(usize),
    /// A job's width knob under its share cap (0 = no cap), both of
    /// which may move while the batch runs: the governor moves the knob,
    /// the serve daemon's fair share the cap. On a pool, each ticket
    /// reads them again before every task.
    Live {
        /// The width the job runs at.
        base: &'c AtomicUsize,
        /// The ceiling it runs under.
        cap: &'c AtomicUsize,
    },
}

impl Width<'_> {
    /// The width as of now.
    pub fn now(&self) -> usize {
        match *self {
            Width::Fixed(width) => width,
            Width::Live { base, cap } => {
                let base = base.load(Ordering::Relaxed);
                match cap.load(Ordering::Relaxed) {
                    0 => base,
                    cap => base.min(cap),
                }
            }
        }
    }
}

impl From<usize> for Width<'_> {
    fn from(width: usize) -> Self {
        Width::Fixed(width)
    }
}

/// What a ticket points at: a dispatching caller's batch, and how many
/// of its tickets are still queued or running.
struct Dispatch<'b> {
    /// The batch's drain, its types erased.
    drain: &'b (dyn Fn() + Sync + 'b),
    /// Written under the injector lock only, which is what orders it;
    /// the drain reads it unlocked, as a hint.
    live: &'b AtomicUsize,
    /// Signalled, under the injector lock, whenever a ticket finishes
    /// or the batch's width rises above its tickets.
    settled: &'b Condvar,
}

/// The pool's injector: tickets in dispatch order.
#[derive(Default)]
struct Injector {
    tickets: VecDeque<&'static Dispatch<'static>>,
    closed: bool,
}

#[derive(Default)]
struct PoolShared {
    injector: Mutex<Injector>,
    /// Signalled when tickets are queued or the pool closes.
    work: Condvar,
}

/// A resident thread: take a ticket, drain its batch, report, repeat.
fn pool_worker(shared: &PoolShared) {
    let mut injector = unpoisoned(shared.injector.lock());
    loop {
        if let Some(ticket) = injector.tickets.pop_front() {
            drop(injector);
            (ticket.drain)();
            injector = unpoisoned(shared.injector.lock());
            // This thread's last touches of the ticket, made under the
            // lock its dispatcher must hold to see them.
            ticket.live.fetch_sub(1, Ordering::Relaxed);
            ticket.settled.notify_one();
        } else if injector.closed {
            return;
        } else {
            injector = unpoisoned(shared.work.wait(injector));
        }
    }
}

/// A persistent pool of worker threads.
///
/// Threads are spawned once in [`WorkerPool::new`] and live until the
/// pool is dropped; [`run_collect`](WorkerPool::run_collect) queues
/// tickets for a batch of tasks and blocks until all of them finish, so
/// tasks may borrow from the caller. A panic inside any task is caught
/// on the worker (keeping the thread alive for later waves) and
/// re-raised on the caller after the batch settles, mirroring
/// [`run_wave`]'s propagation semantics. Several threads may dispatch
/// at once (pipeline stages, the daemon's jobs); dispatching from
/// *inside* a pool task is not supported — with every thread waiting on
/// tickets only the pool could run, nothing would.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    tracer: Tracer,
    metrics: Option<PoolMetrics>,
}

impl WorkerPool {
    /// Spawn `size` long-lived worker threads.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> WorkerPool {
        WorkerPool::new_traced(size, Tracer::off())
    }

    /// Spawn `size` long-lived worker threads that report each batch
    /// dispatch ([`EventKind::PoolDispatch`]) to `tracer`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new_traced(size: usize, tracer: Tracer) -> WorkerPool {
        WorkerPool::new_instrumented(size, tracer, None)
    }

    /// Spawn `size` long-lived worker threads with optional tracing and
    /// live metrics ([`PoolMetrics`]).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new_instrumented(
        size: usize,
        tracer: Tracer,
        metrics: Option<PoolMetrics>,
    ) -> WorkerPool {
        assert!(size > 0, "a worker pool needs at least one thread");
        let shared = Arc::new(PoolShared::default());
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("supmr-pool-{i}"))
                    .spawn(move || pool_worker(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { shared, workers, tracer, metrics }
    }

    /// Number of threads in the pool.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Dispatch `tasks` to the pool and block until all complete.
    /// Results come back in task order. A panicking task fails the batch
    /// (the panic is re-raised here after every task has settled), but
    /// the pool itself stays usable for subsequent batches.
    pub fn run_collect<T, R, F>(&self, tasks: Vec<T>, f: F) -> (Vec<R>, WaveOutcome)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_collect_capped(self.size(), tasks, f)
    }

    /// [`run_collect`](WorkerPool::run_collect) with batch concurrency
    /// capped at `width` tasks, even when the pool has more threads — how
    /// a dynamically narrowed wave width reaches a persistent pool. The
    /// batch queues `min(width, pool size, tasks)` tickets, each good for
    /// one thread draining it, so at most that many bodies execute at
    /// once and the other threads are never woken. A [`Width::Live`]
    /// batch follows its width while it runs: a ticket above it retires
    /// before its next task, and a raise queues more tickets.
    ///
    /// # Panics
    /// Panics if the width is 0 at dispatch and there is at least one
    /// task.
    pub fn run_collect_capped<'c, T, R, F>(
        &self,
        width: impl Into<Width<'c>>,
        tasks: Vec<T>,
        f: F,
    ) -> (Vec<R>, WaveOutcome)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = tasks.len();
        if n == 0 {
            return (Vec::new(), WaveOutcome::default());
        }
        let width = width.into();
        let workers = width.now();
        assert!(workers > 0, "a pooled batch needs at least one worker");
        let workers = workers.min(self.size()) as u64;
        self.tracer.emit(EventKind::PoolDispatch { tasks: n as u64, workers });
        let meter = self.metrics.as_ref().map(|m| {
            m.queue_depth.add(n as i64);
            (m, Instant::now())
        });
        let metered = |idx, task| {
            let _running = meter.map(|(m, queued)| {
                m.queue_depth.add(-1);
                m.dispatch_us.record_duration_us(queued.elapsed());
                m.in_flight.track(1)
            });
            f(idx, task)
        };
        let batch = Batch::new(tasks, &metered);
        let want = || width.now().min(self.size()).min(n);
        let mut queued = want();
        let live = AtomicUsize::new(0);
        let settled = Condvar::new();
        // Set when a drain finds the batch empty: tickets still queued
        // then have nothing to do. Set before, and read under, the
        // injector lock, which orders it.
        let ran_out = AtomicBool::new(false);
        // Tickets inside the batch. Before each task, one that finds more
        // of them than the width allows retires and frees its thread; the
        // others go on, so the batch still runs every task. One that
        // finds the width above the tickets queued wakes this thread to
        // queue more (the unlocked reads are a hint: this thread decides
        // under the lock). A fixed width never retires or adds a ticket.
        // Acquire/release: a ticket that sees another's retirement runs
        // its next task after that one's last.
        let inside = AtomicUsize::new(0);
        let over = |inside: usize| (inside > width.now().max(1)).then(|| inside - 1);
        let go = || {
            if inside.fetch_update(Ordering::AcqRel, Ordering::Acquire, over).is_ok() {
                return false;
            }
            if want() > live.load(Ordering::Relaxed) && !ran_out.load(Ordering::Relaxed) {
                let _injector = unpoisoned(self.shared.injector.lock());
                settled.notify_one();
            }
            true
        };
        let drain = || {
            inside.fetch_add(1, Ordering::AcqRel);
            if batch.drain_while(&go) {
                inside.fetch_sub(1, Ordering::AcqRel);
                ran_out.store(true, Ordering::Relaxed);
            }
        };
        {
            let dispatch = Dispatch { drain: &drain, live: &live, settled: &settled };
            // SAFETY: this extends the borrows in `dispatch` (of `batch`,
            // and through it of `f`, the tasks and whatever they borrow)
            // to `'static` so the resident threads can hold them; what
            // keeps that sound is that this block is neither left nor
            // unwound before every ticket has stopped touching them. A
            // ticket is always in exactly one place: the injector, from
            // which only the loop below removes it unrun; or a worker,
            // which drains the batch (`drain` catches task panics, so the
            // worker always comes back) and then, under the injector
            // lock, decrements `live` and signals — its last touches. The
            // loop ends only on seeing `live == 0` under that same lock,
            // so after them; tickets it queues later count in `live`
            // before they are queued. Nothing in the block can unwind: the
            // locks ignore poisoning (`unpoisoned`), a failed allocation
            // aborts, and no caller-provided code runs on this thread
            // inside it.
            let ticket: &'static Dispatch<'static> = unsafe {
                std::mem::transmute::<&Dispatch<'_>, &'static Dispatch<'static>>(&dispatch)
            };
            let mut injector = unpoisoned(self.shared.injector.lock());
            let mut more = queued;
            loop {
                live.fetch_add(more, Ordering::Relaxed);
                for _ in 0..more {
                    injector.tickets.push_back(ticket);
                    self.shared.work.notify_one();
                }
                if live.load(Ordering::Relaxed) == 0 {
                    break;
                }
                injector = unpoisoned(settled.wait(injector));
                more = 0;
                if ran_out.load(Ordering::Relaxed) {
                    // No task is left to take: tickets still queued have
                    // nothing to do, and waiting for busy threads to find
                    // that out would tie this batch's end to some other
                    // batch's tasks.
                    let before = injector.tickets.len();
                    injector.tickets.retain(|t| !std::ptr::eq(*t, ticket));
                    live.fetch_sub(before - injector.tickets.len(), Ordering::Relaxed);
                } else {
                    // A live width may have risen above the tickets.
                    more = want().saturating_sub(live.load(Ordering::Relaxed));
                    queued += more;
                }
            }
        }

        let results = batch.finish();
        let outcome =
            WaveOutcome { tasks: n as u64, threads_spawned: 0, threads_reused: queued as u64 };
        if let Some(m) = &self.metrics {
            m.threads_reused.add(outcome.threads_reused);
        }
        (results, outcome)
    }

    /// Dispatch `tasks` that produce no value. See
    /// [`run_collect`](WorkerPool::run_collect).
    pub fn run<T, F>(&self, tasks: Vec<T>, f: F) -> WaveOutcome
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        self.run_collect(tasks, f).1
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Every dispatch has returned (it borrows the pool), so the
        // injector is empty: closing it sends each worker home, then
        // join them all. Worker bodies never unwind (task panics are
        // caught), so these joins cannot fail.
        unpoisoned(self.shared.injector.lock()).closed = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// How a runtime executes one wave of tasks: per-wave spawned threads or
/// a borrowed persistent pool. The two run the same batch body and
/// differ only in who provides the threads.
///
/// The `width` argument of [`Executor::run`] caps concurrency in both
/// modes: a wave spawns that many threads; a pool (provisioned once per
/// job, sized for the larger of map/reduce workers) queues that many
/// tickets via [`WorkerPool::run_collect_capped`] — which is how the
/// governor's wave-width actuation and a tenant's share cap apply to
/// either backend, and to every wave: map, reduce and merge. On a pool,
/// a [`Width::Live`] width also acts within a wave, at every task.
#[derive(Clone, Copy)]
pub enum Executor<'p> {
    /// Spawn/join a fresh wave per call ([`PoolMode::WavePerRound`]).
    Wave,
    /// Dispatch to a long-lived pool ([`PoolMode::Persistent`]).
    Pool(&'p WorkerPool),
}

impl<'p> Executor<'p> {
    /// Execute `tasks`, blocking until all complete.
    pub fn run<'c, T, F>(&self, width: impl Into<Width<'c>>, tasks: Vec<T>, f: F) -> WaveOutcome
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        self.run_collect(width, tasks, f).1
    }

    /// Execute `tasks` collecting per-task results in task order. A
    /// spawned wave takes a live width as it stands at dispatch.
    pub fn run_collect<'c, T, R, F>(
        &self,
        width: impl Into<Width<'c>>,
        tasks: Vec<T>,
        f: F,
    ) -> (Vec<R>, WaveOutcome)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        match self {
            Executor::Wave => run_wave_collect(width.into().now(), tasks, f),
            Executor::Pool(pool) => pool.run_collect_capped(width, tasks, f),
        }
    }

    /// This executor at a fixed width, as the merge crate's
    /// [`Workers`](supmr_merge::Workers).
    pub fn at_width(self, width: usize) -> WaveWorkers<'p> {
        WaveWorkers { exec: self, width, outcome: Default::default() }
    }
}

/// An [`Executor`] at a fixed width: each
/// [`Workers::run`](supmr_merge::Workers::run) is one wave, so a merge
/// handed this runs under the same cap, on the same threads and with the
/// same `PoolDispatch` events as the map and reduce waves before it. As
/// the trait says, `run` must not be called from inside a task — the
/// merge phase calls it from the job's driver thread.
pub struct WaveWorkers<'p> {
    exec: Executor<'p>,
    width: usize,
    outcome: std::cell::Cell<WaveOutcome>,
}

impl WaveWorkers<'_> {
    /// What the waves run so far did, summed.
    pub fn outcome(&self) -> WaveOutcome {
        self.outcome.get()
    }
}

impl supmr_merge::Workers for WaveWorkers<'_> {
    fn run<J: Send, R: Send>(&self, jobs: Vec<J>, job: impl Fn(J) -> R + Sync) -> Vec<R> {
        let (results, wave) = self.exec.run_collect(self.width, jobs, |_, j| job(j));
        let so_far = self.outcome.get();
        self.outcome.set(WaveOutcome {
            tasks: so_far.tasks + wave.tasks,
            threads_spawned: so_far.threads_spawned + wave.threads_spawned,
            threads_reused: so_far.threads_reused + wave.threads_reused,
        });
        results
    }
}

/// Weighted fair-share division of a fixed slot count across live
/// tenants — the serve daemon's per-job wave tickets over one shared
/// [`WorkerPool`].
///
/// Each running job registers a [`ShareTicket`] carrying its priority
/// weight and an *apply* callback; whenever membership changes (a job
/// registers or its ticket drops) every live tenant's callback is
/// invoked with its recomputed cap `max(1, slots·weight/Σweights)`.
/// Jobs route the callback into their `ActiveConfig` share cap, so
/// wave widths (static or governor-raised) actuate within the share —
/// at every task of a pooled wave ([`Width::Live`]).
pub struct FairShare {
    slots: usize,
    tenants: Mutex<Vec<Tenant>>,
    next_id: std::sync::atomic::AtomicU64,
}

struct Tenant {
    id: u64,
    weight: usize,
    apply: Box<dyn Fn(usize) + Send>,
}

impl FairShare {
    /// A ledger dividing `slots` worker slots (at least 1).
    pub fn new(slots: usize) -> Arc<FairShare> {
        Arc::new(FairShare {
            slots: slots.max(1),
            tenants: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The slot count being divided.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Live tenants.
    pub fn tenants(&self) -> usize {
        unpoisoned(self.tenants.lock()).len()
    }

    /// Register a tenant with `weight` (clamped to ≥ 1). `apply` is
    /// called with the tenant's cap on every rebalance — including
    /// immediately, before this returns — from whichever thread
    /// triggered the membership change.
    pub fn register(
        self: &Arc<Self>,
        weight: usize,
        apply: impl Fn(usize) + Send + 'static,
    ) -> ShareTicket {
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tenants = unpoisoned(self.tenants.lock());
        tenants.push(Tenant { id, weight: weight.max(1), apply: Box::new(apply) });
        Self::rebalance(self.slots, &tenants);
        ShareTicket { id, share: Arc::clone(self) }
    }

    fn rebalance(slots: usize, tenants: &[Tenant]) {
        let total: usize = tenants.iter().map(|t| t.weight).sum();
        for t in tenants {
            let cap = (slots * t.weight / total.max(1)).max(1);
            (t.apply)(cap);
        }
    }

    fn deregister(&self, id: u64) {
        let mut tenants = unpoisoned(self.tenants.lock());
        tenants.retain(|t| t.id != id);
        Self::rebalance(self.slots, &tenants);
    }
}

impl std::fmt::Debug for FairShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairShare")
            .field("slots", &self.slots)
            .field("tenants", &self.tenants())
            .finish()
    }
}

/// A tenant's registration in a [`FairShare`]; dropping it releases the
/// share back to the remaining tenants (their callbacks fire with the
/// enlarged caps).
pub struct ShareTicket {
    id: u64,
    share: Arc<FairShare>,
}

impl Drop for ShareTicket {
    fn drop(&mut self) {
        self.share.deregister(self.id);
    }
}

impl std::fmt::Debug for ShareTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShareTicket").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn wave_runs_every_task_exactly_once() {
        let hits = AtomicU64::new(0);
        let outcome = run_wave(4, (0..100).collect(), |_, _x: i32| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(outcome.tasks, 100);
        assert_eq!(outcome.threads_spawned, 4);
        assert_eq!(outcome.threads_reused, 0);
    }

    #[test]
    fn empty_wave_spawns_nothing() {
        let outcome = run_wave(8, Vec::<u8>::new(), |_, _| panic!("no tasks"));
        assert_eq!(outcome, WaveOutcome::default());
    }

    #[test]
    fn thread_count_capped_by_task_count() {
        let outcome = run_wave(64, vec![1, 2, 3], |_, _| {});
        assert_eq!(outcome.threads_spawned, 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_with_tasks_panics() {
        run_wave(0, vec![1], |_, _| {});
    }

    #[test]
    fn collect_preserves_task_order() {
        let (results, outcome) =
            run_wave_collect(3, (0u64..50).collect(), |idx, x| (idx as u64) * 1000 + x * 2);
        assert_eq!(outcome.tasks, 50);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, (i as u64) * 1000 + (i as u64) * 2);
        }
    }

    #[test]
    fn tasks_see_their_original_index() {
        let (results, _) = run_wave_collect(4, vec!["a", "b", "c"], |idx, s| format!("{idx}{s}"));
        assert_eq!(results, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn task_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            run_wave(2, vec![1, 2, 3], |_, x: i32| {
                if x == 2 {
                    panic!("task exploded");
                }
            });
        });
        assert!(result.is_err(), "a panicking task must fail the wave");
    }

    #[test]
    fn waves_are_reentrant_from_tasks() {
        // A wave inside a wave (the pipeline nests reduce waves inside
        // scoped ingest threads).
        let total = AtomicU64::new(0);
        run_wave(2, vec![10u64, 20], |_, n| {
            run_wave(2, (0..n).collect(), |_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn pool_runs_every_task_and_reports_reuse() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let outcome = pool.run((0..100).collect::<Vec<i32>>(), move |_, _| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(outcome.tasks, 100);
        assert_eq!(outcome.threads_spawned, 0, "pooled waves spawn nothing");
        assert_eq!(outcome.threads_reused, 4);
    }

    #[test]
    fn pool_reuse_capped_by_task_count() {
        let pool = WorkerPool::new(8);
        let outcome = pool.run(vec![1, 2], |_, _| {});
        assert_eq!(outcome.threads_reused, 2);
    }

    #[test]
    fn pool_collect_preserves_task_order() {
        let pool = WorkerPool::new(3);
        let (results, outcome) =
            pool.run_collect((0u64..50).collect(), |idx, x| (idx as u64) * 1000 + x * 2);
        assert_eq!(outcome.tasks, 50);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, (i as u64) * 1000 + (i as u64) * 2);
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        // The whole point: one spawn cost amortized across waves.
        let pool = WorkerPool::new(2);
        let mut total = 0u64;
        for round in 0..20u64 {
            let (results, _) = pool.run_collect((0..10u64).collect(), move |_, x| x + round);
            total += results.iter().sum::<u64>();
        }
        assert_eq!(total, 20 * 45 + 10 * (0..20).sum::<u64>());
    }

    #[test]
    fn pool_task_panics_propagate_and_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![1, 2, 3], |_, x: i32| {
                if x == 2 {
                    panic!("pooled task exploded");
                }
            });
        }));
        assert!(result.is_err(), "a panicking pooled task must fail the batch");
        // The worker that caught the panic is still alive and serving.
        let (results, outcome) = pool.run_collect(vec![10, 20], |_, x| x * 2);
        assert_eq!(results, vec![20, 40]);
        assert_eq!(outcome.threads_reused, 2);
    }

    #[test]
    fn pool_releases_task_captures_before_returning() {
        // The runtime relies on this to reclaim the container with
        // `Arc::into_inner` right after the last wave.
        let pool = WorkerPool::new(3);
        let shared = Arc::new(());
        let captured = Arc::clone(&shared);
        pool.run(vec![(); 16], move |_, ()| {
            let _hold = &captured;
        });
        assert_eq!(Arc::strong_count(&shared), 1, "pool must drop the closure before returning");
    }

    #[test]
    fn pool_tasks_borrow_and_fill_disjoint_chunks_of_a_local() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0u32; 100];
        let base = [1u32, 2, 3];
        let (sums, _) = pool.run_collect(data.chunks_mut(7).collect(), |idx, chunk: &mut [u32]| {
            chunk.iter_mut().for_each(|x| *x = idx as u32 + base[idx % 3]);
            chunk.len()
        });
        assert_eq!(sums.iter().sum::<usize>(), 100);
        assert!(data.iter().enumerate().all(|(i, &x)| x == (i / 7) as u32 + base[i / 7 % 3]));
    }

    #[test]
    fn pool_task_panic_waits_for_siblings_that_still_hold_borrows() {
        // Task 0 panics at once; task 1 is held inside its borrow of
        // `data` until the test lets go, from a thread that can only do so
        // while the batch is still blocked. The batch must settle — the
        // sibling's write landed — before the panic is re-raised.
        let pool = WorkerPool::new(2);
        let mut data = vec![0u8; 2];
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let result = std::thread::scope(|scope| {
            scope.spawn(move || {
                entered_rx.recv().expect("the sibling starts");
                release_tx.send(()).expect("the sibling waits");
            });
            catch_unwind(AssertUnwindSafe(|| {
                pool.run(data.iter_mut().collect(), |idx, slot: &mut u8| {
                    if idx == 0 {
                        panic!("pooled task exploded");
                    }
                    entered_tx.lock().unwrap().send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                    *slot = 7;
                })
            }))
        });
        assert!(result.is_err(), "the batch must re-raise the panic");
        assert_eq!(data, [0, 7], "the sibling finished inside the batch; its data is intact");
        let (doubled, _) = pool.run_collect(vec![&data[1]], |_, x| *x * 2);
        assert_eq!(doubled, [14], "the pool serves the next borrowed batch");
    }

    #[test]
    fn batch_ends_without_waiting_for_threads_busy_elsewhere() {
        // One thread of two is held by another caller's task. A second
        // batch queues two tickets; the free thread drains it alone, and
        // the ticket nobody took must be withdrawn — not waited for.
        let pool = WorkerPool::new(2);
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run(vec![(held_tx, release_rx)], |_, (held, release)| {
                    held.send(()).unwrap();
                    release.recv().unwrap();
                })
            });
            held_rx.recv().expect("the first batch holds a thread");
            let (results, outcome) = pool.run_collect(vec![1, 2, 3, 4], |_, x: i32| x * x);
            assert_eq!(results, [1, 4, 9, 16]);
            assert_eq!(outcome.threads_reused, 2, "reuse reports the tickets queued");
            release_tx.send(()).unwrap();
        });
    }

    #[test]
    fn pool_drop_joins_cleanly() {
        let pool = WorkerPool::new(4);
        pool.run(vec![1u8; 8], |_, _| {});
        drop(pool); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_sized_pool_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn instrumented_pool_records_metrics() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry);
        let pool = WorkerPool::new_instrumented(2, Tracer::off(), Some(metrics.clone()));
        pool.run(vec![1, 2, 3, 4], |_, _| {});
        assert_eq!(metrics.queue_depth.value(), 0, "queue drains to zero");
        assert_eq!(metrics.in_flight.value(), 0, "nothing left running");
        assert_eq!(metrics.dispatch_us.count(), 4, "one dispatch sample per task");
        assert_eq!(metrics.threads_reused.value(), 2);
    }

    #[test]
    fn pool_gauges_return_to_zero_after_task_panic() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry);
        let pool = WorkerPool::new_instrumented(2, Tracer::off(), Some(metrics.clone()));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![1, 2, 3, 4, 5], |_, x: i32| {
                if x % 2 == 0 {
                    panic!("pooled task exploded");
                }
            });
        }));
        assert!(result.is_err(), "the batch must re-raise the panic");
        assert_eq!(metrics.queue_depth.value(), 0, "panic must not skew queue depth");
        assert_eq!(metrics.in_flight.value(), 0, "panic must not skew in-flight");
        // The pool is still usable and keeps metering.
        pool.run(vec![1], |_, _| {});
        assert_eq!(metrics.dispatch_us.count(), 6);
        assert_eq!(metrics.in_flight.value(), 0);
    }

    #[test]
    fn capped_dispatch_limits_concurrency() {
        let pool = WorkerPool::new(4);
        let running = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let (r, p) = (Arc::clone(&running), Arc::clone(&peak));
        let (_, outcome) =
            pool.run_collect_capped(2, (0..32).collect::<Vec<u32>>(), move |_, _| {
                let now = r.fetch_add(1, Ordering::SeqCst) + 1;
                p.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                r.fetch_sub(1, Ordering::SeqCst);
            });
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap 2 must bound concurrency");
        assert_eq!(outcome.tasks, 32);
        assert_eq!(outcome.threads_reused, 2, "reuse reports the effective width");
    }

    #[test]
    fn cap_above_pool_size_is_a_noop() {
        let pool = WorkerPool::new(2);
        let (results, outcome) = pool.run_collect_capped(64, vec![1, 2, 3], |_, x: i32| x + 1);
        assert_eq!(results, vec![2, 3, 4]);
        assert_eq!(outcome.threads_reused, 2);
    }

    #[test]
    fn capped_batch_survives_panics_without_starving_the_gate() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_collect_capped(1, (0..8).collect::<Vec<i32>>(), |_, x| {
                if x == 3 {
                    panic!("capped task exploded");
                }
                x
            });
        }));
        assert!(result.is_err(), "the batch must re-raise the panic");
        // The one ticket outlived the panicked body and ran the rest: a
        // second capped batch completes instead of deadlocking.
        let (results, _) = pool.run_collect_capped(1, vec![10, 20], |_, x| x * 2);
        assert_eq!(results, vec![20, 40]);
    }

    /// A task's element, counting its own drops.
    struct Tracked<'a>(usize, &'a AtomicUsize);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Run 16 drop-counted tasks on a two-thread pool at the live width
    /// `base` under `cap`. `task` gets each task's index and the
    /// in-flight count, this task included. Checks that every task ran,
    /// and its element dropped, exactly once.
    fn live_batch(
        base: &AtomicUsize,
        cap: &AtomicUsize,
        task: impl Fn(usize, &AtomicUsize) + Sync,
    ) -> WaveOutcome {
        let pool = WorkerPool::new(2);
        let (in_flight, drops) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let runs: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        let tasks = (0..16).map(|i| Tracked(i, &drops)).collect();
        let (_, outcome) =
            pool.run_collect_capped(Width::Live { base, cap }, tasks, |idx, t: Tracked| {
                runs[t.0].fetch_add(1, Ordering::SeqCst);
                in_flight.fetch_add(1, Ordering::SeqCst);
                task(idx, &in_flight);
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "every task runs once");
        assert_eq!(drops.load(Ordering::SeqCst), 16, "every element drops once");
        assert_eq!(outcome.tasks, 16);
        outcome
    }

    #[test]
    fn lowered_live_width_retires_a_ticket_mid_batch() {
        // The first two tasks meet, so both tickets are in flight; the
        // cap, or else the job's own width, drops from 2 to 1 while they
        // still are. From then on, the ticket above it must retire
        // before its next task.
        for lower_cap in [true, false] {
            let (base, cap) = (AtomicUsize::new(2), AtomicUsize::new(2));
            let lowered = if lower_cap { &cap } else { &base };
            let barrier = std::sync::Barrier::new(2);
            let peak_after = AtomicUsize::new(0);
            let outcome = live_batch(&base, &cap, |idx, in_flight| {
                if idx < 2 {
                    barrier.wait();
                    if idx == 0 {
                        lowered.store(1, Ordering::Relaxed);
                    }
                    barrier.wait();
                } else {
                    peak_after.fetch_max(in_flight.load(Ordering::SeqCst), Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
            let peak_after = peak_after.load(Ordering::SeqCst);
            assert_eq!(peak_after, 1, "cap lowered: {lower_cap}: one task at a time after");
            assert_eq!(outcome.threads_reused, 2);
        }
    }

    #[test]
    fn raised_live_width_queues_another_ticket_mid_batch() {
        // One ticket runs task 0, which raises the cap, or else the job's
        // own width, from 1 to 2. The same ticket sees that before task
        // 1, which waits until another task has started beside it: only
        // a ticket queued after the raise can run one.
        for raise_cap in [true, false] {
            let (base, cap) = if raise_cap { (2, 1) } else { (1, 2) };
            let (base, cap) = (AtomicUsize::new(base), AtomicUsize::new(cap));
            let raised = if raise_cap { &cap } else { &base };
            let peak = AtomicUsize::new(0);
            let outcome = live_batch(&base, &cap, |idx, in_flight| {
                peak.fetch_max(in_flight.load(Ordering::SeqCst), Ordering::SeqCst);
                if idx == 0 {
                    raised.store(2, Ordering::Relaxed);
                } else if idx == 1 {
                    let deadline = Instant::now() + std::time::Duration::from_secs(10);
                    while peak.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
            });
            let peak = peak.load(Ordering::SeqCst);
            assert_eq!(peak, 2, "cap raised: {raise_cap}: the raise widened the running batch");
            assert_eq!(outcome.threads_reused, 2, "one ticket at dispatch, one topped up");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_cap_with_tasks_panics() {
        let pool = WorkerPool::new(2);
        let _ = pool.run_collect_capped(0, vec![1], |_, x: i32| x);
    }

    #[test]
    fn executor_dispatches_to_either_backend() {
        let wave = Executor::Wave.run_collect(2, vec![1, 2, 3], |_, x: i32| x * 10).0;
        let pool = WorkerPool::new(2);
        let pooled = Executor::Pool(&pool).run_collect(2, vec![1, 2, 3], |_, x: i32| x * 10).0;
        assert_eq!(wave, pooled);
        assert_eq!(wave, vec![10, 20, 30]);
    }

    #[test]
    fn fair_share_divides_slots_by_weight() {
        let share = FairShare::new(12);
        let a_cap = Arc::new(AtomicU64::new(0));
        let b_cap = Arc::new(AtomicU64::new(0));
        let _a = share.register(2, {
            let cap = Arc::clone(&a_cap);
            move |c| cap.store(c as u64, Ordering::Relaxed)
        });
        assert_eq!(a_cap.load(Ordering::Relaxed), 12, "sole tenant owns every slot");
        let b = share.register(4, {
            let cap = Arc::clone(&b_cap);
            move |c| cap.store(c as u64, Ordering::Relaxed)
        });
        assert_eq!(share.tenants(), 2);
        assert_eq!(a_cap.load(Ordering::Relaxed), 4, "weight 2 of 6 → a third");
        assert_eq!(b_cap.load(Ordering::Relaxed), 8, "weight 4 of 6 → two thirds");
        drop(b);
        assert_eq!(share.tenants(), 1);
        assert_eq!(a_cap.load(Ordering::Relaxed), 12, "departed share is returned");
    }

    #[test]
    fn fair_share_never_starves_a_tenant() {
        // More tenants than slots: everyone still gets at least 1.
        let share = FairShare::new(2);
        let caps: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let _tickets: Vec<ShareTicket> = caps
            .iter()
            .map(|cap| {
                let cap = Arc::clone(cap);
                share.register(1, move |c| cap.store(c as u64, Ordering::Relaxed))
            })
            .collect();
        for cap in &caps {
            assert_eq!(cap.load(Ordering::Relaxed), 1, "floor of one slot each");
        }
    }

    #[test]
    fn fair_share_zero_weight_is_clamped() {
        let share = FairShare::new(8);
        let cap = Arc::new(AtomicU64::new(0));
        let _t = share.register(0, {
            let cap = Arc::clone(&cap);
            move |c| cap.store(c as u64, Ordering::Relaxed)
        });
        assert_eq!(cap.load(Ordering::Relaxed), 8, "weight clamps to 1, not 0");
    }
}
