//! Typed job event tracing: the instrumentation behind the paper's
//! timelines.
//!
//! The paper's argument is carried by utilization timelines (Figs. 1–3,
//! 5–7): the ingest/map overlap and the merge "step curve" are visible
//! only if the runtime can say *which phase each thread was in, and why
//! it was waiting*. [`Tracer`] is that instrument: a lock-cheap recorder
//! the runtimes drive with typed [`EventKind`]s — span starts/ends for
//! chunk ingest, map waves, reduce partitions, and merge rounds, plus
//! explicit **stall events** ([`EventKind::MapWaitingForChunk`],
//! [`EventKind::IngestWaitingForContainer`]) that quantify how much of
//! the double-buffering overlap of Fig. 2 was actually achieved.
//!
//! Each OS thread appends to its own buffer (registered on first use,
//! guarded by a mutex only that thread and the final collection touch),
//! and every event carries a globally sequence-stamped `seq` plus a
//! microsecond timestamp from the job epoch. [`Tracer::finish`] folds
//! the buffers into a [`JobTrace`], which the exporters in
//! [`crate::chrome`] and [`crate::ascii`] render.

use crate::unpoisoned;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// How much detail a job records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing; every emit is a single branch.
    #[default]
    Off,
    /// Per-wave granularity: chunk ingests, map waves, the reduce wave,
    /// merge rounds, pool dispatches, and stalls.
    Wave,
    /// Wave granularity plus one span per map task and reduce partition.
    Task,
}

impl TraceLevel {
    /// Whether any events are recorded.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }

    /// Whether per-task spans are recorded.
    pub fn tasks(self) -> bool {
        self == TraceLevel::Task
    }
}

impl std::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceLevel::Off => "off",
            TraceLevel::Wave => "wave",
            TraceLevel::Task => "task",
        })
    }
}

impl std::str::FromStr for TraceLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<TraceLevel, String> {
        match s {
            "off" | "none" => Ok(TraceLevel::Off),
            "wave" => Ok(TraceLevel::Wave),
            "task" => Ok(TraceLevel::Task),
            other => Err(format!("unknown trace level '{other}' (off|wave|task)")),
        }
    }
}

/// A typed job event. Start/End variants delimit spans; the two
/// `Waiting` variants are stalls (the wait is over when they are
/// emitted, with its duration in the payload); `PoolDispatch` is an
/// instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An ingest of chunk `chunk` from primary storage began.
    ChunkIngestStart {
        /// Chunk index within the job.
        chunk: u32,
    },
    /// The ingest of chunk `chunk` completed, having read `bytes`.
    ChunkIngestEnd {
        /// Chunk index within the job.
        chunk: u32,
        /// Bytes read from primary storage for this chunk.
        bytes: u64,
    },
    /// A map wave over chunk `round` started with `tasks` tasks.
    MapWaveStart {
        /// Pipeline round (= chunk index being mapped).
        round: u32,
        /// Tasks dispatched: the chunk's input splits when it has landed
        /// by the time the wave opens, else the most splits it can have.
        /// The splits mapped are the round's map tasks.
        tasks: u64,
    },
    /// The map wave of `round` completed.
    MapWaveEnd {
        /// Pipeline round.
        round: u32,
    },
    /// One map task began (task level only).
    MapTaskStart {
        /// Pipeline round.
        round: u32,
        /// Task index within the wave.
        task: u64,
        /// Split length in bytes.
        bytes: u64,
    },
    /// One map task finished (task level only).
    MapTaskEnd {
        /// Pipeline round.
        round: u32,
        /// Task index within the wave.
        task: u64,
    },
    /// The reduce wave started over `partitions` key partitions.
    ReduceWaveStart {
        /// Number of reduce partitions.
        partitions: u64,
    },
    /// The reduce wave completed.
    ReduceWaveEnd,
    /// A partition's container drain began on a reduce worker (task
    /// level only): the shard payload is being materialized into reduce
    /// input, immediately before that partition's reduce span.
    DrainPartitionStart {
        /// Partition index.
        partition: u64,
    },
    /// The partition's container drain finished (task level only).
    DrainPartitionEnd {
        /// Partition index.
        partition: u64,
    },
    /// One reduce partition began (task level only).
    ReducePartitionStart {
        /// Partition index.
        partition: u64,
    },
    /// One reduce partition finished (task level only).
    ReducePartitionEnd {
        /// Partition index.
        partition: u64,
    },
    /// A merge round started over `width` concurrent merges.
    MergeRoundStart {
        /// Merge round index (pairwise runs log₂ k of them, p-way one).
        round: u32,
        /// Concurrent merge width of the round.
        width: u32,
    },
    /// The merge round completed.
    MergeRoundEnd {
        /// Merge round index.
        round: u32,
    },
    /// A batch of tasks was dispatched to the persistent worker pool
    /// instead of spawning a wave (instant).
    PoolDispatch {
        /// Tasks in the batch.
        tasks: u64,
        /// Pool threads the batch can use.
        workers: u64,
    },
    /// The memory accountant tripped and a container region is being
    /// drained to a sorted spill run on disk.
    SpillRunStart {
        /// Job-wide spill run sequence number.
        run: u64,
        /// Reduce partition the run's keys belong to.
        partition: u64,
    },
    /// The spill run finished writing.
    SpillRunEnd {
        /// Job-wide spill run sequence number.
        run: u64,
        /// Records written to the run.
        records: u64,
        /// Framed bytes written to the run.
        bytes: u64,
    },
    /// A partition's external merge (spilled runs + in-memory remainder)
    /// began on a reduce worker.
    ExternalMergeStart {
        /// Partition index.
        partition: u64,
        /// Spilled runs feeding the merge (the in-memory remainder adds
        /// one more source).
        runs: u64,
    },
    /// The partition's external merge finished.
    ExternalMergeEnd {
        /// Partition index.
        partition: u64,
    },
    /// A pipeline stage began executing on the pipeline's driver thread.
    StageStart {
        /// Stage index within the pipeline (chain order).
        stage: u32,
    },
    /// The pipeline stage finished.
    StageEnd {
        /// Stage index within the pipeline.
        stage: u32,
        /// Pairs the stage produced (reduced output, pre-merge count
        /// for hand-off stages).
        pairs: u64,
    },
    /// **Stall:** the map side sat idle for `wait_us` µs of worker time
    /// in this round's wave because ingest had not delivered — a task
    /// waiting for its split to land, or the whole wave for its chunk's
    /// read to begin — the pipeline was ingest-bound at this round.
    MapWaitingForChunk {
        /// Round whose input was late.
        round: u32,
        /// Idle time in microseconds.
        wait_us: u64,
    },
    /// **Stall:** the ingest side finished reading `wait_us` µs before
    /// the mappers released it — the pipeline was map-bound (compute
    /// dominated) at this chunk.
    IngestWaitingForContainer {
        /// Chunk whose ingest finished early.
        chunk: u32,
        /// Idle time in microseconds.
        wait_us: u64,
    },
    /// The feedback governor changed a runtime knob in response to a
    /// live bottleneck verdict (instant).
    GovernorAction {
        /// The classifier verdict that motivated the change, e.g.
        /// `"ingest-bound"`.
        verdict: &'static str,
        /// Which knob moved, e.g. `"map_width"` or `"prefetch_depth"`.
        knob: &'static str,
        /// The knob's new value.
        value: u64,
    },
}

impl EventKind {
    /// Stable event name (used by every exporter).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ChunkIngestStart { .. } => "ChunkIngestStart",
            EventKind::ChunkIngestEnd { .. } => "ChunkIngestEnd",
            EventKind::MapWaveStart { .. } => "MapWaveStart",
            EventKind::MapWaveEnd { .. } => "MapWaveEnd",
            EventKind::MapTaskStart { .. } => "MapTaskStart",
            EventKind::MapTaskEnd { .. } => "MapTaskEnd",
            EventKind::ReduceWaveStart { .. } => "ReduceWaveStart",
            EventKind::ReduceWaveEnd => "ReduceWaveEnd",
            EventKind::DrainPartitionStart { .. } => "DrainPartitionStart",
            EventKind::DrainPartitionEnd { .. } => "DrainPartitionEnd",
            EventKind::ReducePartitionStart { .. } => "ReducePartitionStart",
            EventKind::ReducePartitionEnd { .. } => "ReducePartitionEnd",
            EventKind::MergeRoundStart { .. } => "MergeRoundStart",
            EventKind::MergeRoundEnd { .. } => "MergeRoundEnd",
            EventKind::PoolDispatch { .. } => "PoolDispatch",
            EventKind::SpillRunStart { .. } => "SpillRunStart",
            EventKind::SpillRunEnd { .. } => "SpillRunEnd",
            EventKind::ExternalMergeStart { .. } => "ExternalMergeStart",
            EventKind::ExternalMergeEnd { .. } => "ExternalMergeEnd",
            EventKind::StageStart { .. } => "StageStart",
            EventKind::StageEnd { .. } => "StageEnd",
            EventKind::MapWaitingForChunk { .. } => "MapWaitingForChunk",
            EventKind::IngestWaitingForContainer { .. } => "IngestWaitingForContainer",
            EventKind::GovernorAction { .. } => "GovernorAction",
        }
    }

    /// For a span-start event, the key its matching end must carry.
    pub fn span_open(&self) -> Option<SpanKey> {
        match *self {
            EventKind::ChunkIngestStart { chunk } => Some(SpanKey::Ingest(chunk)),
            EventKind::MapWaveStart { round, .. } => Some(SpanKey::MapWave(round)),
            EventKind::MapTaskStart { round, task, .. } => Some(SpanKey::MapTask(round, task)),
            EventKind::ReduceWaveStart { .. } => Some(SpanKey::ReduceWave),
            EventKind::DrainPartitionStart { partition } => Some(SpanKey::Drain(partition)),
            EventKind::ReducePartitionStart { partition } => Some(SpanKey::Reduce(partition)),
            EventKind::MergeRoundStart { round, .. } => Some(SpanKey::Merge(round)),
            EventKind::SpillRunStart { run, .. } => Some(SpanKey::SpillRun(run)),
            EventKind::ExternalMergeStart { partition, .. } => {
                Some(SpanKey::ExternalMerge(partition))
            }
            EventKind::StageStart { stage } => Some(SpanKey::Stage(stage)),
            _ => None,
        }
    }

    /// For a span-end event, the key of the start it closes.
    pub fn span_close(&self) -> Option<SpanKey> {
        match *self {
            EventKind::ChunkIngestEnd { chunk, .. } => Some(SpanKey::Ingest(chunk)),
            EventKind::MapWaveEnd { round } => Some(SpanKey::MapWave(round)),
            EventKind::MapTaskEnd { round, task } => Some(SpanKey::MapTask(round, task)),
            EventKind::ReduceWaveEnd => Some(SpanKey::ReduceWave),
            EventKind::DrainPartitionEnd { partition } => Some(SpanKey::Drain(partition)),
            EventKind::ReducePartitionEnd { partition } => Some(SpanKey::Reduce(partition)),
            EventKind::MergeRoundEnd { round } => Some(SpanKey::Merge(round)),
            EventKind::SpillRunEnd { run, .. } => Some(SpanKey::SpillRun(run)),
            EventKind::ExternalMergeEnd { partition } => Some(SpanKey::ExternalMerge(partition)),
            EventKind::StageEnd { stage, .. } => Some(SpanKey::Stage(stage)),
            _ => None,
        }
    }

    /// The stall duration, if this is a stall event.
    pub fn stall_us(&self) -> Option<(StallSide, u64)> {
        match *self {
            EventKind::MapWaitingForChunk { wait_us, .. } => Some((StallSide::Map, wait_us)),
            EventKind::IngestWaitingForContainer { wait_us, .. } => {
                Some((StallSide::Ingest, wait_us))
            }
            _ => None,
        }
    }
}

/// Which side of the pipeline a stall idled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallSide {
    /// Mappers idle, waiting on ingest.
    Map,
    /// Ingest idle, waiting on mappers.
    Ingest,
}

/// Identity of a span, used to pair starts with ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKey {
    /// Chunk ingest, by chunk index.
    Ingest(u32),
    /// Map wave, by round.
    MapWave(u32),
    /// Map task, by (round, task).
    MapTask(u32, u64),
    /// The reduce wave.
    ReduceWave,
    /// Container drain of a partition, by index.
    Drain(u64),
    /// Reduce partition, by index.
    Reduce(u64),
    /// Merge round, by index.
    Merge(u32),
    /// Spill run write, by job-wide run sequence number.
    SpillRun(u64),
    /// External (spill-aware) merge of a partition, by index.
    ExternalMerge(u64),
    /// Pipeline stage, by index in the chain.
    Stage(u32),
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence stamp: total order across all threads.
    pub seq: u64,
    /// Microseconds since the job epoch.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Callback invoked synchronously on every emitted event
/// (`Job::on_event`). Keep it cheap: it runs on the emitting thread.
pub type EventCallback = Arc<dyn Fn(&TraceEvent) + Send + Sync>;

struct ThreadBuf {
    name: String,
    events: Mutex<Vec<TraceEvent>>,
}

struct TracerInner {
    id: u64,
    level: TraceLevel,
    epoch: Instant,
    seq: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    callback: Option<EventCallback>,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of (tracer id → this thread's buffer), so the
    /// hot path after first touch is a TLS lookup plus an uncontended
    /// mutex push.
    static THREAD_BUFS: RefCell<Vec<(u64, Weak<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
}

/// The event recorder one job threads through its runtimes. Cloning is
/// cheap (shared handle); all clones feed the same trace.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("level", &self.inner.level).finish_non_exhaustive()
    }
}

impl Tracer {
    /// A recorder at `level`, with the job epoch starting now.
    pub fn new(level: TraceLevel, callback: Option<EventCallback>) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                level,
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                threads: Mutex::new(Vec::new()),
                callback: None,
            }),
        }
        .with_callback(callback)
    }

    fn with_callback(mut self, callback: Option<EventCallback>) -> Tracer {
        if callback.is_some() {
            let inner = Arc::get_mut(&mut self.inner).expect("fresh tracer is unshared");
            inner.callback = callback;
        }
        self
    }

    /// A disabled recorder: every emit is one branch, nothing is stored.
    pub fn off() -> Tracer {
        Tracer::new(TraceLevel::Off, None)
    }

    /// The configured detail level.
    pub fn level(&self) -> TraceLevel {
        self.inner.level
    }

    /// The job epoch all timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    fn buf(&self) -> Arc<ThreadBuf> {
        let id = self.inner.id;
        THREAD_BUFS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(buf) = cache.iter().find(|(i, _)| *i == id).and_then(|(_, w)| w.upgrade()) {
                return buf;
            }
            // First event from this thread: register a buffer.
            let buf = Arc::new(ThreadBuf {
                name: std::thread::current().name().map_or_else(
                    || format!("thread-{:?}", std::thread::current().id()),
                    String::from,
                ),
                events: Mutex::new(Vec::new()),
            });
            unpoisoned(self.inner.threads.lock()).push(Arc::clone(&buf));
            cache.retain(|(_, w)| w.strong_count() > 0);
            cache.push((id, Arc::downgrade(&buf)));
            buf
        })
    }

    /// Record an event now. A no-op (single branch) when the level is
    /// [`TraceLevel::Off`].
    pub fn emit(&self, kind: EventKind) {
        if !self.inner.level.enabled() {
            return;
        }
        self.emit_at_us(self.inner.epoch.elapsed().as_micros() as u64, kind);
    }

    /// Record an event with an explicit timestamp (an [`Instant`] taken
    /// earlier), for spans whose boundaries were measured before the
    /// emit — e.g. merge rounds timed inside the merge backend.
    pub fn emit_at(&self, at: Instant, kind: EventKind) {
        if !self.inner.level.enabled() {
            return;
        }
        let t_us = at.saturating_duration_since(self.inner.epoch).as_micros() as u64;
        self.emit_at_us(t_us, kind);
    }

    fn emit_at_us(&self, t_us: u64, kind: EventKind) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent { seq, t_us, kind };
        if let Some(cb) = &self.inner.callback {
            cb(&event);
        }
        unpoisoned(self.buf().events.lock()).push(event);
    }

    /// Collect every thread's buffer into the final [`JobTrace`].
    /// Buffers registered after this call feed a trace nobody collects.
    pub fn finish(&self) -> JobTrace {
        let threads = unpoisoned(self.inner.threads.lock())
            .iter()
            .map(|buf| ThreadTrace {
                name: buf.name.clone(),
                events: std::mem::take(&mut *unpoisoned(buf.events.lock())),
            })
            .filter(|t| !t.events.is_empty())
            .collect();
        JobTrace { threads }
    }
}

/// A bounded ring of the most recent events, feeding the
/// `/debug/trace?tail=N` endpoint: the live counterpart of the full
/// [`JobTrace`]. Install it as (part of) the job's [`EventCallback`]
/// via [`TraceRing::callback`]; old events fall off the front once
/// `cap` is reached, so memory stays bounded however long the job runs.
pub struct TraceRing {
    cap: usize,
    buf: Mutex<std::collections::VecDeque<(String, TraceEvent)>>,
}

impl TraceRing {
    /// Default capacity: enough tail for a useful live window without
    /// unbounded growth.
    pub const DEFAULT_CAP: usize = 4096;

    /// A ring holding at most `cap` events (at least 1).
    pub fn new(cap: usize) -> Arc<TraceRing> {
        Arc::new(TraceRing { cap: cap.max(1), buf: Mutex::new(std::collections::VecDeque::new()) })
    }

    /// Record `event` from the current thread, evicting the oldest
    /// entry when full.
    pub fn push(&self, event: &TraceEvent) {
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{:?}", std::thread::current().id()), String::from);
        let mut buf = unpoisoned(self.buf.lock());
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back((name, event.clone()));
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        unpoisoned(self.buf.lock()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        unpoisoned(self.buf.lock()).is_empty()
    }

    /// An [`EventCallback`] feeding this ring, to pass (or compose)
    /// into [`Tracer::new`].
    pub fn callback(self: &Arc<Self>) -> EventCallback {
        let ring = Arc::clone(self);
        Arc::new(move |event| ring.push(event))
    }

    /// The newest `n` events as JSONL (same line schema as
    /// [`crate::chrome::to_jsonl`]), oldest of the tail first.
    pub fn tail_jsonl(&self, n: usize) -> String {
        let buf = unpoisoned(self.buf.lock());
        let skip = buf.len().saturating_sub(n);
        let mut out = String::new();
        for (name, event) in buf.iter().skip(skip) {
            out.push_str(&crate::chrome::event_line(name, event).render());
            out.push('\n');
        }
        out
    }

    /// The newest `n` [`EventKind::GovernorAction`] events as JSONL,
    /// oldest of the tail first — the `/debug/governor` feed. Other
    /// event kinds never count against `n`.
    pub fn tail_governor_jsonl(&self, n: usize) -> String {
        let buf = unpoisoned(self.buf.lock());
        let actions: Vec<&(String, TraceEvent)> = buf
            .iter()
            .filter(|(_, e)| matches!(e.kind, EventKind::GovernorAction { .. }))
            .collect();
        let skip = actions.len().saturating_sub(n);
        let mut out = String::new();
        for (name, event) in actions.into_iter().skip(skip) {
            out.push_str(&crate::chrome::event_line(name, event).render());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing").field("cap", &self.cap).field("len", &self.len()).finish()
    }
}

/// One thread's recorded events, in emission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThreadTrace {
    /// OS thread name at first emit.
    pub name: String,
    /// Events in the order the thread recorded them.
    pub events: Vec<TraceEvent>,
}

/// Summed stall time by side — the pipeline's idle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallStats {
    /// Total time mappers sat idle waiting for a chunk
    /// ([`EventKind::MapWaitingForChunk`]).
    pub map_waiting: Duration,
    /// Total time ingest sat idle waiting for the mappers
    /// ([`EventKind::IngestWaitingForContainer`]).
    pub ingest_waiting: Duration,
}

/// A paired span extracted from a thread's start/end events.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into [`JobTrace::threads`].
    pub thread: usize,
    /// The span identity.
    pub key: SpanKey,
    /// The start event's kind (carries the payload: tasks, bytes, …).
    pub start: EventKind,
    /// Microseconds since epoch at start.
    pub start_us: u64,
    /// Span length in microseconds.
    pub dur_us: u64,
}

/// One pipeline round reconstructed from a trace: what Fig. 2 plots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceRound {
    /// Round index (= chunk mapped this round).
    pub round: u32,
    /// Bytes of the chunk whose ingest overlapped this round.
    pub ingest_bytes: u64,
    /// Duration of the overlapped ingest (zero in the last round, which
    /// has no next chunk).
    pub ingest: Duration,
    /// Duration of this round's map wave.
    pub map: Duration,
    /// Mapper idle time in this round's wave, summed over its workers
    /// (ingest-bound round).
    pub map_wait: Duration,
    /// Ingest idle time during this round (map-bound round).
    pub ingest_wait: Duration,
}

/// A completed job's event trace: per-thread event logs plus the
/// analyses every consumer needs (stall totals, span pairing, round
/// reconstruction, invariant validation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobTrace {
    /// Per-thread logs, in thread-registration order (the coordinator
    /// thread is first).
    pub threads: Vec<ThreadTrace>,
}

impl JobTrace {
    /// Total recorded events.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// All events of all threads, ordered by global sequence stamp.
    pub fn ordered_events(&self) -> Vec<&TraceEvent> {
        let mut all: Vec<&TraceEvent> = self.threads.iter().flat_map(|t| t.events.iter()).collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Summed stall time by side.
    pub fn stall_totals(&self) -> StallStats {
        let mut stats = StallStats::default();
        for event in self.threads.iter().flat_map(|t| t.events.iter()) {
            match event.kind.stall_us() {
                Some((StallSide::Map, us)) => stats.map_waiting += Duration::from_micros(us),
                Some((StallSide::Ingest, us)) => stats.ingest_waiting += Duration::from_micros(us),
                None => {}
            }
        }
        stats
    }

    /// Pair every span start with its end, per thread.
    ///
    /// Unclosed spans are dropped; [`validate`](JobTrace::validate)
    /// reports them as errors.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = Vec::new();
        for (thread, log) in self.threads.iter().enumerate() {
            let mut open: Vec<(SpanKey, EventKind, u64)> = Vec::new();
            for event in &log.events {
                if let Some(key) = event.kind.span_open() {
                    open.push((key, event.kind.clone(), event.t_us));
                } else if let Some(key) = event.kind.span_close() {
                    if let Some(pos) = open.iter().rposition(|(k, _, _)| *k == key) {
                        let (_, start, start_us) = open.remove(pos);
                        spans.push(Span {
                            thread,
                            key,
                            start,
                            start_us,
                            dur_us: event.t_us.saturating_sub(start_us),
                        });
                    }
                }
            }
        }
        spans
    }

    /// Reconstruct per-round pipeline timing (the measured Fig. 2).
    ///
    /// Round *i* maps chunk *i* while chunk *i+1* ingests, so the
    /// ingest attributed to round *i* is the span of chunk *i+1*.
    pub fn rounds(&self) -> Vec<TraceRound> {
        let spans = self.spans();
        let max_round = spans
            .iter()
            .filter_map(|s| match s.key {
                SpanKey::MapWave(r) => Some(r),
                _ => None,
            })
            .max();
        let Some(max_round) = max_round else { return Vec::new() };
        let mut rounds: Vec<TraceRound> =
            (0..=max_round).map(|round| TraceRound { round, ..TraceRound::default() }).collect();
        for span in &spans {
            match span.key {
                SpanKey::MapWave(r) => rounds[r as usize].map = Duration::from_micros(span.dur_us),
                // Chunk 0 ingests serially before round 0; chunk i+1
                // overlaps round i.
                SpanKey::Ingest(chunk) if chunk > 0 && chunk <= max_round => {
                    let round = &mut rounds[(chunk - 1) as usize];
                    round.ingest = Duration::from_micros(span.dur_us);
                    if let EventKind::ChunkIngestStart { .. } = span.start {
                        // Bytes live on the end event; recover them below.
                    }
                }
                _ => {}
            }
        }
        for event in self.threads.iter().flat_map(|t| t.events.iter()) {
            match event.kind {
                EventKind::ChunkIngestEnd { chunk, bytes } if chunk > 0 && chunk <= max_round => {
                    rounds[(chunk - 1) as usize].ingest_bytes = bytes;
                }
                EventKind::MapWaitingForChunk { round, wait_us } if round <= max_round => {
                    rounds[round as usize].map_wait += Duration::from_micros(wait_us);
                }
                EventKind::IngestWaitingForContainer { chunk, wait_us }
                    if chunk > 0 && chunk <= max_round =>
                {
                    rounds[(chunk - 1) as usize].ingest_wait += Duration::from_micros(wait_us);
                }
                _ => {}
            }
        }
        rounds
    }

    /// Check the structural invariants every exporter and test relies
    /// on:
    ///
    /// 1. sequence stamps strictly increase within each thread;
    /// 2. timestamps are non-decreasing within each thread;
    /// 3. span starts and ends pair up and nest without overlap within
    ///    a thread (an end always closes the innermost open span of its
    ///    key, and no span remains open at the end of the log).
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, log) in self.threads.iter().enumerate() {
            let mut open: Vec<SpanKey> = Vec::new();
            let mut last_seq: Option<u64> = None;
            let mut last_t: u64 = 0;
            for event in &log.events {
                if let Some(prev) = last_seq {
                    if event.seq <= prev {
                        return Err(format!(
                            "thread {i} ({}): seq {} after {prev}",
                            log.name, event.seq
                        ));
                    }
                }
                last_seq = Some(event.seq);
                if event.t_us < last_t {
                    return Err(format!(
                        "thread {i} ({}): time went backwards ({} < {last_t} µs) at {}",
                        log.name,
                        event.t_us,
                        event.kind.name()
                    ));
                }
                last_t = event.t_us;
                if let Some(key) = event.kind.span_open() {
                    open.push(key);
                } else if let Some(key) = event.kind.span_close() {
                    match open.pop() {
                        Some(top) if top == key => {}
                        Some(top) => {
                            return Err(format!(
                                "thread {i} ({}): {:?} closed while {top:?} was innermost",
                                log.name, key
                            ));
                        }
                        None => {
                            return Err(format!(
                                "thread {i} ({}): {:?} closed with no open span",
                                log.name, key
                            ));
                        }
                    }
                }
            }
            if let Some(key) = open.first() {
                return Err(format!("thread {i} ({}): {key:?} never closed", log.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let tracer = Tracer::off();
        tracer.emit(EventKind::MapWaveStart { round: 0, tasks: 4 });
        tracer.emit(EventKind::MapWaveEnd { round: 0 });
        assert_eq!(tracer.finish().event_count(), 0);
    }

    #[test]
    fn events_are_sequence_stamped_and_validate() {
        let tracer = Tracer::new(TraceLevel::Wave, None);
        tracer.emit(EventKind::ChunkIngestStart { chunk: 0 });
        tracer.emit(EventKind::ChunkIngestEnd { chunk: 0, bytes: 100 });
        tracer.emit(EventKind::MapWaveStart { round: 0, tasks: 2 });
        tracer.emit(EventKind::MapWaveEnd { round: 0 });
        let trace = tracer.finish();
        assert_eq!(trace.event_count(), 4);
        assert_eq!(trace.threads.len(), 1);
        trace.validate().expect("well-formed trace");
        let seqs: Vec<u64> = trace.threads[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_thread_buffers_merge_into_one_trace() {
        let tracer = Tracer::new(TraceLevel::Wave, None);
        tracer.emit(EventKind::MapWaveStart { round: 0, tasks: 1 });
        let t2 = tracer.clone();
        std::thread::spawn(move || {
            t2.emit(EventKind::ChunkIngestStart { chunk: 1 });
            t2.emit(EventKind::ChunkIngestEnd { chunk: 1, bytes: 7 });
        })
        .join()
        .unwrap();
        tracer.emit(EventKind::MapWaveEnd { round: 0 });
        let trace = tracer.finish();
        assert_eq!(trace.threads.len(), 2);
        assert_eq!(trace.event_count(), 4);
        trace.validate().expect("each thread nests cleanly");
        // Global sequence order interleaves the threads.
        let ordered = trace.ordered_events();
        assert_eq!(ordered.len(), 4);
        assert!(ordered.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn callback_sees_every_event() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let cb: EventCallback = Arc::new(move |_e| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        let tracer = Tracer::new(TraceLevel::Wave, Some(cb));
        tracer.emit(EventKind::PoolDispatch { tasks: 3, workers: 2 });
        tracer.emit(EventKind::MapWaitingForChunk { round: 0, wait_us: 10 });
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn stall_totals_sum_by_side() {
        let tracer = Tracer::new(TraceLevel::Wave, None);
        tracer.emit(EventKind::MapWaitingForChunk { round: 0, wait_us: 1_000 });
        tracer.emit(EventKind::MapWaitingForChunk { round: 1, wait_us: 2_000 });
        tracer.emit(EventKind::IngestWaitingForContainer { chunk: 2, wait_us: 500 });
        let stats = tracer.finish().stall_totals();
        assert_eq!(stats.map_waiting, Duration::from_micros(3_000));
        assert_eq!(stats.ingest_waiting, Duration::from_micros(500));
    }

    #[test]
    fn validate_rejects_overlapping_spans() {
        let trace = JobTrace {
            threads: vec![ThreadTrace {
                name: "t".into(),
                events: vec![
                    TraceEvent { seq: 0, t_us: 0, kind: EventKind::ChunkIngestStart { chunk: 0 } },
                    TraceEvent {
                        seq: 1,
                        t_us: 1,
                        kind: EventKind::MapWaveStart { round: 0, tasks: 1 },
                    },
                    // Ingest ends while the map wave (opened later) is
                    // still open: not nested.
                    TraceEvent {
                        seq: 2,
                        t_us: 2,
                        kind: EventKind::ChunkIngestEnd { chunk: 0, bytes: 1 },
                    },
                    TraceEvent { seq: 3, t_us: 3, kind: EventKind::MapWaveEnd { round: 0 } },
                ],
            }],
        };
        assert!(trace.validate().is_err());
    }

    #[test]
    fn validate_rejects_unclosed_and_unopened_spans() {
        let unclosed = JobTrace {
            threads: vec![ThreadTrace {
                name: "t".into(),
                events: vec![TraceEvent {
                    seq: 0,
                    t_us: 0,
                    kind: EventKind::MapWaveStart { round: 0, tasks: 1 },
                }],
            }],
        };
        assert!(unclosed.validate().unwrap_err().contains("never closed"));
        let unopened = JobTrace {
            threads: vec![ThreadTrace {
                name: "t".into(),
                events: vec![TraceEvent {
                    seq: 0,
                    t_us: 0,
                    kind: EventKind::MapWaveEnd { round: 0 },
                }],
            }],
        };
        assert!(unopened.validate().unwrap_err().contains("no open span"));
    }

    #[test]
    fn spans_pair_starts_with_ends() {
        let tracer = Tracer::new(TraceLevel::Task, None);
        tracer.emit(EventKind::MapWaveStart { round: 0, tasks: 1 });
        tracer.emit(EventKind::MapTaskStart { round: 0, task: 0, bytes: 64 });
        tracer.emit(EventKind::MapTaskEnd { round: 0, task: 0 });
        tracer.emit(EventKind::MapWaveEnd { round: 0 });
        let spans = tracer.finish().spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.key == SpanKey::MapWave(0)));
        assert!(spans.iter().any(|s| s.key == SpanKey::MapTask(0, 0)));
    }

    #[test]
    fn rounds_reconstruct_the_pipeline_timeline() {
        let tracer = Tracer::new(TraceLevel::Wave, None);
        // Chunk 0 ingests serially; round 0 maps it while chunk 1
        // ingests; round 1 maps chunk 1 (nothing left to ingest).
        tracer.emit(EventKind::ChunkIngestStart { chunk: 0 });
        tracer.emit(EventKind::ChunkIngestEnd { chunk: 0, bytes: 10 });
        tracer.emit(EventKind::ChunkIngestStart { chunk: 1 });
        tracer.emit(EventKind::ChunkIngestEnd { chunk: 1, bytes: 20 });
        tracer.emit(EventKind::MapWaveStart { round: 0, tasks: 1 });
        tracer.emit(EventKind::MapWaveEnd { round: 0 });
        tracer.emit(EventKind::MapWaitingForChunk { round: 0, wait_us: 123 });
        tracer.emit(EventKind::MapWaveStart { round: 1, tasks: 1 });
        tracer.emit(EventKind::MapWaveEnd { round: 1 });
        let rounds = tracer.finish().rounds();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].ingest_bytes, 20, "round 0 overlaps chunk 1's ingest");
        assert_eq!(rounds[0].map_wait, Duration::from_micros(123));
        assert_eq!(rounds[1].ingest, Duration::ZERO, "last round has no next chunk");
    }

    #[test]
    fn trace_ring_keeps_the_newest_tail() {
        let ring = TraceRing::new(3);
        let tracer = Tracer::new(TraceLevel::Wave, Some(ring.callback()));
        for chunk in 0..5u32 {
            tracer.emit(EventKind::ChunkIngestStart { chunk });
        }
        assert_eq!(ring.len(), 3, "old events fall off the front");
        let tail = ring.tail_jsonl(2);
        let lines: Vec<&str> = tail.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""chunk":3"#), "{tail}");
        assert!(lines[1].contains(r#""chunk":4"#), "{tail}");
        assert!(ring.tail_jsonl(100).lines().count() == 3, "tail larger than ring is clamped");
    }

    #[test]
    fn trace_level_parses() {
        assert_eq!("wave".parse::<TraceLevel>().unwrap(), TraceLevel::Wave);
        assert_eq!("task".parse::<TraceLevel>().unwrap(), TraceLevel::Task);
        assert_eq!("off".parse::<TraceLevel>().unwrap(), TraceLevel::Off);
        assert!("loud".parse::<TraceLevel>().is_err());
        assert_eq!(TraceLevel::Wave.to_string(), "wave");
    }
}
