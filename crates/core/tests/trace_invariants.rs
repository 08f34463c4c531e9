//! Property and integration tests of the event-trace invariants:
//! sequence stamps are monotonic per thread, spans nest and always
//! close, stall + busy time accounts for each round's wall time, and
//! the stall accounting distinguishes a throttled source from an
//! unthrottled one. Exercised over random chunkings and both pool
//! modes, at both trace levels.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use supmr::api::{AccOf, Emit, MapReduce};
use supmr::combiner::{Combiner, Identity, Sum};
use supmr::container::{Absorbed, Container, ContainerHooks, HashContainer, UnlockedContainer};
use supmr::runtime::{Input, Job, JobConfig, JobReport, JobResult, MergeMode};
use supmr::{Chunking, PoolMode, TraceLevel};
use supmr_metrics::chrome::to_chrome_json;
use supmr_metrics::{
    EventKind, FlowPhase, JobTrace, Json, MetricValue, MetricsSnapshot, Phase, Registry, Span,
    SpanKey,
};
use supmr_storage::{MemSource, ThrottledSource, TokenBucket};
use supmr_workloads::check::{check, Gen};
use supmr_workloads::{TextGen, TextGenConfig};

struct WordCount;

impl MapReduce for WordCount {
    type Key = String;
    type Value = u64;
    type Combiner = Sum;
    type Output = u64;
    type Container = HashContainer<String, u64, Sum>;

    fn make_container(&self) -> Self::Container {
        HashContainer::default()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        for word in split.split(|b| b.is_ascii_whitespace()) {
            if !word.is_empty() {
                emit.emit(String::from_utf8_lossy(word).into_owned(), 1);
            }
        }
    }

    fn reduce(&self, _key: &String, acc: u64) -> u64 {
        acc
    }
}

/// Every word as its own pair, through the run container: nothing
/// combines, so every emitted pair is absorbed.
struct WordSort;

impl MapReduce for WordSort {
    type Key = String;
    type Value = u64;
    type Combiner = Identity;
    type Output = u64;
    type Container = UnlockedContainer<String, u64>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<String, u64>) {
        WordCount.map(split, emit);
    }

    fn reduce(&self, _key: &String, acc: u64) -> u64 {
        acc
    }
}

/// A container that counts its absorbs, around the job's own.
struct Counting<C> {
    inner: C,
    absorbs: Arc<AtomicU64>,
}

impl<K, V, Cb: Combiner<V>, C: Container<K, V, Cb>> Container<K, V, Cb> for Counting<C> {
    type Local = C::Local;
    type Drain = C::Drain;

    fn local(&self) -> Self::Local {
        self.inner.local()
    }

    fn absorb(&self, local: Self::Local) -> Absorbed {
        self.absorbs.fetch_add(1, Ordering::Relaxed);
        self.inner.absorb(local)
    }

    fn configure(&self, hooks: &ContainerHooks) {
        self.inner.configure(hooks);
    }

    fn combines() -> bool {
        C::combines()
    }

    fn distinct_keys(&self) -> usize {
        self.inner.distinct_keys()
    }

    fn total_pairs(&self) -> u64 {
        self.inner.total_pairs()
    }

    fn into_drains(self, parts: usize) -> Vec<Self::Drain> {
        self.inner.into_drains(parts)
    }

    fn drain(payload: Self::Drain) -> Vec<(K, Cb::Acc)> {
        C::drain(payload)
    }
}

/// `J` over a [`Counting`] container.
struct Counted<J> {
    app: J,
    absorbs: Arc<AtomicU64>,
}

impl<J: MapReduce> MapReduce for Counted<J> {
    type Key = J::Key;
    type Value = J::Value;
    type Combiner = J::Combiner;
    type Output = J::Output;
    type Container = Counting<J::Container>;

    fn make_container(&self) -> Self::Container {
        Counting { inner: self.app.make_container(), absorbs: Arc::clone(&self.absorbs) }
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<J::Key, J::Value>) {
        self.app.map(split, emit);
    }

    fn reduce(&self, key: &J::Key, acc: AccOf<J>) -> J::Output {
        self.app.reduce(key, acc)
    }
}

/// Run `app` over `data`; the result and how many absorbs its container
/// saw.
fn counted_run<J: MapReduce>(
    app: J,
    cfg: JobConfig,
    data: &[u8],
) -> (JobResult<J::Key, J::Output>, u64) {
    let absorbs = Arc::new(AtomicU64::new(0));
    let result = Job::new(Counted { app, absorbs: Arc::clone(&absorbs) })
        .config(cfg)
        .run(Input::stream(MemSource::from(data.to_vec())))
        .unwrap();
    (result, absorbs.load(Ordering::Relaxed))
}

/// The absorbs a job made all reached the probe: one `absorb_batch`
/// sample each. And its map tasks and absorbs, each summed over the
/// workers, fit in the map phase's wall clock times the width.
fn assert_absorbs_recorded_and_fit(what: &str, report: &JobReport, absorbs: u64, width: usize) {
    let snap = report.metrics.as_ref().expect("a registry was attached");
    assert!(absorbs > 0, "{what}: the job absorbed nothing");
    assert_eq!(family_total(snap, "supmr.container.absorb_batch"), absorbs, "{what}");
    assert_eq!(family_total(snap, "supmr.container.absorb_wait_us"), absorbs, "{what}");
    let flows = &report.diag.as_ref().expect("jobs are always diagnosed").inputs.flows;
    let busy = Duration::from_micros(
        flows.get(FlowPhase::Map).busy_us + flows.get(FlowPhase::Shuffle).busy_us,
    );
    let wall = report.timings.phase(Phase::Map);
    let slop = Duration::from_millis(2) * width as u32;
    assert!(
        busy <= wall * width as u32 + slop,
        "{what}: map + shuffle busy {busy:?} in a {wall:?} map phase {width} wide"
    );
}

fn traced_config(chunk_bytes: u64, pool: PoolMode, level: TraceLevel) -> JobConfig {
    JobConfig {
        map_workers: 3,
        reduce_workers: 2,
        split_bytes: 2048,
        chunking: Chunking::Inter { chunk_bytes },
        pool,
        trace: level,
        ..JobConfig::default()
    }
}

fn text(bytes: usize) -> Vec<u8> {
    TextGen::new(TextGenConfig::default()).generate_bytes(11, bytes)
}

/// Assert the invariants the satellite names, explicitly (not only via
/// `JobTrace::validate`, which the runtime itself relies on).
fn assert_structural_invariants(trace: &JobTrace) {
    trace.validate().expect("trace must validate");

    // Sequence stamps strictly increase within each thread, and are
    // globally unique across threads.
    let mut seen = std::collections::HashSet::new();
    for t in &trace.threads {
        for pair in t.events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "per-thread seqs must be strictly increasing");
            assert!(pair[0].t_us <= pair[1].t_us, "per-thread time must not go backwards");
        }
        for e in &t.events {
            assert!(seen.insert(e.seq), "seq {} appears twice", e.seq);
        }
    }

    // Every Start has exactly one End with the same key.
    let mut opens: HashMap<SpanKey, i64> = HashMap::new();
    for e in trace.ordered_events() {
        if let Some(key) = e.kind.span_open() {
            *opens.entry(key).or_insert(0) += 1;
        }
        if let Some(key) = e.kind.span_close() {
            *opens.entry(key).or_insert(0) -= 1;
        }
    }
    for (key, balance) in &opens {
        assert_eq!(*balance, 0, "{key:?}: starts and ends must balance");
    }

    // The span extractor pairs them all (nothing dropped as unclosed).
    let span_keys: std::collections::HashSet<SpanKey> =
        trace.spans().iter().map(|s| s.key).collect();
    assert_eq!(span_keys.len(), opens.len(), "every opened key must yield a span");
}

/// Random newline-framed text with frequent word collisions.
fn arb_text(g: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    for l in g.vec(1..60, |g| g.vec(0..40, |g| g.pick(b"abx "))) {
        out.extend_from_slice(&l);
        out.push(b'\n');
    }
    out
}

/// For arbitrary inputs, chunk sizes, pool modes, and trace levels:
/// the trace is structurally sound, tracing does not perturb
/// results, and busy + stall time never exceeds the traced wall
/// time.
#[test]
fn traced_runs_satisfy_structural_invariants() {
    check("traced_runs_satisfy_structural_invariants", 12, |g| {
        let data = arb_text(g);
        let chunk_kb = g.range(1u64..8);
        let persistent = g.bool();
        let task_level = g.bool();
        let pool = if persistent { PoolMode::Persistent } else { PoolMode::WavePerRound };
        let level = if task_level { TraceLevel::Task } else { TraceLevel::Wave };
        let cfg = traced_config(chunk_kb * 1024, pool, level);

        let mut untraced_cfg = cfg.clone();
        untraced_cfg.trace = TraceLevel::Off;
        let untraced = Job::new(WordCount)
            .config(untraced_cfg)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();

        let traced =
            Job::new(WordCount).config(cfg).run(Input::stream(MemSource::from(data))).unwrap();
        assert_eq!(traced.sorted_pairs(), untraced.sorted_pairs());

        let trace = traced.report.trace.as_ref().expect("traced run must attach a trace");
        assert_structural_invariants(trace);

        // Busy + stall can never exceed the traced wall time (the
        // other direction — coverage — needs throttled, ms-scale
        // rounds and is asserted below).
        let events = trace.ordered_events();
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            let wall = Duration::from_micros(last.t_us - first.t_us);
            let stalls = trace.stall_totals();
            let map_busy: Duration = trace.rounds().iter().map(|r| r.map).sum();
            let slop = Duration::from_millis(2);
            assert!(
                map_busy + stalls.map_waiting <= wall + slop,
                "map busy {map_busy:?} + stall {:?} exceeds wall {wall:?}",
                stalls.map_waiting
            );
        }

        // Task-level traces additionally carry per-task spans.
        if level.tasks() {
            let has_task_span =
                trace.spans().iter().any(|s| matches!(s.key, SpanKey::MapTask(_, _)));
            assert!(has_task_span, "task level must record map task spans");
        }
    });
}

/// Run word count over a throttled in-memory source with wave tracing.
/// The bucket's burst is kept tiny so pacing is real from the first
/// read (the default burst would let a small test input through in one
/// gulp).
fn throttled_run(bytes: usize, chunk_bytes: u64, rate: f64) -> JobResult<String, u64> {
    let cfg = traced_config(chunk_bytes, PoolMode::WavePerRound, TraceLevel::Wave);
    let bucket = TokenBucket::with_burst(rate, 4096.0);
    let src = ThrottledSource::with_bucket(MemSource::from(text(bytes)), bucket);
    Job::new(WordCount).config(cfg).run(Input::stream(src)).unwrap()
}

/// Per round, the map side's stall fits in the round's wave times the
/// map width: a task waits for its split inside the wave, outside its map
/// task. Over the job, map busy + stall fits in the waves' capacity and
/// covers the great majority of it: the only unaccounted time is a
/// worker out of tasks before its wave ends, and per-round bookkeeping.
/// Uses a throttled source so rounds are ms-scale and bookkeeping
/// overhead is proportionally negligible.
#[test]
fn stall_plus_busy_accounts_for_round_wall_time() {
    let result = throttled_run(128 * 1024, 16 * 1024, 4.0 * 1024.0 * 1024.0);
    let trace = result.report.trace.as_ref().unwrap();
    assert_structural_invariants(trace);

    let mut waves: Vec<_> = trace
        .spans()
        .into_iter()
        .filter_map(|s| match s.key {
            SpanKey::MapWave(r) => Some((r, s.dur_us)),
            _ => None,
        })
        .collect();
    waves.sort_by_key(|&(r, _)| r);
    assert!(waves.len() >= 3, "expected several rounds, got {}", waves.len());

    let width = 3; // traced_config's map workers
    let slop = Duration::from_millis(2);
    let rounds = trace.rounds();
    let (mut capacity, mut stalls) = (Duration::ZERO, Duration::ZERO);
    for &(round, dur_us) in &waves {
        let wave = Duration::from_micros(dur_us) * width;
        let stall = rounds[round as usize].map_wait;
        assert!(stall <= wave + slop, "round {round}: stall {stall:?} > {width} × wave {wave:?}");
        (capacity, stalls) = (capacity + wave, stalls + stall);
    }
    let flows = &result.report.diag.as_ref().expect("jobs are always diagnosed").inputs.flows;
    let busy = Duration::from_micros(flows.get(FlowPhase::Map).busy_us);
    let accounted = busy + stalls;
    assert!(accounted <= capacity + slop, "busy + stall {accounted:?} > capacity {capacity:?}");
    assert!(
        accounted >= capacity.mul_f64(0.6),
        "busy + stall {accounted:?} covers too little of {capacity:?}"
    );
}

/// The acceptance criterion: summed `MapWaitingForChunk` stall time in
/// the report differs measurably between a throttled and an
/// unthrottled source.
#[test]
fn throttled_source_stalls_the_map_side_measurably() {
    // 2 MiB/s: each 32 KiB chunk takes ~16 ms to ingest while mapping
    // it takes well under a millisecond — every round is ingest-bound.
    let throttled = throttled_run(192 * 1024, 32 * 1024, 2.0 * 1024.0 * 1024.0);

    let cfg = traced_config(32 * 1024, PoolMode::WavePerRound, TraceLevel::Wave);
    let unthrottled = Job::new(WordCount)
        .config(cfg)
        .run(Input::stream(MemSource::from(text(192 * 1024))))
        .unwrap();

    let slow = throttled.report.stalls().map_waiting;
    let fast = unthrottled.report.stalls().map_waiting;
    assert!(slow >= Duration::from_millis(20), "throttled map stall too small: {slow:?}");
    assert!(
        slow >= fast * 4 + Duration::from_millis(10),
        "throttled stall {slow:?} not measurably above unthrottled {fast:?}"
    );

    // The trace's own stall accounting agrees with the report's.
    let traced_stall = throttled.report.trace.as_ref().unwrap().stall_totals().map_waiting;
    assert!(
        traced_stall >= Duration::from_millis(20),
        "trace stall total too small: {traced_stall:?}"
    );
}

/// The Chrome export of a traced run parses as JSON, carries one
/// complete (`"X"`) event per paired span — each with `ts` and `dur` —
/// plus thread metadata, and at least one stall event when the source
/// is throttled.
#[test]
fn chrome_export_parses_and_carries_stalls() {
    let result = throttled_run(96 * 1024, 16 * 1024, 4.0 * 1024.0 * 1024.0);
    let trace = result.report.trace.as_ref().unwrap();

    let value = Json::parse(&to_chrome_json(trace)).expect("chrome export must be valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("chrome export must carry a traceEvents array");
    assert!(!events.is_empty());

    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).map(String::from);
    let spans: Vec<&Json> = events.iter().filter(|e| ph(e).as_deref() == Some("X")).collect();
    let stall_count =
        events.iter().filter(|e| e.get("cat").and_then(Json::as_str) == Some("stall")).count();
    // Spans are exported pre-paired: one X event per (span + stall).
    assert_eq!(spans.len(), trace.spans().len() + stall_count);
    for span in &spans {
        assert!(span.get("ts").and_then(Json::as_f64).is_some(), "X event needs ts");
        assert!(span.get("dur").and_then(Json::as_f64).is_some(), "X event needs dur");
    }
    assert!(
        events.iter().any(|e| ph(e).as_deref() == Some("M")),
        "thread-name metadata must be present"
    );
    assert!(stall_count > 0, "a throttled run must export at least one stall event");
}

/// A family's total across its label sets: counter sums, histogram
/// observation counts.
fn family_total(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match &e.value {
            MetricValue::Counter(v) => *v,
            MetricValue::Histogram(h) => h.count,
            MetricValue::Gauge(v) => *v as u64,
        })
        .sum()
}

/// Every quantity a job reports through more than one sink — the
/// report's counters, the registry, the flow ledger, the event trace —
/// has one writer, so the sinks agree exactly: bytes conserve from
/// ingest to map, task and round counts match, stall totals are the sum
/// of the stall events, and no round accounts for more time than passed.
#[test]
fn every_sink_agrees_on_bytes_tasks_stalls_and_rounds() {
    let data = text(96 * 1024);
    let width = 3usize;
    let runtimes = [
        ("original", Chunking::None, 1),
        ("double-buffered", Chunking::Inter { chunk_bytes: 16 * 1024 }, 1),
        ("prefetch 3", Chunking::Inter { chunk_bytes: 16 * 1024 }, 3),
    ];
    for (runtime, chunking, prefetch_depth) in runtimes {
        for pool in [PoolMode::WavePerRound, PoolMode::Persistent] {
            let what = format!("{runtime}, {pool:?}");
            let cfg = || JobConfig {
                map_workers: width,
                reduce_workers: 2,
                split_bytes: 2048,
                chunking,
                prefetch_depth,
                pool,
                merge: MergeMode::PWay { ways: 2 },
                trace: TraceLevel::Task,
                metrics: Some(Registry::new()),
                ..JobConfig::default()
            };
            let (result, absorbs) = counted_run(WordCount, cfg(), &data);
            let report = &result.report;
            let stats = &report.stats;
            let snap = report.metrics.as_ref().expect("a registry was attached");
            let flows = &report.diag.as_ref().expect("jobs are always diagnosed").inputs.flows;
            let trace = report.trace.as_ref().expect("tracing was on");
            assert_structural_invariants(trace);
            let events = trace.ordered_events();

            // Bytes conserve from storage to the mappers, in every sink.
            let ingested: u64 = events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::ChunkIngestEnd { bytes, .. } => Some(bytes),
                    _ => None,
                })
                .sum();
            assert_eq!(stats.bytes_ingested, data.len() as u64, "{what}");
            assert_eq!(family_total(snap, "supmr.ingest.bytes"), stats.bytes_ingested, "{what}");
            assert_eq!(flows.get(FlowPhase::Ingest).bytes, stats.bytes_ingested, "{what}");
            assert_eq!(ingested, stats.bytes_ingested, "{what}");
            assert_eq!(family_total(snap, "supmr.map.scan_bytes"), stats.bytes_ingested, "{what}");
            assert_eq!(flows.get(FlowPhase::Map).bytes, stats.bytes_ingested, "{what}");

            // The merge moved every output pair once (one p-way round),
            // and the ledger counts them at their in-memory size.
            assert_eq!(stats.merge_elements_moved, stats.output_pairs, "{what}");
            let pair_bytes = std::mem::size_of::<(String, u64)>() as u64;

            // The shuffle flow counts absorbed entries at the same size:
            // every distinct key at least once, no more than every pair
            // emitted. The run container absorbs every pair as it is.
            let shuffled = flows.get(FlowPhase::Shuffle).bytes;
            assert!(stats.distinct_keys * pair_bytes <= shuffled, "{what}: {shuffled}");
            assert!(shuffled <= stats.intermediate_pairs * pair_bytes, "{what}: {shuffled}");
            assert_absorbs_recorded_and_fit(&what, report, absorbs, width);
            let (sorted, sort_absorbs) = counted_run(WordSort, cfg(), &data);
            let sort = &sorted.report;
            assert_eq!(
                sort.diag.as_ref().unwrap().inputs.flows.get(FlowPhase::Shuffle).bytes,
                sort.stats.intermediate_pairs * pair_bytes,
                "{what}: sort"
            );
            assert_absorbs_recorded_and_fit(&format!("{what}, sort"), sort, sort_absorbs, width);
            assert_eq!(
                flows.get(FlowPhase::Merge).bytes,
                stats.merge_elements_moved * pair_bytes,
                "{what}"
            );

            // One latency sample and one span per map task; one round
            // sample per merge round.
            let task_ends =
                events.iter().filter(|e| matches!(e.kind, EventKind::MapTaskEnd { .. })).count();
            assert_eq!(family_total(snap, "supmr.map.task_us"), stats.map_tasks, "{what}");
            assert_eq!(task_ends as u64, stats.map_tasks, "{what}");
            assert_eq!(
                family_total(snap, "supmr.merge.round_us"),
                u64::from(stats.merge_rounds),
                "{what}"
            );
            assert_eq!(
                family_total(snap, "supmr.merge.rounds"),
                u64::from(stats.merge_rounds),
                "{what}"
            );

            // Stall totals: the report, the registry and the events.
            let traced = trace.stall_totals();
            let us = |d: Duration| d.as_micros() as u64;
            assert_eq!(family_total(snap, "supmr.stall.map_us"), us(stats.map_waiting), "{what}");
            assert_eq!(us(traced.map_waiting), us(stats.map_waiting), "{what}");
            assert_eq!(
                family_total(snap, "supmr.stall.ingest_us"),
                us(stats.ingest_waiting),
                "{what}"
            );
            assert_eq!(us(traced.ingest_waiting), us(stats.ingest_waiting), "{what}");

            // Busy + stall fits in the wall clock, per round: a task
            // waits for its split inside its round's wave, outside its
            // map task, so the round's map busy and map stall fit in the
            // wave times its workers.
            let slop = Duration::from_millis(2);
            let spans = trace.spans();
            let mut waves: Vec<(u32, u64, u64)> = spans
                .iter()
                .filter_map(|s| match (s.key, &s.start) {
                    (SpanKey::MapWave(r), &EventKind::MapWaveStart { tasks, .. }) => {
                        Some((r, tasks, s.dur_us))
                    }
                    _ => None,
                })
                .collect();
            waves.sort_unstable();
            assert_eq!(waves.len() as u32, stats.map_rounds, "{what}");
            assert_eq!(stats.rounds.len(), stats.map_rounds as usize, "{what}");
            let rounds = trace.rounds();
            for &(round, dispatched, dur_us) in &waves {
                let tasks: Vec<&Span> = spans
                    .iter()
                    .filter(|s| matches!(s.key, SpanKey::MapTask(r, _) if r == round))
                    .collect();
                // A wave dispatches its chunk's splits, or the most it
                // can have while it lands; the tasks it ran are its
                // map task spans.
                assert!(tasks.len() as u64 <= dispatched, "{what}: round {round}");
                let busy = Duration::from_micros(tasks.iter().map(|s| s.dur_us).sum());
                let accounted = busy + rounds[round as usize].map_wait;
                let wave = Duration::from_micros(dur_us) * width as u32;
                assert!(
                    accounted <= wave + slop,
                    "{what}: round {round} accounts for {accounted:?} of a {wave:?} wave"
                );
            }
        }
    }
}

/// Zero everything in a rendered report that depends on the clock:
/// durations, rates, shares and the verdict drawn from them. Counts,
/// byte totals, names, labels and order stay.
fn zero_timings(value: &mut Json, timed_family: bool) {
    match value {
        Json::Arr(items) => items.iter_mut().for_each(|v| zero_timings(v, timed_family)),
        Json::Obj(pairs) => {
            // A metrics entry of a `*_us` family: its whole value is time.
            let timed = timed_family
                || pairs.iter().any(|(k, v)| {
                    k == "name" && v.as_str().is_some_and(|name| name.ends_with("_us"))
                });
            for (key, v) in pairs.iter_mut() {
                let clocked = key.ends_with("_us")
                    || key == "duration_s"
                    || key == "mb_per_sec"
                    || key == "speedup_if_removed"
                    || key == "shares"
                    || (timed && key == "value");
                match v {
                    Json::Num(_) if clocked => *v = Json::Num(0.0),
                    Json::Str(_) if key == "verdict" => *v = Json::str("-"),
                    Json::Obj(inner) if clocked => {
                        for (k, n) in inner.iter_mut() {
                            if k != "count" {
                                *n = Json::Num(0.0);
                            }
                        }
                    }
                    _ => zero_timings(v, timed),
                }
            }
        }
        _ => {}
    }
}

/// The `supmr.job_report.v1` rendering of a seeded one-worker word
/// count — every section, family name, label, help-free value and count,
/// in order — is byte-identical to the one captured before the
/// instrumentation moved behind the probe.
#[test]
fn job_report_json_matches_the_golden() {
    // No generator: the golden must not depend on a random stream.
    let mut data = Vec::new();
    for i in 0..6000u32 {
        let word = i.wrapping_mul(2_654_435_761) % 97;
        data.extend_from_slice(format!("w{word}").as_bytes());
        data.push(if i % 11 == 10 { b'\n' } else { b' ' });
    }
    data.push(b'\n');
    let cfg = JobConfig {
        map_workers: 1,
        reduce_workers: 1,
        split_bytes: 2048,
        chunking: Chunking::Inter { chunk_bytes: 8 * 1024 },
        merge: MergeMode::PWay { ways: 2 },
        hash_seed: Some(42),
        trace: TraceLevel::Wave,
        metrics: Some(Registry::new()),
        ..JobConfig::default()
    };
    let result = Job::new(WordCount).config(cfg).run(Input::stream(MemSource::from(data))).unwrap();
    let mut json = result.report.to_json();
    zero_timings(&mut json, false);
    // A stall event marks a wait, and whether a round waits some
    // microseconds for its chunk's read to begin is the clock's doing:
    // the golden counts the trace's other events.
    let trace = result.report.trace.as_ref().expect("tracing was on");
    let stalls = trace.ordered_events().iter().filter(|e| e.kind.stall_us().is_some()).count();
    if let Json::Obj(sections) = &mut json {
        for (key, section) in sections.iter_mut() {
            if let (true, Json::Obj(counts)) = (key == "trace", section) {
                for (key, count) in counts.iter_mut() {
                    if let (true, Json::Num(n)) = (key == "events", count) {
                        *n -= stalls as f64;
                    }
                }
            }
        }
    }
    let golden = include_str!("golden/job_report_v1.json");
    assert_eq!(json.render(), golden.trim_end(), "the report's JSON moved");
}
