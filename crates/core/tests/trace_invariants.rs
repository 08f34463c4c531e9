//! Property and integration tests of the event-trace invariants:
//! sequence stamps are monotonic per thread, spans nest and always
//! close, stall + busy time accounts for each round's wall time, and
//! the stall accounting distinguishes a throttled source from an
//! unthrottled one. Exercised over random chunkings and both pool
//! modes, at both trace levels.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;
use supmr::api::{Emit, MapReduce};
use supmr::combiner::Sum;
use supmr::container::HashContainer;
use supmr::runtime::{Input, Job, JobConfig, JobResult, MergeMode};
use supmr::{Chunking, PoolMode, TraceLevel};
use supmr_metrics::chrome::to_chrome_json;
use supmr_metrics::{
    EventKind, FlowPhase, JobTrace, Json, MetricValue, MetricsSnapshot, Registry, SpanKey,
};
use supmr_storage::{MemSource, ThrottledSource, TokenBucket};
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
fn arb_text() -> impl Strategy<Value = Vec<u8>> {
    vec(vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'x'), Just(b' ')], 0..40), 1..60).prop_map(
        |lines| {
            let mut out = Vec::new();
            for l in lines {
                out.extend_from_slice(&l);
                out.push(b'\n');
            }
            out
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary inputs, chunk sizes, pool modes, and trace levels:
    /// the trace is structurally sound, tracing does not perturb
    /// results, and busy + stall time never exceeds the traced wall
    /// time.
    #[test]
    fn traced_runs_satisfy_structural_invariants(
        data in arb_text(),
        chunk_kb in 1u64..8,
        persistent in any::<bool>(),
        task_level in any::<bool>(),
    ) {
        let pool = if persistent { PoolMode::Persistent } else { PoolMode::WavePerRound };
        let level = if task_level { TraceLevel::Task } else { TraceLevel::Wave };
        let cfg = traced_config(chunk_kb * 1024, pool, level);

        let mut untraced_cfg = cfg.clone();
        untraced_cfg.trace = TraceLevel::Off;
        let untraced =
            Job::new(WordCount).config(untraced_cfg).run(Input::stream(MemSource::from(data.clone())))
                .unwrap();

        let traced = Job::new(WordCount).config(cfg).run(Input::stream(MemSource::from(data))).unwrap();
        prop_assert_eq!(traced.sorted_pairs(), untraced.sorted_pairs());

        let trace = traced.report.trace.as_ref().expect("traced run must attach a trace");
        assert_structural_invariants(trace);

        // Busy + stall can never exceed the traced wall time (the
        // other direction — coverage — needs throttled, ms-scale
        // rounds and is asserted below).
        let events = trace.ordered_events();
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            let wall = Duration::from_micros(last.t_us - first.t_us);
            let stalls = trace.stall_totals();
            let map_busy: Duration = trace
                .rounds()
                .iter()
                .map(|r| r.map)
                .sum();
            let slop = Duration::from_millis(2);
            prop_assert!(
                map_busy + stalls.map_waiting <= wall + slop,
                "map busy {map_busy:?} + stall {:?} exceeds wall {wall:?}",
                stalls.map_waiting
            );
        }

        // Task-level traces additionally carry per-task spans.
        if level.tasks() {
            let has_task_span =
                trace.spans().iter().any(|s| matches!(s.key, SpanKey::MapTask(_, _)));
            prop_assert!(has_task_span, "task level must record map task spans");
        }
    }
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

/// Per round, the map side's busy + stall time must account for the
/// round's wall clock (window between consecutive wave starts). Uses a
/// throttled source so rounds are ms-scale and bookkeeping overhead is
/// proportionally negligible.
#[test]
fn stall_plus_busy_accounts_for_round_wall_time() {
    let result = throttled_run(128 * 1024, 16 * 1024, 4.0 * 1024.0 * 1024.0);
    let trace = result.report.trace.as_ref().unwrap();
    assert_structural_invariants(trace);

    let mut waves: Vec<_> = trace
        .spans()
        .into_iter()
        .filter_map(|s| match s.key {
            SpanKey::MapWave(r) => Some((r, s.start_us, s.dur_us)),
            _ => None,
        })
        .collect();
    waves.sort_by_key(|&(r, _, _)| r);
    assert!(waves.len() >= 3, "expected several rounds, got {}", waves.len());

    let rounds = trace.rounds();
    let mut windows = Duration::ZERO;
    let mut accounted = Duration::ZERO;
    for pair in waves.windows(2) {
        let (round, start_us, dur_us) = pair[0];
        let window = Duration::from_micros(pair[1].1 - start_us);
        let busy = Duration::from_micros(dur_us);
        let stall = rounds[round as usize].map_wait;
        // Accounted time never exceeds the window (small slop for the
        // stall being measured on a different thread than the spans).
        assert!(
            busy + stall <= window + Duration::from_millis(2),
            "round {round}: busy {busy:?} + stall {stall:?} > window {window:?}"
        );
        windows += window;
        accounted += busy + stall;
    }
    // ... and covers the great majority of it: the only unaccounted
    // time is per-round bookkeeping (chunk splitting, container
    // handoff), which is microseconds against ms-scale rounds.
    assert!(
        accounted >= windows.mul_f64(0.6),
        "busy + stall {accounted:?} covers too little of {windows:?}"
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
            let cfg = JobConfig {
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
            let result = Job::new(WordCount)
                .config(cfg)
                .run(Input::stream(MemSource::from(data.clone())))
                .unwrap();
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

            // Busy + stall fits in the wall clock: per wave across its
            // workers, per round on the map side.
            let slop = Duration::from_millis(2);
            let spans = trace.spans();
            let mut waves: Vec<(u32, u64, u64)> = spans
                .iter()
                .filter_map(|s| match s.key {
                    SpanKey::MapWave(r) => Some((r, s.start_us, s.dur_us)),
                    _ => None,
                })
                .collect();
            waves.sort_unstable();
            assert_eq!(waves.len() as u32, stats.map_rounds, "{what}");
            for &(round, _, dur_us) in &waves {
                let busy_us: u64 = spans
                    .iter()
                    .filter(|s| matches!(s.key, SpanKey::MapTask(r, _) if r == round))
                    .map(|s| s.dur_us)
                    .sum();
                assert!(
                    Duration::from_micros(busy_us)
                        <= Duration::from_micros(dur_us) * width as u32 + slop,
                    "{what}: round {round} tasks were busy {busy_us} us in a {dur_us} us wave"
                );
            }
            let rounds = trace.rounds();
            for pair in waves.windows(2) {
                let (round, start_us, dur_us) = pair[0];
                let window = Duration::from_micros(pair[1].1 - start_us);
                let accounted = Duration::from_micros(dur_us) + rounds[round as usize].map_wait;
                assert!(
                    accounted <= window + slop,
                    "{what}: round {round} accounts for {accounted:?} of a {window:?} window"
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
    let golden = include_str!("golden/job_report_v1.json");
    assert_eq!(json.render(), golden.trim_end(), "the report's JSON moved");
}
