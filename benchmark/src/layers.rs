//! The traced pass of a batch workload: the workload's own job with its
//! program-reported phases laid out as spans, the comparison jobs behind
//! the derived ratios, and one isolated drive per layer the workload
//! exercises — each drive a call the benchmark itself makes into a public
//! function of that layer, on the workload's own data.

use crate::batch::{Batch, Op, Tweak};
use crate::spans::{Source, SpanId, Spans};
use crate::spec::{Better, Workload, PER_LAYER, WORKERS};
use crate::stats::{self, median};
use crate::sys;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use supmr::api::{Emit, MapReduce};
use supmr::chunk::{Chunker, InterFileChunker};
use supmr::container::{Container, ContainerHooks};
use supmr::pool::WorkerPool;
use supmr::runtime::{JobConfig, JobReport};
use supmr::split::split_ranges;
use supmr_apps::sort::TERA_PAIRS;
use supmr_apps::{TeraSort, WordCount};
use supmr_merge::{
    kway_merge, merge_fold, merge_iterators, merge_run_files, pairwise_merge_rounds,
    parallel_kway_merge, parallel_sort, MergeBackend, RunReader, RunWriter,
};
use supmr_metrics::Phase;
use supmr_storage::scan::{self, ByteClass};
use supmr_storage::{DataSource, DiskRunStore, FileSource, RecordFormat, RunStore};
use supmr_workloads::{TERA_KEY_LEN, TERA_RECORD_LEN};

/// Per-layer metric values by name; a metric never set reads 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

type Pair = (Vec<u8>, Vec<u8>);
type LocalOf<J> = <<J as MapReduce>::Container as Container<
    <J as MapReduce>::Key,
    <J as MapReduce>::Value,
    <J as MapReduce>::Combiner,
>>::Local;

fn best(walls: &[f64]) -> f64 {
    stats::best(walls.iter().copied(), Better::Lower)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn mb_per_s(bytes: u64, took: Duration) -> f64 {
    bytes as f64 / 1e6 / secs(took)
}

fn ns_per(units: u64, took: Duration) -> f64 {
    took.as_nanos() as f64 / units as f64
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One isolated layer drive under a root span `name`, started from a
/// trimmed heap like every job. What the allocator hands a drive would
/// otherwise depend on which drives ran before it: moving pairs into a
/// container reads ten times faster on recycled pages than on fresh ones.
fn drive<T>(spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> (T, SpanId, Duration) {
    sys::reset_heap();
    spans.root(name, f)
}

fn checked(op: Op) -> Result<Op, String> {
    match &op.error {
        None => Ok(op),
        Some(error) => Err(format!("traced job: {error}")),
    }
}

/// Run the job `trace_reps` times in `shape`/`tweak`, each under a root
/// span `name`, and return the best wall in seconds — the estimator of
/// the timed pass, so the ratios built on it compare like with like.
fn job_best(
    batch: &Batch,
    spans: &mut Spans,
    name: &str,
    shape: Workload,
    tweak: Tweak,
) -> Result<f64, String> {
    let mut walls = Vec::new();
    for _ in 0..batch.scale.trace_reps {
        let start = spans.now_ns();
        let op = checked(batch.run(shape, tweak))?;
        let id = spans.add_root(name, start, op.wall);
        spans.count(id, "bytes", batch.input_bytes());
        walls.push(secs(op.wall));
    }
    Ok(best(&walls))
}

/// Children of a job's span from the durations the program reported.
fn lay_report(spans: &mut Spans, job: SpanId, report: &JobReport) {
    if !report.stages.is_empty() {
        let stages: Vec<(String, Duration)> = report
            .stages
            .iter()
            .map(|s| (format!("stage.{}", s.name), s.timings.total()))
            .collect();
        let parts: Vec<(&str, Duration)> = stages.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        spans.lay_children(job, Source::JobReport, &parts);
        return;
    }
    let t = &report.timings;
    let mut parts = Vec::new();
    match t.fused_ingest_map() {
        Some(fused) => parts.push(("phase.ingest_map", fused)),
        None => {
            parts.push(("phase.ingest", t.phase(Phase::Ingest)));
            parts.push(("phase.map", t.phase(Phase::Map)));
        }
    }
    parts.push(("phase.reduce", t.phase(Phase::Reduce)));
    parts.push(("phase.merge", t.phase(Phase::Merge)));
    spans.lay_children(job, Source::JobReport, &parts);
}

/// The values a `JobReport` already carries.
fn report_metrics(report: &JobReport, out: &mut Layers) {
    let t = &report.timings;
    if !t.is_fused() {
        out.set("runtime.phase_ingest_s", secs(t.phase(Phase::Ingest)));
        out.set("runtime.phase_map_s", secs(t.phase(Phase::Map)));
    }
    out.set("runtime.phase_ingest_map_s", secs(t.ingest_map_span()));
    out.set("runtime.phase_reduce_s", secs(t.phase(Phase::Reduce)));
    out.set("runtime.phase_merge_s", secs(t.phase(Phase::Merge)));
    let s = &report.stats;
    out.set("runtime.map_waiting_s", secs(s.map_waiting));
    out.set("runtime.ingest_waiting_s", secs(s.ingest_waiting));
    out.set("merge.elements_moved", s.merge_elements_moved as f64);
    out.set("merge.rounds", f64::from(s.merge_rounds));
    out.set("spill.runs", s.spill_runs as f64);
    out.set("spill.bytes", s.spill_bytes as f64);
    for stage in &report.stages {
        match stage.name.as_str() {
            "partition" => out.set("dag.stage_partition_s", secs(stage.timings.total())),
            "sort" => out.set("dag.stage_sort_s", secs(stage.timings.total())),
            _ => {}
        }
        if let Some(handoff) = &stage.handoff {
            out.set("dag.handoff_bytes", handoff.bytes as f64);
            out.set("dag.handoff_pairs", handoff.pairs as f64);
            out.set("dag.handoff_materialized_pairs", handoff.materialized_pairs as f64);
        }
    }
}

/// The whole traced pass of a batch workload.
pub fn traced_pass(batch: &Batch, spans: &mut Spans) -> Result<Layers, String> {
    let mut out = Layers::default();
    let w = batch.workload;

    // The workload's own job, alternately unrecorded and recorded, so a
    // drift of the machine falls on both sides of the overhead ratio.
    let (mut plain, mut traced, mut report) = (Vec::new(), Vec::new(), JobReport::default());
    for _ in 0..batch.scale.trace_reps {
        plain.push(secs(checked(batch.run(w, Tweak::Plain))?.wall));
        let start = spans.now_ns();
        let op = checked(batch.run(w, Tweak::Plain))?;
        let job = spans.add_root("job", start, op.wall);
        spans.count(job, "bytes", batch.input_bytes());
        spans.count(job, "pairs", op.report.stats.intermediate_pairs);
        spans.count(job, "output_pairs", op.report.stats.output_pairs);
        lay_report(spans, job, &op.report);
        traced.push(secs(op.wall));
        report = op.report;
    }
    let job_wall = best(&traced);
    out.set("bench.trace_overhead_ratio", job_wall / best(&plain));
    report_metrics(&report, &mut out);

    dispatch_waves(batch.scale.dispatch_waves, spans, &mut out);
    match w {
        Workload::WcMem => {
            text_drives(batch, spans, &mut out)?;
            absorb_combine(batch, spans, &mut out)?;
            let metered = job_best(batch, spans, "job.metered", w, Tweak::Metered)?;
            out.set("metrics.overhead_ratio", metered / job_wall);
        }
        Workload::WcDisk => {
            text_drives(batch, spans, &mut out)?;
            file_drives(batch, spans, &mut out)?;
            let map_only = job_best(batch, spans, "job.as_wc_mem", Workload::WcMem, Tweak::Plain)?;
            out.set("runtime.map_only_s", map_only);
            out.set(
                "runtime.overlap_ratio",
                job_wall / map_only.max(out.get("runtime.ingest_only_s")),
            );
            let original = job_best(batch, spans, "job.unchunked", w, Tweak::Unchunked)?;
            out.set("runtime.original_over_pipeline", original / job_wall);
            let governed = job_best(batch, spans, "job.governed", w, Tweak::Governed)?;
            out.set("governor.ratio_to_static", governed / job_wall);
        }
        Workload::SortMem => {
            record_scan(batch, spans, &mut out);
            let splits = split_drive(batch, spans, &mut out, TeraSort::record_format());
            tera_map(batch, spans, &mut out, &splits)?;
            let pairs = drive_pairs(batch);
            absorb_unique(batch, spans, &mut out, &pairs)?;
            drain_drive(batch, spans, &mut out, &pairs)?;
            merge_drives(spans, &mut out, &pairs, true)?;
        }
        Workload::SortSpill => {
            let pairs = drive_pairs(batch);
            absorb_unique(batch, spans, &mut out, &pairs)?;
            spill_drives(batch, spans, &mut out, pairs)?;
            let in_memory =
                job_best(batch, spans, "job.as_sort_mem", Workload::SortMem, Tweak::Plain)?;
            out.set("spill.slowdown_ratio", job_wall / in_memory);
        }
        Workload::TeraDag => {
            record_scan(batch, spans, &mut out);
            let pairs = drive_pairs(batch);
            absorb_unique(batch, spans, &mut out, &pairs)?;
            merge_drives(spans, &mut out, &pairs, false)?;
            let single =
                job_best(batch, spans, "job.as_sort_mem", Workload::SortMem, Tweak::Plain)?;
            out.set("dag.overhead_ratio", job_wall / single);
        }
        Workload::ServeMix => unreachable!("serve_mix has its own traced pass"),
    }
    Ok(out)
}

/// `pool.dispatch_us`: waves of 64 empty tasks on a 2-thread pool.
pub fn dispatch_waves(waves: usize, spans: &mut Spans, out: &mut Layers) {
    let pool = WorkerPool::new(WORKERS);
    let (times, id, _) = drive(spans, "pool.dispatch", || {
        (0..waves)
            .map(|_| {
                let clock = Instant::now();
                black_box(pool.run_collect(vec![(); 64], |_, ()| ()));
                clock.elapsed().as_nanos() as f64 / 1e3
            })
            .collect::<Vec<f64>>()
    });
    spans.count(id, "waves", waves as u64);
    out.set("pool.dispatch_us", median(&times));
}

fn split_drive(
    batch: &Batch,
    spans: &mut Spans,
    out: &mut Layers,
    format: RecordFormat,
) -> Vec<Range<usize>> {
    let data = batch.data();
    let split_bytes = JobConfig::default().split_bytes;
    let (splits, id, took) = drive(spans, "core.split", || split_ranges(data, split_bytes, format));
    spans.count(id, "bytes", data.len() as u64);
    spans.count(id, "splits", splits.len() as u64);
    out.set("core.split_us", took.as_nanos() as f64 / 1e3);
    splits
}

/// Map every split into one thread-local table of the application's own
/// container, on one thread; returns the pairs emitted.
fn map_all<J: MapReduce>(app: &J, seed: u64, data: &[u8], splits: &[Range<usize>]) -> u64 {
    let container = app.make_container();
    container.configure(&ContainerHooks { hash_seed: Some(seed), ..ContainerHooks::default() });
    let mut local = container.local();
    for split in splits {
        app.map(&data[split.clone()], &mut local);
    }
    container.absorb(local);
    container.total_pairs()
}

/// Tokenizer, splitter and word-count map over the whole text.
fn text_drives(batch: &Batch, spans: &mut Spans, out: &mut Layers) -> Result<(), String> {
    let data = batch.data();
    let (tokens, id, took) =
        drive(spans, "storage.scan", || scan::tokens(data, ByteClass::Word).count() as u64);
    spans.count(id, "bytes", data.len() as u64);
    spans.count(id, "tokens", tokens);
    out.set("storage.scan_ns_per_byte", ns_per(data.len() as u64, took));

    let splits = split_drive(batch, spans, out, RecordFormat::Newline);
    let (pairs, id, took) =
        drive(spans, "apps.wc_map", || map_all(&WordCount::new(), batch.seed(), data, &splits));
    spans.count(id, "bytes", data.len() as u64);
    spans.count(id, "pairs", pairs);
    out.set("apps.wc_map_ns_per_byte", ns_per(data.len() as u64, took));
    if pairs != tokens {
        return Err(format!("word-count map emitted {pairs} pairs for {tokens} tokens"));
    }
    Ok(())
}

fn record_scan(batch: &Batch, spans: &mut Spans, out: &mut Layers) {
    let data = batch.data();
    let (records, id, took) =
        drive(spans, "storage.record", || RecordFormat::CrLf.records(data).count() as u64);
    spans.count(id, "bytes", data.len() as u64);
    spans.count(id, "records", records);
    out.set("storage.record_ns_per_byte", ns_per(data.len() as u64, took));
}

fn tera_map(
    batch: &Batch,
    spans: &mut Spans,
    out: &mut Layers,
    splits: &[Range<usize>],
) -> Result<(), String> {
    let data = batch.data();
    let (pairs, id, took) =
        drive(spans, "apps.tera_map", || map_all(&TeraSort::new(), batch.seed(), data, splits));
    spans.count(id, "bytes", data.len() as u64);
    spans.count(id, "pairs", pairs);
    out.set("apps.tera_map_ns_per_byte", ns_per(data.len() as u64, took));
    let records = (data.len() / TERA_RECORD_LEN) as u64;
    if pairs != records {
        return Err(format!("terasort map emitted {pairs} pairs for {records} records"));
    }
    Ok(())
}

/// Two threads, each taking every second batch: a fresh local table,
/// every pair of the batch emitted into it, the table absorbed. Returns
/// the time of the whole and the container's pair count after it.
fn absorb_rate<J: MapReduce, P: Send>(
    app: &J,
    seed: u64,
    batches: Vec<Vec<P>>,
    emit: impl Fn(&mut LocalOf<J>, P) + Sync,
) -> (Duration, u64) {
    let container = app.make_container();
    container.configure(&ContainerHooks { hash_seed: Some(seed), ..ContainerHooks::default() });
    let mut lanes: Vec<Vec<Vec<P>>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (i, batch) in batches.into_iter().enumerate() {
        lanes[i % WORKERS].push(batch);
    }
    let clock = Instant::now();
    std::thread::scope(|scope| {
        for lane in lanes {
            let (container, emit) = (&container, &emit);
            scope.spawn(move || {
                for batch in lane {
                    let mut local = container.local();
                    for pair in batch {
                        emit(&mut local, pair);
                    }
                    container.absorb(local);
                }
            });
        }
    });
    (clock.elapsed(), container.total_pairs())
}

/// `container.absorb_combine_mpairs_s`: the word-count key stream of the
/// input's first `drive_bytes`, one batch per split.
fn absorb_combine(batch: &Batch, spans: &mut Spans, out: &mut Layers) -> Result<(), String> {
    let data = &batch.data()[..batch.scale.drive_bytes.min(batch.data().len())];
    let batches: Vec<Vec<&[u8]>> =
        split_ranges(data, JobConfig::default().split_bytes / 4, RecordFormat::Newline)
            .into_iter()
            .map(|split| scan::tokens(&data[split], ByteClass::Word).collect())
            .collect();
    let pairs: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let ((took, absorbed), id, _) = drive(spans, "container.absorb_combine", || {
        absorb_rate(&WordCount::new(), batch.seed(), batches, |local, word| {
            local.emit_bytes(word, 1)
        })
    });
    spans.count(id, "pairs", pairs);
    if absorbed != pairs {
        return Err(format!("hash container holds {absorbed} of {pairs} absorbed pairs"));
    }
    out.set("container.absorb_combine_mpairs_s", pairs as f64 / 1e6 / secs(took));
    Ok(())
}

/// `(key, record)` pairs of the input's first `drive_bytes`, in input
/// order: what the container and merge drives work on.
fn drive_pairs(batch: &Batch) -> Vec<Pair> {
    let data = &batch.data()[..batch.scale.drive_bytes.min(batch.data().len())];
    data.chunks_exact(TERA_RECORD_LEN).map(|r| (r[..TERA_KEY_LEN].to_vec(), r.to_vec())).collect()
}

/// Batches of about a quarter split's worth of records each.
fn pair_batches(pairs: &[Pair]) -> Vec<Vec<Pair>> {
    let per_batch = (JobConfig::default().split_bytes / 4 / TERA_RECORD_LEN).max(1);
    pairs.chunks(per_batch).map(<[Pair]>::to_vec).collect()
}

/// `container.absorb_unique_mpairs_s`: the same shape with Teragen keys,
/// none of which repeats, into the sort's own container.
fn absorb_unique(
    batch: &Batch,
    spans: &mut Spans,
    out: &mut Layers,
    pairs: &[Pair],
) -> Result<(), String> {
    let batches = pair_batches(pairs);
    let ((took, absorbed), id, _) = drive(spans, "container.absorb_unique", || {
        absorb_rate(&TeraSort::new(), batch.seed(), batches, |local, (key, record)| {
            local.emit(key, record)
        })
    });
    spans.count(id, "pairs", pairs.len() as u64);
    if absorbed != pairs.len() as u64 {
        return Err(format!("run container holds {absorbed} of {} absorbed pairs", pairs.len()));
    }
    out.set("container.absorb_unique_mpairs_s", pairs.len() as f64 / 1e6 / secs(took));
    Ok(())
}

/// Fill the application's container from `batches`, then time
/// `into_drains` + `drain`; returns the pairs drained.
fn fill_and_drain<J: MapReduce<Key = Vec<u8>, Value = Vec<u8>>>(
    app: &J,
    seed: u64,
    batches: Vec<Vec<Pair>>,
    spans: &mut Spans,
) -> (usize, SpanId, Duration) {
    let container = app.make_container();
    container.configure(&ContainerHooks { hash_seed: Some(seed), ..ContainerHooks::default() });
    for batch in batches {
        let mut local = container.local();
        for (key, record) in batch {
            local.emit(key, record);
        }
        container.absorb(local);
    }
    let (drained, id, took) = drive(spans, "container.drain", || {
        container.into_drains(WORKERS).into_iter().map(J::Container::drain).collect::<Vec<_>>()
    });
    (drained.iter().map(Vec::len).sum(), id, took)
}

/// `container.drain_us`: `into_drains` + `drain` of a filled container.
fn drain_drive(
    batch: &Batch,
    spans: &mut Spans,
    out: &mut Layers,
    pairs: &[Pair],
) -> Result<(), String> {
    let (total, id, took) =
        fill_and_drain(&TeraSort::new(), batch.seed(), pair_batches(pairs), spans);
    spans.count(id, "pairs", total as u64);
    if total != pairs.len() {
        return Err(format!("drained {total} of {} pairs", pairs.len()));
    }
    out.set("container.drain_us", took.as_nanos() as f64 / 1e3);
    Ok(())
}

fn is_sorted(pairs: &[Pair]) -> bool {
    pairs.windows(2).all(|w| w[0] <= w[1])
}

/// Eight presorted runs of near-equal length.
fn presorted_runs(pairs: &[Pair]) -> Vec<Vec<Pair>> {
    let mut runs: Vec<Vec<Pair>> =
        pairs.chunks(pairs.len().div_ceil(8).max(1)).map(<[Pair]>::to_vec).collect();
    for run in &mut runs {
        run.sort_unstable();
    }
    runs
}

/// One merge drive: `f` consumes its own copy of the runs (cloned before
/// the clock starts) and returns the merged output, checked after it
/// stops.
fn merge_drive(
    spans: &mut Spans,
    out: &mut Layers,
    span: &str,
    metric: &'static str,
    runs: &[Vec<Pair>],
    f: impl FnOnce(Vec<Vec<Pair>>) -> Vec<Pair>,
) -> Result<(), String> {
    let elements: usize = runs.iter().map(Vec::len).sum();
    let input = runs.to_vec();
    let (merged, id, took) = drive(spans, span, || f(input));
    spans.count(id, "elements", elements as u64);
    if merged.len() != elements || !is_sorted(&merged) {
        return Err(format!("{span}: output is not the sorted input"));
    }
    out.set(metric, ns_per(elements as u64, took));
    Ok(())
}

/// `merge.*`: the sort and merge kernels on `(key, record)` pairs.
/// `control` adds the sequential and pairwise baselines.
fn merge_drives(
    spans: &mut Spans,
    out: &mut Layers,
    pairs: &[Pair],
    control: bool,
) -> Result<(), String> {
    let unsorted = [pairs.to_vec()];
    merge_drive(spans, out, "merge.sort", "merge.sort_ns_per_elem", &unsorted, |mut input| {
        let data = input.pop().expect("one unsorted run");
        parallel_sort(data, WORKERS, MergeBackend::PWay { ways: WORKERS }).0
    })?;
    let runs = presorted_runs(pairs);
    merge_drive(spans, out, "merge.kway", "merge.kway_ns_per_elem", &runs, |input| {
        parallel_kway_merge(input, WORKERS).0
    })?;
    if control {
        merge_drive(spans, out, "merge.kway_seq", "merge.kway_seq_ns_per_elem", &runs, |input| {
            kway_merge(input).0
        })?;
        merge_drive(spans, out, "merge.pairwise", "merge.pairwise_ns_per_elem", &runs, |input| {
            pairwise_merge_rounds(input, true).0
        })?;
    }
    Ok(())
}

fn loser_tree_drive(spans: &mut Spans, out: &mut Layers, pairs: &[Pair]) -> Result<(), String> {
    let runs = presorted_runs(pairs);
    merge_drive(spans, out, "merge.loser_tree", "merge.loser_tree_ns_per_elem", &runs, |input| {
        let mut merged = Vec::with_capacity(input.iter().map(Vec::len).sum());
        merged.extend(merge_iterators(input.into_iter().map(Vec::into_iter).collect()));
        merged
    })
}

/// File source, chunker and throttle alone, no map.
fn file_drives(batch: &Batch, spans: &mut Spans, out: &mut Layers) -> Result<(), String> {
    let open = || FileSource::open(batch.file()).map_err(io_err("opening the input file"));
    let expected = batch.input_bytes();

    let mut source = open()?;
    let (read, id, took) = drive(spans, "storage.source_read", || -> std::io::Result<u64> {
        let mut buf = vec![0u8; 1 << 20];
        let mut offset = 0u64;
        loop {
            match source.read_at(offset, &mut buf)? {
                0 => return Ok(offset),
                n => offset += n as u64,
            }
        }
    });
    let read = read.map_err(io_err("reading the input file"))?;
    spans.count(id, "bytes", read);
    out.set("storage.source_read_mb_s", mb_per_s(read, took));

    let drain = |mut chunker: Box<dyn Chunker>| -> std::io::Result<(u64, u64)> {
        let (mut bytes, mut chunks) = (0u64, 0u64);
        while let Some(chunk) = chunker.next_chunk()? {
            bytes += chunk.len() as u64;
            chunks += 1;
        }
        Ok((bytes, chunks))
    };
    let chunk_bytes = batch.scale.chunk_bytes;
    let chunker = Box::new(InterFileChunker::new(open()?, chunk_bytes, RecordFormat::Newline));
    let (drained, id, took) = drive(spans, "core.chunk", || drain(chunker));
    let (bytes, chunks) = drained.map_err(io_err("chunking the input file"))?;
    spans.count(id, "bytes", bytes);
    spans.count(id, "chunks", chunks);
    out.set("core.chunk_mb_s", mb_per_s(bytes, took));

    let throttled = batch.throttled_file().map_err(io_err("opening the input file"))?;
    let chunker = Box::new(InterFileChunker::new(throttled, chunk_bytes, RecordFormat::Newline));
    let (drained, id, took) = drive(spans, "storage.throttle", || drain(chunker));
    let (throttled_bytes, _) = drained.map_err(io_err("draining the throttled source"))?;
    spans.count(id, "bytes", throttled_bytes);
    out.set("runtime.ingest_only_s", secs(took));
    out.set(
        "storage.throttle_accuracy",
        throttled_bytes as f64 / secs(took) / batch.scale.throttle_rate,
    );

    if read != expected || bytes != expected || throttled_bytes != expected {
        return Err(format!(
            "file drives read {read}, {bytes} and {throttled_bytes} of {expected} bytes"
        ));
    }
    Ok(())
}

/// Run store, run framing and the streaming external merges, on sorted
/// encoded pairs: one run of `run_bytes`, then the same records dealt
/// into eight run files.
fn spill_drives(
    batch: &Batch,
    spans: &mut Spans,
    out: &mut Layers,
    mut pairs: Vec<Pair>,
) -> Result<(), String> {
    loser_tree_drive(spans, out, &pairs)?;

    let dir = batch.spill_dir().join("drive");
    let store = DiskRunStore::create(&dir).map_err(io_err("creating the drive run store"))?;
    pairs.sort_unstable();
    let encoded_len = 4 + TERA_KEY_LEN + TERA_RECORD_LEN + 8; // codec header + pair + frame header
    pairs.truncate((batch.scale.run_bytes / encoded_len).max(8));
    let records: Vec<Vec<u8>> = pairs
        .iter()
        .map(|(key, record)| {
            let mut buf = Vec::with_capacity(encoded_len);
            (TERA_PAIRS.encode)(key, record, &mut buf);
            buf
        })
        .collect();
    drop(pairs);

    // The store's raw byte path: one blob the size of a run.
    let blob = &batch.data()[..batch.scale.run_bytes.min(batch.data().len())];
    let (written, id, took) = drive(spans, "storage.runstore_write", || -> std::io::Result<()> {
        let mut sink = store.create("blob")?;
        sink.write_all(blob)?;
        sink.flush()
    });
    written.map_err(io_err("writing a blob to the run store"))?;
    spans.count(id, "bytes", blob.len() as u64);
    out.set("storage.runstore_write_mb_s", mb_per_s(blob.len() as u64, took));
    let (read, id, took) = drive(spans, "storage.runstore_read", || -> std::io::Result<usize> {
        let mut back = Vec::with_capacity(blob.len());
        store.open("blob")?.read_to_end(&mut back)
    });
    let read = read.map_err(io_err("reading a blob from the run store"))?;
    spans.count(id, "bytes", read as u64);
    out.set("storage.runstore_read_mb_s", mb_per_s(read as u64, took));
    if read != blob.len() {
        return Err(format!("run store returned {read} of {} bytes", blob.len()));
    }

    // Framing and CRC on top of the store.
    let (framed, id, took) = drive(spans, "spill.run_write", || -> std::io::Result<u64> {
        let mut writer = RunWriter::from_writer(store.create("run")?);
        for record in &records {
            writer.push(record)?;
        }
        let bytes = writer.bytes();
        writer.finish()?;
        Ok(bytes)
    });
    let framed = framed.map_err(io_err("writing a framed run"))?;
    spans.count(id, "bytes", framed);
    spans.count(id, "records", records.len() as u64);
    out.set("spill.run_write_mb_s", mb_per_s(framed, took));
    let (back, id, took) = drive(spans, "spill.run_read", || -> Result<usize, String> {
        let mut reader =
            RunReader::from_reader(store.open("run").map_err(io_err("opening a framed run"))?);
        let count = reader.by_ref().count();
        match reader.take_error() {
            None => Ok(count),
            Some(e) => Err(format!("reading a framed run: {}", std::io::Error::from(e))),
        }
    });
    let back = back?;
    spans.count(id, "bytes", framed);
    spans.count(id, "records", back as u64);
    out.set("spill.run_read_mb_s", mb_per_s(framed, took));
    if back != records.len() {
        return Err(format!("framed run returned {back} of {} records", records.len()));
    }

    // Eight run files, each sorted: record i goes to file i mod 8.
    let mut paths: Vec<PathBuf> = Vec::new();
    for lane in 0..8 {
        let mut writer = RunWriter::create(dir.join(format!("merge-{lane}")))
            .map_err(io_err("creating a merge run file"))?;
        for record in records.iter().skip(lane).step_by(8) {
            writer.push(record).map_err(io_err("writing a merge run file"))?;
        }
        paths.push(writer.finish().map_err(io_err("closing a merge run file"))?.0);
    }
    let (merged, id, took) = drive(spans, "spill.external_merge", || {
        merge_run_files(&paths).map(|merged| {
            let mut previous: Vec<u8> = Vec::new();
            let (mut count, mut sorted) = (0usize, true);
            for record in merged {
                sorted &= previous <= record;
                previous = record;
                count += 1;
            }
            (count, sorted)
        })
    });
    let (count, sorted) = merged.map_err(io_err("opening merge run files"))?;
    spans.count(id, "bytes", framed);
    spans.count(id, "records", count as u64);
    out.set("spill.external_merge_mb_s", mb_per_s(framed, took));
    if count != records.len() || !sorted {
        return Err(format!("external merge returned {count} records, sorted: {sorted}"));
    }

    // The word-count reduce shape: keyed accumulators folded by sum.
    let sources = paths
        .iter()
        .map(|p| RunReader::open(p).map(|reader| reader.map(|record| (record, 1u64))))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io_err("opening merge run files"))?;
    let ((keys, total), id, took) = drive(spans, "spill.merge_fold", || {
        merge_fold(sources, |acc: &mut u64, more| *acc += more)
            .fold((0usize, 0u64), |(keys, total), (_, acc)| (keys + 1, total + acc))
    });
    spans.count(id, "bytes", framed);
    spans.count(id, "records", total);
    out.set("spill.merge_fold_mb_s", mb_per_s(framed, took));
    if keys != records.len() || total != records.len() as u64 {
        return Err(format!("folding merge returned {keys} keys, {total} records"));
    }
    Ok(())
}
