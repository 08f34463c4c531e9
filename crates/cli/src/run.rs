//! Execution layer of the `supmr` CLI: build inputs, configure the
//! runtime, run the selected application, and render a report.

use crate::args::{AppKind, CliArgs};
use crate::reporter::SnapshotReporter;
use std::io;
use std::sync::Arc;
use supmr::runtime::{GovernorConfig, Input, Job, JobConfig, JobReport, JobResult, MergeMode};
use supmr::{Chunking, Registry, Result};
use supmr_apps::{
    kmeans::run_kmeans, linreg, terasort_pipeline, Grep, Histogram, LinearRegression, TeraSort,
    WordCount,
};
use supmr_storage::{
    DirFileSet, DiskRunStore, FileSource, IngestMeter, MemFileSet, MemSource, ObservedSource,
    RecordFormat, RunStore, ThrottledSource, TokenBucket,
};
use supmr_workloads::{
    clustered_points, small_files_corpus, PointsConfig, TeraGen, TextGen, TextGenConfig,
};

/// What a CLI run produced, separated from printing for testability.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The job's full report (timings, counters, stalls, traces).
    pub report: JobReport,
    /// Rendered result lines (already truncated to `--top`).
    pub lines: Vec<String>,
}

impl RunSummary {
    fn from_result<K, O>(r: &JobResult<K, O>, lines: Vec<String>) -> RunSummary {
        RunSummary { report: r.report.clone(), lines }
    }

    /// Number of output pairs.
    pub fn output_pairs(&self) -> u64 {
        self.report.stats.output_pairs
    }

    /// Ingest chunks processed.
    pub fn chunks(&self) -> u32 {
        self.report.stats.ingest_chunks
    }
}

fn job_config(
    args: &CliArgs,
    metrics: Option<&Registry>,
    storage: &Storage,
) -> io::Result<JobConfig> {
    let mut config = JobConfig {
        split_bytes: args.split_bytes,
        record_format: args.app.record_format(),
        chunking: args.chunking,
        merge: args.merge.unwrap_or(args.app.default_merge()),
        prefetch_depth: args.prefetch,
        pool: args.pool,
        trace: args.trace,
        metrics: metrics.cloned(),
        metrics_addr: args.metrics_addr.clone(),
        hash_seed: args.hash_seed,
        ..JobConfig::default()
    };
    if let Some(w) = args.workers {
        config.map_workers = w;
        config.reduce_workers = w;
    }
    if args.adaptive {
        let mut governor = GovernorConfig::default();
        if let Some(interval) = args.governor_interval {
            governor.interval = interval;
        }
        config.governor = Some(governor);
    }
    configure_spill(args, storage, &mut config)?;
    Ok(config)
}

impl AppKind {
    /// How the app's input records are delimited.
    fn record_format(self) -> RecordFormat {
        match self {
            AppKind::TeraSort => TeraSort::record_format(),
            AppKind::Histogram => Histogram::record_format(),
            _ => RecordFormat::Newline,
        }
    }

    /// The merge a run takes when `--merge` names none. Sorting is
    /// TeraSort's point, so it defaults to a p-way merge; an explicit
    /// `--merge unsorted` is honoured.
    fn default_merge(self) -> MergeMode {
        match self {
            AppKind::TeraSort => MergeMode::PWay { ways: 4 },
            _ => MergeMode::Unsorted,
        }
    }
}

/// Apply `--memory-budget`/`--spill-dir`. Spill runs go through the
/// run's storage device like ingest does, so the CLI builds the run
/// store rather than leaving it to the runtime.
fn configure_spill(args: &CliArgs, storage: &Storage, config: &mut JobConfig) -> io::Result<()> {
    let Some(budget) = args.memory_budget else { return Ok(()) };
    config.memory_budget = Some(budget);
    let disk = match &args.spill_dir {
        Some(dir) => DiskRunStore::create(dir)?,
        None => DiskRunStore::temp()?,
    };
    let mut store: Arc<dyn RunStore> = Arc::new(disk);
    if let Some(bucket) = &storage.bucket {
        store = Arc::new(ThrottledSource::with_bucket(store, bucket.clone()));
    }
    if let Some(meter) = &storage.meter {
        store = Arc::new(ObservedSource::new(store, meter.clone()));
    }
    config.spill_store = Some(store);
    Ok(())
}

/// Generate an app-appropriate synthetic input of ~`bytes`.
fn generated_bytes(app: AppKind, seed: u64, bytes: u64, k: usize) -> Vec<u8> {
    match app {
        AppKind::TeraSort => TeraGen::with_total_bytes(seed, bytes).generate_all(),
        AppKind::Histogram => {
            // Deterministic pseudo-pixels.
            (0..bytes).map(|i| (i.wrapping_mul(2654435761) % 256) as u8).collect()
        }
        AppKind::LinReg => {
            // y = 2x + 1 with a deterministic wiggle.
            let mut out = Vec::new();
            let mut i = 0u64;
            while (out.len() as u64) < bytes {
                let x = i as f64 / 100.0;
                let wiggle = ((i * 37) % 11) as f64 / 1000.0;
                out.extend_from_slice(format!("{x} {}\n", 2.0 * x + 1.0 + wiggle).as_bytes());
                i += 1;
            }
            out
        }
        AppKind::KMeans => {
            let clusters = k.max(1);
            let per = ((bytes / 24).max(4) as usize / clusters).max(1);
            clustered_points(
                seed,
                &PointsConfig { clusters, points_per_cluster: per, ..Default::default() },
            )
        }
        AppKind::WordCount | AppKind::Grep => {
            TextGen::new(TextGenConfig::default()).generate_bytes(seed, bytes as usize)
        }
    }
}

/// The run's one storage device: under `--throttle`, one token bucket
/// that ingest and spill I/O both draw from, as they share a disk; with
/// `--metrics-*`, the meter that counts them.
#[derive(Clone)]
struct Storage {
    bucket: Option<TokenBucket>,
    meter: Option<IngestMeter>,
}

impl Storage {
    /// Put `input` behind the device: paced, then metered.
    fn input(&self, input: Input) -> Input {
        match input {
            Input::Stream(mut src) => {
                if let Some(bucket) = &self.bucket {
                    src = Box::new(ThrottledSource::with_bucket(src, bucket.clone()));
                }
                if let Some(meter) = &self.meter {
                    src = Box::new(ObservedSource::new(src, meter.clone()));
                }
                Input::Stream(src)
            }
            Input::Files(mut set) => {
                if let Some(bucket) = &self.bucket {
                    set = Box::new(ThrottledSource::with_bucket(set, bucket.clone()));
                }
                if let Some(meter) = &self.meter {
                    set = Box::new(ObservedSource::new(set, meter.clone()));
                }
                Input::Files(set)
            }
        }
    }
}

/// Build the job input from the CLI arguments, behind the run's device.
fn build_input(args: &CliArgs, storage: &Storage) -> io::Result<Input> {
    if let Some(path) = &args.input {
        let input = if path.is_dir() {
            Input::files(DirFileSet::open(path)?)
        } else {
            Input::stream(FileSource::open(path)?)
        };
        return Ok(storage.input(input));
    }
    let bytes = args.generate.expect("validated: generate or input");
    // Intra/hybrid chunking needs a file set; synthesize one.
    let wants_files = matches!(args.chunking, Chunking::Intra { .. } | Chunking::Hybrid { .. });
    let input = if wants_files {
        let files = (bytes / (256 * 1024)).clamp(4, 64) as usize;
        let per = (bytes as usize / files).max(1024);
        Input::files(MemFileSet::new(small_files_corpus(args.seed, files, per)))
    } else {
        Input::stream(MemSource::from(generated_bytes(args.app, args.seed, bytes, args.k)))
    };
    Ok(storage.input(input))
}

/// Run the job described by `args` and return a printable summary.
///
/// When `--metrics-addr` or `--metrics-interval` is given, a live
/// [`Registry`] is attached to the job (and to the storage layer via an
/// [`IngestMeter`]); the interval flag additionally streams ASCII
/// snapshots to stderr while the job runs.
///
/// # Errors
/// Returns the runtime's typed [`supmr::SupmrError`]: missing inputs
/// and ingest failures as `Ingest`, bad flag combinations as
/// `InvalidConfig`, and map/reduce panics as `TaskPanic`.
pub fn execute(args: &CliArgs) -> Result<RunSummary> {
    let registry =
        (args.metrics_addr.is_some() || args.metrics_interval.is_some()).then(Registry::new);
    let reporter = match (&registry, args.metrics_interval) {
        (Some(r), Some(interval)) => Some(SnapshotReporter::to_stderr(r.clone(), interval)),
        _ => None,
    };
    let result = execute_app(args, registry.as_ref());
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    result
}

fn execute_app(args: &CliArgs, registry: Option<&Registry>) -> Result<RunSummary> {
    let top = args.top;
    let storage = Storage {
        bucket: args.throttle.map(TokenBucket::new),
        meter: registry.map(IngestMeter::with_registry),
    };
    let config = job_config(args, registry, &storage)?;
    match args.app {
        AppKind::WordCount => {
            let r = Job::new(WordCount::new()).config(config).run(build_input(args, &storage)?)?;
            let mut pairs = r.pairs.clone();
            pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let lines = pairs.iter().take(top).map(|(w, c)| format!("{c:>10}  {w}")).collect();
            Ok(RunSummary::from_result(&r, lines))
        }
        AppKind::TeraSort => {
            let input = build_input(args, &storage)?;
            let (pairs, report) = if args.pipeline {
                // Two-stage partition→sort pipeline: same output, but
                // the report (and any scraped metrics) break down by
                // stage.
                let r = terasort_pipeline(input, config)?;
                (r.pairs, r.report)
            } else {
                let r = Job::new(TeraSort::new()).config(config).run(input)?;
                (r.pairs, r.report)
            };
            let sorted = pairs.windows(2).all(|w| w[0].0 <= w[1].0);
            let mut lines: Vec<String> = pairs
                .iter()
                .take(top)
                .map(|(k, _)| format!("{}", String::from_utf8_lossy(k)))
                .collect();
            lines.push(format!("(output sorted: {sorted})"));
            Ok(RunSummary { report, lines })
        }
        AppKind::Grep => {
            let patterns: Vec<Vec<u8>> =
                args.patterns.iter().map(|p| p.clone().into_bytes()).collect();
            let r =
                Job::new(Grep::new(patterns)).config(config).run(build_input(args, &storage)?)?;
            let mut pairs = r.pairs.clone();
            pairs.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            let lines = pairs.iter().take(top).map(|(p, c)| format!("{c:>10}  {p}")).collect();
            Ok(RunSummary::from_result(&r, lines))
        }
        AppKind::Histogram => {
            let r = Job::new(Histogram::new()).config(config).run(build_input(args, &storage)?)?;
            let mut pairs = r.pairs.clone();
            pairs.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            let lines = pairs
                .iter()
                .take(top)
                .map(|(bucket, c)| {
                    let channel = ["R", "G", "B"][bucket / 256];
                    format!("{c:>10}  {channel}[{}]", bucket % 256)
                })
                .collect();
            Ok(RunSummary::from_result(&r, lines))
        }
        AppKind::LinReg => {
            let r = Job::new(LinearRegression::new())
                .config(config)
                .run(build_input(args, &storage)?)?;
            let lines = match linreg::fit(&r.pairs) {
                Some(f) => {
                    vec![format!("y = {:.6}x + {:.6}   (n = {})", f.slope, f.intercept, f.n)]
                }
                None => vec!["(degenerate input: no fit)".to_string()],
            };
            Ok(RunSummary::from_result(&r, lines))
        }
        AppKind::KMeans => {
            // kmeans re-ingests per iteration: rebuild the input each time.
            let args2 = args.clone();
            let storage2 = storage.clone();
            let init: Vec<(f64, f64)> =
                (0..args.k).map(|i| (i as f64 * 3.1 + 0.5, i as f64 * -2.3)).collect();
            let result = run_kmeans(
                move || build_input(&args2, &storage2),
                init,
                &config,
                args.iters,
                1e-6,
            )?;
            let mut lines: Vec<String> = result
                .centroids
                .iter()
                .enumerate()
                .map(|(i, (x, y))| format!("centroid {i}: ({x:.4}, {y:.4})"))
                .collect();
            lines.push(format!(
                "{} iterations, converged: {}, {} points",
                result.iterations, result.converged, result.points
            ));
            // The iterative pipeline aggregates all passes into one
            // report, with a per-iteration stage breakdown.
            Ok(RunSummary { report: result.report, lines })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use supmr::SupmrError;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run(cmdline: &str) -> RunSummary {
        execute(&parse_args(&argv(cmdline)).unwrap()).unwrap()
    }

    #[test]
    fn wordcount_generate_and_top() {
        let s = run("wordcount --generate 64K --chunking inter:16K --top 3 --workers 2");
        assert_eq!(s.lines.len(), 3);
        assert!(s.output_pairs() > 3);
        assert!(s.chunks() >= 3);
    }

    #[test]
    fn terasort_reports_sorted_output() {
        let s = run("terasort --generate 32K --chunking inter:8K --merge pway:2 --workers 2");
        assert!(s.lines.last().unwrap().contains("sorted: true"));
        assert_eq!(s.output_pairs(), 32 * 1024 / 100);
    }

    #[test]
    fn pipeline_terasort_matches_the_single_job() {
        let single = run("terasort --generate 32K --chunking inter:8K --merge pway:2 --workers 2");
        let piped = run("terasort --generate 32K --chunking inter:8K --merge pway:2 --workers 2 \
             --pipeline");
        assert_eq!(piped.lines, single.lines, "pipeline output must match the single job");
        assert_eq!(piped.output_pairs(), single.output_pairs());
        assert_eq!(piped.report.stages.len(), 2, "partition and sort stages reported");
        let handoff = piped.report.stages[0].handoff.expect("partition stage hands off");
        assert_eq!(handoff.materialized_pairs, 0, "the hand-off moves");
    }

    #[test]
    fn pipeline_terasort_scrapes_stage_labelled_metrics() {
        let s = run("terasort --generate 32K --merge pway:2 --workers 2 --pipeline \
             --metrics-addr 127.0.0.1:0");
        assert!(s.lines.last().unwrap().contains("sorted: true"));
        let snap = s.report.metrics.as_ref().expect("metrics attached");
        for stage in ["partition", "sort"] {
            assert!(
                snap.entries.iter().any(|e| {
                    e.name == "supmr.stage.runs"
                        && e.labels.iter().any(|(k, v)| k == "stage" && v == stage)
                }),
                "supmr.stage.runs{{stage={stage}}} registered"
            );
        }
        assert!(snap.entries.iter().any(|e| e.name == "supmr.stage.handoff_bytes"));
    }

    #[test]
    fn grep_counts_generated_text() {
        // The generator's rank-0 word is "ca" (vocabulary order).
        let s = run("grep --generate 32K --pattern ca --pattern zzzzzz --workers 2");
        assert!(!s.lines.is_empty());
        assert!(s.lines[0].contains("ca"));
    }

    #[test]
    fn histogram_over_generated_pixels() {
        let s = run("histogram --generate 30K --workers 2 --top 4");
        assert_eq!(s.lines.len(), 4);
        assert!(s.output_pairs() > 100);
    }

    #[test]
    fn linreg_recovers_generated_line() {
        let s = run("linreg --generate 64K --workers 2");
        assert!(s.lines[0].starts_with("y = 2.0"), "{}", s.lines[0]);
    }

    #[test]
    fn kmeans_converges_on_generated_blobs() {
        let s = run("kmeans --generate 64K --k 4 --iters 30 --workers 2");
        let last = s.lines.last().unwrap();
        assert!(last.contains("converged: true"), "{last}");
        assert_eq!(s.lines.len(), 5, "4 centroid lines + the summary line");
        // The final pass emits one pair per non-empty cluster; seeds
        // that capture no points keep their centroid but emit nothing.
        let pairs = s.output_pairs();
        assert!((1..=4).contains(&pairs), "final pass emitted {pairs} cluster pairs");
        assert!(!s.report.stages.is_empty(), "the iterative pipeline reports its passes");
        assert!(s.report.stats.map_tasks > 0, "aggregated counters are real, not a stub");
    }

    #[test]
    fn persistent_pool_via_cli_matches_wave() {
        let wave = run("wordcount --generate 64K --chunking inter:16K --workers 2 --top 5");
        let pooled = run("wordcount --generate 64K --chunking inter:16K --workers 2 --top 5 \
             --pool persistent");
        assert_eq!(pooled.lines, wave.lines);
        assert_eq!(pooled.output_pairs(), wave.output_pairs());
        assert_eq!(pooled.chunks(), wave.chunks());
    }

    #[test]
    fn intra_chunking_synthesizes_a_file_set() {
        let s = run("wordcount --generate 512K --chunking intra:2 --workers 2");
        assert!(s.chunks() >= 2);
    }

    #[test]
    fn hybrid_chunking_synthesizes_a_file_set() {
        let s = run("wordcount --generate 512K --chunking hybrid:64K --workers 2");
        assert!(s.chunks() >= 4);
    }

    #[test]
    fn zero_chunk_sizes_are_invalid_config() {
        for spec in ["inter:0", "hybrid:0", "intra:0"] {
            let args =
                parse_args(&argv(&format!("wordcount --generate 64K --chunking {spec}"))).unwrap();
            match execute(&args) {
                Err(err) => {
                    assert!(matches!(err, SupmrError::InvalidConfig { .. }), "{spec}: {err:?}")
                }
                Ok(s) => panic!("{spec} ran {} chunks instead of being rejected", s.chunks()),
            }
        }
    }

    #[test]
    fn zero_split_is_invalid_config() {
        let args = parse_args(&argv("wordcount --generate 64K --split 0")).unwrap();
        match execute(&args) {
            Err(err) => assert!(matches!(err, SupmrError::InvalidConfig { .. }), "{err:?}"),
            Ok(s) => panic!("--split 0 ran {} map tasks, not an error", s.report.stats.map_tasks),
        }
    }

    #[test]
    fn file_input_round_trip() {
        let dir = std::env::temp_dir().join("supmr-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.txt");
        std::fs::write(&path, b"apple banana apple\n").unwrap();
        let s = run(&format!("wordcount --input {} --workers 1", path.display()));
        assert_eq!(s.output_pairs(), 2);
        assert!(s.lines[0].contains("apple"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_input_round_trip() {
        let dir = std::env::temp_dir().join("supmr-cli-dir-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.txt"), b"x y\n").unwrap();
        std::fs::write(dir.join("b.txt"), b"x z\n").unwrap();
        let s = run(&format!("wordcount --input {} --chunking intra:1 --workers 1", dir.display()));
        assert_eq!(s.output_pairs(), 3);
        assert_eq!(s.chunks(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_input_is_an_error() {
        let args = parse_args(&argv("wordcount --input /nonexistent/supmr")).unwrap();
        assert!(execute(&args).is_err());
    }

    #[test]
    fn adaptive_run_matches_static_and_reports_the_governor() {
        let base = run("wordcount --generate 64K --chunking inter:16K --workers 2 --top 5 \
             --hash-seed 7");
        let adaptive = run("wordcount --generate 64K --chunking inter:16K --workers 2 --top 5 \
             --hash-seed 7 --adaptive --governor-interval 1ms");
        assert_eq!(adaptive.lines, base.lines, "the governor must not change the output");
        assert_eq!(adaptive.output_pairs(), base.output_pairs());
        let gov = adaptive.report.governor.as_ref().expect("governor report attached");
        assert_eq!(gov.interval_ms, 1);
        assert!(
            adaptive.report.to_json().render().contains("supmr.governor.v1"),
            "report JSON carries the governor block"
        );
    }

    #[test]
    fn budgeted_wordcount_spills_and_matches_unbounded() {
        let base = run("wordcount --generate 64K --chunking inter:16K --workers 2 --top 5 \
             --hash-seed 7");
        let budgeted = run("wordcount --generate 64K --chunking inter:16K --workers 2 --top 5 \
             --hash-seed 7 --memory-budget 2K");
        assert!(budgeted.report.stats.spill_runs > 0, "2K budget must spill");
        assert_eq!(budgeted.lines, base.lines, "spilling must not change the output");
        assert_eq!(budgeted.output_pairs(), base.output_pairs());
    }

    #[test]
    fn budgeted_terasort_still_sorts() {
        let s = run("terasort --generate 32K --merge pway:2 --workers 2 --memory-budget 4K");
        assert!(s.lines.last().unwrap().contains("sorted: true"));
        assert!(s.report.stats.spill_runs > 0, "4K budget must spill");
        assert_eq!(s.output_pairs(), 32 * 1024 / 100);
    }

    #[test]
    fn budgeted_run_with_throttle_and_metrics_observes_spill_io() {
        let dir = std::env::temp_dir().join("supmr-cli-spill-test");
        let _ = std::fs::remove_dir_all(&dir);
        let s = run(&format!(
            "wordcount --generate 64K --workers 2 --memory-budget 1K \
             --spill-dir {} --throttle 64M --metrics-addr 127.0.0.1:0",
            dir.display()
        ));
        assert!(s.report.stats.spill_runs > 0);
        let snap = s.report.metrics.as_ref().expect("metrics attached");
        let value = |name: &str| snap.entries.iter().find(|e| e.name == name).map(|e| &e.value);
        assert!(value("supmr.spill.runs").is_some(), "spill families registered");
        // The runs went through the observed store, so the storage
        // meter's write side counted their bytes.
        match value("supmr.storage.bytes_written") {
            Some(supmr_metrics::MetricValue::Counter(n)) => assert!(*n > 0, "spill writes metered"),
            other => panic!("expected a bytes_written counter, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metering_storage_does_not_change_the_diagnosis() {
        // The storage meter writes only `supmr.storage.*`: the flow
        // ledger, the spill counters and the accountant's residency are
        // the runtime's alone. Busy times and shares are clock readings.
        for cmdline in [
            "wordcount --generate 4M --workers 1 --memory-budget 256K --hash-seed 7",
            "terasort --generate 2M --workers 1 --merge pway:1 --memory-budget 256K --hash-seed 7",
        ] {
            let inputs = |metered: &str| {
                let s = run(&format!("{cmdline}{metered}"));
                let inputs = s.report.diag.expect("every run is diagnosed").inputs;
                let bytes = inputs.flows.flows.map(|f| (f.phase.label(), f.bytes));
                (bytes, inputs.spill_runs, inputs.spill_bytes, inputs.resident_bytes)
            };
            let plain = inputs("");
            assert!(plain.1 > 0, "{cmdline}: a 256K budget must spill");
            assert_eq!(inputs(" --metrics-addr 127.0.0.1:0"), plain, "{cmdline}");
        }
    }

    #[test]
    fn throttle_paces_ingest_and_spill_through_one_bucket() {
        // One device: what the read+map phase ingests and spills draws
        // on one 2 MiB/s bucket, so it moves at most rate × wall + one
        // burst. A lower bound on time: a slow machine only adds wall.
        let rate: f64 = 2.0 * 1024.0 * 1024.0;
        let burst = (rate / 10.0).max(64.0 * 1024.0); // TokenBucket::new's
        let s = run("wordcount --generate 2M --chunking inter:512K --workers 2 --throttle 2M \
             --memory-budget 32K");
        let stats = &s.report.stats;
        assert!(stats.spill_runs > 0, "a 32K budget must spill");
        let moved = (stats.bytes_ingested + stats.spill_bytes) as f64;
        let floor = (moved - burst) / rate;
        let wall = s.report.timings.ingest_map_span().as_secs_f64();
        assert!(
            wall >= floor,
            "read+map moved {moved} B in {wall:.3} s: {:.2} MiB/s past a 2 MiB/s device",
            moved / wall / (1024.0 * 1024.0)
        );
    }

    #[test]
    fn metrics_run_scrapes_and_reports() {
        // Port 0: the OS picks a free port; the run still exercises the
        // full wiring (registry -> runtimes, pool, storage meter).
        let s = run("wordcount --generate 64K --chunking inter:16K --workers 2 \
             --pool persistent --metrics-addr 127.0.0.1:0");
        let snap = s.report.metrics.as_ref().expect("metrics attached");
        let has = |name: &str| snap.entries.iter().any(|e| e.name == name);
        assert!(has("supmr.map.task_us"), "map histogram registered");
        assert!(has("supmr.ingest.bytes"), "ingest counter registered");
        assert!(has("supmr.pool.dispatch_us"), "pool histogram registered");
        assert!(has("supmr.storage.bytes_read"), "storage meter fed the registry");
        assert!(has("supmr.jobs_completed"), "job completion counted");
        // The JSON report carries the metrics section.
        assert!(s.report.to_json().render().contains("\"metrics\""));
    }

    #[test]
    fn unmetered_run_attaches_no_metrics() {
        let s = run("wordcount --generate 32K --workers 1");
        assert!(s.report.metrics.is_none());
    }

    #[test]
    fn traced_run_attaches_a_valid_trace() {
        let s = run("wordcount --generate 128K --chunking inter:32K --workers 2 --trace wave");
        let trace = s.report.trace.as_ref().expect("trace requested");
        assert!(trace.event_count() > 0);
        trace.validate().expect("spans nest cleanly");
        assert!(!trace.rounds().is_empty(), "pipelined run must reconstruct rounds");
    }

    #[test]
    fn untraced_run_attaches_no_trace() {
        let s = run("wordcount --generate 32K --workers 1");
        assert!(s.report.trace.is_none());
    }
}
