//! Argument parsing for the `supmr` CLI.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;
use supmr::runtime::MergeMode;
use supmr::{Chunking, PoolMode};
use supmr_metrics::TraceLevel;

/// Which bundled application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Count words.
    WordCount,
    /// Sort gensort-style records.
    TeraSort,
    /// Count fixed-pattern occurrences.
    Grep,
    /// RGB histogram.
    Histogram,
    /// Least-squares linear regression.
    LinReg,
    /// KMeans clustering.
    KMeans,
}

impl AppKind {
    fn parse(s: &str) -> Result<AppKind, CliError> {
        Ok(match s {
            "wordcount" | "wc" => AppKind::WordCount,
            "terasort" | "sort" => AppKind::TeraSort,
            "grep" => AppKind::Grep,
            "histogram" => AppKind::Histogram,
            "linreg" => AppKind::LinReg,
            "kmeans" => AppKind::KMeans,
            other => return Err(CliError(format!("unknown app '{other}'"))),
        })
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Application to run.
    pub app: AppKind,
    /// Input path (file or directory), mutually exclusive with
    /// `generate`.
    pub input: Option<PathBuf>,
    /// Synthesize this many input bytes.
    pub generate: Option<u64>,
    /// Chunking strategy.
    pub chunking: Chunking,
    /// Merge mode; `None` means "not specified" so each app can apply
    /// its own default (terasort defaults to a p-way merge).
    pub merge: Option<MergeMode>,
    /// Worker threads (None = auto).
    pub workers: Option<usize>,
    /// Upper bound on the split size, bytes.
    pub split_bytes: usize,
    /// Prefetch depth.
    pub prefetch: usize,
    /// Worker provisioning mode.
    pub pool: PoolMode,
    /// Storage bandwidth cap, bytes/sec.
    pub throttle: Option<f64>,
    /// Intermediate-set memory budget, bytes; past it the job spills
    /// sorted runs to disk and reduces via an external merge.
    pub memory_budget: Option<u64>,
    /// Where spill runs go (`None` = a per-job temp directory).
    pub spill_dir: Option<PathBuf>,
    /// How many results to print.
    pub top: usize,
    /// Generator seed.
    pub seed: u64,
    /// Container hash seed: fixes key→partition placement across runs
    /// (`None` keeps the default random seed).
    pub hash_seed: Option<u64>,
    /// Grep patterns.
    pub patterns: Vec<String>,
    /// Run terasort as the two-stage partition→sort [`Pipeline`]
    /// instead of a single job (same output, stage-labelled metrics).
    ///
    /// [`Pipeline`]: supmr::Pipeline
    pub pipeline: bool,
    /// KMeans cluster count.
    pub k: usize,
    /// KMeans iteration cap.
    pub iters: usize,
    /// Event-trace detail level.
    pub trace: TraceLevel,
    /// Where to write the recorded trace (`.json` Chrome trace,
    /// `.jsonl` line-delimited events, `.txt` ASCII timeline).
    pub trace_out: Option<PathBuf>,
    /// Serve a live `/metrics` OpenMetrics scrape endpoint here (e.g.
    /// `127.0.0.1:9400`) while the job runs.
    pub metrics_addr: Option<String>,
    /// Print an ASCII metrics snapshot to stderr at this interval.
    pub metrics_interval: Option<Duration>,
    /// Print the bottleneck diagnosis panel (verdict, blocked-time
    /// shares, per-phase bandwidth) after the job completes.
    pub diagnose: bool,
    /// Run the feedback governor: sample the live metrics, classify the
    /// bottleneck, and retune scheduling knobs mid-job.
    pub adaptive: bool,
    /// Governor sampling interval (`None` = the runtime default).
    pub governor_interval: Option<Duration>,
    /// Write the full job report JSON here after the run.
    pub report_out: Option<PathBuf>,
}

/// A user-facing argument error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parse a size with optional K/M/G/T suffix ("64M" → 67108864).
/// The hardened parser itself lives in [`supmr::parse`] so the serve
/// API's JSON job specs share it; this wrapper only maps the error
/// into the CLI's error type.
pub fn parse_size(s: &str) -> Result<u64, CliError> {
    supmr::parse::parse_size(s).map_err(|e| CliError(e.0))
}

/// Parse a duration: bare numbers are seconds, `ms`/`s` suffixes are
/// explicit ("500ms", "2s", "1.5"). Delegates to [`supmr::parse`].
pub fn parse_duration(s: &str) -> Result<Duration, CliError> {
    supmr::parse::parse_duration(s).map_err(|e| CliError(e.0))
}

fn parse_chunking(s: &str) -> Result<Chunking, CliError> {
    if s == "none" {
        return Ok(Chunking::None);
    }
    let Some((kind, value)) = s.split_once(':') else {
        return Err(CliError(format!(
            "unknown chunking '{s}' (none | inter:SIZE | intra:N | hybrid:SIZE)"
        )));
    };
    match kind {
        "inter" => Ok(Chunking::Inter { chunk_bytes: parse_size(value)? }),
        "intra" => value
            .parse()
            .map(|files_per_chunk| Chunking::Intra { files_per_chunk })
            .map_err(|_| CliError(format!("invalid file count '{value}'"))),
        "hybrid" => Ok(Chunking::Hybrid { chunk_bytes: parse_size(value)? }),
        other => Err(CliError(format!("unknown chunking '{other}'"))),
    }
}

fn parse_pool(s: &str) -> Result<PoolMode, CliError> {
    match s {
        "wave" | "wave-per-round" => Ok(PoolMode::WavePerRound),
        "persistent" | "pooled" => Ok(PoolMode::Persistent),
        other => Err(CliError(format!("unknown pool mode '{other}' (wave|persistent)"))),
    }
}

fn parse_merge(s: &str) -> Result<MergeMode, CliError> {
    match s {
        "unsorted" => Ok(MergeMode::Unsorted),
        "pairwise" => Ok(MergeMode::PairwiseRounds),
        "pway" => Ok(MergeMode::PWay { ways: 4 }),
        _ => match s.split_once(':') {
            Some(("pway", ways)) => ways
                .parse()
                .map(|ways| MergeMode::PWay { ways })
                .map_err(|_| CliError(format!("invalid way count '{ways}'"))),
            _ => Err(CliError(format!("unknown merge mode '{s}'"))),
        },
    }
}

/// Parse a full argument list (without the program name).
pub fn parse_args(argv: &[String]) -> Result<CliArgs, CliError> {
    let mut it = argv.iter();
    let app = AppKind::parse(it.next().ok_or_else(|| CliError("missing app name".into()))?)?;
    let mut args = CliArgs {
        app,
        input: None,
        generate: None,
        chunking: Chunking::None,
        merge: None,
        workers: None,
        split_bytes: 1024 * 1024,
        prefetch: 1,
        pool: PoolMode::WavePerRound,
        throttle: None,
        memory_budget: None,
        spill_dir: None,
        top: 10,
        seed: 42,
        hash_seed: None,
        patterns: Vec::new(),
        pipeline: false,
        k: 4,
        iters: 20,
        trace: TraceLevel::Off,
        trace_out: None,
        metrics_addr: None,
        metrics_interval: None,
        diagnose: false,
        adaptive: false,
        governor_interval: None,
        report_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| CliError(format!("flag {flag} needs a value")));
        match flag.as_str() {
            "--input" => args.input = Some(PathBuf::from(value()?)),
            "--generate" => args.generate = Some(parse_size(&value()?)?),
            "--chunking" => args.chunking = parse_chunking(&value()?)?,
            "--merge" => args.merge = Some(parse_merge(&value()?)?),
            "--workers" => {
                args.workers =
                    Some(value()?.parse().map_err(|_| CliError("invalid worker count".into()))?)
            }
            "--split" => args.split_bytes = parse_size(&value()?)? as usize,
            "--prefetch" => {
                args.prefetch =
                    value()?.parse().map_err(|_| CliError("invalid prefetch depth".into()))?
            }
            "--pool" => args.pool = parse_pool(&value()?)?,
            "--throttle" => {
                let rate = parse_size(&value()?)?;
                if rate == 0 {
                    return Err(CliError("--throttle must be positive".into()));
                }
                args.throttle = Some(rate as f64);
            }
            "--memory-budget" => {
                let budget = parse_size(&value()?)?;
                if budget == 0 {
                    return Err(CliError("--memory-budget must be positive".into()));
                }
                args.memory_budget = Some(budget);
            }
            "--spill-dir" => args.spill_dir = Some(PathBuf::from(value()?)),
            "--top" => {
                args.top = value()?.parse().map_err(|_| CliError("invalid top count".into()))?
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| CliError("invalid seed".into()))?
            }
            "--hash-seed" => {
                args.hash_seed =
                    Some(value()?.parse().map_err(|_| CliError("invalid hash seed".into()))?)
            }
            "--pattern" => args.patterns.push(value()?),
            "--pipeline" => args.pipeline = true,
            "--trace" => {
                let v = value()?;
                args.trace = v
                    .parse()
                    .map_err(|_| CliError(format!("unknown trace level '{v}' (off|wave|task)")))?;
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--metrics-addr" => args.metrics_addr = Some(value()?),
            "--metrics-interval" => {
                let d = parse_duration(&value()?)?;
                if d.is_zero() {
                    return Err(CliError("--metrics-interval must be positive".into()));
                }
                args.metrics_interval = Some(d);
            }
            "--diagnose" => args.diagnose = true,
            "--adaptive" => args.adaptive = true,
            "--governor-interval" => {
                let d = parse_duration(&value()?)?;
                if d.is_zero() {
                    return Err(CliError("--governor-interval must be positive".into()));
                }
                args.governor_interval = Some(d);
            }
            "--report-out" => args.report_out = Some(PathBuf::from(value()?)),
            "--k" => args.k = value()?.parse().map_err(|_| CliError("invalid k".into()))?,
            "--iters" => {
                args.iters = value()?.parse().map_err(|_| CliError("invalid iters".into()))?
            }
            other => return Err(CliError(format!("unknown flag '{other}'"))),
        }
    }
    if args.input.is_some() && args.generate.is_some() {
        return Err(CliError("--input and --generate are mutually exclusive".into()));
    }
    if args.input.is_none() && args.generate.is_none() {
        return Err(CliError("need --input PATH or --generate SIZE".into()));
    }
    if args.app == AppKind::Grep && args.patterns.is_empty() {
        return Err(CliError("grep needs at least one --pattern".into()));
    }
    if args.pipeline && args.app != AppKind::TeraSort {
        return Err(CliError(
            "--pipeline applies to terasort only (kmeans always runs as an iterative pipeline)"
                .into(),
        ));
    }
    // `--trace-out report.json` alone is a natural ask; record at wave
    // level rather than erroring (or silently writing an empty trace).
    if args.trace_out.is_some() && !args.trace.enabled() {
        args.trace = TraceLevel::Wave;
    }
    // Same spirit: a governor interval only makes sense adaptively.
    if args.governor_interval.is_some() {
        args.adaptive = true;
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("123").unwrap(), 123);
        assert_eq!(parse_size("64K").unwrap(), 64 * 1024);
        assert_eq!(parse_size("64M").unwrap(), 64 * 1024 * 1024);
        assert_eq!(parse_size("2G").unwrap(), 2 * 1024 * 1024 * 1024);
        assert_eq!(parse_size("1T").unwrap(), 1024u64.pow(4));
        assert_eq!(parse_size("1.5M").unwrap(), 3 * 512 * 1024);
        assert_eq!(parse_size(" 8k ").unwrap(), 8 * 1024, "whitespace and lowercase suffixes");
        assert!(parse_size("abc").is_err());
        assert!(parse_size("-5M").is_err());
    }

    #[test]
    fn size_whole_numbers_parse_exactly() {
        // f64 cannot represent u64::MAX; the integer path must.
        assert_eq!(parse_size("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(parse_size("9007199254740993").unwrap(), 9007199254740993);
    }

    #[test]
    fn size_overflow_is_an_error_not_a_wrap() {
        assert!(parse_size("18446744073709551616").is_err(), "u64::MAX + 1");
        assert!(parse_size("99999999999G").is_err());
        assert!(parse_size("20000000000000000000.5").is_err());
        assert!(parse_size("1e300").is_err());
    }

    #[test]
    fn size_rejects_degenerate_inputs() {
        assert!(parse_size("").is_err());
        assert!(parse_size("K").is_err(), "suffix with no magnitude");
        assert!(parse_size(" M ").is_err());
        assert!(parse_size("nan").is_err());
        assert!(parse_size("inf").is_err());
        assert!(parse_size("infG").is_err());
    }

    #[test]
    fn minimal_invocation() {
        let a = parse_args(&argv("wordcount --generate 1M")).unwrap();
        assert_eq!(a.app, AppKind::WordCount);
        assert_eq!(a.generate, Some(1024 * 1024));
        assert_eq!(a.chunking, Chunking::None);
        assert_eq!(a.merge, None);
        assert_eq!(a.prefetch, 1);
        assert_eq!(a.pool, PoolMode::WavePerRound);
    }

    #[test]
    fn full_invocation() {
        let a = parse_args(&argv(
            "terasort --generate 8M --chunking inter:512K --merge pway:8 \
             --workers 4 --split 128K --prefetch 2 --throttle 24M --top 5 --seed 7 \
             --hash-seed 99",
        ))
        .unwrap();
        assert_eq!(a.app, AppKind::TeraSort);
        assert_eq!(a.chunking, Chunking::Inter { chunk_bytes: 512 * 1024 });
        assert_eq!(a.merge, Some(MergeMode::PWay { ways: 8 }));
        assert_eq!(a.workers, Some(4));
        assert_eq!(a.split_bytes, 128 * 1024);
        assert_eq!(a.prefetch, 2);
        assert_eq!(a.throttle, Some(24.0 * 1024.0 * 1024.0));
        assert_eq!(a.top, 5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.hash_seed, Some(99));
    }

    #[test]
    fn hash_seed_defaults_to_random() {
        let a = parse_args(&argv("wc --generate 1K")).unwrap();
        assert_eq!(a.hash_seed, None);
        assert!(parse_args(&argv("wc --generate 1K --hash-seed nope")).is_err());
    }

    #[test]
    fn chunking_specs() {
        let chunking = |spec: &str| parse_args(&argv(&format!("wc --generate 1K {spec}")));
        assert_eq!(chunking("--chunking none").unwrap().chunking, Chunking::None);
        assert_eq!(
            chunking("--chunking inter:64K").unwrap().chunking,
            Chunking::Inter { chunk_bytes: 64 * 1024 }
        );
        assert_eq!(
            chunking("--chunking intra:4").unwrap().chunking,
            Chunking::Intra { files_per_chunk: 4 }
        );
        assert_eq!(
            chunking("--chunking hybrid:2M").unwrap().chunking,
            Chunking::Hybrid { chunk_bytes: 2 * 1024 * 1024 }
        );
        assert!(chunking("--chunking bogus:1").is_err());
        assert!(chunking("--chunking inter").is_err());
        assert!(chunking("--chunking intra:many").is_err());
    }

    #[test]
    fn adaptive_chunking_is_an_error_that_names_it() {
        let err = parse_args(&argv("wc --generate 1K --chunking adaptive")).unwrap_err();
        assert!(err.0.contains("'adaptive'"), "{err}");
        assert!(err.0.contains("inter:SIZE"), "the error lists what is accepted: {err}");
    }

    #[test]
    fn zero_throttle_is_an_error_that_names_it() {
        let err = parse_args(&argv("wc --generate 1K --throttle 0")).unwrap_err();
        assert!(err.0.contains("--throttle"), "{err}");
        let args = parse_args(&argv("wc --generate 1K --throttle 1")).unwrap();
        assert_eq!(args.throttle, Some(1.0));
    }

    #[test]
    fn merge_specs() {
        let merge = |spec: &str| parse_args(&argv(&format!("wc --generate 1K --merge {spec}")));
        assert_eq!(merge("unsorted").unwrap().merge, Some(MergeMode::Unsorted));
        assert_eq!(merge("pairwise").unwrap().merge, Some(MergeMode::PairwiseRounds));
        assert_eq!(merge("pway").unwrap().merge, Some(MergeMode::PWay { ways: 4 }));
        assert_eq!(merge("pway:2").unwrap().merge, Some(MergeMode::PWay { ways: 2 }));
        assert!(merge("sideways").is_err());
        assert!(merge("pway:many").is_err());
        assert!(merge("pairwise:2").is_err());
    }

    #[test]
    fn pool_specs() {
        let pool = |spec: &str| parse_args(&argv(&format!("wc --generate 1K --pool {spec}")));
        assert_eq!(pool("persistent").unwrap().pool, PoolMode::Persistent);
        assert_eq!(pool("pooled").unwrap().pool, PoolMode::Persistent);
        assert_eq!(pool("wave").unwrap().pool, PoolMode::WavePerRound);
        assert_eq!(pool("wave-per-round").unwrap().pool, PoolMode::WavePerRound);
        assert!(pool("forever").is_err());
    }

    #[test]
    fn validation_errors() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("unknownapp --generate 1K")).is_err());
        assert!(parse_args(&argv("wc")).is_err(), "needs input or generate");
        assert!(parse_args(&argv("wc --input a --generate 1K")).is_err());
        assert!(parse_args(&argv("grep --generate 1K")).is_err(), "grep needs patterns");
        assert!(parse_args(&argv("wc --generate")).is_err(), "missing value");
        assert!(parse_args(&argv("wc --generate 1K --bogus 3")).is_err());
    }

    #[test]
    fn trace_flags() {
        let a = parse_args(&argv("wc --generate 1K")).unwrap();
        assert_eq!(a.trace, TraceLevel::Off);
        assert_eq!(a.trace_out, None);

        let a = parse_args(&argv("wc --generate 1K --trace task")).unwrap();
        assert_eq!(a.trace, TraceLevel::Task);

        let a = parse_args(&argv("wc --generate 1K --trace wave --trace-out t.json")).unwrap();
        assert_eq!(a.trace, TraceLevel::Wave);
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));

        // --trace-out alone implies wave-level tracing.
        let a = parse_args(&argv("wc --generate 1K --trace-out t.jsonl")).unwrap();
        assert_eq!(a.trace, TraceLevel::Wave);

        // --trace off --trace-out still gets upgraded (never write empty).
        let a = parse_args(&argv("wc --generate 1K --trace off --trace-out t.txt")).unwrap();
        assert_eq!(a.trace, TraceLevel::Wave);

        assert!(parse_args(&argv("wc --generate 1K --trace verbose")).is_err());
        assert!(parse_args(&argv("wc --generate 1K --trace")).is_err());
    }

    #[test]
    fn duration_suffixes() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("1.5").unwrap(), Duration::from_millis(1500));
        assert!(parse_duration("soon").is_err());
        assert!(parse_duration("-1s").is_err());
    }

    #[test]
    fn metrics_flags() {
        let a = parse_args(&argv("wc --generate 1K")).unwrap();
        assert_eq!(a.metrics_addr, None);
        assert_eq!(a.metrics_interval, None);

        let a = parse_args(&argv(
            "wc --generate 1K --metrics-addr 127.0.0.1:9400 --metrics-interval 250ms",
        ))
        .unwrap();
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:9400"));
        assert_eq!(a.metrics_interval, Some(Duration::from_millis(250)));

        assert!(parse_args(&argv("wc --generate 1K --metrics-interval 0")).is_err());
        assert!(parse_args(&argv("wc --generate 1K --metrics-addr")).is_err());
    }

    #[test]
    fn diagnose_flag() {
        assert!(!parse_args(&argv("wc --generate 1K")).unwrap().diagnose);
        assert!(parse_args(&argv("wc --generate 1K --diagnose")).unwrap().diagnose);
    }

    #[test]
    fn adaptive_flags() {
        let a = parse_args(&argv("wc --generate 1K")).unwrap();
        assert!(!a.adaptive);
        assert_eq!(a.governor_interval, None);

        let a = parse_args(&argv("wc --generate 1K --adaptive")).unwrap();
        assert!(a.adaptive);
        assert_eq!(a.governor_interval, None, "runtime default interval");

        let a = parse_args(&argv("wc --generate 1K --adaptive --governor-interval 20ms")).unwrap();
        assert_eq!(a.governor_interval, Some(Duration::from_millis(20)));

        // An interval alone implies --adaptive.
        let a = parse_args(&argv("wc --generate 1K --governor-interval 20ms")).unwrap();
        assert!(a.adaptive);

        assert!(parse_args(&argv("wc --generate 1K --governor-interval 0")).is_err());
        assert!(parse_args(&argv("wc --generate 1K --governor-interval soon")).is_err());
    }

    #[test]
    fn report_out_flag() {
        let a = parse_args(&argv("wc --generate 1K")).unwrap();
        assert_eq!(a.report_out, None);
        let a = parse_args(&argv("wc --generate 1K --report-out report.json")).unwrap();
        assert_eq!(a.report_out, Some(PathBuf::from("report.json")));
        assert!(parse_args(&argv("wc --generate 1K --report-out")).is_err());
    }

    #[test]
    fn spill_flags() {
        let a = parse_args(&argv("wc --generate 1K")).unwrap();
        assert_eq!(a.memory_budget, None);
        assert_eq!(a.spill_dir, None);

        let a = parse_args(&argv("wc --generate 1K --memory-budget 256M --spill-dir /tmp/spills"))
            .unwrap();
        assert_eq!(a.memory_budget, Some(256 * 1024 * 1024));
        assert_eq!(a.spill_dir, Some(PathBuf::from("/tmp/spills")));

        assert!(parse_args(&argv("wc --generate 1K --memory-budget 0")).is_err());
        assert!(parse_args(&argv("wc --generate 1K --memory-budget lots")).is_err());
        assert!(parse_args(&argv("wc --generate 1K --memory-budget")).is_err());
    }

    #[test]
    fn pipeline_flag_is_terasort_only() {
        let a = parse_args(&argv("terasort --generate 1K --pipeline")).unwrap();
        assert!(a.pipeline);
        assert!(!parse_args(&argv("terasort --generate 1K")).unwrap().pipeline);
        assert!(parse_args(&argv("wc --generate 1K --pipeline")).is_err());
    }

    #[test]
    fn grep_patterns_accumulate() {
        let a = parse_args(&argv("grep --generate 1K --pattern foo --pattern bar")).unwrap();
        assert_eq!(a.patterns, vec!["foo", "bar"]);
    }
}
