//! Command-line driver for SupMR.
//!
//! `supmr --help` prints the flags ([`USAGE`]): pick an app, an input
//! (`--input PATH` or `--generate SIZE`), and the runtime's chunking,
//! merge, worker, throttle, spill, tracing and metrics knobs; `supmr
//! serve` runs the job daemon instead.
//!
//! The parsing layer is a small hand-rolled option walker (no external
//! dependency) kept separate from execution so it is unit-testable.

pub mod args;
pub mod reporter;
pub mod run;

pub use args::{parse_args, AppKind, CliArgs, CliError};
pub use reporter::SnapshotReporter;
pub use run::{execute, RunSummary};

/// The `supmr` usage text, printed by `supmr --help` and after an
/// argument error.
pub const USAGE: &str = "\
usage: supmr <app> [--input PATH | --generate SIZE] [options]
       supmr serve [--listen ADDR] [serve options]

apps:
  wordcount          count words (text input)
  terasort           sort gensort-style CRLF records
  grep               count fixed-pattern occurrences (--pattern)
  histogram          RGB histogram over 3-byte pixels
  linreg             least-squares fit over `x y` lines
  kmeans             cluster `x y` points (--k, --iters)

serve options:
  --listen ADDR      bind address (default 127.0.0.1:8900)
  --workers N        shared worker pool size (default: cores)
  --max-concurrent N jobs running at once (default 2)
  --queue-depth N    bounded admission queue (default 16)
  --memory-budget SIZE
                     global budget partitioned across running jobs;
                     a tenant that outgrows its share spills to disk
  --job-workers N    per-job wave width default (default: pool size)
  endpoints: POST /jobs, GET /jobs[/{id}], DELETE /jobs/{id},
             GET /metrics, GET /debug/governor?job=ID, GET /healthz,
             POST /shutdown; SIGTERM drains gracefully

options:
  --input PATH       file (stream) or directory (file set)
  --generate SIZE    synthesize input (K/M/G suffixes)
  --chunking SPEC    none | inter:SIZE | intra:N | hybrid:SIZE
  --merge SPEC       unsorted | pairwise | pway[:N]
  --workers N        mapper/reducer threads
  --split SIZE       upper bound on the input split size (default 1M)
  --prefetch N       chunks read ahead, the one being read included (default 1)
  --pool MODE        wave (spawn/join per round, default) | persistent
  --throttle RATE    cap storage bandwidth (e.g. 24M = 24 MiB/s)
  --memory-budget SIZE
                     cap the intermediate set; past it the job spills
                     sorted runs to disk and reduces via external merge
  --spill-dir PATH   where spill runs go (default: per-job temp dir)
  --trace LEVEL      event tracing: off (default) | wave | task
  --trace-out PATH   write the trace: .json Chrome trace (chrome://tracing),
                     .jsonl line-delimited events, .txt ASCII timeline
                     (implies --trace wave if tracing is off)
  --metrics-addr A   serve live OpenMetrics at http://A/metrics while the
                     job runs (curl http://A/metrics)
  --metrics-interval D
                     print ASCII metrics snapshots to stderr every D
                     (500ms, 2s, ...)
  --diagnose         print the bottleneck diagnosis after the job: the
                     verdict (ingest-bound, map-bound, shuffle-bound,
                     memory-budget-bound, reduce/merge-bound), blocked-
                     time shares, and achieved MB/s per phase
  --adaptive         run the feedback governor: sample the live metrics,
                     classify the bottleneck, and retune wave widths,
                     prefetch depth, the absorb sweep mask, and spill
                     watermarks mid-job
  --governor-interval D
                     governor sampling period (default 50ms; implies
                     --adaptive)
  --report-out PATH  write the full job report JSON (timings, metrics,
                     diagnosis, governor decisions) to PATH
  --top N            results to print (default 10)
  --seed N           generator seed (default 42)
  --hash-seed N      fix the container hash seed for reproducible
                     key placement (default: random per run)
  --pattern P        grep pattern (repeatable)
  --pipeline         run terasort as a two-stage partition -> sort
                     pipeline (same output, stage-labelled metrics)
  --k N --iters N    kmeans parameters

examples:
  supmr wordcount --generate 64M --chunking inter:4M --throttle 24M
  supmr wordcount --generate 64M --chunking inter:4M --trace-out trace.json
  supmr wordcount --generate 64M --metrics-addr 127.0.0.1:9400
  supmr wordcount --generate 64M --throttle 24M --diagnose
  supmr wordcount --generate 64M --throttle 24M --adaptive --report-out report.json
  supmr terasort  --input /data/tera.dat --chunking inter:64M --merge pway:8
  supmr terasort  --generate 8G --memory-budget 2G --spill-dir /mnt/fast/spill
  supmr grep      --input logs/ --chunking intra:8 --pattern ERROR
";

#[cfg(test)]
mod tests {
    use super::USAGE;

    /// The flags a parser's source matches on: its `"--flag" =>` arms.
    fn matched_flags(src: &str) -> Vec<&str> {
        src.lines()
            .filter_map(|l| l.trim_start().strip_prefix('"')?.split_once("\" =>"))
            .map(|(flag, _)| flag)
            .filter(|flag| flag.starts_with("--"))
            .collect()
    }

    #[test]
    fn usage_names_every_flag_the_parsers_accept() {
        let flags: Vec<&str> = [include_str!("args.rs"), include_str!("bin/supmr.rs")]
            .into_iter()
            .flat_map(matched_flags)
            .collect();
        assert!(flags.len() > 30, "found only {flags:?}");
        for flag in flags {
            assert!(USAGE.contains(&format!("{flag} ")), "USAGE omits {flag}");
        }
    }
}
