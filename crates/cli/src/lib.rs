//! Command-line driver for SupMR.
//!
//! ```text
//! supmr <app> [--input PATH | --generate SIZE] [options]
//!
//! apps:
//!   wordcount   count words (text input)
//!   terasort    sort gensort-style CRLF records
//!   grep        count fixed-pattern occurrences (--pattern, repeatable)
//!   histogram   RGB histogram over 3-byte pixels
//!   linreg      least-squares fit over "x y" lines
//!   kmeans      cluster "x y" points (--k, --iters)
//!
//! options:
//!   --input PATH        a file (stream input) or a directory (file set)
//!   --generate SIZE     synthesize an app-appropriate input of SIZE
//!                       (suffixes K/M/G; e.g. 64M)
//!   --chunking SPEC     none | inter:SIZE | intra:N | hybrid:SIZE
//!   --merge SPEC        unsorted | pairwise | pway:N
//!   --workers N         mapper/reducer threads          [default: cores]
//!   --split SIZE        upper bound on the split size   [default: 1M]
//!   --prefetch N        ingest chunks buffered ahead    [default: 1]
//!   --throttle RATE     cap storage bandwidth, e.g. 24M (bytes/sec)
//!   --memory-budget SIZE  cap the intermediate set's resident bytes;
//!                       past it the job spills sorted runs to disk and
//!                       the reduce phase streams an external merge
//!   --spill-dir PATH    where spill runs go [default: per-job temp dir]
//!   --trace LEVEL       event tracing: off | wave | task [default: off]
//!   --trace-out PATH    write the recorded trace (.json Chrome trace,
//!                       .jsonl events, .txt ASCII timeline)
//!   --metrics-addr A    serve live OpenMetrics at http://A/metrics
//!                       while the job runs (e.g. 127.0.0.1:9400)
//!   --metrics-interval D  print ASCII metrics snapshots to stderr
//!                       every D (e.g. 500ms, 2s)
//!   --diagnose          print the bottleneck diagnosis panel (verdict,
//!                       blocked-time shares, per-phase MB/s) after the
//!                       job completes
//!   --adaptive          run the feedback governor: retune wave widths,
//!                       prefetch depth, the absorb sweep mask, and
//!                       spill watermarks mid-job from the live metrics
//!   --governor-interval D  governor sampling period [default: 50ms]
//!                       (implies --adaptive)
//!   --report-out PATH   write the full job report JSON to PATH
//!   --top N             print the N largest results     [default: 10]
//!   --seed N            generator seed                  [default: 42]
//!   --hash-seed N       fix the container hash seed so key placement
//!                       is reproducible across runs  [default: random]
//! ```
//!
//! The parsing layer is a small hand-rolled option walker (no external
//! dependency) kept separate from execution so it is unit-testable.

pub mod args;
pub mod reporter;
pub mod run;

pub use args::{parse_args, AppKind, CliArgs, CliError};
pub use reporter::SnapshotReporter;
pub use run::{execute, RunSummary};
