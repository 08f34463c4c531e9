//! Regenerates **Fig. 7**: the HDFS case study. Word count over 30GB
//! ingested from a 32-node HDFS behind one 1GbE link. SupMR overlays
//! map computation with the network ingest — utilization rises — but
//! because the map phase is a tiny fraction of the ingest-bound job,
//! the end-to-end speedup is only a few seconds.
//!
//! `--real` also drives the actual runtime at a scaled size through the
//! one device every byte crosses: the link, a `ThrottledSource` at a
//! scaled "1GbE". The 32 datanodes together serve far more than the
//! link carries, so no per-node pacing would bind — `supmr-sim` models
//! the same case as one device too (`MachineSpec::paper_testbed_hdfs`).

use supmr::runtime::{Input, Job, JobConfig};
use supmr::Chunking;
use supmr_apps::WordCount;
use supmr_bench::{emit_figure, trace_with_phase_marks};
use supmr_sim::{simulate, AppProfile, JobModel, MachineSpec, PipelineParams};
use supmr_storage::{MemSource, ThrottledSource};
use supmr_workloads::{TextGen, TextGenConfig};

fn main() {
    let profile = AppProfile::word_count_30gb_hdfs();
    let machine = MachineSpec::paper_testbed_hdfs();
    let base = simulate(JobModel::Original, &profile, &machine, MachineSpec::NET);
    let supmr = simulate(
        JobModel::SupMr(PipelineParams { chunk_bytes: 1e9 }),
        &profile,
        &machine,
        MachineSpec::NET,
    );

    println!("== Fig. 7: word count (30GB) over HDFS behind one 1GbE link ==\n");
    emit_figure(
        "fig7a_hdfs_original",
        "Fig. 7 (top): original — copy 30GB, then compute",
        &trace_with_phase_marks(&base),
    );
    println!();
    emit_figure(
        "fig7b_hdfs_supmr",
        "Fig. 7 (bottom): SupMR — ingest chunks overlap the copy",
        &trace_with_phase_marks(&supmr),
    );

    println!(
        "original {:.1}s vs SupMR {:.1}s -> speedup {:.1}s   (paper: ~7s)",
        base.total_secs(),
        supmr.total_secs(),
        base.total_secs() - supmr.total_secs()
    );
    println!(
        "mean utilization: original {:.0}%, SupMR {:.0}% (high utilization, little gain: \
         the map phase is too small a fraction of this ingest-bound job)",
        base.report.mean_utilization(),
        supmr.report.mean_utilization()
    );

    if std::env::args().any(|a| a == "--real") {
        run_real();
    } else {
        println!("\n(re-run with --real to drive the real runtime behind the simulated link)");
    }
}

fn run_real() {
    println!("\n== real runtime behind the simulated HDFS link (scaled) ==");
    let data = TextGen::new(TextGenConfig::default()).generate_bytes(7, 8 * 1024 * 1024);
    // The scaled "1GbE" link.
    let link =
        |payload: Vec<u8>| ThrottledSource::new(MemSource::from(payload), 12.0 * 1024.0 * 1024.0);
    let mut config = JobConfig { map_workers: 4, reduce_workers: 4, ..JobConfig::default() };
    let original = Job::new(WordCount::new())
        .config(config.clone())
        .run(Input::stream(link(data.clone())))
        .unwrap();
    config.chunking = Chunking::Inter { chunk_bytes: 512 * 1024 };
    let piped = Job::new(WordCount::new()).config(config).run(Input::stream(link(data))).unwrap();

    assert_eq!(original.sorted_pairs(), piped.sorted_pairs());
    println!(
        "original {:.2}s vs SupMR {:.2}s over {} chunks -> speedup {:.2}s (ingest-bound, as in the paper)",
        original.report.timings.total().as_secs_f64(),
        piped.report.timings.total().as_secs_f64(),
        piped.report.stats.ingest_chunks,
        original.report.timings.total().as_secs_f64() - piped.report.timings.total().as_secs_f64(),
    );
}
