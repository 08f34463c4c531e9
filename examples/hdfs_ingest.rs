//! The Fig. 7 case study in miniature: ingest from a (simulated) HDFS
//! cluster — 32 datanodes with fast disks behind one slow shared link —
//! and observe that the pipeline raises utilization but barely moves
//! the total, because ingest dwarfs the map phase. The datanodes
//! together serve far more than the link carries, so the link is the
//! one device every byte crosses: a `ThrottledSource` at its rate.
//!
//! ```text
//! cargo run --release --example hdfs_ingest
//! ```

use supmr::runtime::{Input, Job, JobConfig};
use supmr::Chunking;
use supmr_apps::WordCount;
use supmr_metrics::PhaseTimings;
use supmr_storage::{DataSource, MemSource, ThrottledSource};
use supmr_workloads::{TextGen, TextGenConfig};

fn main() {
    let payload = TextGen::new(TextGenConfig::default()).generate_bytes(5, 6 * 1024 * 1024);
    let cluster = |data: Vec<u8>| {
        // The slow shared link.
        let src = ThrottledSource::new(MemSource::from(data), 8.0 * 1024.0 * 1024.0);
        println!("  source: {}", src.describe());
        Input::stream(src)
    };

    let base = JobConfig { map_workers: 4, reduce_workers: 4, ..JobConfig::default() };

    println!("original runtime: copy everything over the link, then compute");
    let original =
        Job::new(WordCount::new()).config(base.clone()).run(cluster(payload.clone())).unwrap();

    println!("SupMR: 512KB ingest chunks overlap the copy");
    let mut config = base;
    config.chunking = Chunking::Inter { chunk_bytes: 512 * 1024 };
    let supmr = Job::new(WordCount::new()).config(config).run(cluster(payload)).unwrap();

    assert_eq!(original.sorted_pairs(), supmr.sorted_pairs());

    println!("\n{}", PhaseTimings::table_header());
    println!("{}", original.report.timings.table_row("none"));
    println!("{}", supmr.report.timings.table_row("512KB"));
    let saved =
        original.report.timings.total().as_secs_f64() - supmr.report.timings.total().as_secs_f64();
    println!(
        "\nspeedup only {saved:.2}s on a {:.1}s job — the paper's Conclusion 4: with an \
         ingest-bound job there is little map work to overlay",
        original.report.timings.total().as_secs_f64()
    );
}
