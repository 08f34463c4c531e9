//! Word count over a directory of many small files (the Hadoop word
//! count input shape) using **intra-file chunking**: several files
//! coalesce into each ingest chunk, exactly as §III-A of the paper
//! describes — including the short final chunk.
//!
//! ```text
//! cargo run --release --example wordcount_files
//! ```

use supmr::runtime::{Input, Job, JobConfig};
use supmr::Chunking;
use supmr_apps::WordCount;
use supmr_metrics::PhaseTimings;
use supmr_storage::{DirFileSet, ThrottledSource};
use supmr_workloads::files::write_corpus_dir;

fn main() {
    // Materialize a 30-file corpus on disk, ~256KB per file.
    let dir = std::env::temp_dir().join("supmr-example-corpus");
    let _ = std::fs::remove_dir_all(&dir);
    write_corpus_dir(&dir, 77, 30, 256 * 1024).expect("write corpus");
    println!("corpus: 30 files x 256KB in {}", dir.display());

    // Serve the files through a 12 MB/s "disk".
    let throttled = || {
        ThrottledSource::new(DirFileSet::open(&dir).expect("open corpus"), 12.0 * 1024.0 * 1024.0)
    };

    let base_config = JobConfig { map_workers: 4, reduce_workers: 4, ..JobConfig::default() };

    println!("\noriginal runtime: read all 30 files, then map...");
    let original = Job::new(WordCount::new())
        .config(base_config.clone())
        .run(Input::files(throttled()))
        .unwrap();

    // The paper's worked example: chunks of 4 files -> 8 chunks, the
    // last holding the 2 remaining files.
    println!("SupMR pipeline: intra-file chunks of 4 files...");
    let mut config = base_config;
    config.chunking = Chunking::Intra { files_per_chunk: 4 };
    let supmr = Job::new(WordCount::new()).config(config).run(Input::files(throttled())).unwrap();

    assert_eq!(original.sorted_pairs(), supmr.sorted_pairs());
    assert_eq!(supmr.report.stats.ingest_chunks, 8, "30 files / 4 per chunk = 8 chunks");

    println!("\n{}", PhaseTimings::table_header());
    println!("{}", original.report.timings.table_row("none"));
    println!("{}", supmr.report.timings.table_row("4 files"));
    println!(
        "\n{} chunks, {} map rounds, {} distinct words, speedup {:.2}x",
        supmr.report.stats.ingest_chunks,
        supmr.report.stats.map_rounds,
        supmr.report.stats.distinct_keys,
        supmr.report.timings.total_speedup_vs(&original.report.timings),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
