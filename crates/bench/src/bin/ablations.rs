//! Ablations of the design choices DESIGN.md calls out, on the real
//! runtime with a throttled source:
//!
//! 1. **Prefetch depth** — the paper double-buffers (depth 1, one
//!    ingest thread created/destroyed per round). Does buffering more
//!    chunks ahead help? (Prediction: no, when ingest is the
//!    bottleneck — the device is already saturated — but it smooths
//!    variance when map time fluctuates around ingest time.)
//! 2. **Fixed chunk size** — the same workload at three fixed chunk
//!    sizes, small to large.
//! 3. **Merge backend × container** — p-way vs pairwise on the sort
//!    workload (work counters, since wall-clock parallel gains need
//!    more hardware contexts than this machine has).
//! 4. **Worker provisioning** — per-wave spawn/join vs one persistent
//!    pool per job, unthrottled so the provisioning overhead is not
//!    hidden behind the device.
//! 5. **Governor throttle matrix** — the feedback governor against four
//!    hand-tuned static configurations under four storage throttles
//!    (`supmr_bench::ablation`).

use supmr::pool::PoolMode;
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::Chunking;
use supmr_apps::{TeraSort, WordCount};
use supmr_bench::{ablation, results_dir, RealScale};
use supmr_metrics::csv::CsvTable;
use supmr_storage::{MemSource, ThrottledSource, TokenBucket};
use supmr_workloads::{TeraGen, TextGen, TextGenConfig};

const DISK_RATE: f64 = 24.0 * 1024.0 * 1024.0;

fn throttled(data: Vec<u8>) -> Input {
    Input::stream(ThrottledSource::with_bucket(
        MemSource::from(data),
        TokenBucket::with_burst(DISK_RATE, 256.0 * 1024.0),
    ))
}

fn wc_config() -> JobConfig {
    JobConfig { map_workers: 4, reduce_workers: 4, split_bytes: 256 * 1024, ..JobConfig::default() }
}

fn main() {
    let corpus = TextGen::new(TextGenConfig::default()).generate_bytes(1, 16 * 1024 * 1024);
    let mut csv = CsvTable::new(&["ablation", "variant", "total_s", "chunks", "threads"]);

    // --- 1: prefetch depth ---
    println!("== Ablation 1: prefetch depth (word count, 16MB @ 24MB/s) ==");
    println!(
        "{:>8} {:>9} {:>8} {:>9} {:>10} {:>10}",
        "depth", "total_s", "chunks", "threads", "map_wait", "ing_wait"
    );
    for depth in [1usize, 2, 4, 8] {
        let mut cfg = wc_config();
        cfg.chunking = Chunking::Inter { chunk_bytes: 1024 * 1024 };
        cfg.prefetch_depth = depth;
        let r = Job::new(WordCount::new()).config(cfg).run(throttled(corpus.clone())).unwrap();
        let total = r.report.timings.total().as_secs_f64();
        let stalls = r.report.stalls();
        println!(
            "{:>8} {:>9.2} {:>8} {:>9} {:>9.2}s {:>9.2}s",
            depth,
            total,
            r.report.stats.ingest_chunks,
            r.report.stats.threads_spawned,
            stalls.map_waiting.as_secs_f64(),
            stalls.ingest_waiting.as_secs_f64(),
        );
        csv.row(&[
            "prefetch_depth".into(),
            format!("{depth}"),
            format!("{total:.3}"),
            format!("{}", r.report.stats.ingest_chunks),
            format!("{}", r.report.stats.threads_spawned),
        ]);
    }
    println!(
        "(ingest-bound: deeper prefetch cannot beat the device — map_wait stays dominated by \
         the throttle; depth>1 saves one thread create/destroy per round)"
    );

    // --- 2: fixed chunk size ---
    println!("\n== Ablation 2: fixed chunk size (same workload) ==");
    println!("{:>12} {:>9} {:>8}", "chunking", "total_s", "chunks");
    let fixed_sizes: [(&str, u64); 3] =
        [("64KB", 64 * 1024), ("1MB", 1024 * 1024), ("8MB", 8 * 1024 * 1024)];
    for (label, chunk_bytes) in fixed_sizes {
        let mut cfg = wc_config();
        cfg.chunking = Chunking::Inter { chunk_bytes };
        let r = Job::new(WordCount::new()).config(cfg).run(throttled(corpus.clone())).unwrap();
        let total = r.report.timings.total().as_secs_f64();
        println!("{:>12} {:>9.2} {:>8}", label, total, r.report.stats.ingest_chunks);
        csv.row(&[
            "chunk_size".into(),
            label.into(),
            format!("{total:.3}"),
            format!("{}", r.report.stats.ingest_chunks),
            String::new(),
        ]);
    }

    // --- 3: merge backend work accounting ---
    println!("\n== Ablation 3: merge backend (sort, 4MB) ==");
    let sort_data = TeraGen::with_total_bytes(7, 4 * 1024 * 1024).generate_all();
    println!("{:>16} {:>9} {:>8} {:>14}", "backend", "merge_s", "rounds", "elements_moved");
    for (label, merge) in
        [("pairwise_rounds", MergeMode::PairwiseRounds), ("pway", MergeMode::PWay { ways: 4 })]
    {
        let mut cfg = wc_config();
        cfg.record_format = TeraSort::record_format();
        cfg.split_bytes = 64 * 1024;
        cfg.merge = merge;
        let r = Job::new(TeraSort::new()).config(cfg).run(throttled(sort_data.clone())).unwrap();
        println!(
            "{:>16} {:>9.3} {:>8} {:>14}",
            label,
            r.report.timings.phase(supmr_metrics::Phase::Merge).as_secs_f64(),
            r.report.stats.merge_rounds,
            r.report.stats.merge_elements_moved
        );
        csv.row(&[
            "merge_backend".into(),
            label.into(),
            format!("{:.3}", r.report.timings.phase(supmr_metrics::Phase::Merge).as_secs_f64()),
            format!("{}", r.report.stats.merge_rounds),
            format!("{}", r.report.stats.merge_elements_moved),
        ]);
    }

    // --- 4: worker provisioning (spawn/join vs persistent pool) ---
    println!("\n== Ablation 4: pool mode (word count, 8MB unthrottled, 128KB chunks) ==");
    println!("{:>12} {:>9} {:>8} {:>9} {:>8}", "pool", "total_s", "rounds", "spawned", "reused");
    let small_corpus = TextGen::new(TextGenConfig::default()).generate_bytes(3, 8 * 1024 * 1024);
    for pool in [PoolMode::WavePerRound, PoolMode::Persistent] {
        let mut cfg = wc_config();
        cfg.split_bytes = 32 * 1024;
        cfg.chunking = Chunking::Inter { chunk_bytes: 128 * 1024 };
        cfg.pool = pool;
        let r = Job::new(WordCount::new())
            .config(cfg)
            .run(Input::stream(MemSource::from(small_corpus.clone())))
            .unwrap();
        let total = r.report.timings.total().as_secs_f64();
        println!(
            "{:>12} {:>9.3} {:>8} {:>9} {:>8}",
            format!("{pool}"),
            total,
            r.report.stats.map_rounds,
            r.report.stats.threads_spawned,
            r.report.stats.threads_reused
        );
        csv.row(&[
            "pool_mode".into(),
            format!("{pool}"),
            format!("{total:.3}"),
            format!("{}", r.report.stats.ingest_chunks),
            format!("{}", r.report.stats.threads_spawned),
        ]);
    }
    println!("(64 rounds: the wave baseline re-provisions every round, the pool is built once)");

    let path = results_dir().join("ablations.csv");
    csv.write_to(&path).expect("write ablations CSV");
    println!("\n  data: {}", path.display());

    // --- 5: governor throttle matrix ---
    let scale = RealScale::default();
    println!(
        "\n== Ablation 5: governor vs static configs (word count, {} MiB, 4 throttles) ==",
        scale.wordcount_bytes >> 20
    );
    println!(
        "{:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>6} {:>13}",
        "cell", "MiB/s", "best_s", "worst_s", "adapt_s", "actions", "ratio", "worst/adapt"
    );
    let mut matrix = CsvTable::new(&["cell", "disk_mb_s", "variant", "wall_s", "actions"]);
    for cell in ablation::measure(&scale, false) {
        let mb_s = cell.disk_rate / (1024.0 * 1024.0);
        println!(
            "{:>8} {:>8.1} {:>9.3} {:>9.3} {:>9.3} {:>8} {:>6.3} {:>12.2}x",
            cell.cell,
            mb_s,
            cell.best_static_us() as f64 / 1e6,
            cell.worst_static_us() as f64 / 1e6,
            cell.adaptive_wall_us as f64 / 1e6,
            cell.governor_actions,
            cell.ratio_to_best(),
            cell.worst_over_adaptive()
        );
        let rate = format!("{mb_s:.1}");
        for run in &cell.statics {
            let wall = format!("{:.3}", run.wall_us as f64 / 1e6);
            matrix.row(&[cell.cell, &rate, run.config, &wall, ""]);
        }
        let wall = format!("{:.3}", cell.adaptive_wall_us as f64 / 1e6);
        matrix.row(&[cell.cell, &rate, "adaptive", &wall, &cell.governor_actions.to_string()]);
    }
    println!("(ratio = governed wall / best static wall)");
    let path = results_dir().join("governor_matrix.csv");
    matrix.write_to(&path).expect("write governor matrix CSV");
    println!("  data: {}", path.display());
}
