//! The benchmark's fixed vocabulary: workload names, metric names with
//! their units and directions, and the frozen sizes. `BENCHMARK.json`
//! at the repository root states the same tables for the driver; a test
//! keeps the two in step.

pub const MIB: usize = 1024 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before it counts as a regression; per-layer metrics have
    /// none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// What a user of the system sees, measured in the untraced timed pass.
/// Every workload reports every one of them. The bounds are twice the
/// widest run-to-run spread measured on the unchanged tree, capped at the
/// contract's 0.25 (README.md, "Bounds").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("job_wall_s", "s", Better::Lower, 0.25),
    e2e("input_mb_per_s", "MB/s", Better::Higher, 0.25),
    e2e("cpu_s_per_gb", "s/GB", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

use Better::{Higher, Lower};

/// One number per layer boundary, measured in the traced pass. A
/// workload reports 0 for a metric whose layer it does not drive (the
/// driver's contract wants every key on every workload); README.md lists
/// which workloads drive which.
pub const PER_LAYER: &[Metric] = &[
    layer("storage.source_read_mb_s", "MB/s", Higher),
    layer("storage.throttle_accuracy", "ratio", Lower),
    layer("storage.scan_ns_per_byte", "ns/B", Lower),
    layer("storage.record_ns_per_byte", "ns/B", Lower),
    layer("storage.runstore_write_mb_s", "MB/s", Higher),
    layer("storage.runstore_read_mb_s", "MB/s", Higher),
    layer("core.split_us", "us", Lower),
    layer("core.chunk_mb_s", "MB/s", Higher),
    layer("apps.wc_map_ns_per_byte", "ns/B", Lower),
    layer("apps.tera_map_ns_per_byte", "ns/B", Lower),
    layer("container.absorb_combine_mpairs_s", "Mpairs/s", Higher),
    layer("container.absorb_unique_mpairs_s", "Mpairs/s", Higher),
    layer("container.drain_us", "us", Lower),
    layer("spill.run_write_mb_s", "MB/s", Higher),
    layer("spill.run_read_mb_s", "MB/s", Higher),
    layer("spill.external_merge_mb_s", "MB/s", Higher),
    layer("spill.merge_fold_mb_s", "MB/s", Higher),
    layer("spill.runs", "count", Lower),
    layer("spill.bytes", "B", Lower),
    layer("spill.slowdown_ratio", "ratio", Lower),
    layer("merge.sort_ns_per_elem", "ns/elem", Lower),
    layer("merge.kway_ns_per_elem", "ns/elem", Lower),
    layer("merge.kway_seq_ns_per_elem", "ns/elem", Lower),
    layer("merge.pairwise_ns_per_elem", "ns/elem", Lower),
    layer("merge.loser_tree_ns_per_elem", "ns/elem", Lower),
    layer("merge.elements_moved", "count", Lower),
    layer("merge.rounds", "count", Lower),
    layer("runtime.phase_ingest_s", "s", Lower),
    layer("runtime.phase_map_s", "s", Lower),
    layer("runtime.phase_ingest_map_s", "s", Lower),
    layer("runtime.phase_reduce_s", "s", Lower),
    layer("runtime.phase_merge_s", "s", Lower),
    layer("runtime.map_waiting_s", "s", Lower),
    layer("runtime.ingest_waiting_s", "s", Lower),
    layer("runtime.ingest_only_s", "s", Lower),
    layer("runtime.map_only_s", "s", Lower),
    layer("runtime.overlap_ratio", "ratio", Lower),
    layer("runtime.original_over_pipeline", "ratio", Higher),
    layer("pool.dispatch_us", "us/wave", Lower),
    layer("dag.stage_partition_s", "s", Lower),
    layer("dag.stage_sort_s", "s", Lower),
    layer("dag.handoff_bytes", "B", Lower),
    layer("dag.handoff_pairs", "count", Lower),
    layer("dag.handoff_materialized_pairs", "count", Lower),
    layer("dag.overhead_ratio", "ratio", Lower),
    layer("serve.spec_decode_us", "us", Lower),
    layer("serve.submit_ms_p50", "ms", Lower),
    layer("serve.status_ms_p50", "ms", Lower),
    layer("serve.scrape_ms_p50", "ms", Lower),
    layer("serve.scrape_bytes_last", "B", Lower),
    layer("serve.job_latency_p90_s", "s", Lower),
    layer("serve.overhead_ratio", "ratio", Lower),
    layer("serve.jobs_per_s", "1/s", Higher),
    layer("serve.rejected", "count", Lower),
    layer("metrics.overhead_ratio", "ratio", Lower),
    layer("governor.ratio_to_static", "ratio", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WcMem,
    WcDisk,
    SortMem,
    SortSpill,
    TeraDag,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::WcMem,
        Workload::WcDisk,
        Workload::SortMem,
        Workload::SortSpill,
        Workload::TeraDag,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WcMem => "wc_mem",
            Workload::WcDisk => "wc_disk",
            Workload::SortMem => "sort_mem",
            Workload::SortSpill => "sort_spill",
            Workload::TeraDag => "tera_dag",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Word-count workloads read Zipf text; the sorts read Teragen records.
    pub fn reads_text(self) -> bool {
        matches!(self, Workload::WcMem | Workload::WcDisk)
    }
}

/// Every size the benchmark uses. `full` is frozen (README.md, "Sizes",
/// says how each was chosen); `quick` is the same run 32 times smaller,
/// for the tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Zipf text of `wc_mem` and `wc_disk`.
    pub text_bytes: usize,
    /// Teragen input of `sort_mem`, `sort_spill` and `tera_dag`.
    pub tera_bytes: usize,
    /// `sort_spill`'s memory budget.
    pub spill_budget: u64,
    /// `wc_disk`'s ingest chunk.
    pub chunk_bytes: u64,
    /// `wc_disk`'s device rate in bytes per second.
    pub throttle_rate: f64,
    /// Submissions in one `serve_mix` cycle: the unit the clients finish
    /// together, and the repetition its metrics are taken over.
    pub serve_cycle: usize,
    /// Distinct cycles in the seeded sequence; a replay goes round them.
    pub serve_cycles: usize,
    /// Generated input of a served word count; grep and terasort jobs
    /// get twice this.
    pub serve_job_bytes: u64,
    /// Input prefix the container and merge drives work on, so the pairs
    /// they clone stay a fraction of the job's.
    pub drive_bytes: usize,
    /// One run file of the run-store and spill drives.
    pub run_bytes: usize,
    /// Set-ups a run makes at least.
    pub setups: usize,
    /// Repetitions a timed pass makes at least, however short `--seconds`.
    pub min_reps: usize,
    /// Repetitions behind each number of the traced pass.
    pub trace_reps: usize,
    /// Waves behind `pool.dispatch_us`.
    pub dispatch_waves: usize,
}

impl Scale {
    pub const fn full() -> Scale {
        Scale {
            text_bytes: 32 * MIB,
            tera_bytes: 32 * MIB,
            spill_budget: 8 * MIB as u64,
            chunk_bytes: 4 * MIB as u64,
            throttle_rate: 200.0 * MIB as f64,
            serve_cycle: 20,
            serve_cycles: 8,
            serve_job_bytes: 2 * MIB as u64,
            drive_bytes: 16 * MIB,
            run_bytes: 8 * MIB,
            setups: 3,
            min_reps: 3,
            trace_reps: 5,
            dispatch_waves: 200,
        }
    }

    pub const fn quick() -> Scale {
        Scale {
            text_bytes: MIB,
            tera_bytes: MIB,
            spill_budget: 256 * 1024,
            chunk_bytes: 128 * 1024,
            throttle_rate: 200.0 * MIB as f64,
            serve_cycle: 6,
            serve_cycles: 1,
            serve_job_bytes: 64 * 1024,
            drive_bytes: 512 * 1024,
            run_bytes: 256 * 1024,
            setups: 1,
            min_reps: 2,
            trace_reps: 1,
            dispatch_waves: 20,
        }
    }
}

/// Workers of every job and of the served daemon's pool; nothing is
/// sized above the 2 cores of the reference machine.
pub const WORKERS: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }
}
