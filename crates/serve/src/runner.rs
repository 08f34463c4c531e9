//! Executing one admitted job against the daemon's shared facilities:
//! build the [`JobConfig`] from the spec, synthesize the input, run the
//! right application through [`supmr::run_with`], and reduce the output
//! to an independently-checkable [`JobOutput`].
//!
//! The input is generated in memory, so there is no read for ingest
//! chunks to hide behind map work: a spec without `chunk` runs
//! [`Chunking::None`], one map wave over the resident bytes, which the
//! runtime takes without a copy. A spec with `chunk` runs the ingest
//! pipeline at that chunk size. Either way the job's wave widths, its
//! fair-share cap and its cancel flag act before every map and reduce
//! task.

use crate::job::JobOutput;
use crate::spec::{AppSpec, JobSpec};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use supmr::pool::WorkerPool;
use supmr::runtime::{
    ActiveConfig, GovernorConfig, Input, JobConfig, JobReport, JobResult, MergeMode,
};
use supmr::spill::MemoryAccountant;
use supmr::{Chunking, Result};
use supmr_apps::{Grep, TeraSort, WordCount};
use supmr_metrics::{Registry, TraceLevel, TraceRing};
use supmr_storage::MemSource;
use supmr_workloads::{TeraGen, TextGen, TextGenConfig};

/// Hash seed used when the spec leaves placement unseeded: a fixed seed
/// keeps a job's output byte-identical however many neighbors it runs
/// beside, which is what the status digest promises.
const DEFAULT_HASH_SEED: u64 = 0xC0FFEE;

/// How many output pairs the status preview shows.
const PREVIEW_PAIRS: usize = 5;

impl AppSpec {
    /// Whether the application provides a spill codec — only these jobs
    /// join the daemon's partitioned memory budget (the others have no
    /// out-of-core path to actuate).
    pub fn supports_spill(self) -> bool {
        match self {
            AppSpec::WordCount | AppSpec::TeraSort => true,
            AppSpec::Grep => false,
        }
    }
}

/// The daemon-owned facilities one job run borrows.
pub(crate) struct JobFacilities<'p> {
    /// The shared persistent pool all jobs dispatch waves onto.
    pub pool: &'p WorkerPool,
    /// This tenant's partition of the global memory budget (already
    /// joined to the ledger), when the daemon runs with one.
    pub accountant: Option<Arc<MemoryAccountant>>,
    /// The job's metric families (merged into `/metrics` by job id).
    pub registry: Registry,
    /// The job's bounded event ring.
    pub ring: Arc<TraceRing>,
    /// The job's dynamic knobs (cancel flag + fair-share cap).
    pub active: Arc<ActiveConfig>,
    /// Per-job worker default when the spec names none.
    pub default_workers: usize,
}

/// Build the job's [`JobConfig`] from its spec plus the daemon
/// facilities. Pool choice is irrelevant here — [`supmr::SharedRun`]
/// routes every wave onto the host pool.
fn build_config(spec: &JobSpec, fac: &JobFacilities<'_>) -> JobConfig {
    let workers = |w: Option<usize>| w.unwrap_or(fac.default_workers).max(1);
    let mut config = JobConfig {
        map_workers: workers(spec.map_workers),
        reduce_workers: workers(spec.reduce_workers),
        chunking: spec
            .chunk_bytes
            .map_or(Chunking::None, |chunk_bytes| Chunking::Inter { chunk_bytes }),
        trace: TraceLevel::Wave,
        on_event: Some(fac.ring.callback()),
        metrics: Some(fac.registry.clone()),
        hash_seed: Some(spec.hash_seed.unwrap_or(DEFAULT_HASH_SEED)),
        active: Some(Arc::clone(&fac.active)),
        ..JobConfig::default()
    };
    if let Some(split) = spec.split_bytes {
        config.split_bytes = split as usize;
    }
    if spec.governor {
        config.governor = Some(GovernorConfig::default());
    }
    if spec.app.supports_spill() {
        // The tenant partition governs under a daemon-wide budget;
        // otherwise the spec's own request engages out-of-core.
        config.memory_budget = match &fac.accountant {
            Some(a) => Some(a.budget().max(1)),
            None => spec.memory_budget,
        };
    }
    if spec.app == AppSpec::TeraSort {
        config.record_format = TeraSort::record_format();
        config.merge = MergeMode::PWay { ways: config.reduce_workers };
    }
    config
}

/// Synthesize the job's input bytes from its generator spec.
fn generate_input(spec: &JobSpec) -> Vec<u8> {
    // Every text job draws from the same vocabulary and CDF: built once.
    static TEXT_GEN: OnceLock<TextGen> = OnceLock::new();
    match spec.app {
        AppSpec::WordCount | AppSpec::Grep => TEXT_GEN
            .get_or_init(|| TextGen::new(TextGenConfig::default()))
            .generate_bytes(spec.seed, spec.input_bytes as usize),
        AppSpec::TeraSort => TeraGen::with_total_bytes(spec.seed, spec.input_bytes).generate_all(),
    }
}

/// Run `spec` to completion on the daemon's facilities.
pub(crate) fn run_job(spec: &JobSpec, fac: JobFacilities<'_>) -> Result<(JobOutput, JobReport)> {
    let config = build_config(spec, &fac);
    let sorted = !matches!(config.merge, MergeMode::Unsorted);
    let input = Input::stream(MemSource::from(generate_input(spec)));
    let shared = supmr::SharedRun {
        pool: Some(fac.pool),
        accountant: fac.accountant.clone(),
        run_prefix: String::new(), // spill stores are per-job temp dirs
    };
    match spec.app {
        AppSpec::WordCount => {
            summarize(supmr::run_with(WordCount::new(), input, config, shared)?, sorted)
        }
        AppSpec::Grep => {
            let patterns: Vec<Vec<u8>> =
                spec.patterns.iter().map(|p| p.as_bytes().to_vec()).collect();
            summarize(supmr::run_with(Grep::new(patterns), input, config, shared)?, sorted)
        }
        AppSpec::TeraSort => {
            summarize(supmr::run_with(TeraSort::new(), input, config, shared)?, sorted)
        }
    }
}

/// FNV-1a over the bytes fed so far.
struct Fnv1a(u64);

impl Fnv1a {
    fn feed(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// Anything renderable as a digest line — key, tab, value — plus a lossy
/// preview form.
trait PairBytes {
    fn feed(&self, digest: &mut Fnv1a);
    fn preview(&self) -> String;
}

impl PairBytes for (supmr::CompactKey, u64) {
    fn feed(&self, digest: &mut Fnv1a) {
        digest.feed(self.0.as_bytes());
        write!(digest, "\t{}", self.1).expect("feeding a digest cannot fail");
    }

    fn preview(&self) -> String {
        format!("{} {}", self.0.to_string_lossy(), self.1)
    }
}

impl PairBytes for (Vec<u8>, Vec<u8>) {
    fn feed(&self, digest: &mut Fnv1a) {
        digest.feed(&self.0);
        digest.feed(b"\t");
        digest.feed(&self.1);
    }

    fn preview(&self) -> String {
        // Tera keys are 10 arbitrary bytes; hex keeps the preview
        // printable without inventing an encoding for the value.
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Collapse a finished run into the status summary: pair count, an
/// FNV-1a digest over the key-sorted pair stream (order-independent, so
/// concurrent and sequential executions of the same spec agree), and a
/// short preview. `sorted` says the job's merge already left the pairs
/// in key order; otherwise they are sorted here, in place.
fn summarize<K: Ord, O>(result: JobResult<K, O>, sorted: bool) -> Result<(JobOutput, JobReport)>
where
    (K, O): PairBytes,
{
    let JobResult { mut pairs, report } = result;
    if !sorted {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let mut digest = Fnv1a(0xcbf29ce484222325);
    for pair in &pairs {
        pair.feed(&mut digest);
        digest.feed(b"\n");
    }
    let output = JobOutput {
        pairs: pairs.len() as u64,
        digest: format!("fnv1a:{:016x}", digest.0),
        preview: pairs.iter().take(PREVIEW_PAIRS).map(PairBytes::preview).collect(),
    };
    Ok((output, report))
}

/// Compute the digest a spec *should* produce by running it in
/// isolation (job-private pool, private budget) — the oracle the
/// concurrency tests and the smoke job verify daemon outputs against.
pub fn reference_output(spec: &JobSpec) -> Result<JobOutput> {
    let pool = WorkerPool::new(1);
    let fac = JobFacilities {
        pool: &pool,
        accountant: None,
        registry: Registry::new(),
        ring: TraceRing::new(16),
        active: Arc::new(ActiveConfig::new(1, 1, 1)),
        default_workers: 1,
    };
    // The digest is taken over key-sorted pairs, so worker widths and
    // partition counts cannot change it — one worker is the cheapest
    // correct oracle.
    run_job(spec, fac).map(|(output, _)| output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facilities<'p>(pool: &'p WorkerPool, workers: usize) -> JobFacilities<'p> {
        JobFacilities {
            pool,
            accountant: None,
            registry: Registry::new(),
            ring: TraceRing::new(64),
            active: Arc::new(ActiveConfig::new(workers, workers, 1)),
            default_workers: workers,
        }
    }

    #[test]
    fn wordcount_runs_and_digest_is_stable_across_widths() {
        let spec = JobSpec { input_bytes: 64 * 1024, ..JobSpec::default() };
        let pool = WorkerPool::new(4);
        let (narrow, _) = run_job(&spec, facilities(&pool, 1)).expect("narrow run");
        let (wide, _) = run_job(&spec, facilities(&pool, 4)).expect("wide run");
        assert!(narrow.pairs > 0);
        assert_eq!(narrow.digest, wide.digest, "digest is width-independent");
        assert_eq!(narrow.pairs, wide.pairs);
        assert_eq!(narrow.preview, wide.preview);
    }

    #[test]
    fn grep_counts_only_matching_lines() {
        let spec = JobSpec {
            app: AppSpec::Grep,
            // "ca" is the rank-0 (most frequent) synthetic word, so a
            // zipfian corpus of any useful size contains it.
            patterns: vec!["ca".to_string()],
            input_bytes: 32 * 1024,
            ..JobSpec::default()
        };
        let pool = WorkerPool::new(2);
        let (out, report) = run_job(&spec, facilities(&pool, 2)).expect("grep run");
        assert!(out.pairs >= 1, "zipfian text contains its rank-0 word");
        assert!(report.stats.bytes_ingested >= 32 * 1024);
    }

    #[test]
    fn terasort_output_is_sorted_and_complete() {
        let spec = JobSpec {
            app: AppSpec::TeraSort,
            input_bytes: 100 * 200, // 200 records
            ..JobSpec::default()
        };
        let pool = WorkerPool::new(2);
        let (out, _) = run_job(&spec, facilities(&pool, 2)).expect("sort run");
        assert_eq!(out.pairs, 200, "every record survives the sort");
    }

    #[test]
    fn unchunked_specs_map_in_one_wave_with_the_chunked_digest() {
        // The governed word count runs under a share cap, as the daemon
        // runs it: the governor's moves reach its one wave at its tasks.
        let pool = WorkerPool::new(2);
        let cases = [
            (AppSpec::WordCount, false),
            (AppSpec::Grep, false),
            (AppSpec::TeraSort, false),
            (AppSpec::WordCount, true),
        ];
        for (app, governor) in cases {
            let patterns = if app == AppSpec::Grep { vec!["ca".to_string()] } else { Vec::new() };
            let spec =
                JobSpec { app, patterns, input_bytes: 512 * 1024, governor, ..JobSpec::default() };
            let fac = facilities(&pool, 2);
            fac.active.set_share_cap(if governor { 1 } else { 0 });
            let (whole, report) = run_job(&spec, fac).expect("one wave");
            let stats = &report.stats;
            assert_eq!((stats.map_rounds, stats.ingest_chunks), (1, 1), "{app:?} {governor}");
            assert!(whole.pairs > 0, "{app:?}");

            let chunked = JobSpec { chunk_bytes: Some(64 * 1024), ..spec };
            let (piped, report) = run_job(&chunked, facilities(&pool, 2)).expect("chunked");
            assert!(report.stats.map_rounds >= 4, "{app:?}: {} rounds", report.stats.map_rounds);
            assert_eq!(whole.digest, piped.digest, "{app:?}: chunking never changes the answer");
            assert_eq!(whole.pairs, piped.pairs, "{app:?}");
        }
    }

    #[test]
    fn budget_partition_makes_wordcount_spill() {
        let spec = JobSpec { input_bytes: 256 * 1024, ..JobSpec::default() };
        let pool = WorkerPool::new(2);
        let mut fac = facilities(&pool, 2);
        // A tiny tenant partition: the job must spill, not fail.
        fac.accountant = Some(Arc::new(MemoryAccountant::new(16 * 1024)));
        let registry = fac.registry.clone();
        let (out, _) = run_job(&spec, fac).expect("budgeted run succeeds by spilling");
        let spilled = registry.snapshot().entries.iter().any(|e| {
            e.name == "supmr.spill.runs"
                && matches!(e.value, supmr_metrics::MetricValue::Counter(c) if c > 0)
        });
        assert!(spilled, "a starved tenant spills instead of failing");

        // Same spec unbudgeted produces the identical digest.
        let (free, _) = run_job(&spec, facilities(&pool, 2)).expect("unbudgeted run");
        assert_eq!(out.digest, free.digest, "spilling never changes the answer");
    }

    #[test]
    fn reference_output_matches_pooled_run() {
        let spec = JobSpec { input_bytes: 16 * 1024, ..JobSpec::default() };
        let pool = WorkerPool::new(3);
        let (pooled, _) = run_job(&spec, facilities(&pool, 3)).expect("pooled");
        let reference = reference_output(&spec).expect("reference");
        assert_eq!(pooled.digest, reference.digest);
    }
}
