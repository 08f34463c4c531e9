//! Workspace-level integration tests: whole-system runs that span the
//! generators, storage substrates, the runtime, the application suite,
//! and the simulator — the flows a downstream user would actually
//! exercise.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Identity;
use supmr::container::UnlockedContainer;
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::Chunking;
use supmr_apps::{
    sort::validate_sorted_output, Grep, Histogram, InvertedIndex, TeraSort, WordCount,
};
use supmr_metrics::{Bottleneck, Phase};
use supmr_sim::{simulate, AppProfile, JobModel, MachineSpec, PipelineParams};
use supmr_storage::{DirFileSet, FileSource, HdfsConfig, HdfsSource, MemSource, ThrottledSource};
use supmr_workloads::{
    files::write_corpus_dir, small_files_corpus, TeraGen, TextGen, TextGenConfig,
};

fn config(workers: usize) -> JobConfig {
    JobConfig {
        map_workers: workers,
        reduce_workers: workers,
        split_bytes: 64 * 1024,
        ..JobConfig::default()
    }
}

#[test]
fn wordcount_from_real_files_through_throttled_pipeline() {
    let dir = std::env::temp_dir().join("supmr-e2e-corpus");
    let _ = std::fs::remove_dir_all(&dir);
    write_corpus_dir(&dir, 5, 12, 64 * 1024).unwrap();

    let throttled = || {
        supmr_storage::ThrottledFileSet::new(
            DirFileSet::open(&dir).unwrap(),
            64.0 * 1024.0 * 1024.0,
        )
    };
    let baseline =
        Job::new(WordCount::new()).config(config(3)).run(Input::files(throttled())).unwrap();
    let mut piped_config = config(3);
    piped_config.chunking = Chunking::Intra { files_per_chunk: 5 };
    let piped =
        Job::new(WordCount::new()).config(piped_config).run(Input::files(throttled())).unwrap();

    assert_eq!(baseline.sorted_pairs(), piped.sorted_pairs());
    assert_eq!(piped.report.stats.ingest_chunks, 3); // 12 files / 5 per chunk
    assert!(baseline.report.stats.distinct_keys > 100);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn terasort_from_real_file_is_correct_and_single_merge_round() {
    let gen = TeraGen::new(99, 2_000);
    let path = std::env::temp_dir().join("supmr-e2e-teragen.dat");
    gen.write_to(&path).unwrap();

    let mut cfg = config(4);
    cfg.record_format = TeraSort::record_format();
    cfg.chunking = Chunking::Inter { chunk_bytes: 40_000 };
    cfg.merge = MergeMode::PWay { ways: 4 };
    let result = Job::new(TeraSort::new())
        .config(cfg)
        .run(Input::stream(ThrottledSource::new(
            FileSource::open(&path).unwrap(),
            128.0 * 1024.0 * 1024.0,
        )))
        .unwrap();

    validate_sorted_output(&result.pairs, 2_000).unwrap();
    assert_eq!(result.report.stats.merge_rounds, 1);
    assert_eq!(result.report.stats.bytes_ingested, gen.total_bytes());
    assert!(result.report.stats.ingest_chunks >= 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sort_baseline_vs_supmr_work_accounting() {
    // The merge-bottleneck claim in work units, end to end.
    let gen = TeraGen::new(7, 3_000);
    let data = gen.generate_all();
    let run = |chunking, merge| {
        let mut cfg = config(4);
        cfg.record_format = TeraSort::record_format();
        cfg.split_bytes = 20_000;
        cfg.chunking = chunking;
        cfg.merge = merge;
        Job::new(TeraSort::new())
            .config(cfg)
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap()
    };
    let baseline = run(Chunking::None, MergeMode::PairwiseRounds);
    let supmr = run(Chunking::Inter { chunk_bytes: 50_000 }, MergeMode::PWay { ways: 4 });

    assert_eq!(supmr.report.stats.merge_elements_moved, 3_000);
    // Each round re-scans the data, except that an odd run carried to
    // the next round unmerged is skipped — so the exact bound is
    // N·(rounds−1) < moved ≤ N·rounds.
    let rounds = baseline.report.stats.merge_rounds as u64;
    assert!(
        baseline.report.stats.merge_elements_moved > 3_000 * (rounds - 1)
            && baseline.report.stats.merge_elements_moved <= 3_000 * rounds,
        "baseline re-scans every round: moved {} over {} rounds",
        baseline.report.stats.merge_elements_moved,
        rounds
    );
    assert!(baseline.report.stats.merge_rounds > supmr.report.stats.merge_rounds);
    // Identical final orderings.
    assert_eq!(
        baseline.pairs.iter().map(|p| &p.0).collect::<Vec<_>>(),
        supmr.pairs.iter().map(|p| &p.0).collect::<Vec<_>>()
    );
}

/// [`TeraSort`] minus its `key_prefix`: the trait's default, "compare
/// full keys".
struct UnprefixedSort;

impl MapReduce for UnprefixedSort {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        TeraSort::new().map(split, emit);
    }

    fn reduce(&self, _key: &Vec<u8>, record: Vec<u8>) -> Vec<u8> {
        record
    }
}

#[test]
fn default_key_prefix_sorts_like_a_prefixed_app_under_both_merge_backends() {
    // 10-byte keys, half of them drawn from 40 values that share their
    // first 8 bytes (prefix ties, and duplicates told apart only by the
    // sequence number in the payload), half spread over the key space.
    let records = 3_000u64;
    let mut data = Vec::new();
    for seq in 0..records {
        let key = match seq % 2 {
            0 => seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 40,
            _ => seq.wrapping_mul(0xD1B5_4A32_D192_ED03) % 9_999_999_999,
        };
        data.extend_from_slice(format!("{key:010}{seq:088}\r\n").as_bytes());
    }
    for merge in [MergeMode::PWay { ways: 3 }, MergeMode::PairwiseRounds] {
        // One map worker keeps container order — and with it the order
        // of duplicates — the same from run to run; three reduce
        // partitions give the merge three runs.
        let cfg = || JobConfig {
            map_workers: 1,
            reduce_workers: 3,
            split_bytes: 16 * 1024,
            record_format: TeraSort::record_format(),
            merge,
            ..JobConfig::default()
        };
        let input = || Input::stream(MemSource::from(data.clone()));
        let prefixed = Job::new(TeraSort::new()).config(cfg()).run(input()).unwrap();
        let plain = Job::new(UnprefixedSort).config(cfg()).run(input()).unwrap();

        assert_eq!(plain.pairs.len() as u64, records, "{merge:?}");
        assert!(plain.pairs.windows(2).all(|w| w[0].0 <= w[1].0), "{merge:?}: not sorted");
        assert_eq!(plain.pairs, prefixed.pairs, "{merge:?}: the prefix changed the output");
        assert_eq!(
            plain.report.stats.merge_elements_moved,
            prefixed.report.stats.merge_elements_moved
        );
    }
}

#[test]
fn hdfs_source_feeds_the_pipeline() {
    let payload = TextGen::new(TextGenConfig::default()).generate_bytes(3, 512 * 1024);
    let cluster = |data: Vec<u8>| {
        HdfsSource::new(
            MemSource::from(data),
            HdfsConfig {
                datanodes: 8,
                node_disk_rate: 1e9,
                link_rate: 32.0 * 1024.0 * 1024.0,
                block_size: 64 * 1024,
            },
        )
    };
    let baseline = Job::new(WordCount::new())
        .config(config(2))
        .run(Input::stream(cluster(payload.clone())))
        .unwrap();
    let mut cfg = config(2);
    cfg.chunking = Chunking::Inter { chunk_bytes: 128 * 1024 };
    let piped =
        Job::new(WordCount::new()).config(cfg).run(Input::stream(cluster(payload))).unwrap();
    assert_eq!(baseline.sorted_pairs(), piped.sorted_pairs());
}

#[test]
fn grep_and_histogram_and_index_run_through_the_pipeline() {
    // Grep over chunked text.
    let text = TextGen::new(TextGenConfig::default()).generate_bytes(9, 256 * 1024);
    let mut cfg = config(2);
    cfg.chunking = Chunking::Inter { chunk_bytes: 32 * 1024 };
    let needle = TextGen::new(TextGenConfig::default()).words()[0].clone();
    let grep = Job::new(Grep::new(vec![needle.clone().into_bytes()]))
        .config(cfg.clone())
        .run(Input::stream(MemSource::from(text.clone())))
        .unwrap();
    assert_eq!(grep.pairs.len(), 1, "the most frequent word must appear");
    assert!(grep.pairs[0].1 > 100);

    // Histogram over fixed-width pixels.
    let pixels: Vec<u8> = (0..90_000).map(|i| (i % 256) as u8).collect();
    let mut cfg = config(2);
    cfg.record_format = Histogram::record_format();
    cfg.chunking = Chunking::Inter { chunk_bytes: 10_000 };
    let hist =
        Job::new(Histogram::new()).config(cfg).run(Input::stream(MemSource::from(pixels))).unwrap();
    let total: u64 = hist.pairs.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 90_000);

    // Inverted index over doc-tagged files.
    let files: Vec<Vec<u8>> = (0..6)
        .map(|f| {
            (0..10)
                .map(|d| InvertedIndex::format_doc(f * 10 + d, "alpha beta"))
                .collect::<String>()
                .into_bytes()
        })
        .collect();
    let mut cfg = config(2);
    cfg.chunking = Chunking::Intra { files_per_chunk: 2 };
    let index = Job::new(InvertedIndex::new())
        .config(cfg)
        .run(Input::files(supmr_storage::MemFileSet::new(files)))
        .unwrap();
    let alpha = index.pairs.iter().find(|(k, _)| k == "alpha").unwrap();
    assert_eq!(alpha.1.len(), 60);
}

#[test]
fn simulator_and_real_runtime_agree_on_the_shape() {
    // The cross-check that makes the simulation credible: at a scale the
    // real runtime can execute, both must agree that (a) the pipeline
    // beats the baseline when ingest dominates, and (b) fused ingest+map
    // ≈ max(ingest, map) rather than their sum.
    // Strongly ingest-dominated so the pipeline's win is robust even on
    // a single-core debug-build machine: 4MB at 4MB/s ⇒ ≥1s of ingest
    // to hide map work under.
    let real_bytes = 4 * 1024 * 1024;
    let rate = 4.0 * 1024.0 * 1024.0;
    let corpus = TextGen::new(TextGenConfig::default()).generate_bytes(1, real_bytes);

    let throttled =
        |data: Vec<u8>| Input::stream(ThrottledSource::new(MemSource::from(data), rate));
    let base_cfg = config(2);
    let baseline =
        Job::new(WordCount::new()).config(base_cfg.clone()).run(throttled(corpus.clone())).unwrap();
    let mut piped_cfg = base_cfg;
    piped_cfg.chunking = Chunking::Inter { chunk_bytes: 256 * 1024 };
    let piped = Job::new(WordCount::new()).config(piped_cfg).run(throttled(corpus)).unwrap();

    let real_speedup = piped.report.timings.total_speedup_vs(&baseline.report.timings);
    assert!(real_speedup > 1.0, "pipeline must win on a throttled source: {real_speedup}");

    // Simulated counterpart with matching proportions.
    let profile = AppProfile {
        name: "scaled-wc",
        input_bytes: real_bytes as f64,
        map_ns_per_byte: 20.0,
        reduce_ns_per_byte: 0.1,
        merge_bytes: 0.0,
        merge_cpu_ns_per_byte: 0.0,
        sort_runs: 2,
        disk_bandwidth: rate,
        parse_ns_per_byte: 0.0,
    };
    let machine = MachineSpec {
        contexts: 2,
        devices: vec![
            supmr_sim::Device::new("disk", rate),
            supmr_sim::Device::cpu_bound("mem", 1e9),
        ],
        thread_spawn_cost: 100e-6,
    };
    let sim_base = simulate(JobModel::Original, &profile, &machine, MachineSpec::DISK);
    let sim_piped = simulate(
        JobModel::SupMr(PipelineParams { chunk_bytes: 256.0 * 1024.0 }),
        &profile,
        &machine,
        MachineSpec::DISK,
    );
    let sim_speedup = sim_base.total_secs() / sim_piped.total_secs();
    assert!(sim_speedup > 1.0);

    // Fused span sanity on both sides: pipeline read+map < baseline
    // read + map sum.
    let base_sum =
        baseline.report.timings.phase(Phase::Ingest) + baseline.report.timings.phase(Phase::Map);
    let fused = piped.report.timings.fused_ingest_map().unwrap();
    assert!(fused < base_sum, "real: fused {fused:?} !< sum {base_sum:?}");
    assert!(
        sim_piped.timings.fused_ingest_map().unwrap().as_secs_f64()
            < sim_base.timings.phase(Phase::Ingest).as_secs_f64()
                + sim_base.timings.phase(Phase::Map).as_secs_f64()
    );
}

#[test]
fn throttled_ingest_classifies_as_ingest_bound() {
    // A hard storage throttle on the baseline runtime makes the serial
    // ingest phase dominate wall-clock; the classifier must say so.
    let text = TextGen::new(TextGenConfig::default()).generate_bytes(11, 512 * 1024);
    let input_len = text.len() as u64; // generator rounds up to a word boundary
    let result = Job::new(WordCount::new())
        .config(config(2))
        .run(Input::stream(ThrottledSource::new(
            MemSource::from(text),
            // 1 MiB/s → ~500ms of metered ingest, far above what CPU
            // contention can inflate the map phase to when the test
            // suite runs many-way parallel on few cores.
            1.0 * 1024.0 * 1024.0,
        )))
        .unwrap();
    let diag = result.report.diag.as_ref().expect("every job is diagnosed");
    assert_eq!(diag.verdict, Bottleneck::IngestBound, "{}", diag.render_ascii());
    assert!(diag.speedup_if_removed > 1.0);
    // The flow ledger attributed the ingested bytes.
    let ingest = diag.inputs.flows.get(supmr_metrics::FlowPhase::Ingest);
    assert_eq!(ingest.bytes, input_len, "ingest flow counts every byte");
    // Nominal 4 MiB/s plus the token bucket's initial burst: the achieved
    // rate must stay orders of magnitude below memory bandwidth.
    assert!(ingest.mb_per_sec() > 0.0 && ingest.mb_per_sec() < 64.0, "{}", ingest.mb_per_sec());
    let json = result.report.to_json().render();
    assert!(json.contains("\"supmr.diag.v1\""), "diag schema embedded in the job report");
    assert!(json.contains("\"ingest-bound\""));
}

#[test]
fn tight_memory_budget_classifies_as_memory_budget_bound() {
    let text = TextGen::new(TextGenConfig::default()).generate_bytes(12, 256 * 1024);
    let mut cfg = config(2);
    cfg.memory_budget = Some(2 * 1024); // absurdly tight: the job lives spilling
    let result =
        Job::new(WordCount::new()).config(cfg).run(Input::stream(MemSource::from(text))).unwrap();
    let diag = result.report.diag.as_ref().expect("every job is diagnosed");
    assert!(result.report.stats.spill_runs > 0, "2K budget must spill");
    assert_eq!(diag.verdict, Bottleneck::MemoryBudgetBound, "{}", diag.render_ascii());
    assert!(diag.inputs.spill_bytes > 0);
}

#[test]
fn unthrottled_in_memory_run_is_not_io_diagnosed() {
    let text = TextGen::new(TextGenConfig::default()).generate_bytes(13, 256 * 1024);
    let result = Job::new(WordCount::new())
        .config(config(2))
        .run(Input::stream(MemSource::from(text)))
        .unwrap();
    let diag = result.report.diag.as_ref().expect("every job is diagnosed");
    assert_ne!(diag.verdict, Bottleneck::IngestBound, "{}", diag.render_ascii());
    assert_ne!(diag.verdict, Bottleneck::MemoryBudgetBound, "{}", diag.render_ascii());
}

#[test]
fn generators_feed_chunkers_without_boundary_violations() {
    // Teragen output chunked at awkward sizes must reassemble exactly.
    let gen = TeraGen::new(1234, 500);
    let data = gen.generate_all();
    use supmr::chunk::{Chunker, InterFileChunker};
    for chunk_bytes in [73u64, 999, 10_001] {
        let mut chunker = InterFileChunker::new(
            MemSource::from(data.clone()),
            chunk_bytes,
            TeraSort::record_format(),
        );
        let mut rebuilt = Vec::new();
        while let Some(c) = chunker.next_chunk().unwrap() {
            assert_eq!(c.len() % 100, 0, "CRLF chunks must hold whole records");
            rebuilt.extend_from_slice(&c.data);
        }
        assert_eq!(rebuilt, data);
    }

    // Small-files corpus through intra chunking.
    let files = small_files_corpus(4, 11, 4_096);
    use supmr::chunk::IntraFileChunker;
    let mut chunker = IntraFileChunker::new(supmr_storage::MemFileSet::new(files.clone()), 4);
    let mut seen = 0;
    while let Some(c) = chunker.next_chunk().unwrap() {
        seen += c.segments.len();
    }
    assert_eq!(seen, 11);
}
