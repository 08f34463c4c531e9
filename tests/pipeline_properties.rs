//! Property tests for the two-stage partition→sort pipeline: whatever
//! the corpus, chunking, merge fan-in, or memory budget,
//! [`terasort_pipeline`] must produce output byte-identical to the
//! hand-wired single-stage [`TeraSort`] job — with the inter-stage
//! hand-off streamed (zero materialized pairs), even when the budget
//! forces spills mid-pipeline.

use proptest::prelude::*;
use supmr::runtime::{Input, Job, JobConfig, MergeMode};
use supmr::{Chunking, TraceLevel};
use supmr_apps::{sort::validate_sorted_output, terasort_pipeline, TeraSort};
use supmr_metrics::{chrome::to_chrome_json, EventKind, SpanKey};
use supmr_storage::MemSource;
use supmr_workloads::TeraGen;

/// One Teragen pair in the hand-off: the 8-byte frame header, the
/// codec's `u32` key length, the 10-byte key and the 100-byte record.
const HANDOFF_FRAME_BYTES: u64 = 8 + 4 + 10 + 100;

fn sort_config(chunk_bytes: u64, ways: usize) -> JobConfig {
    JobConfig {
        map_workers: 2,
        reduce_workers: 2,
        split_bytes: 4 * 1024,
        record_format: TeraSort::record_format(),
        chunking: Chunking::Inter { chunk_bytes },
        merge: MergeMode::PWay { ways },
        ..JobConfig::default()
    }
}

fn corpus(seed: u64, records: u64) -> Input {
    Input::stream(MemSource::from(TeraGen::new(seed, records).generate_all()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_matches_the_single_job_for_any_corpus(
        seed in any::<u64>(),
        records in 1u64..300,
        chunk_kb in 1u64..32,
        ways in 2usize..6,
    ) {
        let config = sort_config(chunk_kb * 1024, ways);
        let single = Job::new(TeraSort::new())
            .config(config.clone())
            .run(corpus(seed, records))
            .unwrap();
        let piped = terasort_pipeline(corpus(seed, records), config).unwrap();
        prop_assert_eq!(&piped.pairs, &single.pairs, "pipeline must be byte-identical");
        validate_sorted_output(&piped.pairs, records).unwrap();
        let handoff = piped.report.stages[0].handoff.expect("partition stage hands off");
        prop_assert_eq!(handoff.pairs, records);
        prop_assert_eq!(
            handoff.bytes, records * HANDOFF_FRAME_BYTES,
            "every pair crosses as one frame of the documented size"
        );
        prop_assert_eq!(
            handoff.materialized_pairs, 0,
            "no pair vector may exist between the stages"
        );
    }

    #[test]
    fn budgeted_pipeline_spills_and_stays_identical(
        seed in any::<u64>(),
        records in 50u64..200,
        budget_kb in 2u64..8,
    ) {
        let config = sort_config(8 * 1024, 4);
        let single = Job::new(TeraSort::new())
            .config(config.clone())
            .run(corpus(seed, records))
            .unwrap();
        let mut budgeted = config;
        budgeted.memory_budget = Some(budget_kb * 1024);
        let piped = terasort_pipeline(corpus(seed, records), budgeted).unwrap();
        prop_assert_eq!(&piped.pairs, &single.pairs, "spilling must not change the output");
        prop_assert!(
            piped.report.stats.spill_runs > 0,
            "a {budget_kb}K budget must force mid-pipeline spills"
        );
        let handoff = piped.report.stages[0].handoff.expect("partition stage hands off");
        prop_assert_eq!(handoff.pairs, records);
        prop_assert_eq!(handoff.bytes, records * HANDOFF_FRAME_BYTES);
        prop_assert_eq!(
            handoff.materialized_pairs, 0,
            "the hand-off streams even out of spilled runs"
        );
    }
}

#[test]
fn pipeline_trace_carries_stage_spans() {
    let mut config = sort_config(8 * 1024, 4);
    config.trace = TraceLevel::Wave;
    let piped = terasort_pipeline(corpus(5, 300), config).unwrap();
    validate_sorted_output(&piped.pairs, 300).unwrap();

    let trace = piped.report.trace.as_ref().expect("trace requested");
    trace.validate().expect("spans nest cleanly");
    let stage_starts: Vec<u32> = trace
        .ordered_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageStart { stage } => Some(stage),
            _ => None,
        })
        .collect();
    assert_eq!(stage_starts, vec![0, 1], "one span per stage, in dependency order");
    let stage_spans = trace.spans().iter().filter(|s| matches!(s.key, SpanKey::Stage(_))).count();
    assert_eq!(stage_spans, 2, "both stage spans close");

    // The Chrome export names the stage slices so they are visible in
    // a trace viewer.
    let chrome = to_chrome_json(trace);
    assert!(chrome.contains("stage 0"), "partition span exported");
    assert!(chrome.contains("stage 1"), "sort span exported");
}
