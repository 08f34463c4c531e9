//! The whole benchmark at `--quick` scale: every metric is there and
//! finite on every workload, counts repeat, spans nest, the command
//! line round-trips through `run` and `compare`, and `BENCHMARK.json`
//! says what the code says.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use supmr_benchmark::measure::{end_to_end, per_layer, Outcome};
use supmr_benchmark::spec::{Scale, Workload, END_TO_END, PER_LAYER};
use supmr_benchmark::suite::spans_path;
use supmr_metrics::Json;

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("{name} was not reported"))
        .1
}

/// Per-layer metrics that must be measured (> 0) on a workload. Stall
/// totals, phases a workload skips and `serve.rejected` may honestly be 0
/// and are not listed.
fn driven(workload: Workload) -> Vec<&'static str> {
    let mut names = vec!["bench.trace_overhead_ratio", "pool.dispatch_us"];
    let text = ["storage.scan_ns_per_byte", "core.split_us", "apps.wc_map_ns_per_byte"];
    let sort_report = ["merge.elements_moved", "merge.rounds", "runtime.phase_merge_s"];
    names.extend(match workload {
        Workload::WcMem => {
            [&text[..], &["container.absorb_combine_mpairs_s", "metrics.overhead_ratio"]].concat()
        }
        Workload::WcDisk => [
            &text[..],
            &[
                "storage.source_read_mb_s",
                "storage.throttle_accuracy",
                "core.chunk_mb_s",
                "runtime.ingest_only_s",
                "runtime.map_only_s",
                "runtime.overlap_ratio",
                "runtime.original_over_pipeline",
                "runtime.phase_ingest_map_s",
                "governor.ratio_to_static",
            ],
        ]
        .concat(),
        Workload::SortMem => [
            &sort_report[..],
            &[
                "storage.record_ns_per_byte",
                "core.split_us",
                "apps.tera_map_ns_per_byte",
                "container.absorb_unique_mpairs_s",
                "container.drain_us",
                "merge.sort_ns_per_elem",
                "merge.kway_ns_per_elem",
                "merge.kway_seq_ns_per_elem",
                "merge.pairwise_ns_per_elem",
            ],
        ]
        .concat(),
        Workload::SortSpill => [
            &sort_report[..],
            &[
                "container.absorb_unique_mpairs_s",
                "storage.runstore_write_mb_s",
                "storage.runstore_read_mb_s",
                "spill.run_write_mb_s",
                "spill.run_read_mb_s",
                "spill.external_merge_mb_s",
                "spill.merge_fold_mb_s",
                "spill.runs",
                "spill.bytes",
                "spill.slowdown_ratio",
                "merge.loser_tree_ns_per_elem",
            ],
        ]
        .concat(),
        Workload::TeraDag => [
            &sort_report[..],
            &[
                "storage.record_ns_per_byte",
                "container.absorb_unique_mpairs_s",
                "merge.sort_ns_per_elem",
                "merge.kway_ns_per_elem",
                "dag.stage_partition_s",
                "dag.stage_sort_s",
                "dag.handoff_bytes",
                "dag.handoff_pairs",
                "dag.overhead_ratio",
            ],
        ]
        .concat(),
        Workload::ServeMix => vec![
            "serve.spec_decode_us",
            "serve.submit_ms_p50",
            "serve.status_ms_p50",
            "serve.job_latency_p90_s",
            "serve.overhead_ratio",
            "serve.jobs_per_s",
            "runtime.phase_ingest_map_s",
        ],
    });
    names
}

#[test]
fn every_metric_is_reported_finite_on_every_workload() {
    for workload in Workload::ALL {
        let timed = end_to_end(workload, 1, 0.0, Scale::quick()).expect("timed pass");
        assert_eq!(timed.failed, 0, "{}: {:?}", workload.name(), timed.errors);
        assert!(timed.attempted >= 2);
        assert_eq!(timed.metrics.len(), END_TO_END.len());
        for (metric, v) in &timed.metrics {
            assert!(v.is_finite() && *v > 0.0, "{} {} = {v}", workload.name(), metric.name);
        }

        let traced = per_layer(workload, 1, 0.0, Scale::quick()).expect("traced pass");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        for (metric, v) in &traced.metrics {
            assert!(v.is_finite() && *v >= 0.0, "{} {} = {v}", workload.name(), metric.name);
        }
        for name in driven(workload) {
            assert!(value(&traced, name) > 0.0, "{} does not measure {name}", workload.name());
        }
        // The layers a workload is built to leave idle stay idle.
        if workload != Workload::SortSpill {
            assert_eq!(value(&traced, "spill.bytes"), 0.0, "{}", workload.name());
        }
        if workload.reads_text() {
            assert_eq!(value(&traced, "merge.rounds"), 0.0);
            assert!(value(&traced, "runtime.phase_merge_s") < 1e-3, "unsorted output");
        }
        if matches!(workload, Workload::WcMem | Workload::SortMem) {
            assert_eq!(value(&traced, "runtime.map_waiting_s"), 0.0);
            assert_eq!(value(&traced, "runtime.ingest_waiting_s"), 0.0);
        }
    }
}

#[test]
fn program_counts_repeat_exactly_and_a_second_seed_verifies() {
    for workload in [Workload::SortMem, Workload::SortSpill, Workload::TeraDag] {
        let first = per_layer(workload, 7, 0.0, Scale::quick()).expect("first run");
        let again = per_layer(workload, 7, 0.0, Scale::quick()).expect("second run");
        for name in
            ["merge.elements_moved", "merge.rounds", "dag.handoff_pairs", "dag.handoff_bytes"]
        {
            assert_eq!(value(&first, name), value(&again, name), "{} {name}", workload.name());
        }
    }
    for workload in Workload::ALL {
        let timed = end_to_end(workload, 2, 0.0, Scale::quick()).expect("seed 2");
        assert_eq!(timed.failed, 0, "{}: {:?}", workload.name(), timed.errors);
    }
}

#[test]
fn spans_nest_inside_their_parents_within_one_workload() {
    for workload in [Workload::WcDisk, Workload::TeraDag, Workload::ServeMix] {
        let traced = per_layer(workload, 3, 0.0, Scale::quick()).expect("traced pass");
        let spans: Vec<Json> = traced
            .spans_jsonl
            .lines()
            .map(|line| Json::parse(line).expect("one JSON object per line"))
            .collect();
        assert!(!spans.is_empty());
        let field = |s: &Json, key: &str| s.get(key).and_then(Json::as_f64).unwrap();
        let by_id: HashMap<u64, &Json> = spans.iter().map(|s| (field(s, "id") as u64, s)).collect();
        assert_eq!(by_id.len(), spans.len(), "ids are unique");
        let mut children = 0;
        for span in &spans {
            assert_eq!(span.get("workload").and_then(Json::as_str), Some(workload.name()));
            assert!(field(span, "start_ns") <= field(span, "end_ns"));
            let source = span.get("source").and_then(Json::as_str).unwrap();
            assert!(source == "bench" || source == "job_report");
            if let Some(parent) = span.get("parent").and_then(Json::as_f64) {
                let parent = by_id[&(parent as u64)];
                assert!(field(parent, "start_ns") <= field(span, "start_ns"));
                assert!(field(span, "end_ns") <= field(parent, "end_ns"));
                children += 1;
            }
        }
        assert!(children > 0, "{}: the job span has program-reported children", workload.name());
        assert!(traced.self_times_ns.contains_key("job"));
    }
}

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_supmr-benchmark"))
        .args(args)
        .output()
        .expect("the binary runs")
}

#[test]
fn run_writes_results_and_spans_that_compare_equal_to_themselves() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = dir.join("quick-results.json");
    let run = benchmark(&["run", "--quick", "--seed", "5", "--out", out.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));

    let results = Json::parse(std::fs::read_to_string(&out).unwrap().trim()).unwrap();
    assert_eq!(results.get("schema").and_then(Json::as_str), Some("supmr.benchmark.v1"));
    let workloads = results.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(workload.name()));
        assert_eq!(entry.get("failed_share").and_then(Json::as_f64), Some(0.0));
        for metric in END_TO_END {
            let line = format!("{} {} ", workload.name(), metric.name);
            assert!(stdout.contains(&line), "run prints {line}");
            let unit = entry.get("end_to_end").unwrap().get(metric.name).unwrap().get("unit");
            assert_eq!(unit.and_then(Json::as_str), Some(metric.unit));
        }
        for metric in PER_LAYER {
            assert!(entry.get("per_layer").unwrap().get(metric.name).is_some(), "{}", metric.name);
        }
        assert!(entry.get("self_time_ns").unwrap().get("job").is_some());
    }
    let spans = std::fs::read_to_string(spans_path(&out)).unwrap();
    for workload in Workload::ALL {
        assert!(spans.contains(&format!(r#""workload":"{}""#, workload.name())));
    }

    let same = benchmark(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(same.status.success(), "{}", String::from_utf8_lossy(&same.stdout));
    assert!(!benchmark(&["compare", out.to_str().unwrap()]).status.success());
    assert!(!benchmark(&["--workload", "nope", "--seed", "1", "--trace", "0"]).status.success());
}

#[test]
fn driver_form_prints_the_result_object_last() {
    let child = Command::new(env!("CARGO_BIN_EXE_supmr-benchmark"))
        .args([
            "--workload",
            "sort_spill",
            "--seed",
            "9",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--quick",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("the binary runs");
    let scratch = Path::new(".bench_tmp").join(format!("supmr-benchmark-{}-0", child.id()));
    let run = child.wait_with_output().unwrap();
    assert!(run.status.success());
    assert!(!scratch.exists(), "the run left {} behind", scratch.display());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let result = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let Json::Obj(fields) = &result else { panic!("the result is an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("metrics is an object") };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
}

#[test]
fn benchmark_json_states_the_same_tables_as_the_code() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let Json::Obj(fields) = &contract else { panic!("an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);

    let workloads = contract.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<String> = workloads.iter().filter_map(|w| text(w, "name")).collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    assert!(workloads.iter().all(|w| text(w, "why").is_some_and(|why| why.len() <= 200)));

    for (block, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = contract.get(block).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), table.len(), "{block}");
        for (entry, metric) in listed.iter().zip(table) {
            assert_eq!(text(entry, "name").as_deref(), Some(metric.name));
            assert_eq!(text(entry, "unit").as_deref(), Some(metric.unit), "{}", metric.name);
            assert_eq!(
                text(entry, "better").as_deref(),
                Some(metric.better.name()),
                "{}",
                metric.name
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), metric.bound, "{}", metric.name);
        }
    }
}
