//! The service's core correctness property (satellite of the job-service
//! PR): running K jobs **concurrently** — sharing one persistent worker
//! pool, fair-share width caps, and one partitioned memory budget small
//! enough to force tenants out of core — produces, for every job, output
//! byte-identical to the same spec run **sequentially in isolation**
//! (private single-worker pool, no budget). Neither multi-tenancy nor
//! spilling is allowed to change any answer.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use supmr_serve::{
    reference_output, AppSpec, JobSpec, JobStatus, Priority, Scheduler, ServeConfig,
};

/// Build the i-th randomized spec of a batch. TeraSort sizes are whole
/// 100-byte records; grep always carries the corpus's rank-0 word so
/// its output is non-trivial.
fn spec_for(app_pick: usize, seed: u64, size_pick: u64) -> JobSpec {
    let app = [AppSpec::WordCount, AppSpec::TeraSort, AppSpec::Grep][app_pick % 3];
    let input_bytes = match app {
        AppSpec::TeraSort => 100 * (100 + size_pick % 400),
        _ => 16 * 1024 + (size_pick % 5) * 16 * 1024,
    };
    JobSpec {
        app,
        seed,
        input_bytes,
        priority: [Priority::Low, Priority::Normal, Priority::High][(seed % 3) as usize],
        patterns: if app == AppSpec::Grep { vec!["ca".to_string()] } else { vec![] },
        ..JobSpec::default()
    }
}

/// Digest + pair count as reported over the status surface.
fn served_output(json: &supmr_metrics::Json) -> (String, f64) {
    let out = json.get("output").expect("completed job has output");
    (
        out.get("digest").unwrap().as_str().unwrap().to_string(),
        out.get("pairs").unwrap().as_f64().unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn concurrent_partitioned_runs_equal_sequential_isolated_runs(
        picks in proptest::collection::vec(any::<u64>(), 2..5),
        budget_kib in 24u64..96,
    ) {
        let specs: Vec<JobSpec> = picks
            .iter()
            .enumerate()
            .map(|(i, p)| spec_for((p % 97) as usize + i, p ^ 0x9e37, p >> 7))
            .collect();

        // Sequential oracle: each spec alone on a private 1-wide pool,
        // no memory budget.
        let oracles: Vec<_> = specs
            .iter()
            .map(|s| reference_output(s).expect("isolated run"))
            .collect();

        // Concurrent system under test: every spec at once, sharing one
        // pool and one deliberately tight budget partitioned across
        // tenants by priority weight.
        let scheduler = Scheduler::start(ServeConfig {
            workers: 4,
            max_concurrent: specs.len(),
            queue_depth: specs.len() + 1,
            memory_budget: Some(budget_kib * 1024),
            default_job_workers: 2,
        });
        let handles: Vec<_> = specs
            .iter()
            .map(|s| scheduler.submit(s.clone()).expect("admitted"))
            .collect();
        prop_assert!(scheduler.wait_idle(Duration::from_secs(120)), "batch settled");

        for (i, (handle, oracle)) in handles.iter().zip(&oracles).enumerate() {
            prop_assert_eq!(
                handle.status(),
                JobStatus::Completed,
                "job {} ({}) finished: {}",
                i,
                specs[i].app.name(),
                handle.status_json().render()
            );
            let (digest, pairs) = served_output(&handle.status_json());
            prop_assert_eq!(
                &digest,
                &oracle.digest,
                "job {} under shared pool + partitioned budget answers what isolation answers",
                i
            );
            prop_assert_eq!(pairs, oracle.pairs as f64);
        }
        scheduler.shutdown(Duration::from_secs(30));
    }
}

/// Two sorting tenants on a 2-thread pool and a 2-slot fair share: the
/// merges run on the shared pool like every other wave — the in-flight
/// gauge sees them, there is nowhere else for them to run — so the box
/// never carries more running tasks than the pool has threads.
#[test]
fn two_sorting_tenants_merge_on_the_shared_pool() {
    let scheduler = Scheduler::start(ServeConfig {
        workers: 2,
        max_concurrent: 2,
        queue_depth: 3,
        memory_budget: None,
        default_job_workers: 2,
    });
    let in_flight = supmr::PoolMetrics::register(scheduler.registry()).in_flight;
    let done = AtomicBool::new(false);
    let (peak, handles) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Acquire) {
                peak = peak.max(in_flight.value());
                std::thread::yield_now();
            }
            peak
        });
        let handles = [1u64, 2].map(|seed| {
            let spec = JobSpec {
                app: AppSpec::TeraSort,
                seed,
                input_bytes: 100 * 20_000,
                ..JobSpec::default()
            };
            scheduler.submit(spec).expect("admitted")
        });
        let settled = scheduler.wait_idle(Duration::from_secs(120));
        done.store(true, Ordering::Release);
        assert!(settled, "both tenants settled");
        (sampler.join().expect("sampler"), handles)
    });
    assert!((1..=2).contains(&peak), "pool in-flight peaked at {peak} on 2 threads");
    assert_eq!(in_flight.value(), 0, "nothing left running");
    for handle in &handles {
        let status = handle.status_json();
        assert_eq!(handle.status(), JobStatus::Completed, "{}", status.render());
        let stats = status.get("report").and_then(|r| r.get("stats")).expect("report stats");
        assert_eq!(stats.get("merge_rounds").and_then(|v| v.as_f64()), Some(1.0));
        // Map, reduce, run-formation and merge waves all dispatched to
        // the host's threads; the job spawned only its ingest threads.
        assert!(stats.get("threads_reused").and_then(|v| v.as_f64()) >= Some(4.0));
    }
    scheduler.shutdown(Duration::from_secs(30));
}
