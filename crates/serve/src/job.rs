//! Per-job state inside the daemon: identity, lifecycle, per-job
//! observability facilities, and the finished output summary.

use crate::spec::JobSpec;
use std::sync::{Arc, Mutex};
use supmr::runtime::{ActiveConfig, JobReport};
use supmr_metrics::{unpoisoned, Json, Registry, TraceRing};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a runner slot.
    Queued,
    /// Executing on the shared pool.
    Running,
    /// Finished successfully; output and report are available.
    Completed,
    /// Finished with an error.
    Failed,
    /// Cancelled (while queued, or cooperatively mid-run).
    Cancelled,
}

impl JobStatus {
    /// The wire name used in status JSON.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled)
    }
}

/// The independently-checkable summary of a finished job's output: the
/// pair count, an order-independent digest over the sorted pairs, and a
/// short human preview. Clients verify correctness by digest without
/// shipping the whole output over the status endpoint.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Reduced output pairs produced.
    pub pairs: u64,
    /// `fnv1a:<16 hex>` over the key-sorted pair stream.
    pub digest: String,
    /// The first few pairs, rendered one per line.
    pub preview: Vec<String>,
}

/// Mutable lifecycle state, guarded by the handle's mutex.
struct JobState {
    status: JobStatus,
    error: Option<String>,
    output: Option<JobOutput>,
    report: Option<JobReport>,
}

/// One submitted job, shared between the HTTP surface, the queue, and
/// the runner that executes it. The observability facilities (registry,
/// trace ring, dynamic knobs) exist from admission, so a queued job
/// already answers status and scrape requests.
pub struct JobHandle {
    /// Server-assigned id (`job-N`) — path segment and `job_id` label.
    pub id: String,
    /// Monotonic admission number behind the id.
    pub seq: u64,
    /// The decoded submission.
    pub spec: JobSpec,
    /// Job-private metric families, merged into `/metrics` under this
    /// job's `job_id` label.
    pub registry: Registry,
    /// Bounded event ring behind `/debug/trace` and `/debug/governor`.
    pub ring: Arc<TraceRing>,
    /// Dynamic knobs: the cancel flag, the fair-share width cap, and
    /// the governor's actuation surface.
    pub active: Arc<ActiveConfig>,
    state: Mutex<JobState>,
}

impl JobHandle {
    /// Admit `spec` as job number `seq` with `workers`-wide initial
    /// scheduling knobs.
    pub fn new(seq: u64, spec: JobSpec, map_workers: usize, reduce_workers: usize) -> JobHandle {
        JobHandle {
            id: format!("job-{seq}"),
            seq,
            active: Arc::new(ActiveConfig::new(map_workers, reduce_workers, 1)),
            registry: Registry::new(),
            ring: TraceRing::new(TraceRing::DEFAULT_CAP),
            spec,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                error: None,
                output: None,
                report: None,
            }),
        }
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        unpoisoned(self.state.lock()).status
    }

    /// Move to `Running` — only from `Queued`. Returns `false` when the
    /// job was cancelled while waiting (the runner then skips it).
    pub fn begin(&self) -> bool {
        let mut s = unpoisoned(self.state.lock());
        if s.status != JobStatus::Queued {
            return false;
        }
        s.status = JobStatus::Running;
        true
    }

    /// Record a successful completion.
    pub fn complete(&self, output: JobOutput, report: JobReport) {
        let mut s = unpoisoned(self.state.lock());
        s.status = JobStatus::Completed;
        s.output = Some(output);
        s.report = Some(report);
    }

    /// Record a failure (or a cooperative cancellation surfacing as
    /// [`supmr::SupmrError::Cancelled`]).
    pub fn fail(&self, error: &supmr::SupmrError) {
        let mut s = unpoisoned(self.state.lock());
        s.status = match error {
            supmr::SupmrError::Cancelled => JobStatus::Cancelled,
            _ => JobStatus::Failed,
        };
        s.error = Some(error.to_string());
    }

    /// Request cancellation: a queued job is cancelled outright; a
    /// running job gets its cooperative flag raised and starts no map
    /// or reduce task after it. Returns `false` when already terminal.
    pub fn cancel(&self) -> bool {
        let mut s = unpoisoned(self.state.lock());
        match s.status {
            JobStatus::Queued => {
                s.status = JobStatus::Cancelled;
                s.error = Some("cancelled before start".to_string());
                true
            }
            JobStatus::Running => {
                self.active.cancel();
                true
            }
            _ => false,
        }
    }

    /// The `GET /jobs/{id}` body: identity, lifecycle, and — once
    /// terminal — the output summary and the full
    /// `supmr.job_report.v1` report.
    pub fn status_json(&self) -> Json {
        let s = unpoisoned(self.state.lock());
        let mut fields = vec![
            ("schema", Json::str("supmr.job_status.v1")),
            ("id", Json::str(&self.id)),
            ("app", Json::str(self.spec.app.name())),
            ("priority", Json::str(self.spec.priority.name())),
            ("status", Json::str(s.status.name())),
        ];
        if let Some(name) = &self.spec.name {
            fields.insert(2, ("name", Json::str(name)));
        }
        if let Some(err) = &s.error {
            fields.push(("error", Json::str(err)));
        }
        if let Some(out) = &s.output {
            fields.push((
                "output",
                Json::obj(vec![
                    ("pairs", Json::from(out.pairs)),
                    ("digest", Json::str(&out.digest)),
                    ("preview", Json::Arr(out.preview.iter().map(Json::str).collect())),
                ]),
            ));
        }
        if let Some(report) = &s.report {
            fields.push(("report", report.to_json()));
        }
        Json::obj(fields)
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("app", &self.spec.app.name())
            .field("status", &self.status().name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    fn handle() -> JobHandle {
        JobHandle::new(1, JobSpec::default(), 2, 2)
    }

    #[test]
    fn lifecycle_transitions() {
        let j = handle();
        assert_eq!(j.status(), JobStatus::Queued);
        assert!(j.begin());
        assert_eq!(j.status(), JobStatus::Running);
        assert!(!j.begin(), "begin is one-shot");
        j.complete(
            JobOutput { pairs: 3, digest: "fnv1a:0".into(), preview: vec![] },
            JobReport::default(),
        );
        assert_eq!(j.status(), JobStatus::Completed);
        assert!(j.status().is_terminal());
        assert!(!j.cancel(), "terminal jobs cannot be cancelled");
    }

    #[test]
    fn queued_cancel_is_immediate_and_running_cancel_is_cooperative() {
        let j = handle();
        assert!(j.cancel());
        assert_eq!(j.status(), JobStatus::Cancelled);
        assert!(!j.begin(), "a cancelled job never starts");

        let j = handle();
        j.begin();
        assert!(j.cancel());
        assert_eq!(j.status(), JobStatus::Running, "running cancel is a request");
        assert!(j.active.is_cancelled(), "the cooperative flag is raised");
    }

    #[test]
    fn status_json_carries_identity_and_outcome() {
        let j =
            JobHandle::new(4, JobSpec { name: Some("my job".into()), ..JobSpec::default() }, 2, 2);
        let json = j.status_json();
        assert_eq!(json.get("id").unwrap().as_str(), Some("job-4"));
        assert_eq!(json.get("name").unwrap().as_str(), Some("my job"));
        assert_eq!(json.get("status").unwrap().as_str(), Some("queued"));
        assert!(json.get("report").is_none(), "no report before completion");

        j.begin();
        j.complete(
            JobOutput { pairs: 9, digest: "fnv1a:abc".into(), preview: vec!["a 1".into()] },
            JobReport::default(),
        );
        let json = j.status_json();
        assert_eq!(json.get("status").unwrap().as_str(), Some("completed"));
        let out = json.get("output").expect("output");
        assert_eq!(out.get("pairs").unwrap().as_f64(), Some(9.0));
        assert_eq!(out.get("digest").unwrap().as_str(), Some("fnv1a:abc"));
        let report = json.get("report").expect("report");
        assert_eq!(report.get("schema").unwrap().as_str(), Some("supmr.job_report.v1"));
    }
}
