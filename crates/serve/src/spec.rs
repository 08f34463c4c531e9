//! The job submission spec: what a `POST /jobs` body may say.
//!
//! Decoding is hand-rolled over the dependency-free
//! [`Json`] value model — the same serde-free posture as the rest of
//! the observability stack — and size/duration strings go through the
//! hardened [`supmr::parse`] module the CLI uses, so `"64K"` means the
//! same thing on the wire as it does on the command line.

use supmr_metrics::Json;

/// Decode failure: what was wrong with the submitted spec. Rendered
/// into the `400 Bad Request` body verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Which bundled application a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    /// Hash-container word count (ingest-bound).
    WordCount,
    /// Map-side pattern matching.
    Grep,
    /// 100-byte-record sort (merge-bound).
    TeraSort,
}

impl AppSpec {
    /// The wire name, as accepted in `"app"` and echoed in status JSON.
    pub fn name(self) -> &'static str {
        match self {
            AppSpec::WordCount => "wordcount",
            AppSpec::Grep => "grep",
            AppSpec::TeraSort => "terasort",
        }
    }
}

/// Admission priority class. Higher classes get a larger fair-share
/// weight for pool slots and budget partitions, and leave the queue
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Background work: smallest share, dispatched last.
    Low,
    /// The default class.
    Normal,
    /// Latency-sensitive work: largest share, dispatched first.
    High,
}

impl Priority {
    /// Fair-share weight: how many shares of the pool and of the global
    /// memory budget this class holds relative to its neighbors.
    pub fn weight(self) -> usize {
        match self {
            Priority::High => 4,
            Priority::Normal => 2,
            Priority::Low => 1,
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// A decoded job submission. Every field beyond `app` has a default, so
/// `{"app":"wordcount"}` is a complete spec.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Which application to run.
    pub app: AppSpec,
    /// Client-chosen label, echoed in status JSON (never the job id —
    /// ids are server-assigned, so a hostile name stays a label value).
    pub name: Option<String>,
    /// Admission class.
    pub priority: Priority,
    /// Bytes of input to generate (`"generate"`: a size string or
    /// number). Jobs run on generated workloads so the service stays
    /// deterministic and self-contained.
    pub input_bytes: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Mapper threads (before fair-share capping). `None` uses the
    /// daemon's per-job default.
    pub map_workers: Option<usize>,
    /// Reducer threads (before fair-share capping).
    pub reduce_workers: Option<usize>,
    /// Upper bound on the input split size in bytes.
    pub split_bytes: Option<u64>,
    /// Ingest chunk size in bytes. `Some` runs the ingest pipeline in
    /// chunks of this size (inter-file chunking), one map wave each;
    /// `None` maps the resident input in one wave, since a generated
    /// input has no read for chunks to hide.
    pub chunk_bytes: Option<u64>,
    /// Job-requested memory budget. Under a daemon-wide budget the
    /// tenant partition governs instead; this engages out-of-core
    /// execution when the daemon has no global budget.
    pub memory_budget: Option<u64>,
    /// Container hash seed, for reproducible placement.
    pub hash_seed: Option<u64>,
    /// Patterns for [`AppSpec::Grep`].
    pub patterns: Vec<String>,
    /// Run the per-job feedback governor (actuates within the job's
    /// fair share).
    pub governor: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            app: AppSpec::WordCount,
            name: None,
            priority: Priority::Normal,
            input_bytes: 1024 * 1024,
            seed: 42,
            map_workers: None,
            reduce_workers: None,
            split_bytes: None,
            chunk_bytes: None,
            memory_budget: None,
            hash_seed: None,
            patterns: Vec::new(),
            governor: false,
        }
    }
}

/// A size-ish field: either a JSON number of bytes or a size string
/// (`"64K"`, `"1.5M"`) parsed by [`supmr::parse_size`].
fn size_field(value: &Json, field: &str) -> Result<u64, SpecError> {
    match value {
        Json::Str(s) => supmr::parse_size(s).map_err(|e| bad(format!("{field}: {}", e.0))),
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => Ok(*n as u64),
        _ => Err(bad(format!("{field}: expected a byte count or size string"))),
    }
}

/// A size the job cannot run at zero: rejected here rather than queued
/// to fail `JobConfig::validate` later.
fn nonzero_size_field(value: &Json, field: &str) -> Result<u64, SpecError> {
    match size_field(value, field)? {
        0 => Err(bad(format!("{field}: must be non-zero"))),
        n => Ok(n),
    }
}

fn uint_field(value: &Json, field: &str) -> Result<u64, SpecError> {
    match value {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => Ok(*n as u64),
        _ => Err(bad(format!("{field}: expected a non-negative integer"))),
    }
}

impl JobSpec {
    /// Decode a `POST /jobs` body. Unknown fields are rejected — a
    /// typoed knob silently ignored is a misconfigured job.
    pub fn from_json_bytes(body: &[u8]) -> Result<JobSpec, SpecError> {
        let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        let json = Json::parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        JobSpec::from_json(&json)
    }

    /// Decode an already-parsed [`Json`] object.
    pub fn from_json(json: &Json) -> Result<JobSpec, SpecError> {
        let Json::Obj(fields) = json else { return Err(bad("spec must be a JSON object")) };
        let mut spec = JobSpec::default();
        let mut saw_app = false;
        for (key, value) in fields {
            match key.as_str() {
                "app" => {
                    saw_app = true;
                    spec.app = match value.as_str() {
                        Some("wordcount") => AppSpec::WordCount,
                        Some("grep") => AppSpec::Grep,
                        Some("terasort") => AppSpec::TeraSort,
                        Some(other) => return Err(bad(format!("unknown app '{other}'"))),
                        None => return Err(bad("app: expected a string")),
                    };
                }
                "name" => {
                    spec.name = Some(
                        value.as_str().ok_or_else(|| bad("name: expected a string"))?.to_string(),
                    );
                }
                "priority" => {
                    spec.priority = match value.as_str() {
                        Some("high") => Priority::High,
                        Some("normal") => Priority::Normal,
                        Some("low") => Priority::Low,
                        _ => return Err(bad("priority: expected high, normal, or low")),
                    };
                }
                "generate" => {
                    spec.input_bytes = size_field(value, "generate")?;
                    if spec.input_bytes == 0 {
                        return Err(bad("generate: input must be non-empty"));
                    }
                }
                "seed" => spec.seed = uint_field(value, "seed")?,
                "workers" => {
                    let w = uint_field(value, "workers")? as usize;
                    spec.map_workers = Some(w);
                    spec.reduce_workers = Some(w);
                }
                "map_workers" => {
                    spec.map_workers = Some(uint_field(value, "map_workers")? as usize)
                }
                "reduce_workers" => {
                    spec.reduce_workers = Some(uint_field(value, "reduce_workers")? as usize)
                }
                "split" => spec.split_bytes = Some(nonzero_size_field(value, "split")?),
                "chunk" => spec.chunk_bytes = Some(nonzero_size_field(value, "chunk")?),
                "memory_budget" => {
                    spec.memory_budget = Some(nonzero_size_field(value, "memory_budget")?)
                }
                "hash_seed" => spec.hash_seed = Some(uint_field(value, "hash_seed")?),
                "patterns" => {
                    let arr = value.as_arr().ok_or_else(|| bad("patterns: expected an array"))?;
                    spec.patterns = arr
                        .iter()
                        .map(|p| {
                            p.as_str()
                                .map(String::from)
                                .ok_or_else(|| bad("patterns: expected strings"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "pattern" => {
                    spec.patterns = vec![value
                        .as_str()
                        .ok_or_else(|| bad("pattern: expected a string"))?
                        .to_string()];
                }
                "governor" => {
                    spec.governor = match value {
                        Json::Bool(b) => *b,
                        _ => return Err(bad("governor: expected a boolean")),
                    };
                }
                other => return Err(bad(format!("unknown field '{other}'"))),
            }
        }
        if !saw_app {
            return Err(bad("missing required field 'app'"));
        }
        if spec.app == AppSpec::Grep && spec.patterns.is_empty() {
            return Err(bad("grep needs at least one pattern"));
        }
        if spec.map_workers == Some(0) || spec.reduce_workers == Some(0) {
            return Err(bad("worker counts must be non-zero"));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use supmr_workloads::check::check;

    #[test]
    fn minimal_spec_decodes_with_defaults() {
        let spec = JobSpec::from_json_bytes(br#"{"app":"wordcount"}"#).expect("decode");
        assert_eq!(spec.app, AppSpec::WordCount);
        assert_eq!(spec.priority, Priority::Normal);
        assert_eq!(spec.input_bytes, 1024 * 1024);
        assert_eq!(spec.seed, 42);
        assert!(!spec.governor);
    }

    #[test]
    fn full_spec_decodes_sizes_and_priorities() {
        let body = br#"{
            "app": "terasort", "name": "nightly sort", "priority": "high",
            "generate": "2M", "seed": 7, "workers": 3, "split": "64K",
            "chunk": "256K", "memory_budget": "512K", "hash_seed": 9,
            "governor": true
        }"#;
        let spec = JobSpec::from_json_bytes(body).expect("decode");
        assert_eq!(spec.app, AppSpec::TeraSort);
        assert_eq!(spec.name.as_deref(), Some("nightly sort"));
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.input_bytes, 2 * 1024 * 1024);
        assert_eq!(spec.map_workers, Some(3));
        assert_eq!(spec.reduce_workers, Some(3));
        assert_eq!(spec.split_bytes, Some(64 * 1024));
        assert_eq!(spec.chunk_bytes, Some(256 * 1024));
        assert_eq!(spec.memory_budget, Some(512 * 1024));
        assert_eq!(spec.hash_seed, Some(9));
        assert!(spec.governor);
    }

    #[test]
    fn numeric_sizes_are_accepted() {
        let spec =
            JobSpec::from_json_bytes(br#"{"app":"wordcount","generate":4096}"#).expect("decode");
        assert_eq!(spec.input_bytes, 4096);
    }

    #[test]
    fn hostile_specs_are_rejected_with_reasons() {
        for (body, needle) in [
            (&br#"{"app":"sort"}"#[..], "unknown app"),
            (br#"{}"#, "missing required field"),
            (br#"{"app":"wordcount","typo":1}"#, "unknown field"),
            (br#"{"app":"wordcount","generate":"-4K"}"#, "generate"),
            (br#"{"app":"wordcount","generate":0}"#, "non-empty"),
            (br#"{"app":"wordcount","workers":0}"#, "non-zero"),
            (br#"{"app":"wordcount","split":0}"#, "split: must be non-zero"),
            (br#"{"app":"wordcount","chunk":"0K"}"#, "chunk: must be non-zero"),
            (br#"{"app":"terasort","memory_budget":0}"#, "memory_budget: must be non-zero"),
            (br#"{"app":"grep"}"#, "pattern"),
            (br#"{"app":"wordcount","priority":"urgent"}"#, "priority"),
            (br#"not json"#, "invalid JSON"),
            (b"\xff\xfe", "UTF-8"),
        ] {
            let err = JobSpec::from_json_bytes(body).expect_err("must reject");
            assert!(err.0.contains(needle), "{body:?}: {err}");
        }
    }

    #[test]
    fn grep_accepts_single_and_plural_patterns() {
        let one = JobSpec::from_json_bytes(br#"{"app":"grep","pattern":"the"}"#).unwrap();
        assert_eq!(one.patterns, vec!["the".to_string()]);
        let two = JobSpec::from_json_bytes(br#"{"app":"grep","patterns":["a","b"]}"#).unwrap();
        assert_eq!(two.patterns, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn a_mebibyte_name_decodes_in_linear_time() {
        let name = "nightly é 漢 \"sort\"\t".repeat(1 << 16);
        assert!(name.len() >= 1 << 20);
        let body =
            Json::obj(vec![("app", Json::str("wordcount")), ("name", Json::str(name.as_str()))]);
        let start = Instant::now();
        let spec = JobSpec::from_json_bytes(body.render().as_bytes()).expect("decode");
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
        assert_eq!(spec.name.as_deref(), Some(name.as_str()));
    }

    #[test]
    fn hostile_bodies_are_an_error_never_a_panic() {
        let sample = br#"{"app":"grep","name":"n\u00e9","priority":"high","generate":"2M",
            "seed":7,"workers":3,"split":"64K","chunk":"256K","memory_budget":"512K",
            "hash_seed":9,"governor":true,"patterns":["a","b"]}"#;
        assert!(JobSpec::from_json_bytes(sample).is_ok());
        check("hostile_bodies_are_an_error_never_a_panic", 256, |g| {
            for body in [g.vec(0..64, |g| g.range(..)), g.edited(sample)] {
                let _ = JobSpec::from_json_bytes(&body);
            }
        });
    }

    #[test]
    fn priority_weights_are_ordered() {
        assert!(Priority::High.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Low.weight());
    }
}
