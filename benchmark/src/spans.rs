//! Spans recorded by the benchmark's own code around its calls into the
//! program. They stay in memory for the whole traced pass and are
//! written once, as JSON lines, when it ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use supmr_metrics::Json;

/// Where a span's interval came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a call it made.
    Bench,
    /// Durations the program reported (`JobReport`), laid end to end
    /// inside the benchmark-timed span of the call that returned them.
    JobReport,
}

impl Source {
    fn name(self) -> &'static str {
        match self {
            Source::Bench => "bench",
            Source::JobReport => "job_report",
        }
    }
}

pub type SpanId = u64;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub source: Source,
    /// Counts taken at the same boundary (bytes, pairs, elements).
    pub counts: Vec<(&'static str, u64)>,
}

/// The spans of one workload's traced pass.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans { workload: workload.to_string(), epoch: Instant::now(), spans: Vec::new() }
    }

    fn push(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        source: Source,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            source,
            counts: Vec::new(),
        });
        id
    }

    /// Nanoseconds since this recorder was made: the clock of every span.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// [`Spans::now_ns`] as it read at `instant` (0 before the recorder
    /// was made).
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a root span the caller timed: it started at `start_ns` (a
    /// value of [`Spans::now_ns`]) and took `took`.
    pub fn add_root(&mut self, name: &str, start_ns: u64, took: Duration) -> SpanId {
        self.push(None, name, start_ns, start_ns + took.as_nanos() as u64, Source::Bench)
    }

    /// Run `f` inside a new root span and return its result, the span and
    /// the time it took.
    pub fn root<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, SpanId, Duration) {
        let start = self.now_ns();
        let clock = Instant::now();
        let out = f();
        let took = clock.elapsed();
        (out, self.add_root(name, start, took), took)
    }

    /// Lay `parts` end to end inside `parent`, from its start, as child
    /// spans. A part that would run past the parent's end is cut there,
    /// so a child always lies inside its parent.
    pub fn lay_children(&mut self, parent: SpanId, source: Source, parts: &[(&str, Duration)]) {
        let (mut at, end) = {
            let p = &self.spans[parent as usize - 1];
            (p.start_ns, p.end_ns)
        };
        for &(name, duration) in parts {
            let stop = (at + duration.as_nanos() as u64).min(end);
            self.push(Some(parent), name, at, stop, source);
            at = stop;
        }
    }

    pub fn count(&mut self, span: SpanId, key: &'static str, value: u64) {
        self.spans[span as usize - 1].counts.push((key, value));
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed over the spans of that name.
    pub fn self_times_ns(&self) -> BTreeMap<String, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *by_name.entry(span.name.clone()).or_insert(0) +=
                (span.end_ns - span.start_ns).saturating_sub(covered);
        }
        by_name
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let counts = span.counts.iter().map(|&(k, v)| (k, Json::from(v))).collect::<Vec<_>>();
            let line = Json::obj(vec![
                ("id", Json::from(span.id)),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("workload", Json::str(&self.workload)),
                ("name", Json::str(&span.name)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("source", Json::str(span.source.name())),
                ("counts", Json::obj(counts)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_stay_inside_the_parent_and_self_time_subtracts_them() {
        let mut spans = Spans::new("w");
        let ((), job, took) = spans.root("job", || std::thread::sleep(Duration::from_millis(5)));
        spans.count(job, "bytes", 42);
        spans.lay_children(
            job,
            Source::JobReport,
            &[("map", took / 2), ("merge", took)], // merge overshoots and is cut
        );
        let all = spans.all();
        assert_eq!(all.len(), 3);
        for child in &all[1..] {
            assert_eq!(child.parent, Some(job));
            assert!(all[0].start_ns <= child.start_ns && child.end_ns <= all[0].end_ns);
        }
        assert_eq!(spans.self_times_ns()["job"], 0, "children cover the whole parent");
        let lines: Vec<Json> =
            spans.to_jsonl().lines().map(|l| Json::parse(l).expect("valid JSON line")).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("counts").unwrap().get("bytes").unwrap().as_f64(), Some(42.0));
        assert_eq!(lines[1].get("source").unwrap().as_str(), Some("job_report"));
    }
}
