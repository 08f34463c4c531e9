//! `compare A.json B.json`: B against A, one row per workload and
//! end-to-end metric, by the bounds the benchmark fixed.

use crate::spec::{Better, Workload, END_TO_END};
use crate::stats::iqr_share;
use supmr_metrics::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both files' spreads are too.
    Within,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The inter-quartile spread of the runs inside one of the files
    /// exceeds the bound, so a difference within it shows nothing.
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A by which B is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    /// The wider of the two files' inter-quartile spreads, as a share of
    /// the median; `None` when neither file holds two runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

#[derive(Debug)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from A to B.
    pub failure_rose: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.failure_rose.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<11} {:<15} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict\n",
            "workload", "metric", "A", "B", "worse by", "bound", "spread"
        );
        for r in &self.rows {
            let spread = r.spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let verdict = match r.verdict {
                Verdict::Within => "within bound",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            };
            out.push_str(&format!(
                "{:<11} {:<15} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}% {:>8}  {verdict} ({})\n",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse_by * 100.0,
                r.bound * 100.0,
                spread,
                r.unit
            ));
        }
        for workload in &self.failure_rose {
            out.push_str(&format!("{workload}: failed share rose\n"));
        }
        out
    }
}

fn workload_entry<'j>(file: &'j Json, name: &str) -> Option<&'j Json> {
    file.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn failed_share(entry: &Json) -> Option<f64> {
    let attempted = entry.get("attempted")?.as_f64()?;
    Some(entry.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// `(median, every run's value)` of one metric of one workload.
fn metric_values(entry: &Json, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = entry.get("end_to_end")?.get(metric)?;
    let values = m.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    Some((m.get("value")?.as_f64()?, values))
}

/// Compare two results files of `supmr-benchmark run`.
///
/// # Errors
/// A workload or metric missing from either file.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut comparison = Comparison { rows: Vec::new(), failure_rose: Vec::new() };
    for workload in Workload::ALL.map(Workload::name) {
        let missing = |file: &str| format!("{workload} is missing from {file}");
        let entry_a = workload_entry(a, workload).ok_or_else(|| missing("A"))?;
        let entry_b = workload_entry(b, workload).ok_or_else(|| missing("B"))?;
        let (failed_a, failed_b) = (
            failed_share(entry_a).ok_or_else(|| missing("A"))?,
            failed_share(entry_b).ok_or_else(|| missing("B"))?,
        );
        if failed_b > failed_a {
            comparison.failure_rose.push(workload.to_string());
        }
        for metric in END_TO_END {
            let missing = |file: &str| format!("{workload}/{} is missing from {file}", metric.name);
            let (value_a, runs_a) =
                metric_values(entry_a, metric.name).ok_or_else(|| missing("A"))?;
            let (value_b, runs_b) =
                metric_values(entry_b, metric.name).ok_or_else(|| missing("B"))?;
            let change = (value_b - value_a) / value_a;
            let worse_by = match metric.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let spread = match (iqr_share(&runs_a), iqr_share(&runs_b)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = if worse_by > bound {
                Verdict::Regressed
            } else if spread.is_some_and(|s| s > bound) {
                Verdict::Unresolved
            } else {
                Verdict::Within
            };
            comparison.rows.push(Row {
                workload,
                metric: metric.name,
                unit: metric.unit,
                a: value_a,
                b: value_b,
                worse_by,
                bound,
                spread,
                verdict,
            });
        }
    }
    Ok(comparison)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file in which every workload has the same three runs of
    /// every metric, scaled by `scale`, except `job_wall_s` of `sort_mem`,
    /// whose runs are given.
    fn file(scale: f64, sort_mem_wall: [f64; 3], sort_mem_failed: u64) -> Json {
        let runs = |values: [f64; 3]| {
            let mut sorted = values;
            sorted.sort_by(f64::total_cmp);
            Json::obj(vec![
                ("unit", Json::str("x")),
                ("value", Json::from(sorted[1])),
                ("values", Json::Arr(values.iter().map(|&v| Json::from(v)).collect())),
            ])
        };
        let workloads = Workload::ALL
            .map(Workload::name)
            .iter()
            .map(|&name| {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| {
                        let values = if name == "sort_mem" && m.name == "job_wall_s" {
                            sort_mem_wall
                        } else {
                            [1.0 * scale, 1.01 * scale, 1.02 * scale]
                        };
                        (m.name, runs(values))
                    })
                    .collect();
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("attempted", Json::from(10u64)),
                    ("failed", Json::from(if name == "sort_mem" { sort_mem_failed } else { 0 })),
                    ("end_to_end", Json::obj(metrics)),
                ])
            })
            .collect();
        Json::obj(vec![("workloads", Json::Arr(workloads))])
    }

    fn sort_mem_wall(c: &Comparison) -> &Row {
        c.rows.iter().find(|r| r.workload == "sort_mem" && r.metric == "job_wall_s").unwrap()
    }

    /// Three runs around `centre`, 1 % apart.
    fn around(centre: f64) -> [f64; 3] {
        [centre * 0.99, centre, centre * 1.01]
    }

    fn wall_bound() -> f64 {
        END_TO_END.iter().find(|m| m.name == "job_wall_s").unwrap().bound.unwrap()
    }

    #[test]
    fn a_difference_within_the_bound_passes() {
        let a = file(1.0, around(1.0), 0);
        let b = file(1.0, around(1.0 + wall_bound() / 2.0), 0);
        let c = compare(&a, &b).unwrap();
        assert!(c.passed(), "{}", c.render());
        let row = sort_mem_wall(&c);
        assert_eq!(row.verdict, Verdict::Within);
        assert!((row.worse_by - wall_bound() / 2.0).abs() < 1e-9);
        assert_eq!(c.rows.len(), Workload::ALL.len() * END_TO_END.len());
    }

    #[test]
    fn a_difference_beyond_the_bound_fails_and_its_direction_matters() {
        let a = file(1.0, around(1.0), 0);
        let slower = file(1.0, around(1.0 + wall_bound() + 0.05), 0);
        let c = compare(&a, &slower).unwrap();
        assert!(!c.passed());
        assert_eq!(sort_mem_wall(&c).verdict, Verdict::Regressed);
        // The same change the other way is an improvement, not a failure.
        assert!(compare(&slower, &a).unwrap().passed());
        // Every metric 40 % lower: the higher-is-better one regresses, the
        // lower-is-better ones improve.
        let c = compare(&file(1.0, around(1.0), 0), &file(0.6, around(1.0), 0)).unwrap();
        let of = |metric: &str| {
            c.rows.iter().find(|r| r.metric == metric && r.workload == "wc_mem").unwrap().verdict
        };
        assert_eq!(of("input_mb_per_s"), Verdict::Regressed);
        assert_eq!(of("job_wall_s"), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let wide = wall_bound() + 0.1;
        let a = file(1.0, [1.0 - wide, 1.0, 1.0 + wide], 0);
        let b = file(1.0, around(1.0), 0);
        let c = compare(&a, &b).unwrap();
        let row = sort_mem_wall(&c);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread.unwrap() > row.bound);
        assert!(c.passed(), "unresolved is reported, not failed");
        assert!(c.render().contains("unresolved"));
    }

    #[test]
    fn a_rise_in_failures_fails() {
        let a = file(1.0, [1.0; 3], 0);
        let b = file(1.0, [1.0; 3], 1);
        let c = compare(&a, &b).unwrap();
        assert!(!c.passed());
        assert_eq!(c.failure_rose, vec!["sort_mem".to_string()]);
        assert!(compare(&b, &a).unwrap().passed(), "a fall in failures passes");
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let a = file(1.0, [1.0; 3], 0);
        assert!(compare(&a, &Json::obj(vec![("workloads", Json::Arr(vec![]))])).is_err());
    }
}
