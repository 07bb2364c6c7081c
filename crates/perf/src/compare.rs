//! `perf_gate --compare A.json B.json`: do two result sets agree?
//!
//! Per workload it prints, for every end-to-end metric, both medians over
//! the untraced runs, how much worse B is than A, and whether that is inside
//! the metric's bound; then the same for `failed_share` (failed ÷ attempted
//! over all of the workload's runs, bound 0) and for the per-layer metrics
//! in [`GATED`], read from the traced runs: answer recall, the segment's
//! size and the simulated results, which repeat exactly for a seed, so a
//! change that only claims speed may not move them. Where A's own runs
//! spread wider than the bound, an in-bound difference shows nothing and
//! the row reads "unresolved".

use crate::catalogue::{END_TO_END, GATED, PER_LAYER};
use crate::report::{ResultSet, RunRecord};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A; negative when better.
    pub worse_by: f64,
    pub bound: f64,
    /// Interquartile range of A's runs as a share of their median, when A
    /// has enough runs to have one.
    pub spread_a: Option<f64>,
}

impl Row {
    pub fn within_bound(&self) -> bool {
        self.worse_by <= self.bound
    }

    /// Inside the bound, but A's runs differ among themselves by more.
    pub fn unresolved(&self) -> bool {
        self.within_bound() && self.spread_a.is_some_and(|s| s > self.bound)
    }
}

fn row(
    workload: &str,
    metric: &'static str,
    better: &str,
    bound: f64,
    a: &[f64],
    b: &[f64],
) -> Option<Row> {
    let (va, vb) = (median(a)?, median(b)?);
    let change = if va == vb {
        0.0
    } else if va == 0.0 {
        (vb - va).signum() * f64::INFINITY
    } else {
        (vb - va) / va.abs()
    };
    Some(Row {
        workload: workload.to_string(),
        metric,
        a: va,
        b: vb,
        worse_by: if better == "lower" {
            change
        } else {
            0.0 - change
        },
        bound,
        spread_a: spread(a),
    })
}

/// A workload's values of one metric over its untraced or traced runs.
fn values(runs: &[&RunRecord], traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.traced == traced)
        .filter_map(|r| r.result.metrics.get(metric).map(|m| m.value))
        .collect()
}

fn failed_share(runs: &[&RunRecord]) -> Vec<f64> {
    let attempted: u64 = runs.iter().map(|r| r.result.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.result.failed).sum();
    if attempted == 0 {
        Vec::new()
    } else {
        vec![failed as f64 / attempted as f64]
    }
}

fn by_workload(set: &ResultSet) -> BTreeMap<&str, Vec<&RunRecord>> {
    let mut map: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for run in &set.runs {
        map.entry(&run.workload).or_default().push(run);
    }
    map
}

pub fn compare(a: &ResultSet, b: &ResultSet) -> Vec<Row> {
    let (wa, wb) = (by_workload(a), by_workload(b));
    let mut rows = Vec::new();
    for (workload, runs_a) in &wa {
        let Some(runs_b) = wb.get(workload) else {
            continue;
        };
        for e in END_TO_END {
            rows.extend(row(
                workload,
                e.name,
                e.better,
                e.bound,
                &values(runs_a, false, e.name),
                &values(runs_b, false, e.name),
            ));
        }
        rows.extend(row(
            workload,
            "failed_share",
            "lower",
            0.0,
            &failed_share(runs_a),
            &failed_share(runs_b),
        ));
        for &(name, bound) in GATED {
            let Some(layer) = PER_LAYER.iter().find(|l| l.name == name) else {
                continue;
            };
            // A traced run prints 0 for a layer that is not on its path.
            rows.extend(
                row(
                    workload,
                    layer.name,
                    layer.better,
                    bound,
                    &values(runs_a, true, name),
                    &values(runs_b, true, name),
                )
                .filter(|r| r.a != 0.0 || r.b != 0.0),
            );
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<38} {:>12} {:>12} {:>9} {:>6}\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let verdict = if !r.within_bound() {
            "  OUT OF BOUND".to_string()
        } else if r.unresolved() {
            format!(
                "  unresolved: A's runs spread {:.1}%",
                r.spread_a.unwrap_or(0.0) * 100.0
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{:<16} {:<38} {:>12.4} {:>12.4} {:>+8.1}% {:>5.0}%{verdict}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Fingerprint, MetricValue, ResultLine};
    use crate::SIZES;

    /// (workload, traced, failed of 10 attempted, metric values)
    type Run<'a> = (&'a str, bool, u64, &'a [(&'a str, f64)]);

    fn set(runs: &[Run]) -> ResultSet {
        ResultSet {
            fingerprint: Fingerprint {
                git_commit: "test".into(),
                rustc: "test".into(),
                nproc: 2,
                cpu_model: "test".into(),
                dependencies: vec![],
            },
            sizes: SIZES,
            runs: runs
                .iter()
                .map(|&(workload, traced, failed, metrics)| RunRecord {
                    workload: workload.into(),
                    seed: 1,
                    seconds: 1,
                    traced,
                    samples: 10,
                    result: ResultLine {
                        correct: failed == 0,
                        attempted: 10,
                        failed,
                        metrics: metrics
                            .iter()
                            .map(|&(n, value)| {
                                (
                                    n.to_string(),
                                    MetricValue {
                                        value,
                                        unit: "x".into(),
                                    },
                                )
                            })
                            .collect(),
                    },
                })
                .collect(),
        }
    }

    fn find<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn reports_both_medians_and_flags_only_out_of_bound_worsening() {
        // A: medians over three runs are qps 100, p50 10.
        let a = set(&[
            (
                "pipeline_seq",
                false,
                0,
                &[("questions_per_s", 90.0), ("latency_p50_ms", 10.0)],
            ),
            (
                "pipeline_seq",
                false,
                0,
                &[("questions_per_s", 100.0), ("latency_p50_ms", 9.0)],
            ),
            (
                "pipeline_seq",
                false,
                0,
                &[("questions_per_s", 120.0), ("latency_p50_ms", 12.0)],
            ),
            ("sim_cluster", false, 0, &[("questions_per_s", 50.0)]),
        ]);
        // B: throughput 10 % lower (inside the bound), latency 30 % higher (outside it).
        let b = set(&[
            (
                "pipeline_seq",
                false,
                0,
                &[("questions_per_s", 90.0), ("latency_p50_ms", 13.0)],
            ),
            ("runtime_bare", false, 0, &[("questions_per_s", 1.0)]), // only in B: skipped
        ]);
        let rows = compare(&a, &b);
        assert!(rows.iter().all(|r| r.workload == "pipeline_seq"));
        let qps = find(&rows, "questions_per_s");
        assert_eq!((qps.a, qps.b), (100.0, 90.0));
        assert!((qps.worse_by - 0.10).abs() < 1e-12 && qps.within_bound());
        let p50 = find(&rows, "latency_p50_ms");
        assert_eq!((p50.a, p50.b), (10.0, 13.0));
        assert!((p50.worse_by - 0.30).abs() < 1e-12 && !p50.within_bound());
        assert!(render(&rows).contains("OUT OF BOUND"));
        assert!(find(&rows, "failed_share").within_bound());

        // Getting better is never out of bound, however large.
        let better = set(&[(
            "pipeline_seq",
            false,
            0,
            &[("questions_per_s", 500.0), ("latency_p50_ms", 1.0)],
        )]);
        assert!(compare(&a, &better).iter().all(Row::within_bound));
    }

    #[test]
    fn exact_metrics_of_the_traced_runs_and_failures_are_gated_too() {
        let traced = |recall: f64, qpm: f64, failed: u64| {
            set(&[
                (
                    "pipeline_seq",
                    true,
                    failed,
                    &[("qa-pipeline.answer_recall", recall)],
                ),
                (
                    "sim_cluster",
                    true,
                    0,
                    &[("cluster-sim.sim_throughput_qpm", qpm)],
                ),
            ])
        };
        let a = traced(0.75, 100.0, 0);
        assert!(compare(&a, &a).iter().all(Row::within_bound));
        // Recall may not drop at all; a simulated result may move 2 %.
        let rows = compare(&a, &traced(0.74, 99.0, 0));
        assert!(!find(&rows, "qa-pipeline.answer_recall").within_bound());
        assert!(find(&rows, "cluster-sim.sim_throughput_qpm").within_bound());
        let rows = compare(&a, &traced(0.80, 97.0, 0));
        assert!(find(&rows, "qa-pipeline.answer_recall").within_bound());
        assert!(!find(&rows, "cluster-sim.sim_throughput_qpm").within_bound());
        // One failed operation where there was none is out of bound.
        let rows = compare(&a, &traced(0.75, 100.0, 1));
        let failed = find(&rows, "failed_share");
        assert_eq!((failed.a, failed.b), (0.0, 0.1));
        assert!(!failed.within_bound());
    }

    #[test]
    fn an_in_bound_difference_is_unresolved_when_a_spreads_wider_than_the_bound() {
        let runs = |values: &[f64]| -> ResultSet {
            let metrics: Vec<[(&str, f64); 1]> =
                values.iter().map(|v| [("latency_p50_ms", *v)]).collect();
            let list: Vec<Run> = metrics
                .iter()
                .map(|m| ("pipeline_seq", false, 0, &m[..]))
                .collect();
            set(&list)
        };
        let steady = runs(&[10.0, 10.1, 9.9, 10.0, 10.2]);
        let wild = runs(&[10.0, 14.0, 7.0, 10.0, 13.0]);
        let b = runs(&[10.5]);
        let row = find(&compare(&steady, &b), "latency_p50_ms").clone();
        assert!(row.within_bound() && !row.unresolved());
        let rows = compare(&wild, &b);
        let row = find(&rows, "latency_p50_ms");
        assert!(row.within_bound() && row.unresolved());
        assert!(render(&rows).contains("unresolved"));
    }
}
