//! Experiment drivers that regenerate the paper's empirical tables.

use crate::workload::{BalancingStrategy, QaSimulation, SimConfig, SimReport};
use scheduler::partition::PartitionStrategy;

/// One row of the Tables 5–7 comparison: all three strategies at one
/// cluster size.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyComparison {
    /// Cluster size.
    pub nodes: usize,
    /// Questions run (8 per node, as in §6.1).
    pub questions: usize,
    /// DNS report.
    pub dns: SimReport,
    /// INTER report.
    pub inter: SimReport,
    /// DQA report.
    pub dqa: SimReport,
}

/// Run the §6.1 high-load comparison at one cluster size.
pub fn load_balancing_experiment(nodes: usize, seed: u64) -> StrategyComparison {
    let run = |strategy| QaSimulation::new(SimConfig::paper_high_load(nodes, strategy, seed)).run();
    StrategyComparison {
        nodes,
        questions: 8 * nodes,
        dns: run(BalancingStrategy::Dns),
        inter: run(BalancingStrategy::Inter),
        dqa: run(BalancingStrategy::Dqa),
    }
}

/// One row of Table 8/9/10: the low-load intra-question run at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct IntraRow {
    /// Cluster size.
    pub nodes: usize,
    /// Full report (module times via `report.mean_timings()`).
    pub report: SimReport,
}

/// Run the §6.2 intra-question experiment over several cluster sizes with
/// RECV partitioning (the paper's choice).
pub fn intra_experiment(node_counts: &[usize], questions: usize, seed: u64) -> Vec<IntraRow> {
    node_counts
        .iter()
        .map(|&nodes| IntraRow {
            nodes,
            report: QaSimulation::new(SimConfig::paper_low_load(
                nodes,
                PartitionStrategy::Recv { chunk_size: 40 },
                questions,
                seed,
            ))
            .run(),
        })
        .collect()
}

/// One point of the Fig. 10 chunk-size sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkPoint {
    /// RECV chunk size in paragraphs.
    pub chunk_size: usize,
    /// AP-module speedup vs the 1-node run.
    pub ap_speedup: f64,
}

/// Fig. 10: AP speedup under RECV for several chunk sizes at one cluster
/// size.
pub fn chunk_sweep(
    nodes: usize,
    chunk_sizes: &[usize],
    questions: usize,
    seed: u64,
) -> Vec<ChunkPoint> {
    let base = QaSimulation::new(SimConfig::paper_low_load(
        1,
        PartitionStrategy::Recv { chunk_size: 40 },
        questions,
        seed,
    ))
    .run();
    let ap1 = base.mean_timings().ap;
    chunk_sizes
        .iter()
        .map(|&chunk_size| {
            let r = QaSimulation::new(SimConfig::paper_low_load(
                nodes,
                PartitionStrategy::Recv { chunk_size },
                questions,
                seed,
            ))
            .run();
            ChunkPoint {
                chunk_size,
                ap_speedup: ap1 / r.mean_timings().ap.max(1e-9),
            }
        })
        .collect()
}

/// One row of Table 11: AP speedups of the three partitioning strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionRow {
    /// Cluster size.
    pub nodes: usize,
    /// SEND AP speedup.
    pub send: f64,
    /// ISEND AP speedup.
    pub isend: f64,
    /// RECV AP speedup (40-paragraph chunks).
    pub recv: f64,
}

/// Table 11: SEND vs ISEND vs RECV for the AP module.
pub fn partition_comparison(
    node_counts: &[usize],
    questions: usize,
    seed: u64,
) -> Vec<PartitionRow> {
    let base = QaSimulation::new(SimConfig::paper_low_load(
        1,
        PartitionStrategy::Recv { chunk_size: 40 },
        questions,
        seed,
    ))
    .run();
    let ap1 = base.mean_timings().ap;
    let speedup = |nodes: usize, strategy: PartitionStrategy| {
        let r =
            QaSimulation::new(SimConfig::paper_low_load(nodes, strategy, questions, seed)).run();
        ap1 / r.mean_timings().ap.max(1e-9)
    };
    node_counts
        .iter()
        .map(|&nodes| PartitionRow {
            nodes,
            send: speedup(nodes, PartitionStrategy::Send),
            isend: speedup(nodes, PartitionStrategy::Isend),
            recv: speedup(nodes, PartitionStrategy::Recv { chunk_size: 40 }),
        })
        .collect()
}

/// One point of the §4.2 concurrency experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyPoint {
    /// Simultaneous questions on the single node.
    pub concurrent: usize,
    /// Throughput relative to one-at-a-time execution.
    pub relative_throughput: f64,
}

/// §4.2: throughput of one node as the number of simultaneous questions
/// grows. The paper observed a peak at 2–3 and collapse beyond 4.
///
/// Runs a closed-loop workload: the multiprogramming level is held at `k`
/// by admitting the next question as soon as one completes.
pub fn concurrency_experiment(max_concurrent: usize, seed: u64) -> Vec<ConcurrencyPoint> {
    use qa_types::Trec9Profile;
    let run = |k: usize| {
        let cfg = SimConfig {
            questions: 18,
            arrival_spacing: (0.0, 0.0),
            serial: false,
            max_in_flight: Some(k),
            strategy: BalancingStrategy::Dns,
            profiles: vec![Trec9Profile::average()],
            ..SimConfig::paper_high_load(1, BalancingStrategy::Dns, seed)
        };
        let r = QaSimulation::new(cfg).run();
        r.questions.len() as f64 / r.makespan
    };
    let sequential = run(1);
    (1..=max_concurrent)
        .map(|k| ConcurrencyPoint {
            concurrent: k,
            relative_throughput: run(k) / sequential,
        })
        .collect()
}

/// Seed-averaged summary of the three strategies at one cluster size.
///
/// A single simulated run is as noisy as a single run on real hardware;
/// the table binaries average a few replications, as one would rerun a
/// benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategySummary {
    /// Cluster size.
    pub nodes: usize,
    /// Mean throughput (q/min): DNS, INTER, DQA.
    pub throughput: [f64; 3],
    /// Mean response time (s): DNS, INTER, DQA.
    pub response_time: [f64; 3],
    /// Mean INTER question-dispatcher migrations.
    pub inter_qa: f64,
    /// Mean DQA migrations at the three points (QA, PR, AP).
    pub dqa_migrations: [f64; 3],
}

/// Run [`load_balancing_experiment`] over several seeds and average.
pub fn load_balancing_summary(nodes: usize, seeds: &[u64]) -> StrategySummary {
    assert!(!seeds.is_empty(), "at least one seed");
    let mut tp = [0.0f64; 3];
    let mut rt = [0.0f64; 3];
    let mut inter_qa = 0.0;
    let mut dqa_m = [0.0f64; 3];
    for &seed in seeds {
        let c = load_balancing_experiment(nodes, seed);
        for (i, r) in [&c.dns, &c.inter, &c.dqa].into_iter().enumerate() {
            tp[i] += r.throughput_per_minute();
            rt[i] += r.mean_response_time();
        }
        inter_qa += c.inter.migrations.qa as f64;
        dqa_m[0] += c.dqa.migrations.qa as f64;
        dqa_m[1] += c.dqa.migrations.pr as f64;
        dqa_m[2] += c.dqa.migrations.ap as f64;
    }
    let n = seeds.len() as f64;
    StrategySummary {
        nodes,
        throughput: tp.map(|x| x / n),
        response_time: rt.map(|x| x / n),
        inter_qa: inter_qa / n,
        dqa_migrations: dqa_m.map(|x| x / n),
    }
}

/// Seed-averaged comparison of all five placement strategies (the paper's
/// three plus the diffusion/gradient baselines of the related work).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSummary {
    /// Cluster size.
    pub nodes: usize,
    /// Mean throughput (q/min), indexed like [`BASELINE_ORDER`].
    pub throughput: [f64; 5],
    /// Mean response time (s), same order.
    pub response_time: [f64; 5],
}

/// Strategy order of [`BaselineSummary`] arrays.
pub const BASELINE_ORDER: [BalancingStrategy; 5] = [
    BalancingStrategy::Dns,
    BalancingStrategy::SenderDiffusion,
    BalancingStrategy::Gradient,
    BalancingStrategy::Inter,
    BalancingStrategy::Dqa,
];

/// Compare all five strategies at one cluster size, averaged over seeds.
pub fn baseline_comparison(nodes: usize, seeds: &[u64]) -> BaselineSummary {
    assert!(!seeds.is_empty(), "at least one seed");
    let mut tp = [0.0f64; 5];
    let mut rt = [0.0f64; 5];
    for &seed in seeds {
        for (i, &strategy) in BASELINE_ORDER.iter().enumerate() {
            let r = QaSimulation::new(SimConfig::paper_high_load(nodes, strategy, seed)).run();
            tp[i] += r.throughput_per_minute();
            rt[i] += r.mean_response_time();
        }
    }
    let n = seeds.len() as f64;
    BaselineSummary {
        nodes,
        throughput: tp.map(|x| x / n),
        response_time: rt.map(|x| x / n),
    }
}

/// One point of the offered-load ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampPoint {
    /// Mean inter-arrival gap in seconds (smaller = higher offered load).
    pub arrival_gap: f64,
    /// Achieved throughput, q/min.
    pub throughput: f64,
    /// Mean response time, s.
    pub response_time: f64,
    /// Mean number of nodes each question's AP phase used — the observable
    /// degree of intra-question parallelism.
    pub mean_ap_nodes: f64,
}

/// The §6 adaptivity claim, made visible: sweep the offered load and watch
/// DQA trade intra-question parallelism (wide AP fan-out when idle) for
/// pure migration (fan-out → 1) as the cluster saturates.
pub fn load_ramp(nodes: usize, gaps: &[f64], seed: u64) -> Vec<RampPoint> {
    gaps.iter()
        .map(|&gap| {
            let cfg = SimConfig {
                arrival_spacing: (0.0, 2.0 * gap),
                ..SimConfig::paper_high_load(nodes, BalancingStrategy::Dqa, seed)
            };
            let r = QaSimulation::new(cfg).run();
            let mean_ap_nodes = r.questions.iter().map(|q| q.ap_nodes as f64).sum::<f64>()
                / r.questions.len().max(1) as f64;
            RampPoint {
                arrival_gap: gap,
                throughput: r.throughput_per_minute(),
                response_time: r.mean_response_time(),
                mean_ap_nodes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_ramp_shows_adaptive_parallelism() {
        // Sparse arrivals (gap 120 s ≈ idle cluster) must fan AP wide;
        // a burst (gap 1 s) must collapse the fan-out toward migration.
        let pts = load_ramp(8, &[120.0, 1.0], 71);
        let idle = &pts[0];
        let busy = &pts[1];
        assert!(
            idle.mean_ap_nodes > busy.mean_ap_nodes + 1.0,
            "idle fan-out {:.1} vs busy {:.1}",
            idle.mean_ap_nodes,
            busy.mean_ap_nodes
        );
        assert!(idle.response_time < busy.response_time);
        assert!(
            busy.throughput > idle.throughput,
            "burst completes more per minute"
        );
    }

    #[test]
    fn dqa_beats_all_baselines() {
        let b = baseline_comparison(8, &[51, 52, 53]);
        let dqa = b.throughput[4];
        for (i, s) in BASELINE_ORDER[..4].iter().enumerate() {
            assert!(
                dqa > b.throughput[i],
                "DQA {dqa:.2} q/min should beat {s:?} {:.2}",
                b.throughput[i]
            );
        }
        // The local baselines must at least not collapse below DNS by much:
        // they are real strategies, not strawmen.
        assert!(b.throughput[1] > 0.8 * b.throughput[0], "{b:?}");
        assert!(b.throughput[2] > 0.8 * b.throughput[0], "{b:?}");
    }

    #[test]
    fn table5_ordering_holds_at_4_nodes() {
        let c = load_balancing_experiment(4, 11);
        let (d, i, q) = (
            c.dns.throughput_per_minute(),
            c.inter.throughput_per_minute(),
            c.dqa.throughput_per_minute(),
        );
        assert!(i > d, "INTER {i:.2} vs DNS {d:.2}");
        assert!(q > i, "DQA {q:.2} vs INTER {i:.2}");
    }

    #[test]
    fn table6_latency_ordering() {
        // Table 6 orders mean response times DNS > INTER > DQA. Means over
        // seeds 1..=8, each step by a 2 % margin. RED: INTER does not beat
        // DNS on latency (EXPERIMENTS.md has the per-seed sweep); the
        // assertion stays as the paper states it until that is root-caused.
        let runs: Vec<StrategyComparison> = (1..=8)
            .map(|seed| load_balancing_experiment(4, seed))
            .collect();
        let mean = |pick: fn(&StrategyComparison) -> &SimReport| {
            runs.iter()
                .map(|c| pick(c).mean_response_time())
                .sum::<f64>()
                / runs.len() as f64
        };
        let (dns, inter, dqa) = (mean(|c| &c.dns), mean(|c| &c.inter), mean(|c| &c.dqa));
        assert!(inter < 0.98 * dns, "INTER {inter:.1} s vs DNS {dns:.1} s");
        assert!(dqa < 0.98 * inter, "DQA {dqa:.1} s vs INTER {inter:.1} s");
    }

    #[test]
    fn table7_migration_counts_shape() {
        let c = load_balancing_experiment(4, 17);
        // INTER migrates at QA only; DQA additionally at PR and AP.
        assert!(c.inter.migrations.qa > 0);
        assert_eq!(c.inter.migrations.pr + c.inter.migrations.ap, 0);
        assert!(c.dqa.migrations.qa > 0);
        assert!(c.dqa.migrations.pr > 0);
        assert!(c.dqa.migrations.ap > 0);
    }

    #[test]
    fn table8_module_times_shrink_with_nodes() {
        let rows = intra_experiment(&[1, 4, 8], 4, 19);
        let t1 = rows[0].report.mean_timings();
        let t4 = rows[1].report.mean_timings();
        let t8 = rows[2].report.mean_timings();
        assert!(t4.pr < t1.pr && t8.pr < t4.pr);
        assert!(t4.ap < t1.ap && t8.ap < t4.ap);
        // QP/PO are not partitioned: same order of magnitude at all sizes.
        assert!((t4.qp / t1.qp) > 0.5 && (t4.qp / t1.qp) < 2.0);
    }

    #[test]
    fn table9_overhead_is_small_fraction() {
        let rows = intra_experiment(&[4, 8], 4, 23);
        for row in rows {
            let o = row.report.mean_overhead().total();
            let t = row.report.mean_response_time();
            assert!(o > 0.0, "partitioned run must show overhead");
            assert!(o / t < 0.05, "overhead {o:.3} vs response {t:.1}");
        }
    }

    #[test]
    fn figure10_peak_is_interior() {
        let pts = chunk_sweep(4, &[5, 40, 200], 3, 29);
        let s5 = pts[0].ap_speedup;
        let s40 = pts[1].ap_speedup;
        let s200 = pts[2].ap_speedup;
        assert!(s40 > s5, "chunk 40 {s40:.2} should beat chunk 5 {s5:.2}");
        assert!(
            s40 > s200,
            "chunk 40 {s40:.2} should beat chunk 200 {s200:.2}"
        );
    }

    #[test]
    fn table11_recv_beats_isend_beats_send() {
        let rows = partition_comparison(&[4, 8], 4, 31);
        for r in rows {
            assert!(r.isend > r.send, "{r:?}");
            assert!(r.recv > r.send, "{r:?}");
            // RECV and ISEND are close; RECV at least matches ISEND - 10 %.
            assert!(r.recv > 0.9 * r.isend, "{r:?}");
        }
    }

    #[test]
    fn section42_concurrency_peak_then_collapse() {
        let pts = concurrency_experiment(6, 37);
        assert!((pts[0].relative_throughput - 1.0).abs() < 1e-9, "{pts:?}");
        // 2 concurrent questions beat sequential execution (I/O overlap).
        assert!(pts[1].relative_throughput > 1.0, "{pts:?}");
        // The peak lies in the 2-4 band, before the memory threshold.
        let peak_k = pts
            .iter()
            .max_by(|a, b| {
                a.relative_throughput
                    .partial_cmp(&b.relative_throughput)
                    .unwrap()
            })
            .unwrap()
            .concurrent;
        assert!((2..=4).contains(&peak_k), "{pts:?}");
        // Beyond the threshold throughput falls back toward (or below)
        // sequential: thrashing eats the overlap gain.
        let peak = pts
            .iter()
            .map(|p| p.relative_throughput)
            .fold(f64::MIN, f64::max);
        assert!(pts[4].relative_throughput < peak, "{pts:?}");
        assert!(
            pts[5].relative_throughput < pts[4].relative_throughput + 0.05,
            "{pts:?}"
        );
        assert!(pts[5].relative_throughput < 1.1, "{pts:?}");
    }
}
