//! `sim_cluster`: how fast the host runs the discrete-event simulator, and
//! whether the simulated results stay what they were.
//!
//! One pass is the Table 5/6 grid — `paper_high_load(12, s, seed + i)` for
//! the three strategies and five seeds — plus one `paper_high_load(100,
//! Dqa, seed)`. A call is one simulation run, so with 15 paper-scale calls
//! and one large call per pass `latency_p50_ms` follows the paper-scale
//! runs and `latency_p95_ms` is the N=100 run. Building the 16 simulations
//! (which samples every question's demands) is this workload's set-up.

use crate::calib::HostSpeed;
use crate::report::{peak_rss_mb, Metrics, Tally};
use crate::spans::Recorder;
use crate::stats::{mean, median, Pass, Passes};
use crate::{Measured, RunArgs, SIZES};
use cluster_sim::{BalancingStrategy, QaSimulation, SimConfig, SimReport};
use qa_types::QuestionOutcome;
use std::time::Instant;

const STRATEGIES: [BalancingStrategy; 3] = [
    BalancingStrategy::Dns,
    BalancingStrategy::Inter,
    BalancingStrategy::Dqa,
];

/// The pass's configurations; the large run is last.
pub fn configs(seed: u64) -> Vec<SimConfig> {
    let mut all = Vec::new();
    for strategy in STRATEGIES {
        for i in 0..SIZES.sim_paper_seeds {
            all.push(SimConfig::paper_high_load(
                SIZES.sim_paper_nodes,
                strategy,
                seed + i,
            ));
        }
    }
    all.push(SimConfig::paper_high_load(
        SIZES.sim_large_nodes,
        BalancingStrategy::Dqa,
        seed,
    ));
    all
}

/// Counts every simulated question; one that was not answered in full is
/// a failed operation.
fn tally_outcomes(tally: &mut Tally, report: &SimReport) {
    for q in &report.questions {
        tally.record(q.outcome == QuestionOutcome::Answered);
    }
}

pub fn run(args: &RunArgs) -> Measured {
    let cfgs = configs(args.seed);
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Warm-up pass: the reference reports, and the first configuration run
    // twice — a seeded simulation must repeat exactly.
    let reference: Vec<SimReport> = cfgs
        .iter()
        .map(|c| QaSimulation::new(c.clone()).run())
        .collect();
    for r in &reference {
        tally_outcomes(&mut tally, r);
    }
    tally.record(QaSimulation::new(cfgs[0].clone()).run() == reference[0]);

    // A pass's wall time is the time inside `run()`, every run a segment of
    // its own; building the pass's simulations is this workload's set-up,
    // one sample per pass.
    let mut host = HostSpeed::new();
    let (mut plain, mut traced) = (Passes::default(), Passes::default());
    let mut setup = Vec::new();
    let mut rec = Recorder::new();
    let start = Instant::now();
    let mut pass = 0usize;
    while start.elapsed() < args.duration() {
        let traced_pass = args.traced && pass % 2 == 1;
        let ((sims, built_s), factor) = host.around(|| {
            let t = Instant::now();
            let sims: Vec<QaSimulation> =
                cfgs.iter().map(|c| QaSimulation::new(c.clone())).collect();
            (sims, t.elapsed().as_secs_f64())
        });
        setup.push(built_s / factor);
        let mut done = Pass::default();
        for (i, sim) in sims.into_iter().enumerate() {
            let span = traced_pass.then(|| rec.begin("sim_run", None, i as u32));
            let ((report, took), factor) = host.around(|| {
                let t = Instant::now();
                let report = sim.run();
                (report, t.elapsed().as_secs_f64())
            });
            if let Some(span) = span {
                rec.end(span);
            }
            done.add_segment(took, &[took * 1e3], factor);
            tally_outcomes(&mut tally, &report);
            tally.record(report == reference[i]);
        }
        if traced_pass {
            traced.push(done);
        } else {
            plain.push(done);
        }
        pass += 1;
    }
    let pass_questions: usize = reference.iter().map(|r| r.questions.len()).sum();
    let note = format!(
        "raw: {:.1} simulated questions/s inside run() in the median of {} passes; mean host factor {:.3}",
        plain
            .raw_wall_s()
            .map_or(0.0, |w| pass_questions as f64 / w),
        plain.len(),
        plain.mean_host(),
    );

    if !args.traced {
        m.set("setup_s", median(&setup).unwrap_or(0.0));
        m.set(
            "questions_per_s",
            plain
                .wall_s()
                .map_or(0.0, |wall_s| pass_questions as f64 / wall_s),
        );
        m.set("latency_p50_ms", plain.latency_ms(0.50).unwrap_or(0.0));
        m.set("latency_p95_ms", plain.latency_ms(0.95).unwrap_or(0.0));
        m.set("peak_rss_mb", peak_rss_mb());
        return Measured::new(tally, m, plain.samples(), None, note);
    }

    // Each configuration's median run time across the plain passes, ms.
    let medians: Vec<f64> = (0..cfgs.len())
        .map(|i| {
            plain
                .median_of(|p| p.samples_ms.get(i).copied())
                .unwrap_or(0.0)
        })
        .collect();
    let (paper, large) = medians.split_at(cfgs.len() - 1);
    let paper_questions: usize = reference[..paper.len()]
        .iter()
        .map(|r| r.questions.len())
        .sum();
    m.set(
        "cluster-sim.host_ms_per_question.paper",
        paper.iter().sum::<f64>() / paper_questions as f64,
    );
    m.set(
        "cluster-sim.host_ms_per_question.large",
        large[0] / reference[paper.len()].questions.len() as f64,
    );
    // The Table 5/6 cells: DQA strategy at N=12, mean over the five seeds.
    let dqa: Vec<&SimReport> = reference
        .iter()
        .zip(&cfgs)
        .filter(|(_, c)| c.strategy == BalancingStrategy::Dqa && c.nodes == SIZES.sim_paper_nodes)
        .map(|(r, _)| r)
        .collect();
    let over_dqa =
        |f: &dyn Fn(&SimReport) -> f64| mean(&dqa.iter().map(|r| f(r)).collect::<Vec<_>>());
    m.set(
        "cluster-sim.sim_throughput_qpm",
        over_dqa(&|r| r.throughput_per_minute()),
    );
    m.set(
        "cluster-sim.sim_response_mean_s",
        over_dqa(&|r| r.mean_response_time()),
    );
    m.set(
        "cluster-sim.sim_response_p99_s",
        over_dqa(&|r| r.response_time_percentile(0.99)),
    );
    let migrations = |f: &dyn Fn(&SimReport) -> usize| -> f64 {
        reference[..paper.len()].iter().map(|r| f(r) as f64).sum()
    };
    m.set(
        "cluster-sim.migrations.qa",
        migrations(&|r| r.migrations.qa),
    );
    m.set(
        "cluster-sim.migrations.pr",
        migrations(&|r| r.migrations.pr),
    );
    m.set(
        "cluster-sim.migrations.ap",
        migrations(&|r| r.migrations.ap),
    );
    if let (Some(p), Some(t)) = (plain.wall_s(), traced.wall_s()) {
        m.set("perf.trace_overhead_share", 1.0 - p / t);
    }
    m.set("perf.host_factor", plain.mean_host());
    crate::probes::sim(&mut m, args.seed, &mut host);
    crate::probes::standalone(&mut m, args.seed, &mut host);
    Measured::new(tally, m, plain.samples(), Some(rec), note)
}
