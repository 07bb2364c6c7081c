//! Observability overhead gate: the fully instrumented metrics path must
//! cost less than [`OVERHEAD_LIMIT`] of simulator throughput next to a
//! disabled (no-op) registry.
//!
//! Both configurations run the identical seeded workload — a disabled
//! [`MetricsRegistry`] turns every counter/gauge/histogram handle into a
//! no-op, which is the "observability off" baseline DESIGN.md §12
//! budgets against. Timing is best-of-N with the two modes interleaved,
//! so cache warmup and scheduler drift hit both sides equally. The
//! instrumented run's simulation outcome must also be identical to the
//! baseline's: recording metrics must never perturb the sim.
//!
//! `--ci` runs 256 questions, best of 3.

use super::{json, Ctx, Outcome};
use cluster_sim::{BalancingStrategy, QaSimulation, SimConfig, SimReport};
use dqa_obs::MetricsRegistry;
use std::time::Instant;

/// Maximum tolerated relative throughput loss with metrics enabled.
const OVERHEAD_LIMIT: f64 = 0.02;

fn run_once(seed: u64, questions: usize, registry: MetricsRegistry) -> (f64, SimReport) {
    let cfg = SimConfig {
        questions,
        metrics: Some(registry),
        ..SimConfig::paper_high_load(8, BalancingStrategy::Dqa, seed)
    };
    let t = Instant::now();
    let report = QaSimulation::new(cfg).run();
    (t.elapsed().as_secs_f64(), report)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (questions, repeats) = if ctx.ci { (256, 3) } else { (1024, 7) };

    // Warmup, and the perturbation check: everything but the metrics
    // snapshot itself must be identical across the two modes.
    let (_, base) = run_once(ctx.seed, questions, MetricsRegistry::disabled());
    let (_, inst) = run_once(ctx.seed, questions, MetricsRegistry::new());
    out.fold(&json(&base));
    for (held, msg) in [
        (
            base.questions == inst.questions,
            "instrumentation perturbed the per-question records",
        ),
        (
            base.migrations == inst.migrations,
            "instrumentation perturbed the migration counts",
        ),
        (
            base.metrics.counters.is_empty() && base.metrics.histograms.is_empty(),
            "a disabled registry must export an empty snapshot",
        ),
        (
            !inst.metrics.histograms.is_empty(),
            "an enabled registry must export the recorded histograms",
        ),
    ] {
        if !held {
            out.violations.push(msg.into());
        }
    }

    let mut t_off = f64::INFINITY;
    let mut t_on = f64::INFINITY;
    for _ in 0..repeats {
        t_off = t_off.min(run_once(ctx.seed, questions, MetricsRegistry::disabled()).0);
        t_on = t_on.min(run_once(ctx.seed, questions, MetricsRegistry::new()).0);
    }
    let q_off = questions as f64 / t_off;
    let q_on = questions as f64 / t_on;
    let delta = (q_off - q_on) / q_off;

    println!(
        "Observability overhead — seed {}, {questions} questions, best of {repeats}\n",
        ctx.seed
    );
    println!("  registry   best wall s   questions/s");
    println!("  disabled   {t_off:>11.4}   {q_off:>11.0}");
    println!("  enabled    {t_on:>11.4}   {q_on:>11.0}");
    println!(
        "\n  throughput delta {:+.2}% (budget {:.0}%)",
        delta * 100.0,
        OVERHEAD_LIMIT * 100.0
    );
    if delta > OVERHEAD_LIMIT {
        out.violations.push(format!(
            "instrumented throughput is {:.2}% below the disabled \
             baseline, over the {:.0}% budget",
            delta * 100.0,
            OVERHEAD_LIMIT * 100.0
        ));
    }
    out
}
