//! Overload soak: sweep offered load from 0.5× to 4× of the admitted
//! capacity on *both* backends — the thread runtime (`dqa-runtime`) and
//! the discrete-event simulator (`cluster-sim`) — under one shared
//! [`OverloadPolicy`], and report goodput, shed rate and admitted
//! p50/p99 latency per load level.
//!
//! Hard invariants asserted at every level:
//!
//! 1. zero silent drops — answered + degraded + rejected == offered;
//! 2. admitted p99 stays within the configured deadline (the simulator
//!    gets one committed phase of grace: a question that passed its last
//!    shed check may overrun by the phase it was already running);
//! 3. shed rate is monotone non-decreasing in offered load (the wall
//!    clock backend gets a small tolerance for scheduler jitter, the
//!    virtual-time backend none);
//! 4. the two backends' saturation curves agree in shape — their shed
//!    rates never move in strongly opposite directions between adjacent
//!    load levels.
//!
//! The runtime trace of every load level is kept for the dump. `--ci`
//! runs two load levels (1× and 4×).

use super::{conserved, json, percentile, start, Ctx, Outcome};
use crate::fixtures::QaFixture;
use cluster_sim::{BalancingStrategy, QaSimulation, SimConfig};
use dqa_obs::MetricsRegistry;
use dqa_runtime::{Admission, ClusterConfig};
use qa_types::{OverloadCounts, OverloadPolicy};
use std::time::Instant;

/// In-flight cap shared by both backends; `OverloadPolicy::server` adds
/// an admission queue of the same depth, so 2× capacity saturates the
/// queue and 4× rejects roughly half of the offered burst.
const CAP: usize = 3;
/// Burst size at 1× load: cap plus queue, fully utilized but unshed.
const UNIT_BURST: usize = 2 * CAP;
/// Wall-clock deadline for the thread runtime (seconds from admission);
/// generous next to millisecond-scale questions, so sheds at this level
/// are admission-queue rejections, not phase sheds.
const WALL_DEADLINE: f64 = 10.0;
/// Virtual-time deadline for the simulator (seconds from admission).
const VIRT_DEADLINE: f64 = 600.0;
/// One-committed-phase grace for the simulator's p99 check (see module
/// docs, invariant 2).
const VIRT_GRACE: f64 = 1.25;
/// Scheduler-jitter tolerance on the wall-clock monotonicity check: a
/// thread that submits late into a draining burst can be admitted where
/// the virtual-time backend would reject it.
const WALL_JITTER: f64 = 0.10;

/// One backend's measurements at one offered-load level.
struct LoadPoint {
    mult: f64,
    counts: OverloadCounts,
    /// Admitted (answered or degraded) latency percentiles; ms for the
    /// runtime, virtual seconds for the simulator. 0.0 when nothing was
    /// admitted.
    p50: f64,
    p99: f64,
}

fn offered_at(mult: f64) -> usize {
    ((UNIT_BURST as f64) * mult).round().max(1.0) as usize
}

fn policy(deadline: f64) -> OverloadPolicy {
    OverloadPolicy::server(CAP).with_deadline(deadline)
}

/// Offer `offered_at(mult)` questions to a fresh thread-runtime cluster
/// in one concurrent burst and tally every outcome.
fn run_runtime_point(
    fixture: &QaFixture,
    mult: f64,
    registry: &MetricsRegistry,
    out: &mut Outcome,
) -> LoadPoint {
    let offered = offered_at(mult);
    let cluster = start(
        fixture,
        ClusterConfig {
            nodes: 4,
            overload: policy(WALL_DEADLINE),
            metrics: Some(registry.clone()),
            ..ClusterConfig::default()
        },
    );
    let questions: Vec<_> = fixture.questions[..offered]
        .iter()
        .map(|gq| gq.question.clone())
        .collect();

    let results: Vec<(Admission, f64)> = std::thread::scope(|scope| {
        let cluster = &cluster;
        let handles: Vec<_> = questions
            .iter()
            .map(|q| {
                scope.spawn(move || {
                    let t = Instant::now();
                    let admission = cluster.submit(q);
                    (admission, t.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submit thread panicked"))
            .collect()
    });

    let mut counts = OverloadCounts::default();
    let mut admitted_ms = Vec::new();
    for (admission, ms) in &results {
        match admission.outcome() {
            Some(outcome) => {
                counts.record(outcome);
                if admission.answer().is_some() {
                    admitted_ms.push(*ms);
                }
            }
            None => out.violations.push(format!(
                "runtime {mult}x: a question failed outright ({admission:?}) — silent drop"
            )),
        }
    }
    if !conserved(&counts, results.len(), offered) {
        out.violations.push(format!(
            "runtime {mult}x: outcome conservation broken — {} accounted of {offered} offered",
            counts.offered()
        ));
    }
    let p50 = percentile(&mut admitted_ms, 0.50);
    let p99 = percentile(&mut admitted_ms, 0.99);
    if !admitted_ms.is_empty() && p99 > WALL_DEADLINE * 1e3 {
        out.violations.push(format!(
            "runtime {mult}x: admitted p99 {p99:.1} ms exceeds the {WALL_DEADLINE} s deadline"
        ));
    }
    out.trace.push(format!("--- runtime trace at {mult}x ---"));
    out.trace.extend(cluster.trace().render());
    cluster.shutdown();
    LoadPoint {
        mult,
        counts,
        p50,
        p99,
    }
}

/// The same burst on the simulator's virtual hardware: identical policy
/// shape, virtual-time deadline, all arrivals at t=0.
fn run_sim_point(seed: u64, mult: f64, registry: &MetricsRegistry, out: &mut Outcome) -> LoadPoint {
    let offered = offered_at(mult);
    let cfg = SimConfig {
        questions: offered,
        arrival_spacing: (0.0, 0.0),
        overload: policy(VIRT_DEADLINE).with_headroom(1.5),
        metrics: Some(registry.clone()),
        ..SimConfig::paper_high_load(4, BalancingStrategy::Dqa, seed)
    };
    let report = QaSimulation::new(cfg).run();
    // The report's metrics share the runtime's registry (wall-clock
    // histograms), so the digest covers the per-question records only.
    out.fold(&json(&report.questions));
    let counts = report.outcome_counts();
    if !conserved(&counts, report.questions.len(), offered) {
        out.violations.push(format!(
            "sim {mult}x: outcome conservation broken — {} accounted of {offered} offered",
            counts.offered()
        ));
    }
    let p50 = report.admitted_response_percentile(0.50);
    let p99 = report.admitted_response_percentile(0.99);
    if counts.offered() > counts.rejected && p99 > VIRT_DEADLINE * VIRT_GRACE {
        out.violations.push(format!(
            "sim {mult}x: admitted p99 {p99:.1} s exceeds the {VIRT_DEADLINE} s deadline \
             (even with one phase of grace)"
        ));
    }
    LoadPoint {
        mult,
        counts,
        p50,
        p99,
    }
}

/// Invariant 3: shed rate never falls as offered load rises.
fn check_monotone(points: &[LoadPoint], backend: &str, tolerance: f64, out: &mut Outcome) {
    for pair in points.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if hi.counts.shed_rate() < lo.counts.shed_rate() - tolerance {
            out.violations.push(format!(
                "{backend}: shed rate fell from {:.3} at {}x to {:.3} at {}x",
                lo.counts.shed_rate(),
                lo.mult,
                hi.counts.shed_rate(),
                hi.mult
            ));
        }
    }
}

/// Invariant 4: between adjacent load levels the two backends' shed
/// rates must not move in strongly opposite directions.
fn check_shape_agreement(runtime: &[LoadPoint], sim: &[LoadPoint], out: &mut Outcome) {
    for (rt, ds) in runtime.windows(2).zip(sim.windows(2)) {
        let d_rt = rt[1].counts.shed_rate() - rt[0].counts.shed_rate();
        let d_ds = ds[1].counts.shed_rate() - ds[0].counts.shed_rate();
        if (d_rt > WALL_JITTER && d_ds < -0.05) || (d_rt < -WALL_JITTER && d_ds > 0.05) {
            out.violations.push(format!(
                "curve shapes diverge between {}x and {}x: runtime shed moved {:+.3}, \
                 simulator {:+.3}",
                rt[0].mult, rt[1].mult, d_rt, d_ds
            ));
        }
    }
    if let (Some(rt_top), Some(ds_top)) = (runtime.last(), sim.last()) {
        if offered_at(rt_top.mult) > 2 * CAP {
            if rt_top.counts.rejected == 0 {
                out.violations.push(format!(
                    "runtime {}x: burst exceeds cap+queue yet nothing was rejected",
                    rt_top.mult
                ));
            }
            if ds_top.counts.rejected == 0 {
                out.violations.push(format!(
                    "sim {}x: burst exceeds cap+queue yet nothing was rejected",
                    ds_top.mult
                ));
            }
        }
    }
}

fn print_table(backend: &str, unit: &str, points: &[LoadPoint]) {
    println!("  {backend}");
    println!(
        "    load  offered  answered  degraded  rejected  goodput  shed   p50 {unit}  p99 {unit}"
    );
    for p in points {
        println!(
            "    {:>3.1}x  {:>7}  {:>8}  {:>8}  {:>8}  {:>6.2}  {:>5.2}  {:>7.1}  {:>7.1}",
            p.mult,
            p.counts.offered(),
            p.counts.answered,
            p.counts.degraded,
            p.counts.rejected,
            p.counts.goodput(),
            p.counts.shed_rate(),
            p.p50,
            p.p99
        );
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mults: &[f64] = if ctx.ci {
        &[1.0, 4.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0]
    };
    let fixture = QaFixture::small(ctx.seed, offered_at(mults[mults.len() - 1]));

    // One registry across every cluster and simulation in the sweep, so
    // the snapshot aggregates the whole soak.
    let registry = MetricsRegistry::new();
    let mut runtime_points = Vec::new();
    let mut sim_points = Vec::new();
    for &mult in mults {
        runtime_points.push(run_runtime_point(&fixture, mult, &registry, &mut out));
        sim_points.push(run_sim_point(ctx.seed, mult, &registry, &mut out));
    }
    check_monotone(&runtime_points, "runtime", WALL_JITTER, &mut out);
    check_monotone(&sim_points, "sim", 1e-9, &mut out);
    check_shape_agreement(&runtime_points, &sim_points, &mut out);

    println!(
        "Overload soak — seed {}, cap {CAP} in-flight + {CAP} queued, \
         {WALL_DEADLINE} s wall / {VIRT_DEADLINE} s virtual deadline\n",
        ctx.seed
    );
    print_table("thread runtime (dqa-runtime)", "ms", &runtime_points);
    println!();
    print_table("discrete-event simulator (cluster-sim)", "s", &sim_points);
    out.metrics = Some(registry);
    out
}
