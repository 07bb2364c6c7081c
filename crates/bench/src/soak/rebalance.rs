//! Elastic-membership soak: drive the re-sharding tier through drains,
//! joins, permanent losses and stall windows on *both* drivers of
//! `rebalance::Rebalancer` — the DES (`cluster_sim`) and the thread
//! runtime (`dqa_runtime::Cluster`) — and assert the self-healing
//! contract end to end:
//!
//! 1. **Conservation** — every offered question completes; membership
//!    churn never loses or rejects a question under a permissive policy.
//! 2. **Determinism** — running any DES schedule twice yields
//!    bit-identical reports (`PartialEq` over every record and the full
//!    metrics snapshot, and equal serialised bytes).
//! 3. **Convergence** — after every drill the ownership map covers all
//!    sub-collections exactly once across the live pool
//!    (`dqa_rebalance_converged` back at 1), and on the runtime a
//!    post-healing answer set is byte-identical to the fault-free
//!    baseline.
//! 4. **Foreground protection** — with a deadline set to a generous
//!    multiple of the fault-free p99, a mid-run drain must shed nothing:
//!    migration yields to foreground instead of pushing it past its
//!    deadline.
//! 5. **One state machine** — the runtime drill's final ownership vector
//!    and per-reason plan counts equal, exactly, those of the same
//!    drain → join sequence through a bare `Rebalancer` on a manual
//!    clock.
//!
//! `--ci` runs 6 questions per DES run and a 4-question runtime drill.

use super::{answer_bytes, baseline, conserved, json, start, Ctx, Outcome};
use crate::fixtures::QaFixture;
use cluster_sim::{QaSimulation, SimConfig, SimReport};
use dqa_obs::{metric_key, names, MetricsRegistry, Snapshot};
use dqa_runtime::{Cluster, ClusterConfig};
use faults::FaultSchedule;
use qa_types::{NodeId, SubCollectionId};
use rebalance::{ElasticConfig, Minted, Rebalancer};
use scheduler::partition::PartitionStrategy;

/// `dqa_rebalance_plans_total{reason}`.
fn plans(snap: &Snapshot, reason: &str) -> u64 {
    snap.counter(&metric_key(
        names::REBALANCE_PLANS_TOTAL,
        &[("reason", reason)],
    ))
}

/// Sum of the labelled `dqa_rebalance_plans_total` family.
fn plans_total(report: &SimReport) -> u64 {
    ["permanent-loss", "drain", "join", "load-skew"]
        .iter()
        .map(|r| plans(&report.metrics, r))
        .sum()
}

/// Run one DES schedule twice and check determinism, conservation and
/// (when the elastic tier is active) convergence. Returns the first
/// report and the tag its violations are filed under.
fn run_des(
    name: &str,
    nodes: usize,
    build: &dyn Fn() -> SimConfig,
    out: &mut Outcome,
) -> (SimReport, String) {
    let offered = build().questions;
    let twice = out.double_run(|| QaSimulation::new(build()).run(), json);
    let report = twice.report;
    let tag = format!("des {nodes} node(s) [{name}]");
    if twice.diverged {
        out.violations.push(format!("{tag}: double run diverged"));
    }
    let counts = report.outcome_counts();
    if !conserved(&counts, report.questions.len(), offered) {
        out.violations.push(format!(
            "{tag}: {} record(s) / {} outcome(s) for {offered} offered — a question was lost",
            report.questions.len(),
            counts.offered()
        ));
    }
    if counts.rejected > 0 {
        out.violations.push(format!(
            "{tag}: membership churn rejected {} question(s) under a permissive policy",
            counts.rejected
        ));
    }
    if let Some(converged) = report.metrics.gauges.get(names::REBALANCE_CONVERGED) {
        if *converged != 1.0 {
            out.violations.push(format!(
                "{tag}: ownership never re-converged (gauge {converged})"
            ));
        }
    } else if name != "clean" {
        out.violations
            .push(format!("{tag}: elastic tier never activated"));
    }
    out.say(format!(
        "{tag}: {} answered / {} degraded / {} rejected, {} plan(s), {} migrated, \
         heal {:.1} s, p99 {:.1} s",
        counts.answered,
        counts.degraded,
        counts.rejected,
        plans_total(&report),
        report.metrics.counter(names::REBALANCE_MIGRATED_TOTAL),
        report
            .metrics
            .histograms
            .get(names::REBALANCE_HEAL_SECONDS)
            .map_or(0.0, |h| h.sum),
        report.admitted_response_percentile(0.99)
    ));
    (report, tag)
}

/// The serial §6.2-style base schedule the membership drills ride on.
fn low_cfg(questions: usize, seed: u64) -> SimConfig {
    SimConfig::paper_low_load(
        4,
        PartitionStrategy::Recv { chunk_size: 40 },
        questions,
        seed,
    )
}

/// Drive a bare [`Rebalancer`] to quiescence on a manual clock with an
/// idle foreground, noting the reason of every plan minted on the way
/// (`first`: what the verb that started it returned).
fn quiesce(
    r: &mut Rebalancer,
    live: &[NodeId],
    now: &mut f64,
    first: Option<Minted>,
    minted: &mut Vec<String>,
) {
    minted.extend(first.map(|m| m.plan.reason.to_string()));
    loop {
        while let Some(due) = r.next_due() {
            *now = due.max(*now);
            r.step(*now, 0, None);
        }
        match r.settle(live, *now, 0) {
            Some(settled) if settled.replanned.is_empty() => return,
            Some(settled) => {
                minted.extend(settled.replanned.iter().map(|m| m.plan.reason.to_string()))
            }
            None => {}
        }
    }
}

/// The runtime drill's membership sequence — 4 nodes, node 3 a standby,
/// drain(1) then join(3) — on a bare [`Rebalancer`]. Returns the final
/// owner of each sub-collection and the plans minted per reason.
fn reference_drill(ecfg: ElasticConfig, subs: u32) -> (Vec<u32>, [(&'static str, u64); 4]) {
    let live: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let mut r = Rebalancer::new(ecfg, 4, subs, Vec::new());
    let (mut minted, mut now) = (Vec::new(), 0.0);
    let drained = r.drain(NodeId::new(1), &live, now, 0);
    quiesce(&mut r, &live, &mut now, drained, &mut minted);
    let joined = r.join(NodeId::new(3), &live, now, 0);
    quiesce(&mut r, &live, &mut now, joined, &mut minted);
    let owners = (0..subs)
        .filter_map(|s| r.ownership().owner(SubCollectionId::new(s)))
        .map(NodeId::raw)
        .collect();
    let count = |reason: &str| minted.iter().filter(|m| *m == reason).count() as u64;
    (
        owners,
        ["permanent-loss", "drain", "join", "load-skew"].map(|reason| (reason, count(reason))),
    )
}

/// Thread-runtime drill: a live drain and a standby join between answer
/// waves, with every post-healing answer byte-compared against the
/// fault-free baseline. This is the "Coverage byte-identical" clause of
/// the acceptance bar, on real threads.
fn run_runtime_demo(ctx: &Ctx, out: &mut Outcome) {
    let fixture = QaFixture::small(ctx.seed, if ctx.ci { 4 } else { 8 });
    let registry = MetricsRegistry::new();
    let config = |elastic| ClusterConfig {
        nodes: 4,
        metrics: Some(registry.clone()),
        elastic,
        ..ClusterConfig::default()
    };

    // Fault-free baseline answers, no elastic tier.
    let clean = start(&fixture, config(None));
    let baseline = baseline(&clean, &fixture);
    clean.shutdown();

    // Elastic cluster: nodes 0–2 active, node 3 a warm spare. Migration
    // steps are paced fast so the drill stays CI-sized.
    let mut ecfg = ElasticConfig::with_standby(1);
    ecfg.throttle.step_secs = 0.002;
    let cluster = start(&fixture, config(Some(ecfg)));
    let check_wave = |wave: &str, cluster: &Cluster, out: &mut Outcome| {
        for (i, gq) in fixture.questions.iter().enumerate() {
            match cluster.ask(&gq.question) {
                Err(e) => out.violations.push(format!(
                    "runtime {wave}: question {} was lost (ask returned {e:?})",
                    gq.question.id
                )),
                Ok(answer) if !answer.coverage.is_complete() => out.violations.push(format!(
                    "runtime {wave}: question {} degraded under elastic routing",
                    gq.question.id
                )),
                Ok(answer) if answer_bytes(&answer) != baseline[i] => out.violations.push(format!(
                    "runtime {wave}: answer for question {} diverged from the \
                         fault-free baseline",
                    gq.question.id
                )),
                Ok(_) => {}
            }
        }
    };

    check_wave("pre-drain", &cluster, out);
    let drained = cluster.drain(NodeId::new(1));
    if drained == 0 {
        out.violations
            .push("runtime: drain of an owner moved nothing".into());
    }
    check_wave("post-drain", &cluster, out);
    let joined = cluster.join(NodeId::new(3));
    if joined == 0 {
        out.violations
            .push("runtime: standby join moved nothing".into());
    }
    cluster.heal();
    check_wave("post-join", &cluster, out);

    match cluster.rebalance_status() {
        Some((epoch, true)) if epoch > 0 => out.say(format!(
            "runtime: drain moved {drained}, join moved {joined}, epoch {epoch}, converged"
        )),
        status => out.violations.push(format!(
            "runtime: ownership did not converge after the round trip ({status:?})"
        )),
    }
    let owners: Vec<u32> = cluster.ownership().iter().map(|&(_, node)| node).collect();
    if owners.contains(&1) {
        out.violations
            .push("runtime: the drained node still owns a sub-collection".into());
    }
    cluster.shutdown();

    let snap = registry.snapshot();
    for reason in ["drain", "join"] {
        if plans(&snap, reason) != 1 {
            out.violations.push(format!(
                "runtime: expected exactly one {reason} plan, saw {}",
                plans(&snap, reason)
            ));
        }
    }
    // Cross-backend check, exact because the code is shared: the same
    // drain(1) → join(3) through a bare `Rebalancer` on a manual clock
    // must end on the same owners after the same plans. A driver that
    // stops passing membership or liveness through faithfully fails here.
    let subs = fixture.corpus.config.sub_collections as u32;
    let (want_owners, want_plans) = reference_drill(ecfg, subs);
    if owners != want_owners {
        out.violations.push(format!(
            "runtime: final ownership {owners:?} differs from the Rebalancer \
             reference {want_owners:?}"
        ));
    }
    for (reason, want) in want_plans {
        if plans(&snap, reason) != want {
            out.violations.push(format!(
                "runtime: {} {reason} plan(s), the Rebalancer reference minted {want}",
                plans(&snap, reason)
            ));
        }
    }
    if snap.counter(names::REBALANCE_MIGRATED_TOTAL) < (drained + joined) as u64 {
        out.violations
            .push("runtime: migrated counter under-reports the applied steps".into());
    }
    if snap
        .histograms
        .get(names::REBALANCE_HEAL_SECONDS)
        .is_none_or(|h| h.count == 0)
    {
        out.violations
            .push("runtime: no heal latency was recorded".into());
    }
    out.say(format!(
        "runtime counters: {} migrated, {} throttle deferral(s), {} wave(s) byte-identical",
        snap.counter(names::REBALANCE_MIGRATED_TOTAL),
        snap.counter_family(names::REBALANCE_THROTTLED_TOTAL),
        3
    ));
    out.metrics = Some(registry);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let questions = if ctx.ci { 6 } else { 12 };
    let seed = ctx.seed;
    println!("Rebalance soak — seed {seed}, {questions} question(s) per DES run\n");

    // Fault-free elastic reference: the tier is on, nothing happens, and
    // its p99 anchors the deadline drill below.
    let clean_build = || SimConfig {
        elastic: Some(ElasticConfig::default()),
        ..low_cfg(questions, seed)
    };
    let (clean, _) = run_des("clean", 4, &clean_build, &mut out);
    if plans_total(&clean) != 0 {
        out.violations
            .push("des clean: a quiescent cluster minted a migration plan".into());
    }
    let deadline = (clean.admitted_response_percentile(0.99) * 4.0).max(60.0);

    // Named membership drills over the same base schedule.
    let faulted = |faults: FaultSchedule| SimConfig {
        faults,
        ..low_cfg(questions, seed)
    };
    let drain_mid_run = || faulted(FaultSchedule::seeded(seed).decommission(NodeId::new(1), 15.0));
    let drills: [(&str, usize, &dyn Fn() -> SimConfig); 5] = [
        ("drain-mid-run", 4, &drain_mid_run),
        ("drain-join-round-trip", 3, &|| SimConfig {
            nodes: 3,
            ..faulted(
                FaultSchedule::seeded(seed)
                    .decommission(NodeId::new(2), 10.0)
                    .node_join(NodeId::new(2), 120.0),
            )
        }),
        ("permanent-loss", 4, &|| SimConfig {
            elastic: Some(ElasticConfig::default()),
            ..faulted(FaultSchedule::seeded(seed).crash(NodeId::new(2), 20.0))
        }),
        ("drain-under-stall", 4, &|| {
            faulted(
                FaultSchedule::seeded(seed)
                    .decommission(NodeId::new(1), 5.0)
                    .rebalance_stall(5.0, 60.0),
            )
        }),
        // The foreground-protection clause: a drain mid-run with a
        // deadline four times the fault-free tail must shed nothing.
        ("drain-under-deadline", 4, &|| {
            let mut cfg = drain_mid_run();
            cfg.overload.deadline_secs = Some(deadline);
            cfg
        }),
    ];

    for (name, nodes, build) in drills {
        let (report, tag) = run_des(name, nodes, build, &mut out);
        if matches!(
            name,
            "drain-mid-run" | "drain-under-stall" | "drain-under-deadline"
        ) {
            if plans(&report.metrics, "drain") != 1 {
                out.violations
                    .push(format!("{tag}: drain never minted a plan"));
            }
            if report
                .questions
                .iter()
                .any(|q| q.arrival > 20.0 && q.home == NodeId::new(1))
            {
                out.violations
                    .push(format!("{tag}: a question homed on the drained node"));
            }
        }
        match name {
            "drain-join-round-trip" if plans(&report.metrics, "join") != 1 => out
                .violations
                .push(format!("{tag}: rejoin never minted a join plan")),
            "permanent-loss" if plans(&report.metrics, "permanent-loss") != 1 => out
                .violations
                .push(format!("{tag}: the detector never evacuated the victim")),
            "drain-under-stall" => {
                let key = metric_key(names::REBALANCE_THROTTLED_TOTAL, &[("cause", "stalled")]);
                if report.metrics.counter(&key) == 0 {
                    out.violations
                        .push(format!("{tag}: the stall window deferred no steps"));
                }
            }
            "drain-under-deadline" => {
                let counts = report.outcome_counts();
                if counts.degraded > 0 || counts.rejected > 0 {
                    out.violations.push(format!(
                        "{tag}: migration pushed foreground past its deadline \
                         ({} degraded, {} rejected)",
                        counts.degraded, counts.rejected
                    ));
                }
                if report.admitted_response_percentile(0.99) > deadline {
                    out.violations.push(format!(
                        "{tag}: admitted p99 {:.1} s exceeds the {deadline:.1} s deadline",
                        report.admitted_response_percentile(0.99)
                    ));
                }
            }
            _ => {}
        }
    }

    println!();
    run_runtime_demo(ctx, &mut out);
    out
}
