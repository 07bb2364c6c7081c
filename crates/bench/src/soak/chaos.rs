//! Seeded chaos soak over the thread runtime: sweep the link-failure
//! rate and report recovery overhead (latency inflation, recoveries,
//! speculations, degradations) while asserting the fault framework's
//! two hard invariants:
//!
//! 1. no question is ever lost — every ask returns `Ok`;
//! 2. every full-coverage answer is byte-identical to the fault-free
//!    baseline.
//!
//! The sweep stops at the first violating rate and keeps that cluster's
//! runtime trace for the dump. `--ci` runs two fault rates over six
//! questions.

use super::{answer_bytes, baseline, start, Ctx, Outcome};
use crate::fixtures::QaFixture;
use dqa_obs::MetricsRegistry;
use dqa_runtime::{ClusterConfig, TraceKind};
use faults::{FaultSchedule, RetryPolicy};
use qa_types::{NodeId, OverloadPolicy};
use scheduler::partition::PartitionStrategy;
use std::time::Instant;

fn config(faults: FaultSchedule, registry: &MetricsRegistry) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        ap_partition: PartitionStrategy::Recv { chunk_size: 8 },
        faults,
        fault_time_scale: 0.001,
        overload: OverloadPolicy::default().with_deadline(20.0),
        retry: RetryPolicy::with_budget(64),
        speculate_after: Some(5),
        metrics: Some(registry.clone()),
        ..ClusterConfig::default()
    }
}

fn schedule(seed: u64, rate: f64) -> FaultSchedule {
    if rate <= 0.0 {
        return FaultSchedule::none();
    }
    // Link faults scale with the sweep rate; one transient crash and one
    // straggler window ride along at every non-zero point so node-level
    // recovery is exercised too.
    FaultSchedule::seeded(seed)
        .crash_rejoin(NodeId::new(1), 40.0, 160.0)
        .straggler(NodeId::new(2), 80.0, 240.0, 0.25)
        .message_loss(rate)
        .message_delay(rate, 0.003)
        .message_dup(rate / 2.0)
        .monitor_loss(rate)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let fixture = QaFixture::small(ctx.seed, if ctx.ci { 6 } else { 8 });
    let asked = fixture.questions.len();
    let rates: &[f64] = if ctx.ci {
        &[0.05, 0.15]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.20]
    };

    // One registry across the baseline and every fault-rate cluster, so
    // the snapshot aggregates the whole soak.
    let registry = MetricsRegistry::new();
    let clean = start(&fixture, config(FaultSchedule::none(), &registry));
    let clean_start = Instant::now();
    let baseline = baseline(&clean, &fixture);
    let clean_ms = clean_start.elapsed().as_secs_f64() * 1e3 / asked as f64;
    clean.shutdown();

    println!(
        "Chaos soak — seed {}, {asked} questions, 4 nodes (baseline {clean_ms:.1} ms/question)\n",
        ctx.seed
    );
    println!("  fault rate  mean ms  overhead  recoveries  speculations  degraded  complete");
    for &rate in rates {
        let cluster = start(&fixture, config(schedule(ctx.seed, rate), &registry));
        let mut complete = 0usize;
        let mut total_ms = 0.0f64;
        for (i, gq) in fixture.questions.iter().enumerate() {
            let t = Instant::now();
            match cluster.ask(&gq.question) {
                Err(e) => out.violations.push(format!(
                    "rate {rate}: question {} was lost (ask returned {e:?})",
                    gq.question.id
                )),
                Ok(answer) => {
                    total_ms += t.elapsed().as_secs_f64() * 1e3;
                    if answer.coverage.is_complete() {
                        complete += 1;
                        if answer_bytes(&answer) != baseline[i] {
                            out.violations.push(format!(
                                "rate {rate}: full-coverage answer for question {} \
                                 diverged from the fault-free baseline",
                                gq.question.id
                            ));
                        }
                    }
                }
            }
        }
        let events = cluster.trace().events();
        let count = |kind: fn(&TraceKind) -> bool| events.iter().filter(|e| kind(&e.kind)).count();
        let mean_ms = total_ms / asked.max(1) as f64;
        println!(
            "  {rate:>10.2}  {mean_ms:>7.1}  {:>7.2}x  {:>10}  {:>12}  {:>8}  {complete:>6}/{asked}",
            if clean_ms > 0.0 { mean_ms / clean_ms } else { 0.0 },
            count(|k| matches!(k, TraceKind::WorkerFailed)),
            count(|k| matches!(k, TraceKind::Speculated(_))),
            count(|k| matches!(k, TraceKind::Degraded(_))),
        );
        let broken = !out.violations.is_empty();
        if broken {
            out.trace = cluster.trace().render();
        }
        cluster.shutdown();
        if broken {
            break;
        }
    }
    out.metrics = Some(registry);
    out
}
