//! The causal-tracing latency-budget regression gate.
//!
//! Three clauses over the span trees the tracing tier records:
//!
//! 1. **Determinism** — every seeded DES schedule (including the chaos
//!    matrix entries: node crash, elastic drain) is run twice and the
//!    exported Perfetto/chrome-tracing JSON must be byte-identical.
//!    Span identity is derived arithmetic (`derive_trace_id` +
//!    per-trace ordinals), never wall time or RNG, so any divergence is
//!    a real nondeterminism bug.
//! 2. **Attribution** — for every completed question the critical-path
//!    components must sum to the measured end-to-end latency within
//!    [`RESIDUAL_BUDGET`] (1 %), the span set must be well nested, and
//!    every export must validate as chrome-tracing JSON.
//! 3. **Budget** — latency budgets per component share: the queue-wait
//!    (coordination/overhead) share of the DES critical path stays
//!    under [`DES_QUEUE_SHARE_BUDGET`]; on the thread runtime the
//!    admission+queue share stays under [`RUNTIME_QUEUE_SHARE_BUDGET`]
//!    and the flight-recorder ring must not overflow; on the federated
//!    broker the hedge-span share stays under [`HEDGE_SHARE_BUDGET`].
//!
//! `--ci` runs 6 questions per low-load DES schedule, 3 on the runtime
//! and 2 through the broker.

use super::{start, Ctx, Outcome};
use crate::fixtures::QaFixture;
use cluster_sim::{BalancingStrategy, QaSimulation, SimConfig};
use dqa_obs::{critical_path, validate_chrome_json, validate_nesting, CausalSpan, MetricsRegistry};
use dqa_runtime::{Admission, ClusterConfig};
use faults::FaultSchedule;
use federation::{FederatedAdmission, FederationBroker, FederationConfig};
use qa_types::NodeId;
use rebalance::ElasticConfig;
use scheduler::partition::PartitionStrategy;
use std::collections::BTreeSet;

/// Largest tolerated |end-to-end − attributed| as a fraction of the
/// end-to-end latency (the acceptance bar's 1 % clause).
const RESIDUAL_BUDGET: f64 = 0.01;
/// Largest tolerated queue-wait share of the DES critical path (the
/// Table 9 coordination overhead must not dominate the phases).
const DES_QUEUE_SHARE_BUDGET: f64 = 0.60;
/// Largest tolerated admission/ingress queue share on the thread
/// runtime under a serial, uncontended workload.
const RUNTIME_QUEUE_SHARE_BUDGET: f64 = 0.50;
/// Largest tolerated hedge-span share of the federated critical path:
/// hedges are a tail patch, not the common case.
const HEDGE_SHARE_BUDGET: f64 = 0.75;

/// What the critical paths of one span set add up to.
struct Paths {
    /// Traces with a positive end-to-end latency.
    n: usize,
    e2e_sum: f64,
    queue_sum: f64,
    hedge_sum: f64,
    /// Worst attribution residual, as a fraction of its trace's e2e.
    worst: f64,
}

impl Paths {
    fn share(&self, seconds: f64) -> f64 {
        seconds / self.e2e_sum.max(f64::MIN_POSITIVE)
    }

    fn mean_e2e(&self) -> f64 {
        self.e2e_sum / self.n.max(1) as f64
    }
}

/// Critical-path attribution + budget checks over one span set holding
/// one or more per-question trees.
fn check_paths(tag: &str, spans: &[CausalSpan], out: &mut Outcome) -> Paths {
    if let Err(e) = validate_nesting(spans) {
        out.violations
            .push(format!("{tag}: spans are not well nested: {e}"));
    }
    let traces: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.trace)
        .collect();
    let mut paths = Paths {
        n: 0,
        e2e_sum: 0.0,
        queue_sum: 0.0,
        hedge_sum: 0.0,
        worst: 0.0,
    };
    for trace in traces {
        let tree: Vec<CausalSpan> = spans.iter().filter(|s| s.trace == trace).cloned().collect();
        let Some(cp) = critical_path(&tree) else {
            out.violations
                .push(format!("{tag}: trace {trace:016x} has no critical path"));
            continue;
        };
        paths.hedge_sum += cp.seconds_for("hedge");
        let e2e = cp.total();
        if e2e <= 0.0 {
            continue;
        }
        let residual = (e2e - cp.attributed()).abs() / e2e;
        if residual > RESIDUAL_BUDGET {
            out.violations.push(format!(
                "{tag}: trace {trace:016x} attribution residual {:.2} % exceeds {:.0} % \
                 (e2e {e2e:.6} s, attributed {:.6} s)",
                100.0 * residual,
                100.0 * RESIDUAL_BUDGET,
                cp.attributed()
            ));
        }
        paths.n += 1;
        paths.e2e_sum += e2e;
        paths.queue_sum += cp.queue_total();
        paths.worst = paths.worst.max(residual);
    }
    paths
}

/// Run one DES schedule twice, require byte-identical exports, and
/// apply the attribution + queue-share budgets.
fn run_des(name: &str, build: &dyn Fn() -> SimConfig, seed: u64, out: &mut Outcome) {
    let tag = format!("des [{name}]");
    let twice = out.double_run(
        || QaSimulation::new(build()).run(),
        |report| report.chrome_trace(seed),
    );
    let report = twice.report;
    if twice.diverged {
        out.violations.push(format!(
            "{tag}: span export diverged across a seeded double run"
        ));
    }
    let events = match validate_chrome_json(&twice.export) {
        Ok(n) => n,
        Err(e) => {
            out.violations
                .push(format!("{tag}: export is not valid chrome tracing: {e}"));
            0
        }
    };
    let spans = report.all_causal_spans(seed);
    let paths = check_paths(&tag, &spans, out);
    let queue_share = paths.share(paths.queue_sum);
    if paths.n > 0 && queue_share > DES_QUEUE_SHARE_BUDGET {
        out.violations.push(format!(
            "{tag}: queue-wait share {:.1} % exceeds the {:.0} % budget",
            100.0 * queue_share,
            100.0 * DES_QUEUE_SHARE_BUDGET
        ));
    }
    out.say(format!(
        "{tag}: {} path(s) over {} span(s) ({events} trace event(s)), mean e2e {:.2} s, \
         queue share {:.1} %, worst residual {:.3e}",
        paths.n,
        spans.len(),
        paths.mean_e2e(),
        100.0 * queue_share,
        paths.worst
    ));
}

/// Thread-runtime clause: answer questions through the admission gate,
/// seal spans, and hold the nesting/attribution/queue budgets on wall
/// time. Also proves the flight-recorder ring was large enough.
fn run_runtime(ctx: &Ctx, out: &mut Outcome) {
    let tag = "runtime";
    let n = if ctx.ci { 3 } else { 6 };
    let fixture = QaFixture::small(ctx.seed, n);
    let cluster = start(
        &fixture,
        ClusterConfig {
            nodes: 4,
            metrics: Some(MetricsRegistry::new()),
            trace_seed: ctx.seed,
            ..ClusterConfig::default()
        },
    );
    for gq in &fixture.questions {
        match cluster.submit(&gq.question) {
            Admission::Answered(_) => {}
            other => out.violations.push(format!(
                "{tag}: question {} did not answer under a permissive policy ({other:?})",
                gq.question.id
            )),
        }
    }
    if cluster.tracer().dropped() > 0 {
        out.violations.push(format!(
            "{tag}: flight-recorder ring overflowed ({} span(s) dropped)",
            cluster.tracer().dropped()
        ));
    }
    let spans = cluster.tracer().spans();
    cluster.shutdown();
    let paths = check_paths(tag, &spans, out);
    if paths.n != n {
        out.violations.push(format!(
            "{tag}: {} sealed trace(s) for {n} answered question(s)",
            paths.n
        ));
    }
    let queue_share = paths.share(paths.queue_sum);
    if paths.n > 0 && queue_share > RUNTIME_QUEUE_SHARE_BUDGET {
        out.violations.push(format!(
            "{tag}: admission/queue share {:.1} % exceeds the {:.0} % budget",
            100.0 * queue_share,
            100.0 * RUNTIME_QUEUE_SHARE_BUDGET
        ));
    }
    out.say(format!(
        "{tag}: {} question(s) sealed into {} span(s), mean e2e {:.3} s, \
         queue share {:.1} %, worst residual {:.3e}",
        paths.n,
        spans.len(),
        paths.mean_e2e(),
        100.0 * queue_share,
        paths.worst
    ));
}

/// Federated clause: scatter-gather through the broker and hold the
/// hedge-share budget over the broker's own span trees.
fn run_federated(ctx: &Ctx, out: &mut Outcome) {
    let tag = "federated";
    let fixture = QaFixture::small(ctx.seed ^ 0x5eed, if ctx.ci { 2 } else { 4 });
    let mut cfg = FederationConfig::new(2);
    cfg.nodes_per_shard = 2;
    cfg.metrics = Some(MetricsRegistry::new());
    cfg.trace_seed = ctx.seed;
    let broker = FederationBroker::start(
        &fixture.corpus.documents,
        fixture.corpus.config.sub_collections,
        cfg,
    );
    for gq in &fixture.questions {
        match broker.ask(&gq.question) {
            FederatedAdmission::Answered(_) => {}
            FederatedAdmission::Rejected { .. } => out.violations.push(format!(
                "{tag}: question {} rejected under a permissive policy",
                gq.question.id
            )),
        }
    }
    let spans = broker.tracer().spans();
    broker.shutdown();
    let paths = check_paths(tag, &spans, out);
    let hedge_share = paths.share(paths.hedge_sum);
    if paths.n > 0 && hedge_share > HEDGE_SHARE_BUDGET {
        out.violations.push(format!(
            "{tag}: hedge share {:.1} % exceeds the {:.0} % budget",
            100.0 * hedge_share,
            100.0 * HEDGE_SHARE_BUDGET
        ));
    }
    out.say(format!(
        "{tag}: {} scatter(s) into {} span(s), mean e2e {:.3} s, hedge share {:.1} %, \
         worst residual {:.3e}",
        paths.n,
        spans.len(),
        paths.mean_e2e(),
        100.0 * hedge_share,
        paths.worst
    ));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let questions = if ctx.ci { 6 } else { 12 };
    let seed = ctx.seed;
    println!("Trace gate — seed {seed}, {questions} question(s) per DES run\n");

    let low = || {
        SimConfig::paper_low_load(
            4,
            PartitionStrategy::Recv { chunk_size: 40 },
            questions,
            seed,
        )
    };
    let schedules: [(&str, &dyn Fn() -> SimConfig); 4] = [
        ("low-load", &low),
        ("high-load", &|| {
            SimConfig::paper_high_load(4, BalancingStrategy::Dqa, seed)
        }),
        // Chaos matrix: a mid-run node crash re-queues chunks; the
        // retried work must still attribute cleanly.
        ("node-crash", &|| SimConfig {
            faults: FaultSchedule::seeded(seed).crash(NodeId::new(2), 20.0),
            ..low()
        }),
        // Chaos matrix: a live drain migrates sub-collections while
        // questions run.
        ("elastic-drain", &|| SimConfig {
            elastic: Some(ElasticConfig::default()),
            faults: FaultSchedule::seeded(seed).decommission(NodeId::new(1), 15.0),
            ..low()
        }),
    ];
    for (name, build) in schedules {
        run_des(name, build, seed, &mut out);
    }
    run_runtime(ctx, &mut out);
    run_federated(ctx, &mut out);
    out
}
