//! Federation chaos soak: drive the broker tier through shard loss,
//! shard partitions and broker crashes on *both* backends — the
//! virtual-time model (`federation::sim`) and the thread runtime
//! (`federation::FederationBroker`) — and assert the partial-failure
//! contract end to end:
//!
//! 1. **Conservation** — every offered question leaves exactly one way:
//!    merged (possibly with degraded coverage) or rejected with a
//!    retry-after hint. Never an error, never a silent drop.
//! 2. **Determinism** — running any DES configuration twice yields
//!    bit-identical reports (`PartialEq` over every record, equal
//!    serialised bytes, and the report's own splitmix64 digest of every
//!    shard decision).
//! 3. **Partial-failure tolerance** — with any single shard crashed or
//!    partitioned, every admitted question still yields a merged answer
//!    with coverage < 1.0 at worst; a transient broker crash delays
//!    questions instead of losing them.
//! 4. **Observability** — the runtime burst demo across ≥ 2 shards must
//!    surface hedge / merge / coverage counters in the broker registry.
//!
//! `--ci` runs 12 questions per DES run and a 4-question runtime burst.

use super::{json, Ctx, Outcome};
use crate::fixtures::QaFixture;
use dqa_obs::{names, MetricsRegistry};
use faults::FaultSchedule;
use federation::{
    run_fed_sim, FedSimConfig, FederatedAdmission, FederationBroker, FederationConfig,
};
use qa_types::QuestionOutcome;

/// One named fault schedule of the DES sweep.
struct Schedule {
    name: &'static str,
    faults: fn(u64) -> FaultSchedule,
}

const SCHEDULES: &[Schedule] = &[
    Schedule {
        name: "clean",
        faults: FaultSchedule::seeded,
    },
    Schedule {
        name: "shard-loss",
        faults: |seed| FaultSchedule::seeded(seed).shard_down(0, 0.0),
    },
    Schedule {
        name: "shard-partition",
        faults: |seed| FaultSchedule::seeded(seed).shard_partition(0, 4.0, 12.0),
    },
    Schedule {
        name: "broker-crash",
        faults: |seed| FaultSchedule::seeded(seed).broker_crash_rejoin(3.0, 9.0),
    },
];

/// Run one DES configuration twice and check determinism, conservation
/// and the schedule's own tolerance clause.
fn run_des(shards: usize, questions: usize, seed: u64, schedule: &Schedule, out: &mut Outcome) {
    let mut cfg = FedSimConfig::new(shards, questions, seed);
    cfg.faults = (schedule.faults)(seed);
    let twice = out.double_run(|| run_fed_sim(&cfg), json);
    let report = twice.report;
    let tag = format!("des {}x{} [{}]", shards, questions, schedule.name);
    if twice.diverged {
        out.violations.push(format!(
            "{tag}: double run diverged (digest {:#018x} vs {:#018x})",
            twice.digests.0, twice.digests.1
        ));
    }
    if !report.conserved() {
        out.violations.push(format!(
            "{tag}: conservation broken — {} merged + {} rejected of {} offered",
            report.merges,
            report.rejected,
            report.questions.len()
        ));
    }
    match schedule.name {
        // Losing one member of a multi-shard federation degrades
        // coverage; it must never reject or drop.
        "shard-loss" | "shard-partition" if shards > 1 => {
            if report.rejected > 0 {
                out.violations.push(format!(
                    "{tag}: single-shard fault caused {} rejection(s)",
                    report.rejected
                ));
            }
            if report
                .questions
                .iter()
                .any(|q| q.responders == 0 || q.coverage.fraction() <= 0.0)
            {
                out.violations
                    .push(format!("{tag}: a question lost every shard"));
            }
        }
        // A transient broker crash holds arrivals; nothing is refused
        // and nothing starts inside the outage window.
        "broker-crash" => {
            if report.rejected > 0 {
                out.violations.push(format!(
                    "{tag}: transient broker crash rejected {} question(s)",
                    report.rejected
                ));
            }
            if report
                .questions
                .iter()
                .any(|q| q.arrival >= 3.0 && q.arrival < 9.0)
            {
                out.violations
                    .push(format!("{tag}: a question started inside the outage"));
            }
        }
        _ => {}
    }
    let counts = report.outcome_counts();
    out.say(format!(
        "{tag}: {} answered / {} degraded / {} rejected, {} hedge(s), \
         {} shortfall(s), p99 {:.1} s, digest {:#018x}",
        counts.answered,
        counts.degraded,
        counts.rejected,
        report.hedges,
        report.quorum_shortfalls,
        report.merged_response_percentile(0.99),
        report.digest
    ));
}

/// Thread-runtime burst demo: a real broker over ≥ 2 shard clusters with
/// shard 0 injected down, an aggressive hedge floor, and one concurrent
/// burst. Asserts the merge/coverage contract and that the federation
/// counters are visible in the broker registry.
fn run_runtime_demo(ctx: &Ctx, out: &mut Outcome) {
    let burst = if ctx.ci { 4 } else { 8 };
    let fixture = QaFixture::small(ctx.seed, burst);
    let registry = MetricsRegistry::new();
    let mut cfg = FederationConfig::new(2);
    cfg.nodes_per_shard = if ctx.ci { 1 } else { 2 };
    cfg.metrics = Some(registry.clone());
    // Hedge floor 0: every cold shard hedges, so the counters light up.
    cfg.policy = cfg.policy.with_hedge_after(0.0);
    // Shard 0 is dark from t = 0 — the single-member-loss drill.
    cfg.faults = FaultSchedule::seeded(ctx.seed).shard_down(0, 0.0);
    let broker = FederationBroker::start(
        &fixture.corpus.documents,
        fixture.corpus.config.sub_collections,
        cfg,
    );
    let questions: Vec<_> = fixture.questions[..burst]
        .iter()
        .map(|gq| gq.question.clone())
        .collect();
    let results = broker.ask_many(&questions);
    if results.len() != burst {
        out.violations.push(format!(
            "runtime: {} result(s) for {} offered — silent drop",
            results.len(),
            burst
        ));
    }
    for (i, admission) in results.iter().enumerate() {
        match admission {
            FederatedAdmission::Answered(ans) => {
                if ans.coverage.fraction() >= 1.0 {
                    out.violations.push(format!(
                        "runtime q{i}: full coverage reported with shard 0 down"
                    ));
                }
                let responders = ans.shards.iter().filter(|s| s.status.responded()).count();
                if responders == 0 {
                    out.violations
                        .push(format!("runtime q{i}: merged answer with zero responders"));
                }
                out.say(format!(
                    "runtime q{i}: {:?}, {responders}/{} shard(s), coverage {:.2}, {:.3} s",
                    admission.outcome(),
                    ans.shards.len(),
                    ans.coverage.fraction(),
                    ans.latency_secs
                ));
            }
            FederatedAdmission::Rejected { retry_after } => {
                out.violations.push(format!(
                    "runtime q{i}: rejected (retry {retry_after:?}) under a permissive policy"
                ));
            }
        }
    }
    if results
        .iter()
        .any(|r| r.outcome() == QuestionOutcome::Answered)
    {
        out.violations
            .push("runtime: an answer claimed full coverage with shard 0 down".into());
    }
    broker.shutdown();
    let snap = registry.snapshot();
    let merges = snap.counter(names::MERGES_TOTAL);
    let rejected = snap.counter(&dqa_obs::metric_key(
        names::QUESTIONS_TOTAL,
        &[("outcome", "rejected")],
    ));
    if merges + rejected != burst as u64 {
        out.violations.push(format!(
            "runtime: counter conservation broken — {merges} merge(s) + {rejected} \
             rejection(s) of {burst} offered"
        ));
    }
    if snap.counter(names::HEDGES_TOTAL) == 0 {
        out.violations
            .push("runtime: zero-floor hedging never fired".into());
    }
    if !snap
        .counters
        .keys()
        .any(|k| k.starts_with(names::SHARD_REQUESTS_TOTAL))
    {
        out.violations
            .push("runtime: no per-shard request counters exported".into());
    }
    out.say(format!(
        "runtime counters: {merges} merge(s), {} shortfall(s), {} hedge(s) ({} won)",
        snap.counter(names::QUORUM_SHORTFALLS_TOTAL),
        snap.counter(names::HEDGES_TOTAL),
        snap.counter(names::HEDGE_WINS_TOTAL),
    ));
    out.metrics = Some(registry);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let questions = if ctx.ci { 12 } else { 40 };
    println!(
        "Federation soak — seed {}, {questions} question(s) per DES run\n",
        ctx.seed
    );
    for shards in [1, 2, 4] {
        for schedule in SCHEDULES {
            // Shard faults need a second member to pick up the slack;
            // the 1-shard column only runs the clean + broker schedules.
            if shards == 1 && schedule.name.starts_with("shard") {
                continue;
            }
            run_des(shards, questions, ctx.seed, schedule, &mut out);
        }
    }
    println!();
    run_runtime_demo(ctx, &mut out);
    out
}
