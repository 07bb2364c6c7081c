//! Elastic-membership soak: drive the re-sharding tier through drains,
//! joins, permanent losses and stall windows on *both* backends — the
//! virtual-time mirror (`cluster_sim`) and the thread runtime
//! (`dqa_runtime::Cluster`) — and assert the self-healing contract end
//! to end:
//!
//! 1. **Conservation** — every offered question completes; membership
//!    churn never loses or rejects a question under a permissive policy.
//! 2. **Determinism** — running any DES schedule twice yields
//!    bit-identical reports (`PartialEq` over every record and the full
//!    metrics snapshot).
//! 3. **Convergence** — after every drill the ownership map covers all
//!    sub-collections exactly once across the live pool
//!    (`dqa_rebalance_converged` back at 1), and on the runtime a
//!    post-healing answer set is byte-identical to the fault-free
//!    baseline.
//! 4. **Foreground protection** — with a deadline set to a generous
//!    multiple of the fault-free p99, a mid-run drain must shed nothing:
//!    migration yields to foreground instead of pushing it past its
//!    deadline.
//!
//! On a violation the run summaries (and the runtime trace) are dumped
//! to `--trace-out` (default `target/rebalance_soak_trace.txt`) and the
//! process exits non-zero; the CI rebalance job uploads the dump as an
//! artifact. `--bench-out` writes the schema-v1 `BENCH_8.json` point
//! set: per-scenario outcome counts, admitted p99, migrated
//! sub-collections and heal latency.
//!
//! `--ci` runs the short fixed-seed configuration sized for a
//! per-commit gate.

use bench::fixtures::QaFixture;
use cluster_sim::{QaSimulation, SimConfig, SimReport};
use dqa_obs::{metric_key, names, MetricsRegistry};
use dqa_runtime::{Cluster, ClusterConfig};
use faults::FaultSchedule;
use nlp::NamedEntityRecognizer;
use qa_types::NodeId;
use rebalance::ElasticConfig;
use scheduler::partition::PartitionStrategy;

struct Args {
    ci: bool,
    seed: u64,
    trace_out: String,
    metrics_out: Option<String>,
    bench_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        ci: false,
        seed: 8001,
        trace_out: "target/rebalance_soak_trace.txt".into(),
        metrics_out: None,
        bench_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ci" => args.ci = true,
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            "--trace-out" => {
                if let Some(p) = it.next() {
                    args.trace_out = p;
                }
            }
            "--metrics-out" => args.metrics_out = it.next(),
            "--bench-out" => args.bench_out = it.next(),
            other => {
                eprintln!(
                    "unknown argument {other}; usage: rebalance_soak [--ci] [--seed N] \
                     [--trace-out PATH] [--metrics-out PATH] [--bench-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Sum of the labelled `dqa_rebalance_plans_total` family.
fn plans_total(report: &SimReport) -> u64 {
    ["permanent-loss", "drain", "join", "load-skew"]
        .iter()
        .map(|r| {
            report
                .metrics
                .counter(&metric_key(names::REBALANCE_PLANS_TOTAL, &[("reason", r)]))
        })
        .sum()
}

/// One soak point for the bench JSON.
struct Point {
    scenario: &'static str,
    nodes: usize,
    report: SimReport,
}

/// Run one DES schedule twice and check determinism, conservation and
/// (when the elastic tier is active) convergence. Returns the first
/// report alongside a one-line summary.
fn run_des_scenario(
    name: &'static str,
    nodes: usize,
    build: &dyn Fn() -> SimConfig,
    violations: &mut Vec<String>,
) -> (SimReport, String) {
    let offered = build().questions;
    let report = QaSimulation::new(build()).run();
    let replay = QaSimulation::new(build()).run();
    let tag = format!("des {nodes} node(s) [{name}]");
    if report != replay {
        violations.push(format!("{tag}: double run diverged"));
    }
    let counts = report.outcome_counts();
    if report.questions.len() != offered || counts.offered() != offered {
        violations.push(format!(
            "{tag}: {} record(s) / {} outcome(s) for {offered} offered — a question was lost",
            report.questions.len(),
            counts.offered()
        ));
    }
    if counts.rejected > 0 {
        violations.push(format!(
            "{tag}: membership churn rejected {} question(s) under a permissive policy",
            counts.rejected
        ));
    }
    if let Some(converged) = report.metrics.gauges.get(names::REBALANCE_CONVERGED) {
        if *converged != 1.0 {
            violations.push(format!(
                "{tag}: ownership never re-converged (gauge {converged})"
            ));
        }
    } else if name != "clean" {
        violations.push(format!("{tag}: elastic tier never activated"));
    }
    let summary = format!(
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
    );
    (report, summary)
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

/// Thread-runtime drill: a live drain and a standby join between answer
/// waves, with every post-healing answer byte-compared against the
/// fault-free baseline. This is the "Coverage byte-identical" clause of
/// the acceptance bar, on real threads.
fn run_runtime_demo(
    args: &Args,
    registry: &MetricsRegistry,
    violations: &mut Vec<String>,
) -> Vec<String> {
    let burst = if args.ci { 4 } else { 8 };
    let fixture = QaFixture::small(args.seed, burst);
    let mut lines = Vec::new();

    // Fault-free baseline answers, no elastic tier.
    let clean = Cluster::start(
        fixture.retriever(),
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes: 4,
            metrics: Some(registry.clone()),
            ..ClusterConfig::default()
        },
    );
    let mut baseline = Vec::new();
    for gq in &fixture.questions {
        let out = clean.ask(&gq.question).expect("fault-free ask failed");
        assert!(out.coverage.is_complete(), "fault-free run degraded");
        baseline.push(serde_json::to_string(&out.answers).expect("serialize answers"));
    }
    clean.shutdown();

    // Elastic cluster: nodes 0–2 active, node 3 a warm spare. Migration
    // steps are paced fast so the drill stays CI-sized.
    let mut ecfg = ElasticConfig::with_standby(1);
    ecfg.throttle.step_secs = 0.002;
    let cluster = Cluster::start(
        fixture.retriever(),
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes: 4,
            metrics: Some(registry.clone()),
            elastic: Some(ecfg),
            ..ClusterConfig::default()
        },
    );
    let check_wave = |wave: &str, cluster: &Cluster, violations: &mut Vec<String>| {
        for (i, gq) in fixture.questions.iter().enumerate() {
            match cluster.ask(&gq.question) {
                Err(e) => violations.push(format!(
                    "runtime {wave}: question {} was lost (ask returned {e:?})",
                    gq.question.id
                )),
                Ok(out) => {
                    if !out.coverage.is_complete() {
                        violations.push(format!(
                            "runtime {wave}: question {} degraded under elastic routing",
                            gq.question.id
                        ));
                    } else {
                        let bytes = serde_json::to_string(&out.answers).expect("serialize answers");
                        if bytes != baseline[i] {
                            violations.push(format!(
                                "runtime {wave}: answer for question {} diverged from the \
                                 fault-free baseline",
                                gq.question.id
                            ));
                        }
                    }
                }
            }
        }
    };

    check_wave("pre-drain", &cluster, violations);
    let drained = cluster.drain(NodeId::new(1));
    if drained == 0 {
        violations.push("runtime: drain of an owner moved nothing".into());
    }
    check_wave("post-drain", &cluster, violations);
    let joined = cluster.join(NodeId::new(3));
    if joined == 0 {
        violations.push("runtime: standby join moved nothing".into());
    }
    cluster.heal();
    check_wave("post-join", &cluster, violations);

    match cluster.rebalance_status() {
        Some((epoch, true)) if epoch > 0 => {
            lines.push(format!(
                "runtime: drain moved {drained}, join moved {joined}, epoch {epoch}, converged"
            ));
        }
        status => violations.push(format!(
            "runtime: ownership did not converge after the round trip ({status:?})"
        )),
    }
    if cluster.ownership().iter().any(|&(_, node)| node == 1) {
        violations.push("runtime: the drained node still owns a sub-collection".into());
    }
    cluster.shutdown();

    let snap = registry.snapshot();
    for reason in ["drain", "join"] {
        let key = metric_key(names::REBALANCE_PLANS_TOTAL, &[("reason", reason)]);
        if snap.counter(&key) != 1 {
            violations.push(format!(
                "runtime: expected exactly one {reason} plan, saw {}",
                snap.counter(&key)
            ));
        }
    }
    if snap.counter(names::REBALANCE_MIGRATED_TOTAL) < (drained + joined) as u64 {
        violations.push("runtime: migrated counter under-reports the applied steps".into());
    }
    if snap
        .histograms
        .get(names::REBALANCE_HEAL_SECONDS)
        .map_or(true, |h| h.count == 0)
    {
        violations.push("runtime: no heal latency was recorded".into());
    }
    lines.push(format!(
        "runtime counters: {} migrated, {} throttle deferral(s), {} wave(s) byte-identical",
        snap.counter(names::REBALANCE_MIGRATED_TOTAL),
        snap.counter_family(names::REBALANCE_THROTTLED_TOTAL),
        3
    ));
    lines
}

/// Schema-v1 `BENCH_8.json`: per-scenario outcome counts, tail latency
/// and healing effort.
fn render_bench_json(args: &Args, points: &[Point]) -> String {
    let body = points
        .iter()
        .map(|p| {
            let counts = p.report.outcome_counts();
            format!(
                "{{\"scenario\":\"{}\",\"nodes\":{},\"offered\":{},\"answered\":{},\
                 \"degraded\":{},\"rejected\":{},\"p99_s\":{:.4},\"plans\":{},\
                 \"migrated\":{},\"heal_s\":{:.4}}}",
                p.scenario,
                p.nodes,
                p.report.questions.len(),
                counts.answered,
                counts.degraded,
                counts.rejected,
                p.report.admitted_response_percentile(0.99),
                plans_total(&p.report),
                p.report.metrics.counter(names::REBALANCE_MIGRATED_TOTAL),
                p.report
                    .metrics
                    .histograms
                    .get(names::REBALANCE_HEAL_SECONDS)
                    .map_or(0.0, |h| h.sum)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"bench\":\"rebalance_soak\",\"schema\":1,\"seed\":{},\"ci\":{},\
         \"points\":[{body}]}}\n",
        args.seed, args.ci
    )
}

fn main() {
    let args = parse_args();
    let questions = if args.ci { 6 } else { 12 };
    let seed = args.seed;
    let mut violations = Vec::new();
    let mut summaries = Vec::new();
    let mut points = Vec::new();
    println!("Rebalance soak — seed {seed}, {questions} question(s) per DES run\n");

    // Fault-free elastic reference: the tier is on, nothing happens, and
    // its p99 anchors the deadline drill below.
    let clean_build = move || {
        let mut cfg = low_cfg(questions, seed);
        cfg.elastic = Some(ElasticConfig::default());
        cfg
    };
    let (clean, summary) = run_des_scenario("clean", 4, &clean_build, &mut violations);
    if plans_total(&clean) != 0 {
        violations.push("des clean: a quiescent cluster minted a migration plan".into());
    }
    let clean_p99 = clean.admitted_response_percentile(0.99);
    println!("  {summary}");
    summaries.push(summary);
    points.push(Point {
        scenario: "clean",
        nodes: 4,
        report: clean,
    });

    // Named membership drills over the same base schedule.
    let scenarios: Vec<(&'static str, usize, Box<dyn Fn() -> SimConfig>)> = vec![
        (
            "drain-mid-run",
            4,
            Box::new(move || {
                let mut cfg = low_cfg(questions, seed);
                cfg.faults = FaultSchedule::seeded(seed).decommission(NodeId::new(1), 15.0);
                cfg
            }),
        ),
        (
            "drain-join-round-trip",
            3,
            Box::new(move || {
                let mut cfg = low_cfg(questions, seed);
                cfg.nodes = 3;
                cfg.faults = FaultSchedule::seeded(seed)
                    .decommission(NodeId::new(2), 10.0)
                    .node_join(NodeId::new(2), 120.0);
                cfg
            }),
        ),
        (
            "permanent-loss",
            4,
            Box::new(move || {
                let mut cfg = low_cfg(questions, seed);
                cfg.elastic = Some(ElasticConfig::default());
                cfg.faults = FaultSchedule::seeded(seed).crash(NodeId::new(2), 20.0);
                cfg
            }),
        ),
        (
            "drain-under-stall",
            4,
            Box::new(move || {
                let mut cfg = low_cfg(questions, seed);
                cfg.faults = FaultSchedule::seeded(seed)
                    .decommission(NodeId::new(1), 5.0)
                    .rebalance_stall(5.0, 60.0);
                cfg
            }),
        ),
        (
            // The foreground-protection clause: a drain mid-run with a
            // deadline four times the fault-free tail must shed nothing.
            "drain-under-deadline",
            4,
            Box::new(move || {
                let mut cfg = low_cfg(questions, seed);
                cfg.overload.deadline_secs = Some((clean_p99 * 4.0).max(60.0));
                cfg.faults = FaultSchedule::seeded(seed).decommission(NodeId::new(1), 15.0);
                cfg
            }),
        ),
    ];

    for (name, nodes, build) in &scenarios {
        let (report, summary) = run_des_scenario(name, *nodes, build.as_ref(), &mut violations);
        println!("  {summary}");
        summaries.push(summary);
        let tag = format!("des {nodes} node(s) [{name}]");
        match name as &str {
            "drain-mid-run" | "drain-under-stall" | "drain-under-deadline" => {
                let key = metric_key(names::REBALANCE_PLANS_TOTAL, &[("reason", "drain")]);
                if report.metrics.counter(&key) != 1 {
                    violations.push(format!("{tag}: drain never minted a plan"));
                }
                if report
                    .questions
                    .iter()
                    .any(|q| q.arrival > 20.0 && q.home == NodeId::new(1))
                {
                    violations.push(format!("{tag}: a question homed on the drained node"));
                }
            }
            _ => {}
        }
        match name as &str {
            "drain-join-round-trip" => {
                let key = metric_key(names::REBALANCE_PLANS_TOTAL, &[("reason", "join")]);
                if report.metrics.counter(&key) != 1 {
                    violations.push(format!("{tag}: rejoin never minted a join plan"));
                }
            }
            "permanent-loss" => {
                let key = metric_key(
                    names::REBALANCE_PLANS_TOTAL,
                    &[("reason", "permanent-loss")],
                );
                if report.metrics.counter(&key) != 1 {
                    violations.push(format!("{tag}: the detector never evacuated the victim"));
                }
            }
            "drain-under-stall" => {
                let key = metric_key(names::REBALANCE_THROTTLED_TOTAL, &[("cause", "stalled")]);
                if report.metrics.counter(&key) == 0 {
                    violations.push(format!("{tag}: the stall window deferred no steps"));
                }
            }
            "drain-under-deadline" => {
                let counts = report.outcome_counts();
                let deadline = (clean_p99 * 4.0).max(60.0);
                if counts.degraded > 0 || counts.rejected > 0 {
                    violations.push(format!(
                        "{tag}: migration pushed foreground past its deadline \
                         ({} degraded, {} rejected)",
                        counts.degraded, counts.rejected
                    ));
                }
                if report.admitted_response_percentile(0.99) > deadline {
                    violations.push(format!(
                        "{tag}: admitted p99 {:.1} s exceeds the {deadline:.1} s deadline",
                        report.admitted_response_percentile(0.99)
                    ));
                }
            }
            _ => {}
        }
        points.push(Point {
            scenario: name,
            nodes: *nodes,
            report,
        });
    }

    println!();
    let registry = MetricsRegistry::new();
    let lines = run_runtime_demo(&args, &registry, &mut violations);
    for line in &lines {
        println!("  {line}");
        summaries.push(line.clone());
    }

    if let Some(path) = &args.metrics_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, registry.snapshot().to_json()) {
            Ok(()) => println!("\n  metrics snapshot written to {path}"),
            Err(e) => {
                eprintln!("rebalance-soak: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.bench_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, render_bench_json(&args, &points)) {
            Ok(()) => println!("  bench summary written to {path}"),
            Err(e) => {
                eprintln!("rebalance-soak: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if !violations.is_empty() {
        let mut dump = String::new();
        for v in &violations {
            eprintln!("rebalance-soak VIOLATION: {v}");
            dump.push_str(&format!("VIOLATION: {v}\n"));
        }
        dump.push_str("\n--- run summaries ---\n");
        for s in &summaries {
            dump.push_str(s);
            dump.push('\n');
        }
        if let Some(dir) = std::path::Path::new(&args.trace_out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&args.trace_out, dump) {
            eprintln!("rebalance-soak: cannot write {}: {e}", args.trace_out);
        } else {
            eprintln!("rebalance-soak: summaries dumped to {}", args.trace_out);
        }
        std::process::exit(1);
    }
    println!(
        "\n  invariants held: zero questions lost on every schedule, double runs \
         bit-identical, ownership re-converged after every drill, post-healing \
         answers byte-identical, migration never pushed foreground past its deadline"
    );
}
