//! Seeded chaos soak over the thread runtime: sweep the link-failure
//! rate and report recovery overhead (latency inflation, recoveries,
//! speculations, degradations) while asserting the fault framework's
//! two hard invariants:
//!
//! 1. no question is ever lost — every ask returns `Ok`;
//! 2. every full-coverage answer is byte-identical to the fault-free
//!    baseline.
//!
//! On a violation the runtime trace is dumped to `--trace-out` (default
//! `target/chaos_soak_trace.txt`) and the process exits non-zero, which
//! is what the CI chaos job uploads as an artifact.
//!
//! `--ci` runs the short fixed-seed configuration (two fault rates, few
//! questions) sized for a per-commit gate.

use bench::fixtures::QaFixture;
use dqa_obs::MetricsRegistry;
use dqa_runtime::{Cluster, ClusterConfig, TraceKind};
use faults::{FaultSchedule, RetryPolicy};
use nlp::NamedEntityRecognizer;
use qa_types::NodeId;
use scheduler::partition::PartitionStrategy;
use std::time::{Duration, Instant};

struct Args {
    ci: bool,
    seed: u64,
    questions: usize,
    trace_out: String,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        ci: false,
        seed: 2001,
        questions: 8,
        trace_out: "target/chaos_soak_trace.txt".into(),
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ci" => args.ci = true,
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            "--questions" => {
                args.questions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.questions)
            }
            "--trace-out" => {
                if let Some(p) = it.next() {
                    args.trace_out = p;
                }
            }
            "--metrics-out" => args.metrics_out = it.next(),
            other => {
                eprintln!(
                    "unknown argument {other}; usage: chaos_soak [--ci] [--seed N] \
                     [--questions N] [--trace-out PATH] [--metrics-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.ci {
        args.questions = args.questions.min(6);
    }
    args
}

fn config(faults: FaultSchedule, registry: &MetricsRegistry) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        ap_partition: PartitionStrategy::Recv { chunk_size: 8 },
        faults,
        fault_time_scale: 0.001,
        deadline: Some(Duration::from_secs(20)),
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

struct RatePoint {
    rate: f64,
    mean_ms: f64,
    recoveries: usize,
    speculations: usize,
    degradations: usize,
    complete: usize,
    asked: usize,
}

fn main() {
    let args = parse_args();
    let fixture = QaFixture::small(args.seed, args.questions);
    let rates: &[f64] = if args.ci {
        &[0.05, 0.15]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.20]
    };

    // One registry across the baseline and every fault-rate cluster, so
    // the exported snapshot aggregates the whole soak.
    let registry = MetricsRegistry::new();

    // Fault-free baseline: per-question answer bytes + mean latency.
    let clean = Cluster::start(
        fixture.retriever(),
        NamedEntityRecognizer::standard(),
        config(FaultSchedule::none(), &registry),
    );
    let mut baseline = Vec::new();
    let clean_start = Instant::now();
    for gq in &fixture.questions {
        let out = clean.ask(&gq.question).expect("fault-free ask failed");
        assert!(out.coverage.is_complete(), "fault-free run degraded");
        baseline.push(serde_json::to_string(&out.answers).expect("serialize answers"));
    }
    let clean_ms = clean_start.elapsed().as_secs_f64() * 1e3 / fixture.questions.len() as f64;
    clean.shutdown();

    let mut table = Vec::new();
    for &rate in rates {
        let cluster = Cluster::start(
            fixture.retriever(),
            NamedEntityRecognizer::standard(),
            config(schedule(args.seed, rate), &registry),
        );
        let mut violations: Vec<String> = Vec::new();
        let mut complete = 0usize;
        let mut total_ms = 0.0f64;
        for (i, gq) in fixture.questions.iter().enumerate() {
            let t = Instant::now();
            match cluster.ask(&gq.question) {
                Err(e) => violations.push(format!(
                    "rate {rate}: question {} was lost (ask returned {e:?})",
                    gq.question.id
                )),
                Ok(out) => {
                    total_ms += t.elapsed().as_secs_f64() * 1e3;
                    if out.coverage.is_complete() {
                        complete += 1;
                        let bytes = serde_json::to_string(&out.answers).expect("serialize answers");
                        if bytes != baseline[i] {
                            violations.push(format!(
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
        let point = RatePoint {
            rate,
            mean_ms: total_ms / fixture.questions.len().max(1) as f64,
            recoveries: events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::WorkerFailed))
                .count(),
            speculations: events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::Speculated(_)))
                .count(),
            degradations: events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::Degraded(_)))
                .count(),
            complete,
            asked: fixture.questions.len(),
        };
        if !violations.is_empty() {
            let mut dump = String::new();
            for v in &violations {
                eprintln!("chaos-soak VIOLATION: {v}");
                dump.push_str(&format!("VIOLATION: {v}\n"));
            }
            dump.push_str("\n--- runtime trace ---\n");
            for line in cluster.trace().render() {
                dump.push_str(&line);
                dump.push('\n');
            }
            if let Some(dir) = std::path::Path::new(&args.trace_out).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(&args.trace_out, dump) {
                eprintln!("chaos-soak: cannot write {}: {e}", args.trace_out);
            } else {
                eprintln!("chaos-soak: trace dumped to {}", args.trace_out);
            }
            cluster.shutdown();
            std::process::exit(1);
        }
        cluster.shutdown();
        table.push(point);
    }

    println!(
        "Chaos soak — seed {}, {} questions, 4 nodes (baseline {:.1} ms/question)\n",
        args.seed,
        fixture.questions.len(),
        clean_ms
    );
    println!("  fault rate  mean ms  overhead  recoveries  speculations  degraded  complete");
    for p in &table {
        println!(
            "  {:>10.2}  {:>7.1}  {:>7.2}x  {:>10}  {:>12}  {:>8}  {:>6}/{}",
            p.rate,
            p.mean_ms,
            if clean_ms > 0.0 {
                p.mean_ms / clean_ms
            } else {
                0.0
            },
            p.recoveries,
            p.speculations,
            p.degradations,
            p.complete,
            p.asked
        );
    }
    if let Some(path) = &args.metrics_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, registry.snapshot().to_json()) {
            Ok(()) => println!("\n  metrics snapshot written to {path}"),
            Err(e) => {
                eprintln!("chaos-soak: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("\n  invariants held: no question lost, full-coverage answers byte-identical");
}
