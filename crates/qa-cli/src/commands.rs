//! Subcommand implementations.

use crate::args::{parse, Args};
use analytical::{InterQuestionModel, IntraQuestionModel};
use cluster_sim::experiments::load_balancing_summary;
use cluster_sim::workload::{BalancingStrategy, QaSimulation, SimConfig};
use corpus::{Corpus, CorpusConfig, CorpusSnapshot, QuestionGenerator};
use dqa_obs::{
    critical_path, metric_key, names, to_chrome_json, validate_chrome_json, validate_nesting,
    validate_prometheus, CausalSpan, MetricsRegistry, Snapshot,
};
use dqa_runtime::{Admission, Cluster, ClusterConfig, CoordinatorJournal, IntegrityConfig};
use faults::FaultSchedule;
use federation::{FederatedAdmission, FederationBroker, FederationConfig, FederationPolicy};
use ir_engine::{
    decode_index_auto, encode_index_v2, DocumentStore, ParagraphRetriever, RetrievalConfig,
    ShardedIndex,
};
use nlp::NamedEntityRecognizer;
use qa_pipeline::{PipelineConfig, QaPipeline};
use qa_types::params::MBPS;
use qa_types::{
    NodeId, OverloadPolicy, ParagraphId, Question, QuestionId, RankedAnswers, ShardReport,
    ShardStatus, SystemParams, Trec9Profile,
};
use rebalance::ElasticConfig;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  dqa generate [--seed N] [--size small|trec] --out corpus.json
  dqa index --corpus corpus.json --out index.bin
  dqa ask --corpus corpus.json [--index index.bin] [--cluster N] [--sample N]
          [--journal DIR] [--metrics-out FILE [--metrics-format prom|json]]
          [--shards N [--quorum Q] [--hedge-after-ms X]]
          [--elastic [--standby N]] [--trace-out FILE] [overload knobs] [question …]
  dqa export --corpus corpus.json --questions N --topics topics.txt --answers key.txt
  dqa simulate [--nodes N] [--strategy dns|inter|dqa|sid|gradient] [--seed N] [--compare]
               [--metrics-out FILE [--metrics-format prom|json]]
               [--waterfall Q [--format text|json]] [overload knobs]
  dqa trace [--nodes N] [--strategy dns|inter|dqa|sid|gradient] [--seed N]
            [--question Q] [--out trace.json] [overload knobs]
  dqa recover --journal DIR [--corpus corpus.json [--index index.bin] [--cluster N]]
              [--metrics-out FILE [--metrics-format prom|json]]
  dqa rebalance --corpus corpus.json [--index index.bin] [--cluster N] [--standby N]
                [--drain NODE] [--join NODE] [--sample N]
                [--metrics-out FILE [--metrics-format prom|json]] [overload knobs]
  dqa scrub --corpus corpus.json [--index index.bin] [--cluster N] [--sample N]
            [--flip SUB[,SUB…]] [--torn SUB[,SUB…]] [--corrupt-seed N]
            [--scrub-quantum N] [--read-sample N]
            [--metrics-out FILE [--metrics-format prom|json]] [overload knobs]
  dqa report metrics.json
  dqa model [--net-mbps N] [--disk-mbps N] [--nodes N]

overload knobs (admission control / load shedding; default fully permissive):
  [--max-in-flight N] [--admission-queue N] [--max-per-node N]
  [--deadline-secs X] [--breaker-load X]

exit codes: 0 ok, 1 error, 75 rejected by admission control (retry later)";

/// How a command failed — split so `main` can pick the exit code.
#[derive(Debug)]
pub enum CmdError {
    /// Usage or runtime failure: exit 1 and print the usage text.
    Fatal(String),
    /// Admission control refused the question. The command line was
    /// fine and the cluster is healthy, just full — exit
    /// [`EXIT_REJECTED`] with the policy's back-off hint instead of
    /// pretending this was an error.
    Rejected {
        /// Client back-off hint from the overload policy.
        retry_after: Duration,
    },
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError::Fatal(message)
    }
}

/// Exit code for [`CmdError::Rejected`]: sysexits' `EX_TEMPFAIL`, so
/// scripts can tell "try again later" apart from hard failure (1).
pub const EXIT_REJECTED: u8 = 75;

/// Dispatch a command line.
pub fn dispatch(argv: &[String]) -> Result<(), CmdError> {
    let Some(cmd) = argv.first() else {
        return Err("no command given".to_string().into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "generate" => generate(rest).map_err(CmdError::from),
        "index" => index(rest).map_err(CmdError::from),
        "ask" => ask(rest),
        "export" => export(rest).map_err(CmdError::from),
        "simulate" => simulate(rest).map_err(CmdError::from),
        "recover" => recover(rest).map_err(CmdError::from),
        "rebalance" => rebalance(rest).map_err(CmdError::from),
        "scrub" => scrub(rest).map_err(CmdError::from),
        "trace" => trace(rest).map_err(CmdError::from),
        "report" => report(rest).map_err(CmdError::from),
        "model" => model(rest).map_err(CmdError::from),
        other => Err(format!("unknown command {other:?}").into()),
    }
}

/// A numeric flag that is `None` when absent (instead of defaulted).
fn opt_num<T: std::str::FromStr>(a: &Args, name: &str) -> Result<Option<T>, String> {
    match a.get(name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

/// Build an [`OverloadPolicy`] from the shared overload knobs; flags left
/// unset keep the permissive default.
fn overload_policy(a: &Args) -> Result<OverloadPolicy, String> {
    let base = OverloadPolicy::default();
    Ok(OverloadPolicy {
        max_in_flight: opt_num::<usize>(a, "max-in-flight")?,
        admission_queue: opt_num::<usize>(a, "admission-queue")?.unwrap_or(base.admission_queue),
        max_per_node: opt_num::<usize>(a, "max-per-node")?,
        deadline_secs: opt_num::<f64>(a, "deadline-secs")?,
        breaker_load: opt_num::<f64>(a, "breaker-load")?,
        ..base
    })
}

/// Write a metrics snapshot where `--metrics-out` points, in the format
/// `--metrics-format` selects (`json` by default, or `prom` for the
/// Prometheus text exposition). A no-op when the flag is absent.
fn write_metrics(a: &Args, snap: &Snapshot) -> Result<(), String> {
    let Some(path) = a.get("metrics-out") else {
        return Ok(());
    };
    let body = match a.get("metrics-format").unwrap_or("json") {
        "json" => snap.to_json(),
        "prom" => {
            let text = snap.to_prometheus();
            validate_prometheus(&text).map_err(|e| format!("internal: bad exposition: {e}"))?;
            text
        }
        other => return Err(format!("--metrics-format must be prom|json, got {other:?}")),
    };
    std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
    Ok(())
}

fn load_corpus(path: &str) -> Result<Corpus, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let snapshot: CorpusSnapshot =
        serde_json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))?;
    Corpus::from_snapshot(snapshot).map_err(|e| e.to_string())
}

fn generate(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let seed: u64 = a.num("seed", 42u64)?;
    let out = a.require("out")?;
    let cfg = match a.get("size").unwrap_or("trec") {
        "small" => CorpusConfig::small(seed),
        "trec" => CorpusConfig::trec_like(seed),
        other => return Err(format!("--size must be small|trec, got {other:?}")),
    };
    let corpus = Corpus::generate(cfg).map_err(|e| e.to_string())?;
    let stats = corpus.stats();
    let json = serde_json::to_string(&corpus.snapshot()).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out}: {} documents, {} paragraphs, {:.1} MB text, {} planted answers",
        stats.documents,
        stats.paragraphs,
        stats.bytes as f64 / 1e6,
        stats.plants
    );
    Ok(())
}

fn index(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let corpus = load_corpus(a.require("corpus")?)?;
    let out = a.require("out")?;
    let idx = ShardedIndex::build(&corpus.documents, corpus.config.sub_collections);
    // DQAIDX3: per-shard and per-term-block CRCs, so every later load can
    // verify what it reads.
    let bytes = encode_index_v2(&idx);
    std::fs::write(out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out}: {} shards, {} documents, {} bytes (DQAIDX3, checksummed)",
        idx.shard_count(),
        idx.doc_count(),
        bytes.len()
    );
    Ok(())
}

/// Load the sharded index `--index` points at, or rebuild it from the
/// corpus when the flag is absent. Untrusted bytes go through the one
/// verifying reader: a `DQAIDX3` file is CRC-verified shard by shard, and
/// a file under any other magic (the retired `DQAIDX1`, `DQAIDX2`) is
/// refused. Nothing ties the index to `corpus`: retrieval asks the store
/// for each paragraph it names and skips what the store does not have.
fn load_index(a: &Args, corpus: &Corpus) -> Result<ShardedIndex, String> {
    match a.get("index") {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
            decode_index_auto(&bytes).map_err(|e| e.to_string())
        }
        None => Ok(ShardedIndex::build(
            &corpus.documents,
            corpus.config.sub_collections,
        )),
    }
}

fn ask(argv: &[String]) -> Result<(), CmdError> {
    let a = parse(argv, &["json", "elastic"])?;
    let corpus = load_corpus(a.require("corpus")?)?;
    let idx = load_index(&a, &corpus)?;
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    let retriever = ParagraphRetriever::new(Arc::new(idx), store, RetrievalConfig::default());

    // Question list: positionals, plus generated samples.
    let mut questions: Vec<(Question, Option<String>)> = a
        .positional()
        .iter()
        .enumerate()
        .map(|(i, text)| {
            (
                Question::new(QuestionId::new(9000 + i as u32), text.clone()),
                None,
            )
        })
        .collect();
    let samples: usize = a.num("sample", 0usize)?;
    if samples > 0 {
        for gq in QuestionGenerator::new(&corpus, 1).generate(samples) {
            questions.push((gq.question, Some(gq.expected_answer)));
        }
    }
    if questions.is_empty() {
        return Err(CmdError::Fatal(
            "no questions: pass them as arguments or use --sample N".into(),
        ));
    }

    // `--shards N` switches to the federated broker tier: the corpus is
    // partitioned across N coordinator shards and every question is
    // scatter-gathered with hedging and partial-result merge.
    let shards: usize = a.num("shards", 0usize)?;
    if shards > 0 {
        return ask_federated(&a, &corpus, &questions, shards);
    }

    let cluster_nodes: usize = a.num("cluster", 0usize)?;
    if a.get("metrics-out").is_some() && cluster_nodes == 0 {
        return Err(CmdError::Fatal(
            "--metrics-out needs --cluster N: only the cluster runtime is instrumented".into(),
        ));
    }
    if a.get("trace-out").is_some() && cluster_nodes == 0 {
        return Err(CmdError::Fatal(
            "--trace-out needs --cluster N: only the cluster runtime records causal spans".into(),
        ));
    }
    // `--elastic` runs the cluster under elastic membership: an ownership
    // map routes PR chunks to sub-collection owners and `--standby N`
    // warm spares boot suspended, ready for `dqa rebalance --join`.
    let elastic = if a.switch("elastic") {
        if cluster_nodes == 0 {
            return Err(CmdError::Fatal(
                "--elastic needs --cluster N: only the cluster runtime rebalances".into(),
            ));
        }
        let standby: usize = a.num("standby", 0usize)?;
        if standby >= cluster_nodes {
            return Err(CmdError::Fatal(format!(
                "--standby {standby} must leave at least one active node of {cluster_nodes}"
            )));
        }
        Some(ElasticConfig::with_standby(standby))
    } else {
        None
    };
    // Durable question journal: every admission, scheduling decision,
    // chunk grant and answer is logged so `dqa recover --journal DIR`
    // can resume after a coordinator crash.
    let journal = match a.get("journal") {
        None => None,
        Some(dir) => {
            if cluster_nodes == 0 {
                return Err(CmdError::Fatal(
                    "--journal needs --cluster N: only the cluster runtime journals".into(),
                ));
            }
            let (handle, recovery) =
                CoordinatorJournal::open(dir).map_err(|e| format!("open journal {dir}: {e}"))?;
            if recovery.state.gate_occupancy() > 0 {
                eprintln!(
                    "dqa: journal at {dir} holds {} unresumed in-flight question(s); \
                     consider `dqa recover --journal {dir} …` first",
                    recovery.state.gate_occupancy()
                );
            }
            Some(handle)
        }
    };
    // One registry across every per-question cluster, so the exported
    // snapshot aggregates the whole invocation.
    let registry = MetricsRegistry::new();
    let overload = overload_policy(&a)?;
    let mut all_spans: Vec<CausalSpan> = Vec::new();
    let mut answer = |q: &Question| -> Result<(qa_types::RankedAnswers, String), CmdError> {
        if cluster_nodes > 0 {
            let cluster = Cluster::start(
                retriever.clone(),
                NamedEntityRecognizer::standard(),
                ClusterConfig {
                    nodes: cluster_nodes,
                    overload,
                    metrics: Some(registry.clone()),
                    journal: journal.clone(),
                    elastic,
                    ..ClusterConfig::default()
                },
            );
            // Through the admission gate, not around it: a saturated
            // cluster answers with a back-off hint, not a bare error.
            let admission = cluster.submit(q);
            all_spans.extend(cluster.tracer().spans());
            cluster.shutdown();
            match admission {
                Admission::Answered(out) => {
                    let note = format!("PR×{} AP×{}", out.pr_nodes.len(), out.ap_nodes.len());
                    Ok((out.answers, note))
                }
                Admission::Rejected { retry_after } => Err(CmdError::Rejected { retry_after }),
                Admission::Failed(e) => Err(CmdError::Fatal(e.to_string())),
            }
        } else {
            let pipeline = QaPipeline::new(
                retriever.clone(),
                NamedEntityRecognizer::standard(),
                PipelineConfig::default(),
            );
            let out = pipeline.answer(q).map_err(|e| e.to_string())?;
            let note = format!(
                "{} retrieved / {} accepted",
                out.paragraphs_retrieved, out.paragraphs_accepted
            );
            Ok((out.answers, note))
        }
    };

    for (q, truth) in &questions {
        let (answers, note) = match answer(q) {
            Ok(v) => v,
            Err(CmdError::Rejected { retry_after }) => {
                println!("{}  {}", q.id, q.text);
                println!(
                    "  -> rejected by admission control; retry after {:.1} s",
                    retry_after.as_secs_f64()
                );
                // The rejection counter is part of the story: export it.
                write_metrics(&a, &registry.snapshot())?;
                return Err(CmdError::Rejected { retry_after });
            }
            Err(e) => return Err(e),
        };
        if a.switch("json") {
            print_json(&AskRecord {
                answers: answer_records(&answers),
                question: &q.text,
                truth,
            })?;
        } else {
            println!("{}  {}", q.id, q.text);
            match answers.best() {
                Some(best) => println!("  -> {}   ({note})", best.candidate),
                None => println!("  -> no answer   ({note})"),
            }
            if let Some(t) = truth {
                println!("  truth: {t}");
            }
        }
    }
    if let Some(path) = a.get("trace-out") {
        write_trace(path, &all_spans)?;
    }
    write_metrics(&a, &registry.snapshot())?;
    Ok(())
}

// The machine-readable records below print through `serde_json::to_string`,
// which writes fields in declaration order. They used to be
// `serde_json::json!` maps, which sort their keys at every level, so each
// record — the nested ones included — declares its fields alphabetically
// and the bytes on stdout are unchanged.

/// One `ask --json` line.
#[derive(Serialize)]
struct AskRecord<'a> {
    answers: Vec<AnswerRecord<'a>>,
    question: &'a str,
    truth: &'a Option<String>,
}

/// One `ask --shards N --json` line.
#[derive(Serialize)]
struct FederatedAskRecord<'a> {
    answers: Vec<AnswerRecord<'a>>,
    coverage: f64,
    quorum_met: bool,
    question: &'a str,
    shards: Vec<ShardRecord>,
    truth: &'a Option<String>,
}

/// A [`qa_types::Answer`] with its keys in sorted order.
#[derive(Serialize)]
struct AnswerRecord<'a> {
    candidate: &'a str,
    paragraph: ParagraphId,
    score: f64,
    text: &'a str,
}

fn answer_records(answers: &RankedAnswers) -> Vec<AnswerRecord<'_>> {
    answers
        .answers
        .iter()
        .map(|a| AnswerRecord {
            candidate: &a.candidate,
            paragraph: a.paragraph,
            score: a.score,
            text: &a.text,
        })
        .collect()
}

/// A [`ShardReport`] with its keys in sorted order.
#[derive(Serialize)]
struct ShardRecord {
    hedge_won: bool,
    hedged: bool,
    latency_secs: f64,
    shard: u32,
    status: ShardStatus,
}

impl From<&ShardReport> for ShardRecord {
    fn from(s: &ShardReport) -> Self {
        ShardRecord {
            hedge_won: s.hedge_won,
            hedged: s.hedged,
            latency_secs: s.latency_secs,
            shard: s.shard,
            status: s.status,
        }
    }
}

/// Print `record` as one line of compact JSON on stdout.
fn print_json<T: Serialize>(record: &T) -> Result<(), String> {
    let line = serde_json::to_string(record).map_err(|e| format!("serialize: {e}"))?;
    println!("{line}");
    Ok(())
}

/// Write `spans` as Perfetto/chrome-tracing JSON at `path`, validating
/// the export before it lands on disk.
fn write_trace(path: &str, spans: &[CausalSpan]) -> Result<(), String> {
    let json = to_chrome_json(spans);
    validate_chrome_json(&json).map_err(|e| format!("internal: bad trace export: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "wrote {} span(s) to {path} (load in Perfetto / chrome://tracing)",
        spans.len()
    );
    Ok(())
}

/// The `ask --shards N` path: scatter-gather every question across a
/// federation of coordinator shards and print the merged, coverage-
/// annotated answers. Metrics land in the broker's registry
/// (`dqa_shard_*`, hedge/merge/quorum counters) for `--metrics-out`.
fn ask_federated(
    a: &Args,
    corpus: &Corpus,
    questions: &[(Question, Option<String>)],
    shards: usize,
) -> Result<(), CmdError> {
    if a.get("journal").is_some() {
        return Err(CmdError::Fatal(
            "--journal is not supported with --shards: shard clusters manage durability per shard"
                .into(),
        ));
    }
    let mut policy = FederationPolicy::for_shards(shards);
    if let Some(q) = opt_num::<usize>(a, "quorum")? {
        policy = policy.with_quorum(q);
    }
    if let Some(ms) = opt_num::<f64>(a, "hedge-after-ms")? {
        policy = policy.with_hedge_after(ms / 1000.0);
    }
    let registry = MetricsRegistry::new();
    let mut cfg = FederationConfig::new(shards);
    cfg.nodes_per_shard = a.num("cluster", 2usize)?.max(1);
    cfg.policy = policy;
    cfg.overload = overload_policy(a)?;
    cfg.metrics = Some(registry.clone());
    // `--elastic` puts every shard cluster under elastic membership.
    if a.switch("elastic") {
        let standby: usize = a.num("standby", 0usize)?;
        if standby >= cfg.nodes_per_shard {
            return Err(CmdError::Fatal(format!(
                "--standby {standby} must leave at least one active node of {} per shard",
                cfg.nodes_per_shard
            )));
        }
        cfg.elastic = Some(ElasticConfig::with_standby(standby));
    }
    let broker = FederationBroker::start(&corpus.documents, corpus.config.sub_collections, cfg);
    let mut result = Ok(());
    for (q, truth) in questions {
        match broker.ask(q) {
            FederatedAdmission::Answered(ans) => {
                let responders = ans.shards.iter().filter(|s| s.status.responded()).count();
                let hedged = ans.shards.iter().filter(|s| s.hedged).count();
                if a.switch("json") {
                    print_json(&FederatedAskRecord {
                        answers: answer_records(&ans.answers),
                        coverage: ans.coverage.fraction(),
                        quorum_met: ans.quorum_met,
                        question: &q.text,
                        shards: ans.shards.iter().map(ShardRecord::from).collect(),
                        truth,
                    })?;
                } else {
                    println!("{}  {}", q.id, q.text);
                    match ans.answers.best() {
                        Some(best) => println!("  -> {}", best.candidate),
                        None => println!("  -> no answer"),
                    }
                    println!(
                        "  federation: {responders}/{} shard(s), coverage {:.0} %, quorum {}, \
                         {hedged} hedged, {:.2} s",
                        ans.shards.len(),
                        100.0 * ans.coverage.fraction(),
                        if ans.quorum_met { "met" } else { "SHORT" },
                        ans.latency_secs,
                    );
                    if let Some(t) = truth {
                        println!("  truth: {t}");
                    }
                }
            }
            FederatedAdmission::Rejected { retry_after } => {
                println!("{}  {}", q.id, q.text);
                println!(
                    "  -> rejected by every shard's admission control; retry after {:.1} s",
                    retry_after.as_secs_f64()
                );
                result = Err(CmdError::Rejected { retry_after });
                break;
            }
        }
    }
    // Export the broker's scatter/gather/hedge/merge spans plus every
    // shard's internal question trees (distinct traces under derived
    // sub-seeds) as one Perfetto file.
    if let Some(path) = a.get("trace-out") {
        let mut spans = broker.tracer().spans();
        for i in 0..broker.shard_count() {
            if let Some(t) = broker.shard_tracer(i) {
                spans.extend(t.spans());
            }
        }
        write_trace(path, &spans)?;
    }
    broker.shutdown();
    write_metrics(a, &registry.snapshot())?;
    result
}

/// Export a generated question set in TREC topic + answer-key format.
fn export(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let corpus = load_corpus(a.require("corpus")?)?;
    let n: usize = a.num("questions", 50usize)?;
    let seed: u64 = a.num("seed", 1u64)?;
    let questions = QuestionGenerator::new(&corpus, seed).generate(n);
    let topics = a.require("topics")?;
    std::fs::write(topics, corpus::trec::write_topics(&questions))
        .map_err(|e| format!("write {topics}: {e}"))?;
    let answers = a.require("answers")?;
    std::fs::write(answers, corpus::trec::write_answer_key(&questions))
        .map_err(|e| format!("write {answers}: {e}"))?;
    println!(
        "wrote {} topics to {topics} and the answer key to {answers}",
        questions.len()
    );
    Ok(())
}

fn parse_strategy(name: &str) -> Result<BalancingStrategy, String> {
    Ok(match name {
        "dns" => BalancingStrategy::Dns,
        "inter" => BalancingStrategy::Inter,
        "dqa" => BalancingStrategy::Dqa,
        "sid" => BalancingStrategy::SenderDiffusion,
        "gradient" => BalancingStrategy::Gradient,
        other => return Err(format!("unknown strategy {other:?}")),
    })
}

fn simulate(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &["compare"])?;
    let nodes: usize = a.num("nodes", 8usize)?;
    let seed: u64 = a.num("seed", 2001u64)?;
    if a.switch("compare") {
        if a.get("metrics-out").is_some() {
            return Err("--metrics-out is not supported with --compare".into());
        }
        let s = load_balancing_summary(nodes, &[seed, seed + 1, seed + 2]);
        println!("{nodes}-node high-load comparison (mean of 3 seeds)");
        for (name, i) in [("DNS", 0), ("INTER", 1), ("DQA", 2)] {
            println!(
                "  {name:<7} {:>6.2} q/min   {:>7.1} s mean response",
                s.throughput[i], s.response_time[i]
            );
        }
        return Ok(());
    }
    let strategy = parse_strategy(a.get("strategy").unwrap_or("dqa"))?;
    let overload = overload_policy(&a)?;
    let governed = overload.limits_admission() || overload.deadline_secs.is_some();
    let cfg = SimConfig {
        overload,
        ..SimConfig::paper_high_load(nodes, strategy, seed)
    };
    let report = QaSimulation::new(cfg).run();
    println!(
        "{} questions on {} nodes ({strategy:?}): {:.2} q/min, mean {:.1} s, p95 {:.1} s, \
         migrations qa/pr/ap = {}/{}/{}",
        report.questions.len(),
        nodes,
        report.throughput_per_minute(),
        report.mean_response_time(),
        report.response_time_percentile(0.95),
        report.migrations.qa,
        report.migrations.pr,
        report.migrations.ap,
    );
    if governed {
        let counts = report.outcome_counts();
        println!(
            "  overload: {} answered / {} degraded / {} rejected (shed rate {:.2}), \
             admitted p50 {:.1} s, p99 {:.1} s",
            counts.answered,
            counts.degraded,
            counts.rejected,
            counts.shed_rate(),
            report.admitted_response_percentile(0.50),
            report.admitted_response_percentile(0.99),
        );
    }
    if let Some(q) = opt_num::<usize>(&a, "waterfall")? {
        match a.get("format").unwrap_or("text") {
            "text" => {
                let lines = report.waterfall(q, 48);
                if lines.is_empty() {
                    println!("  question {q}: no phase timeline (rejected or out of range)");
                } else {
                    println!("  question {q} phase timeline:");
                    for line in &lines {
                        println!("    {line}");
                    }
                }
            }
            // Machine-readable waterfall: the causal-span tree itself,
            // one JSON object on stdout.
            "json" => {
                let spans = report.causal_spans(q, seed);
                print_json(&WaterfallRecord {
                    question: q,
                    seed,
                    spans: spans.iter().map(SpanRecord::from).collect(),
                })?;
            }
            other => return Err(format!("--format must be text|json, got {other:?}")),
        }
    }
    write_metrics(&a, &report.metrics)?;
    Ok(())
}

/// One causal span as a JSON object — the `simulate --waterfall
/// --format json` shape (ids in zero-padded hex, times in seconds).
#[derive(Serialize)]
struct SpanRecord<'a> {
    causes: Vec<&'static str>,
    end: f64,
    id: String,
    name: &'a str,
    node: Option<u32>,
    parent: Option<String>,
    queue_wait: f64,
    start: f64,
    trace: String,
}

impl<'a> From<&'a CausalSpan> for SpanRecord<'a> {
    fn from(s: &'a CausalSpan) -> Self {
        SpanRecord {
            causes: s.causes.labels(),
            end: s.end,
            id: format!("{:016x}", s.id),
            name: &s.name,
            node: s.node,
            parent: s.parent.map(|p| format!("{p:016x}")),
            queue_wait: s.queue_wait,
            start: s.start,
            trace: format!("{:016x}", s.trace),
        }
    }
}

/// The `simulate --waterfall Q --format json` document.
#[derive(Serialize)]
struct WaterfallRecord<'a> {
    question: usize,
    seed: u64,
    spans: Vec<SpanRecord<'a>>,
}

/// Causal tracing over the virtual-time simulator: run a seeded DES,
/// render question `--question`'s critical-path attribution (the
/// per-question Table 8/9) and optionally export the whole run as
/// Perfetto/chrome-tracing JSON. The simulation always runs twice and
/// the two exports are compared byte-for-byte — the determinism the
/// `soak trace` latency budget builds on.
fn trace(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let nodes: usize = a.num("nodes", 8usize)?;
    let seed: u64 = a.num("seed", 2001u64)?;
    let q: usize = a.num("question", 0usize)?;
    let strategy = parse_strategy(a.get("strategy").unwrap_or("dqa"))?;
    let build = || -> Result<SimConfig, String> {
        Ok(SimConfig {
            overload: overload_policy(&a)?,
            ..SimConfig::paper_high_load(nodes, strategy, seed)
        })
    };
    let report = QaSimulation::new(build()?).run();
    let json = report.chrome_trace(seed);
    validate_chrome_json(&json).map_err(|e| format!("internal: bad trace export: {e}"))?;
    // Double-run identity: virtual-time spans must not depend on wall
    // time, iteration order or any other ambient state.
    let rerun = QaSimulation::new(build()?).run().chrome_trace(seed);
    if rerun != json {
        return Err("internal: trace export is not bit-identical across seeded reruns".into());
    }
    let spans = report.all_causal_spans(seed);
    validate_nesting(&spans).map_err(|e| format!("internal: {e}"))?;
    let question_spans = report.causal_spans(q, seed);
    if question_spans.is_empty() {
        println!("question {q}: no trace (rejected or out of range)");
    } else if let Some(cp) = critical_path(&question_spans) {
        print!("{}", cp.render());
        let residual = (cp.total() - cp.attributed()).abs();
        println!(
            "queue-wait share {:.1} %, attribution residual {:.3e} s",
            100.0 * cp.queue_total() / cp.total().max(f64::MIN_POSITIVE),
            residual
        );
    }
    if let Some(path) = a.get("out") {
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "wrote {} span(s) across {} question(s) to {path} (verified bit-identical twice)",
            spans.len(),
            report.questions.len()
        );
    }
    Ok(())
}

/// Crash-restart recovery: replay a coordinator journal, promote past
/// the dead incarnation's term (fencing its surviving handles), and
/// resume every in-flight question on a fresh cluster.
fn recover(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let dir = a.require("journal")?;
    let (handle, recovery) =
        CoordinatorJournal::open(dir).map_err(|e| format!("open journal {dir}: {e}"))?;
    let stats = &recovery.stats;
    let torn = if stats.truncated_bytes > 0 {
        format!(" (torn tail: {} byte(s) truncated)", stats.truncated_bytes)
    } else {
        String::new()
    };
    println!(
        "replayed {} record(s) from {} segment(s), recovered term {}{torn}",
        stats.records,
        stats.segments,
        recovery.state.term(),
    );
    let answered = recovery.state.answered().count();
    let in_flight = recovery.state.gate_occupancy();
    println!("journal holds {answered} answered and {in_flight} in-flight question(s)");
    let term = handle.promote().map_err(|e| format!("promote: {e}"))?;
    println!("promoted to term {term}; the crashed incarnation's handles are fenced");
    if in_flight == 0 {
        println!("nothing to resume");
        return Ok(());
    }

    let corpus = load_corpus(a.require("corpus")?)?;
    let idx = load_index(&a, &corpus)?;
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    let retriever = ParagraphRetriever::new(Arc::new(idx), store, RetrievalConfig::default());
    let nodes: usize = a.num("cluster", 4usize)?;
    let registry = MetricsRegistry::new();
    let cluster = Cluster::start(
        retriever,
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes,
            overload: overload_policy(&a)?,
            metrics: Some(registry.clone()),
            journal: Some(handle),
            ..ClusterConfig::default()
        },
    );
    let resumed = cluster.resume(&recovery);
    for (q, res) in &resumed {
        println!("{}  {}", q.id, q.text);
        match res {
            Ok(out) => {
                let coverage = if out.coverage.is_complete() {
                    "full coverage"
                } else {
                    "degraded"
                };
                match out.answers.best() {
                    Some(best) => println!("  -> resumed: {}   ({coverage})", best.candidate),
                    None => println!("  -> resumed: no answer   ({coverage})"),
                }
            }
            Err(e) => println!("  -> resume failed: {e}"),
        }
    }
    cluster.shutdown();
    let snap = registry.snapshot();
    println!(
        "resumed {} question(s) ({} record(s) replayed, {} appended this run)",
        snap.counter(names::RESUMED_QUESTIONS_TOTAL),
        snap.counter(names::REPLAYED_RECORDS_TOTAL),
        snap.counter(names::JOURNAL_RECORDS_TOTAL),
    );
    write_metrics(&a, &snap)?;
    Ok(())
}

/// Elastic-membership round trip: boot a cluster under an ownership map,
/// optionally `--drain` a node (live migration of its sub-collections)
/// and `--join` one (fair-share migration onto it), answering `--sample`
/// questions before and after each membership change to show foreground
/// traffic survives re-sharding. Prints the ownership table and the
/// `dqa_rebalance_*` counters; `--metrics-out` exports them.
fn rebalance(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let corpus = load_corpus(a.require("corpus")?)?;
    let idx = load_index(&a, &corpus)?;
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    let retriever = ParagraphRetriever::new(Arc::new(idx), store, RetrievalConfig::default());
    let nodes: usize = a.num("cluster", 4usize)?;
    let standby: usize = a.num("standby", 0usize)?;
    if standby >= nodes {
        return Err(format!(
            "--standby {standby} must leave at least one active node of {nodes}"
        ));
    }
    let drain_node = opt_num::<u32>(&a, "drain")?;
    let join_node = opt_num::<u32>(&a, "join")?;
    for (flag, v) in [("drain", drain_node), ("join", join_node)] {
        if let Some(n) = v {
            if n as usize >= nodes {
                return Err(format!("--{flag} {n}: node out of range (cluster {nodes})"));
            }
        }
    }
    let samples: usize = a.num("sample", 2usize)?;
    let registry = MetricsRegistry::new();
    let cluster = Cluster::start(
        retriever,
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes,
            overload: overload_policy(&a)?,
            metrics: Some(registry.clone()),
            elastic: Some(ElasticConfig::with_standby(standby)),
            ..ClusterConfig::default()
        },
    );

    let print_ownership = |cluster: &Cluster| {
        let owners = cluster.ownership();
        let mut by_node: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        for (sub, node) in &owners {
            by_node.entry(*node).or_default().push(*sub);
        }
        for (node, subs) in &by_node {
            let list: Vec<String> = subs.iter().map(|s| s.to_string()).collect();
            println!("  node {node}: sub-collection(s) {}", list.join(", "));
        }
        if let Some((epoch, converged)) = cluster.rebalance_status() {
            println!(
                "  epoch {epoch}, {}",
                if converged {
                    "converged (every sub-collection live-owned)"
                } else {
                    "NOT converged"
                }
            );
        }
    };
    let ask_wave = |cluster: &Cluster, seed: u64, label: &str| -> Result<(), String> {
        if samples == 0 {
            return Ok(());
        }
        let qs = QuestionGenerator::new(&corpus, seed).generate(samples);
        let mut complete = 0usize;
        for gq in &qs {
            let out = cluster.ask(&gq.question).map_err(|e| e.to_string())?;
            if out.coverage.is_complete() {
                complete += 1;
            }
        }
        println!(
            "  {label}: {complete}/{} question(s) at full coverage",
            qs.len()
        );
        Ok(())
    };

    println!("ownership at boot ({nodes} node(s), {standby} standby):");
    print_ownership(&cluster);
    ask_wave(&cluster, 21, "before")?;
    if let Some(n) = drain_node {
        let moved = cluster.drain(NodeId::new(n));
        println!("drained node {n}: {moved} sub-collection(s) re-homed live");
        print_ownership(&cluster);
        ask_wave(&cluster, 22, "after drain")?;
    }
    if let Some(n) = join_node {
        let moved = cluster.join(NodeId::new(n));
        println!("joined node {n}: {moved} sub-collection(s) migrated onto it");
        print_ownership(&cluster);
        ask_wave(&cluster, 23, "after join")?;
    }
    cluster.shutdown();

    let snap = registry.snapshot();
    let reason =
        |r: &str| snap.counter(&metric_key(names::REBALANCE_PLANS_TOTAL, &[("reason", r)]));
    println!(
        "rebalance: {} transfer(s) across plans drain/join/loss/skew = {}/{}/{}/{}, \
         {} throttled step(s)",
        snap.counter(names::REBALANCE_MIGRATED_TOTAL),
        reason("drain"),
        reason("join"),
        reason("permanent-loss"),
        reason("load-skew"),
        snap.counter_family(names::REBALANCE_THROTTLED_TOTAL),
    );
    if let Some(h) = snap.histograms.get(names::REBALANCE_HEAL_SECONDS) {
        if h.count > 0 {
            println!(
                "  heal latency: {} event(s), mean {:.3} s, max bucket ≤ p95 {:.3} s",
                h.count,
                h.mean(),
                h.quantile(0.95)
            );
        }
    }
    write_metrics(&a, &snap)?;
    Ok(())
}

/// Parse a comma-separated `--flag 1,3,5` sub-collection list.
fn sub_list(a: &Args, name: &str) -> Result<Vec<u32>, String> {
    match a.get(name) {
        None => Ok(Vec::new()),
        Some(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("--{name}: cannot parse {s:?} as a sub-collection id"))
            })
            .collect(),
    }
}

fn scrub(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let corpus = load_corpus(a.require("corpus")?)?;
    let idx = load_index(&a, &corpus)?;
    let shards = idx.shard_count() as u32;
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    let retriever = ParagraphRetriever::new(Arc::new(idx), store, RetrievalConfig::default());
    let nodes: usize = a.num("cluster", 3usize)?;
    let samples: usize = a.num("sample", 2usize)?;

    // Corruption knobs: seeded bit flips / torn writes against the named
    // sub-collections' segment regions. With no list given, flip one bit
    // in sub-collection 1 so the verb demonstrates the full
    // detect→quarantine→repair cycle out of the box.
    let mut flips = sub_list(&a, "flip")?;
    let torn = sub_list(&a, "torn")?;
    if flips.is_empty() && torn.is_empty() {
        flips.push(1.min(shards.saturating_sub(1)));
    }
    for &s in flips.iter().chain(torn.iter()) {
        if s >= shards {
            return Err(format!(
                "sub-collection {s} out of range (index has {shards})"
            ));
        }
    }
    let mut faults = FaultSchedule::seeded(a.num("corrupt-seed", 13u64)?);
    for &s in &flips {
        faults = faults.bit_flip_index(s, 0.0);
    }
    for &s in &torn {
        faults = faults.torn_write_index(s, 0.0);
    }

    let icfg = IntegrityConfig {
        scrub_quantum: a.num("scrub-quantum", IntegrityConfig::default().scrub_quantum)?,
        // Exhaustive read verification by default: the CLI demo must never
        // race the scrubber and silently read damaged bytes.
        read_sample_blocks: a.num("read-sample", usize::MAX)?,
        ..IntegrityConfig::default()
    };
    let registry = MetricsRegistry::new();
    let cluster = Cluster::start(
        retriever,
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes,
            faults,
            integrity: Some(icfg),
            overload: overload_policy(&a)?,
            metrics: Some(registry.clone()),
            ..ClusterConfig::default()
        },
    );

    let ask_wave = |seed: u64, label: &str| -> Result<(), String> {
        if samples == 0 {
            return Ok(());
        }
        let qs = QuestionGenerator::new(&corpus, seed).generate(samples);
        let mut complete = 0usize;
        for gq in &qs {
            let out = cluster.ask(&gq.question).map_err(|e| e.to_string())?;
            if out.coverage.is_complete() {
                complete += 1;
            }
        }
        println!(
            "  {label}: {complete}/{} question(s) at full coverage",
            qs.len()
        );
        Ok(())
    };

    let damaged = cluster.inject_scheduled_corruption();
    println!(
        "injected {damaged} corruption(s): bit-flip {flips:?}, torn-write {torn:?} \
         (seed {})",
        cluster_seed(&a)?
    );
    ask_wave(31, "under corruption")?;
    let q = cluster.quarantined_subs();
    if q.is_empty() {
        println!("  nothing quarantined yet (scrub will detect)");
    } else {
        let list: Vec<String> = q.iter().map(|s| s.to_string()).collect();
        println!("  quarantined sub-collection(s): {}", list.join(", "));
    }

    let report = cluster.scrub();
    println!(
        "scrub: {} region(s) verified clean, {} detected, repaired {} from replica + {} \
         rebuilt, {} throttled step(s)",
        report.verified,
        report.detected.len(),
        report.repaired_replica.len(),
        report.repaired_rebuild.len(),
        report.throttled
    );
    let still = cluster.quarantined_subs();
    if still.is_empty() {
        println!("  quarantine clear: every region checksum-clean");
    } else {
        let list: Vec<String> = still.iter().map(|s| s.to_string()).collect();
        println!("  STILL quarantined: {}", list.join(", "));
    }
    ask_wave(32, "after repair")?;
    cluster.shutdown();

    let snap = registry.snapshot();
    println!(
        "integrity: {} checksum failure(s), {} repair(s), {} degraded question(s)",
        snap.counter_family(names::INTEGRITY_CHECKSUM_FAILURES_TOTAL),
        snap.counter_family(names::INTEGRITY_REPAIRS_TOTAL),
        snap.counter(names::INTEGRITY_DEGRADED_TOTAL),
    );
    write_metrics(&a, &snap)?;
    Ok(())
}

/// The corruption decision seed `scrub` ran under (echoed for reproduction).
fn cluster_seed(a: &Args) -> Result<u64, String> {
    a.num("corrupt-seed", 13u64)
}

/// Render Table 8/9-style breakdowns from a metrics snapshot written by
/// `ask`/`simulate --metrics-out FILE` (JSON format).
fn report(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let path = match a.positional() {
        [p] => p.as_str(),
        _ => return Err("usage: dqa report <metrics.json>".into()),
    };
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let snap = Snapshot::from_json(&data)?;

    println!("per-module latency (Table 8 layout):");
    println!(
        "  {:<6} {:>7} {:>9} {:>9} {:>9}",
        "module", "count", "mean s", "p50 s", "p95 s"
    );
    for module in ["QP", "PR", "PO", "AP"] {
        let key = metric_key(names::MODULE_SECONDS, &[("module", module)]);
        let Some(h) = snap.histograms.get(&key) else {
            continue;
        };
        println!(
            "  {:<6} {:>7} {:>9.3} {:>9.3} {:>9.3}",
            module,
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.95)
        );
    }
    if let Some(h) = snap.histograms.get(names::QUESTION_SECONDS) {
        println!(
            "  {:<6} {:>7} {:>9.3} {:>9.3} {:>9.3}",
            "e2e",
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.95)
        );
    }

    let overhead: Vec<(&str, f64)> = ["kw_send", "par_recv", "par_send", "ans_recv", "ans_sort"]
        .into_iter()
        .filter_map(|part| {
            snap.histograms
                .get(&metric_key(names::OVERHEAD_SECONDS, &[("part", part)]))
                .map(|h| (part, h.sum))
        })
        .collect();
    let total: f64 = overhead.iter().map(|(_, s)| s).sum();
    if total > 0.0 {
        println!("distribution overhead (Table 9 layout, share of overhead time):");
        for (part, sum) in &overhead {
            println!("  {part:<9} {sum:>9.3} s  {:>5.1} %", 100.0 * sum / total);
        }
    }

    let outcome = |o: &str| snap.counter(&metric_key(names::QUESTIONS_TOTAL, &[("outcome", o)]));
    println!(
        "outcomes: {} answered / {} degraded / {} rejected / {} failed",
        outcome("answered"),
        outcome("degraded"),
        outcome("rejected"),
        outcome("failed")
    );
    let kind = |k: &str| snap.counter(&metric_key(names::MIGRATIONS_TOTAL, &[("kind", k)]));
    println!(
        "migrations qa/pr/ap = {}/{}/{}, speculations {}, sheds {}, backpressure {}, \
         worker failures {}, breaker trips {}",
        kind("qa"),
        kind("pr"),
        kind("ap"),
        snap.counter(names::SPECULATIONS_TOTAL),
        snap.counter_family(names::SHEDS_TOTAL),
        snap.counter(names::BACKPRESSURE_TOTAL),
        snap.counter(names::WORKER_FAILURES_TOTAL),
        snap.counter(names::BREAKER_TRIPS_TOTAL),
    );
    let failovers = snap.counter(names::FAILOVERS_TOTAL);
    let fenced = snap.counter(names::FENCED_GRANTS_TOTAL);
    let journaled = snap.counter(names::JOURNAL_RECORDS_TOTAL);
    let replayed = snap.counter(names::REPLAYED_RECORDS_TOTAL);
    let resumed = snap.counter(names::RESUMED_QUESTIONS_TOTAL);
    if failovers + fenced + journaled + replayed + resumed > 0 {
        println!(
            "coordinator: {failovers} failover(s) to term {}, {journaled} journal record(s), \
             {replayed} replayed, {resumed} question(s) resumed, {fenced} fenced grant(s)",
            snap.gauges.get(names::LEADER_TERM).copied().unwrap_or(0.0),
        );
        if let Some(h) = snap.histograms.get(names::RECOVERY_SECONDS) {
            println!(
                "  recovery latency: {} event(s), mean {:.3} s, p95 {:.3} s",
                h.count,
                h.mean(),
                h.quantile(0.95)
            );
        }
    }
    let merges = snap.counter(names::MERGES_TOTAL);
    let hedges = snap.counter(names::HEDGES_TOTAL);
    let shard_traffic = snap
        .counters
        .keys()
        .filter(|k| k.starts_with(names::SHARD_REQUESTS_TOTAL))
        .count();
    if merges + hedges + shard_traffic as u64 > 0 {
        println!(
            "federation: {merges} merged answer(s) ({} quorum shortfall(s)), \
             {hedges} hedge(s) ({} won)",
            snap.counter(names::QUORUM_SHORTFALLS_TOTAL),
            snap.counter(names::HEDGE_WINS_TOTAL),
        );
        let mut by_shard: std::collections::BTreeMap<String, Vec<String>> = Default::default();
        for (k, v) in &snap.counters {
            if !k.starts_with(names::SHARD_REQUESTS_TOTAL) {
                continue;
            }
            let (Some(shard), Some(status)) = (label_value(k, "shard"), label_value(k, "status"))
            else {
                continue;
            };
            by_shard
                .entry(shard.to_string())
                .or_default()
                .push(format!("{status} {v}"));
        }
        for (shard, statuses) in &by_shard {
            let lat = snap
                .histograms
                .get(&metric_key(names::SHARD_SECONDS, &[("shard", shard)]));
            match lat {
                Some(h) => println!(
                    "  shard {shard}: {}  (mean {:.3} s, p95 {:.3} s)",
                    statuses.join(", "),
                    h.mean(),
                    h.quantile(0.95)
                ),
                None => println!("  shard {shard}: {}", statuses.join(", ")),
            }
        }
    }
    let plans = snap.counter_family(names::REBALANCE_PLANS_TOTAL);
    let migrated = snap.counter(names::REBALANCE_MIGRATED_TOTAL);
    if plans + migrated > 0 {
        println!(
            "rebalance: {plans} plan(s), {migrated} transfer(s), {} throttled step(s), \
             ownership epoch {}, converged {}",
            snap.counter_family(names::REBALANCE_THROTTLED_TOTAL),
            snap.gauges
                .get(names::REBALANCE_OWNERSHIP_EPOCH)
                .copied()
                .unwrap_or(0.0),
            snap.gauges
                .get(names::REBALANCE_CONVERGED)
                .copied()
                .unwrap_or(1.0),
        );
        if let Some(h) = snap.histograms.get(names::REBALANCE_HEAL_SECONDS) {
            if h.count > 0 {
                println!(
                    "  heal latency: {} event(s), mean {:.3} s, p95 {:.3} s",
                    h.count,
                    h.mean(),
                    h.quantile(0.95)
                );
            }
        }
    }
    let dropped = snap.counter(names::TRACE_DROPPED_TOTAL);
    if dropped > 0 {
        println!(
            "WARNING: flight-recorder ring overflowed — {dropped} trace event(s)/span(s) \
             dropped ({}); waterfalls and critical paths may be incomplete. \
             Raise the trace capacity to retain full traces.",
            names::TRACE_DROPPED_TOTAL
        );
    }
    Ok(())
}

/// Extract one label's value from a flat metric key like
/// `dqa_shard_requests_total{shard="1",status="answered"}`.
fn label_value<'a>(key: &'a str, label: &str) -> Option<&'a str> {
    let pat = format!("{label}=\"");
    let start = key.find(&pat)? + pat.len();
    let end = key[start..].find('"')?;
    Some(&key[start..start + end])
}

fn model(argv: &[String]) -> Result<(), String> {
    let a = parse(argv, &[])?;
    let net: f64 = a.num("net-mbps", 100.0f64)?;
    let disk: f64 = a.num("disk-mbps", 100.0f64)?;
    let nodes: usize = a.num("nodes", 0usize)?;
    let params = SystemParams::trec9()
        .with_net_bandwidth(net * MBPS)
        .with_disk_bandwidth(disk * MBPS);
    let intra = IntraQuestionModel::new(params, Trec9Profile::complex());
    let inter = InterQuestionModel::new(params, Trec9Profile::average());
    let (n_max, s_max) = intra.practical_limit();
    println!("analytical model at net {net} Mbps, disk {disk} Mbps:");
    println!("  intra-question: N_max = {n_max}, speedup there = {s_max:.2}");
    if nodes > 0 {
        println!(
            "  at {nodes} nodes: question speedup {:.2} (T = {:.1} s), system efficiency {:.2}",
            intra.speedup(nodes),
            intra.t_n(nodes),
            inter.efficiency(nodes)
        );
    }
    println!(
        "  inter-question: efficiency {:.2} at 100 nodes, {:.2} at 1000 nodes",
        inter.efficiency(100),
        inter.efficiency(1000)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(parts: &[&str]) -> Result<(), CmdError> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("dqa-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_index_ask_round_trip() {
        let corpus_path = tmp("c1.json");
        let index_path = tmp("c1.idx");
        run(&[
            "generate",
            "--seed",
            "5",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&["index", "--corpus", &corpus_path, "--out", &index_path]).unwrap();
        run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--index",
            &index_path,
            "--sample",
            "2",
        ])
        .unwrap();
    }

    #[test]
    fn export_writes_parsable_trec_files() {
        let corpus_path = tmp("c3.json");
        let topics = tmp("c3-topics.txt");
        let answers = tmp("c3-answers.txt");
        run(&[
            "generate",
            "--seed",
            "8",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "export",
            "--corpus",
            &corpus_path,
            "--questions",
            "5",
            "--topics",
            &topics,
            "--answers",
            &answers,
        ])
        .unwrap();
        let parsed =
            corpus::trec::parse_topics(&std::fs::read_to_string(&topics).unwrap()).unwrap();
        assert_eq!(parsed.len(), 5);
        let key =
            corpus::trec::parse_answer_key(&std::fs::read_to_string(&answers).unwrap()).unwrap();
        assert_eq!(key.len(), 5);
    }

    #[test]
    fn simulate_and_model_run() {
        run(&[
            "simulate",
            "--nodes",
            "4",
            "--strategy",
            "dqa",
            "--seed",
            "3",
        ])
        .unwrap();
        run(&[
            "model",
            "--net-mbps",
            "1000",
            "--disk-mbps",
            "100",
            "--nodes",
            "8",
        ])
        .unwrap();
    }

    #[test]
    fn simulate_accepts_overload_knobs() {
        run(&[
            "simulate",
            "--nodes",
            "4",
            "--strategy",
            "dqa",
            "--seed",
            "3",
            "--max-in-flight",
            "3",
            "--admission-queue",
            "2",
            "--deadline-secs",
            "300",
        ])
        .unwrap();
        assert!(
            run(&["simulate", "--max-in-flight", "lots"]).is_err(),
            "non-numeric overload knob must be rejected"
        );
    }

    #[test]
    fn overload_policy_parses_all_knobs() {
        let argv: Vec<String> = [
            "--max-in-flight",
            "5",
            "--admission-queue",
            "7",
            "--max-per-node",
            "2",
            "--deadline-secs",
            "1.5",
            "--breaker-load",
            "6.0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse(&argv, &[]).unwrap();
        let p = overload_policy(&a).unwrap();
        assert_eq!(p.max_in_flight, Some(5));
        assert_eq!(p.admission_queue, 7);
        assert_eq!(p.max_per_node, Some(2));
        assert_eq!(p.deadline_secs, Some(1.5));
        assert_eq!(p.breaker_load, Some(6.0));
        // No knobs → the permissive default.
        let none = parse(&[], &[]).unwrap();
        assert_eq!(overload_policy(&none).unwrap(), OverloadPolicy::default());
    }

    #[test]
    fn simulate_writes_metrics_and_report_reads_them() {
        let json_path = tmp("m1.json");
        let prom_path = tmp("m1.prom");
        run(&[
            "simulate",
            "--nodes",
            "2",
            "--seed",
            "3",
            "--metrics-out",
            &json_path,
            "--waterfall",
            "0",
        ])
        .unwrap();
        run(&[
            "simulate",
            "--nodes",
            "2",
            "--seed",
            "3",
            "--metrics-out",
            &prom_path,
            "--metrics-format",
            "prom",
        ])
        .unwrap();
        let snap = Snapshot::from_json(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert!(snap.counter_family(names::QUESTIONS_TOTAL) > 0);
        assert!(snap.histograms.contains_key(names::QUESTION_SECONDS));
        validate_prometheus(&std::fs::read_to_string(&prom_path).unwrap()).unwrap();
        run(&["report", &json_path]).unwrap();
    }

    #[test]
    fn ask_with_cluster_exports_metrics() {
        let corpus_path = tmp("c4.json");
        let metrics_path = tmp("c4-metrics.json");
        run(&[
            "generate",
            "--seed",
            "7",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--cluster",
            "2",
            "--sample",
            "1",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        let snap = Snapshot::from_json(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(snap.counter_family(names::QUESTIONS_TOTAL), 1);
        assert_eq!(snap.histograms[names::QUESTION_SECONDS].count, 1);
        assert!(
            run(&[
                "ask",
                "--corpus",
                &corpus_path,
                "--sample",
                "1",
                "--metrics-out",
                &metrics_path,
            ])
            .is_err(),
            "pipeline mode must refuse --metrics-out"
        );
    }

    #[test]
    fn ask_with_shards_merges_and_reports_federation_lines() {
        let corpus_path = tmp("c7.json");
        let metrics_path = tmp("c7-metrics.json");
        run(&[
            "generate",
            "--seed",
            "13",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--shards",
            "2",
            "--cluster",
            "1",
            "--quorum",
            "1",
            "--hedge-after-ms",
            "500",
            "--sample",
            "1",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        let snap = Snapshot::from_json(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(snap.counter(names::MERGES_TOTAL), 1);
        assert_eq!(snap.counter(names::QUORUM_SHORTFALLS_TOTAL), 0);
        assert!(
            snap.counters
                .keys()
                .any(|k| k.starts_with(names::SHARD_REQUESTS_TOTAL)),
            "per-shard request counters must be exported"
        );
        // The federation lines render from the same snapshot.
        run(&["report", &metrics_path]).unwrap();
        // Journaling is a per-shard concern; the broker refuses the flag.
        assert!(run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--shards",
            "2",
            "--sample",
            "1",
            "--journal",
            &tmp("c7-journal"),
        ])
        .is_err());
    }

    #[test]
    fn federated_ask_aggregates_rejections_with_retry_hint() {
        let corpus_path = tmp("c8.json");
        run(&[
            "generate",
            "--seed",
            "17",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        // Every shard's per-node cap is 0: all shards reject, and the
        // broker must surface the aggregated retry-after hint instead of
        // failing on the first rejecting shard.
        let err = run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--shards",
            "2",
            "--cluster",
            "1",
            "--sample",
            "1",
            "--max-per-node",
            "0",
        ])
        .unwrap_err();
        match err {
            CmdError::Rejected { retry_after } => assert!(
                retry_after > Duration::ZERO,
                "aggregated rejection must carry a usable retry hint"
            ),
            other => panic!("expected an aggregated admission rejection, got {other:?}"),
        }
    }

    #[test]
    fn ask_rejection_carries_the_retry_hint() {
        let corpus_path = tmp("c5.json");
        run(&[
            "generate",
            "--seed",
            "9",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        // A per-node cap of 0 saturates every node before the first
        // question: admission must bounce it with the policy's back-off
        // hint, through the distinct-exit-code path — not a bare error.
        let err = run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--cluster",
            "2",
            "--sample",
            "1",
            "--max-per-node",
            "0",
        ])
        .unwrap_err();
        match err {
            CmdError::Rejected { retry_after } => assert!(
                retry_after > Duration::ZERO,
                "rejection must carry a usable retry hint"
            ),
            other => panic!("expected an admission rejection, got {other:?}"),
        }
    }

    #[test]
    fn ask_journals_and_recover_replays() {
        let corpus_path = tmp("c6.json");
        let jdir = tmp("c6-journal");
        let _ = std::fs::remove_dir_all(&jdir);
        run(&[
            "generate",
            "--seed",
            "11",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--cluster",
            "2",
            "--sample",
            "1",
            "--journal",
            &jdir,
        ])
        .unwrap();
        // Everything was answered before the "crash", so recovery
        // replays the journal, promotes past term 1 and finds nothing
        // in flight. (Mid-question crash resume is exercised end to end
        // in tests/coordinator_failover.rs.)
        run(&["recover", "--journal", &jdir, "--corpus", &corpus_path]).unwrap();
        // Pipeline mode has no coordinator and must refuse to journal.
        assert!(run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--sample",
            "1",
            "--journal",
            &jdir,
        ])
        .is_err());
        // A plain file where the journal directory should be cannot be
        // opened (or silently replaced): hard error.
        let not_a_dir = tmp("c6-not-a-dir");
        std::fs::write(&not_a_dir, b"not a journal").unwrap();
        assert!(
            run(&["recover", "--journal", &not_a_dir]).is_err(),
            "an unopenable journal is a hard error"
        );
        let _ = std::fs::remove_dir_all(&jdir);
    }

    #[test]
    fn rebalance_drain_join_round_trip_exports_metrics() {
        let corpus_path = tmp("c9.json");
        let metrics_path = tmp("c9-metrics.json");
        run(&[
            "generate",
            "--seed",
            "19",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "rebalance",
            "--corpus",
            &corpus_path,
            "--cluster",
            "3",
            "--drain",
            "1",
            "--join",
            "1",
            "--sample",
            "1",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        let snap = Snapshot::from_json(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(
            snap.counter(names::REBALANCE_MIGRATED_TOTAL) > 0,
            "drain + join must migrate sub-collections"
        );
        let reason =
            |r: &str| snap.counter(&metric_key(names::REBALANCE_PLANS_TOTAL, &[("reason", r)]));
        assert_eq!(reason("drain"), 1);
        assert_eq!(reason("join"), 1);
        assert_eq!(
            snap.gauges.get(names::REBALANCE_CONVERGED).copied(),
            Some(1.0),
            "the round trip must end converged"
        );
        // The rebalance lines render from the same snapshot.
        run(&["report", &metrics_path]).unwrap();
        // Out-of-range nodes and standby >= cluster are refused.
        assert!(run(&[
            "rebalance",
            "--corpus",
            &corpus_path,
            "--cluster",
            "2",
            "--drain",
            "7",
        ])
        .is_err());
        assert!(run(&[
            "rebalance",
            "--corpus",
            &corpus_path,
            "--cluster",
            "2",
            "--standby",
            "2",
        ])
        .is_err());
    }

    #[test]
    fn ask_elastic_answers_through_the_ownership_map() {
        let corpus_path = tmp("c10.json");
        run(&[
            "generate",
            "--seed",
            "23",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--cluster",
            "3",
            "--elastic",
            "--standby",
            "1",
            "--sample",
            "1",
        ])
        .unwrap();
        // Elastic membership is a cluster-runtime feature.
        assert!(run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--elastic",
            "--sample",
            "1"
        ])
        .is_err());
        assert!(run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--cluster",
            "2",
            "--elastic",
            "--standby",
            "2",
            "--sample",
            "1",
        ])
        .is_err());
    }

    #[test]
    fn ask_writes_perfetto_trace() {
        let corpus_path = tmp("c11.json");
        let trace_path = tmp("c11-trace.json");
        run(&[
            "generate",
            "--seed",
            "29",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--cluster",
            "2",
            "--sample",
            "1",
            "--trace-out",
            &trace_path,
        ])
        .unwrap();
        let json = std::fs::read_to_string(&trace_path).unwrap();
        let events = validate_chrome_json(&json).unwrap();
        assert!(events > 0, "the cluster ask must record spans");
        // Pipeline mode records no spans and must refuse the flag.
        assert!(run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--sample",
            "1",
            "--trace-out",
            &trace_path,
        ])
        .is_err());
    }

    #[test]
    fn federated_elastic_ask_writes_perfetto_trace() {
        let corpus_path = tmp("c12.json");
        let trace_path = tmp("c12-trace.json");
        run(&[
            "generate",
            "--seed",
            "31",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--shards",
            "2",
            "--cluster",
            "2",
            "--elastic",
            "--sample",
            "1",
            "--trace-out",
            &trace_path,
        ])
        .unwrap();
        let json = std::fs::read_to_string(&trace_path).unwrap();
        assert!(validate_chrome_json(&json).unwrap() > 0);
        // The combined export holds the broker tree and the shard trees.
        assert!(json.contains("\"federated\""), "broker root span missing");
        assert!(
            json.contains("\"question\""),
            "shard question spans missing"
        );
        // Standby must leave an active node in every shard.
        assert!(run(&[
            "ask",
            "--corpus",
            &corpus_path,
            "--shards",
            "2",
            "--cluster",
            "1",
            "--elastic",
            "--standby",
            "1",
            "--sample",
            "1",
        ])
        .is_err());
    }

    #[test]
    fn trace_command_renders_critical_path_and_exports() {
        let out = tmp("t1-trace.json");
        run(&[
            "trace",
            "--nodes",
            "2",
            "--seed",
            "3",
            "--question",
            "0",
            "--out",
            &out,
        ])
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(validate_chrome_json(&json).unwrap() > 0);
    }

    /// The lines `ask --json`, `ask --shards N --json` and `simulate
    /// --waterfall Q --format json` print, as `serde_json::json!` wrote
    /// them: keys sorted at every level.
    #[test]
    fn json_records_keep_the_sorted_key_order() {
        let answers = RankedAnswers {
            answers: vec![qa_types::Answer {
                paragraph: ParagraphId::new(qa_types::DocId::new(8), 1),
                candidate: "Lake Quaven".into(),
                text: "built in Lake Quaven".into(),
                score: 0.5,
            }],
        };
        let answer = r#"{"candidate":"Lake Quaven","paragraph":{"doc":8,"ordinal":1},"score":0.5,"text":"built in Lake Quaven"}"#;
        let truth = Some("Lake Quaven".to_string());
        let ask = AskRecord {
            answers: answer_records(&answers),
            question: "where?",
            truth: &truth,
        };
        assert_eq!(
            serde_json::to_string(&ask).unwrap(),
            format!(r#"{{"answers":[{answer}],"question":"where?","truth":"Lake Quaven"}}"#)
        );
        let shard = ShardReport {
            shard: 1,
            status: ShardStatus::TimedOut,
            latency_secs: 0.25,
            hedged: true,
            hedge_won: false,
        };
        let federated = FederatedAskRecord {
            answers: answer_records(&answers),
            coverage: 0.5,
            quorum_met: false,
            question: "where?",
            shards: vec![ShardRecord::from(&shard)],
            truth: &None,
        };
        assert_eq!(
            serde_json::to_string(&federated).unwrap(),
            format!(
                r#"{{"answers":[{answer}],"coverage":0.5,"quorum_met":false,"question":"where?","shards":[{{"hedge_won":false,"hedged":true,"latency_secs":0.25,"shard":1,"status":"TimedOut"}}],"truth":null}}"#
            )
        );
        let hedged = dqa_obs::CauseSet::HEDGED;
        let span = CausalSpan::new(7, Some(1), "PR", Some(2), 0.5, 2.5, 0.25, hedged);
        let waterfall = WaterfallRecord {
            question: 0,
            seed: 3,
            spans: vec![SpanRecord::from(&span)],
        };
        let id = format!("{:016x}", span.id);
        assert_eq!(
            serde_json::to_string(&waterfall).unwrap(),
            format!(
                r#"{{"question":0,"seed":3,"spans":[{{"causes":["hedged"],"end":2.5,"id":"{id}","name":"PR","node":2,"parent":"0000000000000001","queue_wait":0.25,"start":0.5,"trace":"0000000000000007"}}]}}"#
            )
        );
    }

    #[test]
    fn simulate_waterfall_formats() {
        run(&[
            "simulate",
            "--nodes",
            "2",
            "--seed",
            "3",
            "--waterfall",
            "0",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(run(&[
            "simulate",
            "--nodes",
            "2",
            "--seed",
            "3",
            "--waterfall",
            "0",
            "--format",
            "xml",
        ])
        .is_err());
    }

    #[test]
    fn metrics_flag_errors_are_reported() {
        let p = tmp("m2.json");
        assert!(run(&[
            "simulate",
            "--nodes",
            "2",
            "--metrics-out",
            &p,
            "--metrics-format",
            "xml"
        ])
        .is_err());
        assert!(run(&["simulate", "--compare", "--metrics-out", &p]).is_err());
        assert!(run(&["report"]).is_err());
        assert!(run(&["report", "/nonexistent-metrics.json"]).is_err());
        let bad = tmp("m2-bad.json");
        std::fs::write(&bad, "[1,2,3]").unwrap();
        assert!(run(&["report", &bad]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["generate"]).is_err(), "--out required");
        assert!(run(&["ask", "--corpus", "/nonexistent.json", "q"]).is_err());
        assert!(run(&["simulate", "--strategy", "bogus"]).is_err());
        let corpus_path = tmp("c2.json");
        run(&[
            "generate",
            "--seed",
            "6",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        assert!(
            run(&["ask", "--corpus", &corpus_path]).is_err(),
            "no questions given"
        );
    }

    #[test]
    fn scrub_detects_and_repairs_injected_corruption() {
        let corpus_path = tmp("c10.json");
        let index_path = tmp("c10.idx");
        let metrics_path = tmp("c10-metrics.json");
        run(&[
            "generate",
            "--seed",
            "23",
            "--size",
            "small",
            "--out",
            &corpus_path,
        ])
        .unwrap();
        // `dqa index` writes DQAIDX3; the verifying loader reads it.
        run(&["index", "--corpus", &corpus_path, "--out", &index_path]).unwrap();
        run(&[
            "scrub",
            "--corpus",
            &corpus_path,
            "--index",
            &index_path,
            "--cluster",
            "2",
            "--flip",
            "0,2",
            "--torn",
            "1",
            "--sample",
            "1",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        let snap = Snapshot::from_json(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(
            snap.counter_family(names::INTEGRITY_CHECKSUM_FAILURES_TOTAL),
            3,
            "every injected corruption is detected"
        );
        assert_eq!(
            snap.counter_family(names::INTEGRITY_REPAIRS_TOTAL),
            3,
            "every detection is repaired"
        );
        assert_eq!(
            snap.gauges.get(names::INTEGRITY_QUARANTINED).copied(),
            Some(0.0),
            "the run ends with an empty quarantine"
        );
        // Out-of-range sub-collections are refused.
        assert!(run(&["scrub", "--corpus", &corpus_path, "--flip", "999",]).is_err());
    }
}
