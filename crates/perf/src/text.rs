//! The three text workloads — `pipeline_seq`, `runtime_bare`,
//! `runtime_armored` — over one shared input: a generated corpus, the
//! questions planted in it, and the index built and loaded the way
//! `dqa index` / `dqa ask` do it.

use crate::calib::HostSpeed;
use crate::catalogue::{PIPELINE_SEQ, RUNTIME_ARMORED};
use crate::report::{out_dir, peak_rss_mb, process_cpu_s, Metrics, Tally};
use crate::spans::{self_times_ns, Recorder};
use crate::stats::{mean, median, Pass, Passes, Summary};
use crate::{Measured, RunArgs, SIZES};
use corpus::{Corpus, CorpusConfig, GeneratedQuestion, QuestionGenerator};
use dqa_obs::MetricsRegistry;
use dqa_runtime::{Admission, Cluster, ClusterConfig, CoordinatorJournal, IntegrityConfig};
use ir_engine::query::quorum;
use ir_engine::{
    decode_index_auto, encode_index_v2, DocumentStore, ParagraphRetriever, RetrievalConfig,
    RetrievalResult, ShardedIndex,
};
use nlp::NamedEntityRecognizer;
use qa_pipeline::{
    extract_answers, order_paragraphs, score_paragraphs, ApItem, PipelineConfig, QaPipeline,
};
use qa_types::{Document, OverloadPolicy, RankedAnswers};
use rebalance::ElasticConfig;
use scheduler::partition::PartitionStrategy;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the load generator makes from the seed. Generating it is the
/// benchmark's own work and is not part of `setup_s`.
pub struct Fixture {
    pub documents: Vec<Document>,
    pub sub_collections: usize,
    /// Bytes of paragraph text in the corpus.
    pub text_bytes: usize,
    pub questions: Vec<GeneratedQuestion>,
}

pub fn generate(seed: u64) -> Fixture {
    let corpus = Corpus::generate(CorpusConfig {
        docs_per_collection: SIZES.docs_per_collection,
        ..CorpusConfig::trec_like(seed)
    })
    .expect("the frozen corpus configuration is valid");
    let questions = QuestionGenerator::new(&corpus, seed ^ 0xabcd).generate(SIZES.questions);
    assert_eq!(
        questions.len(),
        SIZES.questions,
        "corpus has too few plants"
    );
    Fixture {
        text_bytes: corpus.stats().bytes,
        sub_collections: corpus.config.sub_collections,
        questions,
        documents: corpus.documents,
    }
}

/// One pass through the index set-up path, with the time each step took.
pub struct Built {
    pub retriever: ParagraphRetriever,
    /// The DQAIDX2 segment the index was loaded from.
    pub segment: Vec<u8>,
    pub build_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    /// `build_s + encode_s + decode_s` plus the document-store build.
    pub total_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `ShardedIndex::build` → `encode_index_v2` → `decode_index_auto` (the
/// verifying load) → document store.
pub fn build(fx: &Fixture) -> Built {
    let documents = fx.documents.clone(); // the store owns its copy; cloning is not set-up work
    let (index, build_s) = timed(|| ShardedIndex::build(&fx.documents, fx.sub_collections));
    let (segment, encode_s) = timed(|| encode_index_v2(&index));
    drop(index);
    let (loaded, decode_s) = timed(|| decode_index_auto(&segment).expect("fresh segment verifies"));
    let (store, store_s) = timed(|| DocumentStore::new(documents));
    Built {
        retriever: ParagraphRetriever::new(
            Arc::new(loaded),
            Arc::new(store),
            RetrievalConfig::default(),
        ),
        segment,
        build_s,
        encode_s,
        decode_s,
        total_s: build_s + encode_s + decode_s + store_s,
    }
}

fn pipeline_over(retriever: &ParagraphRetriever) -> QaPipeline {
    QaPipeline::new(
        retriever.clone(),
        NamedEntityRecognizer::standard(),
        PipelineConfig::default(),
    )
}

fn journal_dir(workload: &str) -> PathBuf {
    out_dir().join(format!("journal-{workload}-{}", std::process::id()))
}

/// The cluster both runtime workloads use; `armored` switches every
/// optional tier on. The journal keeps its default options
/// (`fsync_every: None`: appends reach the OS, not the platter).
fn cluster_config(armored: bool, journal: Option<CoordinatorJournal>) -> ClusterConfig {
    let base = ClusterConfig {
        nodes: SIZES.runtime_nodes,
        workers_per_node: 1,
        ap_partition: PartitionStrategy::Recv { chunk_size: 40 },
        ..ClusterConfig::default()
    };
    if armored {
        ClusterConfig {
            journal,
            integrity: Some(IntegrityConfig::default()),
            elastic: Some(ElasticConfig::default()),
            // Gate and shed logic are evaluated on every question and never trip.
            overload: OverloadPolicy {
                max_in_flight: Some(SIZES.runtime_clients),
                admission_queue: SIZES.runtime_clients,
                deadline_secs: Some(30.0),
                ..OverloadPolicy::default()
            },
            metrics: Some(MetricsRegistry::new()),
            ..base
        }
    } else {
        ClusterConfig {
            metrics: Some(MetricsRegistry::disabled()),
            ..base
        }
    }
}

/// Whether a planted answer is among the candidates returned.
fn recalled(answers: &RankedAnswers, gq: &GeneratedQuestion) -> bool {
    answers
        .answers
        .iter()
        .any(|a| a.candidate == gq.expected_answer)
}

/// A runtime question passes when it was answered, with complete
/// coverage, with the same answers as the sequential pipeline.
fn runtime_answer_ok(admission: &Admission, reference: &RankedAnswers) -> bool {
    match admission {
        Admission::Answered(a) => a.coverage.is_complete() && a.answers == *reference,
        Admission::Rejected { .. } | Admission::Failed(_) => false,
    }
}

/// Set-up repeated `SIZES.setup_repeats` times, each between two slices
/// and divided by their factor; the last build is kept for the run. `extra`
/// times whatever the workload starts on top of the index (seconds).
/// Returns the kept build, the per-repeat totals, and the medians of the
/// three index steps.
fn repeated_builds(
    fx: &Fixture,
    host: &mut HostSpeed,
    mut extra: impl FnMut(&Built) -> f64,
) -> (Built, Vec<f64>, [f64; 3]) {
    let mut totals = Vec::new();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut kept: Option<Built> = None;
    for _ in 0..SIZES.setup_repeats {
        drop(kept.take()); // free the previous index before building the next
        let ((built, total), factor) = host.around(|| {
            let built = build(fx);
            let total = built.total_s + extra(&built);
            (built, total)
        });
        totals.push(total / factor);
        parts[0].push(built.build_s / factor);
        parts[1].push(built.encode_s / factor);
        parts[2].push(built.decode_s / factor);
        kept = Some(built);
    }
    let medians = parts.map(|p| median(&p).unwrap_or(0.0));
    (kept.expect("setup_repeats >= 1"), totals, medians)
}

fn set_setup_parts(m: &mut Metrics, parts: [f64; 3]) {
    m.set("ir-engine.index_build_s", parts[0]);
    m.set("ir-engine.encode_v2_s", parts[1]);
    m.set("ir-engine.decode_verified_s", parts[2]);
}

/// The five end-to-end metrics: `setup_s` is the median set-up repeat, the
/// other times are the median pass's (see [`Passes`]).
fn set_end_to_end(m: &mut Metrics, setup: &[f64], passes: &Passes) {
    let n = SIZES.questions as f64;
    m.set("setup_s", median(setup).unwrap_or(0.0));
    m.set(
        "questions_per_s",
        passes.wall_s().map_or(0.0, |wall_s| n / wall_s),
    );
    m.set("latency_p50_ms", passes.latency_ms(0.50).unwrap_or(0.0));
    m.set("latency_p95_ms", passes.latency_ms(0.95).unwrap_or(0.0));
    m.set("peak_rss_mb", peak_rss_mb());
}

/// The run's raw figures, for the human reader: the throughput without the
/// host factors, then every pass's raw wall time and factor.
fn raw_note(passes: &Passes) -> String {
    let row = |f: &dyn Fn(&Pass) -> f64| {
        passes
            .iter()
            .map(|p| format!("{:.3}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "raw: {:.3} questions/s in the median of {} passes\n\
         raw pass walls, s: {}\nhost factors:      {}",
        passes
            .raw_wall_s()
            .map_or(0.0, |w| SIZES.questions as f64 / w),
        passes.len(),
        row(&|p| p.raw_wall_s),
        row(&Pass::host),
    )
}

/// Share of a traced pass's time that tracing added: a traced run
/// alternates plain and traced passes so both see the same host.
fn trace_overhead_share(plain: &Passes, traced: &Passes) -> Option<f64> {
    Some(1.0 - plain.wall_s()? / traced.wall_s()?)
}

// ---------------------------------------------------------------------------
// pipeline_seq
// ---------------------------------------------------------------------------

/// Per-question counts taken on the traced path; exact for a seed.
#[derive(Default)]
struct RetrievalCounts {
    io_bytes: Vec<f64>,
    docs_matched: Vec<f64>,
    paragraphs: Vec<f64>,
    quorum_rounds: Vec<f64>,
    accepted: Vec<f64>,
}

/// The stages `QaPipeline::answer` runs, driven from here with a span
/// around each call so that every layer boundary is visible. Returns the
/// answers, which the caller checks against `QaPipeline::answer`'s.
fn traced_answer(
    rec: &mut Recorder,
    pipeline: &QaPipeline,
    gq: &GeneratedQuestion,
    counts: Option<&mut RetrievalCounts>,
) -> Option<RankedAnswers> {
    let q = gq.question.id.raw();
    let retriever = pipeline.retriever();
    let cfg = pipeline.config();
    let root = rec.begin("question", None, q);
    let processed = rec
        .time("qp", Some(root), q, || {
            pipeline.process_question(&gq.question)
        })
        .ok()?;
    let pr = rec.begin("pr", Some(root), q);
    let mut total = RetrievalResult::default();
    let mut quorums = Vec::new();
    for shard in retriever.index().shards() {
        let id = shard.id;
        let part = rec
            .time("shard", Some(pr), q, || {
                retriever.retrieve(&processed.keywords, id)
            })
            .ok()?;
        quorums.push((id, part.quorum_used));
        total.merge(part);
    }
    rec.end(pr);
    let (io_bytes, docs_matched, retrieved) =
        (total.io_bytes, total.docs_matched, total.paragraphs.len());
    let scored = rec.time("ps", Some(root), q, || {
        score_paragraphs(total.paragraphs, &processed.keywords)
    });
    let accepted = rec.time("po", Some(root), q, || {
        order_paragraphs(scored, cfg.po_threshold, cfg.max_accepted)
    });
    let n_accepted = accepted.len();
    let answers = rec.time("ap", Some(root), q, || {
        let items: Vec<ApItem> = accepted
            .into_iter()
            .map(|s| ApItem {
                paragraph: s.paragraph,
                rank: s.score,
            })
            .collect();
        extract_answers(&items, &processed, pipeline.ner(), cfg)
    });
    rec.end(root);

    // Beside the question's tree: the quorum calls PR made, re-issued on
    // their own so retrieval splits into Boolean evaluation and extraction.
    let terms: Vec<String> = processed.keywords.iter().map(|k| k.term.clone()).collect();
    let mut rounds = 0usize;
    for (id, used) in quorums {
        let Some(shard) = retriever.index().shard(id) else {
            continue;
        };
        for k in (used.max(1)..=terms.len()).rev() {
            rounds += 1;
            rec.time("quorum", None, q, || quorum(shard, &terms, k));
        }
    }
    if let Some(c) = counts {
        c.io_bytes.push(io_bytes as f64);
        c.docs_matched.push(docs_matched as f64);
        c.paragraphs.push(retrieved as f64);
        c.quorum_rounds.push(rounds as f64);
        c.accepted.push(n_accepted as f64);
    }
    Some(answers)
}

pub fn pipeline_seq(args: &RunArgs) -> Measured {
    let fx = generate(args.seed);
    let mut host = HostSpeed::new();
    let (built, setup, parts) =
        repeated_builds(&fx, &mut host, |b| timed(|| pipeline_over(&b.retriever)).1);
    let pipeline = pipeline_over(&built.retriever);
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Warm-up pass: the reference answers and the recall against ground truth.
    let mut reference = Vec::with_capacity(fx.questions.len());
    let mut hits = 0usize;
    for gq in &fx.questions {
        let out = pipeline.answer(&gq.question);
        tally.record(out.is_ok());
        let answers = out.map(|o| o.answers).unwrap_or_default();
        hits += recalled(&answers, gq) as usize;
        reference.push(answers);
    }

    let n = fx.questions.len();
    let (mut plain, mut traced) = (Passes::default(), Passes::default());
    let mut rec = Recorder::new();
    let mut counts = RetrievalCounts::default();
    let start = Instant::now();
    let mut pass = 0usize;
    let mut opening = host.factor();
    while start.elapsed() < args.duration() {
        // A traced run alternates plain and traced passes, so both see the
        // same machine conditions and their ratio is the tracing overhead.
        let traced_pass = args.traced && pass % 2 == 1;
        let mut done = Pass::default();
        let mut raw_ms = Vec::with_capacity(SIZES.segment_questions);
        let segments = fx
            .questions
            .chunks(SIZES.segment_questions)
            .zip(reference.chunks(SIZES.segment_questions));
        for (questions, expected) in segments {
            let segment_start = Instant::now();
            for (gq, expected) in questions.iter().zip(expected) {
                let t = Instant::now();
                let answers = if traced_pass {
                    let first = counts.accepted.len() < n;
                    traced_answer(&mut rec, &pipeline, gq, first.then_some(&mut counts))
                } else {
                    pipeline.answer(&gq.question).ok().map(|o| o.answers)
                };
                raw_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tally.record(answers.as_ref() == Some(expected));
            }
            let wall_s = segment_start.elapsed().as_secs_f64();
            let closing = host.factor();
            done.add_segment(wall_s, &raw_ms, (opening + closing) / 2.0);
            opening = closing;
            raw_ms.clear();
        }
        if traced_pass {
            traced.push(done);
        } else {
            plain.push(done);
        }
        pass += 1;
    }
    let note = raw_note(&plain);

    if !args.traced {
        set_end_to_end(&mut m, &setup, &plain);
        return Measured::new(tally, m, plain.samples(), None, note);
    }

    set_setup_parts(&mut m, parts);
    let spans = rec.spans();
    let own = self_times_ns(spans);
    // Span durations in reference-host microseconds.
    let factor = traced.mean_host();
    let by_name = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3 / factor)
            .collect()
    };
    for (metric, name) in [
        ("qa-pipeline.qp_us", "qp"),
        ("qa-pipeline.pr_us", "pr"),
        ("qa-pipeline.ps_us", "ps"),
        ("qa-pipeline.po_us", "po"),
        ("qa-pipeline.ap_us", "ap"),
    ] {
        m.set(metric, median(&by_name(name)).unwrap_or(0.0));
    }
    // Largest share of any question's root span that no stage accounts for.
    let residual = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "question")
        .map(|(s, own)| *own as f64 / s.duration_ns().max(1) as f64)
        .fold(0.0, f64::max);
    m.set("qa-pipeline.trace_residual_share", residual);
    let retrieve_us: f64 = by_name("shard").iter().sum();
    let quorum_us: f64 = by_name("quorum").iter().sum();
    m.set("ir-engine.retrieve_us_per_shard", mean(&by_name("shard")));
    if retrieve_us > 0.0 {
        m.set("ir-engine.extract_share", 1.0 - quorum_us / retrieve_us);
    }
    m.set("ir-engine.io_bytes_per_q", mean(&counts.io_bytes));
    m.set("ir-engine.docs_matched_per_q", mean(&counts.docs_matched));
    m.set("ir-engine.paragraphs_per_q", mean(&counts.paragraphs));
    m.set("ir-engine.quorum_rounds_per_q", mean(&counts.quorum_rounds));
    m.set(
        "qa-pipeline.paragraphs_accepted_per_q",
        mean(&counts.accepted),
    );
    let retrieved: f64 = counts.paragraphs.iter().sum();
    if retrieved > 0.0 {
        m.set(
            "qa-pipeline.useful_paragraph_ratio",
            counts.accepted.iter().sum::<f64>() / retrieved,
        );
    }
    m.set("qa-pipeline.answer_recall", hits as f64 / n as f64);
    if let Some(share) = trace_overhead_share(&plain, &traced) {
        m.set("perf.trace_overhead_share", share);
    }
    m.set("perf.host_factor", factor);
    crate::probes::text(&mut m, &fx, &built, &pipeline, &mut host);
    crate::probes::standalone(&mut m, args.seed, &mut host);
    Measured::new(tally, m, plain.samples(), Some(rec), note)
}

// ---------------------------------------------------------------------------
// runtime_bare / runtime_armored
// ---------------------------------------------------------------------------

/// What one client thread saw.
struct ClientLog {
    tally: Tally,
    /// Every call: the pass it belongs to, its latency in ms, when it ended.
    calls: Vec<(usize, f64, Instant)>,
    rec: Recorder,
    /// The runtime's own phase times, microseconds.
    phases: [Vec<f64>; 5],
    pr_nodes: Vec<f64>,
    ap_nodes: Vec<f64>,
    outcomes: [u64; 3], // degraded, rejected, failed
}

/// What [`drive`] hands back: the clients' logs and the whole passes, plain
/// and traced apart.
struct Driven {
    logs: Vec<ClientLog>,
    plain: Passes,
    traced: Passes,
}

/// Closed loop, `SIZES.runtime_clients` threads: each takes the next
/// question off a shared counter and waits for its reply before taking
/// another, pass after pass with nothing in between. Whole passes over the
/// question set run until `duration` has passed (`Duration::ZERO`: exactly
/// one pass). With `traced`, odd passes wrap each `submit` in spans.
///
/// Times are raw wall clock (host factor 1): a running cluster's heartbeat
/// and poll threads compete with a reference slice, so a slice taken beside
/// it reads 10-20 % slow however quiet the host is, and dividing by it made
/// ten runs spread wider than leaving them alone.
fn drive(
    cluster: &Cluster,
    fx: &Fixture,
    reference: &[RankedAnswers],
    duration: Duration,
    traced: bool,
) -> Driven {
    let n = fx.questions.len();
    let next = AtomicUsize::new(0);
    // The first pass that must not start; set when time is up.
    let end_pass = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SIZES.runtime_clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ClientLog {
                        tally: Tally::default(),
                        calls: Vec::new(),
                        rec: Recorder::new(),
                        phases: Default::default(),
                        pr_nodes: Vec::new(),
                        ap_nodes: Vec::new(),
                        outcomes: [0; 3],
                    };
                    loop {
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        let (pass, i) = (ticket / n, ticket % n);
                        // Passes are whole: only a pass boundary may end the run.
                        if i == 0 && pass > 0 && start.elapsed() >= duration {
                            end_pass.store(pass, Ordering::Relaxed);
                        }
                        if pass >= end_pass.load(Ordering::Relaxed) {
                            break;
                        }
                        let gq = &fx.questions[i];
                        let q = gq.question.id.raw();
                        let traced_pass = traced && pass % 2 == 1;
                        let root = traced_pass.then(|| log.rec.begin("submit", None, q));
                        let t = Instant::now();
                        let admission = cluster.submit(&gq.question);
                        let ended = Instant::now();
                        log.calls
                            .push((pass, (ended - t).as_secs_f64() * 1e3, ended));
                        let phases_s = admission.answer().map(|a| {
                            [
                                a.timings.qp,
                                a.timings.pr,
                                a.timings.ps,
                                a.timings.po,
                                a.timings.ap,
                            ]
                        });
                        if let Some(root) = root {
                            log.rec.end(root);
                            // The runtime reports its phases as durations;
                            // lay them end to end under the call's span.
                            let mut at = log.rec.spans()[root].start_ns;
                            for (name, secs) in ["qp", "pr", "ps", "po", "ap"]
                                .into_iter()
                                .zip(phases_s.unwrap_or_default())
                            {
                                let ns = (secs * 1e9) as u64;
                                log.rec.record(name, Some(root), q, at, ns);
                                at += ns;
                            }
                        }
                        if let Some(phases) = phases_s {
                            for (slot, secs) in log.phases.iter_mut().zip(phases) {
                                slot.push(secs * 1e6);
                            }
                        }
                        match &admission {
                            Admission::Answered(a) => {
                                log.pr_nodes.push(a.pr_nodes.len() as f64);
                                log.ap_nodes.push(a.ap_nodes.len() as f64);
                                log.outcomes[0] += !a.coverage.is_complete() as u64;
                            }
                            Admission::Rejected { .. } => log.outcomes[1] += 1,
                            Admission::Failed(_) => log.outcomes[2] += 1,
                        }
                        log.tally
                            .record(runtime_answer_ok(&admission, &reference[i]));
                    }
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });

    // A pass lasts from the previous pass's last reply to its own.
    let mut by_pass: BTreeMap<usize, (Vec<f64>, Instant)> = BTreeMap::new();
    for &(pass, ms, ended) in logs.iter().flat_map(|l| &l.calls) {
        let entry = by_pass.entry(pass).or_insert((Vec::new(), ended));
        entry.0.push(ms);
        entry.1 = entry.1.max(ended);
    }
    let (mut plain, mut traced_passes) = (Passes::default(), Passes::default());
    let mut boundary = start;
    for (pass, (samples_ms, ended)) in by_pass {
        if samples_ms.len() < n {
            // A client took a question of the pass the run stopped before.
            continue;
        }
        let mut done = Pass::default();
        done.add_segment((ended - boundary).as_secs_f64(), &samples_ms, 1.0);
        boundary = ended;
        if traced && pass % 2 == 1 {
            traced_passes.push(done);
        } else {
            plain.push(done);
        }
    }
    Driven {
        logs,
        plain,
        traced: traced_passes,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn runtime(args: &RunArgs) -> Measured {
    let armored = args.workload == RUNTIME_ARMORED;
    let fx = generate(args.seed);
    let mut host = HostSpeed::new();
    let dir = journal_dir(&args.workload);
    // Opening the journal is part of starting an armoured cluster; the
    // second handle is kept to read the append count.
    let start_cluster = |b: &Built| {
        timed(|| {
            let journal = armored.then(|| {
                let _ = std::fs::remove_dir_all(&dir);
                CoordinatorJournal::open(&dir)
                    .expect("journal directory opens")
                    .0
            });
            let cluster = Cluster::start(
                b.retriever.clone(),
                NamedEntityRecognizer::standard(),
                cluster_config(armored, journal.clone()),
            );
            (cluster, journal)
        })
    };
    // Every set-up repeat starts a cluster and shuts it down again; the
    // cluster the run uses is started after the last one.
    let mut starts = Vec::new();
    let mut shutdowns = Vec::new();
    let (built, setup, parts) = repeated_builds(&fx, &mut host, |b| {
        let ((cluster, _), start_s) = start_cluster(b);
        let ((), stop_s) = timed(|| cluster.shutdown());
        starts.push(start_s);
        shutdowns.push(stop_s);
        start_s + stop_s
    });
    let ((cluster, journal), _) = start_cluster(&built);

    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // The sequential pipeline over the same index is the reference.
    let pipeline = pipeline_over(&built.retriever);
    let mut hits = 0usize;
    let reference: Vec<RankedAnswers> = fx
        .questions
        .iter()
        .map(|gq| {
            let out = pipeline.answer(&gq.question);
            tally.record(out.is_ok());
            let answers = out.map(|o| o.answers).unwrap_or_default();
            hits += recalled(&answers, gq) as usize;
            answers
        })
        .collect();

    // Warm-up pass, with the correctness gates.
    let n = fx.questions.len();
    let appended_before = journal.as_ref().map_or(0, CoordinatorJournal::appended);
    let warm = drive(&cluster, &fx, &reference, Duration::ZERO, false);
    for log in &warm.logs {
        tally.merge(log.tally);
    }
    let records_per_q = journal
        .as_ref()
        .map_or(0.0, |j| (j.appended() - appended_before) as f64 / n as f64);
    let bytes_per_q = dir_bytes(&dir) as f64 / n as f64; // no directory, no bytes
    let spans_per_q = cluster.tracer().spans().len() as f64 / n as f64;
    // Of the warm-up pass: the ring is bounded and evicts its oldest spans
    // by design once a run has answered more questions than it holds.
    let trace_dropped = cluster.tracer().dropped();
    // An armoured warm-up must also leave nothing quarantined, no span
    // dropped, and a journal a successor could trust: reopened, it shows
    // every question answered and none in flight. The timed passes then run
    // on a fresh cluster and journal, so the replay stays one pass long.
    let mut replay_rate = 0.0;
    let (cluster, journal) = if armored {
        tally.record(cluster.quarantined_subs().is_empty());
        tally.record(trace_dropped == 0);
        drop(journal);
        cluster.shutdown();
        let ((reopened, replay_s), factor) =
            host.around(|| timed(|| CoordinatorJournal::open(&dir)));
        match reopened {
            Ok((_, recovery)) => {
                let state = &recovery.state;
                tally.record(state.in_flight().count() == 0);
                tally.record(state.answered().count() == n);
                replay_rate = recovery.stats.records as f64 / (replay_s / factor);
            }
            Err(_) => {
                tally.record(false);
            }
        }
        start_cluster(&built).0
    } else {
        (cluster, journal)
    };

    let cpu_before = process_cpu_s();
    let Driven {
        logs,
        plain,
        traced,
    } = drive(&cluster, &fx, &reference, args.duration(), args.traced);
    let cpu_s = process_cpu_s() - cpu_before;
    drop(journal);
    cluster.shutdown();

    let mut rec = Recorder::new();
    let mut phases: [Vec<f64>; 5] = Default::default();
    let (mut pr_nodes, mut ap_nodes) = (Vec::new(), Vec::new());
    let mut outcomes = [0u64; 3];
    let mut total_q = 0usize;
    for log in logs {
        tally.merge(log.tally);
        total_q += log.calls.len();
        rec.merge(log.rec);
        for (all, one) in phases.iter_mut().zip(log.phases) {
            all.extend(one);
        }
        pr_nodes.extend(log.pr_nodes);
        ap_nodes.extend(log.ap_nodes);
        for (all, one) in outcomes.iter_mut().zip(log.outcomes) {
            *all += one;
        }
    }
    let note = raw_note(&plain);
    let _ = std::fs::remove_dir_all(&dir);

    if !args.traced {
        set_end_to_end(&mut m, &setup, &plain);
        return Measured::new(tally, m, plain.samples(), None, note);
    }

    set_setup_parts(&mut m, parts);
    m.set("dqa-runtime.start_s", median(&starts).unwrap_or(0.0));
    m.set("dqa-runtime.shutdown_s", median(&shutdowns).unwrap_or(0.0));
    for (metric, samples) in [
        "dqa-runtime.phase_us.qp",
        "dqa-runtime.phase_us.pr",
        "dqa-runtime.phase_us.ps",
        "dqa-runtime.phase_us.po",
        "dqa-runtime.phase_us.ap",
    ]
    .into_iter()
    .zip(&phases)
    {
        m.set(metric, median(samples).unwrap_or(0.0));
    }
    m.set("dqa-runtime.pr_nodes_per_q", mean(&pr_nodes));
    m.set("dqa-runtime.ap_nodes_per_q", mean(&ap_nodes));
    m.set("dqa-runtime.cpu_s_per_q", cpu_s / total_q.max(1) as f64);
    if let Some(all) = Summary::of(&plain.all()) {
        m.set("dqa-runtime.latency_p99_ms", all.p99);
        m.set("dqa-runtime.latency_max_ms", all.max);
    }
    m.set("dqa-runtime.degraded", outcomes[0] as f64);
    m.set("dqa-runtime.rejected", outcomes[1] as f64);
    m.set("dqa-runtime.failed", outcomes[2] as f64);
    m.set("journal.records_per_q", records_per_q);
    m.set("journal.bytes_per_q", bytes_per_q);
    m.set("journal.replay_records_per_s", replay_rate);
    m.set("dqa-obs.spans_per_q", spans_per_q);
    m.set("dqa-obs.trace_dropped", trace_dropped as f64);
    // The runtime's answers equal the sequential pipeline's (or the
    // question counts as failed), so its recall is the pipeline's.
    m.set("qa-pipeline.answer_recall", hits as f64 / n as f64);
    if let Some(share) = trace_overhead_share(&plain, &traced) {
        m.set("perf.trace_overhead_share", share);
    }
    crate::probes::runtime_one_node(&mut m, &fx, &built, &pipeline);
    crate::probes::text(&mut m, &fx, &built, &pipeline, &mut host);
    crate::probes::standalone(&mut m, args.seed, &mut host);
    Measured::new(tally, m, plain.samples(), Some(rec), note)
}

pub fn run(args: &RunArgs) -> Measured {
    if args.workload == PIPELINE_SEQ {
        pipeline_seq(args)
    } else {
        runtime(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqa_runtime::DistributedAnswer;
    use qa_types::{
        Answer, AnswerType, Coverage, DocId, ModuleTimings, NodeId, ParagraphId, ProcessedQuestion,
        QaError, Question, QuestionId, SubCollectionId,
    };

    fn answers(candidates: &[&str]) -> RankedAnswers {
        RankedAnswers {
            answers: candidates
                .iter()
                .map(|c| Answer {
                    paragraph: ParagraphId::new(DocId::new(1), 0),
                    candidate: (*c).to_string(),
                    text: String::new(),
                    score: 1.0,
                })
                .collect(),
        }
    }

    fn answered(answers: RankedAnswers, coverage: Coverage) -> Admission {
        Admission::Answered(Box::new(DistributedAnswer {
            processed: ProcessedQuestion {
                question: Question::new(QuestionId::new(1), "Who?"),
                answer_type: AnswerType::Person,
                keywords: Vec::new(),
            },
            answers,
            timings: ModuleTimings::default(),
            home: NodeId::new(0),
            pr_nodes: Vec::new(),
            ap_nodes: Vec::new(),
            paragraphs_accepted: 0,
            coverage,
        }))
    }

    /// A forced mismatch between the runtime's answers and the sequential
    /// pipeline's is a failed operation, as is a degraded or refused one.
    #[test]
    fn a_forced_answer_mismatch_is_counted_as_a_failure() {
        let reference = answers(&["Ada", "Grace"]);
        let full = Coverage::full(2);
        let partial = Coverage {
            completed: 1,
            total: 2,
        };
        let mut tally = Tally::default();
        tally.record(runtime_answer_ok(
            &answered(reference.clone(), full),
            &reference,
        ));
        assert!(tally.correct());
        for bad in [
            answered(answers(&["Ada", "Edsger"]), full),
            answered(reference.clone(), partial),
            Admission::Rejected {
                retry_after: Duration::ZERO,
            },
            Admission::Failed(QaError::Protocol("down".into())),
        ] {
            assert!(!tally.record(runtime_answer_ok(&bad, &reference)));
        }
        assert_eq!((tally.attempted, tally.failed), (5, 4));
        assert!(!tally.correct());

        let gq = GeneratedQuestion {
            question: Question::new(QuestionId::new(1), "Who?"),
            answer_type: AnswerType::Person,
            expected_answer: "Grace".into(),
            source: ParagraphId::new(DocId::new(1), 0),
            sub_collection: SubCollectionId::new(0),
        };
        assert!(recalled(&reference, &gq));
        assert!(!recalled(&answers(&["Ada"]), &gq));
    }
}
