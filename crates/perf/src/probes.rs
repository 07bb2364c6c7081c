//! Micro-probes: one timed loop around one public function per layer
//! metric. They run on every traced run, after the workload itself, so a
//! per-layer number exists next to each workload's trace. Each reports the
//! median of several batch means, which shrugs off a burst on the host.

use crate::calib::HostSpeed;
use crate::report::{out_dir, Metrics};
use crate::stats::median;
use crate::text::{Built, Fixture};
use crate::SIZES;
use cluster_sim::{Advance, BalancingStrategy, Engine, QaSimulation, SimConfig, Stage};
use dqa_obs::{
    critical_path, CausalSpan, CauseSet, Clock, Counter, MetricsRegistry, TraceRecorder, WallClock,
};
use dqa_runtime::{AdmissionGate, Cluster, ClusterConfig};
use ir_engine::query::quorum;
use ir_engine::terms::index_terms;
use ir_engine::verify_shard_sampled;
use journal::{Journal, JournalOptions, JournalPhase, JournalRecord};
use loadsim::functions::LoadFunctions;
use nlp::{NamedEntityRecognizer, QuestionProcessor};
use qa_pipeline::QaPipeline;
use qa_types::{NodeId, OverloadPolicy, QaModule, QuestionId, ResourceVector};
use scheduler::meta::meta_schedule;
use scheduler::partition::{partition_isend, partition_recv, partition_send};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median over `BATCHES` batches of the mean nanoseconds one `f()` takes,
/// each batch divided by the factor of the slices around it.
fn ns_per_call(host: &mut HostSpeed, calls_per_batch: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, factor) = host.around(|| {
                let t = Instant::now();
                for _ in 0..calls_per_batch {
                    f();
                }
                t.elapsed().as_nanos() as f64
            });
            ns / factor / calls_per_batch as f64
        })
        .collect();
    median(&batches).unwrap_or(0.0)
}

fn us_per_call(host: &mut HostSpeed, calls_per_batch: usize, f: impl FnMut()) -> f64 {
    ns_per_call(host, calls_per_batch, f) / 1e3
}

/// Probes that need no input beyond the seed: scheduler, loadsim, the
/// admission gate, the journal and the observability primitives.
pub fn standalone(m: &mut Metrics, seed: u64, host: &mut HostSpeed) {
    // scheduler: 512 items over 4 weighted partitions (RECV: chunks of 40).
    let weights = [0.4, 0.3, 0.2, 0.1];
    let items = || (0..512u32).collect::<Vec<_>>();
    m.set(
        "scheduler.partition_us.send",
        us_per_call(host, 2000, || {
            drop(black_box(partition_send(items(), &weights)))
        }),
    );
    m.set(
        "scheduler.partition_us.isend",
        us_per_call(host, 2000, || {
            drop(black_box(partition_isend(items(), &weights)))
        }),
    );
    m.set(
        "scheduler.partition_us.recv",
        us_per_call(host, 2000, || drop(black_box(partition_recv(items(), 40)))),
    );

    let f = LoadFunctions::paper();
    let candidates: Vec<(NodeId, ResourceVector)> = (0..12u32)
        .map(|i| {
            let load = f64::from(i % 5) * 0.2;
            (NodeId::new(i), ResourceVector::new(load, 1.0 - load))
        })
        .collect();
    m.set(
        "scheduler.meta_schedule_us",
        us_per_call(host, 2000, || {
            let _ = black_box(meta_schedule(
                black_box(&candidates),
                |v| f.load_for(QaModule::Ap, v),
                |v| f.is_underloaded(QaModule::Ap, v),
            ));
        }),
    );
    let mut i = 0usize;
    m.set(
        "loadsim.load_fn_ns",
        ns_per_call(host, 200_000, || {
            i = (i + 1) % candidates.len();
            black_box(f.load_for(QaModule::Pr, black_box(candidates[i].1)));
        }),
    );

    // dqa-runtime: one uncontended trip through the admission gate.
    let gate = AdmissionGate::new(&OverloadPolicy {
        max_in_flight: Some(2),
        admission_queue: 2,
        ..OverloadPolicy::default()
    });
    m.set(
        "dqa-runtime.gate_ns",
        ns_per_call(host, 100_000, || {
            black_box(gate.admit(None));
            gate.release();
        }),
    );

    // journal: a partial-result record with a 4 KiB payload, the bulk of
    // what an armoured question appends.
    let record = JournalRecord::PartialResult {
        question: QuestionId::new(1),
        phase: JournalPhase::Pr,
        chunk: 0,
        payload: (0..4096u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect(),
    };
    let dir = out_dir().join(format!("journal-probe-{}", std::process::id()));
    for (metric, fsync_every, calls) in [
        ("journal.append_us", None, 100),
        // Whatever backs the sandbox's disk, not a device's flush latency.
        ("journal.append_fsync_us", Some(1), 20),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = JournalOptions {
            fsync_every,
            ..JournalOptions::default()
        };
        if let Ok((mut j, _)) = Journal::open_with(&dir, opts) {
            let term = j.term();
            m.set(
                metric,
                us_per_call(host, calls, || {
                    let _ = black_box(j.append(term, &record));
                }),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // dqa-obs
    let registry = MetricsRegistry::new();
    let counter = registry.counter("perf_probe_total", &[]);
    m.set(
        "dqa-obs.counter_inc_ns",
        ns_per_call(host, 200_000, || counter.inc()),
    );
    let histogram = registry.histogram("perf_probe_seconds", &[]);
    let mut x = 0.0f64;
    m.set(
        "dqa-obs.histogram_observe_ns",
        ns_per_call(host, 200_000, || {
            x = (x + 0.013) % 2.0;
            histogram.observe(x);
        }),
    );
    for i in 0..48 {
        let module = format!("m{i}");
        registry
            .counter("perf_probe_family_total", &[("module", &module)])
            .inc();
        registry
            .histogram("perf_probe_family_seconds", &[("module", &module)])
            .observe(0.01);
    }
    m.set(
        "dqa-obs.snapshot_us",
        us_per_call(host, 200, || drop(black_box(registry.snapshot()))),
    );
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let recorder = TraceRecorder::new(clock, seed, 65_536, Counter::live());
    let mut q = 0u64;
    m.set(
        "dqa-obs.span_emit_ns",
        ns_per_call(host, 50_000, || {
            q += 1;
            let trace = recorder.trace_id(q % 64);
            recorder.emit(CausalSpan::new(
                trace,
                None,
                "chunk",
                Some(1),
                0.0,
                1.0,
                0.0,
                CauseSet::none(),
            ));
        }),
    );
    let tree = question_tree(seed);
    m.set(
        "dqa-obs.critical_path_us",
        us_per_call(host, 2000, || {
            drop(black_box(critical_path(black_box(&tree))))
        }),
    );
}

/// A question-shaped span tree: root, QP, PR with 8 shard chunks, PO, AP
/// with 4 chunks, merge.
fn question_tree(seed: u64) -> Vec<CausalSpan> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let rec = TraceRecorder::new(clock, seed, 256, Counter::live());
    let trace = rec.trace_id(1);
    let span = |parent, name: &str, node, start: f64, end: f64| {
        rec.emit(CausalSpan::new(
            trace,
            parent,
            name,
            node,
            start,
            end,
            0.0,
            CauseSet::none(),
        ))
    };
    let root = span(None, "question", None, 0.0, 10.0);
    span(Some(root), "QP", Some(0), 0.0, 0.5);
    let pr = span(Some(root), "PR", None, 0.5, 5.0);
    for i in 0..8u32 {
        span(
            Some(pr),
            "chunk",
            Some(i % 4),
            0.5,
            1.0 + f64::from(i) * 0.5,
        );
    }
    span(Some(root), "PO", Some(0), 5.0, 5.2);
    let ap = span(Some(root), "AP", None, 5.2, 9.5);
    for i in 0..4u32 {
        span(Some(ap), "chunk", Some(i), 5.2, 6.0 + f64::from(i));
    }
    span(Some(root), "merge", Some(0), 9.5, 10.0);
    rec.spans()
}

/// Probes of the simulator: the engine's per-event cost at two task
/// counts, the price of an enabled metrics registry, and trace volume.
pub fn sim(m: &mut Metrics, seed: u64, host: &mut HostSpeed) {
    for (metric, tasks) in [
        ("cluster-sim.engine_advance_ns.t64", 64u32),
        ("cluster-sim.engine_advance_ns.t4096", 4096),
    ] {
        let nodes = SIZES.sim_paper_nodes as u32;
        let mut engine: Engine<u32> = Engine::new(nodes as usize, 12.5e6);
        for i in 0..tasks {
            let node = NodeId::new(i % nodes);
            // Distinct demands, so completions do not coincide.
            let scale = 1.0 + f64::from(i) * 1e-3;
            engine.spawn(
                vec![
                    Stage::disk(node, 0.8 * scale),
                    Stage::cpu(node, 0.5 * scale),
                    Stage::net(2048.0 * scale),
                ],
                i,
            );
        }
        let ((ns, calls), factor) = host.around(|| {
            let t = Instant::now();
            let mut calls = 0u64;
            loop {
                calls += 1;
                if matches!(engine.advance(None), Advance::Idle) {
                    break;
                }
            }
            (t.elapsed().as_nanos() as f64, calls)
        });
        m.set(metric, ns / factor / calls as f64);
    }

    let cfg = |registry: MetricsRegistry| SimConfig {
        metrics: Some(registry),
        ..SimConfig::paper_high_load(SIZES.sim_paper_nodes, BalancingStrategy::Dqa, seed)
    };
    let run_s = |registry: MetricsRegistry| {
        let sim = QaSimulation::new(cfg(registry));
        let t = Instant::now();
        black_box(sim.run());
        t.elapsed().as_secs_f64()
    };
    // Interleaved, so both sides see the same host conditions.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        off.push(run_s(MetricsRegistry::disabled()));
        on.push(run_s(MetricsRegistry::new()));
    }
    if let (Some(off), Some(on)) = (median(&off), median(&on)) {
        m.set("cluster-sim.metrics_overhead_share", 1.0 - off / on);
    }

    let traced = QaSimulation::new(SimConfig {
        record_trace: true,
        ..SimConfig::paper_high_load(SIZES.sim_paper_nodes, BalancingStrategy::Dqa, seed)
    })
    .run();
    m.set(
        "cluster-sim.trace_events_per_q",
        traced.trace.len() as f64 / traced.questions.len() as f64,
    );
}

/// Probes over the text fixture: tokenising, Boolean evaluation, sampled
/// verification, QP and NER, and the index sizes.
pub fn text(
    m: &mut Metrics,
    fx: &Fixture,
    built: &Built,
    pipeline: &QaPipeline,
    host: &mut HostSpeed,
) {
    let index = built.retriever.index();

    let paragraphs: Vec<&str> = fx
        .documents
        .iter()
        .flat_map(|d| d.paragraphs.iter().map(String::as_str))
        .take(2000)
        .collect();
    let kb = paragraphs.iter().map(|p| p.len()).sum::<usize>() as f64 / 1024.0;
    let pass_us = us_per_call(host, 1, || {
        for p in &paragraphs {
            black_box(index_terms(p));
        }
    });
    m.set("ir-engine.terms_us_per_kb", pass_us / kb);
    let ner = NamedEntityRecognizer::standard();
    let pass_us = us_per_call(host, 1, || {
        for p in &paragraphs {
            black_box(ner.recognize(p));
        }
    });
    m.set(
        "nlp.ner_us_per_paragraph",
        pass_us / paragraphs.len() as f64,
    );

    let qp = QuestionProcessor::new();
    let sample = &fx.questions[..fx.questions.len().min(32)];
    let pass_us = us_per_call(host, 20, || {
        for gq in sample {
            let _ = black_box(qp.process(&gq.question));
        }
    });
    m.set("nlp.qp_us", pass_us / sample.len() as f64);

    // quorum at k = all terms, and at the k where PR's relaxation stopped.
    let (mut strict, mut relaxed) = (Vec::new(), Vec::new());
    for gq in sample {
        let Ok(processed) = pipeline.process_question(&gq.question) else {
            continue;
        };
        let terms: Vec<String> = processed.keywords.iter().map(|k| k.term.clone()).collect();
        let ((strict_us, relaxed_us), factor) = host.around(|| {
            let (mut strict_us, mut relaxed_us) = (Vec::new(), Vec::new());
            for shard in index.shards() {
                let Ok(result) = built.retriever.retrieve(&processed.keywords, shard.id) else {
                    continue;
                };
                let t = Instant::now();
                black_box(quorum(shard, &terms, terms.len()));
                strict_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                let t = Instant::now();
                black_box(quorum(shard, &terms, result.quorum_used.max(1)));
                relaxed_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            (strict_us, relaxed_us)
        });
        strict.extend(strict_us.into_iter().map(|us| us / factor));
        relaxed.extend(relaxed_us.into_iter().map(|us| us / factor));
    }
    m.set("ir-engine.quorum_us.strict", median(&strict).unwrap_or(0.0));
    m.set(
        "ir-engine.quorum_us.relaxed",
        median(&relaxed).unwrap_or(0.0),
    );

    // The long-postings case: the four most frequent terms of the vocabulary.
    let mut doc_freq: BTreeMap<&str, usize> = BTreeMap::new();
    for shard in index.shards() {
        for (term, postings) in shard.terms_iter() {
            *doc_freq.entry(term).or_default() += postings.len();
        }
    }
    let mut by_freq: Vec<(&str, usize)> = doc_freq.into_iter().collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let common: Vec<String> = by_freq
        .iter()
        .take(4)
        .map(|(t, _)| (*t).to_string())
        .collect();
    let shards: Vec<_> = index.shards().collect();
    let mut s = 0usize;
    m.set(
        "ir-engine.quorum_us.common",
        us_per_call(host, shards.len() * 4, || {
            s = (s + 1) % shards.len();
            black_box(quorum(shards[s], &common, 2));
        }),
    );

    let mut draw = 0u64;
    m.set(
        "ir-engine.verify_sampled_us",
        us_per_call(host, shards.len() * 50, || {
            draw += 1;
            let sub = shards[draw as usize % shards.len()].id.raw();
            let _ = black_box(verify_shard_sampled(&built.segment, sub, draw, 4));
        }),
    );

    let postings_bytes: usize = index.shards().map(|s| s.compressed_bytes()).sum();
    m.set("ir-engine.segment_bytes", built.segment.len() as f64);
    m.set("ir-engine.postings_bytes", postings_bytes as f64);
    m.set(
        "ir-engine.segment_bytes_per_text_byte",
        built.segment.len() as f64 / fx.text_bytes as f64,
    );
}

/// `Cluster::submit` on one node with one client, next to
/// `QaPipeline::answer` for the same questions: the difference is the
/// bounded-channel hop, dispatch and merge with no second node involved.
pub fn runtime_one_node(m: &mut Metrics, fx: &Fixture, built: &Built, pipeline: &QaPipeline) {
    let cluster = Cluster::start(
        built.retriever.clone(),
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes: 1,
            workers_per_node: 1,
            metrics: Some(MetricsRegistry::disabled()),
            ..ClusterConfig::default()
        },
    );
    // The hop is a small difference of two large times, so it is taken per
    // question, back to back, and the median of the differences reported.
    // Raw times, like everything measured beside a running cluster.
    let (mut ask, mut hop) = (Vec::new(), Vec::new());
    for gq in fx.questions.iter().take(64) {
        let t = Instant::now();
        let _ = black_box(cluster.submit(&gq.question));
        let ask_us = t.elapsed().as_nanos() as f64 / 1e3;
        let t = Instant::now();
        let _ = black_box(pipeline.answer(&gq.question));
        let seq_us = t.elapsed().as_nanos() as f64 / 1e3;
        ask.push(ask_us);
        hop.push(ask_us - seq_us);
    }
    cluster.shutdown();
    m.set("dqa-runtime.ask_1node_us", median(&ask).unwrap_or(0.0));
    m.set("dqa-runtime.hop_overhead_us", median(&hop).unwrap_or(0.0));
}
