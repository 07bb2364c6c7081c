//! Whole-system determinism: every layer must be a pure function of its
//! seed/config, which is what makes the experiment tables reproducible
//! line for line.

use falcon_dqa::cluster_sim::workload::{BalancingStrategy, QaSimulation, SimConfig};
use falcon_dqa::corpus::{trec, Corpus, CorpusConfig, QuestionGenerator};
use falcon_dqa::faults::FaultSchedule;
use falcon_dqa::ir_engine::{encode_index_v2, ShardedIndex};
use falcon_dqa::nlp::NamedEntityRecognizer;
use falcon_dqa::qa_pipeline::{PipelineConfig, QaPipeline};
use falcon_dqa::qa_types::rng::splitmix64;
use falcon_dqa::qa_types::NodeId;
use falcon_dqa::scheduler::partition::PartitionStrategy;

#[test]
fn corpus_index_and_question_bytes_are_stable() {
    let build = || {
        let c = Corpus::generate(CorpusConfig::small(404)).unwrap();
        let idx = ShardedIndex::build(&c.documents, c.config.sub_collections);
        let questions = QuestionGenerator::new(&c, 7).generate(10);
        (
            serde_json::to_string(&c.snapshot()).unwrap(),
            encode_index_v2(&idx),
            trec::write_topics(&questions),
            trec::write_answer_key(&questions),
        )
    };
    let a = build();
    let b = build();
    assert_eq!(a.0, b.0, "corpus snapshot bytes differ");
    assert_eq!(a.1, b.1, "index bytes differ");
    assert_eq!(a.2, b.2, "topic file differs");
    assert_eq!(a.3, b.3, "answer key differs");
}

#[test]
fn pipeline_answers_are_stable_across_runs() {
    let run = || {
        let c = Corpus::generate(CorpusConfig::small(405)).unwrap();
        let idx = std::sync::Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = std::sync::Arc::new(falcon_dqa::ir_engine::DocumentStore::new(
            c.documents.clone(),
        ));
        let qa = QaPipeline::new(
            falcon_dqa::ir_engine::ParagraphRetriever::new(
                idx,
                store,
                falcon_dqa::ir_engine::RetrievalConfig::default(),
            ),
            NamedEntityRecognizer::standard(),
            PipelineConfig::default(),
        );
        QuestionGenerator::new(&c, 3)
            .generate(8)
            .iter()
            .map(|gq| {
                qa.answer(&gq.question)
                    .unwrap()
                    .answers
                    .answers
                    .iter()
                    .map(|a| (a.candidate.clone(), a.score))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn simulator_reports_are_bit_stable() {
    let run = |strategy| QaSimulation::new(SimConfig::paper_high_load(6, strategy, 2026)).run();
    for strategy in [
        BalancingStrategy::Dns,
        BalancingStrategy::Inter,
        BalancingStrategy::Dqa,
        BalancingStrategy::SenderDiffusion,
        BalancingStrategy::Gradient,
    ] {
        let a = run(strategy);
        let b = run(strategy);
        assert_eq!(a, b, "{strategy:?} not deterministic");
    }
}

#[test]
fn simulator_traces_are_stable_including_failures() {
    let run = || {
        let cfg = SimConfig {
            record_trace: true,
            faults: FaultSchedule::none().crash(NodeId::new(1), 40.0),
            ..SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 3, 2027)
        };
        QaSimulation::new(cfg).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.questions, b.questions);
}

/// splitmix64 fold behind the two committed digests below. They pin the
/// seeded streams themselves, not just run-to-run equality: a sampler in
/// `qa_types::rng` that drifts moves one of them, and that module's
/// known-answer tests name the sampler.
fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

fn fold_str(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(fold(h, s.len() as u64), |h, b| fold(h, u64::from(b)))
}

#[test]
fn corpus_stream_is_pinned() {
    let c = Corpus::generate(CorpusConfig::small(66)).unwrap();
    let mut h = 0;
    for d in &c.documents {
        h = fold(h, u64::from(d.id.raw()));
        h = fold(h, u64::from(d.sub_collection.raw()));
        h = fold_str(h, &d.title);
        h = d.paragraphs.iter().fold(h, |h, p| fold_str(h, p));
    }
    for p in &c.plants {
        h = fold_str(h, &p.entity);
        h = p.context_terms.iter().fold(h, |h, t| fold_str(h, t));
    }
    assert_eq!(h, 0x6127_7bb1_9d83_989c, "corpus digest {h:#018x}");
}

#[test]
fn simulator_stream_is_pinned() {
    let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 7)).run();
    let mut h = 0;
    for q in &r.questions {
        h = fold(h, q.arrival.to_bits());
        h = fold(h, q.finished.to_bits());
        h = fold(h, u64::from(q.home.raw()));
        h = fold(h, q.pr_nodes as u64);
        h = fold(h, q.ap_nodes as u64);
    }
    h = fold(h, r.makespan.to_bits());
    for m in [r.migrations.qa, r.migrations.pr, r.migrations.ap] {
        h = fold(h, m as u64);
    }
    assert_eq!(h, 0xcf76_14ad_fdce_2a15, "simulator digest {h:#018x}");
}

/// What PR returns and what the pipeline answers, pinned across commits
/// (`pipeline_answers_are_stable_across_runs` only compares a run with
/// itself). The constant was captured before `ir-engine` moved to
/// text-unit postings and must never be edited with a change to retrieval.
#[test]
fn retrieval_and_answers_are_pinned() {
    use falcon_dqa::ir_engine::{DocumentStore, ParagraphRetriever, RetrievalConfig};
    let c = Corpus::generate(CorpusConfig::small(405)).unwrap();
    let retriever = ParagraphRetriever::new(
        std::sync::Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections)),
        std::sync::Arc::new(DocumentStore::new(c.documents.clone())),
        RetrievalConfig::default(),
    );
    let qa = QaPipeline::new(
        retriever.clone(),
        NamedEntityRecognizer::standard(),
        PipelineConfig::default(),
    );
    let questions = QuestionGenerator::new(&c, 3).generate(24);
    assert!(questions.len() >= 16, "{} questions", questions.len());
    let pid = |h: u64, p: falcon_dqa::qa_types::ParagraphId| {
        fold(fold(h, u64::from(p.doc.raw())), u64::from(p.ordinal))
    };
    let mut h = 0;
    let mut paragraphs = 0;
    for gq in &questions {
        let keywords = qa.process_question(&gq.question).unwrap().keywords;
        let pr = retriever.retrieve_all(&keywords);
        paragraphs += pr.paragraphs.len();
        for p in &pr.paragraphs {
            h = fold_str(pid(h, p.id), &p.text);
        }
        h = fold(h, pr.docs_matched as u64);
        h = fold(h, pr.quorum_used as u64);
        for a in &qa.answer(&gq.question).unwrap().answers.answers {
            h = fold_str(h, &a.candidate);
            h = fold(pid(h, a.paragraph), a.score.to_bits());
        }
    }
    assert!(paragraphs > 100, "only {paragraphs} paragraphs retrieved");
    assert_eq!(h, 0x8848_22be_d3dd_617b, "retrieval digest {h:#018x}");
}

/// The bytes the journal stores for one question, pinned across commits:
/// a PR partial *by reference* (`ScoredParagraph::encode_refs`: document,
/// ordinal and score bits per paragraph) and the final `RankedAnswers` by
/// value (`RankedAnswers::encode`), each folded to a digest — a reordered
/// field or a widened integer in either codec moves one of them. Both
/// decode back to the value they were taken from, the PR text
/// re-materialised from the store the paragraphs were retrieved over.
#[test]
fn journaled_payload_bytes_are_pinned() {
    use falcon_dqa::ir_engine::{DocumentStore, ParagraphRetriever, RetrievalConfig};
    use falcon_dqa::qa_pipeline::{score_paragraphs, ScoredParagraph};
    use falcon_dqa::qa_types::RankedAnswers;
    let c = Corpus::generate(CorpusConfig::small(405)).unwrap();
    let retriever = ParagraphRetriever::new(
        std::sync::Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections)),
        std::sync::Arc::new(DocumentStore::new(c.documents.clone())),
        RetrievalConfig::default(),
    );
    let qa = QaPipeline::new(
        retriever.clone(),
        NamedEntityRecognizer::standard(),
        PipelineConfig::default(),
    );
    let question = &QuestionGenerator::new(&c, 3).generate(1)[0].question;
    let keywords = qa.process_question(question).unwrap().keywords;
    let partial = score_paragraphs(retriever.retrieve_all(&keywords).paragraphs, &keywords);
    let answers = qa.answer(question).unwrap().answers;
    assert!(partial.len() > 1 && !answers.is_empty());

    let (refs, by_value) = (ScoredParagraph::encode_refs(&partial), answers.encode());
    assert_eq!(refs.len(), 4 + 16 * partial.len(), "16 bytes a paragraph");
    assert_eq!(
        ScoredParagraph::decode_refs(&refs, retriever.store()).unwrap(),
        partial
    );
    assert_eq!(RankedAnswers::decode(&by_value).unwrap(), answers);

    let digest = |bytes: &[u8]| bytes.iter().fold(0, |h, b| fold(h, u64::from(*b)));
    let (refs, by_value) = (digest(&refs), digest(&by_value));
    assert_eq!(
        (refs, by_value),
        (0x1f7e_7595_990d_0cce, 0x6f13_b2d3_fd72_2a0a),
        "refs {refs:#018x}, answers {by_value:#018x}"
    );
}
