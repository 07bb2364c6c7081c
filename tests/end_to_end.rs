//! Cross-crate integration: corpus → index → pipeline → answers, and the
//! distributed runtime's equivalence with the sequential system.

use falcon_dqa::corpus::{Corpus, CorpusConfig, QuestionGenerator};
use falcon_dqa::dqa_runtime::{Cluster, ClusterConfig};
use falcon_dqa::ir_engine::{DocumentStore, ParagraphRetriever, RetrievalConfig, ShardedIndex};
use falcon_dqa::nlp::NamedEntityRecognizer;
use falcon_dqa::qa_pipeline::{PipelineConfig, QaPipeline};
use falcon_dqa::scheduler::partition::PartitionStrategy;
use std::sync::Arc;

fn build(seed: u64) -> (Corpus, QaPipeline, ParagraphRetriever) {
    let corpus = Corpus::generate(CorpusConfig::small(seed)).unwrap();
    let index = Arc::new(ShardedIndex::build(
        &corpus.documents,
        corpus.config.sub_collections,
    ));
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    let retriever = ParagraphRetriever::new(index, store, RetrievalConfig::default());
    let pipeline = QaPipeline::new(
        retriever.clone(),
        NamedEntityRecognizer::standard(),
        PipelineConfig::default(),
    );
    (corpus, pipeline, retriever)
}

#[test]
fn sequential_pipeline_accuracy_on_planted_questions() {
    let (corpus, pipeline, _) = build(501);
    let questions = QuestionGenerator::new(&corpus, 1).generate(40);
    let mut ranked = 0;
    let mut top1 = 0;
    for gq in &questions {
        let out = pipeline.answer(&gq.question).unwrap();
        if out
            .answers
            .answers
            .iter()
            .any(|a| a.candidate == gq.expected_answer)
        {
            ranked += 1;
        }
        if out.answers.best().map(|a| a.candidate.as_str()) == Some(gq.expected_answer.as_str()) {
            top1 += 1;
        }
    }
    // Falcon's TREC-9 numbers were 66.4 % top-ranked short answers and
    // 86.1 % long answers; our planted-corpus setting is easier, so demand
    // at least Falcon-class accuracy.
    assert!(ranked >= 30, "planted answer ranked for only {ranked}/40");
    assert!(top1 >= 24, "planted answer top-1 for only {top1}/40");
}

#[test]
fn distributed_and_sequential_agree_answer_for_answer() {
    let (corpus, pipeline, retriever) = build(502);
    let cluster = Cluster::start(
        retriever,
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes: 4,
            ap_partition: PartitionStrategy::Recv { chunk_size: 8 },
            ..ClusterConfig::default()
        },
    );
    let questions = QuestionGenerator::new(&corpus, 2).generate(10);
    for gq in &questions {
        let seq = pipeline.answer(&gq.question).unwrap();
        let dist = cluster.ask(&gq.question).unwrap();
        let seq_c: Vec<&str> = seq
            .answers
            .answers
            .iter()
            .map(|a| a.candidate.as_str())
            .collect();
        let dist_c: Vec<&str> = dist
            .answers
            .answers
            .iter()
            .map(|a| a.candidate.as_str())
            .collect();
        assert_eq!(
            seq_c, dist_c,
            "answer sets diverge for {:?}",
            gq.question.text
        );
    }
    cluster.shutdown();
}

#[test]
fn index_persistence_survives_full_round_trip() {
    use falcon_dqa::ir_engine::{decode_index_v2, encode_index_v2};
    let (corpus, _, retriever) = build(503);
    let bytes = encode_index_v2(retriever.index());
    let restored = Arc::new(decode_index_v2(&bytes).unwrap());
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    let retriever2 = ParagraphRetriever::new(restored, store, RetrievalConfig::default());
    let pipeline2 = QaPipeline::new(
        retriever2,
        NamedEntityRecognizer::standard(),
        PipelineConfig::default(),
    );
    let questions = QuestionGenerator::new(&corpus, 3).generate(5);
    let (_, pipeline, _) = build(503);
    for gq in &questions {
        let a = pipeline.answer(&gq.question).unwrap();
        let b = pipeline2.answer(&gq.question).unwrap();
        assert_eq!(a.answers, b.answers, "restored index changed answers");
    }
}

#[test]
fn short_and_long_answer_windows_respect_trec_limits() {
    let (corpus, _, retriever) = build(504);
    let questions = QuestionGenerator::new(&corpus, 4).generate(10);
    for (cfg, limit) in [
        (PipelineConfig::short_answers(), 50),
        (PipelineConfig::long_answers(), 250),
    ] {
        let pipeline = QaPipeline::new(retriever.clone(), NamedEntityRecognizer::standard(), cfg);
        for gq in &questions {
            let out = pipeline.answer(&gq.question).unwrap();
            for a in &out.answers.answers {
                assert!(
                    a.text.len() <= limit,
                    "{}-byte window produced {} bytes",
                    limit,
                    a.text.len()
                );
            }
        }
    }
}
