//! Shared fixtures for the experiment binaries and the soaks.

use corpus::{Corpus, CorpusConfig, GeneratedQuestion, QuestionGenerator};
use ir_engine::{DocumentStore, ParagraphRetriever, RetrievalConfig, ShardedIndex};
use nlp::NamedEntityRecognizer;
use qa_pipeline::{PipelineConfig, QaPipeline};
use std::sync::Arc;

/// Everything the text-level experiments need: a generated corpus, its
/// index, a sequential pipeline and a question set with ground truth.
pub struct QaFixture {
    /// The synthetic corpus.
    pub corpus: Corpus,
    /// Sharded index over it.
    pub index: Arc<ShardedIndex>,
    /// Document store.
    pub store: Arc<DocumentStore>,
    /// Sequential pipeline.
    pub pipeline: QaPipeline,
    /// Generated questions with ground truth.
    pub questions: Vec<GeneratedQuestion>,
}

impl QaFixture {
    /// A small fixture (fast; unit-test scale).
    pub fn small(seed: u64, questions: usize) -> QaFixture {
        Self::build(CorpusConfig::small(seed), seed, questions)
    }

    /// The TREC-like fixture used by the headline experiment binaries.
    pub fn trec_like(seed: u64, questions: usize) -> QaFixture {
        Self::build(CorpusConfig::trec_like(seed), seed, questions)
    }

    fn build(cfg: CorpusConfig, seed: u64, questions: usize) -> QaFixture {
        let corpus = Corpus::generate(cfg).expect("valid corpus config");
        let index = Arc::new(ShardedIndex::build(
            &corpus.documents,
            corpus.config.sub_collections,
        ));
        let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
        let retriever = ParagraphRetriever::new(
            Arc::clone(&index),
            Arc::clone(&store),
            RetrievalConfig::default(),
        );
        let pipeline = QaPipeline::new(
            retriever,
            NamedEntityRecognizer::standard(),
            PipelineConfig::default(),
        );
        let questions = QuestionGenerator::new(&corpus, seed ^ 0xabcd).generate(questions);
        QaFixture {
            corpus,
            index,
            store,
            pipeline,
            questions,
        }
    }

    /// A fresh retriever sharing this fixture's index and store.
    pub fn retriever(&self) -> ParagraphRetriever {
        ParagraphRetriever::new(
            Arc::clone(&self.index),
            Arc::clone(&self.store),
            RetrievalConfig::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fixture_builds_and_answers() {
        let f = QaFixture::small(3, 4);
        assert_eq!(f.questions.len(), 4);
        let out = f.pipeline.answer(&f.questions[0].question).unwrap();
        assert!(out.paragraphs_retrieved > 0);
    }
}
