//! The end-to-end sequential pipeline with per-module timing.

use crate::answer::{extract_answers, ApItem};
use crate::config::PipelineConfig;
use crate::ordering::order_paragraphs;
use crate::scoring::score_paragraphs;
use ir_engine::{ParagraphRetriever, RetrievalResult};
use nlp::{NamedEntityRecognizer, QuestionProcessor};
use qa_types::{ModuleTimings, ProcessedQuestion, QaError, QaModule, Question, RankedAnswers};
use std::time::Instant;

/// Everything the pipeline produces for one question.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// QP output (answer type + keywords).
    pub processed: ProcessedQuestion,
    /// Ranked answers.
    pub answers: RankedAnswers,
    /// Wall-clock time per module (Tables 2 and 8 rows).
    pub timings: ModuleTimings,
    /// Number of paragraphs retrieved by PR (`N_p`).
    pub paragraphs_retrieved: usize,
    /// Number of paragraphs accepted by PO (`N_pa`).
    pub paragraphs_accepted: usize,
    /// Simulated disk bytes touched by PR.
    pub pr_io_bytes: u64,
}

/// The sequential Falcon pipeline.
#[derive(Debug, Clone)]
pub struct QaPipeline {
    qp: QuestionProcessor,
    retriever: ParagraphRetriever,
    ner: NamedEntityRecognizer,
    config: PipelineConfig,
}

impl QaPipeline {
    /// Assemble a pipeline from its substrates.
    pub fn new(
        retriever: ParagraphRetriever,
        ner: NamedEntityRecognizer,
        config: PipelineConfig,
    ) -> Self {
        Self {
            qp: QuestionProcessor::new(),
            retriever,
            ner,
            config,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The paragraph retriever (shared with distributed PR partitions).
    pub fn retriever(&self) -> &ParagraphRetriever {
        &self.retriever
    }

    /// The entity recognizer (shared with distributed AP partitions).
    pub fn ner(&self) -> &NamedEntityRecognizer {
        &self.ner
    }

    /// Run QP alone.
    pub fn process_question(&self, question: &Question) -> Result<ProcessedQuestion, QaError> {
        self.qp.process(question)
    }

    /// Answer a question, timing each module.
    pub fn answer(&self, question: &Question) -> Result<PipelineOutput, QaError> {
        // QP.
        let t = Instant::now();
        let processed = self.qp.process(question)?;
        let mut timings = ModuleTimings::default();
        timings.add_duration(QaModule::Qp, t.elapsed());

        // PR over all sub-collections.
        let t = Instant::now();
        let retrieval: RetrievalResult = self.retriever.retrieve_all(&processed.keywords);
        timings.add_duration(QaModule::Pr, t.elapsed());
        let paragraphs_retrieved = retrieval.paragraphs.len();
        let pr_io_bytes = retrieval.io_bytes;

        // PS.
        let t = Instant::now();
        let scored = score_paragraphs(retrieval.paragraphs, &processed.keywords);
        timings.add_duration(QaModule::Ps, t.elapsed());

        // PO.
        let t = Instant::now();
        let accepted = order_paragraphs(scored, self.config.po_threshold, self.config.max_accepted);
        timings.add_duration(QaModule::Po, t.elapsed());
        let paragraphs_accepted = accepted.len();

        // AP.
        let t = Instant::now();
        let items: Vec<ApItem> = accepted
            .into_iter()
            .map(|s| ApItem {
                paragraph: s.paragraph,
                rank: s.score,
            })
            .collect();
        let answers = extract_answers(&items, &processed, &self.ner, &self.config);
        timings.add_duration(QaModule::Ap, t.elapsed());

        Ok(PipelineOutput {
            processed,
            answers,
            timings,
            paragraphs_retrieved,
            paragraphs_accepted,
            pr_io_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{Corpus, CorpusConfig, QuestionGenerator};
    use ir_engine::{DocumentStore, RetrievalConfig, ShardedIndex};
    use std::sync::Arc;

    fn pipeline(seed: u64) -> (Corpus, QaPipeline) {
        let c = Corpus::generate(CorpusConfig::small(seed)).unwrap();
        let index = Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = Arc::new(DocumentStore::new(c.documents.clone()));
        let retriever = ParagraphRetriever::new(index, store, RetrievalConfig::default());
        let qa = QaPipeline::new(
            retriever,
            NamedEntityRecognizer::standard(),
            PipelineConfig::default(),
        );
        (c, qa)
    }

    #[test]
    fn answers_planted_questions_end_to_end() {
        let (c, qa) = pipeline(77);
        let qs = QuestionGenerator::new(&c, 1).generate(30);
        let mut correct = 0;
        let mut answered = 0;
        for gq in &qs {
            let out = qa.answer(&gq.question).unwrap();
            if !out.answers.is_empty() {
                answered += 1;
            }
            if out
                .answers
                .answers
                .iter()
                .any(|a| a.candidate == gq.expected_answer)
            {
                correct += 1;
            }
        }
        assert!(answered >= 25, "answered {answered}/30");
        // The planted answer must rank among the returned answers for a
        // clear majority of questions (Falcon hit 66–86 % on real TREC).
        assert!(correct >= 20, "correct {correct}/30");
    }

    #[test]
    fn timings_populate_every_stage() {
        let (c, qa) = pipeline(78);
        let qs = QuestionGenerator::new(&c, 2).generate(1);
        let out = qa.answer(&qs[0].question).unwrap();
        // Times are tiny but non-negative; totals consistent.
        assert!(out.timings.total() >= out.timings.ap);
        assert!(out.timings.qp >= 0.0 && out.timings.pr >= 0.0);
        assert!(out.paragraphs_retrieved >= out.paragraphs_accepted);
        assert!(out.pr_io_bytes > 0);
    }

    #[test]
    fn unanswerable_question_yields_empty_not_error() {
        let (_, qa) = pipeline(79);
        let q = Question::new(
            qa_types::QuestionId::new(9999),
            "Where is the zzznope qqqnothing?",
        );
        let out = qa.answer(&q).unwrap();
        assert!(out.answers.is_empty());
    }

    #[test]
    fn stopword_only_question_errors() {
        let (_, qa) = pipeline(80);
        let q = Question::new(qa_types::QuestionId::new(9998), "Who is he?");
        assert!(qa.answer(&q).is_err());
    }

    #[test]
    fn deterministic_output() {
        let (c, qa) = pipeline(81);
        let qs = QuestionGenerator::new(&c, 3).generate(5);
        for gq in &qs {
            let a = qa.answer(&gq.question).unwrap();
            let b = qa.answer(&gq.question).unwrap();
            assert_eq!(a.answers, b.answers);
        }
    }
}
