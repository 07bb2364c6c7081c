//! Factual question generation from planted entities.
//!
//! Each generated question carries ground truth (the planted entity and its
//! source paragraph), so end-to-end pipeline tests can check not just timing
//! but correctness: the expected answer must surface among the ranked
//! answers.

use crate::generator::{Corpus, PlantedEntity};
use qa_types::rng::Rng;
use qa_types::{AnswerType, ParagraphId, Question, QuestionId, SubCollectionId};

/// A question plus its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedQuestion {
    /// The natural-language question.
    pub question: Question,
    /// Expected answer category (what QP should classify).
    pub answer_type: AnswerType,
    /// The planted answer entity.
    pub expected_answer: String,
    /// Paragraph that contains the answer.
    pub source: ParagraphId,
    /// Sub-collection of the source paragraph.
    pub sub_collection: SubCollectionId,
}

/// Generates questions from a corpus's planted entities.
#[derive(Debug)]
pub struct QuestionGenerator<'a> {
    corpus: &'a Corpus,
    rng: Rng,
    next_id: u32,
}

impl<'a> QuestionGenerator<'a> {
    /// Create a generator; `seed` controls which plants are chosen.
    pub fn new(corpus: &'a Corpus, seed: u64) -> Self {
        Self {
            corpus,
            rng: Rng::new(seed ^ 0x51ed_270b),
            next_id: 1,
        }
    }

    /// Generate `n` questions (fewer if the corpus has fewer usable plants).
    pub fn generate(&mut self, n: usize) -> Vec<GeneratedQuestion> {
        let plants = &self.corpus.plants;
        if plants.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0usize;
        while out.len() < n && attempts < n * 20 {
            attempts += 1;
            let plant = &plants[self.rng.below(plants.len())];
            if let Some(q) = self.question_for(plant) {
                out.push(q);
            }
        }
        out
    }

    /// Build the question for one specific plant.
    pub fn question_for(&mut self, plant: &PlantedEntity) -> Option<GeneratedQuestion> {
        let [w1, w2, w3] = match plant.context_terms.as_slice() {
            [a, b, c, ..] => [a.clone(), b.clone(), c.clone()],
            _ => return None,
        };
        let text = match plant.entity_type {
            AnswerType::Person => format!("Who visited the {w1} {w2} near the {w3}?"),
            AnswerType::Location => format!("Where was the {w1} {w2} beside the {w3}?"),
            AnswerType::Organization => {
                format!("What organization worked on the {w1} {w2} near the {w3}?")
            }
            AnswerType::Date => format!("When was the {w1} {w2} handled by the {w3} council?"),
            AnswerType::Quantity => {
                format!("How far does the {w1} {w2} span across the {w3} region?")
            }
            AnswerType::Money => format!("How much did the {w1} {w2} cost in the {w3} ledger?"),
            AnswerType::Nationality => {
                format!("What is the nationality of those behind the {w1}, the {w2} and the {w3}?")
            }
            AnswerType::Disease => {
                format!("What disease struck during the {w1} {w2} outbreak near the {w3}?")
            }
            AnswerType::Definition | AnswerType::Unknown => return None,
        };
        let id = QuestionId::new(self.next_id);
        self.next_id += 1;
        Some(GeneratedQuestion {
            question: Question::new(id, text),
            answer_type: plant.entity_type,
            expected_answer: plant.entity.clone(),
            source: plant.paragraph,
            sub_collection: plant.sub_collection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;
    use nlp::QuestionProcessor;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::small(21)).unwrap()
    }

    #[test]
    fn generates_requested_count() {
        let c = corpus();
        let qs = QuestionGenerator::new(&c, 1).generate(25);
        assert_eq!(qs.len(), 25);
        // Sequential unique ids.
        let mut ids: Vec<u32> = qs.iter().map(|q| q.question.id.raw()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 25);
    }

    #[test]
    fn question_ids_are_unique_and_sequential() {
        let c = corpus();
        let qs = QuestionGenerator::new(&c, 2).generate(10);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.question.id.raw(), (i + 1) as u32);
        }
    }

    #[test]
    fn qp_classifies_generated_questions_correctly() {
        let c = corpus();
        let qs = QuestionGenerator::new(&c, 3).generate(60);
        let qp = QuestionProcessor::new();
        let mut correct = 0;
        for gq in &qs {
            let p = qp.process(&gq.question).expect("keywords extracted");
            if p.answer_type == gq.answer_type {
                correct += 1;
            }
        }
        // Every template is built to hit its classification rule.
        assert_eq!(correct, qs.len());
    }

    #[test]
    fn question_keywords_overlap_source_paragraph() {
        let c = corpus();
        let qs = QuestionGenerator::new(&c, 4).generate(30);
        let qp = QuestionProcessor::new();
        for gq in &qs {
            let p = qp.process(&gq.question).unwrap();
            let text = c.paragraph_text(gq.source).unwrap().to_lowercase();
            let hits = p
                .keywords
                .iter()
                .filter(|k| text.contains(k.term.trim_end_matches(|c: char| !c.is_alphanumeric())))
                .count();
            assert!(
                hits >= 2,
                "question {:?} shares too few keywords with its source",
                gq.question.text
            );
        }
    }

    #[test]
    fn ground_truth_paragraph_contains_answer() {
        let c = corpus();
        let qs = QuestionGenerator::new(&c, 5).generate(40);
        for gq in &qs {
            let text = c.paragraph_text(gq.source).unwrap();
            assert!(text.contains(&gq.expected_answer));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = corpus();
        let a = QuestionGenerator::new(&c, 9).generate(15);
        let b = QuestionGenerator::new(&c, 9).generate(15);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_plants_yield_no_questions() {
        let mut c = corpus();
        c.plants.clear();
        let qs = QuestionGenerator::new(&c, 0).generate(5);
        assert!(qs.is_empty());
    }
}
