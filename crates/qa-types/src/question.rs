//! Questions, answer types and keywords.
//!
//! The Question Processing (QP) module of the paper classifies every natural
//! language question into an expected *answer type* (the lexico-semantic
//! category an answer entity must belong to) and extracts the keywords used
//! for document retrieval. [`Question`] is the raw input; [`ProcessedQuestion`]
//! is QP's output consumed by the rest of the pipeline.

use crate::ids::QuestionId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Lexico-semantic category an answer entity is expected to belong to.
///
/// The paper's examples (Table 1) cover DISEASE, LOCATION and NATIONALITY;
/// TREC-8/9 factual questions additionally exercise the categories below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AnswerType {
    /// A person name ("Who…").
    Person,
    /// A geographic location ("Where…").
    Location,
    /// An organization or company.
    Organization,
    /// A calendar date or year ("When…").
    Date,
    /// A count or measurement ("How many…", "How far…").
    Quantity,
    /// A monetary amount ("How much does … cost").
    Money,
    /// A nationality ("What is the nationality of…").
    Nationality,
    /// A disease or medical condition.
    Disease,
    /// A generic definition/phrase answer ("What is a…").
    Definition,
    /// QP could not determine the category; AP falls back to proximity only.
    Unknown,
}

impl fmt::Display for AnswerType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AnswerType::Person => "PERSON",
            AnswerType::Location => "LOCATION",
            AnswerType::Organization => "ORGANIZATION",
            AnswerType::Date => "DATE",
            AnswerType::Quantity => "QUANTITY",
            AnswerType::Money => "MONEY",
            AnswerType::Nationality => "NATIONALITY",
            AnswerType::Disease => "DISEASE",
            AnswerType::Definition => "DEFINITION",
            AnswerType::Unknown => "UNKNOWN",
        };
        f.write_str(s)
    }
}

/// A retrieval keyword extracted from the question by the QP module.
#[derive(Debug, Clone, PartialEq)]
pub struct Keyword {
    /// Normalized (lower-cased, stemmed) surface form.
    pub term: String,
    /// Relative importance assigned by QP; higher keywords are dropped last
    /// when the Boolean query must be relaxed.
    pub weight: f32,
}

impl Keyword {
    /// Construct a keyword with the given normalized term and weight.
    pub fn new(term: impl Into<String>, weight: f32) -> Self {
        Self {
            term: term.into(),
            weight,
        }
    }
}

/// A natural-language question submitted to the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Unique id (TREC numbering in the paper's examples, e.g. Q226).
    pub id: QuestionId,
    /// The raw question text.
    pub text: String,
}

impl Question {
    /// Construct a question.
    pub fn new(id: QuestionId, text: impl Into<String>) -> Self {
        Self {
            id,
            text: text.into(),
        }
    }
}

/// Output of the Question Processing module: answer type plus keywords.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessedQuestion {
    /// The originating question.
    pub question: Question,
    /// Expected answer category.
    pub answer_type: AnswerType,
    /// Retrieval keywords ordered by decreasing weight.
    pub keywords: Vec<Keyword>,
}

impl ProcessedQuestion {
    /// Keywords as plain terms, in weight order.
    pub fn keyword_terms(&self) -> impl Iterator<Item = &str> {
        self.keywords.iter().map(|k| k.term.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_type_display_matches_paper_examples() {
        assert_eq!(AnswerType::Disease.to_string(), "DISEASE");
        assert_eq!(AnswerType::Location.to_string(), "LOCATION");
        assert_eq!(AnswerType::Nationality.to_string(), "NATIONALITY");
    }

    #[test]
    fn processed_question_keyword_accessors() {
        let q = ProcessedQuestion {
            question: Question::new(QuestionId::new(1), "who?"),
            answer_type: AnswerType::Person,
            keywords: vec![Keyword::new("taj", 2.0), Keyword::new("mahal", 1.0)],
        };
        let terms: Vec<_> = q.keyword_terms().collect();
        assert_eq!(terms, ["taj", "mahal"]);
    }
}
