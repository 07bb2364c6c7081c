//! Answers and answer windows.
//!
//! The Answer Processing module identifies *candidate answers* (entities of
//! the expected answer type) inside paragraphs, builds an *answer window*
//! around each candidate — a text span containing the candidate plus question
//! keywords — scores windows with seven heuristics and returns the best `N_a`.

use crate::ids::ParagraphId;
use serde::{Deserialize, Serialize};

/// The answer-window length limits used by TREC (Table 1 of the paper).
pub const SHORT_ANSWER_BYTES: usize = 50;
/// Long-answer window limit.
pub const LONG_ANSWER_BYTES: usize = 250;

/// A final answer returned to the user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// Paragraph that supplied the answer.
    pub paragraph: ParagraphId,
    /// The extracted answer entity.
    pub candidate: String,
    /// Supporting text span (truncated to the requested answer length).
    pub text: String,
    /// Final score; answers are returned in decreasing score order.
    pub score: f64,
}

impl Answer {
    /// Total order used when deduplicating the same candidate found in
    /// several paragraphs: higher score wins; ties go to the lower
    /// paragraph id. Order-independent, so sequential and partitioned AP
    /// agree exactly.
    pub fn better(a: &Answer, b: &Answer) -> bool {
        match a.score.partial_cmp(&b.score) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Less) => false,
            _ => a.paragraph < b.paragraph,
        }
    }
}

/// An ordered set of answers for one question.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankedAnswers {
    /// Answers in decreasing score order.
    pub answers: Vec<Answer>,
}

impl RankedAnswers {
    /// Build from an unordered set, keeping the best `keep` answers.
    ///
    /// Sorting is stable on (score desc, paragraph id) so results are
    /// deterministic regardless of the order sub-task results arrive in —
    /// the property the paper's centralized *answer sorting* module exists
    /// to guarantee.
    pub fn from_unsorted(mut answers: Vec<Answer>, keep: usize) -> Self {
        answers.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.paragraph.cmp(&b.paragraph))
                .then_with(|| a.candidate.cmp(&b.candidate))
        });
        answers.truncate(keep);
        Self { answers }
    }

    /// Merge several locally-ranked answer sets into a global ranking.
    ///
    /// This is the paper's *answer merging + answer sorting* stage: each AP
    /// partition returns its local best `keep` answers and the global best
    /// `keep` are selected centrally. Duplicate candidates (the same entity
    /// found by two partitions) are deduplicated with the same rule AP uses
    /// locally, so a partitioned run returns exactly the answers a
    /// sequential run would.
    ///
    /// # Examples
    /// ```
    /// use qa_types::{Answer, DocId, ParagraphId, RankedAnswers};
    /// let part = |doc: u32, score: f64| {
    ///     RankedAnswers::from_unsorted(
    ///         vec![Answer {
    ///             paragraph: ParagraphId::new(DocId::new(doc), 0),
    ///             candidate: format!("c{doc}"),
    ///             text: String::new(),
    ///             score,
    ///         }],
    ///         5,
    ///     )
    /// };
    /// let merged = RankedAnswers::merge([part(1, 0.4), part(2, 0.9)], 1);
    /// assert_eq!(merged.best().unwrap().candidate, "c2");
    /// ```
    pub fn merge(parts: impl IntoIterator<Item = RankedAnswers>, keep: usize) -> Self {
        let mut best: std::collections::HashMap<String, Answer> = std::collections::HashMap::new();
        for part in parts {
            for ans in part.answers {
                match best.get_mut(&ans.candidate) {
                    Some(cur) if !Answer::better(&ans, cur) => {}
                    Some(cur) => *cur = ans,
                    None => {
                        best.insert(ans.candidate.clone(), ans);
                    }
                }
            }
        }
        Self::from_unsorted(best.into_values().collect(), keep)
    }

    /// Number of answers held.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when no answer was found.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The best answer, if any.
    pub fn best(&self) -> Option<&Answer> {
        self.answers.first()
    }
}

/// Fraction of a distributed phase's work that actually completed.
///
/// Under graceful degradation (retry budget or deadline exhausted) the
/// coordinator abandons the chunks it could not place and answers from what
/// it has; `Coverage` makes that loss explicit instead of silently shipping
/// a partial ranking. `completed == total` marks a non-degraded phase whose
/// answers must be byte-identical to a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Coverage {
    /// Work units (shards or chunks) that finished.
    pub completed: u32,
    /// Work units the phase started with.
    pub total: u32,
}

impl Coverage {
    /// Full coverage over `total` units.
    pub fn full(total: u32) -> Coverage {
        Coverage {
            completed: total,
            total,
        }
    }

    /// Completed fraction in `[0, 1]`; an empty phase counts as complete.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            f64::from(self.completed) / f64::from(self.total)
        }
    }

    /// True when nothing was lost.
    pub fn is_complete(&self) -> bool {
        self.completed >= self.total
    }

    /// Pointwise minimum-coverage combination of two phases (the question
    /// is only as complete as its least-complete phase).
    pub fn and(self, other: Coverage) -> Coverage {
        if self.fraction() <= other.fraction() {
            self
        } else {
            other
        }
    }
}

impl Default for Coverage {
    fn default() -> Self {
        Coverage::full(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DocId;

    fn ans(doc: u32, score: f64) -> Answer {
        Answer {
            paragraph: ParagraphId::new(DocId::new(doc), 0),
            candidate: format!("cand{doc}"),
            text: format!("text{doc}"),
            score,
        }
    }

    #[test]
    fn from_unsorted_orders_by_score_desc() {
        let ranked = RankedAnswers::from_unsorted(vec![ans(1, 0.2), ans(2, 0.9), ans(3, 0.5)], 5);
        let scores: Vec<_> = ranked.answers.iter().map(|a| a.score).collect();
        assert_eq!(scores, [0.9, 0.5, 0.2]);
    }

    #[test]
    fn from_unsorted_truncates_to_keep() {
        let ranked = RankedAnswers::from_unsorted((0..10).map(|i| ans(i, i as f64)).collect(), 3);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked.best().unwrap().score, 9.0);
    }

    #[test]
    fn ties_break_deterministically_on_paragraph() {
        let a = RankedAnswers::from_unsorted(vec![ans(2, 1.0), ans(1, 1.0)], 5);
        let b = RankedAnswers::from_unsorted(vec![ans(1, 1.0), ans(2, 1.0)], 5);
        assert_eq!(a, b, "input order must not matter");
        assert_eq!(a.answers[0].paragraph.doc, DocId::new(1));
    }

    #[test]
    fn merge_selects_global_best() {
        let p1 = RankedAnswers::from_unsorted(vec![ans(1, 0.9), ans(2, 0.1)], 2);
        let p2 = RankedAnswers::from_unsorted(vec![ans(3, 0.8), ans(4, 0.7)], 2);
        let merged = RankedAnswers::merge([p1, p2], 2);
        let scores: Vec<_> = merged.answers.iter().map(|a| a.score).collect();
        assert_eq!(scores, [0.9, 0.8]);
    }

    #[test]
    fn merge_dedups_same_candidate_across_partitions() {
        let mut dup_a = ans(1, 0.5);
        dup_a.candidate = "same".into();
        let mut dup_b = ans(2, 0.9);
        dup_b.candidate = "same".into();
        let p1 = RankedAnswers::from_unsorted(vec![dup_a], 2);
        let p2 = RankedAnswers::from_unsorted(vec![dup_b], 2);
        let merged = RankedAnswers::merge([p1, p2], 5);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.best().unwrap().score, 0.9);
    }

    #[test]
    fn better_is_a_deterministic_total_preference() {
        let a = ans(1, 0.5);
        let b = ans(2, 0.5);
        assert!(Answer::better(&a, &b), "tie goes to lower paragraph id");
        assert!(!Answer::better(&b, &a));
        let c = ans(3, 0.9);
        assert!(Answer::better(&c, &a));
    }

    #[test]
    fn coverage_fraction_and_combination() {
        let full = Coverage::full(8);
        assert!(full.is_complete());
        assert_eq!(full.fraction(), 1.0);
        let part = Coverage {
            completed: 3,
            total: 8,
        };
        assert!(!part.is_complete());
        assert!((part.fraction() - 0.375).abs() < 1e-12);
        assert_eq!(full.and(part), part, "least-complete phase wins");
        assert_eq!(part.and(full), part);
        let empty = Coverage::default();
        assert!(empty.is_complete(), "empty phase counts as complete");
        assert_eq!(empty.fraction(), 1.0);
    }

    #[test]
    fn empty_merge_is_empty() {
        let merged = RankedAnswers::merge(std::iter::empty(), 5);
        assert!(merged.is_empty());
        assert!(merged.best().is_none());
    }
}
