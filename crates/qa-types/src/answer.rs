//! Answers and answer windows.
//!
//! The Answer Processing module identifies *candidate answers* (entities of
//! the expected answer type) inside paragraphs, builds an *answer window*
//! around each candidate — a text span containing the candidate plus question
//! keywords — scores windows with seven heuristics and returns the best `N_a`.

use crate::error::QaError;
use crate::ids::{DocId, ParagraphId};
use crate::wire::{put_str, put_u32, put_u64, Reader};
use serde::Serialize;
use std::cmp::Ordering;

/// The answer-window length limits used by TREC (Table 1 of the paper).
pub const SHORT_ANSWER_BYTES: usize = 50;
/// Long-answer window limit.
pub const LONG_ANSWER_BYTES: usize = 250;

/// A final answer returned to the user.
#[derive(Debug, Clone, PartialEq)]
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
        Self::by_rank((a.score, a.paragraph), (b.score, b.paragraph)).is_lt()
    }

    /// The order behind [`Answer::better`] and the final ranking, over
    /// `(score, paragraph)`: score descending, then paragraph id ascending.
    /// AP ranks its borrowed answer windows with it before any `Answer`
    /// exists.
    pub fn by_rank(a: (f64, ParagraphId), b: (f64, ParagraphId)) -> Ordering {
        let by_score = b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal);
        by_score.then_with(|| a.1.cmp(&b.1))
    }
}

/// The fixed part of one encoded [`Answer`]: paragraph id, score bits and
/// the two string length prefixes.
const MIN_ANSWER_BYTES: usize = 4 + 4 + 8 + 4 + 4;

/// An ordered set of answers for one question.
#[derive(Debug, Clone, Default, PartialEq)]
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
            Answer::by_rank((a.score, a.paragraph), (b.score, b.paragraph))
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

    /// The one binary encoding of a ranked answer set, which is what the
    /// journal stores for an AP partial and for a final answer: a count,
    /// then per answer `doc u32 · ordinal u32 · score bits u64 · candidate
    /// str · text str` ([`crate::wire`]). Answers are derived windows of at
    /// most [`LONG_ANSWER_BYTES`], held nowhere else, so they are kept by
    /// value.
    pub fn encode(&self) -> Vec<u8> {
        let text: usize = self
            .answers
            .iter()
            .map(|a| a.candidate.len() + a.text.len())
            .sum();
        let mut out = Vec::with_capacity(4 + self.answers.len() * MIN_ANSWER_BYTES + text);
        put_u32(&mut out, self.answers.len() as u32);
        for a in &self.answers {
            put_u32(&mut out, a.paragraph.doc.raw());
            put_u32(&mut out, a.paragraph.ordinal);
            put_u64(&mut out, a.score.to_bits());
            put_str(&mut out, &a.candidate);
            put_str(&mut out, &a.text);
        }
        out
    }

    /// Decode what [`RankedAnswers::encode`] wrote. Score bits survive
    /// exactly; truncated input, broken UTF-8 or trailing bytes are errors.
    pub fn decode(bytes: &[u8]) -> Result<Self, QaError> {
        let mut r = Reader::new(bytes);
        let n = r.count(MIN_ANSWER_BYTES)?;
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            answers.push(Answer {
                paragraph: ParagraphId::new(DocId::new(r.u32()?), r.u32()?),
                score: f64::from_bits(r.u64()?),
                candidate: r.str()?.to_owned(),
                text: r.str()?.to_owned(),
            });
        }
        r.finish()?;
        Ok(Self { answers })
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
    fn codec_round_trips_every_bit_and_is_pinned() {
        let mut odd = ans(7, -0.0);
        odd.paragraph.ordinal = u32::MAX;
        odd.candidate = "São Tomé".into();
        odd.text.clear();
        let mut nan = ans(8, 0.0);
        nan.score = f64::from_bits(0x7ff8_0000_0000_beef);
        for ranked in [
            RankedAnswers::default(),
            RankedAnswers {
                answers: vec![ans(1, 0.1 + 0.2), odd, nan],
            },
        ] {
            let back = RankedAnswers::decode(&ranked.encode()).unwrap();
            assert_eq!(back.len(), ranked.len());
            for (a, b) in back.answers.iter().zip(&ranked.answers) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(
                    (a.paragraph, &a.candidate, &a.text),
                    (b.paragraph, &b.candidate, &b.text)
                );
            }
        }
        // The stored bytes: count, doc, ordinal, score bits, two strings.
        let one = RankedAnswers {
            answers: vec![ans(2, 1.5)],
        };
        let hex: String = one.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "01000000\
             0200000000000000\
             000000000000f83f\
             0500000063616e6432\
             050000007465787432"
        );
    }

    #[test]
    fn decode_refuses_hostile_bytes_without_allocating_for_them() {
        let bytes = RankedAnswers {
            answers: vec![ans(1, 0.5), ans(2, 0.25)],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(RankedAnswers::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(RankedAnswers::decode(&trailing).is_err());
        // A count or a string length of u32::MAX is refused against the
        // bytes that remain, before any `Vec` or `String` is sized by it.
        for at in [0, 20] {
            let mut huge = bytes.clone();
            huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(RankedAnswers::decode(&huge).is_err(), "length at {at}");
        }
        let mut utf8 = bytes;
        utf8[24] = 0xff; // first byte of the first candidate
        assert!(RankedAnswers::decode(&utf8).is_err());
    }

    #[test]
    fn empty_merge_is_empty() {
        let merged = RankedAnswers::merge(std::iter::empty(), 5);
        assert!(merged.is_empty());
        assert!(merged.best().is_none());
    }
}
