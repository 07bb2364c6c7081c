//! Journal record schema — the coordinator decisions worth surviving.
//!
//! Records are deliberately close to the paper's vocabulary: a question is
//! admitted, scheduled at the three migration scheduling points (QA, PR,
//! AP), granted chunks, collects partial results, and is finally answered.
//! Payloads that the coordinator would otherwise have to recompute
//! (scored paragraphs, ranked answers) are stored as opaque `serde_json`
//! bytes so the journal crate does not depend on the pipeline crates.
//! Every variant has a writer in `dqa-runtime`; a kind nothing writes is
//! not part of the schema.

use qa_types::{Question, QuestionId};
use serde::{Deserialize, Serialize};

/// The three migration scheduling points of the meta-scheduler (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SchedulingPoint {
    /// Question admission: which node becomes the question's home.
    Qa,
    /// Paragraph Retrieval fan-out: which nodes serve PR chunks.
    Pr,
    /// Answer Processing fan-out: which nodes serve AP batches.
    Ap,
}

/// Distributed phase a chunk belongs to (QP and PO run on the home node
/// and are cheap to recompute; only the fan-out phases journal chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum JournalPhase {
    /// Paragraph Retrieval (PS fused in, as in Fig. 3).
    Pr,
    /// Answer Processing.
    Ap,
}

/// One durable coordinator decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A question passed the admission gate. Stores the full question so
    /// a successor coordinator can resume it without the client.
    Admitted {
        /// The admitted question.
        question: Question,
    },
    /// The meta-scheduler chose `nodes` at scheduling point `point`.
    Scheduled {
        /// Which question.
        question: QuestionId,
        /// Which of the three scheduling points.
        point: SchedulingPoint,
        /// Chosen node ids (home first for [`SchedulingPoint::Qa`]).
        nodes: Vec<u32>,
    },
    /// Chunk `chunk` of `phase` was granted to worker `node`.
    ChunkGranted {
        /// Which question.
        question: QuestionId,
        /// Which fan-out phase.
        phase: JournalPhase,
        /// Chunk id within the phase (deterministic 0..n ordering).
        chunk: u32,
        /// Worker node the chunk was sent to.
        node: u32,
    },
    /// First (deduplicated) result for a chunk, with its payload: the
    /// `serde_json` encoding of `Vec<ScoredParagraph>` for PR or
    /// `RankedAnswers` for AP. Implies the chunk is done.
    PartialResult {
        /// Which question.
        question: QuestionId,
        /// Which fan-out phase.
        phase: JournalPhase,
        /// Chunk id within the phase.
        chunk: u32,
        /// Opaque `serde_json` bytes of the phase result.
        payload: Vec<u8>,
    },
    /// Cumulative retry budget spent in `phase` (monotone, so replaying
    /// an old record under a newer one is a no-op).
    RetrySpent {
        /// Which question.
        question: QuestionId,
        /// Which fan-out phase.
        phase: JournalPhase,
        /// Total retries spent so far in this phase.
        spent: u32,
    },
    /// The question finished with an answer: `payload` is the
    /// `serde_json` encoding of the final `RankedAnswers`; `complete` is
    /// false for degraded (partial-coverage) answers.
    Answered {
        /// Which question.
        question: QuestionId,
        /// Opaque `serde_json` bytes of the final ranked answers.
        payload: Vec<u8>,
        /// Whether coverage was complete (false for degraded answers).
        complete: bool,
    },
    /// The question terminated without an answer (coordination error);
    /// it no longer occupies an admission slot.
    Abandoned {
        /// Which question.
        question: QuestionId,
    },
    /// Leadership changed hands: all subsequent frames carry `term`.
    TermChange {
        /// The new (strictly higher) term.
        term: u64,
    },
    /// The rebalancer minted a migration plan: `steps` is the ordered
    /// `(sub, from, to)` ownership transfers. Journaled *before* any step
    /// applies, so a successor knows the full intent.
    RebalancePlanned {
        /// Plan id, unique per coordinator incarnation.
        plan: u64,
        /// Ordered transfers as raw ids: `(sub_collection, from, to)`.
        steps: Vec<(u32, u32, u32)>,
    },
    /// One step of a planned migration was applied: `sub` is now owned by
    /// `to`. Replaying after the fact is a no-op (idempotent fold), which
    /// makes a crash-resumed plan exactly-once.
    RebalanceStepDone {
        /// The plan the step belongs to.
        plan: u64,
        /// The migrated sub-collection.
        sub: u32,
        /// Its new owner.
        to: u32,
    },
    /// Every step of `plan` has applied and the convergence invariant was
    /// re-verified: each sub-collection owned by exactly one live node.
    RebalanceConverged {
        /// The completed plan.
        plan: u64,
    },
}

/// A record stamped with the term of the coordinator that wrote it —
/// exactly what one on-disk frame's payload encodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Framed {
    /// Term of the writing coordinator (fencing token).
    pub term: u64,
    /// The decision itself.
    pub record: JournalRecord,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_json() {
        let records = vec![
            JournalRecord::Admitted {
                question: Question::new(QuestionId::new(7), "where is the coordinator"),
            },
            JournalRecord::Scheduled {
                question: QuestionId::new(7),
                point: SchedulingPoint::Pr,
                nodes: vec![0, 3],
            },
            JournalRecord::PartialResult {
                question: QuestionId::new(7),
                phase: JournalPhase::Ap,
                chunk: 2,
                payload: b"[1,2,3]".to_vec(),
            },
            JournalRecord::TermChange { term: 4 },
        ];
        for rec in records {
            let framed = Framed {
                term: 3,
                record: rec,
            };
            let bytes = serde_json::to_vec(&framed).unwrap();
            let back: Framed = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(back, framed);
        }
    }

    /// The bytes a frame stores, one `Framed` per variant that has a writer,
    /// captured at the commit before the serde derives were pruned: a
    /// dropped derive attribute, a reordered field or a renamed variant
    /// turns this red. (`ChunkDone`, a variant nothing ever wrote, was
    /// deleted by the change these pins guard and was never pinned.)
    #[test]
    fn stored_frame_text_is_pinned() {
        let q = QuestionId::new(7);
        let pinned = [
            (
                JournalRecord::Admitted {
                    question: Question::new(q, "where is the coordinator"),
                },
                r#"{"term":3,"record":{"Admitted":{"question":{"id":7,"text":"where is the coordinator"}}}}"#,
            ),
            (
                JournalRecord::Scheduled {
                    question: q,
                    point: SchedulingPoint::Pr,
                    nodes: vec![0, 3],
                },
                r#"{"term":3,"record":{"Scheduled":{"question":7,"point":"Pr","nodes":[0,3]}}}"#,
            ),
            (
                JournalRecord::ChunkGranted {
                    question: q,
                    phase: JournalPhase::Pr,
                    chunk: 5,
                    node: 1,
                },
                r#"{"term":3,"record":{"ChunkGranted":{"question":7,"phase":"Pr","chunk":5,"node":1}}}"#,
            ),
            (
                JournalRecord::PartialResult {
                    question: q,
                    phase: JournalPhase::Ap,
                    chunk: 2,
                    payload: b"[1]".to_vec(),
                },
                r#"{"term":3,"record":{"PartialResult":{"question":7,"phase":"Ap","chunk":2,"payload":[91,49,93]}}}"#,
            ),
            (
                JournalRecord::RetrySpent {
                    question: q,
                    phase: JournalPhase::Ap,
                    spent: 4,
                },
                r#"{"term":3,"record":{"RetrySpent":{"question":7,"phase":"Ap","spent":4}}}"#,
            ),
            (
                JournalRecord::Answered {
                    question: q,
                    payload: b"{}".to_vec(),
                    complete: false,
                },
                r#"{"term":3,"record":{"Answered":{"question":7,"payload":[123,125],"complete":false}}}"#,
            ),
            (
                JournalRecord::Abandoned { question: q },
                r#"{"term":3,"record":{"Abandoned":{"question":7}}}"#,
            ),
            (
                JournalRecord::TermChange { term: 4 },
                r#"{"term":3,"record":{"TermChange":{"term":4}}}"#,
            ),
            (
                JournalRecord::RebalancePlanned {
                    plan: 9,
                    steps: vec![(2, 0, 1), (5, 0, 3)],
                },
                r#"{"term":3,"record":{"RebalancePlanned":{"plan":9,"steps":[[2,0,1],[5,0,3]]}}}"#,
            ),
            (
                JournalRecord::RebalanceStepDone {
                    plan: 9,
                    sub: 2,
                    to: 1,
                },
                r#"{"term":3,"record":{"RebalanceStepDone":{"plan":9,"sub":2,"to":1}}}"#,
            ),
            (
                JournalRecord::RebalanceConverged { plan: 9 },
                r#"{"term":3,"record":{"RebalanceConverged":{"plan":9}}}"#,
            ),
        ];
        for (record, text) in pinned {
            let framed = Framed { term: 3, record };
            assert_eq!(serde_json::to_string(&framed).unwrap(), text);
            assert_eq!(serde_json::from_str::<Framed>(text).unwrap(), framed);
        }
    }
}
