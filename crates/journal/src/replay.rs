//! Deterministic replay: fold journal frames into coordinator state.
//!
//! [`RecoveredState::apply`] is built exclusively from monotone,
//! idempotent operations — set inserts, map overwrites with last-write-
//! wins, and `max` on counters/terms. Replaying a journal twice therefore
//! produces exactly the state of replaying it once (`replay ∘ replay =
//! replay`), which is what lets a promoted standby tail the journal live
//! *and* re-open it after promotion without double-counting anything.

use crate::record::{Framed, JournalPhase, JournalRecord, SchedulingPoint};
use qa_types::{Question, QuestionId};
use std::collections::{BTreeMap, BTreeSet};

/// Bookkeeping from one [`crate::Journal::open`] pass. Kept separate from
/// [`RecoveredState`] so state equality (the idempotence property) is not
/// polluted by how many times frames were read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Frames decoded and applied.
    pub records: u64,
    /// Segment files scanned.
    pub segments: u64,
    /// Torn-tail bytes truncated from the final segment.
    pub truncated_bytes: u64,
}

/// Everything the journal knows about one question.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuestionRecovery {
    question: Option<Question>,
    scheduled: BTreeMap<SchedulingPoint, Vec<u32>>,
    partials: BTreeMap<(JournalPhase, u32), Vec<u8>>,
    retry_spent: BTreeMap<JournalPhase, u32>,
    answer: Option<(Vec<u8>, bool)>,
    abandoned: bool,
}

impl QuestionRecovery {
    /// The admitted question, if its `Admitted` record survived.
    pub fn question(&self) -> Option<&Question> {
        self.question.as_ref()
    }

    /// Nodes chosen at `point` (home first for QA), if journaled.
    pub fn nodes_at(&self, point: SchedulingPoint) -> Option<&[u32]> {
        self.scheduled.get(&point).map(|v| v.as_slice())
    }

    /// The journaled home node (first QA scheduling choice).
    pub fn home(&self) -> Option<u32> {
        self.nodes_at(SchedulingPoint::Qa)
            .and_then(|n| n.first().copied())
    }

    /// Journaled partial results for `phase`, ascending by chunk id.
    pub fn partials(&self, phase: JournalPhase) -> impl Iterator<Item = (u32, &[u8])> {
        self.partials
            .iter()
            .filter(move |((p, _), _)| *p == phase)
            .map(|((_, chunk), payload)| (*chunk, payload.as_slice()))
    }

    /// Cumulative retry budget spent in `phase`.
    pub fn retry_spent(&self, phase: JournalPhase) -> u32 {
        self.retry_spent.get(&phase).copied().unwrap_or(0)
    }

    /// Final answer payload and completeness flag, if answered.
    pub fn answer(&self) -> Option<(&[u8], bool)> {
        self.answer.as_ref().map(|(p, c)| (p.as_slice(), *c))
    }

    /// True when the question still occupies an admission slot: admitted,
    /// not answered, not abandoned. These are the questions a successor
    /// coordinator must resume.
    pub fn resumable(&self) -> bool {
        self.question.is_some() && self.answer.is_none() && !self.abandoned
    }
}

/// Everything the journal knows about one migration plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RebalanceRecovery {
    steps: Vec<(u32, u32, u32)>,
    done: BTreeSet<u32>,
    converged: bool,
}

impl RebalanceRecovery {
    /// The planned `(sub, from, to)` transfers, in plan order.
    pub fn steps(&self) -> &[(u32, u32, u32)] {
        &self.steps
    }

    /// Planned steps without a journaled completion, in plan order —
    /// exactly what a successor coordinator must re-apply. Applying a
    /// step that in fact completed (its `RebalanceStepDone` was lost to a
    /// crash) is safe: ownership transfer is idempotent.
    pub fn pending_steps(&self) -> Vec<(u32, u32, u32)> {
        self.steps
            .iter()
            .filter(|(sub, _, _)| !self.done.contains(sub))
            .copied()
            .collect()
    }

    /// Whether the plan's convergence record was journaled.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

/// Coordinator state reconstructed from the journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    term: u64,
    questions: BTreeMap<QuestionId, QuestionRecovery>,
    rebalances: BTreeMap<u64, RebalanceRecovery>,
    owners: BTreeMap<u32, u32>,
}

impl RecoveredState {
    /// Empty state (no frames applied).
    pub fn new() -> RecoveredState {
        RecoveredState::default()
    }

    /// Fold one frame into the state. Monotone and idempotent: applying
    /// the same frame sequence any number of times yields the same state.
    pub fn apply(&mut self, framed: &Framed) {
        self.term = self.term.max(framed.term);
        fn entry(
            qs: &mut BTreeMap<QuestionId, QuestionRecovery>,
            id: QuestionId,
        ) -> &mut QuestionRecovery {
            qs.entry(id).or_default()
        }
        match &framed.record {
            JournalRecord::Admitted { question } => {
                let rec = entry(&mut self.questions, question.id);
                if rec.question.is_none() {
                    rec.question = Some(question.clone());
                }
            }
            JournalRecord::Scheduled {
                question,
                point,
                nodes,
            } => {
                entry(&mut self.questions, *question)
                    .scheduled
                    .insert(*point, nodes.clone());
            }
            // A grant is the log's audit trail of who held a chunk; resume
            // re-grants from the journaled partials alone.
            JournalRecord::ChunkGranted { .. } => {}
            JournalRecord::PartialResult {
                question,
                phase,
                chunk,
                payload,
            } => {
                entry(&mut self.questions, *question)
                    .partials
                    .insert((*phase, *chunk), payload.clone());
            }
            JournalRecord::RetrySpent {
                question,
                phase,
                spent,
            } => {
                let rec = entry(&mut self.questions, *question);
                let slot = rec.retry_spent.entry(*phase).or_insert(0);
                *slot = (*slot).max(*spent);
            }
            JournalRecord::Answered {
                question,
                payload,
                complete,
            } => {
                entry(&mut self.questions, *question).answer = Some((payload.clone(), *complete));
            }
            JournalRecord::Abandoned { question } => {
                entry(&mut self.questions, *question).abandoned = true;
            }
            JournalRecord::TermChange { term } => {
                self.term = self.term.max(*term);
            }
            JournalRecord::RebalancePlanned { plan, steps } => {
                let rec = self.rebalances.entry(*plan).or_default();
                if rec.steps.is_empty() {
                    rec.steps = steps.clone();
                }
            }
            JournalRecord::RebalanceStepDone { plan, sub, to } => {
                self.rebalances.entry(*plan).or_default().done.insert(*sub);
                self.owners.insert(*sub, *to);
            }
            JournalRecord::RebalanceConverged { plan } => {
                self.rebalances.entry(*plan).or_default().converged = true;
            }
        }
    }

    /// Highest term witnessed (0 for an empty journal).
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Everything known about `question`.
    pub fn get(&self, question: QuestionId) -> Option<&QuestionRecovery> {
        self.questions.get(&question)
    }

    /// All questions the journal mentions, in id order.
    pub fn questions(&self) -> impl Iterator<Item = (QuestionId, &QuestionRecovery)> {
        self.questions.iter().map(|(id, rec)| (*id, rec))
    }

    /// Questions that still occupy an admission slot and must be resumed
    /// by a successor coordinator, in id order.
    pub fn in_flight(&self) -> impl Iterator<Item = (QuestionId, &QuestionRecovery)> {
        self.questions().filter(|(_, rec)| rec.resumable())
    }

    /// Questions with a journaled final answer, in id order.
    pub fn answered(&self) -> impl Iterator<Item = (QuestionId, &[u8], bool)> {
        self.questions().filter_map(|(id, rec)| {
            rec.answer()
                .map(|(payload, complete)| (id, payload, complete))
        })
    }

    /// `AdmissionGate` occupancy to restore: the number of resumable
    /// questions.
    pub fn gate_occupancy(&self) -> usize {
        self.in_flight().count()
    }

    /// Everything known about migration plan `plan`.
    pub fn rebalance(&self, plan: u64) -> Option<&RebalanceRecovery> {
        self.rebalances.get(&plan)
    }

    /// Plans with journaled intent but no convergence record, in plan-id
    /// order — the migrations a successor coordinator must finish.
    pub fn unfinished_rebalances(&self) -> impl Iterator<Item = (u64, &RebalanceRecovery)> {
        self.rebalances
            .iter()
            .filter(|(_, rec)| !rec.converged && !rec.steps.is_empty())
            .map(|(id, rec)| (*id, rec))
    }

    /// Journaled ownership overrides: `(sub_collection, owner)` for every
    /// sub-collection a completed migration step re-homed, in sub order.
    /// Sub-collections never migrated keep their initial placement and do
    /// not appear here.
    pub fn rebalanced_owners(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.owners.iter().map(|(s, n)| (*s, *n))
    }

    /// True when no frames have been applied.
    pub fn is_empty(&self) -> bool {
        self.term == 0 && self.questions.is_empty() && self.rebalances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(term: u64, record: JournalRecord) -> Framed {
        Framed { term, record }
    }

    #[test]
    fn lifecycle_folds_to_answered() {
        let q = Question::new(QuestionId::new(1), "what is a lease");
        let log = vec![
            framed(
                1,
                JournalRecord::Admitted {
                    question: q.clone(),
                },
            ),
            framed(
                1,
                JournalRecord::Scheduled {
                    question: q.id,
                    point: SchedulingPoint::Qa,
                    nodes: vec![2],
                },
            ),
            framed(
                1,
                JournalRecord::PartialResult {
                    question: q.id,
                    phase: JournalPhase::Pr,
                    chunk: 0,
                    payload: b"[]".to_vec(),
                },
            ),
            framed(
                1,
                JournalRecord::Answered {
                    question: q.id,
                    payload: b"{}".to_vec(),
                    complete: true,
                },
            ),
        ];
        let mut state = RecoveredState::new();
        for f in &log {
            state.apply(f);
        }
        assert_eq!(state.gate_occupancy(), 0);
        assert_eq!(state.answered().count(), 1);
        let rec = state.get(q.id).unwrap();
        assert_eq!(rec.home(), Some(2));
        assert_eq!(rec.partials(JournalPhase::Pr).count(), 1);
        assert!(!rec.resumable());
    }

    #[test]
    fn unanswered_question_is_resumable() {
        let q = Question::new(QuestionId::new(4), "who watches the coordinator");
        let mut state = RecoveredState::new();
        state.apply(&framed(
            2,
            JournalRecord::Admitted {
                question: q.clone(),
            },
        ));
        state.apply(&framed(
            2,
            JournalRecord::RetrySpent {
                question: q.id,
                phase: JournalPhase::Ap,
                spent: 3,
            },
        ));
        assert_eq!(state.term(), 2);
        assert_eq!(state.gate_occupancy(), 1);
        let (_, rec) = state.in_flight().next().unwrap();
        assert_eq!(rec.retry_spent(JournalPhase::Ap), 3);
        assert_eq!(rec.retry_spent(JournalPhase::Pr), 0);
    }

    #[test]
    fn apply_is_idempotent_per_frame_sequence() {
        let q = Question::new(QuestionId::new(9), "replay me twice");
        let log = vec![
            framed(
                1,
                JournalRecord::Admitted {
                    question: q.clone(),
                },
            ),
            framed(
                1,
                JournalRecord::ChunkGranted {
                    question: q.id,
                    phase: JournalPhase::Pr,
                    chunk: 1,
                    node: 3,
                },
            ),
            framed(2, JournalRecord::TermChange { term: 2 }),
            framed(2, JournalRecord::Abandoned { question: q.id }),
        ];
        let mut once = RecoveredState::new();
        for f in &log {
            once.apply(f);
        }
        let mut twice = once.clone();
        for f in &log {
            twice.apply(f);
        }
        assert_eq!(once, twice);
    }

    #[test]
    fn rebalance_folds_track_pending_steps_and_convergence() {
        let log = vec![
            framed(
                3,
                JournalRecord::RebalancePlanned {
                    plan: 1,
                    steps: vec![(2, 1, 0), (6, 1, 3)],
                },
            ),
            framed(
                3,
                JournalRecord::RebalanceStepDone {
                    plan: 1,
                    sub: 2,
                    to: 0,
                },
            ),
        ];
        let mut state = RecoveredState::new();
        for f in &log {
            state.apply(f);
        }
        // Crash between the two steps: the successor sees one pending.
        let (id, rec) = state.unfinished_rebalances().next().unwrap();
        assert_eq!(id, 1);
        assert_eq!(rec.pending_steps(), vec![(6, 1, 3)]);
        assert_eq!(state.rebalanced_owners().collect::<Vec<_>>(), vec![(2, 0)]);
        // Finishing and converging retires the plan.
        state.apply(&framed(
            3,
            JournalRecord::RebalanceStepDone {
                plan: 1,
                sub: 6,
                to: 3,
            },
        ));
        state.apply(&framed(3, JournalRecord::RebalanceConverged { plan: 1 }));
        assert_eq!(state.unfinished_rebalances().count(), 0);
        assert!(state.rebalance(1).unwrap().converged());
        // Idempotent: replaying the whole sequence changes nothing.
        let snapshot = state.clone();
        for f in &log {
            state.apply(f);
        }
        assert_eq!(state, snapshot);
    }
}
