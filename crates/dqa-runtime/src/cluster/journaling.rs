//! Durable-decision helpers: every coordinator append goes through
//! [`Cluster::journal_append`], so journal I/O can never fail a question.

use super::Cluster;
use journal::{JournalError, JournalPhase, JournalRecord, SchedulingPoint};
use qa_types::{NodeId, QuestionId};

impl Cluster {
    /// The journal's fencing term, or 0 when running unjournaled.
    pub(super) fn term(&self) -> u64 {
        self.cfg.journal.as_ref().map_or(0, |j| j.term())
    }

    /// Append one record to the configured journal, if any. Journal I/O
    /// must never fail the question path: a fenced append (this handle's
    /// term was superseded — we are a zombie ex-leader) is counted in
    /// `dqa_fenced_grants_total`, other errors are dropped after the
    /// question's durability guarantee is already forfeit.
    pub(super) fn journal_append(&self, record: &JournalRecord) {
        let Some(journal) = &self.cfg.journal else {
            return;
        };
        match journal.append(record) {
            Ok(()) => self.metrics.journal_records.inc(),
            Err(JournalError::Fenced { .. }) => self.metrics.fenced_grants.inc(),
            Err(_) => {}
        }
    }

    /// Journal a scheduling-point decision.
    pub(super) fn journal_scheduled(
        &self,
        question: QuestionId,
        point: SchedulingPoint,
        nodes: &[NodeId],
    ) {
        if self.cfg.journal.is_some() {
            self.journal_append(&JournalRecord::Scheduled {
                question,
                point,
                nodes: nodes.iter().map(|n| n.raw()).collect(),
            });
        }
    }

    /// Journal the cumulative retry budget spent in `phase`, so a resumed
    /// question keeps (not resets) its pre-crash spend.
    pub(super) fn journal_retry(&self, question: QuestionId, phase: JournalPhase, spent: u32) {
        self.journal_append(&JournalRecord::RetrySpent {
            question,
            phase,
            spent,
        });
    }
}
