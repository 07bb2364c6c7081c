//! Replicated meta-scheduler: terms and the shared journal handle.
//!
//! The coordinator of PRs 1–4 is a single point of failure: every
//! admission slot, in-flight question and chunk-dedup set lives in its
//! memory. This module makes coordination *replicable* through
//! [`CoordinatorJournal`] — a cheap-to-clone handle over one durable
//! [`journal::Journal`]. Each coordinator incarnation holds its own
//! **term** cell; the journal rejects appends from any term other than
//! the highest it has witnessed, so after a standby promotes itself a
//! zombie ex-leader's grants bounce off with
//! [`journal::JournalError::Fenced`] (counted in
//! `dqa_fenced_grants_total`).
//!
//! The failover protocol is deliberately minimal — one journal is the
//! single source of truth, so leadership is just "who may append":
//! commitment is `advance_term`, and safety is the journal's term check,
//! not any in-memory handshake. *When* a standby promotes is its
//! caller's decision: the soaks and `tests/coordinator_failover.rs` crash
//! the leader and promote at once, the simulator models a lease.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use journal::{Journal, JournalError, JournalOptions, JournalRecord, Recovery};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// A coordinator's handle on the shared question journal.
///
/// Cloning shares the *same* coordinator identity (term cell) across the
/// coordinator's threads; [`CoordinatorJournal::standby`] mints a new
/// identity over the same journal — the handle a standby uses so that
/// its later promotion fences the original holder.
#[derive(Clone)]
pub struct CoordinatorJournal {
    inner: Arc<Mutex<Journal>>,
    term: Arc<AtomicU64>,
}

impl fmt::Debug for CoordinatorJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoordinatorJournal")
            .field("term", &self.term.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl CoordinatorJournal {
    /// Open (or create) the journal at `dir`, replaying surviving frames.
    /// The handle's term starts at the journal's recovered term.
    pub fn open(dir: impl AsRef<Path>) -> Result<(CoordinatorJournal, Recovery), JournalError> {
        CoordinatorJournal::open_with(dir, JournalOptions::default())
    }

    /// [`CoordinatorJournal::open`] with explicit journal options.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: JournalOptions,
    ) -> Result<(CoordinatorJournal, Recovery), JournalError> {
        let (journal, recovery) = Journal::open_with(dir, opts)?;
        let term = journal.term();
        Ok((
            CoordinatorJournal {
                inner: Arc::new(Mutex::new(journal)),
                term: Arc::new(AtomicU64::new(term)),
            },
            recovery,
        ))
    }

    /// The term this handle appends under.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// Records appended through the underlying journal this process.
    pub fn appended(&self) -> u64 {
        self.inner.lock().appended()
    }

    /// Append one record under this handle's term. After another handle
    /// promoted past it, every append here returns
    /// [`JournalError::Fenced`] — the grant is rejected durably, not just
    /// in memory.
    pub fn append(&self, record: &JournalRecord) -> Result<(), JournalError> {
        let term = self.term();
        self.inner.lock().append(term, record)
    }

    /// Force an fsync of the current segment.
    pub fn sync(&self) -> Result<(), JournalError> {
        self.inner.lock().sync()
    }

    /// A standby's handle: same journal, separate identity frozen at the
    /// journal's current term. Until it promotes it can append (same
    /// term); after [`CoordinatorJournal::promote`] the *other* handles
    /// are the fenced ones.
    pub fn standby(&self) -> CoordinatorJournal {
        let current = self.inner.lock().term();
        CoordinatorJournal {
            inner: Arc::clone(&self.inner),
            term: Arc::new(AtomicU64::new(current)),
        }
    }

    /// Claim leadership: advance the journal's term by one and adopt it
    /// for this handle. Everyone else is fenced from here on. Returns the
    /// new term.
    pub fn promote(&self) -> Result<u64, JournalError> {
        let mut journal = self.inner.lock();
        let next = journal.term() + 1;
        journal.advance_term(next)?;
        self.term.store(next, Ordering::Release);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use journal::JournalError;
    use qa_types::{Question, QuestionId};
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dqa-failover-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn admit(id: u32) -> JournalRecord {
        JournalRecord::Admitted {
            question: Question::new(QuestionId::new(id), format!("question {id}")),
        }
    }

    #[test]
    fn promotion_fences_the_old_leader_handle() {
        let dir = tmp("fence");
        let (leader, _) = CoordinatorJournal::open(&dir).unwrap();
        leader.append(&admit(1)).unwrap();
        let standby = leader.standby();
        // Before promotion both handles share the term and may append.
        standby.append(&admit(2)).unwrap();
        let new_term = standby.promote().unwrap();
        assert_eq!(new_term, 2);
        // The zombie's grant is rejected durably.
        let err = leader.append(&admit(3)).unwrap_err();
        assert!(matches!(err, JournalError::Fenced { .. }), "{err}");
        standby.append(&admit(4)).unwrap();
        // Reopen: only the fenced append is missing.
        drop((leader, standby));
        let (handle, recovery) = CoordinatorJournal::open(&dir).unwrap();
        assert_eq!(handle.term(), 2);
        assert_eq!(recovery.state.gate_occupancy(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_share_identity_standbys_do_not() {
        let dir = tmp("identity");
        let (leader, _) = CoordinatorJournal::open(&dir).unwrap();
        let sibling = leader.clone();
        let standby = leader.standby();
        standby.promote().unwrap();
        // The clone shares the leader's (now stale) term cell.
        assert!(matches!(
            sibling.append(&admit(1)),
            Err(JournalError::Fenced { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
