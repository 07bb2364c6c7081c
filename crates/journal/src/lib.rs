#![warn(missing_docs)]
//! Durable write-ahead question journal for the coordinator.
//!
//! The paper's meta-scheduler holds all admission and migration state in
//! the coordinating node's memory; if that node dies, every in-flight
//! question dies with it. This crate gives the coordinator a durable spine:
//! every decision that matters for resuming a question — admission, the
//! node choices at the three scheduling points, chunk grants, partial
//! results and final answers — is appended to an on-disk journal *before*
//! (or atomically with) the action it records, so a restarted or promoted
//! coordinator can [`replay`](crate::replay) the journal and *resume*
//! in-flight questions instead of restarting them.
//!
//! Design constraints, in order:
//!
//! 1. **Crash-safe by construction.** Records are length-prefixed and
//!    CRC-32 checksummed; a crash can only ever leave a *torn tail* on the
//!    final segment, which [`Journal::open`] truncates away. A crash is a
//!    prefix of the log — there is no state outside it.
//! 2. **Deterministic replay.** [`replay::RecoveredState::apply`] is
//!    monotone and idempotent (inserts into sets/maps, `max` on terms), so
//!    `replay ∘ replay = replay` — the property `tests/journal_props.rs`
//!    pins down.
//! 3. **Fencing.** Every frame carries the writer's *term*. The journal
//!    tracks the highest term it has witnessed and rejects appends from
//!    any older term with [`JournalError::Fenced`]; a zombie ex-leader
//!    cannot smuggle grants past a promoted standby.
//! 4. **No dependencies.** The CRC-32 (IEEE polynomial) and the byte
//!    cursor are `qa-types`' own; a frame's payload is a hand-written
//!    fixed-width binary record ([`record`]), so an append costs
//!    microseconds and tens of bytes and the crate links nothing from
//!    outside the workspace.

pub mod frame;
pub mod record;
pub mod replay;
pub mod segment;

pub use frame::crc32;
pub use record::{Framed, JournalPhase, JournalRecord, SchedulingPoint};
pub use replay::{QuestionRecovery, RebalanceRecovery, RecoveredState, ReplayStats};
pub use segment::{read_segment, Journal, JournalError, JournalOptions, Recovery};
