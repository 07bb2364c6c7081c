//! Error type shared across the workspace.

use crate::ids::QuestionId;
use std::fmt;

/// Errors surfaced by the Q/A subsystems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QaError {
    /// A referenced sub-collection index does not exist.
    UnknownSubCollection(u32),
    /// A question produced no usable keywords.
    NoKeywords(QuestionId),
    /// The requested configuration is invalid (empty node set, zero chunk
    /// size, weight vector mismatch, …).
    InvalidConfig(String),
    /// Index (de)serialization failed.
    Codec(String),
    /// The distributed runtime lost contact with a peer.
    Disconnected(String),
    /// A peer answered with a message that violates the coordination
    /// protocol (e.g. an AP result on a PR reply channel). The question is
    /// aborted with an error instead of panicking the coordinator.
    Protocol(String),
    /// The cluster refused the question at admission: the admission queue
    /// was full, every live node sat at its resident-question cap, or the
    /// front-end is shutting down. Carries a retry hint in milliseconds.
    Overloaded {
        /// Why admission was refused.
        reason: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for QaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QaError::UnknownSubCollection(c) => write!(f, "unknown sub-collection C{c}"),
            QaError::NoKeywords(q) => write!(f, "question {q} produced no keywords"),
            QaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            QaError::Codec(msg) => write!(f, "codec error: {msg}"),
            QaError::Disconnected(msg) => write!(f, "disconnected: {msg}"),
            QaError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            QaError::Overloaded {
                reason,
                retry_after_ms,
            } => {
                write!(f, "overloaded: {reason} (retry after {retry_after_ms} ms)")
            }
        }
    }
}

impl std::error::Error for QaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            QaError::UnknownSubCollection(9).to_string(),
            "unknown sub-collection C9"
        );
        assert_eq!(
            QaError::NoKeywords(QuestionId::new(3)).to_string(),
            "question Q3 produced no keywords"
        );
        assert!(QaError::InvalidConfig("x".into()).to_string().contains("x"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&QaError::Codec("bad".into()));
    }
}
