//! Federation-tier vocabulary: the broker's robustness contract.
//!
//! The paper stops at one coordinator; ROADMAP item 1 puts a broker tier
//! in front of several coordinator *shards*, each owning a partition of
//! the corpus. This module holds the plain-data policy and status types
//! that tier shares between the thread-backed broker (`federation`), its
//! virtual-time model, `qa-cli` and the soak harnesses. Everything here
//! follows the `OverloadPolicy` conventions: durations are `f64` seconds
//! (virtual in the DES, scaled wall-clock in the runtime) and defaults are
//! permissive.

use serde::Serialize;

/// Scatter-gather policy for one federation broker.
///
/// The contract the policy encodes: a slow, crashed or partitioned shard
/// degrades the merged answer's [`Coverage`](crate::Coverage) — it never
/// fails the question and never drops it silently. Hedging is budgeted
/// (like the coordinator's chunk speculation) and deduplicated per shard:
/// whichever of primary/replica answers first wins, the loser's reply is
/// discarded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationPolicy {
    /// Shards that must respond before the merged answer counts as
    /// quorum-complete. Below quorum the broker *still* answers from what
    /// it has (annotated, never an error) and counts a quorum shortfall.
    pub quorum: usize,
    /// Floor on the hedge trigger, seconds: a shard slower than
    /// `max(hedge_after_secs, its EWMA p99)` gets a hedged retry against
    /// its replica, budget permitting.
    pub hedge_after_secs: f64,
    /// Hedged requests allowed per question across all shards. `0`
    /// disables hedging.
    pub hedge_budget: usize,
    /// Per-shard deadline, seconds, when the overload policy carries no
    /// question deadline of its own.
    pub default_deadline_secs: f64,
}

/// Fraction of the question deadline each shard request may spend before
/// the broker stops waiting for it.
const SHARD_DEADLINE_FRAC: f64 = 0.9;

impl FederationPolicy {
    /// The policy used when nothing is configured: majority quorum over
    /// `shards` and a generous hedge floor.
    pub fn for_shards(shards: usize) -> FederationPolicy {
        FederationPolicy {
            quorum: shards / 2 + 1,
            ..FederationPolicy::default()
        }
    }

    /// Set the quorum (clamped to at least 1 by consumers; stored as-is).
    pub fn with_quorum(mut self, quorum: usize) -> FederationPolicy {
        self.quorum = quorum;
        self
    }

    /// Set the hedge-trigger floor in seconds.
    pub fn with_hedge_after(mut self, secs: f64) -> FederationPolicy {
        self.hedge_after_secs = secs.max(0.0);
        self
    }

    /// Set the per-question hedge budget.
    pub fn with_hedge_budget(mut self, budget: usize) -> FederationPolicy {
        self.hedge_budget = budget;
        self
    }

    /// The per-shard deadline in seconds given the question deadline the
    /// overload policy carries (if any).
    pub fn shard_deadline(&self, question_deadline_secs: Option<f64>) -> f64 {
        let base = question_deadline_secs.unwrap_or(self.default_deadline_secs);
        (base * SHARD_DEADLINE_FRAC).max(1e-3)
    }
}

impl Default for FederationPolicy {
    fn default() -> Self {
        FederationPolicy {
            quorum: 1,
            hedge_after_secs: 0.25,
            hedge_budget: 2,
            default_deadline_secs: 30.0,
        }
    }
}

/// How one shard left one scatter-gathered question. Exactly one status
/// per shard per question — the conservation ledger the federation soak
/// sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ShardStatus {
    /// The shard answered with full coverage.
    Answered,
    /// The shard answered but its own coordinator degraded coverage.
    Degraded,
    /// The shard's admission gate refused the question (retry-after hint
    /// aggregated at the broker).
    Rejected,
    /// The shard request failed hard (coordinator error).
    Failed,
    /// No reply within the per-shard deadline.
    TimedOut,
    /// The shard (and its replica, if any) was down or unreachable when
    /// the broker scattered.
    Down,
    /// The shard's circuit breaker was open and no replica could absorb
    /// the request.
    BreakerOpen,
}

impl ShardStatus {
    /// True when the shard contributed answers to the merge.
    pub fn responded(&self) -> bool {
        matches!(self, ShardStatus::Answered | ShardStatus::Degraded)
    }

    /// Stable label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShardStatus::Answered => "answered",
            ShardStatus::Degraded => "degraded",
            ShardStatus::Rejected => "rejected",
            ShardStatus::Failed => "failed",
            ShardStatus::TimedOut => "timed_out",
            ShardStatus::Down => "down",
            ShardStatus::BreakerOpen => "breaker_open",
        }
    }

    /// Deterministic code for digesting (bit-stable replay assertions).
    pub fn code(&self) -> u64 {
        match self {
            ShardStatus::Answered => 0,
            ShardStatus::Degraded => 1,
            ShardStatus::Rejected => 2,
            ShardStatus::Failed => 3,
            ShardStatus::TimedOut => 4,
            ShardStatus::Down => 5,
            ShardStatus::BreakerOpen => 6,
        }
    }
}

/// Per-shard accounting for one question, carried on the merged answer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ShardReport {
    /// Which shard.
    pub shard: u32,
    /// How it left the question.
    pub status: ShardStatus,
    /// Response latency in seconds (0 for non-responders).
    pub latency_secs: f64,
    /// Whether a hedged retry was issued against this shard's replica.
    pub hedged: bool,
    /// Whether the hedged replica reply, not the primary's, was used.
    pub hedge_won: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_quorum_and_defaults() {
        assert_eq!(FederationPolicy::for_shards(1).quorum, 1);
        assert_eq!(FederationPolicy::for_shards(2).quorum, 2);
        assert_eq!(FederationPolicy::for_shards(4).quorum, 3);
        let p = FederationPolicy::default();
        assert!(p.hedge_budget > 0);
    }

    #[test]
    fn shard_deadline_derives_from_question_deadline() {
        let p = FederationPolicy::default();
        let d = p.shard_deadline(Some(10.0));
        assert!((d - 9.0).abs() < 1e-9);
        let fallback = p.shard_deadline(None);
        assert!((fallback - 27.0).abs() < 1e-9);
        // Never collapses to zero.
        assert!(p.shard_deadline(Some(0.0)) > 0.0);
    }

    #[test]
    fn statuses_partition_into_responders_and_not() {
        assert!(ShardStatus::Answered.responded());
        assert!(ShardStatus::Degraded.responded());
        for s in [
            ShardStatus::Rejected,
            ShardStatus::Failed,
            ShardStatus::TimedOut,
            ShardStatus::Down,
            ShardStatus::BreakerOpen,
        ] {
            assert!(!s.responded(), "{s:?}");
        }
    }

    #[test]
    fn status_codes_are_distinct() {
        let all = [
            ShardStatus::Answered,
            ShardStatus::Degraded,
            ShardStatus::Rejected,
            ShardStatus::Failed,
            ShardStatus::TimedOut,
            ShardStatus::Down,
            ShardStatus::BreakerOpen,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.code(), b.code());
                assert_ne!(a.label(), b.label());
            }
        }
    }
}
