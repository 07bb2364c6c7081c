#![warn(missing_docs)]
//! Unified, seeded fault-injection framework.
//!
//! The paper's failure story (Figs. 5c/6b) is crash-stop only: a
//! partition's node dies, the sender or receiver reschedules it. A
//! production-scale DQA system faces a richer fault space — transient
//! crashes with rejoin, stragglers, lost/delayed/duplicated messages, and
//! dispatchers acting on stale load information. This crate defines one
//! declarative [`FaultSchedule`] that *both* backends honor:
//!
//! * `cluster-sim` interprets event times as **virtual seconds** and folds
//!   link faults into the network model (per-flow drop → modeled
//!   retransmission timeout, delay → an added latency stage, duplication →
//!   doubled bytes on the wire);
//! * `dqa-runtime` interprets event times as **scaled wall-clock offsets**
//!   (a `ChaosDriver` thread applies crashes/rejoins/straggler windows) and
//!   wraps its channel links in a fault-injecting channel layer that
//!   drops, delays or duplicates envelopes.
//!
//! Every stochastic decision is a pure function of `(seed, flow, sequence
//! number)` via a splitmix64 hash — no RNG state is threaded through the
//! backends, so the same schedule replays bit-for-bit regardless of thread
//! interleaving or call order, which is what makes the DES double-run
//! determinism tests possible under every fault type.

use qa_types::rng::{mix, unit_f64};
use qa_types::NodeId;

/// One scheduled fault. Times are seconds: virtual seconds in the DES,
/// scaled wall-clock offsets in the thread runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The node crashes at `at`; with `rejoin = Some(t)` it comes back at
    /// `t` with empty state (transient failure), otherwise it is gone for
    /// good (the paper's crash-stop model).
    Crash {
        /// Node that fails.
        node: NodeId,
        /// Failure time (seconds).
        at: f64,
        /// Optional rejoin time (seconds, must be > `at`).
        rejoin: Option<f64>,
    },
    /// The node runs slow between `from` and `until`: its CPU and disk
    /// progress at `factor` of normal speed (`0.25` = four times slower).
    Straggler {
        /// Node that straggles.
        node: NodeId,
        /// Window start (seconds).
        from: f64,
        /// Window end (seconds).
        until: f64,
        /// Speed multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The *coordinator* (meta-scheduler leader) crashes at `at`. Unlike
    /// a worker [`FaultEvent::Crash`], this kills scheduling state, not a
    /// sub-collection: a standby must win the lease, replay the question
    /// journal and resume every in-flight question. With
    /// `rejoin = Some(t)` the ex-leader comes back at `t` as a fenced
    /// standby (its stale-term grants must be rejected).
    CoordinatorCrash {
        /// Crash time (seconds).
        at: f64,
        /// Optional time the ex-leader rejoins as a standby.
        rejoin: Option<f64>,
    },
    /// The leader is partitioned from its standbys in `[from, until)`:
    /// it keeps serving questions but its heartbeats are lost, so a
    /// standby promotes itself once the lease expires and the old leader
    /// becomes a zombie whose journal appends are fenced until the
    /// partition heals.
    LeaderPartition {
        /// Partition start (seconds).
        from: f64,
        /// Partition end (seconds).
        until: f64,
    },
    /// A whole coordinator *shard* behind the federation broker goes down
    /// at `at`: its coordinator, nodes and replica stop answering. With
    /// `rejoin = Some(t)` the shard serves again from `t`. Questions
    /// scattered while the shard is down (or in flight across the window)
    /// lose that shard's partial answer — the broker degrades federation
    /// coverage, it never fails the question. Per-shard sims and the
    /// board-level chaos driver ignore this event: only the broker tier
    /// consumes it.
    ShardDown {
        /// Shard index within the federation.
        shard: u32,
        /// Failure time (seconds).
        at: f64,
        /// Optional time the shard serves again.
        rejoin: Option<f64>,
    },
    /// The broker is partitioned from shard `shard` in `[from, until)`:
    /// the shard keeps running but its replies cannot reach the broker,
    /// which is indistinguishable (to the broker) from the shard being
    /// down — except the shard needs no recovery when the window closes.
    ShardPartition {
        /// Shard index within the federation.
        shard: u32,
        /// Partition start (seconds).
        from: f64,
        /// Partition end (seconds).
        until: f64,
    },
    /// The federation broker itself crashes at `at`. With
    /// `rejoin = Some(t)` a restarted broker resumes service at `t` and
    /// questions arriving inside the outage are *held* and re-offered at
    /// the rejoin (never lost); a permanent crash turns every later
    /// arrival into an honest rejection with a retry hint.
    BrokerCrash {
        /// Crash time (seconds).
        at: f64,
        /// Optional time the restarted broker serves again.
        rejoin: Option<f64>,
    },
    /// Operator decommission (`drain`): the node leaves the pool at `at`
    /// *gracefully* — the elastic tier evacuates its sub-collections onto
    /// survivors before it stops serving. Unlike [`FaultEvent::Crash`]
    /// nothing is lost; unlike a straggler window the departure is
    /// permanent (only a later [`FaultEvent::NodeJoin`] brings it back).
    NodeDecommission {
        /// Node that drains out.
        node: NodeId,
        /// Drain time (seconds).
        at: f64,
    },
    /// A standby (or previously drained) node joins the pool at `at`: the
    /// elastic tier migrates the newcomer's fair share of sub-collections
    /// onto it, throttled behind foreground traffic.
    NodeJoin {
        /// Node that joins.
        node: NodeId,
        /// Join time (seconds).
        at: f64,
    },
    /// Migration stall window `[from, until)`: the rebalancer may plan but
    /// must not apply steps — modeling an operator pause or a saturated
    /// replication path. Foreground questions are unaffected; healing
    /// resumes when the window closes.
    RebalanceStall {
        /// Window start (seconds).
        from: f64,
        /// Window end (seconds).
        until: f64,
    },
    /// A single bit flips inside the targeted byte store at `at` — the
    /// fail-silent fault the checksummed `DQAIDX3` format exists to
    /// catch. *Which* byte and bit are not stored in
    /// the event: [`CorruptionJudge`] derives them as a pure function of
    /// `(seed, target, buffer length)`, so replays corrupt the same bit
    /// regardless of thread interleaving.
    BitFlip {
        /// The byte store the flip lands in.
        target: CorruptTarget,
        /// Corruption time (seconds).
        at: f64,
    },
    /// The targeted byte store is cut short at `at`, as if the writer
    /// lost power mid-write: every byte past a judge-chosen tear point is
    /// dropped. Against an index segment it must surface as a length/CRC
    /// error, never a silently smaller index.
    TornWrite {
        /// The byte store that is torn.
        target: CorruptTarget,
        /// Corruption time (seconds).
        at: f64,
    },
}

/// Which byte store a [`FaultEvent::BitFlip`] / [`FaultEvent::TornWrite`]
/// lands in. Each target maps to a stable `u64` flow key so the
/// [`CorruptionJudge`]'s decisions are pure per-target functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorruptTarget {
    /// The persisted index segment of one sub-collection.
    IndexSegment {
        /// Sub-collection whose segment is damaged.
        sub: u32,
    },
}

impl CorruptTarget {
    /// Stable flow key for the splitmix64 decision hash. The high bits tag
    /// the index-segment target space; every seeded corruption decision,
    /// and the digests over them, depend on the tag staying as it is.
    pub fn flow_key(&self) -> u64 {
        let CorruptTarget::IndexSegment { sub } = *self;
        0x1000_0000_0000_0000 | u64::from(sub)
    }
}

/// Per-message link-fault probabilities. Applied independently to every
/// message on the coordinator↔worker links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is lost.
    pub loss: f64,
    /// Probability a message is delayed by [`LinkFaults::delay_secs`].
    pub delay_prob: f64,
    /// Added latency of a delayed message (seconds).
    pub delay_secs: f64,
    /// Probability a message is duplicated.
    pub dup: f64,
    /// Modeled retransmission timeout the DES charges for a lost message
    /// before the retry goes out (seconds). The thread runtime does not
    /// retransmit at the link layer — a lost envelope is recovered by the
    /// coordinator's retry/speculation policy.
    pub retransmit_secs: f64,
}

impl LinkFaults {
    /// A fault-free link.
    pub fn none() -> LinkFaults {
        LinkFaults {
            loss: 0.0,
            delay_prob: 0.0,
            delay_secs: 0.0,
            dup: 0.0,
            retransmit_secs: 0.5,
        }
    }

    /// True when every probability is zero (the judge can short-circuit).
    pub fn is_clean(&self) -> bool {
        self.loss <= 0.0 && self.delay_prob <= 0.0 && self.dup <= 0.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// The declarative fault schedule both backends consume.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Seed for every per-message/per-packet decision.
    pub seed: u64,
    /// Crash/rejoin and straggler events.
    pub events: Vec<FaultEvent>,
    /// Link-level message faults.
    pub link: LinkFaults,
    /// Probability a load-monitor broadcast packet is lost (dispatchers
    /// then act on the receiver's stale view of that node).
    pub monitor_loss: f64,
}

impl FaultSchedule {
    /// The empty schedule: no faults, seed 0.
    pub fn none() -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            events: Vec::new(),
            link: LinkFaults::none(),
            monitor_loss: 0.0,
        }
    }

    /// A schedule with the given decision seed and no faults yet.
    pub fn seeded(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            ..FaultSchedule::none()
        }
    }

    /// Add a permanent crash (crash-stop, the paper's model).
    pub fn crash(mut self, node: NodeId, at: f64) -> Self {
        self.events.push(FaultEvent::Crash {
            node,
            at,
            rejoin: None,
        });
        self
    }

    /// Add a transient crash: down at `at`, back (with reset state) at
    /// `rejoin`.
    pub fn crash_rejoin(mut self, node: NodeId, at: f64, rejoin: f64) -> Self {
        debug_assert!(rejoin > at, "rejoin must follow the crash");
        self.events.push(FaultEvent::Crash {
            node,
            at,
            rejoin: Some(rejoin),
        });
        self
    }

    /// Add a straggler window: `node` runs at `factor` speed in
    /// `[from, until)`.
    pub fn straggler(mut self, node: NodeId, from: f64, until: f64, factor: f64) -> Self {
        debug_assert!(until > from, "straggler window must be non-empty");
        debug_assert!(factor > 0.0, "factor must be positive");
        self.events.push(FaultEvent::Straggler {
            node,
            from,
            until,
            factor: factor.clamp(1e-3, 1.0),
        });
        self
    }

    /// Add a permanent coordinator (leader) crash at `at`.
    pub fn coordinator_crash(mut self, at: f64) -> Self {
        self.events
            .push(FaultEvent::CoordinatorCrash { at, rejoin: None });
        self
    }

    /// Add a transient coordinator crash: the leader dies at `at` and
    /// rejoins as a fenced standby at `rejoin`.
    pub fn coordinator_crash_rejoin(mut self, at: f64, rejoin: f64) -> Self {
        debug_assert!(rejoin > at, "rejoin must follow the crash");
        self.events.push(FaultEvent::CoordinatorCrash {
            at,
            rejoin: Some(rejoin),
        });
        self
    }

    /// Add a leader partition window `[from, until)` during which the
    /// leader's heartbeats are lost and a standby takes over.
    pub fn leader_partition(mut self, from: f64, until: f64) -> Self {
        debug_assert!(until > from, "partition window must be non-empty");
        self.events
            .push(FaultEvent::LeaderPartition { from, until });
        self
    }

    /// Add a permanent federation-shard crash at `at`.
    pub fn shard_down(mut self, shard: u32, at: f64) -> Self {
        self.events.push(FaultEvent::ShardDown {
            shard,
            at,
            rejoin: None,
        });
        self
    }

    /// Add a transient federation-shard crash: down at `at`, serving
    /// again at `rejoin`.
    pub fn shard_down_rejoin(mut self, shard: u32, at: f64, rejoin: f64) -> Self {
        debug_assert!(rejoin > at, "rejoin must follow the crash");
        self.events.push(FaultEvent::ShardDown {
            shard,
            at,
            rejoin: Some(rejoin),
        });
        self
    }

    /// Add a broker↔shard partition window `[from, until)`.
    pub fn shard_partition(mut self, shard: u32, from: f64, until: f64) -> Self {
        debug_assert!(until > from, "partition window must be non-empty");
        self.events
            .push(FaultEvent::ShardPartition { shard, from, until });
        self
    }

    /// Add a transient federation-broker crash: down at `at`, back
    /// (holding and re-offering the outage's arrivals) at `rejoin`.
    pub fn broker_crash_rejoin(mut self, at: f64, rejoin: f64) -> Self {
        debug_assert!(rejoin > at, "rejoin must follow the crash");
        self.events.push(FaultEvent::BrokerCrash {
            at,
            rejoin: Some(rejoin),
        });
        self
    }

    /// Add a permanent federation-broker crash at `at`: later arrivals
    /// are rejected with a retry hint, never silently dropped.
    pub fn broker_crash(mut self, at: f64) -> Self {
        self.events
            .push(FaultEvent::BrokerCrash { at, rejoin: None });
        self
    }

    /// Add an operator decommission (graceful drain) of `node` at `at`.
    pub fn decommission(mut self, node: NodeId, at: f64) -> Self {
        self.events.push(FaultEvent::NodeDecommission { node, at });
        self
    }

    /// Add a node join at `at`: a standby or previously drained node
    /// enters the pool and receives its fair share of sub-collections.
    pub fn node_join(mut self, node: NodeId, at: f64) -> Self {
        self.events.push(FaultEvent::NodeJoin { node, at });
        self
    }

    /// Add a migration stall window `[from, until)` during which the
    /// rebalancer must not apply steps.
    pub fn rebalance_stall(mut self, from: f64, until: f64) -> Self {
        debug_assert!(until > from, "stall window must be non-empty");
        self.events.push(FaultEvent::RebalanceStall { from, until });
        self
    }

    /// Flip one judge-chosen bit in sub-collection `sub`'s persisted
    /// index segment at `at`.
    pub fn bit_flip_index(mut self, sub: u32, at: f64) -> Self {
        self.events.push(FaultEvent::BitFlip {
            target: CorruptTarget::IndexSegment { sub },
            at,
        });
        self
    }

    /// Tear sub-collection `sub`'s persisted index segment at `at`: every
    /// byte past the judge-chosen tear point is lost.
    pub fn torn_write_index(mut self, sub: u32, at: f64) -> Self {
        self.events.push(FaultEvent::TornWrite {
            target: CorruptTarget::IndexSegment { sub },
            at,
        });
        self
    }

    /// The corruption judge for this schedule: derives byte offsets, bit
    /// positions and tear points for [`FaultEvent::BitFlip`] /
    /// [`FaultEvent::TornWrite`] events as pure functions of the seed.
    pub fn corruption_judge(&self) -> CorruptionJudge {
        CorruptionJudge {
            seed: self.seed ^ 0xc0de_dead_beef_cafe,
        }
    }

    /// Set the message-loss probability.
    pub fn message_loss(mut self, p: f64) -> Self {
        self.link.loss = p.clamp(0.0, 1.0);
        self
    }

    /// Set the message-delay probability and added latency.
    pub fn message_delay(mut self, p: f64, secs: f64) -> Self {
        self.link.delay_prob = p.clamp(0.0, 1.0);
        self.link.delay_secs = secs.max(0.0);
        self
    }

    /// Set the message-duplication probability.
    pub fn message_dup(mut self, p: f64) -> Self {
        self.link.dup = p.clamp(0.0, 1.0);
        self
    }

    /// Set the load-monitor packet-loss probability.
    pub fn monitor_loss(mut self, p: f64) -> Self {
        self.monitor_loss = p.clamp(0.0, 1.0);
        self
    }

    /// True when the schedule injects nothing at all.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty() && self.link.is_clean() && self.monitor_loss <= 0.0
    }

    /// The link-fault judge for this schedule.
    pub fn link_judge(&self) -> LinkJudge {
        LinkJudge {
            seed: self.seed,
            link: self.link,
        }
    }

    /// The monitor packet-loss judge for this schedule.
    pub fn monitor_judge(&self) -> LossJudge {
        LossJudge {
            seed: self.seed ^ 0x9e37_79b9_7f4a_7c15,
            p: self.monitor_loss,
        }
    }
}

impl Default for FaultSchedule {
    fn default() -> Self {
        Self::none()
    }
}

/// What the link does with one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkDecision {
    /// Delivered unharmed.
    Deliver,
    /// Dropped on the floor.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Delivered after the given extra latency (seconds).
    Delay(f64),
}

/// Stateless per-message fault decider: a pure function of
/// `(seed, flow, msg)`. Flows number logical links (e.g. the destination
/// node); `msg` is the sender's per-flow sequence number.
#[derive(Debug, Clone, Copy)]
pub struct LinkJudge {
    seed: u64,
    link: LinkFaults,
}

impl LinkJudge {
    /// Decide the fate of message `msg` on `flow`.
    pub fn decide(&self, flow: u64, msg: u64) -> LinkDecision {
        if self.link.is_clean() {
            return LinkDecision::Deliver;
        }
        let u = unit(self.seed, flow, msg);
        let l = self.link.loss;
        let d = l + self.link.dup;
        let y = d + self.link.delay_prob;
        if u < l {
            LinkDecision::Drop
        } else if u < d {
            LinkDecision::Duplicate
        } else if u < y {
            LinkDecision::Delay(self.link.delay_secs)
        } else {
            LinkDecision::Deliver
        }
    }

    /// The modeled retransmission timeout for lost messages (seconds).
    pub fn retransmit_secs(&self) -> f64 {
        self.link.retransmit_secs
    }
}

/// Stateless corruption decider: *where* a [`FaultEvent::BitFlip`] or
/// [`FaultEvent::TornWrite`] lands in a byte buffer, as a pure function
/// of `(seed, target, buffer length)`. The backends pass the pristine
/// buffer; the judge mutates a copy. No RNG state, so a replayed
/// schedule damages the same bit of the same byte every time.
#[derive(Debug, Clone, Copy)]
pub struct CorruptionJudge {
    seed: u64,
}

impl CorruptionJudge {
    /// The byte offset a bit flip against `target` lands on, for a buffer
    /// of `len` bytes. Deterministic per `(seed, target, len)`.
    pub fn byte_offset(&self, target: CorruptTarget, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (mix(self.seed, target.flow_key(), 1) % len as u64) as usize
    }

    /// The bit (0–7) within that byte that flips.
    pub fn bit(&self, target: CorruptTarget) -> u8 {
        (mix(self.seed, target.flow_key(), 2) % 8) as u8
    }

    /// Flip one bit of `buf` in place. Returns the damaged byte offset,
    /// or `None` for an empty buffer (nothing to damage).
    pub fn flip(&self, target: CorruptTarget, buf: &mut [u8]) -> Option<usize> {
        if buf.is_empty() {
            return None;
        }
        let off = self.byte_offset(target, buf.len());
        buf[off] ^= 1 << self.bit(target);
        Some(off)
    }

    /// The tear point for a torn write against `target`: the buffer keeps
    /// `[0, point)` and loses the rest. Always in `[0, len)` for a
    /// non-empty buffer, so a torn write is never a no-op.
    pub fn tear_point(&self, target: CorruptTarget, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (mix(self.seed, target.flow_key(), 3) % len as u64) as usize
    }
}

/// Stateless single-probability loss decider (monitor packets).
#[derive(Debug, Clone, Copy)]
pub struct LossJudge {
    seed: u64,
    p: f64,
}

impl LossJudge {
    /// True when packet `msg` on `flow` is lost.
    pub fn lost(&self, flow: u64, msg: u64) -> bool {
        self.p > 0.0 && unit(self.seed, flow, msg) < self.p
    }
}

/// Bounded retry policy with exponential backoff, shared by both backends
/// (the runtime converts seconds to `Duration`, the DES uses virtual
/// seconds directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum recovery rounds per phase before the coordinator degrades.
    pub budget: u32,
    /// Base backoff before the first retry (seconds).
    pub backoff_base: f64,
    /// Backoff ceiling (seconds).
    pub backoff_cap: f64,
}

impl RetryPolicy {
    /// A policy with the given budget and a small default backoff.
    pub fn with_budget(budget: u32) -> RetryPolicy {
        RetryPolicy {
            budget,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (0-based), exponentially
    /// doubled and capped.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        let exp = attempt.min(24); // avoid overflow; cap dominates anyway
        (self.backoff_base * f64::from(1u32 << exp.min(24))).min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 16,
            backoff_base: 0.002,
            backoff_cap: 0.1,
        }
    }
}

/// Uniform in `[0, 1)` from the hash of the (seed, flow, msg) triple.
fn unit(seed: u64, flow: u64, msg: u64) -> f64 {
    unit_f64(mix(seed, flow, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn builder_accumulates_events() {
        let s = FaultSchedule::seeded(7)
            .crash(n(1), 10.0)
            .crash_rejoin(n(2), 5.0, 25.0)
            .straggler(n(0), 0.0, 50.0, 0.25)
            .message_loss(0.1)
            .message_delay(0.05, 0.2)
            .message_dup(0.02)
            .monitor_loss(0.3);
        assert_eq!(s.events.len(), 3);
        assert!(!s.is_clean());
        assert_eq!(s.link.loss, 0.1);
        assert_eq!(s.monitor_loss, 0.3);
        assert!(FaultSchedule::none().is_clean());
    }

    #[test]
    fn coordinator_fault_builders() {
        let s = FaultSchedule::seeded(11)
            .coordinator_crash(8.0)
            .coordinator_crash_rejoin(20.0, 35.0)
            .leader_partition(50.0, 60.0);
        assert_eq!(s.events.len(), 3);
        assert!(!s.is_clean());
        assert_eq!(
            s.events[0],
            FaultEvent::CoordinatorCrash {
                at: 8.0,
                rejoin: None
            }
        );
        assert_eq!(
            s.events[2],
            FaultEvent::LeaderPartition {
                from: 50.0,
                until: 60.0
            }
        );
    }

    #[test]
    fn federation_fault_builders() {
        let s = FaultSchedule::seeded(13)
            .shard_down(0, 4.0)
            .shard_down_rejoin(1, 6.0, 18.0)
            .shard_partition(2, 10.0, 20.0)
            .broker_crash_rejoin(30.0, 40.0)
            .broker_crash(90.0);
        assert_eq!(s.events.len(), 5);
        assert!(!s.is_clean());
        assert_eq!(
            s.events[0],
            FaultEvent::ShardDown {
                shard: 0,
                at: 4.0,
                rejoin: None
            }
        );
        assert_eq!(
            s.events[2],
            FaultEvent::ShardPartition {
                shard: 2,
                from: 10.0,
                until: 20.0
            }
        );
        assert_eq!(
            s.events[3],
            FaultEvent::BrokerCrash {
                at: 30.0,
                rejoin: Some(40.0)
            }
        );
    }

    #[test]
    fn elastic_membership_builders() {
        let s = FaultSchedule::seeded(17)
            .decommission(n(2), 5.0)
            .node_join(n(4), 12.0)
            .rebalance_stall(6.0, 9.0);
        assert_eq!(s.events.len(), 3);
        assert!(!s.is_clean());
        assert_eq!(
            s.events[0],
            FaultEvent::NodeDecommission {
                node: n(2),
                at: 5.0
            }
        );
        assert_eq!(
            s.events[1],
            FaultEvent::NodeJoin {
                node: n(4),
                at: 12.0
            }
        );
        assert_eq!(
            s.events[2],
            FaultEvent::RebalanceStall {
                from: 6.0,
                until: 9.0
            }
        );
    }

    #[test]
    fn corruption_builders() {
        let s = FaultSchedule::seeded(23)
            .bit_flip_index(2, 4.0)
            .torn_write_index(0, 8.0);
        assert_eq!(s.events.len(), 2);
        assert!(!s.is_clean());
        assert_eq!(
            s.events[0],
            FaultEvent::BitFlip {
                target: CorruptTarget::IndexSegment { sub: 2 },
                at: 4.0
            }
        );
        assert_eq!(
            s.events[1],
            FaultEvent::TornWrite {
                target: CorruptTarget::IndexSegment { sub: 0 },
                at: 8.0
            }
        );
    }

    #[test]
    fn corruption_judge_is_deterministic_and_per_target() {
        let s = FaultSchedule::seeded(31).bit_flip_index(0, 1.0);
        let j = s.corruption_judge();
        let idx = CorruptTarget::IndexSegment { sub: 5 };
        let other = CorruptTarget::IndexSegment { sub: 6 };
        // Same target + length → same damage, across judge instances.
        let mut a = vec![0u8; 257];
        let mut b = vec![0u8; 257];
        let off_a = j.flip(idx, &mut a).unwrap();
        let off_b = s.corruption_judge().flip(idx, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(off_a, off_b);
        assert_eq!(a.iter().filter(|&&x| x != 0).count(), 1, "exactly one bit");
        assert_eq!(a[off_a].count_ones(), 1);
        // Two segments are independent targets.
        assert!(
            j.byte_offset(idx, 100_003) != j.byte_offset(other, 100_003)
                || j.bit(idx) != j.bit(other),
            "targets must not collide"
        );
    }

    #[test]
    fn torn_write_always_loses_at_least_one_byte() {
        let j = FaultSchedule::seeded(47).corruption_judge();
        let target = CorruptTarget::IndexSegment { sub: 1 };
        for len in [1usize, 2, 9, 1024] {
            let point = j.tear_point(target, len);
            assert!(point < len, "tear at {point} of {len} dropped nothing");
        }
        assert!(j.flip(target, &mut []).is_none());
    }

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let s = FaultSchedule::seeded(42)
            .message_loss(0.2)
            .message_delay(0.2, 0.1)
            .message_dup(0.2);
        let j = s.link_judge();
        // Same triple → same decision, regardless of query order.
        let forward: Vec<_> = (0..100).map(|m| j.decide(3, m)).collect();
        let backward: Vec<_> = (0..100).rev().map(|m| j.decide(3, m)).collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
        // And a second judge from the same schedule agrees.
        let j2 = s.link_judge();
        assert_eq!(
            forward,
            (0..100).map(|m| j2.decide(3, m)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn probabilities_hit_their_targets_roughly() {
        let s = FaultSchedule::seeded(1).message_loss(0.25);
        let j = s.link_judge();
        let trials = 20_000u64;
        let drops = (0..trials)
            .filter(|&m| j.decide(m % 7, m) == LinkDecision::Drop)
            .count() as f64;
        let rate = drops / trials as f64;
        assert!((0.22..=0.28).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn clean_link_always_delivers_regardless_of_seed() {
        for seed in [0u64, 1, 99] {
            let j = FaultSchedule::seeded(seed).link_judge();
            assert!((0..50).all(|m| j.decide(0, m) == LinkDecision::Deliver));
        }
    }

    #[test]
    fn monitor_judge_is_independent_of_link_judge() {
        let s = FaultSchedule::seeded(5).message_loss(1.0).monitor_loss(0.0);
        assert_eq!(s.link_judge().decide(0, 0), LinkDecision::Drop);
        assert!(!s.monitor_judge().lost(0, 0));
        let s2 = FaultSchedule::seeded(5).monitor_loss(1.0);
        assert!(s2.monitor_judge().lost(0, 0));
        assert_eq!(s2.link_judge().decide(0, 0), LinkDecision::Deliver);
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            budget: 4,
            backoff_base: 0.01,
            backoff_cap: 0.05,
        };
        assert!((p.backoff_secs(0) - 0.01).abs() < 1e-12);
        assert!((p.backoff_secs(1) - 0.02).abs() < 1e-12);
        assert!((p.backoff_secs(2) - 0.04).abs() < 1e-12);
        assert!((p.backoff_secs(3) - 0.05).abs() < 1e-12, "capped");
        assert!((p.backoff_secs(30) - 0.05).abs() < 1e-12, "no overflow");
        assert_eq!(RetryPolicy::with_budget(3).budget, 3);
    }
}
