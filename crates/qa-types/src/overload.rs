//! Declarative overload-control policy shared by both backends.
//!
//! The paper's load functions (Eqs. 1–3) route work *away* from busy nodes,
//! but routing alone cannot bound latency once offered load exceeds cluster
//! capacity: queues grow without limit and every question's response time
//! diverges. [`OverloadPolicy`] is the missing admission layer: a bounded
//! admission queue in front of the cluster, caps on in-flight work, a
//! per-question deadline carried from the moment of admission, and a
//! saturation threshold for per-node circuit breakers. The thread runtime
//! (`dqa-runtime`) and the discrete-event simulator (`cluster-sim`) both
//! interpret the same policy so their saturation curves are comparable.
//!
//! All durations are plain `f64` seconds, like `faults::FaultSchedule`: the
//! simulator reads them as virtual time, the runtime converts to wall-clock
//! `Duration`s (scaled by its `fault_time_scale` analogue where relevant).

use serde::Serialize;

/// Admission-control and load-shedding knobs for one cluster front-end.
///
/// The default policy is fully permissive — unlimited in-flight questions,
/// no deadline, no breaker — so existing single-question call sites behave
/// exactly as before the overload layer existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// How many questions may wait for an in-flight slot before new
    /// arrivals are rejected outright. `0` means reject as soon as the
    /// in-flight cap is hit (no queueing at all).
    pub admission_queue: usize,
    /// Cluster-wide cap on concurrently admitted questions.
    /// `None` disables admission control entirely.
    pub max_in_flight: Option<usize>,
    /// Per-node cap on resident (hosted) questions; a node at the cap is
    /// skipped at question placement, and if *every* live node is at the
    /// cap the question is rejected. `None` disables the cap.
    pub max_per_node: Option<usize>,
    /// Per-question deadline in seconds, measured from admission (so time
    /// spent waiting in the admission queue counts against it). Phases the
    /// remaining budget can no longer cover are shed, and past it a
    /// coordinator abandons outstanding chunks and closes the answer
    /// degraded. `None`: no deadline, questions wait indefinitely.
    pub deadline_secs: Option<f64>,
    /// Retry hint, in seconds, attached to every rejection.
    pub retry_after_secs: f64,
    /// Safety factor applied to per-phase demand estimates when deciding
    /// whether the remaining deadline budget covers the next phase.
    /// `1.0` sheds only when the estimate itself no longer fits; values
    /// above one shed earlier.
    pub shed_headroom: f64,
    /// Per-node circuit breaker: when a node's load-function value for the
    /// module being placed exceeds this threshold, dispatch to it is
    /// suspended for the flap-quarantine window. `None` disables breakers.
    pub breaker_load: Option<f64>,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy::unlimited()
    }
}

impl OverloadPolicy {
    /// The permissive policy: admit everything, shed nothing.
    pub fn unlimited() -> OverloadPolicy {
        OverloadPolicy {
            admission_queue: 0,
            max_in_flight: None,
            max_per_node: None,
            deadline_secs: None,
            retry_after_secs: 0.05,
            shed_headroom: 1.0,
            breaker_load: None,
        }
    }

    /// A server-style policy: cap in-flight questions at `max_in_flight`,
    /// queue up to the same number again, and hint rejected clients to
    /// retry after 50 ms. Deadlines and breakers stay off until set.
    pub fn server(max_in_flight: usize) -> OverloadPolicy {
        OverloadPolicy {
            admission_queue: max_in_flight,
            max_in_flight: Some(max_in_flight),
            ..OverloadPolicy::unlimited()
        }
    }

    /// Set the admission-queue depth.
    pub fn with_queue(mut self, depth: usize) -> OverloadPolicy {
        self.admission_queue = depth;
        self
    }

    /// Set the per-node resident-question cap.
    pub fn with_per_node_cap(mut self, cap: usize) -> OverloadPolicy {
        self.max_per_node = Some(cap);
        self
    }

    /// Set the per-question deadline (seconds from admission).
    pub fn with_deadline(mut self, secs: f64) -> OverloadPolicy {
        self.deadline_secs = Some(secs);
        self
    }

    /// Set the shed-headroom safety factor.
    pub fn with_headroom(mut self, factor: f64) -> OverloadPolicy {
        self.shed_headroom = factor;
        self
    }

    /// Enable the per-node saturation breaker at the given load value.
    pub fn with_breaker(mut self, load: f64) -> OverloadPolicy {
        self.breaker_load = Some(load);
        self
    }

    /// Whether any admission limit is active at all.
    pub fn limits_admission(&self) -> bool {
        self.max_in_flight.is_some() || self.max_per_node.is_some()
    }

    /// The admission trichotomy for one arrival that finds `in_flight`
    /// questions admitted and `waiting` parked: take a free slot, park in
    /// the bounded queue, or bounce. A zero cap can never free a slot, so
    /// it rejects at once rather than stranding the arrival in the queue.
    /// Both backends ask this one question — the runtime's
    /// `AdmissionGate` under its lock, the DES at each virtual arrival.
    pub fn offer(&self, in_flight: usize, waiting: usize) -> Offer {
        match self.max_in_flight {
            None => Offer::Admit,
            Some(cap) if in_flight < cap => Offer::Admit,
            Some(cap) if cap > 0 && waiting < self.admission_queue => Offer::Queue,
            Some(_) => Offer::Reject,
        }
    }

    /// Whether `remaining_secs` of deadline budget can no longer cover a
    /// phase estimated at `estimate_secs` (scaled by the shed headroom):
    /// the shedding decision both backends take before PR and before AP.
    /// The estimate itself is the caller's — the runtime's EWMA, the DES's
    /// sampled demand.
    pub fn cannot_afford(&self, remaining_secs: f64, estimate_secs: f64) -> bool {
        remaining_secs < estimate_secs * self.shed_headroom.max(0.0)
    }
}

/// What [`OverloadPolicy::offer`] decides for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// An in-flight slot is free: admit now.
    Admit,
    /// At capacity with queue room: wait for a slot.
    Queue,
    /// At capacity with the queue full (or a zero cap): refuse.
    Reject,
}

/// How one offered question left the system. Every question terminates in
/// exactly one of these states; the overload soak asserts the three counts
/// sum back to the offered load (zero silent drops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum QuestionOutcome {
    /// Admitted and answered with full coverage.
    Answered,
    /// Admitted, but shedding or faults degraded coverage below 100 %.
    Degraded,
    /// Refused at admission (queue full, every node at its cap, or the
    /// deadline expired while waiting for a slot).
    Rejected,
}

/// Outcome tally for one offered-load level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadCounts {
    /// Full-coverage completions.
    pub answered: usize,
    /// Partial-coverage completions.
    pub degraded: usize,
    /// Admission rejections.
    pub rejected: usize,
}

impl OverloadCounts {
    /// Record one outcome.
    pub fn record(&mut self, outcome: QuestionOutcome) {
        match outcome {
            QuestionOutcome::Answered => self.answered += 1,
            QuestionOutcome::Degraded => self.degraded += 1,
            QuestionOutcome::Rejected => self.rejected += 1,
        }
    }

    /// Total questions accounted for — must equal the offered count.
    pub fn offered(&self) -> usize {
        self.answered + self.degraded + self.rejected
    }

    /// Fraction of offered questions that did not complete with full
    /// coverage (rejected or degraded). The soak harness asserts this is
    /// monotone in offered load.
    pub fn shed_rate(&self) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        (self.rejected + self.degraded) as f64 / self.offered() as f64
    }

    /// Fraction of offered questions answered with full coverage.
    pub fn goodput(&self) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        self.answered as f64 / self.offered() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_fully_permissive() {
        let p = OverloadPolicy::default();
        assert!(!p.limits_admission());
        assert!(p.deadline_secs.is_none());
        assert!(p.breaker_load.is_none());
    }

    #[test]
    fn server_policy_caps_and_queues() {
        let p = OverloadPolicy::server(8)
            .with_deadline(2.0)
            .with_breaker(6.0);
        assert_eq!(p.max_in_flight, Some(8));
        assert_eq!(p.admission_queue, 8);
        assert!(p.limits_admission());
        assert_eq!(p.deadline_secs, Some(2.0));
        assert_eq!(p.breaker_load, Some(6.0));
    }

    #[test]
    fn offer_table() {
        let capped = |cap, queue| OverloadPolicy::server(cap).with_queue(queue);
        // (policy, in_flight, waiting, expected)
        let offers = [
            (OverloadPolicy::unlimited(), 1_000, 0, Offer::Admit),
            (capped(2, 1), 1, 0, Offer::Admit),
            (capped(2, 1), 2, 0, Offer::Queue),
            (capped(2, 1), 2, 1, Offer::Reject),
            (capped(2, 0), 2, 0, Offer::Reject),
            // A zero cap never frees a slot: queue room or not, reject.
            (capped(0, 4), 0, 0, Offer::Reject),
            (capped(0, 4), 0, 3, Offer::Reject),
        ];
        for (policy, in_flight, waiting, want) in offers {
            assert_eq!(
                policy.offer(in_flight, waiting),
                want,
                "cap {:?} queue {} at {in_flight}/{waiting}",
                policy.max_in_flight,
                policy.admission_queue
            );
        }
    }

    #[test]
    fn cannot_afford_table() {
        // (headroom, remaining, estimate, expected)
        let sheds = [
            (1.0, 2.0, 1.0, false),
            (1.0, 1.0, 1.0, false),
            (1.0, 0.5, 1.0, true),
            (2.0, 1.5, 1.0, true),
            (0.0, 0.0, 9.0, false),
            // A negative headroom is read as zero, never as "always shed".
            (-1.0, 0.1, 9.0, false),
            (1.0, -0.1, 0.0, true),
        ];
        for (headroom, remaining, estimate, want) in sheds {
            let p = OverloadPolicy::default().with_headroom(headroom);
            assert_eq!(
                p.cannot_afford(remaining, estimate),
                want,
                "headroom {headroom}, {remaining} s left for {estimate} s"
            );
        }
    }

    #[test]
    fn counts_conserve_and_rate_is_sane() {
        let mut c = OverloadCounts::default();
        for _ in 0..6 {
            c.record(QuestionOutcome::Answered);
        }
        for _ in 0..3 {
            c.record(QuestionOutcome::Degraded);
        }
        c.record(QuestionOutcome::Rejected);
        assert_eq!(c.offered(), 10);
        assert!((c.shed_rate() - 0.4).abs() < 1e-12);
        assert!((c.goodput() - 0.6).abs() < 1e-12);
    }
}
