//! Migration pacing: background re-sharding yields to foreground
//! questions.
//!
//! The throttle is a pure decision function — the caller supplies the
//! foreground occupancy it reads at its admission gate (runtime: the
//! `AdmissionGate` in-flight count; DES: the virtual in-flight counter)
//! and the throttle answers whether the next background step must wait:
//! when the gate is above `headroom` of its capacity, in-flight questions
//! keep their deadlines and healing takes the leftovers. The other two
//! brakes on migration live in the [`Rebalancer`](crate::Rebalancer)'s
//! step queue, where both backends get them for free: steps apply one at
//! a time, a quantum apart, each plan behind the ones before it; and
//! steps minted inside a `RebalanceStall` window land when it closes.
//!
//! A denied step is *deferred*, never dropped: the plan's remaining steps
//! stay queued and the journal's exactly-once accounting is untouched.

/// How many times in a row background work (a migration step, a scrub
/// quantum) yields to a busy foreground before it goes anyway: healing
/// and scrubbing must stay live under a persistently full gate.
pub const MAX_DEFERRALS: u32 = 64;

/// Migration pacing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationThrottle {
    /// Fraction of the admission gate's in-flight capacity above which
    /// migrations yield to foreground traffic. With no capacity configured
    /// (an unlimited gate) the headroom brake is inert.
    pub headroom: f64,
    /// Modeled seconds one step takes to apply (virtual seconds in the
    /// DES; the runtime uses it as the pacing interval between steps).
    pub step_secs: f64,
}

impl Default for MigrationThrottle {
    fn default() -> Self {
        MigrationThrottle {
            headroom: 0.75,
            step_secs: 0.05,
        }
    }
}

impl MigrationThrottle {
    /// Whether the next background step must yield to foreground traffic:
    /// `in_flight` of the admission gate's `capacity` (its configured
    /// `max_in_flight`; `None` = unlimited) are taken, and that is above
    /// the headroom line.
    pub fn yields(&self, in_flight: usize, capacity: Option<usize>) -> bool {
        capacity.is_some_and(|cap| {
            cap > 0 && (in_flight as f64) > self.headroom.clamp(0.0, 1.0) * cap as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ElasticConfig, Rebalancer};
    use qa_types::NodeId;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn grants_when_idle() {
        let t = MigrationThrottle::default();
        assert!(!t.yields(0, Some(8)));
        assert!(!t.yields(0, None));
        // A zero-capacity gate admits nothing: there is no foreground.
        assert!(!t.yields(0, Some(0)));
    }

    #[test]
    fn yields_to_busy_foreground() {
        let t = MigrationThrottle {
            headroom: 0.5,
            ..MigrationThrottle::default()
        };
        // 8-slot gate: above 4 in flight, migrations wait.
        assert!(!t.yields(4, Some(8)));
        assert!(t.yields(5, Some(8)));
        // Unlimited gate: the headroom brake is inert.
        assert!(!t.yields(500, None));
    }

    #[test]
    fn stall_window_blocks_everything() {
        // Minted inside a stall window, a plan's first step lands when
        // the window closes and the rest follow a quantum apart.
        let mut r = Rebalancer::new(ElasticConfig::default(), 4, 8, vec![(5.0, 60.0)]);
        let minted = r.drain(NodeId::new(2), &nodes(4), 5.0, 1).unwrap();
        assert_eq!((minted.saturated, minted.stalled), (false, 1));
        let mut dues = Vec::new();
        while let Some(due) = r.next_due() {
            dues.push(due);
            r.step(due, 0, None);
        }
        assert_eq!(dues.len(), minted.plan.steps.len());
        assert!(dues.iter().all(|d| *d >= 60.0), "landed inside: {dues:?}");
        assert!(dues.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrency_cap_saturates() {
        // Steps apply one at a time: a second plan queues behind the
        // first, a quantum (0.05 s) per step.
        let mut r = Rebalancer::new(ElasticConfig::default(), 4, 8, Vec::new());
        let first = r.drain(NodeId::new(1), &nodes(4), 1.0, 1).unwrap();
        assert!(!first.saturated);
        assert!((r.next_due().unwrap() - 1.05).abs() < 1e-12);
        let second = r.drain(NodeId::new(2), &nodes(4), 1.0, 1).unwrap();
        assert!(second.saturated);
        let mut dues = Vec::new();
        while let Some(due) = r.next_due() {
            dues.push(due);
            r.step(due, 0, None);
        }
        assert_eq!(dues.len(), first.plan.steps.len() + second.plan.steps.len());
        assert!(dues.windows(2).all(|w| w[1] - w[0] > 0.049), "{dues:?}");
    }
}
