//! Migration pacing: background re-sharding yields to foreground
//! questions.
//!
//! The throttle is a pure decision function — the caller supplies the
//! foreground occupancy it reads at its admission gate (runtime: the
//! [`AdmissionGate`] in-flight count; DES: the virtual in-flight counter)
//! and the throttle answers whether the next migration step may start
//! now. Three independent brakes:
//!
//! * a concurrency cap (`max_concurrent` steps in flight),
//! * a foreground-headroom gate: when the admission gate is above
//!   `headroom` of its capacity, migrations wait — in-flight questions
//!   keep their deadlines, healing takes the leftovers,
//! * operator/fault stall windows (`RebalanceStall`), during which
//!   nothing migrates at all.
//!
//! A denied step is *deferred*, never dropped: the plan's remaining steps
//! stay queued and the journal's exactly-once accounting is untouched.

use serde::{Deserialize, Serialize};

/// How many times in a row background work (a migration step, a scrub
/// quantum) yields to a busy foreground before it goes anyway: healing
/// and scrubbing must stay live under a persistently full gate.
pub const MAX_DEFERRALS: u32 = 64;

/// Why the throttle deferred (or allowed) a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThrottleVerdict {
    /// The step may start now.
    Go,
    /// A stall window is open.
    Stalled,
    /// `max_concurrent` steps are already in flight.
    Saturated,
    /// Foreground occupancy is above the headroom line.
    Yielding,
}

impl ThrottleVerdict {
    /// Whether the verdict lets the step start.
    pub fn is_go(self) -> bool {
        self == ThrottleVerdict::Go
    }

    /// The `cause` label a deferral is counted under
    /// (`dqa_rebalance_throttled_total{cause}`).
    pub fn cause(self) -> &'static str {
        match self {
            ThrottleVerdict::Go => "go",
            ThrottleVerdict::Stalled => "stalled",
            ThrottleVerdict::Saturated => "saturated",
            ThrottleVerdict::Yielding => "yielding",
        }
    }
}

/// Migration pacing policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationThrottle {
    /// Maximum migration steps in flight at once.
    pub max_concurrent: usize,
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
            max_concurrent: 1,
            headroom: 0.75,
            step_secs: 0.05,
        }
    }
}

impl MigrationThrottle {
    /// Decide whether the next step may start.
    ///
    /// * `foreground_in_flight` / `capacity`: the admission gate's current
    ///   occupancy and configured `max_in_flight` (`None` = unlimited).
    /// * `active_steps`: migration steps currently in flight.
    /// * `stalled`: whether a `RebalanceStall` window is open.
    pub fn grant(
        &self,
        foreground_in_flight: usize,
        capacity: Option<usize>,
        active_steps: usize,
        stalled: bool,
    ) -> ThrottleVerdict {
        if stalled {
            return ThrottleVerdict::Stalled;
        }
        if active_steps >= self.max_concurrent.max(1) {
            return ThrottleVerdict::Saturated;
        }
        if let Some(cap) = capacity {
            if cap > 0 && (foreground_in_flight as f64) > self.headroom.clamp(0.0, 1.0) * cap as f64
            {
                return ThrottleVerdict::Yielding;
            }
        }
        ThrottleVerdict::Go
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_when_idle() {
        let t = MigrationThrottle::default();
        assert_eq!(t.grant(0, Some(8), 0, false), ThrottleVerdict::Go);
        assert!(t.grant(0, None, 0, false).is_go());
    }

    #[test]
    fn stall_window_blocks_everything() {
        let t = MigrationThrottle::default();
        assert_eq!(t.grant(0, None, 0, true), ThrottleVerdict::Stalled);
        assert_eq!(t.grant(0, None, 0, true).cause(), "stalled");
    }

    #[test]
    fn concurrency_cap_saturates() {
        let t = MigrationThrottle {
            max_concurrent: 2,
            ..MigrationThrottle::default()
        };
        assert!(t.grant(0, None, 1, false).is_go());
        assert_eq!(t.grant(0, None, 2, false), ThrottleVerdict::Saturated);
    }

    #[test]
    fn yields_to_busy_foreground() {
        let t = MigrationThrottle {
            headroom: 0.5,
            ..MigrationThrottle::default()
        };
        // 8-slot gate: above 4 in flight, migrations wait.
        assert!(t.grant(4, Some(8), 0, false).is_go());
        assert_eq!(t.grant(5, Some(8), 0, false), ThrottleVerdict::Yielding);
        // Unlimited gate: the headroom brake is inert.
        assert!(t.grant(500, None, 0, false).is_go());
    }

    #[test]
    fn round_trips_through_serde() {
        let t = MigrationThrottle {
            max_concurrent: 3,
            headroom: 0.9,
            step_secs: 0.01,
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: MigrationThrottle = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
