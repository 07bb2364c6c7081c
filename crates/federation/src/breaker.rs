//! Per-shard circuit breaker.
//!
//! A shard that keeps timing out stops receiving primary traffic for a
//! cooldown window: the broker routes to the replica when there is
//! one and otherwise lets the shard sit the question out, degrading the
//! merged answer's coverage instead of burning the whole question deadline
//! against a dead member. Time is plain `f64` seconds relative to an
//! origin the caller chooses, so the same breaker runs on broker-relative
//! wall seconds in the runtime and on virtual seconds in the DES mirror.

use std::sync::Mutex;

#[derive(Debug, Default, Clone, Copy)]
struct State {
    consecutive: u32,
    open_until: Option<f64>,
    trips: u64,
}

/// Consecutive-failure circuit breaker for one shard.
#[derive(Debug)]
pub struct ShardBreaker {
    threshold: u32,
    cooldown_secs: f64,
    state: Mutex<State>,
}

impl ShardBreaker {
    /// A closed breaker opening after `threshold` consecutive failures
    /// for `cooldown_secs` at a time.
    pub fn new(threshold: u32, cooldown_secs: f64) -> ShardBreaker {
        ShardBreaker {
            threshold: threshold.max(1),
            cooldown_secs: cooldown_secs.max(0.0),
            state: Mutex::new(State::default()),
        }
    }

    /// A successful shard response closes the failure streak.
    pub fn record_success(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.consecutive = 0;
    }

    /// Record a shard failure (timeout or hard error) at `now` seconds.
    /// Returns true when this failure tripped the breaker open.
    pub fn record_failure(&self, now: f64) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.consecutive += 1;
        if st.consecutive >= self.threshold {
            st.consecutive = 0;
            st.open_until = Some(now + self.cooldown_secs);
            st.trips += 1;
            true
        } else {
            false
        }
    }

    /// Whether the breaker is open at `now` seconds.
    pub fn is_open(&self, now: f64) -> bool {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        matches!(st.open_until, Some(u) if now < u)
    }

    /// Times the breaker has opened.
    pub fn trips(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_and_cools_down() {
        let b = ShardBreaker::new(3, 1.0);
        assert!(!b.record_failure(0.0));
        assert!(!b.record_failure(0.1));
        assert!(!b.is_open(0.15));
        assert!(b.record_failure(0.2), "third failure trips");
        assert!(b.is_open(0.5));
        assert!(!b.is_open(1.3), "cooldown elapsed");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let b = ShardBreaker::new(2, 1.0);
        assert!(!b.record_failure(0.0));
        b.record_success();
        assert!(!b.record_failure(0.1), "streak restarted");
        assert!(b.record_failure(0.2));
    }
}
