//! Lease/phi-style failure detector.
//!
//! Pure accrual detector over caller-supplied timestamps: each node's
//! heartbeats feed an EWMA of its inter-arrival gap, and the *suspicion*
//! of a node is the ratio of the current silence to that learned gap (a
//! simplified phi — linear, not logarithmic, which keeps the DES
//! bit-stable without transcendental functions). Two thresholds split the
//! verdict three ways:
//!
//! * below `suspect_phi` the node is [`NodeHealth::Alive`];
//! * between the thresholds it is [`NodeHealth::Suspect`] — a transient
//!   straggler. Dispatchers may deprioritize it but the rebalancer does
//!   NOT migrate: moving sub-collections on a late heartbeat is how
//!   flapping turns into migration storms;
//! * past `dead_phi` (and past the hard `lease_secs` floor) the loss is
//!   presumed permanent and an evacuation plan is warranted.
//!
//! Operator intent bypasses the accrual math: [`FailureDetector::mark_left`]
//! (drain) makes a node immediately `Dead`, [`FailureDetector::mark_joined`]
//! re-arms it as freshly alive.

use qa_types::NodeId;

/// EWMA weight for new inter-heartbeat gap observations.
const GAP_ALPHA: f64 = 0.2;

/// Detector thresholds. Defaults suit heartbeat intervals of ~5 ms (the
/// runtime) and are expressed as ratios, so the same config drives the DES
/// where heartbeats are virtual-time monitor broadcasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Hard lease: a node is never declared `Dead` sooner than this many
    /// seconds after its last heartbeat, whatever the ratio says.
    pub lease_secs: f64,
    /// Suspicion ratio (silence ÷ learned gap) past which a node is
    /// `Suspect`.
    pub suspect_phi: f64,
    /// Suspicion ratio past which — once the lease has also lapsed — the
    /// loss is presumed permanent.
    pub dead_phi: f64,
    /// Gap floor (seconds): protects the ratio from a burst of
    /// back-to-back heartbeats learning a near-zero gap.
    pub min_gap_secs: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            lease_secs: 0.5,
            suspect_phi: 4.0,
            dead_phi: 16.0,
            min_gap_secs: 0.001,
        }
    }
}

/// Three-way liveness verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Heartbeating on schedule.
    Alive,
    /// Late — a transient straggler until proven otherwise. No migration.
    Suspect,
    /// Permanently lost (or operator-drained): evacuate its
    /// sub-collections.
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct NodeTrack {
    last_beat: f64,
    ewma_gap: Option<f64>,
    left: bool,
}

/// Accrual failure detector over one cluster's heartbeat streams.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: DetectorConfig,
    tracks: Vec<NodeTrack>,
}

impl FailureDetector {
    /// A detector for `nodes` nodes, all treated as having heartbeat at
    /// `start` (so nothing is declared dead before it had a chance to
    /// speak).
    pub fn new(nodes: usize, cfg: DetectorConfig, start: f64) -> FailureDetector {
        FailureDetector {
            cfg,
            tracks: vec![
                NodeTrack {
                    last_beat: start,
                    ewma_gap: None,
                    left: false,
                };
                nodes
            ],
        }
    }

    /// Fold in one heartbeat from `node` at time `at`. Out-of-order or
    /// duplicate beats (same timestamp) are absorbed without corrupting
    /// the gap estimate.
    pub fn observe(&mut self, node: NodeId, at: f64) {
        let Some(t) = self.tracks.get_mut(node.index()) else {
            return;
        };
        let gap = (at - t.last_beat).max(0.0);
        if gap > 0.0 {
            let gap = gap.max(self.cfg.min_gap_secs);
            t.ewma_gap = Some(match t.ewma_gap {
                Some(g) => (1.0 - GAP_ALPHA) * g + GAP_ALPHA * gap,
                None => gap,
            });
        }
        t.last_beat = t.last_beat.max(at);
    }

    /// Operator drain: the node is immediately `Dead` for planning
    /// purposes, regardless of its heartbeats.
    pub fn mark_left(&mut self, node: NodeId) {
        if let Some(t) = self.tracks.get_mut(node.index()) {
            t.left = true;
        }
    }

    /// Operator join (or rejoin): re-arm the node as freshly alive at
    /// `at`, resetting its learned gap.
    pub fn mark_joined(&mut self, node: NodeId, at: f64) {
        if let Some(t) = self.tracks.get_mut(node.index()) {
            t.left = false;
            t.last_beat = at;
            t.ewma_gap = None;
        }
    }

    /// The linear suspicion level of `node` at time `now`: silence since
    /// the last heartbeat divided by the learned (or floor) gap. Infinite
    /// for operator-drained nodes.
    pub fn suspicion(&self, node: NodeId, now: f64) -> f64 {
        let Some(t) = self.tracks.get(node.index()) else {
            return f64::INFINITY;
        };
        if t.left {
            return f64::INFINITY;
        }
        let gap = t
            .ewma_gap
            .unwrap_or(self.cfg.lease_secs)
            .max(self.cfg.min_gap_secs);
        (now - t.last_beat).max(0.0) / gap
    }

    /// The three-way verdict for `node` at time `now`.
    pub fn health(&self, node: NodeId, now: f64) -> NodeHealth {
        let Some(t) = self.tracks.get(node.index()) else {
            return NodeHealth::Dead;
        };
        if t.left {
            return NodeHealth::Dead;
        }
        let phi = self.suspicion(node, now);
        let silence = (now - t.last_beat).max(0.0);
        if phi >= self.cfg.dead_phi && silence >= self.cfg.lease_secs {
            NodeHealth::Dead
        } else if phi >= self.cfg.suspect_phi {
            NodeHealth::Suspect
        } else {
            NodeHealth::Alive
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// Whether the detector tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn steady(det: &mut FailureDetector, node: NodeId, from: f64, beats: usize, gap: f64) -> f64 {
        let mut t = from;
        for _ in 0..beats {
            t += gap;
            det.observe(node, t);
        }
        t
    }

    #[test]
    fn steady_heartbeats_stay_alive() {
        let mut det = FailureDetector::new(2, DetectorConfig::default(), 0.0);
        let t = steady(&mut det, n(0), 0.0, 100, 0.005);
        assert_eq!(det.health(n(0), t + 0.005), NodeHealth::Alive);
        assert!(det.suspicion(n(0), t + 0.005) < 2.0);
    }

    #[test]
    fn transient_straggler_is_suspect_not_dead() {
        let mut det = FailureDetector::new(1, DetectorConfig::default(), 0.0);
        let t = steady(&mut det, n(0), 0.0, 50, 0.005);
        // Silence of 10 gaps: well past suspect_phi, but the 0.5 s hard
        // lease has not lapsed — a straggler, never a migration trigger.
        assert_eq!(det.health(n(0), t + 0.05), NodeHealth::Suspect);
        // The straggler recovers: one heartbeat re-arms it.
        det.observe(n(0), t + 0.06);
        assert_eq!(det.health(n(0), t + 0.065), NodeHealth::Alive);
    }

    #[test]
    fn long_silence_past_the_lease_is_permanent_loss() {
        let cfg = DetectorConfig::default();
        let mut det = FailureDetector::new(1, cfg, 0.0);
        let t = steady(&mut det, n(0), 0.0, 50, 0.005);
        assert_eq!(det.health(n(0), t + 1.0), NodeHealth::Dead);
    }

    #[test]
    fn lease_floor_delays_death_even_at_high_phi() {
        let cfg = DetectorConfig {
            lease_secs: 2.0,
            ..DetectorConfig::default()
        };
        let mut det = FailureDetector::new(1, cfg, 0.0);
        let t = steady(&mut det, n(0), 0.0, 50, 0.005);
        // phi is enormous at +1 s, but the 2 s lease holds.
        assert_eq!(det.health(n(0), t + 1.0), NodeHealth::Suspect);
        assert_eq!(det.health(n(0), t + 2.5), NodeHealth::Dead);
    }

    #[test]
    fn operator_drain_and_join_bypass_the_accrual_math() {
        let mut det = FailureDetector::new(2, DetectorConfig::default(), 0.0);
        let t = steady(&mut det, n(1), 0.0, 10, 0.005);
        det.mark_left(n(1));
        assert_eq!(det.health(n(1), t), NodeHealth::Dead);
        assert!(det.suspicion(n(1), t).is_infinite());
        det.mark_joined(n(1), t + 1.0);
        assert_eq!(det.health(n(1), t + 1.0), NodeHealth::Alive);
    }

    #[test]
    fn unknown_node_is_dead() {
        let det = FailureDetector::new(1, DetectorConfig::default(), 0.0);
        assert_eq!(det.health(n(9), 0.0), NodeHealth::Dead);
    }

    #[test]
    fn duplicate_and_out_of_order_beats_are_harmless() {
        let mut det = FailureDetector::new(1, DetectorConfig::default(), 0.0);
        let t = steady(&mut det, n(0), 0.0, 20, 0.005);
        det.observe(n(0), t); // duplicate timestamp
        det.observe(n(0), t - 0.003); // out of order
        assert_eq!(det.health(n(0), t + 0.005), NodeHealth::Alive);
    }
}
