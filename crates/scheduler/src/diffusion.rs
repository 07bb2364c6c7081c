//! Classic load-balancing baselines from the paper's related work (§1.4):
//! sender-initiated diffusion (Willebeek-LeMair & Reeves) and the gradient
//! model (Lin & Keller). The paper compares its DQA strategy only against
//! DNS round-robin and a single global dispatcher (INTER); these two give
//! the comparison more context in the `baseline_comparison` bench.
//!
//! Both are *local* policies: SID probes a bounded neighbor set instead of
//! reading a global load table; the gradient model routes work one hop at a
//! time toward the nearest lightly-loaded node on a ring topology.

use qa_types::{NodeId, ResourceVector};

/// Sender-initiated diffusion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderDiffusion {
    /// A node with load above this watermark tries to shed new work.
    pub high_watermark: f64,
    /// How many successive peers are probed (bounded probing is the point
    /// of diffusion methods — no global knowledge).
    pub probe_limit: usize,
    /// Minimum load advantage a target must offer.
    pub threshold: f64,
}

impl Default for SenderDiffusion {
    fn default() -> Self {
        Self {
            high_watermark: 2.0,
            probe_limit: 3,
            threshold: 0.5,
        }
    }
}

impl SenderDiffusion {
    /// Decide where a task arriving at `home` should run. `loads` must be
    /// sorted by node id and include `home`; probing walks the ring
    /// starting after `home`.
    pub fn decide(
        &self,
        home: NodeId,
        loads: &[(NodeId, ResourceVector)],
        load_fn: impl Fn(ResourceVector) -> f64,
    ) -> Option<NodeId> {
        let n = loads.len();
        if n < 2 {
            return None;
        }
        let home_idx = loads.iter().position(|(id, _)| *id == home)?;
        let home_load = load_fn(loads[home_idx].1);
        if home_load <= self.high_watermark {
            return None; // not overloaded: keep the work
        }
        let mut best: Option<(NodeId, f64)> = None;
        for k in 1..=self.probe_limit.min(n - 1) {
            let (id, v) = loads[(home_idx + k) % n];
            let l = load_fn(v);
            match best {
                Some((_, bl)) if bl <= l => {}
                _ => best = Some((id, l)),
            }
        }
        match best {
            Some((id, l)) if home_load - l > self.threshold => Some(id),
            _ => None,
        }
    }
}

/// The gradient model: every node knows its *proximity* — the ring
/// distance to the nearest lightly-loaded node — and overloaded nodes
/// forward work to the neighbor with the smaller proximity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientModel {
    /// Nodes with load below this are "lightly loaded" (proximity 0).
    pub low_watermark: f64,
    /// Nodes with load above this try to shed work.
    pub high_watermark: f64,
}

impl Default for GradientModel {
    fn default() -> Self {
        Self {
            low_watermark: 0.75,
            high_watermark: 2.0,
        }
    }
}

impl GradientModel {
    /// Compute the proximity map over a ring of `loads.len()` nodes
    /// (index = position in `loads`). A node with no lightly-loaded node
    /// anywhere gets `u32::MAX`.
    pub fn proximity_map(
        &self,
        loads: &[(NodeId, ResourceVector)],
        load_fn: impl Fn(ResourceVector) -> f64,
    ) -> Vec<u32> {
        let n = loads.len();
        let mut prox = vec![u32::MAX; n];
        for (i, (_, v)) in loads.iter().enumerate() {
            if load_fn(*v) < self.low_watermark {
                prox[i] = 0;
            }
        }
        if prox.iter().all(|&p| p == u32::MAX) {
            return prox;
        }
        // Relax around the ring until fixpoint (≤ n sweeps).
        for _ in 0..n {
            let mut changed = false;
            for i in 0..n {
                let left = prox[(i + n - 1) % n].saturating_add(1);
                let right = prox[(i + 1) % n].saturating_add(1);
                let best = prox[i].min(left).min(right);
                if best < prox[i] {
                    prox[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        prox
    }

    /// One routing step: if `home` is overloaded and a ring neighbor is
    /// strictly closer to a lightly-loaded node, forward to that neighbor
    /// (work descends the gradient one hop per decision, as in the
    /// original model).
    pub fn decide(
        &self,
        home: NodeId,
        loads: &[(NodeId, ResourceVector)],
        load_fn: impl Fn(ResourceVector) -> f64,
    ) -> Option<NodeId> {
        let n = loads.len();
        if n < 2 {
            return None;
        }
        let i = loads.iter().position(|(id, _)| *id == home)?;
        if load_fn(loads[i].1) <= self.high_watermark {
            return None;
        }
        let prox = self.proximity_map(loads, &load_fn);
        if prox[i] == 0 || prox[i] == u32::MAX {
            return None;
        }
        let left = (i + n - 1) % n;
        let right = (i + 1) % n;
        let (target, target_prox) = if prox[left] <= prox[right] {
            (left, prox[left])
        } else {
            (right, prox[right])
        };
        (target_prox < prox[i]).then(|| loads[target].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadsim::functions::qa_load;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn loads(vals: &[f64]) -> Vec<(NodeId, ResourceVector)> {
        vals.iter()
            .enumerate()
            .map(|(i, &l)| (n(i as u32), ResourceVector::new(l, l)))
            .collect()
    }

    #[test]
    fn sid_keeps_work_when_not_overloaded() {
        let d = SenderDiffusion::default();
        let l = loads(&[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(d.decide(n(0), &l, qa_load), None);
    }

    #[test]
    fn sid_sheds_to_best_probed_peer() {
        let d = SenderDiffusion::default();
        // Home overloaded; probes nodes 1..=3 and picks the least loaded.
        let l = loads(&[5.0, 3.0, 0.2, 1.0, 0.0]);
        assert_eq!(d.decide(n(0), &l, qa_load), Some(n(2)));
    }

    #[test]
    fn sid_probe_limit_is_respected() {
        let d = SenderDiffusion {
            probe_limit: 2,
            ..SenderDiffusion::default()
        };
        // The idle node 4 is outside the probe window of node 0.
        let l = loads(&[5.0, 4.5, 4.6, 0.0, 0.0]);
        let got = d.decide(n(0), &l, qa_load);
        assert_ne!(got, Some(n(3)));
        assert_ne!(got, Some(n(4)));
    }

    #[test]
    fn sid_requires_a_worthwhile_gap() {
        let d = SenderDiffusion::default();
        let l = loads(&[2.5, 2.2, 2.3, 2.4]);
        assert_eq!(d.decide(n(0), &l, qa_load), None, "gap below threshold");
    }

    #[test]
    fn sid_single_node_never_migrates() {
        let d = SenderDiffusion::default();
        assert_eq!(d.decide(n(0), &loads(&[9.0]), qa_load), None);
    }

    #[test]
    fn gradient_proximity_map_ring_distances() {
        let g = GradientModel::default();
        // Only node 0 lightly loaded on a 5-ring: distances 0,1,2,2,1.
        let l = loads(&[0.0, 3.0, 3.0, 3.0, 3.0]);
        let p = g.proximity_map(&l, qa_load);
        assert_eq!(p, vec![0, 1, 2, 2, 1]);
    }

    #[test]
    fn gradient_map_all_loaded_is_saturated() {
        let g = GradientModel::default();
        let l = loads(&[3.0, 3.0, 3.0]);
        let p = g.proximity_map(&l, qa_load);
        assert!(p.iter().all(|&x| x == u32::MAX));
        assert_eq!(g.decide(n(0), &l, qa_load), None);
    }

    #[test]
    fn gradient_routes_one_hop_toward_idle_node() {
        let g = GradientModel::default();
        // Idle node 0; overloaded node 2 forwards toward 1 (prox 1 < 2).
        let l = loads(&[0.0, 3.0, 3.0, 3.0, 3.0]);
        assert_eq!(g.decide(n(2), &l, qa_load), Some(n(1)));
        // Node 3 is equidistant (2) with neighbors 2 (prox 2) and 4 (prox 1):
        // goes right.
        assert_eq!(g.decide(n(3), &l, qa_load), Some(n(4)));
    }

    #[test]
    fn gradient_idle_and_non_overloaded_nodes_stay() {
        let g = GradientModel::default();
        let l = loads(&[0.0, 1.0, 3.0]);
        assert_eq!(g.decide(n(0), &l, qa_load), None, "lightly loaded");
        assert_eq!(g.decide(n(1), &l, qa_load), None, "below high watermark");
    }
}
