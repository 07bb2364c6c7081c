//! Deterministic migration planners.
//!
//! A [`MigrationPlan`] is the unit the journal records and the throttle
//! paces: an ordered list of `sub: from → to` steps derived purely from
//! the ownership map and the live set, so the runtime, the DES twin and a
//! successor coordinator replaying the journal all derive byte-identical
//! plans from the same membership view. Ties always break toward the
//! lowest node id, and steps are emitted in sub-collection order —
//! determinism is load-bearing, not cosmetic (the double-run DES tests
//! replay these plans bit-stably).

use qa_types::{NodeId, SubCollectionId};

use crate::ownership::OwnershipMap;

/// What triggered a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceReason {
    /// The failure detector declared an owner permanently lost.
    PermanentLoss,
    /// Operator drain: planned decommission of a live node.
    Drain,
    /// A standby (or returning) node joined and takes its fair share.
    Join,
    /// The Eqs. 1–3 load gauges skewed past the configured threshold.
    LoadSkew,
}

impl std::fmt::Display for RebalanceReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RebalanceReason::PermanentLoss => "permanent-loss",
            RebalanceReason::Drain => "drain",
            RebalanceReason::Join => "join",
            RebalanceReason::LoadSkew => "load-skew",
        };
        f.write_str(s)
    }
}

/// One ownership transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStep {
    /// The sub-collection being re-homed.
    pub sub: SubCollectionId,
    /// Previous owner (dead, draining, or merely hot).
    pub from: NodeId,
    /// New owner: a live survivor.
    pub to: NodeId,
}

/// A journaled, term-fenced unit of membership change.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// Plan id, unique per coordinator incarnation (monotone counter).
    pub id: u64,
    /// Coordinator term the plan was minted under; a successor replaying
    /// the journal re-applies only this plan's unfinished steps, and a
    /// deposed incarnation's late steps are fenced by the term check.
    pub term: u64,
    /// What triggered the plan.
    pub reason: RebalanceReason,
    /// The ordered transfers.
    pub steps: Vec<MigrationStep>,
}

impl MigrationPlan {
    /// Whether the plan moves nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Pick the target with the fewest owned sub-collections (ties → lowest
/// node id) and bump its running count.
fn least_loaded(counts: &mut [(NodeId, usize)]) -> NodeId {
    let (idx, _) = counts
        .iter()
        .enumerate()
        .min_by_key(|(_, (n, c))| (*c, *n))
        .expect("at least one survivor");
    counts[idx].1 += 1;
    counts[idx].0
}

/// Evacuate every sub-collection owned by `victim` onto `survivors`,
/// least-loaded-first. Produced on permanent loss (detector verdict) and
/// on operator drain — only the [`RebalanceReason`] differs.
pub fn plan_evacuation(
    map: &OwnershipMap,
    victim: NodeId,
    survivors: &[NodeId],
    reason: RebalanceReason,
    id: u64,
    term: u64,
) -> MigrationPlan {
    let survivors: Vec<NodeId> = survivors.iter().copied().filter(|n| *n != victim).collect();
    let mut counts = map.counts(&survivors);
    let steps = if counts.is_empty() {
        // No survivors: nothing can be planned. The caller keeps the
        // cluster degraded rather than orphaning subs onto a ghost.
        Vec::new()
    } else {
        map.owned_by(victim)
            .into_iter()
            .map(|sub| MigrationStep {
                sub,
                from: victim,
                to: least_loaded(&mut counts),
            })
            .collect()
    };
    MigrationPlan {
        id,
        term,
        reason,
        steps,
    }
}

/// Bring `newcomer` up to its fair share: move sub-collections off the
/// most-loaded current owners (highest count, ties → highest node id so
/// the donor choice is stable) until the newcomer holds
/// `⌊shards / live-after-join⌋`.
pub fn plan_join(
    map: &OwnershipMap,
    newcomer: NodeId,
    live_after_join: &[NodeId],
    id: u64,
    term: u64,
) -> MigrationPlan {
    let pool: Vec<NodeId> = live_after_join.to_vec();
    let fair = if pool.is_empty() {
        0
    } else {
        map.len() / pool.len()
    };
    let already = map.owned_by(newcomer).len();
    let want = fair.saturating_sub(already);
    let mut steps = Vec::with_capacity(want);
    let mut counts: Vec<(NodeId, usize)> = map
        .counts(&map.owners())
        .into_iter()
        .filter(|(n, _)| *n != newcomer)
        .collect();
    for _ in 0..want {
        // Donor: most-loaded owner still above the fair share.
        let Some((idx, _)) = counts
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| *c > fair)
            .max_by_key(|(_, (n, c))| (*c, *n))
        else {
            break;
        };
        let donor = counts[idx].0;
        // Deterministic choice: the donor's lowest-id sub-collection not
        // already planned away.
        let Some(sub) = map
            .owned_by(donor)
            .into_iter()
            .find(|s| steps.iter().all(|st: &MigrationStep| st.sub != *s))
        else {
            break;
        };
        counts[idx].1 -= 1;
        steps.push(MigrationStep {
            sub,
            from: donor,
            to: newcomer,
        });
    }
    MigrationPlan {
        id,
        term,
        reason: RebalanceReason::Join,
        steps,
    }
}

/// Skew-triggered single-step plan: when the spread between the hottest
/// and coolest live node's load-gauge value exceeds `threshold`, move one
/// sub-collection (the hottest node's lowest-id one) to the coolest node.
/// One step per invocation keeps the control loop gentle — repeated
/// triggers converge without oscillation because the gauge moves with the
/// migrated work.
pub fn plan_skew(
    map: &OwnershipMap,
    loads: &[(NodeId, f64)],
    threshold: f64,
    id: u64,
    term: u64,
) -> Option<MigrationPlan> {
    if loads.len() < 2 {
        return None;
    }
    let hottest = loads.iter().max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.0.cmp(&a.0))
    })?;
    let coolest = loads.iter().min_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    })?;
    if hottest.0 == coolest.0 || (hottest.1 - coolest.1) <= threshold {
        return None;
    }
    let sub = map.owned_by(hottest.0).into_iter().next()?;
    Some(MigrationPlan {
        id,
        term,
        reason: RebalanceReason::LoadSkew,
        steps: vec![MigrationStep {
            sub,
            from: hottest.0,
            to: coolest.0,
        }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sub(i: u32) -> SubCollectionId {
        SubCollectionId::new(i)
    }

    #[test]
    fn evacuation_spreads_least_loaded_first_and_converges() {
        let mut map = OwnershipMap::balanced(8, &[n(0), n(1), n(2), n(3)]);
        let plan = plan_evacuation(
            &map,
            n(2),
            &[n(0), n(1), n(3)],
            RebalanceReason::PermanentLoss,
            1,
            1,
        );
        assert_eq!(plan.steps.len(), 2, "node 2 owned subs 2 and 6");
        assert!(plan.steps.iter().all(|s| s.from == n(2) && s.to != n(2)));
        for s in &plan.steps {
            map.apply_step(s);
        }
        map.verify_complete(8, &[n(0), n(1), n(3)]).unwrap();
        assert!(map.count_skew(&[n(0), n(1), n(3)]) <= 1);
    }

    #[test]
    fn evacuation_is_deterministic() {
        let map = OwnershipMap::balanced(12, &[n(0), n(1), n(2)]);
        let a = plan_evacuation(&map, n(1), &[n(0), n(2)], RebalanceReason::Drain, 7, 3);
        let b = plan_evacuation(&map, n(1), &[n(0), n(2)], RebalanceReason::Drain, 7, 3);
        assert_eq!(a, b);
        assert_eq!(a.reason, RebalanceReason::Drain);
    }

    #[test]
    fn evacuation_with_no_survivors_plans_nothing() {
        let map = OwnershipMap::balanced(4, &[n(0)]);
        let plan = plan_evacuation(&map, n(0), &[n(0)], RebalanceReason::PermanentLoss, 1, 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn join_takes_a_fair_share_from_the_most_loaded() {
        let mut map = OwnershipMap::balanced(9, &[n(0), n(1), n(2)]);
        let plan = plan_join(&map, n(3), &[n(0), n(1), n(2), n(3)], 2, 1);
        assert_eq!(plan.steps.len(), 2, "fair share is 9/4 = 2");
        assert!(plan.steps.iter().all(|s| s.to == n(3)));
        for s in &plan.steps {
            map.apply_step(s);
        }
        map.verify_complete(9, &[n(0), n(1), n(2), n(3)]).unwrap();
        assert_eq!(map.owned_by(n(3)).len(), 2);
        // Already-fair newcomer: nothing to move.
        let again = plan_join(&map, n(3), &[n(0), n(1), n(2), n(3)], 3, 1);
        assert!(again.is_empty());
    }

    #[test]
    fn skew_plan_fires_only_past_the_threshold() {
        let map = OwnershipMap::balanced(6, &[n(0), n(1)]);
        let balanced = [(n(0), 1.0), (n(1), 1.2)];
        assert!(plan_skew(&map, &balanced, 0.5, 1, 1).is_none());
        let skewed = [(n(0), 3.0), (n(1), 0.5)];
        let plan = plan_skew(&map, &skewed, 0.5, 1, 1).unwrap();
        assert_eq!(plan.reason, RebalanceReason::LoadSkew);
        assert_eq!(
            plan.steps,
            vec![MigrationStep {
                sub: sub(0),
                from: n(0),
                to: n(1)
            }]
        );
    }

    #[test]
    fn reasons_render_for_metrics_labels() {
        assert_eq!(RebalanceReason::PermanentLoss.to_string(), "permanent-loss");
        assert_eq!(RebalanceReason::Join.to_string(), "join");
    }
}
