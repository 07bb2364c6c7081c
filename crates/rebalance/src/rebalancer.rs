//! The elastic tier's state machine: one [`Rebalancer`], two drivers.
//!
//! It owns everything the tier *decides from* — the [`ElasticConfig`], the
//! [`OwnershipMap`], who is an active member, the plan counter, the queue
//! of scheduled migration steps, the stall windows and the heal window —
//! and is clock-parameterised the way [`FailureDetector`](crate::FailureDetector)
//! and [`MigrationThrottle`] are: every `now` is an `f64` the caller
//! reads from its own clock (wall seconds since an anchor in the runtime,
//! virtual seconds in the DES). It returns plain data — the minted plan,
//! the applied step and new epoch, the deferral cause, departures, heal
//! seconds — and the caller does what only it can: metrics, journal
//! records, spans, and waiting until [`Rebalancer::next_due`] (a
//! `thread::sleep` in the runtime, the event loop's next external time in
//! the DES).
//!
//! Liveness is the caller's too (`live`: the load board's view, or the
//! DES's ground truth). Membership is not: only **active** members ever
//! receive sub-collections, so a warm standby or a draining node can be
//! as alive as it likes and still never be an evacuation, join-pool or
//! skew target.

use crate::ownership::OwnershipMap;
use crate::plan::{
    plan_evacuation, plan_join, plan_skew, MigrationPlan, MigrationStep, RebalanceReason,
};
use crate::throttle::MAX_DEFERRALS;
use crate::ElasticConfig;
use qa_types::{NodeId, SubCollectionId};
use std::collections::VecDeque;

/// A node's standing in the serving pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    /// Takes placements and sub-collections.
    Active,
    /// Evacuating: takes nothing new, departs once it owns nothing.
    Draining,
    /// Out of the pool and owning nothing until a `join`: a warm spare at
    /// boot, or a drained node after its departure.
    Standby,
}

/// A plan the rebalancer minted and scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct Minted {
    /// The plan, for the caller's journal record and reason-labelled
    /// counter. Never empty: empty plans vanish without a trace.
    pub plan: MigrationPlan,
    /// Steps were already pending, so this plan queued behind them (the
    /// throttle's concurrency cap; deferral cause `saturated`).
    pub saturated: bool,
    /// How many of its steps a stall window pushed back (cause `stalled`).
    pub stalled: usize,
}

/// What [`Rebalancer::step`] did with the head of the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stepped {
    /// Foreground questions need the headroom: the step moved one quantum
    /// later (deferral cause `yielding`).
    Deferred,
    /// The step left the queue.
    Done {
        /// The plan it belonged to.
        plan: u64,
        /// The transfer.
        step: MigrationStep,
        /// `false` when the map already showed the transfer (replayed or
        /// crash-resumed steps are absorbed, which is what makes them
        /// exactly-once).
        moved: bool,
        /// The ownership epoch afterwards.
        epoch: u64,
        /// No step of `plan` is left in the queue.
        plan_done: bool,
    },
}

/// What [`Rebalancer::settle`] found once the step queue had drained.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Settled {
    /// Drains whose remaining steps were voided mid-plan (their target
    /// died), re-planned against the current pool. When non-empty the
    /// tier is not settled yet: drive the new steps and settle again.
    pub replanned: Vec<Minted>,
    /// Draining nodes that now own nothing: they leave the pool (the
    /// runtime suspends them, the DES fails them through its crash paths).
    /// Named once — the node is a standby afterwards.
    pub departures: Vec<NodeId>,
    /// Every sub-collection is owned by a live active member.
    pub converged: bool,
    /// Seconds from the oldest unhealed plan to this convergence, when
    /// this call closed the heal window.
    pub healed_secs: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    due: f64,
    plan: u64,
    step: MigrationStep,
    deferrals: u32,
}

/// The elastic-membership state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    cfg: ElasticConfig,
    subs: u32,
    ownership: OwnershipMap,
    members: Vec<Membership>,
    /// Monotone plan-id counter, unique per coordinator incarnation.
    plan_seq: u64,
    /// Scheduled steps in due order: one per throttle quantum, each plan
    /// queued behind the ones before it.
    pending: VecDeque<Pending>,
    /// `RebalanceStall` windows sorted by start: plans are minted inside
    /// one, their steps land after it closes.
    stalls: Vec<(f64, f64)>,
    /// When the oldest unhealed plan was admitted.
    heal_start: Option<f64>,
}

impl Rebalancer {
    /// Boot state: the first `nodes - cfg.standby_nodes` nodes are active
    /// and share `subs` sub-collections by the paper's static striping;
    /// the rest are warm standbys owning nothing.
    pub fn new(cfg: ElasticConfig, nodes: usize, subs: u32, mut stalls: Vec<(f64, f64)>) -> Self {
        assert!(
            cfg.standby_nodes < nodes,
            "standby_nodes ({}) must leave at least one active node (nodes = {nodes})",
            cfg.standby_nodes
        );
        let active = nodes - cfg.standby_nodes;
        let owners: Vec<NodeId> = (0..active).map(|i| NodeId::new(i as u32)).collect();
        let mut members = vec![Membership::Active; active];
        members.resize(nodes, Membership::Standby);
        stalls.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        Rebalancer {
            cfg,
            subs,
            ownership: OwnershipMap::balanced(subs, &owners),
            members,
            plan_seq: 0,
            pending: VecDeque::new(),
            stalls,
            heal_start: None,
        }
    }

    /// The ownership map (read-only: it changes through steps, and
    /// through [`restore_owner`](Self::restore_owner) on journal replay).
    pub fn ownership(&self) -> &OwnershipMap {
        &self.ownership
    }

    /// Whether `node` is an active member — the only kind that takes new
    /// placements or sub-collections.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.members.get(node.index()) == Some(&Membership::Active)
    }

    /// Whether `node` owns any of the sub-collections `0..subs` (the ones
    /// a question's PR phase touches): the PR dispatch owner predicate.
    pub fn owns_any(&self, node: NodeId, subs: u32) -> bool {
        self.ownership.owned_by(node).iter().any(|s| s.raw() < subs)
    }

    /// The convergence invariant: every sub-collection is owned by a live
    /// active member.
    pub fn converged(&self, live: &[NodeId]) -> bool {
        let pool = self.pool(live);
        self.ownership.verify_complete(self.subs, &pool).is_ok()
    }

    /// The live active members.
    fn pool(&self, live: &[NodeId]) -> Vec<NodeId> {
        let members = live.iter().copied();
        members.filter(|n| self.is_active(*n)).collect()
    }

    fn quantum(&self) -> f64 {
        self.cfg.throttle.step_secs.max(1e-6)
    }

    /// Operator drain: `node` stops being a member at once and its
    /// sub-collections evacuate onto the rest of the pool. `None` when no
    /// plan was minted: the node was not active, owned nothing (it departs
    /// at the next [`settle`](Self::settle)), or nobody would be left to
    /// serve — then the drain is refused and the node stays active.
    pub fn drain(&mut self, node: NodeId, live: &[NodeId], now: f64, term: u64) -> Option<Minted> {
        if !self.is_active(node) || self.pool(live).iter().all(|n| *n == node) {
            return None;
        }
        self.members[node.index()] = Membership::Draining;
        self.evacuate(node, live, RebalanceReason::Drain, now, term)
    }

    /// `node` — a standby, a drained node, a recovered crash — becomes an
    /// active member and is brought up to its fair share. Unapplied
    /// evacuation steps off it are cancelled.
    pub fn join(&mut self, node: NodeId, live: &[NodeId], now: f64, term: u64) -> Option<Minted> {
        self.members[node.index()] = Membership::Active;
        self.pending.retain(|p| p.step.from != node);
        let mut pool = self.pool(live);
        if !pool.contains(&node) {
            // Its first heartbeat may still be in flight.
            pool.push(node);
        }
        let plan = plan_join(&self.ownership, node, &pool, self.plan_seq + 1, term);
        self.admit(plan, now)
    }

    /// `node` is permanently lost; the caller's detector says so as of
    /// `detected_at` (the runtime's phi accrual has already waited, the
    /// DES adds the configured lease to the crash instant). Unapplied
    /// steps touching it are void — transfers off it are the evacuation's
    /// job now, transfers onto it would orphan the sub-collection — and
    /// whatever it owned moves to the live active members.
    pub fn lost(
        &mut self,
        node: NodeId,
        live: &[NodeId],
        detected_at: f64,
        term: u64,
    ) -> Option<Minted> {
        let touches = |p: &Pending| p.step.from == node || p.step.to == node;
        self.pending.retain(|p| !touches(p));
        self.evacuate(
            node,
            live,
            RebalanceReason::PermanentLoss,
            detected_at,
            term,
        )
    }

    /// Skew trigger: with a threshold configured and no plan in flight,
    /// move one sub-collection from the hottest active member to the
    /// coolest when their load-gauge spread exceeds the threshold.
    /// `loads` is only evaluated when the trigger is armed.
    pub fn skew(
        &mut self,
        now: f64,
        term: u64,
        loads: impl FnOnce() -> Vec<(NodeId, f64)>,
    ) -> Option<Minted> {
        let threshold = self.cfg.skew_threshold?;
        if !self.pending.is_empty() {
            return None;
        }
        let mut loads = loads();
        loads.retain(|(n, _)| self.is_active(*n));
        let plan = plan_skew(&self.ownership, &loads, threshold, self.plan_seq + 1, term)?;
        self.admit(plan, now)
    }

    /// Journal replay: fold a completed transfer back into the map.
    /// Idempotent.
    pub fn restore_owner(&mut self, sub: SubCollectionId, node: NodeId) {
        self.ownership.set_owner(sub, node);
    }

    /// Move what `victim` owns onto the live active members (nothing, when
    /// it owns nothing or there are none).
    fn evacuate(
        &mut self,
        victim: NodeId,
        live: &[NodeId],
        reason: RebalanceReason,
        at: f64,
        term: u64,
    ) -> Option<Minted> {
        let (pool, id) = (self.pool(live), self.plan_seq + 1);
        let plan = plan_evacuation(&self.ownership, victim, &pool, reason, id, term);
        self.admit(plan, at)
    }

    /// Schedule a plan's steps: one per throttle quantum from `at`, behind
    /// any steps already pending, pushed past stall windows. The verbs
    /// admit what they mint; a journal-recovered plan's unfinished steps
    /// re-enter here under their original id. Plan ids only grow: no later
    /// plan is minted below an id seen here. `None` for an empty plan —
    /// it vanishes without a trace.
    pub fn admit(&mut self, plan: MigrationPlan, at: f64) -> Option<Minted> {
        if plan.is_empty() {
            return None;
        }
        self.plan_seq = self.plan_seq.max(plan.id);
        self.heal_start.get_or_insert(at);
        let quantum = self.quantum();
        let saturated = !self.pending.is_empty();
        let mut stalled = 0;
        let mut t = at.max(self.pending.back().map_or(at, |p| p.due));
        for &step in &plan.steps {
            t += quantum;
            // Windows are sorted by start, so one forward pass reaches
            // the fixpoint.
            let mut clear = t;
            for &(from, until) in &self.stalls {
                if clear >= from && clear < until {
                    clear = until;
                }
            }
            if clear > t {
                stalled += 1;
                t = clear;
            }
            self.pending.push_back(Pending {
                due: t,
                plan: plan.id,
                step,
                deferrals: 0,
            });
        }
        Some(Minted {
            plan,
            saturated,
            stalled,
        })
    }

    /// When the head step is due, if any is pending.
    pub fn next_due(&self) -> Option<f64> {
        self.pending.front().map(|p| p.due)
    }

    /// Apply the head step, or defer it. The one deferral rule: while the
    /// throttle says foreground occupancy (`in_flight` of `capacity`) is
    /// above its headroom line the step moves one quantum later —
    /// migration never competes with question deadlines — but at most
    /// [`MAX_DEFERRALS`] times; then it goes anyway, because healing must
    /// stay live under a persistently full gate. `None` with nothing
    /// pending.
    pub fn step(&mut self, now: f64, in_flight: usize, capacity: Option<usize>) -> Option<Stepped> {
        let quantum = self.quantum();
        let yields = self.cfg.throttle.yields(in_flight, capacity);
        let head = self.pending.front_mut()?;
        if yields && head.deferrals < MAX_DEFERRALS {
            head.deferrals += 1;
            head.due = now.max(head.due) + quantum;
            return Some(Stepped::Deferred);
        }
        let Pending { plan, step, .. } = self.pending.pop_front()?;
        let moved = self.ownership.apply_step(&step);
        Some(Stepped::Done {
            plan,
            step,
            moved,
            epoch: self.ownership.epoch(),
            plan_done: self.pending.iter().all(|p| p.plan != plan),
        })
    }

    /// The step queue drained: re-plan what a mid-plan membership change
    /// orphaned, name the fully evacuated drains, and close the heal
    /// window once the invariant holds again. `None` while steps are
    /// still pending.
    pub fn settle(&mut self, live: &[NodeId], now: f64, term: u64) -> Option<Settled> {
        if !self.pending.is_empty() {
            return None;
        }
        let mut out = Settled::default();
        let is_draining = |n: &NodeId| self.members.get(n.index()) == Some(&Membership::Draining);
        let draining: Vec<NodeId> = live.iter().copied().filter(is_draining).collect();
        for &node in &draining {
            let minted = self.evacuate(node, live, RebalanceReason::Drain, now, term);
            out.replanned.extend(minted);
        }
        if !out.replanned.is_empty() {
            return Some(out);
        }
        let owns_nothing = |n: &NodeId| self.ownership.owned_by(*n).is_empty();
        out.departures = draining.into_iter().filter(owns_nothing).collect();
        for node in &out.departures {
            self.members[node.index()] = Membership::Standby;
        }
        out.converged = self.converged(live);
        if out.converged {
            out.healed_secs = self.heal_start.take().map(|s| (now - s).max(0.0));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MigrationThrottle;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| n(i)).collect()
    }

    /// Drive every pending step on a manual clock (idle foreground),
    /// settling until the tier is quiet. Returns the steps in order.
    fn run(r: &mut Rebalancer, live: &[NodeId], now: &mut f64) -> Vec<MigrationStep> {
        let mut steps = Vec::new();
        loop {
            while let Some(due) = r.next_due() {
                *now = now.max(due);
                match r.step(*now, 0, None).unwrap() {
                    Stepped::Done { step, .. } => steps.push(step),
                    Stepped::Deferred => panic!("idle foreground deferred a step"),
                }
            }
            if r.settle(live, *now, 1).unwrap().replanned.is_empty() {
                return steps;
            }
        }
    }

    fn counts(r: &Rebalancer, nodes: &[u32]) -> Vec<usize> {
        r.ownership()
            .counts(&ids(nodes))
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    }

    #[test]
    fn standby_is_not_a_survivor() {
        // The regression `soak rebalance` found in the runtime: 4
        // sub-collections, nodes 0–2 active, node 3 a warm standby that is
        // as alive as anyone. drain(1) must not land anything on 3, so
        // that join(3) still has a fair share to pull.
        let live = ids(&[0, 1, 2, 3]);
        let mut r = Rebalancer::new(ElasticConfig::with_standby(1), 4, 4, Vec::new());
        let mut now = 0.0;
        assert!(!r.is_active(n(3)));
        let drain = r.drain(n(1), &live, now, 1).expect("node 1 owns sub 1");
        assert_eq!(drain.plan.reason, RebalanceReason::Drain);
        let before_join = run(&mut r, &live, &mut now);
        assert!(!before_join.is_empty());
        assert!(
            before_join.iter().all(|s| s.to != n(3)),
            "a standby received a sub-collection before its join: {before_join:?}"
        );
        assert!(r.converged(&live));
        let join = r.join(n(3), &live, now, 1).expect("join plan is non-empty");
        assert_eq!(join.plan.reason, RebalanceReason::Join);
        run(&mut r, &live, &mut now);
        let c = counts(&r, &[0, 2, 3]);
        assert_eq!(c.iter().sum::<usize>(), 4);
        assert!(
            c.iter().max().unwrap() - c.iter().min().unwrap() <= 1,
            "final counts {c:?} are not within one of each other"
        );
        assert!(r.ownership().owned_by(n(1)).is_empty());
        assert!(r.converged(&live));
    }

    #[test]
    fn verbs_table() {
        // One row per verb edge: (case, verb, expected reason or None).
        #[allow(clippy::type_complexity)]
        let rows: Vec<(
            &str,
            Box<dyn Fn(&mut Rebalancer) -> Option<Minted>>,
            Option<RebalanceReason>,
        )> = vec![
            (
                "drain of an owner mints a drain plan",
                Box::new(|r| r.drain(n(0), &ids(&[0, 1, 2]), 0.0, 1)),
                Some(RebalanceReason::Drain),
            ),
            (
                "drain of the last active member is refused",
                Box::new(|r| {
                    r.drain(n(0), &ids(&[0, 1, 2]), 0.0, 1);
                    r.drain(n(1), &ids(&[0, 1, 2]), 0.0, 1);
                    let refused = r.drain(n(2), &ids(&[0, 1, 2]), 0.0, 1);
                    assert!(r.is_active(n(2)), "a refused drain leaves the node active");
                    refused
                }),
                None,
            ),
            (
                "drain with every other member dead is refused",
                Box::new(|r| r.drain(n(0), &ids(&[0]), 0.0, 1)),
                None,
            ),
            (
                "drain of a draining node is a no-op",
                Box::new(|r| {
                    r.drain(n(0), &ids(&[0, 1, 2]), 0.0, 1);
                    r.drain(n(0), &ids(&[0, 1, 2]), 0.0, 1)
                }),
                None,
            ),
            (
                "loss of an owner evacuates onto the live members",
                Box::new(|r| r.lost(n(2), &ids(&[0, 1]), 0.5, 1)),
                Some(RebalanceReason::PermanentLoss),
            ),
            (
                "loss with nobody left plans nothing",
                Box::new(|r| r.lost(n(2), &[], 0.5, 1)),
                None,
            ),
            (
                "join of an already-fair member moves nothing",
                Box::new(|r| r.join(n(1), &ids(&[0, 1, 2]), 0.0, 1)),
                None,
            ),
            (
                "skew below the threshold plans nothing",
                Box::new(|r| r.skew(0.0, 1, || vec![(n(0), 1.0), (n(1), 1.2), (n(2), 1.1)])),
                None,
            ),
            (
                "skew past the threshold moves one sub-collection",
                Box::new(|r| r.skew(0.0, 1, || vec![(n(0), 3.0), (n(1), 0.5), (n(2), 1.0)])),
                Some(RebalanceReason::LoadSkew),
            ),
            (
                "skew never targets a non-member, however cool",
                Box::new(|r| {
                    r.drain(n(1), &ids(&[0, 1, 2]), 0.0, 1);
                    let mut now = 0.0;
                    run(r, &ids(&[0, 1, 2]), &mut now);
                    let m = r.skew(now, 1, || vec![(n(0), 3.0), (n(1), 0.0), (n(2), 1.0)]);
                    assert!(m.iter().all(|m| m.plan.steps[0].to == n(2)));
                    m
                }),
                Some(RebalanceReason::LoadSkew),
            ),
            (
                "skew waits for the queue to drain",
                Box::new(|r| {
                    r.drain(n(0), &ids(&[0, 1, 2]), 0.0, 1);
                    r.skew(0.0, 1, || panic!("loads read with a plan in flight"))
                }),
                None,
            ),
        ];
        for (case, verb, want) in rows {
            let cfg = ElasticConfig {
                skew_threshold: Some(0.5),
                ..ElasticConfig::default()
            };
            let mut r = Rebalancer::new(cfg, 3, 6, Vec::new());
            let got = verb(&mut r).map(|m| {
                assert!(!m.plan.is_empty(), "{case}: minted an empty plan");
                m.plan.reason
            });
            assert_eq!(got, want, "{case}");
        }
    }

    #[test]
    fn step_table() {
        let throttle = MigrationThrottle {
            headroom: 0.5,
            step_secs: 1.0,
        };
        let cfg = ElasticConfig {
            throttle,
            ..ElasticConfig::default()
        };
        // (case, in_flight, capacity, deferrals expected before Done)
        let rows: [(&str, usize, Option<usize>, u32); 4] = [
            ("idle foreground: goes at once", 0, Some(8), 0),
            ("at the headroom line: goes", 4, Some(8), 0),
            ("unlimited gate: the headroom brake is inert", 500, None, 0),
            (
                "persistently full gate: deferred MAX_DEFERRALS times, then goes anyway",
                8,
                Some(8),
                MAX_DEFERRALS,
            ),
        ];
        for (case, in_flight, capacity, want_deferrals) in rows {
            let mut r = Rebalancer::new(cfg, 2, 2, Vec::new());
            r.drain(n(1), &ids(&[0, 1]), 0.0, 1).expect("one step");
            assert_eq!(
                r.next_due(),
                Some(1.0),
                "{case}: one quantum after the mint"
            );
            let mut deferrals = 0;
            let done = loop {
                let due = r.next_due().expect("step pending");
                match r.step(due, in_flight, capacity).unwrap() {
                    Stepped::Deferred => {
                        deferrals += 1;
                        assert_eq!(
                            r.next_due(),
                            Some(due + 1.0),
                            "{case}: a deferral is exactly one quantum"
                        );
                    }
                    done => break done,
                }
            };
            assert_eq!(deferrals, want_deferrals, "{case}");
            assert_eq!(
                done,
                Stepped::Done {
                    plan: 1,
                    step: MigrationStep {
                        sub: SubCollectionId::new(1),
                        from: n(1),
                        to: n(0),
                    },
                    moved: true,
                    epoch: 1,
                    plan_done: true,
                },
                "{case}"
            );
            assert_eq!(r.step(99.0, 0, None), None, "{case}: queue empty");
        }
    }

    #[test]
    fn settle_replans_an_orphaned_drain_then_names_the_departure_once() {
        let mut r = Rebalancer::new(ElasticConfig::default(), 3, 6, Vec::new());
        let all = ids(&[0, 1, 2]);
        let drain = r.drain(n(0), &all, 0.0, 1).unwrap();
        assert!(r.settle(&all, 0.0, 1).is_none(), "steps still pending");
        // Node 1 — a target of the evacuation — dies mid-plan: steps onto
        // it are void, and what it owned must move too.
        let live = ids(&[0, 2]);
        let lost = r.lost(n(1), &live, 0.5, 1).unwrap();
        assert!(lost.plan.steps.iter().all(|s| s.to == n(2)));
        let mut now = 0.0;
        while let Some(due) = r.next_due() {
            now = due;
            r.step(now, 0, None);
        }
        let orphaned = drain.plan.steps.iter().filter(|s| s.to == n(1)).count();
        assert!(orphaned > 0, "the drill needs a voided step");
        let settled = r.settle(&live, now, 1).unwrap();
        assert_eq!(settled.replanned.len(), 1, "node 0 still owns {orphaned}");
        assert!(!settled.converged && settled.departures.is_empty());
        let steps = run(&mut r, &live, &mut now);
        assert!(steps.iter().all(|s| s.from == n(0) && s.to == n(2)));
        assert!(r.converged(&live));
        assert!(!r.is_active(n(0)));
        // `run` consumed the settle that named node 0; a later one must
        // not name it again.
        assert!(r.settle(&live, now, 1).unwrap().departures.is_empty());
    }

    #[test]
    fn settle_closes_the_heal_window_once() {
        let mut r = Rebalancer::new(ElasticConfig::default(), 3, 3, Vec::new());
        let live = ids(&[0, 1, 2]);
        r.drain(n(2), &live, 10.0, 1).unwrap();
        let due = r.next_due().unwrap();
        r.step(due, 0, None);
        let s = r.settle(&live, 12.0, 1).unwrap();
        assert_eq!(s.departures, ids(&[2]));
        assert!(s.converged);
        assert_eq!(s.healed_secs, Some(2.0));
        let again = r.settle(&live, 13.0, 1).unwrap();
        assert!(again.converged && again.healed_secs.is_none() && again.departures.is_empty());
    }

    #[test]
    fn admit_resumes_a_journaled_plan_under_its_id() {
        let mut r = Rebalancer::new(ElasticConfig::default(), 2, 4, Vec::new());
        // The journal shows sub 1 already moved and sub 3 still pending.
        r.restore_owner(SubCollectionId::new(1), n(0));
        let plan = MigrationPlan {
            id: 7,
            term: 2,
            reason: RebalanceReason::PermanentLoss,
            steps: vec![
                MigrationStep {
                    sub: SubCollectionId::new(1),
                    from: n(1),
                    to: n(0),
                },
                MigrationStep {
                    sub: SubCollectionId::new(3),
                    from: n(1),
                    to: n(0),
                },
            ],
        };
        assert_eq!(r.admit(plan, 0.0).unwrap().plan.id, 7);
        let mut moved = Vec::new();
        while let Some(due) = r.next_due() {
            if let Some(Stepped::Done { plan, moved: m, .. }) = r.step(due, 0, None) {
                assert_eq!(plan, 7);
                moved.push(m);
            }
        }
        assert_eq!(moved, [false, true], "the replayed step is absorbed");
        assert!(r.converged(&ids(&[0])));
        // The next minted plan never reuses a journaled id.
        let next = r.join(n(1), &ids(&[0, 1]), 1.0, 2).unwrap();
        assert_eq!(next.plan.id, 8);
    }
}
