//! The virtual-time driver of the elastic-membership tier.
//!
//! Every decision — who is a member, which plan to mint, when each step
//! is due, whether it yields to foreground, which drained node departs,
//! when ownership has converged — is [`rebalance::Rebalancer`]'s, the
//! same state machine `dqa-runtime` drives on the wall clock. What is
//! here is the DES's half: mapping fault actions onto the verbs, ground
//! truth for liveness (`dead`), the detection lease added to a crash
//! instant, the catalogue metrics and journal marks each outcome costs,
//! and failing a departed node through the crash paths. The event loop
//! in `mod.rs` reads [`Rebalancer::next_due`] into its next external time.

use super::question::QState;
use super::{QaSimulation, SimConfig};
use dqa_obs::DqaMetrics;
use faults::FaultEvent;
use qa_types::{NodeId, QaModule};
use rebalance::{Minted, Rebalancer, Stepped};

/// The tier's boot state, when the run is elastic at all: by config, or
/// because the schedule holds membership events. The sub-collection
/// universe is whatever the sampled demands can touch.
pub(super) fn boot(cfg: &SimConfig, states: &[QState], metrics: &DqaMetrics) -> Option<Rebalancer> {
    let elastic_events = cfg.faults.events.iter().any(|ev| {
        matches!(
            ev,
            FaultEvent::NodeDecommission { .. }
                | FaultEvent::NodeJoin { .. }
                | FaultEvent::RebalanceStall { .. }
        )
    });
    if !elastic_events && cfg.elastic.is_none() {
        return None;
    }
    let subs = states
        .iter()
        .map(|s| s.demand.pr_per_collection.len())
        .max()
        .unwrap_or(0) as u32;
    // Stall windows pace the migration scheduler, not the task engine.
    let stalls = cfg
        .faults
        .events
        .iter()
        .filter_map(|ev| match *ev {
            FaultEvent::RebalanceStall { from, until } => Some((from, until)),
            _ => None,
        })
        .collect();
    metrics.rebalance_converged.set(1.0);
    metrics.ownership_epoch.set(0.0);
    Some(Rebalancer::new(
        cfg.elastic.unwrap_or_default(),
        cfg.nodes,
        subs,
        stalls,
    ))
}

impl QaSimulation {
    /// Whether `node` must not receive new placements: dead, or not an
    /// active member under the elastic tier (draining, standby).
    pub(super) fn is_retired(&self, node: usize) -> bool {
        self.dead[node]
            || self
                .elastic
                .as_ref()
                .is_some_and(|r| !r.is_active(NodeId::new(node as u32)))
    }

    /// Ground-truth liveness, the DES's answer to the rebalancer's `live`.
    fn live(&self) -> Vec<NodeId> {
        (0..self.cfg.nodes)
            .filter(|&n| !self.dead[n])
            .map(|n| NodeId::new(n as u32))
            .collect()
    }

    /// Operator drain ([`FaultEvent::NodeDecommission`]): the node stops
    /// taking new placements immediately, its sub-collections evacuate
    /// one throttle quantum at a time, and it departs — through the same
    /// recovery paths a crash exercises, so nothing is lost — once the
    /// evacuation plan completes. Without the elastic tier (impossible
    /// via the fault schedule, reachable programmatically) a decommission
    /// degenerates to a permanent crash.
    pub(super) fn decommission(&mut self, node: NodeId, at: f64) {
        let (live, term) = (self.live(), self.failover.term);
        let Some(r) = self.elastic.as_mut() else {
            self.fail_node(node);
            return;
        };
        if self.dead[node.index()] || !r.is_active(node) {
            return;
        }
        let minted = r.drain(node, &live, at, term);
        self.plan_minted(minted);
        // A node that owned nothing departs without a plan.
        self.settle_rebalance(at);
    }

    /// A standby or previously drained node joins
    /// ([`FaultEvent::NodeJoin`]): it becomes placeable again and
    /// receives its fair share of sub-collections, throttled behind
    /// foreground traffic. A transiently crashed node's rejoin is the
    /// same thing under the elastic tier — its sub-collections may have
    /// been evacuated while it was down.
    pub(super) fn node_join(&mut self, node: NodeId, at: f64) {
        if self.dead[node.index()] {
            self.revive_node(node);
        }
        let (live, term) = (self.live(), self.failover.term);
        let minted = self
            .elastic
            .as_mut()
            .and_then(|r| r.join(node, &live, at, term));
        self.plan_minted(minted);
    }

    /// Permanent loss under the elastic tier: once the detector's lease
    /// floor elapses (the DES knows ground truth, so detection latency is
    /// the configured lease rather than phi accrual over heartbeats), the
    /// dead node's sub-collections evacuate onto the survivors.
    pub(super) fn elastic_on_loss(&mut self, node: NodeId, at: f64) {
        let (live, term) = (self.live(), self.failover.term);
        let lease = self.cfg.elastic.unwrap_or_default().detector.lease_secs;
        let detected = at + lease.max(0.0);
        let minted = self
            .elastic
            .as_mut()
            .and_then(|r| r.lost(node, &live, detected, term));
        self.plan_minted(minted);
    }

    /// A plan entered the step queue: count it, and journal the plan
    /// record before any step applies.
    fn plan_minted(&mut self, minted: Option<Minted>) {
        if let Some(m) = minted {
            self.metrics
                .plan_minted(&m.plan.reason.to_string(), m.saturated, m.stalled);
            self.journal_mark(1);
        }
    }

    /// The head migration step is due: apply it, or defer it when the
    /// throttle says foreground questions need the headroom.
    pub(super) fn apply_next_migration(&mut self, at: f64) {
        let (in_flight, capacity) = (self.in_flight, self.cfg.overload.max_in_flight);
        match self
            .elastic
            .as_mut()
            .and_then(|r| r.step(at, in_flight, capacity))
        {
            None => return,
            Some(Stepped::Deferred) => {
                self.metrics.rebalance_throttled("yielding").inc();
                return;
            }
            Some(Stepped::Done { moved: false, .. }) => {}
            Some(Stepped::Done { epoch, .. }) => {
                self.metrics.rebalance_migrated.inc();
                self.metrics.ownership_epoch.set(epoch as f64);
                // The completed transfer is journaled (step-done record).
                self.journal_mark(1);
            }
        }
        self.settle_rebalance(at);
    }

    /// Once the step queue has drained: schedule what the rebalancer
    /// re-planned, let fully evacuated drained nodes depart for real
    /// (their still-running work recovers through the crash paths), and
    /// publish convergence.
    fn settle_rebalance(&mut self, at: f64) {
        let (live, term) = (self.live(), self.failover.term);
        let Some(settled) = self
            .elastic
            .as_mut()
            .and_then(|r| r.settle(&live, at, term))
        else {
            return;
        };
        if !settled.replanned.is_empty() {
            for minted in settled.replanned {
                self.plan_minted(Some(minted));
            }
            return;
        }
        for node in settled.departures {
            self.fail_node(node);
        }
        let converged = if settled.converged { 1.0 } else { 0.0 };
        self.metrics.rebalance_converged.set(converged);
        if settled.converged {
            // Convergence is journaled: a successor replaying the log
            // knows the plan is retired, not resumable.
            self.journal_mark(1);
        }
        if let Some(secs) = settled.healed_secs {
            self.metrics.heal_seconds.observe(secs);
        }
    }

    /// Skew trigger, evaluated at question completion — the same sampling
    /// point as the load gauges — over the whole-task Eq. 1 load of the
    /// live nodes (the rebalancer keeps the members among them).
    pub(super) fn maybe_rebalance_skew(&mut self, at: f64) {
        let (commit, dead, f, term) =
            (&self.commit, &self.dead, self.functions, self.failover.term);
        let minted = self.elastic.as_mut().and_then(|r| {
            r.skew(at, term, || {
                (0..commit.len())
                    .filter(|&n| !dead[n])
                    .map(|n| (NodeId::new(n as u32), f.load_for(QaModule::Qp, commit[n])))
                    .collect()
            })
        });
        self.plan_minted(minted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SimReport;
    use faults::FaultSchedule;
    use rebalance::ElasticConfig;
    use scheduler::partition::PartitionStrategy;

    #[test]
    fn decommission_evacuates_then_departs_with_nothing_lost() {
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 8, 301);
            cfg.faults = FaultSchedule::seeded(301).decommission(NodeId::new(1), 15.0);
            QaSimulation::new(cfg)
        };
        let r = build().run();
        assert_eq!(r.questions.len(), 8, "zero questions lost to the drain");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_rebalance_plans_total{reason="drain"}"#),
            1,
            "one drain plan minted"
        );
        assert!(
            r.metrics.counter("dqa_rebalance_migrated_total") > 0,
            "the drained node's sub-collections moved"
        );
        assert_eq!(
            r.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "ownership converged after the drain"
        );
        assert!(
            r.metrics.gauges["dqa_rebalance_ownership_epoch"] > 0.0,
            "migrations bumped the epoch"
        );
        // Questions arriving after the drain never land on the victim.
        for q in r.questions.iter().filter(|q| q.arrival > 15.0) {
            assert_ne!(q.home, NodeId::new(1), "drained node must not host");
        }
        assert_eq!(r, build().run(), "decommission replays bit-stably");
    }

    #[test]
    fn node_join_heals_a_drain_and_serves_again() {
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(3, PartitionStrategy::Recv { chunk_size: 40 }, 9, 302);
            cfg.faults = FaultSchedule::seeded(302)
                .decommission(NodeId::new(2), 10.0)
                .node_join(NodeId::new(2), 120.0);
            QaSimulation::new(cfg)
        };
        let r = build().run();
        assert_eq!(r.questions.len(), 9, "every question completes");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_rebalance_plans_total{reason="join"}"#),
            1,
            "the rejoin mints a join plan"
        );
        assert_eq!(
            r.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "converged again after the round trip"
        );
        assert!(
            r.metrics
                .histograms
                .contains_key("dqa_rebalance_heal_seconds"),
            "heal latency lands in the catalogue"
        );
        assert_eq!(r, build().run(), "drain/join round trip is deterministic");
    }

    #[test]
    fn rebalance_stall_window_defers_healing_but_not_questions() {
        let run_with_stall = |until: f64| {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 303);
            cfg.faults = FaultSchedule::seeded(303)
                .decommission(NodeId::new(1), 5.0)
                .rebalance_stall(5.0, until);
            QaSimulation::new(cfg).run()
        };
        let quick = run_with_stall(5.5);
        let stalled = run_with_stall(400.0);
        assert_eq!(stalled.questions.len(), 6, "foreground unaffected");
        assert_eq!(
            stalled.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "healing completes once the window closes"
        );
        assert!(
            stalled
                .metrics
                .counter("dqa_rebalance_throttled_total{cause=\"stalled\"}")
                > 0,
            "deferred steps are counted"
        );
        let heal = |r: &SimReport| r.metrics.histograms["dqa_rebalance_heal_seconds"].sum;
        assert!(
            heal(&stalled) > heal(&quick),
            "a long stall window must delay convergence: {:.1} !> {:.1}",
            heal(&stalled),
            heal(&quick)
        );
    }

    #[test]
    fn permanent_loss_triggers_evacuation_after_the_lease() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 8, 304);
        cfg.elastic = Some(ElasticConfig::default());
        cfg.faults = FaultSchedule::seeded(304).crash(NodeId::new(2), 20.0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 8, "crash recovery still conserves");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_rebalance_plans_total{reason="permanent-loss"}"#),
            1,
            "the detector verdict mints an evacuation plan"
        );
        assert_eq!(
            r.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "survivors own everything after healing"
        );
    }

    #[test]
    fn standby_hosts_nothing_until_its_join() {
        // `ElasticConfig::standby_nodes` means here what it means in the
        // runtime: node 3 boots outside the pool, owning nothing and
        // taking no placements, until a `NodeJoin` brings it in.
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 9, 307);
        cfg.elastic = Some(ElasticConfig::with_standby(1));
        cfg.faults = FaultSchedule::seeded(307).node_join(NodeId::new(3), 200.0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 9);
        for q in r.questions.iter().filter(|q| q.finished < 200.0) {
            assert_ne!(q.home, NodeId::new(3), "a standby hosted a question");
            assert!(q.pr_nodes <= 3, "a standby served PR chunks");
        }
        assert_eq!(
            r.metrics
                .counter(r#"dqa_rebalance_plans_total{reason="join"}"#),
            1,
            "the join pulls in a fair share"
        );
        assert_eq!(r.metrics.gauges["dqa_rebalance_converged"], 1.0);
    }

    #[test]
    fn clean_elastic_run_stays_converged_and_plans_nothing() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 305);
        cfg.elastic = Some(ElasticConfig::default());
        let mut sim = QaSimulation::new(cfg);
        assert_eq!(sim.run_ref(), 0.0, "commitments drain");
        let r = sim.elastic.as_ref().expect("elastic tier active");
        let epoch = r.ownership().epoch();
        assert_eq!(epoch, 0, "no membership change, no migration");
        let ok = r.converged(&sim.live());
        assert!(ok, "striped ownership satisfies the invariant");
    }

    #[test]
    fn elastic_schedules_without_elastic_config_activate_the_tier() {
        // The activation mirror of the `journaled` flag: a schedule with
        // membership events needs no explicit ElasticConfig.
        let mut cfg =
            SimConfig::paper_low_load(3, PartitionStrategy::Recv { chunk_size: 40 }, 4, 306);
        cfg.faults = FaultSchedule::seeded(306).decommission(NodeId::new(1), 8.0);
        let r = QaSimulation::new(cfg).run();
        assert!(r.metrics.gauges.contains_key("dqa_rebalance_converged"));
        assert_eq!(r.questions.len(), 4);
    }
}
