//! Elastic membership: the operator verbs (`drain`, `join`), the
//! self-healing pass (`heal`), and the throttled, journal-fenced execution
//! of the migration plans they mint.

use super::Cluster;
use crate::board::LoadBoard;
use crate::clock::now_instant;
use dqa_obs::{CausalSpan, CauseSet, DqaMetrics};
use journal::{JournalRecord, RecoveredState};
use qa_types::{NodeId, QaModule, SubCollectionId};
use rebalance::{
    plan_evacuation, plan_join, plan_skew, ElasticConfig, FailureDetector, MigrationPlan,
    MigrationStep, NodeHealth, OwnershipMap, RebalanceReason, ThrottleVerdict,
};
use std::time::{Duration, Instant};

/// Trace-id namespace for migration-plan span trees (XORed with the
/// plan id so they never collide with question traces).
const MIGRATION_TRACE_NS: u64 = 0x4d49_4752_0000_0000; // "MIGR"

/// Mutable state of the elastic-membership tier: who owns which
/// sub-collection, what the failure detector believes, and the plan
/// sequence counter. One mutex guards it all — rebalancing is a
/// control-plane rarity, never on the per-question hot path (readers take
/// the lock once per PR scheduling decision, holders never block on I/O).
pub(super) struct ElasticRuntime {
    cfg: ElasticConfig,
    ownership: OwnershipMap,
    detector: FailureDetector,
    plan_seq: u64,
    /// Wall anchor for the detector's f64 timeline.
    epoch: Instant,
    /// Set when convergence is first broken, cleared (into the
    /// `dqa_rebalance_heal_seconds` histogram) when it is restored.
    heal_started: Option<Instant>,
}

impl ElasticRuntime {
    /// Boot-time state: the first `nodes - standby_nodes` nodes share the
    /// sub-collections evenly; the rest are suspended as warm spares —
    /// threads up, owning nothing until a `join`.
    pub(super) fn boot(
        cfg: ElasticConfig,
        nodes: usize,
        shards: usize,
        board: &LoadBoard,
        metrics: &DqaMetrics,
    ) -> ElasticRuntime {
        assert!(
            cfg.standby_nodes < nodes,
            "standby_nodes ({}) must leave at least one active node (nodes = {})",
            cfg.standby_nodes,
            nodes
        );
        let active = nodes - cfg.standby_nodes;
        for i in active..nodes {
            board.suspend(NodeId::new(i as u32));
        }
        let owners: Vec<NodeId> = (0..active).map(|i| NodeId::new(i as u32)).collect();
        metrics.rebalance_converged.set(1.0);
        metrics.ownership_epoch.set(0.0);
        ElasticRuntime {
            detector: FailureDetector::new(nodes, cfg.detector, 0.0),
            ownership: OwnershipMap::balanced(shards as u32, &owners),
            cfg,
            plan_seq: 0,
            epoch: now_instant(),
            heal_started: None,
        }
    }

    fn now_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

impl Cluster {
    /// Operator drain: migrate every sub-collection off `node` (live — the
    /// node keeps serving PR chunks while each transfer is in flight),
    /// then retire it from the pool. Returns the number of ownership
    /// transfers applied. Without a [`ClusterConfig::elastic`] config this
    /// degrades to [`Cluster::suspend_node`].
    pub fn drain(&self, node: NodeId) -> usize {
        let Some(e) = &self.elastic else {
            self.suspend_node(node);
            return 0;
        };
        let plan = {
            let mut es = e.lock();
            es.detector.mark_left(node);
            self.mint_evacuation(&mut es, node, RebalanceReason::Drain)
        };
        // Nowhere to evacuate to: refuse the drain rather than orphan the
        // collection (the node stays in service).
        let Some(plan) = plan else {
            return 0;
        };
        let applied = self.execute_plan(&plan);
        // Evacuation first, suspension second: the drain is live.
        self.board.suspend(node);
        self.finish_heal();
        applied
    }

    /// Operator join: bring `node` (a warm standby, a previously drained
    /// node, or a recovered crash) into the serving pool and migrate its
    /// fair share of sub-collections onto it. Returns the number of
    /// ownership transfers applied.
    pub fn join(&self, node: NodeId) -> usize {
        self.board.resume(node);
        let Some(e) = &self.elastic else {
            return 0;
        };
        // A resumed node turns live with its first heartbeat, one idle poll
        // away. Wait for it (bounded by the staleness window: a killed or
        // flap-quarantined node never shows) so the plan, the convergence
        // check and PR routing all see the node they hand data to.
        let patience = now_instant() + self.cfg.staleness;
        while !self.board.is_alive(node) && now_instant() < patience {
            std::thread::sleep(self.cfg.heartbeat_every);
        }
        let plan = {
            let mut es = e.lock();
            let at = es.now_secs();
            es.detector.mark_joined(node, at);
            let mut live = self.live_pool(None);
            if !live.contains(&node) {
                live.push(node);
                live.sort();
            }
            es.plan_seq += 1;
            plan_join(&es.ownership, node, &live, es.plan_seq, self.term())
        };
        let applied = self.execute_plan(&plan);
        self.finish_heal();
        applied
    }

    /// One self-healing pass: feed the failure detector from the load
    /// board, evacuate any owner whose loss the detector now presumes
    /// permanent (past the lease floor *and* the phi threshold — transient
    /// stragglers are never migrated), and, when the Eq. 1–3 load gauges
    /// show skew past [`ElasticConfig::skew_threshold`], rebalance.
    /// Call it periodically (`soak rebalance` and `qa-cli` drive
    /// it between question waves); each call is cheap when healthy.
    /// Returns the number of ownership transfers applied.
    pub fn heal(&self) -> usize {
        let Some(e) = &self.elastic else {
            return 0;
        };
        let plans: Vec<MigrationPlan> = {
            let mut es = e.lock();
            let now = es.now_secs();
            for n in self.live_pool(None) {
                es.detector.observe(n, now);
            }
            let dead: Vec<NodeId> = (0..self.cfg.nodes)
                .map(|i| NodeId::new(i as u32))
                .filter(|n| {
                    es.detector.health(*n, now) == NodeHealth::Dead
                        && !es.ownership.owned_by(*n).is_empty()
                })
                .collect();
            dead.into_iter()
                .filter_map(|v| self.mint_evacuation(&mut es, v, RebalanceReason::PermanentLoss))
                .collect()
        };
        let mut applied = 0;
        for plan in &plans {
            applied += self.execute_plan(plan);
        }
        // Skew pass against the post-evacuation map: reuse the
        // dispatcher's PR load gauge as the imbalance signal, exactly the
        // quantity Eqs. 1–3 already maintain.
        let skew = {
            let mut es = e.lock();
            es.cfg.skew_threshold.and_then(|threshold| {
                let loads: Vec<(NodeId, f64)> = self
                    .board
                    .live_loads()
                    .into_iter()
                    .map(|(n, v)| (n, self.functions.load_for(QaModule::Pr, v)))
                    .collect();
                let plan = plan_skew(
                    &es.ownership,
                    &loads,
                    threshold,
                    es.plan_seq + 1,
                    self.term(),
                );
                if plan.is_some() {
                    es.plan_seq += 1;
                }
                plan
            })
        };
        if let Some(plan) = skew {
            applied += self.execute_plan(&plan);
        }
        self.finish_heal();
        applied
    }

    /// The detector's three-way verdict for `node` right now (`None`
    /// without an elastic config). Suspect ≠ Dead is the whole point:
    /// only `Dead` ever triggers migration.
    pub fn node_health(&self, node: NodeId) -> Option<NodeHealth> {
        let e = self.elastic.as_ref()?;
        let es = e.lock();
        Some(es.detector.health(node, es.now_secs()))
    }

    /// Elastic-tier status: `(ownership epoch, converged)` where converged
    /// means every sub-collection is owned by exactly one live node.
    /// `None` without an elastic config.
    pub fn rebalance_status(&self) -> Option<(u64, bool)> {
        let e = self.elastic.as_ref()?;
        let es = e.lock();
        Some((es.ownership.epoch(), self.converged(&es)))
    }

    /// Current sub-collection owners as `(sub, node)` pairs, ascending by
    /// sub-collection (empty without an elastic config) — the `qa-cli
    /// rebalance` listing.
    pub fn ownership(&self) -> Vec<(u32, u32)> {
        let Some(e) = &self.elastic else {
            return Vec::new();
        };
        let es = e.lock();
        (0..self.shards as u32)
            .filter_map(|s| {
                es.ownership
                    .owner(SubCollectionId::new(s))
                    .map(|n| (s, n.raw()))
            })
            .collect()
    }

    /// The convergence invariant: every sub-collection is owned by exactly
    /// one live node.
    fn converged(&self, es: &ElasticRuntime) -> bool {
        es.ownership
            .verify_complete(self.shards as u32, &self.live_pool(None))
            .is_ok()
    }

    /// Mint the plan that moves everything `victim` owns onto the rest of
    /// the live pool; `None` when nobody is left to take it.
    fn mint_evacuation(
        &self,
        es: &mut ElasticRuntime,
        victim: NodeId,
        reason: RebalanceReason,
    ) -> Option<MigrationPlan> {
        let survivors = self.live_pool(Some(victim));
        if survivors.is_empty() {
            return None;
        }
        es.plan_seq += 1;
        Some(plan_evacuation(
            &es.ownership,
            victim,
            &survivors,
            reason,
            es.plan_seq,
            self.term(),
        ))
    }

    /// Apply one migration plan: journal it, then walk its steps under the
    /// throttle — each step waits (bounded) while the admission gate sits
    /// above the headroom line, so in-flight questions keep their
    /// deadlines and healing takes the leftovers. The elastic lock is
    /// taken only for the instant each transfer commits, never across a
    /// sleep: PR scheduling reads the map contention-free while the
    /// migration paces itself. Returns transfers applied.
    fn execute_plan(&self, plan: &MigrationPlan) -> usize {
        let Some(e) = &self.elastic else {
            return 0;
        };
        if plan.is_empty() {
            return 0;
        }
        self.metrics.rebalance_plans(&plan.reason.to_string()).inc();
        self.metrics.rebalance_converged.set(0.0);
        let throttle = {
            let mut es = e.lock();
            es.heal_started.get_or_insert_with(now_instant);
            es.cfg.throttle
        };
        if self.cfg.journal.is_some() {
            self.journal_append(&JournalRecord::RebalancePlanned {
                plan: plan.id,
                steps: plan
                    .steps
                    .iter()
                    .map(|s| (s.sub.raw(), s.from.raw(), s.to.raw()))
                    .collect(),
            });
        }
        let quantum = Duration::from_secs_f64(throttle.step_secs.max(0.0));
        let mut applied = 0;
        let plan_trace = self.tracer.trace_id(MIGRATION_TRACE_NS ^ plan.id);
        let plan_start = self.tracer.now();
        // Children are buffered so the root span (whose id they parent
        // under) can be emitted first with its real end time.
        let mut step_spans: Vec<CausalSpan> = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let step_start = self.tracer.now();
            let mut deferred = false;
            self.yield_to_foreground(&throttle, |verdict| {
                deferred = true;
                let cause = match verdict {
                    ThrottleVerdict::Yielding => "yielding",
                    ThrottleVerdict::Saturated => "saturated",
                    _ => "stalled",
                };
                self.metrics.rebalance_throttled(cause).inc();
            });
            let granted = self.tracer.now();
            let (stepped, epoch) = {
                let mut es = e.lock();
                let st = es.ownership.apply_step(step);
                (st, es.ownership.epoch())
            };
            if stepped {
                applied += 1;
                self.metrics.rebalance_migrated.inc();
                self.metrics.ownership_epoch.set(epoch as f64);
                self.journal_append(&JournalRecord::RebalanceStepDone {
                    plan: plan.id,
                    sub: step.sub.raw(),
                    to: step.to.raw(),
                });
            }
            step_spans.push(CausalSpan::new(
                plan_trace,
                None,
                "migration-step",
                Some(step.to.raw()),
                step_start,
                self.tracer.now(),
                granted - step_start,
                if deferred {
                    CauseSet::THROTTLED
                } else {
                    CauseSet::none()
                },
            ));
            std::thread::sleep(quantum);
        }
        self.journal_append(&JournalRecord::RebalanceConverged { plan: plan.id });
        let root = self.tracer.emit(CausalSpan::new(
            plan_trace,
            None,
            "migration",
            None,
            plan_start,
            self.tracer.now(),
            0.0,
            CauseSet::none(),
        ));
        for mut s in step_spans {
            s.parent = Some(root);
            self.tracer.emit(s);
        }
        applied
    }

    /// Re-verify the convergence invariant and settle the heal timer: when
    /// every sub-collection is owned by a live node again, the gauge flips
    /// back to 1 and the outage duration lands in
    /// `dqa_rebalance_heal_seconds`.
    fn finish_heal(&self) {
        let Some(e) = &self.elastic else {
            return;
        };
        let mut es = e.lock();
        let ok = self.converged(&es);
        self.metrics
            .rebalance_converged
            .set(if ok { 1.0 } else { 0.0 });
        if ok {
            if let Some(t) = es.heal_started.take() {
                self.metrics.heal_seconds.observe(t.elapsed().as_secs_f64());
            }
        }
    }

    /// Under elastic membership, strip non-owners from a PR worker set —
    /// a node owning no sub-collections (drained, mid-join standby) gets
    /// no PR chunk traffic. Falls back to the home node rather than an
    /// empty set, mirroring every other allocator fallback.
    pub(super) fn restrict_to_owners(&self, mut nodes: Vec<NodeId>, home: NodeId) -> Vec<NodeId> {
        let Some(e) = &self.elastic else {
            return nodes;
        };
        let es = e.lock();
        nodes.retain(|n| !es.ownership.owned_by(*n).is_empty());
        drop(es);
        if nodes.is_empty() {
            vec![home]
        } else {
            nodes
        }
    }

    /// Fold a replayed journal's rebalance history into the live ownership
    /// map: completed steps are re-applied (idempotently — a transfer the
    /// map already shows is a no-op), then every *unfinished* plan's
    /// pending steps are driven to completion under the successor's term.
    /// This is what makes a crash-interrupted migration exactly-once: no
    /// step re-runs, no step is dropped, and the re-appended records are
    /// absorbed by the same idempotent fold on the next replay.
    pub(super) fn resume_rebalances(&self, state: &RecoveredState) {
        let Some(e) = &self.elastic else {
            return;
        };
        let pending = {
            let mut es = e.lock();
            for (sub, to) in state.rebalanced_owners() {
                es.ownership
                    .set_owner(SubCollectionId::new(sub), NodeId::new(to));
            }
            let pending: Vec<_> = state
                .unfinished_rebalances()
                .map(|(id, r)| (id, r.pending_steps()))
                .collect();
            // Never mint a future plan id below one the journal has seen.
            for (plan_id, _) in &pending {
                es.plan_seq = es.plan_seq.max(*plan_id);
            }
            self.metrics
                .ownership_epoch
                .set(es.ownership.epoch() as f64);
            pending
        };
        for (plan_id, steps) in pending {
            let plan = MigrationPlan {
                id: plan_id,
                term: self.term(),
                reason: RebalanceReason::PermanentLoss,
                steps: steps
                    .into_iter()
                    .map(|(sub, from, to)| MigrationStep {
                        sub: SubCollectionId::new(sub),
                        from: NodeId::new(from),
                        to: NodeId::new(to),
                    })
                    .collect(),
            };
            self.execute_plan(&plan);
        }
        self.finish_heal();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::ClusterConfig;
    use super::*;
    use nlp::NamedEntityRecognizer;

    fn elastic_cluster(nodes: usize, ecfg: ElasticConfig) -> (Corpus, Cluster) {
        let c = Corpus::generate(CorpusConfig::small(92)).unwrap();
        let retriever = retriever(&c);
        let cfg = ClusterConfig {
            nodes,
            elastic: Some(ecfg),
            ..ClusterConfig::default()
        };
        let cl = Cluster::start(retriever, NamedEntityRecognizer::standard(), cfg);
        (c, cl)
    }

    fn fast_throttle() -> ElasticConfig {
        ElasticConfig {
            throttle: rebalance::MigrationThrottle {
                step_secs: 0.0005,
                ..rebalance::MigrationThrottle::default()
            },
            ..ElasticConfig::default()
        }
    }

    #[test]
    fn drain_migrates_ownership_live_and_join_brings_it_back() {
        let (c, cl) = elastic_cluster(4, fast_throttle());
        assert_eq!(cl.rebalance_status(), Some((0, true)));
        let qs = QuestionGenerator::new(&c, 11).generate(4);
        let before = cl.ask(&qs[0].question).unwrap();
        assert!(before.coverage.is_complete());

        let victim = NodeId::new(1);
        let moved = cl.drain(victim);
        assert!(moved > 0, "the drained node owned sub-collections");
        assert!(
            cl.ownership().iter().all(|(_, n)| *n != victim.raw()),
            "every sub-collection re-homed off the drained node"
        );
        let (epoch, converged) = cl.rebalance_status().unwrap();
        assert!(converged, "drain must restore full coverage");
        assert_eq!(epoch as usize, moved, "one epoch bump per transfer");

        // The drained node serves no further PR work, yet answers stay
        // complete: live migration lost nothing.
        for gq in &qs[1..] {
            let out = cl.ask(&gq.question).unwrap();
            assert!(out.coverage.is_complete());
            assert!(!out.pr_nodes.contains(&victim));
        }

        let rejoined = cl.join(victim);
        assert!(rejoined > 0, "join migrates a fair share back");
        assert!(cl.ownership().iter().any(|(_, n)| *n == victim.raw()));
        assert!(cl.rebalance_status().unwrap().1);

        let snap = cl.metrics().snapshot();
        assert_eq!(
            snap.counter(r#"dqa_rebalance_plans_total{reason="drain"}"#),
            1
        );
        assert_eq!(
            snap.counter(r#"dqa_rebalance_plans_total{reason="join"}"#),
            1
        );
        assert_eq!(
            snap.counter("dqa_rebalance_migrated_total") as usize,
            moved + rejoined
        );
        cl.shutdown();
    }

    #[test]
    fn standby_owns_nothing_until_joined() {
        let ecfg = ElasticConfig {
            standby_nodes: 1,
            ..fast_throttle()
        };
        let (c, cl) = elastic_cluster(4, ecfg);
        let standby = NodeId::new(3);
        assert!(
            cl.ownership().iter().all(|(_, n)| *n != standby.raw()),
            "a warm spare owns nothing at boot"
        );
        let out = cl.ask(&QuestionGenerator::new(&c, 12).generate(1)[0].question);
        let ans = out.unwrap();
        assert!(ans.coverage.is_complete());
        assert!(!ans.pr_nodes.contains(&standby), "standbys get no PR work");

        assert!(cl.join(standby) > 0, "joining pulls in a fair share");
        assert!(cl.ownership().iter().any(|(_, n)| *n == standby.raw()));
        assert_eq!(cl.node_health(standby), Some(NodeHealth::Alive));
        cl.shutdown();
    }

    #[test]
    fn heal_evacuates_a_permanently_lost_owner_but_not_a_straggler() {
        let ecfg = ElasticConfig {
            detector: rebalance::DetectorConfig {
                lease_secs: 0.05,
                suspect_phi: 1.5,
                dead_phi: 3.0,
                min_gap_secs: 0.001,
            },
            ..fast_throttle()
        };
        let (c, cl) = elastic_cluster(3, ecfg);
        // Teach the detector each node's heartbeat cadence.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(15));
            cl.heal();
        }
        let victim = NodeId::new(2);
        assert_eq!(cl.node_health(victim), Some(NodeHealth::Alive));
        cl.kill_node(victim);
        // Within the lease the silence is a straggler: no migration.
        assert_eq!(cl.heal(), 0, "no evacuation inside the lease window");
        std::thread::sleep(Duration::from_millis(200));
        let moved = cl.heal();
        assert!(moved > 0, "past the lease the loss is permanent");
        assert!(cl.ownership().iter().all(|(_, n)| *n != victim.raw()));
        assert!(cl.rebalance_status().unwrap().1, "coverage healed");
        let snap = cl.metrics().snapshot();
        assert_eq!(
            snap.counter(r#"dqa_rebalance_plans_total{reason="permanent-loss"}"#),
            1
        );
        assert!(snap.histograms["dqa_rebalance_heal_seconds"].count >= 1);
        // Questions still answer in full off the survivors.
        let out = cl
            .ask(&QuestionGenerator::new(&c, 13).generate(1)[0].question)
            .unwrap();
        assert!(out.coverage.is_complete());
        cl.shutdown();
    }
}
