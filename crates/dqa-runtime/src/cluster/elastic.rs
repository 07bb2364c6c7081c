//! Elastic membership: the operator verbs (`drain`, `join`), the
//! self-healing pass (`heal`), and the wall-clock driver of the
//! [`Rebalancer`] they all go through. The rebalancer decides — who is a
//! member, which plan to mint, which step is due, whether it yields to
//! foreground, who departs, when the tier has healed; this file feeds it
//! liveness from the load board and the failure detector, anchors its
//! clock to the wall, sleeps until each step is due, and does the
//! journaling, metrics and spans.

use super::Cluster;
use crate::board::LoadBoard;
use crate::clock::now_instant;
use crate::node::HEARTBEAT_EVERY;
use crate::sync::Mutex;
use dqa_obs::{CausalSpan, CauseSet, DqaMetrics};
use journal::{JournalRecord, RecoveredState};
use qa_types::{NodeId, QaModule, SubCollectionId};
use rebalance::{
    ElasticConfig, FailureDetector, MigrationPlan, MigrationStep, Minted, NodeHealth,
    RebalanceReason, Rebalancer, Stepped,
};
use std::time::{Duration, Instant};

/// Trace-id namespace for migration-plan span trees (XORed with the
/// plan id so they never collide with question traces).
const MIGRATION_TRACE_NS: u64 = 0x4d49_4752_0000_0000; // "MIGR"

/// The elastic-membership tier in wall time: the shared state machine,
/// what the failure detector believes, and the anchor that turns
/// `Instant`s into the `f64` seconds both speak. One mutex guards it all —
/// rebalancing is a control-plane rarity, never on the per-question hot
/// path (readers take the lock once per PR scheduling decision, holders
/// never block on I/O or sleep).
pub(super) struct ElasticRuntime {
    rebalancer: Rebalancer,
    detector: FailureDetector,
    /// Wall anchor for the `f64` timeline.
    epoch: Instant,
}

impl ElasticRuntime {
    /// Boot-time state: the standbys the rebalancer starts outside the
    /// pool are suspended on the board too — threads up, serving nothing
    /// until a `join`.
    pub(super) fn boot(
        cfg: ElasticConfig,
        nodes: usize,
        shards: usize,
        board: &LoadBoard,
        metrics: &DqaMetrics,
    ) -> ElasticRuntime {
        let rebalancer = Rebalancer::new(cfg, nodes, shards as u32, Vec::new());
        for node in (0..nodes).map(|i| NodeId::new(i as u32)) {
            if !rebalancer.is_active(node) {
                board.suspend(node);
            }
        }
        metrics.rebalance_converged.set(1.0);
        metrics.ownership_epoch.set(0.0);
        ElasticRuntime {
            rebalancer,
            detector: FailureDetector::new(nodes, cfg.detector, 0.0),
            epoch: now_instant(),
        }
    }

    fn now_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Whether `node` is an active member (takes placements and work).
    pub(super) fn is_member(&self, node: NodeId) -> bool {
        self.rebalancer.is_active(node)
    }

    /// Whether `node` owns a sub-collection right now (the PR owner
    /// predicate).
    pub(super) fn owns(&self, node: NodeId, shards: u32) -> bool {
        self.rebalancer.owns_any(node, shards)
    }
}

impl Cluster {
    /// Operator drain: migrate every sub-collection off `node` (live — the
    /// node keeps serving PR chunks while each transfer is in flight),
    /// then retire it from the pool. Returns the number of ownership
    /// transfers applied. A drain that would leave nobody to serve is
    /// refused (the node stays in service). Without a
    /// [`ClusterConfig::elastic`] config this degrades to
    /// [`Cluster::suspend_node`].
    pub fn drain(&self, node: NodeId) -> usize {
        if self.elastic.is_none() {
            self.suspend_node(node);
        }
        self.rebalance(|es, live, now, term| {
            es.detector.mark_left(node);
            es.rebalancer
                .drain(node, live, now, term)
                .into_iter()
                .collect()
        })
    }

    /// Operator join: bring `node` (a warm standby, a previously drained
    /// node, or a recovered crash) into the serving pool and migrate its
    /// fair share of sub-collections onto it. Returns the number of
    /// ownership transfers applied.
    pub fn join(&self, node: NodeId) -> usize {
        self.board.resume(node);
        // A resumed node turns live with its first heartbeat, one idle poll
        // away. Wait for it (bounded by the staleness window: a killed or
        // flap-quarantined node never shows) so the plan, the convergence
        // check and PR routing all see the node they hand data to.
        let patience = now_instant() + self.cfg.staleness;
        while self.elastic.is_some() && !self.board.is_alive(node) && now_instant() < patience {
            std::thread::sleep(HEARTBEAT_EVERY);
        }
        self.rebalance(|es, live, now, term| {
            es.detector.mark_joined(node, now);
            es.rebalancer
                .join(node, live, now, term)
                .into_iter()
                .collect()
        })
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
        let evacuated = self.rebalance(|es, live, now, term| {
            for n in live {
                es.detector.observe(*n, now);
            }
            let dead: Vec<NodeId> = (0..self.cfg.nodes)
                .map(|i| NodeId::new(i as u32))
                .filter(|n| es.detector.health(*n, now) == NodeHealth::Dead)
                .collect();
            // The phi accrual has already waited out the lease: the loss
            // is detected as of now.
            dead.into_iter()
                .filter_map(|n| es.rebalancer.lost(n, live, now, term))
                .collect()
        });
        // Skew pass against the post-evacuation map: reuse the
        // dispatcher's PR load gauge as the imbalance signal, exactly the
        // quantity Eqs. 1–3 already maintain.
        evacuated
            + self.rebalance(|es, _, now, term| {
                let loads = || {
                    let loads = self.board.live_loads().into_iter();
                    loads
                        .map(|(n, v)| (n, self.functions.load_for(QaModule::Pr, v)))
                        .collect()
                };
                es.rebalancer.skew(now, term, loads).into_iter().collect()
            })
    }

    /// The detector's three-way verdict for `node` right now (`None`
    /// without an elastic config). Suspect ≠ Dead is the whole point:
    /// only `Dead` ever triggers migration.
    pub fn node_health(&self, node: NodeId) -> Option<NodeHealth> {
        let es = self.elastic.as_ref()?.lock();
        Some(es.detector.health(node, es.now_secs()))
    }

    /// Elastic-tier status: `(ownership epoch, converged)` where converged
    /// means every sub-collection is owned by exactly one live member.
    /// `None` without an elastic config.
    pub fn rebalance_status(&self) -> Option<(u64, bool)> {
        let live = self.live_pool();
        let es = self.elastic.as_ref()?.lock();
        let r = &es.rebalancer;
        Some((r.ownership().epoch(), r.converged(&live)))
    }

    /// Current sub-collection owners as `(sub, node)` pairs, ascending by
    /// sub-collection (empty without an elastic config) — the `qa-cli
    /// rebalance` listing.
    pub fn ownership(&self) -> Vec<(u32, u32)> {
        let Some(e) = &self.elastic else {
            return Vec::new();
        };
        let es = e.lock();
        let owner = |s| es.rebalancer.ownership().owner(SubCollectionId::new(s));
        (0..self.shards as u32)
            .filter_map(|s| owner(s).map(|n| (s, n.raw())))
            .collect()
    }

    /// Take one membership decision — `decide(tier, live nodes, now,
    /// term)` under the elastic lock, returning the plans it minted — then
    /// drive the step queue dry. Returns transfers applied; 0 without an
    /// elastic config.
    fn rebalance(
        &self,
        decide: impl FnOnce(&mut ElasticRuntime, &[NodeId], f64, u64) -> Vec<Minted>,
    ) -> usize {
        let Some(e) = &self.elastic else {
            return 0;
        };
        let live = self.live_pool();
        let minted = {
            let mut es = e.lock();
            let now = es.now_secs();
            decide(&mut es, &live, now, self.term())
        };
        minted.iter().for_each(|m| self.plan_minted(m));
        self.run_migrations(e)
    }

    /// A plan entered the step queue: count it, break the convergence
    /// gauge, and journal it before any of its steps applies.
    fn plan_minted(&self, minted: &Minted) {
        let Minted {
            plan,
            saturated,
            stalled,
        } = minted;
        self.metrics
            .plan_minted(&plan.reason.to_string(), *saturated, *stalled);
        if self.cfg.journal.is_some() {
            let steps = plan.steps.iter();
            self.journal_append(&JournalRecord::RebalancePlanned {
                plan: plan.id,
                steps: steps
                    .map(|s| (s.sub.raw(), s.from.raw(), s.to.raw()))
                    .collect(),
            });
        }
    }

    /// Drive the rebalancer until its step queue is empty and the tier
    /// has settled: sleep until each step is due, let it apply or yield
    /// to foreground, journal every transfer, retire the nodes a finished
    /// drain names, and publish convergence. The elastic lock is taken
    /// only for the instant each decision is read or committed, never
    /// across a sleep: PR scheduling reads the map contention-free while
    /// the migration paces itself. Returns transfers applied.
    fn run_migrations(&self, e: &Mutex<ElasticRuntime>) -> usize {
        let capacity = self.cfg.overload.max_in_flight;
        let mut applied = 0;
        // One span tree per plan (a plan's steps are contiguous in the
        // queue): children are buffered so the root, whose id they parent
        // under, can be emitted first with its real end.
        let mut children: Vec<CausalSpan> = Vec::new();
        let (mut plan_start, mut waiting_since) = (self.tracer.now(), self.tracer.now());
        let mut causes = CauseSet::none();
        loop {
            let due = {
                let es = e.lock();
                let due = es.rebalancer.next_due();
                due.map(|t| es.epoch + Duration::from_secs_f64(t.max(0.0)))
            };
            let Some(due) = due else {
                let live = self.live_pool();
                let settled = {
                    let mut es = e.lock();
                    let now = es.now_secs();
                    es.rebalancer.settle(&live, now, self.term())
                };
                // `None`: another verb queued steps in between — drive them.
                let Some(settled) = settled else { continue };
                if !settled.replanned.is_empty() {
                    settled.replanned.iter().for_each(|m| self.plan_minted(m));
                    continue;
                }
                // Evacuation first, suspension second: the drain is live.
                for node in settled.departures {
                    self.board.suspend(node);
                }
                let converged = if settled.converged { 1.0 } else { 0.0 };
                self.metrics.rebalance_converged.set(converged);
                if let Some(secs) = settled.healed_secs {
                    self.metrics.heal_seconds.observe(secs);
                }
                return applied;
            };
            std::thread::sleep(due.saturating_duration_since(now_instant()));
            let in_flight = self.gate.in_flight();
            let stepped = {
                let mut es = e.lock();
                let now = es.now_secs();
                es.rebalancer.step(now, in_flight, capacity)
            };
            let (plan, step, moved, epoch, plan_done) = match stepped {
                None => continue,
                Some(Stepped::Deferred) => {
                    causes = CauseSet::THROTTLED;
                    self.metrics.rebalance_throttled("yielding").inc();
                    continue;
                }
                Some(Stepped::Done {
                    plan,
                    step,
                    moved,
                    epoch,
                    plan_done,
                }) => (plan, step, moved, epoch, plan_done),
            };
            let granted = self.tracer.now();
            if moved {
                applied += 1;
                self.metrics.rebalance_migrated.inc();
                self.metrics.ownership_epoch.set(epoch as f64);
                self.journal_append(&JournalRecord::RebalanceStepDone {
                    plan,
                    sub: step.sub.raw(),
                    to: step.to.raw(),
                });
            }
            let trace = self.tracer.trace_id(MIGRATION_TRACE_NS ^ plan);
            let span = |name, node, start, queued, causes| {
                let end = self.tracer.now();
                CausalSpan::new(trace, None, name, node, start, end, queued, causes)
            };
            let to = Some(step.to.raw());
            let queued = granted - waiting_since;
            children.push(span("migration-step", to, waiting_since, queued, causes));
            (waiting_since, causes) = (self.tracer.now(), CauseSet::none());
            if plan_done {
                self.journal_append(&JournalRecord::RebalanceConverged { plan });
                let root = span("migration", None, plan_start, 0.0, CauseSet::none());
                let root = self.tracer.emit(root);
                for mut child in children.drain(..) {
                    child.parent = Some(root);
                    self.tracer.emit(child);
                }
                plan_start = waiting_since;
            }
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
        self.rebalance(|es, _, now, term| {
            for (sub, to) in state.rebalanced_owners() {
                let (sub, to) = (SubCollectionId::new(sub), NodeId::new(to));
                es.rebalancer.restore_owner(sub, to);
            }
            let epoch = es.rebalancer.ownership().epoch();
            self.metrics.ownership_epoch.set(epoch as f64);
            let step = |(sub, from, to)| MigrationStep {
                sub: SubCollectionId::new(sub),
                from: NodeId::new(from),
                to: NodeId::new(to),
            };
            let unfinished = state.unfinished_rebalances().map(|(id, r)| MigrationPlan {
                id,
                term,
                reason: RebalanceReason::PermanentLoss,
                steps: r.pending_steps().into_iter().map(step).collect(),
            });
            unfinished
                .filter_map(|plan| es.rebalancer.admit(plan, now))
                .collect()
        });
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
    fn drain_never_evacuates_onto_a_standby() {
        // The `soak rebalance` regression, through `Cluster`: nodes 0–2
        // active, node 3 a warm standby whose boot heartbeat is still
        // fresh, so the board calls it alive. drain(1) must not hand it
        // anything, or join(3) finds its fair share already met and
        // moves nothing.
        let ecfg = ElasticConfig {
            standby_nodes: 1,
            ..fast_throttle()
        };
        let (_c, cl) = elastic_cluster(4, ecfg);
        let (victim, standby) = (NodeId::new(1), NodeId::new(3));
        assert!(
            cl.board().is_alive(standby),
            "the drill needs a live standby"
        );
        assert!(cl.drain(victim) > 0);
        assert!(
            cl.ownership().iter().all(|(_, n)| *n != standby.raw()),
            "a standby received a sub-collection before its join: {:?}",
            cl.ownership()
        );
        assert!(cl.join(standby) > 0, "the join plan is non-empty");
        let owned = |n: u32| cl.ownership().iter().filter(|(_, o)| *o == n).count();
        let counts = [owned(0), owned(2), owned(3)];
        assert_eq!(owned(1), 0);
        assert!(
            counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1,
            "final counts {counts:?} are not within one of each other"
        );
        assert_eq!(cl.rebalance_status().map(|(_, ok)| ok), Some(true));
        let snap = cl.metrics().snapshot();
        for reason in ["drain", "join"] {
            let key = format!(r#"dqa_rebalance_plans_total{{reason="{reason}"}}"#);
            assert_eq!(snap.counter(&key), 1, "{reason} plans");
        }
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
