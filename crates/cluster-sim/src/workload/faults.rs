//! Faults in virtual time: the schedule flattened into a timeline of
//! point actions, node crash / rejoin / straggler handling with the
//! Fig. 5c / 6b recovery paths, the link and load-monitor packet judges,
//! and the coordinator-failover *model* (lease, journal replay latency,
//! term fencing) — a model of `dqa-runtime`'s failover path, not shared
//! code: the runtime's is file I/O and threads.

use super::question::{Phase, Tag};
use super::QaSimulation;
use crate::engine::Stage;
use faults::{FaultEvent, FaultSchedule, LinkDecision, LossJudge};
use qa_types::{NodeId, ResourceVector};

/// One entry of the fault timeline (config events flattened into point
/// actions applied at their virtual time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum FaultAction {
    /// Node dies (permanent when no matching `Rejoin` follows).
    Die(NodeId),
    /// Straggler window opens: node runs at the given speed factor.
    Slow(NodeId, f64),
    /// Straggler window closes.
    Unslow(NodeId),
    /// The leader coordinator crashes: admissions stop until a standby's
    /// lease expires and it replays the journal (the virtual-time model
    /// of `dqa-runtime`'s failover path).
    CoordinatorDown,
    /// The crashed ex-leader process returns — as a fenced standby, so
    /// this is a no-op for the workload (modeled for schedule symmetry).
    CoordinatorUp,
    /// The leader is partitioned from the standbys: it keeps serving, but
    /// once the lease lapses a standby promotes and every append the
    /// zombie attempts is fenced.
    PartitionStart,
    /// The partition heals; the ex-leader observes the higher term and
    /// stops appending.
    PartitionEnd,
    /// Operator drain: the node stops taking new placements, its
    /// sub-collections evacuate under the migration throttle, and it
    /// departs once the evacuation plan completes.
    Decommission(NodeId),
    /// A node enters (or re-enters) the pool: a transiently crashed node
    /// comes back with reset state; under the elastic tier it — or a
    /// standby, or a previously drained node — also receives its fair
    /// share of sub-collections.
    Join(NodeId),
}

/// Standby lease length in virtual seconds: how long after the last
/// heartbeat a standby waits before promoting itself.
const FAILOVER_LEASE_SECS: f64 = 0.5;

/// Virtual seconds a standby spends folding one journal record during
/// replay. Recovery latency is therefore `lease + records × this`, the
/// same linear shape the runtime recovery-soak measures.
const REPLAY_SECS_PER_RECORD: f64 = 2e-5;

/// Flatten the schedule into point actions in time order.
pub(super) fn timeline(faults: &FaultSchedule) -> Vec<(f64, FaultAction)> {
    let mut t: Vec<(f64, FaultAction)> = Vec::new();
    for ev in &faults.events {
        match *ev {
            FaultEvent::Crash { node, at, rejoin } => {
                t.push((at, FaultAction::Die(node)));
                if let Some(r) = rejoin {
                    t.push((r, FaultAction::Join(node)));
                }
            }
            FaultEvent::Straggler {
                node,
                from,
                until,
                factor,
            } => {
                t.push((from, FaultAction::Slow(node, factor)));
                t.push((until, FaultAction::Unslow(node)));
            }
            FaultEvent::CoordinatorCrash { at, rejoin } => {
                t.push((at, FaultAction::CoordinatorDown));
                if let Some(r) = rejoin {
                    t.push((r, FaultAction::CoordinatorUp));
                }
            }
            FaultEvent::LeaderPartition { from, until } => {
                t.push((from, FaultAction::PartitionStart));
                t.push((until, FaultAction::PartitionEnd));
            }
            FaultEvent::NodeDecommission { node, at } => {
                t.push((at, FaultAction::Decommission(node)));
            }
            FaultEvent::NodeJoin { node, at } => {
                t.push((at, FaultAction::Join(node)));
            }
            // Stall windows pace the migration scheduler, not the task
            // engine: `elastic::boot` hands them to the rebalancer.
            FaultEvent::RebalanceStall { .. } => {}
            // Federation faults address the broker tier above this
            // per-shard simulation: `federation::sim` consumes them, a
            // single-coordinator run has no shard to lose.
            FaultEvent::ShardDown { .. }
            | FaultEvent::ShardPartition { .. }
            | FaultEvent::BrokerCrash { .. } => {}
            // Corruption events damage persisted byte stores; the
            // integrity DES (crate::integrity) models the
            // detect→quarantine→scrub→repair cycle in virtual time. The
            // question-latency engine here treats storage as abstract
            // demand, so there is nothing to flip.
            FaultEvent::BitFlip { .. } | FaultEvent::TornWrite { .. } => {}
        }
    }
    // Stable sort: same-time actions apply in config order, which is
    // itself deterministic.
    t.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    t
}

/// The coordinator-failover model's state. Inert unless the schedule
/// contains coordinator faults.
pub(super) struct Failover {
    /// Whether the schedule contains coordinator faults: only then is the
    /// question journal modeled (record counting, replay latency, terms).
    pub(super) journaled: bool,
    /// Coordinator term in force (starts at 1).
    pub(super) term: u64,
    /// Leader crashed and no standby has promoted yet: admissions halt.
    pub(super) leader_down: bool,
    /// Virtual time of the in-force outage (crash or partition start).
    down_at: f64,
    /// When the standby's lease expires and journal replay completes —
    /// the promotion instant.
    pub(super) pending_promote: Option<f64>,
    /// Partition zombie window: the deposed ex-leader is still serving
    /// and every journal append it attempts is fenced.
    pub(super) zombie: bool,
    /// Journal records appended so far (drives replay latency).
    journal_records: u64,
}

impl Failover {
    pub(super) fn new(faults: &FaultSchedule) -> Failover {
        Failover {
            journaled: faults.events.iter().any(|ev| {
                matches!(
                    ev,
                    FaultEvent::CoordinatorCrash { .. } | FaultEvent::LeaderPartition { .. }
                )
            }),
            term: 1,
            leader_down: false,
            down_at: 0.0,
            pending_promote: None,
            zombie: false,
            journal_records: 0,
        }
    }

    /// The promotion instant for an outage starting at `at`: the lease,
    /// then journal replay, linear in the record count.
    fn promote_at(&self, at: f64) -> f64 {
        at + FAILOVER_LEASE_SECS + REPLAY_SECS_PER_RECORD * self.journal_records as f64
    }
}

/// Each node's load table under load-monitor packet loss: `observed[o][n]`
/// is node `o`'s last successfully received load report from node `n`.
/// Empty (and every view the truth) unless monitor loss is injected.
pub(super) struct MonitorView {
    judge: LossJudge,
    seq: u64,
    observed: Vec<Vec<ResourceVector>>,
}

impl MonitorView {
    pub(super) fn new(faults: &FaultSchedule, nodes: usize) -> MonitorView {
        MonitorView {
            judge: faults.monitor_judge(),
            seq: 0,
            observed: if faults.monitor_loss > 0.0 {
                vec![vec![ResourceVector::default(); nodes]; nodes]
            } else {
                Vec::new()
            },
        }
    }

    /// The cluster as `observer` sees it: `truth` (the placeable nodes
    /// with their real loads) without monitor-loss injection; with it,
    /// each peer's row refreshes from `commit` only when that broadcast
    /// packet survives, so dispatchers act on stale load values.
    /// Liveness is unaffected — a dead node is in no view, like the
    /// runtime's heartbeat-staleness check, which monitor loss does not
    /// defeat.
    pub(super) fn seen_by(
        &mut self,
        observer: NodeId,
        commit: &[ResourceVector],
        truth: Vec<(NodeId, ResourceVector)>,
    ) -> Vec<(NodeId, ResourceVector)> {
        if self.observed.is_empty() {
            return truth;
        }
        let o = observer.index();
        for (n, load) in commit.iter().enumerate() {
            let msg = self.seq;
            self.seq += 1;
            let flow = ((o as u64) << 32) | n as u64;
            if n == o || !self.judge.lost(flow, msg) {
                self.observed[o][n] = *load;
            }
        }
        truth
            .into_iter()
            .map(|(n, _)| (n, self.observed[o][n.index()]))
            .collect()
    }
}

impl QaSimulation {
    /// The leader coordinator crashes. In-flight sub-tasks keep running —
    /// the standbys tail the journal over the link layer, so the work
    /// already granted is never lost — but no new question can be admitted
    /// until a standby's lease expires and it finishes replaying the
    /// journal (linear in the record count).
    pub(super) fn coordinator_down(&mut self, at: f64) {
        if self.failover.leader_down {
            return;
        }
        self.failover.leader_down = true;
        self.failover.down_at = at;
        self.failover.pending_promote = Some(self.failover.promote_at(at));
    }

    /// The leader is partitioned from its standbys. Unlike a crash it
    /// keeps serving (arrivals flow), but once the lease lapses a standby
    /// promotes to the next term and the isolated ex-leader becomes a
    /// zombie whose journal appends are fenced.
    pub(super) fn partition_start(&mut self, at: f64) {
        self.failover.down_at = at;
        self.failover.pending_promote = Some(self.failover.promote_at(at));
    }

    /// A standby's lease expired and its journal replay finished: it is
    /// now the leader for the next term.
    pub(super) fn promote(&mut self, at: f64) {
        let fo = &mut self.failover;
        fo.pending_promote = None;
        fo.term += 1;
        if fo.leader_down {
            fo.leader_down = false;
        } else {
            // Partition promotion: the deposed ex-leader keeps serving
            // until the partition heals; every append it attempts in the
            // meantime is rejected by the term fence.
            fo.zombie = true;
        }
        self.metrics.failovers.inc();
        self.metrics.leader_term.set(fo.term as f64);
        self.metrics
            .recovery_seconds
            .observe((at - fo.down_at).max(0.0));
        self.metrics.replayed_records.add(fo.journal_records);
        self.metrics.resumed_questions.add(self.in_flight as u64);
    }

    /// Account `n` journal appends by the serving coordinator. Inert
    /// unless the schedule contains coordinator faults; a zombie
    /// ex-leader's appends land in `dqa_fenced_grants_total` instead of
    /// the journal.
    pub(super) fn journal_mark(&mut self, n: u64) {
        if !self.failover.journaled {
            return;
        }
        if self.failover.zombie {
            self.metrics.fenced_grants.add(n);
            return;
        }
        self.failover.journal_records += n;
        self.metrics.journal_records.add(n);
    }

    /// Inject a permanent node failure: kill its tasks, recover their work
    /// (Fig. 5c for sender partitions, Fig. 6b for chunks), re-home its
    /// resident questions.
    pub(super) fn fail_node(&mut self, node: NodeId) {
        if self.dead[node.index()] {
            return;
        }
        self.dead[node.index()] = true;
        self.metrics.worker_failures.inc();
        assert!(
            self.dead.iter().any(|d| !d),
            "failure injection killed every node"
        );
        // Its committed load is gone with it.
        self.commit[node.index()] = ResourceVector::default();

        let killed = self.engine.kill_where(|tag| match *tag {
            Tag::Qp(q) => self.states[q].home == node,
            Tag::PrPart { node: n, .. }
            | Tag::ApPart { node: n, .. }
            | Tag::ApChunk { node: n, .. } => n == node,
            Tag::PoMerge(q) | Tag::ApSort(q) => self.states[q].home == node,
        });

        // Re-home questions resident on the dead node first, so recovery
        // paths that consult `home` see a live node.
        let resident: Vec<usize> = (0..self.states.len())
            .filter(|&q| {
                self.states[q].home == node
                    && !matches!(self.states[q].phase, Phase::Pending | Phase::Done)
            })
            .collect();
        for q in resident {
            let new_home = self.least_loaded_live();
            self.resident[node.index()] = self.resident[node.index()].saturating_sub(1);
            self.update_thrash(node);
            self.resident[new_home.index()] += 1;
            let c = Self::scaled(Self::question_commit(), self.states[q].work_scale);
            self.add_commit(new_home, c);
            self.update_thrash(new_home);
            self.states[q].home = new_home;
        }

        for tag in killed {
            match tag {
                Tag::Qp(q) => {
                    // Restart QP on the (re-homed) node.
                    let home = self.states[q].home;
                    let qp = self.states[q].demand.qp;
                    self.engine.spawn(vec![Stage::cpu(home, qp)], Tag::Qp(q));
                }
                Tag::PrPart { q, node: n, .. } => {
                    self.states[q].pr_outstanding -= 1;
                    self.states[q].pr_queue.fail(n);
                    self.redispatch_pr(q);
                }
                Tag::PoMerge(q) => {
                    let now = self.engine.now();
                    self.start_po(q, now);
                }
                Tag::ApPart { q, node: n, .. } => {
                    self.states[q].ap_outstanding -= 1;
                    let items = self.states[q].ap_partitions.remove(&n).unwrap_or_default();
                    if !items.is_empty() {
                        // Fig. 5c: build a new task from the unprocessed
                        // partition and reschedule it.
                        let target = self.least_loaded_live();
                        self.spawn_ap_partition(q, target, items);
                    } else if self.states[q].ap_outstanding == 0 {
                        let now = self.engine.now();
                        self.start_sort(q, now);
                    }
                }
                Tag::ApChunk { q, node: n, .. } => {
                    self.states[q].ap_outstanding -= 1;
                    if let Some(queue) = self.states[q].ap_queue.as_mut() {
                        queue.fail(n);
                    }
                    self.redispatch_ap_chunks(q);
                }
                Tag::ApSort(q) => {
                    let now = self.engine.now();
                    self.start_sort(q, now);
                }
            }
        }
    }

    /// A transiently crashed node rejoins with reset state: it becomes
    /// eligible for new placements again. Work it lost was already
    /// recovered at crash time; its pre-crash load commitments stay
    /// zeroed (the runtime's rejoin hygiene, in virtual time).
    pub(super) fn revive_node(&mut self, node: NodeId) {
        if !self.dead[node.index()] {
            return;
        }
        self.dead[node.index()] = false;
        self.commit[node.index()] = ResourceVector::default();
        self.resident[node.index()] = 0;
        self.update_thrash(node);
    }

    /// Open or close a straggler window: the node's CPU and disk run at
    /// `factor` of their normal speed until further notice.
    pub(super) fn set_slow(&mut self, node: NodeId, factor: f64) {
        self.slow[node.index()] = factor.clamp(1e-3, 1.0);
        self.update_thrash(node);
    }

    /// A network stage routed per the configured network model: the home
    /// node's switched link, or the shared segment.
    pub(super) fn net_stage(&self, home: NodeId, bytes: f64) -> Stage {
        if self.cfg.switched_network {
            Stage::net_link(home, bytes)
        } else {
            Stage::net(bytes)
        }
    }

    /// Network stage(s) for one message after link-fault injection. A lost
    /// message is charged the modeled retransmission timeout before the
    /// retry goes out; a delayed one is held back by the configured
    /// latency; a duplicated one doubles the bytes on the wire (chunk-id
    /// dedup at the receiver is free). Flow = destination link, msg = a
    /// global per-transfer sequence number — both deterministic, so any
    /// schedule replays bit-stably. With a clean link this is exactly
    /// [`QaSimulation::net_stage`].
    pub(super) fn faulty_net_stages(&mut self, home: NodeId, bytes: f64) -> Vec<Stage> {
        if self.cfg.faults.link.is_clean() {
            return vec![self.net_stage(home, bytes)];
        }
        let msg = self.net_seq;
        self.net_seq += 1;
        match self.link_judge.decide(u64::from(home.raw()), msg) {
            LinkDecision::Deliver => vec![self.net_stage(home, bytes)],
            LinkDecision::Drop => vec![
                Stage::delay(self.link_judge.retransmit_secs()),
                self.net_stage(home, bytes),
            ],
            LinkDecision::Delay(d) => vec![Stage::delay(d), self.net_stage(home, bytes)],
            LinkDecision::Duplicate => vec![self.net_stage(home, 2.0 * bytes)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{BalancingStrategy, SimConfig};
    use scheduler::partition::PartitionStrategy;

    #[test]
    fn node_failure_mid_run_recovers_all_questions() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 77);
        // Kill node 2 early: several questions lose PR/AP sub-tasks.
        cfg.faults = FaultSchedule::none().crash(NodeId::new(2), 30.0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 6, "every question completes");
        for q in &r.questions {
            assert!(q.finished > q.arrival);
            assert_ne!(q.home, NodeId::new(2), "no question ends on the dead node");
        }
    }

    #[test]
    fn failure_slows_but_does_not_stop_high_load_run() {
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 7);
        cfg.faults = FaultSchedule::none().crash(NodeId::new(1), 60.0);
        let with_failure = QaSimulation::new(cfg).run();
        let healthy =
            QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 7)).run();
        assert_eq!(with_failure.questions.len(), healthy.questions.len());
        assert!(
            with_failure.makespan > healthy.makespan,
            "losing a quarter of the cluster must cost time: {:.0} vs {:.0}",
            with_failure.makespan,
            healthy.makespan
        );
    }

    #[test]
    fn sender_partition_failure_recovers_via_fig5c() {
        let mut cfg = SimConfig::paper_low_load(4, PartitionStrategy::Isend, 4, 78);
        cfg.faults = FaultSchedule::none().crash(NodeId::new(3), 50.0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 4);
    }

    #[test]
    fn dns_skips_dead_nodes_for_new_arrivals() {
        let mut cfg = SimConfig::paper_high_load(3, BalancingStrategy::Dns, 9);
        cfg.faults = FaultSchedule::none().crash(NodeId::new(0), 0.5);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 24);
        for q in r.questions.iter().skip(3) {
            assert_ne!(q.home, NodeId::new(0));
        }
    }

    #[test]
    fn crashed_node_rejoins_and_serves_new_arrivals() {
        // Node 1 dies at t=20 and rejoins at t=200: questions arriving
        // while it is down must avoid it, questions arriving after the
        // rejoin may use it again, and nothing is lost either way.
        let mut cfg =
            SimConfig::paper_low_load(3, PartitionStrategy::Recv { chunk_size: 40 }, 8, 91);
        cfg.faults = FaultSchedule::seeded(91).crash_rejoin(NodeId::new(1), 20.0, 200.0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 8, "every question completes");
        let during: Vec<_> = r
            .questions
            .iter()
            .filter(|q| q.arrival > 20.0 && q.finished < 200.0)
            .collect();
        for q in &during {
            assert_ne!(q.home, NodeId::new(1), "down node must not host");
        }
        let after: Vec<_> = r.questions.iter().filter(|q| q.arrival >= 200.0).collect();
        assert!(
            during.is_empty() || !after.is_empty(),
            "serial run long enough to straddle the rejoin"
        );
    }

    #[test]
    fn straggler_window_slows_the_run_then_releases() {
        let clean = QaSimulation::new(SimConfig::paper_low_load(
            2,
            PartitionStrategy::Recv { chunk_size: 40 },
            4,
            92,
        ))
        .run();
        let mut cfg =
            SimConfig::paper_low_load(2, PartitionStrategy::Recv { chunk_size: 40 }, 4, 92);
        cfg.faults = FaultSchedule::seeded(92).straggler(NodeId::new(0), 0.0, 1e6, 0.25);
        let slowed = QaSimulation::new(cfg).run();
        assert_eq!(slowed.questions.len(), 4);
        assert!(
            slowed.makespan > clean.makespan,
            "a 4x straggler must cost time: {:.1} vs {:.1}",
            slowed.makespan,
            clean.makespan
        );
    }

    #[test]
    fn link_faults_slow_but_never_lose_questions() {
        let clean = QaSimulation::new(SimConfig::paper_low_load(
            4,
            PartitionStrategy::Recv { chunk_size: 40 },
            4,
            93,
        ))
        .run();
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 93);
        cfg.faults = FaultSchedule::seeded(93)
            .message_loss(0.2)
            .message_delay(0.2, 0.5)
            .message_dup(0.1);
        cfg.faults.link.retransmit_secs = 1.0;
        let faulty = QaSimulation::new(cfg).run();
        assert_eq!(faulty.questions.len(), 4, "no question lost to the link");
        assert!(
            faulty.makespan >= clean.makespan,
            "retransmissions and delays cannot make the run faster: {:.2} vs {:.2}",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn coordinator_crash_fails_over_and_loses_nothing() {
        let clean = QaSimulation::new(SimConfig::paper_low_load(
            4,
            PartitionStrategy::Recv { chunk_size: 40 },
            6,
            96,
        ))
        .run();
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 96);
            cfg.faults = FaultSchedule::seeded(96).coordinator_crash(20.0);
            QaSimulation::new(cfg)
        };
        let crashed = build().run();
        assert_eq!(crashed.questions.len(), 6, "zero questions lost");
        assert_eq!(
            crashed.metrics.counter("dqa_failovers_total"),
            1,
            "exactly one standby promotion"
        );
        assert!(
            crashed.metrics.counter("dqa_replayed_records_total") > 0,
            "the standby replays a non-empty journal"
        );
        assert_eq!(crashed.metrics.gauges["dqa_leader_term"], 2.0);
        assert!(
            crashed
                .metrics
                .histograms
                .contains_key("dqa_recovery_seconds"),
            "recovery latency lands in the catalogue"
        );
        assert!(
            crashed.makespan >= clean.makespan,
            "held arrivals cannot make the run faster: {:.1} vs {:.1}",
            crashed.makespan,
            clean.makespan
        );
        assert_eq!(crashed, build().run(), "failover replays bit-stably");
    }

    #[test]
    fn leader_partition_fences_the_zombie_and_completes_everything() {
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 97);
            cfg.faults = FaultSchedule::seeded(97).leader_partition(10.0, 400.0);
            QaSimulation::new(cfg)
        };
        let r = build().run();
        assert_eq!(r.questions.len(), 6, "the zombie's answers still count");
        assert_eq!(r.metrics.counter("dqa_failovers_total"), 1);
        assert!(
            r.metrics.counter("dqa_fenced_grants_total") > 0,
            "every append the deposed leader attempts must be fenced"
        );
        assert_eq!(r.metrics.gauges["dqa_leader_term"], 2.0);
        assert_eq!(r, build().run(), "partition schedule replays bit-stably");
    }

    #[test]
    fn monitor_loss_degrades_balancing_but_is_deterministic() {
        let run = |loss: f64| {
            let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 94);
            cfg.faults = FaultSchedule::seeded(94).monitor_loss(loss);
            QaSimulation::new(cfg).run()
        };
        let lossy = run(0.8);
        assert_eq!(lossy.questions.len(), 32, "stale views lose no questions");
        assert_eq!(lossy, run(0.8), "monitor loss must replay bit-stably");
        // A fully-informed run and a mostly-blind run may place questions
        // differently; both must still complete everything.
        assert_eq!(run(0.0).questions.len(), 32);
    }

    #[test]
    fn every_fault_type_is_inert_at_zero_rate() {
        // A seeded-but-empty schedule must reproduce the unfaulted run
        // bit for bit (guards the fast paths in faulty_net_stages and
        // loads_seen_by).
        let base =
            QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 95)).run();
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 95);
        cfg.faults = FaultSchedule::seeded(12345)
            .message_loss(0.0)
            .message_delay(0.0, 1.0)
            .message_dup(0.0)
            .monitor_loss(0.0);
        assert_eq!(QaSimulation::new(cfg).run(), base);
    }
}
