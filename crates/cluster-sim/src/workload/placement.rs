//! Where questions and their modules run: the load bookkeeping the
//! dispatchers read (commitments, residency, thrashing), admission, and
//! the calls into the scheduling decisions both backends share —
//! [`OverloadPolicy::offer`](qa_types::OverloadPolicy::offer) at the
//! gate, [`scheduler::points::place`] at arrival,
//! [`scheduler::points::allocate`] before PR and AP,
//! [`OverloadPolicy::cannot_afford`](qa_types::OverloadPolicy::cannot_afford)
//! for shedding. The numbers are the simulator's own (the configured
//! hysteresis, work-scaled commitments, the sampled demand as an oracle
//! estimate); the decisions are not.

use super::question::{Phase, Tag};
use super::{
    BalancingStrategy, OverheadBreakdown, QaSimulation, QuestionRecord, SimEvent, SimEventKind,
};
use crate::engine::Stage;
use dqa_obs::PhaseTimer;
use qa_types::{
    ModuleTimings, NodeId, Offer, QaModule, QuestionOutcome, ResourceVector, ResourceWeights,
};
use scheduler::diffusion::{GradientModel, SenderDiffusion};
use scheduler::points::{allocate, place, Placement};

/// Questions per node beyond which memory thrashing begins (paper: 4).
const OVERLOAD_THRESHOLD: u32 = 4;

impl QaSimulation {
    // ---- placement & load bookkeeping -------------------------------

    pub(super) fn record(&mut self, question: usize, kind: SimEventKind) {
        if self.cfg.record_trace {
            let at = self.engine.now();
            self.trace.push(SimEvent { at, question, kind });
        }
    }

    pub(super) fn loads(&self) -> Vec<(NodeId, ResourceVector)> {
        (0..self.cfg.nodes)
            .filter(|&n| !self.is_retired(n))
            .map(|n| (NodeId::new(n as u32), self.commit[n]))
            .collect()
    }

    /// Publish the admission-gate gauges (`dqa_in_flight`,
    /// `dqa_admission_waiting`) from the current counters.
    pub(super) fn publish_gate(&self) {
        self.metrics.in_flight.set(self.in_flight as f64);
        self.metrics
            .admission_waiting
            .set(self.admission_wait.len() as f64);
    }

    /// Publish every node's Eq. 1–3 load values into the `dqa_node_load`
    /// gauges — the simulator's analogue of the runtime's broadcast-monitor
    /// sampling point, evaluated at each admission and completion.
    pub(super) fn publish_node_loads(&self) {
        for (n, gauges) in self.node_load.iter().enumerate() {
            for (weights, gauge) in gauges {
                gauge.set(weights.load(self.commit[n]));
            }
        }
    }

    /// The cluster view as `observer` sees it: [`QaSimulation::loads`]
    /// through that node's load table (see [`MonitorView::seen_by`]).
    ///
    /// [`MonitorView::seen_by`]: super::faults::MonitorView::seen_by
    fn loads_seen_by(&mut self, observer: NodeId) -> Vec<(NodeId, ResourceVector)> {
        let truth = self.loads();
        self.monitor.seen_by(observer, &self.commit, truth)
    }

    /// The least-loaded live node (whole-task load function).
    pub(super) fn least_loaded_live(&self) -> NodeId {
        let f = self.functions;
        self.loads()
            .into_iter()
            .min_by(|a, b| {
                f.load_for(QaModule::Qp, a.1)
                    .partial_cmp(&f.load_for(QaModule::Qp, b.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })
            .map(|(n, _)| n)
            .expect("at least one live node")
    }

    pub(super) fn add_commit(&mut self, node: NodeId, v: ResourceVector) {
        let c = &mut self.commit[node.index()];
        c.cpu += v.cpu;
        c.disk += v.disk;
    }

    pub(super) fn remove_commit(&mut self, node: NodeId, v: ResourceVector) {
        let c = &mut self.commit[node.index()];
        c.cpu = (c.cpu - v.cpu).max(0.0);
        c.disk = (c.disk - v.disk).max(0.0);
        // Snap floating-point residue to zero: an ε-load would otherwise
        // make the meta-scheduler treat an idle node as the most loaded of
        // an all-idle set and exclude it from partitions.
        if c.cpu < 1e-9 {
            c.cpu = 0.0;
        }
        if c.disk < 1e-9 {
            c.disk = 0.0;
        }
    }

    pub(super) fn question_commit() -> ResourceVector {
        ResourceVector::new(ResourceWeights::QA.cpu, ResourceWeights::QA.disk)
    }

    pub(super) fn pr_commit() -> ResourceVector {
        ResourceVector::new(ResourceWeights::PR.cpu, ResourceWeights::PR.disk)
    }

    pub(super) fn ap_commit() -> ResourceVector {
        ResourceVector::new(ResourceWeights::AP.cpu, ResourceWeights::AP.disk)
    }

    fn node_speed(&self, node: NodeId) -> f64 {
        self.cfg
            .node_speeds
            .as_ref()
            .and_then(|v| v.get(node.index()).copied())
            .unwrap_or(1.0)
            .max(1e-3)
    }

    pub(super) fn update_thrash(&mut self, node: NodeId) {
        let count = self.resident[node.index()];
        let excess = count.saturating_sub(OVERLOAD_THRESHOLD) as f64;
        // Piecewise-linear slowdown: each excess resident question costs a
        // fixed fraction of the node's speed (page-stealing), floored at
        // 20 %. Linearity makes total cluster capacity invariant under
        // migrations *between* overloaded nodes, so balancing pays off
        // exactly when it moves work toward under-loaded nodes — the effect
        // the paper's experiments measure.
        // Straggler injection composes multiplicatively with thrashing.
        let speed = self.node_speed(node) * self.slow[node.index()];
        let cpu_mult = speed * (1.0 - self.cfg.thrash_slope * excess).max(0.2);
        let disk_mult = speed * (1.0 - 0.7 * self.cfg.thrash_slope * excess).max(0.2);
        self.engine.set_cpu_mult(node, cpu_mult);
        self.engine.set_disk_mult(node, disk_mult);
    }

    pub(super) fn scaled(v: ResourceVector, s: f64) -> ResourceVector {
        ResourceVector::new(v.cpu * s, v.disk * s)
    }

    fn host_question(&mut self, q: usize, node: NodeId) {
        self.resident[node.index()] += 1;
        let c = Self::scaled(Self::question_commit(), self.states[q].work_scale);
        self.add_commit(node, c);
        self.update_thrash(node);
        self.states[q].home = node;
    }

    pub(super) fn unhost_question(&mut self, q: usize) {
        let node = self.states[q].home;
        self.resident[node.index()] = self.resident[node.index()].saturating_sub(1);
        let c = Self::scaled(Self::question_commit(), self.states[q].work_scale);
        self.remove_commit(node, c);
        self.update_thrash(node);
    }

    // ---- phases ------------------------------------------------------

    /// Offer one question to the admission gate: it passes straight into
    /// [`QaSimulation::admit`], parks in the bounded virtual admission
    /// queue, or is rejected outright — [`OverloadPolicy::offer`]'s
    /// trichotomy, the one the runtime's `AdmissionGate` asks.
    ///
    /// [`OverloadPolicy::offer`]: qa_types::OverloadPolicy::offer
    pub(super) fn submit(&mut self, q: usize) {
        let now = self.engine.now();
        {
            let st = &mut self.states[q];
            st.arrival = now.max(st.arrival);
            if let Some(d) = self.cfg.overload.deadline_secs {
                st.deadline = Some(st.arrival + d.max(0.0));
            }
        }
        match self
            .cfg
            .overload
            .offer(self.in_flight, self.admission_wait.len())
        {
            Offer::Admit => self.admit(q),
            Offer::Queue => {
                self.admission_wait.push_back(q);
                self.publish_gate();
            }
            Offer::Reject => self.reject(q),
        }
    }

    /// Refuse one offered question: it gets a zero-timing record at the
    /// rejection instant so the outcome accounting stays conservative
    /// (offered == answered + degraded + rejected, no silent drops).
    pub(super) fn reject(&mut self, q: usize) {
        let at = self.engine.now();
        self.record(q, SimEventKind::Rejected);
        self.metrics.rejected.inc();
        self.publish_gate();
        let st = &mut self.states[q];
        st.phase = Phase::Done;
        st.outcome = QuestionOutcome::Rejected;
        self.records[q] = Some(QuestionRecord {
            arrival: st.arrival,
            finished: at,
            timings: ModuleTimings::default(),
            overhead: OverheadBreakdown::default(),
            home: st.home,
            pr_nodes: 0,
            ap_nodes: 0,
            outcome: QuestionOutcome::Rejected,
        });
        self.completed += 1;
    }

    /// A completion freed an in-flight slot: re-examine the head of the
    /// admission queue. Waiters whose deadline lapsed while parked are
    /// rejected (the runtime's timed condition-variable wait, in virtual
    /// time); the rest are admitted in offer order.
    pub(super) fn drain_admission(&mut self) {
        // A parked question is not competing with itself for the queue.
        while self.cfg.overload.offer(self.in_flight, 0) == Offer::Admit {
            let Some(q) = self.admission_wait.pop_front() else {
                return;
            };
            let now = self.engine.now();
            if self.states[q].deadline.is_some_and(|d| now >= d) {
                self.reject(q);
                continue;
            }
            self.admit(q);
        }
    }

    /// Scheduling point 1 ([`scheduler::points::place`]) and the start of
    /// QP. The arrival decision is the configured strategy's, taken from
    /// the receiving node's own (possibly stale) load table.
    fn admit(&mut self, q: usize) {
        let now = self.engine.now();
        let truth = self.loads();
        let (strategy, dispatcher, f) = (self.cfg.strategy, self.dispatcher, self.functions);
        let (resident, monitor, commit) = (&self.resident, &mut self.monitor, &self.commit);
        let placement = place(
            &truth,
            self.states[q].home,
            &self.cfg.overload,
            |n| resident[n.index()] as usize,
            |receiver, candidates| {
                let view = monitor.seen_by(receiver, commit, candidates.to_vec());
                match strategy {
                    BalancingStrategy::Dns => None,
                    BalancingStrategy::Inter | BalancingStrategy::Dqa => {
                        dispatcher.decide(QaModule::Qp, receiver, &view)
                    }
                    BalancingStrategy::SenderDiffusion => {
                        SenderDiffusion::default()
                            .decide(receiver, &view, |v| f.load_for(QaModule::Qp, v))
                    }
                    BalancingStrategy::Gradient => {
                        GradientModel::default()
                            .decide(receiver, &view, |v| f.load_for(QaModule::Qp, v))
                    }
                }
            },
        );
        let Placement::Placed {
            dns: dns_home,
            home,
            migrated,
        } = placement
        else {
            // Every placeable node hosts its cap of questions: the
            // question bounces rather than queueing on a node.
            self.reject(q);
            return;
        };
        self.states[q].home = dns_home;
        if migrated {
            self.migrations.qa += 1;
            self.metrics.migrations_qa.inc();
        }

        self.host_question(q, home);
        self.record(
            q,
            SimEventKind::Submitted {
                dns: dns_home,
                home,
            },
        );
        self.in_flight += 1;
        // Admission + scheduling point 1 are journaled (two records).
        self.journal_mark(2);
        self.clock.set(now);
        self.states[q].timer = PhaseTimer::start(&self.clock);
        self.publish_gate();
        self.publish_node_loads();
        let st = &mut self.states[q];
        st.phase = Phase::Qp;
        st.phase_start = now;
        let qp = st.demand.qp;
        self.engine.spawn(vec![Stage::cpu(home, qp)], Tag::Qp(q));
    }

    /// Scheduling points 2 and 3 ([`scheduler::points::allocate`]), active
    /// under [`BalancingStrategy::Dqa`] only. The question's own load is
    /// its work-scaled commitment on the home node; under the elastic
    /// tier PR chunks go to sub-collection owners. (The ownership map is
    /// control-plane state — any node *can* serve any chunk — which is
    /// why the home node is an acceptable fallback when no owner is in
    /// view.)
    pub(super) fn module_allocation(&mut self, q: usize, module: QaModule) -> Vec<NodeId> {
        let home = self.states[q].home;
        if self.cfg.strategy != BalancingStrategy::Dqa {
            return vec![home];
        }
        let own = Self::scaled(Self::question_commit(), self.states[q].work_scale);
        let view = self.loads_seen_by(home);
        let subs = self.states[q].demand.pr_per_collection.len() as u32;
        let routed = self.elastic.as_ref().filter(|_| module == QaModule::Pr);
        let owns = |n| routed.is_none_or(|r| r.owns_any(n, subs));
        let (f, policy) = (&self.functions, &self.cfg.overload);
        let out = allocate(view, home, module, f, own, policy, owns);
        self.metrics.breaker_trips.add(out.tripped.len() as u64);
        if out.left_home {
            match module {
                QaModule::Pr => {
                    self.migrations.pr += 1;
                    self.metrics.migrations_pr.inc();
                }
                QaModule::Ap => {
                    self.migrations.ap += 1;
                    self.metrics.migrations_ap.inc();
                }
                _ => {}
            }
        }
        out.nodes
    }

    /// Whether the remaining deadline budget can no longer cover the
    /// estimated demand of `module`. The simulator's estimate is the
    /// question's own sampled demand spread over the live pool — the
    /// oracle analogue of the runtime's EWMA estimator. PR carries its
    /// fused PS share, matching the runtime's observation model.
    pub(super) fn should_shed(&self, q: usize, module: QaModule, now: f64) -> bool {
        let Some(deadline) = self.states[q].deadline else {
            return false;
        };
        let live = self.dead.iter().filter(|&&dead| !dead).count().max(1) as f64;
        let demand = match module {
            QaModule::Pr => self.states[q].demand.pr_total() + self.states[q].demand.ps_total(),
            QaModule::Ap => self.states[q].demand.ap_total(),
            _ => return false,
        };
        self.cfg
            .overload
            .cannot_afford(deadline - now, demand / live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{MigrationCounts, SimConfig};
    use qa_types::OverloadPolicy;
    use scheduler::partition::PartitionStrategy;

    #[test]
    fn migrations_counted_only_for_active_dispatchers() {
        let nodes = 4;
        let dns =
            QaSimulation::new(SimConfig::paper_high_load(nodes, BalancingStrategy::Dns, 3)).run();
        assert_eq!(dns.migrations, MigrationCounts::default());
        let inter = QaSimulation::new(SimConfig::paper_high_load(
            nodes,
            BalancingStrategy::Inter,
            3,
        ))
        .run();
        assert!(inter.migrations.qa > 0, "question dispatcher should fire");
        assert_eq!(inter.migrations.pr, 0);
        let dqa =
            QaSimulation::new(SimConfig::paper_high_load(nodes, BalancingStrategy::Dqa, 3)).run();
        assert!(dqa.migrations.pr + dqa.migrations.ap > 0);
    }

    #[test]
    fn commitments_drain_after_serial_run() {
        let cfg = SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 2001);
        let mut sim = QaSimulation::new(cfg);
        // Drive manually: run to completion, then inspect commitments.
        // (run() consumes self, so replicate its loop via run+rebuild.)
        let report = {
            let residual = {
                // run a clone-by-rebuild to completion

                QaSimulation::new(SimConfig::paper_low_load(
                    4,
                    PartitionStrategy::Recv { chunk_size: 40 },
                    4,
                    2001,
                ))
                .run()
            };
            let _ = &mut sim;
            residual
        };
        assert_eq!(report.questions.len(), 4);
        // Direct white-box check: drive `sim` the same way via run_ref.
        let residual = sim.run_ref();
        assert!(residual < 1e-9, "leaked commitments: {residual}");
    }

    #[test]
    fn permissive_policy_answers_everything() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.answered, r.questions.len());
        assert_eq!(counts.rejected + counts.degraded, 0);
    }

    #[test]
    fn admission_cap_rejects_past_queue_depth_and_conserves() {
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 6);
        cfg.overload = OverloadPolicy::server(2).with_queue(1);
        // Compress arrivals so the burst genuinely contends for 2+1 slots.
        cfg.arrival_spacing = (0.0, 0.1);
        let r = QaSimulation::new(cfg).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.offered(), r.questions.len(), "zero silent drops");
        assert_eq!(counts.offered(), 32);
        assert!(
            counts.rejected > 0,
            "32-question burst must bounce: {counts:?}"
        );
        assert!(counts.answered > 0, "someone gets through: {counts:?}");
        for q in &r.questions {
            if q.outcome == QuestionOutcome::Rejected {
                assert_eq!(q.timings.total(), 0.0, "rejected questions do no work");
                assert_eq!(q.pr_nodes + q.ap_nodes, 0);
            }
        }
    }

    #[test]
    fn admission_control_is_deterministic() {
        let build = || {
            let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 7);
            cfg.overload = OverloadPolicy::server(3).with_deadline(60.0);
            cfg
        };
        let a = QaSimulation::new(build()).run();
        let b = QaSimulation::new(build()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn tight_deadline_sheds_phases_and_degrades() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 44);
        // Complex TREC-9 questions need ~158 s of sequential service; a 2 s
        // budget can cover QP but never PR, so every question sheds.
        cfg.overload = OverloadPolicy::default().with_deadline(2.0);
        cfg.record_trace = true;
        let r = QaSimulation::new(cfg).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.degraded, 4, "{counts:?}");
        assert_eq!(counts.rejected, 0, "nothing is rejected, only shed");
        let sheds = r
            .trace
            .iter()
            .filter(|e| matches!(e.kind, SimEventKind::Shed { .. }))
            .count();
        assert_eq!(sheds, 4, "one shed decision per question");
        // Shed questions still finish promptly — that is the whole point.
        for q in &r.questions {
            assert!(q.response_time() < 30.0, "shed question lingered");
        }
    }

    #[test]
    fn saturated_per_node_cap_rejects_everything() {
        let mut cfg = SimConfig::paper_high_load(2, BalancingStrategy::Dns, 8);
        cfg.overload = OverloadPolicy::default().with_per_node_cap(0);
        let r = QaSimulation::new(cfg).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.rejected, r.questions.len());
        assert_eq!(counts.answered + counts.degraded, 0);
    }

    #[test]
    fn shed_and_reject_flow_into_the_catalogue() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 44);
        cfg.overload = OverloadPolicy::default().with_deadline(2.0);
        let r = QaSimulation::new(cfg).run();
        let shed = r.metrics.counter_family("dqa_sheds_total");
        assert_eq!(shed, 4, "one shed per question");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_questions_total{outcome="degraded"}"#),
            4
        );
        let mut cfg = SimConfig::paper_high_load(2, BalancingStrategy::Dns, 8);
        cfg.overload = OverloadPolicy::default().with_per_node_cap(0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(
            r.metrics
                .counter(r#"dqa_questions_total{outcome="rejected"}"#),
            r.questions.len() as u64
        );
    }
}
