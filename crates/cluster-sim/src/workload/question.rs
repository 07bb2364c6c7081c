//! One question's walk through Fig. 3 as engine tasks: QP → PR chunks
//! (receiver-pulled sub-collections) → paragraph merge + PO → AP
//! partitions or chunks → answer sort, with the shed short-circuits and
//! the Fig. 5c / 6b re-dispatch after a worker failure.

use super::{OverheadBreakdown, QaSimulation, QuestionRecord, SimEventKind};
use crate::demand::QuestionDemand;
use crate::engine::Stage;
use dqa_obs::{ManualClock, PhaseTimer};
use qa_types::rng::Rng;
use qa_types::{ModuleTimings, NodeId, QaModule, QuestionOutcome, ResourceWeights};
use scheduler::partition::{partition_isend, partition_recv, partition_send, PartitionStrategy};
use scheduler::recovery::ChunkQueue;
use std::collections::BTreeMap;

/// Extra protocol bytes per RECV chunk (request + headers).
const PER_CHUNK_NET_BYTES: f64 = 4096.0;

/// Fixed CPU cost per RECV chunk (local ranking of `N_a` answers).
const PER_CHUNK_CPU_SECS: f64 = 0.08;

/// Fixed CPU cost per remote partition (connection + thread setup).
const PER_PARTITION_CPU_SECS: f64 = 0.05;

/// Engine task tags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Tag {
    Qp(usize),
    PrPart {
        q: usize,
        node: NodeId,
        collection: u32,
    },
    PoMerge(usize),
    ApPart {
        q: usize,
        node: NodeId,
        paragraphs: u32,
    },
    ApChunk {
        q: usize,
        node: NodeId,
        paragraphs: u32,
    },
    ApSort(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    Pending,
    Qp,
    Pr,
    Po,
    Ap,
    Sort,
    Done,
}

pub(super) struct QState {
    pub(super) demand: QuestionDemand,
    /// Deadline in virtual time, anchored at the *offer* instant (so time
    /// parked in the admission queue counts against the budget).
    pub(super) deadline: Option<f64>,
    /// How the question will be recorded; flips to `Degraded` on shed.
    pub(super) outcome: QuestionOutcome,
    /// Ratio of this question's total demand to the profile mean; load
    /// commitments are scaled by it so dispatchers see *work*, not counts
    /// (the real load monitor measures utilization, which reflects work).
    pub(super) work_scale: f64,
    pub(super) arrival: f64,
    pub(super) home: NodeId,
    pub(super) phase: Phase,
    pub(super) phase_start: f64,
    /// Response-time timer over the simulation's virtual clock — the same
    /// [`PhaseTimer`] the runtime drives with wall time.
    pub(super) timer: PhaseTimer,
    pub(super) timings: ModuleTimings,
    pub(super) overhead: OverheadBreakdown,
    // PR state: receiver-controlled queue of collection indices.
    pub(super) pr_queue: ChunkQueue<usize>,
    pub(super) pr_outstanding: usize,
    pr_nodes_used: Vec<NodeId>,
    pr_remote_demand: f64,
    pr_total_demand: f64,
    // AP state.
    pub(super) ap_queue: Option<ChunkQueue<usize>>,
    pub(super) ap_outstanding: usize,
    ap_nodes_used: Vec<NodeId>,
    /// SEND/ISEND in-flight partitions, kept for Fig. 5c failure recovery.
    /// Ordered map: partition dispatch/recovery order must be seed-stable.
    pub(super) ap_partitions: BTreeMap<NodeId, Vec<usize>>,
}

impl QState {
    /// A question that has not arrived yet.
    pub(super) fn pending(
        demand: QuestionDemand,
        work_scale: f64,
        arrival: f64,
        home: NodeId,
        clock: &ManualClock,
    ) -> QState {
        QState {
            demand,
            deadline: None,
            outcome: QuestionOutcome::Answered,
            work_scale,
            arrival,
            home,
            phase: Phase::Pending,
            phase_start: 0.0,
            timer: PhaseTimer::start(clock),
            timings: ModuleTimings::default(),
            overhead: OverheadBreakdown::default(),
            pr_queue: ChunkQueue::new(Vec::new()),
            pr_outstanding: 0,
            pr_nodes_used: Vec::new(),
            pr_remote_demand: 0.0,
            pr_total_demand: 0.0,
            ap_queue: None,
            ap_outstanding: 0,
            ap_nodes_used: Vec::new(),
            ap_partitions: BTreeMap::new(),
        }
    }
}

impl QaSimulation {
    pub(super) fn handle(&mut self, tag: Tag, at: f64) {
        match tag {
            Tag::Qp(q) => {
                let dt = at - self.states[q].phase_start;
                self.states[q].timings.accumulate(QaModule::Qp, dt);
                self.start_pr(q, at);
            }
            Tag::PrPart {
                q,
                node,
                collection,
            } => {
                self.record(q, SimEventKind::PrChunkDone { node, collection });
                // Chunk grant + partial result land in the journal.
                self.journal_mark(2);
                let c = Self::scaled(Self::pr_commit(), self.states[q].work_scale);
                self.remove_commit(node, c);
                self.states[q].pr_queue.complete_one(node);
                self.states[q].pr_outstanding -= 1;
                // Receiver-controlled: pull the next collection.
                if let Some(chunk) = self.states[q].pr_queue.pull(node) {
                    self.spawn_pr_chunk(q, node, chunk);
                } else if self.states[q].pr_outstanding == 0 {
                    let dt = at - self.states[q].phase_start;
                    self.states[q].timings.accumulate(QaModule::Pr, dt);
                    self.start_po(q, at);
                }
            }
            Tag::PoMerge(q) => {
                let home = self.states[q].home;
                self.record(q, SimEventKind::PoMerged { node: home });
                let dt = at - self.states[q].phase_start;
                self.states[q].timings.accumulate(QaModule::Po, dt);
                self.start_ap(q, at);
            }
            Tag::ApPart {
                q,
                node,
                paragraphs,
            } => {
                self.record(q, SimEventKind::ApBatchDone { node, paragraphs });
                self.journal_mark(2);
                let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                self.remove_commit(node, c);
                self.states[q].ap_partitions.remove(&node);
                self.states[q].ap_outstanding -= 1;
                if self.states[q].ap_outstanding == 0 {
                    let dt = at - self.states[q].phase_start;
                    self.states[q].timings.accumulate(QaModule::Ap, dt);
                    self.start_sort(q, at);
                }
            }
            Tag::ApChunk {
                q,
                node,
                paragraphs,
            } => {
                self.record(q, SimEventKind::ApBatchDone { node, paragraphs });
                self.journal_mark(2);
                self.states[q].ap_outstanding -= 1;
                {
                    let queue = self.states[q].ap_queue.as_mut().expect("recv mode");
                    queue.complete_one(node);
                }
                let next = self.states[q]
                    .ap_queue
                    .as_mut()
                    .expect("recv mode")
                    .pull(node);
                match next {
                    Some(chunk) => self.spawn_ap_chunk(q, node, chunk),
                    None => {
                        let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                        self.remove_commit(node, c);
                        if self.states[q].ap_outstanding == 0 {
                            let dt = at - self.states[q].phase_start;
                            self.states[q].timings.accumulate(QaModule::Ap, dt);
                            self.start_sort(q, at);
                        }
                    }
                }
            }
            Tag::ApSort(q) => {
                self.finish(q, at);
            }
        }
    }

    /// Shed `module`: skip it (and everything after it except the final
    /// sort) and complete degraded — the runtime's coverage-annotated
    /// short-circuit, in virtual time.
    fn shed(&mut self, q: usize, module: QaModule, now: f64) {
        self.record(q, SimEventKind::Shed { module });
        match module {
            QaModule::Ap => self.metrics.shed_ap.inc(),
            _ => self.metrics.shed_pr.inc(),
        }
        self.states[q].outcome = QuestionOutcome::Degraded;
        self.start_sort(q, now);
    }

    fn start_pr(&mut self, q: usize, now: f64) {
        // Shedding decision point 1: a question whose budget cannot cover
        // PR returns an empty degraded answer before occupying workers.
        if self.should_shed(q, QaModule::Pr, now) {
            self.shed(q, QaModule::Pr, now);
            return;
        }
        // Scheduling point 2: the PR dispatcher (journaled).
        let nodes = self.module_allocation(q, QaModule::Pr);
        self.journal_mark(1);
        let st = &mut self.states[q];
        st.phase = Phase::Pr;
        st.phase_start = now;
        st.pr_total_demand = st.demand.pr_total().max(1e-12);
        st.pr_nodes_used = nodes.clone();

        let mut order: Vec<usize> = (0..st.demand.pr_per_collection.len()).collect();
        if self.cfg.pr_cost_aware {
            // LPT: sort sub-collections by decreasing *estimated* demand.
            // The estimator's error is modeled as multiplicative noise
            // (deterministic per question/collection).
            let cv = self.cfg.pr_estimate_cv;
            let seed = self.cfg.seed;
            let estimates: Vec<f64> = st
                .demand
                .pr_per_collection
                .iter()
                .enumerate()
                .map(|(c, &d)| {
                    let mut rng = Rng::new(seed ^ (q as u64) << 8 ^ c as u64);
                    let noise: f64 = 1.0 + cv * (rng.f64() - 0.5) * 2.0;
                    d * noise.max(0.1)
                })
                .collect();
            order.sort_by(|&a, &b| {
                estimates[b]
                    .partial_cmp(&estimates[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let collections: Vec<Vec<usize>> = order.into_iter().map(|c| vec![c]).collect();
        st.pr_queue = ChunkQueue::new(collections);

        // Keyword propagation overhead (analytic; negligible bytes).
        let remote = nodes.iter().filter(|n| **n != st.home).count();
        st.overhead.kw_send += remote as f64 * 64.0 / self.cfg.net_bandwidth;

        // Each selected node pulls its first collection.
        let mut started = 0;
        for node in nodes {
            let chunk = self.states[q].pr_queue.pull(node);
            match chunk {
                Some(c) => {
                    self.spawn_pr_chunk(q, node, c);
                    started += 1;
                }
                None => break,
            }
        }
        debug_assert!(started > 0, "at least one PR sub-task");
    }

    fn spawn_pr_chunk(&mut self, q: usize, node: NodeId, chunk: Vec<usize>) {
        let home = self.states[q].home;
        let w = ResourceWeights::PR;
        let collection = chunk.first().copied().unwrap_or(0) as u32;
        let mut disk = 0.0;
        let mut cpu = 0.0;
        for c in chunk {
            let d = self.states[q].demand.pr_per_collection[c];
            disk += w.disk * d;
            cpu += w.cpu * d + self.states[q].demand.ps_per_collection[c];
            if node != home {
                self.states[q].pr_remote_demand += d;
            }
        }
        let c = Self::scaled(Self::pr_commit(), self.states[q].work_scale);
        self.add_commit(node, c);
        self.states[q].pr_outstanding += 1;
        self.engine.spawn(
            vec![Stage::disk(node, disk), Stage::cpu(node, cpu)],
            Tag::PrPart {
                q,
                node,
                collection,
            },
        );
    }

    pub(super) fn start_po(&mut self, q: usize, now: f64) {
        let st = &mut self.states[q];
        st.phase = Phase::Po;
        st.phase_start = now;
        let home = st.home;
        // Paragraphs produced remotely come back over the network.
        let remote_share = st.pr_remote_demand / st.pr_total_demand;
        let profile_paragraphs = st.demand.ap_per_paragraph.len() as f64 * 1.7; // retrieved > accepted
        let bytes = remote_share * profile_paragraphs * self.cfg.paragraph_bytes;
        st.overhead.par_recv += bytes / self.cfg.net_bandwidth;
        let merge_cpu =
            st.demand.po + PER_PARTITION_CPU_SECS * st.pr_nodes_used.len().saturating_sub(1) as f64;
        let mut stages = self.faulty_net_stages(home, bytes);
        stages.push(Stage::cpu(home, merge_cpu));
        self.engine.spawn(stages, Tag::PoMerge(q));
    }

    fn start_ap(&mut self, q: usize, now: f64) {
        // Shedding decision point 2: AP is the most expensive phase
        // (Table 2); a question that cannot fit it keeps its PR/PO work
        // and completes degraded instead of dispatching doomed batches.
        if self.should_shed(q, QaModule::Ap, now) {
            self.shed(q, QaModule::Ap, now);
            return;
        }
        // Scheduling point 3: the AP dispatcher (journaled).
        let nodes = self.module_allocation(q, QaModule::Ap);
        self.journal_mark(1);
        let st = &mut self.states[q];
        st.phase = Phase::Ap;
        st.phase_start = now;
        st.ap_nodes_used = nodes.clone();

        let n_par = st.demand.ap_per_paragraph.len();
        let items: Vec<usize> = (0..n_par).collect();

        match self.cfg.ap_partition {
            PartitionStrategy::Recv { chunk_size } => {
                let chunks = partition_recv(items, chunk_size);
                self.states[q].ap_queue = Some(ChunkQueue::new(chunks));
                for node in nodes {
                    let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                    self.add_commit(node, c);
                    let chunk = self.states[q]
                        .ap_queue
                        .as_mut()
                        .expect("just set")
                        .pull(node);
                    match chunk {
                        Some(c) => self.spawn_ap_chunk(q, node, c),
                        None => {
                            let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                            self.remove_commit(node, c);
                        }
                    }
                }
                if self.states[q].ap_outstanding == 0 {
                    // No paragraphs at all: straight to sorting.
                    self.states[q].timings.accumulate(QaModule::Ap, 0.0);
                    self.start_sort(q, now);
                }
            }
            strategy => {
                let weights = vec![1.0 / nodes.len() as f64; nodes.len()];
                let parts = match strategy {
                    PartitionStrategy::Send => partition_send(items, &weights),
                    PartitionStrategy::Isend => partition_isend(items, &weights),
                    PartitionStrategy::Recv { .. } => unreachable!("handled above"),
                };
                let mut any = false;
                for (node, part) in nodes.iter().copied().zip(parts) {
                    if part.is_empty() {
                        continue;
                    }
                    any = true;
                    self.spawn_ap_partition(q, node, part);
                }
                if !any {
                    self.states[q].timings.accumulate(QaModule::Ap, 0.0);
                    self.start_sort(q, now);
                }
            }
        }
    }

    fn ap_stage_list(
        &mut self,
        q: usize,
        node: NodeId,
        items: &[usize],
        per_task_cpu: f64,
        per_task_net: f64,
    ) -> Vec<Stage> {
        let home = self.states[q].home;
        let demand: f64 = items
            .iter()
            .map(|&i| self.states[q].demand.ap_per_paragraph[i])
            .sum();
        let mut stages = Vec::with_capacity(3);
        if node != home {
            let bytes = items.len() as f64 * self.cfg.paragraph_bytes + per_task_net;
            self.states[q].overhead.par_send += bytes / self.cfg.net_bandwidth;
            stages.extend(self.faulty_net_stages(home, bytes));
        }
        stages.push(Stage::cpu(node, demand + per_task_cpu));
        if node != home {
            self.states[q].overhead.ans_recv += self.cfg.answer_bytes / self.cfg.net_bandwidth;
            stages.extend(self.faulty_net_stages(home, self.cfg.answer_bytes));
        }
        stages
    }

    pub(super) fn spawn_ap_partition(&mut self, q: usize, node: NodeId, items: Vec<usize>) {
        let stages = self.ap_stage_list(q, node, &items, PER_PARTITION_CPU_SECS, 0.0);
        let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
        self.add_commit(node, c);
        self.states[q].ap_outstanding += 1;
        let paragraphs = items.len() as u32;
        self.states[q].ap_partitions.insert(node, items);
        self.engine.spawn(
            stages,
            Tag::ApPart {
                q,
                node,
                paragraphs,
            },
        );
    }

    fn spawn_ap_chunk(&mut self, q: usize, node: NodeId, items: Vec<usize>) {
        let stages = self.ap_stage_list(q, node, &items, PER_CHUNK_CPU_SECS, PER_CHUNK_NET_BYTES);
        self.states[q].ap_outstanding += 1;
        let paragraphs = items.len() as u32;
        self.engine.spawn(
            stages,
            Tag::ApChunk {
                q,
                node,
                paragraphs,
            },
        );
    }

    pub(super) fn start_sort(&mut self, q: usize, now: f64) {
        let st = &mut self.states[q];
        st.phase = Phase::Sort;
        st.phase_start = now;
        let home = st.home;
        let sort_cpu = 0.002 * st.ap_nodes_used.len() as f64;
        st.overhead.ans_sort += sort_cpu;
        self.engine
            .spawn(vec![Stage::cpu(home, sort_cpu)], Tag::ApSort(q));
    }

    fn finish(&mut self, q: usize, at: f64) {
        let home = self.states[q].home;
        self.record(q, SimEventKind::Completed { node: home });
        self.unhost_question(q);
        let st = &mut self.states[q];
        st.phase = Phase::Done;
        let record = QuestionRecord {
            arrival: st.arrival,
            finished: at,
            timings: st.timings,
            overhead: st.overhead,
            home: st.home,
            pr_nodes: st.pr_nodes_used.len(),
            ap_nodes: st.ap_nodes_used.len(),
            outcome: st.outcome,
        };
        self.records[q] = Some(record);
        // The final answer record closes the question's journal entry.
        self.journal_mark(1);
        self.completed += 1;
        self.in_flight -= 1;
        self.observe_question(q, at);
        self.publish_node_loads();
        self.maybe_rebalance_skew(at);
        // The freed slot may admit (or deadline-reject) queued arrivals.
        self.drain_admission();
        self.publish_gate();
    }

    /// After a PR worker failure: hand recovered collection chunks to live
    /// workers that are currently idle for this question.
    pub(super) fn redispatch_pr(&mut self, q: usize) {
        let live: Vec<NodeId> = self.states[q]
            .pr_nodes_used
            .iter()
            .copied()
            .filter(|n| !self.dead[n.index()])
            .collect();
        let workers = if live.is_empty() {
            vec![self.states[q].home]
        } else {
            live
        };
        for node in workers {
            if self.states[q].pr_queue.outstanding(node) == 0 {
                if let Some(chunk) = self.states[q].pr_queue.pull(node) {
                    self.spawn_pr_chunk(q, node, chunk);
                }
            }
        }
        if self.states[q].pr_outstanding == 0 && self.states[q].pr_queue.drained() {
            let now = self.engine.now();
            let dt = now - self.states[q].phase_start;
            self.states[q].timings.accumulate(QaModule::Pr, dt);
            self.start_po(q, now);
        }
    }

    /// After an AP worker failure in RECV mode: live workers pull the
    /// recovered chunks.
    pub(super) fn redispatch_ap_chunks(&mut self, q: usize) {
        let live: Vec<NodeId> = self.states[q]
            .ap_nodes_used
            .iter()
            .copied()
            .filter(|n| !self.dead[n.index()])
            .collect();
        let workers = if live.is_empty() {
            vec![self.states[q].home]
        } else {
            live
        };
        for node in workers {
            let outstanding = self.states[q]
                .ap_queue
                .as_ref()
                .map(|x| x.outstanding(node))
                .unwrap_or(0);
            if outstanding == 0 {
                let chunk = self.states[q].ap_queue.as_mut().and_then(|x| x.pull(node));
                if let Some(chunk) = chunk {
                    let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                    self.add_commit(node, c);
                    self.spawn_ap_chunk(q, node, chunk);
                }
            }
        }
        let drained = self.states[q]
            .ap_queue
            .as_ref()
            .map(|x| x.drained())
            .unwrap_or(true);
        if self.states[q].ap_outstanding == 0 && drained {
            let now = self.engine.now();
            let dt = now - self.states[q].phase_start;
            self.states[q].timings.accumulate(QaModule::Ap, dt);
            self.start_sort(q, now);
        }
    }

    /// Record one finished question into the catalogue: response time via
    /// the virtual-clock [`PhaseTimer`], the per-module durations of every
    /// phase that actually ran, the five Table 9 overhead slices, and the
    /// outcome counter.
    fn observe_question(&self, q: usize, at: f64) {
        self.clock.set(at);
        let st = &self.states[q];
        st.timer.stop(&self.clock, &self.metrics.question_seconds);
        let t = st.timings;
        for (hist, dur) in [
            (&self.metrics.qp_seconds, t.qp),
            (&self.metrics.pr_seconds, t.pr + t.ps),
            (&self.metrics.po_seconds, t.po),
            (&self.metrics.ap_seconds, t.ap),
        ] {
            if dur > 0.0 {
                hist.observe(dur);
            }
        }
        let o = st.overhead;
        self.metrics.overhead_kw_send.observe(o.kw_send);
        self.metrics.overhead_par_recv.observe(o.par_recv);
        self.metrics.overhead_par_send.observe(o.par_send);
        self.metrics.overhead_ans_recv.observe(o.ans_recv);
        self.metrics.overhead_ans_sort.observe(o.ans_sort);
        match st.outcome {
            QuestionOutcome::Answered => self.metrics.answered.inc(),
            QuestionOutcome::Degraded => self.metrics.degraded.inc(),
            QuestionOutcome::Rejected => {}
        }
    }
}
