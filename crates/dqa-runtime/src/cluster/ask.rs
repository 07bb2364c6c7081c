//! Question entry points: `ask`, the admission-gated `submit`/`ask_many`
//! front-end, `resume` after a coordinator failover, and the accounting
//! that lands every question in exactly one outcome.

use super::{Cluster, DistributedAnswer};
use crate::clock::now_instant;
use crate::overload::{Admission, AdmissionGate, GateDecision};
use crate::trace::{seal_question_spans, TraceKind};
use dqa_obs::{CausalSpan, CauseSet};
use journal::{JournalRecord, QuestionRecovery, Recovery, SchedulingPoint};
use qa_types::{NodeId, QaError, QaModule, Question};
use scheduler::points::{place, Placement};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Trace-id namespace for journal-replay span trees (XORed with the
/// successor's term).
const REPLAY_TRACE_NS: u64 = 0x5250_4c59_0000_0000; // "RPLY"

impl Cluster {
    /// Answer a question. DNS round-robin picks the initial home; the
    /// question dispatcher may override it; the PR and AP dispatchers pick
    /// the partition node sets.
    pub fn ask(&self, question: &Question) -> Result<DistributedAnswer, QaError> {
        self.ask_on(self.next_dns(), question)
    }

    /// DNS round-robin: the next initial placement.
    fn next_dns(&self) -> NodeId {
        NodeId::new((self.rr.fetch_add(1, Ordering::Relaxed) % self.cfg.nodes) as u32)
    }

    /// Answer a question with an explicit DNS placement (tests/examples).
    pub fn ask_on(
        &self,
        dns_home: NodeId,
        question: &Question,
    ) -> Result<DistributedAnswer, QaError> {
        self.ask_impl(dns_home, question, now_instant(), None)
    }

    /// Offer one question to the concurrent front-end. The call blocks
    /// while the question runs (and, at capacity, while it waits in the
    /// bounded admission queue), but never queues forever: past the queue
    /// depth — or past the policy deadline while waiting — it returns
    /// [`Admission::Rejected`] with a retry hint. Time spent waiting for a
    /// slot counts against the question's deadline budget.
    pub fn submit(&self, question: &Question) -> Admission {
        let enqueued_secs = self.tracer.now();
        let admitted_at = now_instant();
        let retry_after = Duration::from_secs_f64(self.cfg.overload.retry_after_secs.max(0.0));
        let refused = match self.gate.admit(self.policy_deadline(admitted_at)) {
            GateDecision::Admitted => None,
            GateDecision::Rejected => Some(retry_after),
            // Draining: do not retry here.
            GateDecision::ShuttingDown => Some(Duration::ZERO),
        };
        if let Some(retry_after) = refused {
            self.metrics.rejected.inc();
            self.trace
                .record(question.id, NodeId::new(0), TraceKind::Rejected);
            return Admission::Rejected { retry_after };
        }
        self.metrics.in_flight.set(self.gate.in_flight() as f64);
        self.metrics
            .admission_waiting
            .set(self.gate.waiting() as f64);
        let admitted_secs = self.tracer.now();
        let out = self.ask_impl(self.next_dns(), question, admitted_at, None);
        self.gate.release();
        self.metrics.in_flight.set(self.gate.in_flight() as f64);
        match out {
            Ok(answer) => {
                self.seal_trace(
                    question,
                    enqueued_secs,
                    admitted_secs,
                    CauseSet::none(),
                    &answer,
                );
                Admission::Answered(Box::new(answer))
            }
            Err(QaError::Overloaded { .. }) => {
                self.trace
                    .record(question.id, NodeId::new(0), TraceKind::Rejected);
                Admission::Rejected { retry_after }
            }
            Err(e) => Admission::Failed(e),
        }
    }

    /// Offer many questions concurrently — one submitting thread each, all
    /// funneled through the admission gate. Results come back in input
    /// order. This is the multi-tenant server surface: at most
    /// `max_in_flight` questions run inside, `admission_queue` more wait,
    /// and the rest are rejected with retry hints.
    pub fn ask_many(&self, questions: &[Question]) -> Vec<Admission> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = questions
                .iter()
                .map(|q| scope.spawn(move || self.submit(q)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(a) => a,
                    Err(_) => Admission::Failed(QaError::Protocol("submit thread panicked".into())),
                })
                .collect()
        })
    }

    /// Reject all future admissions (idempotent). Queued `submit` calls
    /// wake and return [`Admission::Rejected`]; new `ask`/`submit` calls
    /// are refused at the door. Lets an `Arc`-shared cluster be drained
    /// deterministically before [`Cluster::shutdown`] takes ownership.
    pub fn begin_shutdown(&self) {
        self.gate.drain();
    }

    /// The admission gate (observability: in-flight, queued, peak-queued).
    pub fn admission(&self) -> &AdmissionGate {
        &self.gate
    }

    /// Resume every in-flight question recovered from a journal replay.
    ///
    /// This is the successor coordinator's first act after
    /// [`CoordinatorJournal::open`] + promotion: each question that was
    /// admitted but not yet answered (or abandoned) at the crash is re-run
    /// with its journaled partial results pre-applied, so completed chunks
    /// are never re-executed and — the pipeline being deterministic — the
    /// resumed answers are byte-identical to a crash-free run. A PR partial
    /// is journaled by reference and its text read back from this
    /// cluster's store: resume assumes the collection the crashed
    /// incarnation served, as the journaled chunk ids already do, and a
    /// partial that does not resolve against it re-runs its chunk. Results
    /// come back in recovered-question order (ascending question id).
    pub fn resume(
        &self,
        recovery: &Recovery,
    ) -> Vec<(Question, Result<DistributedAnswer, QaError>)> {
        // Resuming a replayed journal is the runtime's failover-complete
        // point: a successor incarnation has taken over the crashed
        // coordinator's in-flight work.
        self.metrics.failovers.inc();
        self.metrics.replayed_records.add(recovery.stats.records);
        // Ownership first, questions second: resumed PR scheduling must
        // see the post-crash map, not the boot-time balanced one.
        self.resume_rebalances(&recovery.state);
        let t = now_instant();
        let replay_start = self.tracer.now();
        let mut out = Vec::new();
        for (_, rec) in recovery.state.in_flight() {
            let Some(q) = rec.question() else { continue };
            let q = q.clone();
            let res = self.ask_resumed(&q, rec);
            out.push((q, res));
        }
        self.metrics
            .recovery_seconds
            .observe(t.elapsed().as_secs_f64());
        let replay_trace = self.tracer.trace_id(REPLAY_TRACE_NS ^ self.term());
        self.tracer.emit(CausalSpan::new(
            replay_trace,
            None,
            "replay",
            None,
            replay_start,
            self.tracer.now(),
            0.0,
            CauseSet::RESUMED,
        ));
        out
    }

    /// Resume a single recovered question. Prefers the journaled home node
    /// when it is still alive; otherwise falls back to DNS round-robin, a
    /// Table 7 question migration forced by the crash.
    pub fn ask_resumed(
        &self,
        question: &Question,
        rec: &QuestionRecovery,
    ) -> Result<DistributedAnswer, QaError> {
        self.metrics.resumed_questions.inc();
        let resumed_secs = self.tracer.now();
        let dns = rec
            .home()
            .map(NodeId::new)
            .filter(|n| n.index() < self.cfg.nodes && self.board.is_alive(*n))
            .unwrap_or_else(|| self.next_dns());
        let out = self.ask_impl(dns, question, now_instant(), Some(rec));
        if let Ok(answer) = &out {
            self.seal_trace(
                question,
                resumed_secs,
                resumed_secs,
                CauseSet::RESUMED,
                answer,
            );
        }
        out
    }

    /// Seal a finished question's causal-span tree from its flight-
    /// recorded events (degraded coverage folds into the cause tags).
    fn seal_trace(
        &self,
        question: &Question,
        enqueued_secs: f64,
        admitted_secs: f64,
        extra: CauseSet,
        answer: &DistributedAnswer,
    ) {
        let causes = if answer.coverage.is_complete() {
            extra
        } else {
            extra.with(CauseSet::DEGRADED)
        };
        seal_question_spans(
            &self.tracer,
            question.id,
            &self.trace.for_question(question.id),
            enqueued_secs,
            admitted_secs,
            self.tracer.now(),
            causes,
        );
    }

    /// Run one question and account its outcome in the metrics registry.
    /// Every path through the cluster lands in exactly one
    /// `dqa_questions_total` outcome: `answered` (full coverage),
    /// `degraded` (partial coverage), `rejected` (overload), `failed`.
    fn ask_impl(
        &self,
        dns_home: NodeId,
        question: &Question,
        admitted_at: Instant,
        resume: Option<&QuestionRecovery>,
    ) -> Result<DistributedAnswer, QaError> {
        let result = self.ask_inner(dns_home, question, admitted_at, resume);
        match &result {
            Ok(answer) => {
                self.metrics
                    .question_seconds
                    .observe(admitted_at.elapsed().as_secs_f64());
                if answer.coverage.is_complete() {
                    self.metrics.answered.inc();
                } else {
                    self.metrics.degraded.inc();
                }
                // The final answer is journaled (`RankedAnswers::encode`, by
                // value) so a successor coordinator knows the question no
                // longer occupies an admission slot, and identity across
                // incarnations can be audited.
                if self.cfg.journal.is_some() {
                    self.journal_append(&JournalRecord::Answered {
                        question: question.id,
                        payload: answer.answers.encode(),
                        complete: answer.coverage.is_complete(),
                    });
                }
            }
            Err(QaError::Overloaded { .. }) => self.metrics.rejected.inc(),
            Err(_) => {
                self.metrics.failed.inc();
                // Free the question's journaled admission slot: a failed
                // question must not be resumed forever by every successor.
                self.journal_append(&JournalRecord::Abandoned {
                    question: question.id,
                });
            }
        }
        result
    }

    fn ask_inner(
        &self,
        dns_home: NodeId,
        question: &Question,
        admitted_at: Instant,
        resume: Option<&QuestionRecovery>,
    ) -> Result<DistributedAnswer, QaError> {
        if self.gate.is_draining() {
            return Err(QaError::Overloaded {
                reason: "cluster is shutting down".into(),
                retry_after_ms: 0,
            });
        }
        // Scheduling point 1. The arrival reaches the DNS-chosen node —
        // or, when that one is dead or at its resident cap, the next
        // placeable node up the ring — and the question dispatcher decides
        // there, from that node's *broadcast view* of the cluster (its own
        // load table, §3.1) when warm; the shared board covers cold start.
        let (loads, _) = self.member_view(false);
        if loads.is_empty() {
            return Err(QaError::Disconnected("no live nodes".into()));
        }
        let dispatcher = scheduler::dispatcher::QuestionDispatcher {
            functions: self.functions,
            hysteresis: 1.0,
        };
        let placement = place(
            &loads,
            dns_home,
            &self.cfg.overload,
            |n| self.board.resident_questions(n),
            |receiver, candidates| {
                let mut seen = self.monitors.view_from(receiver);
                if seen.len() == self.board.len() {
                    seen.retain(|(n, _)| candidates.iter().any(|(c, _)| c == n));
                } else {
                    seen = candidates.to_vec();
                }
                dispatcher.decide(QaModule::Qp, receiver, &seen)
            },
        );
        let Placement::Placed { home, migrated, .. } = placement else {
            return Err(QaError::Overloaded {
                reason: "every live node hosts its cap of questions".into(),
                retry_after_ms: (self.cfg.overload.retry_after_secs.max(0.0) * 1e3) as u64,
            });
        };
        if migrated {
            // The question dispatcher moved the question off the node it
            // arrived at — a Table 7 question migration.
            self.metrics.migrations_qa.inc();
        }
        self.board.question_delta(home, 1);
        self.trace
            .record(question.id, home, TraceKind::QuestionStart);
        // Durable admission + scheduling point 1. On resume the records
        // are re-appended under the successor's term; replay idempotence
        // absorbs the duplicates.
        if self.cfg.journal.is_some() {
            self.journal_append(&JournalRecord::Admitted {
                question: question.clone(),
            });
        }
        self.journal_scheduled(question.id, SchedulingPoint::Qa, &[home]);

        let deadline = self.policy_deadline(admitted_at);
        let result = self.coordinate(home, question, deadline, resume);
        self.board.question_delta(home, -1);
        if let Ok(answer) = &result {
            self.estimator.observe(&answer.timings);
        }
        result
    }

    /// The per-question deadline, anchored at admission so queue wait
    /// counts against it.
    fn policy_deadline(&self, admitted_at: Instant) -> Option<Instant> {
        let secs = self.cfg.overload.deadline_secs?;
        Some(admitted_at + Duration::from_secs_f64(secs.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use qa_types::OverloadPolicy;
    use scheduler::partition::PartitionStrategy;
    use std::sync::Arc;

    #[test]
    fn distributed_answers_match_ground_truth() {
        let (c, cl) = cluster(4, PartitionStrategy::Recv { chunk_size: 8 });
        let qs = QuestionGenerator::new(&c, 1).generate(12);
        let mut correct = 0;
        for gq in &qs {
            let out = cl.ask(&gq.question).expect("distributed answer");
            if out
                .answers
                .answers
                .iter()
                .any(|a| a.candidate == gq.expected_answer)
            {
                correct += 1;
            }
        }
        assert!(correct >= 8, "correct {correct}/12");
        cl.shutdown();
    }

    #[test]
    fn all_nodes_dead_is_an_error() {
        let (c, cl) = cluster(2, PartitionStrategy::Recv { chunk_size: 8 });
        let qs = QuestionGenerator::new(&c, 6).generate(1);
        cl.kill_node(NodeId::new(0));
        cl.kill_node(NodeId::new(1));
        assert!(cl.ask(&qs[0].question).is_err());
        cl.shutdown();
    }

    #[test]
    fn submit_matches_ask_under_permissive_policy() {
        let (c, cl) = cluster(3, PartitionStrategy::Recv { chunk_size: 8 });
        let qs = QuestionGenerator::new(&c, 31).generate(3);
        for gq in &qs {
            let adm = cl.submit(&gq.question);
            assert_eq!(adm.outcome(), Some(qa_types::QuestionOutcome::Answered));
            let ans = adm.answer().expect("answered admission carries answer");
            assert!(ans.coverage.is_complete());
        }
        assert_eq!(cl.admission().in_flight(), 0, "gate slots all released");
        cl.shutdown();
    }

    #[test]
    fn ask_many_conserves_every_outcome_under_server_policy() {
        // 2 in flight + 2 queued; the rest of an 8-question burst must be
        // rejected with a retry hint — never silently dropped, never queued
        // beyond the configured depth.
        let (c, cl) = cluster_with_policy(3, OverloadPolicy::server(2));
        let qs: Vec<Question> = QuestionGenerator::new(&c, 32)
            .generate(8)
            .into_iter()
            .map(|gq| gq.question)
            .collect();
        let admissions = cl.ask_many(&qs);
        assert_eq!(admissions.len(), qs.len(), "one admission per question");
        let mut counts = qa_types::OverloadCounts::default();
        for adm in &admissions {
            let outcome = adm.outcome().expect("no admission may fail outright");
            counts.record(outcome);
            if let Admission::Rejected { retry_after } = adm {
                assert!(*retry_after > Duration::ZERO, "retry hint required");
            }
        }
        assert_eq!(counts.offered(), qs.len(), "conservation of outcomes");
        assert!(
            counts.answered + counts.degraded >= 1,
            "someone got through"
        );
        assert!(
            cl.admission().peak_waiting() <= 2,
            "queue never exceeded its configured depth (peak {})",
            cl.admission().peak_waiting()
        );
        assert_eq!(cl.admission().in_flight(), 0);
        cl.shutdown();
    }

    #[test]
    fn begin_shutdown_rejects_instead_of_racing() {
        // Regression for the shutdown/use race: `shutdown` consumes the
        // cluster, but an `Arc`-shared cluster must be drainable first so
        // concurrent callers get a deterministic rejection, not a hang or a
        // panic on closed channels.
        let (c, cl) = cluster(2, PartitionStrategy::Recv { chunk_size: 8 });
        let cl = Arc::new(cl);
        let qs = QuestionGenerator::new(&c, 33).generate(2);
        cl.begin_shutdown();
        assert!(matches!(
            cl.ask(&qs[0].question),
            Err(QaError::Overloaded { .. })
        ));
        match cl.submit(&qs[1].question) {
            Admission::Rejected { retry_after } => {
                assert_eq!(retry_after, Duration::ZERO, "draining: do not retry here")
            }
            other => panic!("draining cluster must reject, got {other:?}"),
        }
        let cl = Arc::into_inner(cl).expect("sole owner");
        cl.shutdown();
    }

    #[test]
    fn saturated_per_node_cap_rejects_not_queues() {
        let (c, cl) = cluster_with_policy(2, OverloadPolicy::default().with_per_node_cap(0));
        let qs = QuestionGenerator::new(&c, 34).generate(1);
        // Every node "hosts" >= 0 questions, so a cap of 0 saturates the
        // whole pool: the question must bounce immediately with a hint.
        match cl.submit(&qs[0].question) {
            Admission::Rejected { retry_after } => {
                assert!(retry_after > Duration::ZERO)
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let rejected = cl
            .trace()
            .for_question(qs[0].question.id)
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Rejected));
        assert!(rejected, "rejection must be traced");
        cl.shutdown();
    }

    #[test]
    fn concurrent_questions_from_multiple_threads() {
        let (c, cl) = cluster(4, PartitionStrategy::Recv { chunk_size: 8 });
        let cl = Arc::new(cl);
        let qs = QuestionGenerator::new(&c, 7).generate(8);
        let mut handles = Vec::new();
        for gq in qs {
            let cl = Arc::clone(&cl);
            handles.push(std::thread::spawn(move || {
                cl.ask(&gq.question).map(|d| d.answers.len())
            }));
        }
        for h in handles {
            assert!(h.join().unwrap().is_ok());
        }
    }
}
