//! One question's Fig. 3 dataflow — QP, the PR fan-out, centralized PO,
//! the AP fan-out — with its scheduling points 2 and 3 and the two
//! deadline-aware shedding decisions.

use super::phase::{ApPhase, PrPhase};
use super::{Cluster, DistributedAnswer};
use crate::board::QuarantinePolicy;
use crate::clock::now_instant;
use crate::trace::TraceKind;
use dqa_obs::Histogram;
use journal::{QuestionRecovery, SchedulingPoint};
use qa_pipeline::answer::ApItem;
use qa_pipeline::ordering::order_paragraphs;
use qa_types::{
    Coverage, ModuleTimings, NodeId, QaError, QaModule, Question, RankedAnswers, ResourceVector,
};
use scheduler::partition::{partition_isend, partition_recv, partition_send, PartitionStrategy};
use scheduler::points::allocate;
use std::time::Instant;

impl Cluster {
    /// Run one question's Fig. 3 dataflow from its home node. The answer
    /// record is filled in stage by stage, so a shed phase returns exactly
    /// what the earlier stages produced, coverage-annotated.
    pub(super) fn coordinate(
        &self,
        home: NodeId,
        question: &Question,
        // The per-question deadline covers the whole Fig. 3 dataflow, not
        // each phase separately; it is anchored at admission so queue wait
        // already counts against it.
        deadline: Option<Instant>,
        resume: Option<&QuestionRecovery>,
    ) -> Result<DistributedAnswer, QaError> {
        // QP (home-local; the coordinator acts for the home node).
        let t = now_instant();
        let mut out = DistributedAnswer {
            processed: self.qp.process(question)?,
            answers: RankedAnswers::default(),
            timings: ModuleTimings::default(),
            home,
            pr_nodes: Vec::new(),
            ap_nodes: Vec::new(),
            paragraphs_accepted: 0,
            coverage: Coverage {
                completed: 0,
                total: self.shards.max(1) as u32,
            },
        };
        clock(&mut out.timings, QaModule::Qp, &self.metrics.qp_seconds, t);

        // Deadline-aware shedding, decision point 1: if the remaining
        // budget cannot cover the estimated PR phase, short-circuit to an
        // empty degraded answer instead of occupying PR workers.
        if self.should_shed(QaModule::Pr, deadline) {
            self.metrics.shed_pr.inc();
            self.trace
                .record(question.id, home, TraceKind::Shed(QaModule::Pr));
            return Ok(out);
        }

        // Scheduling point 2: PR dispatcher → node set for PR chunks
        // (under elastic membership, current sub-collection owners only).
        let t = now_instant();
        let pr_nodes = self.allocate(QaModule::Pr, home);
        self.journal_scheduled(question.id, SchedulingPoint::Pr, &pr_nodes);
        let (chunks, skipped_subs) = self.readable_chunks(question.id, home);
        let (scored, pr_nodes_used, pr_coverage) =
            self.run_phase::<PrPhase>(&out.processed, home, pr_nodes, chunks, deadline, resume)?;
        out.pr_nodes = pr_nodes_used;
        // Quarantine-skipped sub-collections count against coverage: the
        // answer closes explicitly degraded, never silently partial.
        out.coverage = Coverage {
            completed: pr_coverage.completed,
            total: pr_coverage.total + skipped_subs as u32,
        };
        clock(&mut out.timings, QaModule::Pr, &self.metrics.pr_seconds, t);

        // PO: centralized merge + ordering (Fig. 3).
        let t = now_instant();
        let accepted = order_paragraphs(
            scored,
            self.cfg.pipeline.po_threshold,
            self.cfg.pipeline.max_accepted,
        );
        out.paragraphs_accepted = accepted.len();
        self.trace.record(
            question.id,
            home,
            TraceKind::ParagraphsMerged(out.paragraphs_accepted),
        );
        clock(&mut out.timings, QaModule::Po, &self.metrics.po_seconds, t);

        // Scheduling point 3: AP dispatcher → node set for AP batches.
        let t = now_instant();
        let items: Vec<ApItem> = accepted
            .into_iter()
            .map(|s| ApItem {
                paragraph: s.paragraph,
                rank: s.score,
            })
            .collect();
        // Shedding decision point 2: AP is the most expensive phase
        // (Table 2); a question that cannot fit it returns whatever PR/PO
        // produced, coverage-annotated, instead of dispatching batches
        // doomed to blow the deadline.
        if self.should_shed(QaModule::Ap, deadline) {
            self.metrics.shed_ap.inc();
            self.trace
                .record(question.id, home, TraceKind::Shed(QaModule::Ap));
            out.coverage = out.coverage.and(Coverage {
                completed: 0,
                total: items.len().max(1) as u32,
            });
            return Ok(out);
        }
        let ap_nodes = self.allocate(QaModule::Ap, home);
        self.journal_scheduled(question.id, SchedulingPoint::Ap, &ap_nodes);
        let (answers, ap_nodes_used, ap_coverage) = if items.is_empty() {
            (RankedAnswers::default(), Vec::new(), Coverage::full(0))
        } else {
            let even = || vec![1.0 / ap_nodes.len() as f64; ap_nodes.len()];
            let chunks = match self.cfg.ap_partition {
                PartitionStrategy::Send => partition_send(items, &even()),
                PartitionStrategy::Isend => partition_isend(items, &even()),
                PartitionStrategy::Recv { chunk_size } => partition_recv(items, chunk_size),
            };
            self.run_phase::<ApPhase>(&out.processed, home, ap_nodes, chunks, deadline, resume)?
        };
        out.answers = answers;
        out.ap_nodes = ap_nodes_used;
        out.coverage = out.coverage.and(ap_coverage);
        clock(&mut out.timings, QaModule::Ap, &self.metrics.ap_seconds, t);

        self.trace.record(
            question.id,
            home,
            TraceKind::AnswersSorted(out.answers.len()),
        );
        Ok(out)
    }

    /// Scheduling points 2 and 3: the node set for one module, decided by
    /// [`scheduler::points::allocate`] over the members in view. What the
    /// runtime supplies is its own numbers — a resident question weighs
    /// half a CPU task on the load board — and, for PR under elastic
    /// membership, the current sub-collection owners (a drained node must
    /// stop receiving PR work the moment its last sub-collection has
    /// moved, not when it goes dark); what it carries out is the breaker
    /// trip on the board and the Table 7 counters.
    fn allocate(&self, module: QaModule, home: NodeId) -> Vec<NodeId> {
        let (view, owners) = self.member_view(module == QaModule::Pr);
        let owns = |n| owners.as_ref().is_none_or(|o| o.contains(&n));
        let own = ResourceVector::new(0.5, 0.0);
        let (f, policy) = (&self.functions, &self.cfg.overload);
        let out = allocate(view, home, module, f, own, policy, owns);
        // Per-node overload breaker: a tripped node sits out the
        // flap-quarantine window — dispatchers (this one and every
        // concurrent coordinator) skip it until the window expires, but
        // its worker threads keep draining what they already hold.
        for node in &out.tripped {
            self.board
                .trip_breaker(*node, QuarantinePolicy::default().quarantine_secs);
        }
        self.metrics.breaker_trips.add(out.tripped.len() as u64);
        if out.left_home {
            match module {
                QaModule::Ap => self.metrics.migrations_ap.inc(),
                _ => self.metrics.migrations_pr.inc(),
            }
        }
        out.nodes
    }

    /// Whether the remaining deadline budget can no longer cover the
    /// estimated demand of the next phase. Abstains (never sheds) without
    /// a deadline or before the estimator has any observation to scale
    /// from — the first question always runs and calibrates the rest.
    fn should_shed(&self, module: QaModule, deadline: Option<Instant>) -> bool {
        let Some(d) = deadline else {
            return false;
        };
        let Some(estimate) = self.estimator.phase_estimate(module) else {
            return false;
        };
        let remaining = d.saturating_duration_since(now_instant()).as_secs_f64();
        self.cfg.overload.cannot_afford(remaining, estimate)
    }
}

/// Stop a module's stopwatch into the answer's timings and its histogram.
fn clock(timings: &mut ModuleTimings, module: QaModule, histogram: &Histogram, since: Instant) {
    let dt = since.elapsed();
    timings.add_duration(module, dt);
    histogram.observe(dt.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use ir_engine::ParagraphRetriever;
    use nlp::NamedEntityRecognizer;
    use qa_pipeline::PipelineConfig;
    use qa_types::OverloadPolicy;
    use std::sync::Arc;

    #[test]
    fn all_partition_strategies_agree_on_answers() {
        let strategies = [
            PartitionStrategy::Send,
            PartitionStrategy::Isend,
            PartitionStrategy::Recv { chunk_size: 8 },
        ];
        let mut results: Vec<Vec<String>> = Vec::new();
        for s in strategies {
            let (c, cl) = cluster(3, s);
            let qs = QuestionGenerator::new(&c, 2).generate(5);
            let mut out = Vec::new();
            for gq in &qs {
                let ans = cl.ask(&gq.question).unwrap();
                out.push(
                    ans.answers
                        .best()
                        .map(|a| a.candidate.clone())
                        .unwrap_or_default(),
                );
            }
            results.push(out);
            cl.shutdown();
        }
        // The partitioning strategy must not change the merged answers
        // (the paper's merging modules exist to guarantee exactly this).
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn distributed_matches_sequential_pipeline() {
        let (c, cl) = cluster(4, PartitionStrategy::Recv { chunk_size: 8 });
        let index = Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = Arc::new(DocumentStore::new(c.documents.clone()));
        let seq = qa_pipeline::QaPipeline::new(
            ParagraphRetriever::new(index, store, RetrievalConfig::default()),
            NamedEntityRecognizer::standard(),
            PipelineConfig::default(),
        );
        let qs = QuestionGenerator::new(&c, 3).generate(6);
        for gq in &qs {
            let d = cl.ask(&gq.question).unwrap();
            let s = seq.answer(&gq.question).unwrap();
            let d_best = d.answers.best().map(|a| a.candidate.clone());
            let s_best = s.answers.best().map(|a| a.candidate.clone());
            assert_eq!(d_best, s_best, "question {:?}", gq.question.text);
        }
        cl.shutdown();
    }

    #[test]
    fn trace_records_question_lifecycle() {
        let (c, cl) = cluster(4, PartitionStrategy::Recv { chunk_size: 8 });
        let qs = QuestionGenerator::new(&c, 4).generate(1);
        let out = cl.ask(&qs[0].question).unwrap();
        let ev = cl.trace().for_question(qs[0].question.id);
        use crate::trace::TraceKind as K;
        assert!(ev.iter().any(|e| matches!(e.kind, K::QuestionStart)));
        assert!(ev.iter().any(|e| matches!(e.kind, K::PrChunkStart(_))));
        assert!(ev.iter().any(|e| matches!(e.kind, K::PrChunkDone(_))));
        assert!(ev.iter().any(|e| matches!(e.kind, K::ParagraphsMerged(_))));
        assert!(ev.iter().any(|e| matches!(e.kind, K::AnswersSorted(_))));
        // Every sub-collection retrieved exactly once.
        let starts = ev
            .iter()
            .filter(|e| matches!(e.kind, K::PrChunkStart(_)))
            .count();
        assert_eq!(starts, c.config.sub_collections);
        assert!(!out.pr_nodes.is_empty());
        cl.shutdown();
    }

    #[test]
    fn clean_run_reports_complete_coverage() {
        let (c, cl) = cluster(3, PartitionStrategy::Recv { chunk_size: 8 });
        let qs = QuestionGenerator::new(&c, 21).generate(3);
        for gq in &qs {
            let out = cl.ask(&gq.question).unwrap();
            assert!(out.coverage.is_complete(), "clean run must be complete");
            assert_eq!(out.coverage.fraction(), 1.0);
        }
        cl.shutdown();
    }

    #[test]
    fn exhausted_deadline_sheds_phases_after_calibration() {
        // First question runs clean (cold estimator abstains) and
        // calibrates the phase estimator; the second, admitted with a
        // microscopic deadline budget, must be shed before PR — returning a
        // coverage-annotated degraded answer instead of occupying workers.
        let (c, cl) = cluster_with_policy(2, OverloadPolicy::default().with_deadline(0.000_1));
        let qs = QuestionGenerator::new(&c, 35).generate(2);
        let first = cl.submit(&qs[0].question);
        assert!(first.answer().is_some(), "cold start must not shed");
        let second = cl.submit(&qs[1].question);
        assert_eq!(second.outcome(), Some(qa_types::QuestionOutcome::Degraded));
        let ans = second.answer().expect("shed still yields an answer");
        assert!(!ans.coverage.is_complete());
        let shed = cl
            .trace()
            .for_question(qs[1].question.id)
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Shed(_)));
        assert!(shed, "shed decision must be traced");
        cl.shutdown();
    }
}
