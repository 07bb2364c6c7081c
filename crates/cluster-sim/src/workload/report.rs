//! What a simulation run reports: per-question records, the Table 7
//! migration counts, the Table 9 overhead breakdown, the virtual-time
//! event trace, and the span/critical-path views derived from them.

use dqa_obs::{derive_span_id, derive_trace_id, CausalSpan, CauseSet, Snapshot, Span};
use qa_types::stats::percentile;
use qa_types::{ModuleTimings, NodeId, OverloadCounts, QaModule, QuestionOutcome};
use serde::Serialize;

/// Counts of dispatcher "disagreements" (Table 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MigrationCounts {
    /// Question dispatcher overrode the DNS placement.
    pub qa: usize,
    /// PR dispatcher overrode the question dispatcher.
    pub pr: usize,
    /// AP dispatcher overrode the question dispatcher.
    pub ap: usize,
}

/// Analytic distribution-overhead breakdown per question (Table 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct OverheadBreakdown {
    /// Keyword sending to remote PR partitions.
    pub kw_send: f64,
    /// Paragraph receiving from remote PS outputs.
    pub par_recv: f64,
    /// Paragraph sending to remote AP partitions.
    pub par_send: f64,
    /// Answer receiving from remote AP partitions.
    pub ans_recv: f64,
    /// Final answer sorting.
    pub ans_sort: f64,
}

impl OverheadBreakdown {
    /// Total overhead (last column of Table 9).
    pub fn total(&self) -> f64 {
        self.kw_send + self.par_recv + self.par_send + self.ans_recv + self.ans_sort
    }

    /// Element-wise mean across questions.
    pub fn mean<'a>(items: impl IntoIterator<Item = &'a OverheadBreakdown>) -> OverheadBreakdown {
        let mut sum = OverheadBreakdown::default();
        let mut n = 0usize;
        for o in items {
            sum.kw_send += o.kw_send;
            sum.par_recv += o.par_recv;
            sum.par_send += o.par_send;
            sum.ans_recv += o.ans_recv;
            sum.ans_sort += o.ans_sort;
            n += 1;
        }
        if n == 0 {
            return sum;
        }
        let n = n as f64;
        OverheadBreakdown {
            kw_send: sum.kw_send / n,
            par_recv: sum.par_recv / n,
            par_send: sum.par_send / n,
            ans_recv: sum.ans_recv / n,
            ans_sort: sum.ans_sort / n,
        }
    }
}

/// One virtual-time trace event (Fig. 7-style, from the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimEvent {
    /// Virtual time (seconds).
    pub at: f64,
    /// Question index (submission order).
    pub question: usize,
    /// What happened.
    pub kind: SimEventKind,
}

/// Event kinds of the simulator trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SimEventKind {
    /// Question placed: DNS target and (possibly migrated) home.
    Submitted {
        /// Round-robin DNS target.
        dns: NodeId,
        /// Final home after the question dispatcher.
        home: NodeId,
    },
    /// A PR worker finished one sub-collection.
    PrChunkDone {
        /// Worker node.
        node: NodeId,
        /// Sub-collection index.
        collection: u32,
    },
    /// Paragraph merge + PO completed on the home node.
    PoMerged {
        /// Home node.
        node: NodeId,
    },
    /// An AP worker finished a batch.
    ApBatchDone {
        /// Worker node.
        node: NodeId,
        /// Paragraphs in the batch.
        paragraphs: u32,
    },
    /// The question completed (answers sorted).
    Completed {
        /// Home node.
        node: NodeId,
    },
    /// The question was refused at admission (queue full, every node at
    /// its resident cap, or its deadline expired while waiting).
    Rejected,
    /// A phase was shed: the remaining deadline budget could not cover its
    /// estimated demand, so the question short-circuited to a degraded
    /// completion.
    Shed {
        /// The phase that was shed.
        module: QaModule,
    },
}

/// Per-question outcome record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuestionRecord {
    /// Arrival (submission) time.
    pub arrival: f64,
    /// Completion time.
    pub finished: f64,
    /// Wall-clock per module (phase durations).
    pub timings: ModuleTimings,
    /// Analytic distribution overhead.
    pub overhead: OverheadBreakdown,
    /// Node the question ended on.
    pub home: NodeId,
    /// Number of nodes its PR phase used.
    pub pr_nodes: usize,
    /// Number of nodes its AP phase used.
    pub ap_nodes: usize,
    /// How the question left the system. Rejected questions carry zero
    /// timings and a `finished` equal to the rejection instant.
    pub outcome: QuestionOutcome,
}

impl QuestionRecord {
    /// Response time (completion − arrival).
    pub fn response_time(&self) -> f64 {
        self.finished - self.arrival
    }
}

/// Aggregate simulation output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// Per-question records, submission order.
    pub questions: Vec<QuestionRecord>,
    /// Dispatcher disagreement counts (Table 7).
    pub migrations: MigrationCounts,
    /// Time the last question completed.
    pub makespan: f64,
    /// Virtual-time event trace (empty unless `record_trace` was set).
    pub trace: Vec<SimEvent>,
    /// Final snapshot of the run's metrics registry: the same catalogue
    /// the thread runtime exports, recorded in virtual time.
    pub metrics: Snapshot,
}

impl SimReport {
    /// System throughput in questions/minute (Table 5).
    pub fn throughput_per_minute(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.questions.len() as f64 / (self.makespan / 60.0)
    }

    /// Mean question response time in seconds (Table 6).
    pub fn mean_response_time(&self) -> f64 {
        if self.questions.is_empty() {
            return 0.0;
        }
        self.questions
            .iter()
            .map(QuestionRecord::response_time)
            .sum::<f64>()
            / self.questions.len() as f64
    }

    /// Mean per-module wall-clock (Table 8 rows).
    pub fn mean_timings(&self) -> ModuleTimings {
        ModuleTimings::mean(self.questions.iter().map(|q| &q.timings))
    }

    /// Response-time percentile (`p` in `[0, 1]`; nearest-rank method).
    /// Interactive services care about the tail, not just Table 6's means.
    pub fn response_time_percentile(&self, p: f64) -> f64 {
        let mut times: Vec<f64> = self
            .questions
            .iter()
            .map(QuestionRecord::response_time)
            .collect();
        percentile(&mut times, p)
    }

    /// Mean overhead breakdown (Table 9 rows).
    pub fn mean_overhead(&self) -> OverheadBreakdown {
        OverheadBreakdown::mean(self.questions.iter().map(|q| &q.overhead))
    }

    /// Outcome tally: answered + degraded + rejected always equals the
    /// offered question count (zero silent drops, by construction).
    pub fn outcome_counts(&self) -> OverloadCounts {
        let mut counts = OverloadCounts::default();
        for q in &self.questions {
            counts.record(q.outcome);
        }
        counts
    }

    /// Response-time percentile over *admitted* questions only (answered or
    /// degraded). Rejections bounce at the door in near-zero time and would
    /// otherwise drag the tail estimate down exactly when the system is
    /// most overloaded. Returns 0 when nothing was admitted.
    pub fn admitted_response_percentile(&self, p: f64) -> f64 {
        let mut times: Vec<f64> = self
            .questions
            .iter()
            .filter(|q| q.outcome != QuestionOutcome::Rejected)
            .map(QuestionRecord::response_time)
            .collect();
        percentile(&mut times, p)
    }

    /// Per-phase [`Span`]s of question `q` in virtual time (QP → PR → PO →
    /// AP → SORT laid end to end from the recorded phase durations), the
    /// simulator's side of the shared timeline abstraction — the runtime
    /// derives the same spans from its trace ring. Empty for rejected
    /// questions and out-of-range indices.
    pub fn phase_spans(&self, q: usize) -> Vec<Span> {
        let Some(rec) = self.questions.get(q) else {
            return Vec::new();
        };
        if rec.outcome == QuestionOutcome::Rejected {
            return Vec::new();
        }
        let t = rec.timings;
        let mut at = rec.arrival;
        let mut spans = Vec::new();
        // PS is fused into PR, matching the runtime's observation model.
        for (label, dur) in [
            ("QP", t.qp),
            ("PR", t.pr + t.ps),
            ("PO", t.po),
            ("AP", t.ap),
        ] {
            if dur > 0.0 {
                spans.push(Span::new(label, at, at + dur));
                at += dur;
            }
        }
        if rec.finished > at {
            spans.push(Span::new("SORT", at, rec.finished));
        }
        spans
    }

    /// Fig. 7-style waterfall rendering of question `q`'s phase spans.
    pub fn waterfall(&self, q: usize, width: usize) -> Vec<String> {
        dqa_obs::render_waterfall(&self.phase_spans(q), width)
    }

    /// Causal-span tree of question `q` in virtual time: a `question`
    /// root over `[arrival, finished]` with one child per phase (the
    /// same QP → PR → PO → AP → SORT layout as [`SimReport::phase_spans`]).
    /// Identity comes from [`derive_trace_id`]`(q, seed)` plus the
    /// deterministic ordinal chain, and every timestamp is virtual —
    /// two runs of the same seeded config export bit-identical span
    /// streams. Empty for rejected questions and out-of-range indices.
    pub fn causal_spans(&self, q: usize, seed: u64) -> Vec<CausalSpan> {
        let Some(rec) = self.questions.get(q) else {
            return Vec::new();
        };
        if rec.outcome == QuestionOutcome::Rejected {
            return Vec::new();
        }
        let trace = derive_trace_id(q as u64, seed);
        let mut ordinal = 0u64;
        let mut next = || {
            ordinal += 1;
            derive_span_id(trace, ordinal)
        };
        let root_causes = if rec.outcome == QuestionOutcome::Degraded {
            CauseSet::none().with(CauseSet::DEGRADED)
        } else {
            CauseSet::none()
        };
        let mut root = CausalSpan::new(
            trace,
            None,
            "question",
            Some(rec.home.raw()),
            rec.arrival,
            rec.finished,
            0.0,
            root_causes,
        );
        root.id = next();
        let root_id = root.id;
        let mut spans = vec![root];
        for ph in self.phase_spans(q) {
            // The analytic overhead share of PR (kw_send/par_recv) and AP
            // (par_send/ans_recv) rides at the head of the phase — surface
            // it as queue-wait so the critical path splits coordination
            // from computation the way Table 9 does.
            let queue = match ph.label.as_str() {
                "PR" => (rec.overhead.kw_send + rec.overhead.par_recv).min(ph.end - ph.start),
                "AP" => (rec.overhead.par_send + rec.overhead.ans_recv).min(ph.end - ph.start),
                "SORT" => rec.overhead.ans_sort.min(ph.end - ph.start),
                _ => 0.0,
            };
            let mut s = CausalSpan::new(
                trace,
                Some(root_id),
                &ph.label,
                Some(rec.home.raw()),
                ph.start,
                ph.end,
                queue.max(0.0),
                CauseSet::none(),
            );
            s.id = next();
            spans.push(s);
        }
        spans
    }

    /// Every completed question's causal spans, submission order — the
    /// export surface for `dqa trace` and the double-run identity gate.
    pub fn all_causal_spans(&self, seed: u64) -> Vec<CausalSpan> {
        (0..self.questions.len())
            .flat_map(|q| self.causal_spans(q, seed))
            .collect()
    }

    /// Perfetto/chrome-tracing JSON of the whole run, byte-stable across
    /// seeded reruns.
    pub fn chrome_trace(&self, seed: u64) -> String {
        dqa_obs::to_chrome_json(&self.all_causal_spans(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{BalancingStrategy, QaSimulation, SimConfig};
    use dqa_obs::critical_path;
    use faults::FaultSchedule;
    use qa_types::OverloadPolicy;
    use rebalance::ElasticConfig;
    use scheduler::partition::PartitionStrategy;

    #[test]
    fn trace_records_the_question_lifecycle_in_virtual_time() {
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 2, 226)
        };
        let r = QaSimulation::new(cfg).run();
        assert!(!r.trace.is_empty());
        // Monotone virtual time.
        for w in r.trace.windows(2) {
            assert!(w[0].at <= w[1].at + 1e-9);
        }
        // Each question: submitted once, 8 PR chunks, one PO merge, ≥1 AP
        // batch, completed once.
        for q in 0..2 {
            let ev: Vec<_> = r.trace.iter().filter(|e| e.question == q).collect();
            let count =
                |pred: &dyn Fn(&SimEventKind) -> bool| ev.iter().filter(|e| pred(&e.kind)).count();
            assert_eq!(count(&|k| matches!(k, SimEventKind::Submitted { .. })), 1);
            assert_eq!(count(&|k| matches!(k, SimEventKind::PrChunkDone { .. })), 8);
            assert_eq!(count(&|k| matches!(k, SimEventKind::PoMerged { .. })), 1);
            assert!(count(&|k| matches!(k, SimEventKind::ApBatchDone { .. })) >= 1);
            assert_eq!(count(&|k| matches!(k, SimEventKind::Completed { .. })), 1);
        }
        // Every sub-collection appears exactly once per question.
        let mut colls: Vec<u32> = r
            .trace
            .iter()
            .filter(|e| e.question == 0)
            .filter_map(|e| match e.kind {
                SimEventKind::PrChunkDone { collection, .. } => Some(collection),
                _ => None,
            })
            .collect();
        colls.sort_unstable();
        assert_eq!(colls, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let r = QaSimulation::new(SimConfig::paper_low_load(
            2,
            PartitionStrategy::Recv { chunk_size: 40 },
            1,
            1,
        ))
        .run();
        assert!(r.trace.is_empty());
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let p50 = r.response_time_percentile(0.5);
        let p95 = r.response_time_percentile(0.95);
        let p100 = r.response_time_percentile(1.0);
        assert!(p50 <= p95 && p95 <= p100);
        assert!(p50 > 0.0);
        let max = r
            .questions
            .iter()
            .map(QuestionRecord::response_time)
            .fold(f64::MIN, f64::max);
        assert!((p100 - max).abs() < 1e-9);
        assert!(
            r.response_time_percentile(0.0) > 0.0,
            "p0 = min, nearest rank"
        );
    }

    #[test]
    fn admitted_percentile_ignores_rejections() {
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 9);
        cfg.overload = OverloadPolicy::server(2).with_queue(1);
        cfg.arrival_spacing = (0.0, 0.1);
        let r = QaSimulation::new(cfg).run();
        assert!(
            r.outcome_counts().rejected > 0,
            "need rejections to compare"
        );
        let all_p50 = r.response_time_percentile(0.5);
        let admitted_p50 = r.admitted_response_percentile(0.5);
        assert!(
            admitted_p50 >= all_p50,
            "near-instant rejections must not drag the admitted tail: {admitted_p50} < {all_p50}"
        );
        assert!(r.admitted_response_percentile(0.99) >= admitted_p50);
    }

    #[test]
    fn metrics_snapshots_are_bit_identical_across_replays() {
        let a = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let b = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        // The DES is deterministic and single-threaded, so the whole
        // registry — f64 histogram sums included — must replay bit-stably,
        // down to the serialized form.
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        let round = Snapshot::from_json(&a.metrics.to_json()).expect("parses");
        assert_eq!(round, a.metrics);
        dqa_obs::validate_prometheus(&a.metrics.to_prometheus()).expect("valid exposition");
    }

    #[test]
    fn causal_span_exports_are_bit_identical_across_chaos_replays() {
        // The chaos replay matrix: every schedule shape the elastic and
        // fault tiers inject must still export byte-identical span
        // streams on a seeded double run — span identity is derived
        // arithmetic, never allocation or wall-clock order.
        let matrix: Vec<(&str, Box<dyn Fn() -> SimConfig>)> = vec![
            (
                "baseline",
                Box::new(|| SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 31)),
            ),
            (
                "crash",
                Box::new(|| {
                    let mut cfg = SimConfig::paper_low_load(
                        4,
                        PartitionStrategy::Recv { chunk_size: 40 },
                        4,
                        31,
                    );
                    cfg.faults = FaultSchedule::seeded(31).crash(NodeId::new(2), 20.0);
                    cfg
                }),
            ),
            (
                "straggler",
                Box::new(|| {
                    let mut cfg = SimConfig::paper_low_load(
                        4,
                        PartitionStrategy::Recv { chunk_size: 40 },
                        4,
                        31,
                    );
                    cfg.faults =
                        FaultSchedule::seeded(31).straggler(NodeId::new(1), 10.0, 30.0, 4.0);
                    cfg
                }),
            ),
            (
                "drain",
                Box::new(|| {
                    let mut cfg = SimConfig::paper_low_load(
                        4,
                        PartitionStrategy::Recv { chunk_size: 40 },
                        4,
                        31,
                    );
                    cfg.elastic = Some(ElasticConfig::default());
                    cfg.faults = FaultSchedule::seeded(31).decommission(NodeId::new(1), 15.0);
                    cfg
                }),
            ),
        ];
        for (name, build) in matrix {
            let a = QaSimulation::new(build()).run();
            let b = QaSimulation::new(build()).run();
            assert_eq!(
                a.chrome_trace(31),
                b.chrome_trace(31),
                "{name}: span export diverged across a seeded double run"
            );
            let spans = a.all_causal_spans(31);
            assert!(!spans.is_empty(), "{name}: no spans exported");
            dqa_obs::validate_nesting(&spans).unwrap_or_else(|e| panic!("{name}: {e}"));
            dqa_obs::validate_chrome_json(&a.chrome_trace(31))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn critical_path_attributes_the_measured_latency_within_one_percent() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let mut attributed = 0usize;
        for (q, rec) in r.questions.iter().enumerate() {
            if rec.outcome == QuestionOutcome::Rejected {
                assert!(r.causal_spans(q, 5).is_empty(), "rejected q{q} has spans");
                continue;
            }
            let cp = critical_path(&r.causal_spans(q, 5)).expect("critical path");
            let e2e = rec.finished - rec.arrival;
            assert!(
                (cp.total() - e2e).abs() <= 1e-9 * e2e.max(1.0),
                "q{q}: path total {} vs measured e2e {e2e}",
                cp.total()
            );
            let residual = (cp.total() - cp.attributed()).abs();
            assert!(
                residual <= 0.01 * cp.total().max(f64::MIN_POSITIVE),
                "q{q}: residual {residual} on e2e {e2e}"
            );
            attributed += 1;
        }
        assert!(attributed > 0, "no completed questions to attribute");
    }

    #[test]
    fn metrics_catalogue_agrees_with_the_report() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let counts = r.outcome_counts();
        let m = &r.metrics;
        assert_eq!(
            m.counter(r#"dqa_questions_total{outcome="answered"}"#),
            counts.answered as u64
        );
        assert_eq!(
            m.counter(r#"dqa_migrations_total{kind="qa"}"#),
            r.migrations.qa as u64
        );
        assert_eq!(
            m.counter(r#"dqa_migrations_total{kind="pr"}"#),
            r.migrations.pr as u64
        );
        assert_eq!(
            m.counter(r#"dqa_migrations_total{kind="ap"}"#),
            r.migrations.ap as u64
        );
        let h = &m.histograms["dqa_question_seconds"];
        assert_eq!(h.count as usize, r.questions.len());
        let tol = 1e-9 * r.mean_response_time().max(1.0);
        assert!((h.mean() - r.mean_response_time()).abs() < tol);
        // Eq. 1–3 gauges exist for every node/module pair; all-idle at end.
        for n in 0..4u32 {
            for module in ["QA", "PR", "AP"] {
                let key = format!(r#"dqa_node_load{{module="{module}",node="{n}"}}"#);
                assert_eq!(m.gauges[&key], 0.0, "{key} after drain");
            }
        }
        assert_eq!(m.gauges["dqa_in_flight"], 0.0);
    }

    #[test]
    fn phase_spans_render_a_virtual_time_waterfall() {
        let r = QaSimulation::new(SimConfig::paper_low_load(
            4,
            PartitionStrategy::Recv { chunk_size: 40 },
            2,
            226,
        ))
        .run();
        let spans = r.phase_spans(0);
        assert!(spans.len() >= 4, "QP/PR/PO/AP at least: {spans:?}");
        assert_eq!(spans[0].label, "QP");
        for w in spans.windows(2) {
            assert!(w[1].start >= w[0].start, "spans out of order");
        }
        let last = spans.last().expect("nonempty");
        assert!((last.end - r.questions[0].finished).abs() < 1e-6);
        let lines = r.waterfall(0, 40);
        assert_eq!(lines.len(), spans.len());
        assert!(lines[0].contains("QP"));
        assert!(r.phase_spans(99).is_empty(), "out of range is empty");
    }
}
