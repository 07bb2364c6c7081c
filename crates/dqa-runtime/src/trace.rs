//! Execution traces in the style of the paper's Fig. 7.
//!
//! The log is a bounded *flight recorder*: a drop-oldest ring buffer
//! ([`dqa_obs::FlightRecorder`]) so week-long soaks cannot grow it without
//! bound. Evictions are counted — and mirrored into
//! `dqa_trace_dropped_total` when a metrics counter is attached — never
//! silent. Timestamps come from a [`Clock`], so the same log type serves
//! wall time here and virtual time in the simulator's harnesses.

use dqa_obs::{
    CausalSpan, CauseSet, Clock, Counter, FlightRecorder, Span, TraceRecorder, WallClock,
};
use qa_types::{NodeId, QaModule, QuestionId, SubCollectionId};
use std::sync::Arc;

pub use dqa_obs::DEFAULT_FLIGHT_RECORDER_CAPACITY;

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// Question accepted by its coordinator on `home`.
    QuestionStart,
    /// Node started retrieving one sub-collection.
    PrChunkStart(SubCollectionId),
    /// Node finished one sub-collection.
    PrChunkDone(SubCollectionId),
    /// Coordinator merged all paragraphs (count attached).
    ParagraphsMerged(usize),
    /// Node started an AP batch of `usize` paragraphs.
    ApBatchStart(usize),
    /// Node finished an AP batch of `usize` paragraphs.
    ApBatchDone(usize),
    /// Coordinator produced the final answer set (count attached).
    AnswersSorted(usize),
    /// A worker was detected failed and its work re-queued.
    WorkerFailed,
    /// A straggler's chunk was speculatively re-issued to another worker.
    Speculated(u32),
    /// The coordinator gave up on `usize` chunks (deadline or retry budget
    /// exhausted) and returned a degraded, coverage-annotated answer.
    Degraded(usize),
    /// The admission gate refused the question: queue full, every node at
    /// its resident cap, or the cluster is draining.
    Rejected,
    /// A phase was shed before dispatch: the remaining deadline budget
    /// could not cover its estimated demand.
    Shed(QaModule),
    /// A send into a node's bounded ingress queue timed out; the chunk was
    /// re-queued instead of blocking the coordinator (backpressure).
    Backpressure,
    /// The coordinator skipped `usize` quarantined (corruption-detected)
    /// sub-collections; the answer closes with explicitly reduced
    /// coverage instead of reading damaged postings.
    Quarantined(usize),
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Seconds since cluster start.
    pub at: f64,
    /// Question the event belongs to.
    pub question: QuestionId,
    /// Node involved.
    pub node: NodeId,
    /// The event.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Render in the style of the Fig. 7 listings
    /// (`N2 finished collection C3 in 0.42 secs`-ish).
    pub fn render(&self) -> String {
        let w = match &self.kind {
            TraceKind::QuestionStart => "started question".to_string(),
            TraceKind::PrChunkStart(c) => format!("started collection {c}"),
            TraceKind::PrChunkDone(c) => format!("finished collection {c}"),
            TraceKind::ParagraphsMerged(n) => format!("merged {n} paragraphs"),
            TraceKind::ApBatchStart(n) => format!("started {n} paragraphs"),
            TraceKind::ApBatchDone(n) => format!("finished {n} paragraphs"),
            TraceKind::AnswersSorted(n) => format!("sorted {n} answers"),
            TraceKind::WorkerFailed => "failed; work re-queued".to_string(),
            TraceKind::Speculated(c) => format!("speculated chunk {c}"),
            TraceKind::Degraded(n) => format!("degraded; {n} chunks abandoned"),
            TraceKind::Rejected => "rejected at admission".to_string(),
            TraceKind::Shed(m) => format!("shed {m}; deadline budget too small"),
            TraceKind::Backpressure => "ingress queue full; chunk re-queued".to_string(),
            TraceKind::Quarantined(n) => {
                format!("skipped {n} quarantined collections; coverage reduced")
            }
        };
        format!("[{:>8.3}s] {} {} {}", self.at, self.question, self.node, w)
    }
}

/// Shared bounded trace log (drop-oldest flight recorder).
#[derive(Clone)]
pub struct TraceLog {
    clock: Arc<dyn Clock>,
    events: Arc<FlightRecorder<TraceEvent>>,
    dropped: Counter,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("len", &self.events.len())
            .field("capacity", &self.events.capacity())
            .field("dropped", &self.events.dropped())
            .finish()
    }
}

impl TraceLog {
    /// A fresh wall-clock log with the default flight-recorder capacity;
    /// timestamps are relative to now.
    pub fn new() -> TraceLog {
        TraceLog::with(
            Arc::new(WallClock::new()),
            DEFAULT_FLIGHT_RECORDER_CAPACITY,
            Counter::default(),
        )
    }

    /// A log over an explicit clock, ring capacity and eviction counter
    /// (pass a `dqa_trace_dropped_total` handle to surface loss in the
    /// metrics snapshot; `Counter::default()` detaches it).
    pub fn with(clock: Arc<dyn Clock>, capacity: usize, dropped: Counter) -> TraceLog {
        TraceLog {
            clock,
            events: Arc::new(FlightRecorder::new(capacity)),
            dropped,
        }
    }

    /// Record an event, evicting the oldest if the ring is full.
    pub fn record(&self, question: QuestionId, node: NodeId, kind: TraceKind) {
        let at = self.clock.now();
        let evicted = self.events.push(TraceEvent {
            at,
            question,
            node,
            kind,
        });
        if evicted {
            self.dropped.inc();
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.snapshot()
    }

    /// Retained events for one question.
    pub fn for_question(&self, q: QuestionId) -> Vec<TraceEvent> {
        self.events.filtered(|e| e.question == q)
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Render the retained trace as Fig. 7-style lines.
    pub fn render(&self) -> Vec<String> {
        self.events
            .snapshot()
            .iter()
            .map(TraceEvent::render)
            .collect()
    }
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Derive phase spans from one question's events. Chunked phases (PR, AP)
/// span first-start to last-done; the centralized steps (PO merge, final
/// sort) span from the previous phase's end to their completion event.
fn phase_spans(events: &[TraceEvent]) -> Vec<Span> {
    let at_of = |pred: &dyn Fn(&TraceKind) -> bool| -> Option<f64> {
        events.iter().find(|e| pred(&e.kind)).map(|e| e.at)
    };
    let last_of = |pred: &dyn Fn(&TraceKind) -> bool| -> Option<f64> {
        events.iter().rev().find(|e| pred(&e.kind)).map(|e| e.at)
    };

    let start = at_of(&|k| matches!(k, TraceKind::QuestionStart));
    let pr_start = at_of(&|k| matches!(k, TraceKind::PrChunkStart(_)));
    let pr_end = last_of(&|k| matches!(k, TraceKind::PrChunkDone(_)));
    let po_at = at_of(&|k| matches!(k, TraceKind::ParagraphsMerged(_)));
    let ap_start = at_of(&|k| matches!(k, TraceKind::ApBatchStart(_)));
    let ap_end = last_of(&|k| matches!(k, TraceKind::ApBatchDone(_)));
    let sorted_at = last_of(&|k| matches!(k, TraceKind::AnswersSorted(_)));

    let mut spans = Vec::new();
    // QP runs on the coordinator between acceptance and the first PR
    // dispatch; without PR (fully shed) it ends where merging happened.
    if let (Some(s), Some(e)) = (start, pr_start.or(po_at)) {
        spans.push(Span::new("QP", s, e));
    }
    if let (Some(s), Some(e)) = (pr_start, pr_end) {
        spans.push(Span::new("PR", s, e));
    }
    if let (Some(e), Some(s)) = (po_at, pr_end.or(start)) {
        spans.push(Span::new("PO", s, e));
    }
    if let (Some(s), Some(e)) = (ap_start, ap_end) {
        spans.push(Span::new("AP", s, e));
    }
    if let (Some(e), Some(s)) = (sorted_at, ap_end.or(po_at).or(start)) {
        spans.push(Span::new("SORT", s, e));
    }
    spans
}

/// Seal a finished question's causal-span tree into `rec` from its
/// flight-recorded events plus the admission timestamps (all on the same
/// [`Clock`] timeline as the events). Returns the trace id.
///
/// The tree is: a `question` root spanning enqueue → finish whose
/// `queue_wait` is the admission-gate wait, with the derived
/// QP/PR/PO/AP/SORT phases as children, per-sub-collection `chunk` spans
/// under PR and per-node `ap-batch` spans under AP. Cause tags fold in
/// the question's fault history (speculation, worker retries,
/// degradation) plus whatever `extra` the caller knows (e.g.
/// [`CauseSet::RESUMED`] for journal-resumed questions).
pub fn seal_question_spans(
    rec: &TraceRecorder,
    question: QuestionId,
    events: &[TraceEvent],
    enqueued_at: f64,
    admitted_at: f64,
    finished_at: f64,
    extra: CauseSet,
) -> u64 {
    let trace = rec.trace_id(u64::from(question.raw()));
    let home = events
        .iter()
        .find(|e| matches!(e.kind, TraceKind::QuestionStart))
        .map(|e| e.node.raw());
    let mut causes = extra;
    for e in events {
        causes = match e.kind {
            TraceKind::Degraded(_) | TraceKind::Shed(_) => causes.with(CauseSet::DEGRADED),
            TraceKind::Speculated(_) => causes.with(CauseSet::SPECULATED),
            TraceKind::WorkerFailed | TraceKind::Backpressure => causes.with(CauseSet::RETRIED),
            TraceKind::Quarantined(_) => {
                causes.with(CauseSet::DEGRADED.with(CauseSet::QUARANTINED))
            }
            _ => causes,
        };
    }
    let lo = enqueued_at.min(admitted_at);
    let hi = finished_at.max(admitted_at).max(lo);
    let clamp = |t: f64| t.clamp(lo, hi);
    let root = rec.emit(CausalSpan::new(
        trace,
        None,
        "question",
        home,
        lo,
        hi,
        (admitted_at - enqueued_at).max(0.0),
        causes,
    ));
    for phase in phase_spans(events) {
        let (ps, pe) = (clamp(phase.start), clamp(phase.end));
        let pid = rec.emit(CausalSpan::new(
            trace,
            Some(root),
            &phase.label,
            home,
            ps,
            pe,
            0.0,
            CauseSet::none(),
        ));
        match phase.label.as_str() {
            "PR" => emit_pr_chunks(rec, trace, pid, events, ps, pe),
            "AP" => emit_ap_batches(rec, trace, pid, events, ps, pe),
            _ => {}
        }
    }
    trace
}

/// Per-sub-collection chunk spans under the PR phase: first start to
/// last done; more than one start means the chunk was re-issued
/// (speculation or worker-failure retry).
fn emit_pr_chunks(
    rec: &TraceRecorder,
    trace: u64,
    parent: u64,
    events: &[TraceEvent],
    lo: f64,
    hi: f64,
) {
    let mut chunks: std::collections::BTreeMap<u32, (Vec<f64>, Option<f64>, NodeId)> =
        std::collections::BTreeMap::new();
    for e in events {
        match e.kind {
            TraceKind::PrChunkStart(c) => {
                chunks
                    .entry(c.raw())
                    .or_insert_with(|| (Vec::new(), None, e.node))
                    .0
                    .push(e.at);
            }
            TraceKind::PrChunkDone(c) => {
                let entry = chunks
                    .entry(c.raw())
                    .or_insert_with(|| (Vec::new(), None, e.node));
                entry.1 = Some(e.at);
                entry.2 = e.node;
            }
            _ => {}
        }
    }
    for (starts, done, node) in chunks.into_values() {
        let (Some(first), Some(done)) = (starts.first().copied(), done) else {
            continue; // endpoint evicted from the ring or chunk abandoned
        };
        let causes = if starts.len() > 1 {
            CauseSet::RETRIED
        } else {
            CauseSet::none()
        };
        rec.emit(CausalSpan::new(
            trace,
            Some(parent),
            "chunk",
            Some(node.raw()),
            first.clamp(lo, hi),
            done.clamp(lo, hi),
            0.0,
            causes,
        ));
    }
}

/// Per-node AP batch spans under the AP phase: the i-th start on a node
/// pairs with the i-th done on that node.
fn emit_ap_batches(
    rec: &TraceRecorder,
    trace: u64,
    parent: u64,
    events: &[TraceEvent],
    lo: f64,
    hi: f64,
) {
    let mut per_node: std::collections::BTreeMap<u32, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    for e in events {
        match e.kind {
            TraceKind::ApBatchStart(_) => per_node.entry(e.node.raw()).or_default().0.push(e.at),
            TraceKind::ApBatchDone(_) => per_node.entry(e.node.raw()).or_default().1.push(e.at),
            _ => {}
        }
    }
    for (node, (starts, dones)) in per_node {
        for (s, d) in starts.iter().zip(dones.iter()) {
            rec.emit(CausalSpan::new(
                trace,
                Some(parent),
                "ap-batch",
                Some(node),
                s.clamp(lo, hi),
                d.max(*s).clamp(lo, hi),
                0.0,
                CauseSet::none(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqa_obs::ManualClock;

    #[test]
    fn records_and_filters() {
        let log = TraceLog::new();
        let q1 = QuestionId::new(1);
        let q2 = QuestionId::new(2);
        log.record(q1, NodeId::new(0), TraceKind::QuestionStart);
        log.record(q2, NodeId::new(1), TraceKind::QuestionStart);
        log.record(
            q1,
            NodeId::new(2),
            TraceKind::PrChunkStart(SubCollectionId::new(3)),
        );
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.for_question(q1).len(), 2);
        assert_eq!(log.for_question(q2).len(), 1);
    }

    #[test]
    fn timestamps_are_monotone() {
        let log = TraceLog::new();
        for i in 0..5 {
            log.record(QuestionId::new(i), NodeId::new(0), TraceKind::QuestionStart);
        }
        let ev = log.events();
        for w in ev.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn render_mentions_node_and_collection() {
        let log = TraceLog::new();
        log.record(
            QuestionId::new(226),
            NodeId::new(2),
            TraceKind::PrChunkDone(SubCollectionId::new(5)),
        );
        let lines = log.render();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("Q226"));
        assert!(lines[0].contains("N2"));
        assert!(lines[0].contains("finished collection C5"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let counter = Counter::live();
        let log = TraceLog::with(Arc::new(WallClock::new()), 4, counter.clone());
        for i in 0..10 {
            log.record(QuestionId::new(i), NodeId::new(0), TraceKind::QuestionStart);
        }
        let ev = log.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(log.dropped(), 6);
        assert_eq!(counter.get(), 6, "evictions mirrored into the counter");
        assert_eq!(log.capacity(), 4);
        // Oldest were evicted: the survivors are the last four questions.
        assert_eq!(ev[0].question, QuestionId::new(6));
    }

    #[test]
    fn timeline_reconstructs_phase_spans_in_virtual_time() {
        let clock = Arc::new(ManualClock::new());
        let log = TraceLog::with(clock.clone(), 1024, Counter::default());
        let q = QuestionId::new(7);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let step = |t: f64, node, kind| {
            clock.set(t);
            log.record(q, node, kind);
        };
        step(0.0, n0, TraceKind::QuestionStart);
        step(0.5, n0, TraceKind::PrChunkStart(SubCollectionId::new(0)));
        step(0.6, n1, TraceKind::PrChunkStart(SubCollectionId::new(1)));
        step(2.0, n1, TraceKind::PrChunkDone(SubCollectionId::new(1)));
        step(2.5, n0, TraceKind::PrChunkDone(SubCollectionId::new(0)));
        step(2.7, n0, TraceKind::ParagraphsMerged(40));
        step(2.8, n1, TraceKind::ApBatchStart(20));
        step(4.0, n1, TraceKind::ApBatchDone(20));
        step(4.2, n0, TraceKind::AnswersSorted(5));

        let phases = phase_spans(&log.for_question(q));
        let labels: Vec<&str> = phases.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["QP", "PR", "PO", "AP", "SORT"]);
        let pr = &phases[1];
        assert_eq!((pr.start, pr.end), (0.5, 2.5));
        let po = &phases[2];
        assert_eq!((po.start, po.end), (2.5, 2.7));
    }

    #[test]
    fn timeline_without_ap_still_yields_early_phases() {
        let clock = Arc::new(ManualClock::new());
        let log = TraceLog::with(clock.clone(), 64, Counter::default());
        let q = QuestionId::new(1);
        let n = NodeId::new(0);
        clock.set(0.0);
        log.record(q, n, TraceKind::QuestionStart);
        clock.set(1.0);
        log.record(q, n, TraceKind::ParagraphsMerged(0));
        clock.set(1.1);
        log.record(q, n, TraceKind::AnswersSorted(0));
        let phases = phase_spans(&log.for_question(q));
        let labels: Vec<&str> = phases.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["QP", "PO", "SORT"]);
    }

    #[test]
    fn sealed_spans_are_well_nested_and_attribute_fully() {
        let clock = Arc::new(ManualClock::new());
        let log = TraceLog::with(clock.clone(), 1024, Counter::default());
        let rec = TraceRecorder::new(clock.clone(), 42, 1024, Counter::live());
        let q = QuestionId::new(7);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let step = |t: f64, node, kind| {
            clock.set(t);
            log.record(q, node, kind);
        };
        step(0.3, n0, TraceKind::QuestionStart);
        step(0.5, n0, TraceKind::PrChunkStart(SubCollectionId::new(0)));
        step(0.6, n1, TraceKind::PrChunkStart(SubCollectionId::new(1)));
        step(1.0, n1, TraceKind::Speculated(0));
        step(1.2, n1, TraceKind::PrChunkStart(SubCollectionId::new(0)));
        step(2.0, n1, TraceKind::PrChunkDone(SubCollectionId::new(1)));
        step(2.5, n1, TraceKind::PrChunkDone(SubCollectionId::new(0)));
        step(2.7, n0, TraceKind::ParagraphsMerged(40));
        step(2.8, n1, TraceKind::ApBatchStart(20));
        step(4.0, n1, TraceKind::ApBatchDone(20));
        step(4.2, n0, TraceKind::AnswersSorted(5));

        let trace = seal_question_spans(
            &rec,
            q,
            &log.for_question(q),
            0.0,
            0.2,
            4.3,
            CauseSet::none(),
        );
        let spans = rec.for_trace(trace);
        dqa_obs::validate_nesting(&spans).expect("sealed tree is well-nested");
        let root = spans
            .iter()
            .find(|s| s.parent.is_none())
            .expect("root span");
        assert_eq!(root.name, "question");
        assert_eq!((root.start, root.end), (0.0, 4.3));
        assert!((root.queue_wait - 0.2).abs() < 1e-12, "admission wait");
        assert!(root.causes.contains(CauseSet::SPECULATED));
        let chunk_retried = spans
            .iter()
            .any(|s| s.name == "chunk" && s.causes.contains(CauseSet::RETRIED));
        assert!(chunk_retried, "re-issued chunk tagged");
        assert!(spans.iter().any(|s| s.name == "ap-batch"));
        let path = dqa_obs::critical_path(&spans).expect("path");
        let residual = (path.attributed() - path.total()).abs();
        assert!(
            residual < 1e-9,
            "components partition e2e, off by {residual}"
        );
        // Double seal from identical inputs yields identical spans.
        let rec2 = TraceRecorder::new(clock.clone(), 42, 1024, Counter::live());
        seal_question_spans(
            &rec2,
            q,
            &log.for_question(q),
            0.0,
            0.2,
            4.3,
            CauseSet::none(),
        );
        assert_eq!(rec2.spans(), spans, "deterministic identity + layout");
    }
}
