//! Property tests for the causal-tracing tier: spans sealed through a
//! [`TraceRecorder`] must always form well-nested per-trace trees, the
//! critical path must attribute the root interval exactly, span ids
//! must be collision-free along the deterministic ordinal chain, and
//! the nesting validator must reject escapes it exists to catch.

use dqa_obs::{
    critical_path, derive_span_id, derive_trace_id, names, to_chrome_json, validate_chrome_json,
    validate_nesting, CausalSpan, CauseSet, ManualClock, MetricsRegistry, TraceRecorder,
};
use qa_types::rng::cases;
use std::sync::Arc;

/// A recorder over a manual clock, as the DES and tests use it.
fn recorder(seed: u64) -> (Arc<ManualClock>, TraceRecorder) {
    let clock = Arc::new(ManualClock::new());
    let registry = MetricsRegistry::new();
    let rec = TraceRecorder::new(
        clock.clone(),
        seed,
        4096,
        registry.counter(names::TRACE_DROPPED_TOTAL, &[]),
    );
    (clock, rec)
}

/// Record one span of `trace` on node 0: `[start, end]`, `queue` of it waiting.
fn emit(
    rec: &TraceRecorder,
    (trace, parent): (u64, Option<u64>),
    name: &str,
    (start, end, queue): (f64, f64, f64),
) -> u64 {
    let causes = CauseSet::default();
    rec.emit(CausalSpan::new(
        trace,
        parent,
        name,
        Some(0),
        start,
        end,
        queue,
        causes,
    ))
}

/// Seal one question: a root covering `phases` laid end-to-end from
/// `start`, each phase a child with its queue share. Returns all spans.
fn seal_question(
    rec: &TraceRecorder,
    question: u64,
    start: f64,
    phases: &[(f64, f64)],
) -> Vec<CausalSpan> {
    let trace = rec.trace_id(question);
    let total: f64 = phases.iter().map(|(d, _)| d).sum();
    let root = emit(rec, (trace, None), "question", (start, start + total, 0.0));
    let mut at = start;
    for (i, (dur, queue_frac)) in phases.iter().enumerate() {
        let phase = format!("phase-{i}");
        emit(
            rec,
            (trace, Some(root)),
            &phase,
            (at, at + dur, dur * queue_frac),
        );
        at += dur;
    }
    rec.for_trace(trace)
}

/// However many questions and phases a run seals, the recorded span
/// set is well nested, exports as valid chrome-tracing JSON, and
/// each question's critical path partitions its root interval: the
/// components sum to the end-to-end latency within 1 % (exactly, up
/// to f64 reassociation — the 1 % bound is the gate's bar).
#[test]
fn sealed_questions_are_well_nested_and_fully_attributed() {
    cases(0x7ace_0001, 256, |rng| {
        let seed = rng.next_u64();
        let questions = rng.vec(1..=11, |r| {
            r.vec(1..=7, |r| (r.uniform(1e-3..20.0), r.uniform(0.0..1.0)))
        });
        let (_, rec) = recorder(seed);
        let mut start = 0.0f64;
        for (q, phases) in questions.iter().enumerate() {
            let spans = seal_question(&rec, q as u64, start, phases);
            let total: f64 = phases.iter().map(|(d, _)| d).sum();
            start += total + 0.25;
            let cp = critical_path(&spans).expect("critical path");
            assert!((cp.total() - total).abs() <= 1e-9 * total.max(1.0));
            let residual = (cp.total() - cp.attributed()).abs();
            assert!(
                residual <= 0.01 * cp.total(),
                "residual {residual} on e2e {}",
                cp.total()
            );
            assert!(cp.queue_total() <= cp.total() + 1e-9);
        }
        let all = rec.spans();
        validate_nesting(&all).unwrap();
        validate_chrome_json(&to_chrome_json(&all)).unwrap();
        assert_eq!(rec.dropped(), 0);
    });
}

/// Span ids along one trace's ordinal chain never collide, and two
/// different seeds give a question different trace identities while
/// the same seed replays the identical chain.
#[test]
fn span_id_chains_are_deterministic_and_collision_free() {
    cases(0x7ace_0002, 256, |rng| {
        let (seed, question) = (rng.next_u64(), rng.next_u64());
        let len = rng.range(1..=255);
        let trace = derive_trace_id(question, seed);
        assert_eq!(trace, derive_trace_id(question, seed));
        assert_ne!(trace, derive_trace_id(question, seed ^ 1));
        let mut seen = std::collections::BTreeSet::new();
        for ordinal in 1..=len {
            assert!(
                seen.insert(derive_span_id(trace, ordinal)),
                "ordinal {ordinal} collided in trace {trace:016x}"
            );
        }
    });
}

/// The validator rejects a child escaping its parent's interval by
/// more than the 1 µs wall-clock slack, and accepts the same child
/// once clamped back inside.
#[test]
fn nesting_validator_rejects_escaped_children() {
    cases(0x7ace_0003, 256, |rng| {
        let seed = rng.next_u64();
        let dur = rng.uniform(0.1..50.0);
        let escape = rng.uniform(1e-3..5.0);
        let nesting_of = |child_end: f64| {
            let (_, rec) = recorder(seed);
            let trace = rec.trace_id(7);
            let root = emit(&rec, (trace, None), "question", (0.0, dur, 0.0));
            emit(&rec, (trace, Some(root)), "phase", (0.0, child_end, 0.0));
            validate_nesting(&rec.spans())
        };
        assert!(nesting_of(dur + escape).is_err());
        assert!(nesting_of(dur).is_ok());
    });
}
