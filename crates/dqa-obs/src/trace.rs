//! Causal spans, critical-path attribution and Perfetto export.
//!
//! Metrics aggregate; they cannot say *why one question* took 1.4 s when
//! the p50 is 200 ms. This module adds the missing causal layer: every
//! stage a question passes through — admission, broker scatter-gather,
//! hedged shard retries, per-node chunk execution, quorum merge, journal
//! replay, rebalance migration steps — records a [`CausalSpan`] into a
//! bounded [`FlightRecorder`], and a critical-path analyzer folds a
//! finished question's span tree into a per-question Table 8/9: how many
//! seconds of the end-to-end latency each component contributed, split
//! into queue wait vs. service time.
//!
//! Determinism is load-bearing. Span identity never touches an RNG or
//! the wall clock: trace ids derive from `splitmix64(question ⊕ seed)`
//! and span ids from a per-trace ordinal chain, so a seeded simulator
//! double run emits *byte-identical* exported span streams (the
//! `soak trace` gate and the chaos replay tests assert exactly that).
//! Timestamps come only from the [`Clock`] seam — wall time in the
//! runtime, virtual time in the DES — which `dqa-lint`'s `raw-instant`
//! rule enforces for this module just like for the runtime crates.
//!
//! The critical path is computed by the classic backward walk: starting
//! from the root span's end, repeatedly step to the latest-ending child
//! that gates completion, attributing uncovered gaps to the parent's own
//! time. The attributed components therefore partition the root interval
//! exactly — their sum equals the measured end-to-end latency up to f64
//! addition error, which is what lets `soak trace` hold a per-component
//! budget without slack for attribution loss.

use crate::metrics::Counter;
use crate::ring::FlightRecorder;
use crate::Clock;
use qa_types::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The deterministic, seedable hash from which every trace and span id
/// derives — a pure function of its input, so replays reproduce identities
/// bit-for-bit.
pub use qa_types::rng::splitmix64;

/// Domain-separation salt so a trace id never collides with the span-id
/// chain of another trace.
const TRACE_SALT: u64 = 0xd6e8_feb8_6659_fd93;

/// The trace id for `question` under `seed` — identical on the broker,
/// the shard runtime and the simulator as long as they agree on the
/// seed, which is what stitches their span streams into one trace.
pub fn derive_trace_id(question: u64, seed: u64) -> u64 {
    splitmix64(question ^ splitmix64(seed ^ TRACE_SALT))
}

/// The `ordinal`-th span id (1-based) in `trace`'s deterministic chain.
/// [`TraceRecorder::next_id`] walks this chain one step per emitted
/// span; standalone exporters (the virtual-time simulator) call it
/// directly to mint the same ids post hoc from recorded state.
pub fn derive_span_id(trace: u64, ordinal: u64) -> u64 {
    splitmix64(trace ^ splitmix64(ordinal))
}

/// A set of cause tags explaining *why* a span exists or ran long.
///
/// Stored as a bitmask so spans stay `Clone`-cheap in the flight
/// recorder; rendered in a fixed order for deterministic export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CauseSet(u8);

impl CauseSet {
    /// The span is a hedged duplicate of a slow primary request.
    pub const HEDGED: CauseSet = CauseSet(1);
    /// The span re-ran work that previously failed.
    pub const RETRIED: CauseSet = CauseSet(1 << 1);
    /// The span was deferred by the rebalance/admission throttle.
    pub const THROTTLED: CauseSet = CauseSet(1 << 2);
    /// The question closed degraded (shed phase or quorum shortfall).
    pub const DEGRADED: CauseSet = CauseSet(1 << 3);
    /// The span is a speculative re-issue against a straggler.
    pub const SPECULATED: CauseSet = CauseSet(1 << 4);
    /// The span continues work resumed from the journal after a crash.
    pub const RESUMED: CauseSet = CauseSet(1 << 5);
    /// The question skipped quarantined (corruption-detected)
    /// sub-collections and closed with explicitly reduced coverage.
    pub const QUARANTINED: CauseSet = CauseSet(1 << 6);

    /// The empty set.
    pub fn none() -> CauseSet {
        CauseSet(0)
    }

    /// This set plus `other`.
    #[must_use]
    pub fn with(self, other: CauseSet) -> CauseSet {
        CauseSet(self.0 | other.0)
    }

    /// Whether every tag in `other` is present.
    pub fn contains(self, other: CauseSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no tag is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The tags as labels, in fixed declaration order.
    pub fn labels(self) -> Vec<&'static str> {
        const ALL: [(CauseSet, &str); 7] = [
            (CauseSet::HEDGED, "hedged"),
            (CauseSet::RETRIED, "retried"),
            (CauseSet::THROTTLED, "throttled"),
            (CauseSet::DEGRADED, "degraded"),
            (CauseSet::SPECULATED, "speculated"),
            (CauseSet::RESUMED, "resumed"),
            (CauseSet::QUARANTINED, "quarantined"),
        ];
        ALL.iter()
            .filter(|(c, _)| self.contains(*c))
            .map(|(_, l)| *l)
            .collect()
    }

    /// Comma-joined labels (`""` when empty) — the export/render form.
    pub fn render(self) -> String {
        self.labels().join(",")
    }
}

/// One timed stage of a question's execution, linked into a tree by
/// `trace`/`parent`. Times are `Clock` seconds — wall time in the
/// runtime, virtual time in the DES; the identity fields never depend
/// on either.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalSpan {
    /// The question's trace id ([`derive_trace_id`]).
    pub trace: u64,
    /// This span's id, unique within the trace.
    pub id: u64,
    /// Enclosing span, `None` only for the per-question root.
    pub parent: Option<u64>,
    /// Component name: `question`, `admission`, `QP`, `PR`, `chunk`,
    /// `shard`, `hedge`, `merge`, `replay`, `migration`, …
    pub name: String,
    /// The node (or shard) the work ran on, when it ran somewhere.
    pub node: Option<u32>,
    /// Start time, `Clock` seconds.
    pub start: f64,
    /// End time, `Clock` seconds (clamped ≥ `start` on construction).
    pub end: f64,
    /// Seconds at the head of the span spent waiting in a queue before
    /// service began (admission wait, ingress-queue wait, hedge delay).
    pub queue_wait: f64,
    /// Why this span exists / ran long.
    pub causes: CauseSet,
}

impl CausalSpan {
    /// A span over `[start, end]`; `end` is clamped to `start` and
    /// `queue_wait` to the span duration so intervals stay well-formed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        trace: u64,
        parent: Option<u64>,
        name: &str,
        node: Option<u32>,
        start: f64,
        end: f64,
        queue_wait: f64,
        causes: CauseSet,
    ) -> CausalSpan {
        let end = end.max(start);
        CausalSpan {
            trace,
            id: 0,
            parent,
            name: name.to_string(),
            node,
            start,
            end,
            queue_wait: queue_wait.clamp(0.0, end - start),
            causes,
        }
    }

    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records [`CausalSpan`]s against a [`Clock`] into a bounded
/// [`FlightRecorder`], assigning deterministic ids.
///
/// Span ids are `splitmix64(trace ⊕ splitmix64(ordinal))` where the
/// ordinal counts spans emitted for that trace. A single-threaded
/// recorder (the DES) therefore assigns bit-identical ids across seeded
/// replays; the threaded runtime keeps ids unique but their assignment
/// order follows the actual interleaving, which is exactly what the
/// trace should show.
pub struct TraceRecorder {
    clock: Arc<dyn Clock>,
    seed: u64,
    ring: FlightRecorder<CausalSpan>,
    dropped: Counter,
    ordinals: Mutex<BTreeMap<u64, u64>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl TraceRecorder {
    /// A recorder over `clock` with a drop-oldest ring of `capacity`
    /// spans; evictions count into `dropped` (bind it to
    /// [`crate::names::TRACE_DROPPED_TOTAL`] so `dqa report` can warn).
    pub fn new(
        clock: Arc<dyn Clock>,
        seed: u64,
        capacity: usize,
        dropped: Counter,
    ) -> TraceRecorder {
        TraceRecorder {
            clock,
            seed,
            ring: FlightRecorder::new(capacity),
            dropped,
            ordinals: Mutex::new(BTreeMap::new()),
        }
    }

    /// Current `Clock` time — the only sanctioned timestamp source for
    /// spans recorded here.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// The trace id for `question` under this recorder's seed.
    pub fn trace_id(&self, question: u64) -> u64 {
        derive_trace_id(question, self.seed)
    }

    /// The next span id in `trace`'s deterministic ordinal chain.
    pub fn next_id(&self, trace: u64) -> u64 {
        let mut ordinals = self.ordinals.lock();
        let ordinal = ordinals.entry(trace).or_insert(0);
        *ordinal += 1;
        derive_span_id(trace, *ordinal)
    }

    /// Assign `span` an id from its trace's chain, record it, and return
    /// the id (for parenting children). Ring overflow bumps the dropped
    /// counter — loss is counted, never silent.
    pub fn emit(&self, mut span: CausalSpan) -> u64 {
        span.id = self.next_id(span.trace);
        let id = span.id;
        if self.ring.push(span) {
            self.dropped.inc();
        }
        id
    }

    /// Every retained span, oldest first.
    pub fn spans(&self) -> Vec<CausalSpan> {
        self.ring.snapshot()
    }

    /// Retained spans of one trace, oldest first.
    pub fn for_trace(&self, trace: u64) -> Vec<CausalSpan> {
        self.ring.filtered(|s| s.trace == trace)
    }

    /// Spans evicted by the bounded ring since construction.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

/// Checks that `spans` form well-nested per-trace trees: exactly one
/// root per trace, no orphan parent ids, no duplicate span ids, and
/// every child interval contained in its parent's (within `1 µs` of f64
/// slack for times measured through a wall clock).
pub fn validate_nesting(spans: &[CausalSpan]) -> Result<(), String> {
    const SLACK: f64 = 1e-6;
    let mut by_id: BTreeMap<(u64, u64), &CausalSpan> = BTreeMap::new();
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    for s in spans {
        if s.end < s.start {
            return Err(format!("span {:016x} ends before it starts", s.id));
        }
        if by_id.insert((s.trace, s.id), s).is_some() {
            return Err(format!(
                "duplicate span id {:016x} in trace {:016x}",
                s.id, s.trace
            ));
        }
        if s.parent.is_none() {
            *roots.entry(s.trace).or_insert(0) += 1;
        }
    }
    for (trace, n) in &roots {
        if *n != 1 {
            return Err(format!("trace {trace:016x} has {n} roots, want exactly 1"));
        }
    }
    for s in spans {
        let Some(pid) = s.parent else {
            continue;
        };
        let Some(parent) = by_id.get(&(s.trace, pid)) else {
            return Err(format!(
                "span {:016x} in trace {:016x} has orphan parent {:016x}",
                s.id, s.trace, pid
            ));
        };
        if !roots.contains_key(&s.trace) {
            return Err(format!("trace {:016x} has children but no root", s.trace));
        }
        if s.start + SLACK < parent.start || s.end > parent.end + SLACK {
            return Err(format!(
                "span {:016x} [{:.6}, {:.6}] escapes parent {:016x} [{:.6}, {:.6}]",
                s.id, s.start, s.end, pid, parent.start, parent.end
            ));
        }
    }
    Ok(())
}

/// Critical-path seconds attributed to one component name, split into
/// queue wait vs. service time.
#[derive(Debug, Clone, PartialEq)]
pub struct PathComponent {
    /// The span name the seconds belong to.
    pub name: String,
    /// Seconds the path spent queue-waiting in this component.
    pub queue: f64,
    /// Seconds the path spent in service in this component.
    pub service: f64,
}

impl PathComponent {
    /// Queue plus service seconds.
    pub fn total(&self) -> f64 {
        self.queue + self.service
    }
}

/// The critical-path decomposition of one finished question: which
/// components the end-to-end latency was spent in.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The trace this path was extracted from.
    pub trace: u64,
    /// Root span start.
    pub start: f64,
    /// Root span end.
    pub end: f64,
    /// Components ordered by total seconds, largest first.
    pub components: Vec<PathComponent>,
}

impl CriticalPath {
    /// Measured end-to-end seconds (root span duration).
    pub fn total(&self) -> f64 {
        self.end - self.start
    }

    /// Sum of attributed component seconds. The backward walk partitions
    /// the root interval, so this equals [`CriticalPath::total`] up to
    /// f64 addition error — the `soak trace` invariant.
    pub fn attributed(&self) -> f64 {
        self.components.iter().map(PathComponent::total).sum()
    }

    /// Seconds attributed to queue wait across the path.
    pub fn queue_total(&self) -> f64 {
        self.components.iter().map(|c| c.queue).sum()
    }

    /// Seconds attributed to `name` (0.0 when absent from the path).
    pub fn seconds_for(&self, name: &str) -> f64 {
        self.components
            .iter()
            .filter(|c| c.name == name)
            .map(PathComponent::total)
            .sum()
    }

    /// A per-question Table 8/9: component, queue, service, share.
    pub fn render(&self) -> String {
        let total = self.total().max(f64::MIN_POSITIVE);
        let mut out = format!(
            "critical path · trace {:016x} · end-to-end {:.6}s\n{:<12} {:>12} {:>12} {:>7}\n",
            self.trace,
            self.total(),
            "component",
            "queue-s",
            "service-s",
            "share"
        );
        for c in &self.components {
            let _ = writeln!(
                out,
                "{:<12} {:>12.6} {:>12.6} {:>6.1}%",
                c.name,
                c.queue,
                c.service,
                100.0 * c.total() / total
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>12.6} {:>12.6} {:>6.1}%",
            "attributed",
            self.queue_total(),
            self.attributed() - self.queue_total(),
            100.0 * self.attributed() / total
        );
        out
    }
}

/// Extracts the critical path from one trace's spans (pass the output of
/// [`TraceRecorder::for_trace`]). Returns `None` when no root span is
/// present. Spans from other traces are ignored.
pub fn critical_path(spans: &[CausalSpan]) -> Option<CriticalPath> {
    let root = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .max_by(|a, b| a.duration().total_cmp(&b.duration()))?;
    let mut children: BTreeMap<u64, Vec<&CausalSpan>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.trace == root.trace) {
        if let Some(pid) = s.parent {
            children.entry(pid).or_default().push(s);
        }
    }
    let mut acc: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    walk_backward(root, root.start, root.end, &children, &mut acc);
    let mut components: Vec<PathComponent> = acc
        .into_iter()
        .map(|(name, (queue, service))| PathComponent {
            name,
            queue,
            service,
        })
        .collect();
    components.sort_by(|a, b| b.total().total_cmp(&a.total()).then(a.name.cmp(&b.name)));
    Some(CriticalPath {
        trace: root.trace,
        start: root.start,
        end: root.end,
        components,
    })
}

/// The backward walk: from `hi` toward `lo`, the latest-ending child
/// inside the window gates completion; gaps between gating children are
/// the parent's own time. Each call attributes exactly `hi - lo`
/// seconds, so the decomposition partitions the root interval.
fn walk_backward(
    span: &CausalSpan,
    lo: f64,
    hi: f64,
    children: &BTreeMap<u64, Vec<&CausalSpan>>,
    acc: &mut BTreeMap<String, (f64, f64)>,
) {
    let mut cursor = hi;
    let mut kids: Vec<&CausalSpan> = children.get(&span.id).cloned().unwrap_or_default();
    kids.sort_by(|a, b| {
        b.end
            .total_cmp(&a.end)
            .then(b.start.total_cmp(&a.start))
            .then(b.id.cmp(&a.id))
    });
    for child in kids {
        if cursor <= lo {
            break;
        }
        let c_end = child.end.min(cursor);
        let c_start = child.start.clamp(lo, c_end);
        if c_end <= c_start {
            continue; // fully overlapped by a later-ending sibling
        }
        if cursor > c_end {
            attribute_self(span, c_end, cursor, acc);
        }
        walk_backward(child, c_start, c_end, children, acc);
        cursor = c_start;
    }
    if cursor > lo {
        attribute_self(span, lo, cursor, acc);
    }
}

/// Attributes the self-time interval `[a, b]` of `span`, splitting it at
/// `start + queue_wait` into queue vs. service seconds.
fn attribute_self(span: &CausalSpan, a: f64, b: f64, acc: &mut BTreeMap<String, (f64, f64)>) {
    let queue_end = span.start + span.queue_wait;
    let queue = (b.min(queue_end) - a.max(span.start)).max(0.0);
    let entry = acc.entry(span.name.clone()).or_insert((0.0, 0.0));
    entry.0 += queue;
    entry.1 += (b - a) - queue;
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes `spans` as chrome-tracing JSON loadable by Perfetto
/// (`ph: "X"` complete events, `ts`/`dur` in microseconds).
///
/// The output is deterministic: spans sort by `(trace, start, id)`,
/// traces map to `pid`s in first-appearance order, and floats print in
/// Rust's shortest-roundtrip form — so two seeded DES runs serialize to
/// byte-identical files.
pub fn to_chrome_json(spans: &[CausalSpan]) -> String {
    let mut sorted: Vec<&CausalSpan> = spans.iter().collect();
    sorted.sort_by(|a, b| {
        a.trace
            .cmp(&b.trace)
            .then(a.start.total_cmp(&b.start))
            .then(a.id.cmp(&b.id))
    });
    let mut pids: BTreeMap<u64, usize> = BTreeMap::new();
    for s in &sorted {
        let next = pids.len() + 1;
        pids.entry(s.trace).or_insert(next);
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = match s.parent {
            Some(p) => format!("{p:016x}"),
            None => String::new(),
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{}\",\"queue_wait_us\":{}}}}}",
            json_escape(&s.name),
            if s.causes.is_empty() { "span".to_string() } else { s.causes.render() },
            pids.get(&s.trace).copied().unwrap_or(0),
            s.node.map_or(0, |n| n + 1),
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.trace,
            s.id,
            parent,
            s.queue_wait * 1e6,
        );
    }
    out.push_str("]}\n");
    out
}

/// Validates that `json` is chrome-tracing shaped: a `traceEvents`
/// array of objects each carrying `name`/`ph`/`pid`/`tid`/`ts`/`dur`.
/// Returns the event count — the CI `cli-smoke` check.
pub fn validate_chrome_json(json: &str) -> Result<usize, String> {
    let doc: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "ph", "pid", "tid", "ts", "dur"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} missing {key}"));
            }
        }
        if ev.get("ph").and_then(|v| v.as_str()) != Some("X") {
            return Err(format!("event {i} is not a complete (ph=X) event"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    fn recorder(seed: u64, capacity: usize) -> TraceRecorder {
        TraceRecorder::new(
            Arc::new(ManualClock::new()),
            seed,
            capacity,
            Counter::live(),
        )
    }

    /// A small federated-looking tree:
    /// question [0,10] qw=1 ── shard0 [1,6] ── chunk [2,5]
    ///                     └─ shard1 [1,9] qw=0.5 ── hedge [4,9]
    ///                     └─ merge [9,10]
    fn sample_tree(rec: &TraceRecorder) -> u64 {
        let trace = rec.trace_id(7);
        let root = rec.emit(CausalSpan::new(
            trace,
            None,
            "question",
            None,
            0.0,
            10.0,
            1.0,
            CauseSet::none(),
        ));
        let s0 = rec.emit(CausalSpan::new(
            trace,
            Some(root),
            "shard",
            Some(0),
            1.0,
            6.0,
            0.0,
            CauseSet::none(),
        ));
        rec.emit(CausalSpan::new(
            trace,
            Some(s0),
            "chunk",
            Some(0),
            2.0,
            5.0,
            0.0,
            CauseSet::none(),
        ));
        let s1 = rec.emit(CausalSpan::new(
            trace,
            Some(root),
            "shard",
            Some(1),
            1.0,
            9.0,
            0.5,
            CauseSet::none(),
        ));
        rec.emit(CausalSpan::new(
            trace,
            Some(s1),
            "hedge",
            Some(1),
            4.0,
            9.0,
            0.0,
            CauseSet::HEDGED,
        ));
        rec.emit(CausalSpan::new(
            trace,
            Some(root),
            "merge",
            None,
            9.0,
            10.0,
            0.0,
            CauseSet::none(),
        ));
        trace
    }

    #[test]
    fn trace_ids_are_deterministic_and_seed_separated() {
        assert_eq!(derive_trace_id(7, 42), derive_trace_id(7, 42));
        assert_ne!(derive_trace_id(7, 42), derive_trace_id(7, 43));
        assert_ne!(derive_trace_id(7, 42), derive_trace_id(8, 42));
    }

    #[test]
    fn span_ids_chain_deterministically_per_trace() {
        let a = recorder(42, 64);
        let b = recorder(42, 64);
        let t = a.trace_id(1);
        assert_eq!(a.next_id(t), b.next_id(t));
        assert_eq!(a.next_id(t), b.next_id(t));
        assert_ne!(a.next_id(t), a.next_id(t));
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let rec = recorder(1, 2);
        let t = rec.trace_id(0);
        for _ in 0..5 {
            rec.emit(CausalSpan::new(
                t,
                None,
                "x",
                None,
                0.0,
                1.0,
                0.0,
                CauseSet::none(),
            ));
        }
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn nesting_validator_accepts_sample_and_rejects_orphans() {
        let rec = recorder(42, 64);
        sample_tree(&rec);
        let mut spans = rec.spans();
        validate_nesting(&spans).expect("sample tree is well-nested");
        spans[2].parent = Some(0xdead_beef);
        assert!(validate_nesting(&spans).unwrap_err().contains("orphan"));
    }

    #[test]
    fn nesting_validator_rejects_escaping_child() {
        let rec = recorder(42, 64);
        let t = rec.trace_id(1);
        let root = rec.emit(CausalSpan::new(
            t,
            None,
            "q",
            None,
            0.0,
            1.0,
            0.0,
            CauseSet::none(),
        ));
        rec.emit(CausalSpan::new(
            t,
            Some(root),
            "c",
            None,
            0.5,
            2.0,
            0.0,
            CauseSet::none(),
        ));
        assert!(validate_nesting(&rec.spans())
            .unwrap_err()
            .contains("escapes"));
    }

    #[test]
    fn critical_path_partitions_end_to_end_exactly() {
        let rec = recorder(42, 64);
        let trace = sample_tree(&rec);
        let spans = rec.for_trace(trace);
        let path = critical_path(&spans).expect("root present");
        assert_eq!(path.total(), 10.0);
        // merge gates [9,10]; shard1 gates [1,9] (hedge [4,9] inside it);
        // question self-time is [0,1], all queue wait.
        assert!((path.attributed() - path.total()).abs() < 1e-9);
        assert_eq!(path.seconds_for("merge"), 1.0);
        assert_eq!(path.seconds_for("hedge"), 5.0);
        assert_eq!(path.seconds_for("shard"), 3.0);
        assert_eq!(path.seconds_for("question"), 1.0);
        assert_eq!(path.queue_total(), 1.5); // question qw 1.0 + shard1 qw 0.5
                                             // chunk/shard0 are off the path entirely.
        assert_eq!(path.seconds_for("chunk"), 0.0);
        let table = path.render();
        assert!(table.contains("critical path"));
        assert!(table.contains("attributed"));
    }

    #[test]
    fn queue_service_split_respects_queue_head() {
        let rec = recorder(1, 16);
        let t = rec.trace_id(2);
        rec.emit(CausalSpan::new(
            t,
            None,
            "q",
            None,
            0.0,
            4.0,
            3.0,
            CauseSet::none(),
        ));
        let path = critical_path(&rec.spans()).expect("root");
        assert_eq!(path.queue_total(), 3.0);
        assert_eq!(path.attributed() - path.queue_total(), 1.0);
    }

    #[test]
    fn chrome_export_is_valid_and_byte_stable() {
        let make = || {
            let rec = recorder(42, 64);
            sample_tree(&rec);
            to_chrome_json(&rec.spans())
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "seeded double emission must serialize identically");
        let n = validate_chrome_json(&a).expect("perfetto-loadable");
        assert_eq!(n, 6);
        assert!(a.contains("\"cat\":\"hedged\""));
        assert!(a.contains("\"queue_wait_us\":1000000"));
    }

    #[test]
    fn chrome_validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(validate_chrome_json("not json").is_err());
    }

    #[test]
    fn cause_sets_compose_and_render_in_fixed_order() {
        let c = CauseSet::HEDGED
            .with(CauseSet::DEGRADED)
            .with(CauseSet::RETRIED);
        assert!(c.contains(CauseSet::HEDGED));
        assert!(!c.contains(CauseSet::THROTTLED));
        assert_eq!(c.render(), "hedged,retried,degraded");
        assert_eq!(CauseSet::none().render(), "");
    }
}
