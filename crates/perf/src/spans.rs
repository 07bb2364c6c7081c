//! The harness's own span recorder. Spans are taken from outside, around
//! calls into each layer's public functions — deliberately not with
//! `dqa-obs`, so the system under test does not measure itself. Kept in
//! memory; written out once when the run ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

/// One timed interval. Spans of one question share `question`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub question: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, question: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            question,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        question: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, question);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose interval was measured elsewhere (a phase time
    /// reported by the runtime), laid out from `start_ns`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        question: u32,
        start_ns: u64,
        duration_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            question,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn merge(&mut self, other: Recorder) {
        let offset = self.spans.len();
        // Align the other recorder's clock with this one's.
        let shift = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children.entry(p).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut intervals = children.remove(&id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            question: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("question", 0, 100, None), // 0
            span("qp", 5, 15, Some(0)),     // 1
            span("pr", 20, 70, Some(0)),    // 2
            span("shard", 25, 45, Some(2)), // 3
            span("shard", 40, 60, Some(2)), // 4: overlaps span 3 by 5
            span("ap", 70, 95, Some(0)),    // 5
            span("late", 90, 130, Some(0)), // 6: clipped to the parent at 100, overlaps ap
            span("quorum", 200, 230, None), // 7: beside the tree
        ];
        let own = self_times_ns(&spans);
        // question: 100 - (10 + 50 + 25 + 5 beyond ap) = 10
        assert_eq!(own[0], 10);
        assert_eq!(own[1], 10);
        // pr: 50 - union([25,45],[40,60]) = 50 - 35
        assert_eq!(own[2], 15);
        assert_eq!((own[3], own[4], own[5]), (20, 20, 25));
        assert_eq!(own[6], 40);
        assert_eq!(own[7], 30);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let mut a = Recorder::new();
        let root = a.begin("question", None, 7);
        let inner = a.time("qp", Some(root), 7, || 42);
        a.end(root);
        assert_eq!(inner, 42);
        let mut b = Recorder::new();
        let r = b.begin("question", None, 8);
        b.record("pr", Some(r), 8, 10, 5);
        b.end(r);
        a.merge(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[3].duration_ns(), 5);
    }
}
