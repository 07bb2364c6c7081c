//! Failure-recovery state machine for chunked distribution.
//!
//! Backend-agnostic: the thread runtime (`dqa-runtime`) and the
//! discrete-event simulator (`cluster-sim`) both drive it, reporting chunk
//! completions and node failures; the state machine answers "what still
//! needs to run".

use qa_types::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What [`ChunkQueue::complete_keyed`] decided about a reported result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// First result for this chunk: count it.
    Fresh,
    /// A speculative or duplicated copy already completed: discard it.
    Duplicate,
    /// The chunk id was never issued by this queue: protocol error.
    Unknown,
}

/// Receiver-controlled distribution (Fig. 6b): a shared chunk queue that
/// workers pull from; chunks held by a failed worker go back into the queue.
///
/// `T: Clone` because the queue retains each pulled chunk until the worker
/// confirms completion — that retained copy is what failure recovery
/// restores ("move chunk back to the chunk set").
///
/// Every chunk carries a stable id assigned at construction. Ids make
/// *speculative re-execution* safe: [`ChunkQueue::speculate`] hands a copy
/// of a straggler's chunk to a second worker, and whichever result arrives
/// first wins at [`ChunkQueue::complete_keyed`] — the loser is reported as
/// a [`ChunkOutcome::Duplicate`] and dropped. The same mechanism absorbs
/// link-level message duplication.
#[derive(Debug, Clone)]
pub struct ChunkQueue<T: Clone> {
    available: VecDeque<(u32, Vec<T>)>,
    in_flight: BTreeMap<NodeId, Vec<(u32, Vec<T>)>>,
    done: BTreeSet<u32>,
    total: u32,
}

impl<T: Clone> ChunkQueue<T> {
    /// Build from pre-cut chunks (see
    /// [`partition_recv`](crate::partition::partition_recv)).
    pub fn new(chunks: Vec<Vec<T>>) -> Self {
        let available: VecDeque<_> = chunks
            .into_iter()
            .filter(|c| !c.is_empty())
            .enumerate()
            .map(|(i, c)| (i as u32, c))
            .collect();
        let total = available.len() as u32;
        Self {
            available,
            in_flight: BTreeMap::new(),
            done: BTreeSet::new(),
            total,
        }
    }

    /// A worker pulls the next chunk ("each working processor requests and
    /// processes one chunk at a time according to its local resource
    /// availability").
    pub fn pull(&mut self, worker: NodeId) -> Option<Vec<T>> {
        self.pull_keyed(worker).map(|(_, chunk)| chunk)
    }

    /// Like [`ChunkQueue::pull`] but also returns the chunk id, for callers
    /// that report completions with [`ChunkQueue::complete_keyed`].
    pub fn pull_keyed(&mut self, worker: NodeId) -> Option<(u32, Vec<T>)> {
        let (id, chunk) = self.available.pop_front()?;
        self.in_flight
            .entry(worker)
            .or_default()
            .push((id, chunk.clone()));
        Some((id, chunk))
    }

    /// Worker reports its oldest outstanding chunk done.
    pub fn complete_one(&mut self, worker: NodeId) -> bool {
        let Some(&(id, _)) = self.in_flight.get(&worker).and_then(|l| l.first()) else {
            return false;
        };
        self.complete_keyed(worker, id) == ChunkOutcome::Fresh
    }

    /// A result for chunk `id` arrived from `worker`. First result wins:
    /// any other copies of the chunk — speculative twins on other workers,
    /// a requeued copy in the available queue after the worker was presumed
    /// failed — are retired with it.
    pub fn complete_keyed(&mut self, worker: NodeId, id: u32) -> ChunkOutcome {
        if self.done.contains(&id) {
            self.retire(id);
            return ChunkOutcome::Duplicate;
        }
        let held = self
            .in_flight
            .get(&worker)
            .is_some_and(|l| l.iter().any(|(i, _)| *i == id));
        let queued = self.available.iter().any(|(i, _)| *i == id);
        let twin = self
            .in_flight
            .values()
            .any(|l| l.iter().any(|(i, _)| *i == id));
        if !held && !queued && !twin {
            return ChunkOutcome::Unknown;
        }
        self.done.insert(id);
        self.retire(id);
        ChunkOutcome::Fresh
    }

    /// Remove every copy of chunk `id` from the queue and all workers.
    fn retire(&mut self, id: u32) {
        self.available.retain(|(i, _)| *i != id);
        self.in_flight.retain(|_, l| {
            l.retain(|(i, _)| *i != id);
            !l.is_empty()
        });
    }

    /// Worker failed: every chunk it held returns to the available queue —
    /// unless a speculative twin is still running elsewhere or the chunk
    /// already completed.
    pub fn fail(&mut self, worker: NodeId) -> usize {
        let chunks = self.in_flight.remove(&worker).unwrap_or_default();
        let mut requeued = 0;
        for (id, c) in chunks {
            let twin = self
                .in_flight
                .values()
                .any(|l| l.iter().any(|(i, _)| *i == id));
            let queued = self.available.iter().any(|(i, _)| *i == id);
            if !self.done.contains(&id) && !twin && !queued {
                self.available.push_back((id, c));
                requeued += 1;
            }
        }
        requeued
    }

    /// Clone `from`'s oldest outstanding chunk and issue it to `to` as well
    /// (speculative re-execution of a straggler partition). Returns the
    /// speculated chunk for dispatch, or `None` when `from` holds nothing
    /// or `to` already has a copy of it.
    pub fn speculate(&mut self, from: NodeId, to: NodeId) -> Option<(u32, Vec<T>)> {
        let &(id, ref chunk) = self.in_flight.get(&from)?.first()?;
        let chunk = chunk.clone();
        if from == to
            || self
                .in_flight
                .get(&to)
                .is_some_and(|l| l.iter().any(|(i, _)| *i == id))
        {
            return None;
        }
        self.in_flight
            .entry(to)
            .or_default()
            .push((id, chunk.clone()));
        Some((id, chunk))
    }

    /// Give up on everything not yet completed (graceful degradation once
    /// the retry budget or question deadline is exhausted). Returns the
    /// number of distinct chunks abandoned; afterwards the queue reports
    /// drained and [`ChunkQueue::completed`] < [`ChunkQueue::total`].
    pub fn abandon(&mut self) -> u32 {
        self.available.clear();
        self.in_flight.clear();
        self.total - self.done.len() as u32
    }

    /// Chunks waiting to be pulled.
    pub fn available(&self) -> usize {
        self.available.len()
    }

    /// True when nothing is queued and nothing is in flight.
    pub fn drained(&self) -> bool {
        self.available.is_empty() && self.in_flight.is_empty()
    }

    /// Outstanding chunk count for a worker.
    pub fn outstanding(&self, worker: NodeId) -> usize {
        self.in_flight.get(&worker).map_or(0, Vec::len)
    }

    /// Distinct chunks completed so far.
    pub fn completed(&self) -> u32 {
        self.done.len() as u32
    }

    /// Chunks the queue was built with.
    pub fn total(&self) -> u32 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn chunk_queue_pull_complete_drain() {
        let mut q = ChunkQueue::new(vec![vec![1, 2], vec![3, 4], vec![5]]);
        assert_eq!(q.available(), 3);
        let c1 = q.pull(n(0)).unwrap();
        let c2 = q.pull(n(1)).unwrap();
        assert_eq!(c1, vec![1, 2]);
        assert_eq!(c2, vec![3, 4]);
        assert_eq!(q.outstanding(n(0)), 1);
        assert!(q.complete_one(n(0)));
        assert!(q.complete_one(n(1)));
        let c3 = q.pull(n(0)).unwrap();
        assert_eq!(c3, vec![5]);
        assert!(!q.drained());
        assert!(q.complete_one(n(0)));
        assert!(q.drained());
    }

    #[test]
    fn chunk_queue_failure_requeues_held_chunks() {
        let mut q = ChunkQueue::new(vec![vec![1, 2], vec![3]]);
        let _c = q.pull(n(0)).unwrap();
        let _d = q.pull(n(0)).unwrap();
        assert_eq!(q.outstanding(n(0)), 2);
        assert_eq!(q.fail(n(0)), 2);
        assert_eq!(q.available(), 2);
        // Another worker finishes everything.
        let a = q.pull(n(1)).unwrap();
        let b = q.pull(n(1)).unwrap();
        assert_eq!(a.len() + b.len(), 3);
        q.complete_one(n(1));
        q.complete_one(n(1));
        assert!(q.drained());
    }

    #[test]
    fn chunk_queue_completes_in_fifo_order() {
        let mut q = ChunkQueue::new(vec![vec![1], vec![2]]);
        q.pull(n(0));
        q.pull(n(0));
        assert!(q.complete_one(n(0)));
        assert_eq!(q.outstanding(n(0)), 1);
        // A failure now only requeues the *second* chunk.
        assert_eq!(q.fail(n(0)), 1);
        let back = q.pull(n(1)).unwrap();
        assert_eq!(back, vec![2]);
    }

    #[test]
    fn speculation_first_result_wins_and_twin_is_duplicate() {
        let mut q = ChunkQueue::new(vec![vec![1, 2], vec![3]]);
        let (id, chunk) = q.pull_keyed(n(0)).unwrap();
        assert_eq!((id, chunk), (0, vec![1, 2]));
        // Node 0 straggles; speculate its chunk onto node 1.
        let (sid, schunk) = q.speculate(n(0), n(1)).unwrap();
        assert_eq!((sid, schunk), (0, vec![1, 2]));
        assert_eq!(q.outstanding(n(0)), 1);
        assert_eq!(q.outstanding(n(1)), 1);
        // Re-speculating the same chunk onto the same node is refused.
        assert!(q.speculate(n(0), n(1)).is_none());
        assert!(q.speculate(n(0), n(0)).is_none());
        // The speculative copy finishes first…
        assert_eq!(q.complete_keyed(n(1), sid), ChunkOutcome::Fresh);
        // …and retires the original everywhere.
        assert_eq!(q.outstanding(n(0)), 0);
        // The straggler's late result is a duplicate, not fresh work.
        assert_eq!(q.complete_keyed(n(0), id), ChunkOutcome::Duplicate);
        assert_eq!(q.completed(), 1);
        assert_eq!(q.total(), 2);
    }

    #[test]
    fn failed_worker_with_live_twin_does_not_requeue() {
        let mut q = ChunkQueue::new(vec![vec![1]]);
        q.pull_keyed(n(0)).unwrap();
        q.speculate(n(0), n(1)).unwrap();
        // Node 0 dies; its chunk must NOT go back to the queue because the
        // twin on node 1 is still running.
        assert_eq!(q.fail(n(0)), 0);
        assert_eq!(q.available(), 0);
        assert_eq!(q.complete_keyed(n(1), 0), ChunkOutcome::Fresh);
        assert!(q.drained());
    }

    #[test]
    fn late_result_from_presumed_dead_worker_still_counts() {
        let mut q = ChunkQueue::new(vec![vec![7]]);
        let (id, _) = q.pull_keyed(n(0)).unwrap();
        // Worker is presumed failed; the chunk goes back to the queue…
        assert_eq!(q.fail(n(0)), 1);
        // …but its result then arrives anyway: first result wins, and the
        // requeued copy is retired so nobody re-runs it.
        assert_eq!(q.complete_keyed(n(0), id), ChunkOutcome::Fresh);
        assert_eq!(q.available(), 0);
        assert!(q.drained());
    }

    #[test]
    fn unknown_chunk_ids_are_rejected() {
        let mut q = ChunkQueue::new(vec![vec![1]]);
        assert_eq!(q.complete_keyed(n(0), 99), ChunkOutcome::Unknown);
        let (id, _) = q.pull_keyed(n(0)).unwrap();
        assert_eq!(q.complete_keyed(n(0), id), ChunkOutcome::Fresh);
        // Double-completion of the same id is a duplicate.
        assert_eq!(q.complete_keyed(n(0), id), ChunkOutcome::Duplicate);
    }

    #[test]
    fn abandon_reports_lost_chunks_and_drains() {
        let mut q = ChunkQueue::new(vec![vec![1], vec![2], vec![3]]);
        q.pull_keyed(n(0)).unwrap();
        assert!(q.complete_one(n(0)));
        q.pull_keyed(n(1)).unwrap();
        // One done, one in flight, one queued → abandoning loses two.
        assert_eq!(q.abandon(), 2);
        assert!(q.drained());
        assert_eq!(q.completed(), 1);
        assert_eq!(q.total(), 3);
    }

    #[test]
    fn chunk_queue_empty_edge_cases() {
        let mut q: ChunkQueue<u32> = ChunkQueue::new(vec![]);
        assert!(q.drained());
        assert!(q.pull(n(0)).is_none());
        assert!(!q.complete_one(n(0)));
        assert_eq!(q.fail(n(0)), 0);
        let q2: ChunkQueue<u32> = ChunkQueue::new(vec![vec![]]);
        assert!(q2.drained(), "empty chunks are dropped");
    }
}
