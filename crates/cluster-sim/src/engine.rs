//! The processor-sharing event engine.
//!
//! Tasks are sequences of *stages*; each stage demands one resource:
//!
//! * `Cpu(node)` / `Disk(node)` — demand in seconds of dedicated service;
//!   when `k` stages share a server each progresses at `mult/k` (processor
//!   sharing, the behaviour of a time-sliced OS and of a disk serving
//!   interleaved requests);
//! * `Net` — demand in bytes on the shared star-Ethernet segment of
//!   capacity `B_net` bytes/s, fair-shared across active transfers.
//!
//! There is no future-event list for stage completions: rates change
//! whenever the active set changes, so the engine recomputes the next
//! completion after every event — the standard approach for PS queues.
//! Iteration order over tasks is a `BTreeMap`, so runs are deterministic.

use qa_types::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// Task identifier.
pub type TaskId = u64;

/// Which resource a stage occupies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageKind {
    /// A node's CPU; demand in seconds.
    Cpu(NodeId),
    /// A node's disk; demand in seconds.
    Disk(NodeId),
    /// The shared network; demand in bytes.
    Net,
    /// One node's full-duplex link on a *switched* network; demand in
    /// bytes. Transfers on different nodes' links do not contend.
    NetLink(NodeId),
    /// A pure time delay in seconds: occupies no resource and never
    /// contends. Used by fault injection to model retransmission timeouts
    /// after a dropped message and link-level delivery delays.
    Delay,
}

/// One stage of a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Resource occupied.
    pub kind: StageKind,
    /// Remaining demand (seconds for CPU/disk, bytes for the network).
    pub remaining: f64,
}

impl Stage {
    /// CPU stage.
    pub fn cpu(node: NodeId, secs: f64) -> Stage {
        Stage {
            kind: StageKind::Cpu(node),
            remaining: secs.max(0.0),
        }
    }

    /// Disk stage.
    pub fn disk(node: NodeId, secs: f64) -> Stage {
        Stage {
            kind: StageKind::Disk(node),
            remaining: secs.max(0.0),
        }
    }

    /// Network transfer stage (shared segment).
    pub fn net(bytes: f64) -> Stage {
        Stage {
            kind: StageKind::Net,
            remaining: bytes.max(0.0),
        }
    }

    /// Network transfer stage on one node's switched link.
    pub fn net_link(node: NodeId, bytes: f64) -> Stage {
        Stage {
            kind: StageKind::NetLink(node),
            remaining: bytes.max(0.0),
        }
    }

    /// Pure delay stage (fault injection: retransmission timeouts,
    /// delayed deliveries).
    pub fn delay(secs: f64) -> Stage {
        Stage {
            kind: StageKind::Delay,
            remaining: secs.max(0.0),
        }
    }
}

#[derive(Debug, Clone)]
struct Task<T> {
    stages: VecDeque<Stage>,
    tag: T,
}

/// Result of [`Engine::advance`].
#[derive(Debug, Clone, PartialEq)]
pub enum Advance<T> {
    /// A task ran out of stages at `at`.
    TaskDone {
        /// The finished task.
        id: TaskId,
        /// Its tag, returned to the controller.
        tag: T,
        /// Virtual completion time.
        at: f64,
    },
    /// The requested time limit was reached with tasks still running (or
    /// none running).
    ReachedTime(f64),
    /// No active tasks and no time limit: the simulation is idle.
    Idle,
}

/// The simulation engine.
///
/// # Examples
/// ```
/// use cluster_sim::engine::{Advance, Engine, Stage};
/// use qa_types::NodeId;
///
/// let mut engine: Engine<&str> = Engine::new(1, 1e6);
/// engine.spawn(vec![Stage::disk(NodeId::new(0), 1.0), Stage::cpu(NodeId::new(0), 2.0)], "job");
/// match engine.advance(None) {
///     Advance::TaskDone { tag, at, .. } => {
///         assert_eq!(tag, "job");
///         assert!((at - 3.0).abs() < 1e-9);
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Engine<T> {
    now: f64,
    tasks: BTreeMap<TaskId, Task<T>>,
    next_id: TaskId,
    cpu_mult: Vec<f64>,
    disk_mult: Vec<f64>,
    net_capacity: f64,
}

impl<T> Engine<T> {
    /// An engine with `nodes` nodes and a shared network of
    /// `net_capacity` bytes/s.
    pub fn new(nodes: usize, net_capacity: f64) -> Self {
        Self {
            now: 0.0,
            tasks: BTreeMap::new(),
            next_id: 0,
            cpu_mult: vec![1.0; nodes],
            disk_mult: vec![1.0; nodes],
            net_capacity: net_capacity.max(1e-9),
        }
    }

    /// Current virtual time (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of live tasks.
    pub fn active_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Set a node's CPU speed multiplier (thrashing model: < 1 when memory
    /// is over-committed).
    pub fn set_cpu_mult(&mut self, node: NodeId, mult: f64) {
        self.cpu_mult[node.index()] = mult.clamp(1e-6, f64::MAX);
    }

    /// Set a node's disk speed multiplier.
    pub fn set_disk_mult(&mut self, node: NodeId, mult: f64) {
        self.disk_mult[node.index()] = mult.clamp(1e-6, f64::MAX);
    }

    /// Spawn a task. Zero-demand stages are allowed (they complete at the
    /// next `advance`). A task with no stages completes immediately on the
    /// next `advance` call.
    pub fn spawn(&mut self, stages: Vec<Stage>, tag: T) -> TaskId {
        let id = self.next_id;
        self.next_id += 1;
        self.tasks.insert(
            id,
            Task {
                stages: stages.into(),
                tag,
            },
        );
        id
    }

    /// Advance virtual time until a task completes or `until` is reached.
    pub fn advance(&mut self, until: Option<f64>) -> Advance<T> {
        loop {
            if self.tasks.is_empty() {
                return match until {
                    Some(t) => {
                        self.now = self.now.max(t);
                        Advance::ReachedTime(self.now)
                    }
                    None => Advance::Idle,
                };
            }

            // Immediate completion: a task whose stage queue is empty or
            // whose head stage has zero demand.
            let mut zero_done: Option<TaskId> = None;
            for (&id, task) in &self.tasks {
                match task.stages.front() {
                    None => {
                        zero_done = Some(id);
                        break;
                    }
                    Some(s) if s.remaining <= 0.0 => {
                        zero_done = Some(id);
                        break;
                    }
                    _ => {}
                }
            }
            if let Some(id) = zero_done {
                let task = self.tasks.get_mut(&id).expect("present");
                if task
                    .stages
                    .front()
                    .map(|s| s.remaining <= 0.0)
                    .unwrap_or(false)
                {
                    task.stages.pop_front();
                }
                if task.stages.is_empty() {
                    let task = self.tasks.remove(&id).expect("present");
                    return Advance::TaskDone {
                        id,
                        tag: task.tag,
                        at: self.now,
                    };
                }
                continue; // head stage consumed; recompute rates
            }

            // Count sharers per resource.
            let mut cpu_count = vec![0usize; self.cpu_mult.len()];
            let mut disk_count = vec![0usize; self.disk_mult.len()];
            let mut link_count = vec![0usize; self.cpu_mult.len()];
            let mut net_count = 0usize;
            for task in self.tasks.values() {
                match task.stages.front().expect("nonempty").kind {
                    StageKind::Cpu(n) => cpu_count[n.index()] += 1,
                    StageKind::Disk(n) => disk_count[n.index()] += 1,
                    StageKind::NetLink(n) => link_count[n.index()] += 1,
                    StageKind::Net => net_count += 1,
                    StageKind::Delay => {}
                }
            }

            let rate = |kind: StageKind| -> f64 {
                match kind {
                    StageKind::Cpu(n) => self.cpu_mult[n.index()] / cpu_count[n.index()] as f64,
                    StageKind::Disk(n) => self.disk_mult[n.index()] / disk_count[n.index()] as f64,
                    StageKind::NetLink(n) => self.net_capacity / link_count[n.index()] as f64,
                    StageKind::Net => self.net_capacity / net_count as f64,
                    StageKind::Delay => 1.0,
                }
            };

            // Next stage completion.
            let mut best: Option<(f64, TaskId)> = None;
            for (&id, task) in &self.tasks {
                let s = task.stages.front().expect("nonempty");
                let dt = s.remaining / rate(s.kind);
                match best {
                    Some((bdt, _)) if bdt <= dt => {}
                    _ => best = Some((dt, id)),
                }
            }
            let (dt, winner) = best.expect("tasks nonempty");

            // Clip to the external time limit.
            if let Some(limit) = until {
                let room = limit - self.now;
                if room < dt {
                    let room = room.max(0.0);
                    for task in self.tasks.values_mut() {
                        let s = task.stages.front_mut().expect("nonempty");
                        let r = rate(s.kind);
                        s.remaining = (s.remaining - r * room).max(0.0);
                    }
                    // Work progressed up to the limit, but re-check for any
                    // stage that hit exactly zero on the next call.
                    self.now = limit;
                    return Advance::ReachedTime(self.now);
                }
            }

            // Advance everyone by dt; pop the winner's stage.
            for task in self.tasks.values_mut() {
                let s = task.stages.front_mut().expect("nonempty");
                let r = rate(s.kind);
                s.remaining = (s.remaining - r * dt).max(0.0);
            }
            self.now += dt;
            let task = self.tasks.get_mut(&winner).expect("present");
            task.stages.pop_front();
            if task.stages.is_empty() {
                let task = self.tasks.remove(&winner).expect("present");
                return Advance::TaskDone {
                    id: winner,
                    tag: task.tag,
                    at: self.now,
                };
            }
            // Winner has more stages: loop (rates changed).
        }
    }

    /// Kill every task whose tag matches `pred` (node-failure injection);
    /// returns the killed tags in id order.
    pub fn kill_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let ids: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|(_, t)| pred(&t.tag))
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.tasks.remove(&id).map(|t| t.tag))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn run_all<T: Clone>(e: &mut Engine<T>) -> Vec<(f64, T)> {
        let mut out = Vec::new();
        loop {
            match e.advance(None) {
                Advance::TaskDone { tag, at, .. } => out.push((at, tag)),
                Advance::Idle => return out,
                Advance::ReachedTime(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn single_task_runs_at_full_rate() {
        let mut e = Engine::new(1, 1e6);
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "a");
        let done = run_all(&mut e);
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn two_cpu_tasks_share_the_processor() {
        let mut e = Engine::new(1, 1e6);
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "a");
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "b");
        let done = run_all(&mut e);
        // Both finish at t = 10 (each at rate 1/2).
        assert!((done[0].0 - 10.0).abs() < 1e-9);
        assert!((done[1].0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_and_disk_overlap() {
        // A CPU-bound and a disk-bound task on the same node do not contend:
        // both finish at t = 5, which is the §4.2 overlap effect.
        let mut e = Engine::new(1, 1e6);
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "cpu");
        e.spawn(vec![Stage::disk(n(0), 5.0)], "disk");
        let done = run_all(&mut e);
        assert!((done[0].0 - 5.0).abs() < 1e-9);
        assert!((done[1].0 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn different_nodes_do_not_contend() {
        let mut e = Engine::new(2, 1e6);
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "a");
        e.spawn(vec![Stage::cpu(n(1), 5.0)], "b");
        let done = run_all(&mut e);
        assert!((done[0].0 - 5.0).abs() < 1e-9);
        assert!((done[1].0 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn shorter_task_finishes_first_and_frees_capacity() {
        let mut e = Engine::new(1, 1e6);
        e.spawn(vec![Stage::cpu(n(0), 2.0)], "short");
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "long");
        let done = run_all(&mut e);
        assert_eq!(done[0].1, "short");
        assert!((done[0].0 - 4.0).abs() < 1e-9, "2s at rate 1/2");
        // Long task: 5 - 2 = 3 remaining at t=4, then full rate → t=7.
        assert!((done[1].0 - 7.0).abs() < 1e-9, "{}", done[1].0);
    }

    #[test]
    fn switched_links_do_not_contend_across_nodes() {
        let mut e = Engine::new(2, 100.0);
        e.spawn(vec![Stage::net_link(n(0), 100.0)], "a");
        e.spawn(vec![Stage::net_link(n(1), 100.0)], "b");
        let done = run_all(&mut e);
        // Each link runs at full speed: both at t = 1 (shared Net: t = 2).
        assert!((done[0].0 - 1.0).abs() < 1e-9);
        assert!((done[1].0 - 1.0).abs() < 1e-9);
        // Same link does contend.
        let mut e = Engine::new(1, 100.0);
        e.spawn(vec![Stage::net_link(n(0), 100.0)], "a");
        e.spawn(vec![Stage::net_link(n(0), 100.0)], "b");
        let done = run_all(&mut e);
        assert!((done[1].0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn network_is_shared_in_bytes() {
        let mut e = Engine::new(1, 100.0); // 100 bytes/s
        e.spawn(vec![Stage::net(100.0)], "x");
        e.spawn(vec![Stage::net(100.0)], "y");
        let done = run_all(&mut e);
        assert!((done[0].0 - 2.0).abs() < 1e-9);
        assert!((done[1].0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn multi_stage_task_transitions() {
        let mut e = Engine::new(1, 10.0);
        e.spawn(
            vec![
                Stage::disk(n(0), 1.0),
                Stage::cpu(n(0), 2.0),
                Stage::net(10.0),
            ],
            "pipeline",
        );
        let done = run_all(&mut e);
        assert!((done[0].0 - 4.0).abs() < 1e-9, "1 + 2 + 1 = {}", done[0].0);
    }

    #[test]
    fn cpu_multiplier_slows_a_node() {
        let mut e = Engine::new(1, 1e6);
        e.set_cpu_mult(n(0), 0.5);
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "slow");
        let done = run_all(&mut e);
        assert!((done[0].0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn advance_until_pauses_midway() {
        let mut e = Engine::new(1, 1e6);
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "a");
        match e.advance(Some(2.0)) {
            Advance::ReachedTime(t) => assert!((t - 2.0).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        // Remaining 3 s completes at t = 5.
        match e.advance(None) {
            Advance::TaskDone { at, .. } => assert!((at - 5.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_engine_reports_idle_or_jumps_to_time() {
        let mut e: Engine<&str> = Engine::new(1, 1e6);
        assert_eq!(e.advance(None), Advance::Idle);
        assert_eq!(e.advance(Some(7.0)), Advance::ReachedTime(7.0));
        assert_eq!(e.now(), 7.0);
    }

    #[test]
    fn empty_and_zero_stage_tasks_complete_immediately() {
        let mut e = Engine::new(1, 1e6);
        e.spawn(Vec::new(), "empty");
        e.spawn(vec![Stage::cpu(n(0), 0.0)], "zero");
        let done = run_all(&mut e);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|(t, _)| *t == 0.0));
    }

    #[test]
    fn delay_stage_is_pure_time_and_never_contends() {
        let mut e = Engine::new(1, 1e6);
        e.spawn(vec![Stage::delay(3.0)], "a");
        e.spawn(vec![Stage::delay(3.0)], "b");
        e.spawn(vec![Stage::delay(1.0), Stage::cpu(n(0), 1.0)], "c");
        let done = run_all(&mut e);
        // Delays do not share capacity: a and b both end at 3.0; c's delay
        // ends at 1.0 and its CPU stage (uncontended) at 2.0.
        assert_eq!(done[0].1, "c");
        assert!((done[0].0 - 2.0).abs() < 1e-9);
        assert!((done[1].0 - 3.0).abs() < 1e-9);
        assert!((done[2].0 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn kill_removes_a_task() {
        let mut e = Engine::new(1, 1e6);
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "a");
        e.spawn(vec![Stage::cpu(n(0), 5.0)], "b");
        assert_eq!(e.kill_where(|t| *t == "a"), ["a"]);
        assert!(e.kill_where(|t| *t == "a").is_empty());
        let done = run_all(&mut e);
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 5.0).abs() < 1e-9, "b at full rate");
    }

    #[test]
    fn deterministic_tie_break() {
        // Two identical tasks: completion order must be stable (by id).
        for _ in 0..5 {
            let mut e = Engine::new(1, 1e6);
            e.spawn(vec![Stage::cpu(n(0), 1.0)], 0u32);
            e.spawn(vec![Stage::cpu(n(0), 1.0)], 1u32);
            let done = run_all(&mut e);
            assert_eq!(done[0].1, 0);
            assert_eq!(done[1].1, 1);
        }
    }
}
