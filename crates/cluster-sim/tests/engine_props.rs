//! Property tests of the processor-sharing engine.

use cluster_sim::engine::{Advance, Engine, Stage, StageKind};
use qa_types::rng::{cases, Rng};
use qa_types::NodeId;

/// A random task = 1–3 stages over 2 nodes + network.
fn task(rng: &mut Rng) -> Vec<Stage> {
    rng.vec(1..=3, |r| {
        let (kind, demand) = (r.below(3), r.uniform(0.0..5.0));
        match kind {
            0 => Stage::cpu(NodeId::new(0), demand),
            1 => Stage::disk(NodeId::new(1), demand),
            _ => Stage::net(demand * 100.0),
        }
    })
}

fn engine_with(tasks: &[Vec<Stage>]) -> Engine<usize> {
    let mut e: Engine<usize> = Engine::new(2, 100.0);
    for (i, stages) in tasks.iter().cloned().enumerate() {
        e.spawn(stages, i);
    }
    e
}

fn run_all(e: &mut Engine<usize>) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    loop {
        match e.advance(None) {
            Advance::TaskDone { tag, at, .. } => out.push((at, tag)),
            Advance::Idle => return out,
            Advance::ReachedTime(_) => unreachable!("no limit given"),
        }
    }
}

#[test]
fn every_task_completes_exactly_once() {
    cases(0xe191_0001, 64, |rng| {
        let tasks = rng.vec(0..=29, task);
        let mut e = engine_with(&tasks);
        let done = run_all(&mut e);
        assert_eq!(done.len(), tasks.len());
        let mut tags: Vec<usize> = done.iter().map(|&(_, t)| t).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..tasks.len()).collect::<Vec<_>>());
        assert_eq!(e.active_tasks(), 0);
    });
}

#[test]
fn completion_times_are_monotone_and_bounded_below() {
    cases(0xe191_0002, 64, |rng| {
        let tasks = rng.vec(1..=19, task);
        let done = run_all(&mut engine_with(&tasks));
        // Event times never go backwards.
        for w in done.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-9);
        }
        // A resource can't finish its total demand faster than serially at
        // full rate: makespan >= max per-resource total demand.
        let mut cpu0 = 0.0f64;
        let mut disk1 = 0.0f64;
        let mut net = 0.0f64;
        for t in &tasks {
            for s in t {
                match s.kind {
                    StageKind::Cpu(_) => cpu0 += s.remaining,
                    StageKind::Disk(_) => disk1 += s.remaining,
                    StageKind::Net | StageKind::NetLink(_) => net += s.remaining / 100.0,
                    StageKind::Delay => unreachable!("`task` makes none"),
                }
            }
        }
        let makespan = done.last().map(|&(t, _)| t).unwrap_or(0.0);
        let bound = cpu0.max(disk1).max(net);
        assert!(
            makespan >= bound - 1e-6,
            "makespan {makespan} < bound {bound}"
        );
    });
}

#[test]
fn advance_with_limit_never_overshoots() {
    cases(0xe191_0003, 64, |rng| {
        let tasks = rng.vec(1..=9, task);
        let limit = rng.uniform(0.0..10.0);
        let mut e = engine_with(&tasks);
        loop {
            match e.advance(Some(limit)) {
                Advance::TaskDone { at, .. } => assert!(at <= limit + 1e-9),
                Advance::ReachedTime(t) => {
                    assert!((t - limit).abs() < 1e-9);
                    break;
                }
                Advance::Idle => break,
            }
        }
        assert!(e.now() <= limit + 1e-9);
    });
}

#[test]
fn deterministic_replay() {
    cases(0xe191_0004, 64, |rng| {
        let tasks = rng.vec(0..=14, task);
        let a = run_all(&mut engine_with(&tasks));
        let b = run_all(&mut engine_with(&tasks));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.0 - y.0).abs() < 1e-12);
            assert_eq!(x.1, y.1);
        }
    });
}
