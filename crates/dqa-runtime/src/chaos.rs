//! Wall-clock chaos driver: applies a [`FaultSchedule`]'s timed events to a
//! running cluster.
//!
//! Event times are virtual seconds in the schedule; the driver multiplies
//! them by a configurable time scale so the same schedule that crashes a
//! simulated node at t=20 s can crash a thread-backed node 20 ms into a
//! test run (`scale = 0.001`).
//!
//! * A [`FaultEvent::Crash`] with a rejoin becomes suspend → resume on the
//!   [`LoadBoard`] — the node's threads go silent and survive for the
//!   rejoin (the transient-crash path).
//! * A permanent crash becomes `set_alive(node, false)` — the node's
//!   threads exit, the paper's crash-stop model.
//! * A [`FaultEvent::Straggler`] window sets and later clears the node's
//!   slowdown factor.

use crate::board::LoadBoard;
use faults::{FaultEvent, FaultSchedule};
use qa_types::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the driver does at one timeline point.
#[derive(Debug, Clone, Copy)]
enum Action {
    Kill(NodeId),
    Suspend(NodeId),
    Resume(NodeId),
    Slow(NodeId, f64),
    Unslow(NodeId),
}

/// Background thread executing a fault timeline against a [`LoadBoard`].
#[derive(Debug)]
pub struct ChaosDriver {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ChaosDriver {
    /// Start the driver; event times are multiplied by `time_scale`
    /// seconds of wall clock. A schedule without events yields an inert
    /// driver (no thread).
    pub fn start(board: Arc<LoadBoard>, schedule: &FaultSchedule, time_scale: f64) -> ChaosDriver {
        let mut timeline: Vec<(f64, Action)> = Vec::new();
        for ev in &schedule.events {
            match *ev {
                FaultEvent::Crash { node, at, rejoin } => match rejoin {
                    Some(r) => {
                        timeline.push((at, Action::Suspend(node)));
                        timeline.push((r, Action::Resume(node)));
                    }
                    None => timeline.push((at, Action::Kill(node))),
                },
                FaultEvent::Straggler {
                    node,
                    from,
                    until,
                    factor,
                } => {
                    timeline.push((from, Action::Slow(node, factor)));
                    timeline.push((until, Action::Unslow(node)));
                }
                // Coordinator faults target the meta-scheduler, not a
                // worker node's availability: the failover harness
                // (crate::failover + tests/coordinator_failover.rs)
                // exercises them against the journal, so the board-level
                // chaos thread has nothing to flip. Federation faults
                // (shard loss/partition, broker crash) likewise live one
                // tier up: the `federation` broker consumes them against
                // whole coordinator shards. Elastic-membership events
                // (decommission/join/stall) are consumed by the cluster's
                // rebalance controller, which owns the ownership map the
                // board knows nothing about.
                FaultEvent::CoordinatorCrash { .. }
                | FaultEvent::LeaderPartition { .. }
                | FaultEvent::ShardDown { .. }
                | FaultEvent::ShardPartition { .. }
                | FaultEvent::BrokerCrash { .. }
                | FaultEvent::NodeDecommission { .. }
                | FaultEvent::NodeJoin { .. }
                | FaultEvent::RebalanceStall { .. } => {}
                // Corruption events damage byte stores, not node
                // availability: the integrity runtime (crate::integrity)
                // applies them to its segment store and the journal/link
                // layers consume the rest. Nothing for the board.
                FaultEvent::BitFlip { .. } | FaultEvent::TornWrite { .. } => {}
            }
        }
        timeline.sort_by(|a, b| a.0.total_cmp(&b.0));

        let stop = Arc::new(AtomicBool::new(false));
        if timeline.is_empty() {
            return ChaosDriver { stop, thread: None };
        }

        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("dqa-chaos".into())
            .spawn(move || {
                let start = crate::clock::now_instant();
                for (t, action) in timeline {
                    let target = t.max(0.0) * time_scale.max(0.0);
                    loop {
                        if stop_flag.load(Ordering::Acquire) {
                            return;
                        }
                        let elapsed = start.elapsed().as_secs_f64();
                        if elapsed >= target {
                            break;
                        }
                        let remaining = target - elapsed;
                        std::thread::sleep(Duration::from_secs_f64(remaining.min(0.002)));
                    }
                    match action {
                        Action::Kill(n) => board.set_alive(n, false),
                        Action::Suspend(n) => board.suspend(n),
                        Action::Resume(n) => board.resume(n),
                        Action::Slow(n, f) => board.set_slowdown(n, f),
                        Action::Unslow(n) => board.set_slowdown(n, 1.0),
                    }
                }
            })
            .ok();
        // A driver whose thread failed to spawn injects nothing — the run
        // simply proceeds fault-free, which is the safe direction.
        ChaosDriver { stop, thread }
    }

    /// Stop the driver and join its thread. Events not yet fired are
    /// skipped.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosDriver {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn transient_crash_suspends_then_resumes() {
        let board = Arc::new(LoadBoard::new(2, 10.0));
        board.heartbeat(NodeId::new(0));
        let schedule = FaultSchedule::seeded(1).crash_rejoin(NodeId::new(0), 5.0, 30.0);
        let driver = ChaosDriver::start(Arc::clone(&board), &schedule, 0.001);
        assert!(
            wait_until(1000, || board.is_suspended(NodeId::new(0))),
            "crash never applied"
        );
        assert!(
            wait_until(1000, || !board.is_suspended(NodeId::new(0))),
            "rejoin never applied"
        );
        driver.stop();
    }

    #[test]
    fn straggler_window_sets_and_clears_slowdown() {
        let board = Arc::new(LoadBoard::new(1, 10.0));
        let schedule = FaultSchedule::seeded(1).straggler(NodeId::new(0), 2.0, 25.0, 0.25);
        let driver = ChaosDriver::start(Arc::clone(&board), &schedule, 0.001);
        assert!(
            wait_until(1000, || board.slowdown(NodeId::new(0)) < 1.0),
            "slowdown never applied"
        );
        assert!(
            wait_until(1000, || board.slowdown(NodeId::new(0)) == 1.0),
            "slowdown never cleared"
        );
        driver.stop();
    }

    #[test]
    fn permanent_crash_kills_the_node() {
        let board = Arc::new(LoadBoard::new(1, 10.0));
        board.heartbeat(NodeId::new(0));
        let schedule = FaultSchedule::seeded(1).crash(NodeId::new(0), 1.0);
        let driver = ChaosDriver::start(Arc::clone(&board), &schedule, 0.001);
        assert!(
            wait_until(1000, || !board.is_alive(NodeId::new(0))),
            "kill never applied"
        );
        driver.stop();
    }

    #[test]
    fn empty_schedule_is_inert() {
        let board = Arc::new(LoadBoard::new(1, 10.0));
        let driver = ChaosDriver::start(Arc::clone(&board), &FaultSchedule::none(), 0.001);
        assert!(driver.thread.is_none());
        driver.stop();
    }

    #[test]
    fn stop_mid_timeline_skips_remaining_events() {
        let board = Arc::new(LoadBoard::new(1, 10.0));
        // Second event far in the future; stop must not block on it.
        let schedule = FaultSchedule::seeded(1).crash_rejoin(NodeId::new(0), 0.0, 3600.0);
        let driver = ChaosDriver::start(Arc::clone(&board), &schedule, 1.0);
        assert!(wait_until(1000, || board.is_suspended(NodeId::new(0))));
        let t = Instant::now();
        driver.stop();
        assert!(t.elapsed() < Duration::from_secs(5), "stop blocked");
    }
}
