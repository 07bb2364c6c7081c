//! Determinism regression: the DES must replay bit-for-bit from a seed.
//!
//! These tests guard the invariant `cargo xtask lint` enforces statically
//! (no wall clock, no hash-ordered state, no unseeded RNG in virtual-time
//! crates): running the same configuration twice must produce *identical*
//! `SimReport`s — per-question records, migration counts, makespan and
//! trace — for every paper strategy. A hash-iteration-order or entropy leak
//! anywhere in the sim/scheduler stack shows up here as a diff.

use cluster_sim::{BalancingStrategy, QaSimulation, SimConfig};
use faults::FaultSchedule;
use qa_types::NodeId;
use scheduler::PartitionStrategy;

fn run_twice(cfg: SimConfig) -> (cluster_sim::SimReport, cluster_sim::SimReport) {
    let a = QaSimulation::new(cfg.clone()).run();
    let b = QaSimulation::new(cfg).run();
    (a, b)
}

#[test]
fn high_load_replays_identically_for_every_strategy() {
    for strategy in [
        BalancingStrategy::Dns,
        BalancingStrategy::Inter,
        BalancingStrategy::Dqa,
    ] {
        for seed in [7, 1001] {
            let mut cfg = SimConfig::paper_high_load(4, strategy, seed);
            cfg.record_trace = true;
            let (a, b) = run_twice(cfg);
            assert_eq!(
                a, b,
                "strategy {strategy:?} seed {seed}: same-seed replay diverged"
            );
        }
    }
}

#[test]
fn low_load_partitioning_replays_identically() {
    for part in [
        PartitionStrategy::Send,
        PartitionStrategy::Isend,
        PartitionStrategy::Recv { chunk_size: 40 },
    ] {
        let (a, b) = run_twice(SimConfig::paper_low_load(4, part, 6, 42));
        assert_eq!(a, b, "partitioning {part:?}: same-seed replay diverged");
    }
}

#[test]
fn failure_recovery_path_replays_identically() {
    // Node deaths exercise the AP re-partitioning bookkeeping
    // (`ap_partitions`, now a BTreeMap): recovery dispatch order must be
    // seed-stable too.
    let mut cfg = SimConfig::paper_low_load(4, PartitionStrategy::Isend, 6, 99);
    cfg.faults = FaultSchedule::none().crash(NodeId::new(2), 30.0);
    let (a, b) = run_twice(cfg);
    assert_eq!(a, b, "failure-recovery replay diverged");
}

#[test]
fn distinct_seeds_actually_differ() {
    // Guards against the degenerate way to pass the tests above: a sim that
    // ignores its seed entirely.
    let a = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 1)).run();
    let b = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 2)).run();
    assert_ne!(a, b, "different seeds produced identical reports");
}
