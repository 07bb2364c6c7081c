#![warn(missing_docs)]
//! Discrete-event simulation of the distributed Q/A cluster.
//!
//! The paper's empirical section ran on twelve 500 MHz Pentium III machines
//! with 256 MB RAM on 100 Mbps Ethernet — hardware we cannot reproduce, so
//! this crate simulates it. Module service demands are *calibrated from the
//! paper's own measurements* (Tables 2, 3, 8 via
//! [`qa_types::calibration`]); the simulator then reproduces the behaviour
//! the scheduling experiments depend on:
//!
//! * processor-sharing CPU and disk servers per node, so concurrent
//!   questions overlap I/O and computation (the §4.2 observation that 2–3
//!   simultaneous questions *increase* throughput);
//! * a memory model: each question holds 25–40 MB against 256 MB per node,
//!   and over-commitment causes thrashing (the >4-simultaneous-questions
//!   collapse);
//! * a shared star-Ethernet network (all transfers share `B_net`);
//! * the three load-balancing strategies (DNS / INTER / DQA) built on the
//!   real `scheduler` + `loadsim` crates;
//! * SEND / ISEND / RECV partitioning of PR and AP with heterogeneous
//!   sub-task granularities.
//!
//! Layers:
//!
//! * [`demand`] — deterministic sampling of per-question/per-item demands;
//! * [`engine`] — the processor-sharing event engine;
//! * [`workload`] — the per-question state machine wiring dispatchers and
//!   partitioning into engine tasks, and the virtual-time driver of the
//!   control plane `dqa-runtime` runs (`OverloadPolicy::offer`,
//!   `scheduler::points`, `rebalance::Rebalancer`);
//! * [`experiments`] — drivers that regenerate Tables 5–11 and Fig. 10;
//! * [`integrity`] — a virtual-time model of the runtime's data-integrity
//!   tier (corruption → detection → quarantine → scrub-and-repair) for
//!   time-to-repair and scrub-interference measurements.

pub mod demand;
pub mod engine;
pub mod experiments;
pub mod integrity;
pub mod workload;

pub use demand::QuestionDemand;
pub use engine::{Advance, Engine, Stage, StageKind, TaskId};
pub use integrity::{run_integrity_sim, IntegritySimConfig, IntegritySimReport, LoadWindow};
pub use workload::{BalancingStrategy, QaSimulation, SimConfig, SimReport};
