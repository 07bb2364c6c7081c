#![warn(missing_docs)]
// Node actors must degrade via the failure-recovery path, never abort; the
// deny is scoped to non-test builds because unit tests legitimately unwrap.
// (Workspace [lints] tables cannot be scoped per-crate, hence the attribute;
// `cargo xtask lint` enforces the same invariant as the `runtime-panic`
// rule.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Thread-backed distributed Q/A runtime.
//!
//! Where `cluster-sim` reproduces the paper's *quantitative* results on
//! calibrated virtual hardware, this crate demonstrates the architecture
//! *functionally*, with real concurrency on real data: each node is a
//! worker thread holding (a reference to) its copy of the collection and
//! serving PR/PS and AP sub-tasks over bounded channels ([`channel`]); a per-question
//! coordinator implements the Fig. 3 dataflow — QP, the PR dispatcher with
//! receiver-controlled sub-collection chunks, centralized paragraph
//! merging + ordering, the AP dispatcher with SEND/ISEND/RECV paragraph
//! partitioning, and centralized answer merging/sorting.
//!
//! Fidelity notes (documented deviations from the paper's deployment):
//!
//! * Nodes are threads in one process; the "network" is channels, and the
//!   paper's per-node collection copies become shared `Arc`s. Latency and
//!   bandwidth effects are therefore *not* measured here — that is
//!   `cluster-sim`'s job.
//! * Question migration is realized by where the coordinator sends
//!   sub-tasks (the paper moves a process; we move its work).
//! * Failure detection uses sub-task timeouts plus load-board liveness,
//!   the shared-memory analog of the paper's TCP errors + broadcast
//!   staleness; recovery re-queues lost chunks exactly as Figs. 5c/6b
//!   prescribe.

pub mod board;
pub mod channel;
pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod failover;
pub mod integrity;
pub mod links;
pub mod message;
pub mod monitor;
pub mod node;
pub mod overload;
pub mod sync;
pub mod trace;

pub use board::{LoadBoard, QuarantinePolicy};
pub use chaos::ChaosDriver;
pub use clock::now_instant;
pub use cluster::{Cluster, ClusterConfig, DistributedAnswer};
pub use failover::CoordinatorJournal;
pub use integrity::{IntegrityConfig, IntegrityRuntime, IntegrityStore, RepairSource, ScrubReport};
pub use links::FaultyLink;
pub use monitor::BroadcastMonitors;
pub use overload::{Admission, AdmissionGate, GateDecision, PhaseEstimator};
pub use trace::{TraceEvent, TraceKind, TraceLog};
