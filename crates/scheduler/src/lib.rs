#![warn(missing_docs)]
//! Scheduling machinery of the distributed Q/A system (§3–§4 of the paper).
//!
//! * [`meta`] — the meta-scheduling algorithm of Fig. 4: select under-loaded
//!   processors (or the least-loaded one), weight them by available
//!   resources, and assign task fractions;
//! * [`partition`] — the three partitioning algorithms of §4.1: **SEND**
//!   (contiguous weighted split), **ISEND** (interleaved weighted split) and
//!   **RECV** (receiver-pulled equal-size chunks);
//! * [`recovery`] — the backend-agnostic failure-recovery state machine
//!   (the receiver-controlled chunk queue of Fig. 6b, which the runtime
//!   also runs SEND and ISEND partitions through);
//! * [`dispatcher`] — the question dispatcher's migrate-or-stay decision
//!   with the anti-thrashing hysteresis ("a question is migrated only if the
//!   difference between the load of the source node and the load of the
//!   destination node is greater than the average workload of a single
//!   question");
//! * [`points`] — the three scheduling points as pure decisions over a
//!   cluster view, the one copy both backends (`dqa-runtime`,
//!   `cluster-sim`) drive: arrival placement (per-node cap, DNS fallback,
//!   arrival decision) and PR/AP allocation (own-load subtraction, breaker
//!   and owner filters, the meta-scheduler, the home fallback);
//! * [`diffusion`] — classic baselines from the related work (sender-
//!   initiated diffusion, the gradient model) for broader comparisons.

pub mod diffusion;
pub mod dispatcher;
pub mod meta;
pub mod partition;
pub mod points;
pub mod recovery;

pub use diffusion::{GradientModel, SenderDiffusion};
pub use dispatcher::QuestionDispatcher;
pub use meta::{meta_schedule, Allocation};
pub use partition::{
    partition_counts, partition_isend, partition_recv, partition_send, PartitionStrategy,
};
pub use recovery::ChunkQueue;
