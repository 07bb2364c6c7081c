#![warn(missing_docs)]
//! Load monitoring and load functions (§3.1, §4.2 of the paper).
//!
//! Every node runs a *load monitor* that periodically measures local CPU and
//! disk load and broadcasts it; each node therefore knows the load of every
//! other active node, and membership is inferred from broadcast liveness
//! ("if load information is not received from a processor in a predefined
//! time, that processor is removed from the system pool").
//!
//! * [`packet`] — the broadcast load packet;
//! * [`table`] — the distributed load table with staleness-based membership;
//! * [`functions`] — the weighted load functions of Eqs. 1–6 and the
//!   under-load conditions of Eqs. 7–8;
//! * [`weights`] — empirical measurement of resource weights (Table 3).

pub mod functions;
pub mod packet;
pub mod table;
pub mod weights;

pub use functions::{ap_load, pr_load, qa_load, underloaded, LoadFunctions};
pub use packet::LoadPacket;
pub use table::LoadTable;
pub use weights::WeightEstimator;
