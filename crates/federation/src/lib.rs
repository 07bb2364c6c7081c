//! Federated coordinator tier: scatter-gather over corpus shards with
//! hedged retries and partial-result merge.
//!
//! The paper's coordinator scales a *single* corpus across nodes; this
//! crate adds the tier above it for corpora too large for one coordinator
//! cluster. A [`FederationBroker`] partitions documents by sub-collection
//! across ≥ 2 coordinator shards ([`partition_documents`]), scatters every
//! question to all of them, and deterministically merges what comes back:
//!
//! * **Deadlines** — each shard request gets a deadline derived from the
//!   question deadline ([`FederationPolicy::shard_deadline`]), so one
//!   straggler cannot burn the whole question budget.
//! * **Hedging** — a shard running past its EWMA-tracked tail latency
//!   ([`LatencyEstimator`]) gets a bounded, deduplicated hedge retry on
//!   its replica; first result wins.
//! * **Breakers** — consecutive failures open a per-shard
//!   [`ShardBreaker`], diverting primary traffic to the replica for a
//!   cooldown.
//! * **Merge** — responders ≥ quorum yield a merged, Coverage-annotated
//!   answer; fewer responders still merge (flagged as a quorum
//!   shortfall); zero responders with admission rejections aggregate a
//!   max-over-shards retry-after. An admitted question is *never* an
//!   error and *never* silently dropped.
//!
//! The same decisions run in virtual time in [`sim`], so chaos soaks can
//! replay shard loss, partitions, and broker crashes bit-stably and
//! assert conservation across double runs.

#![warn(missing_docs)]

pub mod breaker;
pub mod broker;
pub mod estimator;
pub mod partition;
pub mod sim;
pub mod windows;

pub use breaker::ShardBreaker;
pub use broker::{FederatedAdmission, FederatedAnswer, FederationBroker, FederationConfig};
pub use estimator::LatencyEstimator;
pub use partition::partition_documents;
pub use qa_types::{FederationPolicy, ShardReport, ShardStatus};
pub use sim::{
    run_fed_sim, run_retry_gate_sim, FedQuestionRecord, FedSimConfig, FedSimReport, GateSimReport,
};
pub use windows::{FaultWindows, WindowOverlap};
