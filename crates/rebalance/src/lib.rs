#![warn(missing_docs)]
//! Elastic membership and self-healing re-sharding.
//!
//! The paper fixes cluster membership for each run: a node that dies takes
//! its sub-collections with it, and every later answer is degraded until a
//! human restarts the system. This crate is the control plane that lifts
//! that restriction, honored by *both* backends (`dqa-runtime` in wall
//! time, `cluster-sim` in virtual time):
//!
//! * a lease/phi-style [`FailureDetector`] separates transient stragglers
//!   (late heartbeats, never migrated against) from permanent loss;
//! * an [`OwnershipMap`] records which live node owns each sub-collection
//!   — the invariant the whole tier defends is *every sub-collection owned
//!   by exactly one live node* ([`OwnershipMap::verify_complete`]);
//! * a [`MigrationPlan`] is the journaled, term-fenced unit of change: a
//!   deterministic list of `sub: from → to` steps produced by the pure
//!   planners ([`plan_evacuation`], [`plan_join`], [`plan_skew`]) so both
//!   backends — and a successor coordinator replaying the journal — derive
//!   byte-identical plans from the same membership view;
//! * a [`MigrationThrottle`] paces plan application so migration traffic
//!   yields to foreground questions at the admission gate;
//! * the [`Rebalancer`] ties them together: membership, the verbs that
//!   mint-and-admit plans (`drain`, `join`, `lost`, `skew`), the queue of
//!   scheduled steps and the settle pass. Both backends drive the same
//!   one, so the planners have no caller outside this crate.
//!
//! Everything here is pure, single-threaded state: no clocks, no channels,
//! no I/O. Times are `f64` seconds supplied by the caller (wall seconds in
//! the runtime, virtual seconds in the DES), which is what keeps the DES
//! bit-stable under seeded replay.

pub mod detector;
pub mod ownership;
pub mod plan;
pub mod rebalancer;
pub mod throttle;

pub use detector::{DetectorConfig, FailureDetector, NodeHealth};
pub use ownership::{ConvergenceError, OwnershipMap};
pub use plan::{
    plan_evacuation, plan_join, plan_skew, MigrationPlan, MigrationStep, RebalanceReason,
};
pub use rebalancer::{Minted, Rebalancer, Settled, Stepped};
pub use throttle::{MigrationThrottle, MAX_DEFERRALS};

/// Declarative configuration of the elastic tier, carried by both
/// backends' cluster configs (the same both-backends pattern as
/// `OverloadPolicy` and `FaultSchedule`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ElasticConfig {
    /// Extra standby nodes started suspended: they hold no sub-collections
    /// and serve nothing until an operator `join` (or a `NodeJoin` fault
    /// event) brings them into the pool.
    pub standby_nodes: usize,
    /// Failure-detector thresholds.
    pub detector: DetectorConfig,
    /// Migration pacing.
    pub throttle: MigrationThrottle,
    /// Load-skew trigger: when the spread between the hottest and coolest
    /// owner's Eqs. 1–3 load gauge exceeds this, a one-step skew plan is
    /// generated. `None` disables skew-triggered rebalancing (membership
    /// changes still migrate).
    pub skew_threshold: Option<f64>,
}

impl ElasticConfig {
    /// An elastic tier with `standby_nodes` warm spares and defaults
    /// everywhere else.
    pub fn with_standby(standby_nodes: usize) -> ElasticConfig {
        ElasticConfig {
            standby_nodes,
            ..ElasticConfig::default()
        }
    }
}
