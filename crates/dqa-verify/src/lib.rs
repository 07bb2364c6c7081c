//! dqa-verify: a loom-style model checker for the runtime's hot
//! concurrency structures, with zero external dependencies.
//!
//! The real `loom` crate cannot be vendored here, so this crate
//! implements the same *shape* of tool from scratch:
//!
//! - [`model`] / [`Builder`] run a closure under **bounded exhaustive
//!   interleaving exploration**: real OS threads, but gated by a central
//!   scheduler so exactly one runs at a time, with a DFS over every
//!   scheduling decision point (lock acquisition, condvar wait/notify,
//!   atomic access, spawn/join). Each execution replays a recorded
//!   decision path, then backtracks to the deepest unexplored branch.
//! - [`sync`] provides drop-in `Mutex`/`Condvar` shims with the
//!   `qa_types::sync` API surface the runtime uses, plus sequentially
//!   consistent atomic shims. **Dual mode:** outside [`model`] they pass
//!   straight through to `std::sync`, so a crate compiled against the
//!   shims (e.g. `dqa-runtime --features loom`) still behaves normally in
//!   ordinary tests; inside [`model`] every operation becomes a
//!   scheduling decision.
//! - [`thread`] provides matching `spawn`/`JoinHandle` shims.
//!
//! Failure modes the explorer detects:
//!
//! - **assertion panics** in any interleaving (reported with the decision
//!   path that produced them),
//! - **deadlock / lost wakeup**: every live thread blocked with no
//!   timeout able to fire — exactly what a dropped `Condvar` notify
//!   produces,
//! - **exploration bounds exceeded** (too many executions or steps),
//!   which keeps accidental state-space explosions from hanging CI.
//!
//! Timed condvar waits (`wait_until`) are modeled nondeterministically:
//! at every point where a timed waiter is parked, "the timeout fires" is
//! one of the explored branches, so both the notified and the timed-out
//! paths are covered without any real clock.
//!
//! State under test must be created *inside* the model closure (the
//! closure reruns once per interleaving); sharing state across
//! executions makes replay meaningless, as it would no longer be
//! deterministic.

pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::{Builder, Failure, Report};

/// Explore every interleaving of `f` with the default bounds, panicking
/// on the first failing one (loom-compatible entry point).
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f);
}
