//! The concurrency seam: every hot-path lock, condvar and atomic in this
//! crate is imported through here instead of naming `qa_types::sync` or
//! `std::sync::atomic` directly.
//!
//! In a default build the re-exports are exactly the real primitives —
//! zero overhead, zero behavior change. With `--features loom` they swap
//! to the `dqa-verify` shims, which pass through to `std` in ordinary
//! tests but turn every operation into a scheduling decision point inside
//! a `dqa_verify::model` run. That is what lets the `loom_tests` modules
//! model-check the *real* `AdmissionGate` and [`crate::channel`] rather
//! than hand-copied miniatures.

#[cfg(not(feature = "loom"))]
pub use qa_types::sync::{Condvar, Mutex, MutexGuard};

/// The atomics behind the seam.
#[cfg(not(feature = "loom"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(feature = "loom")]
pub use dqa_verify::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(feature = "loom")]
pub use dqa_verify::sync::atomic;
