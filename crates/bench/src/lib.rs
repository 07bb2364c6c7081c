//! Benchmark harness for the IPPS-2001 distributed Q/A reproduction.
//!
//! * `src/bin/table*.rs` and `src/bin/figure*.rs` — one binary per table
//!   and figure of the paper's evaluation; each prints the regenerated rows
//!   next to the values the paper reports. Run them all with
//!   `cargo run -p bench --bin <name>` or see `EXPERIMENTS.md`.
//! * `src/bin/ablation_scheduling.rs` — the DESIGN.md ablations
//!   (load-function weights, migration hysteresis, number of scheduling
//!   points).
//! * `src/bin/soak.rs` over [`soak`] — every soak and gate (chaos,
//!   overload, recovery, federation, rebalance, integrity, trace,
//!   obs_overhead) as one scenario table: `soak <scenario>…|all --ci`.
//!
//! Per-function timings live in the `crates/perf` ledger, not here.

pub mod fixtures;
pub mod render;
pub mod soak;
