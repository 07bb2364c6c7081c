//! Empty placeholder: present only so `cargo --offline` can resolve the workspace. See `crates/perf/README.md`.
