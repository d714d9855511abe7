//! Tier-1 mirror of the solver crate's lock-step recovery pins, so that
//! `cargo test -q` on the umbrella package guards them: the lane kernel
//! against the scalar solver over the state grid, block-alignment
//! independence of the row loop, failure and repair semantics, block
//! metering, and the all-straggler row. The file runs as it is.

#[path = "../crates/solver/tests/lane_recovery.rs"]
mod lane_recovery;
