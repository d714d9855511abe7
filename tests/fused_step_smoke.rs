//! Tier-1 mirror of the solver crate's fused-stage-loop pins, so that
//! `cargo test -q` on the umbrella package guards them: the fused
//! `step_cfl`/`advance_to` against the `stable_dt` + `step` loop, the
//! row-walking floors against their per-cell reference, and `max_dt`
//! and the running-max wave-speed scan against a Δt oracle spelled from
//! `signal_speeds`. The files run as they are; each takes well under a
//! second.

#[path = "../crates/solver/tests/dt_scan_equivalence.rs"]
mod dt_scan_equivalence;
#[path = "../crates/solver/tests/fused_step_equivalence.rs"]
mod fused_step_equivalence;
