//! Tier-1 mirror of the solver crate's static-refinement pins, so that
//! `cargo test -q` on the umbrella package guards them: the a5 L1(ρ) bit
//! patterns, Δt-sequence length and zone-update count of the static
//! two-level `AmrSolver`, and the final-state digests of three regridding
//! hierarchies. The file runs as it is (about two seconds).

#[path = "../crates/solver/tests/static_amr_bit_identity.rs"]
mod static_amr_bit_identity;
