//! Tier-1 mirror of the solver crate's pencil-kernel pins, so that
//! `cargo test -q` on the umbrella package guards them: staged PPM / PLM
//! against the per-interface loops, `compute_rhs` against an AoS residual
//! on fields that take every select of the lane-form `prepare_side`, every
//! pencil extent and offset against `compute_rhs` — and the golden
//! residual and step digests all of that leans on. The files run as they
//! are.

#[path = "../crates/solver/tests/pencil_kernels.rs"]
mod pencil_kernels;

#[path = "../crates/solver/tests/soa_bit_identity.rs"]
mod soa_bit_identity;
