//! Tier-1 mirror of the solver crate's owner-recovers pins, so that
//! `cargo test -q` on the umbrella package guards them: primitive ghosts
//! copied from their owners equal recovered ones on every byte, the
//! atmosphere-beside-a-wall sign-of-zero corner, and the exact con2prim
//! work count of a `BlockSolver` stage. The file runs as it is (under a
//! second).

#[path = "../crates/solver/tests/ghost_prim_equivalence.rs"]
mod ghost_prim_equivalence;
