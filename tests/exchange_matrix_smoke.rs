//! Tier-1 mirror of the solver crate's exchange matrix (ROADMAP 3(a)):
//! `BlockSolver` ≡ `PatchSolver` bit for bit over 1D–3D × 1, 2, 4 ranks ×
//! both exchange modes × three BCs — also with a gang per rank and through
//! the fault-free recovery ladder at 2 ranks — and `DevicePatchSolver` ≡
//! `PatchSolver` on the same rows, breaker off and armed (a few seconds).

#[path = "../crates/solver/tests/exchange_matrix.rs"]
mod exchange_matrix;
