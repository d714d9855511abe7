//! Tier-1 mirror of the solver crate's exchange matrix (ROADMAP 1(a),
//! first slice): `BlockSolver` ≡ `PatchSolver` bit for bit over 1D–3D ×
//! 1, 2, 4 ranks × both exchange modes × three BCs (a few seconds).

#[path = "../crates/solver/tests/exchange_matrix.rs"]
mod exchange_matrix;
