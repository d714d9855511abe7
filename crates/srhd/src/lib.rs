//! Special-relativistic hydrodynamics (SRHD) physics core.
//!
//! This crate implements the building blocks of a high-resolution
//! shock-capturing (HRSC) solver for the equations of special-relativistic
//! hydrodynamics in conservation form (Valencia formulation, flat spacetime,
//! units with `c = 1`):
//!
//! ```text
//! ∂t U + ∂k F^k(U) = 0,      U = (D, S_x, S_y, S_z, τ)
//!
//! D   = ρ W                  (conserved rest-mass density)
//! S_i = ρ h W² v_i           (momentum density)
//! τ   = ρ h W² − p − D       (energy density minus D)
//! ```
//!
//! with `W = (1 − v²)^{-1/2}` the Lorentz factor and `h` the specific
//! enthalpy given by an equation of state from [`rhrsc_eos`].
//!
//! Modules:
//! * [`state`] — primitive/conserved state vectors and conversions,
//! * [`flux`] — physical fluxes and characteristic (signal) speeds,
//! * [`con2prim`] — robust conservative → primitive recovery: the scalar
//!   root solve, and its Newton main line run in lock-step over a block
//!   of conserved component rows,
//! * [`riemann`] — exact (Martí–Müller) and approximate (HLL, HLLC,
//!   Rusanov) Riemann solvers,
//! * [`recon`] — piecewise-constant, piecewise-linear (TVD limiters), PPM
//!   and WENO5 reconstruction.

pub mod con2prim;
pub mod flux;
pub mod recon;
pub mod riemann;
pub mod state;

pub use con2prim::{
    cons_to_prim, cons_to_prim_block, cons_to_prim_counted, Con2PrimError, Con2PrimParams,
    PrimLanes, C2P_LANES,
};
pub use state::{Cons, Dir, Prim, NCOMP};

/// Re-export of the EOS crate for convenience.
pub use rhrsc_eos::Eos;
