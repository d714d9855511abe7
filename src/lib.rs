//! # rhrsc — Scalable Relativistic High-Resolution Shock-Capturing for Heterogeneous Computing
//!
//! Umbrella crate re-exporting the full reproduction stack:
//!
//! * [`eos`] — equations of state (ideal Γ-law, Taub–Mathews),
//! * [`srhd`] — SRHD physics: states, conservative↔primitive conversion,
//!   fluxes, exact and approximate Riemann solvers, reconstruction,
//! * [`grid`] — patches, ghost zones, boundary conditions, decomposition,
//! * [`runtime`] — futures, work-stealing pool, simulated accelerator,
//!   load balancing,
//! * [`comm`] — simulated distributed ranks with a network cost model,
//! * [`io`] — VTK/PPM output and bit-exact checkpoint/restart,
//! * [`solver`] — SSP-RK integration, the distributed heterogeneous
//!   driver, test problems, and diagnostics,
//! * [`serve`] — the ensemble service: a multi-tenant job engine
//!   multiplexing scenario sweeps over the solver (admission control,
//!   priority classes, cancellation, content-addressed result caching).
//!
//! ## Quickstart
//!
//! ```
//! use rhrsc::solver::problems::Problem;
//! use rhrsc::solver::scheme::init_cons;
//! use rhrsc::solver::{PatchSolver, RkOrder, Scheme};
//! use rhrsc::grid::PatchGeom;
//!
//! // Relativistic Sod shock tube at N = 64, PPM + HLLC + SSP-RK3.
//! let prob = Problem::sod();
//! let scheme = Scheme::default_with_gamma(5.0 / 3.0);
//! let geom = PatchGeom::line(64, 0.0, 1.0, scheme.required_ghosts());
//! let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
//! let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
//! solver.advance_to(&mut u, 0.0, prob.t_end, 0.4, None).unwrap();
//!
//! // Compare against the exact Riemann solution.
//! let exact = prob.exact.clone().unwrap();
//! let (l1, _) = rhrsc::solver::diag::l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();
//! assert!(l1 < 0.01);
//! ```

pub use rhrsc_comm as comm;
pub use rhrsc_eos as eos;
pub use rhrsc_grid as grid;
pub use rhrsc_io as io;
pub use rhrsc_runtime as runtime;
pub use rhrsc_serve as serve;
pub use rhrsc_solver as solver;
pub use rhrsc_srhd as srhd;
