//! Method-of-lines HRSC solver for SRHD.
//!
//! Assembles the physics ([`rhrsc_srhd`]), grids ([`rhrsc_grid`]), runtime
//! ([`rhrsc_runtime`]) and communication ([`rhrsc_comm`]) layers into
//! runnable solvers:
//!
//! * [`scheme`] — the numerical scheme bundle (EOS + reconstruction +
//!   Riemann solver + recovery parameters) and primitive recovery over
//!   fields,
//! * [`step`] — the spatial residual `L(U)` (dimension-by-dimension
//!   reconstruct + Riemann flux + divergence), with sub-region support
//!   for communication overlap and optional gang parallelism,
//! * [`integrate`] — SSP Runge–Kutta time integration and CFL control on
//!   a single patch,
//! * [`device_backend`] — the same patch integrator staged through the
//!   simulated accelerator (bit-identical results, offload cost model),
//! * [`driver`] — the distributed heterogeneous driver: block-decomposed
//!   domains over simulated ranks with bulk-synchronous or futurized
//!   (overlapped) halo exchange,
//! * [`ladder`] — the recovery ladder: the one resilient advance loop
//!   (agreement, retry backoff, restore budget, shrink) both distributed
//!   drivers climb through their [`ladder::Recoverable`] hooks, with one
//!   [`ResilienceConfig`] in and one [`ResilienceStats`] ledger out that
//!   the ladder books every rung into, over the
//!   one memory-tier store (`tiers`: L1 snapshot + L2 buddy replica,
//!   their wire format, scrub, collective fetch-for-restore and
//!   buddy-shrink gather) both of them keep their diskless checkpoints in,
//! * [`amr`] — block-structured mesh refinement with Berger–Oliger
//!   subcycling and conservative reflux (1D), adaptive or with a static
//!   layout — the structured-adaptivity core of the authors' AMR codes,
//!   on the [`refine`] operators; [`amr_dist`] runs it across ranks,
//! * [`problems`] — standard SRHD test problems (Sod, Martí–Müller blast
//!   waves, density-wave advection, 2D Riemann, Kelvin–Helmholtz, boosted
//!   tubes),
//! * [`diag`] — diagnostics: L1 errors vs. reference solutions,
//!   conservation audits, Lorentz-factor extrema,
//! * [`health`] — periodic rank-local physics-health telemetry
//!   (conservation drift, atmosphere occupancy, con2prim cascade rates)
//!   with a soft anomaly watchdog.
//!
//! The pencil kernel and the row recovery run at the host's vector width
//! (`width`: one body, built per x86 vector level, the widest picked at
//! run time).

#[macro_use]
mod width;

pub mod amr;
pub mod amr_dist;
pub mod device_backend;
pub mod diag;
pub mod driver;
pub mod health;
pub mod integrate;
pub mod ladder;
pub mod problems;
pub mod refine;
pub mod scheme;
pub mod step;
mod tiers;

pub use amr::{AmrConfig, AmrSolver};
pub use amr_dist::{DistAmrSolver, DistAmrStats};
pub use device_backend::{BreakerConfig, BreakerStats, DevicePatchSolver};
pub use health::{HealthConfig, HealthMonitor, HealthRecord, HealthSummary};
pub use integrate::{PatchSolver, RkOrder};
pub use ladder::{ResilienceConfig, ResilienceStats};
pub use scheme::{RecoveryStats, Scheme, SolverError};
