//! The 2D cylindrical blast `patch2d_blast` and `device2d_blast` share:
//! seeded inputs, initial data, and the radial reference solution.

use crate::rng::Rng;
use rhrsc_grid::{bc, Bc, BcSet, Field, PatchGeom};
use rhrsc_solver::diag::{conserved_totals, l1_density_error};
use rhrsc_solver::problems::ExactFn;
use rhrsc_solver::scheme::{init_cons, prim_at, recover_prims, Geometry, Scheme};
use rhrsc_solver::{PatchSolver, RkOrder};
use rhrsc_srhd::Prim;
use std::sync::Arc;

pub const N: usize = 96;
pub const T_END: f64 = 0.03;
pub const CFL: f64 = 0.4;
pub const RK: RkOrder = RkOrder::Rk3;
const R0: f64 = 0.1;
/// Radial reference: `REF_CELLS` cells on `[0, REF_RMAX]`; the blast
/// reaches r ≈ 0.13 by `T_END`, beyond `REF_RMAX` the gas is undisturbed.
const REF_CELLS: usize = 1024;
const REF_RMAX: f64 = 0.25;
/// L1(ρ) at this commit is 0.0153; a scheme that loses the shell fails.
pub const L1_GATE: f64 = 0.03;

/// What the seed draws.
#[derive(Clone, Copy)]
pub struct BlastInputs {
    /// Blast centre: a cell corner within eight cells of the middle of
    /// the periodic square, so every draw is the same blast translated
    /// (same work, same error, other bits).
    pub centre: [f64; 2],
    /// Pressure inside r < 0.1 over the ambient pressure of 1 (99–101).
    pub p_ratio: f64,
}

impl BlastInputs {
    pub fn draw(seed: u64) -> Self {
        // One stream for both workloads: they solve the same problem.
        let mut rng = Rng::new(seed, "blast2d");
        let mut cell = || 0.5 + (rng.below(17) as f64 - 8.0) / N as f64;
        BlastInputs {
            centre: [cell(), cell()],
            p_ratio: rng.uniform(99.0, 101.0),
        }
    }

    fn ic(&self, x: [f64; 3]) -> Prim {
        let r2 = (x[0] - self.centre[0]).powi(2) + (x[1] - self.centre[1]).powi(2);
        Prim::at_rest(1.0, if r2 < R0 * R0 { self.p_ratio } else { 1.0 })
    }
}

pub fn scheme() -> Scheme {
    Scheme::default_with_gamma(5.0 / 3.0)
}

pub fn bcs() -> BcSet {
    bc::uniform(Bc::Periodic)
}

pub fn geom(scheme: &Scheme) -> PatchGeom {
    PatchGeom::rect([N, N], [0.0; 2], [1.0; 2], scheme.required_ghosts())
}

/// The initial conserved field.
pub fn initial_state(inputs: &BlastInputs, scheme: &Scheme) -> Field {
    init_cons(geom(scheme), &scheme.eos, &|x| inputs.ic(x))
}

/// Relative drift of ∫D and ∫τ between two states of the periodic box.
pub fn mass_energy_drift(before: &Field, after: &Field) -> f64 {
    let (a, b) = (conserved_totals(before), conserved_totals(after));
    [0, 4]
        .iter()
        .map(|&c| ((b[c] - a[c]) / a[c]).abs())
        .fold(0.0, f64::max)
}

/// The state half-way through the solve, for the layer probes.
pub fn mid_run_state(inputs: &BlastInputs) -> Field {
    let scheme = scheme();
    let mut u = initial_state(inputs, &scheme);
    let mut solver = PatchSolver::new(scheme, bcs(), RK, *u.geom());
    solver
        .advance_to(&mut u, 0.0, 0.5 * T_END, CFL, None)
        .expect("blast to mid-run");
    u
}

/// What both blast workloads keep between repeats.
pub struct BlastCase {
    pub inputs: BlastInputs,
    /// ρ(x, y) at `T_END`, from the radial reference solve.
    exact: ExactFn,
    /// Final state of repeat 0.
    first: Option<Field>,
}

impl BlastCase {
    pub fn new(seed: u64) -> Self {
        let inputs = BlastInputs::draw(seed);
        BlastCase {
            inputs,
            exact: radial_reference(&inputs),
            first: None,
        }
    }

    /// Keep `u` if it is the final state of repeat 0.
    pub fn keep_first(&mut self, u: Field) {
        self.first.get_or_insert(u);
    }

    /// L1(ρ) of repeat 0's final state against the radial reference.
    pub fn l1_density_error(&self) -> Result<f64, String> {
        let first = self.first.as_ref().expect("repeat 0 ran");
        l1_density_error(&scheme(), first, &self.exact, T_END)
            .map(|(l1, _)| l1)
            .map_err(|e| e.to_string())
    }
}

/// ρ(x, y) at `T_END` from a fine 1D solve in cylindrical radial
/// geometry — the same equations reduced by the symmetry the 2D grid
/// breaks — linear between the radial cell centres.
fn radial_reference(inputs: &BlastInputs) -> ExactFn {
    let scheme = Scheme {
        geometry: Geometry::CylindricalRadial,
        ..scheme()
    };
    let geom = PatchGeom::line(REF_CELLS, 0.0, REF_RMAX, scheme.required_ghosts());
    let p_in = inputs.p_ratio;
    let mut u = init_cons(geom, &scheme.eos, &|x| {
        Prim::at_rest(1.0, if x[0] < R0 { p_in } else { 1.0 })
    });
    let mut bcs = bc::uniform(Bc::Outflow);
    bcs[0][0] = Bc::Reflect;
    PatchSolver::new(scheme, bcs, RK, geom)
        .advance_to(&mut u, 0.0, T_END, CFL, None)
        .expect("radial reference solve");
    let mut prim = Field::new(geom, 5);
    recover_prims(&scheme, &u, &mut prim).expect("radial reference recovery");
    let rho: Vec<f64> = geom
        .interior_iter()
        .map(|(i, j, k)| prim_at(&prim, i, j, k).rho)
        .collect();
    let centre = inputs.centre;
    Arc::new(move |x, _t| {
        let r = ((x[0] - centre[0]).powi(2) + (x[1] - centre[1]).powi(2)).sqrt();
        let pos = r / (REF_RMAX / REF_CELLS as f64) - 0.5;
        let rho_r = if pos >= (REF_CELLS - 1) as f64 {
            1.0
        } else {
            let lo = pos.max(0.0).floor() as usize;
            let w = (pos - lo as f64).clamp(0.0, 1.0);
            rho[lo] * (1.0 - w) + rho[lo + 1] * w
        };
        Prim::at_rest(rho_r, 1.0)
    })
}
