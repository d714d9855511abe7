//! SSP Runge–Kutta time integration on a single patch.

use crate::refine::rk_tables;
use crate::scheme::{
    apply_conserved_floors, max_dt, recover_prims, recover_region, Scheme, SolverError, WaveScan,
};
use crate::step::{accumulate_rhs_region_scan, Region};
use rhrsc_grid::{fill_ghosts, BcSet, Field, PatchGeom};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_srhd::NCOMP;

/// Strong-stability-preserving Runge–Kutta order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RkOrder {
    /// Forward Euler.
    Rk1,
    /// Two-stage SSP-RK2 (Heun).
    Rk2,
    /// Three-stage SSP-RK3 (Shu–Osher).
    Rk3,
}

impl RkOrder {
    /// All orders, for convergence sweeps.
    pub const ALL: [RkOrder; 3] = [RkOrder::Rk1, RkOrder::Rk2, RkOrder::Rk3];

    /// Number of stages.
    pub fn stages(&self) -> usize {
        match self {
            RkOrder::Rk1 => 1,
            RkOrder::Rk2 => 2,
            RkOrder::Rk3 => 3,
        }
    }
}

/// Statistics accumulated while advancing a patch.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Time steps taken.
    pub steps: usize,
    /// RK stages evaluated.
    pub stages: usize,
    /// Interior zone-updates performed (cells × stages).
    pub zone_updates: u64,
    /// Cells touched by the conserved-variable limiter (0 in healthy
    /// runs; nonzero near vacuum cores).
    pub floored_cells: u64,
}

/// Where a step's Δt comes from.
#[derive(Clone, Copy)]
enum StepSize {
    /// Given by the caller.
    Fixed(f64),
    /// The CFL bound of the state being stepped, read from the wave-speed
    /// scan fused into the stage-0 sweep, clamped so `t + Δt` does not
    /// pass `t_end`.
    Cfl { cfl: f64, t: f64, t_end: f64 },
}

/// Serial/gang single-patch integrator with owned scratch storage.
pub struct PatchSolver {
    /// Numerical scheme.
    pub scheme: Scheme,
    /// Physical boundary conditions.
    pub bcs: BcSet,
    /// Runge–Kutta order.
    pub rk: RkOrder,
    prim: Field,
    rhs: Field,
    u_stage: Field,
    scan: WaveScan,
    stats: StepStats,
}

impl PatchSolver {
    /// Create a solver for patches with geometry `geom`.
    pub fn new(scheme: Scheme, bcs: BcSet, rk: RkOrder, geom: PatchGeom) -> Self {
        assert!(
            geom.ng >= scheme.required_ghosts(),
            "geometry has {} ghosts, scheme needs {}",
            geom.ng,
            scheme.required_ghosts()
        );
        PatchSolver {
            scheme,
            bcs,
            rk,
            prim: Field::new(geom, 5),
            rhs: Field::cons(geom),
            u_stage: Field::cons(geom),
            scan: WaveScan::new(),
            stats: StepStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StepStats {
        self.stats
    }

    /// Largest stable Δt for the current state at `cfl`.
    ///
    /// This is the *unfused* reference: a ghost fill, a primitive
    /// recovery and a [`max_dt`] pass of their own. The advance loop does
    /// not call it — [`PatchSolver::step_cfl`] reads the same Δt, bitwise,
    /// from the scan riding on the stage-0 sweep — but it stays public as
    /// the independent cross-check the fused scan is tested against, and
    /// for callers that need a Δt without taking a step.
    pub fn stable_dt(&mut self, u: &mut Field, cfl: f64) -> Result<f64, SolverError> {
        fill_ghosts(u, &self.bcs);
        recover_prims(&self.scheme, u, &mut self.prim)?;
        Ok(max_dt(&self.scheme, &self.prim, cfl))
    }

    /// [`PatchSolver::stable_dt`] of a state that must keep its bytes
    /// (ghosts included): the ghost fill runs on a copy in the stage
    /// buffer, which is free between steps.
    pub fn stable_dt_of(&mut self, u: &Field, cfl: f64) -> Result<f64, SolverError> {
        self.u_stage.raw_mut().copy_from_slice(u.raw());
        fill_ghosts(&mut self.u_stage, &self.bcs);
        recover_prims(&self.scheme, &self.u_stage, &mut self.prim)?;
        Ok(max_dt(&self.scheme, &self.prim, cfl))
    }

    /// Evaluate `rhs = L(u)` (ghost fill + recovery + residual), with the
    /// wave-speed scan riding on the sweep when `scan` is set.
    ///
    /// Every ghost is a copy (or mirror image) of an interior cell, and
    /// the recovery of a copied conserved state is the copy of the
    /// recovered primitives — so only the interior is recovered and the
    /// boundary conditions are applied to the primitives, whose component
    /// `1 + d` is the normal velocity just as it is the normal momentum
    /// of `u`. The ghosts of `u` are still filled: callers see them.
    fn eval_rhs(
        &mut self,
        u: &mut Field,
        scan: bool,
        pool: Option<&WorkStealingPool>,
    ) -> Result<(), SolverError> {
        let interior = Region::interior(u.geom());
        fill_ghosts(u, &self.bcs);
        recover_region(&self.scheme, u, &mut self.prim, &interior, None, pool)?;
        fill_ghosts(&mut self.prim, &self.bcs);
        self.rhs.raw_mut().fill(0.0);
        if scan {
            self.scan.reset();
        }
        accumulate_rhs_region_scan(
            &self.scheme,
            &self.prim,
            &mut self.rhs,
            &interior,
            scan.then_some(&self.scan),
            pool,
        );
        Ok(())
    }

    /// The one stage loop. Stage 0's residual does not depend on Δt, so
    /// deciding Δt after it is bitwise the "Δt first, then step" order.
    fn step_sized(
        &mut self,
        u: &mut Field,
        size: StepSize,
        pool: Option<&WorkStealingPool>,
    ) -> Result<f64, SolverError> {
        let (stages, _, _) = rk_tables(self.rk);
        if stages.len() > 1 {
            self.u_stage.raw_mut().copy_from_slice(u.raw());
        }
        self.eval_rhs(u, matches!(size, StepSize::Cfl { .. }), pool)?;
        let dt = match size {
            StepSize::Fixed(dt) => dt,
            StepSize::Cfl { cfl, t, t_end } => {
                let dt = self.scan.dt(cfl);
                // Negated form deliberately catches NaN as a collapse.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(dt > 1e-14) {
                    return Err(SolverError::TimestepCollapse { dt });
                }
                if t + dt > t_end {
                    t_end - t
                } else {
                    dt
                }
            }
        };
        // Shu–Osher form: u <- a u0 + b u + c Δt L(u); stage 0 has no u0
        // term.
        for (si, &(a, b, c)) in stages.iter().enumerate() {
            if si > 0 {
                self.eval_rhs(u, false, pool)?;
            }
            let u0 = (si > 0).then_some((&self.u_stage, a));
            lincomb(u, b, u0, &self.rhs, c * dt);
            self.stats.floored_cells += apply_conserved_floors(u, &self.scheme.c2p) as u64;
            self.stats.stages += 1;
            self.stats.zone_updates += u.geom().interior_len() as u64;
        }
        self.stats.steps += 1;
        Ok(dt)
    }

    /// Advance `u` by one step of size `dt`.
    pub fn step(
        &mut self,
        u: &mut Field,
        dt: f64,
        pool: Option<&WorkStealingPool>,
    ) -> Result<(), SolverError> {
        self.step_sized(u, StepSize::Fixed(dt), pool).map(|_| ())
    }

    /// Advance `u`, at time `t`, by one step at its own CFL bound —
    /// bitwise the Δt [`PatchSolver::stable_dt`] returns, without that
    /// call's extra recovery pass — shortened to land on `t_end` instead
    /// of passing it. Returns the Δt taken; fails with
    /// [`SolverError::TimestepCollapse`], leaving the interior of `u`
    /// untouched, when the bound is not above `1e-14`.
    pub fn step_cfl(
        &mut self,
        u: &mut Field,
        t: f64,
        t_end: f64,
        cfl: f64,
        pool: Option<&WorkStealingPool>,
    ) -> Result<f64, SolverError> {
        self.step_sized(u, StepSize::Cfl { cfl, t, t_end }, pool)
    }

    /// Advance `u` from `t` to `t_end` under CFL control; returns the
    /// number of steps taken.
    pub fn advance_to(
        &mut self,
        u: &mut Field,
        t: f64,
        t_end: f64,
        cfl: f64,
        pool: Option<&WorkStealingPool>,
    ) -> Result<usize, SolverError> {
        let mut t = t;
        let mut steps = 0;
        while t < t_end - 1e-14 {
            t += self.step_cfl(u, t, t_end, cfl, pool)?;
            steps += 1;
        }
        Ok(steps)
    }
}

/// RK stage combine over interior cells: `u = b*u0 + a*u + c*r`, or
/// `u = a*u + c*r` without a `u0`. Shared by [`PatchSolver`] and the
/// distributed [`crate::driver::BlockSolver`], which guarantees
/// bit-identity with it — floating-point addition is not associative.
pub(crate) fn lincomb(u: &mut Field, a: f64, u0: Option<(&Field, f64)>, r: &Field, c: f64) {
    // Component-major over contiguous interior x-runs: per element the
    // expression is `(f0*b) + (u*a) + (r*c)` with left-associated adds,
    // exactly the per-component parse of the historical `Cons`-vector
    // form (scalar·vector then componentwise adds).
    let geom = *u.geom();
    let n = geom.len();
    let (ngx, ngy, ngz) = (geom.ng_of(0), geom.ng_of(1), geom.ng_of(2));
    let nx = geom.n[0];
    let ur = u.raw_mut();
    let rr = r.raw();
    for k in ngz..ngz + geom.n[2] {
        for j in ngy..ngy + geom.n[1] {
            let base = geom.idx(ngx, j, k);
            for comp in 0..NCOMP {
                let o = comp * n + base;
                match u0 {
                    Some((f0, b)) => {
                        let fr = f0.raw();
                        for x in 0..nx {
                            ur[o + x] = fr[o + x] * b + ur[o + x] * a + rr[o + x] * c;
                        }
                    }
                    None => {
                        for x in 0..nx {
                            ur[o + x] = ur[o + x] * a + rr[o + x] * c;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::init_cons;
    use rhrsc_grid::{bc::uniform, Bc, PatchGeom};
    use rhrsc_srhd::Prim;

    fn scheme() -> Scheme {
        Scheme::default_with_gamma(5.0 / 3.0)
    }

    fn advect_ic(x: [f64; 3]) -> Prim {
        Prim::new_1d(
            1.0 + 0.3 * (2.0 * std::f64::consts::PI * x[0]).sin(),
            0.5,
            1.0,
        )
    }

    #[test]
    fn uniform_state_is_steady() {
        let s = scheme();
        let geom = PatchGeom::line(32, 0.0, 1.0, 3);
        let mut u = init_cons(geom, &s.eos, &|_| Prim::new_1d(1.0, 0.4, 2.0));
        let before = u.clone();
        let mut solver = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
        solver.advance_to(&mut u, 0.0, 0.1, 0.5, None).unwrap();
        let d = before.interior_l2_distance(&u);
        assert!(d < 1e-10, "uniform state drifted by {d}");
    }

    #[test]
    fn conservation_under_periodic_bcs() {
        let s = scheme();
        let geom = PatchGeom::line(64, 0.0, 1.0, 3);
        let mut u = init_cons(geom, &s.eos, &advect_ic);
        let before: Vec<f64> = (0..NCOMP).map(|c| u.interior_integral(c)).collect();
        let mut solver = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
        solver.advance_to(&mut u, 0.0, 0.5, 0.5, None).unwrap();
        for (c, b) in before.iter().enumerate() {
            let after = u.interior_integral(c);
            assert!(
                (after - b).abs() < 1e-12 * b.abs().max(1.0),
                "component {c}: {b} -> {after}"
            );
        }
    }

    #[test]
    fn density_wave_advects_correctly() {
        // Uniform v, p: exact solution is rho(x - v t). One period later
        // the profile returns home; measure the L1 error.
        let s = scheme();
        let geom = PatchGeom::line(128, 0.0, 1.0, 3);
        let mut u = init_cons(geom, &s.eos, &advect_ic);
        let mut solver = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
        // One full crossing at v=0.5 takes t=2.
        solver.advance_to(&mut u, 0.0, 2.0, 0.4, None).unwrap();
        let mut prim = Field::new(geom, 5);
        recover_prims(&s, &u, &mut prim).unwrap();
        let mut l1 = 0.0;
        for (i, j, k) in geom.interior_iter() {
            let exact = advect_ic(geom.center(i, j, k)).rho;
            l1 += (prim.at(0, i, j, k) - exact).abs();
        }
        l1 /= geom.interior_len() as f64;
        assert!(l1 < 5e-3, "L1 density error after one period: {l1}");
    }

    #[test]
    fn rk_orders_converge_with_resolution() {
        let s = scheme();
        let err_at = |rk: RkOrder, n: usize| -> f64 {
            let geom = PatchGeom::line(n, 0.0, 1.0, 3);
            let mut u = init_cons(geom, &s.eos, &advect_ic);
            let mut solver = PatchSolver::new(s, uniform(Bc::Periodic), rk, geom);
            solver.advance_to(&mut u, 0.0, 0.4, 0.4, None).unwrap();
            let mut prim = Field::new(geom, 5);
            recover_prims(&s, &u, &mut prim).unwrap();
            let mut l1 = 0.0;
            for (i, j, k) in geom.interior_iter() {
                let mut x = geom.center(i, j, k);
                x[0] -= 0.5 * 0.4; // advected by v t
                l1 += (prim.at(0, i, j, k) - advect_ic(x).rho).abs();
            }
            l1 / geom.interior_len() as f64
        };
        // RK3+PPM should show at least ~2.5 observed order on this smooth
        // advection problem (limiter effects at extrema reduce it from 3).
        let e1 = err_at(RkOrder::Rk3, 64);
        let e2 = err_at(RkOrder::Rk3, 128);
        let order = (e1 / e2).log2();
        assert!(
            order > 2.0,
            "observed order {order:.2} (e1={e1:.2e} e2={e2:.2e})"
        );
        // RK1 is noticeably worse than RK3 at the same resolution.
        assert!(err_at(RkOrder::Rk1, 64) > e1);
    }

    #[test]
    fn advance_lands_exactly_on_t_end() {
        let s = scheme();
        let geom = PatchGeom::line(32, 0.0, 1.0, 3);
        let mut u = init_cons(geom, &s.eos, &advect_ic);
        let mut solver = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk2, geom);
        let d0 = u.interior_integral(0);
        // t_end chosen to not be a multiple of the CFL dt.
        let steps = solver.advance_to(&mut u, 0.0, 0.0537, 0.45, None).unwrap();
        assert!(steps > 0);
        // Conservation still intact (final partial step was consistent).
        let total_d = u.interior_integral(0);
        assert!((total_d - d0).abs() < 1e-12, "D total {total_d} vs {d0}");
    }

    #[test]
    fn stats_count_stages() {
        let s = scheme();
        let geom = PatchGeom::line(16, 0.0, 1.0, 3);
        let mut u = init_cons(geom, &s.eos, &advect_ic);
        let mut solver = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
        solver.step(&mut u, 1e-3, None).unwrap();
        solver.step(&mut u, 1e-3, None).unwrap();
        let st = solver.stats();
        assert_eq!(st.steps, 2);
        assert_eq!(st.stages, 6);
        assert_eq!(st.zone_updates, 6 * 16);
    }

    #[test]
    #[should_panic(expected = "ghosts")]
    fn rejects_insufficient_ghosts() {
        let s = scheme(); // PPM needs 3
        let geom = PatchGeom::line(16, 0.0, 1.0, 2);
        let _ = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk2, geom);
    }

    #[test]
    fn gang_parallel_step_bitwise_matches_serial() {
        let s = scheme();
        let geom = PatchGeom::rect([24, 24], [0.0; 2], [1.0; 2], 3);
        let ic = |x: [f64; 3]| Prim {
            rho: 1.0 + 0.4 * (6.0 * x[0]).sin() * (4.0 * x[1]).cos(),
            vel: [0.3, -0.2, 0.0],
            p: 1.0,
        };
        let mut u_serial = init_cons(geom, &s.eos, &ic);
        let mut u_par = u_serial.clone();
        let mut solver1 = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
        let mut solver2 = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
        let pool = WorkStealingPool::new(4);
        for _ in 0..3 {
            solver1.step(&mut u_serial, 1e-3, None).unwrap();
            solver2.step(&mut u_par, 1e-3, Some(&pool)).unwrap();
        }
        assert_eq!(u_serial.raw(), u_par.raw());
    }
}
