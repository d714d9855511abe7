//! SSP Runge–Kutta time integration: the one stage loop.
//!
//! [`PatchSolver`] owns the stage buffers and runs the Shu–Osher loop
//! for a single patch, and — through a halo `Coupling` — for a block of
//! the distributed driver ([`crate::driver::BlockSolver`] holds one).

use crate::refine::rk_tables;
use crate::scheme::{
    combine_floors, max_dt, recover_prims, recover_region, recover_region_resilient, RecoveryStats,
    Scheme, SolverError, WaveScan,
};
use crate::step::{sweep_axes, Region};
use rhrsc_grid::{fill_ghosts, BcSet, Field, PatchGeom};
use rhrsc_runtime::metrics::Histogram;
use rhrsc_runtime::WorkStealingPool;
use std::ops::Range;

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
pub(crate) enum StepSize {
    /// Given by the caller.
    Fixed(f64),
    /// `scale` × the Δt the coupling decides from the CFL bound of the
    /// state being stepped — read from the wave-speed scan fused into the
    /// stage-0 sweep — clamped so that `t + Δt` does not pass `t_end` of
    /// `limit = (t, t_end)`.
    Cfl {
        cfl: f64,
        scale: f64,
        limit: Option<(f64, f64)>,
    },
}

/// One residual evaluation's working set, handed to the [`Coupling`] that
/// schedules it.
pub(crate) struct Eval<'a> {
    pub(crate) bcs: &'a BcSet,
    pub(crate) u: &'a mut Field,
    pub(crate) prim: &'a mut Field,
    scheme: &'a Scheme,
    rhs: &'a mut Field,
    scan: Option<&'a WaveScan>,
    pool: Option<&'a WorkStealingPool>,
}

impl Eval<'_> {
    /// Recover the interior primitives: strictly, or — given `repairs` —
    /// through the recovery cascade, which fails no cell and counts its
    /// repairs there.
    pub(crate) fn recover(
        &mut self,
        iters: Option<&Histogram>,
        repairs: Option<&mut RecoveryStats>,
    ) -> Result<(), SolverError> {
        let interior = Region::interior(self.u.geom());
        let Some(stats) = repairs else {
            return recover_region(self.scheme, self.u, self.prim, &interior, iters, self.pool);
        };
        recover_region_resilient(self.scheme, self.u, self.prim, &interior, stats, iters);
        Ok(())
    }

    /// Sweep the residual along `axes` over `regions`. The sweep along
    /// the patch's first active axis stores into the cells it covers, and
    /// the later axes add to them: an evaluation's regions along that axis
    /// must cover the interior once, as the overlap's deep tile and shells
    /// or the whole interior do.
    pub(crate) fn sweep(&mut self, regions: &[Region], axes: Range<usize>) {
        for r in regions {
            let (scheme, axes, scan, pool) = (self.scheme, axes.clone(), self.scan, self.pool);
            sweep_axes(scheme, self.prim, self.rhs, r, axes, true, scan, pool);
        }
    }
}

/// What differs between the front-ends that share [`PatchSolver`]'s stage
/// loop: the ghosts and sweep order, the Δt decision, the failure policy
/// and the compute charge. [`Serial`] is the single patch's; the block
/// driver's halo exchange is the other ([`crate::driver`]).
pub(crate) trait Coupling {
    /// Fill the ghosts, recover the interior and sweep the residual of `e`.
    fn evaluate(&mut self, e: &mut Eval) -> Result<(), SolverError>;

    /// This step's Δt from the local CFL `bound`, and whether it is a
    /// cached value coasted on rather than decided now.
    fn decide_dt(&mut self, bound: f64) -> (f64, bool) {
        (bound, false)
    }

    /// A coasted Δt overran this step's local `bound`.
    fn overran(&mut self, _dt: f64, _bound: f64) {}

    /// Whether a local failure inside a stage waits for the end of the
    /// step, the stage pattern running on so that no peer waits on a
    /// message never sent (`LevelCoupling::fail`'s contract), or ends it.
    fn keep_going(&self) -> bool {
        false
    }

    /// Run the compute section `phase`.
    fn section<R>(&mut self, _phase: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The single-patch coupling: physical boundary conditions fill every
/// ghost, Δt is the local bound, and a failure ends the step.
struct Serial;

impl Coupling for Serial {
    /// Every ghost is a copy (or mirror image) of an interior cell, and
    /// the recovery of a copied conserved state is the copy of the
    /// recovered primitives — so only the interior is recovered and the
    /// boundary conditions are applied to the primitives, whose component
    /// `1 + d` is the normal velocity just as it is the normal momentum
    /// of `u`. The ghosts of `u` are still filled: callers see them.
    fn evaluate(&mut self, e: &mut Eval) -> Result<(), SolverError> {
        fill_ghosts(e.u, e.bcs);
        e.recover(None, None)?;
        fill_ghosts(e.prim, e.bcs);
        e.sweep(&[Region::interior(e.u.geom())], 0..3);
        Ok(())
    }
}

/// Serial/gang single-patch integrator with owned scratch storage.
pub struct PatchSolver {
    /// Numerical scheme.
    pub scheme: Scheme,
    /// Physical boundary conditions.
    pub bcs: BcSet,
    /// Runge–Kutta order.
    pub rk: RkOrder,
    /// Primitives: of the interior, recovered each stage, and of the
    /// ghosts, filled by the coupling.
    pub(crate) prim: Field,
    /// The residual of the last evaluation, stored by its first sweep.
    pub(crate) rhs: Field,
    u_stage: Field,
    /// Running maximum of the CFL rate over the last stage-0 sweep.
    pub(crate) scan: WaveScan,
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
    /// This is the *unfused* path: a ghost fill, a primitive recovery and
    /// a [`max_dt`] pass of their own. The advance loop does not call it —
    /// [`PatchSolver::step_cfl`] reads the same Δt, bitwise, from the scan
    /// riding on the stage-0 sweep, which reduces with `max_dt`'s one
    /// CFL-rate kernel — but it stays public for callers that need a Δt
    /// without taking a step. What checks that kernel independently is
    /// the oracle in `dt_scan_equivalence`, spelled from `signal_speeds`.
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

    /// Evaluate `rhs = L(u)` through `link`, with the wave-speed scan
    /// riding on the sweeps when `scan` is set. No cell of the residual
    /// depends on what `rhs` held before: the first sweep stores it, and
    /// an evaluation that fails zeroes it, so that a stage the ladder's
    /// attempt runs on after a failure combines no stale residual.
    pub(crate) fn eval_rhs<C: Coupling>(
        &mut self,
        link: &mut C,
        u: &mut Field,
        scan: bool,
        pool: Option<&WorkStealingPool>,
    ) -> Result<(), SolverError> {
        if scan {
            self.scan.reset();
        }
        let out = link.evaluate(&mut Eval {
            bcs: &self.bcs,
            u,
            prim: &mut self.prim,
            scheme: &self.scheme,
            rhs: &mut self.rhs,
            scan: scan.then_some(&self.scan),
            pool,
        });
        if out.is_err() {
            self.rhs.raw_mut().fill(0.0);
        }
        out
    }

    /// The one stage loop, of the patch and the block front-ends alike:
    /// `link` supplies what differs between them. Returns the Δt taken.
    ///
    /// Stage 0's residual does not depend on Δt, so deciding Δt after it
    /// is bitwise the "Δt first, then step" order. `u^n` is snapshotted
    /// after that evaluation too: a recovery cascade may have repaired
    /// cells of `u` in it, and the later combines must start from the
    /// repaired state. (The serial evaluation writes only ghosts, which no
    /// combine reads.)
    pub(crate) fn step_sized<C: Coupling>(
        &mut self,
        link: &mut C,
        u: &mut Field,
        size: StepSize,
        pool: Option<&WorkStealingPool>,
    ) -> Result<f64, SolverError> {
        let (stages, _, _) = rk_tables(self.rk);
        let scanned = matches!(size, StepSize::Cfl { .. });
        let (mut dt, mut first) = (0.0, None);
        for (si, &(a, b, c)) in stages.iter().enumerate() {
            if let Err(e) = self.eval_rhs(link, u, scanned && si == 0, pool) {
                if !link.keep_going() {
                    return Err(e);
                }
                first.get_or_insert(e);
            }
            if si == 0 {
                if stages.len() > 1 {
                    self.u_stage.raw_mut().copy_from_slice(u.raw());
                }
                dt = match size {
                    StepSize::Fixed(dt) => dt,
                    // A coasted Δt that overruns the bound is reported, not
                    // adjusted: it must stay identical across ranks.
                    StepSize::Cfl { cfl, scale, limit } => {
                        let bound = self.scan.dt(cfl);
                        let (decided, coasted) = link.decide_dt(bound);
                        // A distributed Δt is decided identically on every
                        // rank, so a collapse's return is collective.
                        let dt = land_dt(decided * scale, limit)?;
                        if coasted && dt > bound {
                            link.overran(dt, bound);
                        }
                        dt
                    }
                };
            }
            // Shu–Osher form: u <- a u0 + b u + c Δt L(u); stage 0 has no
            // u0 term.
            let u0 = (si > 0).then_some((&self.u_stage, a));
            let floored = link.section("phase.rk.combine", || {
                combine_floors(u, b, u0, Some((&self.rhs, c * dt)), &self.scheme.c2p)
            });
            self.stats.floored_cells += floored as u64;
            self.stats.stages += 1;
            self.stats.zone_updates += u.geom().interior_len() as u64;
        }
        self.stats.steps += 1;
        first.map_or(Ok(dt), Err)
    }

    /// Advance `u` by one step of size `dt`.
    pub fn step(
        &mut self,
        u: &mut Field,
        dt: f64,
        pool: Option<&WorkStealingPool>,
    ) -> Result<(), SolverError> {
        self.step_sized(&mut Serial, u, StepSize::Fixed(dt), pool)
            .map(|_| ())
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
        let size = StepSize::Cfl {
            cfl,
            scale: 1.0,
            limit: Some((t, t_end)),
        };
        self.step_sized(&mut Serial, u, size, pool)
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

/// Land a decided Δt: one not above 1e-14 is a collapse, and with
/// `limit = (t, t_end)` one that would step past `t_end` is cut to reach
/// it. Every front-end's CFL loop takes its step size from here.
// Negated form deliberately catches NaN as a collapse.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn land_dt(dt: f64, limit: Option<(f64, f64)>) -> Result<f64, SolverError> {
    if !(dt > 1e-14) {
        return Err(SolverError::TimestepCollapse { dt });
    }
    Ok(match limit {
        Some((t, t_end)) if t + dt > t_end => t_end - t,
        _ => dt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::init_cons;
    use rhrsc_grid::{bc::uniform, Bc, PatchGeom};
    use rhrsc_srhd::{Prim, NCOMP};

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

    /// The ladder's attempt at an evaluation that sweeps and then fails,
    /// as one whose halo fails after its deep tile has been swept.
    struct SweepThenFail;

    impl Coupling for SweepThenFail {
        fn evaluate(&mut self, e: &mut Eval) -> Result<(), SolverError> {
            Serial.evaluate(e)?;
            Err(SolverError::TimestepCollapse { dt: 0.0 })
        }

        fn keep_going(&self) -> bool {
            true
        }
    }

    fn wavy(x: [f64; 3]) -> Prim {
        Prim {
            rho: 1.0 + 0.4 * (5.0 * x[0]).sin() * (3.0 * x[1]).cos(),
            vel: [0.4 * (2.0 * x[1]).sin(), -0.3 * (4.0 * x[2]).cos(), 0.2],
            p: 1.0 + 0.3 * (4.0 * x[0]).cos(),
        }
    }

    /// The first sweep stores the residual: a solver whose `rhs` is NaN
    /// before every step steps as its twin does, bit for bit.
    #[test]
    fn no_residual_depends_on_what_rhs_held() {
        let s = scheme();
        for geom in [
            PatchGeom::line(20, 0.0, 1.0, 3),
            PatchGeom::rect([10, 8], [0.0; 2], [1.0; 2], 3),
            PatchGeom::cube([6, 5, 4], [0.0; 3], [1.0; 3], 3),
        ] {
            let new = || PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
            let (mut twin, mut poisoned) = (new(), new());
            let mut u_twin = init_cons(geom, &s.eos, &wavy);
            let mut u = u_twin.clone();
            for _ in 0..3 {
                poisoned.rhs.raw_mut().fill(f64::NAN);
                let dt_twin = twin.step_cfl(&mut u_twin, 0.0, 1.0, 0.4, None).unwrap();
                let dt = poisoned.step_cfl(&mut u, 0.0, 1.0, 0.4, None).unwrap();
                assert_eq!(dt.to_bits(), dt_twin.to_bits(), "{}D: Δt", geom.ndim());
                let bits = |f: &Field| f.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&u), bits(&u_twin), "{}D: state", geom.ndim());
            }
        }
    }

    /// A failed evaluation zeroes the residual, so a stage the ladder's
    /// attempt runs on combines no stale one.
    #[test]
    fn a_failed_evaluation_leaves_rhs_zeroed() {
        let s = scheme();
        let geom = PatchGeom::rect([10, 8], [0.0; 2], [1.0; 2], 3);
        let mut u = init_cons(geom, &s.eos, &wavy);
        let before = u.clone();
        let mut solver = PatchSolver::new(s, uniform(Bc::Periodic), RkOrder::Rk3, geom);
        solver.rhs.raw_mut().fill(f64::NAN);
        let err = solver
            .step_sized(&mut SweepThenFail, &mut u, StepSize::Fixed(1e-3), None)
            .unwrap_err();
        assert!(matches!(err, SolverError::TimestepCollapse { .. }), "{err}");
        assert!(solver.rhs.raw().iter().all(|v| v.to_bits() == 0));
        assert_eq!(solver.stats().stages, 3, "every stage ran on");
        let d = before.interior_l2_distance(&u);
        assert!(d < 1e-12, "stages combined a stale residual: {d}");
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
