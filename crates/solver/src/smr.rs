//! Two-level static mesh refinement (SMR) for 1D problems.
//!
//! The authors' production relativity codes are adaptive-mesh codes; this
//! module provides the structured-refinement core in its cleanest setting:
//! a coarse level covering the whole 1D domain and one embedded fine level
//! at refinement ratio 2. Two advancement modes are provided: lock-step
//! (both levels share the fine-CFL Δt, refluxed per stage) and
//! Berger–Oliger **subcycling** (the fine level takes two Δt/2 substeps
//! per coarse step with time-interpolated ghost data; conservation is
//! restored by deferred corrections built from effective-weight
//! accumulated fluxes).
//!
//! The coupling follows the standard Berger–Colella construction:
//!
//! * **prolongation** — fine ghost zones are filled from coarse data by
//!   conservative, minmod-limited linear interpolation (children average
//!   back to the parent exactly),
//! * **restriction** — after every stage, covered coarse cells are
//!   replaced by the average of their fine children,
//! * **reflux** — the coarse flux at each coarse/fine interface is
//!   replaced by the fine flux *inside the residual* of the adjacent
//!   uncovered coarse cell, which makes every Runge–Kutta combination of
//!   stages conservative by construction: the composite mass/momentum/
//!   energy integrals are preserved to round-off (asserted by tests).

use crate::integrate::RkOrder;
use crate::refine::{prolong_ghosts_from, restrict_onto, rhs_1d_with_fluxes, rk_tables};
use crate::scheme::{
    apply_conserved_floors, max_dt, prim_at, recover_prims, Geometry, Scheme, SolverError,
};
use rhrsc_grid::{fill_ghosts, BcSet, Field, PatchGeom};
use rhrsc_srhd::{Cons, Prim, NCOMP};

/// Two-level static-mesh-refinement solver for 1D problems.
pub struct SmrSolver {
    scheme: Scheme,
    bcs: BcSet,
    rk: RkOrder,
    geom_c: PatchGeom,
    geom_f: PatchGeom,
    /// Refined coarse-cell range (interior indices, `lo..hi`).
    refine: (usize, usize),
    u_c: Field,
    u_f: Field,
    prim_c: Field,
    prim_f: Field,
    rhs_c: Field,
    rhs_f: Field,
    stage_c: Field,
    stage_f: Field,
    flux_c: Vec<Cons>,
    flux_f: Vec<Cons>,
    /// Berger–Oliger time refinement: the fine level takes two Δt/2
    /// substeps per coarse step, with time-interpolated coarse ghost data
    /// and deferred (accumulated-flux) refluxing.
    subcycle: bool,
    /// Coarse state at the start of the step (ghost-interpolation anchor
    /// and reflux base) — subcycling only.
    base_c: Field,
    /// Lerp scratch for ghost prolongation at intermediate times.
    lerp_c: Field,
}

impl SmrSolver {
    /// Create a solver: `n_coarse` cells over `[x0, x1]`, with coarse
    /// interior cells `refine_lo..refine_hi` covered by a ratio-2 fine
    /// level. The refined region must leave at least two coarse cells on
    /// each side (fine ghost prolongation reads them), and the scheme
    /// must be Cartesian.
    #[allow(clippy::too_many_arguments)] // flat constructor reads best here
    pub fn new(
        scheme: Scheme,
        bcs: BcSet,
        rk: RkOrder,
        n_coarse: usize,
        x0: f64,
        x1: f64,
        refine_lo: usize,
        refine_hi: usize,
    ) -> Self {
        assert_eq!(
            scheme.geometry,
            Geometry::Cartesian,
            "SMR currently supports Cartesian geometry"
        );
        assert!(refine_lo >= 2 && refine_hi + 2 <= n_coarse && refine_lo < refine_hi);
        let ng = scheme.required_ghosts();
        let geom_c = PatchGeom::line(n_coarse, x0, x1, ng);
        let dx_c = geom_c.dx[0];
        let fx0 = x0 + refine_lo as f64 * dx_c;
        let fx1 = x0 + refine_hi as f64 * dx_c;
        let n_fine = 2 * (refine_hi - refine_lo);
        let geom_f = PatchGeom::line(n_fine, fx0, fx1, ng);
        SmrSolver {
            scheme,
            bcs,
            rk,
            geom_c,
            geom_f,
            refine: (refine_lo, refine_hi),
            u_c: Field::cons(geom_c),
            u_f: Field::cons(geom_f),
            prim_c: Field::new(geom_c, 5),
            prim_f: Field::new(geom_f, 5),
            rhs_c: Field::cons(geom_c),
            rhs_f: Field::cons(geom_f),
            stage_c: Field::cons(geom_c),
            stage_f: Field::cons(geom_f),
            flux_c: vec![Cons::ZERO; geom_c.ntot(0) + 1],
            flux_f: vec![Cons::ZERO; geom_f.ntot(0) + 1],
            subcycle: false,
            base_c: Field::cons(geom_c),
            lerp_c: Field::cons(geom_c),
        }
    }

    /// Enable Berger–Oliger subcycling: the fine level advances with two
    /// Δt/2 substeps per coarse Δt (the coarse level then runs at its own
    /// CFL limit instead of the fine one), with conservation restored by
    /// deferred flux corrections.
    pub fn with_subcycling(mut self) -> Self {
        self.subcycle = true;
        self
    }

    /// Initialize both levels from a pointwise primitive IC.
    pub fn init(&mut self, ic: &dyn Fn([f64; 3]) -> Prim) {
        self.u_c = crate::scheme::init_cons(self.geom_c, &self.scheme.eos, ic);
        self.u_f = crate::scheme::init_cons(self.geom_f, &self.scheme.eos, ic);
        self.restrict();
    }

    /// Coarse-level conserved field.
    pub fn coarse(&self) -> &Field {
        &self.u_c
    }

    /// Fine-level conserved field.
    pub fn fine(&self) -> &Field {
        &self.u_f
    }

    /// Coarse geometry.
    pub fn coarse_geom(&self) -> &PatchGeom {
        &self.geom_c
    }

    /// Fine geometry.
    pub fn fine_geom(&self) -> &PatchGeom {
        &self.geom_f
    }

    /// Restrict the fine level onto the covered coarse cells (children
    /// average).
    fn restrict(&mut self) {
        restrict_onto(
            &self.u_f,
            &mut self.u_c,
            self.geom_c.ng,
            self.geom_f.ng,
            self.geom_f.n[0],
            self.refine.0,
        );
    }

    /// Fill the fine level's ghost zones by conservative limited linear
    /// prolongation from the coarse level (whose own ghosts must already
    /// be filled and whose covered cells must be consistent).
    fn prolong_fine_ghosts(&mut self) {
        prolong_ghosts_from(
            &self.u_c,
            &mut self.u_f,
            self.geom_c.ng,
            self.geom_f.ng,
            self.geom_f.n[0],
            self.refine.0,
        );
    }

    /// Prolong fine ghosts from a *time-interpolated* coarse state
    /// `(1−θ)·base + θ·current` (subcycling: fine stages live at
    /// intermediate coarse times).
    fn prolong_fine_ghosts_lerp(&mut self, theta: f64) {
        for (o, (&a, &b)) in self
            .lerp_c
            .raw_mut()
            .iter_mut()
            .zip(self.base_c.raw().iter().zip(self.u_c.raw()))
        {
            *o = (1.0 - theta) * a + theta * b;
        }
        fill_ghosts(&mut self.lerp_c, &self.bcs);
        prolong_ghosts_from(
            &self.lerp_c,
            &mut self.u_f,
            self.geom_c.ng,
            self.geom_f.ng,
            self.geom_f.n[0],
            self.refine.0,
        );
    }

    /// One residual evaluation on both levels, including the reflux
    /// substitution. Requires `u_c`/`u_f` consistent (restricted).
    fn eval_rhs(&mut self) -> Result<(), SolverError> {
        fill_ghosts(&mut self.u_c, &self.bcs);
        recover_prims(&self.scheme, &self.u_c, &mut self.prim_c)?;
        self.prolong_fine_ghosts();
        recover_prims(&self.scheme, &self.u_f, &mut self.prim_f)?;

        rhs_1d_with_fluxes(
            &self.scheme,
            &self.prim_c,
            &mut self.rhs_c,
            &mut self.flux_c,
        );
        rhs_1d_with_fluxes(
            &self.scheme,
            &self.prim_f,
            &mut self.rhs_f,
            &mut self.flux_f,
        );

        // Reflux substitution: the uncovered coarse neighbors of the
        // refined region see the *fine* interface flux.
        let ng_c = self.geom_c.ng;
        let ng_f = self.geom_f.ng;
        let (lo, hi) = self.refine;
        let inv_dx = 1.0 / self.geom_c.dx[0];
        // Left interface: coarse interface index lo (ghost-incl ng_c+lo)
        // == fine interface ng_f.
        {
            let i = ng_c + lo - 1; // uncovered cell left of the fine patch
            let f_left = self.flux_c[ng_c + lo - 1];
            let f_right = self.flux_f[ng_f];
            self.rhs_c.set_cons(i, 0, 0, -(f_right - f_left) * inv_dx);
        }
        // Right interface: coarse interface hi == fine interface ng_f+n_f.
        {
            let i = ng_c + hi; // uncovered cell right of the fine patch
            let f_left = self.flux_f[ng_f + self.geom_f.n[0]];
            let f_right = self.flux_c[ng_c + hi + 1];
            self.rhs_c.set_cons(i, 0, 0, -(f_right - f_left) * inv_dx);
        }
        Ok(())
    }

    /// Largest stable Δt over both levels. With subcycling the fine level
    /// only needs `Δt/2 ≤ Δt_f`, so the coarse level runs at (close to)
    /// its own CFL limit — the payoff of time refinement.
    pub fn stable_dt(&mut self, cfl: f64) -> Result<f64, SolverError> {
        fill_ghosts(&mut self.u_c, &self.bcs);
        recover_prims(&self.scheme, &self.u_c, &mut self.prim_c)?;
        self.prolong_fine_ghosts();
        recover_prims(&self.scheme, &self.u_f, &mut self.prim_f)?;
        let dt_c = max_dt(&self.scheme, &self.prim_c, cfl);
        let dt_f = max_dt(&self.scheme, &self.prim_f, cfl);
        if self.subcycle {
            Ok(dt_c.min(2.0 * dt_f))
        } else {
            Ok(dt_c.min(dt_f))
        }
    }

    /// Combine the stage on both levels: `u = a·u0 + b·u + c·rhs`,
    /// followed by restriction and floors.
    fn combine(&mut self, a: f64, b: f64, c: f64, dt: f64) {
        for (u, u0, rhs, geom) in [
            (&mut self.u_c, &self.stage_c, &self.rhs_c, &self.geom_c),
            (&mut self.u_f, &self.stage_f, &self.rhs_f, &self.geom_f),
        ] {
            for (i, j, k) in geom.interior_iter() {
                let v = u0.get_cons(i, j, k) * a
                    + u.get_cons(i, j, k) * b
                    + rhs.get_cons(i, j, k) * (c * dt);
                u.set_cons(i, j, k, v);
            }
        }
        apply_conserved_floors(&mut self.u_c, &self.scheme.c2p);
        apply_conserved_floors(&mut self.u_f, &self.scheme.c2p);
        self.restrict();
    }

    /// Advance both levels by one step of size `dt` (lock-step or
    /// subcycled, per construction).
    pub fn step(&mut self, dt: f64) -> Result<(), SolverError> {
        if self.subcycle {
            return self.step_subcycled(dt);
        }
        self.stage_c.raw_mut().copy_from_slice(self.u_c.raw());
        self.stage_f.raw_mut().copy_from_slice(self.u_f.raw());
        let (stages, _, _) = rk_tables(self.rk);
        for &(a, b, c) in stages {
            self.eval_rhs()?;
            self.combine(a, b, c, dt);
        }
        Ok(())
    }

    /// Single-level stage combine: `u = a·u0 + b·u + c·dt·rhs` + floors.
    fn combine_level(&mut self, coarse: bool, a: f64, b: f64, c: f64, dt: f64) {
        let (u, u0, rhs, geom) = if coarse {
            (&mut self.u_c, &self.stage_c, &self.rhs_c, &self.geom_c)
        } else {
            (&mut self.u_f, &self.stage_f, &self.rhs_f, &self.geom_f)
        };
        for (i, j, k) in geom.interior_iter() {
            let v = u0.get_cons(i, j, k) * a
                + u.get_cons(i, j, k) * b
                + rhs.get_cons(i, j, k) * (c * dt);
            u.set_cons(i, j, k, v);
        }
        apply_conserved_floors(u, &self.scheme.c2p);
    }

    /// Berger–Oliger subcycled step: coarse at Δt, fine at 2×Δt/2, then
    /// restriction and deferred reflux.
    fn step_subcycled(&mut self, dt: f64) -> Result<(), SolverError> {
        let (stages, weights, ctimes) = rk_tables(self.rk);
        let ng_c = self.geom_c.ng;
        let ng_f = self.geom_f.ng;
        let (lo, hi) = self.refine;
        let (ifc_l, ifc_r) = (ng_c + lo, ng_c + hi);
        let (iff_l, iff_r) = (ng_f, ng_f + self.geom_f.n[0]);

        self.base_c.raw_mut().copy_from_slice(self.u_c.raw());

        // --- coarse step, accumulating effective interface fluxes --------
        let mut acc_c = [Cons::ZERO; 2];
        self.stage_c.raw_mut().copy_from_slice(self.u_c.raw());
        for (si, &(a, b, c)) in stages.iter().enumerate() {
            fill_ghosts(&mut self.u_c, &self.bcs);
            recover_prims(&self.scheme, &self.u_c, &mut self.prim_c)?;
            rhs_1d_with_fluxes(
                &self.scheme,
                &self.prim_c,
                &mut self.rhs_c,
                &mut self.flux_c,
            );
            acc_c[0] += self.flux_c[ifc_l] * weights[si];
            acc_c[1] += self.flux_c[ifc_r] * weights[si];
            self.combine_level(true, a, b, c, dt);
        }

        // --- fine level: two Δt/2 substeps with lerped ghosts ------------
        let mut acc_f = [Cons::ZERO; 2];
        for sub in 0..2 {
            self.stage_f.raw_mut().copy_from_slice(self.u_f.raw());
            for (si, &(a, b, c)) in stages.iter().enumerate() {
                let theta = (sub as f64 + ctimes[si]) * 0.5;
                self.prolong_fine_ghosts_lerp(theta);
                recover_prims(&self.scheme, &self.u_f, &mut self.prim_f)?;
                rhs_1d_with_fluxes(
                    &self.scheme,
                    &self.prim_f,
                    &mut self.rhs_f,
                    &mut self.flux_f,
                );
                acc_f[0] += self.flux_f[iff_l] * (0.5 * weights[si]);
                acc_f[1] += self.flux_f[iff_r] * (0.5 * weights[si]);
                self.combine_level(false, a, b, c, 0.5 * dt);
            }
        }

        // --- restriction + deferred reflux --------------------------------
        self.restrict();
        let k = dt / self.geom_c.dx[0];
        // Left-uncovered cell used acc_c[0] as its right flux.
        {
            let i = ng_c + lo - 1;
            let v = self.u_c.get_cons(i, 0, 0) + (acc_c[0] - acc_f[0]) * k;
            self.u_c.set_cons(i, 0, 0, v);
        }
        // Right-uncovered cell used acc_c[1] as its left flux.
        {
            let i = ng_c + hi;
            let v = self.u_c.get_cons(i, 0, 0) + (acc_f[1] - acc_c[1]) * k;
            self.u_c.set_cons(i, 0, 0, v);
        }
        apply_conserved_floors(&mut self.u_c, &self.scheme.c2p);
        Ok(())
    }

    /// Advance to `t_end` under CFL control; returns the step count.
    pub fn advance_to(&mut self, t0: f64, t_end: f64, cfl: f64) -> Result<usize, SolverError> {
        let mut t = t0;
        let mut steps = 0;
        while t < t_end - 1e-14 {
            let mut dt = self.stable_dt(cfl)?;
            // Negated form deliberately catches NaN as a collapse.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(dt > 1e-14) {
                return Err(SolverError::TimestepCollapse { dt });
            }
            if t + dt > t_end {
                dt = t_end - t;
            }
            self.step(dt)?;
            t += dt;
            steps += 1;
        }
        Ok(steps)
    }

    /// Composite conserved totals: uncovered coarse cells plus the fine
    /// level (exactly what the reflux construction conserves).
    pub fn composite_totals(&self) -> [f64; NCOMP] {
        let ng_c = self.geom_c.ng;
        let (lo, hi) = self.refine;
        let mut out = [0.0; NCOMP];
        for i in 0..self.geom_c.n[0] {
            if (lo..hi).contains(&i) {
                continue;
            }
            let u = self.u_c.get_cons(ng_c + i, 0, 0).to_array();
            for c in 0..NCOMP {
                out[c] += u[c] * self.geom_c.dx[0];
            }
        }
        let ng_f = self.geom_f.ng;
        for i in 0..self.geom_f.n[0] {
            let u = self.u_f.get_cons(ng_f + i, 0, 0).to_array();
            for c in 0..NCOMP {
                out[c] += u[c] * self.geom_f.dx[0];
            }
        }
        out
    }

    /// Composite L1(ρ) error against an exact solution at time `t`,
    /// integrated over the composite (uncovered coarse + fine) grid.
    pub fn l1_density_error(
        &mut self,
        exact: &dyn Fn([f64; 3], f64) -> Prim,
        t: f64,
    ) -> Result<f64, SolverError> {
        fill_ghosts(&mut self.u_c, &self.bcs);
        recover_prims(&self.scheme, &self.u_c, &mut self.prim_c)?;
        self.prolong_fine_ghosts();
        recover_prims(&self.scheme, &self.u_f, &mut self.prim_f)?;
        let ng_c = self.geom_c.ng;
        let (lo, hi) = self.refine;
        let mut l1 = 0.0;
        for i in 0..self.geom_c.n[0] {
            if (lo..hi).contains(&i) {
                continue;
            }
            let x = self.geom_c.center(ng_c + i, 0, 0);
            l1 += (prim_at(&self.prim_c, ng_c + i, 0, 0).rho - exact(x, t).rho).abs()
                * self.geom_c.dx[0];
        }
        let ng_f = self.geom_f.ng;
        for i in 0..self.geom_f.n[0] {
            let x = self.geom_f.center(ng_f + i, 0, 0);
            l1 += (prim_at(&self.prim_f, ng_f + i, 0, 0).rho - exact(x, t).rho).abs()
                * self.geom_f.dx[0];
        }
        // Normalize by the domain length (matches diag::l1_density_error's
        // per-cell average on a uniform grid).
        let len = self.geom_c.n[0] as f64 * self.geom_c.dx[0];
        Ok(l1 / len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Problem;
    use crate::scheme::init_cons;
    use crate::PatchSolver;
    use rhrsc_grid::{bc, Bc};

    fn scheme() -> Scheme {
        Scheme::default_with_gamma(5.0 / 3.0)
    }

    #[test]
    fn uniform_state_stays_uniform() {
        let mut smr = SmrSolver::new(
            scheme(),
            bc::uniform(Bc::Periodic),
            RkOrder::Rk3,
            64,
            0.0,
            1.0,
            20,
            44,
        );
        smr.init(&|_| Prim::new_1d(1.0, 0.3, 2.0));
        smr.advance_to(0.0, 0.1, 0.4).unwrap();
        let ng = smr.coarse_geom().ng;
        for i in 0..64 {
            let u = smr.coarse().get_cons(ng + i, 0, 0);
            let w = Prim::new_1d(1.0, 0.3, 2.0).to_cons(&scheme().eos);
            assert!(
                (u.d - w.d).abs() < 1e-11,
                "coarse cell {i}: {} vs {}",
                u.d,
                w.d
            );
        }
        let ngf = smr.fine_geom().ng;
        for i in 0..smr.fine_geom().n[0] {
            let u = smr.fine().get_cons(ngf + i, 0, 0);
            let w = Prim::new_1d(1.0, 0.3, 2.0).to_cons(&scheme().eos);
            assert!((u.d - w.d).abs() < 1e-11, "fine cell {i}");
        }
    }

    #[test]
    fn composite_conservation_to_roundoff() {
        // Periodic advection with central refinement: the reflux
        // construction must conserve the composite integrals exactly.
        let mut smr = SmrSolver::new(
            scheme(),
            bc::uniform(Bc::Periodic),
            RkOrder::Rk3,
            64,
            0.0,
            1.0,
            20,
            44,
        );
        smr.init(&|x| {
            Prim::new_1d(
                1.0 + 0.4 * (2.0 * std::f64::consts::PI * x[0]).sin(),
                0.5,
                1.0,
            )
        });
        let before = smr.composite_totals();
        smr.advance_to(0.0, 0.5, 0.4).unwrap();
        let after = smr.composite_totals();
        for c in 0..NCOMP {
            assert!(
                (after[c] - before[c]).abs() <= 1e-12 * before[c].abs().max(1.0),
                "component {c}: {} -> {}",
                before[c],
                after[c]
            );
        }
    }

    #[test]
    fn wave_crosses_refinement_boundary_cleanly() {
        // Advect a density pulse through the fine region and back out; the
        // final error against the exact advected profile must be at the
        // coarse-grid level (no spurious reflections at the c/f boundary).
        let prob = Problem::density_wave(0.5, 0.3);
        let mut smr = SmrSolver::new(scheme(), prob.bcs, RkOrder::Rk3, 64, 0.0, 1.0, 24, 40);
        smr.init(&|x| (prob.ic)(x));
        smr.advance_to(0.0, 2.0, 0.4).unwrap(); // one full period
        let exact = prob.exact.clone().unwrap();
        let l1 = smr.l1_density_error(&*exact, 2.0).unwrap();

        // Uniform-coarse reference.
        let s = scheme();
        let geom = PatchGeom::line(64, 0.0, 1.0, s.required_ghosts());
        let mut u = init_cons(geom, &s.eos, &|x| (prob.ic)(x));
        let mut solver = PatchSolver::new(s, prob.bcs, RkOrder::Rk3, geom);
        solver.advance_to(&mut u, 0.0, 2.0, 0.4, None).unwrap();
        let (l1_coarse, _) = crate::diag::l1_density_error(&s, &u, &exact, 2.0).unwrap();

        assert!(
            l1 < 1.5 * l1_coarse,
            "SMR error {l1} should not exceed the coarse error {l1_coarse} (no reflections)"
        );
    }

    #[test]
    fn sod_with_refined_wave_region_beats_uniform_coarse() {
        // Refine where the Riemann fan lives; the composite error must
        // land between uniform-coarse and uniform-fine.
        let prob = Problem::sod();
        let s = scheme();
        let exact = prob.exact.clone().unwrap();

        let err_uniform = |n: usize| -> f64 {
            let geom = PatchGeom::line(n, 0.0, 1.0, s.required_ghosts());
            let mut u = init_cons(geom, &s.eos, &|x| (prob.ic)(x));
            let mut solver = PatchSolver::new(s, prob.bcs, RkOrder::Rk3, geom);
            solver
                .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
                .unwrap();
            crate::diag::l1_density_error(&s, &u, &exact, prob.t_end)
                .unwrap()
                .0
        };
        let e_coarse = err_uniform(100);
        let e_fine = err_uniform(200);

        let mut smr = SmrSolver::new(s, prob.bcs, RkOrder::Rk3, 100, 0.0, 1.0, 20, 95);
        smr.init(&|x| (prob.ic)(x));
        smr.advance_to(0.0, prob.t_end, 0.4).unwrap();
        let e_smr = smr.l1_density_error(&*exact, prob.t_end).unwrap();

        assert!(
            e_smr < e_coarse,
            "SMR {e_smr} must beat uniform-coarse {e_coarse}"
        );
        assert!(
            e_smr < 1.35 * e_fine,
            "SMR {e_smr} should approach uniform-fine {e_fine}"
        );
    }

    #[test]
    fn prolongation_preserves_parent_averages() {
        let mut smr = SmrSolver::new(
            scheme(),
            bc::uniform(Bc::Outflow),
            RkOrder::Rk2,
            32,
            0.0,
            1.0,
            10,
            22,
        );
        smr.init(&|x| Prim::new_1d(1.0 + x[0], 0.1, 1.0 + 0.5 * x[0]));
        fill_ghosts(&mut smr.u_c, &smr.bcs);
        smr.prolong_fine_ghosts();
        // Check the left ghost pair children average to the coarse parent.
        let ng_c = smr.geom_c.ng;
        let ng_f = smr.geom_f.ng;
        let (lo, _) = smr.refine;
        for c in 0..NCOMP {
            let parent = smr.u_c.at(c, ng_c + lo - 1, 0, 0);
            let ch_l = smr.u_f.at(c, ng_f - 2, 0, 0);
            let ch_r = smr.u_f.at(c, ng_f - 1, 0, 0);
            assert!(
                (0.5 * (ch_l + ch_r) - parent).abs() < 1e-13,
                "component {c}: {} vs {}",
                0.5 * (ch_l + ch_r),
                parent
            );
        }
    }

    #[test]
    fn subcycled_conservation_to_roundoff() {
        let mut smr = SmrSolver::new(
            scheme(),
            bc::uniform(Bc::Periodic),
            RkOrder::Rk3,
            64,
            0.0,
            1.0,
            20,
            44,
        )
        .with_subcycling();
        smr.init(&|x| {
            Prim::new_1d(
                1.0 + 0.4 * (2.0 * std::f64::consts::PI * x[0]).sin(),
                0.5,
                1.0,
            )
        });
        let before = smr.composite_totals();
        smr.advance_to(0.0, 0.5, 0.4).unwrap();
        let after = smr.composite_totals();
        for c in 0..NCOMP {
            assert!(
                (after[c] - before[c]).abs() <= 1e-12 * before[c].abs().max(1.0),
                "component {c}: {} -> {}",
                before[c],
                after[c]
            );
        }
    }

    #[test]
    fn subcycling_takes_fewer_steps_with_similar_accuracy() {
        // Subcycling lets the coarse level run at its own CFL limit, so a
        // whole run needs about half the steps of lock-step, with errors
        // of the same order.
        let prob = Problem::density_wave(0.5, 0.3);
        let exact = prob.exact.clone().unwrap();
        let build = |sub: bool| {
            let smr = SmrSolver::new(scheme(), prob.bcs, RkOrder::Rk3, 64, 0.0, 1.0, 24, 40);
            if sub {
                smr.with_subcycling()
            } else {
                smr
            }
        };
        let mut lock = build(false);
        lock.init(&|x| (prob.ic)(x));
        let steps_lock = lock.advance_to(0.0, 1.0, 0.4).unwrap();
        let e_lock = lock.l1_density_error(&*exact, 1.0).unwrap();

        let mut sub = build(true);
        sub.init(&|x| (prob.ic)(x));
        let steps_sub = sub.advance_to(0.0, 1.0, 0.4).unwrap();
        let e_sub = sub.l1_density_error(&*exact, 1.0).unwrap();

        assert!(
            (steps_sub as f64) < 0.65 * steps_lock as f64,
            "subcycled {steps_sub} vs lock-step {steps_lock} steps"
        );
        assert!(
            e_sub < 3.0 * e_lock,
            "subcycled error {e_sub} vs lock-step {e_lock}"
        );
    }

    #[test]
    fn subcycled_sod_accuracy() {
        // Shock crossing the refinement boundary under subcycling.
        let prob = Problem::sod();
        let exact = prob.exact.clone().unwrap();
        let mut smr = SmrSolver::new(scheme(), prob.bcs, RkOrder::Rk3, 100, 0.0, 1.0, 20, 95)
            .with_subcycling();
        smr.init(&|x| (prob.ic)(x));
        smr.advance_to(0.0, prob.t_end, 0.4).unwrap();
        let e = smr.l1_density_error(&*exact, prob.t_end).unwrap();
        // Uniform-coarse reference error is ~5.7e-3 (A5); subcycled SMR
        // must clearly beat it.
        assert!(e < 4.5e-3, "subcycled SMR error {e}");
    }

    #[test]
    #[should_panic(expected = "Cartesian")]
    fn rejects_curvilinear() {
        let s = Scheme {
            geometry: Geometry::SphericalRadial,
            ..scheme()
        };
        let _ = SmrSolver::new(
            s,
            bc::uniform(Bc::Outflow),
            RkOrder::Rk2,
            32,
            0.0,
            1.0,
            8,
            24,
        );
    }
}
