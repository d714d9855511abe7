//! Shared mesh-refinement operators: conservative prolongation,
//! restriction, interface-flux-capturing residuals, and the SSP-RK
//! effective-weight tables.
//!
//! The refinement solver [`crate::amr::AmrSolver`] — adaptive, or with the
//! static layout of [`crate::amr::AmrSolver::init_static`] — is built from
//! four operators:
//!
//! * **prolongation** ([`prolong_span`] / [`prolong_ghosts_from`]) —
//!   conservative, minmod-limited linear interpolation from a coarse field
//!   into ratio-2 fine cells; the two children of a parent average back to
//!   it exactly (up to one rounding each), which is what makes regridding
//!   and ghost filling conservative,
//! * **restriction** ([`restrict_onto`]) — covered coarse cells replaced by
//!   the mean of their two fine children,
//! * **flux-capturing residual** ([`rhs_1d_with_fluxes`]) — the 1D
//!   finite-volume residual that also records every interface flux, the
//!   raw material for refluxing,
//! * **RK tables** ([`rk_tables`]) — per-stage combine coefficients plus
//!   the *effective* flux weights `b_i` and stage times `c_i` of the
//!   SSP-RK forms: the final update equals
//!   `u^{n+1} = u^n − Δt/Δx Σ_i b_i ΔF_i`, so accumulating `Σ_i b_i F_i`
//!   at an interface yields the exact time-integrated flux the reflux
//!   correction needs.
//!
//! The arithmetic here is pinned bit for bit by
//! `tests/static_amr_bit_identity.rs`; do not "simplify" the
//! floating-point expressions.

use crate::integrate::RkOrder;
use crate::scheme::{Scheme, PRIM_P, PRIM_RHO, PRIM_VX, PRIM_VY, PRIM_VZ};
use rhrsc_grid::Field;
use rhrsc_srhd::{Cons, Dir, NCOMP};

/// Per-stage `(a, b, c)` combine coefficients, effective flux weights,
/// and stage times of an SSP-RK form.
pub type RkTables = (&'static [(f64, f64, f64)], &'static [f64], &'static [f64]);

/// Effective flux weights `b_i` and stage times `c_i` of the SSP-RK forms
/// (the stage combine is `u = a·u0 + b·u + c·Δt·rhs`).
pub fn rk_tables(rk: RkOrder) -> RkTables {
    match rk {
        RkOrder::Rk1 => (&[(0.0, 1.0, 1.0)], &[1.0], &[0.0]),
        RkOrder::Rk2 => (
            &[(0.0, 1.0, 1.0), (0.5, 0.5, 0.5)],
            &[0.5, 0.5],
            &[0.0, 1.0],
        ),
        RkOrder::Rk3 => (
            &[
                (0.0, 1.0, 1.0),
                (0.75, 0.25, 0.25),
                (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
            ],
            &[1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
            &[0.0, 1.0, 0.5],
        ),
    }
}

/// The symmetric minmod limiter.
#[inline]
pub fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Conservative, minmod-limited linear prolongation of a span of fine
/// cells from coarse data.
///
/// Fine cell `f` (0-based *global fine* index relative to the fine
/// patch's first interior cell; negatives address left ghosts) maps to
/// coarse interior cell `lo + floor(f/2)` with child parity `f mod 2`
/// (0 = left child). Children are `u₀ ∓ s/4` with `s` the minmod slope of
/// the parent, so the two children of a parent average back to it
/// exactly. Fills fine global indices `f0..f1` (ghost-inclusive fine
/// index `ng_f + f`). The needed coarse stencil (`parent ± 1`) must be
/// ghost-inclusive-valid in `src_c`.
pub fn prolong_span(
    src_c: &Field,
    dst_f: &mut Field,
    ng_c: usize,
    ng_f: usize,
    lo: usize,
    f0: i64,
    f1: i64,
) {
    for f_global in f0..f1 {
        let gi_f = (ng_f as i64 + f_global) as usize;
        let ic = lo as i64 + f_global.div_euclid(2);
        let child = f_global.rem_euclid(2);
        let i = (ng_c as i64 + ic) as usize;
        for c in 0..NCOMP {
            let u_m = src_c.at(c, i - 1, 0, 0);
            let u_0 = src_c.at(c, i, 0, 0);
            let u_p = src_c.at(c, i + 1, 0, 0);
            let s = minmod(u_0 - u_m, u_p - u_0);
            let v = if child == 0 {
                u_0 - 0.25 * s
            } else {
                u_0 + 0.25 * s
            };
            dst_f.set(c, gi_f, 0, 0, v);
        }
    }
}

/// Prolong coarse data into *both ghost bands* of a fine patch: fine
/// global indices `-ng_f..0` and `n_f..n_f+ng_f`.
pub fn prolong_ghosts_from(
    src_c: &Field,
    dst_f: &mut Field,
    ng_c: usize,
    ng_f: usize,
    n_f: usize,
    lo: usize,
) {
    prolong_span(src_c, dst_f, ng_c, ng_f, lo, -(ng_f as i64), 0);
    prolong_span(
        src_c,
        dst_f,
        ng_c,
        ng_f,
        lo,
        n_f as i64,
        (n_f + ng_f) as i64,
    );
}

/// Restrict a fine level onto the covered coarse cells (children
/// average): coarse interior cells `lo..lo + n_f/2` are replaced by the
/// mean of fine interior pairs.
pub fn restrict_onto(
    src_f: &Field,
    dst_c: &mut Field,
    ng_c: usize,
    ng_f: usize,
    n_f: usize,
    lo: usize,
) {
    debug_assert_eq!(n_f % 2, 0);
    for ic in 0..n_f / 2 {
        let f0 = ng_f + 2 * ic;
        let a = src_f.get_cons(f0, 0, 0);
        let b = src_f.get_cons(f0 + 1, 0, 0);
        dst_c.set_cons(ng_c + lo + ic, 0, 0, (a + b) * 0.5);
    }
}

/// 1D residual with interface-flux capture: fills `rhs` over the interior
/// and stores the interface fluxes (`flux[j]` is the flux through the
/// ghost-inclusive interface `j`, valid for `ng..=ng+n`).
pub fn rhs_1d_with_fluxes(scheme: &Scheme, prim: &Field, rhs: &mut Field, flux: &mut [Cons]) {
    let geom = *prim.geom();
    debug_assert_eq!(geom.ndim(), 1);
    let ng = geom.ng;
    let n = geom.n[0];
    let nt = geom.ntot(0);
    let inv_dx = 1.0 / geom.dx[0];

    // Shared fused interface kernel (same scratch banks and expression
    // trees as the block sweeps — see the module header's bit-identity
    // guarantee).
    crate::step::with_pencil_scratch(nt, |s| {
        for (c, comp) in [PRIM_RHO, PRIM_VX, PRIM_VY, PRIM_VZ, PRIM_P]
            .into_iter()
            .enumerate()
        {
            prim.read_pencil(comp, 0, 0, 0, s.q_mut(c));
        }
        crate::step::reconstruct_and_flux(scheme, s, Dir::X, ng, ng + n + 1);
        for (j, fj) in flux.iter_mut().enumerate().skip(ng).take(n + 1) {
            *fj = Cons::from_array([
                s.flux(0)[j],
                s.flux(1)[j],
                s.flux(2)[j],
                s.flux(3)[j],
                s.flux(4)[j],
            ]);
        }
    });
    rhs.raw_mut().fill(0.0);
    for i in ng..ng + n {
        rhs.set_cons(i, 0, 0, -(flux[i + 1] - flux[i]) * inv_dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_grid::PatchGeom;

    #[test]
    fn minmod_basics() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-2.0, -1.0), -1.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 3.0), 0.0);
    }

    #[test]
    fn rk_tables_effective_weights_sum_to_one() {
        for rk in [RkOrder::Rk1, RkOrder::Rk2, RkOrder::Rk3] {
            let (stages, weights, ctimes) = rk_tables(rk);
            assert_eq!(stages.len(), weights.len());
            assert_eq!(stages.len(), ctimes.len());
            let sum: f64 = weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-15, "{rk:?}: Σb = {sum}");
        }
    }

    #[test]
    fn prolong_then_restrict_roundtrips_linear_data() {
        // A linear profile: minmod slope is exact, children average back
        // to the parent, restriction recovers the coarse values.
        let ng = 3;
        let geom_c = PatchGeom::line(16, 0.0, 1.0, ng);
        let mut src = Field::cons(geom_c);
        for i in 0..geom_c.ntot(0) {
            let x = geom_c.center(i, 0, 0)[0];
            src.set_cons(
                i,
                0,
                0,
                Cons {
                    d: 1.0 + x,
                    s: [0.5 * x, 0.0, 0.0],
                    tau: 2.0 - x,
                },
            );
        }
        let (lo, hi) = (4usize, 12usize);
        let n_f = 2 * (hi - lo);
        let geom_f = PatchGeom::line(n_f, 0.25, 0.75, ng);
        let mut fine = Field::cons(geom_f);
        prolong_span(&src, &mut fine, ng, ng, lo, 0, n_f as i64);

        let mut back = Field::cons(geom_c);
        restrict_onto(&fine, &mut back, ng, ng, n_f, lo);
        for ic in lo..hi {
            let want = src.get_cons(ng + ic, 0, 0);
            let got = back.get_cons(ng + ic, 0, 0);
            for (w, g) in want.to_array().iter().zip(got.to_array()) {
                assert!((w - g).abs() < 1e-14, "cell {ic}: {w} vs {g}");
            }
        }
    }
}
