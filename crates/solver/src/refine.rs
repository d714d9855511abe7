//! Shared mesh-refinement operators: conservative prolongation,
//! restriction, and the SSP-RK effective-weight tables.
//!
//! The refinement solver [`crate::amr::AmrSolver`] — adaptive, or with the
//! static layout of [`crate::amr::AmrSolver::init_static`] — is built from
//! three operators and the shared pencil kernel:
//!
//! * **prolongation** ([`prolong_span`] / [`prolong_ghosts_from`]) —
//!   conservative, minmod-limited linear interpolation from a coarse field
//!   into ratio-2 fine cells; the two children of a parent average back to
//!   it exactly (up to one rounding each), which is what makes regridding
//!   and ghost filling conservative. [`ghost_stencils`] names the coarse
//!   cells a ghost prolongation reads, so a caller can prepare exactly
//!   those,
//! * **restriction** ([`restrict_onto`]) — covered coarse cells replaced by
//!   the mean of their two fine children,
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
use rhrsc_grid::Field;
use rhrsc_srhd::NCOMP;
use std::ops::Range;

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
/// index `ng_f + f`) of the line fields `src_c` → `dst_f`. The needed
/// coarse stencil (`parent ± 1`) must be ghost-inclusive-valid in `src_c`.
pub fn prolong_span(
    src_c: &Field,
    dst_f: &mut Field,
    ng_c: usize,
    ng_f: usize,
    lo: usize,
    f0: i64,
    f1: i64,
) {
    let (len_c, len_f) = (src_c.geom().len(), dst_f.geom().len());
    let dst = dst_f.raw_mut();
    for c in 0..NCOMP {
        let src = &src_c.raw()[c * len_c..(c + 1) * len_c];
        let dst = &mut dst[c * len_f..(c + 1) * len_f];
        for f_global in f0..f1 {
            let i = parent_cell(ng_c, lo, f_global);
            let (u_m, u_0, u_p) = (src[i - 1], src[i], src[i + 1]);
            let s = minmod(u_0 - u_m, u_p - u_0);
            dst[(ng_f as i64 + f_global) as usize] = if f_global.rem_euclid(2) == 0 {
                u_0 - 0.25 * s
            } else {
                u_0 + 0.25 * s
            };
        }
    }
}

/// Ghost-inclusive index of the coarse cell that holds fine cell
/// `f_global` (the [`prolong_span`] convention).
fn parent_cell(ng_c: usize, lo: usize, f_global: i64) -> usize {
    ((ng_c + lo) as i64 + f_global.div_euclid(2)) as usize
}

/// The two ghost bands of a fine patch, as fine global index spans:
/// `-ng_f..0` and `n_f..n_f+ng_f`.
fn ghost_bands(ng_f: usize, n_f: usize) -> [(i64, i64); 2] {
    [(-(ng_f as i64), 0), (n_f as i64, (n_f + ng_f) as i64)]
}

/// Prolong coarse data into *both ghost bands* of a fine patch.
pub fn prolong_ghosts_from(
    src_c: &Field,
    dst_f: &mut Field,
    ng_c: usize,
    ng_f: usize,
    n_f: usize,
    lo: usize,
) {
    for (f0, f1) in ghost_bands(ng_f, n_f) {
        prolong_span(src_c, dst_f, ng_c, ng_f, lo, f0, f1);
    }
}

/// The coarse cells (ghost-inclusive, one range per ghost band) that
/// [`prolong_ghosts_from`] reads with the same arguments: each band's
/// parent cells and their minmod neighbours.
pub fn ghost_stencils(ng_c: usize, ng_f: usize, n_f: usize, lo: usize) -> [Range<usize>; 2] {
    ghost_bands(ng_f, n_f)
        .map(|(f0, f1)| parent_cell(ng_c, lo, f0) - 1..parent_cell(ng_c, lo, f1 - 1) + 2)
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

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_grid::PatchGeom;
    use rhrsc_srhd::Cons;

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

    #[test]
    fn ghost_stencils_are_exactly_what_ghost_prolongation_reads() {
        // On convex data (every minmod picks the left slope), NaN outside
        // the stencils leaves every ghost bit for bit as it was, and a NaN
        // in any one stencil cell changes a ghost.
        for ng in [1, 2, 3] {
            let geom_c = PatchGeom::line(16, 0.0, 1.0, ng);
            let (lo, n_f) = (5usize, 8usize);
            let geom_f = PatchGeom::line(n_f, 0.3125, 0.5625, ng);
            let stencils = ghost_stencils(ng, ng, n_f, lo);
            let in_stencil = |i: usize| stencils.iter().any(|r| r.contains(&i));
            let ghosts = |nan: &dyn Fn(usize) -> bool| {
                let mut src = Field::cons(geom_c);
                for i in 0..geom_c.ntot(0) {
                    for c in 0..NCOMP {
                        let v = if nan(i) { f64::NAN } else { (i * i + c) as f64 };
                        src.set(c, i, 0, 0, v);
                    }
                }
                let mut dst = Field::cons(geom_f);
                prolong_ghosts_from(&src, &mut dst, ng, ng, n_f, lo);
                let cells = (0..ng).chain(ng + n_f..2 * ng + n_f);
                cells
                    .flat_map(|i| (0..NCOMP).map(move |c| (c, i)))
                    .map(|(c, i)| dst.at(c, i, 0, 0).to_bits())
                    .collect::<Vec<_>>()
            };
            let clean = ghosts(&|_| false);
            assert_eq!(
                ghosts(&|i| !in_stencil(i)),
                clean,
                "ng {ng}: read outside {stencils:?}"
            );
            for j in stencils.iter().flat_map(|r| r.clone()) {
                assert_ne!(
                    ghosts(&|i| i == j),
                    clean,
                    "ng {ng}: stencil cell {j} is not read"
                );
            }
        }
    }
}
