//! The lane kernels at the host's vector width.
//!
//! The workspace is compiled for baseline x86-64 (SSE2: two `f64` lanes),
//! and it stays so: a global `-C target-cpu` would also change the code of
//! everything around the solver and make binaries that fault on older
//! CPUs. Instead `vector_width!` builds a kernel once per x86 vector
//! level from one unchanged body — AVX-512F, AVX2 and the baseline — and
//! the function it defines calls the widest level the host reports
//! (`is_x86_feature_detected!` caches its answer, so the choice is one
//! load and a test per call). Other targets call the body directly.
//!
//! Bits cannot move between the levels: rustc never contracts a multiply
//! and an add into a fused multiply-add, and division, square root,
//! `min` / `max`, comparisons and selects are the same IEEE operations at
//! every width. The body must be `#[inline(always)]`, and so must every
//! kernel it calls: a call out of an arm runs baseline code.
//!
//! This file is the only one that names a target feature (a CI check
//! keeps it so).

/// Define `$vis fn $name(args) -> ret` that runs the `#[inline(always)]`
/// function `$body` (same signature) at the widest x86 vector level the
/// host has, with its arms in the module `$arms`:
///
/// ```ignore
/// vector_width! {
///     /// Documentation of the kernel.
///     pub(crate) fn kernel(x: &mut [f64]) = kernel_lanes in kernel_arms;
/// }
/// ```
///
/// Attributes written before `fn` (documentation, `#[inline(never)]`)
/// go to the function that chooses the arm.
macro_rules! vector_width {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:ident in $arms:ident;
    ) => {
        /// The arms of the kernel, one per x86 vector level.
        #[cfg(target_arch = "x86_64")]
        pub(crate) mod $arms {
            #[allow(unused_imports)]
            use super::*;

            /// The kernel compiled for AVX-512F.
            ///
            /// # Safety
            /// The host must support `avx512f`.
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn avx512f($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }

            /// The kernel compiled for AVX2.
            ///
            /// # Safety
            /// The host must support `avx2`.
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
        }

        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                if std::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the host reports AVX-512F.
                    return unsafe { $arms::avx512f($($arg),*) };
                }
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: the host reports AVX2.
                    return unsafe { $arms::avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

/// Every arm the host runs against the baseline body, in `to_bits()` (a
/// NaN against a NaN: which payload an operation hands on is the one
/// thing IEEE 754 leaves open). Vector code exists only in optimised
/// builds: CI runs these under `--release` as well.
#[cfg(test)]
#[cfg(target_arch = "x86_64")]
mod tests {
    use crate::scheme::{RawPrim, Scheme};
    use crate::step::Region;
    use rhrsc_grid::{Field, PatchGeom};
    use rhrsc_runtime::metrics::Histogram;
    use rhrsc_srhd::recon::{Limiter, Recon};
    use rhrsc_srhd::riemann::RiemannSolver;
    use rhrsc_srhd::{Cons, Dir, Eos, Prim, C2P_LANES, NCOMP};

    /// Run the kernel of the arms module `$arms` and baseline body
    /// `$body` at `$level`, one of [`host_levels`].
    macro_rules! at {
        ($level:expr, $arms:ident, $body:ident; $($arg:expr),* $(,)?) => {
            match $level {
                // SAFETY: `host_levels` lists only what the host reports.
                "avx512f" => unsafe { $arms::avx512f($($arg),*) },
                // SAFETY: as above.
                "avx2" => unsafe { $arms::avx2($($arg),*) },
                _ => $body($($arg),*),
            }
        };
    }

    /// The vector levels this host runs, widest first; `"baseline"` always.
    fn host_levels() -> Vec<&'static str> {
        let mut levels = Vec::new();
        if std::is_x86_feature_detected!("avx512f") {
            levels.push("avx512f");
        }
        if std::is_x86_feature_detected!("avx2") {
            levels.push("avx2");
        }
        levels.push("baseline");
        levels
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// `+0.0` or `-0.0`.
        fn zero(&mut self) -> f64 {
            if self.below(2) == 0 {
                0.0
            } else {
                -0.0
            }
        }
    }

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// One cell `(ρ, vx, vy, vz, p)` of a hostile pencil; `rest` is the
    /// plateau the at-rest cells repeat.
    fn hostile_cell(rng: &mut Rng, rest: [f64; NCOMP]) -> [f64; NCOMP] {
        let mut v = || 0.6 * rng.unit();
        let smooth = [1.0 + 0.5 * v(), v(), v(), v(), 1.0 + 0.5 * v()];
        match rng.below(8) {
            // At rest on a plateau, velocities ±0: the contact quadratic
            // degenerates (F_E of the fan is 0).
            0 | 1 => [rest[0], rng.zero(), rng.zero(), rng.zero(), rest[4]],
            // ρ = 10³⁰⁸ and p at or under the floor: c_s² underflows to
            // 0, so λ∓ = v_n / 1 — ±0 in every min / max of the speeds at
            // v_n = ±0, and λ_L = λ_R wherever both sides are this state.
            2 => {
                let vn = [rng.zero(), 0.5, -0.5][rng.below(3)];
                [1e308, vn, rng.zero(), vn, [1e-20, rng.zero()][rng.below(2)]]
            }
            // |v| = 1 ± 10⁻¹³: the superluminal clamp both ways.
            3 => {
                let s = 1.0 + 1e-13 * rng.unit();
                [smooth[0], s * 0.6, s * 0.8, rng.zero(), smooth[4]]
            }
            // ±0, NaN or a value under the floor in one slot.
            4 => {
                let mut w = smooth;
                let bad = [rng.zero(), f64::NAN, 1e-13, 1e-15, -1.0];
                w[rng.below(NCOMP)] = bad[rng.below(bad.len())];
                w
            }
            _ => smooth,
        }
    }

    /// `reconstruct_and_flux` at every level equals the baseline body on
    /// hostile pencils of every length from 1 to 2 · 32 + 3 cells, for
    /// every EOS × reconstruction × Riemann solver × direction.
    #[test]
    fn every_level_reconstructs_and_fluxes_the_baseline_bits() {
        use crate::step::{flux_arms, flux_lanes, with_pencil_scratch};
        let levels = host_levels();
        let recons = [
            Recon::Pc,
            Recon::Plm(Limiter::Minmod),
            Recon::Plm(Limiter::Mc),
            Recon::Plm(Limiter::VanLeer),
            Recon::Ppm,
            Recon::Ceno3,
            Recon::Mp5,
            Recon::Weno5,
        ];
        let mut rng = Rng(29);
        let (mut pencils, mut nans) = (0u64, 0u64);
        for eos in [Eos::ideal(5.0 / 3.0), Eos::TaubMathews] {
            for recon in recons {
                for riemann in RiemannSolver::ALL {
                    let scheme = Scheme {
                        eos,
                        recon,
                        riemann,
                        ..Scheme::default_with_gamma(5.0 / 3.0)
                    };
                    for dir in Dir::ALL {
                        for n in 1..=2 * C2P_LANES + 3 {
                            let g = recon.ghost();
                            let rest = [1.0 + 0.5 * rng.unit(), 0.0, 0.0, 0.0, 1.0];
                            let cells: Vec<[f64; NCOMP]> = (0..n + 2 * g)
                                .map(|_| hostile_cell(&mut rng, rest))
                                .collect();
                            let (lo, hi1) = (g, g + n + 1);
                            let flux_at = |level: &str| {
                                with_pencil_scratch(cells.len(), |s| {
                                    for c in 0..NCOMP {
                                        for (q, w) in s.q_mut(c).iter_mut().zip(&cells) {
                                            *q = w[c];
                                        }
                                    }
                                    at!(level, flux_arms, flux_lanes; &scheme, s, dir, lo, hi1);
                                    (0..NCOMP)
                                        .map(|c| s.flux(c)[lo..hi1].to_vec())
                                        .collect::<Vec<_>>()
                                })
                            };
                            let want = flux_at("baseline");
                            nans += want.iter().flatten().filter(|v| v.is_nan()).count() as u64;
                            for &level in &levels {
                                let got = flux_at(level);
                                for c in 0..NCOMP {
                                    for (j, (&g, &w)) in got[c].iter().zip(&want[c]).enumerate() {
                                        assert!(
                                            same(g, w),
                                            "{level} {eos:?} {} {} {dir:?} n = {n}: component {c} \
                                             of interface {}: {g:e}, baseline {w:e}",
                                            recon.name(),
                                            riemann.name(),
                                            lo + j
                                        );
                                    }
                                }
                            }
                            pencils += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(pencils, 2 * 8 * 3 * 3 * (2 * C2P_LANES as u64 + 3));
        assert!(
            nans > 1000,
            "the pencils no longer carry NaN: {nans} NaN fluxes"
        );
    }

    /// Patches of 1, 2 and 3 active axes, each cell a different width
    /// along every axis.
    fn hostile_geoms(ng: usize) -> [PatchGeom; 3] {
        [
            PatchGeom::line(37, 0.0, 1.3, ng),
            PatchGeom::rect([11, 9], [0.0; 2], [1.0, 0.7], ng),
            PatchGeom::cube([7, 6, 5], [0.0; 3], [1.0, 0.8, 0.45], ng),
        ]
    }

    /// `max_rate` at every level equals the baseline body on hostile rows
    /// of every length from 1 to 2 · 64 + 3 cells (past the kernel's
    /// chunk twice), for every EOS on patches of 1, 2 and 3 active axes.
    #[test]
    fn every_level_rates_the_baseline_bits() {
        use crate::scheme::{rate_arms, rate_lanes};
        let levels = host_levels();
        let mut rng = Rng(31);
        let (mut rows_seen, mut nan_cells) = (0u64, 0u64);
        for eos in [
            Eos::ideal(5.0 / 3.0),
            Eos::ideal(4.0 / 3.0),
            Eos::TaubMathews,
        ] {
            let scheme = Scheme {
                eos,
                ..Scheme::default_with_gamma(5.0 / 3.0)
            };
            for geom in hostile_geoms(3) {
                for n in 1..=2 * 64 + 3 {
                    let rest = [1.0 + 0.5 * rng.unit(), 0.0, 0.0, 0.0, 1.0];
                    let cells: Vec<[f64; NCOMP]> =
                        (0..n).map(|_| hostile_cell(&mut rng, rest)).collect();
                    nan_cells += cells
                        .iter()
                        .filter(|w| w.iter().any(|v| v.is_nan()))
                        .count() as u64;
                    let comp = |c: usize| cells.iter().map(|w| w[c]).collect::<Vec<f64>>();
                    let (rho, vx, vy, vz, p) = (comp(0), comp(1), comp(2), comp(3), comp(4));
                    let rows = [&rho[..], &vx[..], &vy[..], &vz[..], &p[..]];
                    let want = rate_lanes(&scheme, &geom, rows);
                    for &level in &levels {
                        let got = at!(level, rate_arms, rate_lanes; &scheme, &geom, rows);
                        assert!(
                            same(got, want),
                            "{level} {eos:?} {}D, {n} cells: {got:e}, baseline {want:e}",
                            geom.ndim()
                        );
                    }
                    rows_seen += 1;
                }
            }
        }
        assert_eq!(rows_seen, 3 * 3 * (2 * 64 + 3));
        assert!(
            nan_cells > 1000,
            "the rows no longer carry NaN: {nan_cells}"
        );
    }

    /// `sweep_slab` at every level equals the baseline body on fields of
    /// hostile cells (ghosts included): the residual every slab adds or
    /// stores, bit for bit, and the rate it scans — and a stored cell is
    /// the one added onto a zeroed `rhs` —, for every EOS × three schemes ×
    /// patches of 1, 2 and 3 active axes × every direction × slabs of 1,
    /// 3 and 64 lanes (runs that cross a row of the slab's transverse
    /// plane included).
    #[test]
    fn every_level_sweeps_slabs_as_the_baseline() {
        use crate::scheme::WaveScan;
        use crate::step::{slab_arms, slab_lanes, PencilScratch, SlabRhs};
        use rhrsc_srhd::recon::RECON_BLOCK;
        let levels = host_levels();
        let schemes = [
            (Recon::Ppm, RiemannSolver::Hllc),
            (Recon::Plm(Limiter::Mc), RiemannSolver::Hll),
            (Recon::Weno5, RiemannSolver::Rusanov),
        ];
        let mut rng = Rng(37);
        let mut slabs = 0u64;
        for eos in [Eos::ideal(5.0 / 3.0), Eos::TaubMathews] {
            for (recon, riemann) in schemes {
                let scheme = Scheme {
                    eos,
                    recon,
                    riemann,
                    ..Scheme::default_with_gamma(5.0 / 3.0)
                };
                for geom in hostile_geoms(recon.ghost()) {
                    let mut prim = Field::new(geom, NCOMP);
                    let rest = [1.0 + 0.5 * rng.unit(), 0.0, 0.0, 0.0, 1.0];
                    for cell in 0..geom.len() {
                        let w = hostile_cell(&mut rng, rest);
                        for (c, v) in w.into_iter().enumerate() {
                            prim.raw_mut()[c * geom.len() + cell] = v;
                        }
                    }
                    let region = Region::interior(&geom);
                    for d in (0..3).filter(|&d| geom.active(d)) {
                        let npencils = region.len() / (region.hi[d] - region.lo[d]);
                        for lanes in [1, 3, RECON_BLOCK] {
                            for first in (0..npencils).step_by(lanes) {
                                let pencils = first..npencils.min(first + lanes);
                                // A storing slab sweeps onto NaN.
                                let sweep_at = |level: &str, store: bool| {
                                    let mut rhs = Field::cons(geom);
                                    rhs.raw_mut().fill(if store { f64::NAN } else { 0.0 });
                                    let scan = WaveScan::new();
                                    let mut s = PencilScratch::default();
                                    // SAFETY: one slab on this thread;
                                    // `rhs` outlives the call.
                                    let hold = unsafe { SlabRhs::new(&mut rhs) };
                                    at!(level, slab_arms, slab_lanes;
                                        &scheme, &prim, d, &region, pencils.clone(), hold,
                                        store, Some(&scan), &mut s);
                                    (rhs, scan.max_rate())
                                };
                                let added = sweep_at("baseline", false).0;
                                for store in [false, true] {
                                    let (want, want_rate) = sweep_at("baseline", store);
                                    for &level in &levels {
                                        let (got, rate) = sweep_at(level, store);
                                        let cells = got.raw().iter().zip(want.raw());
                                        for (i, (&g, &w)) in cells.enumerate() {
                                            assert!(
                                                same(g, w),
                                                "{level} {eos:?} {} {} {}D, d = {d}, \
                                                 pencils {pencils:?}, store {store}: rhs \
                                                 slot {i}: {g:e}, baseline {w:e}",
                                                recon.name(),
                                                riemann.name(),
                                                geom.ndim()
                                            );
                                        }
                                        assert!(same(rate, want_rate), "{level}: scanned rate");
                                    }
                                    // A stored cell is the sum onto +0.0; a
                                    // cell left NaN is one the slab skips.
                                    let cells = want.raw().iter().zip(added.raw());
                                    for (i, (&w, &a)) in cells.enumerate() {
                                        let skipped = w.is_nan() && a.to_bits() == 0;
                                        assert!(
                                            same(w, a) || skipped,
                                            "stored slot {i}: {w:e}, added {a:e}"
                                        );
                                    }
                                }
                                slabs += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(slabs > 500, "{slabs} slabs");
    }

    /// One conserved cell `(D, Sx, Sy, Sz, τ)` of a stage tail: healthy,
    /// or — unless `clean` — with a sub-floor `D`, a negative `τ`, a
    /// super-admissible `|S|`, all three at once, or a NaN, an infinity or
    /// a ±0 in one slot.
    fn hostile_cons(rng: &mut Rng, clean: bool) -> [f64; NCOMP] {
        let mut v = || 0.3 * rng.unit();
        let mut c = [1.0 + v(), v(), v(), v(), 1.0 + v()];
        match rng.below(if clean { 1 } else { 10 }) {
            1 => c[0] = [1e-20, -1.0, rng.zero()][rng.below(3)],
            2 => c[4] = [-0.5, 1e-20, rng.zero()][rng.below(3)],
            3 => c[1 + rng.below(3)] = 50.0 * rng.unit(),
            4 => c = [-1.0, 3.0, 4.0, 5.0, -2.0],
            5 => c[rng.below(NCOMP)] = [f64::NAN, f64::INFINITY, rng.zero()][rng.below(3)],
            _ => {}
        }
        c
    }

    /// `combine_floors` at every level equals the baseline body — every
    /// bit of the state and the touched count — on patches of 1, 2 and 3
    /// active axes of hostile conserved cells, a third of the rows clean
    /// (rows the floor test skips beside rows it fires on), in the
    /// three-term, the two-term and the no-combine form.
    #[test]
    fn every_level_combines_and_floors_as_the_baseline() {
        use crate::scheme::{tail_arms, tail_lanes};
        let levels = host_levels();
        let params = Scheme::default_with_gamma(5.0 / 3.0).c2p;
        let mut rng = Rng(43);
        let (mut touched, mut calls) = (0, 0);
        for geom in hostile_geoms(3) {
            for _ in 0..20 {
                let nrows = geom.len() / geom.ntot(0);
                let clean: Vec<bool> = (0..nrows).map(|_| rng.below(3) == 0).collect();
                let mut field = |scale: f64| {
                    let mut f = Field::cons(geom);
                    for cell in 0..geom.len() {
                        let c = hostile_cons(&mut rng, clean[cell / geom.ntot(0)]);
                        for (comp, v) in c.into_iter().enumerate() {
                            f.raw_mut()[comp * geom.len() + cell] = v * scale;
                        }
                    }
                    f
                };
                let (u, u0, r) = (field(1.0), field(1.0), field(0.1));
                let forms = [
                    (0.25, Some((&u0, 0.75)), Some((&r, 2.5e-3))),
                    (1.0, None, Some((&r, 1e-2))),
                    (1.0, None, None),
                ];
                for (a, u0, r) in forms {
                    let tail_at = |level: &str| {
                        let mut u = u.clone();
                        let n = at!(level, tail_arms, tail_lanes; &mut u, a, u0, r, &params);
                        (u, n)
                    };
                    let (want, want_n) = tail_at("baseline");
                    for &level in &levels {
                        let (got, n) = tail_at(level);
                        assert_eq!(n, want_n, "{level} {}D: touched count", geom.ndim());
                        let cells = got.raw().iter().zip(want.raw());
                        for (i, (&g, &w)) in cells.enumerate() {
                            assert!(
                                same(g, w),
                                "{level} {}D, u0 {}, r {}: slot {i}: {g:e}, baseline {w:e}",
                                geom.ndim(),
                                u0.is_some(),
                                r.is_some()
                            );
                        }
                    }
                    (touched, calls) = (touched + want_n, calls + 1);
                }
            }
        }
        assert_eq!(calls, 3 * 20 * 3);
        assert!(touched > 1000, "the floors touched {touched} cells");
    }

    /// The conserved state of density `rho`, temperature `p/ρ = theta` and
    /// Lorentz factor `w` moving along `dir`.
    fn moving(eos: &Eos, rho: f64, theta: f64, w: f64, dir: [f64; 3]) -> Cons {
        let speed = (1.0 - 1.0 / (w * w)).sqrt();
        Prim {
            rho,
            vel: dir.map(|c| speed * c),
            p: theta * rho,
        }
        .to_cons(eos)
    }

    /// Where the recovered rows start: every block boundary falls at a
    /// different offset.
    const ALIGNMENTS: [usize; 4] = [1, 2, 1 + C2P_LANES / 2, C2P_LANES];

    /// What a recovery of cells `[i0, i1)` of the line `u` at `level`
    /// leaves: the primitive field's bits, every failure (the row is
    /// re-entered behind each) and the evaluation histogram's count and
    /// sum.
    fn recover_at(
        level: &str,
        scheme: &Scheme,
        u: &Field,
        i0: usize,
        i1: usize,
    ) -> (Vec<u64>, Vec<String>, u64, u64) {
        use crate::scheme::{row_arms, row_lanes};
        let geom = *u.geom();
        let mut prim = Field::new(geom, NCOMP);
        prim.raw_mut().fill(-7.25);
        let raw = RawPrim::new(u, &mut prim, &Region::whole(&geom));
        let hist = Histogram::default();
        let (mut failed, mut i, iters) = (Vec::new(), i0, Some(&hist));
        while let Err((bad, err)) =
            at!(level, row_arms, row_lanes; scheme, u, &raw, i, i1, 0, 0, iters)
        {
            failed.push(format!("{bad}: {err:?}"));
            i = bad + 1;
        }
        // Every NaN reads as one: which payload an operation hands on is
        // the one thing IEEE 754 leaves open.
        let bits: Vec<u64> = prim
            .raw()
            .iter()
            .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
            .collect();
        (bits, failed, hist.count(), hist.sum())
    }

    /// Rows on which the main line retires every lane — at rest, |v| =
    /// 0.45 along x, |v| = 0.86 oblique, 1 ≤ W ≤ 10; `lane_recovery` (g)
    /// pins that they retire and that they recover the scalar solver's
    /// bits — so that every block is stored whole: at every level, for
    /// rows of 1, 3, 31 and 33 cells at every alignment, the baseline
    /// body's primitives and histogram, no failure, and nothing written
    /// outside the row.
    #[test]
    fn every_level_stores_whole_blocks_as_the_baseline() {
        let levels = host_levels();
        let lens = [1, 3, C2P_LANES - 1, C2P_LANES + 1];
        let ncell = C2P_LANES + lens[3];
        let oblique = [0.48, 0.6, -0.64];
        for eos in [
            Eos::ideal(5.0 / 3.0),
            Eos::ideal(4.0 / 3.0),
            Eos::TaubMathews,
        ] {
            let scheme = Scheme {
                eos,
                ..Scheme::default_with_gamma(5.0 / 3.0)
            };
            let lorentz = |v: f64| 1.0 / (1.0 - v * v).sqrt();
            let kinds: [&dyn Fn(usize) -> Cons; 4] = [
                &|i| moving(&eos, 1.0 + 0.01 * i as f64, 1.0, 1.0, [1.0, 0.0, 0.0]),
                &|i| {
                    moving(
                        &eos,
                        1.0,
                        0.1 + 0.01 * i as f64,
                        lorentz(0.45),
                        [1.0, 0.0, 0.0],
                    )
                },
                &|i| moving(&eos, 0.5 + 0.02 * i as f64, 0.5, lorentz(0.86), oblique),
                &|i| {
                    let w = 10f64.powf(i as f64 / (ncell + 1) as f64);
                    moving(&eos, 1.0, 0.5, w, oblique)
                },
            ];
            for (kind, state) in kinds.iter().enumerate() {
                let geom = PatchGeom::line(ncell, 0.0, 1.0, 1);
                let mut u = Field::cons(geom);
                let cells: Vec<Cons> = (0..geom.ntot(0)).map(state).collect();
                for (i, &c) in cells.iter().enumerate() {
                    u.set_cons(i, 0, 0, c);
                }
                for len in lens {
                    for i0 in ALIGNMENTS {
                        let want = recover_at("baseline", &scheme, &u, i0, i0 + len);
                        assert!(want.1.is_empty() && want.2 == len as u64);
                        for (i, _) in cells.iter().enumerate() {
                            if !(i0..i0 + len).contains(&i) {
                                for comp in 0..NCOMP {
                                    let v = want.0[comp * cells.len() + i];
                                    assert_eq!(v, (-7.25f64).to_bits(), "cell {i} written");
                                }
                            }
                        }
                        for &level in &levels {
                            let got = recover_at(level, &scheme, &u, i0, i0 + len);
                            assert!(
                                got == want,
                                "{level} {eos:?} kind {kind}, {len} cells from {i0}: \
                                 recovery differs"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `recover_row` at every level equals the baseline body on the
    /// `lane_recovery` state grid (10⁻⁸ ≤ p/ρ ≤ 10⁴ × 1 ≤ W ≤ 10³ × three
    /// densities × three directions), with non-finite, superluminal,
    /// atmosphere and ±0 states strewn in, at several block alignments:
    /// the primitives, every failure and the evaluation histogram.
    #[test]
    fn every_level_recovers_the_baseline_bits() {
        let levels = host_levels();
        let dirs = [[1.0, 0.0, 0.0], [0.6, -0.8, 0.0], [0.48, 0.6, -0.64]];
        let mut rng = Rng(19);
        for eos in [
            Eos::ideal(5.0 / 3.0),
            Eos::ideal(4.0 / 3.0),
            Eos::TaubMathews,
        ] {
            let mut states = Vec::new();
            for it in 0..=60 {
                let theta = 10f64.powf(-8.0 + it as f64 / 5.0);
                for iw in 0..=30 {
                    let w = 10f64.powf(iw as f64 / 10.0);
                    for rho in [1e-3, 1.0, 37.0] {
                        for dir in dirs {
                            states.push(moving(&eos, rho, theta, w, dir));
                        }
                    }
                    let hostile = [
                        Cons {
                            d: f64::NAN,
                            ..states[states.len() - 1]
                        },
                        Cons {
                            d: 1.0,
                            s: [3.0, -4.0, 1.0],
                            tau: 0.5,
                        },
                        Cons {
                            d: 1e-13,
                            s: [0.0; 3],
                            tau: 1e-14,
                        },
                        Cons {
                            d: 1.0,
                            s: [rng.zero(), rng.zero(), rng.zero()],
                            tau: rng.zero(),
                        },
                        Cons {
                            d: rng.zero(),
                            s: [0.0; 3],
                            tau: 1.0,
                        },
                    ];
                    states.push(hostile[rng.below(hostile.len())]);
                }
            }
            let scheme = Scheme {
                eos,
                ..Scheme::default_with_gamma(5.0 / 3.0)
            };
            let geom = PatchGeom::line(states.len(), 0.0, 1.0, 1);
            let mut u = Field::cons(geom);
            for (i, &c) in states.iter().enumerate() {
                u.set_cons(1 + i, 0, 0, c);
            }
            let region = Region::interior(&geom);
            for i0 in ALIGNMENTS {
                let want = recover_at("baseline", &scheme, &u, i0, region.hi[0]);
                assert!(!want.1.is_empty(), "no state fails any more");
                for &level in &levels {
                    let got = recover_at(level, &scheme, &u, i0, region.hi[0]);
                    assert!(
                        got == want,
                        "{level} {eos:?} from cell {i0}: recovery differs"
                    );
                }
            }
        }
    }
}
