//! The Δt of a patch, two ways, against an oracle spelled here.
//!
//! No stage loop runs a dedicated primitive-recovery + `max_dt` pass: the
//! stage-0 residual sweep folds each cell's CFL rate
//! `Σ_d max(|λ−|, |λ+|) / Δx_d` into a running maximum as a side effect
//! ([`accumulate_rhs_region_scan`] with a [`WaveScan`]), and
//! [`WaveScan::dt`] turns it into the step. The scan and [`max_dt`] reduce
//! with one vector kernel, so comparing them with each other checks
//! little: these tests pin both to [`reference_dt`], which spells the
//! bound cell by cell from the public `signal_speeds`, down to the last
//! bit — monolithic, tiled into the deep core and boundary shells the
//! overlapping exchange sweeps, and with the pencils spread over a gang.

use rhrsc_grid::{bc, fill_ghosts, Bc, Field, PatchGeom};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_solver::scheme::{init_cons, max_dt, recover_prims, WaveScan};
use rhrsc_solver::step::{accumulate_rhs_region_scan, Region};
use rhrsc_solver::Scheme;
use rhrsc_srhd::flux::signal_speeds;
use rhrsc_srhd::recon::Recon;
use rhrsc_srhd::{Dir, Eos, Prim};

const CFL: f64 = 0.4;

fn prepared(s: &Scheme, geom: PatchGeom, ic: &dyn Fn([f64; 3]) -> Prim) -> Field {
    let mut u = init_cons(geom, &s.eos, ic);
    fill_ghosts(&mut u, &bc::uniform(Bc::Periodic));
    let mut prim = Field::new(geom, 5);
    recover_prims(s, &u, &mut prim).unwrap();
    prim
}

/// Δt from the scan riding on sweeps over `regions`.
fn scanned_dt(
    s: &Scheme,
    prim: &Field,
    regions: &[Region],
    pool: Option<&WorkStealingPool>,
) -> f64 {
    let mut rhs = Field::cons(*prim.geom());
    let scan = WaveScan::new();
    for r in regions {
        accumulate_rhs_region_scan(s, prim, &mut rhs, r, Some(&scan), pool);
    }
    scan.dt(CFL)
}

/// The deep core plus the shells beside the faces of the dimensions in
/// `waits`: the tiling of the overlap mode on a block whose other
/// dimensions are filled locally.
fn deep_and_shells(s: &Scheme, geom: &PatchGeom, waits: [bool; 3]) -> Vec<Region> {
    let (deep, mut regions) = Region::split_deep_shell(geom, s.required_ghosts(), waits);
    regions.insert(0, deep);
    regions
}

/// The CFL rate of cell `(i, j, k)`, spelled from the AoS pieces: the sum
/// of `max(|λ−|, |λ+|) / Δx_d` from `0.0` over the active directions in
/// `Dir::ALL` order. It reads the field through `Field::at` and calls no
/// solver code.
fn reference_rate(s: &Scheme, prim: &Field, (i, j, k): (usize, usize, usize)) -> f64 {
    let geom = prim.geom();
    let at = |c: usize| prim.at(c, i, j, k);
    let w = Prim {
        rho: at(0),
        vel: [at(1), at(2), at(3)],
        p: at(4),
    };
    let mut rate = 0.0;
    for dir in Dir::ALL {
        let d = dir.axis();
        if geom.active(d) {
            let (lm, lp) = signal_speeds(&s.eos, &w, dir);
            rate += lm.abs().max(lp.abs()) / geom.dx[d];
        }
    }
    rate
}

/// The stable Δt at [`CFL`]: the largest [`reference_rate`] of the
/// interior wins with `f64::max` (which skips a NaN rate), and `Δt = cfl
/// / max(rate, 10⁻³⁰)`.
fn reference_dt(s: &Scheme, prim: &Field) -> f64 {
    let mut max = 0.0f64;
    for cell in prim.geom().interior_iter() {
        max = max.max(reference_rate(s, prim, cell));
    }
    CFL / max.max(1e-30)
}

fn check_bitwise(s: &Scheme, geom: PatchGeom, ic: &dyn Fn([f64; 3]) -> Prim) {
    check_prims(s, &prepared(s, geom, ic));
}

/// `max_dt` and the scan, every way the sweeps tile and schedule it,
/// against [`reference_dt`] in `to_bits()`.
fn check_prims(s: &Scheme, prim: &Field) {
    let geom = *prim.geom();
    let want = reference_dt(s, prim);
    let two_pass = max_dt(s, prim, CFL);
    assert_eq!(
        two_pass.to_bits(),
        want.to_bits(),
        "max_dt {two_pass:e} vs reference {want:e}"
    );
    let pool = WorkStealingPool::new(3);
    for mask in 0..8 {
        let waits = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
        let fused = scanned_dt(s, prim, &deep_and_shells(s, &geom, waits), None);
        assert_eq!(
            fused.to_bits(),
            want.to_bits(),
            "deep + shells, waits {waits:?}: fused {fused:e} vs reference {want:e}"
        );
    }
    let tiled = deep_and_shells(s, &geom, [true; 3]);
    for (what, fused) in [
        (
            "monolithic",
            scanned_dt(s, prim, &[Region::interior(&geom)], None),
        ),
        (
            "monolithic, gang",
            scanned_dt(s, prim, &[Region::interior(&geom)], Some(&pool)),
        ),
        (
            "deep + shells, gang",
            scanned_dt(s, prim, &tiled, Some(&pool)),
        ),
    ] {
        assert_eq!(
            fused.to_bits(),
            want.to_bits(),
            "{what}: fused {fused:e} vs reference {want:e}"
        );
    }
}

fn wavy(x: [f64; 3]) -> Prim {
    Prim {
        rho: 1.0 + 0.4 * (5.0 * x[0]).sin() * (3.0 * x[1]).cos(),
        vel: [
            0.5 * (2.0 * x[1]).sin(),
            -0.4 * (4.0 * x[0]).cos(),
            0.2 * (3.0 * x[2]).sin(),
        ],
        p: 1.0 + 0.3 * (4.0 * x[2]).cos() * (2.0 * x[0]).sin(),
    }
}

#[test]
fn fused_scan_matches_two_pass_1d() {
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    check_bitwise(&s, PatchGeom::line(64, 0.0, 1.0, 3), &wavy);
}

#[test]
fn fused_scan_matches_two_pass_2d() {
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    check_bitwise(&s, PatchGeom::rect([20, 14], [0.0; 2], [1.0; 2], 3), &wavy);
}

#[test]
fn fused_scan_matches_two_pass_3d() {
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    check_bitwise(
        &s,
        PatchGeom::cube([10, 8, 6], [0.0; 3], [1.0; 3], 3),
        &wavy,
    );
}

#[test]
fn fused_scan_matches_two_pass_weno5_hll() {
    let s = Scheme {
        recon: Recon::Weno5,
        riemann: rhrsc_srhd::riemann::RiemannSolver::Hll,
        ..Scheme::default_with_gamma(5.0 / 3.0)
    };
    check_bitwise(&s, PatchGeom::rect([16, 12], [0.0; 2], [1.0; 2], 3), &wavy);
}

#[test]
fn scan_skips_nan_rates_like_max_dt() {
    // A NaN primitive makes that cell's rate NaN; `f64::max` drops it in
    // `max_dt`, and the running maximum must drop it the same way.
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    let geom = PatchGeom::rect([12, 10], [0.0; 2], [1.0; 2], 3);
    let mut prim = prepared(&s, geom, &wavy);
    prim.set(0, 7, 6, 0, f64::NAN);
    let two_pass = max_dt(&s, &prim, CFL);
    assert!(two_pass.is_finite());
    let fused = scanned_dt(&s, &prim, &deep_and_shells(&s, &geom, [true; 3]), None);
    assert_eq!(fused.to_bits(), two_pass.to_bits());
    check_prims(&s, &prim);
}

/// On cells of a different width along every axis (so that the order the
/// directions are summed in shows in the last bit), for three EOS in 1D,
/// 2D and 3D: every eleventh interior cell NaN in one component (its rate
/// is NaN and skipped), every seventh at rest with velocities of either
/// sign of zero, the rest wavy — including, in one field, a NaN at the
/// fastest cell, so that the largest rate is one the reduction skips.
#[test]
fn max_dt_and_the_scan_equal_the_signal_speed_oracle() {
    let geoms = [
        PatchGeom::line(61, 0.0, 1.3, 3),
        PatchGeom::rect([21, 13], [0.0; 2], [1.0, 0.7], 3),
        PatchGeom::cube([9, 8, 6], [0.0; 3], [1.0, 0.8, 0.45], 3),
    ];
    for eos in [
        Eos::ideal(5.0 / 3.0),
        Eos::ideal(4.0 / 3.0),
        Eos::TaubMathews,
    ] {
        let s = Scheme {
            eos,
            ..Scheme::default_with_gamma(5.0 / 3.0)
        };
        for geom in geoms {
            let mut prim = prepared(&s, geom, &wavy);
            for (n, (i, j, k)) in geom.interior_iter().enumerate() {
                if n % 11 == 3 {
                    prim.set(n % 5, i, j, k, f64::NAN);
                } else if n % 7 == 2 {
                    for c in 1..4 {
                        let zero = if (n / 7 + c) % 2 == 0 { 0.0 } else { -0.0 };
                        prim.set(c, i, j, k, zero);
                    }
                }
            }
            check_prims(&s, &prim);
            // The fastest cell's rate, NaN: the bound moves to the next.
            let key = |cell| {
                let rate = reference_rate(&s, &prim, cell);
                if rate.is_nan() {
                    f64::NEG_INFINITY
                } else {
                    rate
                }
            };
            let fastest = geom
                .interior_iter()
                .max_by(|&a, &b| key(a).total_cmp(&key(b)))
                .unwrap();
            let before = reference_dt(&s, &prim);
            prim.set(4, fastest.0, fastest.1, fastest.2, f64::NAN);
            assert!(reference_dt(&s, &prim) > before);
            check_prims(&s, &prim);
        }
    }
}

#[test]
fn reset_forgets_the_previous_scan() {
    let scan = WaveScan::new();
    scan.observe(3.0);
    scan.observe(f64::NAN);
    scan.observe(2.0);
    assert_eq!(scan.max_rate(), 3.0);
    scan.reset();
    assert_eq!(scan.max_rate(), 0.0);
    assert_eq!(scan.dt(CFL), CFL / 1e-30);
}
