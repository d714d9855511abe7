//! The fused wave-speed scan must reproduce the two-pass Δt *bitwise*.
//!
//! No stage loop runs a dedicated primitive-recovery + `max_dt` pass: the
//! stage-0 residual sweep folds each cell's CFL rate
//! `Σ_d max(|λ−|, |λ+|) / Δx_d` into a running maximum as a side effect
//! ([`accumulate_rhs_region_scan`] with a [`WaveScan`]), and
//! [`WaveScan::dt`] turns it into the step. These tests pin the fused
//! scan to the two-pass [`max_dt`] down to the last bit — monolithic,
//! tiled into the deep core and boundary shells the overlapping exchange
//! sweeps, and with the pencils spread over a gang.

use rhrsc_grid::{bc, fill_ghosts, Bc, Field, PatchGeom};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_solver::scheme::{init_cons, max_dt, recover_prims, WaveScan};
use rhrsc_solver::step::{accumulate_rhs_region_scan, Region};
use rhrsc_solver::Scheme;
use rhrsc_srhd::recon::Recon;
use rhrsc_srhd::Prim;

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

fn check_bitwise(s: &Scheme, geom: PatchGeom, ic: &dyn Fn([f64; 3]) -> Prim) {
    let prim = prepared(s, geom, ic);
    let two_pass = max_dt(s, &prim, CFL);
    let pool = WorkStealingPool::new(3);
    for mask in 0..8 {
        let waits = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
        let fused = scanned_dt(s, &prim, &deep_and_shells(s, &geom, waits), None);
        assert_eq!(
            fused.to_bits(),
            two_pass.to_bits(),
            "deep + shells, waits {waits:?}: fused {fused:e} vs two-pass {two_pass:e}"
        );
    }
    let tiled = deep_and_shells(s, &geom, [true; 3]);
    for (what, fused) in [
        (
            "monolithic",
            scanned_dt(s, &prim, &[Region::interior(&geom)], None),
        ),
        (
            "monolithic, gang",
            scanned_dt(s, &prim, &[Region::interior(&geom)], Some(&pool)),
        ),
        (
            "deep + shells, gang",
            scanned_dt(s, &prim, &tiled, Some(&pool)),
        ),
    ] {
        assert_eq!(
            fused.to_bits(),
            two_pass.to_bits(),
            "{what}: fused {fused:e} vs two-pass {two_pass:e}"
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
