//! The fused stage loop must be the unfused one, bit for bit.
//!
//! [`PatchSolver::step_cfl`] reads Δt from the wave-speed scan riding on
//! its stage-0 sweep instead of a `stable_dt` pre-pass. Stage 0's
//! residual does not depend on Δt, so the fused loop has to reproduce the
//! `stable_dt` + `step` loop exactly: every byte of the state (ghosts
//! included), the Δt sequence, and the statistics. The row-walking
//! conserved-variable floors are pinned the same way against a per-cell
//! reference kept here.

use rhrsc_grid::{bc, Bc, Field, PatchGeom};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_solver::scheme::{apply_conserved_floors, init_cons};
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::{Con2PrimParams, Cons, Prim};

const CFL: f64 = 0.4;

fn wavy(x: [f64; 3]) -> Prim {
    Prim {
        rho: 1.0 + 0.4 * (5.0 * x[0]).sin() * (3.0 * x[1]).cos(),
        vel: [
            0.5 * (2.0 * x[1] + 1.0).sin(),
            -0.4 * (4.0 * x[0]).cos(),
            0.2 * (3.0 * x[2] + 0.5).sin(),
        ],
        p: 1.0 + 0.3 * (4.0 * x[2]).cos() * (2.0 * x[0]).sin(),
    }
}

fn bits(f: &Field) -> Vec<u64> {
    f.raw().iter().map(|v| v.to_bits()).collect()
}

/// Drive one problem through the unfused reference loop, through
/// `step_cfl`, and through `advance_to`; all three must agree bitwise.
fn check(geom: PatchGeom, rk: RkOrder, kind: Bc, pool: Option<&WorkStealingPool>) {
    let what = format!(
        "{}D {rk:?} {kind:?} {}",
        geom.ndim(),
        if pool.is_some() { "gang" } else { "serial" }
    );
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    let bcs = bc::uniform(kind);
    let u0 = init_cons(geom, &s.eos, &wavy);
    let new_solver = || PatchSolver::new(s, bcs, rk, geom);

    // Three full steps and a clamped fourth.
    let dt0 = new_solver().stable_dt(&mut u0.clone(), CFL).unwrap();
    let t_end = 3.4 * dt0;

    let (mut reference, mut u_ref) = (new_solver(), u0.clone());
    let mut dts_ref = Vec::new();
    let mut t = 0.0;
    while t < t_end - 1e-14 {
        let mut dt = reference.stable_dt(&mut u_ref, CFL).unwrap();
        if t + dt > t_end {
            dt = t_end - t;
        }
        reference.step(&mut u_ref, dt, pool).unwrap();
        t += dt;
        dts_ref.push(dt.to_bits());
    }
    assert_eq!(dts_ref.len(), 4, "{what}: step count");

    let (mut fused, mut u_fused) = (new_solver(), u0.clone());
    let mut dts_fused = Vec::new();
    let mut t = 0.0;
    while t < t_end - 1e-14 {
        let dt = fused.step_cfl(&mut u_fused, t, t_end, CFL, pool).unwrap();
        t += dt;
        dts_fused.push(dt.to_bits());
    }
    assert_eq!(dts_fused, dts_ref, "{what}: Δt sequence");
    assert_eq!(bits(&u_fused), bits(&u_ref), "{what}: state bytes");

    let (mut advanced, mut u_adv) = (new_solver(), u0);
    let steps = advanced
        .advance_to(&mut u_adv, 0.0, t_end, CFL, pool)
        .unwrap();
    assert_eq!(steps, dts_ref.len(), "{what}: advance_to steps");
    assert_eq!(bits(&u_adv), bits(&u_ref), "{what}: advance_to bytes");

    let want = reference.stats();
    for got in [fused.stats(), advanced.stats()] {
        assert_eq!(
            (got.steps, got.stages, got.zone_updates, got.floored_cells),
            (
                want.steps,
                want.stages,
                want.zone_updates,
                want.floored_cells
            ),
            "{what}: statistics"
        );
    }
}

#[test]
fn fused_step_matches_stable_dt_then_step_bitwise() {
    let pool = WorkStealingPool::new(3);
    for geom in [
        PatchGeom::line(40, 0.0, 1.0, 3),
        PatchGeom::rect([14, 10], [0.0; 2], [1.0; 2], 3),
        PatchGeom::cube([8, 6, 5], [0.0; 3], [1.0; 3], 3),
    ] {
        for rk in RkOrder::ALL {
            for kind in [Bc::Periodic, Bc::Outflow, Bc::Reflect] {
                check(geom, rk, kind, None);
                check(geom, rk, kind, Some(&pool));
            }
        }
    }
}

#[test]
fn step_cfl_reports_a_collapsed_time_step() {
    // A NaN primitive-recovery input is reported by the recovery; a
    // degenerate grid spacing collapses Δt instead, and the interior must
    // come back untouched.
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    let geom = PatchGeom::line(16, 0.0, 1e-13, 3);
    let mut u = init_cons(geom, &s.eos, &wavy);
    let before = bits(&u);
    let mut solver = PatchSolver::new(s, bc::uniform(Bc::Periodic), RkOrder::Rk3, geom);
    let err = solver.step_cfl(&mut u, 0.0, 1.0, CFL, None).unwrap_err();
    assert!(
        matches!(err, rhrsc_solver::SolverError::TimestepCollapse { .. }),
        "{err}"
    );
    assert_eq!(solver.stats().steps, 0);
    assert_eq!(solver.stats().stages, 0);
    let ng = geom.ng_of(0);
    assert_eq!(
        bits(&u)
            .chunks(geom.len())
            .map(|c| c[ng..ng + 16].to_vec())
            .collect::<Vec<_>>(),
        before
            .chunks(geom.len())
            .map(|c| c[ng..ng + 16].to_vec())
            .collect::<Vec<_>>()
    );
}

/// The historical per-cell limiter, one `get_cons`/`set_cons` per cell.
fn floors_per_cell(u: &mut Field, params: &Con2PrimParams) -> usize {
    let geom = *u.geom();
    let mut touched = 0;
    for (i, j, k) in geom.interior_iter() {
        let mut c = u.get_cons(i, j, k);
        if !c.is_finite() {
            continue;
        }
        let mut dirty = false;
        if c.d < params.rho_floor {
            c.d = params.rho_floor;
            dirty = true;
        }
        if c.tau < params.p_floor {
            c.tau = params.p_floor;
            dirty = true;
        }
        let v_cap2 = 1.0 - 1.0 / (params.w_cap * params.w_cap);
        let e0 = c.tau + c.d;
        let s2_max = ((1.0 - 1e-12) * c.tau * (c.tau + 2.0 * c.d)).min(v_cap2 * e0 * e0);
        let s2 = c.ssq();
        if s2 > s2_max {
            let scale = (s2_max / s2).sqrt();
            for sc in &mut c.s {
                *sc *= scale;
            }
            dirty = true;
        }
        if dirty {
            u.set_cons(i, j, k, c);
            touched += 1;
        }
    }
    touched
}

#[test]
fn row_walking_floors_match_the_per_cell_reference() {
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    for geom in [
        PatchGeom::line(12, 0.0, 1.0, 3),
        PatchGeom::rect([9, 7], [0.0; 2], [1.0; 2], 3),
        PatchGeom::cube([6, 5, 4], [0.0; 3], [1.0; 3], 2),
    ] {
        let mut u = init_cons(geom, &s.eos, &wavy);
        let (g0, g1, g2) = (geom.ng_of(0), geom.ng_of(1), geom.ng_of(2));
        // Sub-floor D, negative τ, super-admissible |S|, all three at
        // once, and a NaN cell, at interior edges and in between.
        let (i1, j1, k1) = (g0 + geom.n[0] - 1, g1 + geom.n[1] - 1, g2 + geom.n[2] - 1);
        let healthy = u.get_cons(g0 + 2, g1, g2);
        u.set_cons(
            g0,
            g1,
            g2,
            Cons {
                d: 1e-20,
                ..healthy
            },
        );
        u.set_cons(
            i1,
            g1,
            g2,
            Cons {
                tau: -0.5,
                ..healthy
            },
        );
        u.set_cons(
            g0 + 1,
            j1,
            k1,
            Cons {
                s: [50.0, -20.0, 10.0],
                ..healthy
            },
        );
        u.set_cons(
            g0 + 4,
            j1,
            k1,
            Cons {
                d: -1.0,
                s: [3.0, 4.0, 5.0],
                tau: -2.0,
            },
        );
        u.set(2, g0 + 3, g1, g2, f64::NAN);
        // An inadmissible ghost cell: the limiter is interior-only.
        u.set_cons(
            0,
            0,
            0,
            Cons {
                tau: -1.0,
                ..healthy
            },
        );

        let mut by_cell = u.clone();
        let want = floors_per_cell(&mut by_cell, &s.c2p);
        let got = apply_conserved_floors(&mut u, &s.c2p);
        assert_eq!(want, 4, "{}D: reference touched count", geom.ndim());
        assert_eq!(got, want, "{}D: touched count", geom.ndim());
        assert_eq!(bits(&u), bits(&by_cell), "{}D: bytes", geom.ndim());
        assert!(u.at(2, g0 + 3, g1, g2).is_nan(), "NaN must be left alone");
        assert_eq!(u.at(4, 0, 0, 0), -1.0, "ghosts must be left alone");
    }
}
