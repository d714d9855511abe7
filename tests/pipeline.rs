//! Cross-crate integration tests: full solver pipelines exercised through
//! the umbrella crate's public API, validated against exact solutions and
//! cross-checked across execution backends.

use rhrsc::comm::{run, NetworkModel};
use rhrsc::grid::{bc, Bc, CartDecomp, Field, PatchGeom};
use rhrsc::runtime::WorkStealingPool;
use rhrsc::solver::diag::{conservation_drift, conserved_totals, l1_density_error, observed_order};
use rhrsc::solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc::solver::problems::Problem;
use rhrsc::solver::scheme::init_cons;
use rhrsc::solver::{PatchSolver, RkOrder, Scheme};
use rhrsc::srhd::recon::{Limiter, Recon};
use rhrsc::srhd::riemann::RiemannSolver;
use rhrsc::srhd::Prim;
use std::time::Duration;

fn sod_scheme() -> Scheme {
    Scheme::default_with_gamma(5.0 / 3.0)
}

#[test]
fn sod_converges_to_exact_solution() {
    // L1 error must decrease with resolution and be small in absolute
    // terms (first-order in L1 at shocks).
    let prob = Problem::sod();
    let scheme = sod_scheme();
    let mut errors = Vec::new();
    for n in [100usize, 200, 400] {
        let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
        let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
        let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
        solver
            .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
            .unwrap();
        let exact = prob.exact.clone().unwrap();
        let (l1, _) = l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();
        errors.push((n, l1));
    }
    assert!(
        errors[2].1 < errors[1].1 && errors[1].1 < errors[0].1,
        "{errors:?}"
    );
    assert!(errors[2].1 < 5e-3, "N=400 error {}", errors[2].1);
    let order = observed_order(&errors);
    assert!(order > 0.6, "shock-limited order {order} (expected ~0.8-1)");
}

#[test]
fn blast_wave_1_shock_position() {
    // The computed shock front must land where the exact solution puts it
    // (within a few zones).
    let prob = Problem::blast_wave_1();
    let scheme = sod_scheme();
    let n = 400;
    let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
    let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
    let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    solver
        .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
        .unwrap();
    let (_, prim) =
        l1_density_error(&scheme, &u, &prob.exact.clone().unwrap(), prob.t_end).unwrap();
    // Find the computed shock: rightmost cell with rho > 2 (shell density
    // far exceeds the ambient 1.0).
    let g = *prim.geom();
    let mut shock_x = 0.0;
    for (i, j, k) in g.interior_iter() {
        if prim.at(0, i, j, k) > 2.0 {
            shock_x = g.center(i, j, k)[0];
        }
    }
    // Exact front position.
    let exact = prob.exact.clone().unwrap();
    let mut exact_x = 0.0;
    for i in 0..4000 {
        let x = i as f64 / 4000.0;
        if exact([x, 0.0, 0.0], prob.t_end).rho > 2.0 {
            exact_x = x;
        }
    }
    assert!(
        (shock_x - exact_x).abs() < 5.0 / n as f64,
        "shock at {shock_x}, exact {exact_x}"
    );
}

#[test]
fn taub_mathews_eos_runs_sod() {
    // The TM EOS has no exact solver, but the run must be stable and
    // conserve under periodic continuation of the tube.
    let scheme = Scheme {
        eos: rhrsc::eos::Eos::TaubMathews,
        ..sod_scheme()
    };
    let geom = PatchGeom::line(128, 0.0, 1.0, scheme.required_ghosts());
    let ic = |x: [f64; 3]| {
        if (0.25..0.75).contains(&x[0]) {
            Prim::at_rest(1.0, 1.0)
        } else {
            Prim::at_rest(0.125, 0.1)
        }
    };
    let mut u = init_cons(geom, &scheme.eos, &ic);
    let before = conserved_totals(&u);
    let mut solver = PatchSolver::new(scheme, bc::uniform(Bc::Periodic), RkOrder::Rk3, geom);
    solver.advance_to(&mut u, 0.0, 0.3, 0.4, None).unwrap();
    let after = conserved_totals(&u);
    assert!(conservation_drift(&before, &after) < 1e-12);
}

#[test]
fn all_riemann_solvers_agree_on_smooth_flow() {
    // On smooth flow the choice of approximate Riemann solver is a
    // higher-order detail: solutions must agree to O(dx^2).
    let prob = Problem::density_wave(0.3, 0.2);
    let mut results = Vec::new();
    for rs in RiemannSolver::ALL {
        let scheme = Scheme {
            riemann: rs,
            recon: Recon::Plm(Limiter::Mc),
            ..sod_scheme()
        };
        let geom = PatchGeom::line(128, 0.0, 1.0, scheme.required_ghosts());
        let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
        let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
        solver.advance_to(&mut u, 0.0, 0.2, 0.4, None).unwrap();
        results.push(u);
    }
    let d01 = results[0].interior_l2_distance(&results[1]);
    let d12 = results[1].interior_l2_distance(&results[2]);
    assert!(d01 < 1e-3, "rusanov vs hll: {d01}");
    assert!(d12 < 1e-3, "hll vs hllc: {d12}");
}

#[test]
fn distributed_heterogeneous_pipeline_end_to_end() {
    // 2D blast over 4 ranks with latency, overlap mode, gang threads —
    // everything on — must equal the serial single-patch run bitwise.
    let scheme = sod_scheme();
    let ic = |x: [f64; 3]| {
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
        Prim::at_rest(1.0, if r2 < 0.02 { 50.0 } else { 1.0 })
    };
    let cfg = DistConfig {
        scheme,
        rk: RkOrder::Rk3,
        global_n: [64, 64, 1],
        domain: ([0.0; 3], [1.0, 1.0, 1.0]),
        decomp: CartDecomp {
            dims: [2, 2, 1],
            periodic: [true, true, false],
        },
        bcs: bc::uniform(Bc::Periodic),
        cfl: 0.4,
        mode: ExchangeMode::Overlap,
        gang_threads: 2,
        dt_refresh_interval: 1,
    };
    // Serial reference.
    let geom = PatchGeom {
        n: [64, 64, 1],
        ng: scheme.required_ghosts(),
        origin: [0.0; 3],
        dx: cfg.local_geom(0).dx,
    };
    let mut u_ref = init_cons(geom, &scheme.eos, &ic);
    let mut serial = PatchSolver::new(scheme, cfg.bcs, RkOrder::Rk3, geom);
    serial.advance_to(&mut u_ref, 0.0, 0.05, 0.4, None).unwrap();

    let outs = run(
        4,
        NetworkModel::virtual_cluster(Duration::from_micros(100), f64::INFINITY),
        |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.advance_to(rank, &mut u, 0.0, 0.05).unwrap();
            solver.gather_interior(rank, &u).unwrap()
        },
    );
    let global = outs.into_iter().next().unwrap().unwrap();
    // Compare interiors.
    for c in 0..5 {
        for j in 0..64 {
            for i in 0..64 {
                let a = global.at(c, i, j, 0);
                let b = u_ref.at(c, i + 3, j + 3, 0);
                assert_eq!(a, b, "mismatch at c={c} ({i},{j})");
            }
        }
    }
}

#[test]
fn gang_pool_step_equals_serial_on_2d_riemann() {
    let prob = Problem::riemann_2d();
    let scheme = sod_scheme();
    let geom = PatchGeom::rect([48, 48], [0.0; 2], [1.0; 2], scheme.required_ghosts());
    let mut a = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
    let mut b = a.clone();
    let pool = WorkStealingPool::new(3);
    let mut s1 = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk2, geom);
    let mut s2 = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk2, geom);
    s1.advance_to(&mut a, 0.0, 0.05, 0.4, None).unwrap();
    s2.advance_to(&mut b, 0.0, 0.05, 0.4, Some(&pool)).unwrap();
    assert_eq!(a.raw(), b.raw());
}

#[test]
fn three_dimensional_blast_is_spherically_symmetric() {
    // A centered 3D blast in a cube: the density field must stay
    // symmetric under the 48 cube symmetries (here checked for axis
    // swaps and reflections through the center).
    let scheme = sod_scheme();
    let n = 24;
    let geom = PatchGeom::cube([n, n, n], [0.0; 3], [1.0; 3], scheme.required_ghosts());
    let ic = |x: [f64; 3]| {
        let r2: f64 = x.iter().map(|&c| (c - 0.5) * (c - 0.5)).sum();
        Prim::at_rest(1.0, if r2 < 0.03 { 20.0 } else { 1.0 })
    };
    let mut u = init_cons(geom, &scheme.eos, &ic);
    let mut solver = PatchSolver::new(scheme, bc::uniform(Bc::Outflow), RkOrder::Rk2, geom);
    solver.advance_to(&mut u, 0.0, 0.08, 0.4, None).unwrap();
    // The dimension-by-dimension sweeps accumulate flux differences in
    // x,y,z order, so symmetry holds only to (amplified) round-off, not
    // bitwise; a 1e-6 relative tolerance bounds the asymmetry growth.
    let g = scheme.required_ghosts();
    let at = |i: usize, j: usize, k: usize| u.at(0, i + g, j + g, k + g);
    let mut max_asym = 0.0f64;
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let v = at(i, j, k);
                max_asym = max_asym
                    .max((v - at(j, i, k)).abs()) // swap xy
                    .max((v - at(k, j, i)).abs()) // swap xz
                    .max((v - at(n - 1 - i, j, k)).abs()); // reflect x
            }
        }
    }
    assert!(max_asym < 1e-6, "blast asymmetry {max_asym}");
}

#[test]
fn reflecting_wall_bounces_flow() {
    // Flow toward a reflecting wall must bounce: total |Sx| momentum
    // reverses sign over the bounce, D is conserved.
    let scheme = sod_scheme();
    let geom = PatchGeom::line(64, 0.0, 1.0, scheme.required_ghosts());
    let ic = |_: [f64; 3]| Prim::new_1d(1.0, 0.5, 1.0);
    let mut u = init_cons(geom, &scheme.eos, &ic);
    let d0 = u.interior_integral(0);
    let mut solver = PatchSolver::new(scheme, bc::uniform(Bc::Reflect), RkOrder::Rk2, geom);
    solver.advance_to(&mut u, 0.0, 1.2, 0.4, None).unwrap();
    let d1 = u.interior_integral(0);
    assert!(
        (d1 - d0).abs() < 1e-10 * d0,
        "reflecting walls must conserve mass: {d0} -> {d1}"
    );
    // After bouncing off the right wall the bulk momentum is leftward.
    let sx: f64 = u.interior_integral(1);
    assert!(sx < 0.0, "bulk momentum should have reversed, Sx = {sx}");
}

#[test]
fn virtual_cluster_reports_consistent_stats() {
    let scheme = sod_scheme();
    let ic = |x: [f64; 3]| Prim::new_1d(1.0 + 0.3 * (std::f64::consts::TAU * x[0]).sin(), 0.4, 1.0);
    let cfg = DistConfig {
        scheme,
        rk: RkOrder::Rk2,
        global_n: [128, 1, 1],
        domain: ([0.0; 3], [1.0, 1.0, 1.0]),
        decomp: CartDecomp::line(4, true),
        bcs: bc::uniform(Bc::Periodic),
        cfl: 0.4,
        mode: ExchangeMode::BulkSynchronous,
        gang_threads: 0,
        dt_refresh_interval: 2,
    };
    let stats = run(
        4,
        NetworkModel::virtual_cluster(Duration::from_micros(10), 1e9),
        |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.advance_steps(rank, &mut u, 6).unwrap()
        },
    );
    for st in &stats {
        assert_eq!(st.steps, 6);
        assert!(st.vtime > 0.0, "virtual time must accumulate");
        assert!(st.bytes_sent > 0);
    }
}

#[test]
fn checkpoint_restart_is_bit_identical() {
    // Run Sod to t=0.2, checkpoint, restart, continue to t=0.4: the
    // result must equal the uninterrupted run bitwise.
    let prob = Problem::sod();
    let scheme = sod_scheme();
    let geom = PatchGeom::line(128, 0.0, 1.0, scheme.required_ghosts());

    let mut u_full = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
    let mut s_full = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    s_full.advance_to(&mut u_full, 0.0, 0.2, 0.4, None).unwrap();
    // Snapshot the interior mid-flight, as a one-block image.
    let (lo, hi) = ([geom.ng, 0, 0], [geom.ng + geom.n[0], 1, 1]);
    let mut data = Vec::new();
    u_full.gather_box(lo, hi, &mut data);
    let ckp = rhrsc::io::GlobalCheckpoint {
        time: 0.2,
        step: 0,
        global_n: geom.n,
        ncomp: u_full.ncomp(),
        blocks: vec![rhrsc::io::BlockRecord {
            id: 0,
            level: 0,
            offset: [0; 3],
            size: geom.n,
            data,
        }],
    };
    let path = std::env::temp_dir().join("rhrsc-restart-test.gckp");
    rhrsc::io::save_checkpoint(&path, &ckp).unwrap();
    s_full.advance_to(&mut u_full, 0.2, 0.4, 0.4, None).unwrap();

    // Restarted run (fresh solver, loaded state; the solver refills the
    // ghosts before every stage reads them).
    let loaded = rhrsc::io::load_checkpoint(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded.time, 0.2);
    let mut u_restart = Field::cons(geom);
    u_restart.scatter_box(lo, hi, &loaded.extract_span([0; 3], geom.n).unwrap());
    let mut s_restart = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    s_restart
        .advance_to(&mut u_restart, loaded.time, 0.4, 0.4, None)
        .unwrap();

    assert_eq!(
        u_full.raw(),
        u_restart.raw(),
        "restart must be bit-identical"
    );
}

#[test]
fn spherical_1d_blast_matches_3d_cartesian_shock_radius() {
    // The 1D spherical-coordinate solver must place the blast's shock
    // front where the full 3D Cartesian solver does.
    use rhrsc::solver::scheme::Geometry;
    let t_end = 0.12;
    let (p_in, r0) = (30.0, 0.12);

    // --- 1D radial run ---------------------------------------------------
    let prob = Problem::spherical_blast(p_in, r0);
    let scheme_1d = Scheme {
        geometry: Geometry::SphericalRadial,
        ..sod_scheme()
    };
    let n1 = 256;
    let geom1 = PatchGeom::line(n1, 0.0, 0.5, scheme_1d.required_ghosts());
    let mut u1 = init_cons(geom1, &scheme_1d.eos, &|x| (prob.ic)(x));
    let mut s1 = PatchSolver::new(scheme_1d, prob.bcs, RkOrder::Rk3, geom1);
    s1.advance_to(&mut u1, 0.0, t_end, 0.4, None).unwrap();
    let mut prim1 = Field::new(geom1, 5);
    rhrsc::solver::scheme::recover_prims(&scheme_1d, &u1, &mut prim1).unwrap();
    let mut r_shock_1d = 0.0;
    let mut rho_max_1d = 0.0;
    for (i, j, k) in geom1.interior_iter() {
        let rho = prim1.at(0, i, j, k);
        if rho > rho_max_1d {
            rho_max_1d = rho;
            r_shock_1d = geom1.center(i, j, k)[0];
        }
    }

    // --- 3D Cartesian run (coarse) ----------------------------------------
    let scheme_3d = sod_scheme();
    let n3 = 40;
    let geom3 = PatchGeom::cube(
        [n3, n3, n3],
        [-0.5; 3],
        [0.5; 3],
        scheme_3d.required_ghosts(),
    );
    let ic3 = |x: [f64; 3]| {
        let r = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]).sqrt();
        if r < r0 {
            Prim::at_rest(1.0, p_in)
        } else {
            Prim::at_rest(1.0, 1.0)
        }
    };
    let mut u3 = init_cons(geom3, &scheme_3d.eos, &ic3);
    let mut s3 = PatchSolver::new(scheme_3d, bc::uniform(Bc::Outflow), RkOrder::Rk3, geom3);
    s3.advance_to(&mut u3, 0.0, t_end, 0.4, None).unwrap();
    let mut prim3 = Field::new(geom3, 5);
    rhrsc::solver::scheme::recover_prims(&scheme_3d, &u3, &mut prim3).unwrap();
    // Shock radius along the +x axis through the center.
    let g = scheme_3d.required_ghosts();
    let mid = g + n3 / 2;
    let mut r_shock_3d = 0.0;
    let mut rho_max_3d = 0.0;
    for i in g + n3 / 2..g + n3 {
        let rho = prim3.at(0, i, mid, mid);
        if rho > rho_max_3d {
            rho_max_3d = rho;
            r_shock_3d = prim3.geom().center(i, mid, mid)[0];
        }
    }

    // Coarse 3D grid: agree within a few 3D cells.
    let tol = 3.0 / n3 as f64;
    assert!(
        (r_shock_1d - r_shock_3d).abs() < tol,
        "1D spherical shock at r={r_shock_1d:.4}, 3D at r={r_shock_3d:.4} (tol {tol:.4})"
    );
    // Both runs see a compressed shell.
    assert!(
        rho_max_1d > 1.3 && rho_max_3d > 1.3,
        "{rho_max_1d} {rho_max_3d}"
    );
}
