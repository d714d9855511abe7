//! F1 — Sod shock-tube profile figure.
//!
//! Regenerates the (x, ρ, v, p) series at N = 400, t = 0.4 for PPM+HLLC
//! alongside the exact solution (the classic validation figure).
//! `--toy` drops to N = 100 for CI smoke runs.

use rhrsc_bench::{print_phase_table, results_dir, sci, BenchOpts, RunReport};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::{init_cons, prim_at};
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use std::io::Write;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# F1: Sod profile, N = {n}, ppm+hllc+rk3, t = 0.4");
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let prob = Problem::sod();
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
    let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
    let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    let t0 = Instant::now();
    solver
        .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
        .unwrap();
    reg.histogram("phase.advance")
        .record(t0.elapsed().as_nanos() as u64);

    let exact = prob.exact.clone().unwrap();
    let (l1, prim) = l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();
    println!("  L1(rho) vs exact = {}", sci(l1));

    let path = results_dir().join("f1_sod_profile.csv");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    writeln!(f, "x,rho,vx,p,rho_exact,vx_exact,p_exact").unwrap();
    for (i, j, k) in geom.interior_iter() {
        let x = geom.center(i, j, k);
        let w = prim_at(&prim, i, j, k);
        let ex = exact(x, prob.t_end);
        writeln!(
            f,
            "{},{},{},{},{},{},{}",
            x[0], w.rho, w.vel[0], w.p, ex.rho, ex.vel[0], ex.p
        )
        .unwrap();
    }
    println!("  -> wrote {}", path.display());
    let tol = if opts.toy { 2e-2 } else { 5e-3 };
    assert!(l1 < tol, "profile accuracy regression: {l1}");

    let snap = reg.snapshot();
    if opts.profile {
        print_phase_table("f1_sod_profile", &snap);
    }
    RunReport::new("f1_sod_profile", &opts)
        .config_str("problem", "sod, ppm + hllc + rk3")
        .config_num("n", n as f64)
        .config_num("l1_rho", l1)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(solver.stats().zone_updates as f64)
        .write(&snap);
}
