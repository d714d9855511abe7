//! F1 — Sod shock-tube profile figure.
//!
//! Regenerates the (x, ρ, v, p) series at N = 400, t = 0.4 for PPM+HLLC
//! alongside the exact solution (the classic validation figure).
//! `--toy` drops to N = 100 for CI smoke runs.

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{sci, BenchOpts};
use rhrsc_solver::problems::Problem;

fn main() {
    let opts = BenchOpts::from_args();
    // The row bound: L1(ρ) below `tol`.
    let (n, tol) = if opts.toy { (100, 2e-2) } else { (400, 5e-3) };
    println!("# F1: Sod profile, N = {n}, ppm+hllc+rk3, t = 0.4");
    let mut runner = Runner::start();
    let prob = Problem::sod();
    let out = runner.run(Row::new(&prob, n)).solved();
    let (l1, prim) = out.l1().unwrap();
    println!("  L1(rho) vs exact = {}", sci(l1));
    out.write_profile(&prim, "f1_sod_profile");
    assert!(l1 < tol, "profile accuracy regression: {l1}");

    runner.finish(&opts, None, "f1_sod_profile", |r| {
        r.config_str("problem", "sod, ppm + hllc + rk3")
            .config_num("n", n as f64)
            .config_num("l1_rho", l1);
    });
}
