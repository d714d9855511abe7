//! F8 — Ultrarelativistic robustness.
//!
//! Boosts the Sod tube to bulk Lorentz factors up to ~160 and runs each
//! scheme combination for a short time, recording whether the run
//! completes (no conservative→primitive failure, no NaN) and the L1(ρ)
//! error against the boosted exact solution.
//!
//! Expected shape: every solver survives moderate boosts; the most
//! diffusive combination (Rusanov+PLM) is the most robust at extreme W
//! while HLLC+WENO5 is the most accurate where it survives.
//!
//! Flags: `--toy` shrinks the grid and boost sweep for smoke tests/CI,
//! `--profile` prints the phase breakdown (per-run advance time). A
//! machine-readable report is always written to
//! `results/BENCH_f8_lorentz_robustness.json`.

use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::{l1_density_error, max_lorentz};
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::recon::{Limiter, Recon};
use rhrsc_srhd::riemann::RiemannSolver;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    let (n, boosts): (usize, &[f64]) = if opts.toy {
        (100, &[0.0, 0.9, 0.99, 0.999])
    } else {
        (200, &[0.0, 0.9, 0.99, 0.999, 0.9999, 0.99998])
    };
    println!("# F8: boosted Sod tube, N = {n}, increasing bulk Lorentz factor");
    let combos: [(RiemannSolver, Recon); 3] = [
        (RiemannSolver::Rusanov, Recon::Plm(Limiter::Minmod)),
        (RiemannSolver::Hllc, Recon::Ppm),
        (RiemannSolver::Hllc, Recon::Weno5),
    ];
    let reg = Arc::new(Registry::new());
    let bench_t0 = Instant::now();
    let mut zone_updates = 0.0;
    let (mut runs, mut survived) = (0u64, 0u64);

    let mut table = Table::new(&[
        "riemann", "recon", "boost_v", "W_bulk", "status", "L1(rho)", "W_max",
    ]);
    for (rs, recon) in combos {
        for &vb in boosts {
            let w_bulk = 1.0 / (1.0 - vb * vb).sqrt();
            let prob = Problem::boosted_sod(vb);
            let scheme = Scheme {
                recon,
                riemann: rs,
                ..Scheme::default_with_gamma(5.0 / 3.0)
            };
            let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
            let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
            let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
            let t0 = Instant::now();
            let result = solver.advance_to(&mut u, 0.0, prob.t_end, 0.25, None);
            reg.histogram("phase.advance")
                .record(t0.elapsed().as_nanos() as u64);
            runs += 1;
            if let Ok(steps) = &result {
                survived += 1;
                zone_updates += (n * 3 * *steps) as f64; // cells × RK3 stages × steps
            }
            let (status, l1, wmax) = match result {
                Ok(_) => {
                    let exact = prob.exact.clone().unwrap();
                    match l1_density_error(&scheme, &u, &exact, prob.t_end) {
                        Ok((l1, prim)) => (
                            "ok".to_string(),
                            sci(l1),
                            format!("{:.1}", max_lorentz(&prim)),
                        ),
                        Err(e) => (format!("post-fail: {e}"), "-".into(), "-".into()),
                    }
                }
                Err(e) => (
                    format!("fail: {e}").chars().take(28).collect(),
                    "-".into(),
                    "-".into(),
                ),
            };
            table.row(&[
                rs.name().to_string(),
                recon.name().to_string(),
                format!("{vb}"),
                format!("{w_bulk:.1}"),
                status,
                l1,
                wmax,
            ]);
        }
    }
    let snap = reg.snapshot();
    opts.finish(&table, "f8_lorentz_robustness", "all combos pooled", &snap)
        .config_num("n", n as f64)
        .config_num("max_boost_v", *boosts.last().unwrap())
        .config_num("combos", combos.len() as f64)
        .config_num("runs", runs as f64)
        .config_num("runs_survived", survived as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(zone_updates)
        .write(&snap);
}
