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

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_solver::diag::max_lorentz;
use rhrsc_solver::problems::Problem;
use rhrsc_srhd::recon::{Limiter, Recon};
use rhrsc_srhd::riemann::RiemannSolver;

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
    let mut runner = Runner::start();
    let mut survived = 0u64;

    let mut table = Table::new(&[
        "riemann", "recon", "boost_v", "W_bulk", "status", "L1(rho)", "W_max",
    ]);
    for (rs, recon) in combos {
        for &vb in boosts {
            let w_bulk = 1.0 / (1.0 - vb * vb).sqrt();
            let prob = Problem::boosted_sod(vb);
            let mut row = Row::new(&prob, n);
            row.scheme.riemann = rs;
            row.scheme.recon = recon;
            row.cfl = 0.25;
            let out = runner.run(row);
            survived += out.result.is_ok() as u64;
            let (status, l1, wmax) = match &out.result {
                Ok(_) => match out.l1() {
                    Ok((l1, prim)) => (
                        "ok".to_string(),
                        sci(l1),
                        format!("{:.1}", max_lorentz(&prim)),
                    ),
                    Err(e) => (format!("post-fail: {e}"), "-".into(), "-".into()),
                },
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
    runner.finish(&opts, Some(&table), "f8_lorentz_robustness", |r| {
        r.config_num("n", n as f64)
            .config_num("max_boost_v", *boosts.last().unwrap())
            .config_num("combos", combos.len() as f64)
            .config_num("runs", (combos.len() * boosts.len()) as f64)
            .config_num("runs_survived", survived as f64);
    });
}
