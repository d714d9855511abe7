//! T2 — Shock-capturing accuracy vs the exact Riemann solution.
//!
//! Runs Sod and the two Martí–Müller blast waves at N = 400 for every
//! (Riemann solver × reconstruction) combination and reports L1(ρ) vs the
//! exact solution. `--toy` drops to N = 100.
//!
//! Expected shape: errors ordered HLLC ≤ HLL ≤ Rusanov at fixed
//! reconstruction (contact resolution), and PPM/WENO5 ≤ PLM ≤ PC at fixed
//! solver; blast2 (strongest shock) has the largest absolute errors.

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_solver::problems::Problem;
use rhrsc_srhd::recon::{Limiter, Recon};
use rhrsc_srhd::riemann::RiemannSolver;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# T2: shock-tube L1(rho) error vs exact solution, N = {n}");
    let problems = [
        Problem::sod(),
        Problem::blast_wave_1(),
        Problem::blast_wave_2(),
    ];
    let recons = [
        Recon::Pc,
        Recon::Plm(Limiter::Mc),
        Recon::Ppm,
        Recon::Ceno3,
        Recon::Mp5,
        Recon::Weno5,
    ];
    let mut runner = Runner::start();

    let mut table = Table::new(&["problem", "riemann", "recon", "L1(rho)"]);
    for prob in &problems {
        for rs in RiemannSolver::ALL {
            for recon in recons {
                let mut row = Row::new(prob, n);
                row.scheme.riemann = rs;
                row.scheme.recon = recon;
                let (l1, _) = runner.run(row).solved().l1().unwrap();
                table.row(&[
                    prob.name.clone(),
                    rs.name().to_string(),
                    recon.name().to_string(),
                    sci(l1),
                ]);
            }
        }
    }
    runner.finish(&opts, Some(&table), "t2_shock_accuracy", |r| {
        r.config_str("problem", "sod + blast1 + blast2, all riemann x recon")
            .config_num("n", n as f64)
            .config_num(
                "configs",
                (problems.len() * RiemannSolver::ALL.len() * recons.len()) as f64,
            );
    });
}
