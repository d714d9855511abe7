//! T2 — Shock-capturing accuracy vs the exact Riemann solution.
//!
//! Runs Sod and the two Martí–Müller blast waves at N = 400 for every
//! (Riemann solver × reconstruction) combination and reports L1(ρ) vs the
//! exact solution. `--toy` drops to N = 100.
//!
//! Expected shape: errors ordered HLLC ≤ HLL ≤ Rusanov at fixed
//! reconstruction (contact resolution), and PPM/WENO5 ≤ PLM ≤ PC at fixed
//! solver; blast2 (strongest shock) has the largest absolute errors.

use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::recon::{Limiter, Recon};
use rhrsc_srhd::riemann::RiemannSolver;
use std::time::Instant;

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
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let mut zone_updates = 0u64;

    let mut table = Table::new(&["problem", "riemann", "recon", "L1(rho)"]);
    for prob in &problems {
        for rs in RiemannSolver::ALL {
            for recon in recons {
                let scheme = Scheme {
                    recon,
                    riemann: rs,
                    ..Scheme::default_with_gamma(5.0 / 3.0)
                };
                let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
                let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
                let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
                let t0 = Instant::now();
                solver
                    .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
                    .unwrap_or_else(|e| {
                        panic!("{} {} {}: {e}", prob.name, rs.name(), recon.name())
                    });
                reg.histogram("phase.advance")
                    .record(t0.elapsed().as_nanos() as u64);
                zone_updates += solver.stats().zone_updates;
                let exact = prob.exact.clone().unwrap();
                let (l1, _) = l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();
                table.row(&[
                    prob.name.clone(),
                    rs.name().to_string(),
                    recon.name().to_string(),
                    sci(l1),
                ]);
            }
        }
    }
    let snap = reg.snapshot();
    opts.finish(&table, "t2_shock_accuracy", "", &snap)
        .config_str("problem", "sod + blast1 + blast2, all riemann x recon")
        .config_num("n", n as f64)
        .config_num(
            "configs",
            (problems.len() * RiemannSolver::ALL.len() * recons.len()) as f64,
        )
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(zone_updates as f64)
        .write(&snap);
}
