//! A2 — Time-integrator ablation.
//!
//! SSP-RK order vs accuracy and cost on the smooth density wave (where
//! temporal error is visible) and on Sod (where the spatial shock error
//! dominates). Reports L1(ρ) and zone-updates (∝ cost).
//!
//! Expected shape: on smooth flow RK1 is unstable-or-inaccurate, RK3
//! clearly better than RK2 at ~1.5× the cost; on Sod all orders give
//! nearly the same error (shock-limited), so RK2 is the cost-effective
//! choice there.

use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 64 } else { 256 };
    println!("# A2: Runge-Kutta order ablation, ppm + hllc, N = {n}");
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let mut table = Table::new(&["problem", "rk", "cfl", "L1(rho)", "zone_updates"]);
    for (prob, t_end) in [
        (Problem::density_wave(0.5, 0.3), 0.8),
        (Problem::sod(), 0.4),
    ] {
        for rk in RkOrder::ALL {
            // RK1 with a high-order spatial scheme needs a reduced CFL to
            // stay stable; use the standard practical values.
            let cfl = match rk {
                RkOrder::Rk1 => 0.15,
                RkOrder::Rk2 => 0.4,
                RkOrder::Rk3 => 0.4,
            };
            let scheme = Scheme::default_with_gamma(5.0 / 3.0);
            let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
            let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
            let mut solver = PatchSolver::new(scheme, prob.bcs, rk, geom);
            let t0 = Instant::now();
            let outcome = solver.advance_to(&mut u, 0.0, t_end, cfl, None);
            reg.histogram("phase.advance")
                .record(t0.elapsed().as_nanos() as u64);
            match outcome {
                Ok(_) => {
                    let exact = prob.exact.clone().unwrap();
                    let (l1, _) = l1_density_error(&scheme, &u, &exact, t_end).unwrap();
                    table.row(&[
                        prob.name.clone(),
                        format!("{rk:?}"),
                        format!("{cfl}"),
                        sci(l1),
                        solver.stats().zone_updates.to_string(),
                    ]);
                }
                Err(e) => {
                    table.row(&[
                        prob.name.clone(),
                        format!("{rk:?}"),
                        format!("{cfl}"),
                        format!("unstable: {e}").chars().take(24).collect(),
                        solver.stats().zone_updates.to_string(),
                    ]);
                }
            }
        }
    }
    let snap = reg.snapshot();
    opts.finish(&table, "a2_rk_ablation", "", &snap)
        .config_str("problem", "density-wave + sod, ppm + hllc")
        .config_num("n", n as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .write(&snap);
}
