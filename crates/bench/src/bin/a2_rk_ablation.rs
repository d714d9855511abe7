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

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_solver::problems::Problem;
use rhrsc_solver::RkOrder;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 64 } else { 256 };
    println!("# A2: Runge-Kutta order ablation, ppm + hllc, N = {n}");
    let mut runner = Runner::start();
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
            let out = runner.run(Row {
                rk,
                t_end,
                cfl,
                ..Row::new(&prob, n)
            });
            let l1 = match &out.result {
                Ok(_) => sci(out.l1().unwrap().0),
                Err(e) => format!("unstable: {e}").chars().take(24).collect(),
            };
            table.row(&[
                prob.name.clone(),
                format!("{rk:?}"),
                format!("{cfl}"),
                l1,
                out.zone_updates.to_string(),
            ]);
        }
    }
    runner.finish(&opts, Some(&table), "a2_rk_ablation", |r| {
        r.config_str("problem", "density-wave + sod, ppm + hllc")
            .config_num("n", n as f64);
    });
}
