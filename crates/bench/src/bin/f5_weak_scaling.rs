//! F5 — Weak scaling.
//!
//! Fixed 128×128 block per rank; the global grid grows with the rank
//! count (1..16). Reports the simulated makespan for 10 RK2 steps and the
//! weak-scaling efficiency `t(1) / t(P)`.
//!
//! Expected shape: near-flat makespan (efficiency ≳ 0.8) — per-rank work
//! is constant and only halo exchange plus the Δt reduction grow — the
//! classic weak-scaling figure every CLUSTER-style paper reports.
//!
//! Flags: `--toy` shrinks the sweep for smoke tests/CI, `--profile`
//! prints the phase breakdown. A machine-readable report is always
//! written to `results/BENCH_f5_weak_scaling.json`.

use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_comm::{run, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp};
use rhrsc_runtime::Registry;
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc_solver::{RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::Duration;

fn ic(x: [f64; 3]) -> Prim {
    Prim {
        rho: 1.0
            + 0.4
                * (2.0 * std::f64::consts::PI * x[0]).sin()
                * (2.0 * std::f64::consts::PI * x[1]).cos(),
        vel: [0.4, -0.3, 0.0],
        p: 1.0,
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let (block, nsteps, ranks): (usize, usize, &[usize]) = if opts.toy {
        (32, 4, &[1, 2, 4])
    } else {
        (128, 10, &[1, 2, 4, 8, 16])
    };
    println!(
        "# F5: weak scaling, {block}x{block} per rank, {nsteps} RK2 steps, virtual cluster (10us, 10GB/s)"
    );
    let model = NetworkModel::virtual_cluster(Duration::from_micros(10), 10e9);
    let reg = Arc::new(Registry::new());
    let mut wall_total = 0.0;
    let mut zu_total = 0.0;

    let mut table = Table::new(&["ranks", "global_grid", "makespan_s", "efficiency"]);
    let mut base = None;
    for &p in ranks {
        let decomp = CartDecomp::auto(p, [block * p, block, 1], [true, true, false]);
        // Grow the grid to match the chosen process grid exactly.
        let global_n = [block * decomp.dims[0], block * decomp.dims[1], 1];
        let cfg = DistConfig {
            scheme: Scheme::default_with_gamma(5.0 / 3.0),
            rk: RkOrder::Rk2,
            global_n,
            domain: (
                [0.0; 3],
                [decomp.dims[0] as f64, decomp.dims[1] as f64, 1.0],
            ),
            decomp,
            bcs: bc::uniform(Bc::Periodic),
            cfl: 0.4,
            mode: ExchangeMode::BulkSynchronous,
            gang_threads: 0,
            // Guarded cadence: coast on 0.9× the cached Δt, refresh on
            // the AIMD window (violations collapse it — see a3).
            dt_refresh_interval: 5,
        };
        let stats = run(p, model, |rank| {
            rank.set_metrics(reg.clone());
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.set_metrics(reg.clone());
            solver.advance_steps(rank, &mut u, nsteps).unwrap()
        });
        let makespan = stats.iter().map(|s| s.vtime).fold(0.0, f64::max);
        wall_total += makespan;
        zu_total += stats.iter().map(|s| s.zone_updates as f64).sum::<f64>();
        let base_t = *base.get_or_insert(makespan);
        table.row(&[
            p.to_string(),
            format!("{}x{}", global_n[0], global_n[1]),
            format!("{makespan:.4}"),
            f3(base_t / makespan),
        ]);
    }
    let snap = reg.snapshot();
    let max_ranks = *ranks.last().unwrap();
    opts.finish(&table, "f5_weak_scaling", "all rank counts pooled", &snap)
        .config_str("preset", if opts.toy { "toy" } else { "full" })
        .config_str("model", "virtual_cluster(10us, 10GB/s)")
        .config_num("block_n", block as f64)
        .config_num("nsteps", nsteps as f64)
        .config_num("max_ranks", max_ranks as f64)
        .config_str("mode", "bulk-sync")
        .config_num("dt_refresh_interval", 5.0)
        .config_str("clock", "virtual")
        .wall_time(wall_total)
        .parallelism(max_ranks as f64)
        .zone_updates(zu_total)
        .write(&snap);
}
