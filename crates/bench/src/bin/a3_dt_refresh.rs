//! A3 — Δt-allreduce amortization ablation.
//!
//! The global Δt reduction is the only latency-bound collective in the
//! step. This ablation sweeps the refresh interval (recompute every k
//! steps, coast on 0.9× the cached value in between) on a high-latency
//! virtual cluster and reports the simulated makespan.
//!
//! Expected shape: makespan drops as the allreduce amortizes, with
//! diminishing returns once halo costs dominate; the cached-Δt safety
//! factor costs ~10% more steps at large k (also reported).
//!
//! Every arm runs the *guarded* cadence: coasting steps compare the
//! cached Δt against the freshly scanned local CFL bound, and a
//! violation collapses the AIMD refresh window back to every-step
//! refreshes at the next collective. The per-arm `allreduces` and
//! `violations` columns make the guard's behaviour visible: the AIMD
//! window ramps up from 1 (so large nominal intervals refresh more
//! often than `k` suggests), while on this blast problem the 0.9×
//! safety margin absorbs the bound's drift and violations stay at 0 —
//! the guard is a backstop, not a steady-state cost.

use rhrsc_bench::{BenchOpts, Table};
use rhrsc_comm::{run, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp};
use rhrsc_runtime::Registry;
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc_solver::{RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ic(x: [f64; 3]) -> Prim {
    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
    Prim::at_rest(1.0, if r2 < 0.01 { 100.0 } else { 1.0 })
}

fn main() {
    let opts = BenchOpts::from_args();
    let (global_n, nsteps, reps) = if opts.toy {
        ([128usize, 64, 1], 8usize, 1usize)
    } else {
        ([512, 256, 1], 20, 3)
    };
    println!(
        "# A3: dt-allreduce amortization, 8 ranks, {}x{} global, 1ms latency, {nsteps} steps",
        global_n[0], global_n[1]
    );
    let model = NetworkModel::virtual_cluster(Duration::from_millis(1), 10e9);
    let reg = Registry::new();
    let bench_t0 = Instant::now();

    let mut table = Table::new(&[
        "refresh_every",
        "makespan_s",
        "speedup_vs_1",
        "allreduces",
        "violations",
    ]);
    let mut base = None;
    for refresh in [1usize, 2, 5, 10, 20] {
        let decomp = CartDecomp {
            dims: [4, 2, 1],
            periodic: [true, true, false],
        };
        let cfg = DistConfig {
            scheme: Scheme::default_with_gamma(5.0 / 3.0),
            rk: RkOrder::Rk2,
            global_n,
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            decomp,
            bcs: bc::uniform(Bc::Periodic),
            cfl: 0.4,
            mode: ExchangeMode::BulkSynchronous,
            gang_threads: 0,
            dt_refresh_interval: refresh,
        };
        // Best-of-N against CPU-token measurement noise. The per-arm
        // registry captures how the guarded cadence actually behaved:
        // collective refreshes taken and coast-past-the-bound violations
        // (each of which collapses the AIMD window).
        let arm_reg = Arc::new(Registry::new());
        let mut makespan = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let stats = run(8, model, |rank| {
                let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                solver.set_metrics(arm_reg.clone());
                solver.advance_steps(rank, &mut u, nsteps).unwrap()
            });
            reg.histogram("phase.advance")
                .record(t0.elapsed().as_nanos() as u64);
            makespan = makespan.min(stats.iter().map(|s| s.vtime).fold(0.0, f64::max));
        }
        let arm = arm_reg.snapshot();
        let allreduces = arm
            .histograms
            .get("phase.dt.allreduce")
            .map_or(0, |h| h.count);
        let violations = arm
            .counters
            .get("dt.cadence.violation")
            .copied()
            .unwrap_or(0);
        let b = *base.get_or_insert(makespan);
        reg.histogram("dt_refresh.makespan_us")
            .record((makespan * 1e6) as u64);
        reg.histogram("dt_refresh.allreduces").record(allreduces);
        reg.histogram("dt.cadence.violations").record(violations);
        table.row(&[
            refresh.to_string(),
            format!("{makespan:.4}"),
            format!("{:.3}", b / makespan),
            allreduces.to_string(),
            violations.to_string(),
        ]);
    }
    let snap = reg.snapshot();
    opts.finish(&table, "a3_dt_refresh", "", &snap)
        .config_str("problem", "2D blast, 8 ranks, bulk-sync, 1ms latency")
        .config_num("global_nx", global_n[0] as f64)
        .config_num("global_ny", global_n[1] as f64)
        .config_num("steps", nsteps as f64)
        .config_num("reps", reps as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .write(&snap);
}
