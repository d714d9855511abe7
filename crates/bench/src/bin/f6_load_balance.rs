//! F6 — Load-balancing policies on a heterogeneous node.
//!
//! A step's work is 48 2D tiles of *varying size* (24..64 squared). The
//! node has two CPU workers (speed 1) and one accelerator worker (modeled
//! speed 6). Each policy really executes every tile's RK2 step kernel and
//! charges `measured_cost / worker_speed` to its worker's clock; the
//! reported makespan is the max worker clock.
//!
//! * static — round-robin, throughput-oblivious,
//! * weighted — throughput-weighted LPT using the measured tile costs,
//! * stealing — dynamic self-scheduling (each tile goes to the worker
//!   with the earliest clock).
//!
//! Expected shape: static is worst (the accelerator idles while CPUs
//! finish equal tile counts), weighted recovers most of the gap, dynamic
//! matches weighted without needing cost estimates.
//!
//! Flags: `--toy` shrinks the tile set for smoke tests/CI, `--profile`
//! prints the phase breakdown (per-tile kernel time). A machine-readable
//! report is always written to `results/BENCH_f6_load_balance.json`.

use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_grid::{bc, Bc, PatchGeom};
use rhrsc_runtime::sched::{plan_static, plan_weighted};
use rhrsc_runtime::Registry;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::Instant;

fn ic(x: [f64; 3]) -> Prim {
    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
    Prim::at_rest(1.0, if r2 < 0.02 { 50.0 } else { 1.0 })
}

/// Execute one tile's RK2 step and return its measured cost in seconds.
fn run_tile(scheme: &Scheme, n: usize, reg: &Arc<Registry>) -> f64 {
    let geom = PatchGeom::rect([n, n], [0.0, 0.0], [1.0, 1.0], scheme.required_ghosts());
    let mut u = init_cons(geom, &scheme.eos, &ic);
    let mut solver = PatchSolver::new(*scheme, bc::uniform(Bc::Periodic), RkOrder::Rk2, geom);
    let t0 = Instant::now();
    solver.step(&mut u, 5e-4, None).unwrap();
    let dt = t0.elapsed();
    reg.histogram("phase.tile.execute")
        .record(dt.as_nanos() as u64);
    dt.as_secs_f64()
}

fn main() {
    let opts = BenchOpts::from_args();
    let ntiles = if opts.toy { 12 } else { 48 };
    println!("# F6: load balancing across 2 CPU workers (speed 1) + 1 accel worker (speed 6)");
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let speeds = [1.0f64, 1.0, 6.0];
    let reg = Arc::new(Registry::new());
    let bench_t0 = Instant::now();

    // Tiles of deterministic, heterogeneous sizes.
    let tile_sizes: Vec<usize> = (0..ntiles).map(|i| 24 + (i * 7) % 41).collect();
    let mut zone_updates = 0.0;
    let mut count_zu = |n: usize| zone_updates += (n * n * 2) as f64; // cells × RK2 stages

    // Pre-measure tile costs (this is also what the weighted planner uses
    // as its cost model).
    let costs: Vec<f64> = tile_sizes
        .iter()
        .map(|&n| {
            count_zu(n);
            run_tile(&scheme, n, &reg)
        })
        .collect();
    let total: f64 = costs.iter().sum();
    println!(
        "  {} tiles, total serial cost {:.3}s, ideal heterogeneous makespan {:.3}s",
        costs.len(),
        total,
        total / speeds.iter().sum::<f64>()
    );

    // Execute a plan: each worker really runs its tiles; clock += cost/speed.
    let mut execute_plan = |plan: &[Vec<usize>]| -> f64 {
        let mut clocks = vec![0.0f64; speeds.len()];
        for (w, tiles) in plan.iter().enumerate() {
            for &t in tiles {
                count_zu(tile_sizes[t]);
                let cost = run_tile(&scheme, tile_sizes[t], &reg);
                clocks[w] += cost / speeds[w];
            }
        }
        clocks.iter().fold(0.0f64, |m, &c| m.max(c))
    };

    let m_static = execute_plan(&plan_static(tile_sizes.len(), speeds.len()));
    let m_weighted = execute_plan(&plan_weighted(&costs, &speeds));

    // Dynamic self-scheduling: next tile to the earliest-clock worker.
    let mut clocks = vec![0.0f64; speeds.len()];
    for &n in &tile_sizes {
        let w = clocks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        count_zu(n);
        clocks[w] += run_tile(&scheme, n, &reg) / speeds[w];
    }
    let m_dynamic = clocks.iter().fold(0.0f64, |m, &c| m.max(c));

    let mut table = Table::new(&["policy", "makespan_s", "vs_static"]);
    for (name, m) in [
        ("static", m_static),
        ("weighted", m_weighted),
        ("stealing", m_dynamic),
    ] {
        table.row(&[name.to_string(), format!("{m:.4}"), f3(m_static / m)]);
        reg.histogram(&format!("sched.makespan_us.{name}"))
            .record((m * 1e6) as u64);
    }
    let snap = reg.snapshot();
    let mut report = opts.finish(
        Some(&table),
        "f6_load_balance",
        "all policies pooled",
        &snap,
    );
    assert!(
        m_weighted < m_static,
        "weighted ({m_weighted}) must beat static ({m_static}) under heterogeneity"
    );
    report
        .config_str("workers", "2x cpu (speed 1) + 1x accel (speed 6)")
        .config_num("ntiles", ntiles as f64)
        .config_num("makespan_static_s", m_static)
        .config_num("makespan_weighted_s", m_weighted)
        .config_num("makespan_stealing_s", m_dynamic)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(zone_updates)
        .write(&snap);
}
