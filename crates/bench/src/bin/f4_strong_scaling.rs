//! F4 — Strong scaling.
//!
//! Fixed 256×256 2D problem distributed over 1..16 simulated ranks on a
//! virtual cluster (10 µs latency, 10 GB/s links). Reports the simulated
//! makespan (max per-rank virtual time), speedup, and parallel efficiency
//! for 10 RK2 steps.
//!
//! Expected shape: near-linear speedup at small rank counts, efficiency
//! decaying as the halo surface-to-volume ratio and the Δt-allreduce
//! latency grow relative to shrinking per-rank compute.
//!
//! (Rank counts up to the host's core count compute in parallel; larger
//! ones time-share the host, and the virtual-time machinery serializes
//! their compute sections on a CPU token so the makespan stays honest —
//! see DESIGN.md "virtual cluster".)
//!
//! Flags: `--toy` shrinks the sweep for smoke tests/CI, `--profile`
//! prints the phase breakdown. A machine-readable report is always
//! written to `results/BENCH_f4_strong_scaling.json`. Telemetry
//! (`--telemetry-out` / `--metrics-textfile`) arms on the largest
//! rank-count sweep: the solver samples per-rank metric deltas each
//! cadence, reduces them to rank 0, and the report gains a `series`
//! section.

use rhrsc_bench::drill::blast_ic;
use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_comm::{run, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp};
use rhrsc_io::FileSinks;
use rhrsc_runtime::metrics::Snapshot;
use rhrsc_runtime::{Registry, Telemetry};
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc_solver::{RkOrder, Scheme};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    let (n, nsteps, ranks): (usize, usize, &[usize]) = if opts.toy {
        (64, 4, &[1, 2, 4])
    } else {
        (256, 10, &[1, 2, 4, 8, 16])
    };
    println!("# F4: strong scaling, {n}x{n}, {nsteps} RK2 steps, virtual cluster (10us, 10GB/s)");
    let model = NetworkModel::virtual_cluster(Duration::from_micros(10), 10e9);
    let telemetry_cfg = opts.telemetry_config();
    let max_ranks = *ranks.last().unwrap();
    // Ranks keep separate registries (merged below), so the telemetry
    // sampler sees honest per-rank deltas rather than pooled totals.
    let mut pooled = Snapshot::default();
    let mut hub_for_report: Option<Arc<Telemetry>> = None;
    let mut wall_total = 0.0;
    let mut zu_total = 0.0;

    let mut table = Table::new(&["ranks", "makespan_s", "speedup", "efficiency"]);
    let mut base = None;
    for &p in ranks {
        let cfg = DistConfig {
            scheme: Scheme::default_with_gamma(5.0 / 3.0),
            rk: RkOrder::Rk2,
            global_n: [n, n, 1],
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            decomp: CartDecomp::auto(p, [n, n, 1], [true, true, false]),
            bcs: bc::uniform(Bc::Periodic),
            cfl: 0.4,
            mode: ExchangeMode::BulkSynchronous,
            gang_threads: 0,
            // Guarded cadence: coast on 0.9× the cached Δt, refresh on
            // the AIMD window (violations collapse it — see a3).
            dt_refresh_interval: 5,
        };
        let regs: Vec<Arc<Registry>> = (0..p).map(|_| Arc::new(Registry::new())).collect();
        // Telemetry arms on the largest sweep only: one run = one
        // monotone step series, reduced across the full rank count.
        let hub = (p == max_ranks)
            .then(|| telemetry_cfg.map(|c| Arc::new(Telemetry::new(c))))
            .flatten();
        if let Some(h) = &hub {
            h.set_sink(Box::new(FileSinks::new(
                opts.metrics_textfile.clone(),
                opts.telemetry_out.clone(),
            )));
        }
        let stats = run(p, model, |rank| {
            let reg = regs[rank.rank()].clone();
            rank.set_metrics(reg.clone());
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &blast_ic);
            solver.set_metrics(reg);
            if let Some(h) = &hub {
                solver.set_telemetry(h.clone());
            }
            solver.advance_steps(rank, &mut u, nsteps).unwrap()
        });
        for r in &regs {
            pooled.merge(&r.snapshot());
        }
        if hub.is_some() {
            hub_for_report = hub;
        }
        let makespan = stats.iter().map(|s| s.vtime).fold(0.0, f64::max);
        wall_total += makespan;
        zu_total += stats.iter().map(|s| s.zone_updates as f64).sum::<f64>();
        let base_t = *base.get_or_insert(makespan);
        let speedup = base_t / makespan;
        table.row(&[
            p.to_string(),
            format!("{makespan:.4}"),
            f3(speedup),
            f3(speedup / p as f64),
        ]);
    }
    let mut report = opts.finish(
        &table,
        "f4_strong_scaling",
        "all rank counts pooled",
        &pooled,
    );
    if let Some(hub) = &hub_for_report {
        report.series(&hub.samples());
    }
    report
        .config_str("preset", if opts.toy { "toy" } else { "full" })
        .config_str("model", "virtual_cluster(10us, 10GB/s)")
        .config_num("global_n", n as f64)
        .config_num("nsteps", nsteps as f64)
        .config_num("max_ranks", max_ranks as f64)
        .config_str("mode", "bulk-sync")
        .config_num("dt_refresh_interval", 5.0)
        .config_str("clock", "virtual")
        .wall_time(wall_total)
        .parallelism(max_ranks as f64)
        .zone_updates(zu_total)
        .write(&pooled);
}
