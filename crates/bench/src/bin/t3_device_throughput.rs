//! T3 — Host vs accelerator kernel throughput by tile size.
//!
//! Runs one RK2 step of the full 3D HRSC kernel on cubic tiles of
//! increasing size, on (a) the serial host path and (b) the simulated
//! accelerator (8× modeled kernel throughput, 500 µs launch overhead,
//! 8 GB/s staging link — a conservative 2015-era GPU profile). Reports
//! Mzone-updates/s and the offload speedup.
//!
//! Expected shape: the device *loses* on small tiles (launch overhead
//! dominates) and *wins* on large ones, with a crossover in between —
//! the figure that motivates tile-size-aware heterogeneous scheduling.
//! Device results are bit-identical to the host's (asserted).
//!
//! Flags: `--toy` shrinks the sweep for smoke tests/CI, `--profile`
//! prints the device phase breakdown. A machine-readable report is
//! always written to `results/BENCH_t3_device_throughput.json`.

use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_grid::{bc, Bc, PatchGeom};
use rhrsc_runtime::{AcceleratorConfig, Registry};
use rhrsc_solver::device_backend::DevicePatchSolver;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ic(x: [f64; 3]) -> Prim {
    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2) + (x[2] - 0.5).powi(2);
    Prim::at_rest(1.0, if r2 < 0.02 { 50.0 } else { 1.0 })
}

fn main() {
    let opts = BenchOpts::from_args();
    let (sizes, repeats): (&[usize], usize) = if opts.toy {
        (&[4, 8, 12], 1)
    } else {
        (&[4, 6, 8, 12, 16, 24, 32, 48], 3)
    };
    println!("# T3: 3D RK2 step throughput, host vs simulated accelerator");
    println!("#     device model: 8x kernel throughput, 500us launch overhead, 8 GB/s link");
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let bcs = bc::uniform(Bc::Periodic);
    let dt = 1e-3;
    let reg = Arc::new(Registry::new());
    let mut wall_total = 0.0;
    let mut zu_total = 0.0;

    let mut table = Table::new(&[
        "tile",
        "zones",
        "host_Mz/s",
        "device_Mz/s",
        "speedup",
        "identical",
    ]);
    for &n in sizes {
        let geom = PatchGeom::cube([n, n, n], [0.0; 3], [1.0; 3], scheme.required_ghosts());
        let u0 = init_cons(geom, &scheme.eos, &ic);
        let zones = (n * n * n * 2) as f64; // cells * stages per step

        // Host: serial step, best of N.
        let mut host_best = f64::INFINITY;
        let mut u_host = u0.clone();
        for rep in 0..repeats {
            let mut u = u0.clone();
            let mut solver = PatchSolver::new(scheme, bcs, RkOrder::Rk2, geom);
            let t0 = Instant::now();
            solver.step(&mut u, dt, None).unwrap();
            host_best = host_best.min(t0.elapsed().as_secs_f64());
            wall_total += t0.elapsed().as_secs_f64();
            zu_total += zones;
            if rep == 0 {
                u_host = u;
            }
        }

        // Device: modeled time of one resident step (overhead + kernel/8).
        let dev = DevicePatchSolver::new(
            AcceleratorConfig {
                compute_threads: 1,
                launch_overhead: Duration::from_micros(500),
                copy_bandwidth: 8e9,
                throughput_multiplier: 8.0,
                name: "sim-gpu".to_string(),
            },
            scheme,
            bcs,
            RkOrder::Rk2,
            geom,
        );
        dev.set_metrics(reg.clone());
        dev.upload(&u0).get();
        let v0 = dev.device_time();
        dev.enqueue_step(dt).get();
        let dev_secs = (dev.device_time() - v0).as_secs_f64();
        let identical = dev.download().raw() == u_host.raw();
        wall_total += dev.device_time().as_secs_f64();
        zu_total += zones;

        let host_mz = zones / host_best / 1e6;
        let dev_mz = zones / dev_secs / 1e6;
        table.row(&[
            format!("{n}^3"),
            (n * n * n).to_string(),
            f3(host_mz),
            f3(dev_mz),
            f3(dev_mz / host_mz),
            identical.to_string(),
        ]);
        assert!(identical, "device result diverged at {n}^3");
    }
    let snap = reg.snapshot();
    opts.finish(
        &table,
        "t3_device_throughput",
        "device queue, all tiles pooled",
        &snap,
    )
    .config_str("device", "sim-gpu (8x kernels, 500us launch, 8 GB/s link)")
    .config_num("max_tile", *sizes.last().unwrap() as f64)
    .config_num("repeats", repeats as f64)
    .config_str("clock", "device-modeled + host wall")
    .wall_time(wall_total)
    .parallelism(1.0)
    .zone_updates(zu_total)
    .write(&snap);
}
