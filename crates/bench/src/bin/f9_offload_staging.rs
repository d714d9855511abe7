//! F9 — Offload staging strategies.
//!
//! Accelerator offload only pays when data stays resident: staging the
//! state over the host↔device link every step drowns the kernel speedup
//! in transfer time. This experiment advances the same 2D patch 20 steps
//! under three strategies and reports modeled time per step:
//!
//! * **host** — no offload (wall-clock, serial host),
//! * **staged** — upload + step-kernel + download every step (what a
//!   naive port does),
//! * **resident** — upload once, pipeline all step kernels, download once
//!   (what the paper-era codes do).
//!
//! Expected shape: staging overhead grows with the state size and shrinks
//! with link bandwidth — with a slow link, per-step staging erodes most
//! of the kernel speedup that residency preserves. The table sweeps both
//! patch size and link bandwidth.
//!
//! Flags: `--toy` shrinks the sweep for smoke tests/CI, `--profile`
//! prints the device phase breakdown (H2D/D2H staging vs launch time).
//! A machine-readable report is always written to
//! `results/BENCH_f9_offload_staging.json`.

use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_grid::{bc, Bc, PatchGeom};
use rhrsc_runtime::{AcceleratorConfig, Registry};
use rhrsc_solver::device_backend::DevicePatchSolver;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::Duration;

fn ic(x: [f64; 3]) -> Prim {
    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
    Prim::at_rest(1.0, if r2 < 0.02 { 20.0 } else { 1.0 })
}

fn dev_cfg(bandwidth: f64) -> AcceleratorConfig {
    AcceleratorConfig {
        compute_threads: 1,
        launch_overhead: Duration::from_micros(200),
        copy_bandwidth: bandwidth,
        throughput_multiplier: 8.0,
        name: "sim-gpu".to_string(),
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let (sizes, bandwidths, nsteps): (&[usize], &[f64], usize) = if opts.toy {
        (&[32], &[8e9], 5)
    } else {
        (&[64, 128, 256], &[8e9, 1e9], 20)
    };
    println!("# F9: offload staging strategies, 2D RK2, {nsteps} steps");
    println!("#     device: 8x kernels, 200us launch; link bandwidth swept");
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let bcs = bc::uniform(Bc::Periodic);
    let dt = 2e-4;
    let reg = Arc::new(Registry::new());
    let mut wall_total = 0.0;
    let mut zu_total = 0.0;

    let mut table = Table::new(&[
        "patch",
        "link_GB/s",
        "host_ms/step",
        "staged_ms/step",
        "resident_ms/step",
        "staging_penalty",
    ]);
    for &n in sizes {
        let geom = PatchGeom::rect([n, n], [0.0; 2], [1.0; 2], scheme.required_ghosts());
        let u0 = init_cons(geom, &scheme.eos, &ic);
        let zu_run = (n * n * 2 * nsteps) as f64; // interior cells × RK2 stages × steps

        // Host wall-clock.
        let mut u = u0.clone();
        let mut host = PatchSolver::new(scheme, bcs, RkOrder::Rk2, geom);
        let t0 = std::time::Instant::now();
        for _ in 0..nsteps {
            host.step(&mut u, dt, None).unwrap();
        }
        let host_ms = t0.elapsed().as_secs_f64() * 1e3 / nsteps as f64;
        wall_total += t0.elapsed().as_secs_f64();
        zu_total += zu_run;
        let u_host = u;

        for &bw in bandwidths {
            // Staged: upload + kernel + download every step (device clock).
            let dev = DevicePatchSolver::new(dev_cfg(bw), scheme, bcs, RkOrder::Rk2, geom);
            dev.set_metrics(reg.clone());
            let mut u = u0.clone();
            let v0 = dev.device_time();
            for _ in 0..nsteps {
                dev.upload(&u).get();
                dev.enqueue_step(dt);
                u = dev.download();
            }
            let staged_ms = (dev.device_time() - v0).as_secs_f64() * 1e3 / nsteps as f64;
            wall_total += dev.device_time().as_secs_f64();
            zu_total += zu_run;
            assert_eq!(u.raw(), u_host.raw(), "staged result must match host");

            // Resident: upload once, pipeline, download once.
            let dev = DevicePatchSolver::new(dev_cfg(bw), scheme, bcs, RkOrder::Rk2, geom);
            dev.set_metrics(reg.clone());
            dev.upload(&u0).get();
            let v0 = dev.device_time();
            for _ in 0..nsteps {
                dev.enqueue_step(dt);
            }
            let u = dev.download();
            let resident_ms = (dev.device_time() - v0).as_secs_f64() * 1e3 / nsteps as f64;
            wall_total += dev.device_time().as_secs_f64();
            zu_total += zu_run;
            assert_eq!(u.raw(), u_host.raw(), "resident result must match host");

            table.row(&[
                format!("{n}x{n}"),
                f3(bw / 1e9),
                f3(host_ms),
                f3(staged_ms),
                f3(resident_ms),
                f3(staged_ms / resident_ms),
            ]);
        }
    }
    let snap = reg.snapshot();
    opts.finish(
        &table,
        "f9_offload_staging",
        "device queue, all runs pooled",
        &snap,
    )
    .config_str("device", "sim-gpu (8x kernels, 200us launch)")
    .config_num("nsteps", nsteps as f64)
    .config_num("max_n", *sizes.last().unwrap() as f64)
    .config_str("clock", "device-modeled + host wall")
    .wall_time(wall_total)
    .parallelism(1.0)
    .zone_updates(zu_total)
    .write(&snap);
}
