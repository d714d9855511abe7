//! Heterogeneous-cluster demo: the full stack in one run.
//!
//! 1. Runs a 2D blast problem distributed over four simulated ranks with
//!    a 5 µs / 10 GB/s network, in both bulk-synchronous and futurized
//!    (overlapped) halo-exchange modes, and reports the timings.
//! 2. Offloads the same patch to the simulated accelerator and verifies
//!    the result is bit-identical to the host while reporting throughput.
//!
//! ```text
//! cargo run --release --example heterogeneous_cluster
//! ```

use rhrsc::comm::{run, NetworkModel};
use rhrsc::grid::{bc, Bc, CartDecomp, PatchGeom};
use rhrsc::runtime::AcceleratorConfig;
use rhrsc::solver::device_backend::DevicePatchSolver;
use rhrsc::solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc::solver::scheme::{init_cons, Scheme};
use rhrsc::solver::{PatchSolver, RkOrder};
use rhrsc::srhd::Prim;
use std::time::Duration;

fn ic(x: [f64; 3]) -> Prim {
    // A relativistic blast in a periodic box.
    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
    if r2 < 0.01 {
        Prim::at_rest(1.0, 100.0)
    } else {
        Prim::at_rest(1.0, 1.0)
    }
}

fn main() {
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let global_n = [128usize, 128, 1];
    let t_end = 0.05;

    println!("# Part 1: distributed run, 4 ranks, 5us latency / 10 GB/s network");
    let model = NetworkModel {
        latency: Duration::from_micros(5),
        bandwidth: 10e9,
        ..NetworkModel::ideal()
    };
    for mode in [ExchangeMode::BulkSynchronous, ExchangeMode::Overlap] {
        let cfg = DistConfig {
            scheme,
            rk: RkOrder::Rk2,
            global_n,
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            decomp: CartDecomp {
                dims: [2, 2, 1],
                periodic: [true, true, false],
            },
            bcs: bc::uniform(Bc::Periodic),
            cfl: 0.4,
            mode,
            gang_threads: 0,
            dt_refresh_interval: 1,
        };
        let stats = run(4, model, |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            let st = solver.advance_to(rank, &mut u, 0.0, t_end).unwrap();
            let _ = solver.gather_interior(rank, &u).unwrap();
            st
        });
        let max_t = stats.iter().map(|s| s.elapsed).max().unwrap();
        let total_mb: u64 = stats.iter().map(|s| s.bytes_sent).sum::<u64>() / (1 << 20);
        println!(
            "  mode = {:<10} steps = {:>4} wall = {:>9.2?} halo traffic = {} MiB",
            mode.name(),
            stats[0].steps,
            max_t,
            total_mb
        );
    }

    println!("# Part 2: accelerator offload vs host, same patch");
    let geom = PatchGeom::rect([128, 128], [0.0, 0.0], [1.0, 1.0], scheme.required_ghosts());
    let bcs = bc::uniform(Bc::Periodic);
    let mut u_host = init_cons(geom, &scheme.eos, &ic);
    let u0 = u_host.clone();

    let mut host = PatchSolver::new(scheme, bcs, RkOrder::Rk2, geom);
    let t0 = std::time::Instant::now();
    let host_steps = host.advance_to(&mut u_host, 0.0, t_end, 0.4, None).unwrap();
    let host_wall = t0.elapsed();

    let dev = DevicePatchSolver::new(
        AcceleratorConfig {
            compute_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            launch_overhead: Duration::from_micros(20),
            copy_bandwidth: 8e9,
            throughput_multiplier: 1.0,
            name: "sim-gpu".to_string(),
        },
        scheme,
        bcs,
        RkOrder::Rk2,
        geom,
    );
    dev.upload(&u0).get();
    let t0 = std::time::Instant::now();
    let dev_steps = dev.advance_to(0.0, t_end, 0.4);
    let dev_wall = t0.elapsed();
    let u_dev = dev.download();

    let zones = (128 * 128 * host_steps * 2) as f64; // cells * steps * stages
    println!(
        "  host:   {host_steps} steps, {host_wall:>9.2?}  ({:.2} Mzone-updates/s)",
        zones / host_wall.as_secs_f64() / 1e6
    );
    println!(
        "  device: {dev_steps} steps, {dev_wall:>9.2?}  ({:.2} Mzone-updates/s)",
        zones / dev_wall.as_secs_f64() / 1e6
    );
    assert_eq!(
        u_host.raw(),
        u_dev.raw(),
        "device result must be bit-identical to host"
    );
    println!("  device result is bit-identical to host ✓");
    println!("# OK");
}
