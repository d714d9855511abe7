//! F10 — Fault tolerance of the resilient distributed driver.
//!
//! A 2D relativistic blast wave on 2×2 ranks runs to `t_end` four times:
//!
//! * **A (reference)** — plain `advance_to`, no faults,
//! * **B (resilient, no faults)** — `advance_to_with_restart` with
//!   injection disabled; must be **bit-identical** to A with every
//!   resilience counter at zero,
//! * **C (resilient, faulted)** — truncated and delayed halo messages
//!   plus in-memory cell corruption under a deterministic seed; the run
//!   must still reach `t_end`, repairing cells through the recovery
//!   cascade, retrying steps at halved CFL, and restoring from the
//!   rotating checkpoints when retries run out. Reports the per-tier
//!   cascade counts, retry/restart counters, and the L1 density error
//!   against A (acceptance: within 5%),
//! * **D (device faults)** — the single-patch offload path with failing
//!   kernel launches and device copies, with the circuit breaker armed;
//!   the transparent host-fallback (per-op and breaker-quarantine) must
//!   keep results bit-identical to the host while the virtual-time cost
//!   model records the slowdown and the `dev.breaker.*` counters record
//!   the trip/probe/readmit traffic.
//!
//! Flags: `--toy` shrinks the grid and horizon for smoke tests/CI,
//! `--profile` prints the pooled phase breakdown, `--trace-out <path>`
//! (or `RHRSC_TRACE`) dumps a Chrome/Perfetto flight record of run D's
//! device queue including the breaker transitions. A machine-readable
//! report is always written to `results/BENCH_f10_fault_tolerance.json`.

use rhrsc_bench::{print_phase_table, sci, BenchOpts, RunReport, Table};
use rhrsc_comm::{run_with_faults, FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp, Field, PatchGeom};
use rhrsc_runtime::trace::Tracer;
use rhrsc_runtime::{AcceleratorConfig, FaultInjector, Registry};
use rhrsc_solver::device_backend::{BreakerConfig, DevicePatchSolver};
use rhrsc_solver::driver::{
    BlockSolver, DistConfig, ExchangeMode, ResilienceConfig, ResilienceStats,
};
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ic(x: [f64; 3]) -> Prim {
    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
    Prim::at_rest(1.0, if r2 < 0.01 { 100.0 } else { 1.0 })
}

fn dist_cfg(n: usize) -> DistConfig {
    DistConfig {
        scheme: Scheme::default_with_gamma(5.0 / 3.0),
        rk: RkOrder::Rk3,
        global_n: [n, n, 1],
        domain: ([0.0; 3], [1.0, 1.0, 1.0]),
        decomp: CartDecomp {
            dims: [2, 2, 1],
            periodic: [false, false, false],
        },
        bcs: bc::uniform(Bc::Outflow),
        cfl: 0.4,
        mode: ExchangeMode::Overlap,
        gang_threads: 0,
        dt_refresh_interval: 1,
    }
}

/// Relative L1 difference of the lab-frame density (component 0).
fn l1_rel_density(a: &Field, b: &Field) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    let n = a.geom().len();
    for i in 0..n {
        num += (a.raw()[i] - b.raw()[i]).abs();
        den += b.raw()[i].abs();
    }
    num / den
}

fn resilient_run(
    cfg: &DistConfig,
    t_end: f64,
    plan: Option<FaultPlan>,
    res: &ResilienceConfig,
    reg: &Arc<Registry>,
) -> (Field, ResilienceStats, u64) {
    let outs = run_with_faults(4, NetworkModel::ideal(), plan, |rank| {
        rank.set_metrics(reg.clone());
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
        solver.set_metrics(reg.clone());
        let (_, rstats) = solver
            .advance_to_with_restart(rank, &mut u, 0.0, t_end, res)
            .expect("resilient advance failed");
        let truncated = rank
            .fault_stats()
            .map(|s| s.msgs_truncated + s.msgs_delayed)
            .unwrap_or(0);
        (
            solver.gather_interior(rank, &u).expect("gather failed"),
            rstats,
            truncated,
        )
    });
    let faults: u64 = outs.iter().map(|(_, _, f)| f).sum();
    let rstats = outs[0].1;
    let global = outs
        .into_iter()
        .next()
        .and_then(|(g, _, _)| g)
        .expect("rank 0 holds the gathered field");
    (global, rstats, faults)
}

fn main() {
    let opts = BenchOpts::from_args();
    let (n, t_end) = if opts.toy { (32, 0.05) } else { (64, 0.1) };
    println!("# F10: fault tolerance, 2D blast {n}x{n}, 2x2 ranks, RK3 overlap, t_end = {t_end}");
    let cfg = dist_cfg(n);
    let reg = Arc::new(Registry::new());
    let bench_t0 = Instant::now();
    let ckp_dir = std::env::temp_dir().join("rhrsc-f10-checkpoints");
    let _ = std::fs::remove_dir_all(&ckp_dir);

    // ---- Run A: fault-free reference (plain driver) ----
    let outs = run_with_faults(4, NetworkModel::ideal(), None, |rank| {
        rank.set_metrics(reg.clone());
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
        solver.set_metrics(reg.clone());
        solver
            .advance_to(rank, &mut u, 0.0, t_end)
            .expect("reference advance failed");
        solver.gather_interior(rank, &u).expect("gather failed")
    });
    let reference = outs
        .into_iter()
        .next()
        .flatten()
        .expect("rank 0 holds the gathered field");
    println!("A  reference: plain advance_to, no faults");

    // ---- Run B: resilient loop, injection disabled ----
    let res_b = ResilienceConfig {
        checkpoint_interval: 5,
        checkpoint_dir: Some(ckp_dir.join("run-b")),
        ..ResilienceConfig::default()
    };
    let (state_b, rstats_b, _) = resilient_run(&cfg, t_end, None, &res_b, &reg);
    let bit_identical = state_b.raw() == reference.raw();
    assert!(
        bit_identical,
        "run B must be bit-identical to the reference"
    );
    assert_eq!(rstats_b.retries, 0);
    assert_eq!(rstats_b.restarts, 0);
    assert_eq!(rstats_b.recovery.total(), 0);
    println!(
        "B  resilient, faults off: bit-identical = {bit_identical}, \
         retries = {}, restarts = {}, repaired cells = {}",
        rstats_b.retries,
        rstats_b.restarts,
        rstats_b.recovery.total()
    );

    // ---- Run C: resilient loop under an active fault schedule ----
    // `RHRSC_FAULT_SEED` lets CI sweep a small seed matrix; the default
    // keeps local runs reproducible.
    let seed: u64 = std::env::var("RHRSC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let plan = FaultPlan {
        seed,
        msg_truncate_prob: 0.01,
        msg_delay_prob: 0.05,
        msg_delay: Duration::from_micros(200),
        cell_poison_prob: 0.1,
        ..FaultPlan::disabled()
    };
    let res_c = ResilienceConfig {
        max_step_retries: 1,
        max_restarts: 100,
        checkpoint_interval: 4,
        checkpoint_dir: Some(ckp_dir.join("run-c")),
        ..ResilienceConfig::default()
    };
    let fault_seed = plan.seed;
    let (state_c, rstats_c, msg_faults) = resilient_run(&cfg, t_end, Some(plan), &res_c, &reg);
    let l1 = l1_rel_density(&state_c, &reference);
    println!(
        "C  resilient, faults on: {msg_faults} messages truncated/delayed, \
         cascade tiers = (relaxed {}, neighbor {}, atmosphere {}), \
         retried steps = {}, retries = {}, restarts = {}, checkpoints = {}",
        rstats_c.recovery.relaxed_tol,
        rstats_c.recovery.neighbor_avg,
        rstats_c.recovery.atmosphere,
        rstats_c.retried_steps,
        rstats_c.retries,
        rstats_c.restarts,
        rstats_c.checkpoints_saved
    );
    println!("C  relative L1 density error vs fault-free = {}", sci(l1));
    assert!(
        l1 < 0.05,
        "faulted run drifted more than 5% from the fault-free solution"
    );

    // ---- Run D: device offload with failing launches and copies ----
    // Run D is a cheap single patch, so it keeps a horizon long enough
    // for the breaker to trip *and* serve quarantine steps even in toy
    // mode (the toy distributed horizon would end after ~3 steps).
    let t_end_d = if opts.toy { 0.1 } else { t_end };
    let scheme = cfg.scheme;
    let geom = PatchGeom::rect([n, n], [0.0, 0.0], [1.0, 1.0], scheme.required_ghosts());
    let bcs = bc::uniform(Bc::Outflow);
    let u0 = init_cons(geom, &scheme.eos, &|x| ic(x));
    let mut u_host = u0.clone();
    let mut host = PatchSolver::new(scheme, bcs, RkOrder::Rk3, geom);
    host.advance_to(&mut u_host, 0.0, t_end_d, cfg.cfl, None)
        .expect("host advance failed");
    let dev_cfg = AcceleratorConfig {
        throughput_multiplier: 8.0,
        ..AcceleratorConfig::default()
    };
    let dev_plan = FaultPlan {
        seed: 9,
        launch_fail_prob: 0.2,
        copy_fail_prob: 0.9,
        ..FaultPlan::disabled()
    };
    let mut dev = DevicePatchSolver::new(dev_cfg, scheme, bcs, RkOrder::Rk3, geom);
    dev.set_metrics(reg.clone());
    dev.set_breaker(BreakerConfig::default());
    dev.set_fault_injector(Arc::new(FaultInjector::new(dev_plan, 0)));
    // The optional flight record covers run D's device queue: H2D/launch/
    // D2H spans plus the breaker trip/half-open/probe/readmit instants.
    let tracer = opts.trace_path().map(|p| {
        let tr = Tracer::new_env_sized();
        tr.set_dump_path(Some(p));
        tr
    });
    if let Some(tr) = &tracer {
        dev.set_trace(tr.clone(), 0);
    }
    dev.upload(&u0).get();
    dev.advance_to(0.0, t_end_d, cfg.cfl);
    let u_dev = dev.download();
    let dev_stats = dev.fault_stats().expect("injector attached");
    let brk = dev.breaker_stats().expect("breaker armed");
    let dev_identical = u_dev.raw() == u_host.raw();
    assert!(dev_identical, "device fallback must stay bit-identical");
    assert!(
        brk.trips >= 1 && brk.host_steps >= 1,
        "the 90% copy-fault schedule must trip the breaker at least once \
         (trips = {}, host_steps = {})",
        brk.trips,
        brk.host_steps
    );
    println!(
        "D  device offload, faults on: bit-identical to host = {dev_identical}, \
         launches failed (host fallback) = {}, copies retried = {}, \
         breaker trips = {}, host-quarantine steps = {}, readmissions = {}, \
         modeled device time = {:.2?}",
        dev_stats.launches_failed,
        dev_stats.copies_failed,
        brk.trips,
        brk.host_steps,
        brk.readmissions,
        dev.device_time()
    );
    if let Some(tr) = &tracer {
        if let Some(p) = opts.trace_path() {
            if tr.write_or_warn(&p) {
                println!("  -> wrote {}", p.display());
            }
        }
    }

    let mut table = Table::new(&[
        "run",
        "msg_faults",
        "cells_repaired",
        "retries",
        "restarts",
        "l1_rel_density",
    ]);
    table.row(&[
        "B:no-faults".into(),
        "0".into(),
        rstats_b.recovery.total().to_string(),
        rstats_b.retries.to_string(),
        rstats_b.restarts.to_string(),
        "0".into(),
    ]);
    table.row(&[
        "C:faulted".into(),
        msg_faults.to_string(),
        rstats_c.recovery.total().to_string(),
        rstats_c.retries.to_string(),
        rstats_c.restarts.to_string(),
        sci(l1),
    ]);
    table.print();
    table.save_csv("f10_fault_tolerance");
    let _ = std::fs::remove_dir_all(&ckp_dir);

    let snap = reg.snapshot();
    if opts.profile {
        print_phase_table("f10_fault_tolerance (all runs pooled)", &snap);
    }
    RunReport::new("f10_fault_tolerance")
        .config_str("problem", "2D blast, 2x2 ranks, RK3 overlap")
        .config_num("global_n", n as f64)
        .config_num("t_end", t_end)
        .config_num("fault_seed", fault_seed as f64)
        .config_num("msg_faults", msg_faults as f64)
        .config_num("cells_repaired", rstats_c.recovery.total() as f64)
        .config_num("retries", rstats_c.retries as f64)
        .config_num("restarts", rstats_c.restarts as f64)
        .config_num("l1_rel_density", l1)
        .config_num("breaker_trips", brk.trips as f64)
        .config_num("breaker_host_steps", brk.host_steps as f64)
        .config_num("breaker_readmissions", brk.readmissions as f64)
        .config_num("device_failures", brk.device_failures as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(4.0)
        .write(&snap);
}
