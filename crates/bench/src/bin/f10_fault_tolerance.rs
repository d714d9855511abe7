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
//!   the transparent host-fallback (per-launch and breaker-quarantine)
//!   must keep results bit-identical to the host while the virtual-time
//!   cost model records the slowdown and the `dev.breaker.*` counters
//!   record the trip/probe/readmit traffic. Copy faults strike the
//!   host→device uploads only, which the breaker does not sample: the
//!   launch faults are what trip it.
//!
//! Flags: `--toy` shrinks the grid and horizon for smoke tests/CI,
//! `--profile` prints the pooled phase breakdown, `--trace-out <path>`
//! dumps a Chrome/Perfetto flight record of run D's device queue
//! including the breaker transitions. A machine-readable report is
//! always written to `results/BENCH_f10_fault_tolerance.json`.

use rhrsc_bench::drill::{
    blast_2x2, blast_ic, fault_seed, flight_recorder, l1_rel_density, reference_run, resilient_run,
    write_flight_record, RankRun, Scratch,
};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_comm::{FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc, PatchGeom};
use rhrsc_runtime::{AcceleratorConfig, FaultInjector, Registry};
use rhrsc_solver::device_backend::{BreakerConfig, DevicePatchSolver};
use rhrsc_solver::driver::{ExchangeMode, ResilienceConfig};
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let opts = BenchOpts::from_args();
    let (n, t_end) = if opts.toy { (32, 0.05) } else { (64, 0.1) };
    println!("# F10: fault tolerance, 2D blast {n}x{n}, 2x2 ranks, RK3 overlap, t_end = {t_end}");
    let cfg = blast_2x2(n, ExchangeMode::Overlap);
    let reg = Arc::new(Registry::new());
    let bench_t0 = Instant::now();
    let ckp_dir = Scratch::new("f10_fault_tolerance");
    // Every rank must finish; rank 0 holds the gathered field.
    let run = |plan, res: &ResilienceConfig| -> Vec<RankRun> {
        let ideal = NetworkModel::ideal();
        let (outs, _) = resilient_run(&cfg, t_end, ideal, plan, res, &reg, false, None);
        outs.into_iter()
            .map(|r| r.expect("resilient advance failed"))
            .collect()
    };

    // ---- Run A: fault-free reference (plain driver) ----
    let (reference, _, _) = reference_run(&cfg, t_end, &reg);
    println!("A  reference: plain advance_to, no faults");

    // ---- Run B: resilient loop, injection disabled ----
    let res_b = ResilienceConfig {
        checkpoint_interval: 5,
        checkpoint_dir: Some(ckp_dir.path().join("run-b")),
        ..ResilienceConfig::default()
    };
    let runs_b = run(None, &res_b);
    let (state_b, rstats_b) = (
        runs_b[0].field.as_ref().expect("rank 0 gathers"),
        runs_b[0].rstats,
    );
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
    let seed = fault_seed(42);
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
        checkpoint_dir: Some(ckp_dir.path().join("run-c")),
        ..ResilienceConfig::default()
    };
    let runs_c = run(Some(plan), &res_c);
    let rstats_c = runs_c[0].rstats;
    let msg_faults: u64 = runs_c
        .iter()
        .filter_map(|r| r.faults)
        .map(|s| s.msgs_truncated + s.msgs_delayed)
        .sum();
    let l1 = l1_rel_density(
        runs_c[0].field.as_ref().expect("rank 0 gathers"),
        &reference,
    );
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
    let u0 = init_cons(geom, &scheme.eos, &blast_ic);
    let mut u_host = u0.clone();
    let mut host = PatchSolver::new(scheme, bcs, RkOrder::Rk3, geom);
    host.advance_to(&mut u_host, 0.0, t_end_d, cfg.cfl, None)
        .expect("host advance failed");
    let dev_cfg = AcceleratorConfig {
        throughput_multiplier: 8.0,
        ..AcceleratorConfig::default()
    };
    // One launch per step: 0.36 = 1 − 0.8² is the per-step fault rate of
    // two launches per step at 0.2 each.
    let dev_plan = FaultPlan {
        seed: 9,
        launch_fail_prob: 0.36,
        copy_fail_prob: 0.9,
        ..FaultPlan::disabled()
    };
    let mut dev = DevicePatchSolver::new(dev_cfg, scheme, bcs, RkOrder::Rk3, geom);
    dev.set_metrics(reg.clone());
    dev.set_breaker(BreakerConfig::default());
    dev.set_fault_injector(Arc::new(FaultInjector::new(dev_plan, 0)));
    // The optional flight record covers run D's device queue: H2D/launch/
    // D2H spans plus the breaker trip/half-open/probe/readmit instants.
    let tracer = flight_recorder(&opts);
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
        "the 36% launch-fault schedule must trip the breaker at least once \
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
    write_flight_record(&opts, tracer.as_ref());

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
    let snap = reg.snapshot();
    opts.finish(&table, "f10_fault_tolerance", "all runs pooled", &snap)
        .config_str("problem", "2D blast, 2x2 ranks, RK3 overlap")
        .config_num("global_n", n as f64)
        .config_num("t_end", t_end)
        .config_num("fault_seed", seed as f64)
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
