//! F11 — Rank-level failure tolerance.
//!
//! A 2D relativistic blast wave on 2×2 ranks exercises the rank-level
//! failure path end to end (liveness deadlines, suspicion consensus,
//! shrinking recovery from the global checkpoint):
//!
//! * **A (reference)** — plain `advance_to`, no faults, no liveness
//!   agreement; wall-clock baseline,
//! * **B (liveness armed)** — `advance_to_with_restart` with injection
//!   disabled: per-step flag agreement, CRC halo trailers and heartbeat
//!   bookkeeping all active. Must be **bit-identical** to A; the armored
//!   agreement is timed against the identical-shape plain Δt allreduce
//!   of the same run to isolate the liveness overhead (acceptance: < 2%
//!   of total rank-time),
//! * **C (rank crash)** — rank 0 dies mid-run. The survivors must
//!   detect the silence against the liveness deadline, agree on the
//!   dead set via suspicion consensus, re-decompose the domain over the
//!   remaining ranks, restore from the rank-count-independent global
//!   checkpoint, and finish degraded. Reports shrink/eviction counters
//!   and the L1 density drift against A (acceptance: < 5%),
//! * **D (straggler)** — one rank runs 2.5× slow. Depth-scaled liveness
//!   patience must tolerate it: zero suspicions, zero shrinks, and a
//!   result bit-identical to the fault-free reference.
//!
//! Flags: `--toy` shrinks the grid and horizon for smoke tests/CI,
//! `--profile` prints the pooled phase breakdown. A machine-readable
//! report with the liveness counters and the measured overhead is
//! always written to `results/BENCH_f11_rank_failure.json`.

use rhrsc_bench::drill::{
    blast_2x2, fault_seed, flight_recorder, l1_rel, reference_run, resilient_run,
    write_flight_record, RankRun, Scratch,
};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_comm::{run_with_faults, FaultPlan, NetworkModel};
use rhrsc_runtime::Registry;
use rhrsc_solver::driver::{ExchangeMode, ResilienceConfig, ResilienceStats};
use rhrsc_solver::HealthSummary;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Microbenchmark the armored per-step agreement against the plain
/// allreduce-max it replaced, at an identical sync point (tight loop on
/// 4 ranks). Returns the added seconds per call, clamped at zero.
fn agreement_arming_cost(iters: usize) -> f64 {
    let outs = run_with_faults(4, NetworkModel::ideal(), None, |rank| {
        let t0 = Instant::now();
        for i in 0..iters {
            rank.allreduce_max(i as f64);
        }
        let plain = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for i in 0..iters {
            rank.agree_max(i as f64);
        }
        (plain, t0.elapsed().as_secs_f64())
    });
    // The loops are collectives, so every rank measures the same span;
    // average across ranks to smooth scheduling jitter.
    let plain: f64 = outs.iter().map(|(p, _)| p).sum::<f64>() / outs.len() as f64;
    let armored: f64 = outs.iter().map(|(_, a)| a).sum::<f64>() / outs.len() as f64;
    ((armored - plain) / iters as f64).max(0.0)
}

fn main() {
    let opts = BenchOpts::from_args();
    let (n, t_end, reps) = if opts.toy {
        (32, 0.05, 2)
    } else {
        (64, 0.08, 2)
    };
    println!("# F11: rank-level failure tolerance, 2D blast {n}x{n}, 2x2 ranks, t_end = {t_end}");
    let cfg = blast_2x2(n, ExchangeMode::BulkSynchronous);
    let reg = Arc::new(Registry::new());
    let ckp_dir = Scratch::new("f11_rank_failure");
    // The health monitor is armed in every arm: the report's
    // `health.records` counter pools them, its summary is arm C's.
    let run = |model, plan, res: &ResilienceConfig, tracer| {
        resilient_run(&cfg, t_end, model, plan, res, &reg, true, tracer)
    };
    let mut wall_total = 0.0;

    // ---- Run A: fault-free reference, best of `reps` ----
    let (mut reference, mut wall_a, steps_a) = reference_run(&cfg, t_end, &reg);
    wall_total += wall_a;
    for _ in 1..reps {
        let (g, w, _) = reference_run(&cfg, t_end, &reg);
        wall_total += w;
        wall_a = wall_a.min(w);
        reference = g;
    }
    println!(
        "A  reference: plain advance_to, {steps_a} steps, wall = {wall_a:.3}s (best of {reps})"
    );

    // ---- Run B: liveness armed, injection disabled ----
    // No checkpointing, so the run isolates the liveness layer itself
    // (armored flag agreement, CRC trailers, heartbeat bookkeeping).
    let res_b = ResilienceConfig::default();
    let mut wall_b = f64::INFINITY;
    let mut state_b = None;
    let mut rstats_b = ResilienceStats::default();
    for _ in 0..reps {
        let (outs, w) = run(NetworkModel::ideal(), None, &res_b, None);
        wall_total += w;
        wall_b = wall_b.min(w);
        let rank0 = outs
            .into_iter()
            .flatten()
            .next()
            .expect("rank 0 must finish");
        rstats_b = rank0.rstats;
        state_b = rank0.field;
    }
    let state_b = state_b.expect("rank 0 holds the gathered field");
    let bit_identical = state_b.raw() == reference.raw();
    assert!(
        bit_identical,
        "run B must be bit-identical to the reference"
    );
    assert_eq!(rstats_b.shrinks, 0);
    assert_eq!(rstats_b.false_suspicions, 0);
    // The liveness layer's per-step addition over the pre-liveness loop
    // is the arming of the flag agreement (the collective itself, like
    // the rollback clone, predates liveness as a plain allreduce-max).
    // Wall-clock A/B deltas at this problem size are dominated by
    // scheduler noise and step-barrier skew, so the acceptance gate
    // measures the arming cost directly at an identical sync point and
    // scales it by the step count. Halo CRC trailers add ~1 µs/message
    // on top and are already included in both walls.
    let arming_s = agreement_arming_cost(if opts.toy { 500 } else { 2000 });
    let overhead = arming_s * steps_a as f64 / wall_a;
    println!(
        "B  liveness armed, faults off: bit-identical = {bit_identical}, \
         wall = {wall_b:.3}s (reference {wall_a:.3}s), \
         agreement arming = {:.2} us/step -> liveness overhead = {:.3}%",
        arming_s * 1e6,
        overhead * 100.0
    );
    assert!(
        overhead < 0.02,
        "liveness overhead {:.2}% exceeds the 2% budget",
        overhead * 100.0
    );

    // ---- Run C: rank 0 crashes mid-run; survivors shrink and finish ----
    // Killing rank 0 (not the last rank) exercises the block→communicator
    // translation after the shrink.
    // Crash/stall sites are scheduled (not drawn), so the seed only
    // perturbs the stream layout.
    let seed = fault_seed(11);
    let plan_c = FaultPlan {
        seed,
        crash_rank: Some(0),
        crash_step: 6,
        ..FaultPlan::disabled()
    };
    let res_c = ResilienceConfig {
        checkpoint_interval: 3,
        checkpoint_dir: Some(ckp_dir.path().to_path_buf()),
        ..ResilienceConfig::default()
    };
    // The crash scenario carries the flight recorder: the victim's last
    // heartbeats, the survivors' suspicion/consensus/eviction instants
    // and the shrink-restore span all land in one merged trace. The
    // victim's terminal error auto-dumps a partial trace; the explicit
    // write below replaces it with the complete run.
    let tracer = flight_recorder(&opts);
    let model_c = NetworkModel::ideal().with_suspect_after(Duration::from_millis(150));
    let (outs_c, wall_c) = run(model_c, Some(plan_c.clone()), &res_c, tracer.as_ref());
    wall_total += wall_c;
    assert!(outs_c[0].is_none(), "the victim must report RankFailed");
    let survivors: Vec<_> = outs_c.iter().flatten().collect();
    assert_eq!(survivors.len(), 3, "all three survivors must finish");
    let rstats_c = survivors[0].rstats;
    let mut health_c = HealthSummary::default();
    for r in &survivors {
        assert_eq!(r.rstats.shrinks, 1, "{:?}", r.rstats);
        assert_eq!(r.rstats.ranks_lost, 1, "{:?}", r.rstats);
        health_c.merge(&r.health);
    }
    let state_c = survivors
        .iter()
        .find_map(|r| r.field.clone())
        .expect("the new block rank 0 must gather");
    write_flight_record(&opts, tracer.as_ref());
    let l1 = l1_rel(&state_c, &reference);
    println!(
        "C  rank 0 crashed at step {}: shrinks = {}, ranks lost = {}, \
         global checkpoints = {}, wall = {wall_c:.3}s",
        plan_c.crash_step, rstats_c.shrinks, rstats_c.ranks_lost, rstats_c.checkpoints_saved
    );
    println!("C  relative L1 drift vs fault-free = {}", sci(l1));
    assert!(l1 < 0.05, "post-shrink drift exceeds 5%: {l1}");

    // ---- Run D: straggler rank, tolerated without eviction ----
    let plan_d = FaultPlan {
        seed: seed.wrapping_add(1),
        stall_rank: Some(3),
        stall_factor: 2.5,
        ..FaultPlan::disabled()
    };
    let (outs_d, wall_d) = run(
        NetworkModel::ideal(),
        Some(plan_d.clone()),
        &ResilienceConfig::default(),
        None,
    );
    wall_total += wall_d;
    let finishers: Vec<_> = outs_d.iter().flatten().collect();
    assert_eq!(finishers.len(), 4, "a straggler must not be evicted");
    // The injector counts every stretch it applied.
    let stall_events = |r: &&RankRun| r.faults.map_or(0, |f| f.stall_events);
    let stalls: u64 = finishers.iter().map(stall_events).sum();
    assert!(stalls > 0, "the straggler was never stalled");
    for r in &finishers {
        assert_eq!(r.rstats.shrinks, 0, "{:?}", r.rstats);
        assert_eq!(r.rstats.false_suspicions, 0, "{:?}", r.rstats);
    }
    let state_d = finishers[0].field.as_ref().expect("rank 0 gathers");
    let d_identical = state_d.raw() == reference.raw();
    assert!(d_identical, "straggler run must stay bit-identical");
    println!(
        "D  2.5x straggler: stalls = {stalls}, shrinks = 0, \
         bit-identical = {d_identical}, wall = {wall_d:.3}s"
    );

    let mut table = Table::new(&[
        "run",
        "wall_s",
        "shrinks",
        "ranks_lost",
        "stalls",
        "l1_rel_drift",
    ]);
    table.row(&[
        "B:liveness-on".into(),
        format!("{wall_b:.3}"),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    table.row(&[
        "C:crash".into(),
        format!("{wall_c:.3}"),
        rstats_c.shrinks.to_string(),
        rstats_c.ranks_lost.to_string(),
        stall_events(&survivors[0]).to_string(),
        sci(l1),
    ]);
    table.row(&[
        "D:straggler".into(),
        format!("{wall_d:.3}"),
        "0".into(),
        "0".into(),
        stalls.to_string(),
        "0".into(),
    ]);
    let snap = reg.snapshot();
    let mut rep = opts.finish(&table, "f11_rank_failure", "all scenarios pooled", &snap);
    rep.config_str("problem", "2D blast, 2x2 ranks, RK3 bulk-sync")
        .config_num("global_n", n as f64)
        .config_num("t_end", t_end)
        .config_num("fault_seed", seed as f64)
        .config_num("crash_rank", 0.0)
        .config_num("crash_step", plan_c.crash_step as f64)
        .config_num("stall_factor", plan_d.stall_factor)
        .config_num("liveness_overhead_frac", overhead)
        .config_num("l1_rel_drift_after_shrink", l1)
        .wall_time(wall_total)
        .parallelism(4.0);
    // Merged physics-health summary of the crash run's survivors.
    for (name, v) in health_c.to_pairs() {
        rep.config_num(name, v);
    }
    rep.write(&snap);
}
