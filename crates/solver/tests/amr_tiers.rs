//! Recovery-ladder tier ordering for the distributed AMR driver.
//!
//! `ckp_tiers.rs` pins the block driver's cheapest-tier-first restores;
//! these are the same pins for [`DistAmrSolver`], whose memory tier is a
//! full replicated hierarchy snapshot on every rank (no buddy transfer)
//! over one shared disk slot. Message corruption with no in-place retries
//! forces restores; targeted snapshot rot then takes the memory tier away.
//! The last case drives the ladder past its whole budget, served diskless.
//!
//! The fault seed is one whose damaged messages all fall inside steps: a
//! corrupted checkpoint *gather* is a terminal error of the AMR driver
//! today, not a restore, and these tests are about the restore order.

use rhrsc_comm::{run, run_with_faults, FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc};
use rhrsc_runtime::fault::SnapshotTarget;
use rhrsc_runtime::{Registry, Tracer};
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::SolverError;
use rhrsc_solver::{AmrConfig, DistAmrSolver, ResilienceConfig, ResilienceStats, RkOrder, Scheme};
use rhrsc_srhd::{Prim, NCOMP};
use std::path::PathBuf;
use std::sync::Arc;

fn pulse_ic(x: [f64; 3]) -> Prim {
    let g = (-((x[0] - 0.5) / 0.08).powi(2)).exp();
    Prim::new_1d(1.0 + 2.0 * g, 0.0, 1.0 + 20.0 * g)
}

/// Both tiers armed on a fast cadence, no in-place retries: every failed
/// step escalates straight to the restore rung. (The replicated AMR tier
/// reads no buddy offset.)
fn tiered_res(dir: PathBuf) -> ResilienceConfig {
    ResilienceConfig {
        max_step_retries: 0,
        max_restarts: 200,
        checkpoint_interval: 1,
        checkpoint_dir: Some(dir),
        local_interval: 1,
        scrub_interval: 1,
        ..ResilienceConfig::default()
    }
}

type Totals = [f64; NCOMP];

/// Run the periodic pulse on 2 ranks under `plan`; per rank the
/// resilience ledger and the composite totals before and after.
fn run_pulse(
    res: &ResilienceConfig,
    plan: FaultPlan,
    reg: &Arc<Registry>,
) -> Vec<(ResilienceStats, Totals, Totals)> {
    run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
        let mut d = DistAmrSolver::new(
            Scheme::default_with_gamma(5.0 / 3.0),
            bc::uniform(Bc::Periodic),
            RkOrder::Rk3,
            64,
            0.0,
            1.0,
            AmrConfig {
                threshold: 0.08,
                ..AmrConfig::default()
            },
        );
        d.set_metrics(Arc::clone(reg));
        d.init(rank, &pulse_ic);
        let before = d.composite_totals_gathered(rank).unwrap();
        let (_, stats) = d.advance_to(rank, 0.0, 0.1, 0.4, res).unwrap();
        let after = d.composite_totals_gathered(rank).unwrap();
        (stats, before, after)
    })
}

/// With a healthy memory tier every retry-exhaustion restore is served
/// from the replicated snapshot: the shared disk slot is written but
/// never read.
#[test]
fn healthy_memory_tier_serves_every_restore() {
    let dir = std::env::temp_dir().join("rhrsc-amr-tiers-memory-first");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan {
        seed: 7,
        msg_truncate_prob: 0.02,
        ..FaultPlan::disabled()
    };
    let reg = Arc::new(Registry::new());
    let outs = run_pulse(&tiered_res(dir.clone()), plan, &reg);
    for (stats, _, _) in &outs {
        assert!(stats.restarts > 0, "faults must force a restore: {stats:?}");
        assert_eq!(
            stats.restarts, stats.local_restores,
            "every restore must come from memory: {stats:?}"
        );
        assert_eq!(stats.ckpt_fallbacks, 0, "{stats:?}");
    }
    assert_eq!(
        reg.counter("ckp.tier.disk.restore").get(),
        0,
        "the disk tier must stay cold"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rot every frozen snapshot at capture time: the scrub drops it, the
/// memory tier serves nothing, every rank falls through to the shared
/// disk slot — and the run still conserves.
#[test]
fn rotted_memory_tier_falls_through_to_disk() {
    let dir = std::env::temp_dir().join("rhrsc-amr-tiers-disk-fallback");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan {
        seed: 7,
        msg_truncate_prob: 0.02,
        snapshot_bitflip_prob: 1.0,
        snapshot_flip_target: SnapshotTarget::Local,
        ..FaultPlan::disabled()
    };
    let reg = Arc::new(Registry::new());
    let outs = run_pulse(&tiered_res(dir.clone()), plan, &reg);
    let mut restores = 0;
    for (stats, before, after) in &outs {
        assert!(stats.restarts > 0, "faults must force a restore: {stats:?}");
        assert!(
            stats.snapshots_rotted > 0,
            "the scrub must catch the injected rot: {stats:?}"
        );
        assert_eq!(stats.local_restores, 0, "every copy is rotted: {stats:?}");
        assert_eq!(stats.restarts, stats.disk_restores, "{stats:?}");
        restores += stats.restarts;
        for c in 0..NCOMP {
            assert!(
                (after[c] - before[c]).abs() <= 1e-11 * before[c].abs().max(1.0),
                "component {c}: {} -> {}",
                before[c],
                after[c]
            );
        }
    }
    assert_eq!(
        reg.counter("ckp.tier.disk.restore").get(),
        restores,
        "every restore on every rank must be served from disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run driven past its restore budget must leave a flight-recorder
/// dump behind, like the block driver's. CFL 0 collapses Δt on every
/// attempt, deterministically and on every rank: each step burns its
/// retries, the memory tier serves restores until the budget is spent,
/// and the step's own error comes back — the rungs booked by the ladder
/// under the block driver's counter names.
#[test]
fn exhausted_restore_budget_dumps_the_flight_recorder() {
    let dir = std::env::temp_dir().join("rhrsc-amr-dist-terminal-dump");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("trace.json");
    let tracer = Arc::new(Tracer::new(256));
    tracer.set_dump_path(Some(path.clone()));
    let cfg = AmrConfig {
        max_levels: 2,
        ..AmrConfig::default()
    };
    let res = ResilienceConfig {
        max_step_retries: 2,
        max_restarts: 3,
        checkpoint_dir: None,
        local_interval: 1,
        ..ResilienceConfig::default()
    };
    let prob = Problem::sod();
    let outs = run(2, NetworkModel::ideal(), |rank| {
        rank.set_trace(Arc::clone(&tracer));
        let reg = Arc::new(Registry::new());
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let mut d = DistAmrSolver::new(scheme, prob.bcs, RkOrder::Rk3, 64, 0.0, 1.0, cfg.clone());
        d.set_metrics(Arc::clone(&reg));
        d.init(rank, &|x| (prob.ic)(x));
        (d.advance_to(rank, 0.0, 0.1, 0.0, &res), reg)
    });
    for (out, reg) in outs {
        assert!(
            matches!(out, Err(SolverError::TimestepCollapse { .. })),
            "expected the step's own error, got {out:?}"
        );
        let count = |name| reg.counter(name).get();
        assert_eq!(
            count("driver.restarts"),
            3,
            "every unit of budget is spent first"
        );
        assert_eq!(
            count("driver.retries"),
            2 * 4,
            "two retries before each escalation"
        );
        assert_eq!(count("ckp.tier.local.restore"), 3, "served diskless");
    }
    let dump = std::fs::read_to_string(&path).expect("terminal error must dump the trace");
    assert!(dump.contains("fault.dump"));
    let _ = std::fs::remove_dir_all(&dir);
}
