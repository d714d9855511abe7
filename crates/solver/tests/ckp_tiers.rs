//! Recovery-ladder ordering for the multi-level checkpoint hierarchy.
//!
//! The resilient driver restores from the cheapest tier that can serve a
//! globally consistent state: L1 (own diskless snapshot) → L2 (buddy
//! replica shipped back by the guardian) → L3 (disk slots). These tests
//! pin the ordering by arming all tiers and then invalidating them one at
//! a time with targeted snapshot bit-flip injection, asserting which tier
//! counters move — and, crucially, which stay zero.

use rhrsc_comm::{run, run_with_faults, FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp};
use rhrsc_runtime::fault::SnapshotTarget;
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode, ResilienceConfig};
use rhrsc_solver::integrate::RkOrder;
use rhrsc_solver::scheme::{Scheme, SolverError};
use rhrsc_srhd::Prim;
use std::time::Duration;

fn sod_cfg(nranks: usize) -> DistConfig {
    DistConfig {
        scheme: Scheme::default_with_gamma(5.0 / 3.0),
        rk: RkOrder::Rk3,
        global_n: [128, 1, 1],
        domain: ([0.0; 3], [1.0, 1.0, 1.0]),
        decomp: CartDecomp::line(nranks, false),
        bcs: bc::uniform(Bc::Outflow),
        cfl: 0.4,
        mode: ExchangeMode::BulkSynchronous,
        gang_threads: 0,
        dt_refresh_interval: 1,
    }
}

fn sod_ic(x: [f64; 3]) -> Prim {
    if x[0] < 0.5 {
        Prim::new_1d(1.0, 0.0, 1.0)
    } else {
        Prim::new_1d(0.125, 0.0, 0.1)
    }
}

/// All memory tiers armed on a fast cadence; the disk tier configured but
/// expected to stay cold.
fn tiered_res(dir: Option<std::path::PathBuf>) -> ResilienceConfig {
    ResilienceConfig {
        max_step_retries: 0,
        max_restarts: 200,
        checkpoint_interval: 3,
        checkpoint_dir: dir,
        local_interval: 1,
        buddy_offset: 1,
        scrub_interval: 1,
    }
}

/// With healthy memory tiers, every retry-exhaustion restore is served
/// from the rank's own L1 snapshot: the disk slots exist but are never
/// read.
#[test]
fn memory_tier_serves_restores_before_disk() {
    let cfg = sod_cfg(2);
    let dir = std::env::temp_dir().join("rhrsc-tiers-local-first");
    let _ = std::fs::remove_dir_all(&dir);
    let res = tiered_res(Some(dir.clone()));
    let plan = FaultPlan {
        seed: 11,
        msg_truncate_prob: 0.02,
        ..FaultPlan::disabled()
    };
    let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
        solver
            .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
            .unwrap()
    });
    for (_, r) in &outs {
        assert!(r.restarts > 0, "faults must force at least one restore");
        assert_eq!(
            r.restarts, r.local_restores,
            "every restore must come from the L1 tier: {r:?}"
        );
        assert_eq!(r.buddy_restores, 0, "{r:?}");
        assert_eq!(r.disk_restores, 0, "the disk tier must stay cold: {r:?}");
        assert!(r.local_snapshots > 0 && r.buddy_exchanges > 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rot every rank's *own* snapshot at capture time: the scrub drops the
/// L1 tier, and restores fall back to the buddy replicas (which were
/// shipped clean, before the rot was injected) — still no disk reads.
#[test]
fn rotted_local_snapshots_fall_back_to_buddy_replicas() {
    let cfg = sod_cfg(2);
    let dir = std::env::temp_dir().join("rhrsc-tiers-buddy-fallback");
    let _ = std::fs::remove_dir_all(&dir);
    let res = tiered_res(Some(dir.clone()));
    let plan = FaultPlan {
        seed: 11,
        msg_truncate_prob: 0.02,
        snapshot_bitflip_prob: 1.0,
        snapshot_flip_target: SnapshotTarget::Local,
        ..FaultPlan::disabled()
    };
    let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
        solver
            .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
            .unwrap()
    });
    for (_, r) in &outs {
        assert!(r.restarts > 0, "faults must force at least one restore");
        assert_eq!(r.local_restores, 0, "every L1 copy is rotted: {r:?}");
        assert_eq!(
            r.restarts, r.buddy_restores,
            "every restore must come from the buddy replica: {r:?}"
        );
        assert_eq!(r.disk_restores, 0, "the disk tier must stay cold: {r:?}");
        assert!(
            r.snapshots_rotted > 0,
            "the scrub must catch the injected rot: {r:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rot both memory tiers: the collective memory restore cannot cover the
/// blocks, and the ladder falls all the way through to the disk slots.
#[test]
fn fully_rotted_memory_tiers_fall_through_to_disk() {
    let cfg = sod_cfg(2);
    let dir = std::env::temp_dir().join("rhrsc-tiers-disk-fallback");
    let _ = std::fs::remove_dir_all(&dir);
    let res = ResilienceConfig {
        // Checkpoint every committed step so the disk tier tracks the
        // memory tier and restores converge.
        checkpoint_interval: 1,
        ..tiered_res(Some(dir.clone()))
    };
    let plan = FaultPlan {
        seed: 11,
        msg_truncate_prob: 0.02,
        snapshot_bitflip_prob: 1.0,
        snapshot_flip_target: SnapshotTarget::Both,
        ..FaultPlan::disabled()
    };
    let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
        solver
            .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
            .unwrap()
    });
    for (_, r) in &outs {
        assert!(r.restarts > 0, "faults must force at least one restore");
        assert_eq!(r.local_restores, 0, "{r:?}");
        assert_eq!(r.buddy_restores, 0, "{r:?}");
        assert_eq!(
            r.restarts, r.disk_restores,
            "with both memory tiers rotted only disk can serve: {r:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A confirmed rank death with *no checkpoint directory*: the survivors
/// reassemble the lost block from the buddy replicas and re-tile onto the
/// shrunken decomposition — a fully diskless shrinking recovery.
#[test]
fn buddy_shrink_survives_rank_death_without_disk() {
    let cfg = sod_cfg(3);
    let res = ResilienceConfig {
        local_interval: 1,
        buddy_offset: 1,
        scrub_interval: 2,
        checkpoint_dir: None,
        ..ResilienceConfig::default()
    };
    let plan = FaultPlan {
        seed: 5,
        crash_rank: Some(0),
        crash_step: 4,
        ..FaultPlan::disabled()
    };
    let model = NetworkModel::ideal().with_suspect_after(Duration::from_millis(150));
    let outs = run_with_faults(3, model, Some(plan), |rank| {
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
        match solver.advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res) {
            Ok((_, rstats)) => {
                assert!(u.raw().iter().all(|v| v.is_finite()));
                Some(rstats)
            }
            Err(SolverError::RankFailed { .. }) => None,
            Err(e) => panic!("rank {}: unexpected error {e}", rank.rank()),
        }
    });
    assert!(outs[0].is_none(), "the victim must report RankFailed");
    let survivors: Vec<_> = outs.iter().flatten().collect();
    assert_eq!(survivors.len(), 2, "both survivors must finish");
    for r in &survivors {
        assert_eq!(r.shrinks, 1, "{r:?}");
        assert_eq!(r.ranks_lost, 1, "{r:?}");
        assert_eq!(
            r.buddy_shrinks, 1,
            "the shrink must be served from replicas: {r:?}"
        );
        assert_eq!(r.disk_restores, 0, "no disk tier exists: {r:?}");
    }
}

/// Injected live-state bit flips are caught by the per-step ABFT verify
/// and repaired from the memory tier without consuming the restart
/// budget (a deterministic replay cannot re-draw the same flip).
#[test]
fn live_sdc_is_detected_and_repaired_from_memory() {
    let cfg = sod_cfg(2);
    let res = ResilienceConfig {
        local_interval: 1,
        buddy_offset: 1,
        scrub_interval: 1,
        checkpoint_dir: None,
        ..ResilienceConfig::default()
    };
    let plan = FaultPlan {
        seed: 42,
        bitflip_prob: 0.05,
        ..FaultPlan::disabled()
    };
    let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
        let out = solver
            .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
            .unwrap();
        assert!(u.raw().iter().all(|v| v.is_finite()));
        out
    });
    let detected: u64 = outs.iter().map(|(_, r)| r.sdc_detected).sum();
    assert!(detected > 0, "expected at least one live-state detection");
    for (_, r) in &outs {
        assert_eq!(
            r.restarts, 0,
            "SDC repairs must not consume the restart budget: {r:?}"
        );
        assert!(
            r.local_restores + r.buddy_restores > 0,
            "detections must be repaired from the memory tier: {r:?}"
        );
    }
}

/// Arming the memory tiers and the per-step ABFT verify on a fault-free
/// run must be bit-invisible: snapshots are pure reads of the state.
#[test]
fn armed_tiers_are_bit_invisible_without_faults() {
    let cfg = sod_cfg(2);
    let bare = ResilienceConfig {
        local_interval: 0,
        scrub_interval: 0,
        checkpoint_dir: None,
        ..ResilienceConfig::default()
    };
    let armed = ResilienceConfig {
        local_interval: 1,
        buddy_offset: 1,
        scrub_interval: 1,
        checkpoint_dir: None,
        ..ResilienceConfig::default()
    };
    let run_one = |res: ResilienceConfig| {
        let cfg = cfg.clone();
        run(2, NetworkModel::ideal(), move |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
            solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
                .unwrap();
            u.raw().to_vec()
        })
    };
    let plain = run_one(bare);
    let tiered = run_one(armed);
    for (rank, (a, b)) in plain.iter().zip(&tiered).enumerate() {
        let identical = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(identical, "rank {rank}: armed tiers changed the numbers");
    }
}
