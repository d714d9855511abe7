//! Recovery-ladder ordering for the multi-level checkpoint hierarchy.
//!
//! The resilient driver restores from the cheapest tier that can serve a
//! globally consistent state: L1 (own diskless snapshot) → L2 (buddy
//! replica shipped back by the guardian) → L3 (the global disk slots).
//! These tests pin the ordering by arming all tiers and then invalidating
//! them one at a time with targeted snapshot bit-flip injection, asserting
//! which tier counters move — and, crucially, which stay zero. The last
//! three pin what the telemetry series calls a tier restore, the disk
//! tier's `prev` fallback, and that the recovery cascade ends with the
//! ladder.

use rhrsc_comm::{run, run_with_faults, FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp, Field};
use rhrsc_io::checkpoint::{CheckpointSlots, GlobalCheckpoint};
use rhrsc_runtime::fault::SnapshotTarget;
use rhrsc_runtime::telemetry::field_index;
use rhrsc_runtime::{
    Registry, SeriesSample, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySink,
};
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode, ResilienceConfig};
use rhrsc_solver::integrate::RkOrder;
use rhrsc_solver::scheme::{Scheme, SolverError};
use rhrsc_srhd::Prim;
use std::path::PathBuf;
use std::sync::Arc;
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

/// A telemetry hub on a 2-rank resilient run (per-rank registries, a
/// sample every step) under `plan`: the `tier_restores` series total,
/// whether a `tier.restore` event was raised, and the restores the ranks
/// counted in their ledgers.
fn tier_restore_series(res: &ResilienceConfig, plan: Option<FaultPlan>) -> (f64, bool, u64) {
    let cfg = sod_cfg(2);
    let hub = Arc::new(Telemetry::new(TelemetryConfig::default()));
    let outs = run_with_faults(2, NetworkModel::ideal(), plan, |rank| {
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
        solver.set_metrics(Arc::new(Registry::new()));
        solver.set_telemetry(hub.clone());
        let (_, r) = solver
            .advance_to_with_restart(rank, &mut u, 0.0, 0.1, res)
            .unwrap();
        r.local_restores + r.buddy_restores + r.disk_restores
    });
    let total = hub.totals()[field_index("tier_restores").unwrap()];
    let event = hub.events().iter().any(|e| e.kind == "tier.restore");
    (total, event, outs.iter().sum())
}

/// The `tier_restores` series counts restores, not the memory tiers'
/// routine saves: a fault-free run with the default tiers armed reads 0
/// and raises no `tier.restore` event; forced restores read exactly the
/// restores the ranks served.
#[test]
fn tier_restore_series_counts_restores_not_saves() {
    let (total, event, served) = tier_restore_series(&ResilienceConfig::default(), None);
    assert_eq!(
        (total, event, served),
        (0.0, false, 0),
        "a clean run restores nothing"
    );
    let res = ResilienceConfig {
        max_step_retries: 0,
        max_restarts: 200,
        ..ResilienceConfig::default()
    };
    let plan = FaultPlan {
        seed: 11,
        msg_truncate_prob: 0.02,
        ..FaultPlan::disabled()
    };
    let (total, event, served) = tier_restore_series(&res, Some(plan));
    assert!(served > 0, "faults must force a restore");
    assert!(event);
    assert_eq!(total, served as f64, "one series count per restore served");
}

/// Tears the newest global checkpoint once, right after the disk save of
/// step `at` (the sink runs inside block rank 0's commit, after its saves,
/// and before any rank can enter the next agreement round).
struct TearLatest {
    path: PathBuf,
    at: u64,
    done: bool,
}

impl TelemetrySink for TearLatest {
    fn on_sample(&mut self, s: &SeriesSample, _: &[TelemetryEvent], _: &[f64], _: u32) {
        if !self.done && s.step == self.at {
            let bytes = std::fs::read(&self.path).unwrap();
            std::fs::write(&self.path, &bytes[..bytes.len() - 1]).unwrap();
            self.done = true;
        }
    }
}

/// A fault seed with a live flip between the tear (after the save of
/// step 4) and the next save (step 8).
const TORN_SEED: u64 = 1;

/// The one disk tier under a torn `latest`: live bit flips are detected
/// and, with no memory tier armed, restored from the global slot pair;
/// the restore after the tear finds `latest` unreadable and every rank
/// falls back to `prev` together. SDC restores keep the CFL scale, so the
/// run still ends bit-identical to the fault-free one.
#[test]
fn torn_global_latest_falls_back_to_prev_on_every_rank() {
    let cfg = sod_cfg(2);
    let dir = std::env::temp_dir().join("rhrsc-tiers-torn-global");
    let _ = std::fs::remove_dir_all(&dir);
    let res = ResilienceConfig {
        checkpoint_interval: 4,
        checkpoint_dir: Some(dir.clone()),
        local_interval: 0,
        scrub_interval: 1,
        ..ResilienceConfig::default()
    };
    let latest = CheckpointSlots::new(dir.join("global"))
        .unwrap()
        .latest_path::<GlobalCheckpoint>();
    let hub = Arc::new(Telemetry::new(TelemetryConfig::default()));
    hub.set_sink(Box::new(TearLatest {
        path: latest,
        at: 4,
        done: false,
    }));
    let plan = FaultPlan {
        seed: TORN_SEED,
        bitflip_prob: 0.1,
        ..FaultPlan::disabled()
    };
    let run_one = |plan: Option<FaultPlan>, resilient: bool| {
        run_with_faults(2, NetworkModel::ideal(), plan, |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
            let stats = if resilient {
                solver.set_metrics(Arc::new(Registry::new()));
                solver.set_telemetry(hub.clone());
                let out = solver.advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res);
                Some(out.unwrap().1)
            } else {
                solver.advance_to(rank, &mut u, 0.0, 0.1).unwrap();
                None
            };
            (stats, solver.gather_interior(rank, &u).unwrap())
        })
    };
    let reference: Field = run_one(None, false).remove(0).1.unwrap();
    let outs = run_one(Some(plan), true);
    let ledgers: Vec<_> = outs.iter().map(|(r, _)| r.unwrap()).collect();
    assert!(
        ledgers.iter().any(|r| r.sdc_detected > 0),
        "flips must be caught"
    );
    for r in &ledgers {
        assert!(r.disk_restores > 0, "no memory tier: disk serves: {r:?}");
        assert!(r.ckpt_fallbacks > 0, "the restore after the tear: {r:?}");
        assert_eq!(r.ckpt_fallbacks, ledgers[0].ckpt_fallbacks, "together");
        assert_eq!(r.disk_restores, ledgers[0].disk_restores);
        assert_eq!(r.restarts, 0, "SDC restores spend no budget: {r:?}");
    }
    let field = outs[0].1.as_ref().unwrap();
    let mut pairs = field.raw().iter().zip(reference.raw());
    assert!(
        pairs.all(|(a, b)| a.to_bits() == b.to_bits()),
        "not bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recovery cascade is the ladder's, not the solver's: after a
/// resilient advance, a plain advance on the same solver is strict again
/// and reports a poisoned cell instead of repairing it.
#[test]
fn plain_advance_after_the_ladder_fails_fast() {
    let cfg = sod_cfg(1);
    let outs = run(1, NetworkModel::ideal(), |rank| {
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &sod_ic);
        let res = ResilienceConfig::default();
        solver
            .advance_to_with_restart(rank, &mut u, 0.0, 0.02, &res)
            .unwrap();
        let g = *solver.geom();
        u.set(0, g.ng_of(0) + g.n[0] / 2, 0, 0, f64::NAN);
        solver.advance_to(rank, &mut u, 0.02, 0.04).map(|_| ())
    });
    assert!(
        outs[0].is_err(),
        "a poisoned cell must fail the plain advance"
    );
}
