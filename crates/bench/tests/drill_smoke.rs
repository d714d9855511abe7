//! Smoke test of the fault-drill scaffold (`rhrsc_bench::drill`) on the
//! toy 32² blast: the resilient run is bit-invisible without faults,
//! reports a crashed rank as `None`, and the seed parse and the scratch
//! directory behave as the drills assume.

use rhrsc_bench::drill::{blast_2x2, fault_seed, reference_run, resilient_run, Scratch};
use rhrsc_comm::{FaultPlan, NetworkModel};
use rhrsc_runtime::Registry;
use rhrsc_solver::driver::{ExchangeMode, ResilienceConfig};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 32;
const T_END: f64 = 0.05;

#[test]
fn faultless_resilient_run_is_the_reference_run() {
    let cfg = blast_2x2(N, ExchangeMode::BulkSynchronous);
    let reg = Arc::new(Registry::new());
    let (reference, _, steps) = reference_run(&cfg, T_END, &reg);
    assert!(steps > 6, "the crash drill below needs a step 6: {steps}");
    let (outs, _) = resilient_run(
        &cfg,
        T_END,
        NetworkModel::ideal(),
        None,
        &ResilienceConfig::default(),
        &reg,
        false,
        None,
    );
    assert_eq!(outs.len(), 4);
    for (r, run) in outs.iter().enumerate() {
        let run = run.as_ref().unwrap_or_else(|| panic!("rank {r} was lost"));
        assert_eq!(run.rstats.retries, 0);
        assert_eq!(run.rstats.restarts, 0);
        assert_eq!(run.rstats.recovery.total(), 0);
        assert!(run.faults.is_none(), "no plan, no injector");
        assert_eq!(run.field.is_some(), r == 0, "rank 0 gathers");
    }
    let gathered = outs[0].as_ref().unwrap().field.as_ref().unwrap();
    assert_eq!(gathered.raw(), reference.raw(), "must be bit-identical");
}

#[test]
fn crashed_rank_is_none_and_the_survivors_finish() {
    let cfg = blast_2x2(N, ExchangeMode::BulkSynchronous);
    let reg = Arc::new(Registry::new());
    let ckp = Scratch::new("drill_smoke");
    let plan = FaultPlan {
        crash_rank: Some(0),
        crash_step: 6,
        ..FaultPlan::disabled()
    };
    let res = ResilienceConfig {
        checkpoint_interval: 3,
        checkpoint_dir: Some(ckp.path().to_path_buf()),
        ..ResilienceConfig::default()
    };
    let model = NetworkModel::ideal().with_suspect_after(Duration::from_millis(150));
    let (outs, _) = resilient_run(&cfg, T_END, model, Some(plan), &res, &reg, false, None);
    assert!(outs[0].is_none(), "the victim must report RankFailed");
    assert_eq!(outs.iter().flatten().count(), 3, "three survivors");
    assert!(
        outs.iter().flatten().any(|r| r.field.is_some()),
        "the new block rank 0 must gather"
    );
}

#[test]
fn fault_seed_falls_back_to_its_default() {
    // The only test of this binary that touches the variable.
    std::env::remove_var("RHRSC_FAULT_SEED");
    assert_eq!(fault_seed(42), 42);
    std::env::set_var("RHRSC_FAULT_SEED", "not-a-number");
    assert_eq!(fault_seed(13), 13);
    std::env::set_var("RHRSC_FAULT_SEED", "90210");
    assert_eq!(fault_seed(42), 90210);
    std::env::remove_var("RHRSC_FAULT_SEED");
}

#[test]
fn scratch_directories_are_distinct_and_clean_up() {
    let (a, b) = (Scratch::new("drill_smoke"), Scratch::new("drill_smoke"));
    let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
    assert_ne!(pa, pb);
    assert!(pa.is_dir() && pb.is_dir());
    std::fs::write(pa.join("slot"), b"x").unwrap();
    drop(a);
    drop(b);
    assert!(!pa.exists() && !pb.exists());
}
