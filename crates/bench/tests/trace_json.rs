//! Parse-back tests for the flight-recorder's Chrome/Perfetto export:
//! the hand-rolled `trace.json` writer in `rhrsc-runtime` against the
//! hand-rolled JSON reader in `rhrsc-bench`, plus the end-to-end
//! killed-rank acceptance shape (victim heartbeats → suspicion →
//! consensus → eviction → shrink-restore, in that order).

use rhrsc_bench::{validate_trace, Json};
use rhrsc_comm::{run_with_faults, FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp};
use rhrsc_runtime::trace::Tracer;
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode, ResilienceConfig};
use rhrsc_solver::scheme::SolverError;
use rhrsc_solver::{HealthConfig, RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::Duration;

/// All non-metadata events as (ts_us, pid, name) in file order.
fn payload_events(doc: &Json) -> Vec<(f64, u32, String)> {
    doc.get("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .map(|e| {
            (
                e.get("ts").and_then(Json::as_f64).unwrap(),
                e.get("pid").and_then(Json::as_f64).unwrap() as u32,
                e.get("name").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn multi_rank_virtual_time_trace_round_trips_in_merge_order() {
    // Two "ranks" stamp events under a virtual clock, deliberately
    // recorded out of global order (rank 1 first); the merged export
    // must come back time-sorted with virtual seconds scaled to
    // microsecond timestamps.
    let tr = Tracer::new(64);
    let r0 = tr.track(0, 0, "main");
    let r1 = tr.track(1, 0, "main");
    r1.span("phase.rhs", tr.stamp(Some(0.5)), tr.stamp(Some(0.75)));
    r1.instant("liveness.suspect", tr.stamp(Some(1.5)), 0.0);
    r0.span("phase.rhs", tr.stamp(Some(0.25)), tr.stamp(Some(0.5)));
    r0.counter("health.drift", tr.stamp(Some(1.0)), 1e-12);
    r0.instant("hb.send", tr.stamp(Some(1.25)), 0.0);

    let doc = Json::parse(&tr.to_chrome_json()).expect("trace must be parseable JSON");
    validate_trace(&doc).expect("trace must satisfy the viewer schema");

    let events = payload_events(&doc);
    assert_eq!(events.len(), 5);
    let ts: Vec<f64> = events.iter().map(|(t, _, _)| *t).collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "merged events must be time-ordered: {ts:?}"
    );
    // Virtual seconds → microseconds: the 0.25 s span start lands at
    // 2.5e5 µs, rank order follows virtual stamps not insertion order.
    assert_eq!(events[0], (2.5e5, 0, "phase.rhs".to_string()));
    assert_eq!(events[1].1, 1);
    assert_eq!(events.last().unwrap().2, "liveness.suspect");
}

fn crash_cfg(n: usize) -> DistConfig {
    DistConfig {
        scheme: Scheme::default_with_gamma(5.0 / 3.0),
        rk: RkOrder::Rk2,
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

#[test]
fn killed_rank_trace_shows_failover_in_causal_order() {
    let cfg = crash_cfg(16);
    let ic = |x: [f64; 3]| {
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
        Prim::at_rest(1.0, if r2 < 0.01 { 100.0 } else { 1.0 })
    };
    let ckp = std::env::temp_dir().join("rhrsc-trace-json-test");
    let _ = std::fs::remove_dir_all(&ckp);
    let res = ResilienceConfig {
        checkpoint_interval: 2,
        checkpoint_dir: Some(ckp.clone()),
        ..ResilienceConfig::default()
    };
    let plan = FaultPlan {
        seed: 3,
        crash_rank: Some(0),
        crash_step: 4,
        ..FaultPlan::disabled()
    };
    let tracer = Arc::new(Tracer::new(4096));
    let model = NetworkModel::ideal().with_suspect_after(Duration::from_millis(100));
    let tr = tracer.clone();
    let outs = run_with_faults(4, model, Some(plan), move |rank| {
        rank.set_trace(tr.clone());
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
        solver.set_health(HealthConfig::default());
        match solver.advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res) {
            Ok(_) => true,
            Err(SolverError::RankFailed { .. }) => false,
            Err(e) => panic!("rank {}: unexpected error {e}", rank.rank()),
        }
    });
    let _ = std::fs::remove_dir_all(&ckp);
    assert!(!outs[0], "the victim must report RankFailed");
    assert_eq!(outs.iter().filter(|&&ok| ok).count(), 3);

    let doc = Json::parse(&tracer.to_chrome_json()).expect("trace must parse");
    validate_trace(&doc).expect("trace must satisfy the viewer schema");
    let events = payload_events(&doc);

    let last = |pred: &dyn Fn(&(f64, u32, String)) -> bool| {
        events
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.0)
            .fold(f64::NAN, f64::max)
    };
    let first = |name: &str| {
        events
            .iter()
            .find(|(_, _, n)| n == name)
            .unwrap_or_else(|| panic!("no `{name}` event in trace"))
            .0
    };
    // The victim's flight record ends with its final heartbeat; only
    // after that do the survivors suspect, reach consensus, evict, and
    // restore the shrunken communicator.
    let victim_last_hb = last(&|(_, pid, n)| *pid == 0 && n == "hb.send");
    assert!(victim_last_hb.is_finite(), "victim heartbeats missing");
    let suspect = first("liveness.suspect");
    let consensus = first("liveness.consensus");
    let evict = first("liveness.evict");
    let shrink = first("driver.shrink_restore");
    assert!(
        victim_last_hb <= suspect && suspect <= evict && shrink >= consensus,
        "failover events out of causal order: hb {victim_last_hb}, suspect {suspect}, \
         consensus {consensus}, evict {evict}, shrink {shrink}"
    );
    // Suspicion instants come from survivors, never the dead rank.
    assert!(events
        .iter()
        .filter(|(_, _, n)| n == "liveness.suspect")
        .all(|(_, pid, _)| *pid != 0));
}
