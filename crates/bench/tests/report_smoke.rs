//! End-to-end smoke test of the BENCH report pipeline: run a toy
//! distributed problem with metrics attached, write a `BENCH_*.json`
//! report, parse it back and validate it against the schema.

use rhrsc_bench::{validate_report, BenchOpts, Json, RunReport};
use rhrsc_comm::{run, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp};
use rhrsc_runtime::Registry;
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc_solver::{RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn bench_report_round_trips_through_disk_and_validates() {
    let cfg = DistConfig {
        scheme: Scheme::default_with_gamma(5.0 / 3.0),
        rk: RkOrder::Rk2,
        global_n: [48, 48, 1],
        domain: ([0.0; 3], [1.0, 1.0, 1.0]),
        decomp: CartDecomp {
            dims: [2, 1, 1],
            periodic: [true, true, false],
        },
        bcs: bc::uniform(Bc::Periodic),
        cfl: 0.4,
        mode: ExchangeMode::Overlap,
        gang_threads: 0,
        dt_refresh_interval: 2,
    };
    let ic = |x: [f64; 3]| Prim {
        rho: 1.0 + 0.3 * (2.0 * std::f64::consts::PI * x[0]).sin(),
        vel: [0.3, 0.1, 0.0],
        p: 1.0,
    };
    let nsteps = 4;
    let reg = Arc::new(Registry::new());
    let model = NetworkModel::virtual_cluster(Duration::from_micros(20), 10e9);
    let stats = {
        let (reg, cfg) = (reg.clone(), &cfg);
        run(2, model, move |rank| {
            rank.set_metrics(reg.clone());
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.set_metrics(reg.clone());
            solver.advance_steps(rank, &mut u, nsteps).unwrap()
        })
    };
    let makespan = stats.iter().map(|s| s.vtime).fold(0.0, f64::max);
    let zone_updates: u64 = stats.iter().map(|s| s.zone_updates).sum();
    assert!(makespan > 0.0);

    let dir = std::env::temp_dir().join("rhrsc-report-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = reg.snapshot();
    let path = RunReport::new("smoke", &BenchOpts::default())
        .config_num("global_n", 48.0)
        .config_num("nsteps", nsteps as f64)
        .config_str("mode", "overlap")
        .wall_time(makespan)
        .parallelism(2.0)
        .zone_updates(zone_updates as f64)
        .write_to(&dir, &snap);
    assert_eq!(path.file_name().unwrap(), "BENCH_smoke.json");

    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).expect("report must parse");
    validate_report(&doc).expect("report must validate");

    // Phase totals are positive and no larger than the run can explain:
    // the two ranks together can accumulate at most 2x the makespan.
    let phases = doc.get("phases").unwrap().as_arr().unwrap();
    assert!(!phases.is_empty());
    let mut phase_sum = 0.0;
    for p in phases {
        let name = p.get("name").unwrap().as_str().unwrap();
        let total = p.get("total_s").unwrap().as_f64().unwrap();
        assert!(total >= 0.0, "{name} has negative total");
        if name.starts_with("phase.") {
            phase_sum += total;
        }
    }
    assert!(phase_sum > 0.0, "no phase time recorded");
    assert!(
        phase_sum <= 2.0 * makespan * 1.1,
        "phase sum {phase_sum} exceeds 2 ranks x makespan {makespan}"
    );
    // Derived throughput is present and positive.
    let zups = doc.get("zone_updates_per_sec").unwrap().as_f64().unwrap();
    assert!(zups > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}
