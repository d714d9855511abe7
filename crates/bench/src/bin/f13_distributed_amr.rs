//! F13 — Distributed fault-tolerant AMR.
//!
//! The Berger–Oliger patch hierarchy sharded across simulated ranks
//! (SFC-ordered, cost-weighted contiguous segments; owner-computes with
//! descend/reflux/allgather exchanges), driven through the rank-failure
//! recovery ladder:
//!
//! * **A (serial reference)** — the plain single-rank [`AmrSolver`] on the
//!   Sod tube; the determinism baseline,
//! * **B (distributed, no faults)** — the same problem on 4 ranks through
//!   [`DistAmrSolver`]. Must be **bit-identical** to A in every patch of
//!   the gathered v4 checkpoint, with real cross-rank coupling (descend +
//!   reflux traffic) exercised,
//! * **C (rank crash mid-regrid)** — a steepening periodic pulse keeps
//!   the hierarchy regridding; rank 1 is killed inside the regrid window
//!   (the allgather that precedes clustering). Survivors must evict it
//!   via suspicion consensus, restore from the shared rank-count-
//!   independent checkpoint, re-partition the hierarchy over 3 ranks,
//!   and finish. Acceptance: composite ∫D, ∫S, ∫τ drift ≤ 1e-11 and
//!   restricted base-grid L1 drift vs the fault-free run ≤ 1e-3.
//!
//! Flags: `--toy` shrinks the grids for smoke tests/CI, `--profile`
//! prints the pooled phase table. A report with the `amr.dist.*`
//! exchange counters and the recovery ladder's `driver.*` / `ckp.*`
//! counters lands in `results/BENCH_f13_distributed_amr.json`.
//!
//! Env knobs: `RHRSC_FAULT_SEED` (CI seed matrix).

use rhrsc_bench::drill::{fault_seed, Scratch};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_comm::{run_with_faults, FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc};
use rhrsc_io::checkpoint::AmrCheckpoint;
use rhrsc_runtime::fault::RankSite;
use rhrsc_runtime::Registry;
use rhrsc_solver::amr::{AmrConfig, AmrSolver};
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::SolverError;
use rhrsc_solver::{
    DistAmrSolver, DistAmrStats, ResilienceConfig, ResilienceStats, RkOrder, Scheme,
};
use rhrsc_srhd::{Prim, NCOMP};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scheme() -> Scheme {
    Scheme::default_with_gamma(5.0 / 3.0)
}

fn pulse_ic(x: [f64; 3]) -> Prim {
    let g = (-((x[0] - 0.5) / 0.08).powi(2)).exp();
    Prim::new_1d(1.0 + 2.0 * g, 0.0, 1.0 + 20.0 * g)
}

/// Relative L1 distance over the level-0 (restricted composite) records
/// of two v4 AMR checkpoints.
fn l1_base(a: &AmrCheckpoint, b: &AmrCheckpoint) -> f64 {
    let base = |ck: &AmrCheckpoint| -> Vec<f64> {
        let mut recs: Vec<_> = ck.patches.iter().filter(|p| p.level == 0).collect();
        recs.sort_by_key(|p| p.lo);
        recs.iter().flat_map(|p| p.data.iter().copied()).collect()
    };
    let (xa, xb) = (base(a), base(b));
    assert_eq!(xa.len(), xb.len(), "base grids must match");
    let num: f64 = xa.iter().zip(&xb).map(|(x, y)| (x - y).abs()).sum();
    let den: f64 = xb.iter().map(|y| y.abs()).sum();
    num / den
}

fn main() {
    let opts = BenchOpts::from_args();
    let (n0, t_end_b, t_end_c) = if opts.toy {
        (48usize, 0.10, 0.12)
    } else {
        (96, 0.20, 0.15)
    };
    let nranks = 4usize;
    println!("# F13: distributed AMR, base {n0} on {nranks} ranks");
    let reg = Arc::new(Registry::new());
    let bench_t0 = Instant::now();
    let seed = fault_seed(13);

    // ---- Arm A: serial reference on the Sod tube ----------------------
    let prob = Problem::sod();
    let amr_cfg = AmrConfig {
        max_levels: 2,
        ..AmrConfig::default()
    };
    let t0 = Instant::now();
    let mut gold = AmrSolver::new(
        scheme(),
        prob.bcs,
        RkOrder::Rk3,
        n0,
        0.0,
        1.0,
        amr_cfg.clone(),
    );
    gold.init(&|x| (prob.ic)(x));
    gold.advance_to(0.0, t_end_b, 0.4).unwrap();
    let wall_a = t0.elapsed().as_secs_f64();
    reg.histogram("phase.advance")
        .record(t0.elapsed().as_nanos() as u64);
    let ck_gold = gold.to_checkpoint(t_end_b);
    println!(
        "A  serial reference: {} steps, {} patches, wall = {wall_a:.3}s",
        gold.steps(),
        ck_gold.patches.len()
    );

    // ---- Arm B: distributed, no faults, bit-identical ------------------
    // The ladder's budgets and cadences for both distributed arms.
    let res_b = ResilienceConfig {
        max_step_retries: 2,
        max_restarts: 4,
        checkpoint_interval: 4,
        checkpoint_dir: None,
        local_interval: 2,
        scrub_interval: 5,
        ..ResilienceConfig::default()
    };
    let t0 = Instant::now();
    let outs_b = {
        let prob = prob.clone();
        let amr_cfg = amr_cfg.clone();
        let res_b = res_b.clone();
        let reg = Arc::clone(&reg);
        run_with_faults(nranks, NetworkModel::ideal(), None, move |rank| {
            rank.set_metrics(reg.clone());
            let mut d = DistAmrSolver::new(
                scheme(),
                prob.bcs,
                RkOrder::Rk3,
                n0,
                0.0,
                1.0,
                amr_cfg.clone(),
            );
            d.set_metrics(reg.clone());
            d.init(rank, &|x| (prob.ic)(x));
            d.advance_to(rank, 0.0, t_end_b, 0.4, &res_b).unwrap();
            let ck = d.to_checkpoint_gathered(rank, t_end_b).unwrap();
            (ck, d.stats())
        })
    };
    let wall_b = t0.elapsed().as_secs_f64();
    reg.histogram("phase.advance")
        .record(t0.elapsed().as_nanos() as u64);
    let mut halo_b = 0u64;
    let mut reflux_b = 0u64;
    let mut bytes_b = 0u64;
    for (r, (ck, stats)) in outs_b.iter().enumerate() {
        assert_eq!(ck.patches.len(), ck_gold.patches.len(), "rank {r}");
        for (a, b) in ck.patches.iter().zip(&ck_gold.patches) {
            assert_eq!((a.level, a.lo, a.n), (b.level, b.lo, b.n), "rank {r}");
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "rank {r}: level {} patch at {} diverged from serial",
                    a.level,
                    a.lo
                );
            }
        }
        halo_b += stats.halo_msgs;
        reflux_b += stats.reflux_msgs;
        bytes_b += stats.halo_bytes;
    }
    assert!(
        halo_b > 0 && reflux_b > 0,
        "distributed arm must exercise real cross-rank coupling"
    );
    println!(
        "B  distributed x{nranks}, no faults: bit-identical = true, \
         halo msgs = {halo_b}, reflux msgs = {reflux_b}, \
         payload = {bytes_b} B, wall = {wall_b:.3}s"
    );

    // ---- Arm C: rank killed mid-regrid, survivors shrink ---------------
    // Fault-free pulse reference for the drift gate (serial: arm B just
    // pinned serial == distributed bitwise).
    let pulse_cfg = AmrConfig {
        threshold: 0.08,
        ..amr_cfg.clone()
    };
    let mut pref = AmrSolver::new(
        scheme(),
        bc::uniform(Bc::Periodic),
        RkOrder::Rk3,
        n0,
        0.0,
        1.0,
        pulse_cfg.clone(),
    );
    pref.init(&pulse_ic);
    pref.advance_to(0.0, t_end_c, 0.4).unwrap();
    let ck_pulse = pref.to_checkpoint(t_end_c);

    let ckp_dir = Scratch::new("f13_distributed_amr");
    let crash_step = 8u64;
    let plan_c = FaultPlan {
        seed,
        crash_rank: Some(1),
        crash_step,
        crash_site: RankSite::Regrid,
        ..FaultPlan::disabled()
    };
    let res_c = ResilienceConfig {
        checkpoint_dir: Some(ckp_dir.path().to_path_buf()),
        checkpoint_interval: 2,
        ..res_b
    };
    let model_c = NetworkModel::ideal().with_suspect_after(Duration::from_millis(150));
    let t0 = Instant::now();
    #[allow(clippy::type_complexity)]
    let outs_c: Vec<
        Option<(
            (DistAmrStats, ResilienceStats),
            [f64; NCOMP],
            [f64; NCOMP],
            AmrCheckpoint,
        )>,
    > = {
        let reg = Arc::clone(&reg);
        run_with_faults(nranks, model_c, Some(plan_c), move |rank| {
            rank.set_metrics(reg.clone());
            let mut d = DistAmrSolver::new(
                scheme(),
                bc::uniform(Bc::Periodic),
                RkOrder::Rk3,
                n0,
                0.0,
                1.0,
                pulse_cfg.clone(),
            );
            d.set_metrics(reg.clone());
            d.init(rank, &pulse_ic);
            let before = d.composite_totals_gathered(rank).unwrap();
            match d.advance_to(rank, 0.0, t_end_c, 0.4, &res_c) {
                Ok(stats) => {
                    let after = d.composite_totals_gathered(rank).unwrap();
                    let ck = d.to_checkpoint_gathered(rank, t_end_c).unwrap();
                    Some((stats, before, after, ck))
                }
                Err(SolverError::RankFailed { .. }) => None,
                Err(e) => panic!("rank {}: unexpected error {e}", rank.rank()),
            }
        })
    };
    let wall_c = t0.elapsed().as_secs_f64();
    reg.histogram("phase.advance")
        .record(t0.elapsed().as_nanos() as u64);
    assert!(outs_c[1].is_none(), "the victim must report RankFailed");
    let survivors: Vec<_> = outs_c.into_iter().flatten().collect();
    assert_eq!(
        survivors.len(),
        nranks - 1,
        "all survivors must finish degraded"
    );
    let mut max_drift = 0.0f64;
    for ((_, rstats), before, after, _) in &survivors {
        assert_eq!(rstats.shrinks, 1, "{rstats:?}");
        assert_eq!(rstats.ranks_lost, 1, "{rstats:?}");
        for c in 0..NCOMP {
            max_drift = max_drift.max((after[c] - before[c]).abs() / before[c].abs().max(1.0));
        }
    }
    assert!(
        max_drift <= 1e-11,
        "post-shrink conservation drift {max_drift} exceeds 1e-11"
    );
    let (stats_c, rstats_c) = survivors[0].0;
    let l1 = l1_base(&survivors[0].3, &ck_pulse);
    println!(
        "C  rank 1 killed in the regrid window of step {crash_step}: \
         shrinks = {}, ranks lost = {}, migrations = {}, restores = {}, \
         wall = {wall_c:.3}s",
        rstats_c.shrinks, rstats_c.ranks_lost, stats_c.migrations, rstats_c.restarts
    );
    println!(
        "C  conservation drift = {}, base-grid L1 drift vs fault-free = {}",
        sci(max_drift),
        sci(l1)
    );
    assert!(l1 <= 1e-3, "post-shrink L1 drift {l1} exceeds 1e-3");

    let mut table = Table::new(&[
        "run",
        "wall_s",
        "halo_msgs",
        "reflux_msgs",
        "shrinks",
        "l1_drift",
    ]);
    table.row(&[
        "A:serial".into(),
        format!("{wall_a:.3}"),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    table.row(&[
        "B:dist-x4".into(),
        format!("{wall_b:.3}"),
        halo_b.to_string(),
        reflux_b.to_string(),
        "0".into(),
        "0".into(),
    ]);
    table.row(&[
        "C:crash-regrid".into(),
        format!("{wall_c:.3}"),
        stats_c.halo_msgs.to_string(),
        stats_c.reflux_msgs.to_string(),
        rstats_c.shrinks.to_string(),
        sci(l1),
    ]);
    let snap = reg.snapshot();
    opts.finish(&table, "f13_distributed_amr", "all arms pooled", &snap)
        .config_str("problem", "Sod (A/B) + periodic pulse (C), 4 ranks")
        .config_num("n_base", n0 as f64)
        .config_num("max_levels", amr_cfg.max_levels as f64)
        .config_num("fault_seed", seed as f64)
        .config_num("crash_rank", 1.0)
        .config_num("crash_step", crash_step as f64)
        .config_num("conservation_drift_after_shrink", max_drift)
        .config_num("l1_drift_after_shrink", l1)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(nranks as f64)
        .write(&snap);
}
