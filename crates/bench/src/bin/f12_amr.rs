//! F12 — Adaptive mesh refinement: accuracy payoff, exact conservation,
//! and restart fidelity.
//!
//! Three arms over the multi-level Berger–Oliger [`AmrSolver`]:
//!
//! 1. **Accuracy/cost** — the relativistic blast wave (Martí–Müller 1) on
//!    a uniform fine grid vs AMR with the same finest resolution (base
//!    100 × 3 levels vs uniform 400). AMR must land within 10% of the
//!    uniform-fine L1(ρ) while spending ≤ 40% of its zone updates.
//! 2. **Conservation** — a smooth periodic pressure pulse that steepens
//!    into shocks while the hierarchy regrids underneath it; the
//!    composite ∫D, ∫S, ∫τ must stay at machine precision (≤ 1e-12
//!    relative) thanks to the reflux corrections.
//! 3. **Restart** — the run is killed halfway, the hierarchy restored
//!    from the format-v4 AMR checkpoint into a fresh solver, and the
//!    continuation must be *bit-identical* to the uninterrupted run.
//!
//! `--toy` shrinks arm 1 to Sod at base 64 × 2 levels (vs uniform 128)
//! with a relaxed accuracy gate; the conservation and restart arms keep
//! their exact assertions — they are cheap and binary.

use rhrsc_bench::drill::{flight_recorder, write_flight_record, Scratch};
use rhrsc_bench::{f3, print_phase_table, sci, BenchOpts, RunReport, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_io::checkpoint::{load_checkpoint, save_checkpoint};
use rhrsc_runtime::Registry;
use rhrsc_solver::amr::{AmrConfig, AmrSolver};
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::{Prim, NCOMP};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    // Every arm drives a solver on the calling thread: one rank. The
    // distributed-AMR counterpart (f13) reports its real rank count the
    // same way, and `validate_reports` pins both.
    let nranks = 1usize;
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let reg = Arc::new(Registry::new());
    let tracer = flight_recorder(&opts);
    let bench_t0 = Instant::now();

    // -- Arm 1: accuracy vs cost --------------------------------------
    let (prob, n_base, n_fine, max_levels) = if opts.toy {
        (Problem::sod(), 64usize, 128usize, 2usize)
    } else {
        (Problem::blast_wave_1(), 100, 400, 3)
    };
    println!(
        "# F12: AMR on {} — base {n_base} x {max_levels} levels vs uniform {n_fine}",
        prob.name
    );
    let exact = prob.exact.clone().unwrap();

    let uniform = |n: usize| -> (f64, u64) {
        let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
        let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
        let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
        let t0 = Instant::now();
        solver
            .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
            .unwrap();
        reg.histogram("phase.advance")
            .record(t0.elapsed().as_nanos() as u64);
        let (l1, _) = l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();
        (l1, solver.stats().zone_updates)
    };
    let (e_coarse, z_coarse) = uniform(n_base);
    let (e_fine, z_fine) = uniform(n_fine);

    // Tight shock tracking: frequent regrids with a wide flag buffer so
    // the thin relativistic shell never escapes the finest patches.
    let amr_cfg = AmrConfig {
        max_levels,
        threshold: 0.25,
        buffer: 3,
        regrid_interval: 2,
    };
    let mut amr = AmrSolver::new(
        scheme,
        prob.bcs,
        RkOrder::Rk3,
        n_base,
        0.0,
        1.0,
        amr_cfg.clone(),
    );
    amr.set_metrics(Arc::clone(&reg));
    if let Some(tr) = &tracer {
        amr.set_trace(Arc::clone(tr), 0);
    }
    amr.init(&|x| (prob.ic)(x));
    let t0 = Instant::now();
    amr.advance_to(0.0, prob.t_end, 0.4).unwrap();
    reg.histogram("phase.advance")
        .record(t0.elapsed().as_nanos() as u64);
    let e_amr = amr.l1_density_error(&*exact, prob.t_end).unwrap();
    let z_amr = amr.cell_updates();

    let mut table = Table::new(&[
        "grid",
        "L1(rho)",
        "zone_updates",
        "err_vs_fine",
        "cost_vs_fine",
    ]);
    for (name, e, z) in [
        (format!("uniform-{n_base}"), e_coarse, z_coarse),
        (format!("uniform-{n_fine}"), e_fine, z_fine),
        (format!("amr-{n_base}x{max_levels}lvl"), e_amr, z_amr),
    ] {
        table.row(&[
            name,
            sci(e),
            z.to_string(),
            f3(e / e_fine),
            f3(z as f64 / z_fine as f64),
        ]);
    }
    table.print();
    table.save_csv("f12_amr");
    println!(
        "  levels active = {}, regrids = {}, updates/level = {:?}",
        amr.n_levels(),
        amr.regrids(),
        amr.updates_per_level()
    );
    assert!(
        e_amr < e_coarse,
        "AMR {e_amr} must beat uniform-coarse {e_coarse}"
    );
    if !opts.toy {
        assert!(
            e_amr <= 1.10 * e_fine,
            "AMR L1 {e_amr} must be within 10% of uniform-fine {e_fine}"
        );
        assert!(
            (z_amr as f64) <= 0.40 * z_fine as f64,
            "AMR updates {z_amr} must be <= 40% of uniform-fine {z_fine}"
        );
    }

    // -- Arm 2: conservation under regridding -------------------------
    let pulse = |x: [f64; 3]| {
        let g = (-((x[0] - 0.5) / 0.08).powi(2)).exp();
        Prim::new_1d(1.0 + 2.0 * g, 0.0, 1.0 + 20.0 * g)
    };
    let mut cons = AmrSolver::new(
        scheme,
        rhrsc_grid::bc::uniform(rhrsc_grid::Bc::Periodic),
        RkOrder::Rk3,
        64,
        0.0,
        1.0,
        AmrConfig {
            threshold: 0.08,
            ..amr_cfg.clone()
        },
    );
    cons.set_metrics(Arc::clone(&reg));
    cons.init(&pulse);
    let before = cons.composite_totals();
    let t0 = Instant::now();
    cons.advance_to(0.0, 0.3, 0.4).unwrap();
    reg.histogram("phase.advance")
        .record(t0.elapsed().as_nanos() as u64);
    let after = cons.composite_totals();
    let mut max_drift = 0.0f64;
    for c in 0..NCOMP {
        max_drift = max_drift.max((after[c] - before[c]).abs() / before[c].abs().max(1.0));
    }
    println!(
        "  conservation arm: {} regrids, max relative drift = {}",
        cons.regrids(),
        sci(max_drift)
    );
    assert!(cons.regrids() > 0, "conservation arm must actually regrid");
    assert!(
        max_drift <= 1e-12,
        "refluxed composite sums must hold to machine precision, drift = {max_drift}"
    );

    // -- Arm 3: kill/restart bit-identity ------------------------------
    let t_half = 0.5 * prob.t_end;
    let mk = || {
        let mut a = AmrSolver::new(
            scheme,
            prob.bcs,
            RkOrder::Rk3,
            n_base,
            0.0,
            1.0,
            amr_cfg.clone(),
        );
        a.init(&|x| (prob.ic)(x));
        a
    };
    let t0 = Instant::now();
    let mut gold = mk();
    gold.advance_to(0.0, t_half, 0.4).unwrap();
    let ckp = gold.to_checkpoint(t_half);
    let dir = Scratch::new("f12_amr");
    let path = dir.path().join("amr.ckp");
    save_checkpoint(&path, &ckp).unwrap();
    gold.advance_to(t_half, prob.t_end, 0.4).unwrap();
    let e_gold = gold.l1_density_error(&*exact, prob.t_end).unwrap();

    let mut restarted = mk();
    restarted.restore(&load_checkpoint(&path).unwrap()).unwrap();
    restarted.advance_to(t_half, prob.t_end, 0.4).unwrap();
    let e_restart = restarted.l1_density_error(&*exact, prob.t_end).unwrap();
    reg.histogram("phase.advance")
        .record(t0.elapsed().as_nanos() as u64);
    println!(
        "  restart arm: L1 uninterrupted = {:.17e}, restarted = {:.17e}",
        e_gold, e_restart
    );
    assert_eq!(
        e_gold.to_bits(),
        e_restart.to_bits(),
        "restart from the v4 AMR checkpoint must continue bit-identically"
    );

    write_flight_record(&opts, tracer.as_ref());
    let snap = reg.snapshot();
    if opts.profile {
        print_phase_table("f12_amr", &snap);
    }
    RunReport::new("f12_amr")
        .config_str("problem", &prob.name)
        .config_num("n_base", n_base as f64)
        .config_num("n_fine", n_fine as f64)
        .config_num("max_levels", max_levels as f64)
        .config_num("l1_uniform_fine", e_fine)
        .config_num("l1_amr", e_amr)
        .config_num("update_ratio", z_amr as f64 / z_fine as f64)
        .config_num("conservation_drift", max_drift)
        .config_num("ranks", nranks as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(nranks as f64)
        .zone_updates((z_coarse + z_fine + z_amr) as f64)
        .write(&snap);
}
