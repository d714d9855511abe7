//! A5 — Mesh-refinement efficiency.
//!
//! The classic AMR payoff table: Sod at uniform N=100, uniform N=200,
//! static refinement (coarse 100 + a fixed ratio-2 fine window over the
//! Riemann fan, Berger–Oliger subcycled), and fully adaptive AMR at the
//! same finest resolution, with L1(ρ) error, zone-update counts
//! (∝ cost), and error·cost efficiency. Both refined rows run on the one
//! `AmrSolver`: the static one is handed its layout and never regrids.
//!
//! Expected shape: the static window reaches close to the uniform-fine
//! error at about the uniform-fine zone-updates with half the base
//! steps, and the adaptive hierarchy at a fraction of them — the
//! argument for adaptivity that the authors' production codes are built
//! on.

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{f3, sci, BenchOpts, Table};
use rhrsc_solver::amr::{AmrConfig, AmrSolver};
use rhrsc_solver::problems::Problem;
use rhrsc_solver::{RkOrder, Scheme};
use std::time::Instant;

fn main() {
    // A5 is a small fixed 1D problem (N = 100/200), cheap enough that the
    // full configuration *is* the CI toy run; `--toy` is accepted for
    // harness uniformity but changes nothing.
    let opts = BenchOpts::from_args();
    println!("# A5: static mesh refinement efficiency on Sod, ppm + hllc + rk3");
    let prob = Problem::sod();
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let exact = prob.exact.clone().unwrap();
    let mut runner = Runner::start();

    let mut table = Table::new(&["grid", "L1(rho)", "zone_updates", "err_vs_fine"]);

    let mut uniform = |n: usize| -> (f64, u64) {
        let out = runner.run(Row::new(&prob, n)).solved();
        (out.l1().unwrap().0, out.zone_updates)
    };
    let (e_coarse, z_coarse) = uniform(100);
    let (e_fine, z_fine) = uniform(200);

    // Both refined rows: same base grid and finest resolution. The
    // static one is handed coarse cells 20..95 (the Riemann fan at
    // t = 0.4) and keeps them; the adaptive one *finds* the fan itself
    // (flag + cluster + regrid).
    let two_levels = AmrConfig {
        max_levels: 2,
        ..AmrConfig::default()
    };
    let mut run_amr = |cfg: AmrConfig, window: Option<(usize, usize)>| -> (f64, u64) {
        let mut amr = AmrSolver::new(scheme, prob.bcs, RkOrder::Rk3, 100, 0.0, 1.0, cfg);
        let ic = |x| (prob.ic)(x);
        match window {
            Some(window) => amr.init_static(&ic, &[&[window]]).unwrap(),
            None => amr.init(&ic),
        }
        let t0 = Instant::now();
        amr.advance_to(0.0, prob.t_end, 0.4).unwrap();
        runner.book(t0, amr.cell_updates());
        let l1 = amr.l1_density_error(&*exact, prob.t_end).unwrap();
        (l1, amr.cell_updates())
    };
    let static_cfg = AmrConfig {
        regrid_interval: 0,
        ..two_levels.clone()
    };
    let (e_sub, z_sub) = run_amr(static_cfg, Some((20, 95)));
    let (e_amr, z_amr) = run_amr(two_levels, None);

    for (name, e, z) in [
        ("uniform-100", e_coarse, z_coarse),
        ("uniform-200", e_fine, z_fine),
        ("smr+subcycle", e_sub, z_sub),
        ("amr-100+2lvl", e_amr, z_amr),
    ] {
        table.row(&[name.to_string(), sci(e), z.to_string(), f3(e / e_fine)]);
    }
    assert!(
        e_sub < e_coarse,
        "static refinement must beat uniform-coarse"
    );
    assert!(e_amr < e_coarse, "AMR must beat uniform-coarse");
    assert!(
        z_amr < z_sub,
        "adaptive patches must cost less than the static subcycled window"
    );
    runner.finish(&opts, Some(&table), "a5_smr_efficiency", |r| {
        r.config_str(
            "problem",
            "sod, uniform 100/200 vs static amr 100+2x vs amr 100+2lvl",
        )
        .config_num("n_coarse", 100.0)
        .config_num("n_fine", 200.0)
        .config_num("l1_amr", e_amr);
    });
}
