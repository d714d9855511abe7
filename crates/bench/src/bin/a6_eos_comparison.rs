//! A6 — Equation-of-state comparison.
//!
//! The authors' astrophysics papers center on EOS effects in relativistic
//! flows. This table runs the blast-wave problems with the constant-Γ
//! ideal gas (Γ = 4/3, 5/3) and the Taub–Mathews approximate Synge gas,
//! and reports shock position, peak compression, and maximum Lorentz
//! factor — the observables an EOS changes.
//!
//! Expected shape: the TM gas interpolates between the Γ-law limits —
//! behaving like Γ = 5/3 where the flow is cold and like Γ = 4/3 in the
//! hot post-shock shell, so its shock position and compression sit
//! between the two constant-Γ runs (closer to 4/3 for the hot blast2).

use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_eos::Eos;
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::max_lorentz;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::{init_cons, recover_prims, Scheme};
use rhrsc_solver::{PatchSolver, RkOrder};
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# A6: EOS comparison on the Marti-Muller blast waves, N = {n}");
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let eoses = [
        ("gamma=4/3", Eos::ideal(4.0 / 3.0)),
        ("taub-mathews", Eos::TaubMathews),
        ("gamma=5/3", Eos::ideal(5.0 / 3.0)),
    ];
    let mut table = Table::new(&["problem", "eos", "shock_x", "rho_peak", "W_max"]);
    for prob in [Problem::blast_wave_1(), Problem::blast_wave_2()] {
        for (name, eos) in eoses {
            let scheme = Scheme {
                eos,
                ..Scheme::default_with_gamma(5.0 / 3.0)
            };
            let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
            let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
            let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
            let t0 = Instant::now();
            solver
                .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
                .unwrap_or_else(|e| panic!("{} with {name}: {e}", prob.name));
            reg.histogram("phase.advance")
                .record(t0.elapsed().as_nanos() as u64);
            let mut prim = rhrsc_grid::Field::new(geom, 5);
            recover_prims(&scheme, &u, &mut prim).unwrap();
            // Shock = rightmost cell compressed above ambient.
            let ambient = (prob.ic)([0.99, 0.0, 0.0]).rho;
            let mut shock_x = 0.0;
            let mut rho_peak = 0.0f64;
            for (i, j, k) in geom.interior_iter() {
                let rho = prim.at(0, i, j, k);
                rho_peak = rho_peak.max(rho);
                if rho > 1.5 * ambient {
                    shock_x = geom.center(i, j, k)[0];
                }
            }
            table.row(&[
                prob.name.clone(),
                name.to_string(),
                f3(shock_x),
                f3(rho_peak),
                f3(max_lorentz(&prim)),
            ]);
        }
    }
    let snap = reg.snapshot();
    opts.finish(&table, "a6_eos_comparison", "", &snap)
        .config_str("problem", "blast1 + blast2, gamma-law vs taub-mathews")
        .config_num("n", n as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .write(&snap);
}
