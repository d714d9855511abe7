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

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_eos::Eos;
use rhrsc_grid::Field;
use rhrsc_solver::diag::max_lorentz;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::recover_prims;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# A6: EOS comparison on the Marti-Muller blast waves, N = {n}");
    let mut runner = Runner::start();
    let eoses = [
        ("gamma=4/3", Eos::ideal(4.0 / 3.0)),
        ("taub-mathews", Eos::TaubMathews),
        ("gamma=5/3", Eos::ideal(5.0 / 3.0)),
    ];
    let mut table = Table::new(&["problem", "eos", "shock_x", "rho_peak", "W_max"]);
    for prob in [Problem::blast_wave_1(), Problem::blast_wave_2()] {
        for (name, eos) in eoses {
            let mut row = Row::new(&prob, n);
            row.scheme.eos = eos;
            let out = runner.run(row).solved();
            let geom = *out.u.geom();
            let mut prim = Field::new(geom, 5);
            recover_prims(&row.scheme, &out.u, &mut prim).unwrap();
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
    runner.finish(&opts, Some(&table), "a6_eos_comparison", |r| {
        r.config_str("problem", "blast1 + blast2, gamma-law vs taub-mathews")
            .config_num("n", n as f64);
    });
}
