//! F2 — Relativistic blast-wave profile figures (Martí–Müller 1 & 2).
//!
//! Regenerates the density/velocity/pressure profiles of both standard
//! blast-wave problems against the exact solution, at N = 400 and N = 800
//! (problem 2 needs the finer grid to resolve its thin shell). `--toy`
//! drops to N = 100/200.
//!
//! Expected shape: problem 1's shell (ρ* ≈ 9.2 ahead of the contact at
//! x ≈ 0.83) captured within a few zones; problem 2's much thinner shell
//! under-resolved at the coarse resolution (peak density below exact),
//! improving at the fine one.

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_solver::problems::Problem;

fn main() {
    let opts = BenchOpts::from_args();
    let ns: [usize; 2] = if opts.toy { [100, 200] } else { [400, 800] };
    println!("# F2: Marti-Muller blast waves 1 & 2, ppm+hllc+rk3, N = {ns:?}");
    let mut runner = Runner::start();
    let mut table = Table::new(&["problem", "N", "L1(rho)", "rho_peak", "rho_peak_exact"]);
    for prob in [Problem::blast_wave_1(), Problem::blast_wave_2()] {
        for n in ns {
            let out = runner.run(Row::new(&prob, n)).solved();
            let (l1, prim) = out.l1().unwrap();
            out.write_profile(&prim, &format!("f2_{}_n{}", prob.name, n));
            let exact = prob.exact.as_ref().unwrap();
            let (mut rho_peak, mut rho_peak_exact) = (0.0f64, 0.0f64);
            let geom = prim.geom();
            for (i, j, k) in geom.interior_iter() {
                rho_peak = rho_peak.max(prim.at(0, i, j, k));
                rho_peak_exact = rho_peak_exact.max(exact(geom.center(i, j, k), prob.t_end).rho);
            }
            table.row(&[
                prob.name.clone(),
                n.to_string(),
                sci(l1),
                format!("{rho_peak:.3}"),
                format!("{rho_peak_exact:.3}"),
            ]);
        }
    }
    runner.finish(&opts, Some(&table), "f2_blast_waves", |r| {
        r.config_str("problem", "blast1 + blast2, ppm + hllc + rk3")
            .config_num("n_coarse", ns[0] as f64)
            .config_num("n_fine", ns[1] as f64);
    });
}
