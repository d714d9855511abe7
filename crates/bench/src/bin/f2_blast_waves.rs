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

use rhrsc_bench::{results_dir, sci, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::{init_cons, prim_at};
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use std::io::Write;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    let ns: [usize; 2] = if opts.toy { [100, 200] } else { [400, 800] };
    println!("# F2: Marti-Muller blast waves 1 & 2, ppm+hllc+rk3, N = {ns:?}");
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let mut zone_updates = 0u64;
    let mut table = Table::new(&["problem", "N", "L1(rho)", "rho_peak", "rho_peak_exact"]);
    for prob in [Problem::blast_wave_1(), Problem::blast_wave_2()] {
        for n in ns {
            let scheme = Scheme::default_with_gamma(5.0 / 3.0);
            let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
            let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
            let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
            let t0 = Instant::now();
            solver
                .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
                .unwrap();
            reg.histogram("phase.advance")
                .record(t0.elapsed().as_nanos() as u64);
            zone_updates += solver.stats().zone_updates;
            let exact = prob.exact.clone().unwrap();
            let (l1, prim) = l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();

            let mut rho_peak = 0.0f64;
            let mut rho_peak_exact = 0.0f64;
            let path = results_dir().join(format!("f2_{}_n{}.csv", prob.name, n));
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            writeln!(f, "x,rho,vx,p,rho_exact,vx_exact,p_exact").unwrap();
            for (i, j, k) in geom.interior_iter() {
                let x = geom.center(i, j, k);
                let w = prim_at(&prim, i, j, k);
                let ex = exact(x, prob.t_end);
                rho_peak = rho_peak.max(w.rho);
                rho_peak_exact = rho_peak_exact.max(ex.rho);
                writeln!(
                    f,
                    "{},{},{},{},{},{},{}",
                    x[0], w.rho, w.vel[0], w.p, ex.rho, ex.vel[0], ex.p
                )
                .unwrap();
            }
            println!("  -> wrote {}", path.display());
            table.row(&[
                prob.name.clone(),
                n.to_string(),
                sci(l1),
                format!("{rho_peak:.3}"),
                format!("{rho_peak_exact:.3}"),
            ]);
        }
    }
    let snap = reg.snapshot();
    opts.finish(&table, "f2_blast_waves", "", &snap)
        .config_str("problem", "blast1 + blast2, ppm + hllc + rk3")
        .config_num("n_coarse", ns[0] as f64)
        .config_num("n_fine", ns[1] as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(zone_updates as f64)
        .write(&snap);
}
