//! A4 — Reconstruction cost/accuracy trade-off.
//!
//! The per-zone cost of each reconstruction scheme (1D step throughput)
//! side-by-side with its Sod accuracy — the table behind the default
//! choice of PPM+HLLC.
//!
//! Expected shape: cost grows PC < PLM < CENO3 ≈ PPM < WENO5 ≈ MP5; PPM
//! sits at the best accuracy-per-cost for shock problems.

use rhrsc_bench::{f3, sci, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::recon::Recon;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# A4: reconstruction cost vs accuracy, Sod N = {n}, rk3 + hllc");
    let prob = Problem::sod();
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let mut total_zones = 0.0f64;
    let mut table = Table::new(&["recon", "Mzones/s", "L1(rho)", "rel_cost"]);
    let mut base_cost = None;
    for recon in Recon::SWEEP {
        let scheme = Scheme {
            recon,
            ..Scheme::default_with_gamma(5.0 / 3.0)
        };
        let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
        let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
        let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
        let t0 = Instant::now();
        solver
            .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
            .unwrap();
        let wall = t0.elapsed().as_secs_f64();
        reg.histogram("phase.advance").record((wall * 1e9) as u64);
        let zones = solver.stats().zone_updates as f64;
        total_zones += zones;
        let exact = prob.exact.clone().unwrap();
        let (l1, _) = l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();
        let per_zone = wall / zones;
        let b = *base_cost.get_or_insert(per_zone);
        table.row(&[
            recon.name().to_string(),
            f3(zones / wall / 1e6),
            sci(l1),
            f3(per_zone / b),
        ]);
    }
    let snap = reg.snapshot();
    opts.finish(&table, "a4_recon_cost", "", &snap)
        .config_str("problem", "sod, rk3 + hllc, recon sweep")
        .config_num("n", n as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(total_zones)
        .write(&snap);
}
