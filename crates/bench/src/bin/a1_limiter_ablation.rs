//! A1 — Slope-limiter ablation.
//!
//! PLM's limiter choice trades sharpness against oscillation safety. This
//! ablation runs Sod and blast wave 1 at N = 400 with each limiter
//! (plus PPM and CENO3 for context) and reports L1(ρ) vs exact and the
//! total-variation overshoot of the density profile.
//!
//! Expected shape: minmod most diffusive (largest L1, zero overshoot),
//! MC sharpest of the TVD limiters; PPM/CENO3 better than all PLM
//! variants on these problems.

use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::recon::{Limiter, Recon};
use std::time::Instant;

/// Total-variation overshoot: TV(numerical) − TV(exact), positive when
/// the scheme rings.
fn tv_excess(prim: &rhrsc_grid::Field, prob: &Problem) -> f64 {
    let geom = prim.geom();
    let exact = prob.exact.as_ref().unwrap();
    let g = geom.ng_of(0);
    let mut tv_num = 0.0;
    let mut tv_exact = 0.0;
    let mut prev_n: Option<f64> = None;
    let mut prev_e: Option<f64> = None;
    for i in g..g + geom.n[0] {
        let x = geom.center(i, 0, 0);
        let num = prim.at(0, i, 0, 0);
        let ex = exact(x, prob.t_end).rho;
        if let (Some(pn), Some(pe)) = (prev_n, prev_e) {
            tv_num += (num - pn).abs();
            tv_exact += (ex - pe).abs();
        }
        prev_n = Some(num);
        prev_e = Some(ex);
    }
    tv_num - tv_exact
}

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# A1: slope-limiter ablation, N = {n}, hllc + rk3");
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let recons = [
        Recon::Plm(Limiter::Minmod),
        Recon::Plm(Limiter::VanLeer),
        Recon::Plm(Limiter::Mc),
        Recon::Ceno3,
        Recon::Ppm,
    ];
    let mut table = Table::new(&["problem", "recon", "L1(rho)", "TV_excess"]);
    for prob in [Problem::sod(), Problem::blast_wave_1()] {
        for recon in recons {
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
            reg.histogram("phase.advance")
                .record(t0.elapsed().as_nanos() as u64);
            let exact = prob.exact.clone().unwrap();
            let (l1, prim) = l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap();
            table.row(&[
                prob.name.clone(),
                recon.name().to_string(),
                sci(l1),
                format!("{:+.4}", tv_excess(&prim, &prob)),
            ]);
        }
    }
    let snap = reg.snapshot();
    opts.finish(&table, "a1_limiter_ablation", "", &snap)
        .config_str("problem", "sod + blast1, hllc + rk3")
        .config_num("n", n as f64)
        .config_num("configs", (2 * recons.len()) as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .write(&snap);
}
