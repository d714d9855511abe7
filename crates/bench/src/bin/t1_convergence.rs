//! T1 — Convergence-rate table on smooth flow.
//!
//! Advects a sinusoidal density wave (uniform v = 0.5, p = 1) for t = 0.4
//! at N = 32..512 with PLM-MC, PPM and WENO5 (SSP-RK3 + HLLC) and reports
//! the L1(ρ) error against the exact advected profile plus the observed
//! convergence order between successive resolutions. `--toy` stops the
//! ladder at N = 128.
//!
//! Expected shape: every scheme converges; order(PLM) ≈ 2,
//! order(PPM) ≳ 2.5, order(WENO5) highest; absolute errors ordered
//! WENO5 < PPM < PLM at fixed N.

use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::recon::{Limiter, Recon};
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    println!("# T1: smooth-advection convergence (density wave, v=0.5, t=0.4)");
    let prob = Problem::density_wave(0.5, 0.3);
    let t_end = 0.4;
    let schemes = [
        Recon::Plm(Limiter::Mc),
        Recon::Ppm,
        Recon::Ceno3,
        Recon::Mp5,
        Recon::Weno5,
    ];
    let ns: &[usize] = if opts.toy {
        &[32, 64, 128]
    } else {
        &[32, 64, 128, 256, 512]
    };
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let mut zone_updates = 0u64;

    let mut table = Table::new(&["recon", "N", "L1(rho)", "order"]);
    for recon in schemes {
        let scheme = Scheme {
            recon,
            ..Scheme::default_with_gamma(5.0 / 3.0)
        };
        let mut prev: Option<f64> = None;
        for &n in ns {
            let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
            let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
            let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
            let t0 = Instant::now();
            solver
                .advance_to(&mut u, 0.0, t_end, 0.4, None)
                .expect("solver failed");
            reg.histogram("phase.advance")
                .record(t0.elapsed().as_nanos() as u64);
            zone_updates += solver.stats().zone_updates;
            let exact = prob.exact.clone().unwrap();
            let (l1, _) = l1_density_error(&scheme, &u, &exact, t_end).unwrap();
            let order = prev.map_or("-".to_string(), |p: f64| format!("{:.2}", (p / l1).log2()));
            table.row(&[recon.name().to_string(), n.to_string(), sci(l1), order]);
            prev = Some(l1);
        }
    }
    let snap = reg.snapshot();
    opts.finish(&table, "t1_convergence", "", &snap)
        .config_str("problem", "density wave, v=0.5, hllc + rk3")
        .config_num("n_max", *ns.last().unwrap() as f64)
        .config_num("schemes", schemes.len() as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(zone_updates as f64)
        .write(&snap);
}
