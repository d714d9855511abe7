//! F3 — Relativistic Kelvin–Helmholtz growth.
//!
//! Single-mode perturbed relativistic shear layer at 64² and 128²,
//! tracking the transverse-momentum RMS. Reports the time series and the
//! fitted linear-phase growth rate per resolution. `--toy` runs only the
//! 32² grid to t = 2 (no rate convergence, just the harness smoke).
//!
//! Expected shape: after an initial acoustic transient (t ≲ 1) the
//! single mode grows exponentially; the fitted rate converges with
//! resolution (finer grids diffuse the thin layer less, so coarse grids
//! under-predict the rate).

use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_grid::PatchGeom;
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::transverse_momentum_rms;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::{init_cons, Scheme};
use rhrsc_solver::{PatchSolver, RkOrder};
use std::io::Write;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    println!("# F3: relativistic KHI growth, shear v = ±0.5, single-mode perturbation");
    let prob = Problem::kelvin_helmholtz(0.5, 0.01);
    let t_end: f64 = if opts.toy { 2.0 } else { 4.0 };
    let n_out = if opts.toy { 16 } else { 32 };
    let resolutions: &[usize] = if opts.toy { &[32] } else { &[64, 128] };
    let reg = Registry::new();
    let bench_t0 = Instant::now();
    let mut zone_updates = 0u64;

    let mut table = Table::new(&["resolution", "growth_rate", "amplification"]);
    let dir = rhrsc_bench::results_dir();
    for &n in resolutions {
        let scheme = Scheme {
            eos: prob.eos,
            ..Scheme::default_with_gamma(4.0 / 3.0)
        };
        let geom = PatchGeom::rect([n, n], [0.0, 0.0], [1.0, 1.0], scheme.required_ghosts());
        let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
        let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);

        let path = dir.join(format!("f3_khi_n{n}.csv"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        writeln!(f, "t,sy_rms").unwrap();
        let mut series = Vec::new();
        let t0 = Instant::now();
        for s in 0..=n_out {
            let t_target = t_end * s as f64 / n_out as f64;
            if s > 0 {
                let t_prev = t_end * (s - 1) as f64 / n_out as f64;
                solver
                    .advance_to(&mut u, t_prev, t_target, 0.4, None)
                    .expect("KHI run failed");
            }
            let rms = transverse_momentum_rms(&u);
            series.push((t_target, rms));
            writeln!(f, "{t_target},{rms}").unwrap();
        }
        reg.histogram("phase.advance")
            .record(t0.elapsed().as_nanos() as u64);
        zone_updates += solver.stats().zone_updates;
        println!("  -> wrote {}", path.display());

        // Least-squares fit of ln(rms) over the linear phase.
        let (fit_lo, fit_hi) = if opts.toy { (0.5, 1.9) } else { (1.5, 3.5) };
        let pts: Vec<(f64, f64)> = series
            .iter()
            .filter(|&&(t, a)| t > fit_lo && t < fit_hi && a > 0.0)
            .map(|&(t, a)| (t, a.ln()))
            .collect();
        let nn = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let rate = (nn * sxy - sx * sy) / (nn * sxx - sx * sx);
        let amp = series.last().unwrap().1 / series.first().unwrap().1.max(1e-300);
        table.row(&[format!("{n}x{n}"), f3(rate), format!("{amp:.1}")]);
    }
    let snap = reg.snapshot();
    opts.finish(&table, "f3_khi_growth", "", &snap)
        .config_str("problem", "khi shear 0.5, single mode")
        .config_num("t_end", t_end)
        .config_num("resolutions", resolutions.len() as f64)
        .wall_time(bench_t0.elapsed().as_secs_f64())
        .parallelism(1.0)
        .zone_updates(zone_updates as f64)
        .write(&snap);
}
