//! T1 — Convergence-rate table on smooth flow.
//!
//! Advects a sinusoidal density wave (uniform v = 0.5, p = 1) for t = 0.4
//! at N = 32..512 with PLM-MC, PPM, CENO3, MP5 and WENO5 (SSP-RK3 + HLLC)
//! and reports the L1(ρ) error against the exact advected profile plus
//! the observed convergence order between successive resolutions.
//! `--toy` stops the ladder at N = 128.
//!
//! Expected shape: every scheme converges; order(PLM) ≈ 2, order(PPM)
//! ≈ 2.1–2.3, order(CENO3) ≈ 3, MP5 and WENO5 above 3; absolute errors
//! ordered MP5 < WENO5 < CENO3 < PPM ≈ PLM at fixed N. Each scheme's
//! order between the two finest resolutions is held to a floor: the
//! lower of its measured toy (64 → 128) and full (256 → 512) orders
//! minus 0.15.

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_solver::problems::Problem;
use rhrsc_srhd::recon::{Limiter, Recon};

fn main() {
    let opts = BenchOpts::from_args();
    println!("# T1: smooth-advection convergence (density wave, v=0.5, t=0.4)");
    let prob = Problem::density_wave(0.5, 0.3);
    // The row bounds: each scheme's floor on its finest order.
    let schemes = [
        (Recon::Plm(Limiter::Mc), 1.85),
        (Recon::Ppm, 1.99),
        (Recon::Ceno3, 2.85),
        (Recon::Mp5, 2.87),
        (Recon::Weno5, 3.00),
    ];
    let ns: &[usize] = if opts.toy {
        &[32, 64, 128]
    } else {
        &[32, 64, 128, 256, 512]
    };
    let mut runner = Runner::start();

    let mut table = Table::new(&["recon", "N", "L1(rho)", "order"]);
    for (recon, floor) in schemes {
        let mut prev: Option<f64> = None;
        for &n in ns {
            let mut row = Row::new(&prob, n);
            row.scheme.recon = recon;
            row.t_end = 0.4;
            let (l1, _) = runner.run(row).solved().l1().unwrap();
            let order = prev.map(|p| (p / l1).log2());
            if n == *ns.last().unwrap() {
                let order = order.unwrap();
                assert!(
                    order >= floor,
                    "t1 row {} N = {n}: order {order:.2} below its floor {floor}",
                    recon.name()
                );
            }
            let order = order.map_or("-".to_string(), |o| format!("{o:.2}"));
            table.row(&[recon.name().to_string(), n.to_string(), sci(l1), order]);
            prev = Some(l1);
        }
    }
    runner.finish(&opts, Some(&table), "t1_convergence", |r| {
        r.config_str("problem", "density wave, v=0.5, hllc + rk3")
            .config_num("n_max", *ns.last().unwrap() as f64)
            .config_num("schemes", schemes.len() as f64);
    });
}
