//! A4 — Reconstruction cost/accuracy trade-off.
//!
//! The per-zone cost of each reconstruction scheme (1D step throughput)
//! side-by-side with its Sod accuracy — the table behind the default
//! choice of PPM+HLLC.
//!
//! Expected shape: cost grows PC < PLM < CENO3 ≈ PPM < WENO5 ≈ MP5; PPM
//! sits at the best accuracy-per-cost for shock problems.
//!
//! A row's solve takes a few milliseconds, so one timing of it is mostly
//! the host's noise: the cost columns take each row's fastest solve over
//! [`ROUNDS`] rounds of every scheme, timed before the bench clock
//! starts. L1(ρ) and the report's zone updates and rate are one solve
//! per row.

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{f3, sci, BenchOpts, Table};
use rhrsc_solver::problems::Problem;
use rhrsc_srhd::recon::Recon;

/// Timed rounds; a round solves every scheme once, so a burst of host
/// noise slows every row of one round rather than every solve of one row.
const ROUNDS: usize = 7;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# A4: reconstruction cost vs accuracy, Sod N = {n}, rk3 + hllc");
    let prob = Problem::sod();
    let row = |recon| {
        let mut row = Row::new(&prob, n);
        row.scheme.recon = recon;
        row
    };
    let mut timer = Runner::start();
    let mut best = [f64::INFINITY; Recon::SWEEP.len()];
    for _ in 0..ROUNDS {
        for (b, &recon) in best.iter_mut().zip(&Recon::SWEEP) {
            *b = b.min(timer.run(row(recon)).secs);
        }
    }
    let mut runner = Runner::start();
    let mut table = Table::new(&["recon", "Mzones/s", "L1(rho)", "rel_cost"]);
    let mut base_cost = None;
    for (recon, wall) in Recon::SWEEP.into_iter().zip(best) {
        let out = runner.run(row(recon)).solved();
        let (l1, _) = out.l1().unwrap();
        let zones = out.zone_updates as f64;
        let per_zone = wall / zones;
        let b = *base_cost.get_or_insert(per_zone);
        table.row(&[
            recon.name().to_string(),
            f3(zones / wall / 1e6),
            sci(l1),
            f3(per_zone / b),
        ]);
    }
    runner.finish(&opts, Some(&table), "a4_recon_cost", |r| {
        r.config_str("problem", "sod, rk3 + hllc, recon sweep")
            .config_num("n", n as f64);
    });
}
