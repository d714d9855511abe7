//! A4 — Reconstruction cost/accuracy trade-off.
//!
//! The per-zone cost of each reconstruction scheme (1D step throughput)
//! side-by-side with its Sod accuracy — the table behind the default
//! choice of PPM+HLLC.
//!
//! Expected shape: cost grows PC < PLM < CENO3 ≈ PPM < WENO5 ≈ MP5; PPM
//! sits at the best accuracy-per-cost for shock problems.

use rhrsc_bench::accuracy::{Row, Runner};
use rhrsc_bench::{f3, sci, BenchOpts, Table};
use rhrsc_solver::problems::Problem;
use rhrsc_srhd::recon::Recon;

fn main() {
    let opts = BenchOpts::from_args();
    let n = if opts.toy { 100 } else { 400 };
    println!("# A4: reconstruction cost vs accuracy, Sod N = {n}, rk3 + hllc");
    let prob = Problem::sod();
    let mut runner = Runner::start();
    let mut table = Table::new(&["recon", "Mzones/s", "L1(rho)", "rel_cost"]);
    let mut base_cost = None;
    for recon in Recon::SWEEP {
        let mut row = Row::new(&prob, n);
        row.scheme.recon = recon;
        let out = runner.run(row).solved();
        let (l1, _) = out.l1().unwrap();
        let (wall, zones) = (out.secs, out.zone_updates as f64);
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
