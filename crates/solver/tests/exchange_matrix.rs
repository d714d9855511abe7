//! "The halo exchange changes nothing", as one table: the block driver
//! against the serial patch solver, bit for bit, over grid dimension ×
//! rank count × exchange mode × boundary condition (PPM + HLLC + RK3).
//! ROADMAP 1(a), first slice; missing: AMR, device, serve, Taub–Mathews, gang.

use rhrsc_comm::{run, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp};
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::Prim;

const T_END: f64 = 0.05;

/// A Sod-like jump across `x = 0.5` under a transverse ripple, drifting
/// obliquely: every face of every block has something to exchange.
fn ic(x: [f64; 3]) -> Prim {
    let tau = 2.0 * std::f64::consts::PI;
    let (rho, p) = if x[0] < 0.5 { (1.0, 1.0) } else { (0.125, 0.1) };
    Prim {
        rho: rho * (1.0 + 0.2 * (tau * x[1]).sin() * (tau * x[2]).cos()),
        vel: [0.2, -0.15, 0.1],
        p,
    }
}

#[test]
fn block_solver_equals_patch_solver_on_every_row() {
    for global_n in [[64, 1, 1], [24, 16, 1], [12, 8, 8]] {
        for kind in [Bc::Periodic, Bc::Outflow, Bc::Reflect] {
            let periodic = global_n.map(|n| n > 1 && kind == Bc::Periodic);
            let cfg = |nranks: usize, mode: ExchangeMode| DistConfig {
                scheme: Scheme::default_with_gamma(5.0 / 3.0),
                rk: RkOrder::Rk3,
                global_n,
                domain: ([0.0; 3], [1.0; 3]),
                decomp: CartDecomp::auto(nranks, global_n, periodic),
                bcs: bc::uniform(kind),
                cfl: 0.4,
                mode,
                gang_threads: 0,
                dt_refresh_interval: 1,
            };
            let serial = cfg(1, ExchangeMode::BulkSynchronous);
            let geom = serial.local_geom(0);
            let mut reference = init_cons(geom, &serial.scheme.eos, &ic);
            PatchSolver::new(serial.scheme, serial.bcs, serial.rk, geom)
                .advance_to(&mut reference, 0.0, T_END, serial.cfl, None)
                .unwrap();
            let lo = [0, 1, 2].map(|d| geom.ng_of(d));
            let mut want = Vec::new();
            reference.gather_box(lo, [0, 1, 2].map(|d| lo[d] + geom.n[d]), &mut want);
            for nranks in [1, 2, 4] {
                for mode in [ExchangeMode::BulkSynchronous, ExchangeMode::Overlap] {
                    let cfg = cfg(nranks, mode);
                    let gathered = run(nranks, NetworkModel::ideal(), |rank| {
                        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                        solver.advance_to(rank, &mut u, 0.0, T_END).unwrap();
                        solver.gather_interior(rank, &u).unwrap()
                    });
                    let global = gathered[0].as_ref().expect("block 0 holds the gather");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let row = format!("{global_n:?} {kind:?} {nranks} ranks {}", mode.name());
                    assert!(bits(global.raw()) == bits(&want), "{row}: interiors differ");
                }
            }
        }
    }
}
