//! "The halo exchange and the offload change nothing", as one table: the
//! block driver and the device solver against the serial patch solver,
//! bit for bit, over grid dimension × boundary condition (PPM + HLLC +
//! RK3) — the block driver at every rank count × exchange mode, with a
//! gang of two threads per rank, and through the recovery ladder without
//! faults; the device with its breaker off and armed under a launch fault
//! on every step. One more block-driver row runs a problem that only gets
//! past t = 0.05 through the conserved-variable limiter. The distributed
//! AMR driver runs against the serial AMR solver at every rank count, on
//! a fixed and on a regridding hierarchy, with its 4-rank traffic pinned.
//! ROADMAP 3(a); missing: serve, Taub–Mathews.

use rhrsc_comm::{run, NetworkModel};
use rhrsc_grid::{bc, Bc, BcSet, CartDecomp, Field};
use rhrsc_io::checkpoint::AmrCheckpoint;
use rhrsc_runtime::{AcceleratorConfig, FaultInjector, FaultPlan};
use rhrsc_solver::device_backend::{BreakerConfig, DevicePatchSolver};
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode, ResilienceConfig};
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{AmrConfig, AmrSolver, DistAmrSolver, PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::sync::Arc;
use std::time::Duration;

const T_END: f64 = 0.05;
const GRIDS: [[usize; 3]; 3] = [[64, 1, 1], [24, 16, 1], [12, 8, 8]];
const BCS: [Bc; 3] = [Bc::Periodic, Bc::Outflow, Bc::Reflect];

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

/// Two cold streams flying apart at v = ∓0.95 from `x = 0.5`: the gap
/// between them empties faster than the scheme can follow, and the
/// conserved-variable limiter has to floor cells there.
fn receding_streams(x: [f64; 3]) -> Prim {
    let v = if x[0] < 0.5 { -0.95 } else { 0.95 };
    Prim {
        rho: 1.0,
        vel: [v, 0.0, 0.0],
        p: 1e-3,
    }
}

fn cfg(global_n: [usize; 3], kind: Bc, nranks: usize, mode: ExchangeMode) -> DistConfig {
    let periodic = global_n.map(|n| n > 1 && kind == Bc::Periodic);
    DistConfig {
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
    }
}

/// One row's reference: the serial config, the initial state, the state
/// `PatchSolver::advance_to` leaves with the steps it took, and how many
/// cells its limiter floored on the way.
fn reference(
    global_n: [usize; 3],
    kind: Bc,
    ic: fn([f64; 3]) -> Prim,
) -> (DistConfig, Field, Field, usize, u64) {
    let serial = cfg(global_n, kind, 1, ExchangeMode::BulkSynchronous);
    let geom = serial.local_geom(0);
    let u0 = init_cons(geom, &serial.scheme.eos, &ic);
    let mut u = u0.clone();
    let mut solver = PatchSolver::new(serial.scheme, serial.bcs, serial.rk, geom);
    let steps = solver
        .advance_to(&mut u, 0.0, T_END, serial.cfl, None)
        .unwrap();
    (serial, u0, u, steps, solver.stats().floored_cells)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// How a row drives the block driver: `advance_to` on one thread per
/// rank or on a gang of two, or `advance_to_with_restart` with no faults.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Drive {
    Plain,
    Gang,
    Resilient,
}

/// The block driver at every rank count × exchange mode against the
/// reference interior of one row.
fn assert_rows(
    global_n: [usize; 3],
    kind: Bc,
    ranks: &[usize],
    ic: fn([f64; 3]) -> Prim,
    drive: Drive,
) {
    let (_, _, reference, _, _) = reference(global_n, kind, ic);
    let geom = *reference.geom();
    let lo = [0, 1, 2].map(|d| geom.ng_of(d));
    let mut want = Vec::new();
    reference.gather_box(lo, [0, 1, 2].map(|d| lo[d] + geom.n[d]), &mut want);
    for &nranks in ranks {
        for mode in [ExchangeMode::BulkSynchronous, ExchangeMode::Overlap] {
            let mut cfg = cfg(global_n, kind, nranks, mode);
            cfg.gang_threads = if drive == Drive::Gang { 2 } else { 0 };
            let row = format!("{global_n:?} {kind:?} {nranks} ranks {mode:?} {drive:?}");
            let gathered = run(nranks, NetworkModel::ideal(), |rank| {
                let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                if drive == Drive::Resilient {
                    let res = ResilienceConfig::default();
                    let (_, r) = solver
                        .advance_to_with_restart(rank, &mut u, 0.0, T_END, &res)
                        .unwrap();
                    let acted = r.retries + r.restarts + r.recovery.total();
                    assert!(acted == 0, "{row}: the ladder acted without a fault: {r:?}");
                } else {
                    solver.advance_to(rank, &mut u, 0.0, T_END).unwrap();
                }
                solver.gather_interior(rank, &u).unwrap()
            });
            let global = gathered[0].as_ref().expect("block 0 holds the gather");
            assert!(bits(global.raw()) == bits(&want), "{row}: interiors differ");
        }
    }
}

/// Every grid × BC row of one drive.
fn assert_every_row(ranks: &[usize], drive: Drive) {
    for global_n in GRIDS {
        for kind in BCS {
            assert_rows(global_n, kind, ranks, ic, drive);
        }
    }
}

#[test]
fn block_solver_equals_patch_solver_on_every_row() {
    assert_every_row(&[1, 2, 4], Drive::Plain);
}

/// A gang spreads each rank's recovery and sweeps over its threads.
#[test]
fn gang_block_solver_equals_patch_solver_on_every_row() {
    assert_every_row(&[2], Drive::Gang);
}

/// Without faults the recovery ladder is invisible: no cascade repair,
/// no retry, and the same bytes as the plain advance.
#[test]
fn resilient_block_solver_equals_patch_solver_on_every_row() {
    assert_every_row(&[2], Drive::Resilient);
}

/// Both solvers run the limiter after every stage combine, so a run
/// that needs it gives the same bytes on the block driver.
#[test]
fn block_solver_floors_as_the_patch_solver_does() {
    let (_, _, _, _, floored) = reference([128, 1, 1], Bc::Outflow, receding_streams);
    assert!(floored > 0, "the row must exercise the limiter");
    assert_rows(
        [128, 1, 1],
        Bc::Outflow,
        &[1, 2],
        receding_streams,
        Drive::Plain,
    );
}

/// The splits `CartDecomp::auto` does not reach: two blocks along y (y
/// waits on a message, x does not) and two along z (z waits). Overlap
/// splits the sweeps along every axis up to the last one that waits and
/// sweeps the rest over the whole interior after the shells: x and y
/// split with z whole, and all three split. Both must give the serial
/// bytes, under every boundary condition and in both modes.
#[test]
fn block_solver_equals_patch_solver_on_y_and_z_splits() {
    let global_n = GRIDS[2];
    for dims in [[1, 2, 1], [1, 1, 2]] {
        for kind in BCS {
            let (_, _, reference, _, _) = reference(global_n, kind, ic);
            let geom = *reference.geom();
            let lo = [0, 1, 2].map(|d| geom.ng_of(d));
            let mut want = Vec::new();
            reference.gather_box(lo, [0, 1, 2].map(|d| lo[d] + geom.n[d]), &mut want);
            for mode in [ExchangeMode::BulkSynchronous, ExchangeMode::Overlap] {
                let mut cfg = cfg(global_n, kind, 2, mode);
                cfg.decomp.dims = dims;
                let row = format!("{global_n:?} {kind:?} {dims:?} {mode:?}");
                let gathered = run(2, NetworkModel::ideal(), |rank| {
                    let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                    solver.advance_to(rank, &mut u, 0.0, T_END).unwrap();
                    solver.gather_interior(rank, &u).unwrap()
                });
                let global = gathered[0].as_ref().expect("block 0 holds the gather");
                assert!(bits(global.raw()) == bits(&want), "{row}: interiors differ");
            }
        }
    }
}

#[test]
fn device_solver_equals_patch_solver_on_every_row() {
    let accel = AcceleratorConfig {
        compute_threads: 2,
        launch_overhead: Duration::ZERO,
        copy_bandwidth: f64::INFINITY,
        throughput_multiplier: 4.0,
        name: "matrix-dev".to_string(),
    };
    // Every launch faults: the first trips the breaker, and the row runs
    // on through host routing and failed half-open probes.
    let every_launch = FaultPlan {
        launch_fail_prob: 1.0,
        ..FaultPlan::disabled()
    };
    for global_n in GRIDS {
        for kind in BCS {
            let (serial, u0, want, want_steps, _) = reference(global_n, kind, ic);
            let (scheme, rk, geom) = (serial.scheme, serial.rk, *u0.geom());
            for armed in [false, true] {
                let mut dev = DevicePatchSolver::new(accel.clone(), scheme, serial.bcs, rk, geom);
                if armed {
                    dev.set_breaker(BreakerConfig {
                        window: 1,
                        threshold: 1,
                        cooldown: 2,
                    });
                    dev.set_fault_injector(Arc::new(FaultInjector::new(every_launch.clone(), 0)));
                }
                dev.upload(&u0).get();
                let steps = dev.advance_to(0.0, T_END, serial.cfl);
                let row = format!("{global_n:?} {kind:?} breaker {armed}");
                assert_eq!(steps, want_steps, "{row}: step counts differ");
                assert!(
                    bits(dev.download().raw()) == bits(want.raw()),
                    "{row}: bytes differ (ghosts included)"
                );
                assert!(dev.device_time() > Duration::ZERO, "{row}: no modeled time");
                if armed {
                    let s = dev.breaker_stats().unwrap();
                    assert!(s.trips >= 1 && s.host_steps >= 1, "{row}: no host routing");
                }
            }
        }
    }
}

/// A Gaussian pressure pulse: the refined region follows the two fronts
/// it launches from one regrid to the next.
fn pulse(x: [f64; 3]) -> Prim {
    let g = (-((x[0] - 0.5) / 0.08).powi(2)).exp();
    Prim::new_1d(1.0 + 2.0 * g, 0.0, 1.0 + 20.0 * g)
}

/// A hierarchy's patches as (level, first cell, cells, data bits).
fn hierarchy_bits(ck: &AmrCheckpoint) -> Vec<(u32, u64, u64, Vec<u64>)> {
    let patches = ck.patches.iter();
    patches
        .map(|p| (p.level, p.lo, p.n, bits(&p.data)))
        .collect()
}

/// One distributed-AMR row: the serial hierarchy at `t_end` against the
/// gathered distributed one at 1, 2 and 4 ranks, with each of the 4
/// ranks' `[halo_msgs, reflux_msgs, regrid_msgs, halo_bytes]` (the final
/// gather included) equal to `traffic`.
fn assert_amr_row(
    bcs: BcSet,
    ic: &(dyn Fn([f64; 3]) -> Prim + Sync),
    cfg: AmrConfig,
    t_end: f64,
    traffic: [[u64; 4]; 4],
) {
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let mut gold = AmrSolver::new(scheme, bcs, RkOrder::Rk3, 64, 0.0, 1.0, cfg.clone());
    gold.init(ic);
    gold.advance_to(0.0, t_end, 0.4).unwrap();
    let want = hierarchy_bits(&gold.to_checkpoint(t_end));
    let res = ResilienceConfig {
        max_step_retries: 2,
        max_restarts: 4,
        local_interval: 2,
        scrub_interval: 5,
        ..ResilienceConfig::default()
    };
    for nranks in [1, 2, 4] {
        let outs = run(nranks, NetworkModel::ideal(), |rank| {
            let mut d = DistAmrSolver::new(scheme, bcs, RkOrder::Rk3, 64, 0.0, 1.0, cfg.clone());
            d.init(rank, ic);
            d.advance_to(rank, 0.0, t_end, 0.4, &res).unwrap();
            let ck = d.to_checkpoint_gathered(rank, t_end).unwrap();
            (hierarchy_bits(&ck), d.stats())
        });
        let mut seen = Vec::new();
        for (r, (got, s)) in outs.into_iter().enumerate() {
            assert!(got == want, "rank {r}/{nranks}: the hierarchy differs");
            // A rank owning only coarse patches sends descend / sync
            // traffic; one owning only fine patches sends reflux.
            let coupled = nranks == 1 || s.halo_msgs + s.reflux_msgs > 0;
            assert!(coupled, "rank {r}/{nranks}: no cross-rank coupling");
            seen.push([s.halo_msgs, s.reflux_msgs, s.regrid_msgs, s.halo_bytes]);
        }
        if nranks == 4 {
            assert_eq!(seen, traffic, "the 4-rank traffic moved");
        }
    }
}

/// `DistAmrSolver` ≡ `AmrSolver`: Sod with outflow on two levels (the
/// hierarchy the f12 accuracy problem runs), and the pulse on a periodic
/// line on three levels with a low refinement threshold.
#[test]
fn dist_amr_solver_equals_amr_solver_on_every_row() {
    let sod = Problem::sod();
    let two_levels = AmrConfig {
        max_levels: 2,
        ..AmrConfig::default()
    };
    let sod_traffic = [
        [17, 0, 21, 120624],
        [25, 0, 30, 171960],
        [0, 9, 21, 45440],
        [0, 12, 30, 33936],
    ];
    assert_amr_row(sod.bcs, &*sod.ic, two_levels, 0.15, sod_traffic);
    let regridding = AmrConfig {
        threshold: 0.08,
        ..AmrConfig::default()
    };
    let pulse_traffic = [
        [159, 0, 36, 891800],
        [0, 16, 21, 54856],
        [0, 30, 36, 195408],
        [0, 16, 21, 54856],
    ];
    assert_amr_row(
        bc::uniform(Bc::Periodic),
        &pulse,
        regridding,
        0.1,
        pulse_traffic,
    );
}
