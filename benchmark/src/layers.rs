//! Standalone timings of the kernel layers every front-end shares
//! (`srhd`, `grid`, `solver::{scheme, step, integrate}`), taken on a
//! workload's own mid-run state through the layers' public functions.
//!
//! Every figure is per *interior zone* of the state, so that
//! `stages × (fill_ghosts + recover_prims + compute_rhs)` can be set
//! against `PatchSolver::step`: the difference is the integrator's own
//! share (RK combine, floors, copies).

use crate::harness::TraceCtx;
use crate::result::Metrics;
use rhrsc_grid::{fill_ghosts, BcSet, Field};
use rhrsc_solver::scheme::{max_dt, prim_at, recover_prims, Scheme};
use rhrsc_solver::step::compute_rhs;
use rhrsc_solver::{PatchSolver, RkOrder};
use rhrsc_srhd::{cons_to_prim_counted, Dir, Prim, NCOMP};
use std::hint::black_box;

/// Calls per probe: enough for a steady median, few enough that all
/// probes of a workload fit in a second or two.
const REPS: usize = 15;

/// Time the shared kernel layers on the mid-run conserved state `u`.
pub fn probe_kernels(
    trace: &TraceCtx,
    scheme: &Scheme,
    bcs: &BcSet,
    rk: RkOrder,
    u: &Field,
    out: &mut Metrics,
) {
    let geom = *u.geom();
    let zones = geom.interior_len() as f64;
    let per_zone_ns = |secs: f64| secs * 1e9 / zones;

    let mut u = u.clone();
    let fill = trace.probe("grid.fill_ghosts", REPS, || fill_ghosts(&mut u, bcs));
    let mut prim = Field::new(geom, 5);
    let recover = trace.probe("solver.scheme.recover_prims", REPS, || {
        recover_prims(scheme, &u, &mut prim).expect("mid-run state must recover");
    });
    let mut rhs = Field::cons(geom);
    let rhs_s = trace.probe("solver.step.compute_rhs", REPS, || {
        compute_rhs(scheme, &prim, &mut rhs, None);
    });
    let dt_s = trace.probe("solver.scheme.max_dt", REPS, || {
        black_box(max_dt(scheme, &prim, 0.4));
    });
    out.set("grid.fill_ghosts.ns_per_zone", per_zone_ns(fill));
    out.set(
        "solver.scheme.recover_prims.ns_per_zone",
        per_zone_ns(recover),
    );
    out.set("solver.step.compute_rhs.ns_per_zone", per_zone_ns(rhs_s));
    out.set("solver.scheme.max_dt.ns_per_zone", per_zone_ns(dt_s));

    // con2prim alone, cell by cell over the interior, cold-started as the
    // solver does.
    let cells: Vec<_> = geom
        .interior_iter()
        .map(|(i, j, k)| u.get_cons(i, j, k))
        .collect();
    let (mut evals, mut errs) = (0u64, 0u64);
    let c2p = trace.probe("srhd.con2prim", REPS, || {
        (evals, errs) = (0, 0);
        for c in &cells {
            match cons_to_prim_counted(&scheme.eos, c, None, &scheme.c2p) {
                Ok((w, n)) => {
                    black_box(w);
                    evals += u64::from(n);
                }
                Err(_) => errs += 1,
            }
        }
    });
    out.set("srhd.con2prim.ns_per_zone", per_zone_ns(c2p));
    out.set("srhd.con2prim.evals_per_zone", evals as f64 / zones);
    out.set("srhd.con2prim.fallback_frac", errs as f64 / zones);

    // Reconstruction of all five primitives along every x-row.
    let (ng, nx, nt) = (geom.ng_of(0), geom.n[0], geom.ntot(0));
    let (g1, g2) = (geom.ng_of(1), geom.ng_of(2));
    let rows: Vec<(usize, usize)> = (0..geom.n[2])
        .flat_map(|k| (0..geom.n[1]).map(move |j| (j + g1, k + g2)))
        .collect();
    let mut q = vec![0.0; nt];
    let (mut ql, mut qr) = (vec![0.0; nt + 1], vec![0.0; nt + 1]);
    let recon = trace.probe("srhd.recon", REPS, || {
        for &(j, k) in &rows {
            for c in 0..NCOMP {
                prim.read_pencil(c, 0, j, k, &mut q);
                scheme.recon.pencil(&q, ng, ng + nx + 1, &mut ql, &mut qr);
            }
        }
        black_box((&ql, &qr));
    });
    out.set("srhd.recon.ns_per_zone", per_zone_ns(recon));

    // The Riemann flux at every x-face, between the cell-centred states.
    let states: Vec<Vec<Prim>> = rows
        .iter()
        .map(|&(j, k)| {
            (ng - 1..ng + nx + 1)
                .map(|i| prim_at(&prim, i, j, k))
                .collect()
        })
        .collect();
    let faces = (rows.len() * (nx + 1)) as f64;
    let riemann = trace.probe("srhd.riemann", REPS, || {
        for row in &states {
            for pair in row.windows(2) {
                black_box(scheme.riemann.flux(&scheme.eos, &pair[0], &pair[1], Dir::X));
            }
        }
    });
    out.set("srhd.riemann.ns_per_face", riemann * 1e9 / faces);

    // Bytes one stage moves per interior zone, computed from array sizes
    // (cache misses not counted): recovery reads U and writes the
    // primitives over all cells; each active dimension's sweep reads the
    // primitives and updates the residual; the RK combine reads U, U0
    // and the residual and writes U.
    let f64s = 8.0 * NCOMP as f64;
    let ghost_ratio = geom.len() as f64 / zones;
    let bytes = ghost_ratio * 2.0 * f64s + geom.ndim() as f64 * 3.0 * f64s + 4.0 * f64s;
    out.set("solver.step.computed_bytes_per_zone", bytes);

    // One full RK step of the patch integrator on the same state.
    let stages = rk.stages() as f64;
    let mut solver = PatchSolver::new(*scheme, *bcs, rk, geom);
    let dt = solver
        .stable_dt(&mut u, 0.4)
        .expect("mid-run state must recover");
    let u_mid = u.clone();
    let step = trace.probe("solver.integrate.step", REPS, || {
        u.raw_mut().copy_from_slice(u_mid.raw());
        solver.step(&mut u, dt, None).expect("mid-run step");
    });
    out.set(
        "solver.integrate.step.ns_per_zone",
        per_zone_ns(step) / stages,
    );
    out.set(
        "solver.integrate.self_frac",
        (step - stages * (fill + recover + rhs_s)) / step,
    );
}
