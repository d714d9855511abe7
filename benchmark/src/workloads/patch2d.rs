//! `patch2d_blast`: the plain single-threaded baseline.

use super::blast::{self, BlastCase, CFL, RK, T_END};
use crate::harness::{RepeatOutcome, TraceCtx, Workload};
use crate::layers::probe_kernels;
use crate::result::Metrics;
use crate::sys::allocs;
use rhrsc_grid::Field;
use rhrsc_io::snapshot::fnv1a_f64;
use rhrsc_solver::PatchSolver;
use std::time::Instant;

pub struct Patch2d(BlastCase);

impl Patch2d {
    pub fn new(seed: u64) -> Self {
        Patch2d(BlastCase::new(seed))
    }
}

/// `PatchSolver::advance_to`, spelled out through `stable_dt` and `step`
/// with a span around each call; same Δt sequence, same bits.
fn advance_traced(
    solver: &mut PatchSolver,
    u: &mut Field,
    id: u32,
    trace: &TraceCtx,
) -> Result<usize, String> {
    let (mut t, mut steps) = (0.0, 0);
    while t < T_END - 1e-14 {
        let (dt, _) = trace.span("patch2d_blast.stable_dt", id, || solver.stable_dt(u, CFL));
        let mut dt = dt.map_err(|e| e.to_string())?;
        if dt.is_nan() || dt <= 1e-14 {
            return Err(format!("time step collapsed to {dt}"));
        }
        if t + dt > T_END {
            dt = T_END - t;
        }
        trace
            .span("patch2d_blast.step", id, || solver.step(u, dt, None))
            .0
            .map_err(|e| e.to_string())?;
        t += dt;
        steps += 1;
    }
    Ok(steps)
}

impl Workload for Patch2d {
    fn repeat(&mut self, id: u32, trace: Option<&TraceCtx>) -> RepeatOutcome {
        let a0 = allocs();
        let t0 = Instant::now();
        let scheme = blast::scheme();
        let mut u = blast::initial_state(&self.0.inputs, &scheme);
        let mut solver = PatchSolver::new(scheme, blast::bcs(), RK, *u.geom());
        let setup_s = t0.elapsed().as_secs_f64();
        let a1 = allocs();
        let u0 = u.clone();

        let a2 = allocs();
        let t1 = Instant::now();
        let solved = match trace {
            None => solver
                .advance_to(&mut u, 0.0, T_END, CFL, None)
                .map_err(|e| e.to_string()),
            Some(tr) => {
                tr.span("patch2d_blast.solve", id, || {
                    advance_traced(&mut solver, &mut u, id, tr)
                })
                .0
            }
        };
        let solve_s = t1.elapsed().as_secs_f64();
        let heap = (a1 - a0) + (allocs() - a2);

        let mut failures = Vec::new();
        if let Err(e) = solved {
            failures.push(format!("solve failed: {e}"));
        }
        let drift = blast::mass_energy_drift(&u0, &u);
        if drift > 1e-12 {
            failures.push(format!("D/tau conservation drift {drift:e}"));
        }
        let out = RepeatOutcome {
            setup_s,
            solve_s,
            zone_updates: solver.stats().zone_updates,
            allocs: heap,
            digest: fnv1a_f64(u.raw()),
            ops: 1,
            failures,
            ..RepeatOutcome::default()
        };
        self.0.keep_first(u);
        out
    }

    fn l1_density_error(&mut self) -> Result<f64, String> {
        self.0.l1_density_error()
    }

    fn l1_gate(&self) -> f64 {
        blast::L1_GATE
    }

    fn probe_layers(&mut self, trace: &TraceCtx, out: &mut Metrics) {
        let u = blast::mid_run_state(&self.0.inputs);
        probe_kernels(trace, &blast::scheme(), &blast::bcs(), RK, &u, out);
    }
}
