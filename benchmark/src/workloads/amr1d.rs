//! `amr1d_blast`: the Martí–Müller blast on a three-level hierarchy —
//! the shared kernels on dozens of short patches.

use crate::harness::{RepeatOutcome, TraceCtx, Workload};
use crate::layers::probe_kernels;
use crate::result::Metrics;
use crate::rng::Rng;
use crate::sys::allocs;
use rhrsc_grid::{bc, Bc, PatchGeom};
use rhrsc_io::snapshot::fnv1a_f64;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{AmrConfig, AmrSolver, PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::riemann::exact::ExactRiemann;
use rhrsc_srhd::Prim;
use std::time::Instant;

const N_BASE: usize = 256;
const T_END: f64 = 0.4;
const CFL: f64 = 0.4;
const GAMMA: f64 = 5.0 / 3.0;
const RK: RkOrder = RkOrder::Rk3;
/// One construction takes ≈ 20 µs: time them in batches.
const SETUP_BATCH: usize = 16;
/// L1(ρ) at this commit is 0.0134 (a thin dense shell on 1024 effective
/// cells); losing the shell to a coarser level doubles it.
const L1_GATE: f64 = 0.027;

pub struct Amr1d {
    /// Where the membrane sits: a base-cell edge in 0.45–0.55, so every
    /// draw is the same blast translated along the hierarchy's alignment.
    membrane: f64,
    /// Left state; the seed moves its pressure by up to 0.05 %.
    left: Prim,
    exact: ExactRiemann,
    /// The solver of repeat 0, holding its final state.
    first: Option<AmrSolver>,
}

fn right() -> Prim {
    Prim::new_1d(1.0, 0.0, 1e-6)
}

impl Amr1d {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, "amr1d_blast");
        let membrane = 0.5 + (rng.below(25) as f64 - 12.0) / N_BASE as f64;
        let left = Prim::new_1d(10.0, 0.0, 13.33 * rng.uniform(0.9995, 1.0005));
        Amr1d {
            membrane,
            left,
            exact: ExactRiemann::solve(&left, &right(), GAMMA).expect("exact blast solution"),
            first: None,
        }
    }

    fn ic(&self, x: [f64; 3]) -> Prim {
        if x[0] < self.membrane {
            self.left
        } else {
            right()
        }
    }

    /// Problem, hierarchy and initial data: what `setup_s` times.
    fn build(&self) -> AmrSolver {
        let mut amr = AmrSolver::new(
            Scheme::default_with_gamma(GAMMA),
            bc::uniform(Bc::Outflow),
            RK,
            N_BASE,
            0.0,
            1.0,
            AmrConfig::default(),
        );
        amr.init(&|x| self.ic(x));
        amr
    }

    /// A hierarchy advanced to mid-run.
    fn mid_run(&self) -> AmrSolver {
        let mut amr = self.build();
        amr.advance_to(0.0, 0.5 * T_END, CFL)
            .expect("blast to mid-run");
        amr
    }
}

/// Digest of every patch of the hierarchy: placement and interior data.
fn digest(amr: &AmrSolver) -> u64 {
    let ckp = amr.to_checkpoint(T_END);
    let mut words = Vec::new();
    for p in &ckp.patches {
        words.extend([f64::from(p.level), p.lo as f64, p.n as f64]);
        words.extend_from_slice(&p.data);
    }
    fnv1a_f64(&words)
}

/// `AmrSolver::advance_to`, spelled out through `stable_dt` and `step`
/// with a span around each call; same Δt sequence, same bits. Returns
/// the sum over steps of the patch count (for the mean) and the seconds
/// spent inside `step`.
fn advance_traced(amr: &mut AmrSolver, id: u32, trace: &TraceCtx) -> Result<(u64, f64), String> {
    let (mut t, mut patch_steps, mut step_s) = (0.0, 0, 0.0);
    while t < T_END - 1e-14 {
        let (dt, _) = trace.span("amr1d_blast.stable_dt", id, || amr.stable_dt(CFL));
        let mut dt = dt.map_err(|e| e.to_string())?;
        if dt.is_nan() || dt <= 1e-14 {
            return Err(format!("time step collapsed to {dt}"));
        }
        if t + dt > T_END {
            dt = T_END - t;
        }
        let (stepped, secs) = trace.span("amr1d_blast.step", id, || amr.step(dt));
        stepped.map_err(|e| e.to_string())?;
        step_s += secs;
        t += dt;
        patch_steps += (0..amr.n_levels())
            .map(|l| amr.patch_count(l) as u64)
            .sum::<u64>();
    }
    Ok((patch_steps, step_s))
}

impl Workload for Amr1d {
    fn repeat(&mut self, id: u32, trace: Option<&TraceCtx>) -> RepeatOutcome {
        let a0 = allocs();
        let t0 = Instant::now();
        let mut amr = self.build();
        for _ in 1..SETUP_BATCH {
            amr = self.build();
        }
        let setup_s = t0.elapsed().as_secs_f64() / SETUP_BATCH as f64;
        let setup_allocs = (allocs() - a0) / SETUP_BATCH as u64;
        if let Some(tr) = trace {
            // The hierarchy's own regrid/reflux spans go on their own track.
            amr.set_trace(tr.tracer.clone(), 0);
        }

        let a1 = allocs();
        let t1 = Instant::now();
        let solved = match trace {
            None => amr
                .advance_to(0.0, T_END, CFL)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Some(tr) => tr
                .span("amr1d_blast.solve", id, || advance_traced(&mut amr, id, tr))
                .0
                .map(|_| ()),
        };
        let solve_s = t1.elapsed().as_secs_f64();
        let heap = setup_allocs + (allocs() - a1);

        let out = RepeatOutcome {
            setup_s,
            solve_s,
            zone_updates: amr.cell_updates(),
            allocs: heap,
            digest: digest(&amr),
            ops: 1,
            failures: solved
                .err()
                .map(|e| format!("solve failed: {e}"))
                .into_iter()
                .collect(),
            ..RepeatOutcome::default()
        };
        self.first.get_or_insert(amr);
        out
    }

    fn l1_density_error(&mut self) -> Result<f64, String> {
        let (exact, x0) = (self.exact.clone(), self.membrane);
        self.first
            .as_mut()
            .expect("repeat 0 ran")
            .l1_density_error(&|x, t| exact.eval(x[0], t, x0), T_END)
            .map_err(|e| e.to_string())
    }

    fn l1_gate(&self) -> f64 {
        L1_GATE
    }

    fn probe_layers(&mut self, trace: &TraceCtx, out: &mut Metrics) {
        // One whole solve through the finer calls: exact counts, and the
        // hierarchy's step time per zone update.
        let mut amr = self.build();
        let ((patch_steps, step_s), factor) =
            trace.bracket(|| advance_traced(&mut amr, 0, trace).expect("probe solve"));
        let updates = amr.cell_updates() as f64;
        let amr_ns = step_s * factor * 1e9 / updates;
        let levels = amr.updates_per_level();
        out.set("solver.amr.step.ns_per_zone", amr_ns);
        out.set("solver.amr.regrids", amr.regrids() as f64);
        out.set(
            "solver.amr.patches_mean",
            patch_steps as f64 / amr.steps() as f64,
        );
        for (l, name) in ["updates_l0", "updates_l1", "updates_l2"]
            .iter()
            .enumerate()
        {
            out.set(
                &format!("solver.amr.{name}"),
                levels.get(l).copied().unwrap_or(0) as f64,
            );
        }
        // A uniform grid at the finest spacing takes 2^(L-1) steps per
        // base step on 2^(L-1) times the cells.
        let fine = 1u64 << (levels.len() - 1);
        let uniform_fine = (N_BASE as u64 * fine * fine * amr.steps() * RK.stages() as u64) as f64;
        out.set("solver.amr.update_saving", 1.0 - updates / uniform_fine);

        let mut mid = self.mid_run();
        let regrid = trace.probe("solver.amr.regrid", 15, || mid.regrid().expect("regrid"));
        out.set("solver.amr.regrid.ns_per_call", regrid * 1e9);

        // The shared kernels on a uniform line carrying the hierarchy's
        // mean zone count, at mid-run; the hierarchy's cost per zone
        // update over the patch integrator's is the AMR overhead.
        let zones = (updates / (amr.steps() as f64 * RK.stages() as f64)).round() as usize;
        let scheme = Scheme::default_with_gamma(GAMMA);
        let bcs = bc::uniform(Bc::Outflow);
        let geom = PatchGeom::line(zones, 0.0, 1.0, scheme.required_ghosts());
        let mut u = init_cons(geom, &scheme.eos, &|x| self.ic(x));
        PatchSolver::new(scheme, bcs, RK, geom)
            .advance_to(&mut u, 0.0, 0.5 * T_END, CFL, None)
            .expect("uniform line to mid-run");
        probe_kernels(trace, &scheme, &bcs, RK, &u, out);
        let patch_ns = out
            .get("solver.integrate.step.ns_per_zone")
            .expect("just set");
        out.set("solver.amr.overhead_vs_patch", amr_ns / patch_ns);
    }
}
