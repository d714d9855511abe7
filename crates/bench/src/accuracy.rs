//! The accuracy matrix: every physics bench (F1–F3, F8, T1, T2, A1, A2,
//! A4, A6 and A5's uniform rows) is a list of rows, each one problem
//! solved on one [`PatchSolver`]. A bench keeps its rows, its table
//! columns, its bounds and the metrics only it computes; the
//! [`Runner`] owns what the rows share: the set-up, the bench clock,
//! the `phase.advance` timing, the zone-update sum, the L1(ρ) against
//! the exact solution, the profile CSV and the report tail.

use crate::{results_dir, BenchOpts, RunReport, Table};
use rhrsc_grid::{Field, PatchGeom};
use rhrsc_runtime::Registry;
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::{ExactFn, Problem};
use rhrsc_solver::scheme::{init_cons, prim_at};
use rhrsc_solver::{PatchSolver, RkOrder, Scheme, SolverError};
use std::io::Write;
use std::time::Instant;

/// One row of the matrix: `prob` on `cells` over its domain with
/// `scheme` and `rk`, advanced from t = 0 to `t_end` at Courant number
/// `cfl`.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    /// Initial condition, boundaries, domain and exact solution.
    pub prob: &'a Problem,
    pub scheme: Scheme,
    pub rk: RkOrder,
    /// Cells per axis over the problem's domain (`[n, 1, 1]` in 1D).
    pub cells: [usize; 3],
    pub t_end: f64,
    pub cfl: f64,
}

impl<'a> Row<'a> {
    /// The rows' common case: `prob` on `n` cells along x, PPM + HLLC
    /// with the problem's EOS, SSP-RK3 to the problem's own end time at
    /// CFL 0.4.
    pub fn new(prob: &'a Problem, n: usize) -> Self {
        Row {
            prob,
            // The default's Γ-law gas gives way to the problem's EOS.
            scheme: Scheme {
                eos: prob.eos,
                ..Scheme::default_with_gamma(5.0 / 3.0)
            },
            rk: RkOrder::Rk3,
            cells: [n, 1, 1],
            t_end: prob.t_end,
            cfl: 0.4,
        }
    }
}

/// What a row's run left: its final (or last good) conserved state,
/// what the advance returned, and its cost.
pub struct Outcome<'a> {
    pub row: Row<'a>,
    /// The conserved state where the advance stopped.
    pub u: Field,
    /// The steps taken, or the solver's reason for stopping.
    pub result: Result<usize, SolverError>,
    /// Interior zone updates (cells × RK stages) the solver counted, up
    /// to its failure on a failed run.
    pub zone_updates: u64,
    /// Wall time of the advance.
    pub secs: f64,
}

impl Outcome<'_> {
    /// The outcome of a run that must succeed: panics naming the row
    /// when its solve failed.
    pub fn solved(self) -> Self {
        if let Err(e) = &self.result {
            let Row { prob, scheme, .. } = self.row;
            let (rs, recon) = (scheme.riemann.name(), scheme.recon.name());
            let (rk, cells) = (self.row.rk, self.row.cells);
            panic!("{} {rs} {recon} {rk:?} {cells:?} cells: {e}", prob.name);
        }
        self
    }

    /// L1(ρ) against the problem's exact solution at `t_end`, with the
    /// recovered primitives.
    pub fn l1(&self) -> Result<(f64, Field), SolverError> {
        l1_density_error(&self.row.scheme, &self.u, self.exact(), self.row.t_end)
    }

    /// Write `results/<name>.csv`: x and the primitives `prim` beside the
    /// exact solution's, one line per interior cell.
    pub fn write_profile(&self, prim: &Field, name: &str) {
        let (geom, exact, t_end) = (self.u.geom(), self.exact(), self.row.t_end);
        let path = results_dir().join(format!("{name}.csv"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        writeln!(f, "x,rho,vx,p,rho_exact,vx_exact,p_exact").unwrap();
        for (i, j, k) in geom.interior_iter() {
            let x = geom.center(i, j, k);
            let (w, ex) = (prim_at(prim, i, j, k), exact(x, t_end));
            writeln!(
                f,
                "{},{},{},{},{},{},{}",
                x[0], w.rho, w.vel[0], w.p, ex.rho, ex.vel[0], ex.p
            )
            .unwrap();
        }
        f.flush().unwrap();
        println!("  -> wrote {}", path.display());
    }

    fn exact(&self) -> &ExactFn {
        let exact = self.row.prob.exact.as_ref();
        exact.expect("row problem has no exact solution")
    }
}

/// The state a bench's rows share: the metrics registry, the bench
/// clock and the zone-update sum.
pub struct Runner {
    reg: Registry,
    t0: Instant,
    zone_updates: u64,
}

impl Runner {
    /// Start the bench clock.
    pub fn start() -> Self {
        Runner {
            reg: Registry::new(),
            t0: Instant::now(),
            zone_updates: 0,
        }
    }

    /// Book one advance begun at `t0`: its wall time as a `phase.advance`
    /// sample and its zone updates into the bench's sum. Returns the
    /// wall time in seconds.
    pub fn book(&mut self, t0: Instant, zone_updates: u64) -> f64 {
        let elapsed = t0.elapsed();
        self.reg
            .histogram("phase.advance")
            .record(elapsed.as_nanos() as u64);
        self.zone_updates += zone_updates;
        elapsed.as_secs_f64()
    }

    /// Solve `row` from its initial condition to `t_end`.
    pub fn run<'a>(&mut self, row: Row<'a>) -> Outcome<'a> {
        let (t_end, cfl) = (row.t_end, row.cfl);
        self.run_with(row, |u, solver| solver.advance_to(u, 0.0, t_end, cfl, None))
    }

    /// Set `row` up and let `advance` drive its solver, timed and booked
    /// like [`run`](Self::run): for a bench that samples along the way.
    pub fn run_with<'a>(
        &mut self,
        row: Row<'a>,
        advance: impl FnOnce(&mut Field, &mut PatchSolver) -> Result<usize, SolverError>,
    ) -> Outcome<'a> {
        let (lo, hi) = row.prob.domain;
        let geom = PatchGeom::cube(row.cells, lo, hi, row.scheme.required_ghosts());
        let mut u = init_cons(geom, &row.scheme.eos, &*row.prob.ic);
        let mut solver = PatchSolver::new(row.scheme, row.prob.bcs, row.rk, geom);
        let t0 = Instant::now();
        let result = advance(&mut u, &mut solver);
        let zone_updates = solver.stats().zone_updates;
        let secs = self.book(t0, zone_updates);
        Outcome {
            row,
            u,
            result,
            zone_updates,
            secs,
        }
    }

    /// The tail of every accuracy bench: print `table` and mirror it to
    /// `results/<id>.csv` (a bench without one prints nothing), print the
    /// phase table under `--profile`, and write `BENCH_<id>.json` with the
    /// keys `config` adds, the bench clock's wall time, parallelism 1 and
    /// the rows' zone updates.
    pub fn finish(
        self,
        opts: &BenchOpts,
        table: Option<&Table>,
        id: &str,
        config: impl FnOnce(&mut RunReport),
    ) {
        let snap = self.reg.snapshot();
        let mut report = opts.finish(table, id, "", &snap);
        config(&mut report);
        report
            .wall_time(self.t0.elapsed().as_secs_f64())
            .parallelism(1.0)
            .zone_updates(self.zone_updates as f64)
            .write(&snap);
    }
}
