//! Scaffold of the fault drills (F10, F11, F14; F12, F13 and F15 take
//! the seed and the scratch directory): the 2D blast on 2×2 ranks, its
//! fault-free reference run, one resilient run that reports every rank's
//! outcome, the error norms the arms gate on, the flight-recorder set-up
//! and write-out, the `RHRSC_FAULT_SEED` parse, and a scratch directory
//! that cleans up after itself — plus [`BenchOpts::finish`], the tail most
//! bench bins end with. Nothing here is configurable beyond the function arguments; a
//! drill is its arms, asserts, table rows and report keys.

use crate::{print_phase_table, BenchOpts, RunReport, Table};
use rhrsc_comm::{run_with_faults, FaultPlan, NetworkModel};
use rhrsc_grid::{bc, Bc, CartDecomp, Field};
use rhrsc_runtime::trace::{Tracer, DEFAULT_CAPACITY};
use rhrsc_runtime::{FaultStats, Registry, Snapshot};
use rhrsc_solver::driver::{
    BlockSolver, DistConfig, ExchangeMode, ResilienceConfig, ResilienceStats,
};
use rhrsc_solver::scheme::SolverError;
use rhrsc_solver::{HealthConfig, HealthSummary, RkOrder, Scheme};
use rhrsc_srhd::Prim;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The fault-plan seed: `RHRSC_FAULT_SEED` lets CI sweep a seed matrix;
/// unset or unparsable, `default` keeps local runs reproducible.
pub fn fault_seed(default: u64) -> u64 {
    std::env::var("RHRSC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Cylindrical blast: a hot disc of radius 0.1 at the centre of the
/// unit square, gas at rest.
pub fn blast_ic(x: [f64; 3]) -> Prim {
    let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
    Prim::at_rest(1.0, if r2 < 0.01 { 100.0 } else { 1.0 })
}

/// The drills' distributed problem: [`blast_ic`] on `n × n` cells over
/// 2×2 ranks, RK3, outflow walls, CFL 0.4.
pub fn blast_2x2(n: usize, mode: ExchangeMode) -> DistConfig {
    DistConfig {
        scheme: Scheme::default_with_gamma(5.0 / 3.0),
        rk: RkOrder::Rk3,
        global_n: [n, n, 1],
        domain: ([0.0; 3], [1.0, 1.0, 1.0]),
        decomp: CartDecomp {
            dims: [2, 2, 1],
            periodic: [false, false, false],
        },
        bcs: bc::uniform(Bc::Outflow),
        cfl: 0.4,
        mode,
        gang_threads: 0,
        dt_refresh_interval: 1,
    }
}

/// Relative L1 difference over the first `len` values of two fields.
fn l1_rel_over(a: &Field, b: &Field, len: usize) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for i in 0..len {
        num += (a.raw()[i] - b.raw()[i]).abs();
        den += b.raw()[i].abs();
    }
    num / den
}

/// Relative L1 difference over all components.
pub fn l1_rel(a: &Field, b: &Field) -> f64 {
    l1_rel_over(a, b, a.raw().len())
}

/// Relative L1 difference of the lab-frame density (component 0).
pub fn l1_rel_density(a: &Field, b: &Field) -> f64 {
    l1_rel_over(a, b, a.geom().len())
}

/// One fault-free reference run (plain `advance_to`) on 4 ranks; returns
/// the gathered interior, the wall time, and the step count.
pub fn reference_run(cfg: &DistConfig, t_end: f64, reg: &Arc<Registry>) -> (Field, f64, usize) {
    let t0 = Instant::now();
    let outs = run_with_faults(4, NetworkModel::ideal(), None, |rank| {
        rank.set_metrics(reg.clone());
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &blast_ic);
        solver.set_metrics(reg.clone());
        let stats = solver
            .advance_to(rank, &mut u, 0.0, t_end)
            .expect("reference advance failed");
        let g = solver.gather_interior(rank, &u).expect("gather failed");
        (g, stats.steps)
    });
    let wall = t0.elapsed().as_secs_f64();
    let (global, steps) = outs.into_iter().next().expect("rank 0 ran");
    (
        global.expect("rank 0 holds the gathered field"),
        wall,
        steps,
    )
}

/// What one finishing rank of [`resilient_run`] reports.
pub struct RankRun {
    /// Counters of the resilient advance loop.
    pub rstats: ResilienceStats,
    /// Faults injected on this rank up to the end of the advance (read
    /// before the gather, whose messages are not part of the drill);
    /// `None` without a fault plan.
    pub faults: Option<FaultStats>,
    /// The gathered interior, on the block rank that gathers.
    pub field: Option<Field>,
    /// Physics-health summary; the default when `health` was off.
    pub health: HealthSummary,
}

/// One `advance_to_with_restart` run on 4 ranks. Per rank: `None` for a
/// rank that ended in [`SolverError::RankFailed`] (the crash victim),
/// `Some` for a finisher; any other error panics. `health` arms the quiet
/// physics-health monitor (it adds `health.*` counters to `reg`, so only
/// the drill that reports them asks for it); `tracer` is a shared flight
/// recorder for every rank's spans — including a victim's last heartbeats.
/// Also returns the wall time.
pub fn resilient_run(
    cfg: &DistConfig,
    t_end: f64,
    plan: Option<FaultPlan>,
    res: &ResilienceConfig,
    reg: &Arc<Registry>,
    health: bool,
    tracer: Option<&Arc<Tracer>>,
) -> (Vec<Option<RankRun>>, f64) {
    let t0 = Instant::now();
    let outs = run_with_faults(4, NetworkModel::ideal(), plan, |rank| {
        rank.set_metrics(reg.clone());
        if let Some(tr) = tracer {
            rank.set_trace(tr.clone());
        }
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &blast_ic);
        solver.set_metrics(reg.clone());
        if health {
            solver.set_health(HealthConfig::default());
        }
        match solver.advance_to_with_restart(rank, &mut u, 0.0, t_end, res) {
            Ok((_, rstats)) => {
                let faults = rank.fault_stats();
                let field = solver.gather_interior(rank, &u).expect("gather failed");
                let health = solver
                    .take_health()
                    .map(|m| m.summary())
                    .unwrap_or_default();
                Some(RankRun {
                    rstats,
                    faults,
                    field,
                    health,
                })
            }
            Err(SolverError::RankFailed { .. }) => None,
            Err(e) => panic!("rank {}: unexpected error {e}", rank.rank()),
        }
    });
    (outs, t0.elapsed().as_secs_f64())
}

/// The optional flight recorder (`--trace-out`), with the destination
/// armed as its dump path so a terminal error leaves a partial trace
/// behind.
pub fn flight_recorder(opts: &BenchOpts) -> Option<Arc<Tracer>> {
    opts.trace_path().map(|p| {
        let tr = Arc::new(Tracer::new(DEFAULT_CAPACITY));
        tr.set_dump_path(Some(p));
        tr
    })
}

/// Write the complete flight record to where [`flight_recorder`] armed it.
pub fn write_flight_record(opts: &BenchOpts, tracer: Option<&Arc<Tracer>>) {
    if let (Some(tr), Some(p)) = (tracer, opts.trace_path()) {
        if tr.write_or_warn(&p) {
            println!("  -> wrote {}", p.display());
        }
    }
}

impl BenchOpts {
    /// The tail every bench bin ends with: print `table` (if any; a bin
    /// that prints its table mid-run passes `None`) and mirror it to
    /// `results/<id>.csv`, print the phase table of `snap` under
    /// `--profile` (titled `<id>`, or `<id> (<pooled>)` when `pooled` says
    /// what the snapshot pools), and start the `BENCH_<id>.json` report,
    /// its artifact files named, for the bin to fill in and write.
    pub fn finish<'a>(
        &self,
        table: impl Into<Option<&'a Table>>,
        id: &str,
        pooled: &str,
        snap: &Snapshot,
    ) -> RunReport {
        if let Some(table) = table.into() {
            table.print();
            table.save_csv(id);
        }
        if self.profile {
            let note = match pooled {
                "" => String::new(),
                p => format!(" ({p})"),
            };
            print_phase_table(&format!("{id}{note}"), snap);
        }
        RunReport::new(id, self)
    }
}

/// A scratch directory under the system temp dir, named after the bench,
/// the process and a per-process counter — two runs on one host, or two
/// arms of one run, never share one — and removed on drop, unwinding
/// included.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `<tmp>/rhrsc-<bench_id>-<pid>-<n>`.
    pub fn new(bench_id: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rhrsc-{bench_id}-{}-{n}", std::process::id()));
        // A recycled pid may have left the name behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create scratch directory");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
