//! Distributed heterogeneous driver.
//!
//! Each rank owns one block of a Cartesian decomposition of the global
//! grid. A step comprises a Δt allreduce, per-stage halo exchanges and
//! residual evaluation. The stages are the serial solver's: a
//! [`BlockSolver`] holds a [`PatchSolver`] and runs its one stage loop —
//! buffers, Δt arithmetic, combine and limiter — through a halo coupling
//! (`Halo`), which supplies only the ghosts and the sweep order, the
//! cadenced Δt decision, the ladder's failure policy and the
//! virtual-clock charge of each compute section.
//!
//! A cell's primitives are computed by its owner, once per stage: every
//! stage recovers the block interior, ships the *primitive* face layers,
//! and fills the faces no message serves (physical boundaries, periodic
//! self-wrap) from its own primitives — a ghost is a copy of a cell
//! somebody has just recovered, and the recovery of a copy is the copy of
//! the recovery. The two modes differ in what happens while the messages
//! fly:
//!
//! * **bulk-synchronous** — exchange every halo, then compute the full
//!   residual (the classic MPI pattern),
//! * **futurized overlap** — post all halo sends eagerly, compute the
//!   *deep* residual region (whose stencils read no ghost that is still
//!   in flight) meanwhile, then receive halos and finish the boundary
//!   shell. Against the latency-modeling network of [`rhrsc_comm`] this
//!   genuinely hides communication time (experiment F7).
//!
//! Corner ghost zones are never exchanged: the dimension-by-dimension
//! sweeps read only face ghosts, which keeps both modes to `2·ndim`
//! messages per stage and makes them bit-identical to the serial solver.
//!
//! Every buffer that leaves a field — a halo face, a checkpoint block, a
//! gathered interior — is one [`Field::gather_box`] of a box named by
//! `interior_box` / `face_box`, and comes back through
//! [`Field::scatter_box`]; a halo's wire order is the storage order of
//! its face box. Whatever is collected on block 0 (telemetry samples,
//! global checkpoints, [`BlockSolver::gather_interior`]) goes through one
//! `gather_to_root`.
//!
//! [`BlockSolver::advance_to_with_restart`] hands the block state to the
//! recovery ladder ([`crate::ladder`]), which decides and books every
//! rung over the shared tier stack ([`crate::tiers`]); this module
//! supplies the state's side: the rollback copy, fault injection, the
//! live-state stamp, the observers, and the block's image — a
//! single-block image per rank for the memory tiers, the root gather of
//! every block for the disk tier in `<checkpoint_dir>/global/` — which
//! installs back onto the current decomposition, or onto one re-cut over
//! the survivors after a shrink.

use crate::health::{HealthConfig, HealthMonitor};
use crate::integrate::{Coupling, Eval, PatchSolver, RkOrder, StepSize};
use crate::ladder::{
    count, phase_end, phase_start, resilient_advance, straggle, PhaseStart, Recoverable,
    RestoreCause, Stopwatch,
};
pub use crate::ladder::{ResilienceConfig, ResilienceStats};
use crate::scheme::{init_cons, max_dt, recover_region, RecoveryStats, Scheme, SolverError};
use crate::step::Region;
use crate::tiers::{Capture, TierStack, Tiered};
use rhrsc_comm::{CommError, FaultInjector, Rank, TELEMETRY_TAG};
use rhrsc_grid::{fill_face, BcSet, CartDecomp, Field, PatchGeom};
use rhrsc_io::checkpoint::{encode_trusted, BlockRecord, GlobalCheckpoint};
use rhrsc_io::snapshot::StateChecksum;
use rhrsc_runtime::fault::RankSite;
use rhrsc_runtime::metrics::{Histogram, Registry};
use rhrsc_runtime::telemetry::{SampleInputs, SeriesSample, Telemetry, TelemetrySampler};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_srhd::{Prim, NCOMP};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Halo-exchange strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Exchange all halos, then compute.
    BulkSynchronous,
    /// Post sends, compute the deep interior, then receive and finish.
    Overlap,
}

impl ExchangeMode {
    /// Display name for benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            ExchangeMode::BulkSynchronous => "bulk-sync",
            ExchangeMode::Overlap => "overlap",
        }
    }
}

/// Configuration of a distributed run.
#[derive(Clone)]
pub struct DistConfig {
    /// Numerical scheme.
    pub scheme: Scheme,
    /// Runge–Kutta order.
    pub rk: RkOrder,
    /// Global grid extent.
    pub global_n: [usize; 3],
    /// Physical domain bounds.
    pub domain: ([f64; 3], [f64; 3]),
    /// Process grid.
    pub decomp: CartDecomp,
    /// Physical boundary conditions (periodic faces must match
    /// `decomp.periodic`).
    pub bcs: BcSet,
    /// CFL number.
    pub cfl: f64,
    /// Halo-exchange strategy.
    pub mode: ExchangeMode,
    /// Within-rank gang threads (0 = serial).
    pub gang_threads: usize,
    /// Recompute the global Δt every this many steps (≥ 1). Production
    /// codes amortize the Δt allreduce over several steps with a safety
    /// factor; between refreshes the cached Δt is scaled by 0.9.
    pub dt_refresh_interval: usize,
}

impl DistConfig {
    /// Local patch geometry for `rank`.
    pub fn local_geom(&self, rank: usize) -> PatchGeom {
        let (off, size) = self.decomp.local_span(self.global_n, rank);
        let (lo, _) = self.domain;
        let dx = self.cell_size();
        PatchGeom {
            n: size,
            ng: self.scheme.required_ghosts(),
            origin: [0, 1, 2].map(|d| lo[d] + off[d] as f64 * dx[d]),
            dx,
        }
    }

    fn cell_size(&self) -> [f64; 3] {
        let (lo, hi) = self.domain;
        [0, 1, 2].map(|d| (hi[d] - lo[d]) / self.global_n[d] as f64)
    }

    /// An empty ghost-free conserved field over the whole domain.
    fn global_field(&self) -> Field {
        Field::cons(PatchGeom {
            n: self.global_n,
            ng: 0,
            origin: self.domain.0,
            dx: self.cell_size(),
        })
    }

    /// Copy block `b`'s flattened interior (component-major,
    /// `interior_iter` order) into its span of `global`. A wrong-length
    /// contribution is reported as [`SolverError::HaloMismatch`].
    fn place_block(&self, global: &mut Field, b: usize, data: &[f64]) -> Result<(), SolverError> {
        let (off, size) = self.decomp.local_span(self.global_n, b);
        check_len(NCOMP * size[0] * size[1] * size[2], data.len())?;
        global.scatter_box(off, [0, 1, 2].map(|d| off[d] + size[d]), data);
        Ok(())
    }
}

/// Per-rank statistics of a distributed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistStats {
    /// Time steps taken.
    pub steps: usize,
    /// Wall-clock time of the advance loop.
    pub elapsed: Duration,
    /// Payload bytes sent by this rank.
    pub bytes_sent: u64,
    /// Interior zone-updates (cells × stages).
    pub zone_updates: u64,
    /// Virtual time elapsed on this rank (the run's simulated makespan
    /// is the max over ranks).
    pub vtime: f64,
}

/// One rank's solver state.
///
/// `my_rank` is the solver's *block rank*: its position in the current
/// decomposition. Before any shrinking recovery it equals the
/// communicator rank; after one, `comm_ranks` translates block ranks to
/// the surviving communicator ranks.
pub struct BlockSolver {
    cfg: DistConfig,
    my_rank: usize,
    /// Block-rank → communicator-rank translation (identity until a
    /// shrinking recovery remaps the survivors).
    comm_ranks: Vec<usize>,
    /// The stage loop and its buffers. Its primitives are those of the
    /// interior (recovered here) and of the face ghosts (copied from their
    /// owners); the ghosts of the conserved state are never written or
    /// read by the stage loop.
    patch: PatchSolver,
    /// Residual sweep regions of this block. Overlap mode: the deep core
    /// first, then the shell slabs beside the faces that wait on a
    /// message; bulk-synchronous mode: the interior alone.
    tiles: Vec<Region>,
    gang: Option<WorkStealingPool>,
    rec_stats: RecoveryStats,
    metrics: Option<Arc<Registry>>,
    /// Cached `c2p.newton_iters` histogram (avoids a registry lookup per
    /// recovery sweep).
    c2p_hist: Option<Arc<Histogram>>,
    /// Optional physics-health monitor (strictly rank-local reads; never
    /// communicates, never changes the numbers).
    health: Option<HealthMonitor>,
    /// Spare halo buffers: a send moves one into its message, a receive
    /// hands the peer's back, so a steady-state exchange allocates none.
    halo_bufs: Vec<Vec<f64>>,
    /// Cached global Δt with its guarded refresh cadence.
    dt_cache: DtCache,
    /// Optional cadenced telemetry: shared hub + per-rank sampler state.
    telemetry: Option<TelemetryState>,
}

/// Per-rank telemetry state: the shared hub and this rank's delta
/// sampler (previous registry snapshot + clock of the last sample).
struct TelemetryState {
    hub: Arc<Telemetry>,
    sampler: TelemetrySampler,
    /// Virtual clock at the previous sample, for per-window `elapsed_s`.
    last_clock: Option<f64>,
}

/// Cached global Δt state for the cadenced allreduce.
///
/// The refresh `window` adapts AIMD-style within
/// `1..=cfg.dt_refresh_interval`: any CFL violation reported at a
/// refresh collapses it to 1 (refresh every step), and each clean
/// refresh doubles it back toward the configured cadence. All fields
/// evolve in lockstep across ranks — refreshes are collective, coasting
/// uses the shared cached value, and invalidation only happens at
/// collectively-agreed points (retry, restore, shrink) — so the
/// refresh/coast control flow can never diverge between ranks.
#[derive(Debug, Clone, Copy)]
struct DtCache {
    /// Last allreduced global Δt (unscaled; coasting applies the 0.9
    /// safety margin on top).
    dt: f64,
    /// Steps taken since the last refresh (the refresh step counts as 1).
    age: usize,
    /// Current refresh window, in steps.
    window: usize,
    /// False when the cached Δt must not be trusted (initially, and
    /// after a rollback, checkpoint restore, or shrink): the next step
    /// refreshes unconditionally.
    valid: bool,
    /// Local coast-past-the-bound violations since the last refresh;
    /// piggybacked (negated) on the next Δt allreduce so every rank
    /// learns about them.
    violations: u64,
}

impl DtCache {
    fn new() -> Self {
        DtCache {
            dt: 0.0,
            age: 0,
            window: 1,
            valid: false,
            violations: 0,
        }
    }

    /// Drop the cached value; the next step must refresh. Call only at
    /// collectively-agreed points so ranks stay in lockstep.
    fn invalidate(&mut self) {
        self.valid = false;
        self.window = 1;
    }
}

impl BlockSolver {
    /// Build the solver for `rank`'s block and initialize the conserved
    /// state from the pointwise IC.
    pub fn new(cfg: DistConfig, rank: usize, ic: &dyn Fn([f64; 3]) -> Prim) -> (Self, Field) {
        let geom = cfg.local_geom(rank);
        let u = init_cons(geom, &cfg.scheme.eos, ic);
        let gang = (cfg.gang_threads > 0).then(|| WorkStealingPool::new(cfg.gang_threads));
        (
            BlockSolver {
                comm_ranks: (0..cfg.decomp.nranks()).collect(),
                tiles: sweep_tiles(&cfg, &geom, rank),
                patch: PatchSolver::new(cfg.scheme, cfg.bcs, cfg.rk, geom),
                cfg,
                my_rank: rank,
                gang,
                rec_stats: RecoveryStats::default(),
                metrics: None,
                c2p_hist: None,
                health: None,
                halo_bufs: Vec::new(),
                dt_cache: DtCache::new(),
                telemetry: None,
            },
            u,
        )
    }

    /// Attach a metrics registry: subsequent steps record per-phase time
    /// histograms (`phase.*`, in nanoseconds), nested sub-phases
    /// (`sub.*`), con2prim iteration counts (`c2p.newton_iters`) and
    /// cascade-tier counters (`c2p.cascade.*`). Phase durations are
    /// virtual-clock deltas (a rank's wall clock also runs while it waits
    /// for a message, or for the CPU token of a universe with more ranks
    /// than cores). Instrumentation never changes the numbers: the counted
    /// con2prim produces bit-identical iterates.
    pub fn set_metrics(&mut self, metrics: Arc<Registry>) {
        self.c2p_hist = Some(metrics.histogram("c2p.newton_iters"));
        self.metrics = Some(metrics);
    }

    /// Attach a physics-health monitor: the resilient driver (and the
    /// plain `advance_*` loops) will take periodic rank-local health
    /// observations on the monitor's cadence, emit them as trace
    /// counters, and bump `health.*` metrics counters on watchdog
    /// alarms. Observation is read-only and communication-free, so the
    /// computed states stay bit-identical and the comm pattern (liveness
    /// deadlines, agreement rounds) is untouched.
    pub fn set_health(&mut self, cfg: HealthConfig) {
        self.health = Some(HealthMonitor::new(cfg));
    }

    /// The attached health monitor, if any.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref()
    }

    /// Detach and return the health monitor (e.g. to merge per-rank
    /// summaries at bench time).
    pub fn take_health(&mut self) -> Option<HealthMonitor> {
        self.health.take()
    }

    /// Attach the shared telemetry hub: on the hub's step cadence the
    /// advance loops snapshot the metrics registry into a delta sample
    /// and reduce it to block rank 0 over [`TELEMETRY_TAG`], which
    /// pushes the merged global sample into the hub (rings, watchdogs,
    /// sinks). Requires [`set_metrics`](Self::set_metrics) — the sampler
    /// reads the registry; without one the hook is inert. Sampling is
    /// read-only over the solver state and the point-to-point reduction
    /// uses a dedicated reliable tag, so the computed fields are
    /// bit-identical with telemetry armed or detached.
    pub fn set_telemetry(&mut self, hub: Arc<Telemetry>) {
        let interval = hub.cfg().interval;
        self.telemetry = Some(TelemetryState {
            hub,
            sampler: TelemetrySampler::new(interval),
            last_clock: None,
        });
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref().map(|t| &t.hub)
    }

    fn pstart(&self, rank: &Rank) -> PhaseStart {
        phase_start(self.metrics.as_deref(), rank)
    }

    fn pend(&self, name: &'static str, rank: &Rank, s: PhaseStart) {
        phase_end(self.metrics.as_deref(), name, rank, s);
    }

    /// Take a health observation if a monitor is attached and `step_no`
    /// is on its cadence. Emits the record as trace counters and bumps
    /// `health.*` metrics counters.
    fn health_observe(&mut self, rank: &Rank, u: &Field, t: f64, step_no: u64) {
        if !self.health.as_ref().is_some_and(|mon| mon.due(step_no)) {
            return;
        }
        let rho_floor = self.cfg.scheme.c2p.rho_floor;
        let rec = self.rec_stats;
        let mon = self.health.as_mut().expect("health monitor checked above");
        let (record, drift_alarm, floor_alarm) =
            mon.observe(step_no, t, u, &self.patch.prim, rho_floor, rec);
        rank.trace_counter("health.drift", record.drift);
        rank.trace_counter("health.atmo_frac", record.atmo_frac);
        rank.trace_counter("health.limiter_frac", record.limiter_frac);
        rank.trace_counter("health.max_lorentz", record.max_w);
        count(self.metrics.as_deref(), "health.records", 1);
        if drift_alarm {
            rank.trace_instant("health.alarm.drift", record.drift);
            count(self.metrics.as_deref(), "health.drift_alarms", 1);
        }
        if floor_alarm {
            rank.trace_instant("health.alarm.floor", record.atmo_frac);
            count(self.metrics.as_deref(), "health.floor_alarms", 1);
        }
    }

    /// Take a telemetry sample if the hub's cadence is due: snapshot the
    /// registry into a delta sample and reduce it to block rank 0 over
    /// the dedicated [`TELEMETRY_TAG`]. Rank 0 merges the per-rank
    /// contributions in block order (deterministic), pushes the global
    /// sample into the hub, and — on a watchdog trip — dumps the flight
    /// recorder pre-emptively, before any escalation overwrites the
    /// evidence. A peer whose sample never arrives (it died this step)
    /// is simply skipped: telemetry observes faults, it never escalates
    /// them.
    fn telemetry_observe(&mut self, rank: &mut Rank, t: f64, step_no: u64, dt: f64) {
        if !self
            .telemetry
            .as_ref()
            .is_some_and(|ts| ts.sampler.due(step_no))
        {
            return;
        }
        let Some(metrics) = self.metrics.clone() else {
            return;
        };
        let (drift, atmo_frac, max_lorentz) = self
            .health
            .as_ref()
            .and_then(|h| h.records().last())
            .map(|r| (r.drift, r.atmo_frac, r.max_w))
            .unwrap_or((0.0, 0.0, 0.0));
        let zones_per_step = (self.geom().interior_len() * self.cfg.rk.stages()) as f64;
        let ts = self.telemetry.as_mut().expect("telemetry checked above");
        // Timestamps are the flight recorder's virtual nanoseconds, so
        // JSONL samples line up against the Perfetto spans of the run.
        let vnow = rank.vtime();
        let t_ns = (vnow.max(0.0) * 1e9) as u64;
        let elapsed_s = ts.last_clock.map_or(0.0, |v0| (vnow - v0).max(0.0));
        ts.last_clock = Some(vnow);
        let steps = ts.sampler.steps_since(step_no) as f64;
        let inputs = SampleInputs {
            steps,
            dt,
            zone_updates: zones_per_step * steps,
            elapsed_s,
            drift,
            atmo_frac,
            max_lorentz,
            pool_queue_depth: rhrsc_runtime::pool::global_queue_depth() as f64,
            ..SampleInputs::default()
        };
        let local = ts
            .sampler
            .sample(step_no, t, t_ns, metrics.snapshot(), &inputs);
        let Some(parts) = self.gather_to_root(rank, TELEMETRY_TAG, local.pack()) else {
            return;
        };
        let mut merged = local;
        for buf in parts.skip(1).flatten() {
            if let Some(s) = SeriesSample::unpack(&buf) {
                merged.merge(&s);
            }
        }
        let hub = &self
            .telemetry
            .as_ref()
            .expect("telemetry checked above")
            .hub;
        let verdict = hub.push_sample(merged, rank.rank() as u32);
        if verdict.trips > 0 {
            metrics
                .counter("telemetry.watchdog.trips")
                .add(verdict.trips);
            rank.trace_instant("telemetry.watchdog", verdict.trips as f64);
            if verdict.dump {
                if let Some(tracer) = rank.tracer() {
                    tracer.dump_on_fault(rank.rank() as u32, "telemetry-watchdog", t_ns);
                }
            }
        }
    }

    /// The local patch geometry.
    pub fn geom(&self) -> &PatchGeom {
        self.patch.prim.geom()
    }

    /// The current configuration (the decomposition changes after a
    /// shrinking recovery).
    pub fn cfg(&self) -> &DistConfig {
        &self.cfg
    }

    /// The root gather behind telemetry, global checkpoints and
    /// [`BlockSolver::gather_interior`]: a block other than 0 ships `buf`
    /// to block 0 and gets `None`; block 0 gets one buffer per block in
    /// block order — its own, then each peer's as it is received under the
    /// deadline, so a caller that stops at the first error waits for no
    /// further peer.
    fn gather_to_root<'a>(
        &'a self,
        rank: &'a mut Rank,
        tag: u64,
        buf: Vec<f64>,
    ) -> Option<impl Iterator<Item = Result<Vec<f64>, CommError>> + 'a> {
        if self.my_rank != 0 {
            rank.send_vec(self.comm_ranks[0], tag, buf);
            return None;
        }
        let peers = self.comm_ranks[1..]
            .iter()
            .map(move |&peer| rank.recv_deadline(peer, tag));
        Some(std::iter::once(Ok(buf)).chain(peers))
    }

    /// One RK step of size `dt`; the first stage error aborts the step.
    pub fn step(&mut self, rank: &mut Rank, u: &mut Field, dt: f64) -> Result<(), SolverError> {
        self.run(rank, u, StepSize::Fixed(dt), false).map(|_| ())
    }

    /// One step of the one stage loop ([`PatchSolver`]'s) over this
    /// block's [`Halo`] coupling. Returns the Δt taken.
    ///
    /// With [`StepSize::Cfl`] Δt is decided *inside* the step: the stage-0
    /// residual evaluation runs the fused wave-speed scan, the cadenced
    /// refresh (or the cached coast) turns this rank's bound into the
    /// global Δt, and only then do the stage combines apply it — minus
    /// the separate `phase.dt.local` primitive-recovery pass, which the
    /// fusion makes redundant.
    ///
    /// `keep_going` is the recovery ladder's attempt, and only it: failed
    /// cells are repaired by the recovery cascade, so the only in-step
    /// failure mode is a halo mismatch, and by then the neighbor ranks are
    /// already committed to the full per-step communication pattern —
    /// aborting mid-step would leave them blocked in `recv`. Instead every
    /// stage runs, the remaining ones exchanging (possibly stale) data,
    /// the first error is reported at the end, and the ladder rolls the
    /// state back. A Δt collapse still returns at once: that decision is
    /// identical on every rank. Without `keep_going` (the plain advance
    /// loops and [`Self::step`]) recovery is strict and the first error
    /// ends the step.
    fn run(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        size: StepSize,
        keep_going: bool,
    ) -> Result<f64, SolverError> {
        self.with_halo(rank, keep_going, |patch, halo, gang| {
            patch.step_sized(halo, u, size, gang)
        })
    }

    /// Lend the stage loop, this step's halo coupling and the gang to `f`.
    fn with_halo<R>(
        &mut self,
        rank: &mut Rank,
        keep_going: bool,
        f: impl FnOnce(&mut PatchSolver, &mut Halo, Option<&WorkStealingPool>) -> R,
    ) -> R {
        let peer = |d, side| face_neighbor(&self.cfg, self.my_rank, d, side);
        let peers = [0, 1, 2].map(|d| [0, 1].map(|side| peer(d, side).map(|b| self.comm_ranks[b])));
        let mut halo = Halo {
            rank,
            peers,
            overlap: self.cfg.mode == ExchangeMode::Overlap,
            refresh: self.cfg.dt_refresh_interval.max(1),
            tiles: &self.tiles,
            bufs: &mut self.halo_bufs,
            dt_cache: &mut self.dt_cache,
            keep_going,
            rec_stats: &mut self.rec_stats,
            metrics: self.metrics.as_deref(),
            c2p_hist: self.c2p_hist.as_deref(),
        };
        f(&mut self.patch, &mut halo, self.gang.as_ref())
    }

    /// Globally stable Δt: local CFL bound reduced with allreduce-min.
    ///
    /// This is the *unfused* reference path (a dedicated
    /// primitive-recovery pass plus [`max_dt`], timed as
    /// `phase.dt.local`). The advance loops no longer call it — they get
    /// the local bound for free from the fused wave-speed scan of the
    /// stage-0 residual sweep — but it
    /// is kept public as the independent cross-check the fused scan is
    /// tested against, and for callers that need a Δt without taking a
    /// step.
    pub fn stable_dt(&mut self, rank: &mut Rank, u: &mut Field) -> Result<f64, SolverError> {
        // Local primitives on the interior suffice for the CFL bound.
        let interior = Region::interior(self.geom());
        let s = self.pstart(rank);
        let local = rank.work(|| -> Result<f64, SolverError> {
            let (scheme, prim) = (&self.cfg.scheme, &mut self.patch.prim);
            recover_region(scheme, u, prim, &interior, self.c2p_hist.as_deref(), None)?;
            Ok(max_dt(scheme, prim, self.cfg.cfl))
        })?;
        self.pend("phase.dt.local", rank, s);
        let s = self.pstart(rank);
        let global = rank.allreduce_min(local);
        self.pend("phase.dt.allreduce", rank, s);
        Ok(global)
    }

    /// Advance a fixed number of steps (each at the CFL-stable Δt);
    /// used by the scaling experiments, where a fixed step count keeps
    /// the work comparable across configurations.
    pub fn advance_steps(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        nsteps: usize,
    ) -> Result<DistStats, SolverError> {
        self.advance_plain(rank, u, 0.0, None, nsteps)
    }

    /// Advance to `t_end`; returns final state statistics.
    pub fn advance_to(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        t0: f64,
        t_end: f64,
    ) -> Result<DistStats, SolverError> {
        self.advance_plain(rank, u, t0, Some(t_end), usize::MAX)
    }

    /// The fail-fast advance loop: from `t0`, at most `max_steps` steps
    /// and not past `t_end`.
    fn advance_plain(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        t0: f64,
        t_end: Option<f64>,
        max_steps: usize,
    ) -> Result<DistStats, SolverError> {
        let start = Instant::now();
        let bytes0 = rank.bytes_sent();
        let vtime0 = rank.vtime();
        let mut t = t0;
        let mut stats = DistStats::default();
        self.dt_cache = DtCache::new();
        if let Some(mon) = &mut self.health {
            mon.ensure_baseline(u);
        }
        while stats.steps < max_steps && t_end.is_none_or(|end| t < end - 1e-14) {
            let size = StepSize::Cfl {
                cfl: self.cfg.cfl,
                scale: 1.0,
                limit: t_end.map(|end| (t, end)),
            };
            let dt = self.run(rank, u, size, false)?;
            t += dt;
            stats.steps += 1;
            stats.zone_updates += (self.geom().interior_len() * self.cfg.rk.stages()) as u64;
            self.health_observe(rank, u, t, stats.steps as u64);
            self.telemetry_observe(rank, t, stats.steps as u64, dt);
        }
        stats.elapsed = start.elapsed();
        stats.bytes_sent = rank.bytes_sent() - bytes0;
        stats.vtime = rank.vtime() - vtime0;
        Ok(stats)
    }

    /// Collectively gather the rank-count-independent global image:
    /// every block sends its interior to block rank 0, which assembles
    /// the [`GlobalCheckpoint`] (the others get `None`). Deadline receives
    /// keep the root from hanging on a rank that died mid-interval.
    fn global_image(
        &self,
        rank: &mut Rank,
        u: &Field,
        t: f64,
        step: u64,
    ) -> Result<Option<GlobalCheckpoint>, SolverError> {
        const GCKP_TAG: u64 = 1001;
        let Some(parts) = self.gather_to_root(rank, GCKP_TAG, pack_interior(u)) else {
            return Ok(None);
        };
        let blocks = parts
            .enumerate()
            .map(|(b, data)| Ok(self.record(b, data.map_err(comm_err)?)))
            .collect::<Result<_, SolverError>>()?;
        Ok(Some(self.image(t, step, blocks)))
    }

    /// An image of this run's global grid at `(time, step)`.
    fn image(&self, time: f64, step: u64, blocks: Vec<BlockRecord>) -> GlobalCheckpoint {
        GlobalCheckpoint {
            time,
            step,
            global_n: self.cfg.global_n,
            ncomp: NCOMP,
            blocks,
        }
    }

    /// Block `b`'s record in a global image: its span and flattened
    /// interior.
    fn record(&self, b: usize, data: Vec<f64>) -> BlockRecord {
        let (offset, size) = self.cfg.decomp.local_span(self.cfg.global_n, b);
        BlockRecord {
            id: b as u32,
            level: 0,
            offset,
            size,
            data,
        }
    }

    /// Re-run the decomposition over the live communicator ranks and
    /// rebuild this solver's block (geometry, work buffers, Δt cache).
    /// The state itself is *not* restored — pair with
    /// [`BlockSolver::fill_from_global`].
    fn rebuild_for_survivors(&mut self, rank: &Rank) -> Result<(), SolverError> {
        let survivors = rank.live_ranks().to_vec();
        let my_block = survivors
            .iter()
            .position(|&r| r == rank.rank())
            .ok_or(SolverError::RankFailed { step: 0 })?;
        self.cfg.decomp =
            CartDecomp::auto(survivors.len(), self.cfg.global_n, self.cfg.decomp.periodic);
        self.my_rank = my_block;
        self.comm_ranks = survivors;
        let geom = self.cfg.local_geom(my_block);
        self.tiles = sweep_tiles(&self.cfg, &geom, my_block);
        self.patch = PatchSolver::new(self.cfg.scheme, self.cfg.bcs, self.cfg.rk, geom);
        // A restored (older) state on a new block: the cached Δt is stale.
        self.dt_cache.invalidate();
        Ok(())
    }

    /// Cut this block's span out of a global checkpoint and overwrite the
    /// interior of `u` with it (a fresh field, ghosts zeroed, whichever
    /// tier served the image). Returns the checkpoint's `(time, step)`.
    fn fill_from_global(
        &self,
        u: &mut Field,
        gckp: &GlobalCheckpoint,
    ) -> Result<(f64, u64), SolverError> {
        let (offset, size) = self.cfg.decomp.local_span(self.cfg.global_n, self.my_rank);
        let data = (gckp.global_n == self.cfg.global_n && gckp.ncomp == NCOMP)
            .then(|| gckp.extract_span(offset, size))
            .flatten()
            .ok_or_else(|| SolverError::Checkpoint {
                msg: "global checkpoint does not match this run's grid or does not \
                      cover this block's span"
                    .into(),
            })?;
        *u = unpack_interior(*self.geom(), &data);
        Ok((gckp.time, gckp.step))
    }

    /// Serialize this block's interior as a single-block global checkpoint
    /// (what the L1 diskless tier freezes). Using the one block image
    /// means any collection of snapshots can later be merged into a full
    /// [`GlobalCheckpoint`] and re-tiled onto a *different* decomposition
    /// — which is exactly what the buddy-shrink path does.
    fn snapshot_bytes(&self, u: &Field, t: f64, step: u64) -> Vec<u8> {
        let block = self.record(self.my_rank, pack_interior(u));
        encode_trusted(&self.image(t, step, vec![block]))
    }

    /// Gather the interior of every block onto block rank 0 as a global,
    /// ghost-free field (for validation and output), through the current
    /// (possibly shrunken) block→communicator translation. Other ranks
    /// get `Ok(None)`. A wrong-length contribution (which a reliable
    /// transport never produces, but a corrupted one might) is reported
    /// as [`SolverError::HaloMismatch`].
    pub fn gather_interior(
        &self,
        rank: &mut Rank,
        u: &Field,
    ) -> Result<Option<Field>, SolverError> {
        const GATHER_TAG: u64 = 1000;
        let Some(parts) = self.gather_to_root(rank, GATHER_TAG, pack_interior(u)) else {
            return Ok(None);
        };
        let mut global = self.cfg.global_field();
        for (b, data) in parts.enumerate() {
            self.cfg
                .place_block(&mut global, b, &data.map_err(comm_err)?)?;
        }
        Ok(Some(global))
    }

    /// Advance to `t_end` with the full resilience stack:
    ///
    /// 1. in-step primitive-recovery failures are repaired by the cascade
    ///    (on the ladder's attempts only; the plain advance stays strict),
    /// 2. a failed step (halo mismatch or Δt collapse on *any* rank — the
    ///    ranks agree via an allreduce after every step) is rolled back
    ///    from an in-memory backup and retried at halved CFL, up to
    ///    [`ResilienceConfig::max_step_retries`] times,
    /// 3. when retries are exhausted, the cheapest tier that can serve
    ///    restores the state — own in-memory snapshot, a buddy's replica,
    ///    then the global disk checkpoint (rotating `latest`/`prev` slots)
    ///    — and the run resumes at reduced CFL, ramping back up as steps
    ///    succeed, up to [`ResilienceConfig::max_restarts`] restores,
    /// 4. a rank that goes *silent* (crash or terminal stall) is detected
    ///    by the liveness deadlines, agreed dead by a suspicion
    ///    consensus, and the survivors **shrink**: they re-run the
    ///    decomposition over the live ranks, restore from the buddy
    ///    replicas or the same global checkpoint, and continue degraded.
    ///    The dead rank's closure returns [`SolverError::RankFailed`].
    ///
    /// With no fault injection active, the trajectory is bit-identical to
    /// [`BlockSolver::advance_to`]: the cascade only engages on failures,
    /// the CFL scale stays exactly 1, and the coordination allreduce does
    /// not touch the state.
    ///
    /// `DistStats::steps` counts *committed* steps, including any re-run
    /// after a checkpoint restore.
    pub fn advance_to_with_restart(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        t0: f64,
        t_end: f64,
        res: &ResilienceConfig,
    ) -> Result<(DistStats, ResilienceStats), SolverError> {
        let start = Instant::now();
        let bytes0 = rank.bytes_sent();
        let vtime0 = rank.vtime();
        let rec0 = self.rec_stats;
        self.dt_cache = DtCache::new();
        let dir = res.checkpoint_dir.as_ref().map(|d| d.join("global"));
        let mut ladder = BlockLadder {
            backup: Field::cons(*self.geom()),
            injector: rank.fault_injector().cloned(),
            stack: TierStack::new(res, dir, self.metrics.clone()),
            img: BlockImage { s: self, u },
            res,
            stats: DistStats::default(),
            stamp: None,
            step_no: 0,
        };
        resilient_advance(&mut ladder, rank, t0, t_end, res)?;
        let BlockLadder {
            mut stats, stack, ..
        } = ladder;
        let mut rstats = stack.stats;
        rstats.recovery = RecoveryStats {
            relaxed_tol: self.rec_stats.relaxed_tol - rec0.relaxed_tol,
            neighbor_avg: self.rec_stats.neighbor_avg - rec0.neighbor_avg,
            atmosphere: self.rec_stats.atmosphere - rec0.atmosphere,
        };
        stats.elapsed = start.elapsed();
        stats.bytes_sent = rank.bytes_sent() - bytes0;
        stats.vtime = rank.vtime() - vtime0;
        Ok((stats, rstats))
    }
}

/// The halo coupling of one block step ([`Coupling`]): a ghost is a
/// neighbor's freshly recovered primitive, Δt is the cadenced global
/// decision ([`DtCache`]), the ladder's attempt runs the stage pattern to
/// the end before it fails, and every compute section is charged to the
/// rank's virtual clock and timed under its `phase.*` name.
struct Halo<'a> {
    rank: &'a mut Rank,
    /// Communicator rank behind face (`d`, `side`); `None` for a face no
    /// message serves.
    peers: [[Option<usize>; 2]; 3],
    overlap: bool,
    /// Longest Δt refresh window, in steps.
    refresh: usize,
    tiles: &'a [Region],
    bufs: &'a mut Vec<Vec<f64>>,
    dt_cache: &'a mut DtCache,
    /// The ladder's attempt: recover through the cascade, and report a
    /// failure at the end of the step.
    keep_going: bool,
    rec_stats: &'a mut RecoveryStats,
    metrics: Option<&'a Registry>,
    c2p_hist: Option<&'a Histogram>,
}

impl Coupling for Halo<'_> {
    /// Recover the interior — the cells this block owns — ship its
    /// primitive face layers and fill the faces no message serves
    /// (physical boundaries, periodic self-wrap) from it, honoring the
    /// mode: bulk-synchronous sweeps the interior once the halos are in;
    /// overlap sweeps the deep core while they fly and the shell after.
    /// The cascade's repairs all finish before any primitive ships.
    ///
    /// With the scan armed the sweeps also fold each cell's CFL rate into
    /// the running maximum — for free, as the pencils are already
    /// resident in scratch — which is what lets Δt be decided without a
    /// separate local pass.
    fn evaluate(&mut self, e: &mut Eval) -> Result<(), SolverError> {
        // Phase names of the compute before and after the receives.
        let (before, after) = if self.overlap {
            ("phase.rhs.deep", "phase.rhs.shell")
        } else {
            ("phase.rhs.interior", "phase.rhs.interior")
        };
        // Wall time inside a `rank.work` closure is the virtual-clock
        // charge (one thread per rank, on a core of its own or holding
        // the CPU token), so the nested con2prim sub-phase can use plain
        // `Instant` timing.
        let sub_c2p = self.metrics.map(|m| m.histogram("sub.c2p"));
        let (iters, mut repairs) = (self.c2p_hist, RecoveryStats::default());
        let cascade = self.keep_going.then_some(&mut repairs);
        let recovered = self.section(before, || {
            let t0 = sub_c2p.as_ref().map(|_| Instant::now());
            let out = e.recover(iters, cascade);
            if let (Some(h), Some(t0)) = (&sub_c2p, t0) {
                h.record(t0.elapsed().as_nanos() as u64);
            }
            out
        });
        self.rec_stats.merge(&repairs);
        // Per-tier counters, created by the first repair.
        let m = self.metrics.filter(|_| repairs.total() > 0);
        count(m, "c2p.cascade.relaxed_tol", repairs.relaxed_tol);
        count(m, "c2p.cascade.neighbor_avg", repairs.neighbor_avg);
        count(m, "c2p.cascade.atmosphere", repairs.atmosphere);
        // The exchange runs even when the recovery failed: the neighbors
        // are committed to this stage's messages, and skipping them would
        // shift every later receive by one.
        self.post_sends(e.prim);
        self.fill_local_faces(e.prim, e.bcs);
        // Overlap splits the sweeps along the axes up to the last one that
        // waits on a message; the later axes sweep the whole interior
        // once, after the shells, as every cell adds x, then y, then z.
        let waits = |d: usize| self.peers[d].iter().any(Option::is_some);
        let split = match self.overlap {
            true => (0..3).rev().find(|&d| waits(d)).map_or(0, |d| d + 1),
            false => 3,
        };
        let (deep, shell) = self.tiles.split_at(self.overlap as usize);
        if !deep.is_empty() && recovered.is_ok() {
            self.section(before, || e.sweep(deep, 0..split));
        }
        let received = self.recv_halos(e.prim);
        recovered?;
        received?;
        let interior = Region::interior(e.u.geom());
        self.section(after, || {
            e.sweep(shell, 0..split);
            e.sweep(&[interior], split..3);
        });
        Ok(())
    }

    /// Refreshes (allreduce-min, piggybacking the negated local violation
    /// count as a second component on the same message) when the cache is
    /// invalid or its window has elapsed; otherwise coasts on `0.9 ×` the
    /// cached value.
    fn decide_dt(&mut self, bound: f64) -> (f64, bool) {
        let cache = &mut *self.dt_cache;
        if cache.valid && cache.age < cache.window {
            cache.age += 1;
            // Safety margin while coasting on the cached value.
            return (0.9 * cache.dt, true);
        }
        let msg = [bound, -(cache.violations as f64)];
        let s = phase_start(self.metrics, self.rank);
        let out = self.rank.allreduce(&msg, f64::min);
        phase_end(self.metrics, "phase.dt.allreduce", self.rank, s);
        // AIMD window: collapse to every-step refreshes when any rank
        // coasted past its bound during the last window; double back
        // toward the configured cadence on clean windows.
        cache.window = if out[1] < 0.0 {
            1
        } else {
            (cache.window * 2).min(self.refresh)
        };
        cache.dt = out[0];
        cache.age = 1;
        cache.valid = true;
        cache.violations = 0;
        (out[0], false)
    }

    /// Counted as `dt.cadence.violation` and reported at the next refresh,
    /// which collapses the window.
    fn overran(&mut self, dt: f64, bound: f64) {
        self.dt_cache.violations += 1;
        count(self.metrics, "dt.cadence.violation", 1);
        self.rank.trace_instant("driver.dt_violation", dt / bound);
    }

    fn keep_going(&self) -> bool {
        self.keep_going
    }

    fn section<R>(&mut self, phase: &'static str, f: impl FnOnce() -> R) -> R {
        let s = phase_start(self.metrics, self.rank);
        let out = self.rank.work(f);
        phase_end(self.metrics, phase, self.rank, s);
        out
    }
}

impl Halo<'_> {
    /// Post the halo sends of the freshly recovered interior primitives.
    fn post_sends(&mut self, prim: &Field) {
        for (d, side) in faces(prim.geom()) {
            let Some(peer) = self.peers[d][side] else {
                continue;
            };
            let mut buf = self.bufs.pop().unwrap_or_default();
            self.section("phase.halo.pack", || pack_face(prim, d, side, &mut buf));
            let s = phase_start(self.metrics, self.rank);
            self.rank.send_vec(peer, (d * 2 + side) as u64, buf);
            phase_end(self.metrics, "phase.halo.send", self.rank, s);
        }
    }

    /// Fill the primitive ghosts of every face no message serves:
    /// physical boundary conditions and the periodic self-wrap. The
    /// primitive layout has the normal velocity where the conserved one
    /// has the normal momentum, so [`fill_face`] mirrors it correctly.
    fn fill_local_faces(&mut self, prim: &mut Field, bcs: &BcSet) {
        for (d, side) in faces(prim.geom()) {
            if self.peers[d][side].is_none() {
                self.section("phase.halo.unpack", || {
                    fill_face(prim, d, side, bcs[d][side])
                });
            }
        }
    }

    /// Receive the primitive halos of every face a peer serves.
    ///
    /// Every expected message is received even after an unpack failure —
    /// bailing out early would leave messages queued and desynchronize
    /// this rank's communication pattern from its neighbors'. The first
    /// error is reported after the exchange is fully drained.
    fn recv_halos(&mut self, prim: &mut Field) -> Result<(), SolverError> {
        let mut first_err = None;
        for (d, side) in faces(prim.geom()) {
            let Some(peer) = self.peers[d][side] else {
                continue;
            };
            // Neighbor's opposite face arrives tagged with its
            // (d, 1-side). The deadline receive bounds the wait on a
            // dead neighbor: a silent peer becomes a typed suspicion
            // instead of a hang.
            let s = phase_start(self.metrics, self.rank);
            let buf = self.rank.recv_deadline(peer, (d * 2 + (1 - side)) as u64);
            phase_end(self.metrics, "phase.halo.wait", self.rank, s);
            match buf {
                Ok(buf) => {
                    let unpacked =
                        self.section("phase.halo.unpack", || unpack_face(prim, d, side, &buf));
                    if let Err(e) = unpacked {
                        first_err.get_or_insert(e);
                    }
                    self.bufs.push(buf);
                }
                // Ghosts stay untouched; the step is rolled back. Keep
                // draining the remaining faces so this rank's pattern
                // stays aligned with the neighbors that are still alive.
                Err(e) => {
                    first_err.get_or_insert(comm_err(e));
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// The faces (`d`, `side`) of the active dimensions of `geom`.
fn faces(geom: &PatchGeom) -> impl Iterator<Item = (usize, usize)> {
    let geom = *geom;
    (0..3)
        .filter(move |&d| geom.active(d))
        .flat_map(|d| [(d, 0), (d, 1)])
}

/// Pack the primitives of the `ng` interior layers adjacent to face
/// (`d`, `side`) (transverse interior only — corners are never
/// exchanged). `buf` is overwritten; its allocation is reused.
fn pack_face(prim: &Field, d: usize, side: usize, buf: &mut Vec<f64>) {
    let (lo, hi) = face_box(prim.geom(), d, side, false);
    buf.clear();
    prim.gather_box(lo, hi, buf);
}

/// Unpack a received halo into the primitive ghost layers of face
/// (`d`, `side`). A wrong-length buffer (truncated in flight) leaves
/// the ghosts untouched and reports [`SolverError::HaloMismatch`].
fn unpack_face(prim: &mut Field, d: usize, side: usize, buf: &[f64]) -> Result<(), SolverError> {
    let geom = *prim.geom();
    let (lo, hi) = face_box(&geom, d, side, true);
    check_len(
        NCOMP * geom.ng_of(d) * geom.interior_len() / geom.n[d],
        buf.len(),
    )?;
    prim.scatter_box(lo, hi, buf);
    Ok(())
}

/// One `advance_to_with_restart` call seen from the recovery ladder: the
/// solver and its state plus everything the rungs keep between steps.
struct BlockLadder<'a> {
    /// The solver and its state.
    img: BlockImage<'a>,
    res: &'a ResilienceConfig,
    stats: DistStats,
    /// The disk tier — the global (rank-count-independent) slot pair in
    /// `<checkpoint_dir>/global/` — and the memory tiers.
    stack: TierStack<'a>,
    /// ABFT stamp of the last committed state.
    stamp: Option<StateChecksum>,
    /// Pre-attempt copy of the state for rollback.
    backup: Field,
    injector: Option<Arc<FaultInjector>>,
    step_no: u64,
}

/// The block state as the tier stack sees it: this rank's block of the
/// global image.
struct BlockImage<'a> {
    s: &'a mut BlockSolver,
    u: &'a mut Field,
}

impl Tiered for BlockImage<'_> {
    const WHOLE: bool = false;

    fn blocks(&self, _rank: &Rank) -> Result<(Cow<'_, [usize]>, usize), SolverError> {
        Ok((Cow::Borrowed(&self.s.comm_ranks), self.s.my_rank))
    }

    /// Its own block image for the memory tier, and the root gather of
    /// every block for the disk.
    fn capture(&mut self, rank: &mut Rank, at: (f64, u64), disk: bool, memory: bool) -> Capture {
        let (t, step) = at;
        let image = disk.then(|| self.s.global_image(rank, self.u, t, step));
        let bytes = memory.then(|| self.s.snapshot_bytes(self.u, t, step));
        (image.unwrap_or(Ok(None)), bytes)
    }

    /// Cut this block's span; after a shrink, first re-cut the
    /// decomposition over the survivors.
    fn install(&mut self, rank: &Rank, img: GlobalCheckpoint) -> Result<(f64, u64), SolverError> {
        if rank.live_ranks() != self.s.comm_ranks {
            self.s.rebuild_for_survivors(rank)?;
        }
        self.s.fill_from_global(self.u, &img)
    }
}

impl BlockLadder<'_> {
    /// Re-stamp the state as the reference the next live scrub verifies
    /// against (armed together with either memory-tier cadence).
    fn restamp(&mut self) {
        if self.res.local_interval > 0 || self.res.scrub_interval > 0 {
            self.stamp = Some(StateChecksum::stamp(self.img.u.raw(), NCOMP));
        }
    }
}

impl Recoverable for BlockLadder<'_> {
    fn step_no(&self) -> u64 {
        self.step_no
    }

    fn arm(&mut self, rank: &mut Rank, t: f64) -> Result<(), SolverError> {
        self.stack.arm(&mut self.img, rank, (t, self.step_no))?;
        if let Some(mon) = &mut self.img.s.health {
            mon.ensure_baseline(self.img.u);
        }
        // Arm the live-state ABFT stamp.
        self.restamp();
        if self.stamp.is_some() {
            // Materialize the undetected-corruption counter at zero: its
            // *presence* (and staying zero) is the acceptance signal the
            // committed bench baselines pin.
            count(self.img.s.metrics.as_deref(), "sdc.undetected", 0);
        }
        Ok(())
    }

    fn pre_step(&mut self, rank: &mut Rank, _t: f64) -> Result<bool, SolverError> {
        let (s, u, step_no) = (&mut *self.img.s, &mut *self.img.u, self.step_no);
        if let Some(inj) = &self.injector {
            // Rank-level crash injection: the victim stops participating
            // entirely (no farewell message — the survivors must detect
            // the silence, agree, and shrink without it).
            if inj.should_crash_at(rank.rank(), step_no, RankSite::Step) {
                rank.trace_instant("driver.rank_failed", step_no as f64);
                return Err(SolverError::RankFailed { step: step_no });
            }
            // Silent bit-flip injection (SDC): unlike poisoning below,
            // the flipped value generally stays finite and physical-
            // looking, so con2prim sails right through it — only the
            // ABFT stamp comparison can catch it.
            if let Some(sel) = inj.should_flip_bit() {
                let len = s.geom().interior_len();
                let pick = sel as usize % (NCOMP * len);
                let (i, j, k) = s.geom().nth_interior(pick % len);
                let c = pick / len;
                let bit = ((sel >> 33) % 64) as u32;
                let v = u.at(c, i, j, k);
                u.set(c, i, j, k, f64::from_bits(v.to_bits() ^ (1u64 << bit)));
                rank.trace_instant("driver.bitflip_injected", step_no as f64);
                count(s.metrics.as_deref(), "sdc.injected", 1);
            }
        }
        // Live-state scrub against the last committed stamp — every
        // step, so a flip can never survive into a checkpoint write
        // (every write this iteration happens after this check, and
        // nothing else mutates the state in between except the step
        // itself). The detecting rank still runs the step to keep the
        // collectives aligned, then escalates via the agreement.
        let corrupt = self.stamp.as_ref().filter(|st| !st.verify(u.raw()));
        let sdc_hit = corrupt.is_some();
        if let Some(st) = corrupt {
            self.stack.stats.sdc_detected += 1;
            let comp = st.corrupted_component(u.raw());
            rank.trace_instant(
                "driver.sdc_detected",
                comp.map(|c| c as f64).unwrap_or(-1.0),
            );
            count(s.metrics.as_deref(), "sdc.detected", 1);
        }
        // Frozen-buffer scrub on its own (slower) cadence: re-hash the
        // idle local snapshot and buddy replica, dropping any that
        // rotted so a restore never trusts them. Before the step, so
        // step 0 counts.
        self.stack.scrub(rank, step_no);
        // Deterministic state corruption, if the fault plan asks for it:
        // one interior conserved value becomes NaN, which the recovery
        // cascade must repair in-flight.
        if let Some(victim) = self.injector.as_ref().and_then(|i| i.should_poison_cell()) {
            let (i, j, k) = s
                .geom()
                .nth_interior(victim as usize % s.geom().interior_len());
            u.set(0, i, j, k, f64::NAN);
            rank.trace_instant("driver.poison_injected", step_no as f64);
        }
        Ok(sdc_hit)
    }

    /// The fused-scan Δt decision (at `cfl_scale`× the configured CFL)
    /// inside a full (never-deadlocking) step. A coasted Δt that overran
    /// this rank's local CFL bound is reported as
    /// [`SolverError::CflViolation`] so the collective agreement round
    /// rolls the step back and retries with a fresh allreduce — the Δt
    /// cache is invalidated here.
    fn try_step(
        &mut self,
        rank: &mut Rank,
        t: f64,
        t_end: f64,
        cfl_scale: f64,
    ) -> Result<f64, SolverError> {
        self.backup.raw_mut().copy_from_slice(self.img.u.raw());
        let s = &mut *self.img.s;
        let (cfl, v0) = (s.cfg.cfl, s.dt_cache.violations);
        let limit = Some((t, t_end));
        let size = StepSize::Cfl {
            cfl,
            scale: cfl_scale,
            limit,
        };
        let attempt = Stopwatch::start(rank);
        let outcome = s.run(rank, self.img.u, size, true).and_then(|dt| {
            if s.dt_cache.violations == v0 {
                return Ok(dt);
            }
            s.dt_cache.invalidate();
            let bound = s.patch.scan.dt(cfl);
            Err(SolverError::CflViolation { dt, bound })
        });
        straggle(rank, &attempt);
        outcome
    }

    fn rollback(&mut self) {
        // The backup is untouched by the failed attempt. The cached Δt
        // was computed from (or aged against) the discarded trajectory,
        // so it must not survive the rollback — every rank rolls back
        // together, so the invalidation stays in lockstep.
        self.img.u.raw_mut().copy_from_slice(self.backup.raw());
        self.img.s.dt_cache.invalidate();
    }

    fn commit(&mut self, rank: &mut Rank, t: f64, dt: f64) -> Result<(), SolverError> {
        self.step_no += 1;
        self.stats.steps += 1;
        self.stats.zone_updates +=
            (self.img.s.geom().interior_len() * self.img.s.cfg.rk.stages()) as u64;
        self.stack.commit(&mut self.img, rank, (t, self.step_no))?;
        self.restamp();
        self.img.s.health_observe(rank, self.img.u, t, self.step_no);
        // Commits are collective (the outcome flag is agreed), so the
        // sampling cadence stays in lockstep across ranks even through
        // retries and restores.
        self.img.s.telemetry_observe(rank, t, self.step_no, dt);
        Ok(())
    }

    fn restore(&mut self, rank: &mut Rank, cause: RestoreCause) -> Result<f64, SolverError> {
        let s = self.img.s.pstart(rank);
        let (t, step) = self.stack.restore(&mut self.img, rank)?;
        self.step_no = step;
        self.restamp();
        // The state just jumped back in time: a Δt cached on the
        // abandoned trajectory is stale.
        self.img.s.dt_cache.invalidate();
        let span = match cause {
            RestoreCause::Sdc => "driver.sdc_restore",
            RestoreCause::RetriesExhausted => "driver.restart_restore",
        };
        self.img.s.pend(span, rank, s);
        Ok(t)
    }

    fn shrink(&mut self, rank: &mut Rank) -> Result<f64, SolverError> {
        let s = self.img.s.pstart(rank);
        let (t, step) = self.stack.shrink(&mut self.img, rank)?;
        self.img.s.pend("driver.shrink_restore", rank, s);
        self.step_no = step;
        // The local domain just changed: old conservation baselines are
        // meaningless.
        if let Some(mon) = &mut self.img.s.health {
            mon.rebaseline();
            mon.ensure_baseline(self.img.u);
        }
        self.backup = Field::cons(*self.img.s.geom());
        self.restamp();
        Ok(t)
    }

    fn stats(&mut self) -> &mut ResilienceStats {
        &mut self.stack.stats
    }

    fn metrics(&self) -> Option<&Registry> {
        self.img.s.metrics.as_deref()
    }
}

/// Map a communication-layer liveness error into the solver's error
/// space: silence becomes a suspicion (consensus decides), corruption a
/// retryable step failure, and eviction a terminal rank failure. Shared
/// with the distributed AMR driver ([`crate::amr_dist`]).
pub(crate) fn comm_err(e: CommError) -> SolverError {
    match e {
        CommError::PeerSuspect { rank, .. } => SolverError::PeerSuspect { rank },
        CommError::CorruptPayload { from, .. } => SolverError::HaloCorrupt { from },
        CommError::Evicted { .. } => SolverError::RankFailed { step: 0 },
    }
}

/// Block rank of the neighbor behind face (`d`, `side`) of `block`, or
/// `None` when the face is a physical boundary or wraps onto the block
/// itself.
fn face_neighbor(cfg: &DistConfig, block: usize, d: usize, side: usize) -> Option<usize> {
    if cfg.decomp.dims[d] == 1 {
        return None;
    }
    cfg.decomp
        .neighbor(block, d, side)
        .filter(|&nb| nb != block)
}

/// The residual sweep regions of `block` (see [`BlockSolver::tiles`]).
/// The deep core retreats only from dimensions that wait on a message:
/// local faces are filled before the deep sweep, so on a 2×1×1 split
/// every y/z pencil stays whole.
fn sweep_tiles(cfg: &DistConfig, geom: &PatchGeom, block: usize) -> Vec<Region> {
    if cfg.mode == ExchangeMode::BulkSynchronous {
        return vec![Region::interior(geom)];
    }
    let waits = [0, 1, 2].map(|d| (0..2).any(|side| face_neighbor(cfg, block, d, side).is_some()));
    let (deep, shells) = Region::split_deep_shell(geom, cfg.scheme.required_ghosts(), waits);
    std::iter::once(deep).chain(shells).collect()
}

/// The interior of `geom` as a ghost-inclusive box `[lo, hi)`.
fn interior_box(geom: &PatchGeom) -> ([usize; 3], [usize; 3]) {
    let lo = [0, 1, 2].map(|d| geom.ng_of(d));
    (lo, [0, 1, 2].map(|d| lo[d] + geom.n[d]))
}

/// The `ng` layers beside face (`d`, `side`) over the transverse interior
/// (corners are never exchanged): the ghost layers a halo lands in, or
/// the owner's interior layers a halo is packed from.
fn face_box(geom: &PatchGeom, d: usize, side: usize, ghost: bool) -> ([usize; 3], [usize; 3]) {
    let (mut lo, mut hi) = interior_box(geom);
    let (ng, n) = (geom.ng_of(d), geom.n[d]);
    lo[d] = match (side, ghost) {
        (0, true) => 0,
        (0, false) => ng,
        (_, true) => ng + n,
        (_, false) => n,
    };
    hi[d] = lo[d] + ng;
    (lo, hi)
}

/// `Ok` when a payload of `got` values has the `expected` length, else
/// [`SolverError::HaloMismatch`].
fn check_len(expected: usize, got: usize) -> Result<(), SolverError> {
    let mismatch = SolverError::HaloMismatch { expected, got };
    (got == expected).then_some(()).ok_or(mismatch)
}

/// Flatten a block's interior, component-major in `interior_iter` order
/// (matches [`BlockRecord`]'s layout).
fn pack_interior(u: &Field) -> Vec<f64> {
    let (lo, hi) = interior_box(u.geom());
    let mut buf = Vec::new();
    u.gather_box(lo, hi, &mut buf);
    buf
}

/// Inverse of [`pack_interior`], into a fresh field (ghosts zeroed).
fn unpack_interior(geom: PatchGeom, data: &[f64]) -> Field {
    let mut u = Field::cons(geom);
    let (lo, hi) = interior_box(&geom);
    u.scatter_box(lo, hi, data);
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::PatchSolver;
    use rhrsc_comm::{run, NetworkModel};
    use rhrsc_grid::{bc, Bc};
    use rhrsc_runtime::metrics::Registry;

    fn sod_cfg(nranks: usize, mode: ExchangeMode) -> DistConfig {
        DistConfig {
            scheme: Scheme::default_with_gamma(5.0 / 3.0),
            rk: RkOrder::Rk3,
            global_n: [128, 1, 1],
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            decomp: CartDecomp::line(nranks, false),
            bcs: bc::uniform(Bc::Outflow),
            cfl: 0.4,
            mode,
            gang_threads: 0,
            dt_refresh_interval: 1,
        }
    }

    /// Serial reference: the same problem on one patch with PatchSolver.
    fn serial_reference(cfg: &DistConfig, ic: &dyn Fn([f64; 3]) -> Prim, t_end: f64) -> Field {
        let geom = PatchGeom {
            n: cfg.global_n,
            ng: cfg.scheme.required_ghosts(),
            origin: cfg.domain.0,
            dx: cfg.local_geom(0).dx,
        };
        let mut u = init_cons(geom, &cfg.scheme.eos, ic);
        let mut solver = PatchSolver::new(cfg.scheme, cfg.bcs, cfg.rk, geom);
        solver
            .advance_to(&mut u, 0.0, t_end, cfg.cfl, None)
            .unwrap();
        u
    }

    fn distributed_global(
        cfg: &DistConfig,
        ic: impl Fn([f64; 3]) -> Prim + Send + Sync + Copy,
        t_end: f64,
    ) -> Field {
        let outs = run(cfg.decomp.nranks(), NetworkModel::ideal(), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.advance_to(rank, &mut u, 0.0, t_end).unwrap();
            solver.gather_interior(rank, &u).unwrap()
        });
        outs.into_iter().next().unwrap().unwrap()
    }

    /// The Sod shock tube across `x = 0.5`.
    fn sod(x: [f64; 3]) -> Prim {
        if x[0] < 0.5 {
            Prim::new_1d(1.0, 0.0, 1.0)
        } else {
            Prim::new_1d(0.125, 0.0, 0.1)
        }
    }

    /// Mean absolute difference, over every component of every cell,
    /// between a gathered (ghost-free) field and the interior of a
    /// ghosted reference; every gathered value must be finite.
    fn l1_of(global: &Field, reference: &Field) -> f64 {
        let want = pack_interior(reference);
        assert!(global.raw().iter().all(|a| a.is_finite()));
        let diff = |(a, b): (&f64, &f64)| (a - b).abs();
        global.raw().iter().zip(&want).map(diff).sum::<f64>() / want.len() as f64
    }

    fn interior_of(global_like: &Field, reference: &Field) -> f64 {
        // Max abs difference between a gathered (ghost-free) field and the
        // interior of a ghosted reference.
        let diff = |(a, b): (&f64, &f64)| (a - b).abs();
        let interior = pack_interior(reference);
        (global_like.raw().iter().zip(&interior).map(diff)).fold(0.0, f64::max)
    }

    /// A radial grid's geometric sources are added once per cell, after
    /// the x sweep, in both modes: the overlap's regrouped interior sweep
    /// (no axis after x in 1D) adds none of its own.
    #[test]
    fn radial_blocks_add_the_geometric_sources_once() {
        for mode in [ExchangeMode::BulkSynchronous, ExchangeMode::Overlap] {
            let mut cfg = sod_cfg(2, mode);
            cfg.scheme.geometry = crate::scheme::Geometry::SphericalRadial;
            cfg.domain = ([0.5, 0.0, 0.0], [1.5, 1.0, 1.0]);
            let ic = |x: [f64; 3]| sod([x[0] - 0.5, 0.0, 0.0]);
            let reference = serial_reference(&cfg, &ic, 0.05);
            let global = distributed_global(&cfg, ic, 0.05);
            assert_eq!(interior_of(&global, &reference), 0.0, "{mode:?}");
        }
    }

    /// Under overlap the first axis is stored over the deep tile and the
    /// shells: a block whose `rhs` is NaN before every step steps as its
    /// twin does, bit for bit, split along x or along y.
    #[test]
    fn overlapped_blocks_store_every_residual_cell() {
        let ic = |x: [f64; 3]| Prim {
            rho: 1.0 + 0.3 * (6.0 * x[0]).sin() * (4.0 * x[1]).cos(),
            vel: [0.3, -0.2, 0.0],
            p: 1.0,
        };
        for dims in [[2, 1, 1], [1, 2, 1]] {
            let cfg = DistConfig {
                global_n: [20, 16, 1],
                decomp: CartDecomp {
                    dims,
                    periodic: [true; 3],
                },
                bcs: bc::uniform(Bc::Periodic),
                ..sod_cfg(2, ExchangeMode::Overlap)
            };
            let states = |poison: bool| {
                run(2, NetworkModel::ideal(), |rank| {
                    let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                    for _ in 0..3 {
                        if poison {
                            solver.patch.rhs.raw_mut().fill(f64::NAN);
                        }
                        solver.step(rank, &mut u, 2e-3).unwrap();
                    }
                    u.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                })
            };
            assert_eq!(states(true), states(false), "{dims:?}");
        }
    }

    #[test]
    fn overlap_with_latency_still_correct() {
        let cfg = sod_cfg(4, ExchangeMode::Overlap);
        let ic = sod;
        let reference = serial_reference(&cfg, &ic, 0.05);
        let outs = run(
            4,
            NetworkModel::virtual_cluster(Duration::from_micros(200), f64::INFINITY),
            |rank| {
                let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                solver.advance_to(rank, &mut u, 0.0, 0.05).unwrap();
                solver.gather_interior(rank, &u).unwrap()
            },
        );
        let global = outs.into_iter().next().unwrap().unwrap();
        assert_eq!(interior_of(&global, &reference), 0.0);
    }

    #[test]
    fn virtual_time_mode_identical_results_and_decreasing_makespan() {
        // Virtual-time universes must not change the numbers, and the
        // simulated makespan must shrink as ranks are added (strong
        // scaling shape, even on a host with fewer cores than ranks).
        let ic = |x: [f64; 3]| Prim {
            rho: 1.0 + 0.4 * (2.0 * std::f64::consts::PI * x[0]).sin(),
            vel: [0.4, 0.0, 0.0],
            p: 1.0,
        };
        let make_cfg = |p: usize| DistConfig {
            scheme: Scheme::default_with_gamma(5.0 / 3.0),
            rk: RkOrder::Rk2,
            global_n: [256, 1, 1],
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            decomp: CartDecomp::line(p, true),
            bcs: bc::uniform(Bc::Periodic),
            cfl: 0.4,
            mode: ExchangeMode::BulkSynchronous,
            gang_threads: 0,
            dt_refresh_interval: 1,
        };
        let model = NetworkModel::virtual_cluster(Duration::from_micros(1), 10e9);
        // The virtual clock scales measured host wall time, so each side's
        // makespan is the least of three universes: one whose threads
        // shared the host with other tests does not decide the ratio.
        let mut makespans = [f64::INFINITY; 2];
        let mut reference = None;
        for _ in 0..3 {
            for (side, p) in [1usize, 4].into_iter().enumerate() {
                let cfg = make_cfg(p);
                let outs = run(p, model, |rank| {
                    let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                    let st = solver.advance_to(rank, &mut u, 0.0, 0.05).unwrap();
                    (st, solver.gather_interior(rank, &u).unwrap())
                });
                let makespan = outs.iter().map(|(st, _)| st.vtime).fold(0.0, f64::max);
                makespans[side] = makespans[side].min(makespan);
                let field = outs.into_iter().next().unwrap().1.unwrap();
                let reference = reference.get_or_insert_with(|| field.clone());
                assert_eq!(
                    field.raw(),
                    reference.raw(),
                    "virtual time must not change results"
                );
            }
        }
        assert!(
            makespans[1] < 0.7 * makespans[0],
            "4-rank virtual makespan {} vs 1-rank {}",
            makespans[1],
            makespans[0]
        );
    }

    #[test]
    fn resilient_advance_without_faults_is_bit_identical() {
        // With no fault injection the resilient loop reproduces the plain
        // advance exactly (the exchange matrix's resilient row). Arming
        // the disk tier, the flight recorder and the physics-health
        // monitor must not change a single bit either: all
        // instrumentation is read-only over the state.
        let cfg = sod_cfg(2, ExchangeMode::Overlap);
        let ic = sod;
        let plain = distributed_global(&cfg, ic, 0.1);
        let dir = std::env::temp_dir().join("rhrsc-resilient-bitident");
        let _ = std::fs::remove_dir_all(&dir);
        let res_traced = ResilienceConfig {
            checkpoint_dir: Some(dir.join("traced")),
            checkpoint_interval: 7,
            ..ResilienceConfig::default()
        };
        let tracer = Arc::new(rhrsc_runtime::trace::Tracer::new(1024));
        let outs = run(2, NetworkModel::ideal(), |rank| {
            rank.set_trace(tracer.clone());
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.set_health(crate::health::HealthConfig::default());
            let (_, rstats) = solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res_traced)
                .unwrap();
            assert!(rstats.checkpoints_saved > 0);
            solver.gather_interior(rank, &u).unwrap()
        });
        let traced = outs.into_iter().next().unwrap().unwrap();
        assert_eq!(
            traced.raw(),
            plain.raw(),
            "tracing + health instrumentation must be bit-invisible"
        );
        // And the recorder actually captured the run.
        let json = tracer.to_chrome_json();
        assert!(json.contains("phase.") && json.contains("health.drift"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_halos_trigger_cfl_backoff_retries() {
        use rhrsc_comm::{run_with_faults, FaultPlan};
        let cfg = sod_cfg(2, ExchangeMode::Overlap);
        let ic = sod;
        let dir = std::env::temp_dir().join("rhrsc-resilient-retry");
        let _ = std::fs::remove_dir_all(&dir);
        let res = ResilienceConfig {
            max_step_retries: 6,
            max_restarts: 10,
            checkpoint_interval: 5,
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let plan = FaultPlan {
            seed: 7,
            msg_truncate_prob: 0.05,
            ..FaultPlan::disabled()
        };
        let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
                .unwrap()
        });
        let retries: u64 = outs.iter().map(|(_, r)| r.retries).sum();
        assert!(retries > 0, "expected at least one step retry under faults");
        // The decision is collective: every rank retried the same steps.
        assert_eq!(outs[0].1.retries, outs[1].1.retries);
        assert_eq!(outs[0].1.retried_steps, outs[1].1.retried_steps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retries_escalate_to_checkpoint_restart() {
        use rhrsc_comm::{run_with_faults, FaultPlan};
        let cfg = sod_cfg(2, ExchangeMode::Overlap);
        let ic = sod;
        let dir = std::env::temp_dir().join("rhrsc-resilient-restart");
        let _ = std::fs::remove_dir_all(&dir);
        // No step retries allowed: any failed step must restore from the
        // rotating checkpoint slots.
        let res = ResilienceConfig {
            max_step_retries: 0,
            max_restarts: 200,
            checkpoint_interval: 3,
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let plan = FaultPlan {
            seed: 11,
            msg_truncate_prob: 0.02,
            ..FaultPlan::disabled()
        };
        let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
                .unwrap()
        });
        assert!(
            outs.iter().all(|(_, r)| r.restarts > 0),
            "expected at least one checkpoint restore, got {:?}",
            outs.iter().map(|(_, r)| r.restarts).collect::<Vec<_>>()
        );
        assert_eq!(outs[0].1.restarts, outs[1].1.restarts);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_cells_are_repaired_by_the_cascade() {
        use rhrsc_comm::{run_with_faults, FaultPlan};
        let cfg = sod_cfg(2, ExchangeMode::Overlap);
        let ic = sod;
        let res = ResilienceConfig::default(); // no checkpointing needed
        let plan = FaultPlan {
            seed: 3,
            cell_poison_prob: 0.25,
            ..FaultPlan::disabled()
        };
        let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            let out = solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
                .unwrap();
            // The final state must be fully healthy again.
            assert!(u.raw().iter().all(|v| v.is_finite()));
            out
        });
        let repaired: u64 = outs.iter().map(|(_, r)| r.recovery.total()).sum();
        assert!(
            repaired > 0,
            "expected the cascade to repair poisoned cells"
        );
    }

    #[test]
    fn cascade_repair_is_made_once_by_the_owner_and_shipped() {
        // Block 0's last interior cell — the layer block 1 mirrors in its
        // low-x ghosts — is poisoned. Its owner repairs it before the
        // primitives ship, so the receiver's ghost is bitwise the owner's
        // repaired interior cell, and exactly one repair is counted: the
        // receiver never sees the poisoned state, let alone repairs it a
        // second time from a different neighborhood.
        for mode in [ExchangeMode::BulkSynchronous, ExchangeMode::Overlap] {
            let cfg = sod_cfg(2, mode);
            let ic = |x: [f64; 3]| Prim::new_1d(1.0 + 0.3 * (9.0 * x[0]).sin(), 0.2, 1.0);
            let outs = run(2, NetworkModel::ideal(), |rank| {
                let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                let g = *solver.geom();
                let (ng, n) = (g.ng_of(0), g.n[0]);
                if rank.rank() == 0 {
                    u.set(0, ng + n - 1, 0, 0, f64::NAN);
                }
                solver
                    .with_halo(rank, true, |patch, halo, _| {
                        patch.eval_rhs(halo, &mut u, false, None)
                    })
                    .unwrap();
                // Owner: its last interior layers; receiver: its low ghosts.
                let at = if rank.rank() == 0 { n } else { 0 };
                let layers: Vec<[u64; 5]> = (at..at + ng)
                    .map(|i| [0, 1, 2, 3, 4].map(|c| solver.patch.prim.at(c, i, 0, 0).to_bits()))
                    .collect();
                (layers, solver.rec_stats, u.at(0, ng + n - 1, 0, 0))
            });
            let (owner, receiver) = (&outs[0], &outs[1]);
            assert_eq!(receiver.0, owner.0, "{mode:?}: ghost = owner's repair");
            let repaired = owner.0.last().unwrap().map(f64::from_bits);
            assert!(repaired.iter().all(|v| v.is_finite()), "{mode:?}");
            assert!(
                owner.2.is_finite(),
                "{mode:?}: the owner's `u` was repaired"
            );
            assert_eq!(owner.1.total(), 1, "{mode:?}: one repair, by the owner");
            assert_eq!(owner.1.neighbor_avg, 1, "{mode:?}");
            assert_eq!(receiver.1.total(), 0, "{mode:?}: none by the receiver");
        }
    }

    #[test]
    fn metrics_capture_phases_without_changing_results() {
        let cfg = sod_cfg(2, ExchangeMode::Overlap);
        let ic = sod;
        let plain = distributed_global(&cfg, ic, 0.05);
        let reg = Arc::new(Registry::new());
        let outs = {
            let (reg, cfg) = (reg.clone(), &cfg);
            // 20 ms modeled latency: virtual-time waits cost no wall
            // clock, and `work()` charges *measured* compute to vtime, so
            // the latency must dominate even a descheduled compute
            // section for the halo-wait assertion to be load-robust.
            run(
                2,
                NetworkModel::virtual_cluster(Duration::from_millis(20), 1e9),
                move |rank| {
                    rank.set_metrics(reg.clone());
                    let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                    solver.set_metrics(reg.clone());
                    solver.advance_to(rank, &mut u, 0.0, 0.05).unwrap();
                    solver.gather_interior(rank, &u).unwrap()
                },
            )
        };
        let global = outs.into_iter().next().unwrap().unwrap();
        assert_eq!(
            global.raw(),
            plain.raw(),
            "instrumentation must not change the numbers"
        );
        let snap = reg.snapshot();
        // `phase.dt.local` is gone by design: the local CFL bound now
        // falls out of the fused stage-0 wave-speed scan.
        for phase in [
            "phase.dt.allreduce",
            "phase.halo.pack",
            "phase.halo.send",
            "phase.halo.wait",
            "phase.halo.unpack",
            "phase.rhs.deep",
            "phase.rhs.shell",
            "phase.rk.combine",
        ] {
            let h = snap
                .histograms
                .get(phase)
                .unwrap_or_else(|| panic!("missing {phase}: have {:?}", snap.histograms.keys()));
            assert!(h.count > 0, "{phase} never recorded");
        }
        // The 20 ms-latency halo waits dominate the tiny per-rank compute.
        assert!(snap.phase_secs("phase.halo.wait") > 0.0);
        let iters = &snap.histograms["c2p.newton_iters"];
        assert!(iters.count > 0 && iters.sum > 0, "con2prim work uncounted");
        assert!(snap.counters["comm.msgs.halo"] > 0);
    }

    #[test]
    fn rank_crash_triggers_shrinking_recovery() {
        use rhrsc_comm::{run_with_faults, FaultPlan};
        // Rank 0 dies at step 4. Killing rank 0 (not the last rank)
        // exercises the block→communicator translation: after the shrink
        // the survivors' block ranks 0..2 map onto communicator ranks
        // 1..3.
        let cfg = sod_cfg(3, ExchangeMode::BulkSynchronous);
        let ic = sod;
        let dir = std::env::temp_dir().join("rhrsc-shrink-test");
        let _ = std::fs::remove_dir_all(&dir);
        let res = ResilienceConfig {
            checkpoint_interval: 2,
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let plan = FaultPlan {
            seed: 5,
            crash_rank: Some(0),
            crash_step: 4,
            ..FaultPlan::disabled()
        };
        let model = NetworkModel::ideal();
        let reference = serial_reference(&cfg, &ic, 0.1);
        let outs = run_with_faults(3, model, Some(plan), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            match solver.advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res) {
                Ok((_, rstats)) => {
                    let g = solver.gather_interior(rank, &u).unwrap();
                    Some((rstats, g))
                }
                Err(SolverError::RankFailed { .. }) => None,
                Err(e) => panic!("rank {}: unexpected error {e}", rank.rank()),
            }
        });
        assert!(outs[0].is_none(), "the victim must report RankFailed");
        let survivors: Vec<_> = outs.iter().flatten().collect();
        assert_eq!(survivors.len(), 2, "both survivors must finish");
        for (rstats, _) in &survivors {
            assert_eq!(rstats.shrinks, 1, "{rstats:?}");
            assert_eq!(rstats.ranks_lost, 1);
        }
        // The degraded run restarts from a checkpoint with a reduced CFL,
        // so the Δt sequence differs from the reference — compare in L1,
        // not bitwise.
        let global = survivors
            .iter()
            .find_map(|(_, g)| g.clone())
            .expect("the new block rank 0 must gather");
        let l1 = l1_of(&global, &reference);
        assert!(l1 < 0.02, "L1 drift after shrink too large: {l1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dt_cadence_coasts_and_guard_forces_early_refresh() {
        // White-box walk of the cadenced-Δt state machine: refresh →
        // AIMD window growth → coast at 0.9× → violation detection when
        // the cache goes stale → window collapse at the next refresh.
        let mut cfg = sod_cfg(1, ExchangeMode::BulkSynchronous);
        cfg.dt_refresh_interval = 8;
        // A low-amplitude smooth wave: the CFL bound drifts ≪ 10% per
        // step, so the 0.9× coast margin absorbs it and only the
        // deliberately poisoned cache below may trip the guard. (On a
        // developing shock the bound can legitimately shrink past the
        // margin in one step — that's the guard's job, not this test's.)
        let ic = |x: [f64; 3]| Prim {
            rho: 1.0 + 0.01 * (2.0 * std::f64::consts::PI * x[0]).sin(),
            vel: [0.1, 0.0, 0.0],
            p: 1.0,
        };
        let reg = Arc::new(Registry::new());
        let outs = {
            let (reg, cfg) = (reg.clone(), &cfg);
            run(1, NetworkModel::ideal(), move |rank| {
                let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                solver.set_metrics(reg.clone());
                let free = StepSize::Cfl {
                    cfl: cfg.cfl,
                    scale: 1.0,
                    limit: None,
                };

                // Step 1: the cache starts invalid, so this refreshes and
                // the clean window doubles (1 → 2).
                let dt0 = solver.run(rank, &mut u, free, false).unwrap();
                assert!(solver.dt_cache.valid);
                assert_eq!((solver.dt_cache.age, solver.dt_cache.window), (1, 2));
                assert_eq!(dt0.to_bits(), solver.dt_cache.dt.to_bits());

                // Step 2: coasts on 0.9× the cached value; the safety
                // margin keeps the smooth evolution inside the bound.
                let dt1 = solver.run(rank, &mut u, free, false).unwrap();
                assert_eq!(dt1.to_bits(), (0.9 * solver.dt_cache.dt).to_bits());
                assert_eq!(solver.dt_cache.age, 2);
                assert_eq!(solver.dt_cache.violations, 0);

                // Poison the cache: a stale 2× Δt mid-window, as a
                // recovery path that forgot to invalidate would leave
                // behind. The coasted 0.9 × 2 × Δt overruns the freshly
                // scanned local bound and must trip the guard (the step
                // itself still runs — effective CFL 0.72 is SSP-RK3
                // stable — and Δt must not be adjusted locally).
                let stale = 2.0 * solver.dt_cache.dt;
                solver.dt_cache.dt = stale;
                solver.dt_cache.age = 1;
                solver.dt_cache.window = 8;
                let dt2 = solver.run(rank, &mut u, free, false).unwrap();
                assert_eq!(dt2.to_bits(), (0.9 * stale).to_bits());
                assert_eq!(solver.dt_cache.violations, 1, "stale coast not detected");

                // Force the window to elapse: the next refresh reports
                // the violation on the piggybacked allreduce component
                // and collapses the window to every-step refreshes.
                solver.dt_cache.age = solver.dt_cache.window;
                solver.run(rank, &mut u, free, false).unwrap();
                assert_eq!(solver.dt_cache.window, 1, "violation must collapse window");
                assert_eq!(solver.dt_cache.violations, 0);
                assert!(u.raw().iter().all(|v| v.is_finite()));
            })
        };
        drop(outs);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters.get("dt.cadence.violation").copied(),
            Some(1),
            "violation counter must record exactly the poisoned coast"
        );
        // 4 steps, but only 2 allreduces (steps 1 and 4): coasting
        // actually skipped the collective.
        assert_eq!(snap.histograms["phase.dt.allreduce"].count, 2);
    }

    #[test]
    fn rank_crash_mid_cadence_window_recovers_with_fresh_dt() {
        use rhrsc_comm::{run_with_faults, FaultPlan};
        // Regression for the stale-Δt-cache bug: rank 0 dies *inside* a
        // coast window (`dt_refresh_interval > 1`), so at the moment of
        // the crash every survivor holds a cached Δt that was allreduced
        // with the dead rank over pre-rollback state. The shrink path
        // must invalidate that cache when it restores the checkpoint —
        // before the fix the survivors coasted on it and diverged.
        let mut cfg = sod_cfg(3, ExchangeMode::BulkSynchronous);
        cfg.dt_refresh_interval = 5;
        let ic = sod;
        let dir = std::env::temp_dir().join("rhrsc-shrink-cadence-test");
        let _ = std::fs::remove_dir_all(&dir);
        let res = ResilienceConfig {
            checkpoint_interval: 2,
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let plan = FaultPlan {
            seed: 5,
            crash_rank: Some(0),
            crash_step: 4,
            ..FaultPlan::disabled()
        };
        let model = NetworkModel::ideal();
        let reference = serial_reference(&cfg, &ic, 0.1);
        let outs = run_with_faults(3, model, Some(plan), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            match solver.advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res) {
                Ok((_, rstats)) => {
                    // The restored run must never trip the coast guard:
                    // a tripped guard means a stale cached Δt survived
                    // the restore.
                    assert_eq!(
                        solver.dt_cache.violations,
                        0,
                        "rank {}: stale Δt cache coasted past the bound after recovery",
                        rank.rank()
                    );
                    let g = solver.gather_interior(rank, &u).unwrap();
                    Some((rstats, g))
                }
                Err(SolverError::RankFailed { .. }) => None,
                Err(e) => panic!("rank {}: unexpected error {e}", rank.rank()),
            }
        });
        assert!(outs[0].is_none(), "the victim must report RankFailed");
        let survivors: Vec<_> = outs.iter().flatten().collect();
        assert_eq!(survivors.len(), 2, "both survivors must finish");
        for (rstats, _) in &survivors {
            assert_eq!(rstats.shrinks, 1, "{rstats:?}");
            assert_eq!(rstats.ranks_lost, 1);
        }
        let global = survivors
            .iter()
            .find_map(|(_, g)| g.clone())
            .expect("the new block rank 0 must gather");
        let l1 = l1_of(&global, &reference);
        assert!(l1 < 0.02, "L1 drift after cadenced shrink too large: {l1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn straggler_rank_is_tolerated_without_eviction() {
        use rhrsc_comm::{run_with_faults, FaultPlan};
        // A 3× straggler is far inside the default 2 s liveness deadline:
        // the run must complete with zero suspicions or shrinks, and the
        // extra latency must not change a single bit of the solution.
        let cfg = sod_cfg(2, ExchangeMode::Overlap);
        let ic = sod;
        let plain = distributed_global(&cfg, ic, 0.05);
        let plan = FaultPlan {
            seed: 9,
            stall_rank: Some(1),
            stall_factor: 3.0,
            ..FaultPlan::disabled()
        };
        let res = ResilienceConfig::default();
        let outs = run_with_faults(2, NetworkModel::ideal(), Some(plan), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            let (_, rstats) = solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.05, &res)
                .unwrap();
            let stalls = rank.fault_stats().unwrap().stall_events;
            (rstats, solver.gather_interior(rank, &u).unwrap(), stalls)
        });
        assert!(outs[1].2 > 0, "the straggler must have been stalled");
        for (rstats, _, _) in &outs {
            assert_eq!(rstats.shrinks, 0);
            assert_eq!(rstats.false_suspicions, 0);
            assert_eq!(rstats.retries, 0);
        }
        let global = outs.into_iter().next().unwrap().1.unwrap();
        assert_eq!(
            global.raw(),
            plain.raw(),
            "a tolerated straggler must not change the numbers"
        );
    }

    #[test]
    fn stats_populated() {
        let cfg = sod_cfg(2, ExchangeMode::BulkSynchronous);
        let ic = sod;
        let outs = run(2, NetworkModel::ideal(), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.advance_to(rank, &mut u, 0.0, 0.05).unwrap()
        });
        for st in &outs {
            assert!(st.steps > 0);
            assert!(st.bytes_sent > 0, "halos must move bytes");
            assert!(st.zone_updates > 0);
        }
    }
}
