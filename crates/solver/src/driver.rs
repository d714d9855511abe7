//! Distributed heterogeneous driver.
//!
//! Each rank owns one block of a Cartesian decomposition of the global
//! grid. A step comprises a Δt allreduce, per-stage halo exchanges and
//! residual evaluation. A cell's primitives are computed by its owner,
//! once per stage: every stage recovers the block interior, ships the
//! *primitive* face layers, and fills the faces no message serves
//! (physical boundaries, periodic self-wrap) from its own primitives —
//! a ghost is a copy of a cell somebody has just recovered, and the
//! recovery of a copy is the copy of the recovery. The two modes differ
//! in what happens while the messages fly:
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
//! rung; this module supplies the mechanics: the rollback copy, the
//! memory tiers ([`MemoryTiers`], a single-block v3 image per rank plus a
//! buddy replica) and one disk tier — the rank-count-independent global
//! checkpoint in `<checkpoint_dir>/global/`, which serves a restore on the
//! current decomposition and a shrink onto a re-cut one alike.

use crate::health::{HealthConfig, HealthMonitor};
use crate::integrate::{lincomb, RkOrder};
use crate::ladder::{resilient_advance, straggle, Recoverable, RestoreCause, Stopwatch};
pub use crate::ladder::{ResilienceConfig, ResilienceStats};
use crate::refine::rk_tables;
use crate::scheme::{
    init_cons, max_dt, recover_region, recover_region_resilient, RecoveryStats, Scheme,
    SolverError, WaveScan,
};
use crate::step::{accumulate_rhs_region_scan, Region};
use crate::tiers::{ck_err, load_newest_agreed, MemoryTiers};
use rhrsc_comm::{CommError, FaultInjector, Rank, TELEMETRY_TAG};
use rhrsc_grid::{fill_face, BcSet, CartDecomp, Field, PatchGeom};
use rhrsc_io::checkpoint::{
    decode_trusted, encode, BlockRecord, CheckpointSlots, GlobalCheckpoint,
};
use rhrsc_io::snapshot::StateChecksum;
use rhrsc_runtime::fault::RankSite;
use rhrsc_runtime::metrics::{Histogram, Registry};
use rhrsc_runtime::telemetry::{SampleInputs, SeriesSample, Telemetry, TelemetrySampler};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_srhd::{Prim, NCOMP};
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
            origin: [
                lo[0] + off[0] as f64 * dx[0],
                lo[1] + off[1] as f64 * dx[1],
                lo[2] + off[2] as f64 * dx[2],
            ],
            dx,
        }
    }

    fn cell_size(&self) -> [f64; 3] {
        let (lo, hi) = self.domain;
        [
            (hi[0] - lo[0]) / self.global_n[0] as f64,
            (hi[1] - lo[1]) / self.global_n[1] as f64,
            (hi[2] - lo[2]) / self.global_n[2] as f64,
        ]
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
        let expected = NCOMP * size[0] * size[1] * size[2];
        if data.len() != expected {
            return Err(SolverError::HaloMismatch {
                expected,
                got: data.len(),
            });
        }
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
    /// Virtual time elapsed on this rank (virtual-time universes only;
    /// the run's simulated makespan is the max over ranks).
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
    geom: PatchGeom,
    my_rank: usize,
    /// Block-rank → communicator-rank translation (identity until a
    /// shrinking recovery remaps the survivors).
    comm_ranks: Vec<usize>,
    /// Primitives of the interior (recovered here) and of the face
    /// ghosts (copied from their owners). The ghosts of the conserved
    /// state are never written or read by the stage loop.
    prim: Field,
    rhs: Field,
    u_stage: Field,
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
    /// Running maximum of the CFL rate from the fused wave-speed scan of
    /// the most recent stage-0 residual sweep.
    scan: WaveScan,
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
    /// Wall/virtual clock at the previous sample, for per-window
    /// `elapsed_s`.
    last_clock: Option<(Instant, f64)>,
    /// Wall-clock epoch for trace-correlated timestamps when no flight
    /// recorder is attached.
    epoch: Instant,
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

/// Start marker of an instrumented phase. `None` when neither a registry
/// nor a tracer is attached, so the disabled path costs one `Option`
/// check per phase.
type PhaseStart = Option<Stopwatch>;

/// How a step gets its Δt.
#[derive(Clone, Copy)]
enum StepSize {
    /// The caller's Δt.
    Fixed(f64),
    /// `scale` × the global Δt decided from the stage-0 wave-speed scan,
    /// clamped so that `t + dt` does not pass `limit = (t, t_end)`.
    Scanned {
        limit: Option<(f64, f64)>,
        scale: f64,
    },
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
                cfg,
                geom,
                my_rank: rank,
                prim: Field::new(geom, 5),
                rhs: Field::cons(geom),
                u_stage: Field::cons(geom),
                gang,
                rec_stats: RecoveryStats::default(),
                metrics: None,
                c2p_hist: None,
                health: None,
                scan: WaveScan::new(),
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
    /// virtual-clock deltas in virtual-time universes (where a rank's
    /// wall clock also runs while it waits for a message, or for the CPU
    /// token of a universe with more ranks than cores) and wall-clock time
    /// otherwise. Instrumentation never changes the numbers: the counted
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
            epoch: Instant::now(),
        });
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref().map(|t| &t.hub)
    }

    fn pstart(&self, rank: &Rank) -> PhaseStart {
        (self.metrics.is_some() || rank.has_trace()).then(|| Stopwatch::start(rank))
    }

    fn pend(&self, name: &'static str, rank: &Rank, s: PhaseStart) {
        if let Some(s) = s {
            self.record_span(name, rank, s.ns(rank));
        }
    }

    fn record_span(&self, name: &'static str, rank: &Rank, ns: u64) {
        if let Some(m) = &self.metrics {
            m.histogram(name).record(ns);
        }
        rank.trace_span(name, ns);
    }

    /// Add `n` to counter `name` when a registry is attached.
    fn count(&self, name: &str, n: u64) {
        if let Some(m) = &self.metrics {
            m.counter(name).add(n);
        }
    }

    /// Take a health observation if a monitor is attached and `step_no`
    /// is on its cadence. Emits the record as trace counters and bumps
    /// `health.*` metrics counters.
    fn health_observe(&mut self, rank: &Rank, u: &Field, t: f64, step_no: u64) {
        let due = match &self.health {
            Some(mon) => mon.due(step_no),
            None => return,
        };
        if !due {
            return;
        }
        let rho_floor = self.cfg.scheme.c2p.rho_floor;
        let rec = self.rec_stats;
        let mon = self.health.as_mut().expect("health monitor checked above");
        let (record, drift_alarm, floor_alarm) =
            mon.observe(step_no, t, u, &self.prim, rho_floor, rec);
        rank.trace_counter("health.drift", record.drift);
        rank.trace_counter("health.atmo_frac", record.atmo_frac);
        rank.trace_counter("health.limiter_frac", record.limiter_frac);
        rank.trace_counter("health.max_lorentz", record.max_w);
        if drift_alarm {
            rank.trace_instant("health.alarm.drift", record.drift);
        }
        if floor_alarm {
            rank.trace_instant("health.alarm.floor", record.atmo_frac);
        }
        self.count("health.records", 1);
        if drift_alarm {
            self.count("health.drift_alarms", 1);
        }
        if floor_alarm {
            self.count("health.floor_alarms", 1);
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
        let due = match &self.telemetry {
            Some(ts) => ts.sampler.due(step_no),
            None => return,
        };
        if !due {
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
        let zones_per_step = (self.geom.interior_len() * self.cfg.rk.stages()) as f64;
        let ts = self.telemetry.as_mut().expect("telemetry checked above");
        // Timestamps share the flight recorder's clock so JSONL samples
        // line up against the Perfetto spans of the same run.
        let t_ns = match rank.tracer() {
            Some(tracer) => tracer.stamp(rank.is_virtual().then(|| rank.vtime())),
            None if rank.is_virtual() => (rank.vtime() * 1e9) as u64,
            None => ts.epoch.elapsed().as_nanos() as u64,
        };
        let now = Instant::now();
        let vnow = rank.vtime();
        let elapsed_s = match ts.last_clock {
            Some((_, v0)) if rank.is_virtual() => (vnow - v0).max(0.0),
            Some((w0, _)) => now.duration_since(w0).as_secs_f64(),
            None => 0.0,
        };
        ts.last_clock = Some((now, vnow));
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

    /// Credit a cascade sweep's repairs to the per-tier counters.
    fn note_cascade(&self, stats: &RecoveryStats) {
        if stats.total() == 0 {
            return;
        }
        self.count("c2p.cascade.relaxed_tol", stats.relaxed_tol);
        self.count("c2p.cascade.neighbor_avg", stats.neighbor_avg);
        self.count("c2p.cascade.atmosphere", stats.atmosphere);
    }

    /// The local patch geometry.
    pub fn geom(&self) -> &PatchGeom {
        &self.geom
    }

    /// The current configuration (the decomposition changes after a
    /// shrinking recovery).
    pub fn cfg(&self) -> &DistConfig {
        &self.cfg
    }

    /// Communicator rank of block rank `block`.
    fn comm_of(&self, block: usize) -> usize {
        self.comm_ranks[block]
    }

    /// Communicator rank of the block that owns the cells behind face
    /// (`d`, `side`); `None` for a face no message serves — a physical
    /// boundary, or the periodic wrap of a dimension this block owns
    /// whole.
    fn face_peer(&self, d: usize, side: usize) -> Option<usize> {
        face_neighbor(&self.cfg, self.my_rank, d, side).map(|nb| self.comm_of(nb))
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
            rank.send_vec(self.comm_of(0), tag, buf);
            return None;
        }
        let peers = self.comm_ranks[1..]
            .iter()
            .map(move |&peer| rank.recv_deadline(peer, tag));
        Some(std::iter::once(Ok(buf)).chain(peers))
    }

    /// Pack the primitives of the `ng` interior layers adjacent to face
    /// (`d`, `side`) (transverse interior only — corners are never
    /// exchanged). `buf` is overwritten; its allocation is reused.
    fn pack_face(&self, d: usize, side: usize, buf: &mut Vec<f64>) {
        let (lo, hi) = face_box(&self.geom, d, side, false);
        buf.clear();
        self.prim.gather_box(lo, hi, buf);
    }

    /// Unpack a received halo into the primitive ghost layers of face
    /// (`d`, `side`). A wrong-length buffer (truncated in flight) leaves
    /// the ghosts untouched and reports [`SolverError::HaloMismatch`].
    fn unpack_face(&mut self, d: usize, side: usize, buf: &[f64]) -> Result<(), SolverError> {
        let (lo, hi) = face_box(&self.geom, d, side, true);
        let expected = NCOMP * self.geom.ng_of(d) * self.geom.interior_len() / self.geom.n[d];
        if buf.len() != expected {
            return Err(SolverError::HaloMismatch {
                expected,
                got: buf.len(),
            });
        }
        self.prim.scatter_box(lo, hi, buf);
        Ok(())
    }

    /// Post the halo sends of the freshly recovered interior primitives.
    fn post_sends(&mut self, rank: &mut Rank) {
        let geom = self.geom;
        for d in (0..3).filter(|&d| geom.active(d)) {
            for side in 0..2 {
                let Some(peer) = self.face_peer(d, side) else {
                    continue;
                };
                let mut buf = self.halo_bufs.pop().unwrap_or_default();
                let s = self.pstart(rank);
                rank.work(|| self.pack_face(d, side, &mut buf));
                self.pend("phase.halo.pack", rank, s);
                let s = self.pstart(rank);
                rank.send_vec(peer, (d * 2 + side) as u64, buf);
                self.pend("phase.halo.send", rank, s);
            }
        }
    }

    /// Fill the primitive ghosts of every face no message serves:
    /// physical boundary conditions and the periodic self-wrap. The
    /// primitive layout has the normal velocity where the conserved one
    /// has the normal momentum, so [`fill_face`] mirrors it correctly.
    fn fill_local_faces(&mut self, rank: &mut Rank) {
        let geom = self.geom;
        for d in (0..3).filter(|&d| geom.active(d)) {
            for side in 0..2 {
                if self.face_peer(d, side).is_none() {
                    let s = self.pstart(rank);
                    rank.work(|| fill_face(&mut self.prim, d, side, self.cfg.bcs[d][side]));
                    self.pend("phase.halo.unpack", rank, s);
                }
            }
        }
    }

    /// Receive the primitive halos of every face a peer serves.
    ///
    /// Every expected message is received even after an unpack failure —
    /// bailing out early would leave messages queued and desynchronize
    /// this rank's communication pattern from its neighbors'. The first
    /// error is reported after the exchange is fully drained.
    fn recv_halos(&mut self, rank: &mut Rank) -> Result<(), SolverError> {
        let mut first_err = None;
        let geom = self.geom;
        for d in (0..3).filter(|&d| geom.active(d)) {
            for side in 0..2 {
                let Some(peer) = self.face_peer(d, side) else {
                    continue;
                };
                // Neighbor's opposite face arrives tagged with its
                // (d, 1-side). The deadline receive bounds the wait on a
                // dead neighbor: a silent peer becomes a typed suspicion
                // instead of a hang.
                let s = self.pstart(rank);
                let buf = rank.recv_deadline(peer, (d * 2 + (1 - side)) as u64);
                self.pend("phase.halo.wait", rank, s);
                match buf {
                    Ok(buf) => {
                        let s = self.pstart(rank);
                        if let Err(e) = rank.work(|| self.unpack_face(d, side, &buf)) {
                            first_err.get_or_insert(e);
                        }
                        self.pend("phase.halo.unpack", rank, s);
                        self.halo_bufs.push(buf);
                    }
                    // Ghosts stay untouched; the step is rolled back. Keep
                    // draining the remaining faces so this rank's pattern
                    // stays aligned with the neighbors that are still
                    // alive.
                    Err(e) => {
                        first_err.get_or_insert(comm_err(e));
                    }
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Recover primitives over the interior — the cells this block owns.
    /// Strict (the first failure is the error) unless `cascade`, which
    /// repairs failed cells through the tiered cascade instead: the
    /// repairs of the whole batch finish here, before any primitive ships.
    fn recover_interior(&mut self, u: &mut Field, cascade: bool) -> Result<(), SolverError> {
        let interior = Region::interior(&self.geom);
        let iters = self.c2p_hist.as_deref();
        if !cascade {
            return recover_region(&self.cfg.scheme, u, &mut self.prim, &interior, iters, None);
        }
        let mut stats = RecoveryStats::default();
        recover_region_resilient(
            &self.cfg.scheme,
            u,
            &mut self.prim,
            &interior,
            &mut stats,
            iters,
        );
        self.rec_stats.merge(&stats);
        self.note_cascade(&stats);
        Ok(())
    }

    /// Accumulate the residual over `self.tiles[tiles]`, timed as `phase`.
    fn sweep(
        &mut self,
        rank: &mut Rank,
        phase: &'static str,
        tiles: std::ops::Range<usize>,
        scan: bool,
    ) {
        let s = self.pstart(rank);
        rank.work(|| {
            for tile in &self.tiles[tiles] {
                accumulate_rhs_region_scan(
                    &self.cfg.scheme,
                    &self.prim,
                    &mut self.rhs,
                    tile,
                    scan.then_some(&self.scan),
                    self.gang.as_ref(),
                );
            }
        });
        self.pend(phase, rank, s);
    }

    /// One residual evaluation with halo exchange, honoring the mode.
    ///
    /// With `scan` set, the sweeps also run the fused wave-speed scan:
    /// afterwards `self.scan` holds the largest interior CFL rate (the
    /// quantity [`max_dt`] maximizes), for free — the pencils are already
    /// resident in scratch. The stage-0 evaluation of every step scans,
    /// which is what lets Δt be decided without a separate local pass.
    /// `cascade` selects the repairing recovery ([`Self::recover_interior`]).
    fn eval_rhs(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        scan: bool,
        cascade: bool,
    ) -> Result<(), SolverError> {
        self.rhs.raw_mut().fill(0.0);
        if scan {
            self.scan.reset();
        }
        // Phase names of the compute before and after the receives.
        let overlap = self.cfg.mode == ExchangeMode::Overlap;
        let (before, after) = if overlap {
            ("phase.rhs.deep", "phase.rhs.shell")
        } else {
            ("phase.rhs.interior", "phase.rhs.interior")
        };
        // Wall time inside a `rank.work` closure is the virtual-clock
        // charge (one thread per rank, on a core of its own or holding
        // the CPU token), so the nested con2prim sub-phase can use plain
        // `Instant` timing.
        let sub_c2p = self.metrics.as_ref().map(|m| m.histogram("sub.c2p"));
        let s = self.pstart(rank);
        let recovered = rank.work(|| {
            let t0 = sub_c2p.as_ref().map(|_| Instant::now());
            let out = self.recover_interior(u, cascade);
            if let (Some(h), Some(t0)) = (&sub_c2p, t0) {
                h.record(t0.elapsed().as_nanos() as u64);
            }
            out
        });
        self.pend(before, rank, s);
        // The exchange runs even when the recovery failed: the neighbors
        // are committed to this stage's messages, and skipping them would
        // shift every later receive by one.
        self.post_sends(rank);
        self.fill_local_faces(rank);
        if overlap && recovered.is_ok() {
            self.sweep(rank, before, 0..1, scan);
        }
        let received = self.recv_halos(rank);
        recovered?;
        received?;
        self.sweep(rank, after, overlap as usize..self.tiles.len(), scan);
        Ok(())
    }

    /// RK stage combiner: `u = b*u_stage + a*u + c*rhs`, timed as
    /// `phase.rk.combine`.
    fn combine(&self, rank: &mut Rank, u: &mut Field, a: f64, b: Option<f64>, c: f64) {
        let s = self.pstart(rank);
        rank.work(|| lincomb(u, a, b.map(|b| (&self.u_stage, b)), &self.rhs, c));
        self.pend("phase.rk.combine", rank, s);
    }

    /// One RK step of size `dt`; the first stage error aborts the step.
    pub fn step(&mut self, rank: &mut Rank, u: &mut Field, dt: f64) -> Result<(), SolverError> {
        self.run_stages(rank, u, StepSize::Fixed(dt), false)
            .map(|_| ())
    }

    /// The one stage loop, driven by [`rk_tables`]. Returns the Δt taken.
    ///
    /// With [`StepSize::Scanned`] Δt is decided *inside* the step: the
    /// stage-0 residual evaluation runs the fused wave-speed scan, the
    /// cadenced refresh (or the cached coast) turns this rank's bound
    /// into the global Δt, and only then do the stage combines apply it.
    /// The stage-0 residual does not depend on Δt, so with a refresh
    /// every step this is bitwise the "Δt first, then step" ordering —
    /// minus the separate `phase.dt.local` primitive-recovery pass, which
    /// the fusion makes redundant.
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
    fn run_stages(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        size: StepSize,
        keep_going: bool,
    ) -> Result<f64, SolverError> {
        let (stages, _, _) = rk_tables(self.cfg.rk);
        let scanned = matches!(size, StepSize::Scanned { .. });
        let mut first = None;
        let mut dt = 0.0;
        for (si, &(a, b, c)) in stages.iter().enumerate() {
            if let Err(e) = self.eval_rhs(rank, u, scanned && si == 0, keep_going) {
                if !keep_going {
                    return Err(e);
                }
                first.get_or_insert(e);
            }
            if si == 0 {
                // Snapshot u^n *after* the stage-0 evaluation: the
                // recovery cascade may have repaired poisoned cells in
                // `u` during it, and those repairs must be part of the
                // state the later combines reconstruct from. Without
                // repairs the evaluation leaves `u` untouched, so this is
                // bit-identical to snapshotting first.
                if stages.len() > 1 {
                    self.u_stage.raw_mut().copy_from_slice(u.raw());
                }
                dt = match size {
                    StepSize::Fixed(dt) => dt,
                    StepSize::Scanned { limit, scale } => self.scanned_dt(rank, limit, scale)?,
                };
            }
            // Shu–Osher form: u <- a u0 + b u + c Δt L(u); stage 0 has no
            // u0 term.
            self.combine(rank, u, b, (si > 0).then_some(a), c * dt);
        }
        first.map_or(Ok(dt), Err)
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
        let s = self.pstart(rank);
        let local = rank.work(|| -> Result<f64, SolverError> {
            self.recover_interior(u, false)?;
            Ok(max_dt(&self.cfg.scheme, &self.prim, self.cfg.cfl))
        })?;
        self.pend("phase.dt.local", rank, s);
        let s = self.pstart(rank);
        let global = rank.allreduce_min(local);
        self.pend("phase.dt.allreduce", rank, s);
        Ok(global)
    }

    /// Decide this step's global Δt from the fused scan's local bound.
    ///
    /// Refreshes (allreduce-min, piggybacking the negated local
    /// violation count as a second component on the same message) when
    /// the cache is invalid or its window has elapsed; otherwise coasts
    /// on `0.9 ×` the cached value. Returns `(dt, coasted)`.
    fn decide_dt(&mut self, rank: &mut Rank, local_bound: f64) -> (f64, bool) {
        let refresh_max = self.cfg.dt_refresh_interval.max(1);
        if self.dt_cache.valid && self.dt_cache.age < self.dt_cache.window {
            self.dt_cache.age += 1;
            // Safety margin while coasting on the cached value.
            return (0.9 * self.dt_cache.dt, true);
        }
        let s = self.pstart(rank);
        let out = rank.allreduce(&[local_bound, -(self.dt_cache.violations as f64)], f64::min);
        self.pend("phase.dt.allreduce", rank, s);
        let dt_g = out[0];
        let violated = out[1] < 0.0;
        // AIMD window: collapse to every-step refreshes when any rank
        // coasted past its bound during the last window; double back
        // toward the configured cadence on clean windows.
        self.dt_cache.window = if violated {
            1
        } else {
            (self.dt_cache.window * 2).min(refresh_max)
        };
        self.dt_cache.dt = dt_g;
        self.dt_cache.age = 1;
        self.dt_cache.valid = true;
        self.dt_cache.violations = 0;
        (dt_g, false)
    }

    /// This step's Δt from the stage-0 scan: `scale` × the decided global
    /// Δt (the resilient retry backoff), with `limit` clamping `t + dt` to
    /// an end time. When a *coasted* Δt overruns this rank's freshly
    /// scanned CFL bound, `dt.cadence.violation` is counted and the
    /// violation is reported at the next refresh (collapsing the window);
    /// the Δt itself is not adjusted locally — it must stay identical
    /// across ranks.
    fn scanned_dt(
        &mut self,
        rank: &mut Rank,
        limit: Option<(f64, f64)>,
        scale: f64,
    ) -> Result<f64, SolverError> {
        let local_bound = self.scan.dt(self.cfg.cfl);
        let (dt_raw, coasted) = self.decide_dt(rank, local_bound);
        let mut dt = dt_raw * scale;
        // Negated form deliberately catches NaN as a collapse. The
        // decision is identical on every rank (refreshed Δt comes from
        // the allreduce, coasted Δt from the lockstep cache), so this
        // early return is collective-consistent.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(dt > 1e-14) {
            return Err(SolverError::TimestepCollapse { dt });
        }
        if let Some((t, t_end)) = limit {
            if t + dt > t_end {
                dt = t_end - t;
            }
        }
        if coasted && dt > local_bound {
            self.dt_cache.violations += 1;
            self.count("dt.cadence.violation", 1);
            rank.trace_instant("driver.dt_violation", dt / local_bound);
        }
        Ok(dt)
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
            let size = StepSize::Scanned {
                limit: t_end.map(|end| (t, end)),
                scale: 1.0,
            };
            let dt = self.run_stages(rank, u, size, false)?;
            t += dt;
            stats.steps += 1;
            stats.zone_updates += (self.geom.interior_len() * self.cfg.rk.stages()) as u64;
            self.health_observe(rank, u, t, stats.steps as u64);
            self.telemetry_observe(rank, t, stats.steps as u64, dt);
        }
        stats.elapsed = start.elapsed();
        stats.bytes_sent = rank.bytes_sent() - bytes0;
        stats.vtime = rank.vtime() - vtime0;
        Ok(stats)
    }

    /// One attempt of a resilient step: the fused-scan Δt decision (at
    /// `scale`× the configured CFL) inside a full (never-deadlocking)
    /// step. A coasted Δt that overran this rank's local CFL bound is
    /// reported as [`SolverError::CflViolation`] so the collective
    /// agreement round rolls the step back and retries with a fresh
    /// allreduce — the Δt cache is invalidated here. Returns the
    /// committed Δt.
    fn try_step(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        t: f64,
        t_end: f64,
        scale: f64,
    ) -> Result<f64, SolverError> {
        let v0 = self.dt_cache.violations;
        let size = StepSize::Scanned {
            limit: Some((t, t_end)),
            scale,
        };
        let dt = self.run_stages(rank, u, size, true)?;
        if self.dt_cache.violations > v0 {
            self.dt_cache.invalidate();
            let bound = self.scan.dt(self.cfg.cfl);
            return Err(SolverError::CflViolation { dt, bound });
        }
        Ok(dt)
    }

    /// Collectively write a rank-count-independent global checkpoint:
    /// every block sends its interior to block rank 0, which assembles
    /// the [`GlobalCheckpoint`] and saves it into the shared global
    /// slots. Deadline receives keep the root from hanging on a rank
    /// that died mid-interval.
    fn save_global_distributed(
        &self,
        rank: &mut Rank,
        gslots: &CheckpointSlots,
        u: &Field,
        t: f64,
        step: u64,
    ) -> Result<(), SolverError> {
        const GCKP_TAG: u64 = 1001;
        let Some(parts) = self.gather_to_root(rank, GCKP_TAG, pack_interior(u)) else {
            return Ok(());
        };
        let blocks = parts
            .enumerate()
            .map(|(b, data)| {
                let (offset, size) = self.cfg.decomp.local_span(self.cfg.global_n, b);
                Ok(BlockRecord {
                    id: b as u64,
                    offset,
                    size,
                    data: data.map_err(comm_err)?,
                })
            })
            .collect::<Result<_, SolverError>>()?;
        let ckp = GlobalCheckpoint {
            time: t,
            step,
            global_n: self.cfg.global_n,
            ncomp: NCOMP,
            blocks,
        };
        gslots.save(&ckp).map_err(ck_err)
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
        self.geom = self.cfg.local_geom(my_block);
        self.tiles = sweep_tiles(&self.cfg, &self.geom, my_block);
        self.prim = Field::new(self.geom, 5);
        self.rhs = Field::cons(self.geom);
        self.u_stage = Field::cons(self.geom);
        // A restored (older) state on a new block: the cached Δt is stale.
        self.dt_cache.invalidate();
        Ok(())
    }

    /// Cut this block's span out of a global checkpoint and overwrite the
    /// interior of `u` with it. Returns the checkpoint's `(time, step)`.
    fn fill_from_global(
        &self,
        u: &mut Field,
        gckp: &GlobalCheckpoint,
    ) -> Result<(f64, u64), SolverError> {
        let (data, time, step) =
            self.fill_global_span(gckp)
                .ok_or_else(|| SolverError::Checkpoint {
                    msg: "global checkpoint does not match this run's grid or does not \
                          cover this block's span"
                        .into(),
                })?;
        *u = unpack_interior(self.geom, &data);
        Ok((time, step))
    }

    /// The disk tier, for a restore and for a shrink alike: every rank
    /// loads the newest global checkpoint that all of them could read —
    /// falling back to `prev` together past a torn `latest` — and cuts its
    /// block's span out of it: the current decomposition's span, or the
    /// re-cut one after [`BlockSolver::rebuild_for_survivors`]. The
    /// filesystem is shared (ranks are threads), so nothing is shipped.
    /// Returns the restored `(time, step)`.
    fn restore_from_disk(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        slots: Option<&CheckpointSlots>,
        rstats: &mut ResilienceStats,
    ) -> Result<(f64, u64), SolverError> {
        let slots = slots.ok_or_else(|| SolverError::Checkpoint {
            msg: "no memory tier could serve and no checkpoint directory is \
                  configured for the disk tier"
                .into(),
        })?;
        let (gckp, fell_back) = load_newest_agreed::<GlobalCheckpoint>(rank, slots)?;
        let restored = self.fill_from_global(u, &gckp)?;
        rstats.disk_restores += 1;
        rstats.ckpt_fallbacks += u64::from(fell_back);
        self.count("ckp.tier.disk.restore", 1);
        Ok(restored)
    }

    /// Serialize this block's interior as a single-block global checkpoint
    /// (what the L1 diskless tier freezes). Using the v3 global format
    /// means any collection of snapshots can later be merged into a full
    /// [`GlobalCheckpoint`] and re-tiled onto a *different* decomposition
    /// — which is exactly what the buddy-shrink path does.
    fn snapshot_bytes(&self, u: &Field, t: f64, step: u64) -> Vec<u8> {
        let (offset, size) = self.cfg.decomp.local_span(self.cfg.global_n, self.my_rank);
        encode(&GlobalCheckpoint {
            time: t,
            step,
            global_n: self.cfg.global_n,
            ncomp: NCOMP,
            blocks: vec![BlockRecord {
                id: self.my_rank as u64,
                offset,
                size,
                data: pack_interior(u),
            }],
        })
    }

    /// Extract this block's span (and the checkpoint's time/step) without
    /// committing it to the state — the validation half of
    /// [`BlockSolver::fill_from_global`].
    fn fill_global_span(&self, gckp: &GlobalCheckpoint) -> Option<(Vec<f64>, f64, u64)> {
        if gckp.global_n != self.cfg.global_n || gckp.ncomp != NCOMP {
            return None;
        }
        let (offset, size) = self.cfg.decomp.local_span(self.cfg.global_n, self.my_rank);
        let data = gckp.extract_span(offset, size)?;
        Some((data, gckp.time, gckp.step))
    }

    /// Collective shrink onto the survivors with the lost blocks restored
    /// from buddy replicas ([`MemoryTiers::gather_for_shrink`]) — no disk
    /// involved. Returns `Ok(None)` (state and decomposition untouched)
    /// when the replicas cannot cover every dead block, so the caller
    /// falls back to the disk shrink path. The first survivor merges the
    /// single-block snapshots into one full [`GlobalCheckpoint`]; only
    /// once every survivor holds it does each re-run the decomposition
    /// and cut its new span out of the merged state.
    fn shrink_from_buddies(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        tiers: &MemoryTiers,
        rstats: &mut ResilienceStats,
    ) -> Result<Option<(f64, u64)>, SolverError> {
        let global_n = self.cfg.global_n;
        let merge = |round, time, snapshots: &[&[u8]]| {
            let mut blocks: Vec<BlockRecord> = snapshots
                .iter()
                .filter_map(|bytes| decode_trusted::<GlobalCheckpoint>(bytes).ok())
                .flat_map(|g| g.blocks)
                .collect();
            blocks.sort_by_key(|r| r.id);
            blocks.dedup_by_key(|r| r.id);
            encode(&GlobalCheckpoint {
                time,
                step: round,
                global_n,
                ncomp: NCOMP,
                blocks,
            })
        };
        let merged = tiers.gather_for_shrink(rank, &self.comm_ranks, self.my_rank, merge, |b| {
            decode_trusted::<GlobalCheckpoint>(b).ok()
        })?;
        let Some(gckp) = merged else {
            return Ok(None);
        };
        // Everyone holds the merged pre-shrink state: now it is safe to
        // re-cut the domain over the survivors and fill from it.
        self.rebuild_for_survivors(rank)?;
        let restored = self.fill_from_global(u, &gckp)?;
        rstats.buddy_shrinks += 1;
        Ok(Some(restored))
    }

    /// The recovery ladder's restore rung: try the memory tiers (own L1
    /// snapshot, then a buddy replica — [`MemoryTiers::fetch`]), and only
    /// if they cannot serve a consistent state fall through to the disk
    /// tier on the unchanged decomposition. Every branch decision is
    /// collectively agreed, so all ranks walk the same rungs.
    fn tier_restore(
        &mut self,
        rank: &mut Rank,
        u: &mut Field,
        tiers: &Option<MemoryTiers>,
        slots: Option<&CheckpointSlots>,
        rstats: &mut ResilienceStats,
    ) -> Result<(f64, u64), SolverError> {
        if let Some(tz) = tiers {
            let s = self.pstart(rank);
            let fetched = tz.fetch(rank, &self.comm_ranks, self.my_rank, |bytes| {
                let gckp = decode_trusted::<GlobalCheckpoint>(bytes).ok()?;
                self.fill_global_span(&gckp)
            })?;
            let served = fetched.map(|((data, time, step), from_buddy)| {
                // A fresh field, ghosts zeroed exactly as on the disk
                // path — keeps the two tiers' restored runs bit-identical.
                *u = unpack_interior(self.geom, &data);
                if from_buddy {
                    rstats.buddy_restores += 1;
                } else {
                    rstats.local_restores += 1;
                }
                (time, step)
            });
            self.pend("driver.tier_restore.memory", rank, s);
            if let Some(restored) = served {
                return Ok(restored);
            }
        }
        let s = self.pstart(rank);
        let restored = self.restore_from_disk(rank, u, slots, rstats)?;
        self.pend("driver.tier_restore.disk", rank, s);
        Ok(restored)
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
        let mut ladder = BlockLadder {
            backup: Field::cons(self.geom),
            injector: rank.fault_injector().cloned(),
            s: self,
            u,
            res,
            stats: DistStats::default(),
            rstats: ResilienceStats::default(),
            slots: None,
            tiers: None,
            stamp: None,
            step_no: 0,
        };
        resilient_advance(&mut ladder, rank, t0, t_end, res)?;
        let BlockLadder {
            mut stats,
            mut rstats,
            ..
        } = ladder;
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

/// One `advance_to_with_restart` call seen from the recovery ladder: the
/// solver and its state plus everything the rungs keep between steps.
struct BlockLadder<'a> {
    s: &'a mut BlockSolver,
    u: &'a mut Field,
    res: &'a ResilienceConfig,
    stats: DistStats,
    rstats: ResilienceStats,
    /// The disk tier: the global (rank-count-independent) slot pair in
    /// `<checkpoint_dir>/global/` — block rank 0 writes, every rank reads.
    slots: Option<CheckpointSlots>,
    tiers: Option<MemoryTiers>,
    /// ABFT stamp of the last committed state.
    stamp: Option<StateChecksum>,
    /// Pre-attempt copy of the state for rollback.
    backup: Field,
    injector: Option<Arc<FaultInjector>>,
    step_no: u64,
}

impl BlockLadder<'_> {
    /// Collectively write the global checkpoint into the disk slots, if
    /// armed, and count it once it stood.
    fn save_disk(&mut self, rank: &mut Rank, t: f64) -> Result<(), SolverError> {
        let Some(slots) = &self.slots else {
            return Ok(());
        };
        let s = self.s.pstart(rank);
        self.s
            .save_global_distributed(rank, slots, self.u, t, self.step_no)?;
        self.s.pend("phase.ckp.save", rank, s);
        self.rstats.checkpoints_saved += 1;
        self.s.count("ckp.save.disk", 1);
        Ok(())
    }

    /// Freeze the state into the memory tiers, if armed.
    fn save_tiers(&mut self, rank: &mut Rank, t: f64) -> Result<(), SolverError> {
        let Some(tz) = &mut self.tiers else {
            return Ok(());
        };
        let s = &*self.s;
        let bytes = s.snapshot_bytes(self.u, t, self.step_no);
        self.rstats.local_snapshots += 1;
        if tz.refresh(rank, &s.comm_ranks, s.my_rank, self.step_no, t, bytes)? {
            self.rstats.buddy_exchanges += 1;
        }
        Ok(())
    }

    /// Fresh (empty) memory tiers over the current decomposition.
    fn new_tiers(&self) -> MemoryTiers {
        MemoryTiers::new(
            self.res.buddy_offset,
            self.s.comm_ranks.len(),
            self.injector.clone(),
            self.s.metrics.clone(),
        )
    }

    /// Re-stamp the state as the reference the next live scrub verifies
    /// against (armed together with either memory-tier cadence).
    fn restamp(&mut self) {
        if self.res.local_interval > 0 || self.res.scrub_interval > 0 {
            self.stamp = Some(StateChecksum::stamp(self.u.raw(), NCOMP));
        }
    }
}

/// A peer that died mid-collective leaves its suspicion latched in the
/// communicator; the next step's agreement round routes it into the
/// consensus rung, so the save itself only has to not fail the run.
fn unless_peer_suspect(r: Result<(), SolverError>) -> Result<(), SolverError> {
    match r {
        Err(SolverError::PeerSuspect { .. }) => Ok(()),
        r => r,
    }
}

impl Recoverable for BlockLadder<'_> {
    fn step_no(&self) -> u64 {
        self.step_no
    }

    fn arm(&mut self, rank: &mut Rank, t: f64) -> Result<(), SolverError> {
        // Always write an initial checkpoint so a restore target exists
        // from the very first step.
        if let Some(dir) = &self.res.checkpoint_dir {
            self.slots = Some(CheckpointSlots::new(dir.join("global")).map_err(ck_err)?);
            self.save_disk(rank, t)?;
        }
        if let Some(mon) = &mut self.s.health {
            mon.ensure_baseline(self.u);
        }
        // Arm the diskless tiers and the live-state ABFT stamp. The
        // initial snapshot (and its buddy replica) is captured up front,
        // mirroring the initial disk checkpoint.
        if self.res.local_interval > 0 {
            self.tiers = Some(self.new_tiers());
            let s = self.s.pstart(rank);
            self.save_tiers(rank, t)?;
            self.s.pend("phase.ckp.memory", rank, s);
        }
        self.restamp();
        if self.stamp.is_some() {
            // Materialize the undetected-corruption counter at zero: its
            // *presence* (and staying zero) is the acceptance signal the
            // report validator checks.
            self.s.count("sdc.undetected", 0);
        }
        Ok(())
    }

    fn pre_step(&mut self, rank: &mut Rank, _t: f64) -> Result<bool, SolverError> {
        let (s, u, step_no) = (&mut *self.s, &mut *self.u, self.step_no);
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
                let len = s.geom.interior_len();
                let pick = sel as usize % (NCOMP * len);
                let (i, j, k) = s.geom.nth_interior(pick % len);
                let c = pick / len;
                let bit = ((sel >> 33) % 64) as u32;
                let v = u.at(c, i, j, k);
                u.set(c, i, j, k, f64::from_bits(v.to_bits() ^ (1u64 << bit)));
                rank.trace_instant("driver.bitflip_injected", step_no as f64);
                s.count("sdc.injected", 1);
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
            self.rstats.sdc_detected += 1;
            let comp = st.corrupted_component(u.raw());
            rank.trace_instant(
                "driver.sdc_detected",
                comp.map(|c| c as f64).unwrap_or(-1.0),
            );
            s.count("sdc.detected", 1);
        }
        // Frozen-buffer scrub on its own (slower) cadence: re-hash the
        // idle local snapshot and buddy replica, dropping any that
        // rotted so a restore never trusts them.
        let scrub = self.res.scrub_interval as u64;
        if scrub > 0 && step_no.is_multiple_of(scrub) {
            if let Some(tz) = &mut self.tiers {
                self.rstats.scrubs += 1;
                self.rstats.snapshots_rotted += tz.scrub(rank);
            }
        }
        // Deterministic state corruption, if the fault plan asks for it:
        // one interior conserved value becomes NaN, which the recovery
        // cascade must repair in-flight.
        if let Some(victim) = self.injector.as_ref().and_then(|i| i.should_poison_cell()) {
            let (i, j, k) = s.geom.nth_interior(victim as usize % s.geom.interior_len());
            u.set(0, i, j, k, f64::NAN);
            rank.trace_instant("driver.poison_injected", step_no as f64);
        }
        Ok(sdc_hit)
    }

    fn try_step(
        &mut self,
        rank: &mut Rank,
        t: f64,
        t_end: f64,
        cfl_scale: f64,
    ) -> Result<f64, SolverError> {
        self.backup.raw_mut().copy_from_slice(self.u.raw());
        let attempt_t0 = Instant::now();
        let outcome = self.s.try_step(rank, self.u, t, t_end, cfl_scale);
        straggle(rank, attempt_t0);
        outcome
    }

    fn rollback(&mut self) {
        // The backup is untouched by the failed attempt. The cached Δt
        // was computed from (or aged against) the discarded trajectory,
        // so it must not survive the rollback — every rank rolls back
        // together, so the invalidation stays in lockstep.
        self.u.raw_mut().copy_from_slice(self.backup.raw());
        self.s.dt_cache.invalidate();
    }

    fn commit(&mut self, rank: &mut Rank, t: f64, dt: f64) -> Result<(), SolverError> {
        self.step_no += 1;
        self.stats.steps += 1;
        self.stats.zone_updates += (self.s.geom.interior_len() * self.s.cfg.rk.stages()) as u64;
        let interval = self.res.checkpoint_interval as u64;
        if interval > 0 && self.step_no.is_multiple_of(interval) {
            unless_peer_suspect(self.save_disk(rank, t))?;
        }
        // Re-stamp the committed state and, on the faster memory
        // cadence, freeze it into the L1 snapshot + ship the buddy
        // replica.
        self.restamp();
        let local = self.res.local_interval as u64;
        if self.tiers.is_some() && self.step_no.is_multiple_of(local) {
            let s = self.s.pstart(rank);
            unless_peer_suspect(self.save_tiers(rank, t))?;
            self.s.pend("phase.ckp.memory", rank, s);
        }
        self.s.health_observe(rank, self.u, t, self.step_no);
        // Commits are collective (the outcome flag is agreed), so the
        // sampling cadence stays in lockstep across ranks even through
        // retries and restores.
        self.s.telemetry_observe(rank, t, self.step_no, dt);
        Ok(())
    }

    fn restore(&mut self, rank: &mut Rank, cause: RestoreCause) -> Result<f64, SolverError> {
        let s = self.s.pstart(rank);
        let (t, step) = self.s.tier_restore(
            rank,
            self.u,
            &self.tiers,
            self.slots.as_ref(),
            &mut self.rstats,
        )?;
        self.step_no = step;
        self.restamp();
        // The state just jumped back in time: a Δt cached on the
        // abandoned trajectory is stale.
        self.s.dt_cache.invalidate();
        let span = match cause {
            RestoreCause::Sdc => "driver.sdc_restore",
            RestoreCause::RetriesExhausted => "driver.restart_restore",
        };
        self.s.pend(span, rank, s);
        Ok(t)
    }

    fn shrink(&mut self, rank: &mut Rank) -> Result<f64, SolverError> {
        let s = self.s.pstart(rank);
        // Cheapest rung first: reassemble the dead blocks from their
        // guardians' buddy replicas, entirely in memory. Only if the
        // replicas cannot cover every lost block does the shrink touch
        // disk.
        let from_buddies = match &self.tiers {
            Some(tz) => self
                .s
                .shrink_from_buddies(rank, self.u, tz, &mut self.rstats)?,
            None => None,
        };
        let (t, step) = match from_buddies {
            Some(restored) => restored,
            None => {
                self.s.rebuild_for_survivors(rank)?;
                let slots = self.slots.as_ref();
                self.s
                    .restore_from_disk(rank, self.u, slots, &mut self.rstats)?
            }
        };
        self.s.pend("driver.shrink_restore", rank, s);
        self.step_no = step;
        // The local domain just changed: old conservation baselines are
        // meaningless.
        if let Some(mon) = &mut self.s.health {
            mon.rebaseline();
            mon.ensure_baseline(self.u);
        }
        self.backup = Field::cons(self.s.geom);
        // The decomposition changed: pre-shrink snapshots must never
        // serve another restore. Rebuild the tier state for the new
        // world and re-seed it immediately so the memory rungs stay
        // armed. (The global disk slots are rank-count-independent and
        // stay as they are.)
        if self.tiers.is_some() {
            self.tiers = Some(self.new_tiers());
            unless_peer_suspect(self.save_tiers(rank, t))?;
        }
        self.restamp();
        Ok(t)
    }

    fn stats(&mut self) -> &mut ResilienceStats {
        &mut self.rstats
    }

    fn metrics(&self) -> Option<&Registry> {
        self.s.metrics.as_deref()
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

    fn interior_of(global_like: &Field, reference: &Field) -> f64 {
        // Max abs difference between a gathered (ghost-free) field and the
        // interior of a ghosted reference.
        let diff = |(a, b): (&f64, &f64)| (a - b).abs();
        let interior = pack_interior(reference);
        (global_like.raw().iter().zip(&interior).map(diff)).fold(0.0, f64::max)
    }

    #[test]
    fn overlap_with_latency_still_correct() {
        let cfg = sod_cfg(4, ExchangeMode::Overlap);
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
        let reference = serial_reference(&cfg, &ic, 0.05);
        let outs = run(
            4,
            NetworkModel::with_latency(Duration::from_micros(200)),
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
    fn gang_threads_do_not_change_results() {
        let mut cfg = sod_cfg(2, ExchangeMode::BulkSynchronous);
        cfg.gang_threads = 3;
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
        let reference = serial_reference(&cfg, &ic, 0.1);
        let global = distributed_global(&cfg, ic, 0.1);
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
        let mut makespans = Vec::new();
        let mut fields = Vec::new();
        for p in [1usize, 4] {
            let cfg = make_cfg(p);
            let outs = run(p, model, |rank| {
                let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
                let st = solver.advance_to(rank, &mut u, 0.0, 0.05).unwrap();
                (st, solver.gather_interior(rank, &u).unwrap())
            });
            let makespan = outs.iter().map(|(st, _)| st.vtime).fold(0.0, f64::max);
            makespans.push(makespan);
            fields.push(outs.into_iter().next().unwrap().1.unwrap());
        }
        assert_eq!(
            fields[0].raw(),
            fields[1].raw(),
            "virtual time must not change results"
        );
        assert!(
            makespans[1] < 0.7 * makespans[0],
            "4-rank virtual makespan {} vs 1-rank {}",
            makespans[1],
            makespans[0]
        );
    }

    #[test]
    fn resilient_advance_without_faults_is_bit_identical() {
        // With no fault injection the resilient loop must reproduce the
        // plain advance exactly — cascade, backup, and the coordination
        // allreduce are all invisible on the healthy path.
        let cfg = sod_cfg(2, ExchangeMode::Overlap);
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
        let plain = distributed_global(&cfg, ic, 0.1);
        let dir = std::env::temp_dir().join("rhrsc-resilient-bitident");
        let _ = std::fs::remove_dir_all(&dir);
        let res = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_interval: 7,
            ..ResilienceConfig::default()
        };
        let outs = run(2, NetworkModel::ideal(), |rank| {
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            let (_, rstats) = solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res)
                .unwrap();
            (rstats, solver.gather_interior(rank, &u).unwrap())
        });
        for (rstats, _) in &outs {
            assert_eq!(rstats.retries, 0);
            assert_eq!(rstats.restarts, 0);
            assert_eq!(rstats.recovery.total(), 0);
            assert!(rstats.checkpoints_saved > 0);
        }
        let global = outs.into_iter().next().unwrap().1.unwrap();
        assert_eq!(global.raw(), plain.raw());

        // Arming the flight recorder and the physics-health monitor must
        // not change a single bit either: all instrumentation is
        // read-only over the state.
        use rhrsc_runtime::trace::Tracer;
        let res_traced = ResilienceConfig {
            checkpoint_dir: Some(dir.join("traced")),
            checkpoint_interval: 7,
            ..ResilienceConfig::default()
        };
        let tracer = std::sync::Arc::new(Tracer::new(1024));
        let outs = run(2, NetworkModel::ideal(), |rank| {
            rank.set_trace(tracer.clone());
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
            solver.set_health(crate::health::HealthConfig::default());
            solver
                .advance_to_with_restart(rank, &mut u, 0.0, 0.1, &res_traced)
                .unwrap();
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
                solver.eval_rhs(rank, &mut u, false, true).unwrap();
                // Owner: its last interior layers; receiver: its low ghosts.
                let at = if rank.rank() == 0 { n } else { 0 };
                let layers: Vec<[u64; 5]> = (at..at + ng)
                    .map(|i| [0, 1, 2, 3, 4].map(|c| solver.prim.at(c, i, 0, 0).to_bits()))
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
        let model = NetworkModel::ideal().with_suspect_after(Duration::from_millis(150));
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
        let g = reference.geom();
        let mut l1 = 0.0f64;
        let cells = (g.n[0] * g.n[1] * g.n[2] * NCOMP) as f64;
        for c in 0..NCOMP {
            for k in 0..g.n[2] {
                for j in 0..g.n[1] {
                    for i in 0..g.n[0] {
                        let a = global.at(c, i, j, k);
                        let b = reference.at(c, i + g.ng_of(0), j + g.ng_of(1), k + g.ng_of(2));
                        assert!(a.is_finite());
                        l1 += (a - b).abs();
                    }
                }
            }
        }
        l1 /= cells;
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
                let free = StepSize::Scanned {
                    limit: None,
                    scale: 1.0,
                };

                // Step 1: the cache starts invalid, so this refreshes and
                // the clean window doubles (1 → 2).
                let dt0 = solver.run_stages(rank, &mut u, free, false).unwrap();
                assert!(solver.dt_cache.valid);
                assert_eq!((solver.dt_cache.age, solver.dt_cache.window), (1, 2));
                assert_eq!(dt0.to_bits(), solver.dt_cache.dt.to_bits());

                // Step 2: coasts on 0.9× the cached value; the safety
                // margin keeps the smooth evolution inside the bound.
                let dt1 = solver.run_stages(rank, &mut u, free, false).unwrap();
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
                let dt2 = solver.run_stages(rank, &mut u, free, false).unwrap();
                assert_eq!(dt2.to_bits(), (0.9 * stale).to_bits());
                assert_eq!(solver.dt_cache.violations, 1, "stale coast not detected");

                // Force the window to elapse: the next refresh reports
                // the violation on the piggybacked allreduce component
                // and collapses the window to every-step refreshes.
                solver.dt_cache.age = solver.dt_cache.window;
                solver.run_stages(rank, &mut u, free, false).unwrap();
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
        let model = NetworkModel::ideal().with_suspect_after(Duration::from_millis(150));
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
        let g = reference.geom();
        let mut l1 = 0.0f64;
        let cells = (g.n[0] * g.n[1] * g.n[2] * NCOMP) as f64;
        for c in 0..NCOMP {
            for k in 0..g.n[2] {
                for j in 0..g.n[1] {
                    for i in 0..g.n[0] {
                        let a = global.at(c, i, j, k);
                        let b = reference.at(c, i + g.ng_of(0), j + g.ng_of(1), k + g.ng_of(2));
                        assert!(a.is_finite());
                        l1 += (a - b).abs();
                    }
                }
            }
        }
        l1 /= cells;
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
        let ic = |x: [f64; 3]| {
            if x[0] < 0.5 {
                Prim::new_1d(1.0, 0.0, 1.0)
            } else {
                Prim::new_1d(0.125, 0.0, 0.1)
            }
        };
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
