//! The numerical scheme bundle and field-level primitive recovery.

use crate::step::Region;
use rhrsc_grid::{Field, PatchGeom};
use rhrsc_runtime::metrics::Histogram;
use rhrsc_srhd::recon::Recon;
use rhrsc_srhd::riemann::RiemannSolver;
use rhrsc_srhd::{
    cons_to_prim, cons_to_prim_counted, cons_to_prim_lanes, Con2PrimError, Con2PrimParams, Cons,
    Eos, Prim, C2P_LANES,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Coordinate geometry of the (first) grid dimension.
///
/// Curvilinear options treat `x` as the radius `r > 0` of a
/// symmetry-reduced problem and add the corresponding geometric source
/// terms to the residual: `S = −(α/r)·F_adv` with `α = 1` (cylindrical)
/// or `α = 2` (spherical), where `F_adv` is the radial flux *without* the
/// pressure term. Only meaningful for 1D problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// Plain Cartesian coordinates (any dimensionality).
    Cartesian,
    /// 1D cylindrical radial coordinate (axial symmetry).
    CylindricalRadial,
    /// 1D spherical radial coordinate (spherical symmetry).
    SphericalRadial,
}

impl Geometry {
    /// The geometric factor α (0 for Cartesian).
    pub fn alpha(&self) -> f64 {
        match self {
            Geometry::Cartesian => 0.0,
            Geometry::CylindricalRadial => 1.0,
            Geometry::SphericalRadial => 2.0,
        }
    }
}

/// Everything that defines the numerical method, independent of the grid.
#[derive(Debug, Clone, Copy)]
pub struct Scheme {
    /// Equation of state.
    pub eos: Eos,
    /// Spatial reconstruction.
    pub recon: Recon,
    /// Interface Riemann solver.
    pub riemann: RiemannSolver,
    /// Conservative→primitive recovery parameters.
    pub c2p: Con2PrimParams,
    /// Coordinate geometry (Cartesian unless symmetry-reduced).
    pub geometry: Geometry,
}

impl Scheme {
    /// A sensible production default: ideal gas Γ, PPM + HLLC.
    pub fn default_with_gamma(gamma: f64) -> Self {
        Scheme {
            eos: Eos::ideal(gamma),
            recon: Recon::Ppm,
            riemann: RiemannSolver::Hllc,
            c2p: Con2PrimParams::default(),
            geometry: Geometry::Cartesian,
        }
    }

    /// Ghost zones required by the reconstruction stencil.
    pub fn required_ghosts(&self) -> usize {
        self.recon.ghost()
    }

    /// Clamp a reconstructed primitive state back into the physical
    /// regime: positive density/pressure, subluminal velocity.
    /// Reconstruction operates componentwise on (ρ, v, p) and can
    /// overshoot at strong discontinuities.
    #[inline]
    pub fn sanitize(&self, mut w: Prim) -> Prim {
        w.rho = w.rho.max(self.c2p.rho_floor);
        w.p = w.p.max(self.c2p.p_floor);
        let v2 = w.vsq();
        const V2_MAX: f64 = 1.0 - 1e-12;
        if v2 >= V2_MAX {
            let scale = (V2_MAX / v2).sqrt();
            for v in &mut w.vel {
                *v *= scale;
            }
        }
        w
    }
}

/// Error raised by the solver, locating the offending cell.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Primitive recovery failed at a cell.
    Con2Prim {
        /// Ghost-inclusive cell indices.
        cell: (usize, usize, usize),
        /// Underlying recovery error.
        err: Con2PrimError,
    },
    /// The time step collapsed below a sane minimum.
    TimestepCollapse {
        /// The offending Δt.
        dt: f64,
    },
    /// A coasted (cached) Δt exceeded this rank's freshly scanned local
    /// CFL bound. Recoverable: the resilient driver rolls the step back,
    /// invalidates the Δt cache, and retries with a fresh allreduce.
    CflViolation {
        /// The Δt the step was taken with.
        dt: f64,
        /// The local CFL bound it exceeded.
        bound: f64,
    },
    /// A halo message did not have the expected length (truncated or
    /// corrupted in flight). Recoverable: the step can be rolled back and
    /// retried, which resends the exchange.
    HaloMismatch {
        /// Expected payload length, in doubles.
        expected: usize,
        /// Received payload length, in doubles.
        got: usize,
    },
    /// Checkpoint I/O failed during a resilient advance.
    Checkpoint {
        /// Human-readable cause.
        msg: String,
    },
    /// A halo payload failed its CRC check (corrupted in flight beyond
    /// what sender-side retransmission repaired). Recoverable like
    /// [`SolverError::HaloMismatch`]: roll back and retry the step.
    HaloCorrupt {
        /// Communicator rank the corrupt payload came from.
        from: usize,
    },
    /// A peer rank went silent past the liveness deadline (or sent an
    /// unrepairable payload). Recoverable: the driver runs a suspicion
    /// consensus and either retries (false alarm) or shrinks onto the
    /// survivors.
    PeerSuspect {
        /// Communicator rank of the suspected peer.
        rank: usize,
    },
    /// This rank was injected with (or detected) a fatal rank-level fault
    /// and must stop participating; survivors will evict it.
    RankFailed {
        /// The step at which the failure fired.
        step: u64,
    },
}

impl SolverError {
    /// Short machine-readable class name (flight-recorder dump reasons).
    pub fn kind(&self) -> &'static str {
        match self {
            SolverError::Con2Prim { .. } => "con2prim",
            SolverError::TimestepCollapse { .. } => "timestep_collapse",
            SolverError::CflViolation { .. } => "cfl_violation",
            SolverError::HaloMismatch { .. } => "halo_mismatch",
            SolverError::Checkpoint { .. } => "checkpoint",
            SolverError::HaloCorrupt { .. } => "halo_corrupt",
            SolverError::PeerSuspect { .. } => "peer_suspect",
            SolverError::RankFailed { .. } => "rank_failed",
        }
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Con2Prim { cell, err } => {
                write!(f, "primitive recovery failed at cell {cell:?}: {err}")
            }
            SolverError::TimestepCollapse { dt } => write!(f, "time step collapsed to {dt:.3e}"),
            SolverError::CflViolation { dt, bound } => {
                write!(
                    f,
                    "cached time step {dt:.3e} exceeded the local CFL bound {bound:.3e}"
                )
            }
            SolverError::HaloMismatch { expected, got } => {
                write!(
                    f,
                    "halo message length mismatch: expected {expected}, got {got}"
                )
            }
            SolverError::Checkpoint { msg } => write!(f, "checkpoint failure: {msg}"),
            SolverError::HaloCorrupt { from } => {
                write!(f, "halo payload from rank {from} failed its CRC check")
            }
            SolverError::PeerSuspect { rank } => {
                write!(f, "peer rank {rank} suspected dead (liveness deadline)")
            }
            SolverError::RankFailed { step } => {
                write!(f, "rank failed at step {step}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Per-tier counters of the recovery cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Cells recovered by retrying with relaxed tolerances.
    pub relaxed_tol: u64,
    /// Cells replaced by the average of their recoverable face neighbors.
    pub neighbor_avg: u64,
    /// Cells reset to the atmosphere floor (last resort).
    pub atmosphere: u64,
}

impl RecoveryStats {
    /// Total cells repaired by any tier.
    pub fn total(&self) -> u64 {
        self.relaxed_tol + self.neighbor_avg + self.atmosphere
    }

    /// Accumulate another batch of counters.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.relaxed_tol += other.relaxed_tol;
        self.neighbor_avg += other.neighbor_avg;
        self.atmosphere += other.atmosphere;
    }
}

/// Primitive component layout in a primitive [`Field`]:
/// `(ρ, v_x, v_y, v_z, p)`.
pub const PRIM_RHO: usize = 0;
/// Velocity component `v_x`.
pub const PRIM_VX: usize = 1;
/// Velocity component `v_y`.
pub const PRIM_VY: usize = 2;
/// Velocity component `v_z`.
pub const PRIM_VZ: usize = 3;
/// Pressure.
pub const PRIM_P: usize = 4;

/// Read a [`Prim`] from a primitive field at ghost-inclusive `(i, j, k)`.
#[inline]
pub fn prim_at(prim: &Field, i: usize, j: usize, k: usize) -> Prim {
    Prim {
        rho: prim.at(PRIM_RHO, i, j, k),
        vel: [
            prim.at(PRIM_VX, i, j, k),
            prim.at(PRIM_VY, i, j, k),
            prim.at(PRIM_VZ, i, j, k),
        ],
        p: prim.at(PRIM_P, i, j, k),
    }
}

/// Write a [`Prim`] into a primitive field at `(i, j, k)`.
#[inline]
pub fn set_prim(prim: &mut Field, i: usize, j: usize, k: usize, w: &Prim) {
    prim.set(PRIM_RHO, i, j, k, w.rho);
    prim.set(PRIM_VX, i, j, k, w.vel[0]);
    prim.set(PRIM_VY, i, j, k, w.vel[1]);
    prim.set(PRIM_VZ, i, j, k, w.vel[2]);
    prim.set(PRIM_P, i, j, k, w.p);
}

/// Initialize a conserved field (including ghost zones) from a pointwise
/// primitive initial condition.
pub fn init_cons(geom: PatchGeom, eos: &Eos, ic: &dyn Fn([f64; 3]) -> Prim) -> Field {
    let mut u = Field::cons(geom);
    for k in 0..geom.ntot(2) {
        for j in 0..geom.ntot(1) {
            for i in 0..geom.ntot(0) {
                let w = ic(geom.center(i, j, k));
                debug_assert!(w.is_physical(), "unphysical IC at ({i},{j},{k})");
                u.set_cons(i, j, k, w.to_cons(eos));
            }
        }
    }
    u
}

/// Recover primitives over every cell (interior + ghosts) of a conserved
/// field. For fields whose ghosts are *interpolated* (AMR prolongation)
/// and for reference paths; solvers whose ghosts are copies of interior
/// cells recover the interior only and copy the primitives instead
/// ([`recover_region`]).
pub fn recover_prims(scheme: &Scheme, u: &Field, prim: &mut Field) -> Result<(), SolverError> {
    recover_region(scheme, u, prim, &Region::whole(u.geom()), None, None)
}

/// Recover primitives over the cells of `region`, failing on the first
/// cell that has no primitive state; optionally gang-parallel over its
/// x-rows and optionally histogramming every root solve's residual
/// evaluations into `iters`. Cells outside `region` keep their bytes.
///
/// Results are bit-identical however the rows are scheduled: every
/// cell's root solve is independent and deterministic. The reported cell
/// is the first failing one in row-major order (with a pool: of
/// whichever failing row finished first).
pub fn recover_region(
    scheme: &Scheme,
    u: &Field,
    prim: &mut Field,
    region: &Region,
    iters: Option<&Histogram>,
    pool: Option<&rhrsc_runtime::WorkStealingPool>,
) -> Result<(), SolverError> {
    let raw = RawPrim::new(u, prim, region);
    let first = parking_lot::Mutex::new(None::<SolverError>);
    let (nj, nk) = (region.hi[1] - region.lo[1], region.hi[2] - region.lo[2]);
    // Rows write disjoint prim cells, so sharing `raw` across tasks is
    // sound.
    let task = |row: usize| {
        let (j, k) = (region.lo[1] + row % nj, region.lo[2] + row / nj);
        if let Err((i, err)) = recover_row(scheme, u, &raw, region.lo[0], region.hi[0], j, k, iters)
        {
            first.lock().get_or_insert(SolverError::Con2Prim {
                cell: (i, j, k),
                err,
            });
        }
    };
    match pool {
        Some(pool) if nj * nk > 1 => pool.par_for(nj * nk, 1, &task),
        _ => (0..nj * nk).for_each(task),
    }
    first.into_inner().map_or(Ok(()), Err)
}

/// [`recover_region`] that repairs instead of failing: cells whose strict
/// recovery fails are collected and repaired by the cascade in a second
/// pass (so tier 2 can read the successfully recovered neighbors), and
/// nothing aborts the run. Tier 2 averages neighbors inside `region`
/// only — cells outside it were not recovered by this call. Repairs that
/// synthesize a new state (tiers 2–3) also rewrite the conserved field to
/// keep `u` and `prim` consistent.
pub fn recover_region_resilient(
    scheme: &Scheme,
    u: &mut Field,
    prim: &mut Field,
    region: &Region,
    stats: &mut RecoveryStats,
    iters: Option<&Histogram>,
) {
    let raw = RawPrim::new(u, prim, region);
    let mut failed = Vec::new();
    for k in region.lo[2]..region.hi[2] {
        for j in region.lo[1]..region.hi[1] {
            let mut i = region.lo[0];
            while let Err((bad, _)) = recover_row(scheme, u, &raw, i, region.hi[0], j, k, iters) {
                failed.push((bad, j, k));
                i = bad + 1;
            }
        }
    }
    if failed.is_empty() {
        return;
    }
    let bad: std::collections::HashSet<(usize, usize, usize)> = failed.iter().copied().collect();
    for &(i, j, k) in &failed {
        cascade_cell(scheme, u, prim, region, i, j, k, &bad, stats);
    }
}

/// The one recovery loop: cells `[i0, i1)` of the x-row at `(j, k)`, in
/// blocks of [`C2P_LANES`]. A block is gathered from the component-major
/// row, iterated in lock-step by [`cons_to_prim_lanes`], then walked in
/// cell order: a lane the main line retired takes its result, any other
/// is solved by the scalar [`cons_to_prim_counted`] from the gathered
/// copy. Stops at the first cell whose strict root solve fails and
/// returns it; every cell before it is written, none after it.
///
/// Every root solve is *cold-started* from a deterministic seed derived
/// from the conserved state alone (never from the previous pressure):
/// warm starts land on slightly different iterates, which would break
/// the bit-identity guarantees between the serial, gang-parallel,
/// distributed, and device execution paths — and it is what makes the
/// primitives of a copied conserved state the copy of the primitives, so
/// that ghost zones can carry primitives instead of being recovered. It
/// is also why a straggler's scalar re-solve, and so the whole row, does
/// not depend on where the blocks fall.
///
/// `inline(never)`: whole-field and interior recovery, strict and
/// cascading, serial and gang all run this one body, and the solve reads
/// its state from the gathered block, never from a `Cons` assembled on
/// the stack the instruction before (a 16-byte load over two 8-byte
/// stores cannot be store-forwarded and serialises consecutive solves;
/// DESIGN "Hot-loop data layout").
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn recover_row(
    scheme: &Scheme,
    u: &Field,
    prim: &RawPrim,
    i0: usize,
    i1: usize,
    j: usize,
    k: usize,
    iters: Option<&Histogram>,
) -> Result<(), (usize, Con2PrimError)> {
    let n = prim.comp_stride;
    let ur = u.raw();
    let row = u.geom().idx(0, j, k);
    let mut us = [Cons::ZERO; C2P_LANES];
    let mut fast = [None; C2P_LANES];
    let mut evals = [0u32; C2P_LANES];
    for b0 in (i0..i1).step_by(C2P_LANES) {
        let len = (i1 - b0).min(C2P_LANES);
        for (l, c) in us[..len].iter_mut().enumerate() {
            *c = cons_at(ur, n, row + b0 + l);
        }
        cons_to_prim_lanes(&scheme.eos, &scheme.c2p, &us[..len], &mut fast[..len]);
        let mut failed = None;
        for (l, lane) in fast[..len].iter().enumerate() {
            // A cold start is a function of `U` alone: the scalar solve of
            // a lane the main line left is that lane's answer.
            let scalar = || cons_to_prim_counted(&scheme.eos, &us[l], None, &scheme.c2p);
            match lane.map_or_else(scalar, Ok) {
                Ok((w, e)) => {
                    evals[l] = e;
                    let ix = row + b0 + l;
                    for (c, v) in [w.rho, w.vel[0], w.vel[1], w.vel[2], w.p]
                        .into_iter()
                        .enumerate()
                    {
                        // SAFETY: `RawPrim::new` checked that the region's
                        // cells lie inside the five-component storage;
                        // concurrent callers hold disjoint rows.
                        unsafe { *prim.ptr.add(c * n + ix) = v };
                    }
                }
                Err(err) => {
                    failed = Some((b0 + l, err));
                    break;
                }
            }
        }
        if let Some(h) = iters {
            // One atomic triple per distinct count, not per cell.
            let solved = &mut evals[..failed.map_or(len, |(i, _)| i - b0)];
            solved.sort_unstable();
            for run in solved.chunk_by(|a, b| a == b) {
                let (e, cells) = (run[0] as u64, run.len() as u64);
                h.record_batch(cells, e * cells, e);
            }
        }
        if let Some(bad) = failed {
            return Err(bad);
        }
    }
    Ok(())
}

/// The conserved 5-vector at flat cell index `ix` of a component-major
/// raw slice with `n` cells per component ([`Field::get_cons`] without
/// the index arithmetic, for loops that walk contiguous rows).
#[inline]
fn cons_at(raw: &[f64], n: usize, ix: usize) -> Cons {
    Cons::from_array([
        raw[ix],
        raw[n + ix],
        raw[2 * n + ix],
        raw[3 * n + ix],
        raw[4 * n + ix],
    ])
}

/// Raw pointer to primitive storage for row-disjoint recovery.
struct RawPrim {
    ptr: *mut f64,
    comp_stride: usize,
}

impl RawPrim {
    /// Borrow `prim`'s storage for a recovery of `u` over `region`.
    ///
    /// # Panics
    /// Panics unless `prim` has `u`'s geometry and five components and
    /// `region` lies inside it — the conditions [`recover_row`]'s
    /// unchecked writes rely on.
    fn new(u: &Field, prim: &mut Field, region: &Region) -> RawPrim {
        let geom = u.geom();
        assert_eq!(geom, prim.geom(), "prim and cons geometries differ");
        assert!(prim.ncomp() >= 5, "primitive field needs five components");
        assert!(
            (0..3).all(|d| region.lo[d] <= region.hi[d] && region.hi[d] <= geom.ntot(d)),
            "region {region:?} outside the patch"
        );
        RawPrim {
            ptr: prim.raw_mut().as_mut_ptr(),
            comp_stride: geom.len(),
        }
    }
}

// SAFETY: the pointer is only written through `recover_row`, whose
// callers hand each thread disjoint rows of storage that outlives them.
unsafe impl Send for RawPrim {}
unsafe impl Sync for RawPrim {}

/// Repair one unrecoverable cell through the cascade tiers.
#[allow(clippy::too_many_arguments)]
fn cascade_cell(
    scheme: &Scheme,
    u: &mut Field,
    prim: &mut Field,
    region: &Region,
    i: usize,
    j: usize,
    k: usize,
    bad: &std::collections::HashSet<(usize, usize, usize)>,
    stats: &mut RecoveryStats,
) {
    // Tier 1: the state may be merely stiff, not lost — retry the root
    // solve with relaxed tolerances and widened iteration budgets. The
    // conserved state is untouched.
    let cons = u.get_cons(i, j, k);
    if cons.is_finite() {
        if let Ok(w) = cons_to_prim(&scheme.eos, &cons, None, &scheme.c2p.relaxed()) {
            set_prim(prim, i, j, k, &w);
            stats.relaxed_tol += 1;
            return;
        }
    }
    // Tier 2: synthesize the cell from the average of its recoverable
    // face neighbors, then overwrite both prim and cons so the repair
    // persists (locally non-conservative, like any floor).
    if let Some(w) = neighbor_average(region, prim, i, j, k, bad) {
        let w = scheme.sanitize(w);
        set_prim(prim, i, j, k, &w);
        u.set_cons(i, j, k, w.to_cons(&scheme.eos));
        stats.neighbor_avg += 1;
        return;
    }
    // Tier 3: atmosphere floor — the cell is surrounded by failures.
    let w = Prim::at_rest(
        scheme.c2p.rho_floor.max(1e-300),
        scheme.c2p.p_floor.max(1e-300),
    );
    set_prim(prim, i, j, k, &w);
    u.set_cons(i, j, k, w.to_cons(&scheme.eos));
    stats.atmosphere += 1;
}

/// Average of the physical primitives among a cell's face neighbors
/// inside `region`, skipping neighbors that themselves failed recovery
/// this pass.
fn neighbor_average(
    region: &Region,
    prim: &Field,
    i: usize,
    j: usize,
    k: usize,
    bad: &std::collections::HashSet<(usize, usize, usize)>,
) -> Option<Prim> {
    let cell = [i, j, k];
    let mut sum = Prim {
        rho: 0.0,
        vel: [0.0; 3],
        p: 0.0,
    };
    let mut count = 0usize;
    for d in 0..3 {
        for c in [cell[d].wrapping_sub(1), cell[d] + 1] {
            if c < region.lo[d] || c >= region.hi[d] {
                continue;
            }
            let mut nb = cell;
            nb[d] = c;
            if bad.contains(&(nb[0], nb[1], nb[2])) {
                continue;
            }
            let w = prim_at(prim, nb[0], nb[1], nb[2]);
            let finite =
                w.rho.is_finite() && w.p.is_finite() && w.vel.iter().all(|v| v.is_finite());
            if !finite || !w.is_physical() {
                continue;
            }
            sum.rho += w.rho;
            sum.p += w.p;
            for a in 0..3 {
                sum.vel[a] += w.vel[a];
            }
            count += 1;
        }
    }
    if count == 0 {
        return None;
    }
    let inv = 1.0 / count as f64;
    sum.rho *= inv;
    sum.p *= inv;
    for a in 0..3 {
        sum.vel[a] *= inv;
    }
    Some(sum)
}

/// Conserved-variable limiter applied after each stage update.
///
/// Evolved conserved states can leave the physical region near vacuum
/// cores and strong rarefactions (negative τ, `|S|² > τ(τ+2D)`), after
/// which no primitive state exists and the recovery rightly fails. This
/// limiter — the standard production safeguard — restores admissibility
/// with minimal intervention:
///
/// * `D ≥ rho_floor`, `τ ≥ p_floor`,
/// * `|S|² ≤ (1−ε) τ(τ+2D)` (the `p ≥ 0, |v| < 1` admissibility bound),
///   enforced by rescaling the momentum.
///
/// Returns the number of cells touched (a diagnostic: nonzero counts mean
/// the scheme is running at its robustness margin, and conservation is
/// locally violated by the floors).
pub fn apply_conserved_floors(u: &mut Field, params: &Con2PrimParams) -> usize {
    let geom = *u.geom();
    let n = geom.len();
    let (ngx, ngy, ngz) = (geom.ng_of(0), geom.ng_of(1), geom.ng_of(2));
    let nx = geom.n[0];
    // Admissibility (p ≥ 0, |v| < 1) requires |S|² ≤ τ(τ+2D); but
    // rescaling exactly onto that boundary leaves |v| → 1 states
    // (W can reach (τ+D)/D ≫ 1) that destabilize their neighbors.
    // Cap the recovered Lorentz factor instead: with p ≥ 0,
    // |v| = |S|/(τ+D+p) ≤ |S|/(τ+D), so |S| ≤ v_cap (τ+D) bounds W.
    let v_cap2 = 1.0 - 1.0 / (params.w_cap * params.w_cap);
    let ur = u.raw_mut();
    let mut touched = 0;
    // Contiguous interior x-rows of the raw component slices.
    for k in ngz..ngz + geom.n[2] {
        for j in ngy..ngy + geom.n[1] {
            let base = geom.idx(ngx, j, k);
            for ix in base..base + nx {
                let mut c = cons_at(ur, n, ix);
                if !c.is_finite() {
                    // Let the recovery report non-finite states; flooring
                    // NaNs would mask genuine scheme failures.
                    continue;
                }
                let mut dirty = false;
                if c.d < params.rho_floor {
                    c.d = params.rho_floor;
                    dirty = true;
                }
                if c.tau < params.p_floor {
                    c.tau = params.p_floor;
                    dirty = true;
                }
                let e0 = c.tau + c.d;
                let s2_max = ((1.0 - 1e-12) * c.tau * (c.tau + 2.0 * c.d)).min(v_cap2 * e0 * e0);
                let s2 = c.ssq();
                if s2 > s2_max {
                    let scale = (s2_max / s2).sqrt();
                    for sc in &mut c.s {
                        *sc *= scale;
                    }
                    dirty = true;
                }
                if dirty {
                    for (comp, v) in c.to_array().into_iter().enumerate() {
                        ur[comp * n + ix] = v;
                    }
                    touched += 1;
                }
            }
        }
    }
    touched
}

/// Largest stable time step on a patch under the unsplit method-of-lines
/// CFL condition: `dt = cfl / max_cells Σ_d (λ_max,d / dx_d)`.
///
/// The per-dimension bound `min_d(dx_d / λ_d)` familiar from dimensionally
/// *split* schemes is not sufficient here: the residual sums flux
/// differences from every dimension in one stage, so the signal speeds
/// add. In 3D the difference is up to a factor of three — using the split
/// bound drives strong multi-dimensional blasts unstable.
pub fn max_dt(scheme: &Scheme, prim: &Field, cfl: f64) -> f64 {
    let geom = prim.geom();
    let mut max_rate = 0.0f64;
    for (i, j, k) in geom.interior_iter() {
        max_rate = max_rate.max(cell_rate(scheme, geom, &prim_at(prim, i, j, k)));
    }
    cfl / max_rate.max(1e-30)
}

/// Running maximum of the per-cell CFL rate `Σ_d max(|λ−|,|λ+|)/Δx_d`,
/// fed by the fused wave-speed scan of a residual sweep
/// ([`crate::step::accumulate_rhs_region_scan`]) — the quantity
/// [`max_dt`] maximizes, gathered while the cell pencils are already
/// resident instead of in a pass of its own.
///
/// Rates are non-negative (or NaN, which is skipped exactly as
/// `f64::max` skips it in [`max_dt`]), so their IEEE bit patterns order
/// like the values and one atomic integer max reduces the gang's pencil
/// tasks. A maximum does not depend on the order of its operands:
/// [`WaveScan::dt`] reproduces [`max_dt`] bitwise however the sweep is
/// tiled or scheduled.
#[derive(Debug, Default)]
pub struct WaveScan(AtomicU64);

impl WaveScan {
    /// An empty scan (maximum rate 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every rate seen; call before the first region of a scan.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Fold one rate, or the maximum over any subset of cells, in.
    #[inline]
    pub fn observe(&self, rate: f64) {
        // The NaN-skipping max against +0.0 leaves a non-negative,
        // non-NaN value, for which bit order is numeric order.
        // `Relaxed`: the maximum publishes no other data, and readers
        // are ordered after the sweep by the pool's join.
        self.0
            .fetch_max(0.0f64.max(rate).to_bits(), Ordering::Relaxed);
    }

    /// Largest rate observed since the last [`WaveScan::reset`].
    pub fn max_rate(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// The stable Δt at `cfl`: [`max_dt`]'s `cfl / max(rate, 1e-30)`.
    pub fn dt(&self, cfl: f64) -> f64 {
        cfl / self.max_rate().max(1e-30)
    }
}

/// The CFL rate of one cell, `Σ_d max(|λ−|,|λ+|)/Δx_d` over the active
/// dimensions in ascending order — the one expression both [`max_dt`]
/// and the fused scan evaluate, so the two agree bitwise.
#[inline]
pub(crate) fn cell_rate(scheme: &Scheme, geom: &PatchGeom, w: &Prim) -> f64 {
    let mut rate = 0.0;
    for d in 0..3 {
        if !geom.active(d) {
            continue;
        }
        let dir = rhrsc_srhd::Dir::ALL[d];
        let (lm, lp) = rhrsc_srhd::flux::signal_speeds(&scheme.eos, w, dir);
        rate += lm.abs().max(lp.abs()) / geom.dx[d];
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_grid::PatchGeom;

    fn scheme() -> Scheme {
        Scheme::default_with_gamma(5.0 / 3.0)
    }

    #[test]
    fn init_then_recover_roundtrip() {
        let s = scheme();
        let geom = PatchGeom::line(16, 0.0, 1.0, 3);
        let ic = |x: [f64; 3]| Prim::new_1d(1.0 + 0.5 * (x[0] * 6.0).sin(), 0.3, 2.0);
        let u = init_cons(geom, &s.eos, &ic);
        let mut prim = Field::new(geom, 5);
        recover_prims(&s, &u, &mut prim).unwrap();
        for k in 0..geom.ntot(2) {
            for i in 0..geom.ntot(0) {
                let w = prim_at(&prim, i, 0, k);
                let expected = ic(geom.center(i, 0, k));
                assert!((w.rho - expected.rho).abs() < 1e-9, "cell {i}");
                assert!((w.vel[0] - 0.3).abs() < 1e-9, "cell {i}");
                assert!((w.p - 2.0).abs() < 1e-9, "cell {i}");
            }
        }
    }

    #[test]
    fn sanitize_restores_physicality() {
        let s = scheme();
        let bad = Prim {
            rho: -1.0,
            vel: [0.9, 0.9, 0.9],
            p: -2.0,
        };
        let fixed = s.sanitize(bad);
        assert!(fixed.is_physical());
        // Velocity direction is preserved.
        assert!(fixed.vel[0] > 0.0 && (fixed.vel[0] - fixed.vel[1]).abs() < 1e-12);
    }

    #[test]
    fn sanitize_is_identity_on_physical_states() {
        let s = scheme();
        let w = Prim::new_1d(1.0, 0.5, 2.0);
        assert_eq!(s.sanitize(w), w);
    }

    #[test]
    fn max_dt_scales_with_resolution() {
        let s = scheme();
        let dt_of = |n: usize| {
            let geom = PatchGeom::line(n, 0.0, 1.0, 3);
            let u = init_cons(geom, &s.eos, &|_| Prim::at_rest(1.0, 1.0));
            let mut prim = Field::new(geom, 5);
            recover_prims(&s, &u, &mut prim).unwrap();
            max_dt(&s, &prim, 0.5)
        };
        let d64 = dt_of(64);
        let d128 = dt_of(128);
        assert!((d64 / d128 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_dt_subluminal_bound() {
        // Even ultrarelativistic flow cannot demand dt below cfl*dx/c.
        let s = scheme();
        let geom = PatchGeom::line(8, 0.0, 1.0, 3);
        let u = init_cons(geom, &s.eos, &|_| Prim::new_1d(1.0, 0.999999, 1e3));
        let mut prim = Field::new(geom, 5);
        recover_prims(&s, &u, &mut prim).unwrap();
        let dt = max_dt(&s, &prim, 1.0);
        let dx = geom.dx[0];
        assert!(dt >= dx * 0.999, "dt {dt} vs dx {dx}");
    }

    #[test]
    fn conserved_floors_are_noop_on_healthy_states() {
        let s = scheme();
        let geom = PatchGeom::line(16, 0.0, 1.0, 3);
        let mut u = init_cons(geom, &s.eos, &|x| {
            Prim::new_1d(1.0 + 0.5 * (x[0] * 7.0).sin(), 0.5, 2.0)
        });
        let before = u.clone();
        assert_eq!(apply_conserved_floors(&mut u, &s.c2p), 0);
        assert_eq!(u.raw(), before.raw());
    }

    #[test]
    fn conserved_floors_repair_inadmissible_states() {
        let s = scheme();
        let geom = PatchGeom::line(4, 0.0, 1.0, 2);
        let mut u = init_cons(geom, &s.eos, &|_| Prim::at_rest(1.0, 1.0));
        // Poison: negative tau, excessive momentum, sub-floor density.
        u.set_cons(
            2,
            0,
            0,
            rhrsc_srhd::Cons {
                d: 1.0,
                s: [5.0, 0.0, 0.0],
                tau: -0.5,
            },
        );
        u.set_cons(
            3,
            0,
            0,
            rhrsc_srhd::Cons {
                d: 1e-20,
                s: [0.0; 3],
                tau: 1.0,
            },
        );
        let touched = apply_conserved_floors(&mut u, &s.c2p);
        assert_eq!(touched, 2);
        // Every interior state must now recover.
        let mut prim = Field::new(geom, 5);
        recover_region(&s, &u, &mut prim, &Region::interior(&geom), None, None)
            .unwrap_or_else(|e| panic!("interior still bad: {e}"));
    }

    #[test]
    fn conserved_floors_leave_nan_for_recovery_to_report() {
        let s = scheme();
        let geom = PatchGeom::line(4, 0.0, 1.0, 2);
        let mut u = init_cons(geom, &s.eos, &|_| Prim::at_rest(1.0, 1.0));
        u.set(0, 3, 0, 0, f64::NAN);
        apply_conserved_floors(&mut u, &s.c2p);
        assert!(
            u.at(0, 3, 0, 0).is_nan(),
            "NaN must not be silently floored"
        );
    }

    #[test]
    fn recovery_error_carries_cell() {
        let s = scheme();
        let geom = PatchGeom::line(4, 0.0, 1.0, 2);
        let mut u = init_cons(geom, &s.eos, &|_| Prim::at_rest(1.0, 1.0));
        // Poison one interior cell.
        u.set(0, 3, 0, 0, f64::NAN);
        let mut prim = Field::new(geom, 5);
        let err = recover_prims(&s, &u, &mut prim).unwrap_err();
        match err {
            SolverError::Con2Prim { cell, .. } => assert_eq!(cell, (3, 0, 0)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cascade_tier1_relaxed_tolerances() {
        // Starve the strict iteration budgets so every cell fails tier 0;
        // the cascade must recover all of them via relaxed tolerances
        // without touching the conserved state.
        let mut s = scheme();
        s.c2p.max_newton = 0;
        s.c2p.max_bisect = 0;
        let geom = PatchGeom::line(8, 0.0, 1.0, 2);
        let mut u = init_cons(geom, &s.eos, &|_| Prim::new_1d(1.0, 0.9, 0.1));
        let before = u.clone();
        let mut prim = Field::new(geom, 5);
        assert!(recover_prims(&s, &u, &mut prim).is_err());
        let mut stats = RecoveryStats::default();
        recover_region_resilient(
            &s,
            &mut u,
            &mut prim,
            &Region::whole(&geom),
            &mut stats,
            None,
        );
        assert_eq!(stats.relaxed_tol, geom.len() as u64);
        assert_eq!(stats.neighbor_avg, 0);
        assert_eq!(stats.atmosphere, 0);
        assert_eq!(u.raw(), before.raw(), "tier 1 must not modify cons");
        for (i, j, k) in geom.interior_iter() {
            let w = prim_at(&prim, i, j, k);
            assert!((w.rho - 1.0).abs() < 1e-3, "rho at {i}: {}", w.rho);
            assert!((w.p - 0.1).abs() < 1e-3, "p at {i}: {}", w.p);
        }
    }

    #[test]
    fn cascade_tier2_neighbor_average() {
        let s = scheme();
        let geom = PatchGeom::line(8, 0.0, 1.0, 2);
        let mut u = init_cons(geom, &s.eos, &|x| Prim::new_1d(1.0 + x[0], 0.2, 2.0));
        // A NaN cell fails even relaxed recovery; its neighbors are fine.
        u.set(0, 5, 0, 0, f64::NAN);
        let mut prim = Field::new(geom, 5);
        let mut stats = RecoveryStats::default();
        recover_region_resilient(
            &s,
            &mut u,
            &mut prim,
            &Region::whole(&geom),
            &mut stats,
            None,
        );
        assert_eq!(stats.neighbor_avg, 1);
        assert_eq!(stats.relaxed_tol, 0);
        assert_eq!(stats.atmosphere, 0);
        // The repaired cell interpolates its neighbors and the conserved
        // state was rewritten to something recoverable.
        let w = prim_at(&prim, 5, 0, 0);
        let wl = prim_at(&prim, 4, 0, 0);
        let wr = prim_at(&prim, 6, 0, 0);
        assert!((w.rho - 0.5 * (wl.rho + wr.rho)).abs() < 1e-12);
        assert!(u.get_cons(5, 0, 0).is_finite());
        let cell = Region {
            lo: [5, 0, 0],
            hi: [6, 1, 1],
        };
        assert!(recover_region(&s, &u, &mut prim, &cell, None, None).is_ok());
    }

    #[test]
    fn cascade_tier3_atmosphere() {
        let s = scheme();
        let geom = PatchGeom::line(4, 0.0, 1.0, 2);
        let mut u = init_cons(geom, &s.eos, &|_| Prim::at_rest(1.0, 1.0));
        // Poison every cell (ghosts included): no neighbor is usable, so
        // the cascade bottoms out at the atmosphere floor.
        for v in u.raw_mut() {
            *v = f64::NAN;
        }
        let mut prim = Field::new(geom, 5);
        let mut stats = RecoveryStats::default();
        recover_region_resilient(
            &s,
            &mut u,
            &mut prim,
            &Region::whole(&geom),
            &mut stats,
            None,
        );
        assert_eq!(stats.atmosphere, geom.len() as u64);
        for (i, j, k) in geom.interior_iter() {
            let w = prim_at(&prim, i, j, k);
            assert_eq!(w.vel, [0.0; 3]);
            assert!(w.rho > 0.0 && w.p > 0.0);
            assert!(u.get_cons(i, j, k).is_finite());
        }
    }

    #[test]
    fn cascade_noop_on_healthy_field() {
        let s = scheme();
        let geom = PatchGeom::line(16, 0.0, 1.0, 3);
        let mut u = init_cons(geom, &s.eos, &|x| {
            Prim::new_1d(1.0 + 0.5 * (x[0] * 6.0).sin(), 0.3, 2.0)
        });
        let mut prim_strict = Field::new(geom, 5);
        recover_prims(&s, &u, &mut prim_strict).unwrap();
        let before = u.clone();
        let mut prim = Field::new(geom, 5);
        let mut stats = RecoveryStats::default();
        recover_region_resilient(
            &s,
            &mut u,
            &mut prim,
            &Region::whole(&geom),
            &mut stats,
            None,
        );
        assert_eq!(stats, RecoveryStats::default());
        assert_eq!(u.raw(), before.raw());
        assert_eq!(
            prim.raw(),
            prim_strict.raw(),
            "healthy path is bit-identical"
        );
    }
}
