//! Block-structured adaptive mesh refinement (AMR) for 1D problems:
//! multiple refinement levels at ratio 2 with Berger–Oliger time
//! subcycling, conservative refluxing, and dynamic regridding.
//!
//! The *hierarchy*: level 0 is a single patch covering the domain; every
//! level `ℓ ≥ 1` is a set of disjoint rectangular patches at cell size
//! `Δx₀/2^ℓ`, **properly nested** inside level `ℓ−1` with at least two
//! parent cells of clearance (`NEST_MARGIN`), built from the
//! [`crate::refine`] operators. This is the one refinement solver: static
//! refinement (a fixed window of fine cells) is the same hierarchy handed
//! its layout by [`AmrSolver::init_static`] and never regridded
//! ([`AmrConfig::regrid_interval`] `= 0`).
//!
//! The moving parts:
//!
//! * **Error estimation** — a Löhner-style normalized second-difference
//!   indicator on the conserved density `D` and energy `τ` flags cells
//!   whose local curvature exceeds [`AmrConfig::threshold`].
//! * **Clustering** — flagged cells are dilated by [`AmrConfig::buffer`]
//!   cells, intersected with the properly-nested admissible region, and
//!   signature-clustered into maximal runs (runs closer than `MERGE_GAP`
//!   parent cells merge; runs grow to `MIN_SIZE`).
//! * **Subcycling** — level `ℓ` advances with `Δt/2^ℓ`; each child level
//!   takes two substeps per parent step with ghost data prolonged from a
//!   *time-interpolated* parent state (the interpolation parameter is
//!   propagated up the ancestor chain, so a level-2 stage reads level-1
//!   and level-0 data at the same physical time).
//! * **Refluxing** — during a parent step the parent-side flux at every
//!   coarse–fine interface is accumulated with the SSP-RK *effective*
//!   weights; the child accumulates its own boundary fluxes over both
//!   substeps with half weights. After restriction the uncovered parent
//!   neighbor is corrected by the difference, which makes the composite
//!   `D`/`S`/`τ` integrals exact to round-off on periodic domains
//!   (asserted by tests and by the property suite).
//! * **Regridding** — every [`AmrConfig::regrid_interval`] coarse steps
//!   the hierarchy is rebuilt coarse-to-fine; new patches copy state from
//!   the old hierarchy where it overlaps and conservatively prolong from
//!   the parent elsewhere. Because patches always cover whole parent
//!   cells, the transfer preserves the composite integrals exactly.
//!
//! The level step does each piece of work once:
//!
//! * **The sync serves stage 0.** The sync before a step
//!   ([`AmrSolver::stable_dt`]) fills every level's ghosts from the
//!   current state and recovers its primitives. Stage 0 of a level's first
//!   substep would build the same again (its ancestors lerp at θ = 0, which
//!   reproduces their state bit for bit), so it takes them as they are.
//!   Whatever moves a state or a layout clears the mark — regrid, `init`,
//!   `restore`, the distributed rollback — and so does every exit from
//!   [`AmrSolver::step`].
//! * **Ancestors lerp only what prolongation reads**: the cells of their
//!   children's ghost stencils ([`crate::refine::ghost_stencils`], which
//!   the prolongation itself is written against), and on level 0 the edge
//!   cells its boundary conditions copy.
//! * **One kernel call per level and stage.** The stencil windows of a
//!   level's owned patches are packed end to end into one pencil (a
//!   one-lane slab of [`crate::step`]) and swept by one
//!   `reconstruct_and_flux` call; the interfaces between two windows are
//!   computed and dropped.
//! * **Regrid recycles storage.** New patches draw zeroed buffers from
//!   retired ones, and the flag, cluster and level vectors are kept.
//!
//! Metrics (`amr.regrids`, `amr.updates.l<ℓ>`, `amr.reflux.corrections`,
//! the `amr.patches` histogram) and trace spans
//! (`amr.regrid`, `amr.reflux`) thread through the PR 2/PR 4 layers via
//! [`AmrSolver::set_metrics`] / [`AmrSolver::set_trace`].

use crate::integrate::{land_dt, RkOrder};
use crate::refine::{ghost_stencils, prolong_ghosts_from, prolong_span, restrict_onto, rk_tables};
use crate::scheme::{
    apply_conserved_floors, combine_floors, init_cons, max_dt, prim_at, recover_prims, Geometry,
    Scheme, SolverError, PRIM_P, PRIM_RHO, PRIM_VX, PRIM_VY, PRIM_VZ,
};
use crate::step::{reconstruct_and_flux, with_pencil_scratch};
use rhrsc_grid::{fill_ghosts, BcSet, Field, PatchGeom};
use rhrsc_io::checkpoint::{AmrCheckpoint, AmrPatchRecord};
use rhrsc_runtime::trace::{Tracer, Track};
use rhrsc_runtime::{Counter, Registry};
use rhrsc_srhd::{Cons, Dir, Prim, NCOMP};
use std::ops::Range;
use std::sync::Arc;

/// Tuning knobs of the AMR hierarchy.
#[derive(Debug, Clone)]
pub struct AmrConfig {
    /// Total number of levels including the base grid (1 = uniform).
    pub max_levels: usize,
    /// Löhner indicator threshold above which a cell is flagged.
    pub threshold: f64,
    /// Dilation radius around flagged cells, in parent-level cells.
    pub buffer: usize,
    /// Coarse steps between regrids (0 disables regridding).
    pub regrid_interval: usize,
}

/// Minimum patch width in parent-level cells (small runs grow).
const MIN_SIZE: usize = 4;
/// Runs separated by fewer than this many parent cells merge.
const MERGE_GAP: usize = 4;
/// Proper-nesting clearance: parent interior cells required between a
/// child patch and the edge of its parent's region. At least 2, so that
/// reflux targets are uncovered and prolongation stencils stay inside the
/// parent patch (plus its own filled ghosts).
const NEST_MARGIN: usize = 2;

impl Default for AmrConfig {
    fn default() -> Self {
        AmrConfig {
            max_levels: 3,
            threshold: 0.35,
            buffer: 2,
            regrid_interval: 4,
        }
    }
}

/// One rectangular patch of a refinement level. `lo` and `n` index the
/// level's *global* cell space (cell `g` spans
/// `[x0 + g·Δxℓ, x0 + (g+1)·Δxℓ]`); `lo` is always even for `ℓ ≥ 1`, so a
/// patch covers whole parent cells.
pub(crate) struct Patch {
    pub(crate) lo: usize,
    pub(crate) n: usize,
    /// Index of the parent patch in `levels[ℓ-1]` (0 for level 0).
    pub(crate) parent_idx: usize,
    pub(crate) u: Field,
    pub(crate) prim: Field,
    pub(crate) rhs: Field,
    /// State at the start of the current step: the RK stages' `u0` and
    /// the children's lerp anchor.
    pub(crate) base: Field,
    /// Scratch for time-interpolated ghost prolongation.
    pub(crate) lerp: Field,
    pub(crate) flux: Vec<Cons>,
    /// Accumulated own-boundary effective fluxes toward the parent.
    pub(crate) acc: [Cons; 2],
    /// Parent-side accumulated effective fluxes at this patch's faces.
    pub(crate) acc_parent: [Cons; 2],
}

/// What regrids reuse instead of allocating: retired patches' buffers,
/// which [`AmrSolver::make_patch`] draws again zeroed, and the flag,
/// cluster and level vectors of [`AmrSolver::rebuild_level`].
#[derive(Default)]
struct Recycle {
    fields: Vec<Vec<f64>>,
    fluxes: Vec<Vec<Cons>>,
    flags: Vec<bool>,
    buffered: Vec<bool>,
    runs: Vec<(usize, usize)>,
    patches: Vec<Patch>,
}

/// A zeroed buffer of `len` elements from `pool`: the smallest one that
/// holds them, else the largest (grown), else a new one.
fn draw<T: Clone>(pool: &mut Vec<Vec<T>>, len: usize, zero: T) -> Vec<T> {
    let pick = (0..pool.len()).min_by_key(|&i| match pool[i].capacity() {
        cap if cap >= len => (false, cap),
        cap => (true, usize::MAX - cap),
    });
    let mut v = pick.map_or_else(Vec::new, |i| pool.swap_remove(i));
    v.clear();
    v.resize(len, zero);
    v
}

/// How a level step reaches the patches this process does not compute.
///
/// [`AmrSolver::step_level`] and the sync pass walk every level the same
/// way whether a patch is local or remote: they compute the patches they
/// [`own`](Self::owns) and call the three exchange hooks at the points
/// where off-process data is needed (by default: nowhere). The serial
/// solver's [`Serial`] coupling owns everything and exchanges nothing;
/// the distributed driver's link ([`crate::amr_dist`]) ships interiors
/// between owners.
pub(crate) trait LevelCoupling {
    /// Whether this process computes `levels[l][i]`.
    fn owns(&self, l: usize, i: usize) -> bool;
    /// Before level `l`'s children substep: make `l`'s step-start and
    /// current interiors available to the owners of its descendants.
    fn descend(&mut self, _amr: &mut AmrSolver, _l: usize) -> Result<(), SolverError> {
        Ok(())
    }
    /// After level `l`'s two substeps: make its interiors and boundary
    /// flux accumulators available to the owners of its parents.
    fn reflux(&mut self, _amr: &mut AmrSolver, _l: usize) -> Result<(), SolverError> {
        Ok(())
    }
    /// At a sync point: make level `l`'s current interiors available to
    /// the owners of its descendants.
    fn sync(&mut self, _amr: &mut AmrSolver, _l: usize) -> Result<(), SolverError> {
        Ok(())
    }
    /// A local failure inside a level step or a sync: the serial coupling
    /// ends the step with it; a distributed one keeps it for later and
    /// lets the step run its full communication pattern, so that no peer
    /// waits on a message this process would never send.
    fn fail(&mut self, e: SolverError) -> Result<(), SolverError> {
        Err(e)
    }
}

/// The single-process coupling: every patch is local.
struct Serial;

impl LevelCoupling for Serial {
    fn owns(&self, _l: usize, _i: usize) -> bool {
        true
    }
}

/// Multi-level adaptive-mesh solver for 1D Cartesian problems.
pub struct AmrSolver {
    pub(crate) scheme: Scheme,
    pub(crate) bcs: BcSet,
    pub(crate) rk: RkOrder,
    pub(crate) cfg: AmrConfig,
    x0: f64,
    dx0: f64,
    pub(crate) n0: usize,
    pub(crate) ng: usize,
    /// `levels[0]` holds exactly one patch covering the domain; finer
    /// levels may be empty.
    pub(crate) levels: Vec<Vec<Patch>>,
    /// Start position of each level's current step within its parent's
    /// step (0.0 or 0.5), for the ghost time-interpolation chain.
    pub(crate) frac: Vec<f64>,
    pub(crate) steps: u64,
    /// Interior-cell stage updates per level.
    pub(crate) updates: Vec<u64>,
    /// Per-level update counts already flushed to the metrics registry.
    flushed: Vec<u64>,
    /// `amr.updates.l<ℓ>`, resolved once by `set_metrics`.
    update_counters: Vec<Arc<Counter>>,
    /// `synced[ℓ]`: level ℓ's ghosts and owned primitives are the ones the
    /// last sync built from the current state, which stage 0 of its first
    /// substep would build again.
    synced: Vec<bool>,
    regrids: u64,
    pub(crate) reflux_corrections: u64,
    metrics: Option<Arc<Registry>>,
    trace: Option<(Arc<Tracer>, Arc<Track>)>,
    recycle: Recycle,
}

impl AmrSolver {
    /// Create a solver over `[x0, x1]` with `n0` base cells. Call
    /// [`AmrSolver::init`] before stepping.
    pub fn new(
        scheme: Scheme,
        bcs: BcSet,
        rk: RkOrder,
        n0: usize,
        x0: f64,
        x1: f64,
        cfg: AmrConfig,
    ) -> Self {
        assert_eq!(
            scheme.geometry,
            Geometry::Cartesian,
            "AMR currently supports Cartesian geometry"
        );
        assert!(cfg.max_levels >= 1, "need at least the base level");
        let ng = scheme.required_ghosts();
        let dx0 = (x1 - x0) / n0 as f64;
        assert!(n0 > 2 * (NEST_MARGIN + MIN_SIZE), "base grid too small");
        let max_levels = cfg.max_levels;
        AmrSolver {
            scheme,
            bcs,
            rk,
            cfg,
            x0,
            dx0,
            n0,
            ng,
            levels: (0..max_levels).map(|_| Vec::new()).collect(),
            frac: vec![0.0; max_levels],
            steps: 0,
            updates: vec![0; max_levels],
            flushed: vec![0; max_levels],
            update_counters: Vec::new(),
            synced: vec![false; max_levels],
            regrids: 0,
            reflux_corrections: 0,
            metrics: None,
            trace: None,
            recycle: Recycle::default(),
        }
    }

    /// Attach a metrics registry (`amr.*` counters/histograms).
    pub fn set_metrics(&mut self, metrics: Arc<Registry>) {
        self.update_counters = (0..self.cfg.max_levels)
            .map(|l| metrics.counter(&format!("amr.updates.l{l}")))
            .collect();
        self.metrics = Some(metrics);
    }

    /// Attach a flight-recorder track (`amr.regrid` / `amr.reflux` spans).
    pub fn set_trace(&mut self, tracer: Arc<Tracer>, pid: u32) {
        let track = tracer.track(pid, 2, "amr");
        self.trace = Some((tracer, track));
    }

    /// Cell size of level `l` (exact: halving only).
    fn level_dx(&self, l: usize) -> f64 {
        self.dx0 / (1u64 << l) as f64
    }

    /// Global cell count of level `l`'s index space.
    fn level_cells(&self, l: usize) -> usize {
        self.n0 << l
    }

    /// A zeroed patch at level `l`, cells `lo..lo+n`, on retired
    /// patches' storage where there is some.
    fn make_patch(&mut self, l: usize, lo: usize, n: usize) -> Patch {
        let dx = self.level_dx(l);
        let geom = PatchGeom {
            n: [n, 1, 1],
            ng: self.ng,
            origin: [self.x0 + lo as f64 * dx, 0.0, 0.0],
            dx: [dx, 1.0, 1.0],
        };
        let pool = &mut self.recycle;
        let mut field =
            |ncomp| Field::from_vec(geom, ncomp, draw(&mut pool.fields, ncomp * geom.len(), 0.0));
        Patch {
            lo,
            n,
            parent_idx: 0,
            u: field(NCOMP),
            prim: field(5),
            rhs: field(NCOMP),
            base: field(NCOMP),
            lerp: field(NCOMP),
            flux: draw(&mut pool.fluxes, geom.ntot(0) + 1, Cons::ZERO),
            acc: [Cons::ZERO; 2],
            acc_parent: [Cons::ZERO; 2],
        }
    }

    /// Hand patches' storage back for [`AmrSolver::make_patch`] to draw.
    fn retire(&mut self, patches: impl IntoIterator<Item = Patch>) {
        let pool = &mut self.recycle;
        for p in patches {
            let fields = [p.u, p.prim, p.rhs, p.base, p.lerp];
            pool.fields.extend(fields.map(Field::into_vec));
            pool.fluxes.push(p.flux);
        }
    }

    /// Drop the sync marks: level states or layouts are about to move.
    pub(crate) fn forget_sync(&mut self) {
        self.synced.fill(false);
    }

    /// Initialize the hierarchy from a pointwise primitive IC: level 0 is
    /// sampled directly, then each finer level is built where the error
    /// estimator fires, also sampled from the IC, and restricted down.
    pub fn init(&mut self, ic: &dyn Fn([f64; 3]) -> Prim) {
        let old = std::mem::replace(
            &mut self.levels,
            (0..self.cfg.max_levels).map(|_| Vec::new()).collect(),
        );
        self.retire(old.into_iter().flatten());
        self.forget_sync();
        let mut p0 = self.make_patch(0, 0, self.n0);
        p0.u = init_cons(*p0.u.geom(), &self.scheme.eos, ic);
        self.levels[0].push(p0);
        self.steps = 0;
        for m in 1..self.cfg.max_levels {
            self.rebuild_level(m, Some(ic));
        }
    }

    /// Initialize a *static* hierarchy from a pointwise primitive IC:
    /// level `m ≥ 1` holds exactly the patches covering the level-`m−1`
    /// cell ranges `layout[m-1]` (`lo..hi` each), every level is sampled
    /// from the IC and restricted down, and no error flag is evaluated.
    /// The layout stays fixed for as long as nothing regrids it
    /// ([`AmrConfig::regrid_interval`] `= 0`). Rejects a layout that is
    /// not properly nested (see [`AmrSolver::restore`]).
    pub fn init_static(
        &mut self,
        ic: &dyn Fn([f64; 3]) -> Prim,
        layout: &[&[(usize, usize)]],
    ) -> Result<(), String> {
        let mut spans = vec![(0, 0, self.n0, ())];
        for (m, ranges) in layout.iter().enumerate() {
            // A saturated value is odd and an empty range has no cells:
            // both fail validation.
            spans.extend(ranges.iter().map(|&(lo, hi)| {
                let n = hi.saturating_sub(lo).saturating_mul(2);
                (m + 1, lo.saturating_mul(2), n, ())
            }));
        }
        let eos = self.scheme.eos;
        self.install_levels(spans, |p, ()| p.u = init_cons(*p.u.geom(), &eos, ic))?;
        for m in (1..self.levels.len()).rev() {
            self.restrict_level(m, |_| true);
        }
        self.steps = 0;
        Ok(())
    }

    /// Validate a hierarchy layout and install it. `spans` lists the
    /// patches as `(level, lo, n, payload)` with `lo`, `n` in that level's
    /// cells, in any order; `fill` writes each new patch's interior from
    /// its payload. No patch is allocated and the current hierarchy stays
    /// unless the whole layout is admissible, which is what every level
    /// step relies on:
    ///
    /// * level 0 is the single patch `0..n0`;
    /// * a finer patch is non-empty, covers whole parent cells (even
    ///   `lo`, `n`) and sits at least two parent cells inside one parent
    ///   patch, so both reflux targets are uncovered interior cells and
    ///   the ghost-prolongation stencil stays within the parent's ghosts;
    /// * siblings are disjoint with at least one uncovered parent cell
    ///   between them, so restriction and the composite sums visit every
    ///   cell once and no reflux lands in a cell a sibling covers
    ///   (siblings exchange no ghosts).
    fn install_levels<T>(
        &mut self,
        mut spans: Vec<(usize, usize, usize, T)>,
        mut fill: impl FnMut(&mut Patch, T),
    ) -> Result<(), String> {
        spans.sort_by_key(|s| (s.0, s.1));
        if !matches!(spans.first(), Some(&(0, 0, n, _)) if n == self.n0)
            || spans.get(1).is_some_and(|s| s.0 == 0)
        {
            return Err("level 0 must be a single domain-covering patch".into());
        }
        let mut parent_idx = vec![0; spans.len()];
        for i in 1..spans.len() {
            let (m, lo, n) = (spans[i].0, spans[i].1, spans[i].2);
            if m >= self.cfg.max_levels {
                return Err(format!(
                    "level {m} exceeds max_levels {}",
                    self.cfg.max_levels
                ));
            }
            let whole = n > 0 && lo % 2 == 0 && n % 2 == 0;
            let Some(hi) = lo.checked_add(n).filter(|_| whole) else {
                return Err(format!(
                    "level {m} patch at {lo} with {n} cells is empty or splits a parent cell"
                ));
            };
            let (pm, plo, pn, _) = spans[i - 1];
            if pm == m && lo <= plo + pn {
                return Err(format!(
                    "level {m} patch [{lo}, {hi}) overlaps or abuts its sibling [{plo}, {})",
                    plo + pn
                ));
            }
            let parents = spans.iter().filter(|s| s.0 == m - 1).map(|s| (s.1, s.2));
            parent_idx[i] = Self::find_parent(parents, lo, n).ok_or_else(|| {
                format!("level {m} patch [{lo}, {hi}) is not nested two cells inside a parent")
            })?;
        }
        let mut levels: Vec<Vec<Patch>> = (0..self.cfg.max_levels).map(|_| Vec::new()).collect();
        for ((l, lo, n, payload), parent_idx) in spans.into_iter().zip(parent_idx) {
            let mut p = self.make_patch(l, lo, n);
            p.parent_idx = parent_idx;
            fill(&mut p, payload);
            levels[l].push(p);
        }
        let old = std::mem::replace(&mut self.levels, levels);
        self.retire(old.into_iter().flatten());
        self.forget_sync();
        Ok(())
    }

    /// Number of levels with at least one patch.
    pub fn n_levels(&self) -> usize {
        self.levels.iter().take_while(|l| !l.is_empty()).count()
    }

    /// Patch count at level `l`.
    pub fn patch_count(&self, l: usize) -> usize {
        self.levels.get(l).map_or(0, Vec::len)
    }

    /// Total interior-cell stage updates so far (the AMR cost metric).
    pub fn cell_updates(&self) -> u64 {
        self.updates.iter().sum()
    }

    /// Interior-cell stage updates per level.
    pub fn updates_per_level(&self) -> &[u64] {
        &self.updates
    }

    /// Number of regrids performed.
    pub fn regrids(&self) -> u64 {
        self.regrids
    }

    /// Steps taken at the base level.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    // ----- ghost filling -------------------------------------------------

    /// Find the parent index for a child span `lo..lo+n` (level-`m`
    /// cells) among `parents` (`(lo, n)` of the level-`m−1` patches): the
    /// one that holds it with `NEST_MARGIN` cells of clearance on each
    /// side.
    fn find_parent(
        mut parents: impl Iterator<Item = (usize, usize)>,
        lo: usize,
        n: usize,
    ) -> Option<usize> {
        let plo = lo / 2;
        let phi = (lo + n) / 2 + NEST_MARGIN;
        parents.position(|(p_lo, p_n)| p_lo + NEST_MARGIN <= plo && phi <= p_lo + p_n)
    }

    /// Fill ghosts of level `m`'s conserved state from the parent's
    /// *current* state (all levels at the same time; used at sync points
    /// for dt estimation, error estimation, and diagnostics). Level 0
    /// gets physical BCs. Parents of `m` must already be filled.
    fn fill_ghosts_sync_level(&mut self, m: usize) {
        if m == 0 {
            let p0 = &mut self.levels[0][0];
            fill_ghosts(&mut p0.u, &self.bcs);
            return;
        }
        let ng = self.ng;
        let (left, right) = self.levels.split_at_mut(m);
        let parents = &left[m - 1];
        for ch in right[0].iter_mut() {
            let par = &parents[ch.parent_idx];
            prolong_ghosts_from(&par.u, &mut ch.u, ng, ng, ch.n, ch.lo / 2 - par.lo);
        }
    }

    /// Fill all levels' ghosts at a sync point and recover the owned
    /// patches' primitives. Ghost prolongation is pure local arithmetic
    /// over the ancestor interiors `sync` made available; ghost bands of
    /// patches owned elsewhere come out garbage but are never read.
    /// A level whose every owned recovery succeeded is marked
    /// [`synced`](Self::synced).
    fn sync_all<C: LevelCoupling>(&mut self, c: &mut C) -> Result<(), SolverError> {
        self.forget_sync();
        for m in 0..self.levels.len() {
            if m > 0 && self.levels[m].is_empty() {
                break;
            }
            c.sync(self, m)?;
            self.fill_ghosts_sync_level(m);
            let mut sound = true;
            for (i, p) in self.levels[m].iter_mut().enumerate() {
                if c.owns(m, i) {
                    if let Err(e) = recover_prims(&self.scheme, &p.u, &mut p.prim) {
                        sound = false;
                        c.fail(e)?;
                    }
                }
            }
            self.synced[m] = sound;
        }
        Ok(())
    }

    /// Fill ghosts of level `l`'s conserved state during one of its RK
    /// stages at intra-step position `c` (`c_i` of the stage). Ancestor
    /// levels contribute *time-interpolated* states: the interpolation
    /// parameter is pushed up the chain via
    /// `θ_{m−1} = frac_m + θ_m / 2`, so every ancestor is evaluated at the
    /// same physical time. An ancestor lerps only the interior cells its
    /// children's ghost prolongation reads, and fills its own ghosts only
    /// when that prolongation reaches into them: from the boundary
    /// conditions on level 0 (after lerping the edge cells they copy), by
    /// prolongation from its own parent elsewhere.
    fn fill_ghosts_lerp(&mut self, l: usize, c: f64) {
        let ng = self.ng;
        if l == 0 {
            fill_ghosts(&mut self.levels[0][0].u, &self.bcs);
            return;
        }
        // theta(m): lerp position between level m's base and current
        // state, pushed up the chain from the advancing level. Recomputed
        // per ancestor rather than stored: this runs every stage of every
        // fine level and must not allocate.
        let frac = &self.frac;
        let theta = |m: usize| {
            (m + 1..l)
                .rev()
                .fold(frac[l] + 0.5 * c, |th, k| frac[k] + 0.5 * th)
        };
        for m in 0..l {
            let th = theta(m);
            let (upto, finer) = self.levels.split_at_mut(m + 1);
            let (coarser, level) = upto.split_at_mut(m);
            for (i, p) in level[0].iter_mut().enumerate() {
                // The interior cells its children's ghost prolongation
                // reads, and whether that reaches into its own ghosts.
                let mut reads_ghosts = false;
                for ch in finer[0].iter().filter(|ch| ch.parent_idx == i) {
                    for cells in ghost_stencils(ng, ng, ch.n, ch.lo / 2 - p.lo) {
                        reads_ghosts |= cells.start < ng || cells.end > ng + p.n;
                        lerp_cells(p, cells.start.max(ng)..cells.end.min(ng + p.n), th);
                    }
                }
                if !reads_ghosts {
                    continue;
                }
                if m == 0 {
                    // Boundary conditions copy the edge cells.
                    lerp_cells(p, ng..2 * ng, th);
                    lerp_cells(p, p.n..p.n + ng, th);
                    fill_ghosts(&mut p.lerp, &self.bcs);
                } else {
                    let par = &coarser[m - 1][p.parent_idx];
                    prolong_ghosts_from(&par.lerp, &mut p.lerp, ng, ng, p.n, p.lo / 2 - par.lo);
                }
            }
        }
        // The advancing level's own ghosts.
        let (left, right) = self.levels.split_at_mut(l);
        let parents = &left[l - 1];
        for ch in right[0].iter_mut() {
            let par = &parents[ch.parent_idx];
            prolong_ghosts_from(&par.lerp, &mut ch.u, ng, ng, ch.n, ch.lo / 2 - par.lo);
        }
    }

    // ----- residual evaluation -------------------------------------------

    /// Residual and interface fluxes of every owned patch of level `l`, in
    /// one kernel call: the patches' stencil windows (each whole pencil:
    /// the scheme's stencil is `ng` cells) are packed end to end into the
    /// pencil scratch, a one-lane slab of [`crate::step`], and the
    /// interfaces straddling two windows are computed and dropped.
    /// `flux` keeps the interfaces the reflux reads: the patch's own two
    /// faces and its children's. `rhs` ghosts are never written.
    fn eval_level_rhs<C: LevelCoupling>(&mut self, c: &C, l: usize) {
        let (scheme, ng) = (self.scheme, self.ng);
        let (upto, finer) = self.levels.split_at_mut(l + 1);
        let (patches, children) = (&mut upto[l], finer.first().map_or(&[][..], Vec::as_slice));
        let owned = |i: &usize| c.owns(l, *i);
        let len: usize = (0..patches.len())
            .filter(owned)
            .map(|i| patches[i].n + 2 * ng)
            .sum();
        if len == 0 {
            return;
        }
        with_pencil_scratch(len, |s| {
            let mut at = 0;
            for p in (0..patches.len()).filter(owned).map(|i| &patches[i]) {
                let window = at..at + p.n + 2 * ng;
                for (k, comp) in [PRIM_RHO, PRIM_VX, PRIM_VY, PRIM_VZ, PRIM_P]
                    .into_iter()
                    .enumerate()
                {
                    p.prim
                        .read_pencil(comp, 0, 0, 0, &mut s.q_mut(k)[window.clone()]);
                }
                at = window.end;
            }
            reconstruct_and_flux(&scheme, s, Dir::X, ng, len - ng + 1);
            let mut at = 0;
            for i in (0..patches.len()).filter(owned) {
                let p = &mut patches[i];
                // The patch's interface `ng + j` sits at `at + ng + j`.
                let (n, inv_dx) = (p.rhs.geom().len(), 1.0 / p.rhs.geom().dx[0]);
                let rhs = p.rhs.raw_mut();
                for k in 0..NCOMP {
                    let f = &s.flux(k)[at + ng..at + ng + p.n + 1];
                    let out = &mut rhs[k * n + ng..k * n + ng + p.n];
                    for j in 0..out.len() {
                        out[j] = -(f[j + 1] - f[j]) * inv_dx;
                    }
                }
                let kids = children.iter().filter(|ch| ch.parent_idx == i);
                let faces = kids.flat_map(|ch| [ch.lo / 2 - p.lo, (ch.lo + ch.n) / 2 - p.lo]);
                for j in [0, p.n].into_iter().chain(faces) {
                    let f = at + ng + j;
                    p.flux[ng + j] = Cons::from_array([0, 1, 2, 3, 4].map(|k| s.flux(k)[f]));
                }
                at += p.n + 2 * ng;
            }
        });
    }

    // ----- time stepping -------------------------------------------------

    /// Largest stable Δt for the whole hierarchy: each level's CFL limit
    /// scaled by its subcycling factor `2^ℓ`.
    pub fn stable_dt(&mut self, cfl: f64) -> Result<f64, SolverError> {
        self.stable_dt_with(&mut Serial, cfl)
    }

    /// [`stable_dt`](Self::stable_dt) over the patches `c` owns (∞ when
    /// it owns none); the min over all processes is the hierarchy's Δt.
    pub(crate) fn stable_dt_with<C: LevelCoupling>(
        &mut self,
        c: &mut C,
        cfl: f64,
    ) -> Result<f64, SolverError> {
        self.sync_all(c)?;
        let mut dt = f64::INFINITY;
        for (l, patches) in self.levels.iter().enumerate() {
            let scale = (1u64 << l) as f64;
            for (i, p) in patches.iter().enumerate() {
                if c.owns(l, i) {
                    dt = dt.min(scale * max_dt(&self.scheme, &p.prim, cfl));
                }
            }
        }
        Ok(dt)
    }

    /// Advance the hierarchy by one base-level step of size `dt`
    /// (regridding first when the cadence says so).
    pub fn step(&mut self, dt: f64) -> Result<(), SolverError> {
        let due = self.cfg.regrid_interval > 0
            && self.steps > 0
            && self.steps.is_multiple_of(self.cfg.regrid_interval as u64);
        let stepped = if due { self.regrid() } else { Ok(()) }
            .and_then(|()| self.step_level(&mut Serial, 0, dt, 0.0));
        // A sync's primitives serve the step right after it, and no other.
        self.forget_sync();
        stepped?;
        self.steps += 1;
        self.flush_metrics();
        Ok(())
    }

    /// Advance to `t_end` under CFL control; returns the base step count.
    pub fn advance_to(&mut self, t0: f64, t_end: f64, cfl: f64) -> Result<usize, SolverError> {
        let mut t = t0;
        let mut steps = 0;
        while t < t_end - 1e-14 {
            let dt = land_dt(self.stable_dt(cfl)?, Some((t, t_end)))?;
            self.step(dt)?;
            t += dt;
            steps += 1;
        }
        Ok(steps)
    }

    /// One Berger–Oliger step of level `l` with size `dt`, starting at
    /// intra-parent-step position `frac` (0.0 or 0.5). Recursively
    /// advances child levels with two `dt/2` substeps, then restricts and
    /// refluxes. Every process walks the same recursion tree (the
    /// coupling's exchanges are cooperative) and computes only the
    /// patches `c` owns; a reflux runs on the parent's owner.
    pub(crate) fn step_level<C: LevelCoupling>(
        &mut self,
        c: &mut C,
        l: usize,
        dt: f64,
        frac: f64,
    ) -> Result<(), SolverError> {
        self.frac[l] = frac;
        let (stages, weights, ctimes) = rk_tables(self.rk);
        let ng = self.ng;
        for (i, p) in self.levels[l].iter_mut().enumerate() {
            if c.owns(l, i) {
                p.base.raw_mut().copy_from_slice(p.u.raw());
            }
        }
        // Zero the flux accumulators of this step's coarse–fine
        // interfaces (both sides); they are consumed by the reflux below.
        if l + 1 < self.levels.len() {
            for ch in &mut self.levels[l + 1] {
                ch.acc = [Cons::ZERO; 2];
                ch.acc_parent = [Cons::ZERO; 2];
            }
        }
        for (si, &(a, b, cw)) in stages.iter().enumerate() {
            // Stage 0 of the first substep after a sync starts from the
            // ghosts and primitives the sync built from this same state.
            if si > 0 || !std::mem::take(&mut self.synced[l]) {
                self.fill_ghosts_lerp(l, ctimes[si]);
                for (i, p) in self.levels[l].iter_mut().enumerate() {
                    if c.owns(l, i) {
                        if let Err(e) = recover_prims(&self.scheme, &p.u, &mut p.prim) {
                            c.fail(e)?;
                        }
                    }
                }
            }
            self.eval_level_rhs(c, l);
            // Parent-side interface fluxes for the children of l.
            if l + 1 < self.levels.len() {
                let w = weights[si];
                let (left, right) = self.levels.split_at_mut(l + 1);
                let parents = &left[l];
                for ch in right[0].iter_mut() {
                    if !c.owns(l, ch.parent_idx) {
                        continue;
                    }
                    let par = &parents[ch.parent_idx];
                    ch.acc_parent[0] += par.flux[ng + ch.lo / 2 - par.lo] * w;
                    ch.acc_parent[1] += par.flux[ng + (ch.lo + ch.n) / 2 - par.lo] * w;
                }
            }
            for (i, p) in self.levels[l].iter_mut().enumerate() {
                if !c.owns(l, i) {
                    continue;
                }
                // Own boundary fluxes toward our parent (half weight:
                // this step is one of two substeps of the parent's step).
                if l > 0 {
                    let w = 0.5 * weights[si];
                    p.acc[0] += p.flux[ng] * w;
                    p.acc[1] += p.flux[ng + p.n] * w;
                }
                // Stage combine + floors. The `a = 0` stage term is passed
                // at stage 0 too: one expression tree for every stage.
                let (u0, r) = (Some((&p.base, a)), Some((&p.rhs, cw * dt)));
                combine_floors(&mut p.u, b, u0, r, &self.scheme.c2p);
                self.updates[l] += p.n as u64;
            }
        }
        // Children: two substeps, restriction, deferred reflux.
        if l + 1 < self.levels.len() && !self.levels[l + 1].is_empty() {
            c.descend(self, l)?;
            self.step_level(c, l + 1, 0.5 * dt, 0.0)?;
            self.step_level(c, l + 1, 0.5 * dt, 0.5)?;
            c.reflux(self, l + 1)?;
            let t0 = self.trace.as_ref().map(|(tr, _)| tr.now_ns());
            self.restrict_level(l + 1, |pi| c.owns(l, pi));
            let k = dt / self.level_dx(l);
            let mut corrections = 0u64;
            let (left, right) = self.levels.split_at_mut(l + 1);
            let parents = &mut left[l];
            for ch in right[0].iter() {
                if !c.owns(l, ch.parent_idx) {
                    continue;
                }
                let par = &mut parents[ch.parent_idx];
                // Left-uncovered neighbor used the parent flux as its
                // right face; swap in the accumulated fine flux.
                let il = ng + ch.lo / 2 - par.lo - 1;
                let v = par.u.get_cons(il, 0, 0) + (ch.acc_parent[0] - ch.acc[0]) * k;
                par.u.set_cons(il, 0, 0, v);
                // Right-uncovered neighbor used it as its left face.
                let ir = ng + (ch.lo + ch.n) / 2 - par.lo;
                let v = par.u.get_cons(ir, 0, 0) + (ch.acc[1] - ch.acc_parent[1]) * k;
                par.u.set_cons(ir, 0, 0, v);
                corrections += 2;
            }
            for (i, p) in parents.iter_mut().enumerate() {
                if c.owns(l, i) {
                    apply_conserved_floors(&mut p.u, &self.scheme.c2p);
                }
            }
            self.reflux_corrections += corrections;
            if let (Some((tr, track)), Some(t0)) = (self.trace.as_ref(), t0) {
                track.span("amr.reflux", t0, tr.now_ns());
            }
            if let Some(m) = &self.metrics {
                m.counter("amr.reflux.corrections").add(corrections);
            }
        }
        Ok(())
    }

    /// Restrict level `m` onto the covered cells of those level-`m−1`
    /// patches `owned` selects (by parent index).
    fn restrict_level(&mut self, m: usize, owned: impl Fn(usize) -> bool) {
        let ng = self.ng;
        let (left, right) = self.levels.split_at_mut(m);
        let parents = &mut left[m - 1];
        for ch in right[0].iter().filter(|ch| owned(ch.parent_idx)) {
            let par = &mut parents[ch.parent_idx];
            restrict_onto(&ch.u, &mut par.u, ng, ng, ch.n, ch.lo / 2 - par.lo);
        }
    }

    pub(crate) fn flush_metrics(&mut self) {
        for (l, counter) in self.update_counters.iter().enumerate() {
            let delta = self.updates[l] - self.flushed[l];
            if delta > 0 {
                counter.add(delta);
                self.flushed[l] = self.updates[l];
            }
        }
    }

    // ----- regridding ----------------------------------------------------

    /// Rebuild every refined level from fresh error flags, transferring
    /// state from the old hierarchy.
    pub fn regrid(&mut self) -> Result<(), SolverError> {
        let t0 = self.trace.as_ref().map(|(tr, _)| tr.now_ns());
        // Restricting the new levels can move covered cells of any level.
        self.forget_sync();
        for m in 1..self.cfg.max_levels {
            self.rebuild_level(m, None);
        }
        self.regrids += 1;
        if let (Some((tr, track)), Some(t0)) = (self.trace.as_ref(), t0) {
            track.span_arg(
                "amr.regrid",
                t0,
                tr.now_ns(),
                self.levels.iter().map(Vec::len).sum::<usize>() as f64,
            );
        }
        if let Some(m) = &self.metrics {
            m.counter("amr.regrids").inc();
            m.histogram("amr.patches")
                .record(self.levels.iter().skip(1).map(Vec::len).sum::<usize>() as u64);
        }
        Ok(())
    }

    /// Rebuild level `m` from error flags on level `m−1`. New patches are
    /// filled from the initial condition when `ic` is given (hierarchy
    /// construction), else copied from the old level-`m` patches where
    /// they overlap and conservatively prolonged from level `m−1`
    /// elsewhere. Finishes by restricting the new level down, so the
    /// covered-parent invariant holds.
    fn rebuild_level(&mut self, m: usize, ic: Option<&dyn Fn([f64; 3]) -> Prim>) {
        // Parent ghosts must be valid for both the estimator stencil and
        // the transfer prolongation.
        for lvl in 0..m {
            self.fill_ghosts_sync_level(lvl);
        }
        self.flag_level(m - 1);
        let r = &mut self.recycle;
        buffer_flags(&r.flags, self.cfg.buffer, &mut r.buffered);
        let allowed = self.levels[m - 1]
            .iter()
            .filter(|p| p.n > 2 * NEST_MARGIN)
            .map(|p| (p.lo + NEST_MARGIN, p.lo + p.n - NEST_MARGIN));
        cluster_runs(&r.buffered, allowed, MERGE_GAP, MIN_SIZE, &mut r.runs);
        let runs = std::mem::take(&mut r.runs);
        let mut newp = std::mem::take(&mut r.patches);
        let mut old = std::mem::take(&mut self.levels[m]);
        let ng = self.ng;
        for &(rlo, rhi) in &runs {
            let mut p = self.make_patch(m, 2 * rlo, 2 * (rhi - rlo));
            let parents = self.levels[m - 1].iter().map(|q| (q.lo, q.n));
            p.parent_idx =
                Self::find_parent(parents, p.lo, p.n).expect("clustering violated proper nesting");
            if let Some(ic) = ic {
                p.u = init_cons(*p.u.geom(), &self.scheme.eos, ic);
            } else {
                let par = &self.levels[m - 1][p.parent_idx];
                let lo = p.lo / 2 - par.lo;
                // Per parent cell: copy both children from the old
                // hierarchy if it covered them, else prolong. Patches
                // cover whole parent cells, so the transfer conserves the
                // composite integrals exactly.
                for pc in 0..p.n / 2 {
                    let f_global = p.lo + 2 * pc;
                    if let Some(op) = old
                        .iter()
                        .find(|op| op.lo <= f_global && f_global + 2 <= op.lo + op.n)
                    {
                        for c in 0..NCOMP {
                            for k in 0..2 {
                                let v = op.u.at(c, ng + f_global + k - op.lo, 0, 0);
                                p.u.set(c, ng + 2 * pc + k, 0, 0, v);
                            }
                        }
                    } else {
                        prolong_span(
                            &par.u,
                            &mut p.u,
                            ng,
                            ng,
                            lo,
                            (2 * pc) as i64,
                            (2 * pc + 2) as i64,
                        );
                    }
                }
            }
            newp.push(p);
        }
        self.recycle.runs = runs;
        self.levels[m] = newp;
        self.retire(old.drain(..));
        self.recycle.patches = old;
        if !self.levels[m].is_empty() {
            self.restrict_level(m, |_| true);
        }
    }

    /// Löhner-style normalized second-difference indicator on `D` and `τ`
    /// over level `l`'s patches, in the level's global cell space, into
    /// the recycled flag vector.
    fn flag_level(&mut self, l: usize) {
        let cells = self.level_cells(l);
        let flags = &mut self.recycle.flags;
        flags.clear();
        flags.resize(cells, false);
        let ng = self.ng;
        let eps = 0.01;
        for p in &self.levels[l] {
            for i in 0..p.n {
                let gi = ng + i;
                let um = p.u.get_cons(gi - 1, 0, 0);
                let u0 = p.u.get_cons(gi, 0, 0);
                let up = p.u.get_cons(gi + 1, 0, 0);
                for (am, a0, ap) in [(um.d, u0.d, up.d), (um.tau, u0.tau, up.tau)] {
                    let d2 = (ap - 2.0 * a0 + am).abs();
                    let d1 = (ap - a0).abs() + (a0 - am).abs();
                    let scale = eps * (am.abs() + 2.0 * a0.abs() + ap.abs());
                    if d2 > self.cfg.threshold * (d1 + scale + f64::MIN_POSITIVE) {
                        flags[p.lo + i] = true;
                    }
                }
            }
        }
    }

    // ----- diagnostics ---------------------------------------------------

    /// Visit every cell no finer level covers, coarse to fine and left to
    /// right: `f(patch, ghost-inclusive index, cell size)`.
    fn for_each_uncovered(&self, mut f: impl FnMut(&Patch, usize, f64)) {
        for (l, patches) in self.levels.iter().enumerate() {
            let dxl = self.level_dx(l);
            let children = self.levels.get(l + 1).map_or(&[][..], Vec::as_slice);
            for p in patches {
                for i in 0..p.n {
                    let g = p.lo + i;
                    if !children
                        .iter()
                        .any(|c| (c.lo / 2..(c.lo + c.n) / 2).contains(&g))
                    {
                        f(p, self.ng + i, dxl);
                    }
                }
            }
        }
    }

    /// Composite conserved totals: every level's cells not covered by a
    /// finer level, weighted by that level's cell size. This is the
    /// quantity the reflux construction conserves to round-off.
    pub fn composite_totals(&self) -> [f64; NCOMP] {
        let mut out = [0.0; NCOMP];
        self.for_each_uncovered(|p, gi, dxl| {
            let u = p.u.get_cons(gi, 0, 0).to_array();
            for c in 0..NCOMP {
                out[c] += u[c] * dxl;
            }
        });
        out
    }

    /// Composite L1(ρ) error against an exact solution at time `t`,
    /// normalized by the domain length (matches
    /// [`crate::diag::l1_density_error`] on uniform grids).
    pub fn l1_density_error(
        &mut self,
        exact: &dyn Fn([f64; 3], f64) -> Prim,
        t: f64,
    ) -> Result<f64, SolverError> {
        self.sync_all(&mut Serial)?;
        let mut l1 = 0.0;
        self.for_each_uncovered(|p, gi, dxl| {
            let x = p.u.geom().center(gi, 0, 0);
            l1 += (prim_at(&p.prim, gi, 0, 0).rho - exact(x, t).rho).abs() * dxl;
        });
        Ok(l1 / (self.n0 as f64 * self.dx0))
    }

    // ----- checkpointing -------------------------------------------------

    /// The hierarchy as an [`AmrCheckpoint`] view (interior conserved
    /// data per patch; ghosts, primitives and the regrid phase are
    /// reconstructed deterministically on restore). On disk and in the
    /// memory tier it travels as its image
    /// ([`AmrCheckpoint::into_image`]).
    pub fn to_checkpoint(&self, time: f64) -> AmrCheckpoint {
        let mut patches = Vec::new();
        for (l, ps) in self.levels.iter().enumerate() {
            for p in ps {
                let mut data = Vec::new();
                p.u.gather_box([self.ng, 0, 0], [self.ng + p.n, 1, 1], &mut data);
                patches.push(AmrPatchRecord {
                    level: l as u32,
                    lo: p.lo as u64,
                    n: p.n as u64,
                    data,
                });
            }
        }
        AmrCheckpoint {
            time,
            step: self.steps,
            n0: self.n0 as u64,
            ncomp: NCOMP,
            patches,
        }
    }

    /// Restore the hierarchy from an AMR checkpoint. The solver must have
    /// been constructed with the same base grid and a `max_levels` that
    /// accommodates every stored level. Restores bit-identically: the
    /// subsequent trajectory matches an uninterrupted run. A checkpoint
    /// whose patches are not a properly nested hierarchy (overlapping or
    /// abutting siblings, a patch splitting a parent cell or closer than
    /// two cells to its parent's edge) is rejected and leaves the solver
    /// as it was.
    pub fn restore(&mut self, ck: &AmrCheckpoint) -> Result<(), String> {
        if ck.n0 as usize != self.n0 {
            return Err(format!("base-grid mismatch: {} vs {}", ck.n0, self.n0));
        }
        if ck.ncomp != NCOMP {
            return Err(format!("component mismatch: {} vs {NCOMP}", ck.ncomp));
        }
        let mut spans = Vec::with_capacity(ck.patches.len());
        for r in &ck.patches {
            // The stored length bounds `n` before anything is sized by it.
            if r.n.checked_mul(NCOMP as u64) != Some(r.data.len() as u64) {
                return Err(format!(
                    "patch data length {} != {NCOMP} x {}",
                    r.data.len(),
                    r.n
                ));
            }
            let lo = usize::try_from(r.lo).map_err(|_| format!("patch offset {}", r.lo))?;
            spans.push((r.level as usize, lo, r.n as usize, &r.data[..]));
        }
        let ng = self.ng;
        self.install_levels(spans, |p, data| {
            p.u.scatter_box([ng, 0, 0], [ng + p.n, 1, 1], data)
        })?;
        self.steps = ck.step;
        Ok(())
    }
}

/// `lerp = (1−θ)·base + θ·u` over the ghost-inclusive `cells` of a
/// patch, every component.
fn lerp_cells(p: &mut Patch, cells: Range<usize>, theta: f64) {
    let n = p.u.geom().len();
    let (out, a, b) = (p.lerp.raw_mut(), p.base.raw(), p.u.raw());
    for c in 0..NCOMP {
        for k in cells.clone().map(|i| c * n + i) {
            out[k] = (1.0 - theta) * a[k] + theta * b[k];
        }
    }
}

/// Dilate flags by `b` cells on each side, into `out`.
fn buffer_flags(flags: &[bool], b: usize, out: &mut Vec<bool>) {
    let n = flags.len();
    out.clear();
    out.resize(n, false);
    for (i, &f) in flags.iter().enumerate() {
        if f {
            for o in out
                .iter_mut()
                .take((i + b + 1).min(n))
                .skip(i.saturating_sub(b))
            {
                *o = true;
            }
        }
    }
}

/// Signature clustering in 1D: within each admissible interval, extract
/// maximal runs of flagged cells, merge runs closer than `merge_gap`,
/// grow runs below `min_size`, and merge again. The runs left in `out`
/// are disjoint, sorted, and at least `min_size` wide.
fn cluster_runs(
    flags: &[bool],
    allowed: impl IntoIterator<Item = (usize, usize)>,
    merge_gap: usize,
    min_size: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    for (alo, ahi) in allowed {
        if ahi <= alo || ahi - alo < min_size {
            continue;
        }
        // This interval's runs are `out[start..]`.
        let start = out.len();
        let mut i = alo;
        while i < ahi {
            if flags[i] {
                let s = i;
                while i < ahi && flags[i] {
                    i += 1;
                }
                out.push((s, i));
            } else {
                i += 1;
            }
        }
        merge_runs(out, start, merge_gap);
        for r in &mut out[start..] {
            while r.1 - r.0 < min_size {
                if r.1 < ahi {
                    r.1 += 1;
                } else if r.0 > alo {
                    r.0 -= 1;
                } else {
                    break;
                }
            }
        }
        merge_runs(out, start, merge_gap);
        // Earlier intervals' runs already pass.
        out.retain(|&(s, e)| e - s >= min_size);
    }
}

/// Merge, in place, each run of `runs[start..]` that begins within `gap`
/// cells of the end of the run kept before it.
fn merge_runs(runs: &mut Vec<(usize, usize)>, start: usize, gap: usize) {
    let mut kept = start;
    for k in start..runs.len() {
        let (s, e) = runs[k];
        if kept > start && s <= runs[kept - 1].1 + gap {
            runs[kept - 1].1 = e.max(runs[kept - 1].1);
        } else {
            runs[kept] = (s, e);
            kept += 1;
        }
    }
    runs.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Problem;
    use rhrsc_grid::{bc, Bc};

    fn scheme() -> Scheme {
        Scheme::default_with_gamma(5.0 / 3.0)
    }

    fn solver(n0: usize, cfg: AmrConfig, bcs: BcSet) -> AmrSolver {
        AmrSolver::new(scheme(), bcs, RkOrder::Rk3, n0, 0.0, 1.0, cfg)
    }

    /// A smooth periodic pressure pulse that steepens into shocks —
    /// flags the estimator without touching the domain boundary.
    fn pulse_ic(x: [f64; 3]) -> Prim {
        let g = (-((x[0] - 0.5) / 0.08).powi(2)).exp();
        Prim::new_1d(1.0 + 2.0 * g, 0.0, 1.0 + 20.0 * g)
    }

    #[test]
    fn uniform_state_spawns_no_patches_and_stays_uniform() {
        let mut amr = solver(64, AmrConfig::default(), bc::uniform(Bc::Periodic));
        amr.init(&|_| Prim::new_1d(1.0, 0.3, 2.0));
        assert_eq!(amr.patch_count(1), 0, "uniform state must not refine");
        amr.advance_to(0.0, 0.1, 0.4).unwrap();
        let w = Prim::new_1d(1.0, 0.3, 2.0).to_cons(&scheme().eos);
        let ng = amr.ng;
        for i in 0..64 {
            let u = amr.levels[0][0].u.get_cons(ng + i, 0, 0);
            assert!((u.d - w.d).abs() < 1e-11, "cell {i}: {} vs {}", u.d, w.d);
        }
    }

    #[test]
    fn pulse_refines_and_conserves_to_roundoff() {
        // Low threshold so even the smooth pulse refines both levels —
        // conservation must hold regardless of how aggressive the
        // refinement is.
        let cfg = AmrConfig {
            threshold: 0.08,
            ..AmrConfig::default()
        };
        let mut amr = solver(64, cfg, bc::uniform(Bc::Periodic));
        amr.init(&pulse_ic);
        assert!(amr.patch_count(1) > 0, "pulse must refine level 1");
        assert!(amr.patch_count(2) > 0, "pulse must refine level 2");
        let before = amr.composite_totals();
        amr.advance_to(0.0, 0.3, 0.4).unwrap();
        assert!(amr.regrids() > 0, "regridding must engage");
        let after = amr.composite_totals();
        for c in 0..NCOMP {
            assert!(
                (after[c] - before[c]).abs() <= 1e-12 * before[c].abs().max(1.0),
                "component {c}: {} -> {}",
                before[c],
                after[c]
            );
        }
    }

    #[test]
    fn sod_amr_beats_uniform_coarse_and_approaches_fine() {
        let prob = Problem::sod();
        let exact = prob.exact.clone().unwrap();
        let (e_coarse, _) = uniform_run(&prob, 100, prob.t_end);
        let (e_fine, _) = uniform_run(&prob, 200, prob.t_end);

        let cfg = AmrConfig {
            max_levels: 2,
            ..AmrConfig::default()
        };
        let mut amr = solver(100, cfg, prob.bcs);
        amr.init(&|x| (prob.ic)(x));
        amr.advance_to(0.0, prob.t_end, 0.4).unwrap();
        let e_amr = amr.l1_density_error(&*exact, prob.t_end).unwrap();
        assert!(
            e_amr < e_coarse,
            "AMR {e_amr} must beat uniform-coarse {e_coarse}"
        );
        assert!(
            e_amr < 1.35 * e_fine,
            "AMR {e_amr} should approach uniform-fine {e_fine}"
        );
    }

    #[test]
    fn three_level_blast_tracks_uniform_fine() {
        let prob = Problem::blast_wave_1();
        let exact = prob.exact.clone().unwrap();
        // Tight tracking of the thin relativistic shell: regrid every
        // other coarse step with a wide buffer so the shock never escapes
        // the finest patches between regrids.
        let cfg = AmrConfig {
            threshold: 0.25,
            buffer: 3,
            regrid_interval: 2,
            ..AmrConfig::default()
        };
        let mut amr = solver(100, cfg, prob.bcs);
        amr.init(&|x| (prob.ic)(x));
        amr.advance_to(0.0, prob.t_end, 0.4).unwrap();
        let e_amr = amr.l1_density_error(&*exact, prob.t_end).unwrap();

        let s = scheme();
        let geom = PatchGeom::line(400, 0.0, 1.0, s.required_ghosts());
        let mut u = init_cons(geom, &s.eos, &|x| (prob.ic)(x));
        let mut fine = crate::PatchSolver::new(s, prob.bcs, RkOrder::Rk3, geom);
        fine.advance_to(&mut u, 0.0, prob.t_end, 0.4, None).unwrap();
        let (e_fine, _) = crate::diag::l1_density_error(&s, &u, &exact, prob.t_end).unwrap();

        assert!(
            e_amr <= 1.10 * e_fine,
            "3-level AMR L1 {e_amr} must be within 10% of uniform-400 {e_fine}"
        );
        let z_fine = fine.stats().zone_updates;
        assert!(
            (amr.cell_updates() as f64) <= 0.40 * z_fine as f64,
            "AMR updates {} must be <= 40% of uniform-fine {z_fine}",
            amr.cell_updates()
        );
    }

    #[test]
    fn checkpoint_restores_bit_identically() {
        let prob = Problem::sod();
        let mk = || {
            let cfg = AmrConfig {
                max_levels: 3,
                ..AmrConfig::default()
            };
            let mut amr = solver(64, cfg, prob.bcs);
            amr.init(&|x| (prob.ic)(x));
            amr
        };
        // Uninterrupted run to t1 then t2.
        let mut a = mk();
        a.advance_to(0.0, 0.15, 0.4).unwrap();
        let ck = a.to_checkpoint(0.15);
        a.advance_to(0.15, 0.3, 0.4).unwrap();

        // Kill/restart: fresh solver, restore, continue.
        let mut b = mk();
        b.restore(&ck).unwrap();
        assert_eq!(b.steps(), ck.step);
        b.advance_to(0.15, 0.3, 0.4).unwrap();

        assert_eq!(a.levels.len(), b.levels.len());
        for (pa, pb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(pa.len(), pb.len(), "patch counts diverged");
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!((x.lo, x.n), (y.lo, y.n));
                for (u, v) in x.u.raw()[..].iter().zip(y.u.raw()) {
                    assert_eq!(u.to_bits(), v.to_bits(), "restart diverged");
                }
            }
        }
    }

    // ----- the sync's primitives serve only the step right after it ------

    /// The hierarchy's layout and interior bits.
    fn bits(amr: &AmrSolver) -> Vec<u64> {
        let ck = amr.to_checkpoint(0.0);
        let words = ck.patches.iter().flat_map(|p| {
            let span = [p.level as f64, p.lo as f64, p.n as f64];
            span.into_iter().chain(p.data.iter().copied())
        });
        words.map(f64::to_bits).collect()
    }

    /// The Martí–Müller blast on three levels at `t = 0.1`.
    fn blast_at_0_1() -> AmrSolver {
        let prob = Problem::blast_wave_1();
        let mut amr = solver(100, AmrConfig::default(), prob.bcs);
        amr.init(&|x| (prob.ic)(x));
        amr.advance_to(0.0, 0.1, 0.4).unwrap();
        assert!(amr.patch_count(2) > 0);
        amr
    }

    #[test]
    fn a_regrid_after_the_sync_is_stepped_from_fresh_primitives() {
        let (mut a, mut b) = (blast_at_0_1(), blast_at_0_1());
        let dt = a.stable_dt(0.4).unwrap();
        a.regrid().unwrap();
        a.step(dt).unwrap();
        b.regrid().unwrap();
        b.stable_dt(0.4).unwrap();
        b.step(dt).unwrap();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn a_restore_after_the_sync_is_stepped_from_fresh_primitives() {
        let mut a = blast_at_0_1();
        let ck = a.to_checkpoint(0.1);
        a.advance_to(0.1, 0.15, 0.4).unwrap();
        let dt = a.stable_dt(0.4).unwrap();
        a.restore(&ck).unwrap();
        a.step(dt).unwrap();
        let prob = Problem::blast_wave_1();
        let mut b = solver(100, AmrConfig::default(), prob.bcs);
        b.restore(&ck).unwrap();
        b.step(dt).unwrap();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn a_failed_step_leaves_no_primitives_to_reuse() {
        // A NaN on level 1 fails its stage-1 recovery before level 2 has
        // stepped; with the cell repaired, the next step must recover
        // level 2 afresh, as it does after a new sync.
        let (mut a, mut b) = (blast_at_0_1(), blast_at_0_1());
        let dt = a.stable_dt(0.4).unwrap();
        for amr in [&mut a, &mut b] {
            amr.stable_dt(0.4).unwrap();
            let ng = amr.ng;
            let keep = amr.levels[1][0].u.at(0, ng, 0, 0);
            amr.levels[1][0].u.set(0, ng, 0, 0, f64::NAN);
            assert!(amr.step(dt).is_err());
            amr.levels[1][0].u.set(0, ng, 0, 0, keep);
        }
        a.step(dt).unwrap();
        b.stable_dt(0.4).unwrap();
        b.step(dt).unwrap();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let prob = Problem::sod();
        let mut amr = solver(64, AmrConfig::default(), prob.bcs);
        amr.init(&|x| (prob.ic)(x));
        amr.advance_to(0.0, 0.1, 0.4).unwrap();
        let ck = amr.to_checkpoint(0.1);
        let bytes = rhrsc_io::checkpoint::encode(&ck.clone().into_image());
        let img = rhrsc_io::checkpoint::decode(&bytes).unwrap();
        assert_eq!(ck, AmrCheckpoint::from_image(img).unwrap());
    }

    #[test]
    fn restore_rejects_mismatched_base_grid() {
        let prob = Problem::sod();
        let mut amr = solver(64, AmrConfig::default(), prob.bcs);
        amr.init(&|x| (prob.ic)(x));
        let ck = amr.to_checkpoint(0.0);
        let mut other = solver(100, AmrConfig::default(), prob.bcs);
        other.init(&|x| (prob.ic)(x));
        assert!(other.restore(&ck).is_err());
    }

    // ----- static layouts (`init_static`, `regrid_interval: 0`) ------------

    fn static_cfg(max_levels: usize) -> AmrConfig {
        AmrConfig {
            max_levels,
            regrid_interval: 0,
            ..AmrConfig::default()
        }
    }

    /// Two levels: `n0` base cells with a fixed fine window over `lo..hi`.
    fn static_window(
        n0: usize,
        bcs: BcSet,
        (lo, hi): (usize, usize),
        ic: &dyn Fn([f64; 3]) -> Prim,
    ) -> AmrSolver {
        let mut amr = solver(n0, static_cfg(2), bcs);
        amr.init_static(ic, &[&[(lo, hi)]]).unwrap();
        amr
    }

    /// `prob` on a uniform `n`-cell grid to `t_end`: L1(ρ) and step count.
    fn uniform_run(prob: &Problem, n: usize, t_end: f64) -> (f64, usize) {
        let s = scheme();
        let geom = PatchGeom::line(n, 0.0, 1.0, s.required_ghosts());
        let mut u = init_cons(geom, &s.eos, &|x| (prob.ic)(x));
        let mut solver = crate::PatchSolver::new(s, prob.bcs, RkOrder::Rk3, geom);
        let steps = solver.advance_to(&mut u, 0.0, t_end, 0.4, None).unwrap();
        let exact = prob.exact.clone().unwrap();
        let (l1, _) = crate::diag::l1_density_error(&s, &u, &exact, t_end).unwrap();
        (l1, steps)
    }

    fn sine_ic(x: [f64; 3]) -> Prim {
        Prim::new_1d(
            1.0 + 0.4 * (2.0 * std::f64::consts::PI * x[0]).sin(),
            0.5,
            1.0,
        )
    }

    #[test]
    fn subcycled_conservation_to_roundoff() {
        // Periodic advection through a fixed central window: the deferred
        // reflux must conserve the composite integrals exactly.
        let mut amr = static_window(64, bc::uniform(Bc::Periodic), (20, 44), &sine_ic);
        let before = amr.composite_totals();
        amr.advance_to(0.0, 0.5, 0.4).unwrap();
        assert_eq!((amr.patch_count(1), amr.regrids()), (1, 0));
        let after = amr.composite_totals();
        for c in 0..NCOMP {
            assert!(
                (after[c] - before[c]).abs() <= 1e-12 * before[c].abs().max(1.0),
                "component {c}: {} -> {}",
                before[c],
                after[c]
            );
        }
    }

    #[test]
    fn wave_crosses_refinement_boundary_cleanly() {
        // Advect a density pulse through the fine window and back out; the
        // final error against the exact advected profile must be at the
        // coarse-grid level (no spurious reflections at the c/f boundary).
        let prob = Problem::density_wave(0.5, 0.3);
        let exact = prob.exact.clone().unwrap();
        let mut amr = static_window(64, prob.bcs, (24, 40), &|x| (prob.ic)(x));
        amr.advance_to(0.0, 2.0, 0.4).unwrap(); // one full period
        let l1 = amr.l1_density_error(&*exact, 2.0).unwrap();

        let (l1_coarse, _) = uniform_run(&prob, 64, 2.0);
        assert!(
            l1 < 1.5 * l1_coarse,
            "static-window error {l1} should not exceed the coarse error {l1_coarse}"
        );
    }

    #[test]
    fn subcycled_sod_accuracy() {
        // Shock crossing the refinement boundary under subcycling.
        let prob = Problem::sod();
        let exact = prob.exact.clone().unwrap();
        let mut amr = static_window(100, prob.bcs, (20, 95), &|x| (prob.ic)(x));
        amr.advance_to(0.0, prob.t_end, 0.4).unwrap();
        let e = amr.l1_density_error(&*exact, prob.t_end).unwrap();
        // Uniform-coarse reference error is ~5.7e-3 (A5); the static
        // window must clearly beat it.
        assert!(e < 4.5e-3, "static-window Sod error {e}");
    }

    #[test]
    fn coarse_level_steps_at_its_own_cfl() {
        // Subcycling lets the base level run at its own CFL limit: a run
        // needs about half the base steps of a grid that is fine
        // everywhere (or of any scheme that steps both levels together).
        let prob = Problem::density_wave(0.5, 0.3);
        let mut amr = static_window(64, prob.bcs, (24, 40), &|x| (prob.ic)(x));
        let steps = amr.advance_to(0.0, 1.0, 0.4).unwrap();

        let (_, steps_fine) = uniform_run(&prob, 128, 1.0);
        assert!(
            (steps as f64) < 0.65 * steps_fine as f64,
            "static window took {steps} base steps vs uniform-128 {steps_fine}"
        );
    }

    // ----- layout validation (`install_levels`) ----------------------------

    /// A valid three-level checkpoint on 64 base cells: level 1 over
    /// base cells 10..30 and 40..50, level 2 over level-1 cells 24..40.
    fn nested_checkpoint() -> AmrCheckpoint {
        let mut amr = solver(64, static_cfg(3), bc::uniform(Bc::Periodic));
        amr.init_static(&sine_ic, &[&[(40, 50), (10, 30)], &[(24, 40)]])
            .unwrap();
        assert_eq!((amr.patch_count(1), amr.patch_count(2)), (2, 1));
        amr.to_checkpoint(0.0)
    }

    /// `restore` must reject `ck` with a message containing `what`, and
    /// leave the hierarchy it had untouched.
    fn assert_restore_rejects(ck: &AmrCheckpoint, what: &str) {
        let mut amr = solver(64, static_cfg(3), bc::uniform(Bc::Periodic));
        amr.init_static(&sine_ic, &[&[(20, 44)]]).unwrap();
        let err = amr.restore(ck).unwrap_err();
        assert!(err.contains(what), "expected '{what}' in: {err}");
        assert_eq!((amr.patch_count(1), amr.levels[1][0].lo), (1, 40));
    }

    /// `init_static` must reject `layout` with a message containing `what`.
    fn assert_layout_rejected(layout: &[&[(usize, usize)]], what: &str) {
        let mut amr = solver(64, static_cfg(3), bc::uniform(Bc::Periodic));
        let err = amr.init_static(&sine_ic, layout).unwrap_err();
        assert!(err.contains(what), "expected '{what}' in: {err}");
    }

    /// Resize record `i` of `ck` to level-cell span `lo..lo+n`.
    fn respan(ck: &mut AmrCheckpoint, i: usize, lo: u64, n: u64) {
        ck.patches[i].lo = lo;
        ck.patches[i].n = n;
        ck.patches[i].data = vec![1.0; NCOMP * n as usize];
    }

    #[test]
    fn valid_nested_checkpoint_restores_in_any_record_order() {
        let mut ck = nested_checkpoint();
        ck.patches.reverse();
        let mut amr = solver(64, static_cfg(3), bc::uniform(Bc::Periodic));
        amr.restore(&ck).unwrap();
        assert_eq!(amr.to_checkpoint(0.0), nested_checkpoint());
        amr.advance_to(0.0, 0.05, 0.4).unwrap();
    }

    #[test]
    fn rejects_overlapping_siblings() {
        let mut ck = nested_checkpoint();
        respan(&mut ck, 2, 56, 44); // level 1: [20, 60) then [56, 100)
        assert_restore_rejects(&ck, "overlaps or abuts");
        assert_layout_rejected(&[&[(10, 30), (28, 50)]], "overlaps or abuts");
    }

    #[test]
    fn rejects_abutting_siblings() {
        let mut ck = nested_checkpoint();
        respan(&mut ck, 2, 60, 40); // level 1: [20, 60) then [60, 100)
        assert_restore_rejects(&ck, "overlaps or abuts");
        assert_layout_rejected(&[&[(10, 30), (30, 50)]], "overlaps or abuts");
    }

    #[test]
    fn rejects_patch_that_splits_a_parent_cell_or_is_empty() {
        for (lo, n) in [(81, 20), (80, 19), (80, 0), (u64::MAX - 1, 20)] {
            let mut ck = nested_checkpoint();
            respan(&mut ck, 2, lo, n);
            assert_restore_rejects(&ck, "empty or splits a parent cell");
        }
        assert_layout_rejected(&[&[(30, 30)]], "empty or splits a parent cell");
        assert_layout_rejected(&[&[(30, 10)]], "empty or splits a parent cell");
    }

    #[test]
    fn rejects_child_within_two_cells_of_its_parents_edge() {
        // Level 1 against the domain edge, level 2 against level 1's edge
        // (its reflux target would be a ghost cell), and a level-2 patch
        // over base cells no level-1 patch covers.
        for (i, lo, n) in [(1, 2, 58), (3, 42, 40), (3, 48, 70), (3, 140, 8)] {
            let mut ck = nested_checkpoint();
            respan(&mut ck, i, lo, n);
            assert_restore_rejects(&ck, "not nested");
        }
        assert_layout_rejected(&[&[(1, 30)]], "not nested");
        assert_layout_rejected(&[&[(40, 63)]], "not nested");
        assert_layout_rejected(&[&[(10, 30)], &[(21, 40)]], "not nested");
        // Two cells of clearance are enough.
        let mut amr = solver(64, static_cfg(3), bc::uniform(Bc::Periodic));
        amr.init_static(&sine_ic, &[&[(2, 62)], &[(6, 118)]])
            .unwrap();
    }

    #[test]
    fn rejects_level_beyond_max_levels() {
        let mut ck = nested_checkpoint();
        ck.patches[3].level = 3;
        assert_restore_rejects(&ck, "exceeds max_levels");
        assert_layout_rejected(
            &[&[(10, 30)], &[(24, 40)], &[(52, 60)]],
            "exceeds max_levels",
        );
    }

    #[test]
    fn rejects_level_zero_that_is_not_the_domain_patch() {
        let mut missing = nested_checkpoint();
        missing.patches.remove(0);
        let mut twice = nested_checkpoint();
        twice.patches.push(twice.patches[0].clone());
        let mut short = nested_checkpoint();
        respan(&mut short, 0, 0, 62);
        let mut shifted = nested_checkpoint();
        respan(&mut shifted, 0, 2, 64);
        for ck in [missing, twice, short, shifted] {
            assert_restore_rejects(&ck, "level 0 must be");
        }
        let mut truncated = nested_checkpoint();
        truncated.patches[1].data.pop();
        assert_restore_rejects(&truncated, "data length");
    }

    #[test]
    fn every_regridded_hierarchy_passes_layout_validation() {
        // The generator (flag, cluster, regrid) never produces what the
        // validator rejects: a checkpoint taken at any step of the
        // three-level blast run restores.
        let prob = Problem::blast_wave_1();
        let cfg = AmrConfig {
            threshold: 0.25,
            buffer: 3,
            regrid_interval: 2,
            ..AmrConfig::default()
        };
        let mut amr = solver(100, cfg.clone(), prob.bcs);
        amr.init(&|x| (prob.ic)(x));
        let mut scratch = solver(100, cfg, prob.bcs);
        let mut t = 0.0;
        while t < prob.t_end - 1e-14 {
            let ck = amr.to_checkpoint(t);
            scratch
                .restore(&ck)
                .unwrap_or_else(|e| panic!("step {}: {e}", amr.steps()));
            assert_eq!(scratch.to_checkpoint(t), ck);
            let dt = amr.stable_dt(0.4).unwrap().min(prob.t_end - t);
            amr.step(dt).unwrap();
            t += dt;
        }
        assert!(amr.regrids() > 40 && amr.patch_count(2) > 0);
    }

    #[test]
    fn cluster_runs_respects_min_size_and_gap() {
        let mut flags = vec![false; 64];
        flags[10] = true;
        flags[13] = true; // within merge_gap of 10 -> one run
        flags[40] = true;
        let mut runs = Vec::new();
        cluster_runs(&flags, [(2, 62)], 4, 4, &mut runs);
        assert_eq!(runs.len(), 2);
        for &(s, e) in &runs {
            assert!(e - s >= 4, "run [{s},{e}) below min size");
        }
        assert!(runs[0].0 <= 10 && runs[0].1 > 13);
        assert!(runs[1].0 <= 40 && runs[1].1 > 40);
    }

    #[test]
    #[should_panic(expected = "Cartesian")]
    fn rejects_curvilinear() {
        let s = Scheme {
            geometry: Geometry::SphericalRadial,
            ..scheme()
        };
        let _ = AmrSolver::new(
            s,
            bc::uniform(Bc::Outflow),
            RkOrder::Rk2,
            64,
            0.0,
            1.0,
            AmrConfig::default(),
        );
    }
}
