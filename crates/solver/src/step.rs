//! The spatial residual `L(U)`: dimension-by-dimension reconstruction,
//! Riemann fluxes, and flux divergence.
//!
//! For each active dimension `d` the solver sweeps 1D *pencils*: the five
//! primitive components are reconstructed to cell interfaces, an
//! approximate Riemann solver produces the interface flux, and the flux
//! difference is accumulated into the residual. The pencils of a region
//! are swept in *lane slabs*: a batch of pencils is copied into the
//! scratch as rows along `d` (the region's cells and `g` ghost rows on
//! either side) of one lane per pencil, about `SLAB_CELLS` cells in all,
//! and one kernel call runs them with stencils strided by the lane count.
//! For y and z the lanes are x-cells, so a row is a few slice copies of
//! x-runs and the residual is added along x-runs; for x the lanes are the
//! (y, z) positions, and the load is a transpose. Every interface the
//! kernel computes is one a cell keeps. Batches are independent, so
//! within-patch parallelism distributes batches over a gang
//! ([`rhrsc_runtime::WorkStealingPool`]); across dimensions the sweeps
//! accumulate sequentially, x then y then z in every cell.
//!
//! The residual can be evaluated on a sub-[`Region`] of the patch, and
//! along a subset of the axes. That is the mechanism behind
//! communication/computation overlap: the *deep* region (cells whose
//! stencils touch no ghost zone that still waits on a message) is swept
//! while halos are in flight, the remaining boundary *shell* afterwards,
//! and the axes after the last one that waits on a message need no split:
//! they sweep the whole interior once, after the shells.

use crate::scheme::{prim_at, rate_lanes, Geometry, Scheme, WaveScan};
use rhrsc_eos::Eos;
use rhrsc_grid::{Field, PatchGeom};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_srhd::recon::RECON_BLOCK;
use rhrsc_srhd::riemann::RiemannSolver;
use rhrsc_srhd::{Cons, Dir, NCOMP};
use std::cell::RefCell;
use std::ops::Range;

/// A rectangular sub-region of a patch, in ghost-inclusive cell indices
/// (`lo` inclusive, `hi` exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Inclusive lower cell indices.
    pub lo: [usize; 3],
    /// Exclusive upper cell indices.
    pub hi: [usize; 3],
}

impl Region {
    /// The full interior of a patch.
    pub fn interior(geom: &PatchGeom) -> Region {
        let lo = [geom.ng_of(0), geom.ng_of(1), geom.ng_of(2)];
        Region {
            lo,
            hi: [lo[0] + geom.n[0], lo[1] + geom.n[1], lo[2] + geom.n[2]],
        }
    }

    /// Number of cells in the region.
    pub fn len(&self) -> usize {
        (0..3)
            .map(|d| self.hi[d].saturating_sub(self.lo[d]))
            .product()
    }

    /// `true` when the region contains no cells.
    pub fn is_empty(&self) -> bool {
        (0..3).any(|d| self.hi[d] <= self.lo[d])
    }

    /// Every cell of a patch, ghosts included.
    pub fn whole(geom: &PatchGeom) -> Region {
        Region {
            lo: [0; 3],
            hi: [geom.ntot(0), geom.ntot(1), geom.ntot(2)],
        }
    }

    /// Split the interior into a *deep* core (cells at distance `>= depth`
    /// from every block face of a dimension marked in `waits`) and the
    /// boundary *shell* slabs beside those faces. `waits[d]` says that the
    /// ghosts of dimension `d` are not valid yet (a halo message is still
    /// in flight); the deep core's stencils (width `depth`) read no ghost
    /// of such a dimension, so it can be computed before the halos arrive.
    /// Dimensions whose ghosts are already filled keep their full extent:
    /// their pencils stay whole instead of being cut into shell stubs.
    /// Returns `(deep, shells)`; the shells and the deep core are disjoint
    /// and cover the interior.
    pub fn split_deep_shell(
        geom: &PatchGeom,
        depth: usize,
        waits: [bool; 3],
    ) -> (Region, Vec<Region>) {
        let interior = Region::interior(geom);
        let mut deep = interior;
        for d in (0..3).filter(|&d| geom.active(d) && waits[d]) {
            deep.lo[d] = (deep.lo[d] + depth).min(interior.hi[d]);
            deep.hi[d] = deep.hi[d].saturating_sub(depth).max(deep.lo[d]);
        }
        let mut shells = Vec::new();
        let mut cur = interior;
        for d in 0..3 {
            if cur.lo[d] < deep.lo[d] {
                let mut s = cur;
                s.hi[d] = deep.lo[d];
                shells.push(s);
            }
            if deep.hi[d] < cur.hi[d] {
                let mut s = cur;
                s.lo[d] = deep.hi[d];
                shells.push(s);
            }
            cur.lo[d] = deep.lo[d];
            cur.hi[d] = deep.hi[d];
        }
        (deep, shells)
    }
}

/// Compute the full residual `rhs = L(U)` over the patch interior.
/// `prim` must hold valid primitives everywhere the stencil reaches
/// (interior + ghosts). `rhs` is zeroed first. Pass a pool for gang
/// parallelism over pencils.
pub fn compute_rhs(
    scheme: &Scheme,
    prim: &Field,
    rhs: &mut Field,
    pool: Option<&WorkStealingPool>,
) {
    rhs.raw_mut().fill(0.0);
    let region = Region::interior(prim.geom());
    accumulate_rhs_region(scheme, prim, rhs, &region, pool);
}

/// Accumulate the residual over `region` into `rhs` **without zeroing**.
/// Calling this over disjoint regions that tile the interior is exactly
/// equivalent to one full [`compute_rhs`].
pub fn accumulate_rhs_region(
    scheme: &Scheme,
    prim: &Field,
    rhs: &mut Field,
    region: &Region,
    pool: Option<&WorkStealingPool>,
) {
    accumulate_rhs_region_scan(scheme, prim, rhs, region, None, pool);
}

/// [`accumulate_rhs_region`] with an optional fused wave-speed scan.
///
/// When `scan` is given, the sweep along the first active dimension also
/// folds every region cell's CFL rate `Σ_d max(|λ−|, |λ+|) / Δx_d` into
/// the running maximum, from the five primitives already resident in
/// the slab scratch. It is the expression [`crate::scheme::max_dt`]
/// maximizes, and a maximum does not depend on visiting order, so after
/// scanning regions that tile the interior `scan.dt(cfl)` reproduces the
/// two-pass Δt bitwise while `phase.dt.local` disappears as a separate
/// pass. The caller must [`WaveScan::reset`] before the first region.
pub fn accumulate_rhs_region_scan(
    scheme: &Scheme,
    prim: &Field,
    rhs: &mut Field,
    region: &Region,
    scan: Option<&WaveScan>,
    pool: Option<&WorkStealingPool>,
) {
    sweep_axes(scheme, prim, rhs, region, 0..3, false, scan, pool);
}

/// [`accumulate_rhs_region_scan`] along the axes `axes` only. Sweeping
/// `0..k` over regions that tile the interior and then `k..3` over the
/// interior adds x, then y, then z into every cell, as one full sweep
/// does, bit for bit. The scan rides on the sweep along the first active
/// dimension, and the geometric sources on the sweeps that end at z.
///
/// With `store` the sweep along the first active dimension writes `0.0 −
/// ΔF/Δx` into its cells instead of adding to them: the value a zeroed
/// cell takes (a plain negation would turn `+0.0` into `−0.0`), without
/// the zeroing pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_axes(
    scheme: &Scheme,
    prim: &Field,
    rhs: &mut Field,
    region: &Region,
    axes: Range<usize>,
    store: bool,
    scan: Option<&WaveScan>,
    pool: Option<&WorkStealingPool>,
) {
    if region.is_empty() || axes.is_empty() {
        return;
    }
    let geom = *prim.geom();
    let g = scheme.recon.ghost();
    debug_assert!(
        (0..3).all(|d| !geom.active(d) || geom.ng >= g),
        "patch has {} ghosts, reconstruction needs {g}",
        geom.ng,
    );
    assert!(
        *rhs.geom() == geom && rhs.ncomp() == NCOMP,
        "rhs must be a conserved field on the primitive field's patch"
    );
    // SAFETY: `rhs` has the patch of `prim` (checked above; a slab loads
    // every cell it writes from `prim` first, through checked slices),
    // the slabs of a sweep hold disjoint pencils, and `rhs` is borrowed
    // for the whole sweep.
    let raw = unsafe { SlabRhs::new(rhs) };
    let first = (0..3).find(|&d| geom.active(d));
    for d in axes.clone().filter(|&d| geom.active(d)) {
        let (scan, store) = (scan.filter(|_| Some(d) == first), store && Some(d) == first);
        let extent = region.hi[d] - region.lo[d];
        let npencils = region.len() / extent;
        let lanes = (SLAB_CELLS / (extent + 2 * g)).clamp(1, RECON_BLOCK);
        let task = |batch: usize| {
            let pencils = batch * lanes..npencils.min((batch + 1) * lanes);
            SCRATCH.with(|cell| {
                let s = &mut *cell.borrow_mut();
                sweep_slab(scheme, prim, d, region, pencils, raw, store, scan, s);
            });
        };
        let nbatches = npencils.div_ceil(lanes);
        match pool {
            Some(pool) if nbatches > 1 => pool.par_for(nbatches, 1, &task),
            _ => (0..nbatches).for_each(task),
        }
    }
    if scheme.geometry != Geometry::Cartesian && axes.end == 3 {
        accumulate_geometric_sources(scheme, prim, rhs, region);
    }
}

/// Geometric source terms for symmetry-reduced radial coordinates:
/// `S = −(α/r)·(D v, S_r v, 0, 0, (τ+p) v)` with `x` as the radius.
fn accumulate_geometric_sources(scheme: &Scheme, prim: &Field, rhs: &mut Field, region: &Region) {
    let geom = *prim.geom();
    assert_eq!(
        geom.ndim(),
        1,
        "curvilinear geometry requires a 1D (radial) grid"
    );
    let alpha = scheme.geometry.alpha();
    for k in region.lo[2]..region.hi[2] {
        for j in region.lo[1]..region.hi[1] {
            for i in region.lo[0]..region.hi[0] {
                let r = geom.center(i, j, k)[0];
                assert!(r > 0.0, "radial grid must satisfy r > 0 at cell centers");
                let w = prim_at(prim, i, j, k);
                let u = w.to_cons(&scheme.eos);
                let v = w.vel[0];
                let f = alpha / r;
                let src = Cons {
                    d: -f * u.d * v,
                    s: [-f * u.s[0] * v, 0.0, 0.0],
                    tau: -f * (u.tau + w.p) * v,
                };
                let cur = rhs.get_cons(i, j, k);
                rhs.set_cons(i, j, k, cur + src);
            }
        }
    }
}

/// The rhs storage as the lane slabs of one sweep write it: each copy
/// is handed to one slab, which writes the cells on its own pencils only.
#[derive(Clone, Copy)]
pub(crate) struct SlabRhs {
    ptr: *mut f64,
    comp_stride: usize,
}

// SAFETY: `ptr` is only written through `SlabRhs::row`, on the cells of
// the one slab each copy is handed to, which no other thread touches
// (`SlabRhs::new`'s contract); `comp_stride` is a plain count.
unsafe impl Send for SlabRhs {}
// SAFETY: as for `Send`; a shared copy is only copied, never written
// through.
unsafe impl Sync for SlabRhs {}

impl SlabRhs {
    /// # Safety
    /// `rhs` must outlive every copy and have the geometry of the
    /// primitive field the slabs sweep, nothing else may access it while
    /// a copy is in use, and no two slabs in flight at once may hold the
    /// same pencil.
    pub(crate) unsafe fn new(rhs: &mut Field) -> Self {
        SlabRhs {
            comp_stride: rhs.geom().len(),
            ptr: rhs.raw_mut().as_mut_ptr(),
        }
    }

    /// The `len` cells of component `c` from storage offset `at`: cells
    /// on the pencils of the slab this copy was handed to.
    #[inline(always)]
    fn row(&mut self, c: usize, at: usize, len: usize) -> &mut [f64] {
        // SAFETY: `SlabRhs::new`'s contract; the slab asks for its own
        // pencils' cells only.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(c * self.comp_stride + at), len) }
    }
}

/// One side (left or right) of every interface of a pencil: the
/// reconstructed primitives `w` and what [`prepare_side`] derives from
/// them.
#[derive(Default)]
struct SideBanks {
    /// Reconstructed interface primitives `(ρ, vx, vy, vz, p)`.
    w: [Vec<f64>; NCOMP],
    /// Interface conserved state `(D, Sx, Sy, Sz, τ)`.
    u: [Vec<f64>; NCOMP],
    /// Physical flux.
    f: [Vec<f64>; NCOMP],
    /// Characteristic speeds λ∓.
    lm: Vec<f64>,
    lp: Vec<f64>,
    /// Sanitized normal velocity and pressure (HLLC star state).
    vn: Vec<f64>,
    p: Vec<f64>,
}

/// Reusable structure-of-arrays slab workspace, one per worker thread.
///
/// Holds the cell slab (`q`, `lanes` pencils interleaved cell by cell;
/// one lane is a plain pencil), the two sides' interface banks and the
/// interface flux bank. Reuse is stale-safe: every slot that a kernel
/// reads is written earlier in the same call (a slab is loaded over
/// `q[..len]`, and the kernel's stencils read no cell past it;
/// `Recon::strided` writes exactly `[lo, hi1)`; the banks and fluxes are
/// written over `[lo, hi1)` before the divergence loop reads them).
#[derive(Default)]
pub(crate) struct PencilScratch {
    q: [Vec<f64>; NCOMP],
    /// Lanes of the loaded slab: the stride of every stencil.
    lanes: usize,
    l: SideBanks,
    r: SideBanks,
    /// Interface flux bank.
    flux: [Vec<f64>; NCOMP],
}

impl PencilScratch {
    /// Mutable cell pencil of primitive component `c` (load target of a
    /// one-lane slab).
    pub(crate) fn q_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.q[c]
    }

    /// Interface flux bank of component `c` (valid over the range passed
    /// to [`reconstruct_and_flux`]).
    pub(crate) fn flux(&self, c: usize) -> &[f64] {
        &self.flux[c]
    }

    fn ensure(&mut self, nt: usize) {
        let n1 = nt + 1;
        self.q.iter_mut().for_each(|v| v.resize(nt, 0.0));
        for s in [&mut self.l, &mut self.r] {
            let per_comp = s.w.iter_mut().chain(&mut s.u).chain(&mut s.f);
            let banks = per_comp.chain([&mut s.lm, &mut s.lp, &mut s.vn, &mut s.p]);
            banks.for_each(|v| v.resize(n1, 0.0));
        }
        self.flux.iter_mut().for_each(|v| v.resize(n1, 0.0));
    }
}

thread_local! {
    static SCRATCH: RefCell<PencilScratch> = RefCell::new(PencilScratch::default());
}

/// Run `f` with this thread's scratch sized for a pencil of `nt` cells (a
/// one-lane slab). Entry point for the shared-kernel users outside this
/// module (the AMR level residual, one packed pencil per level).
pub(crate) fn with_pencil_scratch<R>(nt: usize, f: impl FnOnce(&mut PencilScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.ensure(nt);
        s.lanes = 1;
        f(s)
    })
}

/// Sanitize one side's reconstructed interface states and precompute its
/// conserved state, physical flux, characteristic speeds, and the
/// sanitized `(v_n, p)` pair over `[lo, hi1)`: [`side_lanes`]' two
/// passes, the clamp's only where a lane needs it.
///
/// The sweep direction and the EOS variant are matched here, once per
/// call: each arm inlines a [`side_lanes`] in which both are constants,
/// so its lane loop holds no `match` and no runtime index.
#[inline(always)]
fn prepare_side(scheme: &Scheme, n: usize, side: &mut SideBanks, lo: usize, hi1: usize) {
    if side_pass::<false>(scheme, n, side, lo, hi1) {
        clamp_side(scheme, n, side, lo, hi1);
    }
}

/// [`prepare_side`]'s fix-up pass, out of line at baseline width: it runs
/// only for a call whose interfaces hold a superluminal state, and one
/// copy serves every arm. It walks every interface of the call and
/// recomputes the clamped ones, so a field that clamps a lane in most
/// slabs pays a second, scalar pass on top of the vector one (DESIGN
/// "Lane-form `prepare_side`" gives the measured break-even).
#[cold]
#[inline(never)]
fn clamp_side(scheme: &Scheme, n: usize, side: &mut SideBanks, lo: usize, hi1: usize) {
    side_pass::<true>(scheme, n, side, lo, hi1);
}

/// One pass of [`side_lanes`] over `[lo, hi1)`, the direction and EOS
/// variant matched.
#[inline(always)]
fn side_pass<const CLAMP: bool>(
    scheme: &Scheme,
    n: usize,
    side: &mut SideBanks,
    lo: usize,
    hi1: usize,
) -> bool {
    let floors = (scheme.c2p.rho_floor, scheme.c2p.p_floor);
    let w = cut(&side.w, lo, hi1);
    let [d, sx, sy, sz, tau] = &mut side.u;
    let [fd, fx, fy, fz, ft] = &mut side.f;
    let (lm, lp, vn, p) = (&mut side.lm, &mut side.lp, &mut side.vn, &mut side.p);
    // Every output bank is an argument of its own: only a `&mut`
    // parameter tells the optimiser that its stores alias nothing else.
    macro_rules! lanes {
        ($n:literal, $eos:expr) => {
            side_lanes::<$n, CLAMP>(
                $eos,
                floors,
                w,
                &mut d[lo..hi1],
                &mut sx[lo..hi1],
                &mut sy[lo..hi1],
                &mut sz[lo..hi1],
                &mut tau[lo..hi1],
                &mut fd[lo..hi1],
                &mut fx[lo..hi1],
                &mut fy[lo..hi1],
                &mut fz[lo..hi1],
                &mut ft[lo..hi1],
                &mut lm[lo..hi1],
                &mut lp[lo..hi1],
                &mut vn[lo..hi1],
                &mut p[lo..hi1],
            )
        };
    }
    match (n, scheme.eos) {
        (0, Eos::IdealGas { gamma }) => lanes!(0, Eos::IdealGas { gamma }),
        (1, Eos::IdealGas { gamma }) => lanes!(1, Eos::IdealGas { gamma }),
        (_, Eos::IdealGas { gamma }) => lanes!(2, Eos::IdealGas { gamma }),
        (0, Eos::TaubMathews) => lanes!(0, Eos::TaubMathews),
        (1, Eos::TaubMathews) => lanes!(1, Eos::TaubMathews),
        (_, Eos::TaubMathews) => lanes!(2, Eos::TaubMathews),
    }
}

/// The lane loop of [`prepare_side`] for a sweep along axis `N`; every
/// slice covers the same interfaces.
///
/// The arithmetic is the exact composition of `Scheme::sanitize`,
/// `Prim::to_cons`, `physical_flux_from`, and `signal_speeds` on each
/// lane. Two things differ from the AoS path and neither can change a
/// value: `v²` (identical expression in `vsq`/`lorentz`) is computed once
/// per lane instead of per callee, and the superluminal clamp is a
/// fix-up pass. With `CLAMP = false` every lane is computed from its
/// unclamped velocity — straight-line arithmetic for the autovectoriser —
/// and the return value says whether a lane has `v² ≥ 1 − 10⁻¹²`; only
/// then does [`clamp_side`] run this body with `CLAMP = true`, which
/// recomputes exactly those lanes from the clamped velocity. A lane the
/// clamp leaves alone has the same velocity and the same `v²` in both
/// forms, and a NaN `v²` fails the comparison in both, so no lane pays
/// for the clamp's divide and square root unless it is clamped.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn side_lanes<const N: usize, const CLAMP: bool>(
    eos: Eos,
    (rho_floor, p_floor): (f64, f64),
    w: [&[f64]; NCOMP],
    u_d: &mut [f64],
    u_sx: &mut [f64],
    u_sy: &mut [f64],
    u_sz: &mut [f64],
    u_tau: &mut [f64],
    f_d: &mut [f64],
    f_sx: &mut [f64],
    f_sy: &mut [f64],
    f_sz: &mut [f64],
    f_tau: &mut [f64],
    lm: &mut [f64],
    lp: &mut [f64],
    vn_out: &mut [f64],
    p_out: &mut [f64],
) -> bool {
    const V2_MAX: f64 = 1.0 - 1e-12;
    let mut clamped = false;
    for j in 0..p_out.len() {
        // Scheme::sanitize, in place on the lane.
        let rho = w[0][j].max(rho_floor);
        let p = w[4][j].max(p_floor);
        let (vx, vy, vz) = (w[1][j], w[2][j], w[3][j]);
        // Prim::vsq.
        let v2 = vx * vx + vy * vy + vz * vz;
        let superluminal = v2 >= V2_MAX;
        clamped |= superluminal;
        let (vx, vy, vz, v2) = if !CLAMP {
            (vx, vy, vz, v2)
        } else if superluminal {
            let scale = (V2_MAX / v2).sqrt();
            let (vx, vy, vz) = (vx * scale, vy * scale, vz * scale);
            (vx, vy, vz, vx * vx + vy * vy + vz * vz)
        } else {
            continue;
        };
        // Prim::lorentz on the sanitized velocity.
        let wlor = 1.0 / (1.0 - v2).sqrt();
        // Prim::to_cons.
        let h = eos.enthalpy(rho, p);
        let rhw2 = rho * h * wlor * wlor;
        let d = rho * wlor;
        let sx = rhw2 * vx;
        let sy = rhw2 * vy;
        let sz = rhw2 * vz;
        let tau = rhw2 - p - d;
        u_d[j] = d;
        u_sx[j] = sx;
        u_sy[j] = sy;
        u_sz[j] = sz;
        u_tau[j] = tau;
        // physical_flux_from.
        let vn = [vx, vy, vz][N];
        let mut fs = [sx * vn, sy * vn, sz * vn];
        fs[N] += p;
        f_d[j] = d * vn;
        f_sx[j] = fs[0];
        f_sy[j] = fs[1];
        f_sz[j] = fs[2];
        f_tau[j] = (tau + p) * vn;
        // signal_speeds.
        let cs2 = eos.sound_speed_sq(rho, p).clamp(0.0, 1.0 - 1e-15);
        let den = 1.0 - v2 * cs2;
        let disc = ((1.0 - v2) * (1.0 - v2 * cs2 - vn * vn * (1.0 - cs2))).max(0.0);
        let root = disc.sqrt();
        let cs = cs2.sqrt();
        lm[j] = ((vn * (1.0 - cs2) - cs * root) / den).clamp(-1.0, 1.0);
        lp[j] = ((vn * (1.0 - cs2) + cs * root) / den).clamp(-1.0, 1.0);
        vn_out[j] = vn;
        p_out[j] = p;
    }
    clamped
}

/// One side of one interface, as the Riemann combines read it.
#[derive(Clone, Copy)]
struct Face {
    u: [f64; NCOMP],
    f: [f64; NCOMP],
    lm: f64,
    lp: f64,
    vn: f64,
    p: f64,
}

/// The banks of one side a Riemann combine reads, over its interfaces.
struct SideView<'a> {
    u: [&'a [f64]; NCOMP],
    f: [&'a [f64]; NCOMP],
    lm: &'a [f64],
    lp: &'a [f64],
    vn: &'a [f64],
    p: &'a [f64],
}

/// `v[c][lo..hi1]` for every component `c`.
#[inline(always)]
fn cut(v: &[Vec<f64>; NCOMP], lo: usize, hi1: usize) -> [&[f64]; NCOMP] {
    let [a, b, c, d, e] = v;
    [
        &a[lo..hi1],
        &b[lo..hi1],
        &c[lo..hi1],
        &d[lo..hi1],
        &e[lo..hi1],
    ]
}

impl SideBanks {
    /// The banks over the interfaces `[lo, hi1)`.
    #[inline(always)]
    fn view(&self, lo: usize, hi1: usize) -> SideView<'_> {
        SideView {
            u: cut(&self.u, lo, hi1),
            f: cut(&self.f, lo, hi1),
            lm: &self.lm[lo..hi1],
            lp: &self.lp[lo..hi1],
            vn: &self.vn[lo..hi1],
            p: &self.p[lo..hi1],
        }
    }
}

impl SideView<'_> {
    #[inline(always)]
    fn face(&self, j: usize) -> Face {
        let [d, sx, sy, sz, tau] = self.u;
        let [fd, fx, fy, fz, ft] = self.f;
        Face {
            u: [d[j], sx[j], sy[j], sz[j], tau[j]],
            f: [fd[j], fx[j], fy[j], fz[j], ft[j]],
            lm: self.lm[j],
            lp: self.lp[j],
            vn: self.vn[j],
            p: self.p[j],
        }
    }
}

/// Fill the flux banks `f_*` with `lane`, the flux of one interface from
/// its two [`Face`]s; every bank covers the same interfaces.
///
/// Every output bank is an argument of its own (only a `&mut` parameter
/// tells the optimiser that its stores alias nothing else), and `lane` is
/// straight-line arithmetic whose exits are selects, so the loop is one
/// vector body wherever the vectoriser's cost model takes it (HLLC: on
/// the AVX-512 arm only; DESIGN "Vector width").
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn combine_lanes(
    l: SideView,
    r: SideView,
    f_d: &mut [f64],
    f_sx: &mut [f64],
    f_sy: &mut [f64],
    f_sz: &mut [f64],
    f_tau: &mut [f64],
    lane: impl Fn(Face, Face) -> [f64; NCOMP],
) {
    for j in 0..f_d.len() {
        let [d, sx, sy, sz, tau] = lane(l.face(j), r.face(j));
        (f_d[j], f_sx[j], f_sy[j], f_sz[j], f_tau[j]) = (d, sx, sy, sz, tau);
    }
}

/// `[e(0), e(1), …, e(4)]`, with `$c` bound to each component: the lane
/// kernels spell per-component arithmetic with it, because a loop or a
/// closure over a component array keeps the interface loop scalar.
macro_rules! each {
    ($c:ident => $e:expr) => {
        each!(@ $c => $e; 0 1 2 3 4)
    };
    (@ $c:ident => $e:expr; $($i:literal)*) => {
        [$({ let $c = $i; $e }),*]
    };
}

/// `a` where `left`, else `b`: a select.
#[inline(always)]
fn pick(left: bool, a: f64, b: f64) -> f64 {
    if left {
        a
    } else {
        b
    }
}

/// The upwind exits every HLL-type flux shares, as selects on the
/// comparisons of `hll_flux_from`'s `if / else if` chain: the left flux
/// where `λ_L ≥ 0`, else the right flux where `λ_R ≤ 0`, else the fan
/// flux. A NaN speed fails both tests and takes the fan, as the branches
/// did.
#[inline(always)]
fn upwind(lam_l: f64, lam_r: f64, l: Face, r: Face, fan: [f64; NCOMP]) -> [f64; NCOMP] {
    each!(c => pick(lam_l >= 0.0, l.f[c], pick(lam_r <= 0.0, r.f[c], fan[c])))
}

/// The Rusanov flux of one interface (exact expression tree of
/// `rusanov_flux`).
#[inline(always)]
fn rusanov_lane(l: Face, r: Face) -> [f64; NCOMP] {
    let a = l.lm.abs().max(l.lp.abs()).max(r.lm.abs()).max(r.lp.abs());
    let half_a = 0.5 * a;
    each!(c => (l.f[c] + r.f[c]) * 0.5 - (r.u[c] - l.u[c]) * half_a)
}

/// The HLL flux of one interface (exact expression tree of `hll_flux`
/// with Davis speeds).
#[inline(always)]
fn hll_lane(l: Face, r: Face) -> [f64; NCOMP] {
    let lam_l = l.lm.min(r.lm);
    let lam_r = l.lp.max(r.lp);
    let inv = 1.0 / (lam_r - lam_l);
    let ll_lr = lam_l * lam_r;
    let fan = each!(c => (l.f[c] * lam_r - r.f[c] * lam_l + (r.u[c] - l.u[c]) * ll_lr) * inv);
    upwind(lam_l, lam_r, l, r, fan)
}

/// The HLLC flux of one interface along axis `N` (exact expression tree
/// of `hllc_flux`, Mignone & Bodo 2005), in lane form: every lane
/// computes the contact speed and the star state, and the three exits —
/// upwind left, upwind right, the star state of the side holding the
/// interface — and the quadratic's linear case are selects on the
/// comparisons the branches tested. A select hands on the value the
/// branch computed, and an arm that was not taken is computed and
/// dropped, finite or not, so no bit can move.
#[inline(always)]
fn hllc_lane<const N: usize>(l: Face, r: Face) -> [f64; NCOMP] {
    let sn = 1 + N;
    let lam_l = l.lm.min(r.lm);
    let lam_r = l.lp.max(r.lp);
    // HLL fan state/flux; only the (D, S_n, τ) components feed the
    // contact-speed quadratic.
    let inv = 1.0 / (lam_r - lam_l);
    let ll_lr = lam_l * lam_r;
    let fan_u = each!(c => (r.u[c] * lam_r - l.u[c] * lam_l + (l.f[c] - r.f[c])) * inv);
    let fan_f = each!(c => (l.f[c] * lam_r - r.f[c] * lam_l + (r.u[c] - l.u[c]) * ll_lr) * inv);
    let e_hll = fan_u[4] + fan_u[0];
    let m_hll = fan_u[sn];
    let fe_hll = fan_f[4] + fan_f[0];
    let fm_hll = fan_f[sn];

    let b = -(e_hll + fm_hll);
    // Quadratic degenerates to linear.
    let linear = -m_hll / b;
    let disc = (b * b - 4.0 * fe_hll * m_hll).max(0.0);
    // Numerically stable "minus" root via the q-formula.
    let q = -0.5 * (b - b.signum() * disc.sqrt());
    let r1 = q / fe_hll;
    let r2 = m_hll / q;
    let root = pick(r1 > lam_l && r1 < lam_r, r1, r2);
    let degenerate = fe_hll.abs() < 1e-12 * (e_hll.abs() + fm_hll.abs()).max(1e-300);
    let lam_star = pick(degenerate, linear, root);
    // `f64::clamp` without its assertion, as in `hllc_flux`.
    let lam_star = pick(lam_star < lam_l, lam_l, lam_star);
    let lam_star = pick(lam_star > lam_r, lam_r, lam_star);

    // Star state on the side containing the interface (ξ = 0). A term
    // read from one side only is formed on both and the side picked from
    // the results: a select of two loads would become a load from a
    // selected address, which keeps the loop scalar.
    let left = lam_star >= 0.0;
    let lam = pick(left, lam_l, lam_r);
    let u0 = pick(left, l.u[0], r.u[0]);
    let u4 = pick(left, l.u[4], r.u[4]);
    let m = pick(left, l.u[sn], r.u[sn]);
    let e = u4 + u0;
    let a_coef = lam * e - m;
    let b_l = l.u[sn] * (lam_l - l.vn) - l.p;
    let b_coef = pick(left, b_l, r.u[sn] * (lam_r - r.vn) - r.p);
    let p_star = (a_coef * lam_star - b_coef) / (1.0 - lam * lam_star);
    let p_star = p_star.max(0.0);

    // Jump conditions across the outer wave.
    let k = pick(left, lam_l - l.vn, lam_r - r.vn) / (lam - lam_star);
    let e_star = (lam * e - m + p_star * lam_star) / (lam - lam_star);
    let m_star = (e_star + p_star) * lam_star;
    let d_star = u0 * k;

    // F* = F + λ (U* − U), with U* = (D*, S*, E* − D*): S*_n = m*, and
    // the transverse momenta scale by k.
    let mut du = each!(c => pick(left, l.u[c] * k - l.u[c], r.u[c] * k - r.u[c]));
    (du[0], du[sn], du[4]) = (d_star - u0, m_star - m, e_star - d_star - u4);
    let star = each!(c => pick(left, l.f[c], r.f[c]) + du[c] * lam);
    upwind(lam_l, lam_r, l, r, star)
}

vector_width! {
    /// Reconstruct the loaded slab to interfaces, sanitize, and compute
    /// the interface flux bank `s.flux[..][lo..hi1]` with the scheme's
    /// Riemann solver dispatched once per call (a lane slab or an AMR
    /// level), at the host's vector width.
    ///
    /// `s.q` must already hold the five primitive components of the slab.
    pub(crate) fn reconstruct_and_flux(
        scheme: &Scheme,
        s: &mut PencilScratch,
        dir: Dir,
        lo: usize,
        hi1: usize,
    ) = flux_lanes in flux_arms;
}

/// The body of [`reconstruct_and_flux`], built once per vector level:
/// everything it calls is `#[inline(always)]`.
#[inline(always)]
pub(crate) fn flux_lanes(scheme: &Scheme, s: &mut PencilScratch, dir: Dir, lo: usize, hi1: usize) {
    let n = dir.axis();
    for c in 0..NCOMP {
        let (wl, wr) = (&mut s.l.w[c], &mut s.r.w[c]);
        scheme.recon.strided(&s.q[c], s.lanes, lo, hi1, wl, wr);
    }
    // One loop over the two sides, so that each arm holds one copy of
    // `prepare_side`'s six kernels.
    for side in [&mut s.l, &mut s.r].iter_mut() {
        prepare_side(scheme, n, side, lo, hi1);
    }
    let [f_d, f_sx, f_sy, f_sz, f_tau] = &mut s.flux;
    // The solver and, for HLLC, the direction are matched once per call;
    // the lane is a closure of its own so that it inlines into each arm.
    macro_rules! combine {
        ($lane:path) => {
            combine_lanes(
                s.l.view(lo, hi1),
                s.r.view(lo, hi1),
                &mut f_d[lo..hi1],
                &mut f_sx[lo..hi1],
                &mut f_sy[lo..hi1],
                &mut f_sz[lo..hi1],
                &mut f_tau[lo..hi1],
                #[inline(always)]
                |l, r| $lane(l, r),
            )
        };
    }
    match (scheme.riemann, n) {
        (RiemannSolver::Rusanov, _) => combine!(rusanov_lane),
        (RiemannSolver::Hll, _) => combine!(hll_lane),
        (RiemannSolver::Hllc, 0) => combine!(hllc_lane::<0>),
        (RiemannSolver::Hllc, 1) => combine!(hllc_lane::<1>),
        (RiemannSolver::Hllc, _) => combine!(hllc_lane::<2>),
    }
}

/// Cells of one lane slab: a batch takes as many pencils as fit, at
/// least one and at most `RECON_BLOCK` (the stride the staged schemes
/// take).
const SLAB_CELLS: usize = 768;

vector_width! {
    /// Sweep the lane slab `pencils` of `region` along `d` (pencil `p`
    /// sits at the `p`-th transverse position, the lower transverse
    /// dimension fastest) on this thread's scratch `s`, at the host's
    /// vector width: load, reconstruct, solve Riemann problems and
    /// accumulate flux differences into `rhs` — or, with `store`, write
    /// `0.0` minus them — plus the optional fused wave-speed scan.
    ///
    /// With `L = pencils.len()` lanes, the slab holds the stencil rows
    /// `lo - g .. hi + g` along `d` (`g = recon.ghost()`), pencil `i`'s
    /// cell of row `r` at `q[r·L + i]`, and one [`reconstruct_and_flux`]
    /// call at stride `L` computes the interfaces of rows `g ..= g + hi -
    /// lo`: those of the region's cells, no other. Each reads the cells
    /// `Recon::pencil` would read on its pencil alone, and the cells add
    /// their flux differences as before, so no bit can differ from a
    /// sweep of one pencil at a time.
    ///
    /// The load or transpose, the divergence and the scan's rate body are
    /// one arm; the caller borrows the scratch, so that no closure stands
    /// between the arm and its work. The flux stays the one kernel the AMR
    /// level residual calls too, one call per slab: inlined here it would
    /// be a second copy of the sweep's largest kernel in the binary, for
    /// no measured gain.
    fn sweep_slab(
        scheme: &Scheme,
        prim: &Field,
        d: usize,
        region: &Region,
        pencils: Range<usize>,
        rhs: SlabRhs,
        store: bool,
        scan: Option<&WaveScan>,
        s: &mut PencilScratch,
    ) = slab_lanes in slab_arms;
}

/// The body of [`sweep_slab`], built once per vector level: everything it
/// calls is `#[inline(always)]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn slab_lanes(
    scheme: &Scheme,
    prim: &Field,
    d: usize,
    region: &Region,
    pencils: Range<usize>,
    mut rhs: SlabRhs,
    store: bool,
    scan: Option<&WaveScan>,
    s: &mut PencilScratch,
) {
    let geom = prim.geom();
    let g = scheme.recon.ghost();
    let (lo, hi) = (region.lo[d], region.hi[d]);
    let (n, lanes) = (hi - lo, pencils.len());
    let len = (n + 2 * g) * lanes;
    let inv_dx = 1.0 / geom.dx[d];
    // Transverse dims in ascending order, and the storage step of each.
    let (a, b) = [(1, 2), (0, 2), (0, 1)][d];
    let strides = [1, geom.ntot(0), geom.ntot(0) * geom.ntot(1)];
    let step = strides[d];
    let na = region.hi[a] - region.lo[a];
    // Storage offset of pencil `p`'s cell `lo`.
    let at = |p: usize| {
        let (ta, tb) = (region.lo[a] + p % na, region.lo[b] + p / na);
        lo * step + ta * strides[a] + tb * strides[b]
    };
    // The pencils of a y or z slab in runs along x: (first lane, first
    // pencil, count).
    let (start, end) = (pencils.start, pencils.end);
    let runs = move || {
        (start / na..end.div_ceil(na)).map(move |tb| {
            let p = start.max(tb * na);
            (p - start, p, end.min(tb * na + na) - p)
        })
    };

    // Sized once for any slab, so a steady sweep never reallocates; a
    // one-lane slab (a long pencil, a 1D line) takes what it needs.
    s.ensure(if lanes == 1 { len } else { len.max(SLAB_CELLS) });
    s.lanes = lanes;
    // A pencil's (or a run's) offset is found once for all five
    // components; `q[c]` is the primitive field's component `c`.
    if d == 0 {
        // A transpose: pencil `i` is lane `i`.
        for (i, p) in pencils.clone().enumerate() {
            let first = at(p) - g;
            for (c, q) in s.q.iter_mut().enumerate() {
                let src = prim.comp(c);
                let (q, pencil) = (&mut q[..len], &src[first..][..n + 2 * g]);
                if lanes == 1 {
                    q.copy_from_slice(pencil);
                    continue;
                }
                for (cell, &v) in q[i..].chunks_mut(lanes).zip(pencil) {
                    cell[0] = v;
                }
            }
        }
    } else {
        for (lane, p, count) in runs() {
            let first = at(p) - g * step;
            for (c, q) in s.q.iter_mut().enumerate() {
                let src = prim.comp(c);
                for (r, row) in q[..len].chunks_exact_mut(lanes).enumerate() {
                    row[lane..lane + count].copy_from_slice(&src[first + r * step..][..count]);
                }
            }
        }
    }

    reconstruct_and_flux(scheme, s, Dir::ALL[d], g * lanes, (n + g + 1) * lanes);

    // Accumulate -dF/dx into rhs (or store it, onto `0.0`): cell row
    // `g + k` of lane `i` lies between interfaces `(g + k)·L + i` and
    // `(g + k + 1)·L + i`.
    let faces = cut(&s.flux, g * lanes, (n + g + 1) * lanes);
    let put = |u: &mut f64, df: f64| *u = pick(store, 0.0, *u) - df;
    if d == 0 {
        for (i, p) in pencils.clone().enumerate() {
            let at = at(p);
            for (c, faces) in faces.iter().enumerate() {
                if lanes == 1 {
                    for ((u, &f0), &f1) in rhs.row(c, at, n).iter_mut().zip(*faces).zip(&faces[1..])
                    {
                        put(u, (f1 - f0) * inv_dx);
                    }
                    continue;
                }
                let column = faces[i..].chunks(lanes);
                for ((u, f0), f1) in rhs
                    .row(c, at, n)
                    .iter_mut()
                    .zip(column.clone())
                    .zip(column.skip(1))
                {
                    put(u, (f1[0] - f0[0]) * inv_dx);
                }
            }
        }
    } else {
        for (lane, p, count) in runs() {
            let at = at(p);
            for (c, faces) in faces.iter().enumerate() {
                for k in 0..n {
                    let f0 = &faces[k * lanes + lane..][..count];
                    let f1 = &faces[(k + 1) * lanes + lane..][..count];
                    for ((u, &f0), &f1) in
                        rhs.row(c, at + k * step, count).iter_mut().zip(f0).zip(f1)
                    {
                        put(u, (f1 - f0) * inv_dx);
                    }
                }
            }
        }
    }

    // The fused Δt scan: the CFL rates of the unsanitized cells of the
    // slab's interior rows, by `max_dt`'s kernel, with one atomic fold per
    // slab.
    if let Some(scan) = scan {
        scan.observe(rate_lanes(
            scheme,
            geom,
            cut(&s.q, g * lanes, (n + g) * lanes),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{init_cons, recover_prims};
    use rhrsc_grid::{fill_ghosts, Bc, PatchGeom};
    use rhrsc_srhd::recon::Recon;
    use rhrsc_srhd::Prim;

    fn scheme() -> Scheme {
        Scheme::default_with_gamma(5.0 / 3.0)
    }

    fn prims_for(s: &Scheme, geom: PatchGeom, ic: &dyn Fn([f64; 3]) -> Prim) -> Field {
        let mut u = init_cons(geom, &s.eos, ic);
        fill_ghosts(&mut u, &rhrsc_grid::bc::uniform(Bc::Periodic));
        let mut prim = Field::new(geom, 5);
        recover_prims(s, &u, &mut prim).unwrap();
        prim
    }

    #[test]
    fn uniform_state_has_zero_residual() {
        let s = scheme();
        for geom in [
            PatchGeom::line(16, 0.0, 1.0, 3),
            PatchGeom::rect([8, 8], [0.0; 2], [1.0; 2], 3),
            PatchGeom::cube([6, 6, 6], [0.0; 3], [1.0; 3], 3),
        ] {
            let prim = prims_for(&s, geom, &|_| Prim {
                rho: 1.0,
                vel: [0.3, -0.2, 0.1],
                p: 2.0,
            });
            let mut rhs = Field::cons(geom);
            compute_rhs(&s, &prim, &mut rhs, None);
            let m = rhs.raw().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(m < 1e-11, "max |rhs| = {m} on {:?}D", geom.ndim());
        }
    }

    #[test]
    fn periodic_residual_conserves_totals() {
        // Telescoping fluxes: the cell-volume-weighted sum of L(U) must be
        // zero to round-off for each component under periodic ghosts.
        let s = scheme();
        let geom = PatchGeom::line(64, 0.0, 1.0, 3);
        let prim = prims_for(&s, geom, &|x| {
            Prim::new_1d(
                1.0 + 0.4 * (2.0 * std::f64::consts::PI * x[0]).sin(),
                0.4,
                1.5,
            )
        });
        let mut rhs = Field::cons(geom);
        compute_rhs(&s, &prim, &mut rhs, None);
        for c in 0..NCOMP {
            let total = rhs.interior_integral(c);
            assert!(total.abs() < 1e-12, "component {c}: {total}");
        }
    }

    #[test]
    fn region_tiling_matches_full_residual() {
        let s = scheme();
        let geom = PatchGeom::rect([16, 12], [0.0; 2], [1.0, 1.0], 3);
        let prim = prims_for(&s, geom, &|x| Prim {
            rho: 1.0 + 0.3 * (6.0 * x[0]).sin() * (4.0 * x[1]).cos(),
            vel: [0.2, -0.3, 0.0],
            p: 1.0 + 0.1 * (5.0 * x[1]).sin(),
        });
        let mut full = Field::cons(geom);
        compute_rhs(&s, &prim, &mut full, None);

        for waits in wait_masks() {
            let (deep, shells) = Region::split_deep_shell(&geom, 3, waits);
            let mut tiled = Field::cons(geom);
            tiled.raw_mut().fill(0.0);
            accumulate_rhs_region(&s, &prim, &mut tiled, &deep, None);
            for sh in &shells {
                accumulate_rhs_region(&s, &prim, &mut tiled, sh, None);
            }
            assert_eq!(
                full.raw(),
                tiled.raw(),
                "deep+shell must be bit-identical (waits {waits:?})"
            );
        }
    }

    /// Every combination of dimensions that wait on a message.
    fn wait_masks() -> impl Iterator<Item = [bool; 3]> {
        (0..8).map(|m| [m & 1 != 0, m & 2 != 0, m & 4 != 0])
    }

    #[test]
    fn deep_shell_partition_is_exact() {
        for geom in [
            PatchGeom::line(20, 0.0, 1.0, 3),
            PatchGeom::rect([10, 8], [0.0; 2], [1.0; 2], 3),
            PatchGeom::cube([6, 7, 8], [0.0; 3], [1.0; 3], 3),
        ] {
            for waits in wait_masks() {
                let (deep, shells) = Region::split_deep_shell(&geom, 3, waits);
                let mut count = vec![0u8; geom.len()];
                let mut mark = |r: &Region| {
                    for k in r.lo[2]..r.hi[2] {
                        for j in r.lo[1]..r.hi[1] {
                            for i in r.lo[0]..r.hi[0] {
                                count[geom.idx(i, j, k)] += 1;
                            }
                        }
                    }
                };
                mark(&deep);
                for s in &shells {
                    mark(s);
                }
                for (i, j, k) in geom.interior_iter() {
                    assert_eq!(count[geom.idx(i, j, k)], 1, "cell ({i},{j},{k})");
                }
                assert_eq!(
                    count.iter().map(|&c| c as usize).sum::<usize>(),
                    geom.interior_len(),
                    "no coverage outside interior"
                );
                // The deep core keeps the full extent of every dimension
                // that does not wait, and stays `depth` cells clear of
                // both faces of every dimension that does.
                let interior = Region::interior(&geom);
                for (d, &waits) in waits.iter().enumerate() {
                    if geom.active(d) && waits {
                        assert!(deep.is_empty() || deep.lo[d] >= interior.lo[d] + 3);
                        assert!(deep.is_empty() || deep.hi[d] + 3 <= interior.hi[d]);
                    } else {
                        assert_eq!((deep.lo[d], deep.hi[d]), (interior.lo[d], interior.hi[d]));
                    }
                }
            }
        }
    }

    #[test]
    fn deep_region_empty_for_small_patches() {
        let geom = PatchGeom::line(4, 0.0, 1.0, 3);
        let (deep, shells) = Region::split_deep_shell(&geom, 3, [true; 3]);
        assert!(deep.is_empty() || deep.len() < 4);
        // Shells still cover everything deep doesn't.
        let covered: usize = shells.iter().map(Region::len).sum::<usize>() + deep.len();
        assert_eq!(covered, 4);
    }

    #[test]
    fn parallel_rhs_bitwise_matches_serial() {
        let s = Scheme {
            recon: Recon::Weno5,
            ..scheme()
        };
        let geom = PatchGeom::cube([12, 10, 8], [0.0; 3], [1.0; 3], 3);
        let prim = prims_for(&s, geom, &|x| Prim {
            rho: 1.0 + 0.3 * (7.0 * x[0] + 3.0 * x[1]).sin() * (2.0 * x[2]).cos(),
            vel: [0.3 * (4.0 * x[1]).sin(), -0.2, 0.1],
            p: 1.0 + 0.2 * (3.0 * x[0]).cos(),
        });
        let mut serial = Field::cons(geom);
        compute_rhs(&s, &prim, &mut serial, None);
        let pool = WorkStealingPool::new(4);
        let mut par = Field::cons(geom);
        compute_rhs(&s, &prim, &mut par, Some(&pool));
        assert_eq!(
            serial.raw(),
            par.raw(),
            "gang-parallel rhs must be bit-identical"
        );
    }

    #[test]
    fn geometric_sources_vanish_for_static_fluid() {
        // v = 0 kills every geometric source term; a uniform static state
        // stays an exact steady state in spherical coordinates.
        let s = Scheme {
            geometry: crate::scheme::Geometry::SphericalRadial,
            ..scheme()
        };
        let geom = PatchGeom::line(32, 0.1, 1.0, 3);
        let prim = prims_for(&s, geom, &|_| Prim::at_rest(1.0, 2.0));
        let mut rhs = Field::cons(geom);
        compute_rhs(&s, &prim, &mut rhs, None);
        let m = rhs.raw().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(m < 1e-11, "static spherical state residual {m}");
    }

    #[test]
    fn geometric_sources_drain_outflowing_density() {
        // Uniform outward flow in spherical coordinates dilutes: the D
        // residual carries the -2 rho W v / r sink.
        let s = Scheme {
            geometry: crate::scheme::Geometry::SphericalRadial,
            ..scheme()
        };
        let geom = PatchGeom::line(32, 0.5, 1.5, 3);
        let prim = prims_for(&s, geom, &|_| Prim::new_1d(1.0, 0.2, 1.0));
        let mut rhs = Field::cons(geom);
        compute_rhs(&s, &prim, &mut rhs, None);
        // At cell centers: flux divergence of D vanishes (uniform),
        // leaving rhs_D = -2 D v / r < 0 and larger in magnitude at
        // smaller r.
        let g = 3;
        let d_inner = rhs.at(0, g + 1, 0, 0);
        let d_outer = rhs.at(0, g + 28, 0, 0);
        assert!(d_inner < 0.0, "inner D residual {d_inner}");
        assert!(d_inner < d_outer, "source must weaken with radius");
        let r = geom.center(g + 1, 0, 0)[0];
        let w = Prim::new_1d(1.0, 0.2, 1.0);
        let expected = -2.0 * w.to_cons(&s.eos).d * 0.2 / r;
        assert!(
            (d_inner - expected).abs() < 0.05 * expected.abs(),
            "{d_inner} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "1D")]
    fn curvilinear_rejects_multi_d() {
        let s = Scheme {
            geometry: crate::scheme::Geometry::SphericalRadial,
            ..scheme()
        };
        let geom = PatchGeom::rect([8, 8], [0.1, 0.0], [1.0, 1.0], 3);
        let prim = prims_for(&s, geom, &|_| Prim::at_rest(1.0, 1.0));
        let mut rhs = Field::cons(geom);
        compute_rhs(&s, &prim, &mut rhs, None);
    }

    #[test]
    fn advection_residual_moves_density_only() {
        // Uniform v and p: the exact residual is -v ∂ρW/∂x in D and
        // proportional contributions in S/τ, but p-gradient terms vanish.
        // Check the residual is nonzero for D and zero-mean overall.
        let s = scheme();
        let geom = PatchGeom::line(64, 0.0, 1.0, 3);
        let prim = prims_for(&s, geom, &|x| {
            Prim::new_1d(
                1.0 + 0.2 * (2.0 * std::f64::consts::PI * x[0]).sin(),
                0.5,
                1.0,
            )
        });
        let mut rhs = Field::cons(geom);
        compute_rhs(&s, &prim, &mut rhs, None);
        let max_d = rhs.comp(0).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(
            max_d > 0.1,
            "advection should produce a D residual, got {max_d}"
        );
    }
}
