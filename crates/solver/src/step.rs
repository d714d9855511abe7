//! The spatial residual `L(U)`: dimension-by-dimension reconstruction,
//! Riemann fluxes, and flux divergence.
//!
//! For each active dimension the solver sweeps 1D *pencils*: the five
//! primitive components are reconstructed to cell interfaces, an
//! approximate Riemann solver produces the interface flux, and the flux
//! difference is accumulated into the residual. Pencils are independent,
//! so within-patch parallelism distributes pencils over a gang
//! ([`rhrsc_runtime::WorkStealingPool`]); across dimensions the sweeps
//! accumulate sequentially.
//!
//! The residual can be evaluated on a sub-[`Region`] of the patch. That is
//! the mechanism behind communication/computation overlap: the *deep*
//! region (cells whose stencils touch no ghost zone that still waits on a
//! message) is computed while halos are in flight, and the remaining
//! boundary *shell* afterwards.

use crate::scheme::{
    cell_rate, prim_at, Geometry, Scheme, WaveScan, PRIM_P, PRIM_RHO, PRIM_VX, PRIM_VY, PRIM_VZ,
};
use rhrsc_eos::Eos;
use rhrsc_grid::{Field, PatchGeom};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_srhd::riemann::RiemannSolver;
use rhrsc_srhd::{Cons, Dir, Prim, NCOMP};
use std::cell::RefCell;

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
/// the pencil scratch. It is the expression [`crate::scheme::max_dt`]
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
    if region.is_empty() {
        return;
    }
    let geom = *prim.geom();
    debug_assert!(
        (0..3).all(|d| !geom.active(d) || geom.ng >= scheme.recon.ghost()),
        "patch has {} ghosts, reconstruction needs {}",
        geom.ng,
        scheme.recon.ghost()
    );
    let raw = RawRhs {
        ptr: rhs.raw_mut().as_mut_ptr(),
        comp_stride: geom.len(),
    };
    // Each cell is scanned once: in the sweep along the first active
    // dimension.
    let mut scan = scan;
    for d in 0..3 {
        if !geom.active(d) {
            continue;
        }
        let scan = scan.take();
        // Transverse dims in ascending order.
        let (a, b) = match d {
            0 => (1, 2),
            1 => (0, 2),
            _ => (0, 1),
        };
        let (na, nb) = (region.hi[a] - region.lo[a], region.hi[b] - region.lo[b]);
        let npencils = na * nb;
        let task = |p: usize| {
            let ta = region.lo[a] + p % na;
            let tb = region.lo[b] + p / na;
            // SAFETY: each pencil writes only the rhs cells on its own
            // (d, ta, tb) line; pencils within one sweep are disjoint.
            unsafe { sweep_pencil(scheme, prim, &geom, d, ta, tb, region, &raw, scan) };
        };
        match pool {
            Some(pool) if npencils > 1 => pool.par_for(npencils, 1, &task),
            _ => {
                for p in 0..npencils {
                    task(p);
                }
            }
        }
    }
    if scheme.geometry != Geometry::Cartesian {
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

/// Raw pointer to the rhs storage, shared across pencil tasks. Soundness
/// relies on pencils writing disjoint cells (see `sweep_pencil`).
#[derive(Clone, Copy)]
struct RawRhs {
    ptr: *mut f64,
    comp_stride: usize,
}

unsafe impl Send for RawRhs {}
unsafe impl Sync for RawRhs {}

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

/// Reusable structure-of-arrays pencil workspace, one per worker thread.
///
/// Holds the cell pencils (`q`), the two sides' interface banks and the
/// interface flux bank. Reuse is stale-safe: every slot that a kernel
/// reads is written earlier in the same pencil (`read_pencil` fills `q`
/// completely; `Recon::pencil` writes exactly `[lo, hi1)`; the banks and
/// fluxes are written over `[lo, hi1)` before the divergence loop reads
/// them).
#[derive(Default)]
pub(crate) struct PencilScratch {
    q: [Vec<f64>; NCOMP],
    l: SideBanks,
    r: SideBanks,
    /// Interface flux bank.
    flux: [Vec<f64>; NCOMP],
}

impl PencilScratch {
    /// Mutable cell pencil of primitive component `c` (load target).
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

/// Run `f` with this thread's pencil scratch sized for `nt` cells.
/// Entry point for the shared-kernel users outside this module
/// (`refine::rhs_1d_with_fluxes`).
pub(crate) fn with_pencil_scratch<R>(nt: usize, f: impl FnOnce(&mut PencilScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.ensure(nt);
        f(s)
    })
}

/// Sanitize one side's reconstructed interface states and precompute its
/// conserved state, physical flux, characteristic speeds, and the
/// sanitized `(v_n, p)` pair over `[lo, hi1)`.
///
/// The sweep direction and the EOS variant are matched here, once per
/// call: each arm inlines a [`side_lanes`] in which both are constants,
/// so its lane loop holds no `match` and no runtime index.
fn prepare_side(scheme: &Scheme, n: usize, side: &mut SideBanks, lo: usize, hi1: usize) {
    let floors = (scheme.c2p.rho_floor, scheme.c2p.p_floor);
    let w = side.w.each_ref().map(|w| &w[lo..hi1]);
    let [d, sx, sy, sz, tau] = &mut side.u;
    let [fd, fx, fy, fz, ft] = &mut side.f;
    let (lm, lp, vn, p) = (&mut side.lm, &mut side.lp, &mut side.vn, &mut side.p);
    // Every output bank is an argument of its own: only a `&mut`
    // parameter tells the optimiser that its stores alias nothing else.
    macro_rules! lanes {
        ($n:literal, $eos:expr) => {
            side_lanes::<$n>(
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
/// select — its scale is computed for every lane and used only where the
/// branch was taken — which leaves straight-line arithmetic for the
/// autovectoriser.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn side_lanes<const N: usize>(
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
) {
    const V2_MAX: f64 = 1.0 - 1e-12;
    for j in 0..p_out.len() {
        // Scheme::sanitize, in place on the lane.
        let rho = w[0][j].max(rho_floor);
        let p = w[4][j].max(p_floor);
        let vel = [w[1][j], w[2][j], w[3][j]];
        let v2 = vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2];
        let scale = (V2_MAX / v2).sqrt();
        let [vx, vy, vz] = vel.map(|v| if v2 >= V2_MAX { v * scale } else { v });
        // Prim::vsq / lorentz on the sanitized velocity.
        let v2 = vx * vx + vy * vy + vz * vz;
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
}

/// Fill `s.flux[..][lo..hi1]` from the prepared side banks with the
/// Rusanov flux (exact expression tree of `rusanov_flux`).
fn combine_rusanov(s: &mut PencilScratch, lo: usize, hi1: usize) {
    for j in lo..hi1 {
        let a = s.l.lm[j]
            .abs()
            .max(s.l.lp[j].abs())
            .max(s.r.lm[j].abs())
            .max(s.r.lp[j].abs());
        let half_a = 0.5 * a;
        for c in 0..NCOMP {
            s.flux[c][j] = (s.l.f[c][j] + s.r.f[c][j]) * 0.5 - (s.r.u[c][j] - s.l.u[c][j]) * half_a;
        }
    }
}

/// Fill `s.flux[..][lo..hi1]` with the HLL flux (exact expression tree
/// of `hll_flux` with Davis speeds).
fn combine_hll(s: &mut PencilScratch, lo: usize, hi1: usize) {
    for j in lo..hi1 {
        let lam_l = s.l.lm[j].min(s.r.lm[j]);
        let lam_r = s.l.lp[j].max(s.r.lp[j]);
        if lam_l >= 0.0 {
            for c in 0..NCOMP {
                s.flux[c][j] = s.l.f[c][j];
            }
        } else if lam_r <= 0.0 {
            for c in 0..NCOMP {
                s.flux[c][j] = s.r.f[c][j];
            }
        } else {
            let inv = 1.0 / (lam_r - lam_l);
            let ll_lr = lam_l * lam_r;
            for c in 0..NCOMP {
                s.flux[c][j] = (s.l.f[c][j] * lam_r - s.r.f[c][j] * lam_l
                    + (s.r.u[c][j] - s.l.u[c][j]) * ll_lr)
                    * inv;
            }
        }
    }
}

/// Fill `s.flux[..][lo..hi1]` with the HLLC flux (exact expression tree
/// of `hllc_flux`, Mignone & Bodo 2005).
fn combine_hllc(s: &mut PencilScratch, n: usize, lo: usize, hi1: usize) {
    let sn = 1 + n;
    for j in lo..hi1 {
        let lam_l = s.l.lm[j].min(s.r.lm[j]);
        let lam_r = s.l.lp[j].max(s.r.lp[j]);
        // Supersonic cases: pure upwinding.
        if lam_l >= 0.0 {
            for c in 0..NCOMP {
                s.flux[c][j] = s.l.f[c][j];
            }
            continue;
        }
        if lam_r <= 0.0 {
            for c in 0..NCOMP {
                s.flux[c][j] = s.r.f[c][j];
            }
            continue;
        }
        // HLL fan state/flux; only the (D, S_n, τ) components feed the
        // contact-speed quadratic.
        let inv = 1.0 / (lam_r - lam_l);
        let ll_lr = lam_l * lam_r;
        let fan_u = |c: usize, s: &PencilScratch| {
            (s.r.u[c][j] * lam_r - s.l.u[c][j] * lam_l + (s.l.f[c][j] - s.r.f[c][j])) * inv
        };
        let fan_f = |c: usize, s: &PencilScratch| {
            (s.l.f[c][j] * lam_r - s.r.f[c][j] * lam_l + (s.r.u[c][j] - s.l.u[c][j]) * ll_lr) * inv
        };
        let e_hll = fan_u(4, s) + fan_u(0, s);
        let m_hll = fan_u(sn, s);
        let fe_hll = fan_f(4, s) + fan_f(0, s);
        let fm_hll = fan_f(sn, s);

        let b = -(e_hll + fm_hll);
        let lam_star = if fe_hll.abs() < 1e-12 * (e_hll.abs() + fm_hll.abs()).max(1e-300) {
            // Quadratic degenerates to linear.
            -m_hll / b
        } else {
            let disc = (b * b - 4.0 * fe_hll * m_hll).max(0.0);
            // Numerically stable "minus" root via the q-formula.
            let q = -0.5 * (b - b.signum() * disc.sqrt());
            let r1 = q / fe_hll;
            let r2 = m_hll / q;
            if r1 > lam_l && r1 < lam_r {
                r1
            } else {
                r2
            }
        };
        // `f64::clamp` without its assertion, as in `hllc_flux`.
        let lam_star = if lam_star < lam_l { lam_l } else { lam_star };
        let lam_star = if lam_star > lam_r { lam_r } else { lam_star };

        // Star state on the side containing the interface (ξ = 0).
        let (u, f, vn, p, lam) = if lam_star >= 0.0 {
            (&s.l.u, &s.l.f, s.l.vn[j], s.l.p[j], lam_l)
        } else {
            (&s.r.u, &s.r.f, s.r.vn[j], s.r.p[j], lam_r)
        };

        let e = u[4][j] + u[0][j];
        let m = u[sn][j];
        let a_coef = lam * e - m;
        let b_coef = m * (lam - vn) - p;
        let p_star = (a_coef * lam_star - b_coef) / (1.0 - lam * lam_star);
        let p_star = p_star.max(0.0);

        // Jump conditions across the outer wave.
        let k = (lam - vn) / (lam - lam_star);
        let e_star = (lam * e - m + p_star * lam_star) / (lam - lam_star);
        let m_star = (e_star + p_star) * lam_star;
        let d_star = u[0][j] * k;
        let mut s_star = [u[1][j] * k, u[2][j] * k, u[3][j] * k];
        s_star[n] = m_star;
        let u_star = [d_star, s_star[0], s_star[1], s_star[2], e_star - d_star];

        // F* = F + λ (U* − U).
        for c in 0..NCOMP {
            s.flux[c][j] = f[c][j] + (u_star[c] - u[c][j]) * lam;
        }
    }
}

/// Reconstruct the loaded cell pencils to interfaces, sanitize, and
/// compute the interface flux bank `s.flux[..][lo..hi1]` with the
/// scheme's Riemann solver dispatched once per pencil.
///
/// `s.q` must already hold the five primitive component pencils.
pub(crate) fn reconstruct_and_flux(
    scheme: &Scheme,
    s: &mut PencilScratch,
    dir: Dir,
    lo: usize,
    hi1: usize,
) {
    let n = dir.axis();
    for c in 0..NCOMP {
        let (wl, wr) = (&mut s.l.w[c], &mut s.r.w[c]);
        scheme.recon.pencil(&s.q[c], lo, hi1, wl, wr);
    }
    prepare_side(scheme, n, &mut s.l, lo, hi1);
    prepare_side(scheme, n, &mut s.r, lo, hi1);
    match scheme.riemann {
        RiemannSolver::Rusanov => combine_rusanov(s, lo, hi1),
        RiemannSolver::Hll => combine_hll(s, lo, hi1),
        RiemannSolver::Hllc => combine_hllc(s, n, lo, hi1),
    }
}

/// Process one pencil: reconstruct, solve Riemann problems, accumulate
/// flux differences along direction `d` at transverse coordinates
/// `(ta, tb)` (the other two dimensions in ascending order), plus the
/// optional fused wave-speed scan.
///
/// # Safety
/// The caller must guarantee that no other thread concurrently accesses
/// the rhs cells on this pencil.
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_pencil(
    scheme: &Scheme,
    prim: &Field,
    geom: &PatchGeom,
    d: usize,
    ta: usize,
    tb: usize,
    region: &Region,
    raw: &RawRhs,
    scan: Option<&WaveScan>,
) {
    let nt = geom.ntot(d);
    let dir = Dir::ALL[d];
    let inv_dx = 1.0 / geom.dx[d];
    let (lo, hi) = (region.lo[d], region.hi[d]);

    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.ensure(nt);

        for (c, comp) in [PRIM_RHO, PRIM_VX, PRIM_VY, PRIM_VZ, PRIM_P]
            .into_iter()
            .enumerate()
        {
            prim.read_pencil(comp, d, ta, tb, &mut s.q[c]);
        }

        reconstruct_and_flux(scheme, s, dir, lo, hi + 1);

        // Linear index of cell `lo` on this pencil and the step per cell
        // along dimension `d` (the layout is affine in each index).
        let cell_of = |i: usize| -> (usize, usize, usize) {
            match d {
                0 => (i, ta, tb),
                1 => (ta, i, tb),
                _ => (ta, tb, i),
            }
        };
        let (i0, j0, k0) = cell_of(lo);
        let base = geom.idx(i0, j0, k0);
        let stride = if hi > lo + 1 {
            let (i1, j1, k1) = cell_of(lo + 1);
            geom.idx(i1, j1, k1) - base
        } else {
            1
        };

        // Accumulate -dF/dx into rhs along the pencil, component-major.
        for c in 0..NCOMP {
            let fc = &s.flux[c];
            let cbase = unsafe { raw.ptr.add(c * raw.comp_stride + base) };
            for (step, i) in (lo..hi).enumerate() {
                let df = (fc[i + 1] - fc[i]) * inv_dx;
                unsafe {
                    *cbase.add(step * stride) -= df;
                }
            }
        }

        // Fused Δt scan: cell-centered CFL rates from the unsanitized
        // cell pencil, exactly as `max_dt` computes them; one atomic
        // fold per pencil.
        if let Some(scan) = scan {
            let mut max_rate = 0.0f64;
            for i in lo..hi {
                let w = Prim {
                    rho: s.q[0][i],
                    vel: [s.q[1][i], s.q[2][i], s.q[3][i]],
                    p: s.q[4][i],
                };
                max_rate = max_rate.max(cell_rate(scheme, geom, &w));
            }
            scan.observe(max_rate);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{init_cons, recover_prims};
    use rhrsc_grid::{fill_ghosts, Bc, PatchGeom};
    use rhrsc_srhd::recon::Recon;

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
