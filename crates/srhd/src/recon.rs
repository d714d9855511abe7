//! Spatial reconstruction of interface states from cell averages.
//!
//! High-resolution shock capturing hinges on reconstructing left/right
//! states at cell interfaces with high order in smooth flow while avoiding
//! spurious oscillations at discontinuities. This module provides, in
//! increasing formal order:
//!
//! * [`Recon::Pc`] — piecewise constant (Godunov, 1st order),
//! * [`Recon::Plm`] — piecewise linear with a TVD slope [`Limiter`]
//!   (2nd order),
//! * [`Recon::Ppm`] — the piecewise-parabolic method of Colella & Woodward
//!   (3rd order at smooth extrema-free flow; classic monotonization, no
//!   contact steepening or flattening),
//! * [`Recon::Ceno3`] — 3rd-order convex ENO (Liu & Osher 1998), the
//!   scheme family used by the authors' earlier relativistic (M)HD codes,
//! * [`Recon::Mp5`] — 5th-order monotonicity-preserving (Suresh & Huynh
//!   1997),
//! * [`Recon::Weno5`] — 5th-order weighted essentially-non-oscillatory
//!   (Jiang & Shu smoothness indicators).
//!
//! Reconstruction operates on *pencils*: 1D slices of a scalar field. The
//! convention is that interface `j` separates cells `j-1` and `j`;
//! `ql[j]` is the state reconstructed from the left (cell `j-1`) and
//! `qr[j]` from the right (cell `j`).

/// TVD slope limiter for piecewise-linear reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Limiter {
    /// Most diffusive TVD limiter; never overshoots.
    Minmod,
    /// Monotonized-central (van Leer's MC): sharper, still TVD.
    Mc,
    /// Van Leer's harmonic limiter.
    VanLeer,
}

impl Limiter {
    /// All limiters, for comparison sweeps.
    pub const ALL: [Limiter; 3] = [Limiter::Minmod, Limiter::Mc, Limiter::VanLeer];

    /// Limited slope from backward difference `a` and forward difference `b`.
    #[inline]
    pub fn slope(&self, a: f64, b: f64) -> f64 {
        match self {
            Limiter::Minmod => minmod2(a, b),
            Limiter::Mc => minmod3(2.0 * a, 0.5 * (a + b), 2.0 * b),
            Limiter::VanLeer => {
                if a * b > 0.0 {
                    2.0 * a * b / (a + b)
                } else {
                    0.0
                }
            }
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Limiter::Minmod => "minmod",
            Limiter::Mc => "mc",
            Limiter::VanLeer => "vanleer",
        }
    }
}

#[inline]
fn minmod2(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

#[inline]
fn minmod3(a: f64, b: f64, c: f64) -> f64 {
    minmod2(a, minmod2(b, c))
}

/// Reconstruction scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recon {
    /// Piecewise constant.
    Pc,
    /// Piecewise linear with the given limiter.
    Plm(Limiter),
    /// Piecewise parabolic (Colella–Woodward).
    Ppm,
    /// 3rd-order convex ENO (Liu & Osher): the scheme of the authors'
    /// earlier relativistic (M)HD codes. A minmod-limited linear value is
    /// corrected by the minmod of three quadratic-candidate corrections,
    /// giving uniform 3rd order without the full ENO stencil logic.
    Ceno3,
    /// 5th-order monotonicity-preserving scheme (Suresh & Huynh).
    Mp5,
    /// 5th-order WENO (Jiang–Shu).
    Weno5,
}

impl Recon {
    /// A representative set for comparison tables.
    pub const SWEEP: [Recon; 7] = [
        Recon::Pc,
        Recon::Plm(Limiter::Minmod),
        Recon::Plm(Limiter::Mc),
        Recon::Ppm,
        Recon::Ceno3,
        Recon::Mp5,
        Recon::Weno5,
    ];

    /// Short display name (used in benchmark tables).
    pub fn name(&self) -> &'static str {
        match self {
            Recon::Pc => "pc",
            Recon::Plm(Limiter::Minmod) => "plm-minmod",
            Recon::Plm(Limiter::Mc) => "plm-mc",
            Recon::Plm(Limiter::VanLeer) => "plm-vanleer",
            Recon::Ppm => "ppm",
            Recon::Ceno3 => "ceno3",
            Recon::Mp5 => "mp5",
            Recon::Weno5 => "weno5",
        }
    }

    /// Number of ghost cells the scheme needs on each side of a pencil.
    #[inline]
    pub fn ghost(&self) -> usize {
        match self {
            Recon::Pc => 1,
            Recon::Plm(_) => 2,
            Recon::Ppm => 3,
            Recon::Ceno3 => 3,
            Recon::Mp5 => 3,
            Recon::Weno5 => 3,
        }
    }

    /// Formal order of accuracy in smooth flow.
    pub fn order(&self) -> usize {
        match self {
            Recon::Pc => 1,
            Recon::Plm(_) => 2,
            Recon::Ppm => 3,
            Recon::Ceno3 => 3,
            Recon::Mp5 => 5,
            Recon::Weno5 => 5,
        }
    }

    /// Reconstruct interface states on a pencil: [`Recon::strided`] at
    /// stride 1.
    ///
    /// For each interface `j` in `lo..hi` (interface `j` separates cells
    /// `j-1` and `j`), writes `ql[j]` (from the left) and `qr[j]` (from
    /// the right). The caller must guarantee `lo >= ghost()` and
    /// `hi + ghost() <= q.len() + 1`. Always inlined: the solver builds
    /// its pencil kernel once per x86 vector level around this call.
    #[inline(always)]
    pub fn pencil(&self, q: &[f64], lo: usize, hi: usize, ql: &mut [f64], qr: &mut [f64]) {
        self.strided(q, 1, lo, hi, ql, qr);
    }

    /// Reconstruct interface states on a *lane slab*: pencils interleaved
    /// cell by cell, `s` of them, so that lane `i`'s stencil reads
    /// `q[i + m·s]`.
    ///
    /// Interface `j` separates cells `j - s` and `j`. For each `j` in
    /// `lo..hi`, writes `ql[j]` (from cell `j - s`) and `qr[j]` (from cell
    /// `j`): on every lane, the values [`Recon::pencil`] gives on that
    /// lane's pencil alone. The caller must guarantee `s <= RECON_BLOCK`,
    /// `lo >= ghost()·s` and `hi + (ghost() - 1)·s <= q.len()`. A pencil
    /// (`s = 1`) keeps the staged schemes' blocks of [`RECON_BLOCK`] cells.
    #[inline(always)]
    pub fn strided(
        &self,
        q: &[f64],
        s: usize,
        lo: usize,
        hi: usize,
        ql: &mut [f64],
        qr: &mut [f64],
    ) {
        debug_assert!((1..=RECON_BLOCK).contains(&s));
        debug_assert!(lo >= self.ghost() * s);
        debug_assert!(hi + (self.ghost() - 1) * s <= q.len());
        if s == 1 {
            self.reconstruct::<{ RECON_BLOCK + 2 }>(q, 1, lo, hi, ql, qr);
        } else {
            self.reconstruct::<SLAB_STAGE>(q, s, lo, hi, ql, qr);
        }
    }

    /// The body of [`Recon::strided`], with the staged schemes' per-block
    /// arrays `CAP` cells long.
    #[inline(always)]
    fn reconstruct<const CAP: usize>(
        &self,
        q: &[f64],
        s: usize,
        lo: usize,
        hi: usize,
        ql: &mut [f64],
        qr: &mut [f64],
    ) {
        match self {
            Recon::Pc => {
                ql[lo..hi].copy_from_slice(&q[lo - s..hi - s]);
                qr[lo..hi].copy_from_slice(&q[lo..hi]);
            }
            Recon::Plm(lim) => staged::<CAP>(
                s,
                lo,
                hi,
                ql,
                qr,
                #[inline(always)]
                |c0, al, ar| {
                    let n = al.len();
                    let (qm, q0, qp) = (&q[c0 - s..][..n], &q[c0..][..n], &q[c0 + s..][..n]);
                    let cells = qm.iter().zip(q0).zip(qp);
                    for ((al, ar), ((&m, &a), &p)) in al.iter_mut().zip(ar).zip(cells) {
                        let half = 0.5 * lim.slope(a - m, p - a);
                        (*al, *ar) = (a - half, a + half);
                    }
                },
            ),
            Recon::Ppm => {
                let (mut dq, mut face) = ([0.0; CAP], [0.0; CAP]);
                staged::<CAP>(
                    s,
                    lo,
                    hi,
                    ql,
                    qr,
                    #[inline(always)]
                    |c0, al, ar| {
                        // Cells `c0 - 2s .. c0 + n + 2s`: the block and its stencil.
                        let (n, q) = (al.len(), &q[c0 - 2 * s..c0 + al.len() + 2 * s]);
                        let (dq, face) = (&mut dq[..n + 2 * s], &mut face[..n + s]);
                        // (1) Limited slope of cells `c0 - s .. c0 + n + s`.
                        for (((dq, &m), &a), &p) in
                            dq.iter_mut().zip(q).zip(&q[s..]).zip(&q[2 * s..])
                        {
                            *dq = ppm_slope(m, a, p);
                        }
                        // (2) Interpolant at the faces `c0 - s .. c0 + n` (face
                        // `f` lies between cells `f` and `f + s`).
                        let sides = q[s..].iter().zip(&q[2 * s..]).zip(dq.iter().zip(&dq[s..]));
                        for (face, ((&a, &b), (&dl, &dr))) in face.iter_mut().zip(sides) {
                            *face = 0.5 * (a + b) + (dl - dr) / 6.0;
                        }
                        // (3) Monotonised edge pair of cells `c0 .. c0 + n`.
                        let edges = face.iter().zip(&q[2 * s..]).zip(&face[s..]);
                        for ((al, ar), ((&fl, &a), &fr)) in al.iter_mut().zip(ar).zip(edges) {
                            (*al, *ar) = ppm_monotonize(fl, a, fr);
                        }
                    },
                )
            }
            Recon::Ceno3 => {
                for j in lo..hi {
                    // Right edge of cell j-s; left edge of cell j via the
                    // mirrored stencil.
                    ql[j] = ceno3_edge(q[j - 3 * s], q[j - 2 * s], q[j - s], q[j], q[j + s]);
                    qr[j] = ceno3_edge(q[j + 2 * s], q[j + s], q[j], q[j - s], q[j - 2 * s]);
                }
            }
            Recon::Mp5 => {
                for j in lo..hi {
                    ql[j] = mp5_left(q[j - 3 * s], q[j - 2 * s], q[j - s], q[j], q[j + s]);
                    qr[j] = mp5_left(q[j + 2 * s], q[j + s], q[j], q[j - s], q[j - 2 * s]);
                }
            }
            Recon::Weno5 => {
                for j in lo..hi {
                    // Left-biased stencil centered on cell j-s.
                    ql[j] = weno5_left(q[j - 3 * s], q[j - 2 * s], q[j - s], q[j], q[j + s]);
                    // Right-biased stencil centered on cell j (mirror).
                    qr[j] = weno5_left(q[j + 2 * s], q[j + s], q[j], q[j - s], q[j - 2 * s]);
                }
            }
        }
    }
}

/// Cells per block of the staged schemes (PLM, PPM) on a pencil: what a
/// block computes once per cell lives in stack arrays of this length,
/// ≈ 2 KiB for PPM.
pub const RECON_BLOCK: usize = 64;

/// Length of the staged schemes' per-block arrays on a lane slab: a block
/// of `SLAB_STAGE - 2s` cells, whatever the stride `s <= RECON_BLOCK`.
const SLAB_STAGE: usize = 8 * RECON_BLOCK;

/// Skeleton of the schemes that reconstruct each *cell* once: walk the
/// cells `lo - s .. hi` in blocks of `CAP - 2s`, have `edges(c0, a_l,
/// a_r)` fill the left / right edge values of the cells
/// `c0 .. c0 + a_l.len()`, and scatter them to the interfaces,
/// `ql[c + s] = a_r(c)` and `qr[c] = a_l(c)`, inside `[lo, hi)` only. An
/// edge value is a function of `q` around its cell alone, so the result
/// depends neither on the block length nor on where `lo` and `hi` fall. The
/// `edges` closures are `#[inline(always)]`: a closure left out of line
/// runs at the baseline width inside the solver's wider builds of its
/// pencil kernel.
#[inline(always)]
fn staged<const CAP: usize>(
    s: usize,
    lo: usize,
    hi: usize,
    ql: &mut [f64],
    qr: &mut [f64],
    mut edges: impl FnMut(usize, &mut [f64], &mut [f64]),
) {
    let block = CAP - 2 * s;
    let (mut al, mut ar) = ([0.0; CAP], [0.0; CAP]);
    for c0 in (lo - s..hi).step_by(block) {
        let n = block.min(hi - c0);
        edges(c0, &mut al[..n], &mut ar[..n]);
        // The cells `lo - s .. lo` have no interface on their left in the
        // window, and the cells `hi - s .. hi` none on their right.
        let first = c0.max(lo).min(c0 + n);
        let last = (c0 + n).min(hi - s).max(c0);
        qr[first..c0 + n].copy_from_slice(&al[first - c0..n]);
        ql[c0 + s..last + s].copy_from_slice(&ar[..last - c0]);
    }
}

/// Van-Leer-limited central slope of a cell from its two neighbours
/// (Colella & Woodward 1984, eq. 1.8): keeps the fourth-order face
/// interpolant monotone near discontinuities.
#[inline(always)]
fn ppm_slope(qm: f64, q0: f64, qp: f64) -> f64 {
    let d = 0.5 * (qp - qm);
    let dl = q0 - qm;
    let dr = qp - q0;
    if dl * dr > 0.0 {
        d.signum() * d.abs().min(2.0 * dl.abs()).min(2.0 * dr.abs())
    } else {
        0.0
    }
}

/// Colella–Woodward monotonisation (eq. 1.10) of the face interpolants
/// `(al, ar)` around the cell average `a`: flatten at an extremum, else
/// pull back the edge the parabola overshoots. Selects on the comparisons
/// of the textbook `if / else if` chain, so the loop over a block has no
/// branch and no value moves: a NaN fails every test and leaves the
/// interpolants as they are, and the two overshoot tests exclude each
/// other (`d²/6 ≥ 0 ≥ −d²/6`), so neither needs the other's `else`.
#[inline(always)]
fn ppm_monotonize(al: f64, a: f64, ar: f64) -> (f64, f64) {
    let d = ar - al;
    let c = a - 0.5 * (al + ar);
    let flat = (ar - a) * (a - al) <= 0.0;
    let steep_l = if d * c > d * d / 6.0 {
        3.0 * a - 2.0 * ar
    } else {
        al
    };
    let steep_r = if -d * d / 6.0 > d * c {
        3.0 * a - 2.0 * al
    } else {
        ar
    };
    (
        if flat { a } else { steep_l },
        if flat { a } else { steep_r },
    )
}

/// Classic 5th-order WENO reconstruction of the *right edge* of the center
/// cell from the 5-point stencil `(m2, m1, c, p1, p2)` (Jiang & Shu 1996).
#[inline]
fn weno5_left(m2: f64, m1: f64, c: f64, p1: f64, p2: f64) -> f64 {
    const EPS: f64 = 1e-40;
    // Candidate stencil reconstructions.
    let q0 = (2.0 * m2 - 7.0 * m1 + 11.0 * c) / 6.0;
    let q1 = (-m1 + 5.0 * c + 2.0 * p1) / 6.0;
    let q2 = (2.0 * c + 5.0 * p1 - p2) / 6.0;
    // Smoothness indicators.
    let b0 = 13.0 / 12.0 * (m2 - 2.0 * m1 + c).powi(2) + 0.25 * (m2 - 4.0 * m1 + 3.0 * c).powi(2);
    let b1 = 13.0 / 12.0 * (m1 - 2.0 * c + p1).powi(2) + 0.25 * (m1 - p1).powi(2);
    let b2 = 13.0 / 12.0 * (c - 2.0 * p1 + p2).powi(2) + 0.25 * (3.0 * c - 4.0 * p1 + p2).powi(2);
    // Nonlinear weights from the optimal linear weights (1, 6, 3)/10.
    let a0 = 0.1 / (EPS + b0).powi(2);
    let a1 = 0.6 / (EPS + b1).powi(2);
    let a2 = 0.3 / (EPS + b2).powi(2);
    let inv = 1.0 / (a0 + a1 + a2);
    (a0 * q0 + a1 * q1 + a2 * q2) * inv
}

/// Convex-ENO (Liu & Osher 1998) reconstruction of the *right edge* of
/// the center cell from the 5-point stencil `(m2, m1, c, p1, p2)`.
///
/// A minmod-limited linear value is corrected by the minmod of the three
/// quadratic candidates' deviations: in smooth flow the central quadratic
/// wins (uniform 3rd order); at discontinuities the correction vanishes
/// and the scheme degrades gracefully to the TVD linear value.
#[inline]
fn ceno3_edge(m2: f64, m1: f64, c: f64, p1: f64, p2: f64) -> f64 {
    let lin = c + 0.5 * minmod2(c - m1, p1 - c);
    // Quadratic candidates at the right edge (cell-average based).
    let q0 = (2.0 * m2 - 7.0 * m1 + 11.0 * c) / 6.0;
    let q1 = (-m1 + 5.0 * c + 2.0 * p1) / 6.0;
    let q2 = (2.0 * c + 5.0 * p1 - p2) / 6.0;
    lin + minmod3_sym(q0 - lin, q1 - lin, q2 - lin)
}

/// True three-way minmod: zero unless all arguments share a sign, else the
/// smallest in magnitude. (The nested [`minmod3`] used by the MC limiter
/// is equivalent for that use but not symmetric in general.)
#[inline]
fn minmod3_sym(a: f64, b: f64, c: f64) -> f64 {
    if a > 0.0 && b > 0.0 && c > 0.0 {
        a.min(b).min(c)
    } else if a < 0.0 && b < 0.0 && c < 0.0 {
        a.max(b).max(c)
    } else {
        0.0
    }
}

/// Four-way minmod used by the MP5 limiter (Suresh & Huynh 1997).
#[inline]
fn minmod4(a: f64, b: f64, c: f64, d: f64) -> f64 {
    let s = 0.125 * (sign(a) + sign(b)) * ((sign(a) + sign(c)) * (sign(a) + sign(d))).abs();
    s * a.abs().min(b.abs()).min(c.abs()).min(d.abs())
}

#[inline]
fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// MP5 (Suresh & Huynh 1997) reconstruction of the *right edge* of the
/// center cell from the 5-point stencil `(m2, m1, c, p1, p2)`: the
/// unlimited 5th-order value, median-limited into a monotonicity- and
/// accuracy-preserving interval built from curvature measures.
#[inline]
fn mp5_left(m2: f64, m1: f64, c: f64, p1: f64, p2: f64) -> f64 {
    const ALPHA: f64 = 4.0;
    const EPS: f64 = 1e-10;
    let vor = (2.0 * m2 - 13.0 * m1 + 47.0 * c + 27.0 * p1 - 3.0 * p2) / 60.0;
    let vmp = c + minmod2(p1 - c, ALPHA * (c - m1));
    if (vor - c) * (vor - vmp) <= EPS {
        return vor;
    }
    // Curvatures at j-1, j, j+1.
    let dm = m2 + c - 2.0 * m1;
    let dc = m1 + p1 - 2.0 * c;
    let dp = c + p2 - 2.0 * p1;
    let dm4_p = minmod4(4.0 * dc - dp, 4.0 * dp - dc, dc, dp);
    let dm4_m = minmod4(4.0 * dm - dc, 4.0 * dc - dm, dm, dc);
    let vul = c + ALPHA * (c - m1);
    let vav = 0.5 * (c + p1);
    let vmd = vav - 0.5 * dm4_p;
    let vlc = c + 0.5 * (c - m1) + 4.0 / 3.0 * dm4_m;
    let vmin = (c.min(p1).min(vmd)).max(c.min(vul).min(vlc));
    let vmax = (c.max(p1).max(vmd)).min(c.max(vul).max(vlc));
    // Median of (vor, vmin, vmax).
    vor + minmod2(vmin - vor, vmax - vor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(recon: Recon, q: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = q.len();
        let g = recon.ghost();
        let mut ql = vec![0.0; n + 1];
        let mut qr = vec![0.0; n + 1];
        recon.pencil(q, g, n + 1 - g, &mut ql, &mut qr);
        (ql, qr)
    }

    #[test]
    fn constant_data_reproduced_exactly() {
        let q = vec![3.7; 16];
        for r in Recon::SWEEP {
            let (ql, qr) = run(r, &q);
            let g = r.ghost();
            for j in g..q.len() + 1 - g {
                assert!((ql[j] - 3.7).abs() < 1e-13, "{} ql[{j}]", r.name());
                assert!((qr[j] - 3.7).abs() < 1e-13, "{} qr[{j}]", r.name());
            }
        }
    }

    #[test]
    fn linear_data_exact_for_second_order_plus() {
        // q_i = 2i + 1 (cell averages of a linear function are its center
        // values); every scheme of order >= 2 must give the exact interface
        // value 2j (for interface j at position j-1/2 in cell units... the
        // interface between cells j-1 and j has exact value 2(j-1)+1+1 = 2j).
        let q: Vec<f64> = (0..20).map(|i| 2.0 * i as f64 + 1.0).collect();
        for r in [
            Recon::Plm(Limiter::Minmod),
            Recon::Plm(Limiter::Mc),
            Recon::Plm(Limiter::VanLeer),
            Recon::Ppm,
            Recon::Ceno3,
            Recon::Mp5,
            Recon::Weno5,
        ] {
            let (ql, qr) = run(r, &q);
            let g = r.ghost();
            for j in g..q.len() + 1 - g {
                let exact = 2.0 * j as f64;
                assert!(
                    (ql[j] - exact).abs() < 1e-11,
                    "{} ql[{j}]={}",
                    r.name(),
                    ql[j]
                );
                assert!(
                    (qr[j] - exact).abs() < 1e-11,
                    "{} qr[{j}]={}",
                    r.name(),
                    qr[j]
                );
            }
        }
    }

    #[test]
    fn no_new_extrema_at_discontinuity() {
        // Step data: reconstructed states must stay within [min, max] of the
        // local stencil (no overshoot) for the TVD/monotonized schemes.
        let mut q = vec![0.0; 20];
        for v in q.iter_mut().skip(10) {
            *v = 1.0;
        }
        for r in [
            Recon::Pc,
            Recon::Plm(Limiter::Minmod),
            Recon::Plm(Limiter::Mc),
            Recon::Plm(Limiter::VanLeer),
            Recon::Ppm,
        ] {
            let (ql, qr) = run(r, &q);
            let g = r.ghost();
            for j in g..q.len() + 1 - g {
                for v in [ql[j], qr[j]] {
                    assert!(
                        (-1e-12..=1.0 + 1e-12).contains(&v),
                        "{} overshoot at {j}: {v}",
                        r.name()
                    );
                }
            }
        }
    }

    #[test]
    fn high_order_schemes_essentially_non_oscillatory() {
        // WENO/CENO/MP5 may overshoot slightly but must stay within a few
        // percent of the step's range.
        let mut q = vec![0.0; 20];
        for v in q.iter_mut().skip(10) {
            *v = 1.0;
        }
        for r in [Recon::Weno5, Recon::Ceno3, Recon::Mp5] {
            let (ql, qr) = run(r, &q);
            for j in 3..18 {
                for v in [ql[j], qr[j]] {
                    assert!(
                        (-0.05..=1.05).contains(&v),
                        "{} oscillation at {j}: {v}",
                        r.name()
                    );
                }
            }
        }
    }

    #[test]
    fn convergence_orders_on_smooth_data() {
        // Reconstruct cell averages of sin(x) and compare the interface
        // values to the exact point values; the L1 error must shrink at
        // (nearly) the scheme's design order. L1 is the standard metric
        // here: classic PPM monotonization clips smooth extrema, which
        // costs max-norm order at isolated points but not L1 order beyond
        // a fraction.
        let err_at = |r: Recon, n: usize| -> f64 {
            let h = 2.0 * std::f64::consts::PI / n as f64;
            // Exact cell averages: (cos(x_l) - cos(x_r)) / h.
            let q: Vec<f64> = (0..n)
                .map(|i| {
                    let xl = i as f64 * h;
                    ((xl).cos() - (xl + h).cos()) / h
                })
                .collect();
            let (ql, _qr) = run(r, &q);
            let g = r.ghost();
            let mut e = 0.0;
            for (j, l) in ql.iter().enumerate().take(n + 1 - g).skip(g) {
                let x = j as f64 * h; // interface position
                e += (l - x.sin()).abs();
            }
            e / (n + 1 - 2 * g) as f64
        };
        for (r, min_order) in [
            (Recon::Plm(Limiter::Mc), 1.9),
            (Recon::Ppm, 2.4),
            (Recon::Ceno3, 2.4),
            (Recon::Mp5, 4.0),
            (Recon::Weno5, 4.5),
        ] {
            let e1 = err_at(r, 64);
            let e2 = err_at(r, 128);
            let order = (e1 / e2).log2();
            assert!(
                order > min_order,
                "{}: measured order {order:.2} (e1={e1:.3e}, e2={e2:.3e})",
                r.name()
            );
        }
    }

    #[test]
    fn limiter_properties() {
        for lim in Limiter::ALL {
            // Zero at sign change.
            assert_eq!(lim.slope(1.0, -1.0), 0.0, "{}", lim.name());
            assert_eq!(lim.slope(-2.0, 3.0), 0.0, "{}", lim.name());
            // Symmetric.
            assert!(
                (lim.slope(1.0, 2.0) - lim.slope(2.0, 1.0)).abs() < 1e-14,
                "{}",
                lim.name()
            );
            // Between 0 and 2*min for same-signed inputs (TVD region).
            let s = lim.slope(1.0, 3.0);
            assert!(s > 0.0 && s <= 2.0, "{}: {s}", lim.name());
            // Exact for equal slopes (linear data).
            assert!((lim.slope(1.5, 1.5) - 1.5).abs() < 1e-14, "{}", lim.name());
        }
    }

    #[test]
    fn limiter_sharpness_ordering() {
        // On a smooth asymmetric stencil: minmod <= vanleer <= mc.
        let (a, b) = (1.0, 2.0);
        let m = Limiter::Minmod.slope(a, b);
        let v = Limiter::VanLeer.slope(a, b);
        let c = Limiter::Mc.slope(a, b);
        assert!(m <= v + 1e-14 && v <= c + 1e-14, "{m} {v} {c}");
    }

    #[test]
    fn ceno3_picks_central_candidate_on_smooth_data() {
        // On a smooth quadratic the convex-ENO value equals the central
        // (3rd-order) quadratic candidate.
        let q: Vec<f64> = (0..10).map(|i| 0.5 * (i as f64) * (i as f64)).collect();
        let v = super::ceno3_edge(q[1], q[2], q[3], q[4], q[5]);
        let central = (-q[2] + 5.0 * q[3] + 2.0 * q[4]) / 6.0;
        assert!((v - central).abs() < 1e-12, "{v} vs {central}");
    }

    #[test]
    fn mp5_unlimited_on_smooth_data() {
        // Smooth monotone data: MP5 returns the raw 5th-order value.
        let q: Vec<f64> = (0..10).map(|i| (i as f64 * 0.2).exp()).collect();
        let v = super::mp5_left(q[1], q[2], q[3], q[4], q[5]);
        let raw = (2.0 * q[1] - 13.0 * q[2] + 47.0 * q[3] + 27.0 * q[4] - 3.0 * q[5]) / 60.0;
        assert_eq!(v, raw);
    }

    #[test]
    fn mp5_clips_at_discontinuity() {
        // Downstream of a step the unlimited value overshoots; MP5 must
        // pull it into the monotone interval.
        let q = [0.0, 0.0, 0.0, 1.0, 1.0];
        let v = super::mp5_left(q[0], q[1], q[2], q[3], q[4]);
        assert!((0.0..=1.0).contains(&v), "mp5 value {v}");
    }

    #[test]
    fn minmod4_properties() {
        use super::minmod4;
        assert_eq!(minmod4(1.0, 2.0, 3.0, 4.0), 1.0);
        assert_eq!(minmod4(-1.0, -2.0, -3.0, -4.0), -1.0);
        assert_eq!(minmod4(1.0, -2.0, 3.0, 4.0), 0.0);
        assert_eq!(minmod4(1.0, 2.0, 3.0, -4.0), 0.0);
        assert_eq!(minmod4(0.0, 2.0, 3.0, 4.0), 0.0);
    }

    #[test]
    fn weno_weights_sum_via_smooth_limit() {
        // On perfectly smooth (quadratic) data WENO5 reproduces the 5th
        // order linear scheme; verify against the direct formula.
        let q: Vec<f64> = (0..10).map(|i| (i as f64) * (i as f64)).collect();
        let v = weno5_left(q[1], q[2], q[3], q[4], q[5]);
        let linear = (2.0 * q[1] - 13.0 * q[2] + 47.0 * q[3] + 27.0 * q[4] - 3.0 * q[5]) / 60.0;
        assert!((v - linear).abs() < 1e-9, "{v} vs {linear}");
    }
}
