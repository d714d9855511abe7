//! The lane-form kernels of the pencil sweep give the bits of the forms
//! they replaced.
//!
//! `Recon::pencil` reconstructs PPM and PLM cell by cell in blocks of
//! [`RECON_BLOCK`] (limited slope, face interpolant and monotonised edge
//! pair once each) instead of interface by interface,
//! `step::prepare_side` sanitises a side's interface states in a
//! straight-line lane loop from the unclamped velocity, and recomputes
//! only the lanes the superluminal clamp clamps in a fix-up pass, and the
//! Riemann combines take their exits by selects. None of it may show:
//! (a) pins the staged schemes against the per-interface loops they
//! replaced, spelled here, over hostile pencils and every window, and the
//! strided form of every scheme against each pencil of its slab alone;
//! (b) pins `compute_rhs` against a residual assembled here from the
//! public AoS pieces on fields that take every select and the clamp both
//! ways and leave HLLC through each of its exits; (c) pins `accumulate_rhs_region` over
//! every pencil extent and offset, and `compute_rhs` over lane slabs and
//! shell stubs, against `compute_rhs`, against one kernel call per pencil
//! and, on slabs of 1, 3 and 7 lanes, against the AoS residual. A NaN
//! compares equal to a NaN (which payload an
//! operation hands on is the one thing IEEE 754 leaves open); everything
//! else is compared in `to_bits()`. Vector code exists only in optimised
//! builds: CI runs this file under `--release` as well.

use rhrsc_grid::{Field, PatchGeom};
use rhrsc_runtime::WorkStealingPool;
use rhrsc_solver::scheme::set_prim;
use rhrsc_solver::step::{accumulate_rhs_region, compute_rhs, Region};
use rhrsc_solver::Scheme;
use rhrsc_srhd::flux::{physical_flux, signal_speeds};
use rhrsc_srhd::recon::{Limiter, Recon, RECON_BLOCK};
use rhrsc_srhd::riemann::RiemannSolver;
use rhrsc_srhd::{Cons, Dir, Eos, Prim, NCOMP};

/// Bytes no kernel writes: marks slots a call must not touch.
const SENTINEL: f64 = -7.25;

/// SplitMix64: the seeded stream behind every pencil and field here.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

// ---------------------------------------------------------------------
// (a) Staged PPM / PLM against the per-interface loops.
// ---------------------------------------------------------------------

/// The monotonised parabola edges of cell `j` as `recon.rs` computed them
/// per interface before the staged form: verbatim, branches and all.
fn ppm_edges(q: &[f64], j: usize) -> (f64, f64) {
    let dq = |j: usize| {
        let d = 0.5 * (q[j + 1] - q[j - 1]);
        let dl = q[j] - q[j - 1];
        let dr = q[j + 1] - q[j];
        if dl * dr > 0.0 {
            d.signum() * d.abs().min(2.0 * dl.abs()).min(2.0 * dr.abs())
        } else {
            0.0
        }
    };
    let face = |j: usize| 0.5 * (q[j] + q[j + 1]) + (dq(j) - dq(j + 1)) / 6.0;
    let mut al = face(j - 1);
    let mut ar = face(j);
    let a = q[j];
    if (ar - a) * (a - al) <= 0.0 {
        al = a;
        ar = a;
    } else {
        let d = ar - al;
        let c = a - 0.5 * (al + ar);
        if d * c > d * d / 6.0 {
            al = 3.0 * a - 2.0 * ar;
        } else if -d * d / 6.0 > d * c {
            ar = 3.0 * a - 2.0 * al;
        }
    }
    (al, ar)
}

/// The per-interface loops `Recon::pencil` ran for PLM and PPM.
fn per_interface(recon: Recon, q: &[f64], lo: usize, hi: usize, ql: &mut [f64], qr: &mut [f64]) {
    match recon {
        Recon::Plm(lim) => {
            for j in lo..hi {
                let sl = lim.slope(q[j - 1] - q[j - 2], q[j] - q[j - 1]);
                let sr = lim.slope(q[j] - q[j - 1], q[j + 1] - q[j]);
                ql[j] = q[j - 1] + 0.5 * sl;
                qr[j] = q[j] - 0.5 * sr;
            }
        }
        Recon::Ppm => {
            for j in lo..hi {
                let (_, ar) = ppm_edges(q, j - 1);
                ql[j] = ar;
                let (al, _) = ppm_edges(q, j);
                qr[j] = al;
            }
        }
        _ => unreachable!("only the staged schemes have a reference here"),
    }
}

const STAGED: [Recon; 4] = [
    Recon::Ppm,
    Recon::Plm(Limiter::Minmod),
    Recon::Plm(Limiter::Mc),
    Recon::Plm(Limiter::VanLeer),
];

/// A pencil of `n` cells. Flavour 0 is smooth noise; 1 is plateaus and
/// steps (equal neighbours: the limiters' `<= 0` and `> 0` edges); 2 is
/// 1 ± 10⁻¹⁵ ripples (differences of a few ulps: the monotonisation's
/// comparisons decided in the last bit); 3 scatters ±0, NaN, ±∞ and
/// 10^±300 over noise (overflow to ∞, ∞ − ∞, underflow to ±0).
fn pencil(rng: &mut Rng, n: usize, flavour: usize) -> Vec<f64> {
    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        1e-300,
    ];
    let mut level = rng.unit();
    (0..n)
        .map(|_| match flavour {
            0 => rng.unit(),
            1 => {
                if rng.below(3) == 0 {
                    level = (4.0 * rng.unit()).round() / 4.0;
                }
                level
            }
            2 => 1.0 + 1e-15 * (rng.below(5) as f64 - 2.0),
            _ if rng.below(4) == 0 => SPECIALS[rng.below(SPECIALS.len())],
            _ => rng.unit(),
        })
        .collect()
}

/// Run `recon` over the window `[lo, hi)` of `q` into sentinel-filled
/// banks and compare with the per-interface `reference` of the whole
/// pencil: equal inside the window, sentinel outside.
fn check_window(recon: Recon, q: &[f64], lo: usize, hi: usize, reference: &(Vec<f64>, Vec<f64>)) {
    let n1 = q.len() + 1;
    let (mut ql, mut qr) = (vec![SENTINEL; n1], vec![SENTINEL; n1]);
    recon.pencil(q, lo, hi, &mut ql, &mut qr);
    for j in 0..n1 {
        let (want_l, want_r) = if (lo..hi).contains(&j) {
            (reference.0[j], reference.1[j])
        } else {
            (SENTINEL, SENTINEL)
        };
        assert!(
            same(ql[j], want_l) && same(qr[j], want_r),
            "{} n={} window [{lo}, {hi}) interface {j}: ({:e}, {:e}) vs ({want_l:e}, {want_r:e})",
            recon.name(),
            q.len(),
            ql[j],
            qr[j],
        );
    }
}

#[test]
fn staged_reconstruction_matches_the_per_interface_loops_bit_for_bit() {
    let longest = 3 * RECON_BLOCK + 5;
    let mut rng = Rng(20);
    let mut windows = 0u64;
    for n in 7..=longest {
        // Which window is asked for decides the block walk and the
        // scatter, not the arithmetic: every flavour gets the full window
        // and seeded ones, and one flavour per length (all of them on the
        // short pencils, where the ghost margin is in play) also takes
        // the thorough turn — every window at the lengths where a block
        // boundary or a short last block can go wrong, the windows pinned
        // to either end at the others.
        let edge = n <= 24 || [RECON_BLOCK + 3, 2 * RECON_BLOCK + 3, longest].contains(&n);
        for flavour in 0..4 {
            let q = pencil(&mut rng, n, flavour);
            let thorough = n <= 24 || flavour == n % 4;
            for recon in STAGED {
                let g = recon.ghost();
                // Interfaces the stencil admits: `g ..= n - g`.
                let (first, end) = (g, n + 1 - g);
                let mut reference = (vec![SENTINEL; n + 1], vec![SENTINEL; n + 1]);
                per_interface(recon, &q, first, end, &mut reference.0, &mut reference.1);
                let mut check = |lo: usize, hi: usize| {
                    check_window(recon, &q, lo, hi, &reference);
                    windows += 1;
                };
                check(first, end);
                for _ in 0..4 {
                    let lo = first + rng.below(end - first);
                    check(lo, lo + rng.below(end - lo + 1));
                }
                for lo in (first..=end).filter(|_| thorough) {
                    if edge {
                        (lo..=end).for_each(|hi| check(lo, hi));
                    } else {
                        check(first, lo);
                        check(lo, end);
                    }
                }
            }
        }
    }
    assert!(windows > 250_000, "the sweep shrank to {windows} windows");
}

/// Every scheme: the staged ones, the per-interface ones and PC.
const EVERY_RECON: [Recon; 8] = [
    Recon::Pc,
    Recon::Plm(Limiter::Minmod),
    Recon::Plm(Limiter::Mc),
    Recon::Plm(Limiter::VanLeer),
    Recon::Ppm,
    Recon::Ceno3,
    Recon::Mp5,
    Recon::Weno5,
];

/// `Recon::strided` on a lane slab — `lanes` hostile pencils interleaved
/// cell by cell, so that lane `i`'s stencil steps by `lanes` — against
/// `Recon::pencil` on each pencil alone, for every scheme, at 1, 3, 8 and
/// 17 lanes and at lengths around the staged blocks: over whole rows of
/// interfaces (the sweep's window) and over windows that start and end
/// mid-row, equal inside the window and sentinel outside. A stencil cell
/// stepped by 1 instead of by the stride reads another lane's cell.
#[test]
fn strided_reconstruction_equals_each_pencil_alone() {
    let mut rng = Rng(36);
    let mut slabs = 0u64;
    for lanes in [1, 3, 8, 17] {
        for n in [
            1,
            2,
            5,
            RECON_BLOCK - 1,
            RECON_BLOCK + 3,
            2 * RECON_BLOCK + 5,
        ] {
            for recon in EVERY_RECON {
                let g = recon.ghost();
                let cells = n + 2 * g;
                let pencils: Vec<Vec<f64>> = (0..lanes)
                    .map(|i| pencil(&mut rng, cells, (i + n) % 4))
                    .collect();
                let slab: Vec<f64> = (0..cells * lanes)
                    .map(|k| pencils[k % lanes][k / lanes])
                    .collect();
                // Interfaces `g ..= g + n` of every pencil, one per lane.
                let alone: Vec<_> = pencils
                    .iter()
                    .map(|q| {
                        let (mut ql, mut qr) =
                            (vec![SENTINEL; cells + 1], vec![SENTINEL; cells + 1]);
                        recon.pencil(q, g, g + n + 1, &mut ql, &mut qr);
                        (ql, qr)
                    })
                    .collect();
                let (first, end) = (g * lanes, (g + n + 1) * lanes);
                let mut windows = vec![(first, end)];
                for _ in 0..3 {
                    let lo = first + rng.below(end - first);
                    windows.push((lo, lo + rng.below(end - lo + 1)));
                }
                for (lo, hi) in windows {
                    let len = slab.len() + 1;
                    let (mut ql, mut qr) = (vec![SENTINEL; len], vec![SENTINEL; len]);
                    recon.strided(&slab, lanes, lo, hi, &mut ql, &mut qr);
                    for j in 0..len {
                        let (lane, row) = (j % lanes, j / lanes);
                        let (want_l, want_r) = if (lo..hi).contains(&j) {
                            (alone[lane].0[row], alone[lane].1[row])
                        } else {
                            (SENTINEL, SENTINEL)
                        };
                        assert!(
                            same(ql[j], want_l) && same(qr[j], want_r),
                            "{} {lanes} lanes of {n} cells, window [{lo}, {hi}): interface {row} \
                             of lane {lane}: ({:e}, {:e}) vs ({want_l:e}, {want_r:e})",
                            recon.name(),
                            ql[j],
                            qr[j],
                        );
                    }
                    slabs += 1;
                }
            }
        }
    }
    assert_eq!(slabs, 4 * 6 * 8 * 4);
}

// ---------------------------------------------------------------------
// (b) `compute_rhs` against an AoS residual built from the public pieces.
// ---------------------------------------------------------------------

/// Every cell of a patch, ghosts included, in storage order.
fn cells(geom: &PatchGeom) -> impl Iterator<Item = (usize, usize, usize)> {
    let [nx, ny, nz] = [geom.ntot(0), geom.ntot(1), geom.ntot(2)];
    (0..nz).flat_map(move |k| (0..ny).flat_map(move |j| (0..nx).map(move |i| (i, j, k))))
}

/// Primitives written straight into a field, ghosts included, so that the
/// interface states exercise both outcomes of every select in
/// `prepare_side`: cells at |v| = 1 − 10⁻¹³ … 1 + 10⁻¹³ and beside slow
/// ones (reconstructed v² on either side of 1 − 10⁻¹²), densities and
/// pressures a factor ten below their floors and negative after
/// reconstruction, a cell with NaN density and one with NaN pressure
/// (`max` must hand back the floor, whatever the operand order of the
/// packed instruction) and, with `nan_velocity`, one whose velocity is
/// NaN: v² is NaN, fails the clamp's comparison, and the lane stays NaN
/// (under HLLC too: NaN speeds on both sides of an interface give a NaN
/// flux, in the AoS solver as in the sweep).
fn hostile_field(geom: PatchGeom, seed: u64, nan_velocity: bool) -> Field {
    let mut rng = Rng(seed);
    let mut prim = Field::new(geom, NCOMP);
    let hostile: Vec<usize> = (0..3).map(|_| rng.below(geom.len())).collect();
    for (cell, (i, j, k)) in cells(&geom).enumerate() {
        let dir = [rng.unit(), rng.unit(), rng.unit()];
        let norm = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
        let speed = match rng.below(4) {
            0 => 1.0 + 1e-13 * rng.unit(),
            1 => 0.999_999 + 1e-6 * rng.unit(),
            _ => 0.5 * rng.unit(),
        };
        let mut w = Prim {
            rho: [1.0 + 0.5 * rng.unit(), 1e-13, 1e-3][rng.below(3)],
            vel: dir.map(|c| speed * c / norm),
            p: [1.0 + 0.5 * rng.unit(), 1e-15, 1e2][rng.below(3)],
        };
        if cell == hostile[0] {
            w.rho = f64::NAN;
        } else if cell == hostile[1] {
            w.p = f64::NAN;
        } else if cell == hostile[2] && nan_velocity {
            w.vel[rng.below(3)] = f64::NAN;
        }
        set_prim(&mut prim, i, j, k, &w);
    }
    prim
}

/// `prim` with a slab at rest on a plateau over its first eight x-columns
/// (NaN cells aside): the HLLC fan carries no energy flux there, and the
/// contact quadratic degenerates to its linear root.
fn with_rest_slab(mut prim: Field) -> Field {
    let geom = *prim.geom();
    for (i, j, k) in cells(&geom).filter(|&(i, _, _)| i < 8) {
        if (0..NCOMP).all(|c| !prim.at(c, i, j, k).is_nan()) {
            set_prim(&mut prim, i, j, k, &Prim::at_rest(1.0, 1.0));
        }
    }
    prim
}

/// The exits of `hllc_flux`, as [`hllc_exit`] numbers them.
const HLLC_EXITS: [&str; 5] = [
    "λL ≥ 0",
    "λR ≤ 0",
    "star state on the left",
    "star state on the right",
    "linear root",
];

/// Which way `hllc_flux` leaves at an interface, spelled here from the
/// public pieces: `[λL ≥ 0, λR ≤ 0, star state on the left, star state on
/// the right, contact quadratic degenerated to its linear root]`. NaN
/// speeds fail both upwind tests and every comparison after them.
fn hllc_exit(eos: &Eos, l: &Prim, r: &Prim, dir: Dir) -> [bool; 5] {
    let ((lm_l, lp_l), (lm_r, lp_r)) = (signal_speeds(eos, l, dir), signal_speeds(eos, r, dir));
    let (lam_l, lam_r) = (lm_l.min(lm_r), lp_l.max(lp_r));
    if lam_l >= 0.0 || lam_r <= 0.0 {
        return [lam_l >= 0.0, lam_l < 0.0, false, false, false];
    }
    let n = dir.axis();
    let [u_l, u_r] = [l, r].map(|w| w.to_cons(eos).to_array());
    let [f_l, f_r] = [l, r].map(|w| physical_flux(eos, w, dir).to_array());
    let inv = 1.0 / (lam_r - lam_l);
    let fan_u = |c: usize| (u_r[c] * lam_r - u_l[c] * lam_l + (f_l[c] - f_r[c])) * inv;
    let fan_f =
        |c: usize| (f_l[c] * lam_r - f_r[c] * lam_l + (u_r[c] - u_l[c]) * (lam_l * lam_r)) * inv;
    let (e, m, fe, fm) = (
        fan_u(4) + fan_u(0),
        fan_u(1 + n),
        fan_f(4) + fan_f(0),
        fan_f(1 + n),
    );
    let b = -(e + fm);
    let linear = fe.abs() < 1e-12 * (e.abs() + fm.abs()).max(1e-300);
    let lam_star = if linear {
        -m / b
    } else {
        let q = -0.5 * (b - b.signum() * (b * b - 4.0 * fe * m).max(0.0).sqrt());
        let r1 = q / fe;
        if r1 > lam_l && r1 < lam_r {
            r1
        } else {
            m / q
        }
    };
    let lam_star = lam_star.max(lam_l).min(lam_r);
    [false, false, lam_star >= 0.0, lam_star < 0.0, linear]
}

/// `L(U)` over the interior, one interface at a time through the public
/// AoS pieces: `Recon::pencil` → `Scheme::sanitize` → `RiemannSolver::flux`
/// → flux differences subtracted from zero in x, y, z order. Also counts
/// the interface states the clamp and the two floors changed and, under
/// HLLC, the interfaces that leave through each of [`HLLC_EXITS`].
fn aos_residual(scheme: &Scheme, prim: &Field, touched: &mut [usize; 8]) -> Field {
    let geom = *prim.geom();
    let mut rhs = Field::cons(geom);
    rhs.raw_mut().fill(0.0);
    let interior = Region::interior(&geom);
    for d in (0..3).filter(|&d| geom.active(d)) {
        let (a, b) = [(1, 2), (0, 2), (0, 1)][d];
        let nt = geom.ntot(d);
        let (lo, hi) = (interior.lo[d], interior.hi[d]);
        let inv_dx = 1.0 / geom.dx[d];
        let mut q = vec![0.0; nt];
        let mut w = vec![[0.0; NCOMP]; 2 * (nt + 1)];
        let (wl, wr) = w.split_at_mut(nt + 1);
        for tb in interior.lo[b]..interior.hi[b] {
            for ta in interior.lo[a]..interior.hi[a] {
                for c in 0..NCOMP {
                    prim.read_pencil(c, d, ta, tb, &mut q);
                    let (mut ql, mut qr) = (vec![0.0; nt + 1], vec![0.0; nt + 1]);
                    scheme.recon.pencil(&q, lo, hi + 1, &mut ql, &mut qr);
                    for j in lo..hi + 1 {
                        (wl[j][c], wr[j][c]) = (ql[j], qr[j]);
                    }
                }
                let flux: Vec<_> = (lo..hi + 1)
                    .map(|j| {
                        let [l, r] = [wl[j], wr[j]].map(|w| {
                            let raw = Prim {
                                rho: w[0],
                                vel: [w[1], w[2], w[3]],
                                p: w[4],
                            };
                            let clean = scheme.sanitize(raw);
                            touched[0] += usize::from(!same(clean.vel[0], raw.vel[0]));
                            touched[1] += usize::from(!same(clean.rho, raw.rho));
                            touched[2] += usize::from(!same(clean.p, raw.p));
                            clean
                        });
                        if scheme.riemann == RiemannSolver::Hllc {
                            let exits = hllc_exit(&scheme.eos, &l, &r, Dir::ALL[d]);
                            for (tally, hit) in touched[3..].iter_mut().zip(exits) {
                                *tally += usize::from(hit);
                            }
                        }
                        scheme.riemann.flux(&scheme.eos, &l, &r, Dir::ALL[d])
                    })
                    .collect();
                for i in lo..hi {
                    let (ci, cj, ck) = match d {
                        0 => (i, ta, tb),
                        1 => (ta, i, tb),
                        _ => (ta, tb, i),
                    };
                    let df = (flux[i + 1 - lo] - flux[i - lo]).to_array();
                    let cur = rhs.get_cons(ci, cj, ck).to_array();
                    let next: [f64; NCOMP] = std::array::from_fn(|c| cur[c] - df[c] * inv_dx);
                    rhs.set_cons(ci, cj, ck, Cons::from_array(next));
                }
            }
        }
    }
    rhs
}

fn assert_fields_equal(got: &Field, want: &Field, what: &str) {
    for (ix, (&g, &w)) in got.raw().iter().zip(want.raw()).enumerate() {
        assert!(same(g, w), "{what}: slot {ix}: {g:e} vs {w:e}");
    }
}

#[test]
fn compute_rhs_matches_an_aos_residual_on_fields_that_take_every_select() {
    let pool = WorkStealingPool::new(2);
    let line = PatchGeom::line(40, 0.0, 1.0, 3);
    let rect = PatchGeom::rect([12, 9], [0.0; 2], [1.0, 0.7], 3);
    let cube = PatchGeom::cube([7, 6, 5], [0.0; 3], [1.0, 0.8, 0.6], 3);
    // The line again with a slab at rest: HLLC's linear root.
    let fields = [
        ("1D", hostile_field(line, 31, true)),
        ("2D", hostile_field(rect, 32, true)),
        ("3D", hostile_field(cube, 33, true)),
        ("1D slab", with_rest_slab(hostile_field(line, 34, true))),
    ];
    let eoses = [Eos::ideal(5.0 / 3.0), Eos::TaubMathews];
    let recons = [Recon::Ppm, Recon::Plm(Limiter::Mc), Recon::Weno5];
    let mut touched = [0usize; 8];
    let mut nans = 0;
    for (dims, prim) in &fields {
        let geom = *prim.geom();
        for eos in eoses {
            for riemann in RiemannSolver::ALL {
                for recon in recons {
                    let scheme = Scheme {
                        eos,
                        recon,
                        riemann,
                        ..Scheme::default_with_gamma(5.0 / 3.0)
                    };
                    let want = aos_residual(&scheme, prim, &mut touched);
                    nans += want.raw().iter().filter(|v| v.is_nan()).count();
                    let what = format!("{dims} {eos:?} {} {}", riemann.name(), recon.name());
                    let mut got = Field::cons(geom);
                    compute_rhs(&scheme, prim, &mut got, None);
                    assert_fields_equal(&got, &want, &format!("{what} serial"));
                    got.raw_mut().fill(SENTINEL);
                    compute_rhs(&scheme, prim, &mut got, Some(&pool));
                    assert_fields_equal(&got, &want, &format!("{what} gang"));
                }
            }
        }
    }
    let [clamped, rho_floored, p_floored] = [touched[0], touched[1], touched[2]];
    assert!(
        clamped > 1000 && rho_floored > 1000 && p_floored > 1000 && nans > 100,
        "the fields no longer exercise the selects: {clamped} clamped, {rho_floored} / \
         {p_floored} floored interface states, {nans} NaN residual slots"
    );
    for (exit, &hits) in HLLC_EXITS.iter().zip(&touched[3..]) {
        assert!(
            hits > 0,
            "no HLLC interface leaves through `{exit}`: {touched:?}"
        );
    }
}

// ---------------------------------------------------------------------
// (c) Every pencil extent at every offset tiles to `compute_rhs`.
// ---------------------------------------------------------------------

/// `accumulate_rhs_region` over the cells `[lo, hi)` of dimension `d`
/// (full extent elsewhere) of a sentinel-filled residual zeroed inside
/// the region: `full`'s bytes inside, the sentinel outside.
fn check_extent(scheme: &Scheme, prim: &Field, full: &Field, d: usize, lo: usize, hi: usize) {
    let geom = *prim.geom();
    let mut region = Region::interior(&geom);
    (region.lo[d], region.hi[d]) = (lo, hi);
    let inside = |i: usize, j: usize, k: usize| {
        (0..3).all(|d| (region.lo[d]..region.hi[d]).contains(&[i, j, k][d]))
    };
    let mut rhs = Field::cons(geom);
    rhs.raw_mut().fill(SENTINEL);
    for (i, j, k) in cells(&geom).filter(|&(i, j, k)| inside(i, j, k)) {
        rhs.set_cons(i, j, k, Cons::ZERO);
    }
    accumulate_rhs_region(scheme, prim, &mut rhs, &region, None);
    for (i, j, k) in cells(&geom) {
        for c in 0..NCOMP {
            let want = if inside(i, j, k) {
                full.at(c, i, j, k)
            } else {
                SENTINEL
            };
            let got = rhs.at(c, i, j, k);
            assert!(
                same(got, want),
                "dim {d} cells [{lo}, {hi}): component {c} of ({i}, {j}, {k}) is {got:e}, not {want:e}"
            );
        }
    }
}

#[test]
fn every_pencil_extent_at_every_offset_tiles_to_compute_rhs() {
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let n = 2 * RECON_BLOCK + 3;
    // A hostile cell in ten; the rest calm.
    let mostly_calm = |geom: PatchGeom| {
        let mut prim = hostile_field(geom, 7, false);
        for (i, j, k) in cells(&geom).filter(|(i, j, k)| (i + 3 * j + 5 * k) % 10 != 0) {
            let x = (i + 2 * j + 3 * k) as f64;
            let w = Prim {
                rho: 1.0 + 0.3 * (0.7 * x).sin(),
                vel: [0.4 * (0.3 * x).cos(), -0.2, 0.1 * (0.5 * x).sin()],
                p: 1.0 + 0.2 * (0.4 * x).cos(),
            };
            set_prim(&mut prim, i, j, k, &w);
        }
        prim
    };
    // Contiguous pencils: every extent 1 ..= 2·block + 1 at every offset.
    let geom = PatchGeom::line(n, 0.0, 1.0, 3);
    let prim = mostly_calm(geom);
    let mut full = Field::cons(geom);
    compute_rhs(&scheme, &prim, &mut full, None);
    let interior = Region::interior(&geom);
    for extent in 1..=2 * RECON_BLOCK + 1 {
        for lo in interior.lo[0]..=interior.hi[0] - extent {
            check_extent(&scheme, &prim, &full, 0, lo, lo + extent);
        }
    }
    // Strided pencils (the y gather): the extents around the block edges.
    let geom = PatchGeom::rect([2, n], [0.0; 2], [1.0; 2], 3);
    let prim = mostly_calm(geom);
    let mut full = Field::cons(geom);
    compute_rhs(&scheme, &prim, &mut full, None);
    let interior = Region::interior(&geom);
    let b = RECON_BLOCK;
    for extent in [1, 2, b - 1, b, b + 1, b + 2, 2 * b, 2 * b + 1] {
        for lo in interior.lo[1]..=interior.hi[1] - extent {
            check_extent(&scheme, &prim, &full, 1, lo, lo + extent);
        }
    }
}

/// `accumulate_rhs_region` over `regions` (which tile the interior) into
/// a residual zeroed first, serial or on `pool`.
fn tiled(
    scheme: &Scheme,
    prim: &Field,
    regions: &[Region],
    pool: Option<&WorkStealingPool>,
) -> Field {
    let mut rhs = Field::cons(*prim.geom());
    rhs.raw_mut().fill(0.0);
    for region in regions {
        accumulate_rhs_region(scheme, prim, &mut rhs, region, pool);
    }
    rhs
}

/// The slabs of extent `extent` along `d` (the last one shorter where
/// `extent` does not divide the interior) that tile the interior.
fn slabs(geom: &PatchGeom, d: usize, extent: usize) -> Vec<Region> {
    let interior = Region::interior(geom);
    (interior.lo[d]..interior.hi[d])
        .step_by(extent)
        .map(|lo| {
            let mut r = interior;
            (r.lo[d], r.hi[d]) = (lo, (lo + extent).min(interior.hi[d]));
            r
        })
        .collect()
}

/// Lane slabs: a sweep copies a batch of pencils into one slab, a lane per
/// pencil, and runs one kernel call over it (`SLAB_CELLS = 768` cells in
/// `step.rs`, at most 64 lanes). On a 13 × 11 × 9 cube every sweep spans
/// three slabs, the last one partial, for every ghost width here: the
/// x-sweep's 99 pencils of 13 + 2g cells go 40 (g = 3) or 45 (g = 2) to a
/// slab, the y-sweep's 117 go 45 or 51, the z-sweep's 143 go 51 or 59.
/// `compute_rhs` (serial and gang) must equal the interior tiled into
/// single cells, on which every slab is one pencil. And regions 1, 2 and
/// 3 cells deep in the sweep dimension — the shell stubs of an overlapped
/// halo exchange, 64 lanes to a slab — must tile to `compute_rhs`. The
/// fields are hostile, NaN velocities included: a value no kept interface
/// reads must not leak from one lane to another.
#[test]
fn lane_batches_and_shell_stubs_tile_to_compute_rhs() {
    let pool = WorkStealingPool::new(2);
    let geom = PatchGeom::cube([13, 11, 9], [0.0; 3], [1.0, 0.9, 0.7], 3);
    let prim = hostile_field(geom, 35, true);
    let cells: Vec<Region> = geom
        .interior_iter()
        .map(|(i, j, k)| Region {
            lo: [i, j, k],
            hi: [i + 1, j + 1, k + 1],
        })
        .collect();
    let recons = [Recon::Ppm, Recon::Plm(Limiter::Mc), Recon::Weno5];
    for eos in [Eos::ideal(5.0 / 3.0), Eos::TaubMathews] {
        for riemann in RiemannSolver::ALL {
            for recon in recons {
                let scheme = Scheme {
                    eos,
                    recon,
                    riemann,
                    ..Scheme::default_with_gamma(5.0 / 3.0)
                };
                let what = format!("{eos:?} {} {}", riemann.name(), recon.name());
                let mut full = Field::cons(geom);
                compute_rhs(&scheme, &prim, &mut full, None);
                let one_window_each = tiled(&scheme, &prim, &cells, None);
                assert_fields_equal(&full, &one_window_each, &format!("{what} serial"));
                let mut gang = Field::cons(geom);
                gang.raw_mut().fill(SENTINEL);
                compute_rhs(&scheme, &prim, &mut gang, Some(&pool));
                assert_fields_equal(&gang, &one_window_each, &format!("{what} gang"));
                for d in 0..3 {
                    for extent in 1..=3 {
                        let stubs = slabs(&geom, d, extent);
                        for (how, pool) in [("serial", None), ("gang", Some(&pool))] {
                            let got = tiled(&scheme, &prim, &stubs, pool);
                            let at = format!("{what} dim {d} stubs of {extent} {how}");
                            assert_fields_equal(&got, &full, &at);
                        }
                    }
                }
            }
        }
    }
}

/// Slabs of 1, 3 and 7 lanes: the interior of a hostile 2D and 3D field
/// tiled, for each sweep axis `d`, into columns that span `d` and are 1, 3
/// or 7 cells wide across it (one cell deep in the third dimension), so
/// that the sweep along `d` of each column runs one slab of that many
/// pencils. Every tiling must equal the AoS residual.
#[test]
fn slabs_of_one_three_and_seven_lanes_match_an_aos_residual() {
    let rect = PatchGeom::rect([11, 11], [0.0; 2], [1.0, 0.8], 3);
    let cube = PatchGeom::cube([11, 11, 5], [0.0; 3], [1.0, 0.8, 0.6], 3);
    let mut touched = [0usize; 8];
    for (dims, prim) in [
        ("2D", hostile_field(rect, 37, true)),
        ("3D", hostile_field(cube, 38, true)),
    ] {
        let geom = *prim.geom();
        let interior = Region::interior(&geom);
        for recon in [Recon::Ppm, Recon::Plm(Limiter::Mc), Recon::Weno5] {
            let scheme = Scheme {
                recon,
                riemann: RiemannSolver::Hllc,
                ..Scheme::default_with_gamma(5.0 / 3.0)
            };
            let want = aos_residual(&scheme, &prim, &mut touched);
            for d in (0..3).filter(|&d| geom.active(d)) {
                let (a, b) = [(1, 2), (0, 2), (0, 1)][d];
                let mut columns = Vec::new();
                for tb in interior.lo[b]..interior.hi[b] {
                    let mut lo = interior.lo[a];
                    for width in [1, 3, 7] {
                        let mut column = interior;
                        (column.lo[a], column.hi[a]) = (lo, lo + width);
                        (column.lo[b], column.hi[b]) = (tb, tb + 1);
                        columns.push(column);
                        lo += width;
                    }
                    assert_eq!(lo, interior.hi[a], "the columns tile the interior");
                }
                let got = tiled(&scheme, &prim, &columns, None);
                let what = format!("{dims} {} columns across dim {d}", recon.name());
                assert_fields_equal(&got, &want, &what);
            }
        }
    }
}
