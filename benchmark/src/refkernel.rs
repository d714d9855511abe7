//! The frozen reference kernel every time sample is normalised by.
//!
//! The host this benchmark runs on is a shared VM whose cores change
//! speed by 20–30 % in phases lasting seconds to minutes. A workload
//! repeat is therefore bracketed by two runs of this kernel, and every
//! time measured in the repeat is multiplied by
//! `REF_NOMINAL_S / mean(ref_before, ref_after)`: the figure reads as
//! seconds on a host on which this kernel takes `REF_NOMINAL_S`.
//!
//! The kernel is a complete little SRHD solver of its own (1D, ideal
//! gas, PLM-minmod, HLL, Newton con2prim, RK2) so that its instruction
//! mix resembles the program's, and it calls nothing under `crates/`, so
//! that no change to the program can speed it up and hide or fake a gain.
//! Do not edit it: every number ever reported is in its units.

use std::time::Instant;

/// What one reference run is defined to take, in seconds.
pub const REF_NOMINAL_S: f64 = 0.020;

const N: usize = 8192;
const NG: usize = 2;
const NT: usize = N + 2 * NG;
const STEPS: usize = 30;
const GAMMA: f64 = 5.0 / 3.0;
/// Δt/Δx: below the light-crossing limit of 1, so always stable.
const CFL: f64 = 0.4;

/// Conserved state of the reference tube (D, S, τ), ghosts included.
#[derive(Clone)]
struct State {
    d: Vec<f64>,
    s: Vec<f64>,
    tau: Vec<f64>,
}

impl State {
    fn zeros() -> Self {
        State {
            d: vec![0.0; NT],
            s: vec![0.0; NT],
            tau: vec![0.0; NT],
        }
    }
}

/// The reference solver with all its scratch storage, so a run
/// allocates nothing.
pub struct RefKernel {
    u: State,
    u0: State,
    rho: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    flux: State,
    checksum: u64,
}

#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

#[inline]
fn to_cons(rho: f64, v: f64, p: f64) -> (f64, f64, f64) {
    let w = 1.0 / (1.0 - v * v).sqrt();
    let h = 1.0 + GAMMA / (GAMMA - 1.0) * p / rho;
    let d = rho * w;
    let s = rho * h * w * w * v;
    (d, s, rho * h * w * w - p - d)
}

/// Physical flux of (D, S, τ) and the two signal speeds.
#[inline]
fn flux_and_speeds(rho: f64, v: f64, p: f64) -> ([f64; 3], [f64; 3], f64, f64) {
    let (d, s, tau) = to_cons(rho, v, p);
    let h = 1.0 + GAMMA / (GAMMA - 1.0) * p / rho;
    let cs = (GAMMA * p / (rho * h)).sqrt();
    let lm = (v - cs) / (1.0 - v * cs);
    let lp = (v + cs) / (1.0 + v * cs);
    ([d, s, tau], [d * v, s * v + p, s - d * v], lm, lp)
}

#[inline]
fn hll(l: (f64, f64, f64), r: (f64, f64, f64)) -> [f64; 3] {
    let (ul, fl, lml, lpl) = flux_and_speeds(l.0, l.1, l.2);
    let (ur, fr, lmr, lpr) = flux_and_speeds(r.0, r.1, r.2);
    let sl = lml.min(lmr).min(0.0);
    let sr = lpl.max(lpr).max(0.0);
    let inv = 1.0 / (sr - sl);
    let mut f = [0.0; 3];
    for c in 0..3 {
        f[c] = (sr * fl[c] - sl * fr[c] + sl * sr * (ur[c] - ul[c])) * inv;
    }
    f
}

impl RefKernel {
    /// Allocate the kernel and record the checksum every later run must
    /// reproduce.
    pub fn new() -> Self {
        let mut k = RefKernel {
            u: State::zeros(),
            u0: State::zeros(),
            rho: vec![0.0; NT],
            v: vec![0.0; NT],
            p: vec![0.0; NT],
            flux: State::zeros(),
            checksum: 0,
        };
        k.checksum = k.solve();
        k
    }

    /// One timed reference run, in seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let sum = std::hint::black_box(self.solve());
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(sum, self.checksum, "reference kernel is not deterministic");
        secs
    }

    /// Sod tube, `STEPS` RK2 steps; returns a checksum of the final state.
    fn solve(&mut self) -> u64 {
        for i in 0..NT {
            let x = (i as f64 - NG as f64 + 0.5) / N as f64;
            let (rho, p) = if x < 0.5 { (1.0, 1.0) } else { (0.125, 0.1) };
            let (d, s, tau) = to_cons(rho, 0.0, p);
            self.u.d[i] = d;
            self.u.s[i] = s;
            self.u.tau[i] = tau;
            // Cold start of the first Newton solve.
            self.p[i] = p;
        }
        for _ in 0..STEPS {
            self.u0.d.copy_from_slice(&self.u.d);
            self.u0.s.copy_from_slice(&self.u.s);
            self.u0.tau.copy_from_slice(&self.u.tau);
            // u1 = u0 + dt L(u0); u = 1/2 u0 + 1/2 (u1 + dt L(u1)).
            self.stage(0.0, 1.0);
            self.stage(0.5, 0.5);
        }
        let mut sum = 0u64;
        for i in NG..NG + N {
            sum = sum
                .wrapping_mul(0x0000_0100_0000_01b3)
                .wrapping_add(self.u.d[i].to_bits())
                .wrapping_add(self.u.tau[i].to_bits().rotate_left(17));
        }
        sum
    }

    /// `u = a·u0 + b·(u + dt·L(u))` over the interior.
    fn stage(&mut self, a: f64, b: f64) {
        // Outflow ghosts.
        for g in 0..NG {
            for arr in [&mut self.u.d, &mut self.u.s, &mut self.u.tau] {
                arr[g] = arr[NG];
                arr[NG + N + g] = arr[NG + N - 1];
            }
        }
        // Primitive recovery: Newton on the pressure, warm-started from
        // the previous stage.
        for i in 0..NT {
            let (d, s, tau) = (self.u.d[i], self.u.s[i], self.u.tau[i]);
            let mut p = self.p[i].max(s.abs() - tau - d + 1e-13).max(1e-14);
            let (mut rho, mut v) = (d, 0.0);
            for _ in 0..50 {
                let e = tau + d + p;
                v = s / e;
                let w = 1.0 / (1.0 - v * v).sqrt();
                rho = d / w;
                let eps = (tau + d * (1.0 - w) + p * (1.0 - w * w)) / (d * w);
                let f = (GAMMA - 1.0) * rho * eps - p;
                if f.abs() < 1e-12 * p {
                    break;
                }
                let cs2 = GAMMA * p / (rho + GAMMA / (GAMMA - 1.0) * p);
                p = (p - f / (v * v * cs2 - 1.0)).max(1e-14);
            }
            self.rho[i] = rho;
            self.v[i] = v;
            self.p[i] = p;
        }
        // PLM-minmod interface states and HLL fluxes; interface j lies
        // between cells j-1 and j.
        for j in NG..=NG + N {
            let side = |q: &[f64], c: usize, sign: f64| {
                q[c] + sign * 0.5 * minmod(q[c] - q[c - 1], q[c + 1] - q[c])
            };
            let l = (
                side(&self.rho, j - 1, 1.0),
                side(&self.v, j - 1, 1.0),
                side(&self.p, j - 1, 1.0),
            );
            let r = (
                side(&self.rho, j, -1.0),
                side(&self.v, j, -1.0),
                side(&self.p, j, -1.0),
            );
            let f = hll(l, r);
            self.flux.d[j] = f[0];
            self.flux.s[j] = f[1];
            self.flux.tau[j] = f[2];
        }
        for i in NG..NG + N {
            let upd = |u: f64, u0: f64, fl: f64, fr: f64| a * u0 + b * (u - CFL * (fr - fl));
            self.u.d[i] = upd(
                self.u.d[i],
                self.u0.d[i],
                self.flux.d[i],
                self.flux.d[i + 1],
            );
            self.u.s[i] = upd(
                self.u.s[i],
                self.u0.s[i],
                self.flux.s[i],
                self.flux.s[i + 1],
            );
            self.u.tau[i] = upd(
                self.u.tau[i],
                self.u0.tau[i],
                self.flux.tau[i],
                self.flux.tau[i + 1],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_run_repeats_and_keeps_the_tube_physical() {
        let mut k = RefKernel::new();
        assert!(k.run() > 0.0);
        // Mass leaves only through the outflow ends, which the waves have
        // not reached: total D is that of the initial tube.
        let mass: f64 = k.u.d[NG..NG + N].iter().sum::<f64>() / N as f64;
        assert!((mass - 0.5625).abs() < 1e-9, "mass {mass}");
        assert!(k.rho.iter().all(|&r| r > 0.0) && k.p.iter().all(|&p| p > 0.0));
        // The shock has moved right of the membrane.
        let moved = (NG + N / 2..NG + N).any(|i| k.v[i] > 0.1);
        assert!(moved, "no flow developed");
    }
}
