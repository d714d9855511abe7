//! Primitive and conserved state vectors for SRHD.

use rhrsc_eos::Eos;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Number of evolved components: `(D, S_x, S_y, S_z, τ)`.
pub const NCOMP: usize = 5;

/// Coordinate direction of a flux or sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    X,
    Y,
    Z,
}

impl Dir {
    /// All three directions, in sweep order.
    pub const ALL: [Dir; 3] = [Dir::X, Dir::Y, Dir::Z];

    /// Index of the direction (0, 1, 2).
    #[inline]
    pub fn axis(self) -> usize {
        match self {
            Dir::X => 0,
            Dir::Y => 1,
            Dir::Z => 2,
        }
    }
}

/// Primitive (physical) variables of a relativistic perfect fluid element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prim {
    /// Rest-mass density `ρ > 0`.
    pub rho: f64,
    /// Coordinate three-velocity `v_i`, with `|v| < 1`.
    pub vel: [f64; 3],
    /// Pressure `p > 0`.
    pub p: f64,
}

impl Prim {
    /// A state at rest with the given density and pressure.
    #[inline]
    pub fn at_rest(rho: f64, p: f64) -> Self {
        Prim {
            rho,
            vel: [0.0; 3],
            p,
        }
    }

    /// A state with purely x-directed velocity (1D problems).
    #[inline]
    pub fn new_1d(rho: f64, vx: f64, p: f64) -> Self {
        Prim {
            rho,
            vel: [vx, 0.0, 0.0],
            p,
        }
    }

    /// From a component array `[ρ, vx, vy, vz, p]`.
    #[inline]
    pub fn from_array(a: [f64; NCOMP]) -> Self {
        Prim {
            rho: a[0],
            vel: [a[1], a[2], a[3]],
            p: a[4],
        }
    }

    /// As a component array `[ρ, vx, vy, vz, p]`.
    #[inline]
    pub fn to_array(self) -> [f64; NCOMP] {
        [self.rho, self.vel[0], self.vel[1], self.vel[2], self.p]
    }

    /// Squared three-velocity `v² = v_i v^i`.
    #[inline]
    pub fn vsq(&self) -> f64 {
        let [vx, vy, vz] = self.vel;
        vx * vx + vy * vy + vz * vz
    }

    /// Lorentz factor `W = (1 − v²)^{-1/2}`.
    #[inline]
    pub fn lorentz(&self) -> f64 {
        1.0 / (1.0 - self.vsq()).sqrt()
    }

    /// Velocity component along `dir`.
    #[inline]
    pub fn vn(&self, dir: Dir) -> f64 {
        self.vel[dir.axis()]
    }

    /// Specific enthalpy under `eos`.
    #[inline]
    pub fn enthalpy(&self, eos: &Eos) -> f64 {
        eos.enthalpy(self.rho, self.p)
    }

    /// Local sound speed under `eos`.
    #[inline]
    pub fn sound_speed(&self, eos: &Eos) -> f64 {
        eos.sound_speed(self.rho, self.p)
    }

    /// Convert to conserved variables under `eos`.
    #[inline]
    pub fn to_cons(&self, eos: &Eos) -> Cons {
        let w = self.lorentz();
        let h = eos.enthalpy(self.rho, self.p);
        let rhw2 = self.rho * h * w * w;
        let d = self.rho * w;
        Cons {
            d,
            s: [rhw2 * self.vel[0], rhw2 * self.vel[1], rhw2 * self.vel[2]],
            tau: rhw2 - self.p - d,
        }
    }

    /// `true` when the state is physical: positive density and pressure,
    /// subluminal velocity, all components finite.
    #[inline]
    pub fn is_physical(&self) -> bool {
        self.rho > 0.0
            && self.p > 0.0
            && self.vsq() < 1.0
            && self.rho.is_finite()
            && self.p.is_finite()
            && self.vel.iter().all(|v| v.is_finite())
    }

    /// Lorentz-boost this state by velocity `vb` along `dir` (velocity
    /// addition). Used to construct ultrarelativistic variants of standard
    /// test problems. Thermodynamic scalars are frame-invariant.
    pub fn boosted(&self, vb: f64, dir: Dir) -> Prim {
        assert!(vb.abs() < 1.0, "boost velocity must be subluminal");
        let a = dir.axis();
        let wb = 1.0 / (1.0 - vb * vb).sqrt();
        let vn = self.vel[a];
        let denom = 1.0 + vn * vb;
        let mut vel = [0.0; 3];
        // Relativistic velocity addition: parallel component composes,
        // transverse components pick up a 1/W_b time-dilation factor.
        for (i, v) in vel.iter_mut().enumerate() {
            *v = if i == a {
                (vn + vb) / denom
            } else {
                self.vel[i] / (wb * denom)
            };
        }
        Prim {
            rho: self.rho,
            vel,
            p: self.p,
        }
    }
}

/// Conserved variables `(D, S_i, τ)`. Also used to represent fluxes and
/// Runge–Kutta residuals, which live in the same 5-vector space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cons {
    /// Conserved rest-mass density `D = ρW`.
    pub d: f64,
    /// Momentum density `S_i = ρ h W² v_i`.
    pub s: [f64; 3],
    /// Energy density `τ = ρ h W² − p − D`.
    pub tau: f64,
}

impl Cons {
    /// The zero vector.
    pub const ZERO: Cons = Cons {
        d: 0.0,
        s: [0.0; 3],
        tau: 0.0,
    };

    /// Build from a component array `[D, Sx, Sy, Sz, τ]`.
    #[inline]
    pub fn from_array(a: [f64; NCOMP]) -> Self {
        Cons {
            d: a[0],
            s: [a[1], a[2], a[3]],
            tau: a[4],
        }
    }

    /// View as a component array `[D, Sx, Sy, Sz, τ]`.
    #[inline]
    pub fn to_array(self) -> [f64; NCOMP] {
        [self.d, self.s[0], self.s[1], self.s[2], self.tau]
    }

    /// Momentum component along `dir`.
    #[inline]
    pub fn sn(&self, dir: Dir) -> f64 {
        self.s[dir.axis()]
    }

    /// Squared momentum magnitude `S² = S_i S^i`.
    #[inline]
    pub fn ssq(&self) -> f64 {
        let [sx, sy, sz] = self.s;
        sx * sx + sy * sy + sz * sz
    }

    /// Max-norm over the five components (used in convergence tests).
    #[inline]
    pub fn max_norm(&self) -> f64 {
        self.to_array().iter().fold(0.0f64, |m, c| m.max(c.abs()))
    }

    /// `true` when all components are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.to_array().iter().all(|c| c.is_finite())
    }
}

impl Add for Cons {
    type Output = Cons;
    #[inline]
    fn add(self, o: Cons) -> Cons {
        Cons {
            d: self.d + o.d,
            s: [self.s[0] + o.s[0], self.s[1] + o.s[1], self.s[2] + o.s[2]],
            tau: self.tau + o.tau,
        }
    }
}

impl Sub for Cons {
    type Output = Cons;
    #[inline]
    fn sub(self, o: Cons) -> Cons {
        Cons {
            d: self.d - o.d,
            s: [self.s[0] - o.s[0], self.s[1] - o.s[1], self.s[2] - o.s[2]],
            tau: self.tau - o.tau,
        }
    }
}

impl Mul<f64> for Cons {
    type Output = Cons;
    #[inline]
    fn mul(self, k: f64) -> Cons {
        Cons {
            d: self.d * k,
            s: [self.s[0] * k, self.s[1] * k, self.s[2] * k],
            tau: self.tau * k,
        }
    }
}

impl Neg for Cons {
    type Output = Cons;
    #[inline]
    fn neg(self) -> Cons {
        self * -1.0
    }
}

impl AddAssign for Cons {
    #[inline]
    fn add_assign(&mut self, o: Cons) {
        *self = *self + o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorentz_factor_values() {
        assert!((Prim::at_rest(1.0, 1.0).lorentz() - 1.0).abs() < 1e-15);
        let p = Prim::new_1d(1.0, 0.6, 1.0);
        assert!((p.lorentz() - 1.25).abs() < 1e-14);
    }

    #[test]
    fn prim_to_cons_at_rest() {
        let eos = Eos::ideal(5.0 / 3.0);
        let prim = Prim::at_rest(2.0, 3.0);
        let u = prim.to_cons(&eos);
        assert!((u.d - 2.0).abs() < 1e-15);
        assert_eq!(u.s, [0.0; 3]);
        // τ = ρh − p − ρ = ρ(1+ε) − ρ = ρε  at rest.
        let eps = eos.eps(2.0, 3.0);
        assert!((u.tau - 2.0 * eps).abs() < 1e-13, "tau={}", u.tau);
    }

    #[test]
    fn cons_algebra() {
        let a = Cons::from_array([1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Cons::from_array([0.5, 0.5, 0.5, 0.5, 0.5]);
        let c = a + b * 2.0 - a;
        assert_eq!(c.to_array(), [1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!((-b).d, -0.5);
        assert_eq!(a.max_norm(), 5.0);
    }

    #[test]
    fn array_roundtrip() {
        let a = [0.1, -0.2, 0.3, -0.4, 0.5];
        assert_eq!(Cons::from_array(a).to_array(), a);
    }

    #[test]
    fn boost_composes_velocities() {
        let p = Prim::new_1d(1.0, 0.5, 1.0);
        let b = p.boosted(0.5, Dir::X);
        assert!((b.vel[0] - 0.8).abs() < 1e-14); // (0.5+0.5)/(1+0.25)
        assert_eq!(b.rho, 1.0);
        assert_eq!(b.p, 1.0);
    }

    #[test]
    fn boost_transverse_velocity() {
        let p = Prim {
            rho: 1.0,
            vel: [0.0, 0.6, 0.0],
            p: 1.0,
        };
        let b = p.boosted(0.8, Dir::X);
        let wb = 1.0 / (1.0 - 0.64f64).sqrt();
        assert!((b.vel[0] - 0.8).abs() < 1e-14);
        assert!((b.vel[1] - 0.6 / wb).abs() < 1e-14);
        assert!(b.vsq() < 1.0);
    }

    #[test]
    fn boost_keeps_subluminal_even_when_fast() {
        let p = Prim::new_1d(1.0, 0.999, 1.0);
        let b = p.boosted(0.999, Dir::X);
        assert!(b.vel[0] < 1.0 && b.is_physical());
    }

    #[test]
    fn physicality_checks() {
        assert!(Prim::new_1d(1.0, 0.5, 1.0).is_physical());
        assert!(!Prim::new_1d(-1.0, 0.5, 1.0).is_physical());
        assert!(!Prim::new_1d(1.0, 1.5, 1.0).is_physical());
        assert!(!Prim::new_1d(1.0, 0.5, f64::NAN).is_physical());
    }

    #[test]
    fn dir_axis() {
        assert_eq!(Dir::X.axis(), 0);
        assert_eq!(Dir::Y.axis(), 1);
        assert_eq!(Dir::Z.axis(), 2);
        let p = Prim {
            rho: 1.0,
            vel: [0.1, 0.2, 0.3],
            p: 1.0,
        };
        assert_eq!(p.vn(Dir::Y), 0.2);
        let u = p.to_cons(&Eos::ideal(1.4));
        assert_eq!(u.sn(Dir::Z), u.s[2]);
    }
}
