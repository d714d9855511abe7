//! HLLC approximate Riemann solver for SRHD (Mignone & Bodo 2005).
//!
//! HLL collapses the Riemann fan to two waves and therefore smears contact
//! discontinuities. HLLC restores the middle (contact) wave: the contact
//! speed `λ*` is the physically admissible root of a quadratic built from
//! the HLL fan average, and the star states on each side follow from the
//! Rankine–Hugoniot conditions across the outer waves.
//!
//! Internally the solver works with the *total* energy `E = τ + D`, for
//! which the SRHD fluxes take the compact form `F_E = S_n` and
//! `F_{S_n} = S_n v_n + p`.

use super::davis_speeds;
use super::hll::{hll_flux_from, hll_state};
use crate::flux::physical_flux_from;
use crate::state::{Cons, Dir, Prim};
use rhrsc_eos::Eos;

/// HLLC flux along `dir`.
#[inline]
pub fn hllc_flux(eos: &Eos, left: &Prim, right: &Prim, dir: Dir) -> Cons {
    let (lam_l, lam_r) = davis_speeds(eos, left, right, dir);
    let u_l = left.to_cons(eos);
    let u_r = right.to_cons(eos);
    let f_l = physical_flux_from(left, &u_l, dir);
    let f_r = physical_flux_from(right, &u_r, dir);

    // Supersonic cases: pure upwinding.
    if lam_l >= 0.0 {
        return f_l;
    }
    if lam_r <= 0.0 {
        return f_r;
    }

    let n = dir.axis();

    // Contact speed from the HLL fan average. With E = τ + D:
    //   F_E^hll λ*² − (E^hll + F_m^hll) λ* + m^hll = 0
    // where m = S_n. Take the root with |λ*| ≤ 1 (the "minus" root).
    let fan_u = hll_state(&u_l, &u_r, &f_l, &f_r, lam_l, lam_r);
    let fan_f = hll_flux_from(&u_l, &u_r, &f_l, &f_r, lam_l, lam_r);
    let e_hll = fan_u.tau + fan_u.d;
    let m_hll = fan_u.s[n];
    let fe_hll = fan_f.tau + fan_f.d; // = F_E of the fan
    let fm_hll = fan_f.s[n];

    let b = -(e_hll + fm_hll);
    let lam_star = if fe_hll.abs() < 1e-12 * (e_hll.abs() + fm_hll.abs()).max(1e-300) {
        // Quadratic degenerates to linear.
        -m_hll / b
    } else {
        let disc = (b * b - 4.0 * fe_hll * m_hll).max(0.0);
        // Numerically stable "minus" root via the q-formula.
        let q = -0.5 * (b - b.signum() * disc.sqrt());
        // The two roots are q/a and c/q; the admissible one lies in (λL, λR).
        let r1 = q / fe_hll;
        let r2 = m_hll / q;
        if r1 > lam_l && r1 < lam_r {
            r1
        } else {
            r2
        }
    };
    // `f64::clamp`'s two comparisons without its `min <= max` assertion:
    // NaN speeds on both sides then give a NaN flux instead of a panic.
    let lam_star = if lam_star < lam_l { lam_l } else { lam_star };
    let lam_star = if lam_star > lam_r { lam_r } else { lam_star };

    // Star state on the side containing the interface (ξ = 0).
    let (prim, u, f, lam) = if lam_star >= 0.0 {
        (left, &u_l, &f_l, lam_l)
    } else {
        (right, &u_r, &f_r, lam_r)
    };

    let e = u.tau + u.d;
    let m = u.s[n];
    let vn = prim.vel[n];
    // Mignone & Bodo (2005): with A = λE − m and B = m(λ − v_n) − p,
    //   p* = (A λ* − B) / (1 − λ λ*)
    let a_coef = lam * e - m;
    let b_coef = m * (lam - vn) - prim.p;
    let p_star = (a_coef * lam_star - b_coef) / (1.0 - lam * lam_star);
    let p_star = p_star.max(0.0);

    // Jump conditions across the outer wave.
    let k = (lam - vn) / (lam - lam_star);
    let e_star = (lam * e - m + p_star * lam_star) / (lam - lam_star);
    let m_star = (e_star + p_star) * lam_star;
    let d_star = u.d * k;
    let mut s_star = [u.s[0] * k, u.s[1] * k, u.s[2] * k];
    s_star[n] = m_star;
    let u_star = Cons {
        d: d_star,
        s: s_star,
        tau: e_star - d_star,
    };

    // F* = F + λ (U* − U).
    *f + (u_star - *u) * lam
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flux::physical_flux;
    use crate::riemann::{hll_flux, RiemannSolver};

    fn eos() -> Eos {
        Eos::ideal(5.0 / 3.0)
    }

    #[test]
    fn moving_contact_is_exact() {
        // Isolated contact moving at v: HLLC must return the exact upwind
        // flux of the contact (HLL cannot).
        let eos = eos();
        for &v in &[0.2, -0.35, 0.8] {
            let l = Prim::new_1d(1.0, v, 1.5);
            let r = Prim::new_1d(0.05, v, 1.5);
            let f = hllc_flux(&eos, &l, &r, Dir::X);
            let upwind = if v > 0.0 { &l } else { &r };
            let expected = physical_flux(&eos, upwind, Dir::X);
            assert!(
                (f - expected).max_norm() < 1e-11,
                "v={v}: {:?} vs {:?}",
                f.to_array(),
                expected.to_array()
            );
        }
    }

    #[test]
    fn contact_with_tangential_jump() {
        // Tangential velocity jumps ride on the contact; HLLC keeps them
        // sharp when p and v_n match (note: for *nonzero* v_n with
        // tangential jumps the MB05 HLLC is exact only when the tangential
        // momentum scales with D, which holds per-side here).
        let eos = eos();
        let l = Prim {
            rho: 1.0,
            vel: [0.0, 0.3, 0.0],
            p: 1.0,
        };
        let r = Prim {
            rho: 1.0,
            vel: [0.0, -0.7, 0.0],
            p: 1.0,
        };
        let f = hllc_flux(&eos, &l, &r, Dir::X);
        // Stationary contact: no mass or energy flux through the interface.
        assert!(f.d.abs() < 1e-12, "D flux {}", f.d);
        assert!(f.tau.abs() < 1e-12, "tau flux {}", f.tau);
        assert!((f.s[0] - 1.0).abs() < 1e-12, "normal momentum flux");
    }

    #[test]
    fn pressure_star_positive_for_strong_shocks() {
        let eos = eos();
        let l = Prim::new_1d(10.0, 0.0, 1000.0);
        let r = Prim::new_1d(1.0, 0.0, 1e-8);
        let f = hllc_flux(&eos, &l, &r, Dir::X);
        assert!(f.is_finite());
        // Mass must flow left-to-right through x=0 once the shock passes.
        assert!(f.d > 0.0);
    }

    #[test]
    fn agrees_with_hll_inside_rarefaction_tolerance() {
        // HLLC and HLL differ only by contact restoration; for a symmetric
        // double-rarefaction (no contact jump) they should be close.
        let eos = eos();
        let l = Prim::new_1d(1.0, -0.3, 1.0);
        let r = Prim::new_1d(1.0, 0.3, 1.0);
        let fc = hllc_flux(&eos, &l, &r, Dir::X);
        let fh = hll_flux(&eos, &l, &r, Dir::X);
        assert!((fc.d - fh.d).abs() < 0.05, "{} vs {}", fc.d, fh.d);
    }

    #[test]
    fn works_in_all_directions() {
        let eos = eos();
        for dir in Dir::ALL {
            let mut vl = [0.0; 3];
            let mut vr = [0.0; 3];
            vl[dir.axis()] = 0.4;
            vr[dir.axis()] = -0.1;
            let l = Prim {
                rho: 1.0,
                vel: vl,
                p: 1.0,
            };
            let r = Prim {
                rho: 0.3,
                vel: vr,
                p: 0.2,
            };
            let f = RiemannSolver::Hllc.flux(&eos, &l, &r, dir);
            assert!(f.is_finite(), "{dir:?}");
            // Mirror of the X test: tangential momentum fluxes vanish when
            // tangential velocities are zero.
            for i in 0..3 {
                if i != dir.axis() {
                    assert!(f.s[i].abs() < 1e-14, "{dir:?} s[{i}]={}", f.s[i]);
                }
            }
        }
    }

    #[test]
    fn nan_speeds_on_both_sides_give_a_nan_flux() {
        // NaN normal velocities make both Davis speeds NaN: no upwind exit
        // is taken, and the contact-speed clamp must not assert.
        let eos = eos();
        let mut l = Prim::new_1d(1.0, 0.2, 1.0);
        let mut r = Prim::new_1d(0.5, -0.1, 0.3);
        l.vel[0] = f64::NAN;
        r.vel[0] = f64::NAN;
        let f = hllc_flux(&eos, &l, &r, Dir::X);
        assert!(
            f.to_array().iter().any(|v| v.is_nan()),
            "{:?}",
            f.to_array()
        );
    }

    #[test]
    fn ultrarelativistic_shock_tube_finite() {
        let eos = eos();
        let l = Prim::new_1d(1.0, 0.0, 1e4);
        let r = Prim::new_1d(1.0, 0.0, 1e-8);
        let f = hllc_flux(&eos, &l, &r, Dir::X);
        assert!(f.is_finite());
    }
}
