//! Standard SRHD test problems.
//!
//! Each [`Problem`] bundles an initial condition, EOS, boundary
//! conditions, a standard output time, and (when available) the exact
//! solution used for error measurements. The 1D Riemann problems use the
//! exact solver from [`rhrsc_srhd::riemann::exact`] as ground truth.

use rhrsc_grid::{bc, Bc, BcSet};
use rhrsc_srhd::riemann::exact::ExactRiemann;
use rhrsc_srhd::{Dir, Eos, Prim};
use std::sync::Arc;

/// Pointwise initial condition.
pub type IcFn = Arc<dyn Fn([f64; 3]) -> Prim + Send + Sync>;
/// Exact solution at `(x, t)`.
pub type ExactFn = Arc<dyn Fn([f64; 3], f64) -> Prim + Send + Sync>;

/// A fully-specified test problem.
#[derive(Clone)]
pub struct Problem {
    /// Short name (used in tables and file names).
    pub name: String,
    /// Equation of state.
    pub eos: Eos,
    /// Standard output time.
    pub t_end: f64,
    /// Boundary conditions.
    pub bcs: BcSet,
    /// Domain bounds (per active dimension).
    pub domain: ([f64; 3], [f64; 3]),
    /// Initial condition.
    pub ic: IcFn,
    /// Exact solution, when known.
    pub exact: Option<ExactFn>,
}

impl Problem {
    /// A generic 1D Riemann problem on `[0, 1]` with the membrane at
    /// `x = 0.5`, with the exact solution attached.
    fn riemann_1d(name: &str, left: Prim, right: Prim, gamma: f64, t_end: f64) -> Problem {
        let sol = ExactRiemann::solve(&left, &right, gamma)
            .unwrap_or_else(|e| panic!("exact solution for {name} failed: {e}"));
        let exact = Arc::new(move |x: [f64; 3], t: f64| sol.eval(x[0], t, 0.5));
        Problem {
            name: name.to_string(),
            eos: Eos::ideal(gamma),
            t_end,
            bcs: bc::uniform(Bc::Outflow),
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            ic: Arc::new(move |x| if x[0] < 0.5 { left } else { right }),
            exact: Some(exact),
        }
    }

    /// Relativistic Sod shock tube (the quickstart problem):
    /// `(ρ, v, p) = (1, 0, 1) | (0.125, 0, 0.1)`, Γ = 5/3, t = 0.4.
    pub fn sod() -> Problem {
        Problem::riemann_1d(
            "sod",
            Prim::new_1d(1.0, 0.0, 1.0),
            Prim::new_1d(0.125, 0.0, 0.1),
            5.0 / 3.0,
            0.4,
        )
    }

    /// Martí–Müller relativistic blast wave problem 1:
    /// `(10, 0, 13.33) | (1, 0, 1e-6)`, Γ = 5/3, t = 0.4. Mildly
    /// relativistic (post-shock W ≈ 1.4), thin dense shell.
    pub fn blast_wave_1() -> Problem {
        Problem::riemann_1d(
            "blast1",
            Prim::new_1d(10.0, 0.0, 13.33),
            Prim::new_1d(1.0, 0.0, 1e-6),
            5.0 / 3.0,
            0.4,
        )
    }

    /// Martí–Müller relativistic blast wave problem 2:
    /// `(1, 0, 1000) | (1, 0, 0.01)`, Γ = 5/3, t = 0.35. Strongly
    /// relativistic blast (shell W ≈ 3.6, compression ratio ≈ 10),
    /// a demanding shock-capturing stress test.
    pub fn blast_wave_2() -> Problem {
        Problem::riemann_1d(
            "blast2",
            Prim::new_1d(1.0, 0.0, 1000.0),
            Prim::new_1d(1.0, 0.0, 0.01),
            5.0 / 3.0,
            0.35,
        )
    }

    /// A Sod tube boosted along +x: both states acquire velocity `vb`.
    /// Used by the ultrarelativistic robustness experiment (F8).
    pub fn boosted_sod(vb: f64) -> Problem {
        let left = Prim::new_1d(1.0, 0.0, 1.0).boosted(vb, Dir::X);
        let right = Prim::new_1d(0.125, 0.0, 0.1).boosted(vb, Dir::X);
        // Shorter t_end: the structure leaves the unit domain quickly at
        // high boost.
        let t_end = 0.4 * (1.0 - vb).max(0.05);
        Problem::riemann_1d(
            &format!("boosted-sod-v{vb:.6}"),
            left,
            right,
            5.0 / 3.0,
            t_end,
        )
    }

    /// Smooth relativistic density-wave advection: uniform velocity and
    /// pressure, sinusoidal density. The exact solution is pure advection
    /// `ρ(x − v t)`; this is the convergence-order workhorse (T1).
    pub fn density_wave(v: f64, amplitude: f64) -> Problem {
        assert!(v.abs() < 1.0 && amplitude.abs() < 1.0);
        let ic = move |x: [f64; 3]| {
            Prim::new_1d(
                1.0 + amplitude * (2.0 * std::f64::consts::PI * x[0]).sin(),
                v,
                1.0,
            )
        };
        let exact = move |x: [f64; 3], t: f64| {
            let mut xs = x;
            xs[0] -= v * t;
            ic(xs)
        };
        Problem {
            name: format!("density-wave-v{v}"),
            eos: Eos::ideal(5.0 / 3.0),
            t_end: 1.0 / v.abs().max(1e-10), // one full period
            bcs: bc::uniform(Bc::Periodic),
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            ic: Arc::new(ic),
            exact: Some(Arc::new(exact)),
        }
    }

    /// 2D relativistic Riemann problem (four-quadrant configuration after
    /// Del Zanna & Bucciantini 2002): interacting shocks and contacts on
    /// the unit square, Γ = 5/3, t = 0.4.
    pub fn riemann_2d() -> Problem {
        let ne = Prim {
            rho: 0.1,
            vel: [0.0, 0.0, 0.0],
            p: 0.01,
        };
        let nw = Prim {
            rho: 0.1,
            vel: [0.99, 0.0, 0.0],
            p: 1.0,
        };
        let sw = Prim {
            rho: 0.5,
            vel: [0.0, 0.0, 0.0],
            p: 1.0,
        };
        let se = Prim {
            rho: 0.1,
            vel: [0.0, 0.99, 0.0],
            p: 1.0,
        };
        Problem {
            name: "riemann2d".to_string(),
            eos: Eos::ideal(5.0 / 3.0),
            t_end: 0.4,
            bcs: bc::uniform(Bc::Outflow),
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            ic: Arc::new(move |x| match (x[0] < 0.5, x[1] < 0.5) {
                (false, false) => ne,
                (true, false) => nw,
                (true, true) => sw,
                (false, true) => se,
            }),
            exact: None,
        }
    }

    /// Spherically-symmetric relativistic blast: an over-pressured sphere
    /// (`p = p_in` for `r < r0`) in a uniform ambient medium, reduced to a
    /// 1D radial problem (use with [`crate::scheme::Geometry::SphericalRadial`]
    /// on a grid over `r ∈ (0, r_max]` with a reflecting inner boundary).
    pub fn spherical_blast(p_in: f64, r0: f64) -> Problem {
        let ic = move |x: [f64; 3]| {
            if x[0] < r0 {
                Prim::at_rest(1.0, p_in)
            } else {
                Prim::at_rest(1.0, 1.0)
            }
        };
        let mut bcs = bc::uniform(Bc::Outflow);
        bcs[0][0] = Bc::Reflect; // r = 0
        Problem {
            name: "spherical-blast".to_string(),
            eos: Eos::ideal(5.0 / 3.0),
            t_end: 0.25,
            bcs,
            domain: ([0.0; 3], [0.5, 1.0, 1.0]),
            ic: Arc::new(ic),
            exact: None,
        }
    }

    /// Relativistic Kelvin–Helmholtz instability: a shear layer at
    /// `v_x = ±v_shear` with a small sinusoidal `v_y` perturbation, on a
    /// periodic unit square. The single-mode perturbation growth rate is
    /// measured by experiment F3.
    pub fn kelvin_helmholtz(v_shear: f64, perturb: f64) -> Problem {
        let ic = move |x: [f64; 3]| {
            // Smooth (tanh) shear layers at y = 0.25 and y = 0.75 so the
            // problem is periodic in y. The layer thickness is chosen to
            // span a few zones at the resolutions the growth experiment
            // uses (64²–256²); thinner layers are destroyed by numerical
            // diffusion before the instability can grow.
            let a = 0.04; // layer thickness
            let y = x[1];
            let profile = ((y - 0.25) / a).tanh() * (-((y - 0.75) / a).tanh());
            let vx = v_shear * profile;
            // Single-mode perturbation localized at the layers.
            let envelope = (-((y - 0.25) / (2.0 * a)).powi(2)).exp()
                + (-((y - 0.75) / (2.0 * a)).powi(2)).exp();
            let vy = perturb * (2.0 * std::f64::consts::PI * x[0]).sin() * envelope;
            // Smooth density transition matching the shear profile.
            let rho = 1.5 + 0.5 * profile;
            Prim {
                rho,
                vel: [vx, vy, 0.0],
                p: 2.5,
            }
        };
        Problem {
            name: "khi".to_string(),
            eos: Eos::ideal(4.0 / 3.0),
            t_end: 3.0,
            bcs: bc::uniform(Bc::Periodic),
            domain: ([0.0; 3], [1.0, 1.0, 1.0]),
            ic: Arc::new(ic),
            exact: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sod_ic_is_the_membrane_jump() {
        let p = Problem::sod();
        let l = (p.ic)([0.25, 0.0, 0.0]);
        let r = (p.ic)([0.75, 0.0, 0.0]);
        assert_eq!(l.rho, 1.0);
        assert_eq!(r.rho, 0.125);
        assert_eq!(p.t_end, 0.4);
    }

    #[test]
    fn exact_solutions_match_ic_at_t0() {
        for prob in [
            Problem::sod(),
            Problem::blast_wave_1(),
            Problem::blast_wave_2(),
        ] {
            let exact = prob.exact.as_ref().unwrap();
            for &x in &[0.1, 0.3, 0.7, 0.9] {
                let ic = (prob.ic)([x, 0.0, 0.0]);
                let ex = exact([x, 0.0, 0.0], 0.0);
                assert!((ic.rho - ex.rho).abs() < 1e-12, "{} at x={x}", prob.name);
            }
        }
    }

    #[test]
    fn blast2_develops_thin_relativistic_shell() {
        let p = Problem::blast_wave_2();
        let exact = p.exact.as_ref().unwrap();
        // Sample the shell region at t_end; density compression > 7.
        let mut max_rho: f64 = 0.0;
        for i in 0..1000 {
            let x = i as f64 / 1000.0;
            max_rho = max_rho.max(exact([x, 0.0, 0.0], p.t_end).rho);
        }
        assert!(max_rho > 7.0, "shell compression {max_rho}");
    }

    #[test]
    fn boosted_sod_states_physical() {
        for &vb in &[0.9, 0.99, 0.9999] {
            let p = Problem::boosted_sod(vb);
            assert!((p.ic)([0.1, 0.0, 0.0]).is_physical());
            assert!((p.ic)([0.9, 0.0, 0.0]).is_physical());
        }
    }

    #[test]
    fn density_wave_exact_is_periodic_advection() {
        let p = Problem::density_wave(0.5, 0.3);
        let exact = p.exact.as_ref().unwrap();
        let x = [0.3, 0.0, 0.0];
        // After one period the profile returns.
        let a = exact(x, 0.0);
        let b = exact(x, 2.0);
        assert!((a.rho - b.rho).abs() < 1e-12);
    }

    #[test]
    fn khi_is_periodic_and_physical() {
        let p = Problem::kelvin_helmholtz(0.5, 0.01);
        for &y in &[0.0, 0.25, 0.5, 0.75, 0.9999] {
            for &x in &[0.0, 0.31, 0.99] {
                let w = (p.ic)([x, y, 0.0]);
                assert!(w.is_physical(), "at ({x},{y}): {w:?}");
            }
        }
        // Shear flips across the layer.
        let lo = (p.ic)([0.0, 0.1, 0.0]).vel[0];
        let mid = (p.ic)([0.0, 0.5, 0.0]).vel[0];
        assert!(lo * mid < 0.0, "{lo} vs {mid}");
        // y-periodicity: v_x at y=0 and y=1 agree.
        let top = (p.ic)([0.0, 1.0 - 1e-12, 0.0]).vel[0];
        assert!((lo.signum() - top.signum()).abs() < 1e-12 || (top - lo).abs() < 0.2);
    }

    #[test]
    fn riemann_2d_quadrants() {
        let p = Problem::riemann_2d();
        assert_eq!((p.ic)([0.75, 0.75, 0.0]).rho, 0.1); // NE
        assert_eq!((p.ic)([0.25, 0.25, 0.0]).rho, 0.5); // SW
        assert_eq!((p.ic)([0.25, 0.75, 0.0]).vel[0], 0.99); // NW
        assert_eq!((p.ic)([0.75, 0.25, 0.0]).vel[1], 0.99); // SE
    }
}
