//! Typed scenario specifications and their canonical content hash.
//!
//! A [`ScenarioSpec`] is the unit of work the ensemble service accepts:
//! a named test problem with physical parameters, the numerical scheme
//! knobs that affect the answer, the resolution, and the budgets that
//! bound the run. Two specs that would produce bit-identical results
//! hash to the same [`canonical_hash`](ScenarioSpec::canonical_hash) —
//! that hash is the key of the content-addressed result cache, so a
//! duplicated sweep point is served for free.
//!
//! Hashing is FNV-1a over a canonical byte encoding: enum discriminants
//! as tagged strings and every `f64` parameter via `to_bits` (so `-0.0`
//! vs `0.0` or NaN payload differences are *distinct*, exactly like the
//! solver would see them). Nothing run-dependent (tenant, priority,
//! deadline, fault plan) enters the hash.

use rhrsc_runtime::hash::Fnv1a;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::{RkOrder, Scheme};
use rhrsc_srhd::recon::Recon;
use rhrsc_srhd::riemann::RiemannSolver;

/// The test problem a scenario runs, with its physical parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProblemKind {
    /// Relativistic Sod shock tube.
    Sod,
    /// Martí–Müller blast wave 1 (mildly relativistic).
    BlastWave1,
    /// Martí–Müller blast wave 2 (strongly relativistic).
    BlastWave2,
    /// Smooth density-wave advection (the sweep workhorse: two
    /// continuous parameters).
    DensityWave {
        /// Advection velocity, `|v| < 1`.
        v: f64,
        /// Density perturbation amplitude, `|a| < 1`.
        amplitude: f64,
    },
    /// Sod tube boosted along +x.
    BoostedSod {
        /// Boost velocity, `|vb| < 1`.
        vb: f64,
    },
}

impl ProblemKind {
    /// Stable short name (hash component and metrics label).
    pub fn name(&self) -> &'static str {
        match self {
            ProblemKind::Sod => "sod",
            ProblemKind::BlastWave1 => "blast1",
            ProblemKind::BlastWave2 => "blast2",
            ProblemKind::DensityWave { .. } => "density-wave",
            ProblemKind::BoostedSod { .. } => "boosted-sod",
        }
    }

    /// Instantiate the full problem definition (IC, EOS, BCs, exact
    /// solution when known).
    pub fn build(&self) -> Problem {
        match *self {
            ProblemKind::Sod => Problem::sod(),
            ProblemKind::BlastWave1 => Problem::blast_wave_1(),
            ProblemKind::BlastWave2 => Problem::blast_wave_2(),
            ProblemKind::DensityWave { v, amplitude } => Problem::density_wave(v, amplitude),
            ProblemKind::BoostedSod { vb } => Problem::boosted_sod(vb),
        }
    }

    fn write_canonical(&self, h: &mut Fnv1a) {
        h.write_str(self.name());
        match *self {
            ProblemKind::DensityWave { v, amplitude } => {
                h.write_f64(v);
                h.write_f64(amplitude);
            }
            ProblemKind::BoostedSod { vb } => h.write_f64(vb),
            _ => {}
        }
    }
}

/// A fully-specified scenario: problem + scheme + resolution + budgets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Problem and physical parameters.
    pub problem: ProblemKind,
    /// Interior cells along x.
    pub nx: usize,
    /// Spatial reconstruction.
    pub recon: Recon,
    /// Interface Riemann solver.
    pub riemann: RiemannSolver,
    /// Runge–Kutta order.
    pub rk: RkOrder,
    /// CFL number.
    pub cfl: f64,
    /// Integration end time; `None` runs to the problem's standard
    /// `t_end`.
    pub t_end: Option<f64>,
    /// Step budget: the run stops (successfully) after this many steps
    /// even short of `t_end`. Bounds the cost of any single job.
    pub max_steps: u64,
}

impl ScenarioSpec {
    /// A spec with production-default numerics (PPM + HLLC + SSP-RK3,
    /// CFL 0.4) at resolution `nx`.
    pub fn new(problem: ProblemKind, nx: usize) -> Self {
        ScenarioSpec {
            problem,
            nx,
            recon: Recon::Ppm,
            riemann: RiemannSolver::Hllc,
            rk: RkOrder::Rk3,
            cfl: 0.4,
            t_end: None,
            max_steps: 100_000,
        }
    }

    /// The numerical scheme this spec selects (EOS taken from the
    /// problem definition).
    pub fn scheme(&self) -> Scheme {
        let prob = self.problem.build();
        let mut scheme = Scheme::default_with_gamma(5.0 / 3.0);
        scheme.eos = prob.eos;
        scheme.recon = self.recon;
        scheme.riemann = self.riemann;
        scheme
    }

    /// Hash of the *setup* this spec needs — problem + resolution +
    /// ghost width. Two specs with equal setup hashes share a grid
    /// geometry and initial state, so a batch submit computes the IC
    /// once per distinct setup and warm-starts the rest (bit-identical:
    /// the shared state is exactly what each job would have built).
    pub fn setup_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_str("rhrsc-setup-v1");
        self.problem.write_canonical(&mut h);
        h.write_u64(self.nx as u64);
        h.write_u64(self.recon.ghost() as u64);
        h.finish()
    }

    /// Content address of this spec: equal results ⇔ equal hash. Stable
    /// within a build; not a cross-version wire format.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_str("rhrsc-scenario-v1");
        self.problem.write_canonical(&mut h);
        h.write_u64(self.nx as u64);
        // Debug names of the scheme enums are stable identifiers
        // (`Ppm`, `Hllc`, ...) — cheaper than hand-written tags and
        // covered by the spec tests.
        h.write_str(&format!("{:?}", self.recon));
        h.write_str(&format!("{:?}", self.riemann));
        h.write_str(&format!("{:?}", self.rk));
        h.write_f64(self.cfl);
        match self.t_end {
            Some(t) => {
                h.write_str("t_end");
                h.write_f64(t);
            }
            None => h.write_str("t_default"),
        }
        h.write_u64(self.max_steps);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_specs_hash_equal() {
        let a = ScenarioSpec::new(ProblemKind::Sod, 64);
        let b = ScenarioSpec::new(ProblemKind::Sod, 64);
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn every_knob_perturbs_the_hash() {
        let base = ScenarioSpec::new(
            ProblemKind::DensityWave {
                v: 0.3,
                amplitude: 0.5,
            },
            64,
        );
        let h0 = base.canonical_hash();
        let variants = [
            ScenarioSpec {
                problem: ProblemKind::DensityWave {
                    v: 0.31,
                    amplitude: 0.5,
                },
                ..base
            },
            ScenarioSpec {
                problem: ProblemKind::DensityWave {
                    v: 0.3,
                    amplitude: 0.51,
                },
                ..base
            },
            ScenarioSpec { nx: 65, ..base },
            ScenarioSpec {
                recon: Recon::Weno5,
                ..base
            },
            ScenarioSpec {
                riemann: RiemannSolver::Hll,
                ..base
            },
            ScenarioSpec {
                rk: RkOrder::Rk2,
                ..base
            },
            ScenarioSpec { cfl: 0.5, ..base },
            ScenarioSpec {
                t_end: Some(0.1),
                ..base
            },
            ScenarioSpec {
                max_steps: 17,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.canonical_hash(), h0, "{v:?} collided with base");
        }
    }

    #[test]
    fn negative_zero_is_distinct() {
        let a = ScenarioSpec::new(
            ProblemKind::DensityWave {
                v: 0.0,
                amplitude: 0.1,
            },
            32,
        );
        let b = ScenarioSpec::new(
            ProblemKind::DensityWave {
                v: -0.0,
                amplitude: 0.1,
            },
            32,
        );
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn problem_kinds_build() {
        for k in [
            ProblemKind::Sod,
            ProblemKind::BlastWave1,
            ProblemKind::BlastWave2,
            ProblemKind::DensityWave {
                v: 0.2,
                amplitude: 0.3,
            },
            ProblemKind::BoostedSod { vb: 0.5 },
        ] {
            let p = k.build();
            assert!(p.t_end > 0.0, "{} has no t_end", p.name);
        }
    }

    /// The cache keys of two specs, pinned to the values this encoding has
    /// always produced: inequality alone would let a changed hash or byte
    /// stream through, and with it every stored key would silently miss.
    #[test]
    fn hashes_are_pinned() {
        let sod = ScenarioSpec::new(ProblemKind::Sod, 64);
        let wave = ScenarioSpec {
            t_end: Some(0.25),
            max_steps: 500,
            ..ScenarioSpec::new(
                ProblemKind::DensityWave {
                    v: 0.3,
                    amplitude: 0.5,
                },
                128,
            )
        };
        let keys = [sod, wave].map(|s| (s.canonical_hash(), s.setup_hash()));
        assert_eq!(
            keys,
            [
                (0x73da_9840_1ad2_7e55, 0xb00f_9c99_8ff9_b3af),
                (0xd23e_f3a8_9b73_0b3c, 0xc96d_7573_ce1b_1603),
            ]
        );
    }
}
