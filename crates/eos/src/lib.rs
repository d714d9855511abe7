//! Equations of state (EOS) for special-relativistic hydrodynamics.
//!
//! An EOS closes the relativistic Euler system by relating pressure to the
//! rest-mass density `rho` and specific internal energy `eps`. All
//! thermodynamic quantities here follow the conventions of Martí & Müller's
//! Living Review on numerical special-relativistic hydrodynamics:
//!
//! * `rho` — rest-mass density (baryon density times baryon mass),
//! * `eps` — specific internal energy (per unit rest mass),
//! * `p` — pressure,
//! * `h = 1 + eps + p/rho` — specific enthalpy,
//! * `theta = p / rho` — temperature-like variable,
//! * `cs` — local sound speed, `cs^2 = (1/h) (dp/drho |_s)`.
//!
//! Two equations of state are provided:
//!
//! * [`Eos::IdealGas`] — the constant-Γ ("gamma-law") ideal gas,
//!   `p = (Γ-1) rho eps`, the standard choice in HRSC code validation and
//!   the EOS for which the exact Riemann solver is available.
//! * [`Eos::TaubMathews`] — the Taub–Mathews approximation to the Synge
//!   relativistic perfect gas (Mignone, Plewa & Bodo 2005), which smoothly
//!   interpolates the effective adiabatic index between 5/3 (cold) and 4/3
//!   (ultrarelativistically hot) and satisfies the Taub inequality.
//!
//! The EOS is a small `Copy` enum rather than a trait object so that the hot
//! per-zone kernels dispatch with a branch instead of an indirect call and
//! stay inlinable.

/// Equation of state for a relativistic perfect fluid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Eos {
    /// Constant-Γ ideal gas: `p = (Γ - 1) rho eps`.
    IdealGas {
        /// Adiabatic index Γ. Physical range is `1 < Γ <= 2`; relativistic
        /// causality requires `Γ <= 2` for this EOS.
        gamma: f64,
    },
    /// Taub–Mathews approximate Synge gas:
    /// `h(Θ) = (5/2) Θ + sqrt((9/4) Θ² + 1)` with `Θ = p/rho`.
    TaubMathews,
}

impl Eos {
    /// Convenience constructor for the ideal-gas EOS.
    ///
    /// # Panics
    /// Panics if `gamma` is not in `(1, 2]`.
    pub fn ideal(gamma: f64) -> Self {
        assert!(
            gamma > 1.0 && gamma <= 2.0,
            "ideal-gas adiabatic index must be in (1, 2], got {gamma}"
        );
        Eos::IdealGas { gamma }
    }

    /// Pressure from rest-mass density and specific internal energy.
    #[inline]
    pub fn pressure(&self, rho: f64, eps: f64) -> f64 {
        match *self {
            Eos::IdealGas { gamma } => (gamma - 1.0) * rho * eps,
            // Invert eps(Θ) = h - 1 - Θ = (3/2)Θ + sqrt((9/4)Θ²+1) - 1,
            // which has the closed form Θ = eps (eps + 2) / (3 (eps + 1)).
            Eos::TaubMathews => rho * eps * (eps + 2.0) / (3.0 * (eps + 1.0)),
        }
    }

    /// Specific internal energy from rest-mass density and pressure.
    #[inline]
    pub fn eps(&self, rho: f64, p: f64) -> f64 {
        match *self {
            Eos::IdealGas { gamma } => p / ((gamma - 1.0) * rho),
            Eos::TaubMathews => {
                let theta = p / rho;
                // eps = h - 1 - Θ = (3/2)Θ + (sqrt((9/4)Θ²+1) - 1); the last
                // term is written cancellation-free for small Θ.
                let x = 2.25 * theta * theta;
                1.5 * theta + x / ((x + 1.0).sqrt() + 1.0)
            }
        }
    }

    /// Specific enthalpy `h = 1 + eps + p/rho`.
    #[inline]
    pub fn enthalpy(&self, rho: f64, p: f64) -> f64 {
        match *self {
            Eos::IdealGas { gamma } => 1.0 + gamma / (gamma - 1.0) * (p / rho),
            Eos::TaubMathews => {
                let theta = p / rho;
                2.5 * theta + (2.25 * theta * theta + 1.0).sqrt()
            }
        }
    }

    /// Squared local sound speed `cs²`.
    ///
    /// For the ideal gas, `cs² = Γ p / (rho h)`. For Taub–Mathews,
    /// `cs² = Θ (5h - 8Θ) / (3 h (h - Θ))` (Mignone & Bodo 2007).
    #[inline]
    pub fn sound_speed_sq(&self, rho: f64, p: f64) -> f64 {
        match *self {
            Eos::IdealGas { gamma } => {
                let h = self.enthalpy(rho, p);
                gamma * p / (rho * h)
            }
            Eos::TaubMathews => {
                let theta = p / rho;
                let h = self.enthalpy(rho, p);
                theta * (5.0 * h - 8.0 * theta) / (3.0 * h * (h - theta))
            }
        }
    }

    /// Local sound speed `cs` (clamped to `[0, 1)` against round-off).
    #[inline]
    pub fn sound_speed(&self, rho: f64, p: f64) -> f64 {
        self.sound_speed_sq(rho, p).clamp(0.0, 1.0 - 1e-15).sqrt()
    }

    /// Effective adiabatic index `Γ_eff = 1 + p / (rho eps)`.
    ///
    /// Constant `Γ` for the ideal gas; varies between 4/3 (hot) and 5/3
    /// (cold) for Taub–Mathews.
    #[inline]
    pub fn gamma_eff(&self, rho: f64, p: f64) -> f64 {
        match *self {
            Eos::IdealGas { gamma } => gamma,
            Eos::TaubMathews => {
                let eps = self.eps(rho, p);
                1.0 + p / (rho * eps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAMMAS: [f64; 3] = [4.0 / 3.0, 1.4, 5.0 / 3.0];

    #[test]
    fn ideal_pressure_eps_roundtrip() {
        for &g in &GAMMAS {
            let eos = Eos::ideal(g);
            for &(rho, p) in &[(1.0, 1.0), (0.125, 0.1), (10.0, 1e-4), (1e-6, 1e3)] {
                let eps = eos.eps(rho, p);
                let p2 = eos.pressure(rho, eps);
                assert!((p2 - p).abs() <= 1e-12 * p, "g={g} rho={rho} p={p} -> {p2}");
            }
        }
    }

    #[test]
    fn tm_pressure_eps_roundtrip() {
        let eos = Eos::TaubMathews;
        for &(rho, p) in &[(1.0, 1.0), (0.125, 0.1), (10.0, 1e-6), (1e-4, 1e2)] {
            let eps = eos.eps(rho, p);
            let p2 = eos.pressure(rho, eps);
            assert!(
                (p2 - p).abs() <= 1e-11 * p.max(1e-300),
                "rho={rho} p={p} -> {p2}"
            );
        }
    }

    #[test]
    fn enthalpy_definition_consistent() {
        for eos in [Eos::ideal(1.4), Eos::TaubMathews] {
            for &(rho, p) in &[(1.0, 1.0), (0.5, 2.0), (3.0, 1e-3)] {
                let h = eos.enthalpy(rho, p);
                let h_def = 1.0 + eos.eps(rho, p) + p / rho;
                assert!((h - h_def).abs() <= 1e-12 * h, "{eos:?} rho={rho} p={p}");
            }
        }
    }

    #[test]
    fn sound_speed_subluminal_and_positive() {
        for eos in [
            Eos::ideal(4.0 / 3.0),
            Eos::ideal(5.0 / 3.0),
            Eos::TaubMathews,
        ] {
            // Sweep 12 decades of Θ.
            for k in -6..6 {
                let p = 10f64.powi(k);
                let cs2 = eos.sound_speed_sq(1.0, p);
                assert!(cs2 > 0.0 && cs2 < 1.0, "{eos:?} p={p} cs2={cs2}");
            }
        }
    }

    #[test]
    fn tm_limits_match_gamma_43_and_53() {
        let tm = Eos::TaubMathews;
        // Cold limit -> Γ_eff = 5/3; hot limit -> Γ_eff = 4/3.
        let cold = tm.gamma_eff(1.0, 1e-10);
        let hot = tm.gamma_eff(1.0, 1e10);
        assert!((cold - 5.0 / 3.0).abs() < 1e-6, "cold {cold}");
        assert!((hot - 4.0 / 3.0).abs() < 1e-6, "hot {hot}");
    }

    #[test]
    fn tm_sound_speed_limits() {
        let tm = Eos::TaubMathews;
        // Ultrarelativistic limit: cs² -> 1/3.
        let hot = tm.sound_speed_sq(1.0, 1e12);
        assert!((hot - 1.0 / 3.0).abs() < 1e-5, "hot cs2 {hot}");
        // Cold limit: cs² -> Γ Θ = (5/3)Θ -> matches ideal gas.
        let theta = 1e-8;
        let cold = tm.sound_speed_sq(1.0, theta);
        assert!(
            (cold / (5.0 / 3.0 * theta) - 1.0).abs() < 1e-3,
            "cold cs2 {cold}"
        );
    }

    #[test]
    #[should_panic]
    fn ideal_rejects_bad_gamma() {
        let _ = Eos::ideal(1.0);
    }
}
