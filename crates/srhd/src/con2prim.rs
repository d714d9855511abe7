//! Conservative → primitive variable recovery.
//!
//! Unlike Newtonian hydrodynamics, the SRHD primitives are an implicit
//! function of the conserved state: recovering `(ρ, v_i, p)` from
//! `(D, S_i, τ)` requires a nonlinear root solve. This module implements the
//! standard pressure-based scheme (Martí & Müller):
//!
//! Given a trial pressure `p`, the conserved definitions invert in closed
//! form:
//!
//! ```text
//! E  = τ + D + p          (= ρ h W²)
//! v_i = S_i / E,   W = (1 − v²)^{-1/2}
//! ρ  = D / W
//! ε  = (τ + D(1 − W) + p(1 − W²)) / (D W)
//! ```
//!
//! and the root of `f(p) = p_eos(ρ(p), ε(p)) − p` is the physical pressure.
//! `f` is solved by Newton iteration with the analytic slope approximation
//! `f'(p) ≈ v² cs² − 1` (exact in the ultrarelativistic limit, excellent
//! everywhere), guarded by a bracketing bisection fallback so the recovery
//! is *unconditionally* convergent for physical inputs — a property the
//! ultrarelativistic robustness experiment (F8) stresses to Lorentz factors
//! of order 100.

use crate::state::{Cons, Prim, NCOMP};
use rhrsc_eos::Eos;

/// Tunable parameters of the recovery.
#[derive(Debug, Clone, Copy)]
pub struct Con2PrimParams {
    /// Relative tolerance on the pressure root.
    pub tol: f64,
    /// Maximum Newton iterations before falling back to bisection.
    pub max_newton: usize,
    /// Maximum bisection iterations.
    pub max_bisect: usize,
    /// Density floor: states with `D` below `rho_floor` are reset to a
    /// static atmosphere.
    pub rho_floor: f64,
    /// Pressure floor applied to the recovered state.
    pub p_floor: f64,
    /// Lorentz-factor ceiling enforced by the conserved-variable limiter:
    /// momentum in inadmissible states is rescaled so the recovered flow
    /// cannot exceed this W. Keeps floor-repaired vacuum cells from
    /// acquiring |v| → 1 and destabilizing their neighborhood.
    pub w_cap: f64,
}

impl Default for Con2PrimParams {
    fn default() -> Self {
        Con2PrimParams {
            tol: 1e-12,
            max_newton: 50,
            max_bisect: 200,
            rho_floor: 1e-12,
            p_floor: 1e-14,
            w_cap: 1e3,
        }
    }
}

impl Con2PrimParams {
    /// Relaxed variant for the recovery cascade: a much looser root
    /// tolerance and widened iteration budgets. A state that converges
    /// under these parameters is still a genuine root of the pressure
    /// equation, just resolved less sharply — preferable to discarding
    /// the cell outright.
    pub fn relaxed(&self) -> Con2PrimParams {
        Con2PrimParams {
            // Never tighter than `tol`, and at most 1e-4 unless `tol` is.
            tol: self.tol.max((self.tol * 1e6).min(1e-4)),
            max_newton: self.max_newton * 4 + 20,
            max_bisect: self.max_bisect * 4 + 100,
            ..*self
        }
    }
}

/// Failure modes of the recovery. Carried up to the solver so failures can
/// be counted (robustness experiment) or turned into atmosphere resets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Con2PrimError {
    /// A conserved component is NaN/Inf.
    NonFinite,
    /// `S² ≥ (τ + D + p)²` for every admissible pressure: superluminal data.
    Superluminal,
    /// The root solve did not converge within the iteration budgets.
    NoConvergence {
        /// Residual |f(p)|/p at the last iterate.
        residual: f64,
    },
    /// The recovered state violated positivity beyond repair.
    Unphysical,
}

impl std::fmt::Display for Con2PrimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Con2PrimError::NonFinite => write!(f, "non-finite conserved state"),
            Con2PrimError::Superluminal => write!(f, "superluminal conserved state"),
            Con2PrimError::NoConvergence { residual } => {
                write!(f, "pressure root solve stalled (residual {residual:.3e})")
            }
            Con2PrimError::Unphysical => write!(f, "recovered state unphysical"),
        }
    }
}

impl std::error::Error for Con2PrimError {}

/// Invert the trial pressure: returns `(f(p), prim, w)` where `f` is the EOS
/// pressure residual.
#[inline]
fn residual(eos: &Eos, u: &Cons, p: f64) -> (f64, Prim, f64) {
    let e = u.tau + u.d + p;
    let ssq = u.ssq();
    let vsq = (ssq / (e * e)).min(1.0 - 1e-16);
    let w = 1.0 / (1.0 - vsq).sqrt();
    let rho = u.d / w;
    let eps = (u.tau + u.d * (1.0 - w) + p * (1.0 - w * w)) / (u.d * w);
    let p_eos = eos.pressure(rho, eps.max(0.0));
    let inv_e = 1.0 / e;
    let prim = Prim {
        rho,
        vel: [u.s[0] * inv_e, u.s[1] * inv_e, u.s[2] * inv_e],
        p,
    };
    (p_eos - p, prim, w)
}

/// Lower bound on admissible pressure: `E = τ + D + p` must exceed `|S|`
/// for the velocity to be subluminal.
#[inline]
fn p_min_bound(u: &Cons) -> f64 {
    let s = u.ssq().sqrt();
    // Strict inequality with a small safety margin relative to the scale.
    let slack = 1e-13 * (s + u.d + u.tau.abs()).max(1e-300);
    (s - u.tau - u.d + slack).max(0.0)
}

/// Where the Newton iteration starts: the admissibility bound `p_lo` and
/// the first trial pressure (the guess, or the bound for a cold start,
/// lifted to the floor).
#[inline]
fn newton_start(u: &Cons, p_guess: Option<f64>, params: &Con2PrimParams) -> (f64, f64) {
    let p_lo = p_min_bound(u);
    // A guess below the admissibility bound would start with v >= 1.
    let mut p = p_guess.unwrap_or(0.0).max(p_lo).max(params.p_floor);
    if p == 0.0 {
        p = params.p_floor;
    }
    (p_lo, p)
}

/// One Newton evaluation at trial pressure `p` — the only spelling of it:
/// the inverted state, the relative residual `|f(p)| / max(p, p_floor)`
/// and the proposed next pressure `p − f / (v² c_s² − 1)`. The proposal
/// comes back unevaluated, so that the scalar loop of
/// [`cons_to_prim_counted`] pays for the slope only on the steps it
/// takes; the lock-step loop of [`cons_to_prim_block`] evaluates it at
/// once. Pure arithmetic (no branch once the EOS variant is known): both
/// compute the same bits from the same inputs.
#[inline(always)]
fn newton_eval<'a>(
    eos: &'a Eos,
    params: &'a Con2PrimParams,
    u: &Cons,
    p: f64,
) -> (Prim, f64, impl FnOnce() -> f64 + 'a) {
    let (f, prim, _w) = residual(eos, u, p);
    let scale = p.max(params.p_floor);
    let p_next = move || {
        let cs2 = eos.sound_speed_sq(prim.rho.max(params.rho_floor), scale);
        let df = prim.vsq() * cs2 - 1.0; // strictly negative
        p - f / df
    };
    (prim, (f / scale).abs(), p_next)
}

/// Recover primitives from a conserved state.
///
/// `p_guess` seeds the Newton iteration; `None` is the cold start from
/// the admissibility bound, a function of `u` alone. The solvers always
/// pass `None`: a warm start lands on slightly different iterates, and
/// every bit-identity guarantee between execution paths — and ghost
/// zones that carry primitives instead of being recovered — rests on
/// `con2prim(copy of U) ≡ copy of con2prim(U)` (see `recover_row` in
/// `rhrsc-solver`). On success returns the primitive state with
/// `prim.p ≥ params.p_floor` and `prim.rho ≥ params.rho_floor`.
pub fn cons_to_prim(
    eos: &Eos,
    u: &Cons,
    p_guess: Option<f64>,
    params: &Con2PrimParams,
) -> Result<Prim, Con2PrimError> {
    cons_to_prim_counted(eos, u, p_guess, params).map(|(prim, _)| prim)
}

/// [`cons_to_prim`] that also reports the work done: the number of
/// pressure-residual evaluations (Newton iterations plus bisection
/// probes; 0 for the atmosphere short-circuit). The observability layer
/// histograms this per region to expose recovery-cost hot spots.
pub fn cons_to_prim_counted(
    eos: &Eos,
    u: &Cons,
    p_guess: Option<f64>,
    params: &Con2PrimParams,
) -> Result<(Prim, u32), Con2PrimError> {
    let mut iters: u32 = 0;
    if !u.is_finite() {
        return Err(Con2PrimError::NonFinite);
    }
    // Atmosphere short-circuit: vacuum-adjacent zones become static fluid.
    if u.d <= params.rho_floor {
        return Ok((Prim::at_rest(params.rho_floor, params.p_floor), 0));
    }

    let (p_lo, mut p) = newton_start(u, p_guess, params);

    // --- Newton phase -----------------------------------------------------
    let mut last_res = f64::INFINITY;
    for _ in 0..params.max_newton {
        iters += 1;
        let (prim, res, step) = newton_eval(eos, params, u, p);
        last_res = res;
        if last_res < params.tol {
            return finish(prim, params).map(|prim| (prim, iters));
        }
        let mut p_next = step();
        if !p_next.is_finite() || p_next <= p_lo {
            // Newton left the admissible region; damp toward the bound.
            p_next = 0.5 * (p + p_lo.max(params.p_floor));
        }
        if (p_next - p).abs() <= params.tol * p.max(params.p_floor) {
            iters += 1;
            let (f2, prim2, _) = residual(eos, u, p_next);
            if (f2 / p_next.max(params.p_floor)).abs() < params.tol.sqrt() {
                return finish(prim2, params).map(|prim| (prim, iters));
            }
        }
        p = p_next;
    }

    // --- Bisection fallback ------------------------------------------------
    // f(p) > 0 for p below the root and f(p) < 0 above it (f' < 0), so
    // expand an upper bracket until the sign flips.
    let mut lo = p_lo.max(params.p_floor * 1e-3);
    iters += 1;
    let (f_lo, _, _) = residual(eos, u, lo);
    if f_lo < 0.0 {
        // Root below the admissible region: pressure floor is the answer
        // (extremely cold flow).
        iters += 1;
        let (_, prim, _) = residual(eos, u, lo);
        return finish(prim, params).map(|prim| (prim, iters));
    }
    let mut hi = (p.max(lo) * 2.0).max(params.p_floor);
    let mut expanded = 0;
    loop {
        iters += 1;
        let (f_hi, _, _) = residual(eos, u, hi);
        if f_hi <= 0.0 {
            break;
        }
        hi *= 8.0;
        expanded += 1;
        if expanded > 200 || !hi.is_finite() {
            return Err(Con2PrimError::NoConvergence { residual: last_res });
        }
    }
    for _ in 0..params.max_bisect {
        let mid = 0.5 * (lo + hi);
        iters += 1;
        let (f_mid, prim, _) = residual(eos, u, mid);
        if (f_mid / mid.max(params.p_floor)).abs() < params.tol
            || (hi - lo) < params.tol * mid.max(params.p_floor)
        {
            return finish(prim, params).map(|prim| (prim, iters));
        }
        if f_mid > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Err(Con2PrimError::NoConvergence { residual: last_res })
}

/// Widest block of states [`cons_to_prim_block`] iterates in lock-step.
pub const C2P_LANES: usize = 32;
/// Newton rounds of the lock-step main line; a lane that has not
/// converged by then is a straggler.
const LANE_ROUNDS: usize = 8;
/// Lanes per step of the arithmetic loop: occupied lanes are rounded up
/// to this so the vector body never leaves a scalar remainder.
const LANE_VEC: usize = 4;

/// One block of [`cons_to_prim_block`]: the primitive rows
/// `(ρ, vx, vy, vz, p)` of its lanes and each lane's evaluation count,
/// 0 for a lane left to the scalar solver (whose rows hold nothing).
#[derive(Default)]
pub struct PrimLanes {
    /// Per component, per lane.
    pub prim: [[f64; C2P_LANES]; NCOMP],
    /// Residual evaluations per lane; 0: not retired.
    pub evals: [u32; C2P_LANES],
}

/// The Newton main line of [`cons_to_prim_counted`] (cold start) over a
/// block of at most [`C2P_LANES`] states, read from its five conserved
/// component rows `(D, Sx, Sy, Sz, τ)`. Lane `l` retires with `evals[l]
/// > 0` and primitives that are, bit for bit, the scalar solver's answer
/// and work count, when state `l` converges under the strict residual
/// test within [`LANE_ROUNDS`] plain Newton steps; `evals[l]` is 0
/// whenever the scalar algorithm would do anything else (non-finite
/// input, the atmosphere short-circuit, a step leaving the admissible
/// region, the tiny-step confirm exit, a velocity `finish` repairs or
/// rejects, budget spent). A 0 is not a failure: the caller runs
/// [`cons_to_prim_counted`] on that state.
///
/// # Panics
/// Panics when the rows differ in length or exceed [`C2P_LANES`].
///
/// Always inlined: the solver builds its row recovery once per x86
/// vector level around this call.
#[inline(always)]
pub fn cons_to_prim_block(eos: &Eos, params: &Con2PrimParams, rows: [&[f64]; NCOMP]) -> PrimLanes {
    // Matched once per block: each arm inlines a kernel whose EOS variant
    // is a constant, so its arithmetic loop has no `match`.
    match *eos {
        Eos::IdealGas { gamma } => lane_block(Eos::IdealGas { gamma }, params, rows),
        Eos::TaubMathews => lane_block(Eos::TaubMathews, params, rows),
    }
}

/// [`cons_to_prim_block`] for one EOS variant. Lane state is a `live`
/// mask and per-lane arrays; every pass over them is branch-free.
#[inline(always)]
fn lane_block(eos: Eos, params: &Con2PrimParams, rows: [&[f64]; NCOMP]) -> PrimLanes {
    const L: usize = C2P_LANES;
    let len = rows[0].len();
    assert!(len <= L && rows.iter().all(|r| r.len() == len));
    let [r0, r1, r2, r3, r4] = rows;
    let rows = [&r0[..len], &r1[..len], &r2[..len], &r3[..len], &r4[..len]];
    // Lanes without a state to iterate (padding, non-finite, atmosphere)
    // hold D = τ = p = 1, S = 0: finite arithmetic nobody reads.
    const IDLE: [f64; NCOMP] = [1.0, 0.0, 0.0, 0.0, 1.0];
    // `rows`, `u` and the per-lane loads are spelled out, not written with
    // `[T; N]::map`: whether the inliner kept those generic calls in the
    // row kernel hung on how the solver crate happened to be split into
    // codegen units, and calls left out of line slowed whole solves by up
    // to 27 %.
    let mut u = [[0.0; L]; NCOMP];
    for (row, c) in u.iter_mut().zip(IDLE) {
        *row = [c; L];
    }
    let (mut p_lo, mut live) = ([0.0; L], [false; L]);
    // The trial pressures: a round reads one buffer and writes the other
    // in full, so the next round's vector loads forward from whole vector
    // stores (a blend back into the array it read becomes a masked store,
    // which the next round's loads wait out: no two rounds overlap).
    let mut ps = [[1.0; L]; 2];
    for l in 0..len {
        let c = Cons::from_array([rows[0][l], rows[1][l], rows[2][l], rows[3][l], rows[4][l]]);
        let (lo, p0) = newton_start(&c, None, params);
        let go = c
            .to_array()
            .iter()
            .fold(c.d > params.rho_floor, |a, x| a & x.is_finite());
        live[l] = go;
        (p_lo[l], ps[0][l]) = if go { (lo, p0) } else { (0.0, 1.0) };
        for (row, v) in u.iter_mut().zip(if go { c.to_array() } else { IDLE }) {
            row[l] = v;
        }
    }
    let mut out = PrimLanes::default();
    let nv = len.next_multiple_of(LANE_VEC).min(L);
    let (mut any, mut round) = (live.contains(&true), 0);
    while any && round < LANE_ROUNDS.min(params.max_newton) as u32 {
        round += 1;
        let [a, b] = &mut ps;
        let (p, q) = if round % 2 == 1 { (&*a, b) } else { (&*b, a) };
        any = lane_round(
            &eos, params, nv, round, &u, &p_lo, p, q, &mut out, &mut live,
        );
    }
    // (3) `finish`'s common case: the floors, then a lane whose state is
    // not physical (v² ≥ 1 included, which the floors leave alone) goes
    // to the scalar solver, which repairs or rejects it.
    let p = &ps[round as usize % 2];
    let [rho, vx, vy, vz, p_row] = &mut out.prim;
    for l in 0..nv {
        (rho[l], p_row[l]) = (rho[l].max(params.rho_floor), p[l].max(params.p_floor));
        let w = Prim::from_array([rho[l], vx[l], vy[l], vz[l], p_row[l]]);
        out.evals[l] = if w.is_physical() { out.evals[l] } else { 0 };
    }
    out
}

/// Round `round` of [`lane_block`] over lanes `..nv`, from the trial
/// pressures `p` to `p_out` (separate arguments, so the compiler knows
/// they do not overlap); returns whether a lane is still live. A lane
/// that converges keeps its pressure from then on, so every later round
/// recomputes its `(ρ, v)` at that pressure, bit for bit: the last round
/// leaves each retired lane's state in `out.prim`, and the round it
/// converged in in `out.evals`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lane_round(
    eos: &Eos,
    params: &Con2PrimParams,
    nv: usize,
    round: u32,
    u: &[[f64; C2P_LANES]; NCOMP],
    p_lo: &[f64; C2P_LANES],
    p: &[f64; C2P_LANES],
    p_out: &mut [f64; C2P_LANES],
    out: &mut PrimLanes,
    live: &mut [bool; C2P_LANES],
) -> bool {
    let [rho, vx, vy, vz, _] = &mut out.prim;
    let (mut res, mut p_next) = ([0.0; C2P_LANES], [0.0; C2P_LANES]);
    // (1) Arithmetic only — no `if`, no `match`, no lane state — so the
    // divide/sqrt chain vectorises. Retired lanes keep computing at their
    // last pressure.
    for l in 0..nv {
        let c = Cons::from_array([u[0][l], u[1][l], u[2][l], u[3][l], u[4][l]]);
        let (w, r, step) = newton_eval(eos, params, &c, p[l]);
        (rho[l], vx[l], vy[l], vz[l]) = (w.rho, w.vel[0], w.vel[1], w.vel[2]);
        (res[l], p_next[l]) = (r, step());
    }
    // (2) The scalar loop's stop rules by mask: a converged lane records
    // its round; a lane goes on only where the scalar loop would take the
    // plain Newton step as it stands.
    let mut any = false;
    for l in 0..nv {
        let conv = live[l] & (res[l] < params.tol);
        out.evals[l] = if conv { round } else { out.evals[l] };
        let (pn, pl) = (p_next[l], p[l]);
        let go = live[l]
            & !conv
            & pn.is_finite()
            & (pn > p_lo[l])
            & ((pn - pl).abs() > params.tol * pl.max(params.p_floor));
        p_out[l] = if go { pn } else { pl };
        live[l] = go;
        any |= go;
    }
    any
}

/// Apply floors and final physicality checks.
#[inline]
fn finish(mut prim: Prim, params: &Con2PrimParams) -> Result<Prim, Con2PrimError> {
    prim.p = prim.p.max(params.p_floor);
    prim.rho = prim.rho.max(params.rho_floor);
    // Velocity ceiling: when the root lands at the admissibility edge
    // (E barely above |S|), round-off can push |v| marginally to or past
    // 1. Rescale marginal cases (the standard production-code velocity
    // limiter); reject anything genuinely superluminal.
    let v2 = prim.vsq();
    if v2 >= 1.0 {
        if v2 < 1.0 + 1e-9 {
            let scale = ((1.0 - 1e-12) / v2).sqrt();
            for v in &mut prim.vel {
                *v *= scale;
            }
        } else {
            return Err(Con2PrimError::Unphysical);
        }
    }
    if !prim.is_physical() {
        return Err(Con2PrimError::Unphysical);
    }
    Ok(prim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Dir;

    fn roundtrip(eos: &Eos, prim: Prim, tol: f64) -> Result<(), Con2PrimError> {
        let u = prim.to_cons(eos);
        let out = cons_to_prim(eos, &u, Some(prim.p), &Con2PrimParams::default())?;
        let scale = prim.p.max(1e-300);
        assert!(
            (out.p - prim.p).abs() <= tol * scale,
            "p: {} vs {}",
            out.p,
            prim.p
        );
        assert!((out.rho - prim.rho).abs() <= tol * prim.rho, "rho");
        for i in 0..3 {
            assert!(
                (out.vel[i] - prim.vel[i]).abs() <= tol.max(1e-11),
                "v[{i}]: {} vs {}",
                out.vel[i],
                prim.vel[i]
            );
        }
        Ok(())
    }

    #[test]
    fn roundtrip_moderate_states() -> Result<(), Con2PrimError> {
        let eos = Eos::ideal(5.0 / 3.0);
        for prim in [
            Prim::at_rest(1.0, 1.0),
            Prim::new_1d(1.0, 0.9, 0.1),
            Prim {
                rho: 0.125,
                vel: [0.3, -0.4, 0.5],
                p: 0.1,
            },
            Prim {
                rho: 10.0,
                vel: [-0.7, 0.1, 0.0],
                p: 1000.0,
            },
        ] {
            roundtrip(&eos, prim, 1e-9)?;
        }
        Ok(())
    }

    #[test]
    fn roundtrip_without_guess() {
        let eos = Eos::ideal(1.4);
        let prim = Prim {
            rho: 0.5,
            vel: [0.6, 0.2, -0.1],
            p: 2.0,
        };
        let u = prim.to_cons(&eos);
        let out = cons_to_prim(&eos, &u, None, &Con2PrimParams::default()).unwrap();
        assert!((out.p - prim.p).abs() < 1e-9 * prim.p);
    }

    #[test]
    fn roundtrip_ultrarelativistic() -> Result<(), Con2PrimError> {
        // Lorentz factors up to ~700 (v through boosting).
        let eos = Eos::ideal(4.0 / 3.0);
        for &w_target in &[10.0f64, 100.0, 700.0] {
            let v = (1.0 - 1.0 / (w_target * w_target)).sqrt();
            let prim = Prim::new_1d(1.0, v, 1e-2);
            roundtrip(&eos, prim, 1e-6)?;
        }
        Ok(())
    }

    #[test]
    fn roundtrip_extreme_pressure_ratios() -> Result<(), Con2PrimError> {
        let eos = Eos::ideal(5.0 / 3.0);
        roundtrip(&eos, Prim::new_1d(1.0, 0.5, 1e-10), 1e-6)?;
        roundtrip(&eos, Prim::new_1d(1.0, 0.5, 1e8), 1e-8)
    }

    #[test]
    fn roundtrip_taub_mathews() -> Result<(), Con2PrimError> {
        let eos = Eos::TaubMathews;
        for prim in [
            Prim::at_rest(1.0, 1.0),
            Prim::new_1d(1.0, 0.95, 10.0),
            Prim {
                rho: 0.01,
                vel: [0.2, 0.2, 0.2],
                p: 1e-5,
            },
        ] {
            roundtrip(&eos, prim, 1e-8)?;
        }
        Ok(())
    }

    #[test]
    fn atmosphere_reset_below_floor() {
        let eos = Eos::ideal(5.0 / 3.0);
        let params = Con2PrimParams::default();
        let u = Cons {
            d: params.rho_floor * 0.5,
            s: [0.0; 3],
            tau: 0.0,
        };
        let prim = cons_to_prim(&eos, &u, None, &params).unwrap();
        assert_eq!(prim.vel, [0.0; 3]);
        assert_eq!(prim.rho, params.rho_floor);
    }

    #[test]
    fn rejects_nonfinite() {
        let eos = Eos::ideal(5.0 / 3.0);
        let u = Cons {
            d: f64::NAN,
            s: [0.0; 3],
            tau: 1.0,
        };
        assert_eq!(
            cons_to_prim(&eos, &u, None, &Con2PrimParams::default()),
            Err(Con2PrimError::NonFinite)
        );
    }

    #[test]
    fn guess_quality_does_not_change_answer() {
        let eos = Eos::ideal(5.0 / 3.0);
        let prim = Prim::new_1d(1.0, 0.99, 0.3);
        let u = prim.to_cons(&eos);
        let params = Con2PrimParams::default();
        let a = cons_to_prim(&eos, &u, Some(1e-8), &params).unwrap();
        let b = cons_to_prim(&eos, &u, Some(1e6), &params).unwrap();
        assert!((a.p - b.p).abs() < 1e-9 * a.p);
    }

    #[test]
    fn boosted_blast_wave_states_recover() -> Result<(), Con2PrimError> {
        // The F8 robustness experiment boosts the Marti-Muller blast wave 1
        // left state; make sure recovery holds across a wide boost range.
        let eos = Eos::ideal(5.0 / 3.0);
        let base = Prim::at_rest(10.0, 13.33);
        for &vb in &[0.0, 0.9, 0.99, 0.999, 0.99999] {
            let prim = base.boosted(vb, Dir::X);
            roundtrip(&eos, prim, 1e-6)?;
        }
        Ok(())
    }

    #[test]
    fn counted_matches_uncounted_and_reports_work() {
        let eos = Eos::ideal(5.0 / 3.0);
        let params = Con2PrimParams::default();
        // A genuine solve reports at least one residual evaluation and
        // returns the identical primitive state.
        let prim = Prim::new_1d(1.0, 0.9, 0.1);
        let u = prim.to_cons(&eos);
        let plain = cons_to_prim(&eos, &u, None, &params).unwrap();
        let (counted, iters) = cons_to_prim_counted(&eos, &u, None, &params).unwrap();
        assert_eq!(plain, counted);
        assert!(iters >= 1, "expected work, got {iters} iterations");
        // A good guess converges in fewer iterations than a cold start.
        let (_, warm) = cons_to_prim_counted(&eos, &u, Some(prim.p), &params).unwrap();
        assert!(warm <= iters, "warm {warm} vs cold {iters}");
        // The atmosphere short-circuit does no root-solve work.
        let vac = Cons {
            d: params.rho_floor * 0.5,
            s: [0.0; 3],
            tau: 0.0,
        };
        let (_, n) = cons_to_prim_counted(&eos, &vac, None, &params).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn relaxed_params_recover_budget_starved_states() {
        // With the iteration budgets zeroed out the solver cannot converge;
        // the relaxed variant restores usable budgets — the first tier of
        // the solver-level recovery cascade depends on this.
        let eos = Eos::ideal(5.0 / 3.0);
        let prim = Prim::new_1d(1.0, 0.9, 0.1);
        let u = prim.to_cons(&eos);
        let starved = Con2PrimParams {
            max_newton: 0,
            max_bisect: 0,
            ..Con2PrimParams::default()
        };
        assert!(cons_to_prim(&eos, &u, None, &starved).is_err());
        let out = cons_to_prim(&eos, &u, None, &starved.relaxed()).unwrap();
        assert!((out.p - prim.p).abs() < 1e-3 * prim.p);
    }

    #[test]
    fn relaxed_params_keep_a_loose_tolerance() {
        // Above 1e-4 the relaxed tolerance is `tol` itself: never tighter,
        // and no panic on the way there.
        let eos = Eos::ideal(5.0 / 3.0);
        let loose = Con2PrimParams {
            tol: 1e-3,
            ..Con2PrimParams::default()
        };
        let relaxed = loose.relaxed();
        assert_eq!(relaxed.tol, loose.tol);
        let prim = Prim::new_1d(1.0, 0.9, 0.1);
        let out = cons_to_prim(&eos, &prim.to_cons(&eos), None, &relaxed).unwrap();
        assert!((out.p - prim.p).abs() < 1e-2 * prim.p);
        assert_eq!(Con2PrimParams::default().relaxed().tol, 1e-6);
    }
}
