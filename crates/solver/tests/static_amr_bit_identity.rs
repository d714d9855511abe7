//! Bit-identity pins of the a5_smr_efficiency numbers (Sod, ppm + hllc +
//! rk3, coarse 100 with a ratio-2 fine level over cells 20..95): the
//! static two-level `AmrSolver` must reproduce, *bit for bit*, what the
//! retired two-level subcycled solver produced before the shared `refine`
//! operators were split out of it. Any deviation means a change altered
//! floating-point behaviour, not just code layout.
//!
//! The adaptive pins below do the same for *regridding* hierarchies: the
//! final-state digest, regrid count and per-level updates of the
//! Martí–Müller blast (PPM, three levels), a PLM run (two ghost cells)
//! and a periodic four-level pulse.

use rhrsc_grid::{bc, Bc, BcSet, PatchGeom};
use rhrsc_io::snapshot::fnv1a_f64;
use rhrsc_solver::amr::{AmrConfig, AmrSolver};
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::recon::{Limiter, Recon};
use rhrsc_srhd::Prim;

/// Replicates the a5 bench loop exactly (same dt policy, same t_end);
/// returns L1(ρ), the base step count and the zone-update count.
fn run_static_amr() -> (f64, usize, u64) {
    let prob = Problem::sod();
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let exact = prob.exact.clone().unwrap();
    let cfg = AmrConfig {
        max_levels: 2,
        regrid_interval: 0,
        ..AmrConfig::default()
    };
    let mut amr = AmrSolver::new(scheme, prob.bcs, RkOrder::Rk3, 100, 0.0, 1.0, cfg);
    amr.init_static(&|x| (prob.ic)(x), &[&[(20, 95)]]).unwrap();
    let mut t = 0.0;
    let mut steps = 0;
    while t < prob.t_end - 1e-14 {
        let mut dt = amr.stable_dt(0.4).unwrap();
        if t + dt > prob.t_end {
            dt = prob.t_end - t;
        }
        amr.step(dt).unwrap();
        t += dt;
        steps += 1;
    }
    let l1 = amr.l1_density_error(&*exact, prob.t_end).unwrap();
    (l1, steps, amr.cell_updates())
}

fn run_uniform(n: usize) -> f64 {
    let prob = Problem::sod();
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let exact = prob.exact.clone().unwrap();
    let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
    let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
    let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    solver
        .advance_to(&mut u, 0.0, prob.t_end, 0.4, None)
        .unwrap();
    l1_density_error(&scheme, &u, &exact, prob.t_end).unwrap().0
}

/// IEEE-754 bit patterns of the a5 L1(ρ) errors, recorded from the
/// pre-refactor solver (debug and release builds agree bit-for-bit —
/// rustc does not contract or reorder float ops).
const BITS_UNIFORM_100: u64 = 0x3f7734650b4d7149; // 5.66520185824643478e-3
const BITS_UNIFORM_200: u64 = 0x3f6949b449f62b96; // 3.08690273931717506e-3
const BITS_SMR_SUBCYCLED: u64 = 0x3f6951a2da380235; // 3.09068495857924919e-3

#[test]
fn a5_values_are_bit_identical_to_pre_refactor() {
    let (e_sub, steps, updates) = run_static_amr();
    for (name, got, want) in [
        ("uniform-100", run_uniform(100), BITS_UNIFORM_100),
        ("uniform-200", run_uniform(200), BITS_UNIFORM_200),
        ("smr+subcycle", e_sub, BITS_SMR_SUBCYCLED),
    ] {
        assert_eq!(
            got.to_bits(),
            want,
            "{name}: L1 changed from pre-refactor baseline: got {got:.17e} ({:#x}), want {:#x}",
            got.to_bits(),
            want
        );
    }
    // The Δt sequence has 88 entries; each step updates the 100 coarse
    // cells once and the 150 fine cells twice, per RK3 stage.
    assert_eq!(steps, 88);
    assert_eq!(updates, 105_600);
}

// ----- adaptive hierarchies ------------------------------------------------

/// What a regridding run leaves behind: the FNV-1a digest of every
/// patch's level, span and interior bits, the regrid count and the
/// interior updates per level.
fn adaptive_run(
    scheme: Scheme,
    bcs: BcSet,
    n0: usize,
    cfg: AmrConfig,
    ic: &dyn Fn([f64; 3]) -> Prim,
    t_end: f64,
) -> (u64, u64, Vec<u64>) {
    let mut amr = AmrSolver::new(scheme, bcs, RkOrder::Rk3, n0, 0.0, 1.0, cfg);
    amr.init(ic);
    amr.advance_to(0.0, t_end, 0.4).unwrap();
    let mut words = Vec::new();
    for p in &amr.to_checkpoint(t_end).patches {
        words.extend([f64::from(p.level), p.lo as f64, p.n as f64]);
        words.extend_from_slice(&p.data);
    }
    (
        fnv1a_f64(&words),
        amr.regrids(),
        amr.updates_per_level().to_vec(),
    )
}

/// Assert an adaptive run's outcome against its pinned constants.
fn assert_pinned(name: &str, got: (u64, u64, Vec<u64>), want: (u64, u64, &[u64])) {
    assert_eq!(got.0, want.0, "{name}: final-state digest {:#018x}", got.0);
    assert_eq!(
        (got.1, &got.2[..]),
        (want.1, want.2),
        "{name}: regrids, updates"
    );
}

/// The Martí–Müller blast on three PPM levels, regridding every four
/// base steps between outflow boundaries.
#[test]
fn adaptive_blast_state_is_pinned() {
    let prob = Problem::blast_wave_1();
    let got = adaptive_run(
        Scheme::default_with_gamma(5.0 / 3.0),
        prob.bcs,
        128,
        AmrConfig::default(),
        &|x| (prob.ic)(x),
        prob.t_end,
    );
    assert_pinned(
        "blast",
        got,
        (0x1d6a6a13c1f7dd69, 29, &[45_696, 23_256, 51_936]),
    );
}

/// Sod on three PLM levels: two ghost cells per side, so the
/// prolongation stencils and the packed windows are narrower.
#[test]
fn adaptive_plm_state_is_pinned() {
    let prob = Problem::sod();
    let scheme = Scheme {
        recon: Recon::Plm(Limiter::Mc),
        ..Scheme::default_with_gamma(5.0 / 3.0)
    };
    let got = adaptive_run(
        scheme,
        prob.bcs,
        100,
        AmrConfig::default(),
        &|x| (prob.ic)(x),
        prob.t_end,
    );
    assert_pinned(
        "plm",
        got,
        (0xeceb171bf8e75cd4, 21, &[26_400, 22_032, 43_968]),
    );
}

/// A periodic pressure pulse steepening into shocks on four levels.
#[test]
fn adaptive_periodic_pulse_state_is_pinned() {
    let cfg = AmrConfig {
        max_levels: 4,
        threshold: 0.08,
        ..AmrConfig::default()
    };
    let got = adaptive_run(
        Scheme::default_with_gamma(5.0 / 3.0),
        bc::uniform(Bc::Periodic),
        64,
        cfg,
        &|x| {
            let g = (-((x[0] - 0.5) / 0.08).powi(2)).exp();
            Prim::new_1d(1.0 + 2.0 * g, 0.0, 1.0 + 20.0 * g)
        },
        0.25,
    );
    assert_pinned(
        "pulse",
        got,
        (0x6838c2583886c983, 9, &[7_104, 19_296, 59_760, 123_456]),
    );
}
