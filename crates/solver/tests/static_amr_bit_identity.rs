//! Bit-identity pins of the a5_smr_efficiency numbers (Sod, ppm + hllc +
//! rk3, coarse 100 with a ratio-2 fine level over cells 20..95): the
//! static two-level `AmrSolver` must reproduce, *bit for bit*, what the
//! retired two-level subcycled solver produced before the shared `refine`
//! operators were split out of it. Any deviation means a change altered
//! floating-point behaviour, not just code layout.

use rhrsc_grid::PatchGeom;
use rhrsc_solver::amr::{AmrConfig, AmrSolver};
use rhrsc_solver::diag::l1_density_error;
use rhrsc_solver::problems::Problem;
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};

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
