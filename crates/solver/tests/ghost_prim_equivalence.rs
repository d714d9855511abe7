//! A ghost zone's primitives are copied from the cell it mirrors, never
//! recovered a second time.
//!
//! Every ghost of the two copy-ghost front-ends ([`PatchSolver`],
//! [`BlockSolver`]) holds the conserved state of some interior cell, as
//! it is or with the normal momentum flipped. The recovery is
//! cold-started from the conserved state alone, so the primitives of the
//! copy are the copy of the primitives, and the flip of `S_n` comes out
//! as the flip of `v_n` exactly: `|S|²` is unchanged and `v_n = S_n / E`.
//! These tests pin that — recovering the interior and applying the
//! boundary conditions to the primitives gives every byte that filling
//! the conserved ghosts and recovering the whole field gives — together
//! with its one exception (an atmosphere cell beside a reflecting wall,
//! where the two differ in the sign of a zero) and the work it saves
//! (con2prim solves per [`BlockSolver`] stage = interior cells, exactly).

use rhrsc_comm::{run, NetworkModel};
use rhrsc_grid::{bc, fill_ghosts, Bc, BcSet, CartDecomp, Field, PatchGeom};
use rhrsc_runtime::Registry;
use rhrsc_solver::driver::{BlockSolver, DistConfig, ExchangeMode};
use rhrsc_solver::scheme::{
    apply_conserved_floors, init_cons, prim_at, recover_prims, recover_region,
};
use rhrsc_solver::step::{compute_rhs, Region};
use rhrsc_solver::{PatchSolver, RkOrder, Scheme};
use rhrsc_srhd::{Cons, Prim};
use std::sync::Arc;

/// SplitMix64: seeded, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An admissible state with a Lorentz factor up to 10 in a random
/// direction, densities and pressures over three decades.
fn random_prim(rng: &mut Rng) -> Prim {
    let w = rng.uniform(1.0, 10.0);
    let speed = (1.0 - 1.0 / (w * w)).sqrt();
    let dir = [
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
    ];
    let norm = dir.iter().map(|c| c * c).sum::<f64>().sqrt().max(1e-3);
    Prim {
        rho: 10f64.powf(rng.uniform(-2.0, 1.0)),
        vel: dir.map(|c| speed * c / norm),
        p: 10f64.powf(rng.uniform(-2.0, 1.0)),
    }
}

/// A conserved field with an independent random state in every interior
/// cell (ghosts are whatever the boundary fill makes of them).
fn random_field(geom: PatchGeom, s: &Scheme, seed: u64) -> Field {
    let mut rng = Rng(seed);
    let mut u = Field::cons(geom);
    for (i, j, k) in geom.interior_iter() {
        u.set_cons(i, j, k, random_prim(&mut rng).to_cons(&s.eos));
    }
    u
}

fn bits(f: &Field) -> Vec<u64> {
    f.raw().iter().map(|v| v.to_bits()).collect()
}

/// The recompute reference: fill the conserved ghosts, recover all cells.
fn prims_by_recompute(s: &Scheme, u: &Field, bcs: &BcSet) -> Field {
    let mut u = u.clone();
    fill_ghosts(&mut u, bcs);
    let mut prim = Field::new(*u.geom(), 5);
    recover_prims(s, &u, &mut prim).unwrap();
    prim
}

/// The owner-recovers path: recover the interior, fill primitive ghosts.
fn prims_by_copy(s: &Scheme, u: &Field, bcs: &BcSet) -> Field {
    let mut prim = Field::new(*u.geom(), 5);
    recover_region(s, u, &mut prim, &Region::interior(u.geom()), None, None).unwrap();
    fill_ghosts(&mut prim, bcs);
    prim
}

fn geoms() -> [PatchGeom; 3] {
    [
        PatchGeom::line(17, 0.0, 1.0, 3),
        PatchGeom::rect([9, 7], [0.0; 2], [1.0; 2], 3),
        PatchGeom::cube([6, 5, 7], [0.0; 3], [1.0; 3], 3),
    ]
}

#[test]
fn copied_ghost_primitives_equal_recovered_ones_on_every_byte() {
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    let mut mixed = bc::uniform(Bc::Periodic);
    mixed[1] = [Bc::Reflect, Bc::Outflow];
    mixed[2] = [Bc::Outflow, Bc::Reflect];
    let mut walls_x = bc::uniform(Bc::Outflow);
    walls_x[0] = [Bc::Reflect, Bc::Reflect];
    let sets = [
        bc::uniform(Bc::Periodic),
        bc::uniform(Bc::Outflow),
        bc::uniform(Bc::Reflect),
        mixed,
        walls_x,
    ];
    for geom in geoms() {
        for (b, bcs) in sets.iter().enumerate() {
            for seed in 1..=4 {
                let u = random_field(geom, &s, seed);
                assert_eq!(
                    bits(&prims_by_copy(&s, &u, bcs)),
                    bits(&prims_by_recompute(&s, &u, bcs)),
                    "{}D, boundary set {b}, seed {seed}: edges and corners included",
                    geom.ndim()
                );
            }
        }
    }
}

/// A near-vacuum cell (D below the density floor) with the wall on its
/// low-x side; everything else is a smooth flow.
fn field_with_atmosphere_at_wall(geom: PatchGeom, s: &Scheme) -> (Field, (usize, usize, usize)) {
    let mut u = init_cons(geom, &s.eos, &|x| Prim {
        rho: 1.0 + 0.2 * (3.0 * x[0] + 2.0 * x[1]).sin(),
        vel: [0.2, if geom.active(1) { -0.1 } else { 0.0 }, 0.0],
        p: 1.0,
    });
    let cell = (geom.ng_of(0), geom.ng_of(1) + geom.n[1] / 2, geom.ng_of(2));
    u.set_cons(
        cell.0,
        cell.1,
        cell.2,
        Cons {
            d: 0.5 * s.c2p.rho_floor,
            s: [0.0; 3],
            tau: 1e-13,
        },
    );
    (u, cell)
}

/// One forward-Euler step the recompute way, from public pieces: fill the
/// conserved ghosts, recover every cell, residual, `u ← u·1 + L(u)·Δt`
/// (the stage-0 combine's expression), conserved floors.
fn euler_step_by_recompute(s: &Scheme, u: &mut Field, bcs: &BcSet, dt: f64) {
    fill_ghosts(u, bcs);
    let geom = *u.geom();
    let mut prim = Field::new(geom, 5);
    recover_prims(s, u, &mut prim).unwrap();
    let mut rhs = Field::cons(geom);
    compute_rhs(s, &prim, &mut rhs, None);
    for (i, j, k) in geom.interior_iter() {
        for c in 0..5 {
            u.set(c, i, j, k, u.at(c, i, j, k) * 1.0 + rhs.at(c, i, j, k) * dt);
        }
    }
    apply_conserved_floors(u, &s.c2p);
}

#[test]
fn atmosphere_beside_a_reflecting_wall_differs_in_the_sign_of_zero_only() {
    // The one place a copied ghost primitive is not the recomputed one
    // bit for bit: `cons_to_prim` short-circuits `D ≤ rho_floor` to
    // `Prim::at_rest`, whose velocities are +0.0 whatever the momentum's
    // sign, while mirroring the interior's +0.0 normal velocity gives
    // −0.0. The code now produces the mirror image, −0.0 — the value a
    // reflecting wall means. The two compare equal, so nothing that is
    // computed from them can differ by more than the sign of a zero.
    let s = Scheme::default_with_gamma(5.0 / 3.0);
    let bcs = bc::uniform(Bc::Reflect);
    for geom in [
        PatchGeom::line(16, 0.0, 1.0, 3),
        PatchGeom::rect([12, 10], [0.0; 2], [1.0; 2], 3),
    ] {
        let (u, (i, j, k)) = field_with_atmosphere_at_wall(geom, &s);
        let copied = prims_by_copy(&s, &u, &bcs);
        let recomputed = prims_by_recompute(&s, &u, &bcs);
        // The ghost that mirrors the atmosphere cell across the wall.
        let ghost = i - 1;
        let v_copy = prim_at(&copied, ghost, j, k).vel[0];
        let v_reco = prim_at(&recomputed, ghost, j, k).vel[0];
        assert_eq!(v_copy.to_bits(), (-0.0f64).to_bits(), "copied: −0.0");
        assert_eq!(v_reco.to_bits(), 0.0f64.to_bits(), "recomputed: +0.0");
        // Every value of the two fields compares equal; the bytes differ
        // only where one holds −0.0 and the other +0.0.
        for (a, b) in copied.raw().iter().zip(recomputed.raw()) {
            assert_eq!(a, b);
            assert!(a.to_bits() == b.to_bits() || *a == 0.0);
        }
        assert_ne!(bits(&copied), bits(&recomputed));

        // A step of the solver against the recompute reference: the
        // interior of `u` is `==`-equal. On these two set-ups it is also
        // bit-equal (sums such as `0.0 + -0.0` drop the sign before it
        // reaches a flux difference); that is an observation, pinned so
        // that a change shows, not something the scheme guarantees.
        let dt = 1e-3;
        let mut u_ref = u.clone();
        euler_step_by_recompute(&s, &mut u_ref, &bcs, dt);
        let mut u_new = u.clone();
        PatchSolver::new(s, bcs, RkOrder::Rk1, geom)
            .step(&mut u_new, dt, None)
            .unwrap();
        for (ci, cj, ck) in geom.interior_iter() {
            for c in 0..5 {
                let (a, b) = (u_new.at(c, ci, cj, ck), u_ref.at(c, ci, cj, ck));
                assert_eq!(a, b, "{}D cell ({ci},{cj},{ck}) comp {c}", geom.ndim());
                assert_eq!(a.to_bits(), b.to_bits(), "bit-equal as well");
            }
        }
    }
}

/// One RK step of a periodic `BlockSolver` run on `dims`; returns each
/// rank's count of con2prim solves and its interior size.
fn solves_per_rank(dims: [usize; 3], mode: ExchangeMode, rk: RkOrder) -> Vec<(u64, usize)> {
    let cfg = DistConfig {
        scheme: Scheme::default_with_gamma(5.0 / 3.0),
        rk,
        global_n: [16, 12, if dims[2] > 1 { 8 } else { 1 }],
        domain: ([0.0; 3], [1.0; 3]),
        decomp: CartDecomp {
            dims,
            periodic: [true; 3],
        },
        bcs: bc::uniform(Bc::Periodic),
        cfl: 0.4,
        mode,
        gang_threads: 0,
        dt_refresh_interval: 1,
    };
    let ic = |x: [f64; 3]| Prim {
        rho: 1.0 + 0.3 * (6.0 * x[0]).sin() * (6.0 * x[1]).cos(),
        vel: [0.5, -0.3, 0.0],
        p: 1.0,
    };
    let nranks = dims.iter().product();
    run(nranks, NetworkModel::ideal(), |rank| {
        let reg = Arc::new(Registry::new());
        let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &ic);
        solver.set_metrics(reg.clone());
        solver.step(rank, &mut u, 1e-3).unwrap();
        (
            reg.histogram("c2p.newton_iters").count(),
            solver.geom().interior_len(),
        )
    })
}

#[test]
fn block_solver_solves_each_interior_cell_once_per_stage() {
    for mode in [ExchangeMode::BulkSynchronous, ExchangeMode::Overlap] {
        for dims in [[1, 1, 1], [2, 1, 1], [2, 2, 1], [1, 2, 2]] {
            for rk in [RkOrder::Rk2, RkOrder::Rk3] {
                for (solves, interior) in solves_per_rank(dims, mode, rk) {
                    assert_eq!(
                        solves,
                        (rk.stages() * interior) as u64,
                        "{mode:?} on {dims:?}, {rk:?}: no ghost is ever recovered"
                    );
                }
            }
        }
    }
}
