//! The lock-step recovery gives the scalar solver's bits, counts and
//! failures.
//!
//! `scheme::recover_row` gathers each row into blocks of [`C2P_LANES`]
//! states, iterates a block's Newton main line in lock-step
//! ([`cons_to_prim_lanes`]) and hands every state the main line does not
//! finish to the scalar [`cons_to_prim_counted`]. A cold start is a
//! function of the conserved state alone, so none of that may show:
//! these tests pin the lane kernel against the scalar solver over a grid
//! of states (a), the row loop against itself at every block alignment
//! (b), the failure and repair semantics against a cell-by-cell scalar
//! reference written here (c), the evaluation histogram against a
//! per-cell tally (d), and a row on which the main line finishes nothing
//! (e). Vector code exists only in optimised builds: CI runs this file
//! under `--release` as well.

use rhrsc_grid::{Field, PatchGeom};
use rhrsc_runtime::metrics::HistSnapshot;
use rhrsc_runtime::Registry;
use rhrsc_solver::scheme::{
    prim_at, recover_prims, recover_region, recover_region_resilient, set_prim, RecoveryStats,
    SolverError,
};
use rhrsc_solver::step::Region;
use rhrsc_solver::Scheme;
use rhrsc_srhd::{
    cons_to_prim, cons_to_prim_counted, cons_to_prim_lanes, Con2PrimParams, Cons, Eos, Prim,
    C2P_LANES,
};

/// Bytes no recovery writes: marks primitive cells a call must not touch.
const SENTINEL: f64 = -7.25;

const EOSES: [Eos; 3] = [
    Eos::IdealGas { gamma: 5.0 / 3.0 },
    Eos::IdealGas { gamma: 4.0 / 3.0 },
    Eos::TaubMathews,
];

/// `|S|² > τ(τ + 2D)`: no primitive state has these conserved values. The
/// scalar solver spends its Newton budget and takes the bisection rung's
/// floor exit (102 evaluations, W ~ 10⁶) — a straggler of the longest
/// kind, not a failure.
const SUPERLUMINAL: Cons = Cons {
    d: 1.0,
    s: [3.0, -4.0, 1.0],
    tau: 0.5,
};

/// Unit vectors: along x, in the x–y plane, fully oblique.
const DIRS: [[f64; 3]; 3] = [
    [1.0, 0.0, 0.0],
    [0.6, -0.8, 0.0],
    [
        0.813_733_471_206_735_3,
        -0.464_990_554_975_277_3,
        0.348_742_916_231_458,
    ],
];

/// The state of density `rho`, temperature `theta = p/ρ` and Lorentz
/// factor `w` moving along `dir`.
fn moving(rho: f64, theta: f64, w: f64, dir: [f64; 3]) -> Prim {
    let speed = (1.0 - 1.0 / (w * w)).sqrt();
    Prim {
        rho,
        vel: dir.map(|c| speed * c),
        p: theta * rho,
    }
}

/// Cold and fast: the Newton main line needs ≈ 16 evaluations, twice its
/// round budget, so the lane kernel finishes none of these.
fn straggler(eos: &Eos, rho: f64) -> Cons {
    moving(rho, 1e-4, 30.0, DIRS[0]).to_cons(eos)
}

fn bits(w: &Prim) -> [u64; 5] {
    [w.rho, w.vel[0], w.vel[1], w.vel[2], w.p].map(f64::to_bits)
}

fn field_bits(f: &Field) -> Vec<u64> {
    f.raw().iter().map(|v| v.to_bits()).collect()
}

fn scheme_with(eos: Eos) -> Scheme {
    let mut scheme = Scheme::default_with_gamma(5.0 / 3.0);
    scheme.eos = eos;
    scheme
}

fn sentinel_prims(geom: PatchGeom) -> Field {
    let mut prim = Field::new(geom, 5);
    prim.raw_mut().fill(SENTINEL);
    prim
}

fn cells_of(region: &Region) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    (region.lo[2]..region.hi[2]).flat_map(move |k| {
        (region.lo[1]..region.hi[1])
            .flat_map(move |j| (region.lo[0]..region.hi[0]).map(move |i| (i, j, k)))
    })
}

/// One ledger row: a decade of `p/ρ`.
#[derive(Default, Clone, Copy)]
struct Decade {
    states: u64,
    fast: u64,
    evals: u64,
    failed: u64,
    worst_dp: f64,
}

/// (a) Over 10⁻⁸ ≤ p/ρ ≤ 10⁴ × 1 ≤ W ≤ 10³ × three densities × three
/// directions × three EOS, every lane the kernel retires is the scalar
/// solver's answer in all five bit patterns and in the evaluation count,
/// and every state the scalar solver fails on is left to it. Also at a
/// Newton budget below the kernel's own round count, which then bounds
/// the rounds. Prints the ledger ROADMAP item 1(a) starts from.
#[test]
fn lanes_equal_the_scalar_solver_over_the_state_grid() {
    for eos in EOSES {
        // (conserved state, decade of p/ρ, the pressure it was built from)
        let mut grid = Vec::new();
        for it in 0..=60 {
            let theta = 10f64.powf(-8.0 + it as f64 / 5.0);
            for iw in 0..=30 {
                let w = 10f64.powf(iw as f64 / 10.0);
                for rho in [1e-3, 1.0, 37.0] {
                    for dir in DIRS {
                        let prim = moving(rho, theta, w, dir);
                        grid.push((prim.to_cons(&eos), (it / 5).min(11), prim.p));
                    }
                }
            }
        }
        let us: Vec<Cons> = grid.iter().map(|g| g.0).collect();
        for max_newton in [Con2PrimParams::default().max_newton, 3] {
            let params = Con2PrimParams {
                max_newton,
                ..Con2PrimParams::default()
            };
            let mut out = vec![None; us.len()];
            cons_to_prim_lanes(&eos, &params, &us, &mut out);
            let mut ledger = [Decade::default(); 12];
            for (&(u, decade, p), lane) in grid.iter().zip(&out) {
                let scalar = cons_to_prim_counted(&eos, &u, None, &params);
                let row = &mut ledger[decade];
                row.states += 1;
                if let Some((w, evals)) = lane {
                    let (ws, es) = scalar.unwrap_or_else(|e| {
                        panic!("{eos:?} {u:?}: lane retired a state the scalar solver fails: {e}")
                    });
                    assert_eq!(bits(w), bits(&ws), "{eos:?} {u:?}: primitives");
                    assert_eq!(*evals, es, "{eos:?} {u:?}: evaluation count");
                    row.fast += 1;
                }
                match scalar {
                    Ok((ws, es)) => {
                        row.evals += u64::from(es);
                        row.worst_dp = row.worst_dp.max(((ws.p - p) / p).abs());
                    }
                    Err(_) => row.failed += 1,
                }
            }
            let fast: u64 = ledger.iter().map(|r| r.fast).sum();
            println!(
                "# {eos:?}, max_newton {max_newton}: {fast} of {} states on the main line",
                us.len()
            );
            if max_newton > 3 {
                println!("# p/rho from | states | main line | mean evals | failed | worst |dp/p|");
                for (k, r) in ledger.iter().enumerate() {
                    println!(
                        "#   1e{:+03} | {:4} | {:.3} | {:5.2} | {} | {:.2e}",
                        k as i32 - 8,
                        r.states,
                        r.fast as f64 / r.states as f64,
                        r.evals as f64 / (r.states - r.failed).max(1) as f64,
                        r.failed,
                        r.worst_dp
                    );
                }
            }
            // The kernel is there to be used: a third of this grid at the
            // default budget, something at the starved one.
            let floor = if max_newton > 3 {
                us.len() as u64 / 3
            } else {
                1
            };
            assert!(fast >= floor, "{eos:?}: only {fast} states retired");
        }
    }
}

/// A mixed 3D field: smooth W ≈ 2 flow, a straggler every seventh cell,
/// an atmosphere cell every eleventh.
fn mixed_field(geom: PatchGeom, eos: &Eos) -> Field {
    let mut u = Field::cons(geom);
    let params = Con2PrimParams::default();
    for k in 0..geom.ntot(2) {
        for j in 0..geom.ntot(1) {
            for i in 0..geom.ntot(0) {
                let n = i + 3 * j + 5 * k;
                let rho = 1.0 + 0.3 * (0.37 * n as f64).sin();
                let c = match n {
                    _ if n % 11 == 4 => Cons {
                        d: 0.5 * params.rho_floor,
                        s: [0.0; 3],
                        tau: 0.0,
                    },
                    _ if n % 7 == 3 => straggler(eos, rho),
                    _ => moving(rho, 0.8, 2.0, DIRS[n % 3]).to_cons(eos),
                };
                u.set_cons(i, j, k, c);
            }
        }
    }
    u
}

/// (b) Where the blocks fall does not show: every x-extent from one cell
/// to two blocks and a cell, at every start offset, recovers the bytes
/// the whole-field recovery gives and leaves the rest alone.
#[test]
fn rows_do_not_depend_on_block_alignment() {
    let geom = PatchGeom::cube([2 * C2P_LANES + 6, 2, 2], [0.0; 3], [1.0; 3], 2);
    let scheme = scheme_with(EOSES[0]);
    let u = mixed_field(geom, &scheme.eos);
    let mut whole = Field::new(geom, 5);
    recover_prims(&scheme, &u, &mut whole).unwrap();
    let nx = geom.ntot(0);
    for i0 in 0..nx {
        for extent in 1..=(2 * C2P_LANES + 1).min(nx - i0) {
            let region = Region {
                lo: [i0, 1, 2],
                hi: [i0 + extent, 3, 4],
            };
            let mut prim = sentinel_prims(geom);
            recover_region(&scheme, &u, &mut prim, &region, None, None).unwrap();
            let mut expect = sentinel_prims(geom);
            for (i, j, k) in cells_of(&region) {
                set_prim(&mut expect, i, j, k, &prim_at(&whole, i, j, k));
            }
            assert!(
                field_bits(&prim) == field_bits(&expect),
                "x-extent {extent} from {i0}"
            );
        }
    }
}

/// The parent's recovery, cell by cell: strict scalar solves in row-major
/// order, then the cascade (relaxed tolerances, neighbour average,
/// atmosphere) over the cells that failed.
fn scalar_reference(
    scheme: &Scheme,
    u: &mut Field,
    prim: &mut Field,
    region: &Region,
) -> (Vec<(usize, usize, usize)>, RecoveryStats) {
    let mut bad = Vec::new();
    for (i, j, k) in cells_of(region) {
        match cons_to_prim(&scheme.eos, &u.get_cons(i, j, k), None, &scheme.c2p) {
            Ok(w) => set_prim(prim, i, j, k, &w),
            Err(_) => bad.push((i, j, k)),
        }
    }
    let mut stats = RecoveryStats::default();
    for &(i, j, k) in &bad {
        let cons = u.get_cons(i, j, k);
        let relaxed = cons_to_prim(&scheme.eos, &cons, None, &scheme.c2p.relaxed());
        if let (true, Ok(w)) = (cons.is_finite(), relaxed) {
            set_prim(prim, i, j, k, &w);
            stats.relaxed_tol += 1;
            continue;
        }
        let (mut sum, mut count) = ([0.0; 5], 0);
        for d in 0..3 {
            for c in [[i, j, k][d].wrapping_sub(1), [i, j, k][d] + 1] {
                let mut nb = [i, j, k];
                nb[d] = c;
                if c < region.lo[d] || c >= region.hi[d] || bad.contains(&(nb[0], nb[1], nb[2])) {
                    continue;
                }
                let w = prim_at(prim, nb[0], nb[1], nb[2]);
                if w.is_physical() {
                    for (s, v) in sum
                        .iter_mut()
                        .zip([w.rho, w.vel[0], w.vel[1], w.vel[2], w.p])
                    {
                        *s += v;
                    }
                    count += 1;
                }
            }
        }
        let w = if count > 0 {
            stats.neighbor_avg += 1;
            let inv = 1.0 / count as f64;
            scheme.sanitize(Prim {
                rho: sum[0] * inv,
                vel: [sum[1] * inv, sum[2] * inv, sum[3] * inv],
                p: sum[4] * inv,
            })
        } else {
            stats.atmosphere += 1;
            Prim::at_rest(scheme.c2p.rho_floor, scheme.c2p.p_floor)
        };
        set_prim(prim, i, j, k, &w);
        u.set_cons(i, j, k, w.to_cons(&scheme.eos));
    }
    (bad, stats)
}

/// (c) Failures keep their place. A NaN cell, a superluminal cell (the
/// scalar solver's bisection rung takes it) and an atmosphere cell sit
/// mid-block: the strict recovery names the first cell without a state,
/// has written every cell before it and none after; the resilient one
/// repairs the same cells into the same bytes, conserved state and tier
/// counts as the cell-by-cell reference — with the default budgets and
/// with budgets so short that the cascade's relaxed tier does real work.
#[test]
fn failures_are_reported_and_repaired_as_by_the_scalar_loop() {
    let geom = PatchGeom::rect([C2P_LANES + 9, 3], [0.0; 2], [1.0; 2], 2);
    for (max_newton, max_bisect) in [(50, 200), (3, 0)] {
        let mut scheme = scheme_with(EOSES[0]);
        scheme.c2p.max_newton = max_newton;
        scheme.c2p.max_bisect = max_bisect;
        let mut u = mixed_field(geom, &scheme.eos);
        let nan = Cons {
            d: f64::NAN,
            s: [0.0; 3],
            tau: 1.0,
        };
        // A corner whose in-region neighbours are lost too (atmosphere
        // tier), a pair side by side, one in the second block of a row.
        for (i, j) in [(0, 0), (1, 0), (0, 1), (20, 3), (21, 3), (C2P_LANES + 5, 4)] {
            u.set_cons(i, j, 0, nan);
        }
        u.set_cons(9, 3, 0, SUPERLUMINAL);
        assert_eq!(u.get_cons(4, 0, 0).d, 0.5 * scheme.c2p.rho_floor);

        let region = Region::whole(&geom);
        let (mut u_ref, mut prim_ref) = (u.clone(), sentinel_prims(geom));
        let (bad, stats_ref) = scalar_reference(&scheme, &mut u_ref, &mut prim_ref, &region);
        // Six cells have no state at all; the short budgets add cells
        // only the relaxed tier recovers.
        assert_eq!(stats_ref.neighbor_avg + stats_ref.atmosphere, 6);
        assert!(stats_ref.neighbor_avg >= 4 && stats_ref.atmosphere >= 1);
        assert_eq!(stats_ref.relaxed_tol > 0, max_newton == 3);

        // Strict, one row at a time so that "first" is unambiguous.
        for j in 0..geom.ntot(1) {
            let row = Region {
                lo: [0, j, 0],
                hi: [geom.ntot(0), j + 1, 1],
            };
            let mut prim = sentinel_prims(geom);
            let got = recover_region(&scheme, &u, &mut prim, &row, None, None);
            let first = bad.iter().find(|c| c.1 == j);
            match (got, first) {
                (Ok(()), None) => {}
                (Err(SolverError::Con2Prim { cell, err }), Some(&first)) => {
                    assert_eq!(cell, first);
                    let scalar =
                        cons_to_prim(&scheme.eos, &u.get_cons(cell.0, j, 0), None, &scheme.c2p);
                    assert_eq!(Err(err), scalar);
                }
                (got, first) => panic!("row {j}: {got:?}, reference fails first at {first:?}"),
            }
            let stop = first.map_or(geom.ntot(0), |c| c.0);
            for i in 0..geom.ntot(0) {
                let w = prim_at(&prim, i, j, 0);
                if i < stop {
                    let (ws, _) =
                        cons_to_prim_counted(&scheme.eos, &u.get_cons(i, j, 0), None, &scheme.c2p)
                            .unwrap();
                    assert_eq!(bits(&w), bits(&ws), "cell ({i},{j}) before the failure");
                } else {
                    assert_eq!(bits(&w), [SENTINEL.to_bits(); 5], "cell ({i},{j}) after it");
                }
            }
        }

        let mut prim = sentinel_prims(geom);
        let mut stats = RecoveryStats::default();
        recover_region_resilient(&scheme, &mut u, &mut prim, &region, &mut stats, None);
        assert_eq!(stats, stats_ref);
        assert!(
            field_bits(&prim) == field_bits(&prim_ref),
            "repaired primitives"
        );
        assert!(
            field_bits(&u) == field_bits(&u_ref),
            "repaired conserved state"
        );
    }
    // The superluminal cell is the bisection rung's: no Newton budget
    // finishes it, and the lane kernel leaves it alone.
    let scheme = scheme_with(EOSES[0]);
    let (_, evals) = cons_to_prim_counted(&scheme.eos, &SUPERLUMINAL, None, &scheme.c2p).unwrap();
    assert!(evals as usize > scheme.c2p.max_newton);
    let mut out = [Some((Prim::at_rest(1.0, 1.0), 0))];
    cons_to_prim_lanes(&scheme.eos, &scheme.c2p, &[SUPERLUMINAL], &mut out);
    assert_eq!(out, [None]);
}

/// The histogram `recover_region` fills over the whole of a 1D field.
fn metered(scheme: &Scheme, u: &Field) -> (Result<(), SolverError>, HistSnapshot) {
    let reg = Registry::new();
    let mut prim = Field::new(*u.geom(), 5);
    let whole = Region::whole(u.geom());
    let got = recover_region(
        scheme,
        u,
        &mut prim,
        &whole,
        Some(&reg.histogram("evals")),
        None,
    );
    (got, reg.snapshot().histograms["evals"].clone())
}

/// The histogram of one `record` per scalar solve of cells `0..cells`,
/// and how many distinct evaluation counts went into it.
fn per_cell_tally(scheme: &Scheme, u: &Field, cells: usize) -> (HistSnapshot, usize) {
    let reg = Registry::new();
    let hist = reg.histogram("evals");
    let mut distinct = std::collections::BTreeSet::new();
    for i in 0..cells {
        let solved = cons_to_prim_counted(&scheme.eos, &u.get_cons(i, 0, 0), None, &scheme.c2p);
        let (_, evals) = solved.expect("metered cells recover");
        hist.record(u64::from(evals));
        distinct.insert(evals);
    }
    (reg.snapshot().histograms["evals"].clone(), distinct.len())
}

/// (d) Metering per block is metering per cell: `count`, `sum` and every
/// bucket equal the scalar tally, on a row with stragglers, atmosphere
/// cells (0 evaluations) and a bisection-rung cell — and on a row that
/// fails part-way, where only the cells before the failure count.
#[test]
fn block_metering_equals_the_per_cell_tally() {
    let geom = PatchGeom::line(3 * C2P_LANES + 5, 0.0, 1.0, 3);
    let scheme = scheme_with(EOSES[2]);
    let mut u = mixed_field(geom, &scheme.eos);
    u.set_cons(40, 0, 0, SUPERLUMINAL);
    let (got, hist) = metered(&scheme, &u);
    got.unwrap();
    let (tally, distinct) = per_cell_tally(&scheme, &u, geom.ntot(0));
    assert!(distinct >= 4, "the row should mix evaluation counts");
    assert_eq!(hist.count, geom.ntot(0) as u64);
    assert_eq!(hist, tally);

    u.set(0, 50, 0, 0, f64::NAN);
    let (got, hist) = metered(&scheme, &u);
    assert!(got.is_err());
    assert_eq!(hist, per_cell_tally(&scheme, &u, 50).0);
}

/// (e) The worst case for the lock-step kernel — a row on which it
/// retires nothing (p/ρ = 10⁻⁴, W = 30: ≈ 17 evaluations per state, the
/// few the residual noise lets through in eight or less left out) — is
/// still the scalar solver's row, bit for bit. Its cost is in
/// EXPERIMENTS "PR 19".
#[test]
fn a_row_of_stragglers_is_the_scalar_row() {
    let geom = PatchGeom::line(2 * C2P_LANES + 3, 0.0, 1.0, 3);
    for eos in EOSES {
        let scheme = scheme_with(eos);
        let us: Vec<Cons> = (0..)
            .map(|n| straggler(&eos, 1.0 + 0.1 * (0.7 * n as f64).sin()))
            .filter(|c| cons_to_prim_counted(&eos, c, None, &scheme.c2p).unwrap().1 > 8)
            .take(geom.ntot(0))
            .collect();
        let mut out = vec![Some((Prim::at_rest(1.0, 1.0), 0)); us.len()];
        cons_to_prim_lanes(&eos, &scheme.c2p, &us, &mut out);
        assert!(out.iter().all(Option::is_none), "{eos:?}: a lane retired");
        let mut u = Field::cons(geom);
        for (i, c) in us.iter().enumerate() {
            u.set_cons(i, 0, 0, *c);
        }
        let mut prim = Field::new(geom, 5);
        recover_prims(&scheme, &u, &mut prim).unwrap();
        for (i, c) in us.iter().enumerate() {
            let (ws, _) = cons_to_prim_counted(&eos, c, None, &scheme.c2p).unwrap();
            assert_eq!(
                bits(&prim_at(&prim, i, 0, 0)),
                bits(&ws),
                "{eos:?} cell {i}"
            );
        }
    }
}
