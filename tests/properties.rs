//! Property-based tests (proptest) on the core physics and data
//! structures: invariants that must hold over the whole physical regime,
//! not just hand-picked cases.

use proptest::prelude::*;
use rhrsc::eos::Eos;
use rhrsc::grid::{bc, Bc, CartDecomp, Field, PatchGeom};
use rhrsc::srhd::flux::{physical_flux, signal_speeds};
use rhrsc::srhd::recon::{Limiter, Recon};
use rhrsc::srhd::riemann::exact::ExactRiemann;
use rhrsc::srhd::riemann::RiemannSolver;
use rhrsc::srhd::{cons_to_prim, Con2PrimParams, Dir, Prim};

/// A physical primitive state over a wide regime: ρ and p spanning ten
/// decades, |v| up to Lorentz factors of ~700.
fn arb_prim() -> impl Strategy<Value = Prim> {
    (
        -5.0f64..5.0,     // log10 rho
        -6.0f64..6.0,     // log10 p
        0.0f64..0.999999, // |v|
        0.0f64..std::f64::consts::TAU,
        -1.0f64..1.0, // cos(polar)
    )
        .prop_map(|(lr, lp, v, phi, mu)| {
            let s = (1.0 - mu * mu).sqrt();
            Prim {
                rho: 10f64.powf(lr),
                p: 10f64.powf(lp),
                vel: [v * s * phi.cos(), v * s * phi.sin(), v * mu],
            }
        })
}

/// EOS choices.
fn arb_eos() -> impl Strategy<Value = Eos> {
    prop_oneof![
        Just(Eos::ideal(4.0 / 3.0)),
        Just(Eos::ideal(1.4)),
        Just(Eos::ideal(5.0 / 3.0)),
        Just(Eos::TaubMathews),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prim_cons_roundtrip(prim in arb_prim(), eos in arb_eos()) {
        let u = prim.to_cons(&eos);
        prop_assert!(u.is_finite());
        let params = Con2PrimParams::default();
        let out = cons_to_prim(&eos, &u, None, &params)
            .map_err(|e| TestCaseError::fail(format!("recovery failed: {e} for {prim:?}")))?;
        let tol = 1e-6;
        prop_assert!((out.rho - prim.rho).abs() <= tol * prim.rho,
            "rho {} vs {}", out.rho, prim.rho);
        // Pressure precision is fundamentally limited by cancellation in
        // eps = (tau + D(1-W) + ...) for cold, fast flows: the achievable
        // absolute error scales with the energy scale times machine eps.
        let p_tol = tol * prim.p + 1e-12 * (u.tau.abs() + u.d);
        prop_assert!((out.p - prim.p).abs() <= p_tol,
            "p {} vs {}", out.p, prim.p);
        for i in 0..3 {
            prop_assert!((out.vel[i] - prim.vel[i]).abs() <= 1e-6,
                "v[{i}] {} vs {}", out.vel[i], prim.vel[i]);
        }
    }

    #[test]
    fn eos_thermodynamic_consistency(prim in arb_prim(), eos in arb_eos()) {
        // h = 1 + eps + p/rho must hold by construction, cs² in (0,1).
        let h = eos.enthalpy(prim.rho, prim.p);
        let eps = eos.eps(prim.rho, prim.p);
        prop_assert!((h - (1.0 + eps + prim.p / prim.rho)).abs() <= 1e-10 * h);
        let cs2 = eos.sound_speed_sq(prim.rho, prim.p);
        prop_assert!(cs2 > 0.0 && cs2 < 1.0, "cs2 = {cs2}");
        // Pressure/eps inverse pair.
        let p2 = eos.pressure(prim.rho, eps);
        prop_assert!((p2 - prim.p).abs() <= 1e-9 * prim.p);
    }

    #[test]
    fn signal_speeds_causal_and_ordered(prim in arb_prim(), eos in arb_eos()) {
        for dir in Dir::ALL {
            let (lm, lp) = signal_speeds(&eos, &prim, dir);
            prop_assert!((-1.0..=1.0).contains(&lm), "lm = {lm}");
            prop_assert!((-1.0..=1.0).contains(&lp), "lp = {lp}");
            let vn = prim.vn(dir);
            prop_assert!(lm <= vn + 1e-12 && vn <= lp + 1e-12,
                "ordering lm={lm} vn={vn} lp={lp}");
        }
    }

    #[test]
    fn riemann_consistency_and_finiteness(
        l in arb_prim(),
        r in arb_prim(),
        eos in arb_eos(),
    ) {
        for rs in RiemannSolver::ALL {
            // Consistency: F(U, U) = F(U).
            let fc = rs.flux(&eos, &l, &l, Dir::X);
            let fp = physical_flux(&eos, &l, Dir::X);
            let scale = fp.max_norm().max(1.0);
            prop_assert!((fc - fp).max_norm() <= 1e-9 * scale, "{} consistency", rs.name());
            // Finiteness across arbitrary jumps.
            let f = rs.flux(&eos, &l, &r, Dir::X);
            prop_assert!(f.is_finite(), "{} non-finite flux", rs.name());
        }
    }

    #[test]
    fn exact_riemann_star_state_valid(
        rho_l in 0.01f64..10.0, p_l in 0.01f64..100.0, v_l in -0.9f64..0.9,
        rho_r in 0.01f64..10.0, p_r in 0.01f64..100.0, v_r in -0.9f64..0.9,
    ) {
        let l = Prim::new_1d(rho_l, v_l, p_l);
        let r = Prim::new_1d(rho_r, v_r, p_r);
        match ExactRiemann::solve(&l, &r, 5.0 / 3.0) {
            Ok(sol) => {
                prop_assert!(sol.p_star > 0.0);
                prop_assert!(sol.v_star.abs() < 1.0);
                prop_assert!(sol.rho_star_l > 0.0 && sol.rho_star_r > 0.0);
                // Wave ordering: left wave <= contact <= right wave.
                prop_assert!(sol.left_wave.head <= sol.v_star + 1e-9);
                prop_assert!(sol.v_star <= sol.right_wave.head.max(sol.right_wave.tail) + 1e-9);
                // Sampling far upstream/downstream returns the inputs.
                let sl = sol.sample(-0.999999);
                prop_assert!((sl.rho - rho_l).abs() < 1e-9);
                let sr = sol.sample(0.999999);
                prop_assert!((sr.rho - rho_r).abs() < 1e-9);
            }
            Err(_) => {
                // Vacuum generation is legitimate for strongly receding
                // flows only.
                prop_assert!(v_r - v_l > 0.0, "unexpected solve failure");
            }
        }
    }

    #[test]
    fn limiters_are_tvd(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        for lim in Limiter::ALL {
            let s = lim.slope(a, b);
            if a * b <= 0.0 {
                prop_assert_eq!(s, 0.0, "{} must vanish at extrema", lim.name());
            } else {
                // |s| <= 2 min(|a|, |b|) (TVD region) and sign matches.
                prop_assert!(s.abs() <= 2.0 * a.abs().min(b.abs()) + 1e-12);
                prop_assert!(s * a >= 0.0);
            }
        }
    }

    #[test]
    fn reconstruction_bounded_by_stencil(
        vals in prop::collection::vec(-5.0f64..5.0, 16),
    ) {
        // Monotonized schemes never create values outside the stencil's
        // range.
        for r in [Recon::Pc, Recon::Plm(Limiter::Mc), Recon::Ppm] {
            let g = r.ghost();
            let n = vals.len();
            let mut ql = vec![0.0; n + 1];
            let mut qr = vec![0.0; n + 1];
            r.pencil(&vals, g, n + 1 - g, &mut ql, &mut qr);
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for j in g..n + 1 - g {
                prop_assert!(ql[j] >= lo - 1e-9 && ql[j] <= hi + 1e-9,
                    "{} ql[{j}] = {} outside [{lo},{hi}]", r.name(), ql[j]);
                prop_assert!(qr[j] >= lo - 1e-9 && qr[j] <= hi + 1e-9,
                    "{} qr[{j}] = {}", r.name(), qr[j]);
            }
        }
    }

    #[test]
    fn decomposition_tiles_any_grid(
        px in 1usize..5, py in 1usize..4, pz in 1usize..3,
        nx in 8usize..40, ny in 6usize..30, nz in 4usize..20,
    ) {
        let d = CartDecomp { dims: [px, py, pz], periodic: [true, false, true] };
        let n = [nx.max(px), ny.max(py), nz.max(pz)];
        let mut covered = vec![0u8; n[0] * n[1] * n[2]];
        for rank in 0..d.nranks() {
            let (off, size) = d.local_span(n, rank);
            for k in 0..size[2] {
                for j in 0..size[1] {
                    for i in 0..size[0] {
                        covered[((off[2] + k) * n[1] + off[1] + j) * n[0] + off[0] + i] += 1;
                    }
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "gaps or overlaps");
        // Neighbor symmetry.
        for rank in 0..d.nranks() {
            for dim in 0..3 {
                for side in 0..2 {
                    if let Some(nb) = d.neighbor(rank, dim, side) {
                        prop_assert_eq!(d.neighbor(nb, dim, 1 - side), Some(rank));
                    }
                }
            }
        }
    }

    #[test]
    fn periodic_ghost_fill_wraps_exactly(
        n in 6usize..24,
        seed in 0u64..1000,
    ) {
        let g = PatchGeom::line(n, 0.0, 1.0, 3);
        let mut f = Field::new(g, 5);
        // Deterministic pseudo-random interior.
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        for c in 0..5 {
            for i in 0..n {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                f.set(c, 3 + i, 0, 0, (state >> 11) as f64 / (1u64 << 53) as f64);
            }
        }
        bc::fill_ghosts(&mut f, &bc::uniform(Bc::Periodic));
        for c in 0..5 {
            for gi in 0..3 {
                prop_assert_eq!(f.at(c, gi, 0, 0), f.at(c, gi + n, 0, 0));
                prop_assert_eq!(f.at(c, 3 + n + gi, 0, 0), f.at(c, 3 + gi, 0, 0));
            }
        }
    }

    #[test]
    fn boost_composition_is_associative_enough(
        v1 in -0.99f64..0.99,
        v2 in -0.99f64..0.99,
        prim in arb_prim(),
    ) {
        // Boosting by v1 then v2 equals boosting by the composed velocity
        // for purely-x motion.
        let p0 = Prim::new_1d(prim.rho, 0.0, prim.p);
        let a = p0.boosted(v1, Dir::X).boosted(v2, Dir::X);
        let v12 = (v1 + v2) / (1.0 + v1 * v2);
        let b = p0.boosted(v12, Dir::X);
        prop_assert!((a.vel[0] - b.vel[0]).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn riemann_mirror_symmetry_random(l in arb_prim(), r in arb_prim()) {
        // Mirroring x -> -x negates D/tau fluxes and preserves the normal
        // momentum flux, for arbitrary states and every solver.
        let eos = Eos::ideal(5.0 / 3.0);
        let mirror = |p: &Prim| Prim {
            rho: p.rho,
            vel: [-p.vel[0], p.vel[1], p.vel[2]],
            p: p.p,
        };
        for rs in RiemannSolver::ALL {
            let f = rs.flux(&eos, &l, &r, Dir::X);
            let fm = rs.flux(&eos, &mirror(&r), &mirror(&l), Dir::X);
            let scale = f.max_norm().max(fm.max_norm()).max(1.0);
            prop_assert!((f.d + fm.d).abs() <= 1e-9 * scale, "{} D", rs.name());
            prop_assert!((f.tau + fm.tau).abs() <= 1e-9 * scale, "{} tau", rs.name());
            prop_assert!((f.s[0] - fm.s[0]).abs() <= 1e-9 * scale, "{} Sx", rs.name());
        }
    }

    #[test]
    fn tm_gamma_eff_between_limits(prim in arb_prim()) {
        let g = Eos::TaubMathews.gamma_eff(prim.rho, prim.p);
        prop_assert!((4.0 / 3.0 - 1e-9..=5.0 / 3.0 + 1e-9).contains(&g), "gamma_eff {g}");
    }

    #[test]
    fn checkpoint_roundtrip_random(
        n in 2usize..20,
        seed in 0u64..10_000,
        time in 0.0f64..1e3,
        step in 0u64..1_000_000,
    ) {
        use rhrsc::io::checkpoint::{decode, encode, BlockRecord, GlobalCheckpoint};
        let geom = PatchGeom::line(n, 0.0, 1.0, 3);
        let mut field = Field::cons(geom);
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for v in field.raw_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = f64::from_bits((state >> 12) | 0x3ff0000000000000);
        }
        // A one-block image of the interior.
        let mut data = Vec::new();
        field.gather_box([3, 0, 0], [3 + n, 1, 1], &mut data);
        let block = BlockRecord { id: 0, level: 0, offset: [0; 3], size: geom.n, data };
        let ckp = GlobalCheckpoint {
            time,
            step,
            global_n: geom.n,
            ncomp: field.ncomp(),
            blocks: vec![block],
        };
        let out = decode(&encode(&ckp)).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(out, ckp);
    }

    #[test]
    fn max_signal_speed_bounds_all_directions(prim in arb_prim(), eos in arb_eos()) {
        let m = rhrsc::srhd::flux::max_signal_speed(&eos, &prim);
        prop_assert!(m <= 1.0);
        for dir in Dir::ALL {
            let (lm, lp) = signal_speeds(&eos, &prim, dir);
            prop_assert!(m >= lm.abs() - 1e-14 && m >= lp.abs() - 1e-14);
        }
    }

    #[test]
    fn weighted_plan_never_worse_than_static(
        n_tiles in 1usize..60,
        speed in 1.0f64..16.0,
        seed in 0u64..1000,
    ) {
        use rhrsc::runtime::{plan_static, plan_weighted};
        use rhrsc::runtime::sched::predicted_makespan;
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let costs: Vec<f64> = (0..n_tiles).map(|_| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            1.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 9.0
        }).collect();
        let speeds = [1.0, speed];
        let m_s = predicted_makespan(&plan_static(n_tiles, 2), &costs, &speeds);
        let m_w = predicted_makespan(&plan_weighted(&costs, &speeds), &costs, &speeds);
        prop_assert!(m_w <= m_s + 1e-12, "weighted {m_w} vs static {m_s}");
    }
}

// Refinement cases are expensive (full solver advances); a small
// dedicated case budget keeps the suite fast while still fuzzing the
// refinement layout.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn smr_conserves_for_random_layouts(
        lo in 2usize..20,
        width in 4usize..30,
        amp in 0.05f64..0.45,
        v in -0.7f64..0.7,
    ) {
        // Static refinement: a two-level hierarchy handed a fixed window
        // `lo..hi` of the base grid and never regridded.
        use rhrsc::solver::amr::{AmrConfig, AmrSolver};
        use rhrsc::solver::{RkOrder, Scheme};
        let n = 64;
        let hi = (lo + width).min(n - 2);
        prop_assume!(hi > lo);
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let cfg = AmrConfig { max_levels: 2, regrid_interval: 0, ..AmrConfig::default() };
        let mut smr = AmrSolver::new(
            scheme, bc::uniform(Bc::Periodic), RkOrder::Rk2, n, 0.0, 1.0, cfg,
        );
        smr.init_static(
            &move |x: [f64; 3]| {
                Prim::new_1d(1.0 + amp * (2.0 * std::f64::consts::PI * x[0]).sin(), v, 1.0)
            },
            &[&[(lo, hi)]],
        ).map_err(TestCaseError::fail)?;
        let before = smr.composite_totals();
        smr.advance_to(0.0, 0.05, 0.4).map_err(|e| {
            TestCaseError::fail(format!("solver failed: {e}"))
        })?;
        let after = smr.composite_totals();
        for c in 0..5 {
            prop_assert!(
                (after[c] - before[c]).abs() <= 1e-12 * before[c].abs().max(1.0),
                "component {c}: {} -> {} (lo={lo} hi={hi})",
                before[c], after[c]
            );
        }
    }

    #[test]
    fn prolong_restrict_roundtrip_preserves_cell_sums(
        lo in 0usize..8,
        width in 2usize..8,
        seed in 0u64..10_000,
    ) {
        // Conservative prolongation puts children at u0 ∓ s/4, so the two
        // children of every parent cell must average back to it (exactly
        // up to one rounding each) for *arbitrary* coarse data — the
        // invariant AMR regridding and ghost filling rely on.
        use rhrsc::solver::refine::{prolong_span, restrict_onto};
        let ng = 3;
        let n_c = 16;
        let geom_c = PatchGeom::line(n_c, 0.0, 1.0, ng);
        let mut src = Field::cons(geom_c);
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for v in src.raw_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = f64::from_bits((state >> 12) | 0x3ff0000000000000); // [1, 2)
        }
        let hi = lo + width;
        let n_f = 2 * width;
        let geom_f = PatchGeom::line(n_f, 0.0, 1.0, ng);
        let mut fine = Field::cons(geom_f);
        prolong_span(&src, &mut fine, ng, ng, lo, 0, n_f as i64);
        let mut back = Field::cons(geom_c);
        restrict_onto(&fine, &mut back, ng, ng, n_f, lo);
        for ic in lo..hi {
            let want = src.get_cons(ng + ic, 0, 0).to_array();
            let got = back.get_cons(ng + ic, 0, 0).to_array();
            for c in 0..5 {
                prop_assert!(
                    (want[c] - got[c]).abs() <= 1e-13 * want[c].abs().max(1.0),
                    "cell {ic} comp {c}: {} vs {}", want[c], got[c]
                );
            }
        }
    }

    #[test]
    fn amr_step_with_refluxing_conserves(
        amp in 0.05f64..0.45,
        v in -0.7f64..0.7,
        threshold in 0.05f64..0.4,
    ) {
        // Full multi-level Berger-Oliger steps with refluxing and
        // regridding on a periodic domain: the composite D/S/tau
        // integrals must hold to machine precision for any refinement
        // layout the estimator produces.
        use rhrsc::solver::amr::{AmrConfig, AmrSolver};
        use rhrsc::solver::{RkOrder, Scheme};
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let cfg = AmrConfig { threshold, ..AmrConfig::default() };
        let mut amr = AmrSolver::new(
            scheme,
            bc::uniform(Bc::Periodic),
            RkOrder::Rk3,
            64,
            0.0,
            1.0,
            cfg,
        );
        amr.init(&move |x: [f64; 3]| {
            let g = (-((x[0] - 0.5) / 0.1).powi(2)).exp();
            Prim::new_1d(1.0 + amp * g, v, 1.0 + 10.0 * amp * g)
        });
        let before = amr.composite_totals();
        amr.advance_to(0.0, 0.05, 0.4).map_err(|e| {
            TestCaseError::fail(format!("solver failed: {e}"))
        })?;
        let after = amr.composite_totals();
        for c in 0..5 {
            prop_assert!(
                (after[c] - before[c]).abs() <= 1e-12 * before[c].abs().max(1.0),
                "component {c}: {} -> {} (threshold={threshold})",
                before[c], after[c]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sfc_partitioner_covers_contiguously_and_balances(
        patches in prop::collection::vec((0usize..4, 2usize..33), 48),
        take in 1usize..49,
        nparts in 1usize..9,
    ) {
        // The distributed-AMR partitioner over randomized hierarchies
        // (patch = (level, n/2 interior pairs)): every patch lands in
        // exactly one segment, segments are contiguous in SFC order, and
        // the heaviest rank carries at most the ideal share plus one
        // patch (the tight bound for contiguous partitions).
        use rhrsc::solver::amr_dist::{partition_contiguous, patch_cost};
        let costs: Vec<f64> = patches[..take]
            .iter()
            .map(|&(l, half_n)| patch_cost(l, 2 * half_n))
            .collect();
        let parts = partition_contiguous(&costs, nparts);
        prop_assert_eq!(parts.len(), costs.len(), "every patch assigned once");
        for w in parts.windows(2) {
            prop_assert!(w[0] <= w[1], "segments must be contiguous: {:?}", parts);
        }
        let mut per = vec![0.0f64; nparts];
        for (i, &p) in parts.iter().enumerate() {
            prop_assert!(p < nparts, "part index {p} out of range");
            per[p] += costs[i];
        }
        let total: f64 = costs.iter().sum();
        let max_item = costs.iter().cloned().fold(0.0, f64::max);
        let bound = total / nparts as f64 + max_item + 1e-9 * total.max(1.0);
        for (p, &c) in per.iter().enumerate() {
            prop_assert!(
                c <= bound,
                "part {p} carries {c} > ideal {} + heaviest patch {max_item}",
                total / nparts as f64
            );
        }
    }

    #[test]
    fn sfc_key_orders_parents_before_children(
        lo in 0usize..1000,
        level in 0usize..7,
    ) {
        // A patch's SFC key never exceeds its children's: ancestors sort
        // first, so contiguous segments keep subtrees together.
        use rhrsc::solver::amr_dist::sfc_key;
        let max_levels = 8;
        let parent = sfc_key(level, lo, max_levels);
        for child_lo in [2 * lo, 2 * lo + 2] {
            let child = sfc_key(level + 1, child_lo, max_levels);
            prop_assert!(parent <= child, "{parent:?} > {child:?}");
        }
    }
}
