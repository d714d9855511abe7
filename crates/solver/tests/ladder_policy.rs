//! The escalation policy of [`rhrsc_solver::ladder::resilient_advance`],
//! pinned on a mock state: a scalar clock advanced by scripted per-attempt
//! outcomes. Each scenario runs on one rank and on two — there the script
//! plays on the last rank only while rank 0 never fails — and asserts the
//! exact sequence of CFL scales and the books the ladder kept, identical
//! on every rank: the agreement round, not the local outcome, picks the
//! branch, and the ladder itself books every rung it climbs into the
//! mock's [`ResilienceStats`] and registry.

use rhrsc_comm::{run, NetworkModel, Rank};
use rhrsc_runtime::Registry;
use rhrsc_solver::ladder::{
    resilient_advance, Recoverable, ResilienceConfig, ResilienceStats, RestoreCause,
    RESTART_CFL_SCALE,
};
use rhrsc_solver::scheme::SolverError;
use std::collections::VecDeque;

/// Scripted result of one step attempt.
#[derive(Clone, Copy)]
enum Attempt {
    Clean,
    /// An ordinary step failure (a short halo).
    Fail,
    /// A peer looked silent to this rank (it is not).
    Suspect,
}

use Attempt::{Clean, Fail, Suspect};

const DT: f64 = 0.125;

/// A clock `x` that should always equal the ladder's `t`.
struct Mock {
    script: VecDeque<Attempt>,
    /// Report silent corruption in the `pre_step` of this step.
    sdc_at_step: Option<u64>,
    x: f64,
    backup: f64,
    /// `(x, step)` of the initial state — the only restore target.
    armed: (f64, u64),
    step: u64,
    stats: ResilienceStats,
    reg: Registry,
    scales: Vec<f64>,
}

impl Mock {
    fn new(script: &[Attempt]) -> Self {
        Mock {
            script: script.iter().copied().collect(),
            sdc_at_step: None,
            x: f64::NAN,
            backup: f64::NAN,
            armed: (f64::NAN, 0),
            step: 0,
            stats: ResilienceStats::default(),
            reg: Registry::new(),
            scales: Vec::new(),
        }
    }
}

impl Recoverable for Mock {
    fn step_no(&self) -> u64 {
        self.step
    }

    fn arm(&mut self, _rank: &mut Rank, t: f64) -> Result<(), SolverError> {
        self.x = t;
        self.armed = (t, self.step);
        Ok(())
    }

    fn pre_step(&mut self, _rank: &mut Rank, t: f64) -> Result<bool, SolverError> {
        assert_eq!(self.x, t, "state and ladder clock diverged");
        Ok(self.sdc_at_step.take_if(|s| *s == self.step).is_some())
    }

    fn try_step(
        &mut self,
        _rank: &mut Rank,
        t: f64,
        t_end: f64,
        cfl_scale: f64,
    ) -> Result<f64, SolverError> {
        self.scales.push(cfl_scale);
        self.backup = self.x;
        let dt = (DT * cfl_scale).min(t_end - t);
        match self.script.pop_front().unwrap_or(Clean) {
            Clean => {
                self.x += dt;
                Ok(dt)
            }
            Fail => {
                self.x = f64::NAN; // half-updated
                Err(SolverError::HaloMismatch {
                    expected: 1,
                    got: 0,
                })
            }
            Suspect => Err(SolverError::PeerSuspect { rank: 0 }),
        }
    }

    fn rollback(&mut self) {
        self.x = self.backup;
    }

    fn commit(&mut self, _rank: &mut Rank, t: f64, _dt: f64) -> Result<(), SolverError> {
        assert_eq!(self.x, t, "committed state is not at the ladder's time");
        self.step += 1;
        Ok(())
    }

    fn restore(&mut self, _rank: &mut Rank, _cause: RestoreCause) -> Result<f64, SolverError> {
        (self.x, self.step) = self.armed;
        Ok(self.x)
    }

    fn shrink(&mut self, _rank: &mut Rank) -> Result<f64, SolverError> {
        unreachable!("no rank dies in these scenarios")
    }

    fn stats(&mut self) -> &mut ResilienceStats {
        &mut self.stats
    }

    fn metrics(&self) -> Option<&Registry> {
        Some(&self.reg)
    }
}

/// A run with the given budgets and a restore tier armed (the memory
/// tier's cadence is all the ladder reads of it).
fn budget(max_step_retries: usize, max_restarts: usize) -> ResilienceConfig {
    ResilienceConfig {
        max_step_retries,
        max_restarts,
        checkpoint_dir: None,
        local_interval: 1,
        ..ResilienceConfig::default()
    }
}

/// The rungs the ladder booked on one rank.
#[derive(Debug, Default, PartialEq, Eq)]
struct Books {
    retries: u64,
    retried_steps: u64,
    restarts: u64,
    sdc_restores: u64,
    false_suspicions: u64,
}

/// What one rank saw: the advance result, the books and the scales.
type Seen = (Result<(), SolverError>, Books, Vec<f64>);

/// Read the books of `mock`, checking on the way that every rung booked
/// in the ledger was booked under its counter too, and that every
/// attempt's agreement round was timed.
fn books(mock: &Mock) -> Books {
    let count = |name| mock.reg.counter(name).get();
    let st = &mock.stats;
    assert_eq!(st.retries, count("driver.retries"));
    assert_eq!(st.restarts, count("driver.restarts"));
    assert_eq!(st.false_suspicions, count("driver.false_suspicions"));
    assert_eq!((st.shrinks, st.ranks_lost), (0, 0));
    let agreed = mock.reg.snapshot().histograms["sub.liveness.agree"].count;
    assert_eq!(agreed, mock.scales.len() as u64, "one round per attempt");
    Books {
        retries: st.retries,
        retried_steps: st.retried_steps,
        restarts: st.restarts,
        sdc_restores: count("sdc.restores"),
        false_suspicions: st.false_suspicions,
    }
}

/// Run `make(scripted)` under `cfg` on 1 and on 2 ranks (only the last
/// rank gets `scripted = true`), advance `0 → 1`, and hand each
/// universe's per-rank observations to `check`.
fn on_one_and_two_ranks(
    make: impl Fn(bool) -> Mock + Sync,
    cfg: &ResilienceConfig,
    check: impl Fn(&[Seen]),
) {
    for nranks in [1usize, 2] {
        let seen = run(nranks, NetworkModel::ideal(), |rank| {
            let mut mock = make(rank.rank() == nranks - 1);
            let out = resilient_advance(&mut mock, rank, 0.0, 1.0, cfg);
            (out, books(&mock), mock.scales)
        });
        check(&seen);
    }
}

/// Every rank finished, booked exactly `books` and saw exactly `scales`
/// (the scales' listed prefix, then 1.0 to the end).
fn assert_all_ranks(seen: &[Seen], books: &Books, scales: &[f64]) {
    for (r, (out, bk, sc)) in seen.iter().enumerate() {
        assert!(out.is_ok(), "rank {r}: {out:?}");
        assert_eq!(bk, books, "rank {r}: books");
        assert_eq!(&sc[..scales.len()], scales, "rank {r}: scales");
        assert!(sc[scales.len()..].iter().all(|&s| s == 1.0), "rank {r}");
    }
}

#[test]
fn retries_halve_the_cfl_and_successes_double_it_back() {
    for k in 1..=3usize {
        let script = vec![Fail; k];
        // 1, ½, … , ½^k (commits), then ×2 per commit, capped at 1.
        let mut scales: Vec<f64> = (0..=k).map(|a| 0.5f64.powi(a as i32)).collect();
        scales.extend((1..k).rev().map(|a| 0.5f64.powi(a as i32)));
        let books = Books {
            retries: k as u64,
            retried_steps: 1,
            ..Books::default()
        };
        on_one_and_two_ranks(
            |scripted| Mock::new(if scripted { &script } else { &[] }),
            &budget(3, 0),
            |seen| assert_all_ranks(seen, &books, &scales),
        );
    }
}

#[test]
fn exhausted_retries_restore_at_quarter_cfl_and_spend_budget() {
    let books = Books {
        retries: 1,
        retried_steps: 1,
        restarts: 1,
        ..Books::default()
    };
    on_one_and_two_ranks(
        |scripted| Mock::new(if scripted { &[Fail, Fail] } else { &[] }),
        &budget(1, 1),
        |seen| assert_all_ranks(seen, &books, &[1.0, 0.5, RESTART_CFL_SCALE, 0.5]),
    );
}

#[test]
fn spent_budget_returns_the_steps_own_error() {
    on_one_and_two_ranks(
        |scripted| Mock::new(if scripted { &[Fail; 4] } else { &[] }),
        &budget(1, 1),
        |seen| {
            let last = seen.len() - 1;
            for (r, (out, books, scales)) in seen.iter().enumerate() {
                // The failing rank reports its own error; a clean peer
                // gets the stand-in.
                match out {
                    Err(SolverError::HaloMismatch { .. }) => assert_eq!(r, last),
                    Err(SolverError::Checkpoint { .. }) => assert_ne!(r, last),
                    other => panic!("rank {r}: {other:?}"),
                }
                // Retry, restore, retry: the step after the restore is
                // a fresh step, so it counts as a second retried one.
                let want = Books {
                    retries: 2,
                    retried_steps: 2,
                    restarts: 1,
                    ..Books::default()
                };
                assert_eq!(books, &want, "rank {r}");
                assert_eq!(scales, &[1.0, 0.5, 0.25, 0.125], "rank {r}");
            }
        },
    );
    // Same when no restore tier was ever armed, budget or not.
    let unarmed = ResilienceConfig {
        local_interval: 0,
        ..budget(0, 5)
    };
    on_one_and_two_ranks(
        |scripted| Mock::new(if scripted { &[Fail] } else { &[] }),
        &unarmed,
        |seen| {
            for (out, books, scales) in seen {
                assert!(out.is_err());
                assert_eq!(books, &Books::default());
                assert_eq!(scales, &[1.0]);
            }
        },
    );
}

#[test]
fn sdc_restores_without_spending_budget_or_cfl() {
    let books = Books {
        sdc_restores: 1,
        ..Books::default()
    };
    on_one_and_two_ranks(
        |scripted| Mock {
            sdc_at_step: scripted.then_some(2),
            ..Mock::new(&[])
        },
        &budget(3, 0),
        |seen| {
            // No retry, no backoff, and a restore despite a zero budget.
            assert_all_ranks(seen, &books, &[]);
            // Steps 0, 1, the condemned attempt of step 2, then all 8
            // steps again from the armed state.
            assert!(seen.iter().all(|(_, _, scales)| scales.len() == 3 + 8));
        },
    );
}

#[test]
fn false_suspicion_is_an_ordinary_retry() {
    let books = Books {
        retries: 1,
        retried_steps: 1,
        false_suspicions: 1,
        ..Books::default()
    };
    on_one_and_two_ranks(
        |scripted| Mock::new(if scripted { &[Suspect] } else { &[] }),
        &budget(3, 0),
        |seen| assert_all_ranks(seen, &books, &[1.0, 0.5]),
    );
}
