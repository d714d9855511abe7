//! The message path end to end — send, match, settle, and the one
//! reduce + broadcast tree built from them — through the public API:
//! what a healthy universe computes, what a dead rank does to the
//! survivors' collectives, what a damaged payload does to each receive,
//! and what a shrink does to traffic from before it. The liveness
//! tallies are read where a run reads them: the `comm.liveness.*`
//! counters of an attached registry.

use rhrsc_comm::{run, run_with_faults, CommError, FaultPlan, NetworkModel, Rank, SUSPECT_FLAG};
use rhrsc_runtime::metrics::Registry;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Attach a registry of `r`'s own; [`tally`] reads its liveness counters.
fn tallies(r: &mut Rank) -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    r.set_metrics(reg.clone());
    reg
}

/// The `comm.liveness.<name>` counter (0 while never bumped).
fn tally(reg: &Registry, name: &str) -> u64 {
    let counters = reg.snapshot().counters;
    *counters.get(&format!("comm.liveness.{name}")).unwrap_or(&0)
}

/// Every collective of a healthy universe equals the serial fold over the
/// ranks in live order, bit for bit, on every rank. The contributions are
/// small dyadic rationals, so the sums are exact and the tree's
/// association cannot show; a second sum of inexact terms only has to be
/// the same bits everywhere (every rank returns the root's broadcast).
#[test]
fn healthy_collectives_equal_the_serial_fold() {
    let x = |r: usize| 0.25 * ((r * 7 + 3) % 11) as f64 - 1.0;
    let v = |r: usize| [x(r), -x(r), (r * r) as f64];
    for p in 1..=9usize {
        let out = run(p, NetworkModel::ideal(), |r| {
            let me = r.rank();
            (
                r.allreduce(&[x(me)], |a, b| a + b)[0],
                r.allreduce_min(x(me)),
                r.allreduce(&v(me), |a, b| a + b),
                r.agree_max(x(me)),
                r.allreduce(&[0.1 * me as f64], |a, b| a + b)[0],
            )
        });
        let fold = |f: fn(f64, f64) -> f64, of: &dyn Fn(usize) -> f64| {
            (1..p).fold(of(0), |acc, r| f(acc, of(r))).to_bits()
        };
        for (rank, (sum, min, vec, max, inexact)) in out.iter().enumerate() {
            let at = format!("rank {rank} of {p}");
            assert_eq!(sum.to_bits(), fold(|a, b| a + b, &x), "sum on {at}");
            assert_eq!(min.to_bits(), fold(f64::min, &x), "min on {at}");
            assert_eq!(max.to_bits(), fold(f64::max, &x), "agree_max on {at}");
            for (c, got) in vec.iter().enumerate() {
                let want = fold(|a, b| a + b, &|r| v(r)[c]);
                assert_eq!(got.to_bits(), want, "component {c} on {at}");
            }
            assert_eq!(inexact.to_bits(), out[0].4.to_bits(), "one result on {at}");
        }
    }
}

/// One rank returns without entering any collective. Every survivor's
/// `agree_max` carries the suspect flag, its next `allreduce` returns
/// inside the tree's deepest patience instead of hanging, and the rank
/// that waited on the dead one — its reduce parent, or for a dead root its
/// first broadcast child — has booked a suspicion.
#[test]
fn a_dead_rank_flags_every_survivor_and_never_hangs_the_tree() {
    let deadline = Duration::from_millis(20);
    let model = NetworkModel::ideal().with_suspect_after(deadline);
    for p in [2usize, 3, 5, 8] {
        let depth = usize::BITS - (p - 1).leading_zeros();
        let bound = deadline * (2 * depth + 2) + Duration::from_millis(500);
        for dead in 0..p {
            let out = run(p, model, |r| {
                if r.rank() == dead {
                    return None;
                }
                let reg = tallies(r);
                let flag = r.agree_max(0.0);
                let t0 = Instant::now();
                r.allreduce(&[1.0], |a, b| a + b);
                Some((flag, t0.elapsed(), tally(&reg, "suspicions")))
            });
            let waiter = if dead == 0 {
                p.next_power_of_two() >> 1
            } else {
                dead & (dead - 1)
            };
            for (rank, got) in out.iter().enumerate() {
                let Some((flag, took, suspicions)) = *got else {
                    continue;
                };
                let at = format!("rank {rank} of {p} with rank {dead} dead");
                assert!(flag >= SUSPECT_FLAG, "{at}: agree_max returned {flag}");
                assert!(took <= bound, "{at}: allreduce took {took:?}");
                assert!(
                    rank != waiter || suspicions > 0,
                    "{at}: no suspicion booked"
                );
            }
        }
    }
}

/// A halo payload truncated in flight (retry tier off): plain `recv` hands
/// the damaged payload over, `recv_deadline` turns it into a typed error,
/// and each books exactly one escalation.
#[test]
fn a_damaged_payload_is_handed_over_by_recv_and_typed_by_recv_deadline() {
    let plan = FaultPlan {
        seed: 5,
        msg_truncate_prob: 1.0,
        ..FaultPlan::disabled()
    };
    let out = run_with_faults(2, NetworkModel::ideal(), Some(plan), |r| {
        if r.rank() == 0 {
            r.send(1, 1, &[1.0, 2.0, 3.0, 4.0]);
            r.send(1, 2, &[1.0, 2.0, 3.0, 4.0]);
            return None;
        }
        let reg = tallies(r);
        let handed = r.recv(0, 1);
        let after_recv = tally(&reg, "crc_escalations");
        let typed = r.recv_deadline(0, 2);
        Some((handed, after_recv, typed, tally(&reg, "crc_escalations")))
    });
    let (handed, after_recv, typed, after_both) = out[1].clone().expect("the receiver's report");
    assert_eq!(handed, vec![1.0, 2.0], "recv hands the surviving half over");
    assert_eq!(after_recv, 1, "recv books the escalation");
    assert_eq!(typed, Err(CommError::CorruptPayload { from: 0, tag: 2 }));
    assert_eq!(after_both, 2, "recv_deadline books one more");
}

/// A message stamped before a shrink and arriving after it is dropped at
/// the door and counted once; its sender, confirmed dead, fails fast. The
/// evicted rank is held at a barrier until the survivors have shrunk, so
/// the arrival order is forced rather than slept for.
#[test]
fn a_stale_epoch_message_is_dropped_and_counted_once() {
    let model = NetworkModel::ideal().with_suspect_after(Duration::from_millis(40));
    let gate = Barrier::new(2);
    let out = run(4, model, |r| {
        if r.rank() == 3 {
            gate.wait();
            r.send(0, 5, &[1.0]);
            gate.wait();
            return None;
        }
        let reg = tallies(r);
        let shrink = (r.agree_max(0.0), r.suspicion_consensus(), r.epoch());
        if r.rank() != 0 {
            return Some((shrink, None));
        }
        gate.wait();
        gate.wait();
        let got = r.recv_deadline(3, 5);
        Some((shrink, Some((got, tally(&reg, "stale_dropped")))))
    });
    for (rank, report) in out.iter().enumerate().take(3) {
        let ((flag, verdict, epoch), _) = report.as_ref().expect("a survivor's report");
        assert!(
            *flag >= SUSPECT_FLAG,
            "rank {rank}: agree_max returned {flag}"
        );
        assert_eq!((*verdict, *epoch), (Ok(1 << 3), 1), "rank {rank} shrank");
    }
    let (got, dropped) = out[0].clone().and_then(|r| r.1).expect("rank 0's receive");
    assert!(
        matches!(got, Err(CommError::PeerSuspect { rank: 3, waited }) if waited.is_zero()),
        "a confirmed-dead peer fails fast, got {got:?}"
    );
    assert_eq!(dropped, 1, "the pre-shrink message is dropped once");
}
