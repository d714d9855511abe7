//! The one-thread-per-rank rule of a virtual-time universe: ranks that
//! fit the host's cores compute their `work` sections in parallel, a
//! universe with more ranks than cores runs one section at a time on its
//! CPU token, and a section that panics while holding the token hands it
//! on, so the panic reaches `run`'s caller instead of hanging the peers.

use rhrsc_comm::{host_cores, run, NetworkModel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tests of this file run one at a time: (a) times a parallel section,
/// and the other two keep every core busy.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn model() -> NetworkModel {
    NetworkModel::virtual_cluster(Duration::from_micros(10), 10e9)
}

fn spin(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A universe one rank larger than the host's core count, or `None` (with
/// the reason printed) when that exceeds the 64-rank limit.
fn oversubscribed() -> Option<usize> {
    let n = host_cores() + 1;
    if n > 64 {
        println!("skipped: {} cores leave no oversubscribed universe", n - 1);
        return None;
    }
    Some(n)
}

/// (a) Two ranks on a host with two cores spin 30 ms each in one section:
/// the sections overlap in wall time, and each is charged in full to its
/// rank's virtual clock. Best of three, so one scheduling hiccup on a
/// shared host does not fail it; serialized sections could never finish
/// under 60 ms.
#[test]
fn ranks_that_fit_the_host_compute_in_parallel() {
    if host_cores() < 2 {
        println!("skipped: the host has {} core", host_cores());
        return;
    }
    let _serial = serial();
    let section = Duration::from_millis(30);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let vtimes = run(2, model(), |r| {
            r.work(|| spin(section));
            r.vtime()
        });
        best = best.min(t0.elapsed());
        for (i, v) in vtimes.into_iter().enumerate() {
            assert!(v >= section.as_secs_f64(), "rank {i} charged {v} s");
        }
    }
    assert!(
        best < section.mul_f64(1.6),
        "two 30 ms sections took {best:?}: they did not overlap"
    );
}

/// (b) With more ranks than cores, no two sections are ever in flight.
#[test]
fn an_oversubscribed_universe_runs_one_section_at_a_time() {
    let Some(n) = oversubscribed() else { return };
    let _serial = serial();
    let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let vtimes = run(n, model(), |r| {
        for _ in 0..5 {
            r.work(|| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                spin(Duration::from_millis(2));
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
        }
        r.vtime()
    });
    assert_eq!(
        peak.load(Ordering::SeqCst),
        1,
        "{n} ranks on {} cores computed concurrently",
        host_cores()
    );
    assert!(vtimes.iter().all(|&v| v >= 0.010), "{vtimes:?}");
}

/// (c) A section that panics while holding the token releases it: the
/// other ranks finish their sections and `run` propagates the panic.
#[test]
fn a_panicking_section_releases_the_token() {
    let Some(n) = oversubscribed() else { return };
    let _serial = serial();
    let (tx, rx) = std::sync::mpsc::channel();
    let universe = std::thread::spawn(move || {
        let out = std::panic::catch_unwind(|| {
            run(n, model(), |r| {
                let me = r.rank();
                for section in 0..8 {
                    r.work(|| {
                        spin(Duration::from_millis(1));
                        assert!(me != 0 || section != 3, "rank 0 dies in section 3");
                    });
                }
            })
        });
        let _ = tx.send(out.is_err());
    });
    let propagated = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("`run` did not return within 10 s: the token stayed taken");
    universe
        .join()
        .expect("the panic was caught inside the thread");
    assert!(propagated, "the rank's panic did not reach `run`'s caller");
}
