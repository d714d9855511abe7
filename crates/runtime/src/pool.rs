//! Work-stealing thread pool.
//!
//! A classic Chase–Lev work-stealing pool built from `crossbeam-deque`:
//! each worker owns a LIFO deque, new external work lands in a shared
//! injector, and idle workers steal — first batches from the injector,
//! then singles from siblings — before parking on a condition variable.
//! The park/wake protocol follows the lost-wakeup-free pattern from
//! *Rust Atomics and Locks*: waiters re-check the queues under the lock,
//! and submitters notify after publishing work.

use crate::future::{promise, Future};
use crossbeam_deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Directory of live pools' shared state, so a sampler that holds no pool
/// ([`global_queue_depth`]) can still read the process-wide backlog. Weak
/// entries are purged lazily.
static POOL_DIRECTORY: Mutex<Vec<Weak<Shared>>> = Mutex::new(Vec::new());

/// Jobs currently queued (not yet claimed by a worker) across every live
/// pool in the process.
pub fn global_queue_depth() -> usize {
    let mut dir = POOL_DIRECTORY.lock();
    dir.retain(|w| w.strong_count() > 0);
    dir.iter()
        .filter_map(Weak::upgrade)
        .map(|s| s.injector.len())
        .sum()
}

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size work-stealing thread pool.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
}

impl WorkStealingPool {
    /// Spawn a pool with `nthreads` workers.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0);
        let workers: Vec<Worker<Job>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(idx, worker)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rhrsc-worker-{idx}"))
                    .spawn(move || worker_loop(idx, worker, shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        {
            let mut dir = POOL_DIRECTORY.lock();
            dir.retain(|w| w.strong_count() > 0);
            dir.push(Arc::downgrade(&shared));
        }
        WorkStealingPool {
            shared,
            handles,
            nthreads,
        }
    }

    /// Number of worker threads.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Submit a job, returning a future for its result. If the job
    /// panics, the future is poisoned: `get` re-raises the panic message
    /// on the waiting thread instead of blocking forever.
    pub fn spawn<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (p, fut) = promise();
        self.inject(f, move |r| match r {
            Ok(v) => p.set(v),
            Err(e) => p.poison(format!("pool task panicked: {}", panic_msg(e))),
        });
        fut
    }

    /// Queue `work`, then `finish` with its result (or its panic).
    fn inject<R: 'static>(
        &self,
        work: impl FnOnce() -> R + Send + 'static,
        finish: impl FnOnce(std::thread::Result<R>) + Send + 'static,
    ) {
        self.shared.injector.push(Box::new(move || {
            finish(catch_unwind(AssertUnwindSafe(work)))
        }));
        // Publish-then-notify under the sleep lock so parked workers
        // cannot miss the wakeup. One job needs one worker: notify_one
        // avoids the O(threads²) wakeup storm par_for's helper fan-out
        // would otherwise cause (notify_all remains only for shutdown;
        // the workers' timed re-check covers any straggler).
        let _g = self.shared.sleep_lock.lock();
        self.shared.wake.notify_one();
    }

    /// Blocking data-parallel for-loop: run `f(i)` for every `i in 0..n`,
    /// distributed over the pool in contiguous chunks of `chunk` indices.
    /// Returns once every iteration has completed; panics in `f` propagate
    /// to the caller.
    ///
    /// The *calling thread participates*: chunks are claimed from a shared
    /// counter by the caller and by up to `nthreads` helper jobs, so
    /// `par_for` is deadlock-free even when invoked from inside a pool
    /// worker or on a single-threaded pool.
    pub fn par_for<'env>(&self, n: usize, chunk: usize, f: &(dyn Fn(usize) + Sync + 'env)) {
        if n == 0 {
            return;
        }
        let chunk = chunk.max(1);
        let ntasks = n.div_ceil(chunk);
        let nhelpers = self.nthreads.min(ntasks.saturating_sub(1));
        let latch = Arc::new(Latch::new(nhelpers));
        let cursor = Arc::new(AtomicUsize::new(0));
        // SAFETY: `par_for` blocks on the latch until every helper has
        // finished, and runs the remaining chunks itself, so `f` (and
        // everything it borrows) strictly outlives all uses of the
        // transmuted reference. This is the standard scoped-parallelism
        // pattern (cf. rayon's scope) expressed on our own pool.
        let f_static: &(dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(f) };
        let fr = SendPtr(f_static as *const (dyn Fn(usize) + Sync));
        let run_chunks = move |fr: &SendPtr, cursor: &AtomicUsize| {
            let f = unsafe { &*fr.0 };
            loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= ntasks {
                    break;
                }
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                for i in lo..hi {
                    f(i);
                }
            }
        };
        for _ in 0..nhelpers {
            let latch = latch.clone();
            let cursor = cursor.clone();
            let fr = SendPtr(fr.0);
            self.inject(
                move || run_chunks(&fr, &cursor),
                move |r| latch.count_down(r.err().map(panic_msg)),
            );
        }
        // Caller participates.
        let own = catch_unwind(AssertUnwindSafe(|| run_chunks(&fr, &cursor)));
        let helper_err = latch.wait();
        if let Err(e) = own {
            panic!("par_for task panicked: {}", panic_msg(e));
        }
        if let Some(msg) = helper_err {
            panic!("par_for task panicked: {msg}");
        }
    }

    /// This pool's share of [`global_queue_depth`].
    #[cfg(test)]
    fn queue_depth(&self) -> usize {
        self.shared.injector.len()
    }
}

struct SendPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for SendPtr {}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.sleep_lock.lock();
            self.shared.wake.notify_all();
        }
        // The last owner may be one of the pool's own tasks (a job that
        // holds an `Arc` of the pool): a thread cannot join itself, so
        // that worker's handle is dropped — detached — instead. It sees
        // `shutdown` and exits as soon as the dropping task returns.
        let me = std::thread::current().id();
        for h in self.handles.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

/// The message of a caught panic payload (`&str` or `String`).
pub fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(idx: usize, local: Worker<Job>, shared: Arc<Shared>) {
    loop {
        if let Some(job) = next_job(idx, &local, &shared) {
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        // Park. Re-check under the lock to avoid lost wakeups; a timed
        // wait is belt-and-braces against scheduler edge cases.
        let mut guard = shared.sleep_lock.lock();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if !shared.injector.is_empty() {
            continue;
        }
        shared.wake.wait_for(&mut guard, Duration::from_millis(5));
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn next_job(idx: usize, local: &Worker<Job>, shared: &Shared) -> Option<Job> {
    if let Some(job) = local.pop() {
        return Some(job);
    }
    // Refill from the injector in batches.
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            crossbeam_deque::Steal::Success(job) => return Some(job),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => break,
        }
    }
    // Steal from siblings.
    for (i, st) in shared.stealers.iter().enumerate() {
        if i == idx {
            continue;
        }
        loop {
            match st.steal() {
                crossbeam_deque::Steal::Success(job) => return Some(job),
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
    }
    None
}

/// Countdown latch that also carries the first panic message.
struct Latch {
    remaining: AtomicUsize,
    lock: Mutex<Option<String>>,
    cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(n),
            lock: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self, err: Option<String>) {
        if let Some(e) = err {
            let mut g = self.lock.lock();
            g.get_or_insert(e);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Option<String> {
        let mut g = self.lock.lock();
        while self.remaining.load(Ordering::Acquire) != 0 {
            self.cv.wait(&mut g);
        }
        g.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn last_arc_dropped_inside_a_task_joins_every_other_worker() {
        use std::sync::mpsc::channel;
        let pool = Arc::new(WorkStealingPool::new(3));
        let shared = Arc::downgrade(&pool.shared);
        let (go_tx, go_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<usize>();
        let held = pool.clone();
        // Not `spawn`: its promise would outlive the drop below.
        let task = move || {
            // Wait until the test thread has given up its reference, so
            // this drop is the one that runs `Drop for WorkStealingPool`.
            go_rx.recv().expect("test thread went away");
            drop(held);
            // Every worker owns one `Arc<Shared>` until it exits: after
            // the drop only the worker running this task may be left.
            done_tx.send(shared.strong_count()).ok();
        };
        pool.inject(task, |_| ());
        drop(pool);
        go_tx.send(()).expect("task went away");
        let live = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("dropping the pool from its own worker panicked or hung");
        assert_eq!(live, 1, "the other workers were not joined");
    }

    #[test]
    fn spawn_returns_results() {
        let pool = WorkStealingPool::new(4);
        let futs: Vec<_> = (0..100).map(|i| pool.spawn(move || i * i)).collect();
        let sum: i64 = futs.into_iter().map(|f| f.get()).sum();
        assert_eq!(sum, (0..100).map(|i| i * i).sum::<i64>());
    }

    #[test]
    fn par_for_covers_every_index_once() {
        let pool = WorkStealingPool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.par_for(n, 64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_borrowed_mutable_data_via_chunks() {
        // The idiomatic borrowed-data usage: index into disjoint cells.
        let pool = WorkStealingPool::new(3);
        let data: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        pool.par_for(data.len(), 16, &|i| {
            data[i].store(i as u64 + 1, Ordering::Relaxed);
        });
        for (i, d) in data.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), i as u64 + 1);
        }
    }

    #[test]
    fn par_for_zero_iterations_is_noop() {
        let pool = WorkStealingPool::new(2);
        pool.par_for(0, 8, &|_| panic!("must not run"));
    }

    #[test]
    fn par_for_propagates_panics() {
        let pool = WorkStealingPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.par_for(10, 1, &|i| {
                if i == 7 {
                    panic!("boom at 7");
                }
            });
        }));
        let msg = panic_msg(r.unwrap_err());
        assert!(msg.contains("boom at 7"), "{msg}");
    }

    #[test]
    fn spawn_panicking_job_resolves_with_message() {
        // Regression: spawn used to leave the future pending forever when
        // the job panicked (the worker's catch_unwind swallowed it before
        // the promise was set). The future must now resolve promptly by
        // re-raising the panic message in the waiter.
        let pool = WorkStealingPool::new(2);
        let f = pool.spawn(|| -> i32 { panic!("boom-spawn") });
        let waited = catch_unwind(AssertUnwindSafe(move || {
            f.get_timeout(Duration::from_secs(5))
        }));
        let msg = panic_msg(waited.expect_err("the waiter must re-raise the panic"));
        assert!(msg.contains("boom-spawn"), "{msg}");
        // The pool remains usable afterwards.
        assert_eq!(pool.spawn(|| 5).get(), 5);
    }

    #[test]
    fn work_is_distributed() {
        // With many blocking-ish tasks, more than one worker should run them.
        let pool = WorkStealingPool::new(4);
        let ids = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let futs: Vec<_> = (0..64)
            .map(|_| {
                let ids = ids.clone();
                pool.spawn(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    ids.lock().insert(std::thread::current().id());
                })
            })
            .collect();
        for f in futs {
            f.get();
        }
        assert!(ids.lock().len() >= 2, "expected multiple workers");
    }

    #[test]
    fn drop_joins_cleanly_with_pending_futures_resolved() {
        let pool = WorkStealingPool::new(2);
        let f = pool.spawn(|| 99);
        assert_eq!(f.get(), 99);
        drop(pool); // must not hang
    }

    #[test]
    fn nested_spawn_from_worker() {
        let pool = Arc::new(WorkStealingPool::new(3));
        let p2 = pool.clone();
        let f = pool.spawn(move || {
            let inner: Vec<_> = (0..8).map(|i| p2.spawn(move || i + 1)).collect();
            inner.into_iter().map(|f| f.get()).sum::<i32>()
        });
        assert_eq!(f.get(), 36);
    }

    #[test]
    fn queue_depth_sees_unclaimed_backlog() {
        // One worker, blocked on a gate: everything submitted after the
        // blocker stays in the injector and must be visible as depth.
        let pool = WorkStealingPool::new(1);
        let gate = Arc::new(Latch::new(1));
        let g2 = gate.clone();
        let blocker = pool.spawn(move || g2.wait());
        // Give the worker a moment to claim the blocker.
        std::thread::sleep(Duration::from_millis(20));
        let futs: Vec<_> = (0..8).map(|i| pool.spawn(move || i)).collect();
        assert!(
            pool.queue_depth() >= 1,
            "expected queued backlog, got {}",
            pool.queue_depth()
        );
        assert!(global_queue_depth() >= pool.queue_depth());
        gate.count_down(None);
        blocker.get();
        for f in futs {
            f.get();
        }
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn drop_with_queued_jobs_does_not_hang() {
        // Shutdown race: a single worker is pinned on a gate while more
        // jobs sit in the injector. Dropping the pool must release the
        // gate path and join without deadlocking, and the never-run jobs'
        // futures must be poisoned (dropped promises), not left pending.
        let pool = WorkStealingPool::new(1);
        let gate = Arc::new(Latch::new(1));
        let g2 = gate.clone();
        let _blocker = pool.spawn(move || g2.wait());
        std::thread::sleep(Duration::from_millis(20));
        let queued: Vec<_> = (0..4).map(|i| pool.spawn(move || i)).collect();
        gate.count_down(None);
        drop(pool); // must not hang: workers drain the injector on shutdown
        for f in queued {
            // Either the job ran during drain (value) or its promise was
            // dropped (poisoned -> panic); both are prompt, neither hangs.
            let _ = catch_unwind(AssertUnwindSafe(move || f.get()));
        }
    }
}
