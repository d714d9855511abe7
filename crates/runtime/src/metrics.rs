//! Dependency-free observability: counters, histograms, phase timers.
//!
//! The performance claims this code line reproduces (scaling, overlap,
//! offload efficiency) are attribution claims — *where* does a step's
//! time go — so the runtime carries a small metrics layer that is cheap
//! enough to stay compiled in for release builds:
//!
//! * [`Counter`] — a monotonic `AtomicU64` (messages, bytes, cascade
//!   tier hits),
//! * [`Histogram`] — log₂-bucketed distribution with exact count and sum
//!   (con2prim iteration counts; phase durations in nanoseconds),
//! * [`PhaseTimer`] — an RAII guard that records its lifetime into a
//!   duration histogram, so a phase's *total* time is the histogram sum
//!   and its invocation count falls out for free,
//! * [`Registry`] — a name-keyed home for all of the above, shared
//!   `Arc`-style between the solver, the comm layer and the device,
//! * [`Snapshot`] — a plain-data copy that merges across ranks and
//!   serialises into the BENCH report.
//!
//! Instrumented components hold an `Option<Arc<Registry>>`; the disabled
//! path is a branch on `None` — no allocation, no atomics — so leaving
//! the hooks in costs nothing measurable when profiling is off.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log₂ buckets. Bucket 0 holds exact zeros; bucket `k ≥ 1`
/// holds values in `[2^(k-1), 2^k - 1]`; the last bucket absorbs the
/// tail. 64 buckets cover the full `u64` range.
const NBUCKETS: usize = 64;

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`, capped.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(NBUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `k` (0 for buckets 0 and 1).
fn bucket_lo(k: usize) -> u64 {
    if k <= 1 {
        if k == 0 {
            0
        } else {
            1
        }
    } else {
        1u64 << (k - 1)
    }
}

/// A monotonic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram with exact count and sum.
///
/// `record` is three relaxed atomic adds — cheap enough for per-message
/// and per-phase paths. (Per-*cell* paths should batch: see the con2prim
/// iteration accounting in the solver, which records once per region.)
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; NBUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` observations totalling `sum` that all fall in the
    /// bucket of `representative` (batched per-cell accounting).
    #[inline]
    pub fn record_batch(&self, n: u64, sum: u64, representative: u64) {
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.buckets[bucket_index(representative)].fetch_add(n, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// RAII phase timer: records its lifetime (ns) into a histogram on drop.
///
/// Owns its `Arc<Histogram>`, so it can be created from a registry held
/// behind `&self` and moved into worker closures.
pub struct PhaseTimer {
    start: Instant,
    hist: Arc<Histogram>,
}

impl PhaseTimer {
    /// Start timing into `hist`.
    pub fn new(hist: Arc<Histogram>) -> Self {
        PhaseTimer {
            start: Instant::now(),
            hist,
        }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// Name-keyed registry of counters and histograms.
///
/// Lookup takes a mutex on a `BTreeMap`; hot paths should cache the
/// returned `Arc` (the solver caches its con2prim histogram, the comm
/// layer its per-message and liveness handles on their first bump),
/// while per-phase paths can afford the lookup.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock();
        if let Some(c) = m.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::default());
        m.insert(name.to_string(), c.clone());
        c
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock();
        if let Some(h) = m.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::default());
        m.insert(name.to_string(), h.clone());
        h
    }

    /// Start an RAII timer recording into the duration histogram `name`.
    /// Phase names use the `phase.` prefix for disjoint top-level step
    /// phases and `sub.` for nested sections (see DESIGN.md).
    pub fn phase(&self, name: &str) -> PhaseTimer {
        PhaseTimer::new(self.histogram(name))
    }

    /// Plain-data copy of every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// Plain-data copy of a histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; NBUCKETS],
}

impl HistSnapshot {
    /// Mean observation, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge another histogram snapshot into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the log₂ bucket holding the target rank. Bucket `k ≥ 1`
    /// spans `[2^(k-1), 2^k - 1]`, so the estimate is exact for bucket 0
    /// (zeros) and within a factor of 2 otherwise — plenty for the
    /// order-of-magnitude p50/p99 columns of the phase tables. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Rank of the target observation in [1, count].
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= target {
                let lo = bucket_lo(k) as f64;
                let hi = match k {
                    0 => 0.0,
                    _ if k >= NBUCKETS - 1 => u64::MAX as f64,
                    _ => ((1u64 << k) - 1) as f64,
                };
                let frac = (target - seen as f64) / n as f64;
                return lo + frac.clamp(0.0, 1.0) * (hi - lo);
            }
            seen += n;
        }
        // Unreachable for a consistent snapshot (counts sum to `count`);
        // fall back to the largest representable bound.
        u64::MAX as f64
    }
}

/// Plain-data copy of a whole registry, mergeable across ranks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Merge another snapshot into this one (counters add, histograms
    /// merge bucket-wise). Used to aggregate per-rank registries.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .and_modify(|mine| mine.merge(h))
                .or_insert_with(|| h.clone());
        }
    }

    /// Sum (as seconds) of the duration histogram `name`, or 0.
    pub fn phase_secs(&self, name: &str) -> f64 {
        self.histograms
            .get(name)
            .map(|h| h.sum as f64 * 1e-9)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
        // Every bucket's lower bound maps back into that bucket.
        for k in 0..NBUCKETS {
            assert_eq!(bucket_index(bucket_lo(k)), k, "bucket {k}");
        }
    }

    #[test]
    fn histogram_count_sum_and_buckets() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let snap_owner = Registry::new();
        let hh = snap_owner.histogram("x");
        hh.record(5);
        hh.record_batch(3, 30, 10);
        let s = snap_owner.snapshot();
        let hs = &s.histograms["x"];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 35);
        assert_eq!(hs.buckets[bucket_index(5)], 1);
        assert_eq!(hs.buckets[bucket_index(10)], 3);
        assert!((hs.mean() - 35.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn registry_returns_same_instance_by_name() {
        let r = Registry::new();
        let c1 = r.counter("a");
        let c2 = r.counter("a");
        c1.add(2);
        c2.add(3);
        assert_eq!(r.counter("a").get(), 5);
        let h1 = r.histogram("h");
        let h2 = r.histogram("h");
        h1.record(1);
        h2.record(1);
        assert_eq!(r.histogram("h").count(), 2);
    }

    #[test]
    fn phase_timer_records_on_drop() {
        let r = Registry::new();
        {
            let _t = r.phase("phase.test");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = r.snapshot();
        let h = &s.histograms["phase.test"];
        assert_eq!(h.count, 1);
        assert!(h.sum >= 2_000_000, "recorded {} ns", h.sum);
        assert!(s.phase_secs("phase.test") >= 2e-3);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let a = Registry::new();
        a.counter("msgs").add(3);
        a.histogram("h").record(4);
        let b = Registry::new();
        b.counter("msgs").add(5);
        b.counter("only_b").add(1);
        b.histogram("h").record(100);
        b.histogram("only_b_h").record(7);

        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counters["msgs"], 8);
        assert_eq!(s.counters["only_b"], 1);
        let h = &s.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 104);
        assert_eq!(h.buckets[bucket_index(4)], 1);
        assert_eq!(h.buckets[bucket_index(100)], 1);
        assert_eq!(s.histograms["only_b_h"].count, 1);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // Empty histogram: 0 by convention.
        let empty = Registry::new().snapshot();
        assert!(empty.histograms.is_empty());
        let h = Histogram::default();
        let reg = Registry::new();
        let hh = reg.histogram("q");
        assert_eq!(
            HistSnapshot {
                count: 0,
                sum: 0,
                buckets: [0; NBUCKETS]
            }
            .quantile(0.5),
            0.0
        );
        // All zeros: every quantile is exactly 0 (bucket 0 is exact).
        for _ in 0..10 {
            h.record(0);
            hh.record(0);
        }
        let s = reg.snapshot().histograms["q"].clone();
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
        // A spread of values: quantiles are monotone in q, bracketed by
        // the log2 bucket of the true order statistic.
        let reg = Registry::new();
        let hh = reg.histogram("q2");
        for v in 1..=1000u64 {
            hh.record(v);
        }
        let s = reg.snapshot().histograms["q2"].clone();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
        // True p50 is 500 (bucket [256,511]), true p99 is 990
        // (bucket [512,1023]): the estimate must land in the bucket.
        assert!((256.0..=511.0).contains(&p50), "p50={p50}");
        assert!((512.0..=1023.0).contains(&p99), "p99={p99}");
        // Extremes stay within the recorded range's buckets.
        assert!(s.quantile(0.0) >= 1.0);
        assert!(s.quantile(1.0) <= 1023.0);
    }

    #[test]
    fn merge_is_commutative_on_totals() {
        let a = Registry::new();
        a.histogram("h").record(10);
        a.counter("c").add(1);
        let b = Registry::new();
        b.histogram("h").record(20);
        b.counter("c").add(2);
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba);
    }
}
