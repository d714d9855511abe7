//! Time-resolved telemetry: cadenced delta sampling of the metrics
//! [`Registry`](crate::metrics::Registry) into fixed-capacity rings,
//! with a structured fault/recovery event log and anomaly watchdogs.
//!
//! The end-of-run [`Snapshot`] answers "how much, in total" — this
//! module answers "when". A [`TelemetrySampler`] runs on every rank at
//! a step cadence ([`TelemetryConfig::interval`]), turning consecutive
//! registry snapshots into *deltas* over a fixed field schema
//! ([`SERIES_FIELDS`]): per-phase time rates, zone updates, Δt,
//! halo-wait, con2prim cascade tiers, and the `solver::health` gauges.
//! The distributed driver reduces the per-rank samples to block rank 0
//! over a dedicated data-class comm tag, so a run carries one global
//! time series instead of `p` private ones. Rank 0 pushes the merged
//! samples into the shared [`Telemetry`] hub, which
//!
//! * keeps the series in a bounded ring (overwrite-oldest, like the
//!   flight recorder),
//! * derives lifecycle *events* (suspect, evict, breaker trip, SDC
//!   detect, tier restore, shrink) from the counter deltas,
//! * runs rate-of-change *watchdogs* on conservation drift and cascade
//!   activation rates — a trip emits an event and tells the caller to
//!   dump the flight recorder pre-emptively, before any escalation,
//! * forwards every sample to an optional [`TelemetrySink`] (the io
//!   crate provides OpenMetrics textfile + streaming JSONL sinks).
//!
//! Everything here is read-only over the registry and allocation-light
//! on the sampling path; the solver state stays bit-identical with
//! telemetry armed or detached (asserted by the solver tests).

use crate::metrics::Snapshot;
use std::collections::VecDeque;
use std::sync::Mutex;

/// How per-rank field values combine when rank 0 reduces a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOp {
    /// Add across ranks (extensive deltas: times, counts).
    Sum,
    /// Max across ranks (intensive gauges: drift, Lorentz factor).
    Max,
    /// Identical on every rank by construction (Δt, steps); the
    /// reducing root keeps its own value.
    First,
}

/// Where a field's per-sample value comes from on the local rank.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Delta of a registry counter.
    Counter(&'static str),
    /// Delta of the summed value of every counter with this prefix.
    CounterPrefix(&'static str),
    /// Delta of a duration histogram's sum, nanoseconds → seconds.
    HistSumSecs(&'static str),
    /// Delta of the summed durations of every histogram with this
    /// prefix, nanoseconds → seconds.
    HistSumPrefixSecs(&'static str),
    /// Delta of a value histogram's sum (unit-less).
    HistSum(&'static str),
    /// Supplied by the caller via [`SampleInputs`].
    Extern(Ext),
}

/// Caller-supplied inputs (things the registry does not carry).
#[derive(Clone, Copy, Debug)]
pub enum Ext {
    /// Steps since the previous sample.
    Steps,
    /// Committed Δt of the sampled step.
    Dt,
    /// Zone updates since the previous sample (local rank).
    ZoneUpdates,
    /// Wall (or virtual) seconds since the previous sample.
    ElapsedS,
    /// Latest conservation drift gauge from the health monitor.
    Drift,
    /// Latest atmosphere-fraction gauge.
    AtmoFrac,
    /// Latest maximum Lorentz factor gauge.
    MaxLorentz,
    /// Jobs queued (submitted, unclaimed) in the work-stealing pool.
    PoolQueueDepth,
    /// Jobs admitted but not yet finished in the ensemble service.
    ServeQueueDepth,
}

/// Caller-supplied per-sample values, resolved by [`Ext`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SampleInputs {
    /// Steps since the previous sample.
    pub steps: f64,
    /// Committed Δt of the sampled step.
    pub dt: f64,
    /// Zone updates since the previous sample (local rank).
    pub zone_updates: f64,
    /// Wall (or virtual) seconds since the previous sample.
    pub elapsed_s: f64,
    /// Latest conservation drift gauge (0 without a health monitor).
    pub drift: f64,
    /// Latest atmosphere-fraction gauge.
    pub atmo_frac: f64,
    /// Latest maximum Lorentz factor gauge.
    pub max_lorentz: f64,
    /// Jobs queued (submitted, unclaimed) in the work-stealing pool.
    pub pool_queue_depth: f64,
    /// Jobs admitted but not yet finished in the ensemble service.
    pub serve_queue_depth: f64,
}

impl SampleInputs {
    fn get(&self, e: Ext) -> f64 {
        match e {
            Ext::Steps => self.steps,
            Ext::Dt => self.dt,
            Ext::ZoneUpdates => self.zone_updates,
            Ext::ElapsedS => self.elapsed_s,
            Ext::Drift => self.drift,
            Ext::AtmoFrac => self.atmo_frac,
            Ext::MaxLorentz => self.max_lorentz,
            Ext::PoolQueueDepth => self.pool_queue_depth,
            Ext::ServeQueueDepth => self.serve_queue_depth,
        }
    }
}

/// One column of the time series.
#[derive(Clone, Copy, Debug)]
pub struct FieldDef {
    /// Stable series/OpenMetrics name (no dots: `rhrsc_<name>[_total]`).
    pub name: &'static str,
    /// Cross-rank reduction for this field.
    pub merge: MergeOp,
    /// True for cumulative deltas (OpenMetrics counters), false for
    /// point-in-time gauges.
    pub counter: bool,
    /// Lifecycle event kind emitted when this field's delta is positive.
    pub event: Option<&'static str>,
    /// One-line OpenMetrics HELP text.
    pub help: &'static str,
    /// Local-rank value source.
    pub source: Source,
}

const fn field(
    name: &'static str,
    merge: MergeOp,
    counter: bool,
    event: Option<&'static str>,
    help: &'static str,
    source: Source,
) -> FieldDef {
    FieldDef {
        name,
        merge,
        counter,
        event,
        help,
        source,
    }
}

/// The fixed field schema of every [`SeriesSample`]. Order is the wire
/// and export order; the `IDX_*` constants below are kept in sync by a
/// unit test.
pub const SERIES_FIELDS: &[FieldDef] = &[
    field(
        "steps",
        MergeOp::First,
        true,
        None,
        "Committed steps since the previous sample",
        Source::Extern(Ext::Steps),
    ),
    field(
        "dt",
        MergeOp::First,
        false,
        None,
        "Committed timestep of the sampled step",
        Source::Extern(Ext::Dt),
    ),
    field(
        "zone_updates",
        MergeOp::Sum,
        true,
        None,
        "Zone updates (cells x RK stages x steps) since the previous sample",
        Source::Extern(Ext::ZoneUpdates),
    ),
    field(
        "elapsed_s",
        MergeOp::Max,
        true,
        None,
        "Wall (or virtual) seconds since the previous sample, max across ranks",
        Source::Extern(Ext::ElapsedS),
    ),
    field(
        "rhs_s",
        MergeOp::Sum,
        true,
        None,
        "Seconds spent in RHS evaluation since the previous sample, summed across ranks",
        Source::HistSumPrefixSecs("phase.rhs"),
    ),
    field(
        "halo_wait_s",
        MergeOp::Sum,
        true,
        None,
        "Seconds blocked on halo-class receives since the previous sample",
        Source::HistSumSecs("sub.comm.wait.halo"),
    ),
    field(
        "coll_wait_s",
        MergeOp::Sum,
        true,
        None,
        "Seconds blocked on collective-class receives since the previous sample",
        Source::HistSumSecs("sub.comm.wait.collective"),
    ),
    field(
        "dt_allreduce_s",
        MergeOp::Sum,
        true,
        None,
        "Seconds spent in the cadenced dt allreduce since the previous sample",
        Source::HistSumSecs("phase.dt.allreduce"),
    ),
    field(
        "dt_violations",
        MergeOp::Sum,
        true,
        None,
        "Coast-guard violations (coasted dt overran a local CFL bound)",
        Source::Counter("dt.cadence.violation"),
    ),
    field(
        "c2p_iters",
        MergeOp::Sum,
        true,
        None,
        "Con2prim Newton iterations since the previous sample",
        Source::HistSum("c2p.newton_iters"),
    ),
    field(
        "c2p_relaxed",
        MergeOp::Sum,
        true,
        None,
        "Cascade tier-1 repairs (relaxed tolerance) since the previous sample",
        Source::Counter("c2p.cascade.relaxed_tol"),
    ),
    field(
        "c2p_neighbor",
        MergeOp::Sum,
        true,
        None,
        "Cascade tier-2 repairs (neighbor average) since the previous sample",
        Source::Counter("c2p.cascade.neighbor_avg"),
    ),
    field(
        "c2p_atmo",
        MergeOp::Sum,
        true,
        None,
        "Cascade tier-3 floor activations (atmosphere reset) since the previous sample",
        Source::Counter("c2p.cascade.atmosphere"),
    ),
    field(
        "drift",
        MergeOp::Max,
        false,
        None,
        "Relative conservation drift vs the step-0 baseline, max across ranks",
        Source::Extern(Ext::Drift),
    ),
    field(
        "atmo_frac",
        MergeOp::Max,
        false,
        None,
        "Fraction of interior cells at the atmosphere floor, max across ranks",
        Source::Extern(Ext::AtmoFrac),
    ),
    field(
        "max_lorentz",
        MergeOp::Max,
        false,
        None,
        "Maximum Lorentz factor, max across ranks",
        Source::Extern(Ext::MaxLorentz),
    ),
    field(
        "suspicions",
        MergeOp::Sum,
        true,
        Some("suspect"),
        "Liveness suspicions raised since the previous sample",
        Source::Counter("comm.liveness.suspicions"),
    ),
    field(
        "evictions",
        MergeOp::Sum,
        true,
        Some("evict"),
        "Ranks confirmed dead by consensus since the previous sample",
        Source::Counter("comm.liveness.confirmed_dead"),
    ),
    field(
        "breaker_trips",
        MergeOp::Sum,
        true,
        Some("breaker.trip"),
        "Device circuit-breaker trips since the previous sample",
        Source::Counter("dev.breaker.trips"),
    ),
    field(
        "sdc_detected",
        MergeOp::Sum,
        true,
        Some("sdc.detect"),
        "Silent-data-corruption detections since the previous sample",
        Source::Counter("sdc.detected"),
    ),
    field(
        "tier_restores",
        MergeOp::Sum,
        true,
        Some("tier.restore"),
        "Checkpoint-tier restores (local/buddy/disk, and replica-served shrinks) since the previous sample",
        Source::CounterPrefix("ckp.tier."),
    ),
    field(
        "shrinks",
        MergeOp::Sum,
        true,
        Some("shrink"),
        "Shrinking recoveries since the previous sample",
        Source::Counter("driver.shrinks"),
    ),
    // -- pool health (PR 10): the sampled queue depth.
    field(
        "pool_queue_depth",
        MergeOp::Sum,
        false,
        None,
        "Jobs queued in the work-stealing pool injector at the sample point, summed across ranks",
        Source::Extern(Ext::PoolQueueDepth),
    ),
    // -- ensemble service (PR 10): per-engine serve.* accounting.
    field(
        "serve_queue_depth",
        MergeOp::Sum,
        false,
        None,
        "Jobs admitted but not yet finished in the ensemble service at the sample point",
        Source::Extern(Ext::ServeQueueDepth),
    ),
    field(
        "serve_jobs_completed",
        MergeOp::Sum,
        true,
        None,
        "Ensemble jobs completed since the previous sample",
        Source::Counter("serve.jobs.completed"),
    ),
    field(
        "serve_jobs_failed",
        MergeOp::Sum,
        true,
        Some("serve.fail"),
        "Ensemble jobs failed (retries exhausted) since the previous sample",
        Source::Counter("serve.jobs.failed"),
    ),
    field(
        "serve_jobs_cancelled",
        MergeOp::Sum,
        true,
        None,
        "Ensemble jobs cancelled (token, deadline, or shutdown) since the previous sample",
        Source::Counter("serve.jobs.cancelled"),
    ),
    field(
        "serve_rejections",
        MergeOp::Sum,
        true,
        Some("serve.reject"),
        "Ensemble submissions rejected by admission control since the previous sample",
        Source::Counter("serve.admission.rejected"),
    ),
    field(
        "serve_cache_hits",
        MergeOp::Sum,
        true,
        None,
        "Ensemble result-cache hits since the previous sample",
        Source::Counter("serve.cache.hits"),
    ),
];

/// Index of `zone_updates` in [`SERIES_FIELDS`] / `SeriesSample::values`.
const IDX_ZONE_UPDATES: usize = 2;
/// Index of `c2p_relaxed` (first cascade tier).
const IDX_C2P_RELAXED: usize = 10;
/// Index of `c2p_atmo` (floor activations).
const IDX_C2P_ATMO: usize = 12;
/// Index of the `drift` gauge.
const IDX_DRIFT: usize = 13;

/// Position of `name` in [`SERIES_FIELDS`].
pub fn field_index(name: &str) -> Option<usize> {
    SERIES_FIELDS.iter().position(|f| f.name == name)
}

/// One reduced point of the global time series.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSample {
    /// Committed step count at the sample point.
    pub step: u64,
    /// Simulation time at the sample point.
    pub time: f64,
    /// Trace-clock timestamp (same clock as the flight-recorder spans:
    /// virtual ns in virtual-time universes, wall ns otherwise).
    pub t_ns: u64,
    /// Field values, aligned with [`SERIES_FIELDS`].
    pub values: Vec<f64>,
}

impl SeriesSample {
    /// Value of the named field, if it exists.
    pub fn get(&self, name: &str) -> Option<f64> {
        field_index(name).and_then(|i| self.values.get(i).copied())
    }

    /// Merge a peer rank's sample into this one field-wise per
    /// [`MergeOp`]. The trace timestamp takes the max (latest rank to
    /// reach the sample point).
    pub fn merge(&mut self, other: &SeriesSample) {
        self.t_ns = self.t_ns.max(other.t_ns);
        for (i, f) in SERIES_FIELDS.iter().enumerate() {
            let b = other.values.get(i).copied().unwrap_or(0.0);
            match f.merge {
                MergeOp::Sum => self.values[i] += b,
                MergeOp::Max => self.values[i] = self.values[i].max(b),
                MergeOp::First => {}
            }
        }
    }

    /// Flatten to an `f64` wire buffer for the reduction tag.
    pub fn pack(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(3 + self.values.len());
        out.push(self.step as f64);
        out.push(self.time);
        out.push(self.t_ns as f64);
        out.extend_from_slice(&self.values);
        out
    }

    /// Inverse of [`pack`](Self::pack); `None` on a malformed buffer.
    pub fn unpack(buf: &[f64]) -> Option<SeriesSample> {
        if buf.len() != 3 + SERIES_FIELDS.len() {
            return None;
        }
        Some(SeriesSample {
            step: buf[0] as u64,
            time: buf[1],
            t_ns: buf[2] as u64,
            values: buf[3..].to_vec(),
        })
    }
}

/// A structured lifecycle event (fault/recovery/watchdog), derived from
/// counter deltas or emitted directly.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryEvent {
    /// Trace-clock timestamp (shared with the flight-recorder spans).
    pub t_ns: u64,
    /// Committed step count when the event was observed.
    pub step: u64,
    /// Event kind: `suspect`, `evict`, `breaker.trip`, `sdc.detect`,
    /// `tier.restore`, `shrink`, `watchdog.drift`, `watchdog.cascade`.
    pub kind: &'static str,
    /// Rank that observed/reduced the event (the reducing root for
    /// derived events).
    pub rank: u32,
    /// Event magnitude (counter delta, or the rate that tripped).
    pub value: f64,
}

/// Sink interface for streaming exports; implemented by the io crate
/// (OpenMetrics textfile + JSONL). Called under the hub lock on the
/// reducing root's sampling cadence only.
pub trait TelemetrySink: Send {
    /// One reduced sample, the events it produced, the cumulative
    /// per-field totals (aligned with [`SERIES_FIELDS`], counters only
    /// meaningful — gauges hold their latest value), and the reducing
    /// rank (the `pid` of the corresponding flight-recorder track).
    fn on_sample(
        &mut self,
        sample: &SeriesSample,
        events: &[TelemetryEvent],
        totals: &[f64],
        rank: u32,
    );
}

/// Telemetry configuration.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Sampling cadence in steps (0 = disarmed, 1 = every step).
    pub interval: u64,
    /// Ring capacity in samples (and events); overwrite-oldest beyond.
    pub capacity: usize,
    /// Watchdog: warn when conservation drift grows faster than this
    /// per step (rate of change, not absolute level — the health
    /// monitor alarms on the level).
    pub drift_rate_warn: f64,
    /// Watchdog: warn when cascade repairs exceed this fraction of zone
    /// updates within a sample window.
    pub cascade_rate_warn: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: 1,
            capacity: 4096,
            drift_rate_warn: 1e-3,
            cascade_rate_warn: 0.05,
        }
    }
}

/// Per-rank sampling state: the previous registry snapshot (for deltas)
/// and the cadence. Owned by the solver driver, one per rank.
#[derive(Debug, Default)]
pub struct TelemetrySampler {
    interval: u64,
    prev: Option<Snapshot>,
    last_step: u64,
}

impl TelemetrySampler {
    /// A sampler on the given step cadence (0 disarms `due`).
    pub fn new(interval: u64) -> Self {
        TelemetrySampler {
            interval,
            prev: None,
            last_step: 0,
        }
    }

    /// The sampling cadence in steps.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// True when `step` is on the cadence (step counts start at 1).
    pub fn due(&self, step: u64) -> bool {
        self.interval > 0 && step > 0 && step.is_multiple_of(self.interval)
    }

    /// Steps covered by the next sample at `step`.
    pub fn steps_since(&self, step: u64) -> u64 {
        step.saturating_sub(self.last_step)
    }

    /// Turn the current registry snapshot into a delta sample against
    /// the previous call, consuming `snap` as the new baseline.
    pub fn sample(
        &mut self,
        step: u64,
        time: f64,
        t_ns: u64,
        snap: Snapshot,
        inputs: &SampleInputs,
    ) -> SeriesSample {
        let values = SERIES_FIELDS
            .iter()
            .map(|f| match f.source {
                Source::Counter(name) => {
                    delta_u64(counter_of(&snap, name), self.prev_counter(name))
                }
                Source::CounterPrefix(prefix) => delta_u64(
                    counter_prefix(&snap, prefix),
                    self.prev
                        .as_ref()
                        .map(|p| counter_prefix(p, prefix))
                        .unwrap_or(0),
                ),
                Source::HistSumSecs(name) => {
                    delta_u64(hist_sum(&snap, name), self.prev_hist_sum(name)) * 1e-9
                }
                Source::HistSumPrefixSecs(prefix) => {
                    delta_u64(
                        hist_sum_prefix(&snap, prefix),
                        self.prev
                            .as_ref()
                            .map(|p| hist_sum_prefix(p, prefix))
                            .unwrap_or(0),
                    ) * 1e-9
                }
                Source::HistSum(name) => delta_u64(hist_sum(&snap, name), self.prev_hist_sum(name)),
                Source::Extern(e) => inputs.get(e),
            })
            .collect();
        self.prev = Some(snap);
        self.last_step = step;
        SeriesSample {
            step,
            time,
            t_ns,
            values,
        }
    }

    fn prev_counter(&self, name: &str) -> u64 {
        self.prev.as_ref().map(|p| counter_of(p, name)).unwrap_or(0)
    }

    fn prev_hist_sum(&self, name: &str) -> u64 {
        self.prev.as_ref().map(|p| hist_sum(p, name)).unwrap_or(0)
    }
}

fn counter_of(s: &Snapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

fn counter_prefix(s: &Snapshot, prefix: &str) -> u64 {
    s.counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

fn hist_sum(s: &Snapshot, name: &str) -> u64 {
    s.histograms.get(name).map(|h| h.sum).unwrap_or(0)
}

fn hist_sum_prefix(s: &Snapshot, prefix: &str) -> u64 {
    s.histograms
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, h)| h.sum)
        .sum()
}

fn delta_u64(cur: u64, prev: u64) -> f64 {
    cur.saturating_sub(prev) as f64
}

/// Watchdog verdict from a [`Telemetry::push_sample`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct WatchdogVerdict {
    /// Number of watchdogs that tripped on this sample.
    pub trips: u64,
    /// True when the caller should dump the flight recorder now —
    /// pre-emptively, before any escalation destroys the evidence.
    pub dump: bool,
}

struct HubInner {
    ring: VecDeque<SeriesSample>,
    events: VecDeque<TelemetryEvent>,
    totals: Vec<f64>,
    dropped_samples: u64,
    prev_drift: Option<(u64, f64)>,
    sink: Option<Box<dyn TelemetrySink>>,
}

/// The shared telemetry hub: bounded sample/event rings, cumulative
/// totals, watchdogs and the sink fan-out. Shared `Arc`-style between
/// the per-rank solvers like the metrics registry; only the reducing
/// root pushes, everyone may read.
pub struct Telemetry {
    cfg: TelemetryConfig,
    inner: Mutex<HubInner>,
}

impl Telemetry {
    /// A hub with the given configuration.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            inner: Mutex::new(HubInner {
                ring: VecDeque::new(),
                events: VecDeque::new(),
                totals: vec![0.0; SERIES_FIELDS.len()],
                dropped_samples: 0,
                prev_drift: None,
                sink: None,
            }),
        }
    }

    /// The hub configuration.
    pub fn cfg(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Install (or replace) the streaming sink.
    pub fn set_sink(&self, sink: Box<dyn TelemetrySink>) {
        self.inner.lock().unwrap().sink = Some(sink);
    }

    /// Push a reduced sample: derive lifecycle events, update totals,
    /// run the watchdogs, ring-buffer the sample, and forward to the
    /// sink. Returns the watchdog verdict so the caller can trigger a
    /// pre-emptive flight-record dump.
    pub fn push_sample(&self, sample: SeriesSample, rank: u32) -> WatchdogVerdict {
        let mut inner = self.inner.lock().unwrap();
        let mut new_events = Vec::new();
        for (i, f) in SERIES_FIELDS.iter().enumerate() {
            let v = sample.values.get(i).copied().unwrap_or(0.0);
            if f.counter {
                inner.totals[i] += v;
            } else {
                inner.totals[i] = v;
            }
            if let Some(kind) = f.event {
                if v > 0.0 {
                    new_events.push(TelemetryEvent {
                        t_ns: sample.t_ns,
                        step: sample.step,
                        kind,
                        rank,
                        value: v,
                    });
                }
            }
        }
        let mut verdict = WatchdogVerdict::default();
        // Drift watchdog: rate of change per step, not absolute level.
        let drift = sample.values.get(IDX_DRIFT).copied().unwrap_or(0.0);
        if let Some((pstep, pdrift)) = inner.prev_drift {
            let dsteps = sample.step.saturating_sub(pstep).max(1) as f64;
            let rate = (drift - pdrift) / dsteps;
            if rate > self.cfg.drift_rate_warn {
                new_events.push(TelemetryEvent {
                    t_ns: sample.t_ns,
                    step: sample.step,
                    kind: "watchdog.drift",
                    rank,
                    value: rate,
                });
                verdict.trips += 1;
            }
        }
        inner.prev_drift = Some((sample.step, drift));
        // Cascade watchdog: repairs as a fraction of zone updates in
        // this window — a con2prim meltdown shows up here steps before
        // the run aborts.
        let zu = sample
            .values
            .get(IDX_ZONE_UPDATES)
            .copied()
            .unwrap_or(0.0)
            .max(1.0);
        let repairs: f64 = (IDX_C2P_RELAXED..=IDX_C2P_ATMO)
            .map(|i| sample.values.get(i).copied().unwrap_or(0.0))
            .sum();
        if repairs / zu > self.cfg.cascade_rate_warn {
            new_events.push(TelemetryEvent {
                t_ns: sample.t_ns,
                step: sample.step,
                kind: "watchdog.cascade",
                rank,
                value: repairs / zu,
            });
            verdict.trips += 1;
        }
        verdict.dump = verdict.trips > 0;
        for ev in &new_events {
            if inner.events.len() >= self.cfg.capacity {
                inner.events.pop_front();
            }
            inner.events.push_back(ev.clone());
        }
        if inner.sink.is_some() {
            let totals = inner.totals.clone();
            let sink = inner.sink.as_mut().expect("checked above");
            sink.on_sample(&sample, &new_events, &totals, rank);
        }
        if inner.ring.len() >= self.cfg.capacity {
            inner.ring.pop_front();
            inner.dropped_samples += 1;
        }
        inner.ring.push_back(sample);
        verdict
    }

    /// Copy of the retained sample ring, oldest first.
    pub fn samples(&self) -> Vec<SeriesSample> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Copy of the retained event ring, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Cumulative per-field totals (counters summed, gauges latest).
    pub fn totals(&self) -> Vec<f64> {
        self.inner.lock().unwrap().totals.clone()
    }

    /// Samples overwritten because the ring was full.
    pub fn dropped_samples(&self) -> u64 {
        self.inner.lock().unwrap().dropped_samples
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("cfg", &self.cfg).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn field_indices_match_schema() {
        assert_eq!(SERIES_FIELDS[IDX_ZONE_UPDATES].name, "zone_updates");
        assert_eq!(SERIES_FIELDS[IDX_C2P_RELAXED].name, "c2p_relaxed");
        assert_eq!(SERIES_FIELDS[IDX_C2P_ATMO].name, "c2p_atmo");
        assert_eq!(SERIES_FIELDS[IDX_DRIFT].name, "drift");
        // Names are unique and OpenMetrics-safe (no dots).
        for (i, f) in SERIES_FIELDS.iter().enumerate() {
            assert!(!f.name.contains('.'), "{} contains a dot", f.name);
            assert_eq!(field_index(f.name), Some(i));
        }
        // PR 10 appended the pool/serve columns at the end of the schema
        // (wire format compatibility: older indices must not shift).
        for name in [
            "pool_queue_depth",
            "serve_queue_depth",
            "serve_jobs_completed",
            "serve_jobs_failed",
            "serve_jobs_cancelled",
            "serve_rejections",
            "serve_cache_hits",
        ] {
            assert!(
                field_index(name).unwrap() > IDX_DRIFT,
                "{name} must be appended after the PR 9 fields"
            );
        }
    }

    #[test]
    fn sampler_produces_deltas_not_totals() {
        let r = Registry::new();
        let mut s = TelemetrySampler::new(1);
        r.counter("dt.cadence.violation").add(3);
        r.histogram("phase.rhs.interior").record(2_000_000_000);
        let a = s.sample(1, 0.1, 10, r.snapshot(), &SampleInputs::default());
        assert_eq!(a.get("dt_violations"), Some(3.0));
        assert!((a.get("rhs_s").unwrap() - 2.0).abs() < 1e-12);
        // Second sample sees only the increment.
        r.counter("dt.cadence.violation").add(2);
        let b = s.sample(2, 0.2, 20, r.snapshot(), &SampleInputs::default());
        assert_eq!(b.get("dt_violations"), Some(2.0));
        assert_eq!(b.get("rhs_s"), Some(0.0));
    }

    #[test]
    fn pack_unpack_round_trips() {
        let r = Registry::new();
        let mut s = TelemetrySampler::new(2);
        r.counter("sdc.detected").add(1);
        let inputs = SampleInputs {
            steps: 2.0,
            dt: 1e-3,
            zone_updates: 4096.0,
            elapsed_s: 0.5,
            drift: 1e-12,
            atmo_frac: 0.01,
            max_lorentz: 1.5,
            pool_queue_depth: 3.0,
            serve_queue_depth: 7.0,
        };
        let a = s.sample(2, 0.25, 42, r.snapshot(), &inputs);
        let b = SeriesSample::unpack(&a.pack()).unwrap();
        assert_eq!(a, b);
        assert!(SeriesSample::unpack(&[1.0, 2.0]).is_none());
        // A sample in the 31-column layout (two always-zero pool columns
        // before the serve block) is refused, not read with shifted columns.
        let mut old = a.pack();
        let at = 3 + field_index("pool_queue_depth").unwrap() + 1;
        old.splice(at..at, [0.0, 0.0]);
        assert_eq!(old.len(), 3 + 31);
        assert!(SeriesSample::unpack(&old).is_none());
    }

    #[test]
    fn merge_respects_field_ops() {
        let idx_dt = field_index("dt").unwrap();
        let mk = |dt: f64, zu: f64, drift: f64| {
            let mut values = vec![0.0; SERIES_FIELDS.len()];
            values[idx_dt] = dt;
            values[IDX_ZONE_UPDATES] = zu;
            values[IDX_DRIFT] = drift;
            SeriesSample {
                step: 4,
                time: 0.5,
                t_ns: 100,
                values,
            }
        };
        let mut root = mk(1e-3, 100.0, 1e-12);
        root.merge(&mk(9e9, 50.0, 5e-12));
        assert_eq!(root.values[idx_dt], 1e-3); // First: root wins
        assert_eq!(root.values[IDX_ZONE_UPDATES], 150.0); // Sum
        assert_eq!(root.values[IDX_DRIFT], 5e-12); // Max
    }

    #[test]
    fn hub_derives_events_and_trips_watchdogs() {
        let hub = Telemetry::new(TelemetryConfig {
            interval: 1,
            capacity: 8,
            drift_rate_warn: 1e-6,
            cascade_rate_warn: 0.1,
        });
        let mut values = vec![0.0; SERIES_FIELDS.len()];
        values[field_index("suspicions").unwrap()] = 2.0;
        values[IDX_ZONE_UPDATES] = 100.0;
        let v = hub.push_sample(
            SeriesSample {
                step: 1,
                time: 0.1,
                t_ns: 1,
                values: values.clone(),
            },
            0,
        );
        assert_eq!(v.trips, 0, "first sample has no drift rate yet");
        let evs = hub.events();
        assert!(evs.iter().any(|e| e.kind == "suspect" && e.value == 2.0));
        // Next sample: drift jumps and the cascade floods -> both trip.
        values[field_index("suspicions").unwrap()] = 0.0;
        values[IDX_DRIFT] = 1.0;
        values[IDX_C2P_ATMO] = 50.0;
        let v = hub.push_sample(
            SeriesSample {
                step: 2,
                time: 0.2,
                t_ns: 2,
                values,
            },
            0,
        );
        assert_eq!(v.trips, 2);
        assert!(v.dump);
        let kinds: Vec<_> = hub.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"watchdog.drift"));
        assert!(kinds.contains(&"watchdog.cascade"));
        // Totals accumulated the counter fields.
        let totals = hub.totals();
        assert_eq!(totals[IDX_ZONE_UPDATES], 200.0);
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let hub = Telemetry::new(TelemetryConfig {
            capacity: 3,
            ..TelemetryConfig::default()
        });
        for step in 1..=5u64 {
            hub.push_sample(
                SeriesSample {
                    step,
                    time: step as f64,
                    t_ns: step,
                    values: vec![0.0; SERIES_FIELDS.len()],
                },
                0,
            );
        }
        let s = hub.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(s.first().unwrap().step, 3);
        assert_eq!(hub.dropped_samples(), 2);
    }
}
