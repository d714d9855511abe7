//! Physics-health telemetry: periodic, strictly rank-local records of
//! conservation drift, atmosphere occupancy, con2prim cascade rates,
//! limiter activation and the maximum Lorentz factor.
//!
//! The monitor never communicates — health observation must not perturb
//! the comm pattern (liveness deadlines, agreement rounds) and must keep
//! the step bit-identical, so everything here is read-only over local
//! fields. Per-rank summaries are merged at bench/report time with
//! [`HealthSummary::merge`].
//!
//! A soft watchdog compares each record against its thresholds and counts
//! an alarm (never aborts, never prints) when conserved totals drift or
//! the atmosphere fraction grows too fast — the flight-recorder analogue
//! of an engine warning light. The caller turns the returned flags into
//! counters, trace instants and telemetry events.

use crate::diag::{
    atmosphere_fraction, conservation_drift, conserved_totals, limiter_activation_fraction,
    max_lorentz,
};
use crate::scheme::RecoveryStats;
use rhrsc_grid::Field;
use rhrsc_srhd::NCOMP;

/// Thresholds and cadence for the health monitor.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Observe every `interval` committed steps (0 is clamped to 1).
    pub interval: u64,
    /// Watchdog: warn when |drift| of any conserved total vs. the local
    /// baseline exceeds this. Loose by default — the goal is catching
    /// blow-ups and NaN storms, not round-off audits (those live in the
    /// conservation tests).
    pub drift_warn: f64,
}

/// Watchdog: alarm when the atmosphere fraction grows by more than this
/// between consecutive records (a floor-rate slope alarm).
const FLOOR_RATE_WARN: f64 = 0.05;
/// Cells with `rho <= ATMO_FACTOR * rho_floor` count as atmosphere.
const ATMO_FACTOR: f64 = 10.0;

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            interval: 5,
            drift_warn: 0.1,
        }
    }
}

/// One health observation (all quantities rank-local).
#[derive(Debug, Clone, Copy)]
pub struct HealthRecord {
    pub step: u64,
    pub time: f64,
    /// Interior conserved totals `(∫D, ∫Sx, ∫Sy, ∫Sz, ∫τ)`.
    pub totals: [f64; NCOMP],
    /// Max relative drift of `totals` vs. the local baseline.
    pub drift: f64,
    /// Fraction of interior cells at/near the atmosphere floor.
    pub atmo_frac: f64,
    /// Fraction of interior cells with a fully-limited density slope.
    pub limiter_frac: f64,
    /// Maximum Lorentz factor over the interior.
    pub max_w: f64,
    /// Con2prim cascade activations per cell since the previous record:
    /// `[relaxed_tol, neighbor_avg, atmosphere]`.
    pub c2p_tier_rate: [f64; 3],
}

/// Aggregated view of a run's health records; mergeable across ranks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthSummary {
    pub records: u64,
    pub max_drift: f64,
    pub max_lorentz: f64,
    pub mean_atmo_frac: f64,
    pub mean_limiter_frac: f64,
    /// Mean per-cell cascade rates `[relaxed_tol, neighbor_avg, atmosphere]`.
    pub c2p_tier_rate: [f64; 3],
    pub drift_alarms: u64,
    pub floor_alarms: u64,
}

impl HealthSummary {
    /// Fold another rank's summary into this one: maxima of maxima,
    /// record-weighted means, summed alarm counts.
    pub fn merge(&mut self, other: &HealthSummary) {
        let (a, b) = (self.records as f64, other.records as f64);
        let w = a + b;
        if w > 0.0 {
            self.mean_atmo_frac = (self.mean_atmo_frac * a + other.mean_atmo_frac * b) / w;
            self.mean_limiter_frac = (self.mean_limiter_frac * a + other.mean_limiter_frac * b) / w;
            for t in 0..3 {
                self.c2p_tier_rate[t] =
                    (self.c2p_tier_rate[t] * a + other.c2p_tier_rate[t] * b) / w;
            }
        }
        self.records += other.records;
        self.max_drift = self.max_drift.max(other.max_drift);
        self.max_lorentz = self.max_lorentz.max(other.max_lorentz);
        self.drift_alarms += other.drift_alarms;
        self.floor_alarms += other.floor_alarms;
    }

    /// Flat `(name, value)` pairs for BENCH-report emission.
    pub fn to_pairs(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("health.records", self.records as f64),
            ("health.max_drift", self.max_drift),
            ("health.max_lorentz", self.max_lorentz),
            ("health.mean_atmo_frac", self.mean_atmo_frac),
            ("health.mean_limiter_frac", self.mean_limiter_frac),
            ("health.c2p.relaxed_tol_rate", self.c2p_tier_rate[0]),
            ("health.c2p.neighbor_avg_rate", self.c2p_tier_rate[1]),
            ("health.c2p.atmosphere_rate", self.c2p_tier_rate[2]),
            ("health.drift_alarms", self.drift_alarms as f64),
            ("health.floor_alarms", self.floor_alarms as f64),
        ]
    }
}

/// Rank-local physics-health monitor (see module docs).
pub struct HealthMonitor {
    cfg: HealthConfig,
    baseline: Option<[f64; NCOMP]>,
    records: Vec<HealthRecord>,
    last_rec: Option<RecoveryStats>,
    last_step: Option<u64>,
    drift_alarms: u64,
    floor_alarms: u64,
}

impl HealthMonitor {
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            baseline: None,
            records: Vec::new(),
            last_rec: None,
            last_step: None,
            drift_alarms: 0,
            floor_alarms: 0,
        }
    }

    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// `true` when `step` falls on the observation cadence.
    pub fn due(&self, step: u64) -> bool {
        step.is_multiple_of(self.cfg.interval.max(1))
    }

    /// Capture the conservation baseline if not yet set (call once the
    /// initial conserved field exists).
    pub fn ensure_baseline(&mut self, u: &Field) {
        if self.baseline.is_none() {
            self.baseline = Some(conserved_totals(u));
        }
    }

    /// Drop the baseline and cascade bookkeeping — required after a
    /// shrinking recovery (the local domain changed, so drift vs. the
    /// old baseline is meaningless).
    pub fn rebaseline(&mut self) {
        self.baseline = None;
        self.last_rec = None;
    }

    /// Record one observation. Purely local reads; returns the record
    /// plus `(drift_alarm, floor_alarm)` watchdog verdicts.
    pub fn observe(
        &mut self,
        step: u64,
        time: f64,
        u: &Field,
        prim: &Field,
        rho_floor: f64,
        rec: RecoveryStats,
    ) -> (HealthRecord, bool, bool) {
        // Re-observing the same step (e.g. a retried commit) replaces
        // the previous record instead of double-counting.
        if self.last_step == Some(step) {
            self.records.pop();
        }
        let totals = conserved_totals(u);
        let baseline = *self.baseline.get_or_insert(totals);
        let drift = conservation_drift(&baseline, &totals);
        let cells = u.geom().interior_len().max(1) as f64;
        let prev = self.last_rec.unwrap_or(rec);
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64 / cells;
        let c2p_tier_rate = [
            d(rec.relaxed_tol, prev.relaxed_tol),
            d(rec.neighbor_avg, prev.neighbor_avg),
            d(rec.atmosphere, prev.atmosphere),
        ];
        let record = HealthRecord {
            step,
            time,
            totals,
            drift,
            atmo_frac: atmosphere_fraction(prim, ATMO_FACTOR * rho_floor),
            limiter_frac: limiter_activation_fraction(prim),
            max_w: max_lorentz(prim),
            c2p_tier_rate,
        };
        let drift_alarm = !record.drift.is_finite() || record.drift > self.cfg.drift_warn;
        let floor_alarm = self
            .records
            .last()
            .is_some_and(|p| record.atmo_frac - p.atmo_frac > FLOOR_RATE_WARN);
        if drift_alarm {
            self.drift_alarms += 1;
        }
        if floor_alarm {
            self.floor_alarms += 1;
        }
        self.records.push(record);
        self.last_rec = Some(rec);
        self.last_step = Some(step);
        (record, drift_alarm, floor_alarm)
    }

    pub fn records(&self) -> &[HealthRecord] {
        &self.records
    }

    /// Aggregate all records into a mergeable summary.
    pub fn summary(&self) -> HealthSummary {
        let n = self.records.len() as f64;
        let mut s = HealthSummary {
            records: self.records.len() as u64,
            drift_alarms: self.drift_alarms,
            floor_alarms: self.floor_alarms,
            ..Default::default()
        };
        for r in &self.records {
            s.max_drift = s.max_drift.max(r.drift);
            s.max_lorentz = s.max_lorentz.max(r.max_w);
            s.mean_atmo_frac += r.atmo_frac;
            s.mean_limiter_frac += r.limiter_frac;
            for t in 0..3 {
                s.c2p_tier_rate[t] += r.c2p_tier_rate[t];
            }
        }
        if n > 0.0 {
            s.mean_atmo_frac /= n;
            s.mean_limiter_frac /= n;
            for t in 0..3 {
                s.c2p_tier_rate[t] /= n;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Problem;
    use crate::scheme::{init_cons, recover_prims, Scheme};
    use rhrsc_grid::PatchGeom;

    fn sod_fields() -> (Scheme, Field, Field) {
        let prob = Problem::sod();
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let geom = PatchGeom::line(64, 0.0, 1.0, 3);
        let u = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));
        let mut prim = Field::new(geom, 5);
        recover_prims(&scheme, &u, &mut prim).unwrap();
        (scheme, u, prim)
    }

    #[test]
    fn static_field_reports_zero_drift_and_no_alarms() {
        let (scheme, u, prim) = sod_fields();
        let mut mon = HealthMonitor::new(HealthConfig::default());
        mon.ensure_baseline(&u);
        let rec = RecoveryStats::default();
        let (r0, da, fa) = mon.observe(0, 0.0, &u, &prim, scheme.c2p.rho_floor, rec);
        assert_eq!(r0.drift, 0.0);
        assert!(!da && !fa);
        let (r1, da, fa) = mon.observe(5, 0.1, &u, &prim, scheme.c2p.rho_floor, rec);
        assert_eq!(r1.drift, 0.0);
        assert!(!da && !fa);
        assert!((r1.max_w - prim_max_w(&prim)).abs() < 1e-14);
        let s = mon.summary();
        assert_eq!(s.records, 2);
        assert_eq!(s.drift_alarms, 0);
        assert_eq!(s.floor_alarms, 0);
        // Sod at t=0 has no atmosphere cells and no vacuum.
        assert_eq!(s.mean_atmo_frac, 0.0);
    }

    fn prim_max_w(prim: &Field) -> f64 {
        crate::diag::max_lorentz(prim)
    }

    #[test]
    fn drift_watchdog_fires_on_perturbed_totals() {
        let (scheme, mut u, prim) = sod_fields();
        let mut mon = HealthMonitor::new(HealthConfig {
            drift_warn: 1e-6,
            ..Default::default()
        });
        mon.ensure_baseline(&u);
        let rec = RecoveryStats::default();
        // Perturb the conserved density well past the alarm threshold.
        let (i, j, k) = u.geom().interior_iter().next().unwrap();
        let v = u.at(0, i, j, k);
        u.set(0, i, j, k, v * 2.0);
        let (_, da, _) = mon.observe(0, 0.0, &u, &prim, scheme.c2p.rho_floor, rec);
        assert!(da, "expected a drift alarm");
        assert_eq!(mon.summary().drift_alarms, 1);
    }

    #[test]
    fn floor_watchdog_fires_when_the_atmosphere_spreads() {
        let (scheme, u, mut prim) = sod_fields();
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let rec = RecoveryStats::default();
        let floor = scheme.c2p.rho_floor;
        let (r0, _, fa) = mon.observe(0, 0.0, &u, &prim, floor, rec);
        assert!(!fa, "the first record has no slope to alarm on");
        // Drop a tenth of the cells to the floor: a jump past FLOOR_RATE_WARN.
        let cells: Vec<_> = prim.geom().interior_iter().step_by(10).collect();
        for &(i, j, k) in &cells {
            prim.set(0, i, j, k, floor);
        }
        let (r1, da, fa) = mon.observe(5, 0.1, &u, &prim, floor, rec);
        assert!(r1.atmo_frac - r0.atmo_frac > FLOOR_RATE_WARN);
        assert!(fa && !da, "expected a floor alarm and no drift alarm");
        let s = mon.summary();
        assert_eq!((s.drift_alarms, s.floor_alarms), (0, 1));
    }

    #[test]
    fn cascade_rates_are_deltas_not_totals() {
        let (scheme, u, prim) = sod_fields();
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let cells = u.geom().interior_len() as f64;
        let mut rec = RecoveryStats {
            relaxed_tol: 10,
            ..Default::default()
        };
        mon.observe(0, 0.0, &u, &prim, scheme.c2p.rho_floor, rec);
        rec.relaxed_tol = 16;
        let (r, _, _) = mon.observe(5, 0.1, &u, &prim, scheme.c2p.rho_floor, rec);
        assert!((r.c2p_tier_rate[0] - 6.0 / cells).abs() < 1e-15);
    }

    #[test]
    fn summaries_merge_with_record_weights() {
        let mut a = HealthSummary {
            records: 2,
            max_drift: 1e-3,
            max_lorentz: 2.0,
            mean_atmo_frac: 0.1,
            mean_limiter_frac: 0.2,
            c2p_tier_rate: [0.0; 3],
            drift_alarms: 1,
            floor_alarms: 0,
        };
        let b = HealthSummary {
            records: 6,
            max_drift: 5e-3,
            max_lorentz: 1.5,
            mean_atmo_frac: 0.3,
            mean_limiter_frac: 0.0,
            c2p_tier_rate: [0.0; 3],
            drift_alarms: 0,
            floor_alarms: 2,
        };
        a.merge(&b);
        assert_eq!(a.records, 8);
        assert_eq!(a.max_drift, 5e-3);
        assert_eq!(a.max_lorentz, 2.0);
        assert!((a.mean_atmo_frac - (0.1 * 2.0 + 0.3 * 6.0) / 8.0).abs() < 1e-15);
        assert_eq!(a.drift_alarms, 1);
        assert_eq!(a.floor_alarms, 2);
    }

    #[test]
    fn reobserving_a_step_replaces_the_record() {
        let (scheme, u, prim) = sod_fields();
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let rec = RecoveryStats::default();
        mon.observe(0, 0.0, &u, &prim, scheme.c2p.rho_floor, rec);
        mon.observe(0, 0.0, &u, &prim, scheme.c2p.rho_floor, rec);
        assert_eq!(mon.records().len(), 1);
    }
}
