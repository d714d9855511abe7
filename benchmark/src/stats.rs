//! Order statistics and the reference normalisation.

use crate::refkernel::REF_NOMINAL_S;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one repeat.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// two nearest order statistics.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Factor that turns a time measured between two reference runs into
/// seconds on the nominal reference host.
pub fn norm_factor(ref_before_s: f64, ref_after_s: f64) -> f64 {
    REF_NOMINAL_S / (0.5 * (ref_before_s + ref_after_s))
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// `|median(first half) − median(second half)| ÷ median(all)`: large when
/// the host changed speed during the run in a way the reference did not
/// track.
pub fn split_half_rel_diff(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (a, b) = xs.split_at(xs.len() / 2);
    (median(a) - median(b)).abs() / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 0.95), 9.5);
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 2.0), 10.0);
        assert_eq!(percentile(&[4.0], 0.9), 4.0);
    }

    #[test]
    fn normalisation_cancels_a_uniform_slowdown() {
        // A host running 25 % slow stretches sample and reference alike.
        let quiet = 0.2 * norm_factor(REF_NOMINAL_S, REF_NOMINAL_S);
        let slow = 0.25 * norm_factor(1.25 * REF_NOMINAL_S, 1.25 * REF_NOMINAL_S);
        assert!((quiet - 0.2).abs() < 1e-15);
        assert!((slow - quiet).abs() < 1e-15);
        // A slowdown that sets in during the repeat is split evenly.
        let f = norm_factor(REF_NOMINAL_S, 1.5 * REF_NOMINAL_S);
        assert!((f - 0.8).abs() < 1e-15);
    }

    #[test]
    fn cv_and_split_half() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-15);
        assert_eq!(split_half_rel_diff(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        // Halves with medians 1 and 2 around an overall median of 1.5.
        let d = split_half_rel_diff(&[1.0, 1.0, 2.0, 2.0]);
        assert!((d - 1.0 / 1.5).abs() < 1e-15);
    }
}
