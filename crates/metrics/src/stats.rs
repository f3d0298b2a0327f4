//! Statistics used by the evaluation: geometric means (Table IV),
//! S-curves (Fig. 3) and box plots (Fig. 4).

use serde::{Deserialize, Serialize};

/// Geometric mean of strictly positive samples.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if any sample is not strictly positive.
///
/// # Examples
///
/// ```
/// use amrm_metrics::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive samples");
            v.ln()
        })
        .sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Linear-interpolated percentile `p ∈ [0, 100]` of an *unsorted* sample
/// slice; `None` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// use amrm_metrics::percentile;
///
/// let waits = [3.0, 1.0, 2.0, 4.0];
/// assert!((percentile(&waits, 50.0).unwrap() - 2.5).abs() < 1e-12);
/// assert!(percentile(&[], 95.0).is_none());
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0, 100], got {p}"
    );
    Some(quantile_sorted(&sorted_copy(values)?, p / 100.0))
}

/// Ascending-sorted copy of `values`; `None` for an empty slice.
fn sorted_copy(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted)
}

/// The p50/p95/p99 summary of a sample buffer — the shape the telemetry
/// subsystem reports for simulated queue waits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes the summary from an unsorted sample slice; `None` for an
    /// empty slice.
    pub fn from_samples(values: &[f64]) -> Option<Self> {
        let sorted = sorted_copy(values)?;
        Some(Percentiles {
            p50: quantile_sorted(&sorted, 0.50),
            p95: quantile_sorted(&sorted, 0.95),
            p99: quantile_sorted(&sorted, 0.99),
        })
    }
}

/// Five-number summary plus mean, as drawn in the Fig. 4 box plots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxplotStats {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean (the paper overlays averages on its box plots).
    pub mean: f64,
}

impl BoxplotStats {
    /// Computes the summary; `None` for an empty slice.
    pub fn from_samples(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(BoxplotStats {
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(values).expect("non-empty"),
        })
    }
}

/// A sorted curve of per-test values — the S-curves of Fig. 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SCurve {
    values: Vec<f64>,
}

impl SCurve {
    /// Builds the curve by sorting `values` ascending.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        SCurve { values }
    }

    /// The sorted values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the curve has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// How many samples are ≤ `threshold` (+1e-9 tolerance) — e.g. the
    /// number of tests scheduled optimally when `threshold = 1.0`.
    pub fn count_at_or_below(&self, threshold: f64) -> usize {
        self.values
            .iter()
            .filter(|&&v| v <= threshold + 1e-9)
            .count()
    }

    /// Samples the curve at `n` evenly spaced positions (for plotting).
    pub fn sampled(&self, n: usize) -> Vec<f64> {
        assert!(n >= 2, "need at least two sample positions");
        if self.values.is_empty() {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let pos = i as f64 / (n - 1) as f64;
                quantile_sorted(&self.values, pos)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!(geometric_mean(&[]).is_none());
        assert!((geometric_mean(&[2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 8.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn geometric_mean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile_sorted(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile_sorted(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn boxplot_on_known_sample() {
        let s = BoxplotStats::from_samples(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!(BoxplotStats::from_samples(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates_unsorted_input() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&v, 0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0).unwrap() - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 100.0).unwrap() - 4.0).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentiles_summary_orders_its_fields() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::from_samples(&v).unwrap();
        assert!((p.p50 - 50.5).abs() < 1e-9);
        assert!(p.p50 < p.p95 && p.p95 < p.p99);
        assert!(Percentiles::from_samples(&[]).is_none());
    }

    #[test]
    fn scurve_sorts_and_counts() {
        let c = SCurve::new(vec![1.2, 1.0, 1.0, 2.0]);
        assert_eq!(c.values(), &[1.0, 1.0, 1.2, 2.0]);
        assert_eq!(c.count_at_or_below(1.0), 2);
        assert_eq!(c.count_at_or_below(1.5), 3);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn scurve_sampling_is_monotone() {
        let c = SCurve::new((0..100).map(|i| 1.0 + i as f64 * 0.01).collect());
        let s = c.sampled(10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_scurve_behaves() {
        let c = SCurve::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.count_at_or_below(1.0), 0);
        assert!(c.sampled(5).is_empty());
    }
}
