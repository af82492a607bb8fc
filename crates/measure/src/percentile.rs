//! Percentiles and summary statistics.

/// Nearest-rank percentile of an unsorted slice (`p` in [0, 100]).
/// Returns `None` on an empty slice. O(n log n); the experiment harness
/// calls this on aggregated, not per-packet, data.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in delay data"));
    let p = p.clamp(0.0, 100.0);
    // Nearest-rank: ceil(p/100 * n), 1-based.
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// A one-shot summary of a sample set, as printed in experiment tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Summary {
    /// Summarize a sample set. `None` if empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Some(Summary {
            count: values.len(),
            mean,
            min: values.iter().copied().reduce(f64::min).expect("non-empty"),
            p50: percentile(values, 50.0).expect("non-empty"),
            p95: percentile(values, 95.0).expect("non-empty"),
            p99: percentile(values, 99.0).expect("non-empty"),
            max: values.iter().copied().reduce(f64::max).expect("non-empty"),
            std: var.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 0.0), Some(15.0));
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [50.0, 15.0, 40.0, 20.0, 35.0];
        assert_eq!(percentile(&v, 50.0), Some(35.0));
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_empty() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn percentile_out_of_range_clamps() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -5.0), Some(1.0));
        assert_eq!(percentile(&v, 150.0), Some(3.0));
    }

    #[test]
    fn summary_fields() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert!((s.std - 28.86607).abs() < 1e-4);
    }
}
