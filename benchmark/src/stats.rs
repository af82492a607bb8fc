//! Order statistics over small sample sets. The benchmark's own, like its
//! input generator: a change to `tango_measure::percentile` must not move
//! the yardstick.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an unsorted sample
/// set; 0 for an empty one.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let dev: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// A timing reported the way the benchmark reports every timing: median,
/// quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarise a sample set.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            median: median(samples),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
        }
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[10.0, 10.0, 12.0, 8.0, 10.0]);
        assert_eq!((s.median, s.n), (10.0, 5));
        assert!((s.spread() - 0.0).abs() < 1e-12);
    }
}
