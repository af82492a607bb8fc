//! Rolling-window statistics.
//!
//! §5: *"To measure sub-second network jitter, we calculated the mean
//! standard deviation of a 1-second rolling window. For example, in the
//! LA to NY direction we found the least noisy path GTT had a rolling
//! window standard deviation of .01ms while Telia had a deviation of
//! .33ms."* — reproduced by experiment T-J.

use crate::series::TimeSeries;
use std::collections::VecDeque;

/// An online rolling window over the trailing `window_ns` of samples,
/// maintaining running sums for O(1) mean/std, and the paper's jitter
/// metric over every position it has slid through
/// ([`RollingWindow::mean_std`]).
#[derive(Debug, Clone)]
pub struct RollingWindow {
    window_ns: u64,
    samples: VecDeque<(u64, f64)>,
    /// Time of the first sample ever pushed: the jitter metric counts
    /// positions from one full window after it.
    first_ns: Option<u64>,
    /// Sum of the per-position standard deviations counted so far, and
    /// how many positions that is.
    std_sum: f64,
    std_positions: u64,
    /// Numerical anchor: sums are of `value - offset` so that the
    /// catastrophic cancellation of Σv² − (Σv)²/n at OWD magnitudes
    /// (~3e7 ns) never appears. The anchor is the first sample seen.
    offset: f64,
    sum: f64,
    sum_sq: f64,
}

impl RollingWindow {
    /// A window of the given duration.
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window must be positive");
        RollingWindow {
            window_ns,
            samples: VecDeque::new(),
            first_ns: None,
            std_sum: 0.0,
            std_positions: 0,
            offset: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Add a sample and evict everything older than `t - window`
    /// (keeping the half-open interval `(t - window, t]`).
    ///
    /// Non-finite values are ignored: a single NaN in the running sums
    /// would poison mean/std for the rest of the window.
    ///
    /// Once a full window of history exists (`t_ns` at least `window_ns`
    /// past the first sample), the window's std after the push is added
    /// to the [`Self::mean_std`] accumulator, exactly as
    /// [`mean_rolling_std`] counts it.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        let first_ns = *self.first_ns.get_or_insert(t_ns);
        if value.is_finite() {
            self.insert(t_ns, value);
        }
        // Only count positions where a full window of history exists,
        // otherwise the warm-up deflates the metric.
        if t_ns >= first_ns + self.window_ns {
            if let Some(std) = self.std() {
                self.std_sum += std;
                self.std_positions += 1;
            }
        }
    }

    fn insert(&mut self, t_ns: u64, value: f64) {
        if self.samples.is_empty() {
            self.offset = value;
            self.sum = 0.0;
            self.sum_sq = 0.0;
        }
        let d = value - self.offset;
        self.samples.push_back((t_ns, value));
        self.sum += d;
        self.sum_sq += d * d;
        if t_ns >= self.window_ns {
            let cutoff = t_ns - self.window_ns;
            while let Some(&(t0, v0)) = self.samples.front() {
                if t0 > cutoff || self.samples.len() == 1 {
                    break;
                }
                self.samples.pop_front();
                let d0 = v0 - self.offset;
                self.sum -= d0;
                self.sum_sq -= d0 * d0;
            }
            // After heavy turnover the residual sums carry accumulated
            // rounding error; when only one sample remains, re-anchor so
            // the state is exact again (a single sample has zero variance
            // by definition).
            if self.samples.len() == 1 {
                if let Some(&(_, only)) = self.samples.front() {
                    self.offset = only;
                }
                self.sum = 0.0;
                self.sum_sq = 0.0;
            }
        }
    }

    /// The paper's jitter metric so far: the mean of the window's std at
    /// every push since the warm-up, equal bit for bit to
    /// [`mean_rolling_std`] over the same samples. `None` until one full
    /// window has passed, where [`mean_rolling_std`] falls back to the
    /// whole series' std.
    pub fn mean_std(&self) -> Option<f64> {
        (self.std_positions > 0).then(|| self.std_sum / self.std_positions as f64)
    }

    /// The `(t_ns, value)` samples inside the window, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Samples currently inside the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Is the window empty?
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean over the window.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.offset + self.sum / self.samples.len() as f64)
        }
    }

    /// Population standard deviation over the window.
    ///
    /// Shifted-sums variance can still go microscopically negative from
    /// floating-point rounding; clamped at zero.
    pub fn std(&self) -> Option<f64> {
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        let m = self.sum / n as f64; // mean of shifted values
        let var = (self.sum_sq / n as f64 - m * m).max(0.0);
        Some(var.sqrt())
    }
}

/// The paper's jitter metric: slide a window across the series (each
/// sample as right edge, once the window has warmed up) and average the
/// per-position standard deviations. The offline reference for
/// [`RollingWindow::mean_std`], which computes it while samples arrive.
pub fn mean_rolling_std(series: &TimeSeries, window_ns: u64) -> Option<f64> {
    if series.is_empty() {
        return None;
    }
    let mut w = RollingWindow::new(window_ns);
    let mut acc = 0.0;
    let mut n = 0u64;
    let t0 = series.times_ns()[0];
    for (t, v) in series.iter() {
        w.push(t, v);
        // Only count positions where a full window of history exists,
        // otherwise the warm-up deflates the metric.
        if t >= t0 + window_ns {
            acc += w.std().expect("non-empty window");
            n += 1;
        }
    }
    if n == 0 {
        // Series shorter than one window: fall back to whole-series std.
        return series.std();
    }
    Some(acc / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_respects_window() {
        let mut w = RollingWindow::new(100);
        w.push(0, 1.0);
        w.push(50, 2.0);
        w.push(100, 3.0); // cutoff 0: sample at 0 is NOT > 0, evicted
        assert_eq!(w.len(), 2);
        w.push(151, 4.0); // cutoff 51: evicts t=50
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(3.5));
    }

    #[test]
    fn newest_sample_never_evicted() {
        let mut w = RollingWindow::new(10);
        w.push(0, 1.0);
        w.push(1_000_000, 5.0); // way past the window
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), Some(5.0));
    }

    #[test]
    fn std_matches_direct_computation() {
        let mut w = RollingWindow::new(1_000_000);
        let vals = [3.0, 7.0, 7.0, 19.0];
        for (i, v) in vals.iter().enumerate() {
            w.push(i as u64, *v);
        }
        let mean = 9.0;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!((w.std().unwrap() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn constant_series_has_zero_rolling_std() {
        let mut s = TimeSeries::new();
        for i in 0..2_000u64 {
            s.push(i * 10_000_000, 28.0);
        }
        let j = mean_rolling_std(&s, 1_000_000_000).unwrap();
        assert_eq!(j, 0.0);
    }

    #[test]
    fn rolling_std_tracks_noise_scale() {
        // Deterministic pseudo-noise with amplitude a: std ∝ a.
        let noisy = |amp: f64| {
            let mut s = TimeSeries::new();
            for i in 0..5_000u64 {
                let phase = (i as f64 * 0.7).sin();
                s.push(i * 10_000_000, 28.0 + amp * phase);
            }
            mean_rolling_std(&s, 1_000_000_000).unwrap()
        };
        let j1 = noisy(0.01);
        let j33 = noisy(0.33);
        assert!((j33 / j1 - 33.0).abs() < 0.5, "ratio {}", j33 / j1);
    }

    #[test]
    fn short_series_falls_back_to_global_std() {
        let mut s = TimeSeries::new();
        s.push(0, 1.0);
        s.push(10, 3.0);
        let j = mean_rolling_std(&s, 1_000_000_000).unwrap();
        assert_eq!(j, s.std().unwrap());
    }

    #[test]
    fn empty_series_is_none() {
        assert_eq!(mean_rolling_std(&TimeSeries::new(), 100), None);
        let w = RollingWindow::new(10);
        assert_eq!(w.mean(), None);
        assert_eq!(w.std(), None);
        assert_eq!(w.mean_std(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut w = RollingWindow::new(100);
        w.push(0, 1.0);
        w.push(10, f64::NAN);
        w.push(20, f64::NEG_INFINITY);
        w.push(30, 3.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(2.0));
        assert!(w.std().unwrap().is_finite());
    }

    #[test]
    fn numerical_stability_with_large_offsets() {
        // OWD values are ~3e7 ns; make sure cancellation doesn't produce
        // NaN or negative variance.
        let mut w = RollingWindow::new(1_000_000_000);
        for i in 0..10_000u64 {
            w.push(i * 100_000, 28_000_000.0 + (i % 3) as f64);
        }
        let std = w.std().unwrap();
        assert!(std.is_finite() && (0.0..2.0).contains(&std), "std {std}");
    }
}
