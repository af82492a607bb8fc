//! Exponentially weighted moving average — the smoother behind the
//! adaptive path-selection policies in `tango-control`.

/// An EWMA with smoothing factor `alpha` (weight of the newest sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A new EWMA; `alpha` must be in (0, 1].
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Feed a sample; returns the updated estimate.
    ///
    /// Non-finite samples (NaN/∞ from adversarially skewed inputs) are
    /// ignored — one would otherwise stick the estimate at NaN forever.
    pub fn update(&mut self, sample: f64) -> f64 {
        if !sample.is_finite() {
            return self.value.unwrap_or(sample);
        }
        let v = match self.value {
            None => sample,
            Some(prev) => prev + self.alpha * (sample - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current estimate (None before the first sample).
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Drop all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.get(), None);
        assert_eq!(e.update(5.0), 5.0);
        assert_eq!(e.get(), Some(5.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(42.0);
        }
        assert!((e.get().unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.update(1.0);
        assert_eq!(e.update(9.0), 9.0);
    }

    #[test]
    fn smooths_step_change_gradually() {
        let mut e = Ewma::new(0.1);
        e.update(0.0);
        let after_one = e.update(10.0);
        assert!((after_one - 1.0).abs() < 1e-9); // 0 + 0.1*(10-0)
        for _ in 0..100 {
            e.update(10.0);
        }
        assert!((e.get().unwrap() - 10.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_zero_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut e = Ewma::new(0.5);
        e.update(4.0);
        assert_eq!(e.update(f64::NAN), 4.0);
        assert_eq!(e.update(f64::INFINITY), 4.0);
        assert_eq!(e.get(), Some(4.0));
        // Before any finite sample: estimate stays unset.
        let mut fresh = Ewma::new(0.5);
        assert!(fresh.update(f64::NAN).is_nan());
        assert_eq!(fresh.get(), None);
        assert_eq!(fresh.update(2.0), 2.0);
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(0.5);
        e.update(3.0);
        e.reset();
        assert_eq!(e.get(), None);
        assert_eq!(e.update(7.0), 7.0);
    }
}
