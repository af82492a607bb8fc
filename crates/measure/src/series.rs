//! Timestamped sample series.

/// A time series of (timestamp ns, value) samples in non-decreasing
/// time order (enforced on push).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times_ns: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Panics if time goes backwards (a harness bug).
    pub fn push(&mut self, t_ns: u64, value: f64) {
        if let Some(&last) = self.times_ns.last() {
            assert!(
                t_ns >= last,
                "time series must be monotonic: {t_ns} < {last}"
            );
        }
        self.times_ns.push(t_ns);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// Is the series empty?
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// Iterate over (t_ns, value).
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.times_ns
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The timestamps.
    pub fn times_ns(&self) -> &[u64] {
        &self.times_ns
    }

    /// The values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean value, or None when empty.
    pub fn mean(&self) -> Option<f64> {
        mean(self.values.iter().copied())
    }

    /// Minimum value.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum value.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Population standard deviation.
    pub fn std(&self) -> Option<f64> {
        std(self.values.iter().copied())
    }
}

/// Mean of `values`, or None when empty: their sum in order, divided
/// by their count.
pub fn mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: ExactSizeIterator,
{
    let values = values.into_iter();
    let n = values.len();
    (n > 0).then(|| values.sum::<f64>() / n as f64)
}

/// Population standard deviation of `values`, or None when empty.
pub fn std<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let values = values.into_iter();
    let n = values.len();
    let mean = mean(values.clone())?;
    let var = values.map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    Some(var.sqrt())
}

/// Collect `(t_ns, value)` pairs, e.g. a filtered view of another series,
/// through [`TimeSeries::push`].
impl FromIterator<(u64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (u64, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pairs: &[(u64, f64)]) -> TimeSeries {
        pairs.iter().copied().collect()
    }

    #[test]
    fn basic_stats() {
        let s = series(&[(0, 1.0), (10, 2.0), (20, 3.0), (30, 4.0)]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        let std = s.std().unwrap();
        assert!((std - 1.118033988749895).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_none() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.std(), None);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn rejects_time_regression() {
        let mut s = TimeSeries::new();
        s.push(10, 1.0);
        s.push(5, 2.0);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let s = series(&[(10, 1.0), (10, 2.0)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_pairs() {
        let s = series(&[(1, 10.0), (2, 20.0)]);
        let v: Vec<(u64, f64)> = s.iter().collect();
        assert_eq!(v, vec![(1, 10.0), (2, 20.0)]);
    }
}
