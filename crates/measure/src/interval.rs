//! Fixed-interval binning.
//!
//! §5: *"We ran the eBPF program in our two servers for an eight-day
//! period and recorded the average one-way delay for every path at 10 ms
//! intervals."* The binner folds raw per-packet samples into fixed
//! windows as they arrive and keeps one [`Bin`] per non-empty window —
//! count, application count, sum, min and max — keyed at the window's
//! start time. A coarser width that is a multiple of the binner's merges
//! whole bins ([`IntervalAverager::merged`]), and a window whose edges
//! are multiples of it is summarized exactly
//! ([`IntervalAverager::window`]), so no reader needs the raw samples'
//! timestamps.

use crate::series::TimeSeries;

/// Summary of the samples in one non-empty window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Window start, ns: a multiple of the width it was binned at.
    pub start_ns: u64,
    /// Samples in the window.
    pub count: u64,
    /// Of those, the samples pushed as application traffic.
    pub app: u64,
    /// Sum of the values.
    pub sum: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Bin {
    fn new(start_ns: u64, value: f64, app: bool) -> Self {
        Bin {
            start_ns,
            count: 1,
            app: u64::from(app),
            sum: value,
            min: value,
            max: value,
        }
    }

    fn merge(&mut self, other: &Bin) {
        self.count += other.count;
        self.app += other.app;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// Online fixed-interval binner: every non-empty window so far, the open
/// (latest) one included.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalAverager {
    width_ns: u64,
    bins: Vec<Bin>,
}

impl IntervalAverager {
    /// A binner with the given width (e.g. 10 ms).
    pub fn new(width_ns: u64) -> Self {
        assert!(width_ns > 0, "bin width must be positive");
        IntervalAverager {
            width_ns,
            bins: Vec::new(),
        }
    }

    /// Add a raw sample, `app` when application traffic carried it.
    /// Samples must arrive in time order.
    pub fn push(&mut self, t_ns: u64, value: f64, app: bool) {
        let sample = Bin::new(t_ns - t_ns % self.width_ns, value, app);
        match self.bins.last_mut() {
            Some(open) if open.start_ns == sample.start_ns => open.merge(&sample),
            open => {
                if let Some(open) = open {
                    assert!(
                        sample.start_ns > open.start_ns,
                        "interval averager needs monotonic time"
                    );
                }
                self.bins.push(sample);
            }
        }
    }

    /// The non-empty windows in time order.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// The bins merged to `width_ns`, a multiple of this binner's width.
    pub fn merged(&self, width_ns: u64) -> Vec<Bin> {
        self.assert_aligned(width_ns);
        let mut out: Vec<Bin> = Vec::new();
        for bin in &self.bins {
            let start_ns = bin.start_ns - bin.start_ns % width_ns;
            match out.last_mut() {
                Some(last) if last.start_ns == start_ns => last.merge(bin),
                _ => out.push(Bin { start_ns, ..*bin }),
            }
        }
        out
    }

    /// Summary of every sample with `start_ns <= t < end_ns`; both edges
    /// must be multiples of the width. `None` when no sample falls there.
    pub fn window(&self, start_ns: u64, end_ns: u64) -> Option<Bin> {
        self.assert_aligned(start_ns);
        self.assert_aligned(end_ns);
        let lo = self.bins.partition_point(|b| b.start_ns < start_ns);
        let hi = self.bins.partition_point(|b| b.start_ns < end_ns);
        Self::total_of(&self.bins[lo.min(hi)..hi])
    }

    /// Summary of every sample pushed. `None` when there are none.
    pub fn total(&self) -> Option<Bin> {
        Self::total_of(&self.bins)
    }

    fn total_of(bins: &[Bin]) -> Option<Bin> {
        let (first, rest) = bins.split_first()?;
        let mut total = *first;
        rest.iter().for_each(|b| total.merge(b));
        Some(total)
    }

    fn assert_aligned(&self, ns: u64) {
        assert!(
            ns % self.width_ns == 0,
            "{ns} ns is not a multiple of the {} ns bin width",
            self.width_ns
        );
    }
}

/// Bin means as a series keyed at each window's start.
pub fn means(bins: &[Bin]) -> TimeSeries {
    bins.iter().map(|b| (b.start_ns, b.mean())).collect()
}

/// Offline convenience: bin-average an existing series.
pub fn bin_average(series: &TimeSeries, width_ns: u64) -> TimeSeries {
    let mut avg = IntervalAverager::new(width_ns);
    for (t, v) in series.iter() {
        avg.push(t, v, false);
    }
    means(avg.bins())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn means_of(a: &IntervalAverager) -> Vec<(u64, f64)> {
        means(a.bins()).iter().collect()
    }

    #[test]
    fn averages_within_bins() {
        let mut a = IntervalAverager::new(10);
        a.push(0, 1.0, false);
        a.push(5, 3.0, true); // bin 0 avg 2.0
        a.push(12, 10.0, false); // bin 1 avg 10.0
        a.push(25, 4.0, true);
        a.push(29, 6.0, true); // bin 2 avg 5.0
        assert_eq!(means_of(&a), vec![(0, 2.0), (10, 10.0), (20, 5.0)]);
        let bin = |start_ns, count, app, sum, min, max| Bin {
            start_ns,
            count,
            app,
            sum,
            min,
            max,
        };
        assert_eq!(
            a.bins(),
            &[
                bin(0, 2, 1, 4.0, 1.0, 3.0),
                bin(10, 1, 0, 10.0, 10.0, 10.0),
                bin(20, 2, 2, 10.0, 4.0, 6.0),
            ]
        );
    }

    #[test]
    fn empty_bins_are_skipped() {
        let mut a = IntervalAverager::new(10);
        a.push(0, 1.0, false);
        a.push(95, 2.0, false); // bins 1..=8 empty
        assert_eq!(means_of(&a), vec![(0, 1.0), (90, 2.0)]);
    }

    #[test]
    fn single_sample() {
        let mut a = IntervalAverager::new(1_000);
        a.push(500, 42.0, false);
        assert_eq!(means_of(&a), vec![(0, 42.0)]);
    }

    #[test]
    fn empty_averager_has_no_bins() {
        let a = IntervalAverager::new(10);
        assert!(a.bins().is_empty());
        assert_eq!(a.total(), None);
        assert!(a.merged(20).is_empty());
        assert_eq!(a.window(0, 100), None);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn rejects_backwards_bins() {
        let mut a = IntervalAverager::new(10);
        a.push(50, 1.0, false);
        a.push(10, 2.0, false);
    }

    #[test]
    fn bin_boundaries_are_half_open() {
        let mut a = IntervalAverager::new(10);
        a.push(9, 1.0, false);
        a.push(10, 3.0, false); // exactly on the boundary: starts bin 1
        assert_eq!(means_of(&a), vec![(0, 1.0), (10, 3.0)]);
        assert_eq!(a.window(0, 10).map(|b| b.count), Some(1));
        assert_eq!(a.window(10, 20).map(|b| b.count), Some(1));
        assert_eq!(a.window(20, 30), None);
    }

    #[test]
    fn offline_matches_online() {
        let mut raw = TimeSeries::new();
        for i in 0..1000u64 {
            raw.push(i * 3, (i % 7) as f64);
        }
        let mut online = IntervalAverager::new(10);
        for (t, v) in raw.iter() {
            online.push(t, v, false);
        }
        assert_eq!(bin_average(&raw, 10), means(online.bins()));
        // Merging to a multiple regroups whole bins: count, min and max
        // exactly, the mean up to the order of the additions.
        let coarse = bin_average(&raw, 30);
        let merged = online.merged(30);
        assert_eq!(merged.len(), coarse.len());
        for (bin, (t, mean)) in merged.iter().zip(coarse.iter()) {
            assert_eq!(bin.start_ns, t);
            assert!((bin.mean() - mean).abs() <= 1e-12 * mean.abs());
        }
    }

    #[test]
    fn open_bin_is_readable_before_it_closes() {
        let mut a = IntervalAverager::new(10);
        a.push(0, 1.0, false);
        a.push(15, 2.0, true);
        assert_eq!(a.bins().len(), 2); // bin 0 closed, bin 1 open
        a.push(17, 4.0, false);
        assert_eq!(a.bins().len(), 2);
        let open = a.bins()[1];
        assert_eq!((open.count, open.app, open.sum), (2, 1, 6.0));
        assert_eq!(
            a.total().map(|b| (b.count, b.min, b.max)),
            Some((3, 1.0, 4.0))
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn windows_must_be_bin_aligned() {
        IntervalAverager::new(10).window(5, 20);
    }
}
