//! Live metric handles: atomics behind `Arc`s, lock-free on the hot
//! path. All operations use `Relaxed` ordering — metrics are monotone
//! accumulators read only at snapshot time, never used for
//! synchronisation, and the exporter snapshots after the sim has
//! quiesced so no cross-thread ordering is required for correctness.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::snapshot::HistSnapshot;
use crate::{bucket_index, HIST_BUCKETS};

/// A monotonically increasing `u64` counter.
///
/// Clones share the underlying cell; incrementing is one relaxed
/// `fetch_add`.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-write-wins `u64` gauge with a monotone-max helper.
///
/// Clones share the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Shared state of a histogram. Buckets are fixed powers of two (see
/// [`crate::bucket_index`]); recording is three relaxed `fetch_add`s
/// plus a `fetch_min`/`fetch_max` pair — no locks, no floats, no
/// allocation.
#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCore {
    fn default() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket `u64` histogram (typically virtual nanoseconds,
/// sometimes byte counts or round counts).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &*self.0;
        // `bucket_index` yields 0..=64 and HIST_BUCKETS is 65, so the
        // lookup always hits; `get` keeps the hot path panic-free.
        if let Some(bucket) = core.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Relaxed);
        }
        core.count.fetch_add(1, Relaxed);
        // Saturating: an artifact that pins at MAX beats one that wraps.
        let _ = core
            .sum
            .fetch_update(Relaxed, Relaxed, |s| Some(s.saturating_add(value)));
        core.min.fetch_min(value, Relaxed);
        core.max.fetch_max(value, Relaxed);
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Snapshot the current contents.
    pub(crate) fn snap(&self) -> HistSnapshot {
        let core = &*self.0;
        let count = core.count.load(Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in core.buckets.iter().enumerate() {
            let n = b.load(Relaxed);
            if n != 0 {
                buckets.push((i as u64, n));
            }
        }
        HistSnapshot {
            buckets,
            count,
            sum: core.sum.load(Relaxed),
            // An empty histogram exports min = 0, not the MAX sentinel.
            min: if count == 0 {
                0
            } else {
                core.min.load(Relaxed)
            },
            max: core.max.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 43);

        let g = Gauge::default();
        g.set(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.record_max(10);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(1000);
        let s = h.snap();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1001);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        let total: u64 = s.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn empty_histogram_has_zero_min() {
        let s = Histogram::default().snap();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert!(s.buckets.is_empty());
    }
}
