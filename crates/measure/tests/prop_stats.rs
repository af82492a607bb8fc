//! Property-based tests: every incremental statistic must agree with a
//! naive recomputation from scratch, on arbitrary inputs.

use proptest::prelude::*;
use tango_measure::{
    interval::bin_average, percentile, Ewma, ReplayWindow, RollingWindow, SeqEvent, SeqTracker,
    Summary, TimeSeries,
};

fn arb_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    // Monotonic times with random gaps; OWD-scale values.
    (proptest::collection::vec((0u64..50_000_000, 0u32..60_000_000), 1..200)).prop_map(|raw| {
        let mut t = 0u64;
        raw.into_iter()
            .map(|(gap, v)| {
                t += gap;
                (t, 20_000_000.0 + f64::from(v))
            })
            .collect()
    })
}

/// A `u32` stream that mostly stays within a few windows of a random
/// base (duplicates, reorders, advances and too-old arrivals), with a
/// jump anywhere in the `u32` range one time in eight.
fn arb_seq_stream() -> impl Strategy<Value = Vec<u32>> {
    (
        any::<u32>(),
        proptest::collection::vec((0u32..3_000, any::<u32>(), 0u8..8), 1..400),
    )
        .prop_map(|(base, raw)| {
            raw.into_iter()
                .map(|(near, far, pick)| {
                    if pick == 0 {
                        far
                    } else {
                        base.wrapping_add(near)
                    }
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn replay_window_accepts_exactly_what_the_tracker_does_not_call_duplicate(
        stream in arb_seq_stream(),
    ) {
        let mut tracker = SeqTracker::new();
        let mut window = ReplayWindow::new();
        for (i, &s) in stream.iter().enumerate() {
            let fresh = tracker.record(s) != SeqEvent::Duplicate;
            prop_assert_eq!(window.observe(s), fresh, "seq {} at arrival {}", s, i);
        }
        prop_assert_eq!(window.accepted(), tracker.received());
        prop_assert_eq!(window.rejected(), tracker.duplicates());
    }

    #[test]
    fn rolling_window_matches_naive(stream in arb_stream(), window_ns in 1u64..100_000_000) {
        let mut w = RollingWindow::new(window_ns);
        for (i, &(t, v)) in stream.iter().enumerate() {
            w.push(t, v);
            // Naive: samples in (t - window, t], but never evicting the
            // newest (matching the documented semantics).
            let cutoff = t.saturating_sub(window_ns);
            let kept: Vec<f64> = stream[..=i]
                .iter()
                .filter(|&&(ti, _)| ti > cutoff || (t < window_ns))
                .map(|&(_, v)| v)
                .collect();
            // The window always retains at least the newest sample.
            let kept = if kept.is_empty() { vec![v] } else { kept };
            let mean = kept.iter().sum::<f64>() / kept.len() as f64;
            let var = kept.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / kept.len() as f64;
            prop_assert_eq!(w.len(), kept.len(), "at sample {}", i);
            prop_assert!((w.mean().unwrap() - mean).abs() < 1e-3, "mean {} vs {}", w.mean().unwrap(), mean);
            prop_assert!((w.std().unwrap() - var.sqrt()).abs() < 1.0, "std {} vs {}", w.std().unwrap(), var.sqrt());
        }
    }

    #[test]
    fn interval_averager_matches_naive(stream in arb_stream(), width in 1u64..50_000_000) {
        let mut series = TimeSeries::new();
        for &(t, v) in &stream {
            series.push(t, v);
        }
        let binned = bin_average(&series, width);
        // Naive: group by t / width.
        let mut naive: Vec<(u64, f64, u64)> = Vec::new(); // (bin, sum, count)
        for &(t, v) in &stream {
            let bin = t / width;
            match naive.last_mut() {
                Some((b, sum, n)) if *b == bin => {
                    *sum += v;
                    *n += 1;
                }
                _ => naive.push((bin, v, 1)),
            }
        }
        prop_assert_eq!(binned.len(), naive.len());
        for ((t, avg), (bin, sum, n)) in binned.iter().zip(&naive) {
            prop_assert_eq!(t, bin * width);
            prop_assert!((avg - sum / *n as f64).abs() < 1e-6);
        }
        // Averaging preserves the global mean when all bins have equal
        // weight 1 sample... (not generally true) — but it must stay
        // within [min, max].
        prop_assert!(binned.min().unwrap() >= series.min().unwrap() - 1e-9);
        prop_assert!(binned.max().unwrap() <= series.max().unwrap() + 1e-9);
    }

    #[test]
    fn ewma_stays_within_input_envelope(values in proptest::collection::vec(0.0f64..1e9, 1..100), alpha in 0.01f64..1.0) {
        let mut e = Ewma::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in values {
            lo = lo.min(v);
            hi = hi.max(v);
            let est = e.update(v);
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "{est} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn summary_orderings_hold(values in proptest::collection::vec(0.0f64..1e9, 1..200)) {
        let s = Summary::of(&values).unwrap();
        prop_assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
        prop_assert_eq!(s.count, values.len());
    }

    #[test]
    fn percentile_brackets_every_value(values in proptest::collection::vec(0.0f64..100.0, 1..100), p in 0.0f64..100.0) {
        let v = percentile(&values, p).unwrap();
        prop_assert!(values.contains(&v), "percentile must be an observed value");
    }

    #[test]
    fn seq_tracker_matches_set_model_without_reorder(
        // In-order delivery with random gaps: loss = skipped count.
        gaps in proptest::collection::vec(0u32..5, 1..200),
    ) {
        let mut tracker = SeqTracker::new();
        let mut seq = 0u32;
        let mut skipped = 0u64;
        let mut received = 0u64;
        for gap in gaps {
            seq += gap; // skip `gap` numbers
            skipped += u64::from(gap);
            tracker.record(seq);
            received += 1;
            seq += 1;
        }
        // First arrival can't know about earlier skips: the model counts
        // only post-first gaps; the tracker similarly starts at the first
        // seen sequence number.
        prop_assert_eq!(tracker.received(), received);
        let first_gap = {
            // gap before the first arrival is invisible to the tracker
            0
        };
        let _ = first_gap;
        prop_assert!(tracker.lost() <= skipped);
        prop_assert_eq!(tracker.duplicates(), 0);
        prop_assert_eq!(tracker.reordered(), 0);
    }

    #[test]
    fn seq_tracker_full_permutation_within_window_recovers_everything(
        mut order in proptest::collection::vec(0u32..64, 64..65).prop_map(|_| {
            let v: Vec<u32> = (0..64).collect();
            v
        }),
        swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..100),
    ) {
        for (a, b) in swaps {
            order.swap(a, b);
        }
        let mut tracker = SeqTracker::new();
        for s in order {
            tracker.record(s);
        }
        // All 64 sequence numbers arrive (in any order within the 1024
        // window): nothing is ultimately lost or duplicated.
        prop_assert_eq!(tracker.received(), 64);
        prop_assert_eq!(tracker.lost(), 0);
        prop_assert_eq!(tracker.duplicates(), 0);
    }

    #[test]
    fn timeseries_slice_partitions(stream in arb_stream(), cut in 0u64..60_000_000) {
        let mut s = TimeSeries::new();
        for &(t, v) in &stream {
            s.push(t, v);
        }
        let end = s.times_ns().last().copied().unwrap() + 1;
        let left = s.slice(0, cut);
        let right = s.slice(cut, end);
        prop_assert_eq!(left.len() + right.len(), s.len());
        if let (Some(lmax), Some(rmin)) = (left.times_ns().last(), right.times_ns().first()) {
            prop_assert!(lmax < &cut);
            prop_assert!(rmin >= &cut);
        }
    }
}
