//! Property-based tests: every incremental statistic must agree with a
//! naive recomputation from scratch, on arbitrary inputs.

use proptest::prelude::*;
use tango_measure::{
    interval::bin_average, mean_rolling_std, percentile, Ewma, IntervalAverager, ReplayWindow,
    RollingWindow, SeqEvent, SeqTracker, Summary, TimeSeries,
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

/// The width a path's online bins use (`tango_dataplane::BIN_NS`).
const BIN_NS: u64 = 500_000_000;

/// A monotonic probe stream spanning up to ~2 min: gaps of 0..300 ms (so
/// several samples share a 500 ms bin and some bins stay empty),
/// OWD-scale values, and an app flag per sample.
fn arb_binned_stream() -> impl Strategy<Value = Vec<(u64, f64, bool)>> {
    proptest::collection::vec((0u64..300_000_000, 0u32..60_000_000, any::<bool>()), 1..400)
        .prop_map(|raw| {
            let mut t = 0u64;
            raw.into_iter()
                .map(|(gap, v, app)| {
                    t += gap;
                    (t, 20_000_000.0 + f64::from(v) / 7.0, app)
                })
                .collect()
        })
}

/// A monotonic stream on a 10 ms grid (gaps of 0..=4 steps) from a random
/// start, so samples land exactly one 1 s window after the first one
/// about half the time; 1..300 samples, so some never warm up.
fn arb_grid_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    (
        0u64..5_000_000_000,
        proptest::collection::vec((0u64..5, -1e6f64..1e6), 1..300),
    )
        .prop_map(|(start, raw)| {
            let mut t = start;
            raw.into_iter()
                .map(|(steps, noise)| {
                    t += steps * 10_000_000;
                    (t, 28_000_000.0 + noise)
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

    /// A path's online 500 ms bins, merged to any multiple of 500 ms,
    /// are the offline binning of the raw series: count, app count, min
    /// and max exactly (against a naive grouping), means within 1e-12
    /// relative of `bin_average` (merging adds whole-bin sums, so the
    /// order of the additions differs).
    #[test]
    fn online_bins_merge_to_bin_average(stream in arb_binned_stream(), k in 1u64..=20) {
        let mut online = IntervalAverager::new(BIN_NS);
        let mut series = TimeSeries::new();
        for &(t, v, app) in &stream {
            online.push(t, v, app);
            series.push(t, v);
        }
        let width = k * BIN_NS;
        let merged = online.merged(width);
        let offline = bin_average(&series, width);
        // Naive: group by t / width.
        let mut naive: Vec<(u64, u64, u64, f64, f64)> = Vec::new(); // (start, n, app, min, max)
        for &(t, v, app) in &stream {
            let start = t / width * width;
            match naive.last_mut() {
                Some((s, n, a, lo, hi)) if *s == start => {
                    *n += 1;
                    *a += u64::from(app);
                    *lo = lo.min(v);
                    *hi = hi.max(v);
                }
                _ => naive.push((start, 1, u64::from(app), v, v)),
            }
        }
        prop_assert_eq!(merged.len(), naive.len());
        prop_assert_eq!(merged.len(), offline.len());
        for ((bin, &(start, n, app, lo, hi)), (t, mean)) in merged.iter().zip(&naive).zip(offline.iter()) {
            prop_assert_eq!((bin.start_ns, bin.count, bin.app), (start, n, app));
            prop_assert_eq!((bin.min.to_bits(), bin.max.to_bits()), (lo.to_bits(), hi.to_bits()));
            prop_assert_eq!(t, start);
            prop_assert!((bin.mean() - mean).abs() <= 1e-12 * mean.abs(), "{} vs {}", bin.mean(), mean);
        }
        // An aligned window is the merge of the bins inside it.
        let (lo, hi) = (k * BIN_NS, 2 * k * BIN_NS);
        let window = online.window(lo, hi);
        let inside: Vec<_> = stream.iter().filter(|(t, _, _)| (lo..hi).contains(t)).collect();
        prop_assert_eq!(window.map_or(0, |w| w.count), inside.len() as u64);
        prop_assert_eq!(online.total().map(|w| w.count), Some(stream.len() as u64));
    }

    /// The jitter metric a path accumulates online — the window's mean
    /// std since warm-up, or the whole series' std before it — is
    /// `mean_rolling_std` bit for bit.
    #[test]
    fn online_jitter_is_mean_rolling_std(stream in arb_grid_stream()) {
        let window_ns = 1_000_000_000;
        let mut w = RollingWindow::new(window_ns);
        let mut series = TimeSeries::new();
        for &(t, v) in &stream {
            w.push(t, v);
            series.push(t, v);
        }
        let online = w.mean_std().or_else(|| series.std());
        let offline = mean_rolling_std(&series, window_ns);
        prop_assert_eq!(online.map(f64::to_bits), offline.map(f64::to_bits), "{:?} vs {:?}", online, offline);
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

    /// The nearest-rank definition checked by counting, not sorting: the
    /// p-th percentile `v` of n values has at least `rank` values at or
    /// below it and fewer than `rank` strictly below, where
    /// `rank = max(1, ceil(p/100 · n))`. Small integer values make ties
    /// common, and p takes both ends of its range.
    #[test]
    fn percentile_is_the_nearest_rank_by_counting(
        values in prop_oneof![
            proptest::collection::vec(0.0f64..100.0, 1..100),
            proptest::collection::vec((0u8..6).prop_map(f64::from), 1..100),
        ],
        p in prop_oneof![Just(0.0f64), Just(100.0), 0.0f64..100.0],
    ) {
        let v = percentile(&values, p).unwrap();
        let rank = (((p / 100.0) * values.len() as f64).ceil() as usize).max(1);
        let at_or_below = values.iter().filter(|&&x| x <= v).count();
        let below = values.iter().filter(|&&x| x < v).count();
        prop_assert!(at_or_below >= rank, "{} values <= {}, rank {}", at_or_below, v, rank);
        prop_assert!(below < rank, "{} values < {}, rank {}", below, v, rank);
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
}
