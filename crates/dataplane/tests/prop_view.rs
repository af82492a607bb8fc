//! Reference property for the per-path view: `StatsSink::snapshots` is
//! the one place that makes `(path, PathSnapshot)` pairs, which shared
//! feedback collects and `report_from_sink` quantizes. Each used to make
//! its own; those two loops are kept below as the reference, and on random
//! sinks the new code must give the same snapshots, the same records and
//! the same report bytes.

use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeMap;
use tango_dataplane::report::report_from_sink;
use tango_dataplane::{MeasurementReport, PathRecord, PathSnapshot, StatsSink};

/// The shared-feedback branch of `TangoSwitch::snapshots` as it was.
fn reference_snapshots(sink: &StatsSink) -> BTreeMap<u16, PathSnapshot> {
    let freshest: Option<u64> = sink.paths().filter_map(|(_, p)| p.last_sample_ns).max();
    let mut out = BTreeMap::new();
    for (id, p) in sink.paths() {
        let last_rx = p.last_sample_ns;
        let staleness_ns = match (freshest, last_rx) {
            (Some(f), Some(l)) => Some(f.saturating_sub(l)),
            _ => None,
        };
        out.insert(
            id,
            PathSnapshot {
                owd_ewma_ns: p.owd_ewma.get(),
                last_owd_ns: p.owd.last(),
                jitter_ns: p.rolling.std(),
                loss_rate: p.seq.loss_rate(),
                samples: p.owd.len() as u64,
                staleness_ns,
                silence_ns: None,
            },
        );
    }
    out
}

/// `report_from_sink` as it was.
fn reference_report(sink: &StatsSink) -> MeasurementReport {
    let freshest: Option<u64> = sink.paths().filter_map(|(_, p)| p.last_sample_ns).max();
    let records = sink
        .paths()
        .map(|(id, p)| {
            let last_rx = p.last_sample_ns;
            let staleness_ns = match (freshest, last_rx) {
                (Some(f), Some(l)) => f.saturating_sub(l),
                _ => u64::MAX,
            };
            PathRecord {
                path_id: id,
                samples: p.owd.len() as u64,
                owd_ewma_ns: p.owd_ewma.get().unwrap_or(0.0) as i64,
                jitter_ns: p.rolling.std().unwrap_or(0.0) as u64,
                loss_ppm: (p.seq.loss_rate() * 1e6) as u32,
                staleness_ns,
            }
        })
        .collect();
    MeasurementReport { records }
}

/// One arrival: `(path, gap to the previous arrival in ns, OWD offset
/// from the path's base, sequence step, probe, through the gate)`. A
/// sequence step of 0 replays the last number; > 1 leaves a gap the loss
/// estimator counts.
fn arb_arrival() -> impl Strategy<Value = (u16, u64, i64, u32, bool, bool)> {
    (
        0u16..5,
        prop_oneof![0u64..1_000, 0u64..50_000_000, 0u64..2_000_000_000],
        // The last arm jumps past the plausibility gate's 250 ms step.
        prop_oneof![
            -200_000i64..200_000,
            -60_000_000i64..60_000_000,
            -1_000_000_000i64..1_000_000_000,
        ],
        prop_oneof![Just(1u32), 0u32..4],
        any::<bool>(),
        any::<bool>(),
    )
}

proptest! {
    /// Paths registered with and without traffic, negative and positive
    /// base OWDs (clock offsets), quarantined samples (a path's last
    /// arrival is then newer than its last sample), duplicates and gaps.
    #[test]
    fn the_view_and_the_report_match_their_references(
        registered in collection::vec(0u16..8, 0..4),
        bases in collection::vec(-50_000_000i64..100_000_000, 5),
        arrivals in collection::vec(arb_arrival(), 0..400),
    ) {
        let mut sink = StatsSink::new();
        for id in registered {
            sink.register_path(id, format!("reg-{id}"));
        }
        let mut t = 0u64;
        let mut seqs = [0u32; 5];
        for (path, gap, jitter, step, probe, gated) in arrivals {
            t += gap;
            let i = usize::from(path);
            seqs[i] = seqs[i].wrapping_add(step);
            let owd = (bases[i] + jitter) as f64;
            let stats = sink.path_mut(path);
            if gated {
                stats.record_owd_gated(t, owd, seqs[i], probe);
            } else {
                stats.record_owd(t, owd, seqs[i], probe);
            }
        }

        let view: BTreeMap<u16, PathSnapshot> = sink.snapshots().collect();
        prop_assert_eq!(&view, &reference_snapshots(&sink));
        let report = report_from_sink(&sink);
        let want = reference_report(&sink);
        prop_assert_eq!(&report, &want);
        prop_assert_eq!(report.encode(), want.encode());
    }
}
