//! Property-based tests for the observability primitives. These pin the
//! algebra the golden-trace suite leans on: merging histogram snapshots
//! is associative and commutative (so any merge tree yields the same
//! artifact), every `u64` lands in exactly one bucket with no lossy
//! casts, and the canonical JSON encoding round-trips bit-for-bit.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use tango_obs::{
    bucket_bounds, bucket_index, HistSnapshot, Registry, Snapshot, Value, HIST_BUCKETS,
};

/// Non-control characters a generated string draws from besides
/// U+0000–U+001F: the two escaped by name, ASCII, and non-ASCII up to
/// the astral plane.
const PRINTABLE: [char; 9] = ['"', '\\', 'a', 'Z', ' ', '\u{7f}', 'é', '→', '😀'];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..0x20 + PRINTABLE.len(), 0..8).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| match i.checked_sub(0x20) {
                Some(j) => PRINTABLE[j],
                None => char::from_u32(i as u32).expect("a control character"),
            })
            .collect()
    })
}

/// A random [`Value`] tree: any leaf, or — while `depth` lasts — an
/// array or object of up to three children one level shallower.
struct ArbValue {
    depth: u32,
}

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let child = || ArbValue {
            depth: self.depth - 1,
        };
        let kinds = if self.depth == 0 { 3 } else { 5 };
        match (0..kinds).generate(rng) {
            0 => Value::Bool(any::<bool>().generate(rng)),
            1 => Value::Num(prop_oneof![Just(0), Just(u64::MAX), any::<u64>()].generate(rng)),
            2 => Value::Str(arb_string().generate(rng)),
            3 => Value::Arr(proptest::collection::vec(child(), 0..4).generate(rng)),
            _ => Value::Obj(
                proptest::collection::vec((arb_string(), child()), 0..4)
                    .generate(rng)
                    .into_iter()
                    .collect(),
            ),
        }
    }
}

fn arb_hist() -> impl Strategy<Value = HistSnapshot> {
    proptest::collection::vec(0u64..1_000_000_000_000, 0..50).prop_map(|values| {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in &values {
            h.record(*v);
        }
        reg.snapshot().histograms["h"].clone()
    })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        proptest::collection::vec((0usize..8, 0u64..u64::MAX), 0..12),
        proptest::collection::vec((0usize..8, 0u64..u64::MAX), 0..12),
        proptest::collection::vec(0u64..u64::MAX, 0..40),
    )
        .prop_map(|(counters, gauges, hist_values)| {
            let reg = Registry::new();
            // A small closed key universe exercises both fresh names and
            // repeated registration of the same name.
            for (slot, v) in counters {
                reg.counter(&format!("count.metric-{slot}"))
                    .add(v % 1_000_000);
            }
            for (slot, v) in gauges {
                reg.gauge(&format!("gauge.metric-{slot}")).record_max(v);
            }
            let h = reg.histogram("hist.values_ns");
            for v in hist_values {
                h.record(v);
            }
            reg.snapshot()
        })
}

proptest! {
    #[test]
    fn every_u64_lands_in_exactly_one_bucket(v in 0u64..=u64::MAX) {
        let idx = bucket_index(v);
        prop_assert!(idx < HIST_BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {idx} = [{lo}, {hi}]");
        // No neighbouring bucket also claims it.
        if idx > 0 {
            let (_, prev_hi) = bucket_bounds(idx - 1);
            prop_assert!(prev_hi < v);
        }
        if idx + 1 < HIST_BUCKETS {
            let (next_lo, _) = bucket_bounds(idx + 1);
            prop_assert!(next_lo > v);
        }
    }

    #[test]
    fn histogram_recording_is_count_preserving(values in proptest::collection::vec(0u64..=u64::MAX, 0..200)) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in &values {
            h.record(*v);
        }
        let snap = reg.snapshot().histograms["h"].clone();
        prop_assert_eq!(snap.count, values.len() as u64);
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, values.len() as u64, "no sample lost or double-counted");
        if let Some(&min) = values.iter().min() {
            prop_assert_eq!(snap.min, min);
            prop_assert_eq!(snap.max, *values.iter().max().unwrap());
        }
    }

    #[test]
    fn merge_is_commutative(a in arb_hist(), b in arb_hist()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in arb_hist(), b in arb_hist(), c in arb_hist()) {
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_preserves_counts(a in arb_hist(), b in arb_hist()) {
        let mut m = a.clone();
        m.merge(&b);
        prop_assert_eq!(m.count, a.count + b.count);
        let total: u64 = m.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(total, m.count);
        // Identity element.
        let mut id = a.clone();
        id.merge(&HistSnapshot::default());
        prop_assert_eq!(id, a);
    }

    #[test]
    fn snapshot_json_round_trips_bit_for_bit(snap in arb_snapshot()) {
        let text = snap.to_json();
        let back = Snapshot::parse(&text).expect("parse own output");
        prop_assert_eq!(&back, &snap);
        // Canonical: serialising the parse result reproduces the bytes.
        prop_assert_eq!(back.to_json(), text);
    }

    #[test]
    fn value_json_round_trips(v in ArbValue { depth: 4 }) {
        let text = v.to_json();
        let back = Value::parse(&text).expect("parse own output");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_json(), text);
    }

    #[test]
    fn counter_export_matches_recorded_totals(increments in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let reg = Registry::new();
        let c = reg.counter("total");
        let mut expected = 0u64;
        for inc in increments {
            c.add(inc);
            expected += inc;
        }
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counters["total"], expected);
        let reparsed = Snapshot::parse(&snap.to_json()).expect("round trip");
        prop_assert_eq!(reparsed.counters["total"], expected);
    }
}
