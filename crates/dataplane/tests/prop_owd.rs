//! Differential property for the OWD value column: `OwdSamples` keeps
//! each sample as a delta-coded varint (or an escaped raw `f64`) in
//! fixed chunks, and every read of it must equal, bit for bit, what a
//! plain `Vec<f64>` of the admitted samples gives.

use proptest::prelude::*;
use tango_dataplane::StatsSink;

/// Values no delta record can carry (non-integral bit patterns, integers
/// outside `i64`) and integers at the edges of `f64`'s exact integers
/// (±(2^53 − 1), ±2^53) and of `i64` (the last four: two of them in a
/// row make a delta that overflows `i64`).
const HOSTILE: [f64; 20] = [
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.5,
    -36_000_000.25,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
    f64::MIN,
    1e300,
    0.0,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_991.0,
    -9_007_199_254_740_992.0,
    -9_223_372_036_854_775_808.0,
    9_223_372_036_854_774_784.0,
    9_223_372_036_854_775_808.0,
    -9_223_372_036_854_774_784.0,
];

/// NaNs with payloads and signs the canonical `f64::NAN` lacks.
const NAN_PAYLOADS: [u64; 3] = [
    0x7ff0_0000_0000_0001,
    0xfff8_dead_beef_0001,
    0x7ff7_ffff_ffff_ffff,
];

/// One arrival: `(roll, jitter, bits, probe, gated)`. `roll` below the
/// case's hostile share picks a hostile value from `bits`, otherwise the
/// sample is the path's base delay plus `jitter`.
fn arb_step() -> impl Strategy<Value = (u32, i64, u64, bool, bool)> {
    (
        0u32..1000,
        -300_000i64..=300_000,
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
    )
}

fn hostile(roll: u32, bits: u64) -> f64 {
    match roll % 4 {
        0 => HOSTILE[(bits % HOSTILE.len() as u64) as usize],
        1 => f64::from_bits(NAN_PAYLOADS[(bits % NAN_PAYLOADS.len() as u64) as usize]),
        // Any integer: a neighbour more than 2^63 away overflows.
        2 => bits as i64 as f64,
        _ => f64::from_bits(bits),
    }
}

/// The mean and population std exactly as they were computed over the
/// plain column.
fn slice_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

fn slice_std(values: &[f64]) -> Option<f64> {
    let mean = slice_mean(values)?;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt())
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// The same statistic: equal bits, or NaN on both sides. Rust leaves the
/// payload of a NaN that arithmetic produces unspecified (the compiler
/// may commute an addition), so a sum over a NaN sample is pinned only
/// as NaN. Stored NaNs are compared bit for bit above.
fn same(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
        _ => a.is_none() && b.is_none(),
    }
}

proptest! {
    /// Vultr-like jittered nanoseconds mixed with hostile bit patterns,
    /// pushed directly or through the plausibility gate (which
    /// quarantines some), on streams long enough to fill the first chunk
    /// and several later ones: every read equals the `Vec<f64>`
    /// reference's, bit for bit.
    #[test]
    fn the_column_reads_as_the_values_it_was_given(
        base in 1_000_000i64..100_000_000,
        hostile_per_mille in prop_oneof![Just(0u32), 0u32..50, 0u32..1000],
        gap_ns in prop_oneof![0u64..100_000, 0u64..20_000_000],
        steps in proptest::collection::vec(arb_step(), 0..24_000),
    ) {
        let mut sink = StatsSink::new();
        let path = sink.path_mut(0);
        let mut reference: Vec<(f64, bool)> = Vec::new();
        let mut t = 0u64;
        for (i, &(roll, jitter, raw, probe, gated)) in steps.iter().enumerate() {
            let value = if roll < hostile_per_mille {
                hostile(roll, raw)
            } else {
                (base + jitter) as f64
            };
            t += gap_ns;
            let seq = i as u32;
            let admitted = if gated {
                path.record_owd_gated(t, value, seq, probe)
            } else {
                path.record_owd(t, value, seq, probe);
                true
            };
            if admitted {
                reference.push((value, !probe));
            }
            prop_assert_eq!(
                path.owd.last().map(f64::to_bits),
                reference.last().map(|&(v, _)| v.to_bits()),
                "last() after step {}", i
            );
        }

        let values: Vec<f64> = reference.iter().map(|&(v, _)| v).collect();
        let owd = &path.owd;
        prop_assert_eq!(owd.len(), values.len());
        prop_assert_eq!(owd.is_empty(), values.is_empty());
        prop_assert_eq!(bits(owd.values()), bits(values.iter().copied()));
        prop_assert_eq!(owd.iter().len(), values.len());
        prop_assert_eq!(bits(owd.iter()), bits(values.iter().copied()));
        let apps = reference.iter().filter(|&&(_, app)| app).map(|&(v, _)| v);
        prop_assert_eq!(bits(owd.app_values()), bits(apps));
        let mean = slice_mean(&values);
        prop_assert!(same(owd.mean(), mean), "mean {:?} vs {:?}", owd.mean(), mean);
        let jitter = path.rolling.mean_std().or_else(|| slice_std(&values));
        let got = path.jitter_ns();
        prop_assert!(same(got, jitter), "jitter {:?} vs {:?}", got, jitter);
    }
}
