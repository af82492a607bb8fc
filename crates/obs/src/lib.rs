//! # tango-obs — deterministic observability for the Tango stack
//!
//! A zero-dependency metrics subsystem built for a
//! *deterministic* simulator: every number it produces is a pure
//! function of the simulation inputs, never of the host machine.
//!
//! * [`Registry`] — a shareable handle to a named set of [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s. Handles are cheap
//!   clones (an `Arc` around atomics); the hot path touches no lock and
//!   allocates nothing.
//! * [`Snapshot`] — a point-in-time export of a registry with **sorted
//!   keys** and integer-only values, rendering to byte-stable JSON
//!   ([`Snapshot::to_json`]) so artifacts diff bit-for-bit across runs
//!   and shard counts. [`Snapshot::parse`] reads the same format back.
//!
//! ## Determinism rules
//!
//! 1. All values are `u64`. No floats anywhere — float formatting and
//!    accumulation order are both portability hazards.
//! 2. Histograms use fixed power-of-two bucket boundaries covering the
//!    whole `u64` range (see [`bucket_index`]); recording never casts
//!    lossily and never loses a sample.
//! 3. Export iterates `BTreeMap`s, so key order is total and stable.
//! 4. Time comes from the caller (the sim's virtual clock), never from
//!    `Instant`/`SystemTime` (wall clocks are banned repo-wide by
//!    `tango-lint`; this crate never reads one).
//!
//! ## Off switch
//!
//! Instrumentation is armed at run time: a component records only into
//! the [`Registry`] it was handed (`SimConfig::obs`, `set_obs`, ...), and
//! one that was handed none records nothing. There is no compile-time
//! switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
pub mod snapshot;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use snapshot::{HistSnapshot, Snapshot, Value};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ..= 64) holds values `v` with `2^(i-1) <= v < 2^i`; bucket 64's
/// upper edge is `u64::MAX`. Together they cover every `u64` exactly
/// once, with no casts.
pub const HIST_BUCKETS: usize = 65;

/// The bucket a value falls into (see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    // 64 - leading_zeros is the bit length: 0 for 0, 64 for 2^63..=MAX.
    (64 - value.leading_zeros()) as usize
}

/// FNV-1a's offset basis: the hash of nothing.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: fold the word `v` into the running hash `h`. A byte
/// folds as the word `u64::from(b)`, which is byte-wise FNV-1a (see
/// [`fnv1a_bytes`]). Deterministic and platform-independent; not a
/// cryptographic hash.
#[inline]
pub fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Fold every byte of `bytes` into `h`. Folding fields one after
/// another hashes their concatenation, so no key buffer is assembled.
#[inline]
pub fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a(h, u64::from(b)))
}

/// The inclusive `[lo, hi]` range of values bucket `index` covers.
/// Panics if `index >= HIST_BUCKETS` (a caller bug, not a data path).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HIST_BUCKETS, "bucket index out of range");
    match index {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        i => {
            let lo = 1u64 << (i - 1);
            (lo, (lo << 1) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_bytes(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        let split = fnv1a_bytes(fnv1a_bytes(FNV1A_OFFSET, b"foo"), b"bar");
        assert_eq!(split, fnv1a_bytes(FNV1A_OFFSET, b"foobar"));
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        let (lo, hi) = bucket_bounds(0);
        assert_eq!((lo, hi), (0, 0));
        let mut expected_lo = 1u64;
        for i in 1..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} starts where {} ended", i - 1);
            assert!(hi >= lo);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "last bucket ends at u64::MAX");
    }
}
