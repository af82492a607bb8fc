//! The telemetry goldens, `tests/golden/TELEMETRY_vultr-blackhole_seed{1,7}.json`,
//! as entries of the artifact gate (`gate.rs`): `experiments telemetry`
//! must write their bytes, and so must the in-process collection at
//! shards 2, 8 and 9.

mod gate;

use gate::{canonical, check, Part};

const GOLDENS: [&str; 2] = [
    "tests/golden/TELEMETRY_vultr-blackhole_seed1.json",
    "tests/golden/TELEMETRY_vultr-blackhole_seed7.json",
];

#[test]
fn golden_seed_1_matches_byte_for_byte() {
    check(GOLDENS[0], &[Part::Report]);
}

#[test]
fn golden_seed_7_matches_byte_for_byte() {
    check(GOLDENS[1], &[Part::Report]);
}

/// Sharding the simulator is invisible to the pinned artifacts: every
/// counter, gauge and histogram survives partitioning, conservative
/// windowing and the barrier merge byte for byte (DESIGN.md §11).
#[test]
fn golden_seeds_are_shard_invariant() {
    for golden in GOLDENS {
        check(golden, &[Part::Renders]);
    }
}

#[test]
fn golden_files_are_canonical_json() {
    for golden in GOLDENS {
        canonical(golden);
    }
}
