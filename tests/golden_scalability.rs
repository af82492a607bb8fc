//! The small-tier scalability golden, `tests/golden/BENCH_scalability_small.json`,
//! as an entry of the artifact gate (`gate.rs`): `experiments scalability
//! --tiers small` must write its bytes, and so must a second build in
//! the same process.

mod gate;

use gate::{check, Part};

const GOLDEN: &str = "tests/golden/BENCH_scalability_small.json";

#[test]
fn small_tiers_match_byte_for_byte() {
    check(GOLDEN, &[Part::Report]);
}

#[test]
fn rebuild_is_byte_identical() {
    check(GOLDEN, &[Part::Renders]);
}
