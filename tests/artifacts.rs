//! The artifact gate's entries for the chaos storms and Byzantine
//! ablation, the trace dump and its Chrome export, the full scalability
//! ladder and the sharded sweep. The manifest and the one check live in
//! `gate.rs`; the telemetry goldens are `golden_trace.rs`'s, the small
//! scalability tiers `golden_scalability.rs`'s and the listing and
//! canonical form `canonical_artifacts.rs`'s.

mod gate;

use gate::{check, ALL};

#[test]
fn chaos_storms() {
    check("tests/golden/CHAOS_storms.json", ALL);
}

#[test]
fn chaos_byzantine() {
    check("tests/golden/CHAOS_byzantine.json", ALL);
}

#[test]
fn trace_seed1() {
    check("tests/golden/TRACE_vultr-blackhole_seed1.json", ALL);
}

#[test]
fn trace_seed1_chrome() {
    check("results/TRACE_vultr-blackhole_seed1.chrome.json", ALL);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "≈ 90 s in a debug build; run with --release"
)]
fn bench_scalability_full() {
    check("results/BENCH_scalability.json", ALL);
}

#[test]
fn bench_sharded() {
    check("results/BENCH_sharded.json", ALL);
}
