//! Golden-chaos regression suite: the two `experiments chaos` artifacts
//! of a default run are pinned byte-for-byte.
//!
//! Every chaos storm is a pure function of its seed, and the artifacts
//! are canonical JSON, so any change to how a fault is scheduled,
//! lowered or executed — an adversary installed in another order, a
//! spoof timer armed at another sequence number, a hijack tie broken the
//! other way — moves a counter or the flight-recorder digest and fails
//! here with the exact lines that moved. CI additionally `cmp`s the
//! artifacts `experiments chaos --shards 1|8|9` writes against these
//! files.
//!
//! When a change is *intentional*, refresh the snapshots and review the
//! diff like code:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_chaos
//! git diff tests/golden/
//! ```

use tango_bench::chaos;
use tango_bench::util::SweepOptions;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden chaos artifact");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden chaos artifact {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test golden_chaos",
            path.display()
        )
    });
    if actual != expected {
        let mismatches: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(10)
            .map(|(i, (e, a))| format!("  line {}: golden `{e}` vs actual `{a}`", i + 1))
            .collect();
        panic!(
            "{name} drifted from {} ({} vs {} lines):\n{}\n(refresh intentionally with \
             UPDATE_GOLDEN=1 cargo test --test golden_chaos)",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            mismatches.join("\n")
        );
    }
}

/// A10: the default six seeded storms.
#[test]
fn default_storms_match_byte_for_byte() {
    let sections = chaos::sweep(&SweepOptions::new(&chaos::DEFAULT_SEEDS));
    check("CHAOS_storms.json", &chaos::storms_to_json(&sections));
}

/// A9: the spoofed-telemetry ablation at the default run's first seed.
#[test]
fn default_byzantine_ablation_matches_byte_for_byte() {
    let seed = chaos::DEFAULT_SEEDS[0];
    let arms = chaos::ablation_arms(seed);
    check(
        "CHAOS_byzantine.json",
        &chaos::ablation_to_json(seed, &arms),
    );
}
