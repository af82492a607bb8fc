//! Self-check: the real workspace must lint clean. This is the same
//! invariant CI's `lint-determinism` job enforces via the binary; having
//! it as a test keeps `cargo test` sufficient locally.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root resolves");
    let report = tango_lint::lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        report.files_checked > 50,
        "suspiciously few files: {}",
        report.files_checked
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        report.error_count(),
        0,
        "workspace has lint errors:\n{}",
        rendered.join("\n")
    );
    assert_eq!(
        report.warning_count(),
        0,
        "workspace has lint warnings (stale allows?):\n{}",
        rendered.join("\n")
    );
}

#[test]
fn json_output_is_byte_identical_across_runs_and_matches_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root resolves");
    let first = tango_lint::json::render(
        &tango_lint::lint_workspace(&root)
            .expect("workspace walk succeeds")
            .diagnostics,
    );
    let second = tango_lint::json::render(
        &tango_lint::lint_workspace(&root)
            .expect("workspace walk succeeds")
            .diagnostics,
    );
    assert_eq!(first, second, "JSON output is not run-to-run stable");
    let baseline = std::fs::read_to_string(root.join("results/LINT_baseline.json"))
        .expect("read results/LINT_baseline.json");
    assert_eq!(
        first, baseline,
        "workspace JSON drifted from the committed baseline — \
         fix the violations or regenerate the baseline deliberately"
    );
}

#[test]
fn every_scoped_module_is_a_workspace_file() {
    // A rule scoped to a path that no longer exists lints nothing: a
    // move or rename must update the list in the same change.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lists = [
        ("HOT_PATH_MODULES", tango_lint::config::HOT_PATH_MODULES),
        (
            "WIRE_FORMAT_MODULES",
            tango_lint::config::WIRE_FORMAT_MODULES,
        ),
        (
            "SPAN_EMISSION_MODULES",
            tango_lint::config::SPAN_EMISSION_MODULES,
        ),
        (
            "SHARD_RUNNER_MODULES",
            tango_lint::config::SHARD_RUNNER_MODULES,
        ),
    ];
    let missing: Vec<String> = lists
        .iter()
        .flat_map(|(name, paths)| paths.iter().map(move |p| (name, p)))
        .filter(|(_, p)| !root.join(p).is_file())
        .map(|(name, p)| format!("{name}: {p}"))
        .collect();
    assert!(
        missing.is_empty(),
        "scoped module paths missing from the workspace:\n{}",
        missing.join("\n")
    );
}
