//! Every committed JSON artifact is in `tango-obs`'s canonical form:
//! parsing it with `Value::parse` and rendering the tree again with
//! `Value::to_json` reproduces its bytes exactly.
//!
//! The committed set is every `tests/golden/*.json` plus every
//! `results/` file the root `.gitignore` un-ignores (`!/results/...`):
//! the bench artifacts, their timing sidecars and the lint baseline. A
//! file that fails here was written by something other than the one
//! JSON writer, or edited by hand.

use std::path::{Path, PathBuf};
use tango_obs::Value;

fn committed_artifacts(root: &Path) -> Vec<PathBuf> {
    let gitignore = std::fs::read_to_string(root.join(".gitignore")).expect("read .gitignore");
    let mut files: Vec<PathBuf> = gitignore
        .lines()
        .filter_map(|line| line.strip_prefix("!/results/"))
        .map(|name| root.join("results").join(name))
        .collect();
    for entry in std::fs::read_dir(root.join("tests/golden")).expect("list tests/golden") {
        let path = entry.expect("read tests/golden entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            files.push(path);
        }
    }
    files.sort();
    files
}

#[test]
fn committed_artifacts_are_canonical_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = committed_artifacts(&root);
    let count = |dir: &str| {
        files
            .iter()
            .filter(|f| f.starts_with(root.join(dir)))
            .count()
    };
    assert!(
        count("results") >= 5 && count("tests/golden") >= 4,
        "missing committed artifacts: {files:?}"
    );
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let parsed =
            Value::parse(&text).unwrap_or_else(|e| panic!("{} unparsable: {e}", path.display()));
        assert_eq!(
            parsed.to_json(),
            text,
            "{} is not in canonical form",
            path.display()
        );
    }
}
