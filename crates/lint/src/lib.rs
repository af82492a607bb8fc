//! `tango-lint` — workspace determinism & hot-path safety lints.
//!
//! Tango's evaluation rests on bit-identical experiment artifacts across
//! runs and shard counts. That guarantee was previously protected only
//! by convention; this crate turns the conventions into machine-checked
//! invariants. The rules (see [`registry::all_rules`] and DESIGN.md's
//! "Determinism invariants"):
//!
//! | rule | guards against |
//! |------|----------------|
//! | `unordered-collections` | `HashMap`/`HashSet` iteration order in deterministic crates |
//! | `wall-clock` | `Instant::now`/`SystemTime` outside `tango-bench` |
//! | `unseeded-rng` | `thread_rng`/OS-entropy constructors anywhere |
//! | `lossy-cast` | silent `as` truncation in wire-format modules (IPv6, UDP and Tango headers, codec) |
//! | `hot-path-panic` | `unwrap`/`expect`/indexing in per-packet code |
//! | `thread-spawn` | ad-hoc threading outside the approved shard runner |
//! | `span-alloc` | `String`/`format!` allocation in span-emission paths |
//!
//! Violations are suppressed inline with
//! `tango-lint: allow(<rule>) <reason>` in a comment — the reason is
//! mandatory, and a reasonless or typo'd allow is itself an error.
//!
//! Run it over the workspace with `cargo run -p tango-lint -- check`.

pub mod callgraph;
pub mod config;
pub mod diagnostics;
pub mod domains;
pub mod json;
pub mod reach;
pub mod registry;
pub mod rules;
pub mod scan;
pub mod suppress;
pub mod taint;

use diagnostics::{Diagnostic, Severity};
use std::path::{Path, PathBuf};

/// Outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving diagnostics, sorted by file/line/column.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were scanned.
    pub files_checked: usize,
}

impl Report {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }
}

/// Lint a single file's source under its repo-relative `path` (which
/// determines rule scoping). Returns surviving diagnostics.
///
/// The interprocedural passes run over the one-file "workspace", so a
/// self-contained source can exercise them; cross-file chains need
/// [`lint_files`].
///
/// Errors if the file does not lex — a file rustc rejects is reported as
/// a diagnostic by [`lint_workspace`], so the pass never silently skips
/// code it cannot see.
pub fn lint_source(path: &str, src: &str) -> Result<Vec<Diagnostic>, syn::Error> {
    // Surface the lex error directly (lint_files would fold it into a
    // parse-failure diagnostic).
    scan::scan_source(src)?;
    let report = lint_files(&[(path.to_string(), src.to_string())]);
    Ok(report.diagnostics)
}

/// Lint a set of files as one workspace: per-file token rules, then the
/// interprocedural passes (call-graph taint, clock domains, hot-path and
/// span-alloc reachability) over all of them together, then suppression
/// filtering per file. This is the real entry point — [`lint_workspace`]
/// reads the tree and calls it.
pub fn lint_files(files: &[(String, String)]) -> Report {
    let mut report = Report::default();
    // 1. Scan every file; unlexable files become diagnostics.
    let mut scans: Vec<(String, scan::FileScan)> = Vec::new();
    for (path, src) in files {
        report.files_checked += 1;
        match scan::scan_source(src) {
            Ok(s) => scans.push((path.clone(), s)),
            Err(e) => report.diagnostics.push(Diagnostic {
                rule: "parse-failure",
                severity: Severity::Error,
                file: path.clone(),
                line: e.span().start().line as u32,
                column: e.span().start().column as u32,
                chain: Vec::new(),
                message: format!("tango-lint cannot tokenize this file: {e}"),
                help: Some("if rustc accepts this file, the vendored lexer needs a fix".into()),
            }),
        }
    }
    // 2. Token-local rules per file.
    let mut raw: Vec<Vec<Diagnostic>> = vec![Vec::new(); scans.len()];
    for (idx, (path, scan)) in scans.iter().enumerate() {
        for rule in registry::all_rules() {
            if !rule.applies(path) {
                continue;
            }
            let mut found = Vec::new();
            rule.check(path, scan, &mut found);
            if !rule.include_test_code() {
                found.retain(|d| {
                    // A diagnostic is in test code if the token that
                    // fired it is; match by position.
                    !scan
                        .tokens
                        .iter()
                        .any(|t| t.line == d.line && t.column == d.column && t.in_test)
                });
            }
            raw[idx].extend(found);
        }
    }
    // 3. Interprocedural passes over the whole set.
    let scan_refs: Vec<(String, &scan::FileScan)> =
        scans.iter().map(|(p, s)| (p.clone(), s)).collect();
    let graph = callgraph::build(&scan_refs);
    let mut interproc = Vec::new();
    taint::check(&graph, &scan_refs, &mut interproc);
    domains::check(&graph, &scan_refs, &mut interproc);
    reach::check(&graph, &scan_refs, &mut interproc);
    for d in interproc {
        if let Some(idx) = scans.iter().position(|(p, _)| *p == d.file) {
            raw[idx].push(d);
        } else {
            report.diagnostics.push(d);
        }
    }
    // 4. Suppressions per file (interprocedural findings anchor at their
    //    source/violation token, so a reasoned allow on that line covers
    //    them like any local finding).
    for (idx, (path, scan)) in scans.iter().enumerate() {
        let mut meta = Vec::new();
        let suppressions = suppress::collect(path, scan, &scan.comments, &mut meta);
        let mut kept = suppress::apply(path, suppressions, std::mem::take(&mut raw[idx]));
        kept.extend(meta);
        report.diagnostics.extend(kept);
    }
    report.diagnostics.sort_by_key(|d| d.sort_key());
    report
}

/// Lint every workspace source file under `root`. Unlexable files become
/// `parse-failure` diagnostics rather than aborting the run.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/lint/tests/fixtures/") {
            // Fixture snippets contain violations on purpose.
            continue;
        }
        sources.push((rel, std::fs::read_to_string(file)?));
    }
    Ok(lint_files(&sources))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walk up from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
