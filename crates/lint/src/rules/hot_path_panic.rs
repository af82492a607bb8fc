//! `hot-path-panic`: no `.unwrap()`, `.expect(..)`, or slice indexing in
//! the designated hot-path modules (`sim::engine`, `sim::queue`,
//! `sim::packet`, `sim::ctx`, `sim::tables`, `sim::stats`,
//! `sim::router`, `sim::hash`, `net::trie`, `net::siphash`,
//! `net::checksum`, `dataplane::codec`, `dataplane::switch`).
//! A panic there doesn't fail one packet — it aborts the whole
//! simulation run mid-experiment. Hot-path code must either handle the
//! `None`/`Err` case or carry a reasoned allow naming the invariant that
//! rules it out.
//!
//! Indexing detection is syntactic: a `[` group whose preceding token is
//! a value (identifier that isn't a keyword, closing `)`/`]`) is an
//! index expression; array types `[u8; N]`, attributes `#[..]`, and
//! macro bangs `vec![..]` are not flagged.

use crate::config;
use crate::diagnostics::Diagnostic;
use crate::registry::Rule;
use crate::rules::is_method_call;
use crate::scan::{FileScan, TokKind};
use proc_macro2::Delimiter;

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `in [..]`, `as [..; N]`, …).
const NON_VALUE_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "union", "unsafe", "use", "where",
    "while", "yield",
];

/// See the module docs.
pub struct HotPathPanic;

impl Rule for HotPathPanic {
    fn name(&self) -> &'static str {
        "hot-path-panic"
    }

    fn description(&self) -> &'static str {
        "forbid unwrap/expect/slice-indexing in hot-path modules (a panic aborts the run)"
    }

    fn applies(&self, path: &str) -> bool {
        config::is_hot_path_module(path)
    }

    // Unwraps in unit tests are idiomatic; the rule guards the run-time
    // path only.
    fn include_test_code(&self) -> bool {
        false
    }

    fn check(&self, path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
        for (line, column, what, fix) in find_panic_sites(scan, 0..scan.tokens.len()) {
            out.push(Diagnostic {
                rule: self.name(),
                severity: self.severity(),
                file: path.to_string(),
                line,
                column,
                chain: Vec::new(),
                message: format!("{what} — hot-path modules must not panic per packet"),
                help: Some(format!(
                    "{fix}, or suppress with `tango-lint: allow({}) <reason stating the \
                     invariant>`",
                    self.name()
                )),
            });
        }
    }
}

/// The raw matcher: every panic-capable site in a token range. Shared by
/// the module-scoped rule above and the reachability-based pass
/// ([`crate::reach`]).
pub(crate) fn find_panic_sites(
    scan: &FileScan,
    range: std::ops::Range<usize>,
) -> Vec<(u32, u32, String, String)> {
    let toks = &scan.tokens;
    let mut out = Vec::new();
    for i in range {
        let tok = &toks[i];
        let finding = match &tok.kind {
            TokKind::Ident if tok.text == "unwrap" && is_method_call(toks, i) => Some((
                "`.unwrap()` panics on `None`/`Err`".to_string(),
                "handle the case, or use `unwrap_or`/`match`".to_string(),
            )),
            TokKind::Ident if tok.text == "expect" && is_method_call(toks, i) => Some((
                "`.expect(..)` panics on `None`/`Err`".to_string(),
                "handle the case instead of panicking".to_string(),
            )),
            TokKind::Open(Delimiter::Bracket) if is_index_expr(scan, i) => Some((
                "slice/array indexing panics when out of bounds".to_string(),
                "use `get`/`get_mut` and handle `None`".to_string(),
            )),
            _ => None,
        };
        if let Some((what, fix)) = finding {
            out.push((tok.line, tok.column, what, fix));
        }
    }
    out
}

/// Is the `[` at token `i` an index expression (postfix position)?
/// A full-range slice `x[..]` is exempt: `RangeFull` indexing of a
/// slice cannot go out of bounds.
fn is_index_expr(scan: &FileScan, i: usize) -> bool {
    let Some(prev) = scan.prev(i) else {
        return false;
    };
    let postfix = match &prev.kind {
        TokKind::Ident => {
            // `&'a [u8]` — a lifetime ident (the lexer keeps the `'` in
            // the text) means the `[` opens an array/slice type.
            !prev.text.starts_with('\'') && !NON_VALUE_KEYWORDS.contains(&prev.text.as_str())
        }
        TokKind::Close(Delimiter::Parenthesis) | TokKind::Close(Delimiter::Bracket) => true,
        _ => false,
    };
    if !postfix {
        return false;
    }
    let full_range = matches!(scan.at(i + 1), Some(t) if t.kind == TokKind::Punct('.'))
        && matches!(scan.at(i + 2), Some(t) if t.kind == TokKind::Punct('.'))
        && matches!(scan.at(i + 3), Some(t) if matches!(t.kind, TokKind::Close(Delimiter::Bracket)));
    !full_range
}
