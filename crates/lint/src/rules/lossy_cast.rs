//! `lossy-cast`: no bare `as` integer casts in the wire-format modules.
//! An `as` cast silently truncates when the source value outgrows the
//! target — in the header emitters of `tango-net` or in
//! `dataplane::codec` that corrupts bytes on the wire instead of
//! surfacing a type error. Wire emitters must use
//! `try_from` (or carry a reasoned allow naming the invariant that makes
//! the cast safe).
//!
//! Without type information every integer `as` cast is flagged, widening
//! included: a cast that is safe today can narrow silently when an
//! upstream field type changes, which is precisely the regression class
//! this rule exists to catch.

use crate::config;
use crate::diagnostics::Diagnostic;
use crate::registry::Rule;
use crate::scan::{FileScan, TokKind};

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// See the module docs.
pub struct LossyCast;

impl Rule for LossyCast {
    fn name(&self) -> &'static str {
        "lossy-cast"
    }

    fn description(&self) -> &'static str {
        "forbid `as` integer casts in wire-format modules (use try_from)"
    }

    fn applies(&self, path: &str) -> bool {
        config::is_wire_format_module(path)
    }

    // Test helpers aren't emitting real wire bytes.
    fn include_test_code(&self) -> bool {
        false
    }

    fn check(&self, path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
        let toks = &scan.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if !matches!(tok.kind, TokKind::Ident) || tok.text != "as" {
                continue;
            }
            let Some(target) = toks.get(i + 1) else {
                continue;
            };
            if !matches!(target.kind, TokKind::Ident) || !INT_TYPES.contains(&target.text.as_str())
            {
                continue;
            }
            out.push(Diagnostic {
                rule: self.name(),
                severity: self.severity(),
                file: path.to_string(),
                line: tok.line,
                column: tok.column,
                chain: Vec::new(),
                message: format!(
                    "`as {}` can truncate silently — wire-format code must fail loudly",
                    target.text
                ),
                help: Some(format!(
                    "use `{}::try_from(..)` and handle/expect the error, or suppress \
                     with `tango-lint: allow({}) <reason>`",
                    target.text,
                    self.name()
                )),
            });
        }
    }
}
