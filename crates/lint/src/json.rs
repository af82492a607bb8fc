//! Stable machine-readable diagnostics: `tango-lint/diagnostics/v1`.
//!
//! The document is `tango-obs`'s canonical JSON ([`Value::to_json`]:
//! sorted keys, no floats, 2-space indent, trailing newline), with the
//! diagnostics sorted by (file, line, column, rule); `help` is omitted
//! when a diagnostic has none. CI diffs this output byte-for-byte
//! against the committed empty baseline (`results/LINT_baseline.json`),
//! so *any* new diagnostic — error or warning — fails the build, and two
//! consecutive runs over the same tree must serialize identically.

use crate::diagnostics::Diagnostic;
use tango_obs::Value;

/// Schema identifier embedded in every document.
pub const SCHEMA: &str = "tango-lint/diagnostics/v1";

/// Serialize a sorted diagnostics slice as the v1 JSON document.
pub fn render(diagnostics: &[Diagnostic]) -> String {
    Value::obj([
        ("schema", Value::Str(SCHEMA.into())),
        (
            "diagnostics",
            Value::Arr(diagnostics.iter().map(diagnostic_value).collect()),
        ),
    ])
    .to_json()
}

fn diagnostic_value(d: &Diagnostic) -> Value {
    let chain = d.chain.iter().map(|hop| {
        Value::obj([
            ("function", Value::Str(hop.function.clone())),
            ("file", Value::Str(hop.file.clone())),
            ("line", Value::Num(u64::from(hop.line))),
        ])
    });
    let help = d.help.iter().map(|h| ("help", Value::Str(h.clone())));
    Value::obj(
        [
            ("rule", Value::Str(d.rule.into())),
            ("severity", Value::Str(d.severity.label().into())),
            ("file", Value::Str(d.file.clone())),
            ("line", Value::Num(u64::from(d.line))),
            ("column", Value::Num(u64::from(d.column))),
            ("message", Value::Str(d.message.clone())),
            ("chain", Value::Arr(chain.collect())),
        ]
        .into_iter()
        .chain(help),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{ChainHop, Severity};

    fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        match v {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn items(v: Option<&Value>) -> &[Value] {
        match v {
            Some(Value::Arr(a)) => a,
            other => panic!("expected an array, found {other:?}"),
        }
    }

    fn str_of(s: &str) -> Option<Value> {
        Some(Value::Str(s.into()))
    }

    #[test]
    fn rendered_diagnostics_round_trip_through_the_parser() {
        let hop = |function: &str, line| ChainHop {
            function: function.to_string(),
            file: "crates/sim/src/engine.rs".to_string(),
            line,
        };
        let diagnostics = [
            Diagnostic {
                rule: "wall-clock",
                severity: Severity::Error,
                file: "crates/x/src/lib.rs".to_string(),
                line: 7,
                column: 13,
                message: "quote \" backslash \\ newline \n tab \t ctrl \u{1} µs → ok".to_string(),
                help: Some("use the virtual clock".to_string()),
                chain: vec![hop("sim::run", 10), hop("sim::engine::dispatch", 20)],
            },
            Diagnostic {
                rule: "lossy-cast",
                severity: Severity::Warning,
                file: "crates/y/src/wire.rs".to_string(),
                line: 1,
                column: 1,
                message: "plain".to_string(),
                help: None,
                chain: Vec::new(),
            },
        ];
        let doc = Value::parse(&render(&diagnostics)).expect("lint JSON parses");
        assert_eq!(field(&doc, "schema").cloned(), str_of(SCHEMA));
        let parsed = items(field(&doc, "diagnostics"));
        assert_eq!(parsed.len(), diagnostics.len());
        for (v, d) in parsed.iter().zip(&diagnostics) {
            let keys = match v {
                Value::Obj(m) => m.len(),
                other => panic!("a diagnostic is an object, found {other:?}"),
            };
            assert_eq!(keys, 7 + usize::from(d.help.is_some()), "{v:?}");
            assert_eq!(field(v, "rule").cloned(), str_of(d.rule));
            assert_eq!(field(v, "severity").cloned(), str_of(d.severity.label()));
            assert_eq!(field(v, "file").cloned(), str_of(&d.file));
            assert_eq!(field(v, "line"), Some(&Value::Num(u64::from(d.line))));
            assert_eq!(field(v, "column"), Some(&Value::Num(u64::from(d.column))));
            assert_eq!(field(v, "message").cloned(), str_of(&d.message));
            assert_eq!(
                field(v, "help").cloned(),
                d.help.as_deref().and_then(str_of)
            );
            let chain = items(field(v, "chain"));
            assert_eq!(chain.len(), d.chain.len());
            for (h, hop) in chain.iter().zip(&d.chain) {
                assert_eq!(field(h, "function").cloned(), str_of(&hop.function));
                assert_eq!(field(h, "file").cloned(), str_of(&hop.file));
                assert_eq!(field(h, "line"), Some(&Value::Num(u64::from(hop.line))));
            }
        }
    }
}
