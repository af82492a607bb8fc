//! Span-stream exporters: canonical JSON and Chrome `trace_event`.
//!
//! Both render a key-sorted span slice (from [`crate::SpanRing::spans`]
//! or a merge) deterministically: iteration order is canonical key
//! order, object keys are sorted (the canonical form reuses
//! `tango-obs`'s [`Value`] writer), and no float ever enters the output
//! — timestamps are fixed-point microsecond strings. Artifacts therefore
//! byte-diff across runs and shard counts.
//!
//! This module is offline (runs once per export, never per event), so
//! ordinary string building is fine here — the `span-alloc` lint scope
//! covers only the emission path (`span.rs`, `ring.rs`).

use crate::span::{FieldValue, Span, SpanKey, SpanKind};
use std::collections::BTreeMap;
use tango_obs::Value;

/// Schema tag of the canonical span dump.
pub const SPANS_SCHEMA: &str = "tango-trace/spans/v1";

fn key_value(k: &SpanKey) -> Value {
    Value::Arr(vec![
        Value::Num(k.time_ns),
        Value::Num(u64::from(k.origin)),
        Value::Num(k.seq),
        Value::Num(u64::from(k.intra)),
    ])
}

fn kind_value(kind: &SpanKind) -> Value {
    let fields = kind.fields().map(|(field, value)| match value {
        FieldValue::Num(v) => (field, Value::Num(v)),
        FieldValue::Name(name) => (field, Value::Str(name.into())),
    });
    let name = ("name", Value::Str(kind.name().into()));
    Value::obj(std::iter::once(name).chain(fields))
}

fn span_value(s: &Span) -> Value {
    let parent = (!s.parent.is_none()).then(|| ("parent", key_value(&s.parent)));
    Value::obj(
        [
            ("key", key_value(&s.key)),
            ("node", Value::Num(u64::from(s.node))),
            ("kind", kind_value(&s.kind)),
        ]
        .into_iter()
        .chain(parent),
    )
}

/// The canonical span dump as a [`Value`] tree.
///
/// `total_recorded` and `capacity` describe the ring the spans came from
/// (so a dump self-reports whether it wrapped: `total_recorded >
/// spans.len()` means older spans were evicted).
pub fn spans_to_value(spans: &[Span], total_recorded: u64, capacity: u64) -> Value {
    Value::obj([
        ("schema", Value::Str(SPANS_SCHEMA.into())),
        ("capacity", Value::Num(capacity)),
        ("total_recorded", Value::Num(total_recorded)),
        ("spans", Value::Arr(spans.iter().map(span_value).collect())),
    ])
}

/// The canonical span dump as byte-stable JSON (sorted keys, 2-space
/// indent, trailing newline — `tango-obs`'s canonical form).
pub fn spans_to_json(spans: &[Span], total_recorded: u64, capacity: u64) -> String {
    spans_to_value(spans, total_recorded, capacity).to_json()
}

/// Fixed-point microseconds with nanosecond precision ("12.345") — the
/// Chrome `ts`/`dur` unit, without ever formatting a float.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn key_arg(k: &SpanKey) -> String {
    format!("{}/{}/{}/{}", k.time_ns, k.origin, k.seq, k.intra)
}

/// Fold `bytes` into the running hash `h`, FNV-1a style but with the
/// multiplier `0x1_0000_01b3`, not FNV's 64-bit prime `0x100_0000_01b3`
/// (`tango_obs::fnv1a`). Every committed trace and sharded golden folds
/// this one, so it stays as it is.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// `fnv1a` over bytes from FNV's offset basis — the flow-event id
/// hash and the flight-recorder dump digest.
pub fn digest64(bytes: &[u8]) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, bytes)
}

/// Order-sensitive fingerprint of a key-sorted span stream: the `trace=`
/// hash of the run digests (`NetworkSim::digest`). Folds the count the
/// ring ever recorded, then every span's kind name, node, key, parent
/// and payload (the last three as the Chrome `args` object renders
/// them). The caller owns the wrap check — `total_recorded >
/// spans.len()` means evicted spans, and the eviction boundary is not
/// shard-invariant.
pub fn spans_digest(spans: &[Span], total_recorded: u64) -> u64 {
    let mut h = digest64(&total_recorded.to_le_bytes());
    for s in spans {
        h = fnv1a(h, s.kind.name().as_bytes());
        h = fnv1a(h, &s.node.to_le_bytes());
        h = fnv1a(h, chrome_args(s).as_bytes());
    }
    h
}

fn key_id(k: &SpanKey) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&k.time_ns.to_le_bytes());
    bytes[8..12].copy_from_slice(&k.origin.to_le_bytes());
    bytes[12..20].copy_from_slice(&k.seq.to_le_bytes());
    bytes[20..24].copy_from_slice(&k.intra.to_le_bytes());
    digest64(&bytes)
}

/// A span's key, parent and kind payload as the Chrome `args` object.
/// Also hashed by [`spans_digest`]: a format change here is a deliberate
/// refresh of every committed `trace=` digest.
fn chrome_args(s: &Span) -> String {
    let mut args = format!("{{\"key\":\"{}\"", key_arg(&s.key));
    if !s.parent.is_none() {
        args.push_str(&format!(",\"parent\":\"{}\"", key_arg(&s.parent)));
    }
    for (field, value) in s.kind.fields() {
        match value {
            FieldValue::Num(v) => args.push_str(&format!(",\"{field}\":{v}")),
            FieldValue::Name(name) => args.push_str(&format!(",\"{field}\":\"{name}\"")),
        }
    }
    args.push('}');
    args
}

/// Render the span stream in Chrome `trace_event` JSON (the array-of-
/// events form Perfetto and `chrome://tracing` open directly).
///
/// Each span becomes a `ph:"X"` complete event on track `tid = node`
/// (process 0), and each resolvable parent link becomes a flow-event
/// pair (`ph:"s"` at the cause, `ph:"f"` at the effect) so the causal
/// chain renders as arrows. Timestamps are virtual-time microseconds
/// (fixed-point strings), so output is byte-identical across runs.
pub fn chrome_trace(spans: &[Span]) -> String {
    let by_key: BTreeMap<SpanKey, &Span> = spans.iter().map(|s| (s.key, s)).collect();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for s in spans {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"tango\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"dur\":0.001,\"args\":{}}}",
                s.kind.name(),
                s.node,
                ts_us(s.key.time_ns),
                chrome_args(s)
            ),
        );
        if let Some(parent) = by_key.get(&s.parent) {
            let id = key_id(&s.key);
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"s\",\"name\":\"cause\",\"cat\":\"tango\",\"pid\":0,\
                     \"tid\":{},\"ts\":{},\"id\":{}}}",
                    parent.node,
                    ts_us(parent.key.time_ns),
                    id
                ),
            );
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"cause\",\"cat\":\"tango\",\
                     \"pid\":0,\"tid\":{},\"ts\":{},\"id\":{}}}",
                    s.node,
                    ts_us(s.key.time_ns),
                    id
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::DropReason;

    fn spans() -> Vec<Span> {
        let root = SpanKey {
            time_ns: 1_000,
            origin: 0,
            seq: 1,
            intra: 0,
        };
        let hop = SpanKey {
            time_ns: 2_500,
            origin: 3,
            seq: 1,
            intra: 0,
        };
        vec![
            Span {
                key: root,
                parent: SpanKey::NONE,
                node: 7,
                kind: SpanKind::HostInject,
            },
            Span {
                key: hop,
                parent: root,
                node: 8,
                kind: SpanKind::Deliver,
            },
            Span {
                key: SpanKey { intra: 1, ..hop },
                parent: hop,
                node: 8,
                kind: SpanKind::Drop {
                    reason: DropReason::TtlExpired,
                },
            },
        ]
    }

    #[test]
    fn canonical_json_round_trips_through_value_parser() {
        let json = spans_to_json(&spans(), 3, 64);
        let parsed = Value::parse(&json).expect("canonical JSON parses");
        assert_eq!(parsed.to_json(), json, "canonical form is a fixpoint");
        assert!(json.contains("\"schema\": \"tango-trace/spans/v1\""));
        assert!(!json.contains("\"parent\": [18446744073709551615"));
    }

    #[test]
    fn chrome_trace_has_flow_pairs_for_resolvable_parents() {
        let chrome = chrome_trace(&spans());
        assert_eq!(chrome.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(chrome.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(chrome.matches("\"ph\":\"f\"").count(), 2);
        assert!(chrome.contains("\"ts\":2.500"));
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest64(b"a"), digest64(b"b"));
    }

    #[test]
    fn spans_digest_covers_every_field_and_the_recorded_total() {
        let base = spans();
        let d = spans_digest(&base, 3);
        assert_eq!(d, spans_digest(&base, 3));
        assert_ne!(d, spans_digest(&base, 4), "total_recorded is folded");
        assert_ne!(d, spans_digest(&base[..2], 3), "every span is folded");
        let mutate = |f: fn(&mut Span)| {
            let mut v = spans();
            f(&mut v[2]);
            spans_digest(&v, 3)
        };
        assert_ne!(d, mutate(|s| s.node = 9));
        assert_ne!(d, mutate(|s| s.key.intra = 2));
        assert_ne!(d, mutate(|s| s.parent = SpanKey::NONE));
        assert_ne!(d, mutate(|s| s.kind = SpanKind::Deliver));
        assert_ne!(
            d,
            mutate(|s| {
                s.kind = SpanKind::Drop {
                    reason: DropReason::NoRoute,
                }
            })
        );
        assert_ne!(
            spans_digest(&[], 0),
            0xcbf2_9ce4_8422_2325,
            "never the bare offset basis"
        );
    }
}
