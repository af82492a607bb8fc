//! Point-in-time metric exports and their canonical JSON encoding.
//!
//! The encoding is the determinism contract: sorted keys (`BTreeMap`
//! iteration), no floats, fixed two-space indentation, `\n`
//! line endings, trailing newline. Two snapshots with equal contents
//! serialise to byte-identical text on every platform, which is what
//! lets CI diff `results/TELEMETRY_*.json` across runs and shard
//! counts, and what makes golden-trace tests a plain byte comparison.
//!
//! [`Value`] is the workspace's one JSON writer: the telemetry, chaos,
//! trace, bench and lint artifacts are all built as `Value` trees and
//! rendered by [`Value::to_json`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Exported state of one histogram. `buckets` holds only the non-zero
/// buckets as `(bucket_index, count)` pairs, sorted by index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Non-zero buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Merge `other` into `self`. Bucket counts and `sum` add
    /// saturatingly (saturating addition is associative and
    /// commutative, so merge order never changes the result); `min`
    /// and `max` combine with care for the empty case.
    pub fn merge(&mut self, other: &HistSnapshot) {
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            let slot = merged.entry(idx).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        self.buckets = merged.into_iter().collect();
        if self.count == 0 {
            self.min = other.min;
        } else if other.count != 0 {
            self.min = self.min.min(other.min);
        }
        self.max = self.max.max(other.max);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A complete export of a [`crate::Registry`]: every counter, gauge,
/// and histogram by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Render to canonical JSON (see the module docs for the format
    /// guarantees). Includes a trailing newline.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parse text produced by [`Snapshot::to_json`] (or any JSON within
    /// the subset [`Value`] reads). Returns a description of the first
    /// problem on failure.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_value(&Value::parse(text)?)
    }

    /// Convert to the generic JSON [`Value`] tree.
    ///
    /// Besides the three metric maps, the root carries a `"buckets"`
    /// schema field: the lower edge of each of the
    /// [`crate::HIST_BUCKETS`] histogram buckets, so external tooling
    /// can decode `(bucket_index, count)` pairs without hardcoding the
    /// power-of-two edges. Bucket `i` covers `[buckets[i],
    /// buckets[i+1])`; the last bucket is closed by `u64::MAX`. The
    /// field is a constant of the format, so [`Snapshot::from_value`]
    /// ignores it and round-tripping stays byte-identical.
    pub fn to_value(&self) -> Value {
        let nums = |m: &BTreeMap<String, u64>| {
            Value::Obj(m.iter().map(|(k, &v)| (k.clone(), Value::Num(v))).collect())
        };
        let hist = |h: &HistSnapshot| {
            let buckets = h.buckets.iter();
            Value::obj([
                (
                    "buckets",
                    Value::Arr(
                        buckets
                            .map(|&(i, n)| Value::Arr(vec![Value::Num(i), Value::Num(n)]))
                            .collect(),
                    ),
                ),
                ("count", Value::Num(h.count)),
                ("max", Value::Num(h.max)),
                ("min", Value::Num(h.min)),
                ("sum", Value::Num(h.sum)),
            ])
        };
        let edges = (0..crate::HIST_BUCKETS).map(|i| Value::Num(crate::bucket_bounds(i).0));
        Value::obj([
            ("buckets", Value::Arr(edges.collect())),
            ("counters", nums(&self.counters)),
            ("gauges", nums(&self.gauges)),
            (
                "histograms",
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), hist(h)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild a snapshot from a [`Value`] tree in the shape
    /// [`Snapshot::to_value`] produces.
    pub fn from_value(v: &Value) -> Result<Snapshot, String> {
        let root = v.as_obj("snapshot root")?;
        let mut snap = Snapshot::default();
        if let Some(c) = root.get("counters") {
            for (k, v) in c.as_obj("counters")? {
                snap.counters.insert(k.clone(), v.as_num(k)?);
            }
        }
        if let Some(g) = root.get("gauges") {
            for (k, v) in g.as_obj("gauges")? {
                snap.gauges.insert(k.clone(), v.as_num(k)?);
            }
        }
        if let Some(hs) = root.get("histograms") {
            for (k, v) in hs.as_obj("histograms")? {
                let o = v.as_obj(k)?;
                let mut h = HistSnapshot::default();
                if let Some(b) = o.get("buckets") {
                    for pair in b.as_arr("buckets")? {
                        let pair = pair.as_arr("bucket pair")?;
                        if pair.len() != 2 {
                            return Err(format!(
                                "histogram `{k}`: bucket pair has {} elements, wanted 2",
                                pair.len()
                            ));
                        }
                        h.buckets.push((
                            pair[0].as_num("bucket index")?,
                            pair[1].as_num("bucket count")?,
                        ));
                    }
                }
                for (field, slot) in [
                    ("count", &mut h.count),
                    ("sum", &mut h.sum),
                    ("min", &mut h.min),
                    ("max", &mut h.max),
                ] {
                    if let Some(n) = o.get(field) {
                        *slot = n.as_num(field)?;
                    }
                }
                snap.histograms.insert(k.clone(), h);
            }
        }
        Ok(snap)
    }
}

/// The JSON subset this crate reads and writes: objects with string
/// keys, arrays, strings, unsigned 64-bit integers and booleans. No
/// floats, no null — an artifact states fixed-point integers instead of
/// floats and omits an absent field, which keeps the canonical encoding
/// trivially stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON object; `BTreeMap` keeps key order canonical.
    Obj(BTreeMap<String, Value>),
    /// A JSON array.
    Arr(Vec<Value>),
    /// A JSON string.
    Str(String),
    /// An unsigned 64-bit integer.
    Num(u64),
    /// `true` or `false`.
    Bool(bool),
}

impl Value {
    /// An object from `(key, value)` pairs, in any order (the rendering
    /// sorts keys); a repeated key keeps its last value.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        Value::Obj(fields.collect())
    }

    /// Render to canonical JSON text with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }

    /// Parse canonical (or merely well-formed, within the subset) JSON.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn as_obj(&self, what: &str) -> Result<&BTreeMap<String, Value>, String> {
        match self {
            Value::Obj(m) => Ok(m),
            other => Err(format!("{what}: expected object, found {}", other.kind())),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&Vec<Value>, String> {
        match self {
            Value::Arr(a) => Ok(a),
            other => Err(format!("{what}: expected array, found {}", other.kind())),
        }
    }

    fn as_num(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected number, found {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Obj(_) => "object",
            Value::Arr(_) => "array",
            Value::Str(_) => "string",
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => write_string(out, s),
        // Arrays render inline (an object inside one still breaks its
        // lines): one layout rule fewer means one divergence risk fewer.
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item, indent);
            }
            out.push(']');
        }
        Value::Obj(map) if map.is_empty() => out.push_str("{}"),
        Value::Obj(map) => {
            out.push_str("{\n");
            let inner = indent + 1;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..inner {
                    out.push_str("  ");
                }
                write_string(out, k);
                out.push_str(": ");
                write_value(out, val, inner);
            }
            out.push('\n');
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Minimal parser (recursive descent over the emitted subset)
// ---------------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b) if b.is_ascii_digit() => parse_num(bytes, pos),
        Some(b't' | b'f') => parse_bool(bytes, pos),
        Some(&b) => Err(format!("unexpected byte {:?} at {}", b as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_bool(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    for (word, b) in [("true", true), ("false", false)] {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            return Ok(Value::Bool(b));
        }
    }
    Err(format!("invalid literal at byte {}", *pos))
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let val = parse_value(bytes, pos)?;
        map.insert(key, val);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {}", *pos));
    }
    *pos += 1;
    let start = *pos;
    let mut s = String::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(s);
            }
            b'\\' => match bytes.get(*pos + 1) {
                Some(b'"') => {
                    s.push('"');
                    *pos += 2;
                }
                Some(b'\\') => {
                    s.push('\\');
                    *pos += 2;
                }
                Some(b'u') => {
                    let hex = bytes
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                    let hex = std::str::from_utf8(hex)
                        .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                    let ch = char::from_u32(code)
                        .ok_or_else(|| format!("bad \\u codepoint at byte {}", *pos))?;
                    s.push(ch);
                    *pos += 6;
                }
                _ => return Err(format!("unsupported escape at byte {}", *pos)),
            },
            b if b < 0x20 => return Err(format!("unescaped control character at byte {}", *pos)),
            _ => {
                // Advance over one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let ch = rest
                    .chars()
                    .next()
                    .ok_or_else(|| format!("unterminated string from byte {start}"))?;
                s.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err(format!("unterminated string from byte {start}"))
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    text.parse::<u64>()
        .map(Value::Num)
        .map_err(|e| format!("invalid number `{text}` at byte {start}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("sim.events.deliver".to_string(), 12345);
        s.counters.insert("a".to_string(), 0);
        s.gauges.insert("sim.queue.heap_max".to_string(), 17);
        s.histograms.insert(
            "bgp.convergence.rounds".to_string(),
            HistSnapshot {
                buckets: vec![(2, 3), (4, 1)],
                count: 4,
                sum: 19,
                min: 2,
                max: 9,
            },
        );
        s
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let text = s.to_json();
        let back = Snapshot::parse(&text).expect("parse own output");
        assert_eq!(s, back);
        // Re-serialising the parse result is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let text = sample().to_json();
        assert!(text.ends_with('\n'));
        let a = text.find("\"a\"").expect("key a present");
        let sim = text.find("\"sim.events.deliver\"").expect("key present");
        assert!(a < sim, "keys emitted in sorted order");
        assert_eq!(text, sample().to_json(), "same contents, same bytes");
    }

    #[test]
    fn empty_snapshot_renders_empty_objects() {
        let text = Snapshot::default().to_json();
        let back = Snapshot::parse(&text).expect("parse");
        assert_eq!(back, Snapshot::default());
        assert!(text.contains("\"counters\": {}"));
    }

    #[test]
    fn bucket_schema_is_emitted_once_per_snapshot() {
        let text = sample().to_json();
        // One root-level "buckets" key plus one per histogram.
        assert_eq!(text.matches("\"buckets\"").count(), 2);
        let edges: Vec<String> = (0..crate::HIST_BUCKETS)
            .map(|i| crate::bucket_bounds(i).0.to_string())
            .collect();
        let rendered = format!("\"buckets\": [{}]", edges.join(", "));
        assert!(text.contains(&rendered), "schema lists all 65 lower edges");
        assert!(
            Snapshot::default().to_json().contains(&rendered),
            "empty snapshots carry the schema too"
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HistSnapshot {
            buckets: vec![(1, 2)],
            count: 2,
            sum: 3,
            min: 1,
            max: 2,
        };
        let b = HistSnapshot {
            buckets: vec![(1, 1), (5, 1)],
            count: 2,
            sum: 17,
            min: 1,
            max: 16,
        };
        a.merge(&b);
        assert_eq!(a.buckets, vec![(1, 3), (5, 1)]);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 20);
        assert_eq!((a.min, a.max), (1, 16));
    }

    #[test]
    fn merge_with_empty_preserves_min() {
        let mut empty = HistSnapshot::default();
        let full = HistSnapshot {
            buckets: vec![(3, 1)],
            count: 1,
            sum: 5,
            min: 5,
            max: 5,
        };
        empty.merge(&full);
        assert_eq!(empty.min, 5);
        let mut full2 = full.clone();
        full2.merge(&HistSnapshot::default());
        assert_eq!(full2.min, 5);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Value::parse("{\"a\": }").is_err());
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{} extra").is_err());
        assert!(Value::parse("-5").is_err());
        // "1.5" parses the integer then trips over the trailing ".5".
        assert!(Value::parse("1.5").is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("True").is_err());
        // "falsey" parses `false` then trips over the trailing "y".
        assert!(Value::parse("falsey").is_err());
        assert!(Value::parse("\"raw\ttab\"").is_err());
        assert_eq!(
            Value::parse("[true, false]"),
            Ok(Value::Arr(vec![Value::Bool(true), Value::Bool(false)]))
        );
    }
}
