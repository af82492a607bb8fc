//! `experiments trace` — the causal flight-recorder export (B4).
//!
//! Runs the Vultr NY↔LA pairing through a scripted path-2 blackhole — a
//! lighter timeline than `experiments telemetry`, sized so the span
//! rings never wrap — with the causal span layer armed, and exports the
//! full stream twice per seed:
//!
//! * `results/TRACE_vultr-blackhole_seed<S>.json` — the canonical span
//!   dump (`tango-trace/spans/v1`, sorted keys, integers only).
//! * `results/TRACE_vultr-blackhole_seed<S>.chrome.json` — Chrome
//!   `trace_event` form; open it in Perfetto or `chrome://tracing` and
//!   the causal parents render as flow arrows.
//!
//! Every span key is a pure function of the event schedule — never of
//! shard layout, shard-runner threads, or wall clocks — so both
//! artifacts are **byte-identical** across runs and shard counts; seed
//! 1's canonical dump is committed under `tests/golden/`, and
//! `tests/gate.rs` checks both files at several shard counts.
//!
//! `--query` answers causal questions over the same stream instead of
//! writing artifacts: `ancestry:<t>:<o>:<s>[:<i>]` walks a span's cause
//! chain, `node:<as>:<t0>:<t1>` lists everything an AS did in a window,
//! and `kinds` prints per-kind cause→effect latency histograms.

use crate::util::{out_dir, print_table, SweepOptions};
use tango::prelude::*;
use tango_trace::{export, query, Span, SpanKey, SpanRing};

/// When the path-2 blackhole opens (both directions, no BGP withdrawal).
const OUTAGE_START: SimTime = SimTime(1_000_000_000);
/// How long it lasts (long enough for Suspect → Down → reroute →
/// recovery to all land inside the horizon).
const OUTAGE_LEN: SimTime = SimTime(1_500_000_000);
/// Probe period (20× the paper's 10 ms: the trace scenario is sized for
/// a *readable* span stream and a small golden file — probe traversal
/// dominates the span count, and health detection is silence-driven, so
/// slower probes only need matching silence thresholds below).
const PROBE_PERIOD: SimTime = SimTime(200_000_000);
/// Control-loop period.
const CONTROL_PERIOD: SimTime = SimTime(250_000_000);
/// Silence before `Up → Suspect` (scaled to the probe period the same
/// way the default 200 ms sits above 10 ms probes).
const SUSPECT_AFTER: u64 = 450_000_000;
/// Silence before `Suspect → Down`.
const DOWN_AFTER: u64 = 900_000_000;
/// App-packet spacing (each direction).
const APP_PERIOD: SimTime = SimTime(500_000_000);
/// App payload bytes.
const PAYLOAD_BYTES: usize = 64;
/// Simulated horizon (covers detection, reroute, backoff re-probe, and
/// readmission after the outage lifts at 2.5 s).
const HORIZON: SimTime = SimTime(4_500_000_000);
/// Per-shard span-ring capacity: generous, so no ring ever wraps and the
/// merged stream is the exact event history at every shard count.
const SPAN_CAPACITY: usize = 1 << 16;

/// Scenario id: names the artifacts and the golden file.
pub const SCENARIO: &str = "vultr-blackhole";

/// Seeds of a default run: the one with a committed golden.
pub const DEFAULT_SEEDS: [u64; 1] = [1];

/// Health thresholds matched to the slowed-down probe cadence.
fn health_config() -> HealthConfig {
    HealthConfig {
        suspect_after_ns: SUSPECT_AFTER,
        down_after_ns: DOWN_AFTER,
        ..HealthConfig::default()
    }
}

/// Run the scenario for one seed and return the merged span stream
/// (engine rings across all shards + the pairing's control-plane ring,
/// in canonical key order). The stream is bit-identical for every
/// `shards` value — span keys derive from the engine's canonical
/// `EventKey`, which partitioning cannot change.
pub fn collect_seed(seed: u64, shards: usize) -> SpanRing {
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed,
        shards,
        span_capacity: SPAN_CAPACITY,
        probe_period: Some(PROBE_PERIOD),
        control_period: Some(CONTROL_PERIOD),
        policy_a: Box::new(LowestOwdPolicy::new(500_000.0)),
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        health_a: Some(health_config()),
        health_b: Some(health_config()),
        wide_area_events: vec![WideAreaEvent::Blackhole {
            path: 2,
            at_ns: OUTAGE_START.as_ns(),
            duration_ns: OUTAGE_LEN.as_ns(),
        }],
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions");
    let mut t = SimTime::from_ms(500);
    while t < SimTime::from_ms(4_000) {
        pairing.send_app_packet(t, Side::B, PAYLOAD_BYTES);
        pairing.send_app_packet(t, Side::A, PAYLOAD_BYTES);
        t += APP_PERIOD;
    }
    pairing.run_until(HORIZON);
    pairing.spans()
}

/// The canonical span dump of a collected ring (the artifact bytes).
pub fn dump_json(ring: &SpanRing) -> String {
    export::spans_to_json(&ring.spans(), ring.total_recorded(), ring.capacity() as u64)
}

/// Short human-readable payload summary of a span's kind (offline
/// rendering — the span-alloc lint scope is emission, not reporting).
fn kind_detail(s: &Span) -> String {
    let fields: Vec<String> = s.kind.fields().map(|(k, v)| format!("{k}={v}")).collect();
    fields.join(" ")
}

fn fmt_key(k: &SpanKey) -> String {
    if k.is_none() {
        "-".to_string()
    } else {
        format!("{}/{}/{}/{}", k.time_ns, k.origin, k.seq, k.intra)
    }
}

fn span_rows(spans: &[Span]) -> Vec<Vec<String>> {
    spans
        .iter()
        .map(|s| {
            vec![
                s.key.time_ns.to_string(),
                s.node.to_string(),
                s.kind.name().to_string(),
                kind_detail(s),
                fmt_key(&s.key),
                fmt_key(&s.parent),
            ]
        })
        .collect()
}

const SPAN_HEADERS: [&str; 6] = ["time ns", "AS", "kind", "detail", "key", "parent"];

/// Parse and answer one `--query` form against a span stream. Returns an
/// error string for malformed queries (the caller exits 2, like any
/// other usage error).
pub fn run_query(spans: &[Span], q: &str) -> Result<(), String> {
    let parts: Vec<&str> = q.split(':').collect();
    let num = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>().map_err(|e| format!("{what} `{s}`: {e}"))
    };
    match parts[0] {
        "ancestry" => {
            if parts.len() != 4 && parts.len() != 5 {
                return Err("ancestry query is ancestry:<time_ns>:<origin>:<seq>[:<intra>]".into());
            }
            let key = SpanKey {
                time_ns: num(parts[1], "time_ns")?,
                origin: num(parts[2], "origin")? as u32,
                seq: num(parts[3], "seq")?,
                intra: parts.get(4).map_or(Ok(0), |s| num(s, "intra"))? as u32,
            };
            let chain = query::ancestry(spans, key);
            if chain.is_empty() {
                return Err(format!("no span with key {} is retained", fmt_key(&key)));
            }
            println!("causal ancestry of {} (oldest cause first):", fmt_key(&key));
            print_table(&SPAN_HEADERS, &span_rows(&chain));
        }
        "node" => {
            if parts.len() != 4 {
                return Err("node query is node:<as>:<t0_ns>:<t1_ns>".into());
            }
            let (node, t0, t1) = (
                num(parts[1], "as")? as u32,
                num(parts[2], "t0_ns")?,
                num(parts[3], "t1_ns")?,
            );
            let hits = query::touching(spans, node, t0, t1);
            println!("{} spans on AS {node} in [{t0}, {t1}):", hits.len());
            print_table(&SPAN_HEADERS, &span_rows(&hits));
        }
        "kinds" => {
            if parts.len() != 1 {
                return Err("kinds query takes no arguments".into());
            }
            let hists = query::kind_histograms(spans);
            let mut rows = Vec::new();
            for h in &hists {
                let mean = h.total_ns.checked_div(h.count).unwrap_or(0);
                // The densest power-of-two bucket, as a readable mode.
                let top = h
                    .buckets
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, n)| (**n, usize::MAX - i))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let (lo, hi) = tango_obs::bucket_bounds(top);
                rows.push(vec![
                    h.name.to_string(),
                    h.count.to_string(),
                    mean.to_string(),
                    h.max_ns.to_string(),
                    format!("[{lo}, {hi})"),
                ]);
            }
            println!("cause→effect latency by span kind (ns):");
            print_table(&["kind", "count", "mean", "max", "modal bucket"], &rows);
        }
        other => {
            return Err(format!(
                "unknown query `{other}` (forms: ancestry:<t>:<o>:<s>[:<i>], \
                 node:<as>:<t0>:<t1>, kinds)"
            ));
        }
    }
    Ok(())
}

/// The `experiments trace` entry point. Returns the process exit code.
pub fn report(options: &SweepOptions) -> i32 {
    println!(
        "trace — {SCENARIO}: path 2 dies at {} ms for {} ms; health-gated \
         lowest-OWD both sides, {} ms probes, spans armed; seeds {:?}\n",
        OUTAGE_START.as_ns() / 1_000_000,
        OUTAGE_LEN.as_ns() / 1_000_000,
        PROBE_PERIOD.as_ns() / 1_000_000,
        options.seeds
    );
    if let Some(q) = &options.query {
        // The parser admits `--query` with exactly one seed.
        let ring = collect_seed(options.seeds[0], 1);
        return match run_query(&ring.spans(), q) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        };
    }
    let dir = out_dir(&options.out);
    let mut rows = Vec::new();
    let mut wrapped = false;
    for &seed in &options.seeds {
        let ring = collect_seed(seed, 1);
        let spans = ring.spans();
        if ring.total_recorded() > spans.len() as u64 {
            wrapped = true;
        }
        let json = dump_json(&ring);
        let chrome = export::chrome_trace(&spans);
        let json_path = dir.join(format!("TRACE_{SCENARIO}_seed{seed}.json"));
        let chrome_path = dir.join(format!("TRACE_{SCENARIO}_seed{seed}.chrome.json"));
        std::fs::write(&json_path, &json).expect("write TRACE json");
        std::fs::write(&chrome_path, &chrome).expect("write TRACE chrome json");
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        rows.push(vec![
            seed.to_string(),
            spans.len().to_string(),
            roots.to_string(),
            query::kind_histograms(&spans).len().to_string(),
            json.len().to_string(),
            chrome.len().to_string(),
            format!("{:016x}", export::digest64(json.as_bytes())),
        ]);
    }
    print_table(
        &[
            "seed",
            "spans",
            "roots",
            "kinds",
            "json bytes",
            "chrome bytes",
            "digest",
        ],
        &rows,
    );
    println!(
        "\nwritten to {} (TRACE_{SCENARIO}_seed*.json + *.chrome.json; open the \
         chrome files in Perfetto — parents render as flow arrows)",
        dir.display()
    );
    if wrapped {
        eprintln!(
            "FAIL: a span ring wrapped (capacity {SPAN_CAPACITY}); the dump is no \
             longer the exact event history, so the determinism contract is void"
        );
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_bit_identical_across_runs_and_shards() {
        let a = collect_seed(3, 1);
        let b = collect_seed(3, 4);
        assert!(!a.spans().is_empty(), "armed scenario must record spans");
        assert_eq!(dump_json(&a), dump_json(&b), "shards must be invisible");
        assert_eq!(
            export::chrome_trace(&a.spans()),
            export::chrome_trace(&b.spans())
        );
    }

    #[test]
    fn the_blackhole_story_is_recorded_and_rings_do_not_wrap() {
        let ring = collect_seed(1, 1);
        let spans = ring.spans();
        assert_eq!(
            ring.total_recorded(),
            spans.len() as u64,
            "the scenario is sized to never wrap"
        );
        for kind in [
            "control",
            "health_transition",
            "reroute",
            "encap",
            "deliver",
        ] {
            assert!(
                spans.iter().any(|s| s.kind.name() == kind),
                "span stream must contain a {kind} span"
            );
        }
        // Every health transition has a resolvable causal ancestry that
        // starts at a control-plane root (the blackhole Control span).
        let transition = spans
            .iter()
            .find(|s| s.kind.name() == "health_transition")
            .expect("blackhole must drive a health transition");
        let chain = query::ancestry(&spans, transition.key);
        assert!(chain.len() >= 2, "transition must have recorded causes");
        assert_eq!(chain[0].kind.name(), "control");
    }

    #[test]
    fn queries_answer_on_the_scenario_stream() {
        let ring = collect_seed(1, 1);
        let spans = ring.spans();
        let any = spans.first().expect("stream is non-empty");
        run_query(
            &spans,
            &format!(
                "ancestry:{}:{}:{}:{}",
                any.key.time_ns, any.key.origin, any.key.seq, any.key.intra
            ),
        )
        .expect("ancestry query answers");
        run_query(&spans, "kinds").expect("kinds query answers");
        let node = spans.iter().map(|s| s.node).find(|n| *n != 0).unwrap();
        run_query(&spans, &format!("node:{node}:0:{}", u64::MAX)).expect("node query answers");
        assert!(run_query(&spans, "bogus").is_err());
        assert!(run_query(&spans, "ancestry:1").is_err());
    }
}
