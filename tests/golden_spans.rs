//! Span-stream determinism, property-tested over randomized chaos
//! schedules, and the flight recorder's acceptance path.
//!
//! `experiments trace` promises that its span dump is a pure function
//! of (scenario, seed) — never of shard layout, `ShardMode`, worker
//! threads, or wall clocks. Seed 1's dump is a committed golden that
//! the artifact gate (`gate.rs`) checks byte for byte; this suite checks
//! that it is canonical, and the contract beyond that one scenario:
//!
//! * a seeded property sweep: random [`ChaosSchedule`] storms, honest
//!   and Byzantine faults alike, each run at shard counts {1, 4, 8} under
//!   both [`ShardMode`]s, with every dump compared byte-for-byte against
//!   the serial single-shard reference;
//! * the flight-recorder acceptance path: an induced invariant
//!   violation must dump a ring whose ancestry chain resolves from the
//!   violation back through the health transition to the chaos event.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tango::prelude::*;
use tango_dataplane::PathSnapshot;
use tango_sim::{ChaosConfig, ChaosSchedule, ShardMode};
use tango_trace::{export, query};

mod gate;

/// The golden dump is canonical JSON.
#[test]
fn golden_trace_is_canonical_json() {
    gate::canonical("tests/golden/TRACE_vultr-blackhole_seed1.json");
}

/// One randomized chaos schedule: which faults, where, and when, drawn
/// by [`ChaosSchedule::generate`] like any chaos storm. Every field comes
/// from a seeded [`StdRng`], so the "random" sweep is itself replayable.
struct RandomCase {
    seed: u64,
    events: Vec<WideAreaEvent>,
    app_offset: SimTime,
}

fn random_case(rng: &mut StdRng) -> RandomCase {
    let schedule = ChaosSchedule::generate(ChaosConfig {
        seed: rng.gen(),
        start_ns: 800_000_000,
        storm_ns: 2_200_000_000,
        n_paths: 4,
        events: rng.gen_range(1..=2),
        byzantine: true,
    });
    RandomCase {
        seed: rng.gen_range(1..1_000u64),
        events: schedule.events,
        app_offset: SimTime(rng.gen_range(300_000_000..700_000_000u64)),
    }
}

/// Run one case at a given shard count and mode, returning the
/// canonical span dump. The scenario mirrors `experiments trace`
/// (slowed probes, matched silence thresholds) so each run is cheap and
/// its rings never wrap.
fn run_case(case: &RandomCase, shards: usize, shard_mode: ShardMode) -> String {
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed: case.seed,
        shards,
        shard_mode,
        span_capacity: 1 << 16,
        probe_period: Some(SimTime::from_ms(200)),
        control_period: Some(SimTime::from_ms(250)),
        policy_a: Box::new(LowestOwdPolicy::new(500_000.0)),
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        health_a: Some(HealthConfig {
            suspect_after_ns: 450_000_000,
            down_after_ns: 900_000_000,
            ..HealthConfig::default()
        }),
        health_b: Some(HealthConfig {
            suspect_after_ns: 450_000_000,
            down_after_ns: 900_000_000,
            ..HealthConfig::default()
        }),
        wide_area_events: case.events.clone(),
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions");
    let mut t = case.app_offset;
    while t < SimTime::from_ms(3_500) {
        pairing.send_app_packet(t, Side::B, 64);
        pairing.send_app_packet(t, Side::A, 64);
        t += SimTime::from_ms(500);
    }
    pairing.run_until(SimTime::from_ms(4_000));
    let ring = pairing.spans();
    let spans = ring.spans();
    assert_eq!(
        ring.total_recorded(),
        spans.len() as u64,
        "the span ring wrapped: a dump is only shard-invariant whole"
    );
    export::spans_to_json(&spans, ring.total_recorded(), ring.capacity() as u64)
}

/// Property: for random chaos storms, the span stream is
/// byte-identical across shard counts {1, 4, 8} and both shard modes.
/// This is the trace analogue of the engine's shard-equivalence proof —
/// span keys derive from the canonical event schedule, which
/// partitioning must not change.
#[test]
fn span_streams_are_shard_and_mode_invariant_on_random_chaos() {
    let mut rng = StdRng::seed_from_u64(0x7a6e_600d);
    let cases: Vec<RandomCase> = (0..4).map(|_| random_case(&mut rng)).collect();
    let honest = |e: &WideAreaEvent| {
        matches!(
            e,
            WideAreaEvent::Blackhole { .. } | WideAreaEvent::SessionReset { .. }
        )
    };
    assert!(
        cases.iter().flat_map(|c| &c.events).any(|e| !honest(e)),
        "the sweep must cover a Byzantine fault"
    );
    for (case_no, case) in cases.iter().enumerate() {
        let reference = run_case(case, 1, ShardMode::Serial);
        assert!(
            reference.len() > 100,
            "case {case_no} (seed {}) recorded no spans",
            case.seed
        );
        for (shards, mode) in [
            (1, ShardMode::Threaded),
            (4, ShardMode::Serial),
            (4, ShardMode::Threaded),
            (8, ShardMode::Threaded),
        ] {
            assert_eq!(
                run_case(case, shards, mode),
                reference,
                "case {case_no} (seed {}, events {:?}) diverged at \
                 {shards} shards, {mode:?} mode",
                case.seed,
                case.events
            );
        }
    }
}

/// One `decide` input: controller-local time, path id, sample count and
/// the bits of the smoothed one-way delay.
type DecideInput = (u64, u16, u64, Option<u64>);

/// A policy that logs what the controller *saw* at every tick and never
/// moves, so the log is a function of the feedback channel alone.
struct RecordingPolicy(Arc<Mutex<Vec<DecideInput>>>);

impl PathPolicy for RecordingPolicy {
    fn decide(&mut self, now_local_ns: u64, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
        let mut log = self.0.lock().expect("no decide panicked");
        for (&path, p) in paths {
            let owd = p.owd_ewma_ns.map(f64::to_bits);
            log.push((now_local_ns, path, p.samples, owd));
        }
        Selection::Single(0)
    }

    fn name(&self) -> &str {
        "recording"
    }
}

/// Under `FeedbackMode::Shared` each switch reads the other's stats sink
/// with zero delay, so the two tenants must share a shard: at 9 shards
/// (= node count, one tenant each) the pairing falls back to one. 1 ms
/// probes against 1 ms control ticks make every tick race a delivery —
/// the log differs as soon as a read crosses a window boundary. Threaded
/// layouts run twice: a cross-shard read makes identical runs disagree.
#[test]
fn shared_feedback_inputs_are_shard_and_mode_invariant() {
    let run = |shards: usize, shard_mode: ShardMode| {
        let logs = [Arc::default(), Arc::default()];
        let mut pairing = tango::vultr_pairing(PairingOptions {
            seed: 3,
            shards,
            shard_mode,
            probe_period: Some(SimTime::from_ms(1)),
            control_period: Some(SimTime::from_ms(1)),
            policy_a: Box::new(RecordingPolicy(Arc::clone(&logs[0]))),
            policy_b: Box::new(RecordingPolicy(Arc::clone(&logs[1]))),
            ..PairingOptions::default()
        })
        .expect("vultr scenario provisions");
        pairing.run_until(SimTime::from_secs(5));
        let effective = pairing.sim.shard_count();
        let [a, b] = logs.map(|l| std::mem::take(&mut *l.lock().expect("run finished")));
        (effective, a, b)
    };
    let (_, ref_a, ref_b) = run(1, ShardMode::Serial);
    assert!(ref_a.len() > 4 * 4_000 && ref_b.len() > 4 * 4_000);
    for (shards, mode, effective) in [
        (8, ShardMode::Serial, 8),
        (8, ShardMode::Threaded, 8),
        (8, ShardMode::Threaded, 8),
        (9, ShardMode::Serial, 1),
        (9, ShardMode::Threaded, 1),
        (9, ShardMode::Threaded, 1),
    ] {
        let (got, a, b) = run(shards, mode);
        for (side, log, reference) in [("A", &a, &ref_a), ("B", &b, &ref_b)] {
            let differing = log.iter().zip(reference).filter(|(x, y)| x != y).count();
            assert!(
                log.len() == reference.len() && differing == 0,
                "side {side} at {shards} shards, {mode:?}: {differing} of {} recorded \
                 decide inputs differ from the 1-shard run's {}",
                log.len(),
                reference.len()
            );
        }
        assert_eq!(got, effective, "--shards {shards} partition");
    }
}

/// Acceptance: an induced invariant violation (a monitor-only health
/// gate pinned to a blackholed path) auto-flushes the flight recorder,
/// and the dumped ring's ancestry chain resolves from the violation
/// back through the health transition to the chaos control event.
#[test]
fn invariant_violation_dumps_a_resolvable_ancestry_chain() {
    let mut options = PairingOptions {
        seed: 11,
        control_period: Some(SimTime::from_ms(50)),
        policy_a: Box::new(StaticPolicy::single(1, "pin-1")),
        policy_b: Box::new(StaticPolicy::single(1, "pin-1")),
        health_a: Some(HealthConfig::default()),
        health_b: Some(HealthConfig::default()),
        monitor_only_health: true,
        ..PairingOptions::default()
    };
    options.wide_area_events.push(WideAreaEvent::Blackhole {
        path: 1,
        at_ns: 2_000_000_000,
        duration_ns: 2_000_000_000,
    });
    let mut pairing = tango::vultr_pairing(options).unwrap();
    pairing.run_until(SimTime::from_secs(10));

    let (report, flight) = check_pairing_flight(&mut pairing);
    assert!(
        !report.violations.is_empty(),
        "monitor-only pin into a blackhole must violate the liveness invariant"
    );
    assert!(flight.span_count > 0, "violations must flush the recorder");
    assert_eq!(
        flight.digest,
        export::digest64(flight.json.as_bytes()),
        "embedded digest must fingerprint the dump bytes"
    );
    let parsed = tango_obs::Value::parse(&flight.json).expect("flight dump parses");
    assert_eq!(parsed.to_json(), flight.json, "flight dump is canonical");

    // Resolve the ancestry of the first violation span on the live
    // stream: it must walk back through the path's health transition to
    // a control-plane root (the chaos event's Control span).
    let spans = pairing.spans().spans();
    let violation = spans
        .iter()
        .find(|s| s.kind.name() == "invariant_violation")
        .expect("dump must contain the violation span");
    let chain = query::ancestry(&spans, violation.key);
    assert!(
        chain.len() >= 3,
        "violation ancestry must span violation <- transition <- cause, got {chain:?}"
    );
    let kinds: Vec<&str> = chain.iter().map(|s| s.kind.name()).collect();
    assert_eq!(
        kinds.last().copied(),
        Some("invariant_violation"),
        "{kinds:?}"
    );
    assert!(
        kinds.contains(&"health_transition"),
        "chain must pass through the health transition: {kinds:?}"
    );
    assert_eq!(
        kinds.first().copied(),
        Some("control"),
        "chain must root at the chaos control event: {kinds:?}"
    );
    assert!(
        spans.iter().any(|s| s.kind.name() == "reroute"),
        "the Down transition must also record a reroute span"
    );
}
