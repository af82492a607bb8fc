//! Integration: the `tango-obs` telemetry layer against the
//! fault-injection scenarios.
//!
//! The `dataplane.<as>.…` and `health.<as>.…` series are not counted on
//! their own: they are the switches' `StatsSink`s and the health gates'
//! logs, published at the end of every [`TangoPairing::run_until`]. What
//! is checked here:
//!
//! 1. A scripted blackhole is visible in the export — the sender's
//!    per-path tx counter runs ahead of the receiver's rx counter, and
//!    both health gates count the resulting transitions (matching the
//!    [`TangoPairing::health_timeline`] record event for event, with
//!    time-in-state measured from each path's first observation).
//! 2. With probes and control off, every missing tunnel packet is
//!    accounted for: dataplane tx − rx equals the simulator's own loss
//!    counters exactly (no packet unexplained, none double-counted).
//!    Two layers, not two tallies of one layer.
//! 3. The published receive-side series agree with the sink's own views
//!    — per-path rx equals the OWD series length and the sequence
//!    tracker's receive count, and the rolling 1-second jitter window
//!    holds exactly the OWD samples from the trailing second.
//! 4. Publishing is idempotent: one `run_until` and forty slices of it
//!    export the same snapshot.

use tango::prelude::*;
use tango_obs::{Registry, Snapshot};

/// When the path-2 blackhole opens.
const OUTAGE_START: SimTime = SimTime(5_000_000_000);
/// How long it lasts.
const OUTAGE_LEN: SimTime = SimTime(5_000_000_000);

/// LA (side A) and NY (side B) tenant AS numbers — the dataplane metric
/// scopes.
const AS_A: u32 = 64701;
const AS_B: u32 = 64702;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn gauge(snap: &Snapshot, name: &str) -> u64 {
    snap.gauges.get(name).copied().unwrap_or(0)
}

/// The adaptive blackhole scenario: health-gated lowest-OWD both sides,
/// 10 ms probes, 100 ms control ticks, app traffic each way every 5 ms,
/// run to 15 s in `slices` equal `run_until` calls.
fn blackhole_pairing(registry: &Registry, slices: u64) -> TangoPairing {
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed: 1,
        probe_period: Some(SimTime::from_ms(10)),
        control_period: Some(SimTime::from_ms(100)),
        policy_a: Box::new(LowestOwdPolicy::new(500_000.0)),
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        health_a: Some(HealthConfig::default()),
        health_b: Some(HealthConfig::default()),
        wide_area_events: vec![WideAreaEvent::Blackhole {
            path: 2,
            at_ns: OUTAGE_START.as_ns(),
            duration_ns: OUTAGE_LEN.as_ns(),
        }],
        obs: Some(registry.clone()),
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions");
    let mut t = SimTime::from_secs(2);
    while t < SimTime::from_secs(12) {
        pairing.send_app_packet(t, Side::A, 64);
        pairing.send_app_packet(t, Side::B, 64);
        t += SimTime(5_000_000);
    }
    let horizon = SimTime::from_secs(15).as_ns();
    for k in 1..=slices {
        pairing.run_until(SimTime(horizon * k / slices));
    }
    pairing
}

#[test]
fn blackhole_window_shows_tx_without_rx_and_counted_transitions() {
    let registry = Registry::default();
    let pairing = blackhole_pairing(&registry, 1);
    let snap = registry.snapshot();

    // Path 2 died in both directions: each sender kept probing it
    // (re-probe backoff included) while the opposite receiver heard
    // nothing, so tx runs ahead of rx on both sides.
    for (tx_as, rx_as) in [(AS_B, AS_A), (AS_A, AS_B)] {
        let tx = counter(&snap, &format!("dataplane.{tx_as}.path.2.tx"));
        let rx = counter(&snap, &format!("dataplane.{rx_as}.path.2.rx"));
        assert!(
            tx > rx,
            "outage must leave {tx_as}→{rx_as} tx {tx} ahead of rx {rx}"
        );
    }
    // The healthy BGP-default path shows no comparable gap: nothing is
    // dropped on it, so tx can only exceed rx by the few probes still in
    // flight when the horizon cuts (probe every 10 ms, ~35 ms one-way).
    let tx0 = counter(&snap, &format!("dataplane.{AS_B}.path.0.tx"));
    let rx0 = counter(&snap, &format!("dataplane.{AS_A}.path.0.rx"));
    assert!(
        tx0 - rx0 <= 8,
        "healthy path gap {tx0}-{rx0} exceeds the in-flight allowance"
    );

    // The health gates counted every transition the timeline recorded —
    // same multiset, keyed by (from, to).
    for (side, scope) in [(Side::A, AS_A), (Side::B, AS_B)] {
        let timeline = pairing
            .health_timeline(side)
            .expect("health gate was configured");
        assert!(
            !timeline.is_empty(),
            "side {scope} must see the path-2 outage"
        );
        let mut expected: std::collections::BTreeMap<String, u64> = Default::default();
        for tr in &timeline {
            *expected
                .entry(format!("health.{scope}.transition.{}_{}", tr.from, tr.to))
                .or_default() += 1;
        }
        for (name, want) in &expected {
            assert_eq!(
                counter(&snap, name),
                *want,
                "{name} disagrees with the timeline"
            );
        }
        let counted: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(&format!("health.{scope}.transition.")))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            counted,
            timeline.len() as u64,
            "side {scope}: stray transition counters"
        );
        // Time-in-state histograms cover the states that were left: one
        // sample per recorded transition.
        let prefix = format!("health.{scope}.time_in.");
        let time_in: Vec<_> = snap
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, h)| h)
            .collect();
        let time_in_samples: u64 = time_in.iter().map(|h| h.count).sum();
        assert_eq!(time_in_samples, timeline.len() as u64);
        // Each path's samples tile the span from its first observation
        // (the gate's first control tick, which sees every path) to its
        // last transition.
        let first_tick = pairing.stats(side).lock().selection_history[0].0;
        let last: std::collections::BTreeMap<u16, u64> =
            timeline.iter().map(|tr| (tr.path, tr.at_ns)).collect();
        let spans: u64 = last.values().map(|at| at - first_tick).sum();
        let time_in_sum: u64 = time_in.iter().map(|h| h.sum).sum();
        assert_eq!(time_in_sum, spans, "side {scope}: time-in-state baseline");
    }
}

#[test]
fn loss_counters_match_the_sims_authoritative_drop_count() {
    // Probes and control off, both switches pinned to path 2: every
    // tunnel packet is an app packet, and the only losses are the
    // scripted outage (plus any capacity/fault drops, also counted by
    // the sim). Injection ends well before the horizon, so nothing is
    // in flight when we compare.
    let registry = Registry::default();
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed: 3,
        probe_period: None,
        control_period: None,
        initial_path: 2,
        wide_area_events: vec![WideAreaEvent::Blackhole {
            path: 2,
            at_ns: 3_000_000_000,
            duration_ns: 4_000_000_000,
        }],
        obs: Some(registry.clone()),
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions");
    let mut t = SimTime::from_secs(1);
    while t < SimTime::from_secs(9) {
        pairing.send_app_packet(t, Side::A, 64);
        pairing.send_app_packet(t, Side::B, 64);
        t += SimTime(2_000_000);
    }
    pairing.run_until(SimTime::from_secs(12));

    let snap = registry.snapshot();
    let tx: u64 = [AS_A, AS_B]
        .iter()
        .map(|a| counter(&snap, &format!("dataplane.{a}.tx.app")))
        .sum();
    let rx: u64 = [AS_A, AS_B]
        .iter()
        .map(|a| counter(&snap, &format!("dataplane.{a}.rx.decap")))
        .sum();
    assert!(
        tx > rx,
        "the outage must eat some packets (tx {tx}, rx {rx})"
    );

    let stats = pairing.sim.stats();
    let sim_lost = stats.lost_outage + stats.lost_link + stats.lost_fault + stats.lost_queue;
    assert_eq!(
        tx - rx,
        sim_lost,
        "every missing tunnel packet must be one the sim dropped \
         (outage {} link {} fault {} queue {})",
        stats.lost_outage,
        stats.lost_link,
        stats.lost_fault,
        stats.lost_queue
    );
    assert!(
        stats.lost_outage > 0,
        "the blackhole must account for drops"
    );
    // The mirrored sim gauges agree with the struct the sim returns.
    assert_eq!(gauge(&snap, "sim.stats.lost_outage"), stats.lost_outage);
    assert_eq!(gauge(&snap, "sim.stats.deliveries"), stats.deliveries);
    // No probes were configured: the probe counters must be silent.
    for scope in [AS_A, AS_B] {
        assert_eq!(counter(&snap, &format!("dataplane.{scope}.tx.probe")), 0);
    }
}

#[test]
fn obs_counters_agree_with_dataplane_stats() {
    // Fault-free run with probes and control: plenty of per-path traffic
    // on every tunnel.
    let registry = Registry::default();
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed: 5,
        probe_period: Some(SimTime::from_ms(10)),
        control_period: Some(SimTime::from_ms(100)),
        obs: Some(registry.clone()),
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions");
    let mut t = SimTime::from_ms(500);
    while t < SimTime::from_secs(5) {
        pairing.send_app_packet(t, Side::A, 64);
        pairing.send_app_packet(t, Side::B, 64);
        t += SimTime(5_000_000);
    }
    pairing.run_until(SimTime::from_secs(6));
    let snap = registry.snapshot();

    for (side, scope) in [(Side::A, AS_A), (Side::B, AS_B)] {
        let sink = pairing.stats(side).lock();
        // Send side: the published series are the sink's own counts.
        assert_eq!(
            counter(&snap, &format!("dataplane.{scope}.tx.app")),
            sink.tx_encapsulated,
            "side {scope} app-tx drifted from the stats sink"
        );
        assert_eq!(
            counter(&snap, &format!("dataplane.{scope}.tx.probe")),
            sink.probes_sent,
            "side {scope} probe-tx drifted from the stats sink"
        );
        // Receive side, per path: published rx == OWD series length ==
        // the sequence tracker's receive count (no duplicates and no
        // quarantined samples in a fault-free run).
        let mut rx_sum = 0u64;
        for (id, p) in sink.paths() {
            let rx = counter(&snap, &format!("dataplane.{scope}.path.{id}.rx"));
            assert_eq!(rx, p.owd.len() as u64, "path {id} rx vs OWD samples");
            assert_eq!(rx, p.seq.received(), "path {id} rx vs seq tracker");
            rx_sum += rx;
            // The rolling 1-second jitter window holds the newest OWD
            // samples, all from the trailing second (half-open interval
            // (last − 1 s, last], matching RollingWindow::push); eviction
            // itself is prop_stats::rolling_window_matches_naive's.
            let last = p.last_sample_ns.expect("path carried traffic");
            let values = p.owd.values();
            let (times, window): (Vec<u64>, Vec<f64>) = p.rolling.samples().unzip();
            assert_eq!(
                window,
                values[values.len() - window.len()..],
                "path {id} rolling window vs OWD tail"
            );
            let cutoff = last.saturating_sub(1_000_000_000);
            assert_eq!(times.last(), Some(&last), "path {id}");
            assert!(
                times.iter().all(|&t| t > cutoff || last < 1_000_000_000),
                "path {id}: rolling window holds a sample older than one second"
            );
            // Mirrored loss-state gauges show the authoritative figures.
            assert_eq!(
                gauge(&snap, &format!("dataplane.{scope}.path.{id}.lost")),
                p.seq.lost()
            );
        }
        assert_eq!(
            counter(&snap, &format!("dataplane.{scope}.rx.decap")),
            rx_sum,
            "side {scope}: total decaps vs per-path sum"
        );
    }
}

#[test]
fn same_seed_produces_identical_snapshots() {
    let run = || {
        let registry = Registry::default();
        let _ = blackhole_pairing(&registry, 1);
        registry.snapshot().to_json()
    };
    assert_eq!(run(), run(), "telemetry must be bit-identical per seed");
}

#[test]
fn slicing_the_run_publishes_the_same_snapshot() {
    let run = |slices| {
        let registry = Registry::default();
        let _ = blackhole_pairing(&registry, slices);
        let mut snap = registry.snapshot();
        // The one series that counts `run_until` calls, not traffic.
        let calls = snap.histograms.remove("sim.span.run_until_ns");
        assert!(calls.is_some_and(|h| h.count == slices));
        snap
    };
    assert_eq!(run(1), run(40), "publishing twice must not count twice");
}
