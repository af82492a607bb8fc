//! `experiments telemetry` — the deterministic observability artifact.
//!
//! Runs the Vultr NY↔LA pairing through a scripted path-2 blackhole with
//! the full `tango-obs` stack attached (simulator, both switches, BGP,
//! health gates) and exports every metric as one canonical JSON document
//! per seed: `results/TELEMETRY_vultr-blackhole_seed<S>.json`.
//!
//! Determinism is the point: each seed is an independent simulation
//! driven entirely by virtual time, and the exporter sorts keys and
//! formats integers only — so a seed's document is **byte-identical**
//! across runs and shard counts. The default seeds' documents are
//! committed under `tests/golden/`, and `tests/gate.rs` checks them
//! at several shard counts.

use crate::util::{out_dir, print_table, SweepOptions};
use tango::prelude::*;
use tango_obs::{Registry, Snapshot};

/// When the path-2 blackhole opens (both directions, no BGP withdrawal).
const OUTAGE_START: SimTime = SimTime(5_000_000_000);
/// How long it lasts.
const OUTAGE_LEN: SimTime = SimTime(8_000_000_000);
/// App-packet spacing (each direction).
const APP_PERIOD: SimTime = SimTime(5_000_000);
/// App payload bytes.
const PAYLOAD_BYTES: usize = 64;
/// Simulated horizon.
const HORIZON: SimTime = SimTime(20_000_000_000);

/// Scenario id: names the artifact and the golden files.
pub const SCENARIO: &str = "vultr-blackhole";

/// Seeds of a default run: the two with committed goldens.
pub const DEFAULT_SEEDS: [u64; 2] = [1, 7];

/// Run the scenario for one seed and return the full metric snapshot.
///
/// Health-gated lowest-OWD on both sides, 10 ms probes, 100 ms control
/// ticks, bidirectional app traffic from 2 s; path 2 blackholes at 5 s
/// for 8 s, so the export contains tx-without-rx on path 2, health
/// transitions on both gates, and the failover in the selection layer.
/// The snapshot is bit-identical for every `shards` value.
pub fn collect_seed(seed: u64, shards: usize) -> Snapshot {
    let registry = Registry::default();
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed,
        shards,
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
    while t < SimTime::from_secs(18) {
        pairing.send_app_packet(t, Side::B, PAYLOAD_BYTES);
        pairing.send_app_packet(t, Side::A, PAYLOAD_BYTES);
        t += APP_PERIOD;
    }
    pairing.run_until(HORIZON);
    registry.snapshot()
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// The `experiments telemetry` entry point. Returns the process exit
/// code.
pub fn report(options: &SweepOptions) -> i32 {
    println!(
        "telemetry — {SCENARIO}: path 2 dies at {} s for {} s; health-gated \
         lowest-OWD both sides, app packet each way every {} ms; seeds {:?}\n",
        OUTAGE_START.as_ns() / 1_000_000_000,
        OUTAGE_LEN.as_ns() / 1_000_000_000,
        APP_PERIOD.as_ns() / 1_000_000,
        options.seeds
    );
    let dir = out_dir(&options.out);
    let mut rows = Vec::new();
    for &seed in &options.seeds {
        let snap = collect_seed(seed, 1);
        let path = dir.join(format!("TELEMETRY_{SCENARIO}_seed{seed}.json"));
        std::fs::write(&path, snap.to_json()).expect("write TELEMETRY json");
        let series = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
        let downs: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("health.") && k.ends_with("_down"))
            .map(|(_, v)| v)
            .sum();
        rows.push(vec![
            seed.to_string(),
            series.to_string(),
            counter(&snap, "sim.events.deliver").to_string(),
            counter(&snap, "dataplane.64702.tx.app").to_string(),
            counter(&snap, "dataplane.64701.rx.decap").to_string(),
            snap.gauges
                .get("dataplane.64701.path.2.lost")
                .copied()
                .unwrap_or(0)
                .to_string(),
            downs.to_string(),
            counter(&snap, "bgp.updates_processed").to_string(),
        ]);
    }
    print_table(
        &[
            "seed",
            "series",
            "deliveries",
            "NY tx.app",
            "LA rx.decap",
            "LA p2 lost",
            "downs",
            "bgp updates",
        ],
        &rows,
    );
    println!(
        "\nwritten to {} (TELEMETRY_{SCENARIO}_seed*.json)",
        dir.display()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_bit_identical() {
        let a = collect_seed(3, 1);
        let b = collect_seed(3, 1);
        assert_eq!(a.to_json(), b.to_json(), "same seed ⇒ same bytes");
    }

    #[test]
    fn shard_count_does_not_leak_into_the_artifact() {
        let one = collect_seed(3, 1);
        let four = collect_seed(3, 4);
        assert_eq!(one.to_json(), four.to_json(), "shards must be invisible");
    }

    #[test]
    fn blackhole_shows_up_in_the_export() {
        let snap = collect_seed(1, 1);
        // The NY side kept transmitting on path 2 while LA's receive
        // counter stalled: tx > rx across the outage.
        let tx = snap
            .counters
            .get("dataplane.64702.path.2.tx")
            .copied()
            .unwrap_or(0);
        let rx = snap
            .counters
            .get("dataplane.64701.path.2.rx")
            .copied()
            .unwrap_or(0);
        assert!(tx > rx, "blackhole means tx {tx} > rx {rx} on path 2");
        // Both health gates saw the path go down at least once.
        for side in ["64701", "64702"] {
            let downs: u64 = snap
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(&format!("health.{side}.")) && k.ends_with("_down"))
                .map(|(_, v)| v)
                .sum();
            assert!(downs >= 1, "side {side} recorded no Down transition");
        }
        // And the sim layer agrees something was lost to the outage.
        assert!(
            snap.gauges
                .get("sim.stats.lost_outage")
                .copied()
                .unwrap_or(0)
                >= 1
        );
    }
}
