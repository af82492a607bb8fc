//! A8 — blackhole failover ablation (DESIGN.md §4): how fast does each
//! selection policy abandon a path that silently stops delivering, and
//! what does the health gate buy on top?
//!
//! The scenario scripts a [`WideAreaEvent::Blackhole`] on the best path
//! (GTT, path 2) — both directions die at 10 s for 15 s with no BGP
//! withdrawal, so only the data plane can notice. Application packets
//! flow every 5 ms; the three rows compare a pinned policy (never
//! notices), the bare lowest-OWD policy (flees on staleness after ~1 s),
//! and the same policy behind [`HealthGated`] (Suspect at 200 ms of
//! silence, Down at 500 ms, backoff re-probes until recovery).

use crate::util::{fmt, print_table};
use tango::prelude::*;

/// When the blackhole opens.
const OUTAGE_START: SimTime = SimTime(10_000_000_000);
/// How long it lasts.
const OUTAGE_LEN: SimTime = SimTime(15_000_000_000);
/// App-packet spacing.
const APP_PERIOD: SimTime = SimTime(5_000_000);

/// One policy's ride through the outage.
#[derive(Debug, Clone)]
pub struct FailoverRow {
    /// Policy label.
    pub policy: String,
    /// Time from outage start to the health machine marking the path
    /// Down (health-gated rows only), ms.
    pub detect_ms: Option<f64>,
    /// Time from outage start to the first installed selection that
    /// excludes the dead path, ms. `None` = never failed over.
    pub failover_ms: Option<f64>,
    /// App packets offered during the outage window.
    pub offered_in_outage: u64,
    /// App packets lost during the outage window.
    pub lost_in_outage: u64,
    /// Time from outage *end* back to the health machine re-admitting
    /// the path (Up), ms. `None` for ungated rows.
    pub readmit_ms: Option<f64>,
}

/// Run the scripted blackhole against one policy configuration.
fn run(
    policy: Box<dyn PathPolicy>,
    health: Option<HealthConfig>,
    name: &str,
    seed: u64,
) -> FailoverRow {
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed,
        control_period: Some(SimTime::from_ms(100)),
        policy_b: policy,
        health_b: health,
        wide_area_events: vec![WideAreaEvent::Blackhole {
            path: 2,
            at_ns: OUTAGE_START.as_ns(),
            duration_ns: OUTAGE_LEN.as_ns(),
        }],
        ..PairingOptions::default()
    })
    .expect("provisioning succeeds");

    // B → A application traffic, 2 s warm-up, runs past the recovery.
    let mut offered_in_outage = 0u64;
    let mut t = SimTime::from_secs(2);
    let outage_end = OUTAGE_START + OUTAGE_LEN;
    while t < SimTime::from_secs(38) {
        pairing.send_app_packet(t, Side::B, 64);
        if t >= OUTAGE_START && t < outage_end {
            offered_in_outage += 1;
        }
        t += APP_PERIOD;
    }
    pairing.run_until(SimTime::from_secs(40));

    // Delivered-during-outage, from the receiver's per-path app counts.
    let sink = pairing.stats(Side::A).lock();
    let delivered_in_outage: u64 = sink
        .paths()
        .filter_map(|(_, p)| p.bins.window(OUTAGE_START.as_ns(), outage_end.as_ns()))
        .map(|window| window.app)
        .sum();
    drop(sink);

    // First selection after the outage starts that excludes path 2.
    let history = pairing.stats(Side::B).lock().selection_history.clone();
    let was_on_dead_path = history
        .iter()
        .any(|(at, paths)| *at < OUTAGE_START.as_ns() && paths.contains(&2));
    let failover_ms = if was_on_dead_path {
        history
            .iter()
            .find(|(at, paths)| *at >= OUTAGE_START.as_ns() && !paths.contains(&2))
            .map(|(at, _)| (at - OUTAGE_START.as_ns()) as f64 / 1e6)
    } else {
        None
    };

    let timeline = pairing.health_timeline(Side::B).unwrap_or_default();
    let detect_ms = timeline
        .iter()
        .find(|tr| tr.path == 2 && tr.to == HealthState::Down && tr.at_ns >= OUTAGE_START.as_ns())
        .map(|tr| (tr.at_ns - OUTAGE_START.as_ns()) as f64 / 1e6);
    let readmit_ms = timeline
        .iter()
        .find(|tr| tr.path == 2 && tr.to == HealthState::Up && tr.at_ns >= outage_end.as_ns())
        .map(|tr| (tr.at_ns - outage_end.as_ns()) as f64 / 1e6);

    FailoverRow {
        policy: name.to_string(),
        detect_ms,
        failover_ms,
        offered_in_outage,
        lost_in_outage: offered_in_outage.saturating_sub(delivered_in_outage),
        readmit_ms,
    }
}

/// **A8** — the three-way comparison.
pub fn failover_ablation(seed: u64) -> Vec<FailoverRow> {
    vec![
        run(
            Box::new(StaticPolicy::single(2, "pin-best")),
            None,
            "pin to best (GTT), ungated",
            seed,
        ),
        run(
            Box::new(LowestOwdPolicy::new(500_000.0)),
            None,
            "lowest-OWD, ungated",
            seed,
        ),
        run(
            Box::new(LowestOwdPolicy::new(500_000.0)),
            Some(HealthConfig::default()),
            "health-gated lowest-OWD",
            seed,
        ),
    ]
}

/// Print A8.
pub fn report(seed: u64) {
    println!(
        "A8 — blackhole failover: GTT path silently dies at 10 s for 15 s \
         (no BGP withdrawal); app packet every 5 ms, NY→LA\n"
    );
    let rows = failover_ablation(seed);
    let opt = |v: Option<f64>| v.map(|m| fmt(m, 0)).unwrap_or_else(|| "—".into());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                opt(r.detect_ms),
                opt(r.failover_ms),
                format!("{} / {}", r.lost_in_outage, r.offered_in_outage),
                opt(r.readmit_ms),
            ]
        })
        .collect();
    print_table(
        &[
            "policy",
            "detect ms",
            "failover ms",
            "lost / offered (outage)",
            "readmit ms",
        ],
        &table,
    );
    println!(
        "\nThe pinned policy rides the blackhole for the full outage; bare lowest-OWD \
         only abandons the path once its measurements age past the 1 s staleness limit; \
         the health gate converts 500 ms of silence into Down, fails over on the next \
         control tick, and re-admits the path after a successful backoff re-probe."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a8_gate_beats_staleness_beats_pin() {
        let rows = failover_ablation(8);
        let pin = &rows[0];
        let bare = &rows[1];
        let gated = &rows[2];
        // The pinned row never fails over and loses (almost) the window.
        assert!(pin.failover_ms.is_none());
        assert!(pin.lost_in_outage as f64 > 0.95 * pin.offered_in_outage as f64);
        // Bare lowest-OWD flees on staleness: ~1 s, bounded loss.
        let bare_fo = bare.failover_ms.expect("staleness evicts the path");
        assert!(bare_fo < 2_000.0, "bare failover {bare_fo} ms");
        // The gate detects within its configured window (500 ms + one
        // 100 ms control tick + slack) and fails over faster than bare.
        let detect = gated.detect_ms.expect("gated row records detection");
        assert!(detect < 800.0, "detect {detect} ms");
        let gated_fo = gated.failover_ms.expect("gated fails over");
        assert!(gated_fo < bare_fo, "gated {gated_fo} vs bare {bare_fo}");
        assert!(gated.lost_in_outage < bare.lost_in_outage);
        assert!(bare.lost_in_outage < pin.lost_in_outage / 4);
        // After the outage the gate re-admits the path.
        assert!(gated.readmit_ms.is_some(), "path must be re-admitted");
    }
}
