//! Seeded chaos storms against the Vultr pairing.
//!
//! [`ChaosSchedule`] turns a seed into a storm
//! of honest faults (blackholes, BGP session resets) and Byzantine ones
//! (timestamp poisoning, replay, spoofed reports, sub-prefix hijacks).
//! This module lowers one schedule onto the paper's NY↔LA deployment:
//!
//! * honest outages become [`WideAreaEvent`]s (resolved pre-build),
//! * packet-level attacks become [`AdversaryAgent`](tango_sim::AdversaryAgent)s
//!   installed at the on-path transit carrier of the attacked path,
//! * hijacks become scheduled control-plane steps
//!   ([`TangoPairing::schedule_hijack`]),
//!
//! then runs the storm plus a recovery window with defenses on
//! (authenticated telemetry, anti-replay, plausibility gating, health
//! gates) and verdicts the run with the invariant checker
//! ([`crate::invariant`]). Everything is a pure function of
//! [`ChaosRunOptions`], so the same options reproduce the same outcome
//! byte for byte — CI diffs the artifacts across shard counts.

use std::collections::BTreeMap;

use tango_control::{HealthConfig, HealthState, LowestOwdPolicy};
use tango_dataplane::{codec, FeedbackMode, MeasurementReport, PathRecord};
use tango_net::SipKey;
use tango_sim::{
    ActiveWindow, AdversaryBehavior, AdversaryStats, ChaosConfig, ChaosKind, ChaosSchedule, SimTime,
};
use tango_topology::{AsId, WideAreaEvent};

use crate::invariant::{check_pairing_flight, InvariantReport};
use crate::pairing::{FlightDump, PairingError, PairingOptions, Side, TangoPairing};
use crate::vultr::vultr_pairing;

/// When the storm opens (probing/selection are warm by then).
pub const STORM_START: SimTime = SimTime(5_000_000_000);
/// Storm length.
pub const STORM_LEN: SimTime = SimTime(20_000_000_000);
/// Quiet time after the last fault clears before the verdict.
pub const RECOVERY: SimTime = SimTime(15_000_000_000);
/// App-packet spacing, each direction.
const APP_PERIOD: SimTime = SimTime(5_000_000);
/// App payload bytes.
const PAYLOAD_BYTES: usize = 64;
/// The shared secret every chaos run provisions (defenses on).
pub const CHAOS_KEY: [u8; 16] = *b"tango-chaos-key!";

/// One seeded storm, fully specified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosRunOptions {
    /// Storm seed (drives both the schedule and the simulation).
    pub seed: u64,
    /// Faults to generate.
    pub events: usize,
    /// Include Byzantine faults (false = honest outages only).
    pub byzantine: bool,
    /// Provision the SipHash key (auth + anti-replay on). The chaos
    /// suite runs with `true`; `false` exists for the A9 ablation.
    pub auth: bool,
    /// Simulator shards (bit-identical for every value; see
    /// `tango_sim::shard`).
    pub shards: usize,
}

impl Default for ChaosRunOptions {
    fn default() -> Self {
        ChaosRunOptions {
            seed: 1,
            events: 8,
            byzantine: true,
            auth: true,
            shards: 1,
        }
    }
}

/// What one storm did to the pairing.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The generated schedule (for reporting).
    pub schedule: ChaosSchedule,
    /// Simulated horizon the run covered, ns.
    pub horizon_ns: u64,
    /// The invariant checker's verdict.
    pub invariants: InvariantReport,
    /// App packets delivered end-to-end (both directions).
    pub app_delivered: u64,
    /// Tunnel packets rejected for a bad/missing auth tag (both sides).
    pub auth_rejects: u64,
    /// Tunnel packets rejected as replays (both sides).
    pub replay_rejects: u64,
    /// OWD samples quarantined by the plausibility gate (both sides).
    pub implausible_owd: u64,
    /// Health transitions into `Down` (both sides) — the detection
    /// signal.
    pub downs: u64,
    /// Aggregated attacker-side counters (zero when `byzantine` off).
    pub adversary: AdversaryStats,
    /// The flight recorder's post-verdict dump: every chaos control
    /// step, BGP update, health transition, reroute, and (if any)
    /// invariant violation, with resolvable ancestry. Its digest is
    /// embedded in the chaos artifact and byte-diffs across shard
    /// counts.
    pub flight: FlightDump,
}

impl ChaosOutcome {
    /// Survived: all invariants held.
    pub fn survived(&self) -> bool {
        self.invariants.ok()
    }
}

/// The transit carrier hosting packet-level attacks against `path`
/// (the paper labels paths by this AS).
fn carrier_of(pairing: &TangoPairing, path: u16) -> Option<AsId> {
    let disc = pairing
        .provisioned
        .from(Side::A)
        .paths
        .get(usize::from(path))?;
    disc.distinguishing_carrier()
        .or_else(|| disc.transit_path.first().copied())
}

/// Forge the report a spoofing attacker injects toward side A: every
/// path looks terrible except `path`, which looks perfect — enough to
/// flip any latency/loss-driven ranking if the switch believes it.
fn forged_report(pairing: &TangoPairing, path: u16) -> Vec<u8> {
    let n = pairing.provisioned.from(Side::B).tunnels.len() as u16;
    let records = (0..n)
        .map(|id| {
            if id == path {
                PathRecord {
                    path_id: id,
                    samples: 100_000,
                    owd_ewma_ns: 1_000_000, // 1 ms: impossibly good
                    jitter_ns: 1_000,
                    loss_ppm: 0,
                    staleness_ns: 0,
                }
            } else {
                PathRecord {
                    path_id: id,
                    samples: 100_000,
                    owd_ewma_ns: 500_000_000, // 500 ms: unusable
                    jitter_ns: 50_000_000,
                    loss_ppm: 500_000,
                    staleness_ns: 0,
                }
            }
        })
        .collect();
    let report = MeasurementReport { records }.encode();
    // Ride B's tunnel for `path` toward A — a byte-faithful REPORT
    // packet, except the attacker has no key so there is no auth tag.
    let tunnel = &pairing.provisioned.from(Side::B).tunnels[usize::from(path)];
    codec::report_packet(tunnel, 0x5bf0_0000 + u32::from(path), 0, &report, None)
}

/// Run one seeded storm and return the outcome. Deterministic: the same
/// options produce the same outcome, independent of anything outside
/// the simulation.
pub fn run_chaos(options: ChaosRunOptions) -> Result<ChaosOutcome, PairingError> {
    let config = ChaosConfig {
        seed: options.seed,
        start_ns: STORM_START.as_ns(),
        storm_ns: STORM_LEN.as_ns(),
        n_paths: 4,
        events: options.events,
        byzantine: options.byzantine,
    };
    let schedule = ChaosSchedule::generate(config);

    // Lower the schedule: honest faults pre-build, packet attacks and
    // hijacks post-build.
    let mut wide_area_events = Vec::new();
    let mut hijacks: Vec<(u16, u64, u64)> = Vec::new();
    // path-attack behaviors keyed by path (resolved to a node later).
    let mut path_behaviors: BTreeMap<u16, Vec<(u64, ChaosKind)>> = BTreeMap::new();
    for ev in &schedule.events {
        let at = ev.at.as_ns();
        match ev.kind {
            ChaosKind::Blackhole { path, duration_ns } => {
                wide_area_events.push(WideAreaEvent::Blackhole {
                    path,
                    at_ns: at,
                    duration_ns,
                });
            }
            ChaosKind::SessionReset { path, hold_ns } => {
                wide_area_events.push(WideAreaEvent::SessionReset {
                    path,
                    at_ns: at,
                    hold_ns,
                });
            }
            ChaosKind::Hijack { path, duration_ns } => {
                hijacks.push((path, at, duration_ns));
            }
            ChaosKind::OwdPoison { path, .. }
            | ChaosKind::Replay { path, .. }
            | ChaosKind::SpoofReports { path, .. } => {
                path_behaviors.entry(path).or_default().push((at, ev.kind));
            }
        }
    }

    let mut pairing = vultr_pairing(PairingOptions {
        seed: options.seed,
        probe_period: Some(SimTime::from_ms(10)),
        control_period: Some(SimTime::from_ms(100)),
        policy_a: Box::new(LowestOwdPolicy::new(500_000.0)),
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        health_a: Some(HealthConfig::default()),
        health_b: Some(HealthConfig::default()),
        feedback: FeedbackMode::InBand {
            period: SimTime::from_ms(100),
        },
        auth_key: options.auth.then(|| SipKey::from_bytes(&CHAOS_KEY)),
        wide_area_events,
        shards: options.shards,
        ..PairingOptions::default()
    })?;

    for (path, at, duration) in hijacks {
        // The hijacker is a transit carrier *not* on the victim path:
        // its more-specific pulls the tunnel traffic off course.
        let attacker = carrier_of(&pairing, (path + 1) % 4)
            .or_else(|| carrier_of(&pairing, path))
            .expect("vultr paths have transit carriers");
        pairing.schedule_hijack(attacker, path, at, duration)?;
    }

    // Group packet-level attacks by their on-path node, one adversary
    // install per node.
    let mut by_node: BTreeMap<AsId, Vec<AdversaryBehavior>> = BTreeMap::new();
    for (path, kinds) in &path_behaviors {
        let Some(node) = carrier_of(&pairing, *path) else {
            continue;
        };
        for &(at, kind) in kinds {
            let window = |d: u64, at: u64| ActiveWindow {
                from: SimTime(at),
                until: SimTime(at + d),
            };
            let behavior = match kind {
                ChaosKind::OwdPoison {
                    duration_ns,
                    skew_ns,
                    ..
                } => AdversaryBehavior::OwdPoison {
                    window: window(duration_ns, at),
                    skew_ns,
                    seq_offset: 0,
                },
                ChaosKind::Replay {
                    duration_ns,
                    delay_ns,
                    every,
                    ..
                } => AdversaryBehavior::Replay {
                    window: window(duration_ns, at),
                    delay: SimTime(delay_ns),
                    every,
                },
                ChaosKind::SpoofReports {
                    path,
                    duration_ns,
                    period_ns,
                } => AdversaryBehavior::SpoofPackets {
                    window: window(duration_ns, at),
                    period: SimTime(period_ns),
                    packet: forged_report(&pairing, path),
                },
                _ => unreachable!("only packet-level kinds reach here"),
            };
            by_node.entry(node).or_default().push(behavior);
        }
    }
    let mut adversary_nodes = Vec::new();
    for (node, behaviors) in by_node {
        pairing.install_adversary(node, behaviors)?;
        adversary_nodes.push(node);
    }

    // Horizon: storm end or last fault clearing, whichever is later,
    // plus the recovery window.
    let storm_end = STORM_START.as_ns() + STORM_LEN.as_ns();
    let quiet = schedule.quiet_after().as_ns().max(storm_end);
    let horizon = SimTime(quiet + RECOVERY.as_ns());

    // Bidirectional app traffic from warm-up through the verdict.
    let mut t = SimTime::from_secs(2);
    while t < horizon {
        pairing.send_app_packet(t, Side::A, PAYLOAD_BYTES);
        pairing.send_app_packet(t, Side::B, PAYLOAD_BYTES);
        t += APP_PERIOD;
    }
    pairing.run_until(horizon);

    let (invariants, flight) = check_pairing_flight(&mut pairing);
    let mut app_delivered = 0;
    let mut auth_rejects = 0;
    let mut replay_rejects = 0;
    let mut implausible_owd = 0;
    let mut downs = 0;
    for side in [Side::A, Side::B] {
        let sink = pairing.stats(side).lock();
        app_delivered += sink.paths().map(|(_, p)| p.app_delivered).sum::<u64>();
        auth_rejects += sink.auth_rejects;
        replay_rejects += sink.replay_rejects;
        implausible_owd += sink.implausible_owd;
        drop(sink);
        if let Some(timeline) = pairing.health_timeline(side) {
            downs += timeline
                .iter()
                .filter(|tr| tr.to == HealthState::Down)
                .count() as u64;
        }
    }
    let mut adversary = AdversaryStats::default();
    for node in adversary_nodes {
        if let Some(s) = pairing.adversary_stats(node) {
            adversary.poisoned += s.poisoned;
            adversary.captured += s.captured;
            adversary.replayed += s.replayed;
            adversary.spoofed += s.spoofed;
        }
    }

    Ok(ChaosOutcome {
        schedule,
        horizon_ns: horizon.as_ns(),
        invariants,
        app_delivered,
        auth_rejects,
        replay_rejects,
        implausible_owd,
        downs,
        adversary,
        flight,
    })
}

/// One arm of the A9 Byzantine-telemetry ablation.
#[derive(Debug, Clone)]
pub struct AblationOutcome {
    /// Per path: control ticks (at side A) whose installed selection
    /// included the path.
    pub selected_ticks: Vec<(u16, u64)>,
    /// Side A's final installed selection.
    pub final_selection: Vec<u16>,
    /// Tunnel packets side A rejected for a bad/missing auth tag.
    pub auth_rejects: u64,
    /// Tunnel packets side A rejected as replays.
    pub replay_rejects: u64,
    /// Forged report packets the attacker injected.
    pub spoofed: u64,
}

impl AblationOutcome {
    /// The path side A settled on.
    pub fn settled_path(&self) -> Option<u16> {
        self.final_selection.first().copied()
    }
}

/// A9: one run of the spoofed-telemetry scenario. An on-path attacker
/// forges B's measurement reports toward A, claiming the BGP-default
/// path (0, NTT) is perfect and every alternative unusable. With
/// `attack` off this is the honest baseline (side A settles on the
/// genuinely best path); with the attack on and `auth` off the forged
/// view flips A's ranking onto the default; with `auth` on the forged
/// reports die at the tag check and the ranking matches the baseline.
pub fn run_byzantine_ablation(
    seed: u64,
    attack: bool,
    auth: bool,
) -> Result<AblationOutcome, PairingError> {
    const SPOOF_TARGET: u16 = 0; // the path the attacker promotes
    let mut pairing = vultr_pairing(PairingOptions {
        seed,
        probe_period: Some(SimTime::from_ms(10)),
        control_period: Some(SimTime::from_ms(100)),
        policy_a: Box::new(LowestOwdPolicy::new(500_000.0)),
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        feedback: FeedbackMode::InBand {
            period: SimTime::from_ms(100),
        },
        auth_key: auth.then(|| SipKey::from_bytes(&CHAOS_KEY)),
        ..PairingOptions::default()
    })?;
    let mut spoof_node = None;
    if attack {
        let node = carrier_of(&pairing, SPOOF_TARGET).expect("vultr paths have carriers");
        // Inject faster than B's honest 100 ms reports so the forged
        // view wins the last-writer race at nearly every control tick.
        pairing.install_adversary(
            node,
            vec![AdversaryBehavior::SpoofPackets {
                // Open past the horizon: the final installed selection
                // is measured while the attack is live.
                window: ActiveWindow {
                    from: SimTime::from_secs(3),
                    until: SimTime::from_secs(25),
                },
                period: SimTime::from_ms(10),
                packet: forged_report(&pairing, SPOOF_TARGET),
            }],
        )?;
        spoof_node = Some(node);
    }
    let horizon = SimTime::from_secs(20);
    let mut t = SimTime::from_secs(2);
    while t < horizon {
        pairing.send_app_packet(t, Side::A, PAYLOAD_BYTES);
        pairing.send_app_packet(t, Side::B, PAYLOAD_BYTES);
        t += APP_PERIOD;
    }
    pairing.run_until(horizon);

    let sink = pairing.stats(Side::A).lock();
    let n_paths = pairing.provisioned.from(Side::A).tunnels.len() as u16;
    let mut selected_ticks: Vec<(u16, u64)> = (0..n_paths).map(|p| (p, 0)).collect();
    for (_, selection) in &sink.selection_history {
        for &p in selection {
            if let Some(slot) = selected_ticks.get_mut(usize::from(p)) {
                slot.1 += 1;
            }
        }
    }
    let final_selection = sink
        .selection_history
        .last()
        .map(|(_, s)| s.clone())
        .unwrap_or_default();
    let outcome = AblationOutcome {
        selected_ticks,
        final_selection,
        auth_rejects: sink.auth_rejects,
        replay_rejects: sink.replay_rejects,
        spoofed: spoof_node
            .and_then(|n| pairing.adversary_stats(n))
            .map(|s| s.spoofed)
            .unwrap_or(0),
    };
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_is_deterministic() {
        let options = ChaosRunOptions {
            seed: 42,
            events: 4,
            ..ChaosRunOptions::default()
        };
        let a = run_chaos(options).unwrap();
        let b = run_chaos(options).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.app_delivered, b.app_delivered);
        assert_eq!(a.auth_rejects, b.auth_rejects);
        assert_eq!(a.replay_rejects, b.replay_rejects);
        assert_eq!(a.downs, b.downs);
        assert_eq!(
            a.invariants.checked_decisions,
            b.invariants.checked_decisions
        );
        assert_eq!(a.flight.digest, b.flight.digest);
        assert_eq!(a.flight.json, b.flight.json);
        assert!(a.flight.span_count > 0, "chaos faults must leave spans");
    }

    #[test]
    fn byzantine_storm_survives_with_defenses_on() {
        let outcome = run_chaos(ChaosRunOptions {
            seed: 7,
            events: 6,
            byzantine: true,
            auth: true,
            shards: 1,
        })
        .unwrap();
        assert!(
            outcome.survived(),
            "invariants must hold under chaos: {}",
            outcome.invariants
        );
        assert!(outcome.app_delivered > 0, "traffic must keep flowing");
    }

    /// A9 end-to-end: spoofed telemetry flips the ranking without auth,
    /// dies at the tag check with it.
    #[test]
    fn spoofed_reports_flip_ranking_only_without_auth() {
        let honest = run_byzantine_ablation(3, false, false).unwrap();
        let attacked = run_byzantine_ablation(3, true, false).unwrap();
        let defended = run_byzantine_ablation(3, true, true).unwrap();

        assert_eq!(honest.settled_path(), Some(2), "GTT is genuinely best");
        assert_eq!(honest.auth_rejects, 0);
        assert_eq!(
            attacked.settled_path(),
            Some(0),
            "forged reports must flip A onto the promoted default: {attacked:?}"
        );
        assert!(attacked.spoofed > 0);
        assert_eq!(
            defended.settled_path(),
            honest.settled_path(),
            "with auth on the ranking must match the honest baseline: {defended:?}"
        );
        assert!(
            defended.auth_rejects > 0,
            "forged reports must be counted at the tag check: {defended:?}"
        );
    }
}
