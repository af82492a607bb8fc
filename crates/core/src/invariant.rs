//! Run-level invariant checking for chaos and adversary experiments.
//!
//! A chaos storm is only a meaningful test if something *checks* the
//! run afterwards. This module replays the recorded evidence of a
//! [`TangoPairing`] run — the health
//! transition timeline and the installed selection history of each side,
//! plus the simulator's global counters — against three invariants:
//!
//! 1. **Never forward onto a known-dead path while an alternative
//!    lives.** At every control tick, no path the gate had declared
//!    `Down` or `Probing` at that instant may appear in the installed
//!    selection — unless *every* path was dead at that instant, where
//!    the gate deliberately degrades to the fallback rather than
//!    forwarding nowhere (see `HealthGated::decide`).
//! 2. **No forwarding loops.** The simulator counts hop-limit
//!    expirations; a routing loop (e.g. from a botched reinstall after a
//!    hijack withdrawal) shows up as `ttl_expired > 0`.
//! 3. **Full recovery.** Once the storm is over and the recovery window
//!    has elapsed, every tunnel must be back to `Up` — chaos may degrade
//!    the pairing, never wedge it.
//!
//! The checker is a pure function of the evidence, so it can also be
//! fed fabricated histories — that is how it checks *itself* (a checker
//! that cannot catch a deliberately broken policy proves nothing; see
//! `monitor_only` on [`HealthGated`](tango_control::HealthGated)).

use tango_control::{HealthState, HealthTransition};

use crate::pairing::{FlightDump, Side, TangoPairing};

/// Everything the checker needs about one side of the pairing.
#[derive(Debug, Clone)]
pub struct SideEvidence {
    /// Which side this is (violations and unrecovered paths name it).
    pub side: Side,
    /// Every provisioned path id — the universe the "was any
    /// alternative alive?" exemption quantifies over.
    pub paths: Vec<u16>,
    /// The health gate's transition timeline, oldest first.
    pub timeline: Vec<HealthTransition>,
    /// `(controller-local time ns, installed path ids)` per control
    /// tick, as recorded by the deciding switch.
    pub selection_history: Vec<(u64, Vec<u16>)>,
}

impl SideEvidence {
    /// Collect evidence for `side` from a finished (or paused) run.
    /// `None` when the side was built without a health gate.
    pub fn collect(pairing: &TangoPairing, side: Side) -> Option<SideEvidence> {
        let timeline = pairing.health_timeline(side)?;
        let selection_history = pairing.stats(side).lock().selection_history.clone();
        let paths = (0..pairing.labels_into(side.peer()).len() as u16).collect();
        Some(SideEvidence {
            side,
            paths,
            timeline,
            selection_history,
        })
    }
}

/// One forwarding decision that violated invariant 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which side's controller made the decision.
    pub side: Side,
    /// Controller-local time of the decision, ns.
    pub at_ns: u64,
    /// The selected path.
    pub path: u16,
    /// The health state that path was in at that instant.
    pub state: HealthState,
}

/// The checker's verdict over one run.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Control-tick decisions examined (across all sides).
    pub checked_decisions: u64,
    /// Invariant 1 failures: selections of known-dead paths.
    pub violations: Vec<Violation>,
    /// Invariant 2: the simulator's hop-limit expiry count (0 = no
    /// forwarding loop ever formed).
    pub ttl_expired: u64,
    /// Invariant 3 failures: `(side, path)` still not `Up` at the end
    /// of the run.
    pub unrecovered: Vec<(Side, u16)>,
}

impl InvariantReport {
    /// All three invariants held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.ttl_expired == 0 && self.unrecovered.is_empty()
    }
}

impl core::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} decisions checked: {} dead-path selections, {} ttl expiries, {} unrecovered paths",
            self.checked_decisions,
            self.violations.len(),
            self.ttl_expired,
            self.unrecovered.len(),
        )
    }
}

/// "Known dead" for invariant 1: the gate excludes the path from
/// selection in these states (`Suspect` is degraded but selectable).
fn known_dead(state: HealthState) -> bool {
    matches!(state, HealthState::Down | HealthState::Probing)
}

/// The health state of `path` at controller time `t_ns`, reconstructed
/// from the (time-ordered) transition timeline. Paths start `Up`.
fn state_at(timeline: &[HealthTransition], path: u16, t_ns: u64) -> HealthState {
    timeline
        .iter()
        .rfind(|tr| tr.path == path && tr.at_ns <= t_ns)
        .map(|tr| tr.to)
        .unwrap_or(HealthState::Up)
}

/// Check the three invariants over fabricated or collected evidence.
/// `ttl_expired` is the simulator's global hop-limit expiry counter.
pub fn check(sides: &[SideEvidence], ttl_expired: u64) -> InvariantReport {
    let mut report = InvariantReport {
        ttl_expired,
        ..InvariantReport::default()
    };
    for side in sides {
        for (t, selected) in &side.selection_history {
            report.checked_decisions += 1;
            // Degraded-mode exemption: when *every* path is dead the
            // gate must still forward somewhere (the fallback).
            let any_alive = side
                .paths
                .iter()
                .any(|&p| !known_dead(state_at(&side.timeline, p, *t)));
            if !any_alive {
                continue;
            }
            for &path in selected {
                let state = state_at(&side.timeline, path, *t);
                if known_dead(state) {
                    report.violations.push(Violation {
                        side: side.side,
                        at_ns: *t,
                        path,
                        state,
                    });
                }
            }
        }
        // Invariant 3: whatever the storm did, the *final* state of
        // every path the gate ever tracked must be Up again.
        let mut paths: Vec<u16> = side.timeline.iter().map(|tr| tr.path).collect();
        paths.sort_unstable();
        paths.dedup();
        for path in paths {
            if let Some(last) = side.timeline.iter().rfind(|tr| tr.path == path) {
                if last.to != HealthState::Up {
                    report.unrecovered.push((side.side, path));
                }
            }
        }
    }
    report
}

/// Collect evidence from both sides of a run and check it. Sides built
/// without a health gate contribute no evidence (the checker cannot see
/// them).
pub fn check_pairing(pairing: &TangoPairing) -> InvariantReport {
    let sides: Vec<SideEvidence> = [Side::A, Side::B]
        .into_iter()
        .filter_map(|s| SideEvidence::collect(pairing, s))
        .collect();
    check(&sides, pairing.sim.stats().ttl_expired)
}

/// [`check_pairing`], then flush the flight recorder: every violation
/// is appended as an `InvariantViolation` span (parented to the health
/// transition that put the path in the offending state, so the dump's
/// ancestry chain resolves chaos event → BGP update → health transition
/// → violation), and the control recorder is dumped in canonical form.
pub fn check_pairing_flight(pairing: &mut TangoPairing) -> (InvariantReport, FlightDump) {
    let report = check_pairing(pairing);
    for v in &report.violations {
        pairing.record_violation(v.side, v.at_ns, v.path, v.state.code());
    }
    let dump = pairing.flight_dump();
    (report, dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingOptions;
    use crate::vultr::vultr_pairing;
    use tango_control::HealthConfig;
    use tango_dataplane::StaticPolicy;
    use tango_sim::SimTime;
    use tango_topology::WideAreaEvent;

    fn tr(at_ns: u64, path: u16, from: HealthState, to: HealthState) -> HealthTransition {
        HealthTransition {
            at_ns,
            path,
            from,
            to,
        }
    }

    #[test]
    fn fabricated_dead_path_selection_is_caught() {
        let ev = SideEvidence {
            side: Side::A,
            paths: vec![0, 1],
            timeline: vec![
                tr(100, 1, HealthState::Up, HealthState::Suspect),
                tr(200, 1, HealthState::Suspect, HealthState::Down),
                tr(900, 1, HealthState::Down, HealthState::Up),
            ],
            selection_history: vec![
                (50, vec![1]),  // before any trouble: fine
                (150, vec![1]), // Suspect: degraded but selectable
                (250, vec![1]), // Down: violation
                (950, vec![1]), // recovered: fine
            ],
        };
        let report = check(&[ev], 0);
        assert_eq!(report.checked_decisions, 4);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].at_ns, 250);
        assert_eq!(report.violations[0].state, HealthState::Down);
        assert!(report.unrecovered.is_empty(), "final state is Up");
        assert!(!report.ok());
    }

    #[test]
    fn probing_counts_as_dead_and_boundary_is_inclusive() {
        let ev = SideEvidence {
            side: Side::B,
            paths: vec![0, 1],
            timeline: vec![
                tr(200, 0, HealthState::Up, HealthState::Down),
                tr(400, 0, HealthState::Down, HealthState::Probing),
            ],
            selection_history: vec![(200, vec![0]), (400, vec![0])],
        };
        let report = check(&[ev], 0);
        // A transition stamped at the decision instant is already in
        // effect (decide() observes before it chooses).
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.violations[1].state, HealthState::Probing);
        assert_eq!(report.unrecovered, vec![(Side::B, 0)]);
    }

    #[test]
    fn loops_and_clean_runs() {
        let clean = SideEvidence {
            side: Side::A,
            paths: vec![0, 1, 2],
            timeline: Vec::new(),
            selection_history: vec![(100, vec![0, 2]), (200, vec![2])],
        };
        assert!(check(std::slice::from_ref(&clean), 0).ok());
        let looped = check(&[clean], 3);
        assert_eq!(looped.ttl_expired, 3);
        assert!(!looped.ok(), "ttl expiries mean a forwarding loop");
    }

    #[test]
    fn all_dead_degradation_is_excused() {
        // Both paths dead: selecting the fallback (path 0) is the
        // gate's documented last resort, not a violation.
        let ev = SideEvidence {
            side: Side::A,
            paths: vec![0, 1],
            timeline: vec![
                tr(100, 0, HealthState::Up, HealthState::Down),
                tr(120, 1, HealthState::Up, HealthState::Down),
                tr(500, 0, HealthState::Down, HealthState::Up),
                tr(520, 1, HealthState::Down, HealthState::Up),
            ],
            selection_history: vec![(200, vec![0]), (600, vec![0])],
        };
        let report = check(&[ev], 0);
        assert!(report.violations.is_empty(), "{report:?}");
        assert!(report.ok());
    }

    /// End-to-end self-test: a deliberately broken deployment (pinned
    /// static policy, health gate in monitor-only mode) keeps forwarding
    /// into a blackholed path — the checker MUST catch it. The same
    /// deployment with enforcement on must come back clean.
    #[test]
    fn broken_fixture_is_caught_and_enforcement_passes() {
        let run = |monitor_only: bool| {
            let mut options = PairingOptions {
                seed: 11,
                control_period: Some(SimTime::from_ms(50)),
                policy_a: Box::new(StaticPolicy::single(1, "pin-1")),
                policy_b: Box::new(StaticPolicy::single(1, "pin-1")),
                health_a: Some(HealthConfig::default()),
                health_b: Some(HealthConfig::default()),
                monitor_only_health: monitor_only,
                ..PairingOptions::default()
            };
            options.wide_area_events.push(WideAreaEvent::Blackhole {
                path: 1,
                at_ns: 2_000_000_000,
                duration_ns: 2_000_000_000,
            });
            let mut p = vultr_pairing(options).unwrap();
            p.run_until(SimTime::from_secs(10));
            check_pairing(&p)
        };

        let broken = run(true);
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.path == 1 && known_dead(v.state)),
            "monitor-only pin must be caught forwarding into the dead path: {broken}"
        );

        let enforced = run(false);
        assert!(
            enforced.violations.is_empty(),
            "health gating must never select a known-dead path: {enforced:?}"
        );
        assert_eq!(enforced.ttl_expired, 0);
        assert!(
            enforced.unrecovered.is_empty(),
            "path 1 must return Up after the blackhole: {enforced:?}"
        );
        assert!(enforced.checked_decisions > 50);
    }
}
