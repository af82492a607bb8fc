//! Seeded chaos storms: deterministic randomized schedules mixing
//! honest faults with Byzantine behaviors.
//!
//! A [`ChaosSchedule`] is a *pure function of its config* — the same
//! seed always yields the same event list, independent of worker
//! threads, wall time, or anything else outside the config. The
//! schedule speaks the operator vocabulary (paths, windows); the
//! pairing harness in `tango-core` lowers honest events to
//! `WideAreaEvent`s and Byzantine events to [`crate::adversary`]
//! installations and BGP attacks.

use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What kind of havoc one chaos event wreaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Honest: one path silently drops everything for the duration.
    Blackhole {
        /// Provisioned path id.
        path: u16,
        /// Outage length, ns.
        duration_ns: u64,
    },
    /// Honest: the path's tunnel prefixes are withdrawn, then
    /// re-announced after the hold.
    SessionReset {
        /// Provisioned path id.
        path: u16,
        /// Withdrawal hold, ns.
        hold_ns: u64,
    },
    /// Byzantine: a transit AS on the path skews piggybacked timestamps.
    OwdPoison {
        /// Path whose distinguishing transit turns Byzantine.
        path: u16,
        /// Poisoning window length, ns.
        duration_ns: u64,
        /// Timestamp skew, ns (negative = path claims to be faster).
        skew_ns: i64,
    },
    /// Byzantine: a transit AS records and replays tunnel packets.
    Replay {
        /// Path whose distinguishing transit turns Byzantine.
        path: u16,
        /// Capture window length, ns.
        duration_ns: u64,
        /// Re-injection delay, ns.
        delay_ns: u64,
        /// Capture cadence (every n-th Tango packet).
        every: u32,
    },
    /// Byzantine: a transit AS injects forged measurement reports.
    SpoofReports {
        /// Path whose distinguishing transit turns Byzantine.
        path: u16,
        /// Injection window length, ns.
        duration_ns: u64,
        /// Injection period, ns.
        period_ns: u64,
    },
    /// Byzantine control plane: an AS announces a more-specific of the
    /// victim path's tunnel prefix, attracting its traffic until the
    /// hijack is withdrawn.
    Hijack {
        /// Path whose tunnel prefix is hijacked.
        path: u16,
        /// How long the hijack announcement stays up, ns.
        duration_ns: u64,
    },
}

impl ChaosKind {
    /// The path this event targets.
    pub fn path(&self) -> u16 {
        match *self {
            ChaosKind::Blackhole { path, .. }
            | ChaosKind::SessionReset { path, .. }
            | ChaosKind::OwdPoison { path, .. }
            | ChaosKind::Replay { path, .. }
            | ChaosKind::SpoofReports { path, .. }
            | ChaosKind::Hijack { path, .. } => path,
        }
    }

    /// Is this a Byzantine (lying) behavior rather than an honest fault?
    pub fn is_byzantine(&self) -> bool {
        !matches!(
            self,
            ChaosKind::Blackhole { .. } | ChaosKind::SessionReset { .. }
        )
    }

    /// How long the event stays active, ns.
    pub fn duration_ns(&self) -> u64 {
        match *self {
            ChaosKind::Blackhole { duration_ns, .. }
            | ChaosKind::OwdPoison { duration_ns, .. }
            | ChaosKind::Replay { duration_ns, .. }
            | ChaosKind::SpoofReports { duration_ns, .. }
            | ChaosKind::Hijack { duration_ns, .. } => duration_ns,
            ChaosKind::SessionReset { hold_ns, .. } => hold_ns,
        }
    }
}

/// One scheduled chaos event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// When the event starts.
    pub at: SimTime,
    /// What happens.
    pub kind: ChaosKind,
}

/// Storm shape: where the storm sits in the run and what it may draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Schedule seed — the *only* source of randomness.
    pub seed: u64,
    /// First instant an event may start, ns.
    pub start_ns: u64,
    /// Storm length: every event *ends* before `start_ns + storm_ns`.
    pub storm_ns: u64,
    /// Number of provisioned paths events may target.
    pub n_paths: u16,
    /// How many events to draw.
    pub events: usize,
    /// Include Byzantine kinds (false = honest-faults-only storm).
    pub byzantine: bool,
}

/// A generated, deterministic storm schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// The config that generated it (kept for artifact provenance).
    pub config: ChaosConfig,
    /// Events sorted by start time (ties broken by draw order).
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generate the schedule for `config`. Pure: same config → same
    /// schedule, on any machine, any thread count.
    pub fn generate(config: ChaosConfig) -> Self {
        assert!(config.n_paths > 0, "need at least one path");
        assert!(config.storm_ns > 0, "storm must have positive length");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut events = Vec::with_capacity(config.events);
        // Durations span 50 ms .. 1/4 of the storm, so several events
        // overlap in a typical storm but none dominates it.
        let max_dur = (config.storm_ns / 4).max(100_000_000);
        for _ in 0..config.events {
            let duration_ns = rng.gen_range(50_000_000..=max_dur);
            // Start early enough that the event ends inside the storm.
            let latest = config.storm_ns.saturating_sub(duration_ns).max(1);
            let at = SimTime(config.start_ns + rng.gen_range(0..latest));
            let path = rng.gen_range(0..config.n_paths);
            let kinds = if config.byzantine { 6 } else { 2 };
            let kind = match rng.gen_range(0..kinds) {
                0 => ChaosKind::Blackhole { path, duration_ns },
                1 => ChaosKind::SessionReset {
                    path,
                    hold_ns: duration_ns,
                },
                2 => ChaosKind::OwdPoison {
                    path,
                    duration_ns,
                    // ±(50..500) ms — far beyond honest jitter either way.
                    skew_ns: if rng.gen_bool(0.5) { 1 } else { -1 }
                        * rng.gen_range(50_000_000i64..500_000_000),
                },
                3 => ChaosKind::Replay {
                    path,
                    duration_ns,
                    delay_ns: rng.gen_range(20_000_000..200_000_000),
                    every: rng.gen_range(1..4),
                },
                4 => ChaosKind::SpoofReports {
                    path,
                    duration_ns,
                    period_ns: rng.gen_range(5_000_000..50_000_000),
                },
                _ => ChaosKind::Hijack { path, duration_ns },
            };
            events.push(ChaosEvent { at, kind });
        }
        events.sort_by_key(|e| e.at);
        ChaosSchedule { config, events }
    }

    /// When the last event is over (storm guaranteed quiet after this).
    pub fn quiet_after(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| SimTime(e.at.0.saturating_add(e.kind.duration_ns())))
            .max()
            .unwrap_or(SimTime(self.config.start_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            start_ns: 1_000_000_000,
            storm_ns: 60_000_000_000,
            n_paths: 4,
            events: 12,
            byzantine: true,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(
            ChaosSchedule::generate(cfg(7)),
            ChaosSchedule::generate(cfg(7))
        );
    }

    #[test]
    fn different_seed_different_schedule() {
        assert_ne!(
            ChaosSchedule::generate(cfg(7)).events,
            ChaosSchedule::generate(cfg(8)).events
        );
    }

    #[test]
    fn events_sorted_and_inside_storm() {
        let s = ChaosSchedule::generate(cfg(42));
        assert_eq!(s.events.len(), 12);
        let mut last = SimTime::ZERO;
        for e in &s.events {
            assert!(e.at >= last);
            last = e.at;
            assert!(e.at.0 >= s.config.start_ns);
            let end = e.at.0 + e.kind.duration_ns();
            assert!(
                end <= s.config.start_ns + s.config.storm_ns,
                "event ends at {end} outside the storm"
            );
        }
        assert!(s.quiet_after().0 <= s.config.start_ns + s.config.storm_ns);
    }

    #[test]
    fn honest_storm_has_no_byzantine_kinds() {
        let mut c = cfg(9);
        c.byzantine = false;
        let s = ChaosSchedule::generate(c);
        assert!(s.events.iter().all(|e| !e.kind.is_byzantine()));
    }

    #[test]
    fn byzantine_storm_eventually_draws_byzantine_kinds() {
        let mut c = cfg(3);
        c.events = 64;
        let s = ChaosSchedule::generate(c);
        assert!(s.events.iter().any(|e| e.kind.is_byzantine()));
        assert!(s.events.iter().any(|e| !e.kind.is_byzantine()));
    }

    #[test]
    fn paths_stay_in_range() {
        let s = ChaosSchedule::generate(cfg(123));
        assert!(s.events.iter().all(|e| e.kind.path() < 4));
    }
}
