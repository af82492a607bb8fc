//! Seeded chaos storms: deterministic randomized schedules mixing
//! honest faults with Byzantine behaviors.
//!
//! A [`ChaosSchedule`] is a *pure function of its config* — the same
//! seed always yields the same event list, independent of worker
//! threads, wall time, or anything else outside the config. The
//! schedule is a list of [`WideAreaEvent`]s, the same vocabulary a
//! scripted scenario writes; the pairing harness in `tango-core` lowers
//! every kind (links, control-plane steps, [`crate::adversary`]
//! installations).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tango_topology::WideAreaEvent;

use crate::time::SimTime;

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
    pub events: Vec<WideAreaEvent>,
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
            let at_ns = config.start_ns + rng.gen_range(0..latest);
            let path = rng.gen_range(0..config.n_paths);
            let kinds = if config.byzantine { 6 } else { 2 };
            events.push(match rng.gen_range(0..kinds) {
                0 => WideAreaEvent::Blackhole {
                    path,
                    at_ns,
                    duration_ns,
                },
                1 => WideAreaEvent::SessionReset {
                    path,
                    at_ns,
                    hold_ns: duration_ns,
                },
                2 => WideAreaEvent::OwdPoison {
                    path,
                    at_ns,
                    duration_ns,
                    // ±(50..500) ms — far beyond honest jitter either way.
                    skew_ns: if rng.gen_bool(0.5) { 1 } else { -1 }
                        * rng.gen_range(50_000_000i64..500_000_000),
                },
                3 => WideAreaEvent::Replay {
                    path,
                    at_ns,
                    duration_ns,
                    delay_ns: rng.gen_range(20_000_000..200_000_000),
                    every: rng.gen_range(1..4),
                },
                4 => WideAreaEvent::SpoofReports {
                    path,
                    at_ns,
                    duration_ns,
                    period_ns: rng.gen_range(5_000_000..50_000_000),
                },
                _ => WideAreaEvent::Hijack {
                    path,
                    at_ns,
                    duration_ns,
                },
            });
        }
        events.sort_by_key(|e| e.window().start_ns);
        ChaosSchedule { config, events }
    }

    /// When the last event is over (storm guaranteed quiet after this).
    pub fn quiet_after(&self) -> SimTime {
        let end = self.events.iter().map(|e| e.window().end_ns).max();
        SimTime(end.unwrap_or(self.config.start_ns))
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
        let mut last = 0;
        for e in &s.events {
            let window = e.window();
            assert!(window.start_ns >= last);
            last = window.start_ns;
            assert!(window.start_ns >= s.config.start_ns);
            let end = window.end_ns;
            assert!(
                end <= s.config.start_ns + s.config.storm_ns,
                "event ends at {end} outside the storm"
            );
        }
        assert!(s.quiet_after().0 <= s.config.start_ns + s.config.storm_ns);
    }

    fn is_honest(e: &WideAreaEvent) -> bool {
        matches!(
            e,
            WideAreaEvent::Blackhole { .. } | WideAreaEvent::SessionReset { .. }
        )
    }

    #[test]
    fn honest_storm_has_no_byzantine_kinds() {
        let mut c = cfg(9);
        c.byzantine = false;
        let s = ChaosSchedule::generate(c);
        assert!(s.events.iter().all(is_honest));
    }

    #[test]
    fn byzantine_storm_eventually_draws_byzantine_kinds() {
        let mut c = cfg(3);
        c.events = 64;
        let s = ChaosSchedule::generate(c);
        assert!(s.events.iter().any(|e| !is_honest(e)));
        assert!(s.events.iter().any(is_honest));
    }

    #[test]
    fn paths_stay_in_range() {
        let s = ChaosSchedule::generate(cfg(123));
        assert!(s.events.iter().all(|e| e.path() < 4));
    }
}
