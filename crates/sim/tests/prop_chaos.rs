//! Property-based tests for the chaos machinery: `ChaosSchedule`
//! determinism and bounds.

use proptest::prelude::*;
use tango_sim::{ChaosConfig, ChaosSchedule};

proptest! {
    /// Same seed ⇒ identical schedule, different seed ⇒ (almost
    /// always) different — and the schedule always respects its bounds.
    #[test]
    fn chaos_schedule_is_pure_and_bounded(
        seed in any::<u64>(),
        events in 1usize..32,
        n_paths in 1u16..8,
        byzantine in any::<bool>(),
    ) {
        let cfg = ChaosConfig {
            seed,
            start_ns: 1_000_000_000,
            storm_ns: 60_000_000_000,
            n_paths,
            events,
            byzantine,
        };
        let a = ChaosSchedule::generate(cfg);
        let b = ChaosSchedule::generate(cfg);
        prop_assert_eq!(&a, &b, "same config must reproduce exactly");
        prop_assert_eq!(a.events.len(), events);
        let mut last = 0u64;
        for e in &a.events {
            prop_assert!(e.at.0 >= last, "events must be time-sorted");
            last = e.at.0;
            prop_assert!(e.kind.path() < n_paths);
            prop_assert!(e.at.0 >= cfg.start_ns);
            prop_assert!(
                e.at.0 + e.kind.duration_ns() <= cfg.start_ns + cfg.storm_ns,
                "event must end inside the storm"
            );
            if !byzantine {
                prop_assert!(!e.kind.is_byzantine());
            }
        }
    }
}
