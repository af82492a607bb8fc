//! Property-based tests for the chaos machinery: `ChaosSchedule`
//! determinism and bounds.

use proptest::prelude::*;
use tango_sim::{ChaosConfig, ChaosSchedule};
use tango_topology::WideAreaEvent;

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
            let window = e.window();
            prop_assert!(window.start_ns >= last, "events must be time-sorted");
            last = window.start_ns;
            prop_assert!(e.path() < n_paths);
            prop_assert!(window.start_ns >= cfg.start_ns);
            prop_assert!(
                window.end_ns <= cfg.start_ns + cfg.storm_ns,
                "event must end inside the storm"
            );
            if !byzantine {
                prop_assert!(matches!(
                    e,
                    WideAreaEvent::Blackhole { .. } | WideAreaEvent::SessionReset { .. }
                ));
            }
        }
    }
}
