//! Properties of the path-selection policies.
//!
//! * **Reference.** The single-path policies decide through one sticky
//!   rule and one eligibility rule (`policy::sticky`, `policy::eligible`).
//!   Each policy's earlier, separately written `decide` is kept below as
//!   the reference, and on random snapshot sequences the two must give
//!   the same `Selection` at every tick.
//! * **§4.2.** Tango is sound under unsynchronized clocks because a policy
//!   only compares paths with each other: adding one constant to every
//!   path's OWDs changes no selection of `LowestOwdPolicy`,
//!   `JitterAwarePolicy` or `LossAwarePolicy`. Every OWD, jitter and
//!   offset is a whole number of nanoseconds and the jitter weight is a
//!   whole number, so each shifted score is exact. `WeightedSplitPolicy`
//!   is left out by design: its cutoff and weights are ratios of absolute
//!   OWDs (DESIGN §5).

use proptest::collection;
use proptest::option;
use proptest::prelude::*;
use std::collections::BTreeMap;
use tango_control::{JitterAwarePolicy, LossAwarePolicy, LowestOwdPolicy, WeightedSplitPolicy};
use tango_dataplane::{PathPolicy, PathSnapshot, Selection};

/// The policies as each was written before they shared one rule.
mod reference {
    use std::collections::BTreeMap;
    use tango_dataplane::{PathSnapshot, Selection};

    const DEFAULT_STALENESS_LIMIT_NS: u64 = 1_000_000_000;

    fn is_dead(s: &PathSnapshot, limit_ns: u64) -> bool {
        match s.staleness_ns {
            Some(st) => st > limit_ns,
            None => s.samples == 0,
        }
    }

    fn best_by<F: Fn(&PathSnapshot) -> Option<f64>>(
        paths: &BTreeMap<u16, PathSnapshot>,
        min_samples: u64,
        score: F,
    ) -> Option<(u16, f64)> {
        paths
            .iter()
            .filter(|(_, s)| s.samples >= min_samples)
            .filter(|(_, s)| !is_dead(s, DEFAULT_STALENESS_LIMIT_NS))
            .filter_map(|(id, s)| score(s).map(|v| (*id, v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"))
    }

    pub struct LowestOwd {
        pub hysteresis_ns: f64,
        pub min_samples: u64,
        pub current: Option<u16>,
    }

    impl LowestOwd {
        pub fn decide(&mut self, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
            let Some((best, best_score)) = best_by(paths, self.min_samples, |s| s.owd_ewma_ns)
            else {
                return Selection::Single(self.current.unwrap_or(0));
            };
            let next = match self.current {
                Some(cur) if cur != best => {
                    let cur_dead = paths
                        .get(&cur)
                        .map(|s| is_dead(s, DEFAULT_STALENESS_LIMIT_NS))
                        .unwrap_or(true);
                    let cur_score = paths.get(&cur).and_then(|s| s.owd_ewma_ns);
                    match (cur_dead, cur_score) {
                        (true, _) => best,
                        (false, Some(c)) if c - best_score < self.hysteresis_ns => cur,
                        _ => best,
                    }
                }
                _ => best,
            };
            self.current = Some(next);
            Selection::Single(next)
        }
    }

    pub struct JitterAware {
        pub jitter_weight: f64,
        pub hysteresis_ns: f64,
        pub min_samples: u64,
        pub current: Option<u16>,
    }

    impl JitterAware {
        fn score(&self, s: &PathSnapshot) -> Option<f64> {
            Some(s.owd_ewma_ns? + self.jitter_weight * s.jitter_ns.unwrap_or(0.0))
        }

        pub fn decide(&mut self, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
            let Some((best, best_score)) = best_by(paths, self.min_samples, |s| self.score(s))
            else {
                return Selection::Single(self.current.unwrap_or(0));
            };
            let next = match self.current {
                Some(cur) if cur != best => {
                    let cur_dead = paths
                        .get(&cur)
                        .map(|s| is_dead(s, DEFAULT_STALENESS_LIMIT_NS))
                        .unwrap_or(true);
                    let cur_score = paths.get(&cur).and_then(|s| self.score(s));
                    match (cur_dead, cur_score) {
                        (true, _) => best,
                        (false, Some(c)) if c - best_score < self.hysteresis_ns => cur,
                        _ => best,
                    }
                }
                _ => best,
            };
            self.current = Some(next);
            Selection::Single(next)
        }
    }

    pub struct LossAware {
        pub max_loss: f64,
        pub hysteresis_ns: f64,
        pub min_samples: u64,
        pub current: Option<u16>,
    }

    impl LossAware {
        pub fn decide(&mut self, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
            let clean: BTreeMap<u16, PathSnapshot> = paths
                .iter()
                .filter(|(_, s)| {
                    s.loss_rate <= self.max_loss && !is_dead(s, DEFAULT_STALENESS_LIMIT_NS)
                })
                .map(|(k, v)| (*k, *v))
                .collect();
            let pool = if clean.is_empty() { paths } else { &clean };
            let Some((best, best_score)) = best_by(pool, self.min_samples, |s| s.owd_ewma_ns)
            else {
                return Selection::Single(self.current.unwrap_or(0));
            };
            let next = match self.current {
                Some(cur) if cur != best => {
                    let cur_ok = pool.contains_key(&cur);
                    let cur_score = pool.get(&cur).and_then(|s| s.owd_ewma_ns);
                    match (cur_ok, cur_score) {
                        (false, _) => best,
                        (true, Some(c)) if c - best_score < self.hysteresis_ns => cur,
                        _ => best,
                    }
                }
                _ => best,
            };
            self.current = Some(next);
            Selection::Single(next)
        }
    }

    pub struct WeightedSplit {
        pub cutoff_factor: f64,
        pub min_samples: u64,
    }

    impl WeightedSplit {
        pub fn decide(&mut self, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
            let measured: Vec<(u16, f64)> = paths
                .iter()
                .filter(|(_, s)| s.samples >= self.min_samples)
                .filter(|(_, s)| !is_dead(s, DEFAULT_STALENESS_LIMIT_NS))
                .filter_map(|(id, s)| s.owd_ewma_ns.map(|v| (*id, v)))
                .collect();
            let Some(best) = measured
                .iter()
                .map(|(_, v)| *v)
                .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            else {
                return Selection::Single(0);
            };
            let weights: Vec<(u16, u32)> = measured
                .iter()
                .filter(|(_, v)| *v <= best * self.cutoff_factor)
                .map(|(id, v)| (*id, ((best / v) * 100.0).round() as u32))
                .collect();
            match weights.len() {
                0 => Selection::Single(0),
                1 => Selection::Single(weights[0].0),
                _ => Selection::Weighted(weights),
            }
        }
    }
}

/// Loss rates around the ceilings below, plus blackhole-like ones.
const LOSS: [f64; 6] = [0.0, 0.005, 0.01, 0.02, 0.5, 1.0];
/// Staleness on both sides of the 1 s limit.
const STALENESS: [u64; 5] = [0, 500_000_000, 1_000_000_000, 1_000_000_001, 5_000_000_000];
/// Hysteresis values, each a whole multiple of the OWD grid below so
/// that a challenger often beats the current path by exactly that much.
const HYSTERESIS: [f64; 4] = [0.0, 100_000.0, 500_000.0, 1_000_000.0];

/// OWDs on a 100 µs grid of 20 values (ties are common), jitter on a
/// 20 µs grid, sample counts on both sides of the 5-sample floor.
fn arb_snapshot() -> impl Strategy<Value = PathSnapshot> {
    (
        option::of(0i64..20),
        0i64..20,
        option::of(0i64..10),
        0..LOSS.len(),
        0u64..10,
        option::of(0..STALENESS.len()),
    )
        .prop_map(|(owd, last, jitter, loss, samples, staleness)| {
            let grid = |k: i64| (20_000_000 + k * 100_000) as f64;
            PathSnapshot {
                owd_ewma_ns: owd.map(grid),
                last_owd_ns: Some(grid(last)),
                jitter_ns: jitter.map(|k| (k * 20_000) as f64),
                loss_rate: LOSS[loss],
                samples,
                staleness_ns: staleness.map(|i| STALENESS[i]),
                silence_ns: None,
            }
        })
}

/// A sequence of control ticks over up to six paths; a path may be
/// missing from any tick.
fn arb_ticks() -> impl Strategy<Value = Vec<BTreeMap<u16, PathSnapshot>>> {
    collection::vec(
        collection::vec((0u16..6, arb_snapshot()), 0..7)
            .prop_map(|paths| paths.into_iter().collect()),
        1..40,
    )
}

/// `(hysteresis, jitter weight, loss ceiling)`: whole-number jitter
/// weights keep every shifted score exact.
fn arb_params() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        0..HYSTERESIS.len(),
        prop_oneof![Just(0.0), Just(1.0), Just(5.0), Just(10.0)],
        prop_oneof![Just(0.0), Just(0.01), Just(0.05)],
    )
        .prop_map(|(h, weight, max_loss)| (HYSTERESIS[h], weight, max_loss))
}

/// The three offset-invariant single-path policies.
fn single_path_policies(hysteresis: f64, weight: f64, max_loss: f64) -> [Box<dyn PathPolicy>; 3] {
    [
        Box::new(LowestOwdPolicy::new(hysteresis)),
        Box::new(JitterAwarePolicy::new(weight, hysteresis)),
        Box::new(LossAwarePolicy::new(max_loss, hysteresis)),
    ]
}

fn shifted(paths: &BTreeMap<u16, PathSnapshot>, offset_ns: i64) -> BTreeMap<u16, PathSnapshot> {
    let shift = |v: Option<f64>| v.map(|v| v + offset_ns as f64);
    paths
        .iter()
        .map(|(id, s)| {
            let s = PathSnapshot {
                owd_ewma_ns: shift(s.owd_ewma_ns),
                last_owd_ns: shift(s.last_owd_ns),
                ..*s
            };
            (*id, s)
        })
        .collect()
}

proptest! {
    /// Every policy picks at every tick what its separately written
    /// reference picks.
    #[test]
    fn policies_decide_as_their_references(
        ticks in arb_ticks(),
        (hysteresis, weight, max_loss) in arb_params(),
        cutoff in prop_oneof![Just(1.01), Just(1.2), Just(1.5)],
    ) {
        let mut lowest = LowestOwdPolicy::new(hysteresis);
        let mut jitter = JitterAwarePolicy::new(weight, hysteresis);
        let mut loss = LossAwarePolicy::new(max_loss, hysteresis);
        let mut split = WeightedSplitPolicy::new(cutoff);
        let mut ref_lowest = reference::LowestOwd {
            hysteresis_ns: hysteresis,
            min_samples: 5,
            current: None,
        };
        let mut ref_jitter = reference::JitterAware {
            jitter_weight: weight,
            hysteresis_ns: hysteresis,
            min_samples: 5,
            current: None,
        };
        let mut ref_loss = reference::LossAware {
            max_loss,
            hysteresis_ns: hysteresis,
            min_samples: 5,
            current: None,
        };
        let mut ref_split = reference::WeightedSplit {
            cutoff_factor: cutoff,
            min_samples: 5,
        };
        for (t, paths) in ticks.iter().enumerate() {
            let now = t as u64;
            prop_assert_eq!(lowest.decide(now, paths), ref_lowest.decide(paths), "lowest-owd, tick {}", t);
            prop_assert_eq!(jitter.decide(now, paths), ref_jitter.decide(paths), "jitter-aware, tick {}", t);
            prop_assert_eq!(loss.decide(now, paths), ref_loss.decide(paths), "loss-aware, tick {}", t);
            prop_assert_eq!(split.decide(now, paths), ref_split.decide(paths), "weighted-split, tick {}", t);
        }
    }

    /// §4.2: one constant added to every path's OWDs (the receiver's
    /// clock offset) changes no selection.
    #[test]
    fn a_clock_offset_changes_no_selection(
        ticks in arb_ticks(),
        (hysteresis, weight, max_loss) in arb_params(),
        offset_ns in -5_000_000_000i64..5_000_000_000,
    ) {
        let mut plain = single_path_policies(hysteresis, weight, max_loss);
        let mut offset = single_path_policies(hysteresis, weight, max_loss);
        for (t, paths) in ticks.iter().enumerate() {
            let now = t as u64;
            let moved = shifted(paths, offset_ns);
            for (p, q) in plain.iter_mut().zip(offset.iter_mut()) {
                prop_assert_eq!(p.decide(now, paths), q.decide(now, &moved), "{}, tick {}", p.name(), t);
            }
        }
    }
}

#[test]
fn the_sticky_rule_keeps_and_leaves_as_documented() {
    // A fixed sequence through each way a current path is kept or left:
    // held within hysteresis, left past it, left when stale, left when
    // it drops out of the snapshot, and nothing ranked (stay put).
    let snap = |owd_ms: f64, staleness_ns: Option<u64>| PathSnapshot {
        owd_ewma_ns: Some(owd_ms * 1e6),
        last_owd_ns: Some(owd_ms * 1e6),
        jitter_ns: Some(0.0),
        loss_rate: 0.0,
        samples: 100,
        staleness_ns,
        silence_ns: None,
    };
    let tick = |paths: &[(u16, PathSnapshot)]| -> BTreeMap<u16, PathSnapshot> {
        paths.iter().copied().collect()
    };
    let ticks = [
        tick(&[(0, snap(30.0, Some(0))), (1, snap(31.0, Some(0)))]),
        tick(&[(0, snap(30.5, Some(0))), (1, snap(30.0, Some(0)))]),
        tick(&[(0, snap(32.0, Some(0))), (1, snap(30.0, Some(0)))]),
        tick(&[(0, snap(10.0, Some(0))), (1, snap(30.0, Some(0)))]),
        tick(&[
            (0, snap(10.0, Some(2_000_000_000))),
            (1, snap(30.0, Some(0))),
        ]),
        tick(&[(2, snap(40.0, Some(0)))]),
        tick(&[]),
    ];
    let mut p = LowestOwdPolicy::new(1_000_000.0);
    let picks: Vec<Selection> = ticks.iter().map(|paths| p.decide(0, paths)).collect();
    let want = [0, 0, 1, 0, 1, 2, 2].map(Selection::Single);
    assert_eq!(picks, want);
}
