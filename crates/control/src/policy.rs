//! Path-selection policies — the "logic for how a forwarding decision
//! should be made based on path performance" (§3).
//!
//! All policies implement [`tango_dataplane::PathPolicy`]; the switch
//! calls them at each control tick with snapshots of the *peer's*
//! receive-side measurements and installs the returned [`Selection`].
//!
//! The logic is stated once. A path is *eligible* when it has at least
//! [`MIN_SAMPLES`] samples and is not stale. The single-path policies
//! ([`LowestOwdPolicy`], [`JitterAwarePolicy`], [`LossAwarePolicy`]) are
//! three scores over one sticky rule: rank the eligible paths by the
//! score, and keep the current path unless it may not stay or the best
//! path beats it by the hysteresis. [`WeightedSplitPolicy`] splits over
//! the same eligible paths.
//!
//! §5 motivates the designs: delay matters (the default path is 30 %
//! slower than the best), jitter matters ("depending on the application,
//! delay and jitter could have a significant impact"), and reacting to
//! live data matters ("selecting an alternate path based on live data is
//! required for optimal performance").

use std::collections::BTreeMap;
use tango_dataplane::{PathPolicy, PathSnapshot, Selection};

/// A path that hasn't delivered for this much longer than the freshest
/// path is considered dead (outage): the sequence-gap loss estimator
/// cannot see losses on a path with *no* arrivals, but staleness can.
pub const DEFAULT_STALENESS_LIMIT_NS: u64 = 1_000_000_000;

/// Samples a path needs before any policy ranks it.
pub const MIN_SAMPLES: u64 = 5;

/// Not stale: delivered, and at most [`DEFAULT_STALENESS_LIMIT_NS`]
/// behind the freshest path.
fn fresh(s: &PathSnapshot) -> bool {
    match s.staleness_ns {
        Some(st) => st <= DEFAULT_STALENESS_LIMIT_NS,
        None => s.samples > 0,
    }
}

/// The eligibility rule every policy ranks by: at least [`MIN_SAMPLES`]
/// samples and not stale.
fn eligible(s: &PathSnapshot) -> bool {
    s.samples >= MIN_SAMPLES && fresh(s)
}

/// The one single-path rule, for any score (lower is better). Rank the
/// eligible paths that have a score; keep `*current` unless it may not
/// stay (`may_stay` is false, or it is gone or unscored) or the best
/// path beats it by at least `hysteresis_ns` (prevents flapping between
/// near-equal paths — flapping reorders TCP streams, the §5 complaint).
/// With nothing ranked, stay where we are (or path 0).
///
/// Only score *differences* are compared, so a constant clock offset
/// added to every OWD changes no selection (§4.2).
fn sticky(
    current: &mut Option<u16>,
    paths: &BTreeMap<u16, PathSnapshot>,
    hysteresis_ns: f64,
    score: impl Fn(&PathSnapshot) -> Option<f64>,
    may_stay: impl Fn(&PathSnapshot) -> bool,
) -> Selection {
    let Some((best, best_score)) = paths
        .iter()
        .filter(|(_, s)| eligible(s))
        .filter_map(|(id, s)| score(s).map(|v| (*id, v)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"))
    else {
        return Selection::Single(current.unwrap_or(0));
    };
    let stays = |cur: u16| {
        paths
            .get(&cur)
            .filter(|s| may_stay(s))
            .and_then(&score)
            .is_some_and(|c| c - best_score < hysteresis_ns)
    };
    let next = match *current {
        Some(cur) if cur != best && stays(cur) => cur,
        _ => best,
    };
    *current = Some(next);
    Selection::Single(next)
}

/// Pick the path with the lowest smoothed one-way delay, with hysteresis:
/// switch away from the current path only when the challenger is better
/// by at least `hysteresis_ns`, or at once when the current path goes
/// stale.
#[derive(Debug, Clone)]
pub struct LowestOwdPolicy {
    /// Required improvement before switching, ns.
    pub hysteresis_ns: f64,
    current: Option<u16>,
}

impl LowestOwdPolicy {
    /// With the given hysteresis.
    pub fn new(hysteresis_ns: f64) -> Self {
        LowestOwdPolicy {
            hysteresis_ns,
            current: None,
        }
    }
}

impl PathPolicy for LowestOwdPolicy {
    fn decide(&mut self, _now: u64, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
        let score = |s: &PathSnapshot| s.owd_ewma_ns;
        sticky(&mut self.current, paths, self.hysteresis_ns, score, fresh)
    }

    fn name(&self) -> &str {
        "lowest-owd"
    }
}

/// Score = OWD + `jitter_weight` × rolling-window std-dev. For
/// jitter-sensitive applications (video conferencing, drone control)
/// a path with a slightly higher floor but 33× less jitter wins.
#[derive(Debug, Clone)]
pub struct JitterAwarePolicy {
    /// Weight on the jitter term.
    pub jitter_weight: f64,
    /// Required score improvement before switching, ns.
    pub hysteresis_ns: f64,
    current: Option<u16>,
}

impl JitterAwarePolicy {
    /// With the given jitter weight and hysteresis.
    pub fn new(jitter_weight: f64, hysteresis_ns: f64) -> Self {
        JitterAwarePolicy {
            jitter_weight,
            hysteresis_ns,
            current: None,
        }
    }
}

impl PathPolicy for JitterAwarePolicy {
    fn decide(&mut self, _now: u64, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
        let weight = self.jitter_weight;
        let score = |s: &PathSnapshot| Some(s.owd_ewma_ns? + weight * s.jitter_ns.unwrap_or(0.0));
        sticky(&mut self.current, paths, self.hysteresis_ns, score, fresh)
    }

    fn name(&self) -> &str {
        "jitter-aware"
    }
}

/// Avoid lossy paths first, then minimize delay: the pool is the clean
/// paths (loss at most `max_loss`, not stale), or every path when none
/// is clean. Only the pool is ranked, and a current path outside it is
/// left at once (so when no path is clean, a stale current path may be
/// held within the hysteresis).
#[derive(Debug, Clone)]
pub struct LossAwarePolicy {
    /// Loss-rate ceiling in [0, 1].
    pub max_loss: f64,
    /// Required improvement before switching, ns.
    pub hysteresis_ns: f64,
    current: Option<u16>,
}

impl LossAwarePolicy {
    /// With the given loss ceiling.
    pub fn new(max_loss: f64, hysteresis_ns: f64) -> Self {
        LossAwarePolicy {
            max_loss,
            hysteresis_ns,
            current: None,
        }
    }
}

impl PathPolicy for LossAwarePolicy {
    fn decide(&mut self, _now: u64, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
        let max_loss = self.max_loss;
        let clean = |s: &PathSnapshot| s.loss_rate <= max_loss && fresh(s);
        let all_lossy = !paths.values().any(clean);
        let in_pool = |s: &PathSnapshot| all_lossy || clean(s);
        let score = |s: &PathSnapshot| if in_pool(s) { s.owd_ewma_ns } else { None };
        sticky(&mut self.current, paths, self.hysteresis_ns, score, in_pool)
    }

    fn name(&self) -> &str {
        "loss-aware"
    }
}

/// Split traffic across all eligible paths with weights inversely
/// proportional to their smoothed delay (§6's load-balancing direction).
///
/// The one policy that reads absolute OWDs (the cutoff and the weights
/// are ratios), so unlike the others it is not offset-invariant: see
/// DESIGN §5.
#[derive(Debug, Clone)]
pub struct WeightedSplitPolicy {
    /// Paths slower than `best × cutoff_factor` get weight 0.
    pub cutoff_factor: f64,
}

impl WeightedSplitPolicy {
    /// With the given cutoff factor (e.g. 1.5 = drop paths 50 % slower
    /// than the best).
    pub fn new(cutoff_factor: f64) -> Self {
        WeightedSplitPolicy { cutoff_factor }
    }
}

impl PathPolicy for WeightedSplitPolicy {
    fn decide(&mut self, _now: u64, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
        let measured: Vec<(u16, f64)> = paths
            .iter()
            .filter(|(_, s)| eligible(s))
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
            .map(|(id, v)| {
                // Inverse-delay weight, normalized to the best = 100.
                (*id, ((best / v) * 100.0).round() as u32)
            })
            .collect();
        match weights.len() {
            0 => Selection::Single(0),
            1 => Selection::Single(weights[0].0),
            _ => Selection::Weighted(weights),
        }
    }

    fn name(&self) -> &str {
        "weighted-split"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(owd_ms: f64, jitter_ms: f64, loss: f64) -> PathSnapshot {
        PathSnapshot {
            owd_ewma_ns: Some(owd_ms * 1e6),
            last_owd_ns: Some(owd_ms * 1e6),
            jitter_ns: Some(jitter_ms * 1e6),
            loss_rate: loss,
            samples: 100,
            staleness_ns: Some(0),
            silence_ns: Some(0),
        }
    }

    fn vultr_like() -> BTreeMap<u16, PathSnapshot> {
        // NTT, Telia, GTT, Level3 with the paper's delay/jitter shape.
        let mut m = BTreeMap::new();
        m.insert(0, snap(36.5, 0.06, 0.0));
        m.insert(1, snap(33.5, 0.33, 0.0));
        m.insert(2, snap(28.2, 0.01, 0.0));
        m.insert(3, snap(41.0, 0.12, 0.0));
        m
    }

    #[test]
    fn lowest_owd_picks_gtt() {
        let mut p = LowestOwdPolicy::new(500_000.0);
        assert_eq!(p.decide(0, &vultr_like()), Selection::Single(2));
        assert_eq!(p.name(), "lowest-owd");
    }

    #[test]
    fn lowest_owd_hysteresis_prevents_flapping() {
        let mut p = LowestOwdPolicy::new(1_000_000.0); // 1 ms
        let mut paths = vultr_like();
        assert_eq!(p.decide(0, &paths), Selection::Single(2));
        // Telia improves to within 0.4 ms of GTT: not enough to switch.
        paths.insert(1, snap(27.8, 0.33, 0.0));
        assert_eq!(p.decide(1, &paths), Selection::Single(2));
        // Telia improves past the hysteresis: switch.
        paths.insert(1, snap(27.0, 0.33, 0.0));
        assert_eq!(p.decide(2, &paths), Selection::Single(1));
    }

    #[test]
    fn lowest_owd_reacts_to_current_path_degrading() {
        // The Fig. 4 (middle) scenario: GTT steps +5 ms.
        let mut p = LowestOwdPolicy::new(1_000_000.0);
        let mut paths = vultr_like();
        assert_eq!(p.decide(0, &paths), Selection::Single(2));
        // GTT degrades by only 0.3 ms past Telia: hysteresis holds.
        paths.insert(2, snap(33.8, 0.01, 0.0));
        assert_eq!(
            p.decide(1, &paths),
            Selection::Single(2),
            "hold within hysteresis"
        );
        // The +5 ms step (28.2 → 33.2+ → 36) clears the 1 ms hysteresis.
        paths.insert(2, snap(36.0, 0.01, 0.0));
        assert_eq!(p.decide(2, &paths), Selection::Single(1), "move to Telia");
    }

    #[test]
    fn lowest_owd_no_measurements_stays_put() {
        let mut p = LowestOwdPolicy::new(0.0);
        let empty = BTreeMap::new();
        assert_eq!(p.decide(0, &empty), Selection::Single(0));
        let mut young = BTreeMap::new();
        let mut s = snap(10.0, 0.0, 0.0);
        s.samples = 1; // below MIN_SAMPLES
        young.insert(7, s);
        assert_eq!(p.decide(1, &young), Selection::Single(0));
    }

    #[test]
    fn jitter_aware_prefers_stable_path() {
        // GTT degraded to 33.9 ms but with 0.01 ms jitter; Telia at
        // 33.5 ms with 0.33 ms jitter. With a strong jitter weight the
        // stable path wins despite the higher floor.
        let mut paths = vultr_like();
        paths.insert(2, snap(33.9, 0.01, 0.0));
        let mut latency_only = LowestOwdPolicy::new(0.0);
        assert_eq!(latency_only.decide(0, &paths), Selection::Single(1));
        let mut jitter_aware = JitterAwarePolicy::new(5.0, 0.0);
        assert_eq!(jitter_aware.decide(0, &paths), Selection::Single(2));
    }

    #[test]
    fn loss_aware_flees_lossy_path_immediately() {
        let mut p = LossAwarePolicy::new(0.01, 5_000_000.0);
        let mut paths = vultr_like();
        assert_eq!(p.decide(0, &paths), Selection::Single(2));
        // GTT starts dropping 10% — hysteresis must NOT hold us there.
        paths.insert(2, snap(28.2, 0.01, 0.10));
        assert_eq!(p.decide(1, &paths), Selection::Single(1));
    }

    #[test]
    fn loss_aware_all_lossy_degrades_to_best_effort() {
        let mut p = LossAwarePolicy::new(0.01, 0.0);
        let mut paths = BTreeMap::new();
        paths.insert(0, snap(36.5, 0.0, 0.5));
        paths.insert(1, snap(33.5, 0.0, 0.9));
        assert_eq!(
            p.decide(0, &paths),
            Selection::Single(1),
            "least-delay among lossy"
        );
    }

    #[test]
    fn weighted_split_weights_inverse_to_delay() {
        let mut p = WeightedSplitPolicy::new(1.5);
        match p.decide(0, &vultr_like()) {
            Selection::Weighted(w) => {
                let get = |id: u16| w.iter().find(|(p, _)| *p == id).map(|(_, wt)| *wt);
                assert_eq!(get(2), Some(100)); // best path
                let ntt = get(0).unwrap();
                assert!(ntt < 100 && ntt > 70, "ntt weight {ntt}");
                assert_eq!(get(3), Some(69), "41 ms path: 28.2/41*100");
            }
            s => panic!("expected weighted, got {s:?}"),
        }
    }

    #[test]
    fn weighted_split_cuts_outliers() {
        let mut p = WeightedSplitPolicy::new(1.2);
        let mut paths = vultr_like();
        paths.insert(3, snap(100.0, 0.0, 0.0));
        match p.decide(0, &paths) {
            Selection::Weighted(w) => {
                assert!(w.iter().all(|(id, _)| *id != 3), "100 ms path excluded");
                assert!(w.iter().all(|(id, _)| *id != 0), "36.5 > 28.2*1.2 excluded");
            }
            s => panic!("expected weighted, got {s:?}"),
        }
    }

    #[test]
    fn weighted_split_reads_absolute_owds() {
        let shifted = |offset_ms: f64| -> BTreeMap<u16, PathSnapshot> {
            let mut paths = vultr_like();
            for s in paths.values_mut() {
                s.owd_ewma_ns = s.owd_ewma_ns.map(|v| v + offset_ms * 1e6);
            }
            paths
        };
        let mut p = WeightedSplitPolicy::new(1.5);
        // A receiver clock 100 ms behind: every OWD negative, so no path
        // passes `v ≤ best × 1.5` and the split falls back to path 0.
        assert_eq!(p.decide(0, &shifted(-100.0)), Selection::Single(0));
        // 3 s ahead: every weight rounds to 100, the split goes flat.
        assert_eq!(
            p.decide(0, &shifted(3_000.0)),
            Selection::Weighted(vec![(0, 100), (1, 100), (2, 100), (3, 100)])
        );
    }

    #[test]
    fn weighted_split_single_survivor_collapses_to_single() {
        let mut p = WeightedSplitPolicy::new(1.01);
        match p.decide(0, &vultr_like()) {
            Selection::Single(2) => {}
            s => panic!("expected single GTT, got {s:?}"),
        }
    }
}
