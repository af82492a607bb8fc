//! Per-tunnel path-health tracking and health-gated selection.
//!
//! The paper's promise (§3, §5) is *reaction*: a Tango pair notices
//! wide-area trouble and routes around it. The policies in [`crate::policy`]
//! react to *degradation* (delay, jitter, loss) but treat total silence
//! only through the relative-staleness heuristic. This module adds the
//! missing liveness layer:
//!
//! * [`PathHealth`] — a per-tunnel state machine
//!   `Up → Suspect → Down → Probing → Up`, driven by the absolute
//!   per-path silence signal the switch computes (time since the path's
//!   sample count last advanced, in the controller's own clock) plus a
//!   loss-rate threshold.
//! * Exponential backoff with deterministic jitter on re-probe attempts:
//!   a `Down` path is probed again only when its backoff expires
//!   (`Down → Probing`); a failed attempt doubles the backoff (capped),
//!   a successful one must survive hysteresis — `recovery_successes`
//!   consecutive control ticks with fresh deliveries — before the path
//!   is readmitted (`Probing → Up`).
//! * [`HealthGated`] — wraps any [`PathPolicy`], hides non-`Up` paths
//!   from the inner policy, sanitizes its decision so a blackholed path
//!   is *never* selected, and degrades to the BGP-default tunnel when
//!   every path is down (never panics).
//!
//! Every transition is appended to a shared log ([`HealthLog`]), next to
//! the time each path was first observed, so experiments can report
//! time-to-detect and time-to-failover. The log is also the only health
//! tally: `health.<as>.…` telemetry is derived from it by
//! [`HealthLog::publish`], never counted a second time. All randomness
//! (backoff jitter) derives from a seeded SplitMix64 hash: same seed ⇒
//! same timeline.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use tango_dataplane::{PathPolicy, PathSnapshot, Selection};
use tango_obs::Registry;
use tango_topology::AsId;

/// Liveness verdict for one tunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Delivering normally; fully selectable.
    Up = 0,
    /// Quiet longer than `suspect_after_ns` (or loss above threshold);
    /// still selectable, but on notice.
    Suspect = 1,
    /// Declared dead: excluded from selection, probes withheld until the
    /// current backoff expires.
    Down = 2,
    /// Backoff expired: probes flow again, but the path stays excluded
    /// from selection until `recovery_successes` consecutive control
    /// ticks observe fresh deliveries.
    Probing = 3,
}

impl HealthState {
    /// The state's stable integer code, as carried by health-transition
    /// and invariant-violation span payloads (spans carry integers,
    /// never strings).
    pub fn code(self) -> u8 {
        self as u8
    }
}

impl core::fmt::Display for HealthState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            HealthState::Up => "up",
            HealthState::Suspect => "suspect",
            HealthState::Down => "down",
            HealthState::Probing => "probing",
        };
        f.write_str(s)
    }
}

/// Thresholds and schedules for the health machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Silence before `Up → Suspect`, ns.
    pub suspect_after_ns: u64,
    /// Silence before `Suspect → Down` (the detection window), ns.
    pub down_after_ns: u64,
    /// Loss rate that also pushes an `Up` path to `Suspect` (secondary
    /// signal; silence is primary — a blackholed path shows no losses to
    /// a sequence-gap estimator, only silence).
    pub loss_threshold: f64,
    /// First re-probe backoff after a path is declared `Down`, ns.
    pub backoff_initial_ns: u64,
    /// Backoff ceiling, ns (doubling stops here).
    pub backoff_max_ns: u64,
    /// Consecutive control ticks with fresh deliveries required to
    /// readmit a `Probing` path (recovery hysteresis).
    pub recovery_successes: u32,
    /// Fractional jitter applied to each backoff interval (0.1 = ±10 %),
    /// derived deterministically from `jitter_seed`, the path id, and
    /// the attempt number.
    pub jitter: f64,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_after_ns: 200_000_000, // 200 ms ≈ 20 missed 10 ms probes
            down_after_ns: 500_000_000,    // half-second detection window
            loss_threshold: 0.9,
            backoff_initial_ns: 500_000_000, // 0.5 s, then 1 s, 2 s, ...
            backoff_max_ns: 8_000_000_000,   // capped at 8 s
            recovery_successes: 3,
            jitter: 0.1,
            jitter_seed: 0x7461_6e67, // "tang"
        }
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Controller-local time of the transition, ns.
    pub at_ns: u64,
    /// Which tunnel.
    pub path: u16,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
}

/// A health gate's own record: every transition, and when each path was
/// first observed — the raw material for time-to-detect /
/// time-to-failover reporting and for `health.<as>.…` telemetry.
#[derive(Debug, Clone, Default)]
pub struct HealthLog {
    /// Every state change, oldest first.
    pub transitions: Vec<HealthTransition>,
    /// Controller-local time each path was first observed, ns: where its
    /// first time-in-state interval starts (a path enters at `Up`).
    pub first_seen: BTreeMap<u16, u64>,
}

impl HealthLog {
    /// Publish this log as `node`'s `health.<as>.…` telemetry: a
    /// `transition.<from>_<to>` counter for every pair that occurred, and
    /// a `time_in.<state>_ns` histogram with one sample per transition
    /// out of that state, measured from the path's previous transition
    /// or, for its first, from its first observation. Counters are raised
    /// to the log's totals and a histogram only receives the samples past
    /// its count, so publishing again without new transitions changes
    /// nothing.
    pub fn publish(&self, registry: &Registry, node: AsId) {
        let prefix = format!("health.{}", node.0);
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        let mut time_in: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut since = self.first_seen.clone();
        for t in &self.transitions {
            let name = format!("{prefix}.transition.{}_{}", t.from, t.to);
            *totals.entry(name).or_default() += 1;
            if let Some(entered) = since.insert(t.path, t.at_ns) {
                let name = format!("{prefix}.time_in.{}_ns", t.from);
                let samples = time_in.entry(name).or_default();
                samples.push(t.at_ns.saturating_sub(entered));
            }
        }
        for (name, total) in totals {
            let counter = registry.counter(&name);
            counter.add(total.saturating_sub(counter.get()));
        }
        for (name, samples) in time_in {
            let histogram = registry.histogram(&name);
            let published = histogram.count() as usize;
            for &sample in samples.iter().skip(published) {
                histogram.record(sample);
            }
        }
    }
}

/// A gate's [`HealthLog`], shared with whoever reports on it.
pub type HealthTimeline = Arc<Mutex<HealthLog>>;

/// The per-tunnel health state machine. Feed it one [`PathSnapshot`] per
/// control tick via [`PathHealth::observe`]; ask it whether probes may
/// flow via [`PathHealth::allow_probe`].
#[derive(Debug, Clone)]
pub struct PathHealth {
    path: u16,
    state: HealthState,
    /// Sample count at the previous observation (progress detector).
    last_samples: u64,
    /// Current backoff interval, ns.
    backoff_ns: u64,
    /// When the next re-probe attempt may start (valid in `Down`).
    next_probe_at_ns: u64,
    /// When the current `Probing` attempt started.
    probing_since_ns: u64,
    /// Consecutive successful (fresh-delivery) ticks while `Probing`.
    successes: u32,
    /// Re-probe attempt counter (jitter stream index).
    attempt: u64,
}

impl PathHealth {
    /// A fresh machine for `path`, starting `Up`.
    pub fn new(path: u16) -> Self {
        PathHealth {
            path,
            state: HealthState::Up,
            last_samples: 0,
            backoff_ns: 0,
            next_probe_at_ns: 0,
            probing_since_ns: 0,
            successes: 0,
            attempt: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The backoff interval for attempt `attempt`, jittered
    /// deterministically: `base × 2^min(attempt, 20)`, capped at
    /// `backoff_max_ns`, then scaled by `1 ± jitter`.
    fn jittered_backoff(&self, cfg: &HealthConfig) -> u64 {
        let exp = self.attempt.min(20) as u32;
        let raw = cfg
            .backoff_initial_ns
            .saturating_mul(1u64 << exp)
            .min(cfg.backoff_max_ns);
        let h = tango_sim::hash::mix64(
            cfg.jitter_seed ^ (u64::from(self.path) << 32) ^ self.attempt.wrapping_mul(0x9E37),
        );
        // Map the hash to [-1, 1) and scale by the jitter fraction.
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let scale = 1.0 + cfg.jitter.clamp(0.0, 1.0) * (2.0 * frac - 1.0);
        (raw as f64 * scale) as u64
    }

    fn transition(&mut self, now_ns: u64, to: HealthState, out: &mut Vec<HealthTransition>) {
        let from = self.state;
        if from == to {
            return;
        }
        self.state = to;
        out.push(HealthTransition {
            at_ns: now_ns,
            path: self.path,
            from,
            to,
        });
    }

    /// Advance the machine one control tick. `snap` is this path's fresh
    /// snapshot (with the switch-computed `silence_ns`); transitions are
    /// appended to `out`.
    pub fn observe(
        &mut self,
        now_ns: u64,
        snap: &PathSnapshot,
        cfg: &HealthConfig,
        out: &mut Vec<HealthTransition>,
    ) {
        let progressed = snap.samples > self.last_samples;
        self.last_samples = snap.samples;
        // Silence may momentarily exceed thresholds on the very tick that
        // also delivered (coarse control periods): fresh progress always
        // reads as silence 0.
        let silence = if progressed {
            0
        } else {
            snap.silence_ns.unwrap_or(0)
        };
        match self.state {
            HealthState::Up => {
                let lossy = snap.samples > 0 && snap.loss_rate >= cfg.loss_threshold;
                if silence >= cfg.down_after_ns {
                    // Coarse ticks can blow straight through the suspect
                    // window; record both hops so the timeline is honest.
                    self.transition(now_ns, HealthState::Suspect, out);
                    self.enter_down(now_ns, cfg, out);
                } else if silence >= cfg.suspect_after_ns || lossy {
                    self.transition(now_ns, HealthState::Suspect, out);
                }
            }
            HealthState::Suspect => {
                let lossy = snap.samples > 0 && snap.loss_rate >= cfg.loss_threshold;
                if silence >= cfg.down_after_ns {
                    self.enter_down(now_ns, cfg, out);
                } else if silence < cfg.suspect_after_ns && !lossy {
                    self.transition(now_ns, HealthState::Up, out);
                }
            }
            HealthState::Down => {
                if now_ns >= self.next_probe_at_ns {
                    self.successes = 0;
                    self.probing_since_ns = now_ns;
                    self.transition(now_ns, HealthState::Probing, out);
                }
            }
            HealthState::Probing => {
                if progressed {
                    self.successes += 1;
                    if self.successes >= cfg.recovery_successes {
                        self.backoff_ns = 0;
                        self.attempt = 0;
                        self.transition(now_ns, HealthState::Up, out);
                    }
                } else if now_ns.saturating_sub(self.probing_since_ns) >= cfg.suspect_after_ns {
                    // The attempt window elapsed with nothing delivered:
                    // back to Down with a doubled (capped) backoff.
                    self.enter_down(now_ns, cfg, out);
                }
            }
        }
    }

    fn enter_down(&mut self, now_ns: u64, cfg: &HealthConfig, out: &mut Vec<HealthTransition>) {
        self.backoff_ns = self.jittered_backoff(cfg);
        self.next_probe_at_ns = now_ns.saturating_add(self.backoff_ns);
        self.attempt = self.attempt.saturating_add(1);
        self.successes = 0;
        self.transition(now_ns, HealthState::Down, out);
    }

    /// Should a probe be emitted on this path right now? `Down` paths
    /// hold probes until the backoff expires (the expiry itself flips the
    /// machine to `Probing`, recorded in `out`).
    pub fn allow_probe(&mut self, now_ns: u64, out: &mut Vec<HealthTransition>) -> bool {
        match self.state {
            HealthState::Down => {
                if now_ns >= self.next_probe_at_ns {
                    self.successes = 0;
                    self.probing_since_ns = now_ns;
                    self.transition(now_ns, HealthState::Probing, out);
                    true
                } else {
                    false
                }
            }
            _ => true,
        }
    }
}

/// The tunnel a [`HealthGated`] falls back to when everything is down:
/// the BGP-default path.
const FALLBACK_PATH: u16 = 0;

/// Wrap any [`PathPolicy`] with liveness gating: non-`Up`/`Suspect`
/// paths are hidden from the inner policy *and* scrubbed from whatever
/// it returns, so a blackholed path is never selected. When every path
/// is excluded the selection degrades to the BGP-default tunnel
/// (path 0) — the status-quo §2 behaviour, and the only honest choice
/// when nothing is measurably alive.
pub struct HealthGated {
    inner: Box<dyn PathPolicy>,
    cfg: HealthConfig,
    paths: BTreeMap<u16, PathHealth>,
    timeline: HealthTimeline,
    name: String,
    /// Monitor-only: health machines advance and the timeline records
    /// transitions, but the inner decision passes through unfiltered.
    monitor_only: bool,
}

impl HealthGated {
    /// Gate `inner` with the given thresholds.
    pub fn new(inner: Box<dyn PathPolicy>, cfg: HealthConfig) -> Self {
        let name = format!("health-gated({})", inner.name());
        HealthGated {
            inner,
            cfg,
            paths: BTreeMap::new(),
            timeline: HealthTimeline::default(),
            name,
            monitor_only: false,
        }
    }

    /// Disable enforcement: health machines still run and the timeline
    /// still records transitions, but the inner policy sees every path
    /// and its decision is installed verbatim — even onto a dead path.
    ///
    /// This exists for exactly one purpose: *testing the invariant
    /// checker*. A checker asserting "`HealthGated` never forwards onto
    /// a known-dead path" is vacuous unless a deliberately broken
    /// configuration can demonstrate the violation being caught. Do not
    /// use in experiments measuring Tango itself.
    pub fn monitor_only(mut self) -> Self {
        self.monitor_only = true;
        self
    }

    /// A shareable handle to the gate's [`HealthLog`] (clone it before
    /// handing the policy to a switch).
    pub fn timeline(&self) -> HealthTimeline {
        Arc::clone(&self.timeline)
    }

    /// Current state of one path (`Up` if never observed).
    pub fn state(&self, path: u16) -> HealthState {
        self.paths
            .get(&path)
            .map(|h| h.state())
            .unwrap_or(HealthState::Up)
    }

    fn selectable(state: HealthState) -> bool {
        matches!(state, HealthState::Up | HealthState::Suspect)
    }
}

impl PathPolicy for HealthGated {
    fn decide(&mut self, now_local_ns: u64, paths: &BTreeMap<u16, PathSnapshot>) -> Selection {
        // 1. Advance every path's health machine.
        let mut events = Vec::new();
        for (id, snap) in paths {
            let h = self.paths.entry(*id).or_insert_with(|| {
                self.timeline.lock().first_seen.insert(*id, now_local_ns);
                PathHealth::new(*id)
            });
            h.observe(now_local_ns, snap, &self.cfg, &mut events);
        }
        // 2. The inner policy only ever sees selectable paths (all of
        // them in monitor-only mode, where enforcement is disabled).
        let visible: BTreeMap<u16, PathSnapshot> = paths
            .iter()
            .filter(|(id, _)| self.monitor_only || Self::selectable(self.state(**id)))
            .map(|(id, s)| (*id, *s))
            .collect();
        let decision = if self.monitor_only {
            self.inner.decide(now_local_ns, &visible)
        } else if visible.is_empty() {
            // Everything is down: degrade to the BGP default rather than
            // steering into a known blackhole — and never panic.
            Selection::Single(FALLBACK_PATH)
        } else {
            // 3. Belt and braces: scrub anything non-selectable from the
            // decision too (an inner policy may hold hysteresis state
            // pointing at a path that just died, or ignore its input
            // entirely, like a pinned StaticPolicy).
            match self.inner.decide(now_local_ns, &visible) {
                Selection::Single(p) if !Self::selectable(self.state(p)) => {
                    let best = visible.keys().next().copied().unwrap_or(FALLBACK_PATH);
                    Selection::Single(best)
                }
                Selection::Weighted(w) => {
                    let kept: Vec<(u16, u32)> = w
                        .into_iter()
                        .filter(|(p, _)| Self::selectable(self.state(*p)))
                        .collect();
                    match kept.len() {
                        0 => Selection::Single(
                            visible.keys().next().copied().unwrap_or(FALLBACK_PATH),
                        ),
                        1 => Selection::Single(kept[0].0),
                        _ => Selection::Weighted(kept),
                    }
                }
                s => s,
            }
        };
        if !events.is_empty() {
            self.timeline.lock().transitions.extend(events);
        }
        decision
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn allow_probe(&mut self, now_local_ns: u64, path: u16) -> bool {
        let Some(h) = self.paths.get_mut(&path) else {
            return true; // never observed: probe freely
        };
        let mut events = Vec::new();
        let allowed = h.allow_probe(now_local_ns, &mut events);
        if !events.is_empty() {
            self.timeline.lock().transitions.extend(events);
        }
        allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_dataplane::StaticPolicy;

    fn cfg() -> HealthConfig {
        HealthConfig {
            suspect_after_ns: 200,
            down_after_ns: 500,
            loss_threshold: 0.5,
            backoff_initial_ns: 1_000,
            backoff_max_ns: 8_000,
            recovery_successes: 2,
            jitter: 0.0, // exact arithmetic in unit tests
            jitter_seed: 7,
        }
    }

    fn snap(samples: u64, silence: u64, loss: f64) -> PathSnapshot {
        PathSnapshot {
            owd_ewma_ns: Some(30e6),
            last_owd_ns: Some(30e6),
            jitter_ns: Some(1e4),
            loss_rate: loss,
            samples,
            staleness_ns: Some(0),
            silence_ns: Some(silence),
        }
    }

    /// Drive one observation, returning the transitions it produced.
    fn step(h: &mut PathHealth, now: u64, s: PathSnapshot) -> Vec<(HealthState, HealthState)> {
        let mut out = Vec::new();
        h.observe(now, &s, &cfg(), &mut out);
        out.into_iter().map(|t| (t.from, t.to)).collect()
    }

    // ---- exhaustive transition table --------------------------------
    //
    //  state    | condition                              | next
    //  ---------+----------------------------------------+---------
    //  Up       | silence < suspect, loss < thr          | Up
    //  Up       | silence ≥ suspect                      | Suspect
    //  Up       | loss ≥ thr                             | Suspect
    //  Up       | silence ≥ down (coarse tick)           | Suspect+Down
    //  Suspect  | silence back < suspect, loss < thr     | Up
    //  Suspect  | suspect ≤ silence < down               | Suspect
    //  Suspect  | silence ≥ down                         | Down
    //  Down     | now < next_probe_at                    | Down
    //  Down     | now ≥ next_probe_at                    | Probing
    //  Probing  | progress × recovery_successes          | Up
    //  Probing  | progress < recovery_successes          | Probing
    //  Probing  | window elapses, no progress            | Down (2× backoff)

    #[test]
    fn up_stays_up_while_fresh() {
        let mut h = PathHealth::new(0);
        assert_eq!(step(&mut h, 100, snap(10, 0, 0.0)), vec![]);
        assert_eq!(h.state(), HealthState::Up);
    }

    #[test]
    fn up_to_suspect_on_silence() {
        let mut h = PathHealth::new(0);
        step(&mut h, 100, snap(10, 0, 0.0));
        let t = step(&mut h, 400, snap(10, 300, 0.0));
        assert_eq!(t, vec![(HealthState::Up, HealthState::Suspect)]);
    }

    #[test]
    fn up_to_suspect_on_loss() {
        let mut h = PathHealth::new(0);
        let t = step(&mut h, 100, snap(10, 0, 0.9));
        assert_eq!(t, vec![(HealthState::Up, HealthState::Suspect)]);
    }

    #[test]
    fn up_blows_through_suspect_on_coarse_tick() {
        // A control period longer than down_after jumps Up → Down in one
        // tick; the timeline still records the intermediate Suspect hop.
        let mut h = PathHealth::new(0);
        step(&mut h, 100, snap(10, 0, 0.0));
        let t = step(&mut h, 800, snap(10, 700, 0.0));
        assert_eq!(
            t,
            vec![
                (HealthState::Up, HealthState::Suspect),
                (HealthState::Suspect, HealthState::Down),
            ]
        );
    }

    #[test]
    fn suspect_recovers_to_up() {
        let mut h = PathHealth::new(0);
        step(&mut h, 100, snap(10, 0, 0.0)); // baseline
        step(&mut h, 400, snap(10, 300, 0.0)); // → Suspect
        let t = step(&mut h, 500, snap(11, 0, 0.0)); // fresh delivery
        assert_eq!(t, vec![(HealthState::Suspect, HealthState::Up)]);
    }

    #[test]
    fn suspect_holds_between_thresholds() {
        let mut h = PathHealth::new(0);
        step(&mut h, 100, snap(10, 0, 0.0)); // baseline
        step(&mut h, 400, snap(10, 300, 0.0)); // → Suspect
        assert_eq!(step(&mut h, 500, snap(10, 400, 0.0)), vec![]);
        assert_eq!(h.state(), HealthState::Suspect);
    }

    #[test]
    fn suspect_to_down_after_window() {
        let mut h = PathHealth::new(0);
        step(&mut h, 100, snap(10, 0, 0.0)); // baseline
        step(&mut h, 400, snap(10, 300, 0.0)); // → Suspect
        let t = step(&mut h, 700, snap(10, 600, 0.0));
        assert_eq!(t, vec![(HealthState::Suspect, HealthState::Down)]);
    }

    #[test]
    fn down_holds_until_backoff_then_probes() {
        let mut h = PathHealth::new(0);
        step(&mut h, 400, snap(10, 300, 0.0));
        step(&mut h, 700, snap(10, 600, 0.0)); // → Down, backoff 1000
        assert_eq!(step(&mut h, 1_000, snap(10, 900, 0.0)), vec![]);
        assert_eq!(h.state(), HealthState::Down);
        let t = step(&mut h, 1_700, snap(10, 1_600, 0.0));
        assert_eq!(t, vec![(HealthState::Down, HealthState::Probing)]);
    }

    #[test]
    fn probing_needs_consecutive_successes() {
        let mut h = PathHealth::new(0);
        step(&mut h, 400, snap(10, 300, 0.0));
        step(&mut h, 700, snap(10, 600, 0.0)); // Down
        step(&mut h, 1_700, snap(10, 1_600, 0.0)); // Probing
                                                   // First fresh delivery: not yet readmitted (hysteresis = 2).
        assert_eq!(step(&mut h, 1_750, snap(11, 0, 0.0)), vec![]);
        assert_eq!(h.state(), HealthState::Probing);
        let t = step(&mut h, 1_800, snap(12, 0, 0.0));
        assert_eq!(t, vec![(HealthState::Probing, HealthState::Up)]);
    }

    #[test]
    fn probing_failure_doubles_backoff() {
        let mut h = PathHealth::new(0);
        step(&mut h, 400, snap(10, 300, 0.0));
        step(&mut h, 700, snap(10, 600, 0.0)); // Down #1: backoff 1000
        assert_eq!(h.backoff_ns, 1_000);
        step(&mut h, 1_700, snap(10, 1_600, 0.0)); // Probing
                                                   // Attempt window (suspect_after = 200) elapses without progress.
        let t = step(&mut h, 1_950, snap(10, 1_850, 0.0));
        assert_eq!(t, vec![(HealthState::Probing, HealthState::Down)]);
        assert_eq!(h.backoff_ns, 2_000, "second attempt doubles");
        // Keep failing: the backoff caps at backoff_max_ns.
        let mut now = 1_950;
        for _ in 0..6 {
            now += h.backoff_ns + 1;
            step(&mut h, now, snap(10, now, 0.0)); // → Probing
            now += 250;
            step(&mut h, now, snap(10, now, 0.0)); // window fails → Down
        }
        assert_eq!(h.backoff_ns, 8_000, "capped");
    }

    #[test]
    fn recovery_resets_backoff() {
        let mut h = PathHealth::new(0);
        step(&mut h, 400, snap(10, 300, 0.0));
        step(&mut h, 700, snap(10, 600, 0.0)); // Down
        step(&mut h, 1_700, snap(10, 1_600, 0.0)); // Probing
        step(&mut h, 1_750, snap(11, 0, 0.0));
        step(&mut h, 1_800, snap(12, 0, 0.0)); // → Up
        assert_eq!(h.state(), HealthState::Up);
        // Dies again: backoff restarts from the initial value.
        step(&mut h, 2_100, snap(12, 300, 0.0));
        step(&mut h, 2_400, snap(12, 600, 0.0));
        assert_eq!(h.state(), HealthState::Down);
        assert_eq!(h.backoff_ns, 1_000);
    }

    #[test]
    fn allow_probe_gates_down_paths_only() {
        let mut h = PathHealth::new(0);
        let mut out = Vec::new();
        assert!(h.allow_probe(0, &mut out), "Up probes freely");
        step(&mut h, 400, snap(10, 300, 0.0)); // Suspect
        assert!(h.allow_probe(450, &mut out), "Suspect probes freely");
        step(&mut h, 700, snap(10, 600, 0.0)); // Down, next probe at 1700
        assert!(!h.allow_probe(1_000, &mut out), "Down withholds");
        assert!(h.allow_probe(1_700, &mut out), "backoff expiry releases");
        assert_eq!(h.state(), HealthState::Probing);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, HealthState::Probing);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut c = cfg();
        c.jitter = 0.1;
        let h = PathHealth::new(3);
        let a = h.jittered_backoff(&c);
        let b = h.jittered_backoff(&c);
        assert_eq!(a, b, "same seed/path/attempt ⇒ same jitter");
        let lo = (1_000.0 * 0.9) as u64;
        let hi = (1_000.0 * 1.1) as u64;
        assert!((lo..=hi).contains(&a), "jittered {a} outside ±10 %");
        let mut c2 = c;
        c2.jitter_seed = 8;
        assert_ne!(
            h.jittered_backoff(&c2),
            a,
            "different seed ⇒ different jitter"
        );
    }

    // ---- HealthGated -------------------------------------------------

    fn paths(entries: &[(u16, u64, u64)]) -> BTreeMap<u16, PathSnapshot> {
        entries
            .iter()
            .map(|&(id, samples, silence)| (id, snap(samples, silence, 0.0)))
            .collect()
    }

    #[test]
    fn gated_hides_down_paths_from_inner() {
        use crate::policy::LowestOwdPolicy;
        let mut g = HealthGated::new(Box::new(LowestOwdPolicy::new(0.0)), cfg());
        // Path 1 is the fastest but goes dark; path 0 keeps delivering.
        let mut m = paths(&[(0, 100, 0), (1, 100, 0)]);
        m.get_mut(&1).unwrap().owd_ewma_ns = Some(20e6);
        assert_eq!(
            g.decide(100, &m),
            Selection::Single(1),
            "fastest wins while up"
        );
        let mut dark = m.clone();
        dark.get_mut(&1).unwrap().silence_ns = Some(700);
        dark.get_mut(&0).unwrap().samples = 200;
        assert_eq!(
            g.decide(800, &dark),
            Selection::Single(0),
            "dead path excluded"
        );
        assert_eq!(g.state(1), HealthState::Down);
        let tl = g.timeline();
        let recorded = tl.lock().transitions.clone();
        assert!(recorded
            .iter()
            .any(|t| t.path == 1 && t.to == HealthState::Down && t.at_ns == 800));
    }

    #[test]
    fn gated_scrubs_static_pins() {
        // A pinned StaticPolicy ignores its input entirely: the gate must
        // scrub the dead path from its output.
        let mut g = HealthGated::new(Box::new(StaticPolicy::single(1, "pin-1")), cfg());
        let m = paths(&[(0, 100, 0), (1, 100, 0)]);
        assert_eq!(g.decide(100, &m), Selection::Single(1));
        let mut dark = m.clone();
        dark.get_mut(&1).unwrap().silence_ns = Some(700);
        dark.get_mut(&0).unwrap().samples = 200;
        assert_eq!(g.decide(800, &dark), Selection::Single(0), "pin overridden");
    }

    #[test]
    fn monitor_only_lets_broken_pin_through() {
        // The invariant-checker fixture: with enforcement disabled the
        // pinned policy forwards into the dead path — while the timeline
        // still records the path going Down (the checker's evidence).
        let mut g =
            HealthGated::new(Box::new(StaticPolicy::single(1, "pin-1")), cfg()).monitor_only();
        let timeline = g.timeline();
        let m = paths(&[(0, 100, 0), (1, 100, 0)]);
        assert_eq!(g.decide(100, &m), Selection::Single(1));
        let mut dark = m.clone();
        dark.get_mut(&1).unwrap().silence_ns = Some(700);
        dark.get_mut(&0).unwrap().samples = 200;
        assert_eq!(
            g.decide(800, &dark),
            Selection::Single(1),
            "monitor-only must NOT scrub the dead pin"
        );
        assert_eq!(g.state(1), HealthState::Down);
        assert!(timeline
            .lock()
            .transitions
            .iter()
            .any(|t| t.path == 1 && t.to == HealthState::Down));
    }

    #[test]
    fn gated_scrubs_weighted_selections() {
        let mut g = HealthGated::new(
            Box::new(StaticPolicy::weighted(
                vec![(0, 1), (1, 1), (2, 1)],
                "spray",
            )),
            cfg(),
        );
        let m = paths(&[(0, 100, 0), (1, 100, 0), (2, 100, 0)]);
        assert_eq!(
            g.decide(100, &m),
            Selection::Weighted(vec![(0, 1), (1, 1), (2, 1)])
        );
        let mut dark = m.clone();
        dark.get_mut(&2).unwrap().silence_ns = Some(700);
        for id in [0, 1] {
            dark.get_mut(&id).unwrap().samples = 200;
        }
        assert_eq!(
            g.decide(800, &dark),
            Selection::Weighted(vec![(0, 1), (1, 1)]),
            "dead member dropped"
        );
    }

    #[test]
    fn all_down_degrades_to_fallback_without_panic() {
        use crate::policy::LowestOwdPolicy;
        let mut g = HealthGated::new(Box::new(LowestOwdPolicy::new(0.0)), cfg());
        let m = paths(&[(0, 100, 0), (1, 100, 0)]);
        g.decide(100, &m);
        let mut dark = m.clone();
        for id in [0, 1] {
            dark.get_mut(&id).unwrap().silence_ns = Some(700);
        }
        assert_eq!(g.decide(800, &dark), Selection::Single(0), "BGP default");
        assert_eq!(g.state(0), HealthState::Down);
        assert_eq!(g.state(1), HealthState::Down);
    }

    #[test]
    fn gated_allow_probe_follows_machine() {
        use crate::policy::LowestOwdPolicy;
        let mut g = HealthGated::new(Box::new(LowestOwdPolicy::new(0.0)), cfg());
        assert!(g.allow_probe(0, 7), "unknown path probes freely");
        let m = paths(&[(0, 100, 0), (1, 100, 0)]);
        g.decide(100, &m);
        let mut dark = m.clone();
        dark.get_mut(&1).unwrap().silence_ns = Some(700);
        dark.get_mut(&0).unwrap().samples = 200;
        g.decide(800, &m);
        g.decide(900, &dark);
        assert_eq!(g.state(1), HealthState::Down);
        assert!(g.allow_probe(950, 0), "healthy path probes");
        assert!(!g.allow_probe(950, 1), "down path withheld");
        // Backoff (1000) expires → Probing, probes flow again.
        assert!(g.allow_probe(2_000, 1));
        assert_eq!(g.state(1), HealthState::Probing);
    }

    #[test]
    fn obs_counts_transitions_and_time_in_state() {
        use crate::policy::LowestOwdPolicy;
        let registry = Registry::default();
        let mut g = HealthGated::new(Box::new(LowestOwdPolicy::new(0.0)), cfg());
        let m = paths(&[(0, 100, 0), (1, 100, 0)]);
        g.decide(100, &m);
        let mut dark = m.clone();
        dark.get_mut(&1).unwrap().silence_ns = Some(700);
        dark.get_mut(&0).unwrap().samples = 200;
        g.decide(800, &dark); // coarse tick: path 1 goes Up → Suspect → Down
        let log = g.timeline();
        log.lock().publish(&registry, AsId(65001));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters
                .get("health.65001.transition.up_suspect")
                .copied(),
            Some(1)
        );
        assert_eq!(
            snap.counters
                .get("health.65001.transition.suspect_down")
                .copied(),
            Some(1)
        );
        let up = snap.histograms.get("health.65001.time_in.up_ns").unwrap();
        assert_eq!(up.count, 1);
        assert_eq!(up.sum, 700, "entered Up at 100, left at 800");
        let suspect = snap
            .histograms
            .get("health.65001.time_in.suspect_ns")
            .unwrap();
        assert_eq!(suspect.count, 1);
        assert_eq!(suspect.sum, 0, "both hops of the coarse tick land at 800");
        assert_eq!(snap.counters.len(), 2, "only pairs that occurred");
        assert_eq!(snap.histograms.len(), 2);
        log.lock().publish(&registry, AsId(65001));
        assert_eq!(registry.snapshot(), snap, "a second publish adds nothing");
    }

    #[test]
    fn gated_name_reflects_inner() {
        use crate::policy::LowestOwdPolicy;
        let g = HealthGated::new(Box::new(LowestOwdPolicy::new(0.0)), cfg());
        assert_eq!(g.name(), "health-gated(lowest-owd)");
    }
}
