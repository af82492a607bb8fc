//! Scheduled wide-area events.
//!
//! §5 of the paper highlights two kinds of incidents that "make the case
//! for continuous measurements and dynamic route control":
//!
//! * **Internal routing changes** — Fig. 4 (middle): around hour 121.25 the
//!   GTT path destabilizes briefly, then settles at a minimum **+5 ms**
//!   higher for ~10 minutes before reverting.
//! * **Periods of network instability** — Fig. 4 (right): a ~5 minute
//!   window in which GTT shows latency spikes up to **78 ms** (versus a
//!   28 ms floor) while all other paths are unaffected.
//!
//! A [`LinkEvent`] attaches one of these behaviours to one *direction* of
//! one link for a time window. The simulator folds active events into the
//! per-packet delay sample.

use crate::asys::AsId;
use crate::link::JitterModel;
use rand::Rng;

/// A half-open simulated-time window `[start_ns, end_ns)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// Window start, inclusive, in simulated nanoseconds.
    pub start_ns: u64,
    /// Window end, exclusive.
    pub end_ns: u64,
}

impl TimeWindow {
    /// Construct a window; panics if `end < start` (a configuration bug).
    pub fn new(start_ns: u64, end_ns: u64) -> Self {
        assert!(end_ns >= start_ns, "event window ends before it starts");
        TimeWindow { start_ns, end_ns }
    }

    /// Is `t` inside the window?
    pub fn contains(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns < self.end_ns
    }

    /// Window duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What happens to the link while an event is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An internal route change: the path's delay floor shifts by
    /// `delta_ns` (usually positive). The first `onset_ns` of the window
    /// adds transient instability (`onset_sigma_ns` extra Gaussian noise),
    /// reproducing the "brief period of instability" at the Fig. 4-middle
    /// route change.
    DelayShift {
        /// Floor shift while active, ns (signed).
        delta_ns: i64,
        /// Length of the noisy onset transient, ns.
        onset_ns: u64,
        /// Extra jitter std-dev during the onset, ns.
        onset_sigma_ns: u64,
    },
    /// A period of instability: packets suffer random positive spikes.
    /// With probability `spike_prob` a packet gains an exponential
    /// excursion of mean `spike_mean_ns`, capped at `spike_cap_ns`; all
    /// packets also see `extra_sigma_ns` of added *one-sided* noise
    /// (turbulence only delays packets — §5 notes GTT kept delivering
    /// some packets at its 28 ms minimum even during the instability).
    Instability {
        /// Per-packet spike probability.
        spike_prob: f64,
        /// Mean spike amplitude, ns.
        spike_mean_ns: u64,
        /// Cap on spike amplitude, ns.
        spike_cap_ns: u64,
        /// Added Gaussian noise std-dev for all packets, ns.
        extra_sigma_ns: u64,
    },
    /// Total outage: every packet on the link direction is dropped.
    Outage,
}

/// An event bound to one direction of one inter-domain link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEvent {
    /// Transmitting side of the affected direction.
    pub from: AsId,
    /// Receiving side of the affected direction.
    pub to: AsId,
    /// When the event is active.
    pub window: TimeWindow,
    /// What the event does.
    pub kind: EventKind,
}

impl LinkEvent {
    /// Does this event apply to direction `from → to` at time `t`?
    pub fn applies(&self, from: AsId, to: AsId, t_ns: u64) -> bool {
        self.from == from && self.to == to && self.window.contains(t_ns)
    }

    /// Sample this event's contribution to a packet's delay at time `t`.
    /// Returns `None` if the packet is dropped (outage).
    pub fn sample_effect<R: Rng + ?Sized>(&self, t_ns: u64, rng: &mut R) -> Option<i64> {
        match self.kind {
            EventKind::DelayShift {
                delta_ns,
                onset_ns,
                onset_sigma_ns,
            } => {
                let mut d = delta_ns;
                if t_ns < self.window.start_ns.saturating_add(onset_ns) && onset_sigma_ns > 0 {
                    let noise = JitterModel::SpikeMixture {
                        sigma_ns: onset_sigma_ns,
                        spike_prob: 0.2,
                        spike_mean_ns: onset_sigma_ns * 4,
                        spike_cap_ns: onset_sigma_ns * 20,
                    };
                    d += noise.sample(rng);
                }
                Some(d)
            }
            EventKind::Instability {
                spike_prob,
                spike_mean_ns,
                spike_cap_ns,
                extra_sigma_ns,
            } => {
                // One-sided: congestion turbulence only adds delay.
                let body = JitterModel::Gaussian {
                    sigma_ns: extra_sigma_ns,
                }
                .sample(rng)
                .abs();
                let mut d = body;
                if rng.gen_bool(spike_prob.clamp(0.0, 1.0)) {
                    let exp: f64 = -(1.0 - rng.gen::<f64>()).ln();
                    let spike = (exp * spike_mean_ns as f64) as u64;
                    d += spike.min(spike_cap_ns) as i64;
                }
                Some(d)
            }
            EventKind::Outage => None,
        }
    }
}

/// A *structured* scheduled fault, one abstraction level above
/// [`LinkEvent`]: where a `LinkEvent` speaks in directed links, a
/// `WideAreaEvent` speaks in the operator's vocabulary — a blackholed
/// tunnel path, a reset BGP session. Deterministic scenarios, not i.i.d.
/// coin flips: the same schedule replays exactly.
///
/// `Blackhole` lowers to [`LinkEvent`]s via [`WideAreaEvent::lower`];
/// `SessionReset` is a *control-plane* event (withdraw + delayed
/// re-announce of a tunnel prefix) and is executed by the pairing harness
/// instead — `lower` returns nothing for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WideAreaEvent {
    /// One provisioned tunnel path silently drops everything in both
    /// directions for a window — the classic remotely-triggered
    /// blackhole. The path id is resolved to concrete directed links by
    /// the harness (which knows the discovery order).
    Blackhole {
        /// Provisioned path id (discovery order).
        path: u16,
        /// When the blackhole starts, ns.
        at_ns: u64,
        /// How long it lasts, ns.
        duration_ns: u64,
    },
    /// A BGP session reset: the tunnel prefixes pinned to `path` are
    /// withdrawn at `at_ns` and re-announced (with their original pin
    /// communities) `hold_ns` later. Routing re-converges both times.
    SessionReset {
        /// Provisioned path id (discovery order).
        path: u16,
        /// When the session drops, ns.
        at_ns: u64,
        /// How long the prefixes stay withdrawn, ns.
        hold_ns: u64,
    },
}

impl WideAreaEvent {
    /// The window during which the fault is active.
    pub fn window(&self) -> TimeWindow {
        match *self {
            WideAreaEvent::Blackhole {
                at_ns, duration_ns, ..
            } => TimeWindow::new(at_ns, at_ns.saturating_add(duration_ns)),
            WideAreaEvent::SessionReset { at_ns, hold_ns, .. } => {
                TimeWindow::new(at_ns, at_ns.saturating_add(hold_ns))
            }
        }
    }

    /// Lower to raw [`LinkEvent`]s. `path_links` resolves a provisioned
    /// path id to the directed wide-area hops that carry it (both
    /// directions — the caller knows the discovery order; see the pairing
    /// harness). Control-plane events (`SessionReset`) lower to nothing:
    /// they are executed against the BGP engine, not the links.
    pub fn lower(&self, path_links: impl Fn(u16) -> Vec<(AsId, AsId)>) -> Vec<LinkEvent> {
        let window = self.window();
        match *self {
            WideAreaEvent::Blackhole { path, .. } => path_links(path)
                .into_iter()
                .map(|(from, to)| LinkEvent {
                    from,
                    to,
                    window,
                    kind: EventKind::Outage,
                })
                .collect(),
            WideAreaEvent::SessionReset { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn window_contains_half_open() {
        let w = TimeWindow::new(100, 200);
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
        assert_eq!(w.duration_ns(), 100);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn window_rejects_inverted() {
        TimeWindow::new(200, 100);
    }

    #[test]
    fn event_direction_match() {
        let e = LinkEvent {
            from: AsId(3257),
            to: AsId(64602),
            window: TimeWindow::new(0, 1000),
            kind: EventKind::Outage,
        };
        assert!(e.applies(AsId(3257), AsId(64602), 500));
        assert!(!e.applies(AsId(64602), AsId(3257), 500)); // reverse direction
        assert!(!e.applies(AsId(3257), AsId(64602), 1000)); // past window
    }

    #[test]
    fn delay_shift_steady_state_is_exact() {
        let e = LinkEvent {
            from: AsId(1),
            to: AsId(2),
            window: TimeWindow::new(1_000_000, 10_000_000),
            kind: EventKind::DelayShift {
                delta_ns: 5_000_000,
                onset_ns: 100,
                onset_sigma_ns: 1_000,
            },
        };
        let mut r = rng();
        // Past onset: deterministic +5 ms.
        assert_eq!(e.sample_effect(2_000_000, &mut r), Some(5_000_000));
    }

    #[test]
    fn delay_shift_onset_is_noisy() {
        let e = LinkEvent {
            from: AsId(1),
            to: AsId(2),
            window: TimeWindow::new(0, 10_000_000),
            kind: EventKind::DelayShift {
                delta_ns: 5_000_000,
                onset_ns: 1_000_000,
                onset_sigma_ns: 500_000,
            },
        };
        let mut r = rng();
        let samples: Vec<i64> = (0..200)
            .map(|_| e.sample_effect(10, &mut r).unwrap())
            .collect();
        let distinct: std::collections::BTreeSet<i64> = samples.iter().copied().collect();
        assert!(distinct.len() > 100, "onset should be noisy");
    }

    #[test]
    fn instability_spikes_are_capped() {
        let e = LinkEvent {
            from: AsId(1),
            to: AsId(2),
            window: TimeWindow::new(0, 1_000),
            kind: EventKind::Instability {
                spike_prob: 0.5,
                spike_mean_ns: 20_000_000,
                spike_cap_ns: 50_000_000,
                extra_sigma_ns: 100_000,
            },
        };
        let mut r = rng();
        let max = (0..20_000)
            .map(|_| e.sample_effect(10, &mut r).unwrap())
            .max()
            .unwrap();
        assert!(max <= 50_000_000 + 1_000_000, "max {max}");
        assert!(max > 40_000_000, "expected large spikes, max {max}");
    }

    #[test]
    fn blackhole_lowers_via_path_resolver() {
        let bh = WideAreaEvent::Blackhole {
            path: 2,
            at_ns: 10,
            duration_ns: 90,
        };
        let lowered = bh.lower(|p| {
            assert_eq!(p, 2);
            vec![(AsId(1), AsId(2)), (AsId(3), AsId(4))]
        });
        assert_eq!(lowered.len(), 2);
        assert!(lowered.iter().all(|e| e.kind == EventKind::Outage));
        assert!(lowered.iter().all(|e| e.window == TimeWindow::new(10, 100)));
        assert_eq!((lowered[0].from, lowered[0].to), (AsId(1), AsId(2)));
        assert_eq!((lowered[1].from, lowered[1].to), (AsId(3), AsId(4)));
    }

    #[test]
    fn session_reset_is_control_plane_only() {
        let reset = WideAreaEvent::SessionReset {
            path: 1,
            at_ns: 5,
            hold_ns: 10,
        };
        assert!(reset.lower(|_| vec![(AsId(1), AsId(2))]).is_empty());
        assert_eq!(reset.window(), TimeWindow::new(5, 15));
    }

    #[test]
    fn outage_drops() {
        let e = LinkEvent {
            from: AsId(1),
            to: AsId(2),
            window: TimeWindow::new(0, 1_000),
            kind: EventKind::Outage,
        };
        assert_eq!(e.sample_effect(1, &mut rng()), None);
    }
}
