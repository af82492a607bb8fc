//! Byzantine on-path actors.
//!
//! Everything the paper's trust model assumes away (§3, §6): a transit
//! AS that *lies*. An [`AdversaryAgent`] wraps an ordinary forwarding
//! agent (typically a `RouterAgent`) at any node on a provisioned path
//! and misbehaves on the traffic passing through it:
//!
//! * **OWD poisoning** — rewrites the piggybacked timestamp of Tango
//!   tunnel packets, then re-fills the UDP checksum like a competent
//!   on-path attacker would.
//!   Without authenticated telemetry the receiver dutifully computes a
//!   skewed one-way delay; with the SipHash tag the tamper invalidates
//!   the trailer and the packet is rejected at decap.
//! * **Replay** — records passing tunnel packets (tag intact!) and
//!   retransmits them later: stale telemetry with perfectly valid
//!   authentication, defeated only by the receiver's anti-replay window.
//! * **Report spoofing** — injects pre-built forged packets (e.g. a
//!   fabricated `REPORT` claiming the attacker's preferred path is
//!   fastest) on a period.
//!
//! Behaviors are windowed in simulator time, so a chaos schedule can
//! turn them on and off mid-run deterministically. They are the
//! node-level form the pairing harness lowers the path-level
//! `WideAreaEvent`s `OwdPoison`, `Replay` and `SpoofReports` to.

use crate::ctx::{Agent, Ctx};
use crate::packet::Packet;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use tango_net::{ipv6, udp, Ipv6Packet, TangoPacket, UdpPacket, TANGO_HEADER_LEN, TANGO_UDP_PORT};
use tango_topology::TimeWindow;

/// Timer tag the spoof-report behavior fires on. Arm it externally with
/// `NetworkSim::schedule_timer_at(start, attacker_node, TAG_ADV_SPOOF)`;
/// it re-arms itself while its window is open. The wrapped forwarding
/// agent must not use timers (routers don't).
pub const TAG_ADV_SPOOF: u64 = 0xAD5E_0000;
/// Timer tag for releasing a stashed replay.
pub const TAG_ADV_REPLAY: u64 = 0xAD5E_0001;

/// One attacker behavior. Several can be attached to the same node.
#[derive(Debug, Clone)]
pub enum AdversaryBehavior {
    /// Skew the piggybacked timestamp of every transiting Tango packet
    /// by `skew_ns` (saturating).
    OwdPoison {
        /// When the poisoning is live.
        window: TimeWindow,
        /// Added to each timestamp; negative claims the path got faster.
        skew_ns: i64,
    },
    /// Record every `every`-th transiting Tango packet and retransmit the
    /// copy `delay` later — valid tag, stale content.
    Replay {
        /// When capture is live (releases may land after it closes).
        window: TimeWindow,
        /// How long after capture the copy is re-injected.
        delay: SimTime,
        /// Capture cadence: 1 = every Tango packet.
        every: u32,
    },
    /// Inject a pre-built wire packet every `period` while the window is
    /// open. The payload is typically a forged Tango `REPORT` built by
    /// the experiment (wrong key or no key — the attacker does not hold
    /// the pairing's secret).
    SpoofPackets {
        /// When injection is live.
        window: TimeWindow,
        /// Injection period.
        period: SimTime,
        /// Complete wire bytes (outer IPv6 onward) of the forgery.
        packet: Vec<u8>,
    },
}

/// What an adversary actually did, for the experiment tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Tango packets whose telemetry fields were rewritten.
    pub poisoned: u64,
    /// Tango packets captured for later replay.
    pub captured: u64,
    /// Stashed copies re-injected.
    pub replayed: u64,
    /// Forged packets injected.
    pub spoofed: u64,
}

/// Shared handle to an adversary's counters (the experiment keeps one
/// end, the installed agent the other).
pub type SharedAdversaryStats = Arc<Mutex<AdversaryStats>>;

/// Create a fresh shared counter handle.
pub fn shared_adversary_stats() -> SharedAdversaryStats {
    Arc::new(Mutex::new(AdversaryStats::default()))
}

/// A Byzantine node: behaves like its wrapped inner agent, except for
/// the configured behaviors.
pub struct AdversaryAgent {
    inner: Box<dyn Agent>,
    behaviors: Vec<AdversaryBehavior>,
    stash: VecDeque<Packet>,
    transited: u64,
    stats: SharedAdversaryStats,
}

impl AdversaryAgent {
    /// Wrap `inner` with the given behaviors.
    pub fn new(
        inner: Box<dyn Agent>,
        behaviors: Vec<AdversaryBehavior>,
        stats: SharedAdversaryStats,
    ) -> Self {
        AdversaryAgent {
            inner,
            behaviors,
            stash: VecDeque::new(),
            transited: 0,
            stats,
        }
    }
}

/// Is this a Tango tunnel packet (outer IPv6 + UDP to the Tango port,
/// with at least a full Tango header)?
fn is_tango_wire(bytes: &[u8]) -> bool {
    let Ok(ip) = Ipv6Packet::new_checked(bytes) else {
        return false;
    };
    if ip.next_header() != 17 {
        return false;
    }
    match UdpPacket::new_checked(ip.payload()) {
        Ok(u) => u.dst_port() == TANGO_UDP_PORT && u.payload().len() >= TANGO_HEADER_LEN,
        Err(_) => false,
    }
}

/// Rewrite the timestamp in place and re-fill the UDP checksum.
/// Returns false (leaving the packet untouched beyond parse) if the
/// bytes are not a Tango tunnel packet.
// tango-lint: allow(hot-path-panic) is_tango_wire verified length >= v6+udp+tango headers before any slicing
fn poison_in_place(bytes: &mut [u8], skew_ns: i64) -> bool {
    if !is_tango_wire(bytes) {
        return false;
    }
    let (src, dst) = {
        let ip = Ipv6Packet::new_unchecked(&bytes[..]);
        (ip.src_addr(), ip.dst_addr())
    };
    let tango_off = ipv6::HEADER_LEN + udp::HEADER_LEN;
    {
        let mut tp =
            TangoPacket::new_unchecked(&mut bytes[tango_off..tango_off + TANGO_HEADER_LEN]);
        let ts = tp.timestamp_ns();
        let skewed = if skew_ns >= 0 {
            ts.saturating_add(skew_ns as u64)
        } else {
            ts.saturating_sub(skew_ns.unsigned_abs())
        };
        tp.set_timestamp_ns(skewed);
    }
    let mut udp_pkt = UdpPacket::new_unchecked(&mut bytes[ipv6::HEADER_LEN..]);
    udp_pkt.fill_checksum_v6(src, dst);
    true
}

impl Agent for AdversaryAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        let now = ctx.now().as_ns();
        if is_tango_wire(pkt.bytes()) {
            self.transited += 1;
            // Capture first (the pristine packet, tag intact), then
            // poison: a replayed copy must carry valid authentication.
            let mut capture: Option<SimTime> = None;
            let mut poison: Option<i64> = None;
            for b in &self.behaviors {
                match *b {
                    AdversaryBehavior::Replay {
                        window,
                        delay,
                        every,
                    } if window.contains(now)
                        && every > 0
                        && self.transited % u64::from(every) == 0 =>
                    {
                        capture = Some(delay);
                    }
                    AdversaryBehavior::OwdPoison { window, skew_ns } if window.contains(now) => {
                        poison = Some(skew_ns);
                    }
                    _ => {}
                }
            }
            if let Some(delay) = capture {
                self.stash.push_back(pkt.clone());
                self.stats.lock().captured += 1;
                ctx.schedule_timer(delay, TAG_ADV_REPLAY);
            }
            if let Some(skew_ns) = poison {
                if poison_in_place(pkt.bytes_mut(), skew_ns) {
                    self.stats.lock().poisoned += 1;
                }
            }
        }
        self.inner.on_packet(ctx, pkt);
    }

    fn on_host_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.inner.on_host_packet(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TAG_ADV_REPLAY => {
                if let Some(copy) = self.stash.pop_front() {
                    self.stats.lock().replayed += 1;
                    // Hand the stale copy to the inner router: it forwards
                    // toward the original destination like any transit
                    // packet.
                    self.inner.on_packet(ctx, copy);
                }
            }
            TAG_ADV_SPOOF => {
                let now = ctx.now().as_ns();
                let mut next_due = false;
                for b in &self.behaviors {
                    if let AdversaryBehavior::SpoofPackets {
                        window,
                        period,
                        packet,
                    } = b
                    {
                        if window.contains(now) {
                            let forged = Packet::new(packet.clone());
                            self.stats.lock().spoofed += 1;
                            self.inner.on_packet(ctx, forged);
                            if now.saturating_add(period.as_ns()) < window.end_ns {
                                next_due = true;
                            }
                        } else if now < window.start_ns {
                            // Armed early: keep ticking until the window
                            // opens.
                            next_due = true;
                        }
                    }
                }
                if next_due {
                    // All spoof behaviors share the tag; re-arm at the
                    // smallest period among them.
                    let period = self
                        .behaviors
                        .iter()
                        .filter_map(|b| match b {
                            AdversaryBehavior::SpoofPackets { period, .. } => Some(*period),
                            _ => None,
                        })
                        .min();
                    if let Some(p) = period {
                        ctx.schedule_timer(p, TAG_ADV_SPOOF);
                    }
                }
            }
            other => self.inner.on_timer(ctx, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_is_half_open() {
        // The agent gates every behavior on `window.contains(now.as_ns())`.
        let w = TimeWindow::new(SimTime(10).as_ns(), SimTime(20).as_ns());
        assert!(!w.contains(SimTime(9).as_ns()));
        assert!(w.contains(SimTime(10).as_ns()));
        assert!(w.contains(SimTime(19).as_ns()));
        assert!(!w.contains(SimTime(20).as_ns()));
    }

    #[test]
    fn poison_rejects_non_tango_bytes() {
        let mut junk = vec![0u8; 60];
        assert!(!poison_in_place(&mut junk, 1_000));
    }
}
