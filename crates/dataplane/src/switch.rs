//! The Tango border switch as a simulator agent.
//!
//! One [`TangoSwitch`] per edge site, playing both §4.2 roles: *"Each
//! server runs both the sender and the receiver-side eBPF program."*
//!
//! * **Sender side** — host traffic destined to the peer's host prefixes
//!   is matched in the remote-host table ("a table which can be
//!   statically configured as both endpoints are cooperating", §3),
//!   stamped with the local clock + per-tunnel sequence number,
//!   encapsulated onto the tunnel the installed selection picks, and
//!   forwarded to the border. Other host traffic is forwarded natively.
//! * **Receiver side** — Tango-encapsulated arrivals are validated,
//!   measured (one-way delay, loss, reordering), decapsulated, and the
//!   inner packet is delivered to the host side.
//! * **Probes** — optional periodic probes per tunnel (the paper's
//!   10 ms ping stream) keep paths measured even without app traffic.
//! * **Control loop** — at each control tick the configured
//!   [`PathPolicy`] reads the *peer's* receive-side stats (the
//!   cooperation feedback) and installs a fresh selection.
//!
//! Everything the switch counts goes into its [`crate::StatsSink`],
//! once: its telemetry is published from there
//! ([`crate::StatsSink::publish`]), and each tunnel's sequence numbers
//! are the sink's per-tunnel send count.

use crate::codec::{self, CodecError};
use crate::policy::{PathPolicy, PathSnapshot, SelectionState};
use crate::report::{report_from_sink, MeasurementReport};
use crate::stats::SharedStats;
use crate::tunnel::Tunnel;
use std::collections::BTreeMap;
use tango_measure::saturating_owd_ns;
use tango_net::{IpCidr, PrefixTrie, SipKey};
use tango_sim::{Agent, Ctx, Packet, SimTime, SpanKind};
use tango_topology::AsId;

/// Timer tag for the control loop.
const TAG_CONTROL: u64 = 0;
/// Timer tag for in-band report emission.
const TAG_REPORT: u64 = 1;
/// Probe timer tags start here: tag = TAG_PROBE_BASE + tunnel index.
const TAG_PROBE_BASE: u64 = 2;

/// How a switch's controller learns the peer's receive-side view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackMode {
    /// Read the peer's stats sink directly (zero-delay out-of-band
    /// channel — the idealization documented in DESIGN.md §5).
    Shared,
    /// The peer periodically sends `REPORT` packets through the tunnels;
    /// feedback pays real wide-area latency and can be lost like any
    /// other packet. The period is the peer's report interval.
    InBand {
        /// How often this switch emits reports toward its peer.
        period: SimTime,
    },
}

/// What kind of packet a tunnel send carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxKind {
    Probe,
    App,
    Report,
}

/// Static configuration of one switch.
pub struct SwitchConfig {
    /// This switch's node id.
    pub id: AsId,
    /// The border router all wide-area traffic goes through (the
    /// co-located Vultr router in the prototype).
    pub border: AsId,
    /// Tunnels to the peer, one per exposed wide-area path.
    pub tunnels: Vec<Tunnel>,
    /// Host prefixes behind the *peer* (traffic to these is tunneled).
    pub remote_host_prefixes: Vec<IpCidr>,
    /// Send a probe on every tunnel at this period (`None` disables).
    pub probe_period: Option<SimTime>,
    /// Run the policy at this period (`None` = static selection forever).
    pub control_period: Option<SimTime>,
    /// Path id used until the policy first decides.
    pub initial_path: u16,
    /// Wide-area forwarding table, required when this switch *is* its
    /// own border (the multi-homed enterprise of §2): outgoing packets
    /// are routed by longest-prefix match instead of handed to a
    /// separate border router. `None` for the behind-a-border case.
    pub wan_table: Option<PrefixTrie<AsId>>,
    /// Cooperation feedback channel (see [`FeedbackMode`]).
    pub feedback: FeedbackMode,
    /// Shared secret for §6 authenticated telemetry. When set, every
    /// emitted tunnel packet carries a SipHash-2-4 trailer and every
    /// received tunnel packet must verify (unauthenticated or forged
    /// packets are counted in `auth_rejects` and discarded).
    pub auth_key: Option<SipKey>,
    /// Application-specific routing (§3: "it makes a performance-driven/
    /// application-specific routing decision"): inner packets whose
    /// DSCP/traffic-class byte appears here bypass the policy's selection
    /// and ride the mapped path (e.g. pin the control class to the
    /// lowest-jitter path while bulk follows the adaptive default).
    pub class_map: BTreeMap<u8, u16>,
    /// Labels for the paths this switch *receives* on — i.e. the peer's
    /// tunnel labels, which share path ids with ours by provisioning
    /// convention but may differ in name (LA's tunnel 3 is "Cogent",
    /// NY's is "Level3"). Used to pre-register the stats sink.
    pub rx_labels: Vec<(u16, String)>,
}

/// The Tango switch agent.
pub struct TangoSwitch {
    id: AsId,
    border: AsId,
    tunnels: BTreeMap<u16, Tunnel>,
    remote_hosts: PrefixTrie<()>,
    selection: SelectionState,
    policy: Box<dyn PathPolicy>,
    probe_period: Option<SimTime>,
    control_period: Option<SimTime>,
    /// Everything this switch observes (receive-side measurements and
    /// send-side counters). The peer's controller reads the path stats.
    my_stats: SharedStats,
    /// The peer switch's sink: *their* receive-side view of *our*
    /// outgoing paths — the input to our policy (Shared feedback mode).
    peer_stats: SharedStats,
    wan_table: Option<PrefixTrie<AsId>>,
    feedback: FeedbackMode,
    auth_key: Option<SipKey>,
    class_map: BTreeMap<u8, u16>,
    /// Latest peer view received in-band (InBand feedback mode).
    peer_view: BTreeMap<u16, PathSnapshot>,
    /// Per-path progress tracking for the silence signal: (sample count
    /// at the last control tick that saw it advance, local time of that
    /// tick). Kept in *this* switch's clock so the derived `silence_ns`
    /// never crosses clock domains.
    progress: BTreeMap<u16, (u64, u64)>,
}

impl TangoSwitch {
    /// Build a switch. `my_stats` is written by this switch; `peer_stats`
    /// is the peer's sink (read at control ticks).
    pub fn new(
        config: SwitchConfig,
        policy: Box<dyn PathPolicy>,
        my_stats: SharedStats,
        peer_stats: SharedStats,
    ) -> Self {
        let mut remote_hosts = PrefixTrie::new();
        for p in &config.remote_host_prefixes {
            remote_hosts.insert(*p, ());
        }
        let tunnels: BTreeMap<u16, Tunnel> =
            config.tunnels.into_iter().map(|t| (t.id, t)).collect();
        {
            // The sink records *incoming* measurements, so its labels are
            // the peer's path names (rx_labels), not our outgoing ones.
            // Both directions are pre-registered, so the published
            // schema is complete even before any traffic flows.
            let mut sink = my_stats.lock();
            for (id, label) in &config.rx_labels {
                sink.register_path(*id, label.clone());
            }
            for &id in tunnels.keys() {
                sink.register_tunnel(id);
            }
        }
        TangoSwitch {
            id: config.id,
            border: config.border,
            wan_table: config.wan_table,
            feedback: config.feedback,
            auth_key: config.auth_key,
            class_map: config.class_map,
            peer_view: BTreeMap::new(),
            progress: BTreeMap::new(),
            tunnels,
            remote_hosts,
            selection: SelectionState::new(crate::policy::Selection::Single(config.initial_path)),
            policy,
            probe_period: config.probe_period,
            control_period: config.control_period,
            my_stats,
            peer_stats,
        }
    }

    /// This switch's node id.
    pub fn id(&self) -> AsId {
        self.id
    }

    /// Build a switch from `config`, install it as the agent of node
    /// `config.id` and arm exactly the timers the config implies, all
    /// first firing at `first_tick` (stagger different switches): one
    /// probe timer per tunnel iff `probe_period` is set, the control loop
    /// iff `control_period` is, the report timer iff feedback is in-band.
    pub fn install(
        sim: &mut tango_sim::NetworkSim,
        config: SwitchConfig,
        policy: Box<dyn PathPolicy>,
        my_stats: SharedStats,
        peer_stats: SharedStats,
        first_tick: SimTime,
    ) {
        let node = config.id;
        let probes = config
            .probe_period
            .map_or(0, |_| config.tunnels.len() as u64);
        let control = config.control_period.is_some();
        let reports = matches!(config.feedback, FeedbackMode::InBand { .. });
        let switch = TangoSwitch::new(config, policy, my_stats, peer_stats);
        sim.set_agent(node, Box::new(switch));
        for i in 0..probes {
            sim.schedule_timer_at(first_tick, node, TAG_PROBE_BASE + i);
        }
        if control {
            sim.schedule_timer_at(first_tick, node, TAG_CONTROL);
        }
        if reports {
            sim.schedule_timer_at(first_tick, node, TAG_REPORT);
        }
    }

    /// Encapsulate `pkt` (whose bytes are the inner payload: an app
    /// packet, an encoded report, or nothing for a probe) onto a tunnel
    /// in place and send it toward the wide area. Zero-copy when the
    /// packet carries `ENCAP_OVERHEAD` bytes of headroom.
    fn send_on_tunnel(&mut self, ctx: &mut Ctx<'_>, path: u16, mut pkt: Packet, kind: TxKind) {
        let Some(tunnel) = self.tunnels.get(&path) else {
            self.my_stats.lock().tx_no_tunnel += 1;
            ctx.recycle(pkt);
            return;
        };
        let seq = {
            let mut sink = self.my_stats.lock();
            match kind {
                TxKind::Probe => sink.probes_sent += 1,
                TxKind::App => sink.tx_encapsulated += 1,
                TxKind::Report => sink.reports_sent += 1,
            }
            sink.next_tx_seq(path)
        };
        let ts = ctx.local_ns();
        let key = self.auth_key.as_ref();
        match kind {
            TxKind::Probe => codec::probe_packet_in_place(tunnel, &mut pkt, seq, ts, key),
            TxKind::App => codec::encapsulate_in_place(tunnel, &mut pkt, seq, ts, key),
            TxKind::Report => codec::report_packet_in_place(tunnel, &mut pkt, seq, ts, key),
        }
        ctx.span(SpanKind::Encap {
            path,
            payload: match kind {
                TxKind::App => 0,
                TxKind::Probe => 1,
                TxKind::Report => 2,
            },
        });
        self.transmit_wan(ctx, pkt);
    }

    /// Send toward the wide area: via the border router, or — when this
    /// switch is its own border — by our own LPM table.
    fn transmit_wan(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.border != self.id {
            ctx.transmit(self.border, pkt);
            return;
        }
        let next = pkt
            .dst_addr()
            .and_then(|d| self.wan_table.as_ref()?.lookup(d.into()).copied());
        match next {
            Some(n) if n != self.id => ctx.transmit(n, pkt),
            _ => ctx.count_no_route(pkt),
        }
    }

    fn snapshots(&mut self, now_local_ns: u64) -> BTreeMap<u16, PathSnapshot> {
        let mut out = if matches!(self.feedback, FeedbackMode::InBand { .. }) {
            self.peer_view.clone()
        } else {
            self.peer_stats.lock().snapshots().collect()
        };
        // Overlay the silence signal: a path is "silent" since the last
        // control tick at which its sample count advanced. Both the count
        // comparison and the timestamps live on *this* switch, so the
        // signal is immune to clock offset and works identically in
        // Shared and InBand feedback modes.
        for (id, snap) in &mut out {
            let entry = self
                .progress
                .entry(*id)
                .or_insert((snap.samples, now_local_ns));
            if snap.samples > entry.0 {
                *entry = (snap.samples, now_local_ns);
            }
            snap.silence_ns = Some(now_local_ns.saturating_sub(entry.1));
        }
        out
    }
}

impl Agent for TangoSwitch {
    fn on_host_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let tango_destined = pkt
            .dst_addr()
            .map(|d| self.remote_hosts.lookup(d.into()).is_some())
            .unwrap_or(false);
        if tango_destined {
            // §3 application-specific override first, then the installed
            // performance-driven selection.
            let class_path = if self.class_map.is_empty() {
                None
            } else {
                tango_net::Ipv6Packet::new_checked(pkt.bytes())
                    .ok()
                    .and_then(|ip| self.class_map.get(&ip.traffic_class()).copied())
                    .filter(|p| self.tunnels.contains_key(p))
            };
            if let Some(path) = class_path.or_else(|| self.selection.choose()) {
                self.send_on_tunnel(ctx, path, pkt, TxKind::App);
                return;
            }
        }
        // Non-Tango destination (or empty selection): native forwarding.
        self.my_stats.lock().tx_untunneled += 1;
        self.transmit_wan(ctx, pkt);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        if codec::looks_like_tango(pkt.bytes()) {
            let require_auth = self.auth_key.is_some();
            match codec::decapsulate_in_place(&mut pkt, self.auth_key.as_ref(), require_auth) {
                Ok(d) => {
                    let rx_local = ctx.local_ns();
                    // Anti-replay, only once the tag proves the packet is
                    // the peer's: a recorded-and-retransmitted packet has
                    // a valid tag but a stale sequence number. (Without a
                    // key an attacker forges fresh sequences trivially, so
                    // the window would add cost without security.)
                    if self.auth_key.is_some() {
                        let mut sink = self.my_stats.lock();
                        let fresh = sink
                            .path_mut(d.tango.path_id)
                            .replay
                            .observe(d.tango.sequence);
                        if !fresh {
                            sink.replay_rejects += 1;
                            drop(sink);
                            ctx.span(SpanKind::RxReject { reason: 1 });
                            ctx.recycle(pkt);
                            return;
                        }
                    }
                    ctx.span(SpanKind::Decap {
                        path: d.tango.path_id,
                    });
                    // Signed and saturating: clock offsets can legally make
                    // this negative, and adversarial far-future timestamps
                    // must clamp rather than wrap.
                    let owd = saturating_owd_ns(rx_local, d.tango.timestamp_ns);
                    // Reports and probes are infrastructure, not app data.
                    let infra = d.tango.flags.is_probe() || d.tango.flags.is_report();
                    {
                        let mut sink = self.my_stats.lock();
                        let path = sink.path_mut(d.tango.path_id);
                        if !path.record_owd_gated(rx_local, owd as f64, d.tango.sequence, infra) {
                            sink.implausible_owd += 1;
                        }
                    }
                    if d.tango.flags.is_report() {
                        // pkt is now the stripped inner = the encoded report.
                        match MeasurementReport::decode(pkt.bytes()) {
                            Ok(report) => {
                                self.peer_view = report.to_snapshots();
                                self.my_stats.lock().reports_received += 1;
                            }
                            Err(_) => {
                                self.my_stats.lock().reports_rejected += 1;
                            }
                        }
                    }
                    // Inner app packet continues to the host side (outside
                    // the modeled scope — the host is attached here).
                }
                Err(CodecError::Auth) => {
                    self.my_stats.lock().auth_rejects += 1;
                    ctx.span(SpanKind::RxReject { reason: 0 });
                }
                Err(_) => self.my_stats.lock().record_reject(None),
            }
        } else {
            // Plain (un-tunneled) packet for our hosts.
            self.my_stats.lock().plain_rx += 1;
        }
        // Every network-side arrival ends its life here: recycle the
        // buffer for the next allocation.
        ctx.recycle(pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TAG_CONTROL {
            let now = ctx.local_ns();
            let snaps = self.snapshots(now);
            let decision = self.policy.decide(now, &snaps);
            self.selection.install(decision.clone());
            {
                let mut sink = self.my_stats.lock();
                sink.control_ticks += 1;
                sink.selection_history.push((now, decision.paths()));
            }
            if let Some(period) = self.control_period {
                ctx.schedule_timer(period, TAG_CONTROL);
            }
            return;
        }
        if tag == TAG_REPORT {
            // Digest what *we* receive and ship it to the peer so their
            // controller can steer their outgoing traffic: cooperation,
            // paid for in-band.
            let report = report_from_sink(&self.my_stats.lock()).encode();
            // Ride the currently selected path (falls back to the first
            // tunnel before any selection exists).
            let path = self
                .selection
                .choose()
                .or_else(|| self.tunnels.keys().next().copied());
            if let Some(path) = path {
                let mut pkt = ctx.alloc_packet(codec::ENCAP_OVERHEAD);
                pkt.append(&report);
                self.send_on_tunnel(ctx, path, pkt, TxKind::Report);
            }
            if let FeedbackMode::InBand { period } = self.feedback {
                ctx.schedule_timer(period, TAG_REPORT);
            }
            return;
        }
        // Probe timers. The policy may gate the emission (backoff
        // re-probing into a path believed down); the timer itself keeps
        // its cadence so a re-admitted path resumes probing immediately.
        let idx = (tag - TAG_PROBE_BASE) as usize;
        let path = self.tunnels.keys().copied().nth(idx);
        if let Some(path) = path {
            if self.policy.allow_probe(ctx.local_ns(), path) {
                let pkt = ctx.alloc_packet(codec::ENCAP_OVERHEAD);
                self.send_on_tunnel(ctx, path, pkt, TxKind::Probe);
            } else {
                self.my_stats.lock().probes_withheld += 1;
            }
        }
        if let Some(period) = self.probe_period {
            ctx.schedule_timer(period, tag);
        }
    }
}
