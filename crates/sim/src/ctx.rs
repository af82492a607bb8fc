//! An agent's view of the world: the [`Agent`] trait a node's behaviour
//! implements, and the [`Ctx`] every one of its handlers receives.
//!
//! Every side effect an agent can have goes through [`Ctx`], which is
//! what keeps event ordering and randomness deterministic. Its one
//! constructor is crate-private: a shard's dispatch builds a `Ctx` per
//! event, borrowing the dispatching node's clock, RNG stream and
//! emission counter and the shard's stats, span ring, link state and
//! buffer pool. [`Ctx::transmit`] is the link model — loss, wide-area
//! events, fault injection, the capacity queue and the delay sample —
//! so whatever builds a `Ctx` moves packets exactly as the engine does.

use crate::clock::NodeClock;
use crate::engine::{EventKey, EventKind, QueuedEvent, SimShared};
use crate::fault::{FaultDecision, FaultInjector};
use crate::packet::{BufferPool, Packet};
use crate::stats::SimStats;
use crate::tables::LinkTable;
use crate::time::SimTime;
use rand::rngs::StdRng;
use tango_topology::{AsId, EventKind as TopoEventKind};
use tango_trace::{DropReason, SpanKey, SpanKind, SpanRing};

/// Node behaviour: packets from the network, packets from the local host
/// side, and timers.
///
/// `Send` because a shard — and every agent on it — may be handed to a
/// worker thread for the duration of a synchronization window.
pub trait Agent: Send {
    /// A packet arrived from the network.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// A packet was handed in from the host side (an application behind
    /// this border). Default: treat like a network packet.
    fn on_host_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.on_packet(ctx, pkt);
    }

    /// A scheduled timer fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

/// The execution context handed to agents. All side effects an agent can
/// have on the world go through here, which keeps event ordering and
/// randomness deterministic.
pub struct Ctx<'a> {
    /// The node this agent runs on.
    pub node: AsId,
    node_idx: u32,
    /// This node's emission origin (`node_idx + 1`): every event it
    /// schedules is keyed by it, giving location-based determinism.
    origin: u32,
    /// The key of the event being dispatched: its time is now, and its
    /// [`EventKey::span`] is the span children are parented to. It is
    /// the parent carried by every event this dispatch schedules.
    key: EventKey,
    clock: NodeClock,
    links: &'a LinkTable,
    rng: &'a mut StdRng,
    fault: Option<FaultInjector>,
    pub(crate) stats: &'a mut SimStats,
    pub(crate) spans: &'a mut SpanRing,
    out: &'a mut Vec<QueuedEvent>,
    seq: &'a mut u64,
    /// Per-directed-link "busy until" instants (ns) for capacity-limited
    /// links owned by this shard, indexed by `link_id - link_base`:
    /// packets serialize behind the previous departure.
    link_busy: &'a mut [u64],
    /// Per-directed-link cumulative wire-occupancy time (ns), published
    /// as telemetry gauges at the end of each `run_until`.
    busy_accum: &'a mut [u64],
    /// First dense link id owned by the dispatching shard.
    link_base: usize,
    pub(crate) pool: &'a mut BufferPool,
}

impl<'a> Ctx<'a> {
    /// The context of event `key`'s dispatch on node `node_idx`: it reads
    /// the node's `clock` and draws from the node's `rng` stream and
    /// emission counter `seq`, and it counts, records spans, emits events,
    /// occupies links and takes buffers through the dispatching shard's
    /// `stats`, `spans`, `out`, `link_busy` / `busy_accum` (indexed from
    /// `link_base`) and `pool`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shared: &'a SimShared,
        key: EventKey,
        node_idx: u32,
        clock: NodeClock,
        rng: &'a mut StdRng,
        seq: &'a mut u64,
        stats: &'a mut SimStats,
        spans: &'a mut SpanRing,
        out: &'a mut Vec<QueuedEvent>,
        link_busy: &'a mut [u64],
        busy_accum: &'a mut [u64],
        link_base: usize,
        pool: &'a mut BufferPool,
    ) -> Self {
        Ctx {
            node: shared.nodes.id(node_idx),
            node_idx,
            origin: node_idx + 1,
            key,
            clock,
            links: &shared.links,
            rng,
            fault: shared.fault,
            stats,
            spans,
            out,
            seq,
            link_busy,
            busy_accum,
            link_base,
            pool,
        }
    }

    /// Current simulated time (global truth — agents implementing the
    /// Tango data plane must use [`Ctx::local_ns`] instead, as a real
    /// switch has no access to true time).
    pub fn now(&self) -> SimTime {
        self.key.time
    }

    /// This node's local clock reading, nanoseconds.
    pub fn local_ns(&self) -> u64 {
        self.clock.local_ns(self.key.time)
    }

    /// Deterministic randomness for agent-level decisions. Every node
    /// draws from its own stream (seeded from the run seed and the AS
    /// number), so the sequence a node sees is independent of how other
    /// nodes — possibly on other shards — interleave with it.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// An empty packet with `headroom` reserved bytes, backed by a pooled
    /// buffer when one is free.
    pub fn alloc_packet(&mut self, headroom: usize) -> Packet {
        Packet::from_recycled(self.pool.take(), headroom)
    }

    /// Hand a dead packet's buffer back to the pool. Call this where a
    /// packet's life ends (delivered-and-consumed, rejected, unroutable)
    /// so the next allocation on this simulation reuses it.
    pub fn recycle(&mut self, pkt: Packet) {
        self.pool.put(pkt.into_buffer());
    }

    /// Record a causal span on this node, parented to the current
    /// dispatch's span. Returns its key ([`SpanKey::NONE`] when span
    /// recording is disarmed). The Tango data plane uses this for
    /// encap/decap/reject spans; the engine itself records tx/drop.
    #[inline]
    pub fn span(&mut self, kind: SpanKind) -> SpanKey {
        self.spans.record(self.node.0, kind)
    }

    /// Where a packet dies in flight: the one owner of the
    /// [`DropReason`] → [`SimStats`] counter mapping, the `Drop` span and
    /// the buffer recycle.
    fn drop_packet(&mut self, reason: DropReason, pkt: Packet) {
        let s = &mut *self.stats;
        *match reason {
            DropReason::NoLink => &mut s.no_link,
            DropReason::LossLink => &mut s.lost_link,
            DropReason::LossOutage => &mut s.lost_outage,
            DropReason::LossFault => &mut s.lost_fault,
            DropReason::LossQueue => &mut s.lost_queue,
            DropReason::NoRoute => &mut s.no_route,
            DropReason::TtlExpired => &mut s.ttl_expired,
        } += 1;
        self.spans.record(self.node.0, SpanKind::Drop { reason });
        self.pool.put(pkt.into_buffer());
    }

    /// The canonical key of this node's next emission.
    fn next_key(&mut self, time: SimTime) -> EventKey {
        *self.seq += 1;
        EventKey::new(time, self.origin, *self.seq)
    }

    /// Transmit a packet to an adjacent node. Samples loss, event
    /// effects, fault injection, ECMP lane, and delay; schedules delivery.
    pub fn transmit(&mut self, to: AsId, mut pkt: Packet) {
        let links = self.links;
        let Some((to_idx, link_id)) = links.lookup(self.node_idx, to) else {
            return self.drop_packet(DropReason::NoLink, pkt);
        };
        let profile = &links.profiles[link_id as usize]; // tango-lint: allow(hot-path-panic) link_id is a dense id minted by tables::intern
        self.stats.transmissions += 1;
        self.spans.record(self.node.0, SpanKind::Tx { to: to.0 });
        if profile.sample_loss(self.rng) {
            return self.drop_packet(DropReason::LossLink, pkt);
        }
        // Active wide-area events on this directed hop.
        let now_ns = self.key.time.as_ns();
        let link_events = links.events(link_id);
        let mut shift: i64 = 0;
        for ev in link_events.iter().filter(|e| e.window.contains(now_ns)) {
            match ev.sample_effect(now_ns, self.rng) {
                Some(d) => shift += d,
                None => return self.drop_packet(DropReason::LossOutage, pkt),
            }
        }
        if let Some(f) = self.fault {
            match f.apply(self.rng, pkt.bytes_mut()) {
                FaultDecision::Drop => return self.drop_packet(DropReason::LossFault, pkt),
                // Counted only: the packet lives on, so there is no span.
                FaultDecision::Corrupted => self.stats.corrupted += 1,
                FaultDecision::Pass => {}
            }
        }
        // Capacity model: packets serialize on finite-capacity links,
        // waiting behind earlier departures; overlong waits tail-drop.
        // The dispatching node owns every link it transmits on, so the
        // shard-local busy table (offset by link_base) always covers it.
        let mut queue_delay = 0u64;
        if profile.capacity_bps.is_some() {
            let tx = profile.tx_time_ns(pkt.len());
            let local_link = (link_id as usize).wrapping_sub(self.link_base);
            let busy = &mut self.link_busy[local_link]; // tango-lint: allow(hot-path-panic) the from-node owns this link, so link_id sits in this shard's contiguous link range
            let start = (*busy).max(now_ns);
            let wait = start - now_ns;
            if wait > profile.max_queue_ns {
                return self.drop_packet(DropReason::LossQueue, pkt);
            }
            *busy = start + tx;
            queue_delay = wait + tx;
            if let Some(acc) = self.busy_accum.get_mut(local_link) {
                *acc = acc.saturating_add(tx);
            }
        }
        let delay = profile.sample_delay(self.rng, pkt.flow_hash(), shift) + queue_delay;
        // Saturating: an arrival past `u64::MAX` ns never fires, and must
        // not wrap to before `now`.
        let time = self.key.time.saturating_add(SimTime(delay));
        // A link that goes dark mid-flight also kills the packets already
        // committed to it: if the *arrival* instant falls inside an
        // outage window on this hop, the packet never makes it off the
        // wire.
        let arrival_ns = time.as_ns();
        let arrives_in_outage = link_events
            .iter()
            .any(|ev| matches!(ev.kind, TopoEventKind::Outage) && ev.window.contains(arrival_ns));
        if arrives_in_outage {
            return self.drop_packet(DropReason::LossOutage, pkt);
        }
        let key = self.next_key(time);
        self.out.push(QueuedEvent {
            key,
            parent: self.key,
            kind: EventKind::Deliver { to: to_idx, pkt },
        });
    }

    /// Schedule a timer on this node after `delay` (saturating: a timer
    /// past `u64::MAX` ns never fires).
    pub fn schedule_timer(&mut self, delay: SimTime, tag: u64) {
        let key = self.next_key(self.key.time.saturating_add(delay));
        self.out.push(QueuedEvent {
            key,
            parent: self.key,
            kind: EventKind::Timer {
                node: self.node_idx,
                tag,
            },
        });
    }

    /// Count a routing-table miss and retire the packet (used by router
    /// agents).
    pub fn count_no_route(&mut self, pkt: Packet) {
        self.drop_packet(DropReason::NoRoute, pkt);
    }

    /// Count a hop-limit expiry and retire the packet (used by router
    /// agents).
    pub fn count_ttl_expired(&mut self, pkt: Packet) {
        self.drop_packet(DropReason::TtlExpired, pkt);
    }
}
