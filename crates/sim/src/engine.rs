//! The discrete-event core: event queue, agents, link transmission.
//!
//! ## Fast-path layout
//!
//! The inner loop (pop event → dispatch → transmit) is allocation- and
//! pointer-chase-free by construction:
//!
//! * Node identity is interned at build time: every [`AsId`] in the
//!   topology maps to a dense `NodeIdx` (a `u32` index), and the per-event
//!   tables — agents, clocks, per-directed-link busy horizons — are plain
//!   `Vec`s indexed by it, replacing the seed's `BTreeMap` lookups.
//! * Every directed link gets a dense link id at build time; its delay
//!   profile and scheduled wide-area events are copied into `Vec`-indexed
//!   tables so a transmission touches no tree and allocates nothing; the
//!   sender's own sorted neighbour list resolves the next hop's `AsId`
//!   to node index and link id in one search.
//! * [`Packet`] keeps its bytes in a buffer with *headroom* so the data
//!   plane can prepend/strip encapsulation in place, and dead packets'
//!   buffers are recycled through a freelist ([`Ctx::recycle`]) instead
//!   of hitting the allocator per packet. Its bytes are copy-on-write: a
//!   clone shares them, so a scheduled packet holds no buffer until
//!   dispatch hands it one from that freelist. It caches its parsed
//!   destination and its ECMP flow hash, so a hop re-parses and
//!   re-hashes nothing.
//! * The pending-event heap orders 32-byte `(key, slot)` entries over a
//!   slab of events, so a sift never moves a packet.
//!
//! ## Sharding
//!
//! The node table is partitioned into contiguous shards (see
//! `crate::shard`), each owning its nodes, their outgoing links, a private
//! heap+staged event queue, per-node RNG streams, and per-shard stats and
//! span rings. Shards advance in lockstep conservative windows whose
//! width is the minimum cross-shard link latency; cross-shard deliveries
//! travel through per-shard outboxes exchanged at window barriers. Every
//! event carries a canonical `EventKey` `(time, origin, seq)` that is a
//! function of stable identities only, so any shard count — and serial
//! vs. threaded execution — produces bit-identical stats, spans, and
//! telemetry. The determinism argument is written out in DESIGN.md §11.

use crate::clock::NodeClock;
use crate::fault::{FaultDecision, FaultInjector};
use crate::hash::{flow_hash, mix64};
use crate::shard::{self, Partition, ShardMode};
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, OnceCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::net::{IpAddr, Ipv6Addr};
use std::num::NonZeroU64;
use std::sync::Arc;
use tango_net::{Ipv4Packet, Ipv6Packet, Ipv6Repr, PrefixTrie};
use tango_obs::{Counter, Gauge, Histogram, Registry};
use tango_topology::{AsId, DirectionProfile, EventKind as TopoEventKind, LinkEvent, Topology};
use tango_trace::{DropReason, SpanKey, SpanKind, SpanRing};

/// Sentinel node index for events scheduled against an id that is not in
/// the topology (they dispatch to "no agent", like the seed behaviour).
const NO_NODE: u32 = u32::MAX;

/// Origin id of the external scheduler (`schedule_host_packet`,
/// `schedule_timer_at`). Node `idx` emits with origin `idx + 1`, so
/// external events sort first among same-instant ties — matching the
/// pre-sharding behaviour where pre-scheduled events drew earlier global
/// sequence numbers than anything emitted during the run.
const EXT_ORIGIN: u32 = 0;

/// Cached destination-address parse state of a [`Packet`]: the family of
/// a header that parsed, not its address, which a hop reads back out of
/// the already-validated header (one byte of cache instead of a 17-byte
/// `IpAddr` enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DstCache {
    /// Not parsed yet (or invalidated by a mutation).
    Unparsed,
    /// Parsed and the header was invalid.
    Invalid,
    /// A valid IPv4 header.
    V4,
    /// A valid IPv6 header.
    V6,
}

/// A packet in flight: raw bytes, nothing else. All semantics live in the
/// bytes themselves (smoltcp idiom) — the simulator never peeks beyond
/// what a real router could see.
///
/// The bytes sit inside a buffer at an offset, so a data plane can
/// reserve *headroom* and prepend/strip encapsulation headers in place
/// instead of rebuilding the wire image. The parsed destination and the
/// ECMP flow hash are cached alongside the bytes (computed at the first
/// hop that asks) and invalidated by any byte mutation, so multi-hop
/// forwarding re-parses and re-hashes nothing.
///
/// Copy-on-write: `clone` copies no bytes. An owned packet freezes one
/// shared copy of its buffer at its first clone, every later clone
/// reuses that copy until the next mutation drops it, and a clone is a
/// *view* of it. Every mutator but `strip_front` (which only moves the
/// offset) gives a view a buffer of its own first, and the engine gives
/// one from the shard's [`BufferPool`] to every view it dispatches, so a
/// scheduled packet costs a reference count, not a buffer.
#[derive(Debug)]
pub struct Packet {
    /// The packet's own buffer: headroom, then the visible bytes. Empty
    /// and unallocated while the packet is a view.
    buf: Vec<u8>,
    /// A view's bytes; for an owned packet, the frozen copy of `buf` its
    /// clones share (equal to `buf` whenever it is set).
    shared: OnceCell<Arc<[u8]>>,
    /// Offset of the visible bytes — a `u32`, so the caches fit beside
    /// it without growing the struct every queued event carries.
    start: u32,
    /// The bytes are `shared`'s and `buf` holds none yet.
    view: bool,
    dst: Cell<DstCache>,
    /// [`flow_hash`] of the visible bytes, once computed. A hash of
    /// exactly 0 is never cached, only recomputed.
    hash: Cell<Option<NonZeroU64>>,
}

// Every queued event carries a packet: a larger one grows every queue.
const _: () = assert!(std::mem::size_of::<Packet>() <= 56);

/// A view of the bytes (see [`Packet`]) that keeps both caches.
impl Clone for Packet {
    fn clone(&self) -> Self {
        let shared = self.shared.get_or_init(|| Arc::from(self.buf.as_slice()));
        Packet {
            buf: Vec::new(),
            shared: OnceCell::from(Arc::clone(shared)),
            start: self.start,
            view: true,
            dst: self.dst.clone(),
            hash: self.hash.clone(),
        }
    }
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}
impl Eq for Packet {}

impl Packet {
    /// Spare capacity that [`Packet::alloc`], [`Packet::with_headroom`],
    /// [`Packet::host`] and a view's first buffer reserve behind the
    /// bytes: room for the 8-byte authentication trailer the data plane
    /// appends in place, so an exactly-sized buffer is not reallocated
    /// (and doubled) for it. Capacity only — never visible bytes.
    pub const TAILROOM: usize = 8;

    // tango-lint: allow(hot-path-panic) an offset never exceeds buf.len(), and a packet buffer beyond 4 GiB is a caller bug
    fn offset(at: usize) -> u32 {
        u32::try_from(at).expect("packet offsets fit u32")
    }

    /// The packet over `buf` whose visible bytes begin at `start`.
    fn over(buf: Vec<u8>, start: usize) -> Self {
        Packet {
            buf,
            shared: OnceCell::new(),
            start: Self::offset(start),
            view: false,
            dst: Cell::new(DstCache::Unparsed),
            hash: Cell::new(None),
        }
    }

    /// The whole buffer: headroom, then the visible bytes.
    fn whole(&self) -> &[u8] {
        match self.shared.get() {
            Some(shared) if self.view => shared,
            _ => &self.buf,
        }
    }

    /// The packet's own buffer, about to be written: a view first copies
    /// its bytes into `spare()` (with [`Packet::TAILROOM`] to spare), and
    /// an owned packet drops its frozen copy (its clones keep theirs).
    fn own(&mut self, spare: impl FnOnce() -> Vec<u8>) -> &mut Vec<u8> {
        if let Some(shared) = self.shared.take() {
            if std::mem::take(&mut self.view) {
                let mut buf = spare();
                buf.clear();
                buf.reserve(shared.len() + Self::TAILROOM);
                buf.extend_from_slice(&shared);
                self.buf = buf;
            }
        }
        &mut self.buf
    }

    /// Give a view a buffer from `pool` before an agent writes to it. An
    /// owned packet keeps its own and draws nothing.
    fn materialize(&mut self, pool: &mut BufferPool) {
        if self.view {
            self.own(|| pool.take());
        }
    }

    /// Forget both caches: the bytes changed.
    fn invalidate(&self) {
        self.dst.set(DstCache::Unparsed);
        self.hash.set(None);
    }

    /// Wrap raw bytes (no headroom).
    pub fn new(bytes: Vec<u8>) -> Self {
        Self::over(bytes, 0)
    }

    /// Copy `bytes` into a fresh buffer with `headroom` writable bytes in
    /// front (room for in-place encapsulation).
    pub fn with_headroom(headroom: usize, bytes: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(headroom + bytes.len() + Self::TAILROOM);
        buf.resize(headroom, 0);
        buf.extend_from_slice(bytes);
        Self::over(buf, headroom)
    }

    /// A zero-filled packet of `len` visible bytes behind `headroom` —
    /// emit a representation into [`Packet::bytes_mut`] afterwards.
    pub fn alloc(headroom: usize, len: usize) -> Self {
        let mut buf = Vec::with_capacity(headroom + len + Self::TAILROOM);
        buf.resize(headroom + len, 0);
        Self::over(buf, headroom)
    }

    /// Hop limit of every [`Packet::host`] packet: bounds its hops, and
    /// with them the spans it can leave in a ring.
    pub const HOST_HOP_LIMIT: u8 = 64;

    /// The host packet every scenario injects: an IPv6 header (next
    /// header UDP, hop limit [`Packet::HOST_HOP_LIMIT`], flow label 0)
    /// over `payload_len` zero bytes, behind `headroom` bytes reserved
    /// for in-place encapsulation.
    ///
    /// # Panics
    ///
    /// If `payload_len` exceeds the IPv6 payload-length field (65 535).
    pub fn host(
        src: Ipv6Addr,
        dst: Ipv6Addr,
        payload_len: usize,
        headroom: usize,
        traffic_class: u8,
    ) -> Self {
        let repr = Ipv6Repr {
            src_addr: src,
            dst_addr: dst,
            next_header: 17,
            payload_len,
            hop_limit: Self::HOST_HOP_LIMIT,
            traffic_class,
            flow_label: 0,
        };
        let mut pkt = Packet::alloc(headroom, repr.total_len());
        // tango-lint: allow(hot-path-panic) injection-time, not per-hop: the buffer is sized by total_len, so only the documented oversize payload fails
        repr.emit(&mut Ipv6Packet::new_unchecked(pkt.bytes_mut()))
            .expect("payload fits the 16-bit length field");
        pkt
    }

    /// Reuse `buf` (typically from the pool) as an empty packet with
    /// `headroom` bytes reserved in front.
    pub fn from_recycled(mut buf: Vec<u8>, headroom: usize) -> Self {
        buf.clear();
        buf.resize(headroom, 0);
        Self::over(buf, headroom)
    }

    /// The visible packet bytes.
    // tango-lint: allow(hot-path-panic) start <= buf.len() is a Packet invariant upheld by every constructor
    pub fn bytes(&self) -> &[u8] {
        &self.whole()[self.headroom()..]
    }

    /// Mutable access to the packet bytes. Invalidates the cached
    /// destination and flow hash (the caller may rewrite anything).
    // tango-lint: allow(hot-path-panic) start <= buf.len() is a Packet invariant upheld by every constructor
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.invalidate();
        let start = self.headroom();
        &mut self.own(Vec::new)[start..]
    }

    /// Visible length.
    pub fn len(&self) -> usize {
        self.whole().len() - self.headroom()
    }

    /// Is the packet empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writable bytes available in front of the packet.
    pub fn headroom(&self) -> usize {
        self.start as usize
    }

    /// Grow the packet `n` bytes at the front (into headroom), returning
    /// the new front. Panics if the headroom is insufficient — callers
    /// must check [`Packet::headroom`] and fall back to a copying path.
    // tango-lint: allow(hot-path-panic) the assert above this slice enforces the documented headroom contract
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        assert!(self.headroom() >= n, "prepend past headroom");
        self.start = Self::offset(self.headroom() - n);
        self.invalidate();
        let start = self.headroom();
        &mut self.own(Vec::new)[start..]
    }

    /// Drop `n` bytes from the front (they become headroom for a later
    /// re-encapsulation). Moves the offset only: a view stays a view.
    pub fn strip_front(&mut self, n: usize) {
        assert!(n <= self.len(), "strip past end");
        self.start = Self::offset(self.headroom() + n);
        self.invalidate();
    }

    /// Append bytes at the tail.
    pub fn append(&mut self, data: &[u8]) {
        self.own(Vec::new).extend_from_slice(data);
        self.invalidate();
    }

    /// Shorten the packet to `len` visible bytes.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len(), "truncate cannot grow");
        let end = self.headroom() + len;
        self.own(Vec::new).truncate(end);
        self.invalidate();
    }

    /// Take the packet's own buffer (for recycling): a view has none and
    /// yields an empty, unallocated one.
    pub fn into_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// The destination IP address, if the version nibble and header
    /// parse. Cached: repeated calls between mutations parse once.
    pub fn dst_addr(&self) -> Option<IpAddr> {
        let bytes = self.bytes();
        match self.dst.get() {
            DstCache::V4 => return Some(IpAddr::V4(Ipv4Packet::new_unchecked(bytes).dst_addr())),
            DstCache::V6 => return Some(IpAddr::V6(Ipv6Packet::new_unchecked(bytes).dst_addr())),
            DstCache::Invalid => return None,
            DstCache::Unparsed => {}
        }
        let parsed = match bytes.first().map(|b| b >> 4) {
            Some(4) => Ipv4Packet::new_checked(bytes)
                .ok()
                .map(|p| IpAddr::V4(p.dst_addr())),
            Some(6) => Ipv6Packet::new_checked(bytes)
                .ok()
                .map(|p| IpAddr::V6(p.dst_addr())),
            _ => None,
        };
        self.dst.set(match parsed {
            Some(IpAddr::V4(_)) => DstCache::V4,
            Some(IpAddr::V6(_)) => DstCache::V6,
            None => DstCache::Invalid,
        });
        parsed
    }

    /// The ECMP flow hash of the packet ([`flow_hash`] of its bytes).
    /// Cached: the 5-tuple is hashed once, not at each router it crosses.
    pub fn flow_hash(&self) -> u64 {
        if let Some(h) = self.hash.get() {
            return h.get();
        }
        let h = flow_hash(self.bytes());
        self.hash.set(NonZeroU64::new(h));
        h
    }

    /// Decrement the TTL/hop-limit in place (IPv4: also fixes the header
    /// checksum). Returns false if the hop limit is exhausted or the
    /// packet is not IP. Leaves the cached destination intact — this
    /// mutation cannot change the addresses — and the cached flow hash
    /// too when the header is known to parse: the 5-tuple excludes the
    /// hop limit, but the first-bytes hash of an unparseable packet
    /// covers it.
    // tango-lint: allow(hot-path-panic) every header offset is guarded by the explicit bytes.len() check on its match arm
    pub fn decrement_hop_limit(&mut self) -> bool {
        if !matches!(self.dst.get(), DstCache::V4 | DstCache::V6) {
            self.hash.set(None);
        }
        let start = self.headroom();
        let bytes = &mut self.own(Vec::new)[start..];
        match bytes.first().map(|b| b >> 4) {
            Some(4) if bytes.len() >= 20 => {
                if bytes[8] <= 1 {
                    return false;
                }
                bytes[8] -= 1;
                // Recompute the IPv4 header checksum.
                bytes[10] = 0;
                bytes[11] = 0;
                let ck = tango_net::checksum::checksum(&bytes[..20]);
                bytes[10..12].copy_from_slice(&ck.to_be_bytes());
                true
            }
            Some(6) if bytes.len() >= 40 => {
                if bytes[7] <= 1 {
                    return false;
                }
                bytes[7] -= 1;
                true
            }
            _ => false,
        }
    }
}

/// Freelist of packet buffers: dead packets hand their allocation back,
/// new packets take one instead of hitting the allocator.
///
/// Retention is bounded by demand: the pool keeps a dead buffer only
/// while it holds fewer than the number of times [`BufferPool::take`]
/// has found it empty. Scheduled clones draw from it as they are
/// dispatched, so it keeps about as many buffers as packets were ever
/// in flight at once; packets that arrive owning a buffer draw nothing.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    /// Pool misses so far, capped at [`POOL_MAX`].
    demand: usize,
}

/// Buffers retained at most (beyond this, dead buffers really free).
const POOL_MAX: usize = 4096;

impl BufferPool {
    /// Take a cleared buffer (pool hit) or a fresh one (a miss, which
    /// raises how many dead buffers the pool will keep).
    pub fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_else(|| {
            self.demand = (self.demand + 1).min(POOL_MAX);
            Vec::new()
        })
    }

    /// Return a buffer to the freelist, or free it if the pool already
    /// holds as many as it has had to hand out.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.demand && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Buffers currently parked in the freelist.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Is the freelist empty?
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

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

/// Counters the simulator maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets submitted to links.
    pub transmissions: u64,
    /// Packets handed to receiving agents.
    pub deliveries: u64,
    /// Dropped by stochastic link loss.
    pub lost_link: u64,
    /// Dropped by an active outage event.
    pub lost_outage: u64,
    /// Dropped by the fault injector.
    pub lost_fault: u64,
    /// Corrupted (but delivered) by the fault injector.
    pub corrupted: u64,
    /// Transmission requested on a non-existent link.
    pub no_link: u64,
    /// Dropped by a full queue on a capacity-limited link (tail drop).
    pub lost_queue: u64,
    /// Router had no route for a destination.
    pub no_route: u64,
    /// Hop limit exhausted in flight.
    pub ttl_expired: u64,
    /// Timers fired.
    pub timers: u64,
}

impl SimStats {
    /// Add another stats block field-by-field (merging per-shard counts
    /// into the run total — pure sums, so the merge is order-free).
    pub fn accumulate(&mut self, other: &SimStats) {
        self.transmissions += other.transmissions;
        self.deliveries += other.deliveries;
        self.lost_link += other.lost_link;
        self.lost_outage += other.lost_outage;
        self.lost_fault += other.lost_fault;
        self.corrupted += other.corrupted;
        self.no_link += other.no_link;
        self.lost_queue += other.lost_queue;
        self.no_route += other.no_route;
        self.ttl_expired += other.ttl_expired;
        self.timers += other.timers;
    }
}

pub(crate) enum EventKind {
    Deliver { to: u32, pkt: Packet },
    HostInject { to: u32, pkt: Packet },
    Timer { node: u32, tag: u64 },
}

impl EventKind {
    /// The node index this event dispatches to.
    fn dest(&self) -> u32 {
        match self {
            EventKind::Deliver { to, .. } => *to,
            EventKind::HostInject { to, .. } => *to,
            EventKind::Timer { node, .. } => *node,
        }
    }
}

/// The canonical, globally unique ordering key of an event: virtual time,
/// emitting origin (0 = external scheduler, node idx + 1 otherwise), and
/// the origin's private emission sequence number. A pure function of
/// stable identities — independent of shard layout and of the realized
/// execution interleaving — which is the whole determinism argument:
/// sorting any distribution of events by key reproduces one total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    pub(crate) time: SimTime,
    pub(crate) origin: u32,
    pub(crate) seq: u64,
}

pub(crate) struct QueuedEvent {
    pub(crate) key: EventKey,
    /// The span key of the dispatch that scheduled this event
    /// ([`SpanKey::NONE`] for externally scheduled roots). Plain data —
    /// it rides along even with the span ring disarmed, so the causal
    /// link survives shard outbox handoffs unconditionally.
    pub(crate) parent: SpanKey,
    pub(crate) kind: EventKind,
}

/// A shard's pending-event heap. Ordering sifts 32-byte `(key, slot)`
/// entries; the events themselves — each carrying a packet — sit still
/// in a slab until popped, and popped slots are reused.
#[derive(Default)]
struct EventHeap {
    order: BinaryHeap<Reverse<(EventKey, u32)>>,
    slab: Vec<Option<QueuedEvent>>,
    free: Vec<u32>,
}

impl EventHeap {
    fn push(&mut self, ev: QueuedEvent) {
        let key = ev.key;
        let slot = self.free.pop().unwrap_or(self.slab.len() as u32);
        match self.slab.get_mut(slot as usize) {
            Some(cell) => *cell = Some(ev),
            None => self.slab.push(Some(ev)),
        }
        self.order.push(Reverse((key, slot)));
    }

    fn peek_key(&self) -> Option<EventKey> {
        self.order.peek().map(|Reverse((key, _))| *key)
    }

    fn pop(&mut self) -> Option<QueuedEvent> {
        let Reverse((_, slot)) = self.order.pop()?;
        self.free.push(slot);
        self.slab.get_mut(slot as usize)?.take()
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed: same seed + same schedule ⇒ identical run.
    pub seed: u64,
    /// Causal span ring capacity per shard (0 disables span recording).
    /// Sized generously (never wrapping) the merged stream is exactly
    /// the single-shard stream; wrapped it degrades into a flight
    /// recorder of the last-capacity spans.
    pub span_capacity: usize,
    /// Optional global fault injection on every link.
    pub fault: Option<FaultInjector>,
    /// Optional metric registry to publish telemetry into (event
    /// counts, per-link busy time; see `tango-obs`). `None` keeps the
    /// event loop entirely instrumentation-free.
    pub obs: Option<Registry>,
    /// Number of shards to partition the node table into (clamped to
    /// `[1, nodes]`; forced to 1 when a cross-shard link would have zero
    /// lookahead). Results are bit-identical for every value.
    pub shards: usize,
    /// How multi-shard runs execute (serial reference or worker
    /// threads); single-shard runs ignore this. Either way produces the
    /// same bytes — the mode only trades wall-clock for cores.
    pub shard_mode: ShardMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            span_capacity: 0,
            fault: None,
            obs: None,
            shards: 1,
            shard_mode: ShardMode::Serial,
        }
    }
}

/// Pre-registered metric handles for the simulator's own telemetry.
/// Built once at construction; the event loop tracks plain `u64` locals
/// and flushes them here at the end of each [`NetworkSim::run_until`],
/// so instrumentation adds no atomics to the per-event path.
#[derive(Debug)]
struct SimObs {
    ev_deliver: Counter,
    ev_host_inject: Counter,
    ev_timer: Counter,
    run_until_ns: Histogram,
    /// Dense link id → cumulative wire-busy-time gauge.
    link_busy: Vec<Gauge>,
    link_busy_total: Gauge,
    stats: [Gauge; 11],
}

impl SimObs {
    fn new(registry: &Registry, nodes: &NodeTable, links: &LinkTable) -> Self {
        // Recover (from, to) per dense link id from the adjacency index
        // so the gauge names carry the directed hop's AS numbers.
        let mut named: Vec<(u32, String)> = Vec::with_capacity(links.profiles.len());
        for (from_idx, list) in links.adj.iter().enumerate() {
            let from = nodes.id(from_idx as u32);
            for &(to, _, link_id) in list {
                named.push((link_id, format!("sim.link.busy_ns.{}-{}", from.0, to.0)));
            }
        }
        named.sort_unstable_by_key(|&(id, _)| id);
        SimObs {
            ev_deliver: registry.counter("sim.events.deliver"),
            ev_host_inject: registry.counter("sim.events.host_inject"),
            ev_timer: registry.counter("sim.events.timer"),
            run_until_ns: registry.histogram("sim.span.run_until_ns"),
            link_busy: named
                .into_iter()
                .map(|(_, name)| registry.gauge(&name))
                .collect(),
            link_busy_total: registry.gauge("sim.link.busy_ns.total"),
            stats: [
                registry.gauge("sim.stats.transmissions"),
                registry.gauge("sim.stats.deliveries"),
                registry.gauge("sim.stats.lost_link"),
                registry.gauge("sim.stats.lost_outage"),
                registry.gauge("sim.stats.lost_fault"),
                registry.gauge("sim.stats.corrupted"),
                registry.gauge("sim.stats.no_link"),
                registry.gauge("sim.stats.lost_queue"),
                registry.gauge("sim.stats.no_route"),
                registry.gauge("sim.stats.ttl_expired"),
                registry.gauge("sim.stats.timers"),
            ],
        }
    }

    /// Mirror the authoritative [`SimStats`] counters into gauges (they
    /// are cumulative totals, so `set` is the right verb).
    fn publish_stats(&self, s: &SimStats) {
        let fields = [
            s.transmissions,
            s.deliveries,
            s.lost_link,
            s.lost_outage,
            s.lost_fault,
            s.corrupted,
            s.no_link,
            s.lost_queue,
            s.no_route,
            s.ttl_expired,
            s.timers,
        ];
        for (gauge, v) in self.stats.iter().zip(fields) {
            gauge.set(v);
        }
    }
}

/// Dense interning of the topology's node ids: `AsId` ⇔ `u32` index.
/// Ids are sorted, so the index order matches `BTreeMap` iteration order
/// and results are bit-identical to the tree-keyed seed implementation.
#[derive(Debug)]
pub(crate) struct NodeTable {
    /// idx → id, ascending.
    pub(crate) ids: Vec<AsId>,
}

impl NodeTable {
    pub(crate) fn build(topology: &Topology) -> Self {
        NodeTable {
            ids: topology.nodes().map(|n| n.id).collect(),
        }
    }

    #[inline]
    fn idx(&self, id: AsId) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }

    #[inline]
    fn id(&self, idx: u32) -> AsId {
        self.ids[idx as usize] // tango-lint: allow(hot-path-panic) idx is a dense index interned by NodeTable
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Dense directed-link tables: per-link delay profile and scheduled
/// events, plus a per-node adjacency index that resolves a neighbour's
/// [`AsId`] to its node index and link id in one O(log degree) search of
/// the sender's own neighbours. Link ids are minted in from-node index
/// order, so a contiguous node range owns a contiguous link-id range —
/// which is what lets each shard carry dense local busy/accum tables.
#[derive(Debug)]
pub(crate) struct LinkTable {
    /// from_idx → [(to, to_idx, link_id)], ascending by `to` (id order
    /// is index order).
    pub(crate) adj: Vec<Vec<(AsId, u32, u32)>>,
    /// link_id → the directed hop's profile (copied out of the topology).
    pub(crate) profiles: Vec<DirectionProfile>,
    /// link_id → events scheduled on the directed hop, topology order.
    events: Vec<Vec<LinkEvent>>,
}

impl LinkTable {
    pub(crate) fn build(topology: &Topology, nodes: &NodeTable) -> Self {
        let mut adj = vec![Vec::new(); nodes.len()];
        let mut profiles = Vec::new();
        let mut events = Vec::new();
        for (from_idx, &from) in nodes.ids.iter().enumerate() {
            for &to in topology.neighbors(from) {
                // tango-lint: allow(hot-path-panic) build-time, not per-packet: neighbors come from the same topology
                let to_idx = nodes.idx(to).expect("neighbor is a topology node");
                // tango-lint: allow(hot-path-panic) build-time: adjacency implies the profile exists
                let profile = topology
                    .direction_profile(from, to)
                    .expect("adjacency implies a link");
                let link_id = profiles.len() as u32;
                profiles.push(profile.clone());
                events.push(
                    topology
                        .events()
                        .iter()
                        .filter(|e| e.from == from && e.to == to)
                        .cloned()
                        .collect(),
                );
                adj[from_idx].push((to, to_idx, link_id)); // tango-lint: allow(hot-path-panic) from_idx enumerates adj's own indices
            }
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|&(to, _, _)| to);
        }
        LinkTable {
            adj,
            profiles,
            events,
        }
    }

    /// The node index of `from_idx`'s neighbour `to` and the id of the
    /// directed link to it.
    #[inline]
    fn lookup(&self, from_idx: u32, to: AsId) -> Option<(u32, u32)> {
        let list = self.adj.get(from_idx as usize)?;
        let i = list.binary_search_by_key(&to, |&(id, _, _)| id).ok()?;
        list.get(i).map(|&(_, to_idx, link_id)| (to_idx, link_id))
    }
}

/// The topology-derived state every shard reads and none mutates: safe to
/// share by reference across worker threads for the duration of a window.
pub(crate) struct SimShared {
    pub(crate) topology: Topology,
    pub(crate) nodes: NodeTable,
    pub(crate) links: LinkTable,
    pub(crate) fault: Option<FaultInjector>,
    pub(crate) part: Partition,
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
    now: SimTime,
    clock: NodeClock,
    topology: &'a Topology,
    links: &'a LinkTable,
    rng: &'a mut StdRng,
    fault: Option<FaultInjector>,
    stats: &'a mut SimStats,
    spans: &'a mut SpanRing,
    /// The span key of the dispatch currently executing: the parent
    /// carried by every event this dispatch schedules, and of every
    /// child span it records.
    dispatch_span: SpanKey,
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
    pool: &'a mut BufferPool,
}

impl<'a> Ctx<'a> {
    /// Current simulated time (global truth — agents implementing the
    /// Tango data plane must use [`Ctx::local_ns`] instead, as a real
    /// switch has no access to true time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's local clock reading, nanoseconds.
    pub fn local_ns(&self) -> u64 {
        self.clock.local_ns(self.now)
    }

    /// Deterministic randomness for agent-level decisions. Every node
    /// draws from its own stream (seeded from the run seed and the AS
    /// number), so the sequence a node sees is independent of how other
    /// nodes — possibly on other shards — interleave with it.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The topology (read-only; e.g. for neighbor queries).
    pub fn topology(&self) -> &Topology {
        self.topology
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

    /// The span key of the dispatch currently executing (what [`Ctx::span`]
    /// children and scheduled events are parented to).
    pub fn dispatch_span(&self) -> SpanKey {
        self.dispatch_span
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
        EventKey {
            time,
            origin: self.origin,
            seq: *self.seq,
        }
    }

    /// Transmit a packet to an adjacent node. Samples loss, event
    /// effects, fault injection, ECMP lane, and delay; schedules delivery.
    pub fn transmit(&mut self, to: AsId, mut pkt: Packet) {
        let links = self.links;
        let Some((to_idx, link_id)) = links.lookup(self.node_idx, to) else {
            return self.drop_packet(DropReason::NoLink, pkt);
        };
        let profile = &links.profiles[link_id as usize]; // tango-lint: allow(hot-path-panic) link_id is a dense id minted by LinkTable::build
        self.stats.transmissions += 1;
        self.spans.record(self.node.0, SpanKind::Tx { to: to.0 });
        if profile.sample_loss(self.rng) {
            return self.drop_packet(DropReason::LossLink, pkt);
        }
        // Active wide-area events on this directed hop.
        let now_ns = self.now.as_ns();
        let link_events = &links.events[link_id as usize]; // tango-lint: allow(hot-path-panic) link_id is a dense id minted by LinkTable::build
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
        let time = self.now + SimTime(delay);
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
            parent: self.dispatch_span,
            kind: EventKind::Deliver { to: to_idx, pkt },
        });
    }

    /// Schedule a timer on this node after `delay`.
    pub fn schedule_timer(&mut self, delay: SimTime, tag: u64) {
        let key = self.next_key(self.now + delay);
        self.out.push(QueuedEvent {
            key,
            parent: self.dispatch_span,
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

/// Per-event-kind counts a shard accumulates during one `run_until`
/// (named fields, not an array, so the hot loop needs no indexing).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EvCounts {
    pub(crate) deliver: u64,
    pub(crate) host_inject: u64,
    pub(crate) timer: u64,
}

/// Per-shard execution accounting (the engine self-profiler): plain
/// virtual-time counters updated once per window and once per outbox
/// push, cumulative over the simulation's lifetime. Every field is a
/// pure function of (scenario, seed, shard count) — identical between
/// serial and threaded runners, so the numbers are safe to embed in
/// byte-diffed artifacts. `idle_windows / windows` is the deterministic
/// proxy for barrier-wait share: an idle window is a round the shard
/// spent waiting on the others with nothing to drain (wall clocks are
/// banned in deterministic crates, so wait *time* is not measurable —
/// or portable — here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: u64,
    /// Synchronization windows entered (single-shard runs count one
    /// window per `run_until` segment).
    pub windows: u64,
    /// Windows that drained zero events (lockstep rounds this shard
    /// only waited at the barrier).
    pub idle_windows: u64,
    /// Events dispatched.
    pub events: u64,
    /// High-water mark of the pending-event queue, sampled at window
    /// entry.
    pub queue_peak: u64,
    /// Events handed to other shards through the outbox.
    pub outbox_events: u64,
}

/// One shard: a contiguous slice of the node table with its own event
/// queues, agents, clocks, RNG streams, stats, span ring, and outgoing
/// link state. A shard never touches another shard's state — cross-shard
/// deliveries go through `outbox` and are exchanged at window barriers.
pub(crate) struct ShardState {
    pub(crate) index: usize,
    node_base: u32,
    node_end: u32,
    pub(crate) link_base: usize,
    agents: Vec<Option<Box<dyn Agent>>>,
    clocks: Vec<NodeClock>,
    /// Per-node RNG streams, seeded from `mix64(run seed, AS number)` —
    /// a node's draws depend only on its own event history, never on how
    /// other nodes interleave, so any partition sees identical streams.
    rngs: Vec<StdRng>,
    /// Per-node emission sequence counters (the `seq` of [`EventKey`]).
    node_seq: Vec<u64>,
    queue: EventHeap,
    /// Externally scheduled events whose keys arrived in non-decreasing
    /// order — the common case for pre-scheduled traffic. Kept out of
    /// the heap and merged lazily at pop time, so pre-loading 100k
    /// packets does not inflate every heap operation to log(100k).
    staged: VecDeque<QueuedEvent>,
    /// Scratch for same-timestamp batch drains (allocation reused).
    batch: Vec<QueuedEvent>,
    pub(crate) now: SimTime,
    pub(crate) stats: SimStats,
    pub(crate) spans: SpanRing,
    pub(crate) load: ShardLoad,
    link_busy: Vec<u64>,
    pub(crate) busy_accum: Vec<u64>,
    pool: BufferPool,
    out_scratch: Vec<QueuedEvent>,
    /// Cross-shard deliveries staged for each destination shard, drained
    /// in place at the next window barrier (the capacity stays here).
    pub(crate) outbox: Vec<Vec<QueuedEvent>>,
    pub(crate) ev_counts: EvCounts,
}

impl ShardState {
    fn new(index: usize, part: &Partition, nodes: &NodeTable, config: &SimConfig) -> Self {
        let (node_base, node_end) = part.node_range(index);
        let (link_base, link_end) = part.link_range(index);
        let n = (node_end - node_base) as usize;
        let n_links = link_end - link_base;
        let rngs = nodes
            .ids
            .iter()
            .skip(node_base as usize)
            .take(n)
            .map(|id| StdRng::seed_from_u64(mix64(config.seed ^ mix64(u64::from(id.0)))))
            .collect();
        ShardState {
            index,
            node_base,
            node_end,
            link_base,
            agents: (0..n).map(|_| None).collect(),
            clocks: vec![NodeClock::default(); n],
            rngs,
            node_seq: vec![0; n],
            queue: EventHeap::default(),
            staged: VecDeque::new(),
            batch: Vec::new(),
            now: SimTime::ZERO,
            stats: SimStats::default(),
            spans: SpanRing::new(config.span_capacity),
            load: ShardLoad {
                shard: index as u64,
                ..ShardLoad::default()
            },
            link_busy: vec![0; n_links],
            busy_accum: vec![0; n_links],
            pool: BufferPool::default(),
            out_scratch: Vec::new(),
            outbox: (0..part.len()).map(|_| Vec::new()).collect(),
            ev_counts: EvCounts::default(),
        }
    }

    /// Is `idx` one of this shard's nodes?
    #[inline]
    fn owns(&self, idx: u32) -> bool {
        idx >= self.node_base && idx < self.node_end
    }

    /// Stage or heap-push an externally scheduled event: events arriving
    /// in key order append to the staged queue in O(1); out-of-order
    /// stragglers go to the heap. The pop-side merge preserves the exact
    /// global key order either way.
    fn enqueue_external(&mut self, ev: QueuedEvent) {
        let in_order = self.staged.back().map_or(true, |b| b.key <= ev.key);
        if in_order {
            self.staged.push_back(ev);
        } else {
            self.queue.push(ev);
        }
    }

    /// The key of the earliest pending event, if any.
    fn peek_key(&self) -> Option<EventKey> {
        let heap = self.queue.peek_key();
        let staged = self.staged.front().map(|e| e.key);
        match (heap, staged) {
            (None, s) => s,
            (h, None) => h,
            (Some(h), Some(s)) => Some(h.min(s)),
        }
    }

    /// The timestamp of the earliest pending event, if any (the shard's
    /// vote for the next global window opening).
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.time)
    }

    /// True if this shard has nothing pending.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.len() == 0 && self.staged.is_empty() && self.batch.is_empty()
    }

    /// Pop every pending event whose time equals `t` — from the merged
    /// heap+staged queues, in canonical key order — into `out` in one
    /// pass (the same-timestamp batch drain; new events emitted *by*
    /// the batch land at later keys or form the next batch).
    fn drain_batch_at(&mut self, t: SimTime, out: &mut Vec<QueuedEvent>) {
        loop {
            let heap_key = self.queue.peek_key().filter(|k| k.time == t);
            let staged_key = self.staged.front().map(|e| e.key).filter(|k| k.time == t);
            let take_staged = match (heap_key, staged_key) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(h), Some(s)) => s < h,
            };
            // The peeks above guarantee the chosen queue is non-empty;
            // break (never panic) if that ever stops holding.
            let ev = if take_staged {
                self.staged.pop_front()
            } else {
                self.queue.pop()
            };
            match ev {
                Some(e) => out.push(e),
                None => break,
            }
        }
    }

    /// Process every pending event with `time <= horizon` (inclusive),
    /// batching same-timestamp runs. Returns events processed. The
    /// horizon is the conservative window bound: the callers guarantee no
    /// cross-shard event at or before it can still arrive.
    pub(crate) fn run_window(&mut self, shared: &SimShared, horizon: SimTime) -> u64 {
        self.load.windows += 1;
        let depth = (self.queue.len() + self.staged.len()) as u64;
        self.load.queue_peak = self.load.queue_peak.max(depth);
        let mut processed = 0u64;
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(t) = self.next_time() {
            if t > horizon {
                break;
            }
            self.drain_batch_at(t, &mut batch);
            for ev in batch.drain(..) {
                debug_assert!(ev.key.time >= self.now, "time must be monotonic");
                self.now = ev.key.time;
                match &ev.kind {
                    EventKind::Deliver { .. } => self.ev_counts.deliver += 1,
                    EventKind::HostInject { .. } => self.ev_counts.host_inject += 1,
                    EventKind::Timer { .. } => self.ev_counts.timer += 1,
                }
                self.dispatch(shared, ev.key, ev.parent, ev.kind);
                processed += 1;
            }
        }
        self.batch = batch;
        self.load.events += processed;
        if processed == 0 {
            self.load.idle_windows += 1;
        }
        processed
    }

    /// Accept cross-shard deliveries, leaving `events` empty with its
    /// capacity (heap-pushed: they arrive beyond the closed window, in no
    /// particular order, but keys restore the total order at pop time).
    pub(crate) fn receive_drain(&mut self, events: &mut Vec<QueuedEvent>) {
        for ev in events.drain(..) {
            self.queue.push(ev);
        }
    }

    fn dispatch(&mut self, shared: &SimShared, key: EventKey, parent: SpanKey, kind: EventKind) {
        let node_idx = kind.dest();
        let local = node_idx.wrapping_sub(self.node_base) as usize;
        // Out-of-range sentinel (NO_NODE routes to shard 0): treated
        // exactly like a node without an agent.
        let owned = self.owns(node_idx);
        let slot = if owned {
            self.agents.get_mut(local)
        } else {
            None
        };
        self.spans
            .begin_dispatch(key.time.as_ns(), key.origin, key.seq);
        let Some(mut agent) = slot.and_then(|slot| slot.take()) else {
            // No agent: the packet/timer evaporates (counted as no_route —
            // a node without behaviour cannot forward). An owned dead
            // packet's buffer still feeds the pool; a view never drew
            // one and returns none. The `Drop` span stands in for
            // the dispatch that never ran: it takes the event's own key
            // and hangs off whatever carried the packet here. A node
            // outside the topology has no id to report.
            match kind {
                EventKind::Deliver { pkt, .. } | EventKind::HostInject { pkt, .. } => {
                    self.stats.no_route += 1;
                    let node = if owned {
                        shared.nodes.id(node_idx).0
                    } else {
                        NO_NODE
                    };
                    self.spans.record_dispatch(
                        node,
                        parent,
                        SpanKind::Drop {
                            reason: DropReason::NoRoute,
                        },
                    );
                    self.pool.put(pkt.into_buffer());
                }
                EventKind::Timer { .. } => {}
            }
            return;
        };
        let clock = self.clocks[local]; // tango-lint: allow(hot-path-panic) node_idx was validated by the agents lookup above
        let node = shared.nodes.id(node_idx);
        // The dispatch's own span key: derived from the canonical event
        // key alone, so it exists (and is identical) whether or not span
        // recording is armed — scheduled events always carry it.
        let dispatch_span = SpanKey {
            time_ns: key.time.as_ns(),
            origin: key.origin,
            seq: key.seq,
            intra: 0,
        };
        {
            // tango-lint: allow(hot-path-panic) local was validated by the agents lookup above; rngs/node_seq are sized to the same node range
            let mut ctx = Ctx {
                node,
                node_idx,
                origin: node_idx + 1,
                now: self.now,
                clock,
                topology: &shared.topology,
                links: &shared.links,
                rng: &mut self.rngs[local],
                fault: shared.fault,
                stats: &mut self.stats,
                spans: &mut self.spans,
                dispatch_span,
                out: &mut self.out_scratch,
                seq: &mut self.node_seq[local],
                link_busy: &mut self.link_busy,
                busy_accum: &mut self.busy_accum,
                link_base: self.link_base,
                pool: &mut self.pool,
            };
            // A view gets its own buffer from the pool here, so the
            // agent writes in place and never calls the allocator for it.
            match kind {
                EventKind::Deliver { mut pkt, .. } => {
                    pkt.materialize(ctx.pool);
                    ctx.stats.deliveries += 1;
                    ctx.spans.record_dispatch(node.0, parent, SpanKind::Deliver);
                    agent.on_packet(&mut ctx, pkt);
                }
                EventKind::HostInject { mut pkt, .. } => {
                    pkt.materialize(ctx.pool);
                    ctx.spans
                        .record_dispatch(node.0, parent, SpanKind::HostInject);
                    agent.on_host_packet(&mut ctx, pkt);
                }
                EventKind::Timer { tag, .. } => {
                    ctx.stats.timers += 1;
                    // Lazy: recorded only if the handler emits a child
                    // span, so idle probe/control ticks stay off the ring.
                    ctx.spans
                        .stage_dispatch(node.0, parent, SpanKind::Timer { tag });
                    agent.on_timer(&mut ctx, tag);
                }
            }
        }
        // Route emissions: own-shard events go straight to the local
        // queue; cross-shard deliveries wait in the outbox for the next
        // window barrier. Their arrival times exceed the current window's
        // horizon by the lookahead guarantee, so staging them is safe.
        // tango-lint: allow(hot-path-panic) shard_of is total (sentinels map to shard 0) and outbox is sized to the shard count
        for ev in self.out_scratch.drain(..) {
            let dest = ev.kind.dest();
            if dest >= self.node_base && dest < self.node_end {
                self.queue.push(ev);
            } else {
                let dst = shared.part.shard_of(dest);
                if dst == self.index {
                    self.queue.push(ev);
                } else {
                    self.outbox[dst].push(ev);
                    self.load.outbox_events += 1;
                }
            }
        }
        self.agents[local] = Some(agent); // tango-lint: allow(hot-path-panic) node_idx was validated by the same-slot take above
    }

    fn set_agent_local(&mut self, idx: u32, agent: Box<dyn Agent>) {
        let local = idx.wrapping_sub(self.node_base) as usize;
        if let Some(slot) = self.agents.get_mut(local) {
            *slot = Some(agent);
        }
    }

    fn set_clock_local(&mut self, idx: u32, clock: NodeClock) {
        let local = idx.wrapping_sub(self.node_base) as usize;
        if let Some(slot) = self.clocks.get_mut(local) {
            *slot = clock;
        }
    }
}

/// The deterministic discrete-event network simulator.
pub struct NetworkSim {
    shared: SimShared,
    shards: Vec<ShardState>,
    now: SimTime,
    /// External-scheduler sequence counter (origin 0 of [`EventKey`]).
    ext_seq: u64,
    /// Merged run totals (authoritative after each `run_until`).
    stats: SimStats,
    obs: Option<SimObs>,
    /// Resolved execution mode for multi-shard runs.
    threaded: bool,
}

impl NetworkSim {
    /// Build a simulator over a topology.
    pub fn new(topology: Topology, config: SimConfig) -> Self {
        let nodes = NodeTable::build(&topology);
        let links = LinkTable::build(&topology, &nodes);
        let part = Partition::build(&nodes, &links, config.shards.max(1));
        let obs = config.obs.as_ref().map(|r| SimObs::new(r, &nodes, &links));
        let shards: Vec<ShardState> = (0..part.len())
            .map(|s| ShardState::new(s, &part, &nodes, &config))
            .collect();
        let threaded = part.len() > 1 && config.shard_mode == ShardMode::Threaded;
        NetworkSim {
            shared: SimShared {
                topology,
                nodes,
                links,
                fault: config.fault,
                part,
            },
            shards,
            now: SimTime::ZERO,
            ext_seq: 0,
            stats: SimStats::default(),
            obs,
            threaded,
        }
    }

    fn idx_or_sentinel(&self, node: AsId) -> u32 {
        self.shared.nodes.idx(node).unwrap_or(NO_NODE)
    }

    /// The number of shards the node table was partitioned into (may be
    /// smaller than requested: clamped to the node count, and forced to 1
    /// when a cross-shard link would have zero lookahead).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `node` (0 for a node outside the topology).
    /// Whoever wires a zero-delay channel between two nodes' agents must
    /// keep both in one shard — see `TangoPairing::build`.
    pub fn shard_of(&self, node: AsId) -> usize {
        self.shared.part.shard_of(self.idx_or_sentinel(node))
    }

    /// Whether [`NetworkSim::run_until`] runs the shards on worker threads:
    /// [`ShardMode::Threaded`] was asked for and the partition has more
    /// than one shard.
    pub fn is_threaded(&self) -> bool {
        self.threaded
    }

    /// The conservative-synchronization lookahead, ns: the minimum
    /// cross-shard link latency (`u64::MAX` when no link crosses shards,
    /// i.e. windows open to the full horizon).
    pub fn shard_lookahead_ns(&self) -> u64 {
        self.shared.part.lookahead_ns()
    }

    /// Set a node's clock (default: synchronized). The node must exist in
    /// the topology.
    // tango-lint: allow(hot-path-panic) setup-time API with a documented must-exist contract; shard_of is total over interned indices
    pub fn set_clock(&mut self, node: AsId, clock: NodeClock) {
        let idx = self
            .shared
            .nodes
            .idx(node)
            .expect("clock node is in the topology");
        let shard = self.shared.part.shard_of(idx);
        self.shards[shard].set_clock_local(idx, clock);
    }

    /// Install a node's agent (replacing any previous one). The node must
    /// exist in the topology.
    // tango-lint: allow(hot-path-panic) setup-time API with a documented must-exist contract; shard_of is total over interned indices
    pub fn set_agent(&mut self, node: AsId, agent: Box<dyn Agent>) {
        let idx = self
            .shared
            .nodes
            .idx(node)
            .expect("agent node is in the topology");
        let shard = self.shared.part.shard_of(idx);
        self.shards[shard].set_agent_local(idx, agent);
    }

    /// Schedule a packet to enter `node` from its host side at `time`.
    // tango-lint: allow(hot-path-panic) shard_of is total (sentinels map to shard 0), so the shard index is always in range
    pub fn schedule_host_packet(&mut self, time: SimTime, node: AsId, pkt: Packet) {
        self.ext_seq += 1;
        let to = self.idx_or_sentinel(node);
        let ev = QueuedEvent {
            key: EventKey {
                time,
                origin: EXT_ORIGIN,
                seq: self.ext_seq,
            },
            parent: SpanKey::NONE,
            kind: EventKind::HostInject { to, pkt },
        };
        let shard = self.shared.part.shard_of(to);
        self.shards[shard].enqueue_external(ev);
    }

    /// Schedule a timer for `node` at absolute `time` (e.g. the initial
    /// kick of a probe generator).
    // tango-lint: allow(hot-path-panic) shard_of is total (sentinels map to shard 0), so the shard index is always in range
    pub fn schedule_timer_at(&mut self, time: SimTime, node: AsId, tag: u64) {
        self.ext_seq += 1;
        let node = self.idx_or_sentinel(node);
        let ev = QueuedEvent {
            key: EventKey {
                time,
                origin: EXT_ORIGIN,
                seq: self.ext_seq,
            },
            parent: SpanKey::NONE,
            kind: EventKind::Timer { node, tag },
        };
        let shard = self.shared.part.shard_of(node);
        self.shards[shard].enqueue_external(ev);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulation counters (merged across shards; refreshed at the end of
    /// every [`NetworkSim::run_until`]).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The causal span ring, merged across shards into canonical key
    /// order (the flight-recorder view; empty unless
    /// [`SimConfig::span_capacity`] armed it).
    pub fn spans(&self) -> SpanRing {
        SpanRing::merged(self.shards.iter().map(|s| &s.spans))
    }

    /// Deterministic fingerprint of everything observable: the merged
    /// counters plus an order-sensitive hash of the canonical span stream
    /// (`trace=`). Bit-identical runs ⇒ identical digests, regardless of
    /// shard count or execution mode. With `span_capacity` 0 the stream
    /// is empty and the digest covers the counters only.
    ///
    /// # Panics
    ///
    /// If a span ring wrapped: the eviction boundary of a wrapped ring
    /// depends on the shard layout, so a digest over it would not be
    /// shard-invariant. Size [`SimConfig::span_capacity`] to the run.
    pub fn digest(&self) -> String {
        let ring = self.spans();
        let spans = ring.spans();
        assert!(
            ring.total_recorded() == spans.len() as u64,
            "span ring wrapped ({} recorded, {} retained): a digest over it is shard-variant — raise span_capacity",
            ring.total_recorded(),
            spans.len()
        );
        let s = &self.stats;
        format!(
            "tx={} rx={} loss={} outage={} queue={} noroute={} ttl={} timers={} trace={:016x}",
            s.transmissions,
            s.deliveries,
            s.lost_link,
            s.lost_outage,
            s.lost_queue,
            s.no_route,
            s.ttl_expired,
            s.timers,
            tango_trace::export::spans_digest(&spans, ring.total_recorded())
        )
    }

    /// The engine self-profiler: per-shard window/event/queue/outbox
    /// accounting, cumulative since construction. Deterministic —
    /// identical across serial and threaded runners — so callers may
    /// embed it in byte-diffed artifacts (keyed by shard count).
    pub fn shard_load(&self) -> Vec<ShardLoad> {
        self.shards.iter().map(|s| s.load).collect()
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Buffers parked in the packet-buffer freelists (observability).
    pub fn pooled_buffers(&self) -> usize {
        self.shards.iter().map(|s| s.pool.len()).sum()
    }

    /// Run until the queues are empty or simulated time exceeds `until`.
    /// Returns the number of events processed.
    ///
    /// Single-shard runs take the direct path (one window to the
    /// horizon). Multi-shard runs advance in lockstep conservative
    /// windows — serially or on worker threads per the configured
    /// [`ShardMode`] — with bit-identical results either way.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let span_start = self.now.as_ns();
        for s in &mut self.shards {
            s.ev_counts = EvCounts::default();
        }
        let processed = if self.shards.len() == 1 {
            match self.shards.first_mut() {
                Some(s) => s.run_window(&self.shared, until),
                None => 0,
            }
        } else if self.threaded {
            shard::run_threaded(&mut self.shards, &self.shared, until)
        } else {
            shard::run_serial(&mut self.shards, &self.shared, until)
        };
        // Advance every clock to the horizon even where queues went
        // quiet, then merge the per-shard counters into the run totals.
        let mut merged = SimStats::default();
        for s in &mut self.shards {
            if s.now < until {
                s.now = until;
            }
            merged.accumulate(&s.stats);
        }
        self.stats = merged;
        if self.now < until {
            self.now = until;
        }
        if let Some(obs) = &self.obs {
            let mut counts = EvCounts::default();
            for s in &self.shards {
                counts.deliver += s.ev_counts.deliver;
                counts.host_inject += s.ev_counts.host_inject;
                counts.timer += s.ev_counts.timer;
            }
            obs.ev_deliver.add(counts.deliver);
            obs.ev_host_inject.add(counts.host_inject);
            obs.ev_timer.add(counts.timer);
            obs.run_until_ns
                .record(self.now.as_ns().saturating_sub(span_start));
            let mut total = 0u64;
            for s in &self.shards {
                for (offset, &ns) in s.busy_accum.iter().enumerate() {
                    if let Some(gauge) = obs.link_busy.get(s.link_base + offset) {
                        gauge.set(ns);
                    }
                    total = total.saturating_add(ns);
                }
            }
            obs.link_busy_total.set(total);
            obs.publish_stats(&self.stats);
        }
        processed
    }

    /// True if no events are pending on any shard.
    pub fn idle(&self) -> bool {
        self.shards.iter().all(ShardState::is_idle)
    }
}

/// A plain IP router: longest-prefix-match forwarding with hop-limit
/// decrement. The behaviour of every non-Tango node (Vultr borders and
/// transit ASes).
pub struct RouterAgent {
    id: AsId,
    table: PrefixTrie<AsId>,
}

impl RouterAgent {
    /// A router with the given forwarding table (usually built by
    /// `tango_bgp::BgpEngine::forwarding_table`).
    pub fn new(id: AsId, table: PrefixTrie<AsId>) -> Self {
        RouterAgent { id, table }
    }
}

impl Agent for RouterAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        let Some(dst) = pkt.dst_addr() else {
            return ctx.count_no_route(pkt);
        };
        let Some(&next) = self.table.lookup(dst) else {
            return ctx.count_no_route(pkt);
        };
        if next == self.id {
            // Locally destined at a plain router: nothing behind it.
            return ctx.count_no_route(pkt);
        }
        if !pkt.decrement_hop_limit() {
            return ctx.count_ttl_expired(pkt);
        }
        ctx.transmit(next, pkt);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use tango_net::IpCidr;
    use tango_topology::Topology;
    use tango_topology::{AsKind, AsNode, DirectionProfile, LinkProfile};

    fn ipv6_packet(dst: &str, hop_limit: u8) -> Packet {
        let src = "2001:db8:aaaa::1".parse().unwrap();
        let mut pkt = Packet::host(src, dst.parse().unwrap(), 0, 0, 0);
        Ipv6Packet::new_unchecked(pkt.bytes_mut()).set_hop_limit(hop_limit);
        pkt
    }

    /// A 1250-byte packet (payload pads the 40 B header).
    fn big_packet() -> Packet {
        let src = "2001:db8:aaaa::1".parse().unwrap();
        Packet::host(src, "2001:db8:3::1".parse().unwrap(), 1210, 0, 0)
    }

    /// Line topology 1 -- 2 -- 3 with constant 1 ms hops.
    fn line() -> Topology {
        let mut t = Topology::new();
        for id in 1..=3u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        let lp = || LinkProfile::symmetric(DirectionProfile::constant(1_000_000));
        t.add_peering(AsId(1), AsId(2), lp()).unwrap();
        t.add_peering(AsId(2), AsId(3), lp()).unwrap();
        t
    }

    struct SinkAgent {
        received: Arc<AtomicU64>,
        last_local_ns: Arc<AtomicU64>,
    }

    impl Agent for SinkAgent {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.received.fetch_add(1, Ordering::SeqCst);
            self.last_local_ns.store(ctx.local_ns(), Ordering::SeqCst);
        }
    }

    /// When `node` was handed a packet, ns: its `Deliver` spans.
    fn arrivals_at(sim: &NetworkSim, node: AsId) -> Vec<u64> {
        let spans = sim.spans().spans();
        let at_node = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Deliver && s.node == node.0);
        at_node.map(|s| s.key.time_ns).collect()
    }

    fn router_table(entries: &[(&str, u32)]) -> PrefixTrie<AsId> {
        let mut t = PrefixTrie::new();
        for (p, n) in entries {
            t.insert(p.parse::<IpCidr>().unwrap(), AsId(*n));
        }
        t
    }

    fn build_line_sim() -> (NetworkSim, Arc<AtomicU64>, Arc<AtomicU64>) {
        let mut sim = NetworkSim::new(
            line(),
            SimConfig {
                span_capacity: 64,
                ..Default::default()
            },
        );
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(
                AsId(1),
                router_table(&[("2001:db8:3::/48", 2)]),
            )),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(
                AsId(2),
                router_table(&[("2001:db8:3::/48", 3)]),
            )),
        );
        let received = Arc::new(AtomicU64::new(0));
        let local = Arc::new(AtomicU64::new(0));
        sim.set_agent(
            AsId(3),
            Box::new(SinkAgent {
                received: received.clone(),
                last_local_ns: local.clone(),
            }),
        );
        (sim, received, local)
    }

    #[test]
    fn packet_crosses_two_hops_with_exact_delay() {
        let (mut sim, received, _) = build_line_sim();
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 64));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(received.load(Ordering::SeqCst), 1);
        // Delivered after exactly 2 ms (two constant 1 ms hops).
        assert_eq!(arrivals_at(&sim, AsId(3)), vec![2_000_000]);
        assert_eq!(sim.stats().deliveries, 2); // at node 2 and node 3
        assert_eq!(sim.stats().transmissions, 2);
    }

    #[test]
    fn receiver_clock_offset_shows_in_local_time() {
        let (mut sim, _, local) = build_line_sim();
        sim.set_clock(AsId(3), NodeClock::with_offset_ns(500));
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 64));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(local.load(Ordering::SeqCst), 2_000_500);
    }

    #[test]
    fn no_route_counted() {
        let (mut sim, received, _) = build_line_sim();
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:99::1", 64));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(received.load(Ordering::SeqCst), 0);
        assert_eq!(sim.stats().no_route, 1);
    }

    #[test]
    fn ttl_expiry_stops_packet() {
        let (mut sim, received, _) = build_line_sim();
        // hop_limit 1: node 1 decrements -> expires before transmit.
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 1));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(received.load(Ordering::SeqCst), 0);
        assert_eq!(sim.stats().ttl_expired, 1);
    }

    #[test]
    fn forwarding_loop_burns_ttl_not_cpu() {
        // 1 and 2 point at each other: the packet must die by TTL.
        let mut sim = NetworkSim::new(line(), SimConfig::default());
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(
                AsId(1),
                router_table(&[("2001:db8:3::/48", 2)]),
            )),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(
                AsId(2),
                router_table(&[("2001:db8:3::/48", 1)]),
            )),
        );
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 16));
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.idle());
        assert_eq!(sim.stats().ttl_expired, 1);
        assert!(sim.stats().transmissions <= 16);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| run_jittered(seed, 1, ShardMode::Serial).1;
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn link_loss_is_counted() {
        let mut t = Topology::new();
        for id in 1..=2u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        t.add_peering(
            AsId(1),
            AsId(2),
            LinkProfile::symmetric(DirectionProfile::constant(1_000).with_loss(1.0)),
        )
        .unwrap();
        let mut sim = NetworkSim::new(t, SimConfig::default());
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(AsId(1), router_table(&[("::/0", 2)]))),
        );
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 64));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().lost_link, 1);
        assert_eq!(sim.stats().deliveries, 0);
    }

    #[test]
    fn fault_injector_drop_all() {
        let mut sim = NetworkSim::new(
            line(),
            SimConfig {
                fault: Some(FaultInjector::new(1.0, 0.0)),
                ..Default::default()
            },
        );
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(AsId(1), router_table(&[("::/0", 2)]))),
        );
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 64));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().lost_fault, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerAgent {
            fired: Arc<AtomicU64>,
        }
        impl Agent for TimerAgent {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                // Tags must arrive 1, 2, 3... (scheduled at 1 ms spacing).
                let prev = self.fired.fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev + 1, tag);
                if tag < 5 {
                    ctx.schedule_timer(SimTime::from_ms(1), tag + 1);
                }
            }
        }
        let fired = Arc::new(AtomicU64::new(0));
        let mut sim = NetworkSim::new(line(), SimConfig::default());
        sim.set_agent(
            AsId(1),
            Box::new(TimerAgent {
                fired: fired.clone(),
            }),
        );
        sim.schedule_timer_at(SimTime::from_ms(1), AsId(1), 1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(fired.load(Ordering::SeqCst), 5);
        assert_eq!(sim.stats().timers, 5);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim = NetworkSim::new(line(), SimConfig::default());
        sim.run_until(SimTime::from_secs(7));
        assert_eq!(sim.now(), SimTime::from_secs(7));
        assert!(sim.idle());
    }

    #[test]
    fn capacity_serializes_back_to_back_packets() {
        // 100 Mbit/s link: a 1250 B packet occupies it for 100 µs. Three
        // packets injected at the same instant arrive 100 µs apart.
        let mut t = Topology::new();
        for id in 1..=2u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        t.add_peering(
            AsId(1),
            AsId(2),
            LinkProfile::symmetric(
                DirectionProfile::constant(1_000_000).with_capacity(100_000_000, u64::MAX),
            ),
        )
        .unwrap();
        let mut sim = NetworkSim::new(
            t,
            SimConfig {
                span_capacity: 64,
                ..Default::default()
            },
        );
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(AsId(1), router_table(&[("::/0", 2)]))),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(AsId(2), PrefixTrie::new())),
        );
        for _ in 0..3 {
            sim.schedule_host_packet(SimTime::ZERO, AsId(1), big_packet());
        }
        sim.run_until(SimTime::from_secs(1));
        // 1 ms propagation + k × 100 µs serialization.
        assert_eq!(
            arrivals_at(&sim, AsId(2)),
            vec![1_100_000, 1_200_000, 1_300_000]
        );
    }

    #[test]
    fn queue_tail_drop_kicks_in() {
        let mut t = Topology::new();
        for id in 1..=2u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        // Queue cap of 150 µs: the 3rd simultaneous packet (wait 200 µs)
        // is dropped.
        t.add_peering(
            AsId(1),
            AsId(2),
            LinkProfile::symmetric(
                DirectionProfile::constant(1_000_000).with_capacity(100_000_000, 150_000),
            ),
        )
        .unwrap();
        let mut sim = NetworkSim::new(t, SimConfig::default());
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(AsId(1), router_table(&[("::/0", 2)]))),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(AsId(2), PrefixTrie::new())),
        );
        for _ in 0..4 {
            sim.schedule_host_packet(SimTime::ZERO, AsId(1), big_packet());
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().lost_queue, 2, "3rd and 4th exceed the cap");
        assert_eq!(sim.stats().deliveries, 2);
    }

    #[test]
    fn infinite_capacity_links_never_queue() {
        let (mut sim, received, _) = build_line_sim();
        for _ in 0..100 {
            sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 64));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(received.load(Ordering::SeqCst), 100);
        assert_eq!(sim.stats().lost_queue, 0);
        // All arrive at the same instant: no serialization.
        assert!(sim.now() >= SimTime::from_ms(2));
    }

    #[test]
    fn outage_kills_packets_already_in_flight() {
        use tango_topology::{EventKind as TEventKind, LinkEvent, TimeWindow};
        // 1 ms hop; outage window [0.5 ms, 10 ms). A packet sent at t=0
        // is committed to the wire *before* the outage begins but would
        // arrive at 1 ms — mid-window — so the link going down takes it
        // with it. A packet sent at 10.5 ms, after the link is back,
        // survives.
        let mut t = line();
        t.add_event(LinkEvent {
            from: AsId(1),
            to: AsId(2),
            window: TimeWindow::new(500_000, SimTime::from_ms(10).as_ns()),
            kind: TEventKind::Outage,
        })
        .unwrap();
        let mut sim = NetworkSim::new(t, SimConfig::default());
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(AsId(1), router_table(&[("::/0", 2)]))),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(AsId(2), PrefixTrie::new())),
        );
        sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 64));
        sim.schedule_host_packet(
            SimTime(10_500_000),
            AsId(1),
            ipv6_packet("2001:db8:3::1", 64),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.stats().lost_outage,
            1,
            "in-flight packet dies with the link"
        );
        assert_eq!(sim.stats().deliveries, 1, "post-recovery arrival survives");
    }

    #[test]
    fn outage_event_drops_everything_in_window() {
        use tango_topology::{EventKind as TEventKind, LinkEvent, TimeWindow};
        let mut t = line();
        t.add_event(LinkEvent {
            from: AsId(1),
            to: AsId(2),
            window: TimeWindow::new(0, SimTime::from_ms(10).as_ns()),
            kind: TEventKind::Outage,
        })
        .unwrap();
        let mut sim = NetworkSim::new(t, SimConfig::default());
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(AsId(1), router_table(&[("::/0", 2)]))),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(AsId(2), PrefixTrie::new())),
        );
        // One packet inside the outage window, one after.
        sim.schedule_host_packet(
            SimTime::from_ms(5),
            AsId(1),
            ipv6_packet("2001:db8:3::1", 64),
        );
        sim.schedule_host_packet(
            SimTime::from_ms(15),
            AsId(1),
            ipv6_packet("2001:db8:3::1", 64),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().lost_outage, 1);
        assert_eq!(sim.stats().deliveries, 1);
    }

    #[test]
    fn packet_headroom_prepend_strip_roundtrip() {
        let inner = vec![0x45u8, 1, 2, 3];
        let mut pkt = Packet::with_headroom(16, &inner);
        assert_eq!(pkt.bytes(), &inner[..]);
        assert_eq!(pkt.headroom(), 16);
        let hdr = pkt.prepend(8);
        hdr[..8].copy_from_slice(&[9u8; 8]);
        assert_eq!(pkt.len(), inner.len() + 8);
        assert_eq!(pkt.headroom(), 8);
        assert_eq!(&pkt.bytes()[..8], &[9u8; 8]);
        pkt.strip_front(8);
        assert_eq!(pkt.bytes(), &inner[..]);
        assert_eq!(pkt.headroom(), 16);
    }

    #[test]
    fn packet_equality_ignores_headroom() {
        let a = Packet::new(vec![1, 2, 3]);
        let b = Packet::with_headroom(32, &[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn dst_addr_cache_tracks_mutation() {
        let mut pkt = ipv6_packet("2001:db8:3::1", 64);
        let first = pkt.dst_addr().unwrap();
        assert_eq!(first, "2001:db8:3::1".parse::<IpAddr>().unwrap());
        // Cached: a second call without mutation returns the same.
        assert_eq!(pkt.dst_addr(), Some(first));
        // Rewrite the destination through bytes_mut: cache must refresh.
        {
            let bytes = pkt.bytes_mut();
            let mut v = Ipv6Packet::new_unchecked(bytes);
            v.set_dst_addr("2001:db8:3::2".parse().unwrap());
        }
        assert_eq!(
            pkt.dst_addr(),
            Some("2001:db8:3::2".parse::<IpAddr>().unwrap())
        );
    }

    #[test]
    fn decrement_hop_limit_keeps_dst_cache_valid() {
        let mut pkt = ipv6_packet("2001:db8:3::1", 64);
        let before = pkt.dst_addr();
        assert!(pkt.decrement_hop_limit());
        assert_eq!(pkt.bytes()[7], 63);
        assert_eq!(pkt.dst_addr(), before);
    }

    #[test]
    fn decrement_hop_limit_fixes_ipv4_checksum() {
        // A syntactically valid IPv4 header with a correct checksum.
        let mut hdr = vec![
            0x45, 0, 0, 20, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
        ];
        let ck = tango_net::checksum::checksum(&hdr);
        hdr[10..12].copy_from_slice(&ck.to_be_bytes());
        let mut pkt = Packet::new(hdr);
        assert!(pkt.decrement_hop_limit());
        assert_eq!(pkt.bytes()[8], 63);
        assert_eq!(tango_net::checksum::checksum(pkt.bytes()), 0);
    }

    #[test]
    fn dead_packets_feed_the_buffer_pool() {
        // Owned host packets bring their own buffers and never draw from
        // the pool: 1 000 of them dying (no route) leave nothing parked.
        let (mut sim, _, _) = build_line_sim();
        for i in 0..1_000 {
            sim.schedule_host_packet(
                SimTime::from_us(i),
                AsId(1),
                ipv6_packet("2001:db8:99::1", 64),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().no_route, 1_000);
        assert_eq!(sim.pooled_buffers(), 0);

        // Probes do draw: each timer firing allocates K from the pool and
        // sends them to a sink that recycles them. Node 1 recycles 1 000
        // host packets spread over the same 30 ms as well, and the pool
        // still keeps only what the probes have needed at once.
        const K: usize = 5;
        struct Prober;
        impl Agent for Prober {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
                ctx.recycle(pkt);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                for _ in 0..K {
                    let mut probe = ctx.alloc_packet(40);
                    probe.append(&[0; 24]);
                    ctx.transmit(AsId(2), probe);
                }
            }
        }
        struct RecyclingSink;
        impl Agent for RecyclingSink {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
                ctx.recycle(pkt);
            }
        }
        let mut sim = NetworkSim::new(line(), SimConfig::default());
        sim.set_agent(AsId(1), Box::new(Prober));
        sim.set_agent(AsId(2), Box::new(RecyclingSink));
        for ms in [1, 10, 20] {
            sim.schedule_timer_at(SimTime::from_ms(ms), AsId(1), 0);
        }
        for i in 0..1_000 {
            sim.schedule_host_packet(SimTime::from_us(30 * i), AsId(1), big_packet());
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().deliveries, 3 * K as u64);
        assert_eq!(sim.pooled_buffers(), K);
    }

    #[test]
    fn a_dispatched_view_draws_one_pooled_buffer() {
        // `(misses so far, buffers parked)` of the only shard's pool.
        let pool = |sim: &NetworkSim| (sim.shards[0].pool.demand, sim.pooled_buffers());
        struct RecyclingSink;
        impl Agent for RecyclingSink {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
                assert_eq!(pkt.bytes(), big_packet().bytes());
                ctx.recycle(pkt);
            }
        }
        // Node 1 recycles what it is handed; node 3 has no agent.
        let mut sim = NetworkSim::new(line(), SimConfig::default());
        sim.set_agent(AsId(1), Box::new(RecyclingSink));
        let template = big_packet();
        sim.schedule_host_packet(SimTime::from_ms(1), AsId(3), template.clone());
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(sim.stats().no_route, 1);
        assert_eq!(
            pool(&sim),
            (0, 0),
            "dies undispatched: draws and returns nothing"
        );
        sim.schedule_host_packet(SimTime::from_ms(2), AsId(1), template.clone());
        sim.run_until(SimTime::from_ms(2));
        assert_eq!(pool(&sim), (1, 1), "one miss, handed back by the sink");
        for ms in 3..6 {
            sim.schedule_host_packet(SimTime::from_ms(ms), AsId(1), template.clone());
        }
        sim.run_until(SimTime::from_ms(6));
        assert_eq!(
            pool(&sim),
            (1, 1),
            "each later view draws the parked buffer"
        );
        // An owned packet brings its own buffer: no draw, and the pool,
        // already holding as many as it has handed out, frees it.
        sim.schedule_host_packet(SimTime::from_ms(7), AsId(1), big_packet());
        sim.run_until(SimTime::from_ms(7));
        assert_eq!(pool(&sim), (1, 1));
    }

    #[test]
    fn obs_registry_mirrors_sim_counters() {
        let reg = Registry::new();
        let mut sim = NetworkSim::new(
            line(),
            SimConfig {
                obs: Some(reg.clone()),
                ..Default::default()
            },
        );
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(
                AsId(1),
                router_table(&[("2001:db8:3::/48", 2)]),
            )),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(
                AsId(2),
                router_table(&[("2001:db8:3::/48", 3)]),
            )),
        );
        sim.set_agent(
            AsId(3),
            Box::new(RouterAgent::new(AsId(3), PrefixTrie::new())),
        );
        for i in 0..10 {
            sim.schedule_host_packet(
                SimTime::from_ms(i),
                AsId(1),
                ipv6_packet("2001:db8:3::1", 64),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.events.host_inject"], 10);
        assert_eq!(
            snap.counters["sim.events.deliver"],
            sim.stats().deliveries,
            "per-kind event counter tracks the authoritative stat"
        );
        assert_eq!(
            snap.gauges["sim.stats.transmissions"],
            sim.stats().transmissions
        );
        assert_eq!(snap.gauges["sim.stats.no_route"], sim.stats().no_route);
        assert_eq!(snap.histograms["sim.span.run_until_ns"].count, 1);
        // The line topology has no capacity-limited links: busy time is
        // published (per hop and total) and reads zero.
        assert_eq!(snap.gauges["sim.link.busy_ns.total"], 0);
        assert!(snap.gauges.contains_key("sim.link.busy_ns.1-2"));
    }

    #[test]
    fn obs_link_busy_accumulates_on_capacity_links() {
        // 100 Mbit/s: a 1250 B packet occupies the wire for 100 µs.
        let mut t = Topology::new();
        for id in 1..=2u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        t.add_peering(
            AsId(1),
            AsId(2),
            LinkProfile::symmetric(
                DirectionProfile::constant(1_000_000).with_capacity(100_000_000, u64::MAX),
            ),
        )
        .unwrap();
        let reg = Registry::new();
        let mut sim = NetworkSim::new(
            t,
            SimConfig {
                obs: Some(reg.clone()),
                ..Default::default()
            },
        );
        sim.set_agent(
            AsId(1),
            Box::new(RouterAgent::new(AsId(1), router_table(&[("::/0", 2)]))),
        );
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(AsId(2), PrefixTrie::new())),
        );
        for _ in 0..3 {
            sim.schedule_host_packet(SimTime::ZERO, AsId(1), big_packet());
        }
        sim.run_until(SimTime::from_secs(1));
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["sim.link.busy_ns.1-2"], 300_000);
        assert_eq!(snap.gauges["sim.link.busy_ns.total"], 300_000);
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let buf = |cap: usize| {
            let mut b = Vec::with_capacity(cap);
            b.extend_from_slice(&[1, 2, 3]);
            b
        };
        // No miss yet: nothing to keep a buffer for.
        let mut pool = BufferPool::default();
        pool.put(buf(256));
        assert!(pool.is_empty());
        // Three misses: the pool keeps three dead buffers and frees the rest.
        for _ in 0..3 {
            assert_eq!(pool.take().capacity(), 0);
        }
        for _ in 0..5 {
            pool.put(buf(256));
        }
        assert_eq!(pool.len(), 3);
        // A hit hands back a kept buffer's capacity, cleared, and does not
        // raise demand: the slot it frees is the only one to refill.
        let reused = pool.take();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), 256);
        pool.put(buf(512));
        pool.put(buf(512));
        assert_eq!(pool.len(), 3);
        // However often it misses, the pool never keeps more than POOL_MAX.
        let mut pool = BufferPool::default();
        for _ in 0..POOL_MAX + 10 {
            pool.take();
        }
        for _ in 0..POOL_MAX + 10 {
            pool.put(buf(8));
        }
        assert_eq!(pool.len(), POOL_MAX);
    }

    /// Jittered line topology (randomness matters) used by the sharding
    /// equivalence tests.
    fn jittered_line() -> Topology {
        let mut t = Topology::new();
        for id in 1..=3u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        let lp = || {
            LinkProfile::symmetric(
                DirectionProfile::constant(1_000_000)
                    .with_jitter(tango_topology::JitterModel::Gaussian { sigma_ns: 100_000 }),
            )
        };
        t.add_peering(AsId(1), AsId(2), lp()).unwrap();
        t.add_peering(AsId(2), AsId(3), lp()).unwrap();
        t
    }

    #[test]
    fn same_timestamp_batch_preserves_key_order() {
        // Externally scheduled timers on one node, deliberately arriving
        // out of time order so some land in the staged queue and some in
        // the heap. The same-timestamp batch drain must still fire them
        // in canonical key order — and identically for any shard count.
        use std::sync::Mutex;
        struct OrderAgent {
            fired: Arc<Mutex<Vec<u64>>>,
        }
        impl Agent for OrderAgent {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.lock().unwrap().push(tag);
            }
        }
        let run = |shards: usize| {
            let fired = Arc::new(Mutex::new(Vec::new()));
            let mut sim = NetworkSim::new(
                line(),
                SimConfig {
                    shards,
                    shard_mode: ShardMode::Serial,
                    ..Default::default()
                },
            );
            sim.set_agent(
                AsId(1),
                Box::new(OrderAgent {
                    fired: fired.clone(),
                }),
            );
            // Scheduling order: (2ms, 100), (1ms, 1), (1ms, 2), (2ms, 101).
            // The 1 ms timers arrive after a later-timed one and go to the
            // heap; the 2 ms timers stage in order. The merged drain must
            // fire [1, 2, 100, 101].
            sim.schedule_timer_at(SimTime::from_ms(2), AsId(1), 100);
            sim.schedule_timer_at(SimTime::from_ms(1), AsId(1), 1);
            sim.schedule_timer_at(SimTime::from_ms(1), AsId(1), 2);
            sim.schedule_timer_at(SimTime::from_ms(2), AsId(1), 101);
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(sim.stats().timers, 4);
            let order = fired.lock().unwrap().clone();
            order
        };
        assert_eq!(run(1), vec![1, 2, 100, 101]);
        assert_eq!(run(2), vec![1, 2, 100, 101]);
        assert_eq!(run(3), vec![1, 2, 100, 101]);
    }

    /// 50 packets down the jittered line: stats, span stream, digest and
    /// the processed-event count.
    fn run_jittered(
        seed: u64,
        shards: usize,
        shard_mode: ShardMode,
    ) -> (SimStats, Vec<tango_trace::Span>, String, u64) {
        let mut sim = NetworkSim::new(
            jittered_line(),
            SimConfig {
                seed,
                span_capacity: 4096,
                shards,
                shard_mode,
                ..Default::default()
            },
        );
        for (id, next) in [(1, 2), (2, 3)] {
            let table = router_table(&[("2001:db8:3::/48", next)]);
            sim.set_agent(AsId(id), Box::new(RouterAgent::new(AsId(id), table)));
        }
        sim.set_agent(
            AsId(3),
            Box::new(RouterAgent::new(AsId(3), PrefixTrie::new())),
        );
        for i in 0..50 {
            sim.schedule_host_packet(
                SimTime::from_ms(i),
                AsId(1),
                ipv6_packet("2001:db8:3::1", 64),
            );
        }
        let processed = sim.run_until(SimTime::from_secs(2));
        (*sim.stats(), sim.spans().spans(), sim.digest(), processed)
    }

    #[test]
    fn sharded_run_matches_single_shard() {
        // The tentpole invariant in miniature: stats and spans must be
        // bit-identical across shard counts and execution modes.
        let baseline = run_jittered(42, 1, ShardMode::Serial);
        assert!(baseline.3 > 0, "baseline must process events");
        for shards in [2usize, 3] {
            for mode in [ShardMode::Serial, ShardMode::Threaded] {
                let got = run_jittered(42, shards, mode);
                assert_eq!(
                    got, baseline,
                    "shards={shards} mode={mode:?} diverged from single-shard"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "span ring wrapped (120 recorded, 64 retained)")]
    fn digest_rejects_a_wrapped_ring() {
        // 24 packets × (inject + 2 × (tx + deliver)) overflow the 64-span
        // ring of `build_line_sim`.
        let (mut sim, _, _) = build_line_sim();
        for i in 0..24 {
            sim.schedule_host_packet(
                SimTime::from_ms(i),
                AsId(1),
                ipv6_packet("2001:db8:3::1", 64),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        sim.digest();
    }

    // The slow reference for `EventHeap`: the heap of whole events it
    // replaced, ordered by key alone.
    impl PartialEq for QueuedEvent {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for QueuedEvent {}
    impl PartialOrd for QueuedEvent {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for QueuedEvent {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    proptest::proptest! {
        #[test]
        fn event_heap_pops_in_binary_heap_order_and_reuses_slots(
            ops in proptest::collection::vec((0u8..3, 0u64..4, 0u32..3), 1..200),
        ) {
            // Times and origins collide constantly; `seq` (the payload
            // tag too) keeps keys unique, as emission counters do.
            let event = |time, origin, seq| QueuedEvent {
                key: EventKey { time: SimTime(time), origin, seq },
                parent: SpanKey::NONE,
                kind: EventKind::Timer { node: origin, tag: seq },
            };
            let tag = |ev: QueuedEvent| match ev.kind {
                EventKind::Timer { tag, .. } => (ev.key, tag),
                _ => unreachable!("only timers are pushed"),
            };
            let mut heap = EventHeap::default();
            let mut reference = BinaryHeap::new();
            let mut peak = 0;
            for (seq, &(op, time, origin)) in ops.iter().enumerate() {
                if op == 0 {
                    let want = reference.pop().map(|Reverse(ev)| tag(ev));
                    proptest::prop_assert_eq!(heap.pop().map(tag), want);
                } else {
                    heap.push(event(time, origin, seq as u64));
                    reference.push(Reverse(event(time, origin, seq as u64)));
                }
                peak = peak.max(reference.len());
                proptest::prop_assert_eq!(heap.len(), reference.len());
                proptest::prop_assert_eq!(heap.peek_key(), reference.peek().map(|Reverse(ev)| ev.key));
                proptest::prop_assert!(heap.slab.len() <= peak, "popped slots are reused");
            }
            while let Some(Reverse(ev)) = reference.pop() {
                proptest::prop_assert_eq!(heap.pop().map(tag), Some(tag(ev)));
            }
            proptest::prop_assert!(heap.pop().is_none());
        }
    }

    #[test]
    fn partition_forced_serial_when_requested_shards_exceed_nodes() {
        let sim = NetworkSim::new(
            line(),
            SimConfig {
                shards: 64,
                ..Default::default()
            },
        );
        assert!(sim.shard_count() <= 3);
        assert!(sim.shard_lookahead_ns() >= 500_000);
    }
}
