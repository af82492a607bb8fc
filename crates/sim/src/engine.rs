//! The discrete-event core: the events, the shard that drains them, and
//! the [`NetworkSim`] that runs the shards.
//!
//! The rest of the engine is one concept per module: `crate::packet`
//! (the bytes in flight and their buffer pool), `crate::tables` (the
//! interned node and link tables), `crate::ctx` (the [`Agent`] trait and
//! the [`Ctx`] its handlers receive, including the link model),
//! `crate::stats` (counters and telemetry) and `crate::router` (the
//! plain IP router).
//!
//! ## Fast-path layout
//!
//! The inner loop (pop event → dispatch → transmit) is allocation- and
//! pointer-chase-free by construction: the tables are dense
//! (`crate::tables`), packets carry their parse and hash caches and draw
//! pooled buffers (`crate::packet`), and the pending-event queue
//! (`crate::queue`) is a ladder queue over a slab of events: buckets are
//! lists threaded through the slab, their width taken from the pending
//! events, so ordering never moves a packet.
//!
//! A pending event is 96 bytes (`QueuedEvent`: a 16-byte `EventKey`,
//! its parent's 16-byte key and a 64-byte `EventKind`); a staged
//! external event is 80, its key and kind, since an external event never
//! has a parent. The key packs origin and seq into one word, which
//! bounds both: see `EventKey`.
//!
//! ## Sharding
//!
//! The node table is partitioned into contiguous shards (see
//! `crate::shard`), each owning its nodes, their outgoing links, a private
//! ladder+staged event queue, per-node RNG streams, and per-shard stats and
//! span rings. Shards advance in lockstep conservative windows whose
//! width is the minimum cross-shard link latency; cross-shard deliveries
//! travel through per-shard outboxes exchanged at window barriers. Every
//! event carries a canonical `EventKey` `(time, origin, seq)` that is a
//! function of stable identities only, so any shard count — and serial
//! vs. threaded execution — produces bit-identical stats, spans, and
//! telemetry. The determinism argument is written out in DESIGN.md §11.

use crate::clock::NodeClock;
use crate::ctx::{Agent, Ctx};
use crate::fault::FaultInjector;
use crate::hash::mix64;
use crate::packet::{BufferPool, Packet};
use crate::queue::EventQueue;
use crate::shard::{self, Partition, ShardMode};
use crate::stats::{EvCounts, ShardLoad, SimObs, SimStats};
use crate::tables::{LinkTable, NodeTable};
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use tango_obs::Registry;
use tango_topology::{AsId, Topology};
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

/// Bits of [`EventKey`]'s packed word that hold the emission seq (the
/// low ones); the origin takes the high [`ORIGIN_BITS`].
const SEQ_BITS: u32 = 40;
const ORIGIN_BITS: u32 = u64::BITS - SEQ_BITS;
/// Largest emission seq a key holds: 2^40 − 1 ≈ 1.1 × 10^12 emissions
/// per origin. The paper's 8-day trace at 10 000 packets/s is
/// 6.9 × 10^9 events.
const SEQ_MAX: u64 = (1 << SEQ_BITS) - 1;
/// The all-ones origin, reserved for [`EventKey::NONE`].
const ORIGIN_NONE: u32 = (1 << ORIGIN_BITS) - 1;
/// Most nodes a topology may have: node `idx` emits with origin
/// `idx + 1`, which must stay below [`ORIGIN_NONE`]. [`NetworkSim::new`]
/// refuses a larger topology.
const MAX_NODES: usize = ORIGIN_NONE as usize - 1;

/// The canonical, globally unique ordering key of an event: virtual time,
/// emitting origin (0 = external scheduler, node idx + 1 otherwise), and
/// the origin's private emission sequence number. A pure function of
/// stable identities — independent of shard layout and of the realized
/// execution interleaving — which is the whole determinism argument:
/// sorting any distribution of events by key reproduces one total order.
///
/// 16 bytes: `origin` and `seq` share one word under `time`, origin in
/// the high 24 bits and seq in the low 40, so the derived order is
/// exactly lexicographic `(time, origin, seq)`. Origins stop below the
/// reserved all-ones one (at most [`MAX_NODES`] nodes, checked when the
/// simulator is built) and seqs at [`SEQ_MAX`] (checked per key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    pub(crate) time: SimTime,
    origin_seq: u64,
}

impl EventKey {
    /// "No parent": what an externally scheduled event carries. Its
    /// origin is the reserved all-ones one, so no real key equals it.
    pub(crate) const NONE: EventKey = EventKey {
        time: SimTime(u64::MAX),
        origin_seq: u64::MAX,
    };

    /// The key of `origin`'s emission number `seq` at `time`.
    ///
    /// # Panics
    ///
    /// If `seq` exceeds [`SEQ_MAX`]: it would spill into the origin bits
    /// and reorder the run.
    #[inline]
    pub(crate) fn new(time: SimTime, origin: u32, seq: u64) -> Self {
        assert!(
            seq <= SEQ_MAX,
            "emission seq {seq} exceeds the key's 40 bits"
        );
        debug_assert!(
            origin < ORIGIN_NONE,
            "origin {origin} exceeds the key's 24 bits"
        );
        EventKey {
            time,
            origin_seq: (u64::from(origin) << SEQ_BITS) | seq,
        }
    }

    pub(crate) fn origin(self) -> u32 {
        (self.origin_seq >> SEQ_BITS) as u32
    }

    pub(crate) fn seq(self) -> u64 {
        self.origin_seq & SEQ_MAX
    }

    /// The span key of this event's dispatch (intra 0): what its
    /// dispatch records and parents children to. [`EventKey::NONE`]
    /// maps to [`SpanKey::NONE`].
    #[inline]
    pub(crate) fn span(self) -> SpanKey {
        if self == EventKey::NONE {
            return SpanKey::NONE;
        }
        SpanKey {
            time_ns: self.time.as_ns(),
            origin: self.origin(),
            seq: self.seq(),
            intra: 0,
        }
    }
}

pub(crate) struct QueuedEvent {
    pub(crate) key: EventKey,
    /// The key of the dispatch that scheduled this event
    /// ([`EventKey::NONE`] for externally scheduled roots); its
    /// [`EventKey::span`] is the parent span. Plain data — it rides
    /// along even with the span ring disarmed, so the causal link
    /// survives shard outbox handoffs unconditionally.
    pub(crate) parent: EventKey,
    pub(crate) kind: EventKind,
}

// Every pending event occupies one of these (slab slot, batch, outbox):
// a larger one grows every queue. A staged external event is smaller.
const _: () = assert!(std::mem::size_of::<QueuedEvent>() <= 96);
const _: () = assert!(std::mem::size_of::<(EventKey, EventKind)>() <= 80);

/// Refuse a node table whose origins would not fit [`EventKey`] (the
/// setup-time contract of [`NetworkSim::new`]).
fn assert_origins_fit(nodes: usize) {
    assert!(
        nodes <= MAX_NODES,
        "{nodes} nodes: an event key's origin field holds at most {MAX_NODES}"
    );
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

/// The topology-derived state every shard reads and none mutates: safe to
/// share by reference across worker threads for the duration of a window.
pub(crate) struct SimShared {
    pub(crate) topology: Topology,
    pub(crate) nodes: NodeTable,
    pub(crate) links: LinkTable,
    pub(crate) fault: Option<FaultInjector>,
    pub(crate) part: Partition,
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
    queue: EventQueue,
    /// Externally scheduled events whose keys arrived in non-decreasing
    /// order — the common case for pre-scheduled traffic. Kept out of
    /// the ladder and merged lazily at pop time: a FIFO costs less
    /// memory per pre-loaded packet than the slab's link words and
    /// bucket heads. An entry is a key and a kind: every staged event
    /// has the external origin and no parent.
    staged: VecDeque<(EventKey, EventKind)>,
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
            queue: EventQueue::default(),
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

    /// Stage or queue an externally scheduled event: events arriving in
    /// key order append to the staged FIFO in O(1); out-of-order
    /// stragglers go to the ladder. The pop-side merge preserves the
    /// exact global key order either way.
    fn enqueue_external(&mut self, key: EventKey, kind: EventKind) {
        let in_order = self.staged.back().map_or(true, |&(b, _)| b <= key);
        if in_order {
            self.staged.push_back((key, kind));
        } else {
            self.queue.push(QueuedEvent {
                key,
                parent: EventKey::NONE,
                kind,
            });
        }
    }

    /// The key of the earliest pending event, if any.
    fn peek_key(&self) -> Option<EventKey> {
        let queued = self.queue.peek_key();
        let staged = self.staged.front().map(|&(k, _)| k);
        match (queued, staged) {
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
    /// ladder+staged queues, in canonical key order — into `out` in one
    /// pass (the same-timestamp batch drain; new events emitted *by*
    /// the batch land at later keys or form the next batch).
    fn drain_batch_at(&mut self, t: SimTime, out: &mut Vec<QueuedEvent>) {
        loop {
            let queued_key = self.queue.peek_key().filter(|k| k.time == t);
            let staged_key = self.staged.front().map(|&(k, _)| k).filter(|k| k.time == t);
            let take_staged = match (queued_key, staged_key) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(h), Some(s)) => s < h,
            };
            // The peeks above guarantee the chosen queue is non-empty;
            // break (never panic) if that ever stops holding.
            let ev = if take_staged {
                self.staged.pop_front().map(|(key, kind)| QueuedEvent {
                    key,
                    parent: EventKey::NONE,
                    kind,
                })
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
                self.dispatch(shared, ev.key, ev.parent.span(), ev.kind);
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
    /// capacity (queued: they arrive beyond the closed window, in no
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
            .begin_dispatch(key.time.as_ns(), key.origin(), key.seq());
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
        {
            // tango-lint: allow(hot-path-panic) local was validated by the agents lookup above; rngs/node_seq are sized to the same node range
            let mut ctx = Ctx::new(
                shared,
                key,
                node_idx,
                clock,
                &mut self.rngs[local],
                &mut self.node_seq[local],
                &mut self.stats,
                &mut self.spans,
                &mut self.out_scratch,
                &mut self.link_busy,
                &mut self.busy_accum,
                self.link_base,
                &mut self.pool,
            );
            let node = ctx.node;
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
    ///
    /// # Panics
    ///
    /// If the topology has more than 16 777 214 nodes: node `idx`
    /// emits with origin `idx + 1`, and an event key holds 24 bits of
    /// origin, the all-ones one reserved.
    pub fn new(topology: Topology, config: SimConfig) -> Self {
        let nodes = NodeTable::build(&topology);
        assert_origins_fit(nodes.len());
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

    /// Schedule a packet to enter `node` from its host side at `time`,
    /// or at [`NetworkSim::now`] if `time` is already past: simulated
    /// time never runs backwards (the saturating rule of
    /// [`Ctx::transmit`] and [`Ctx::schedule_timer`]).
    // tango-lint: allow(hot-path-panic) shard_of is total (sentinels map to shard 0), so the shard index is always in range
    pub fn schedule_host_packet(&mut self, time: SimTime, node: AsId, pkt: Packet) {
        let time = time.max(self.now);
        self.ext_seq += 1;
        let to = self.idx_or_sentinel(node);
        let key = EventKey::new(time, EXT_ORIGIN, self.ext_seq);
        let shard = self.shared.part.shard_of(to);
        self.shards[shard].enqueue_external(key, EventKind::HostInject { to, pkt });
    }

    /// Schedule a timer for `node` at absolute `time` (e.g. the initial
    /// kick of a probe generator), or at [`NetworkSim::now`] if `time`
    /// is already past, as [`NetworkSim::schedule_host_packet`] does.
    // tango-lint: allow(hot-path-panic) shard_of is total (sentinels map to shard 0), so the shard index is always in range
    pub fn schedule_timer_at(&mut self, time: SimTime, node: AsId, tag: u64) {
        let time = time.max(self.now);
        self.ext_seq += 1;
        let node = self.idx_or_sentinel(node);
        let key = EventKey::new(time, EXT_ORIGIN, self.ext_seq);
        let shard = self.shared.part.shard_of(node);
        self.shards[shard].enqueue_external(key, EventKind::Timer { node, tag });
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

#[cfg(test)]
mod tests;
