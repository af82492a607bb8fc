//! What the simulator counts: the authoritative [`SimStats`] counters,
//! the per-shard [`ShardLoad`] self-profiler, and the `tango-obs`
//! telemetry that mirrors them (`SimObs`, fed per `run_until` from
//! `EvCounts` and the shards' link-busy tables).

use crate::tables::{LinkTable, NodeTable};
use tango_obs::{Counter, Gauge, Histogram, Registry};

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

/// Pre-registered metric handles for the simulator's own telemetry.
/// Built once at construction; the event loop tracks plain `u64` locals
/// and flushes them here at the end of each [`NetworkSim::run_until`],
/// so instrumentation adds no atomics to the per-event path.
#[derive(Debug)]
pub(crate) struct SimObs {
    pub(crate) ev_deliver: Counter,
    pub(crate) ev_host_inject: Counter,
    pub(crate) ev_timer: Counter,
    pub(crate) run_until_ns: Histogram,
    /// Dense link id → cumulative wire-busy-time gauge.
    pub(crate) link_busy: Vec<Gauge>,
    pub(crate) link_busy_total: Gauge,
    stats: [Gauge; 11],
}

impl SimObs {
    pub(crate) fn new(registry: &Registry, nodes: &NodeTable, links: &LinkTable) -> Self {
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
    pub(crate) fn publish_stats(&self, s: &SimStats) {
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
