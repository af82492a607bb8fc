//! Property-based equivalence of the sharded engine (DESIGN.md §11):
//! for random small topologies, workloads, and seeds, running the same
//! simulation under 1 shard, N shards serial, and N shards threaded
//! produces identical `SimStats`, identical canonical span streams, and
//! an identical observability export — and the span stream alone
//! reproduces every packet counter of `SimStats`.
//!
//! The agents here are deliberately rng-hungry relays — every delivery
//! draws from the node's stream to pick the next hop — so any slip in
//! the per-node RNG derivation, the conservative window math, or the
//! barrier merge order shows up as a diverging stream within a few hops.
//! The world is hostile on purpose (lossy and capacity-limited links, an
//! outage, a fault injector, relays that misroute, one node with no
//! agent at all), so every `DropReason` occurs.

use proptest::prelude::*;
use rand::Rng;
use tango_obs::Registry;
use tango_sim::{
    Agent, Ctx, FaultInjector, NetworkSim, Packet, ShardMode, SimConfig, SimStats, SimTime, Span,
};
use tango_topology::{
    AsId, AsKind, AsNode, DirectionProfile, EventKind, JitterModel, LinkEvent, LinkProfile,
    TimeWindow, Topology,
};

/// First AS id; nodes are `BASE_ID..BASE_ID + n`.
const BASE_ID: u32 = 100;

/// One generated world: a ring of `n` nodes (always connected) plus
/// random chords, each hop with its own delay and optional jitter.
/// Node indices are generated in `0..8` and reduced modulo `n` at build
/// time (the vendored proptest has no `prop_flat_map` to make the
/// ranges depend on `n`).
#[derive(Debug, Clone)]
struct World {
    n: usize,
    chords: Vec<(usize, usize)>,
    delays_ns: Vec<u64>,
    jitter: Vec<bool>,
    /// (at_ms, source node index, hop budget, payload byte)
    injections: Vec<(u64, usize, u8, u8)>,
    /// (at_ms, node index, timer tag)
    timers: Vec<(u64, usize, u64)>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        3usize..=8,
        proptest::collection::vec((0usize..8, 0usize..8), 0..5),
        proptest::collection::vec(200_000u64..4_000_000, 16),
        proptest::collection::vec(any::<bool>(), 16),
        proptest::collection::vec((1u64..40, 0usize..8, 1u8..5, any::<u8>()), 1..10),
        proptest::collection::vec((1u64..40, 0usize..8, any::<u64>()), 0..6),
    )
        .prop_map(|(n, chords, delays_ns, jitter, injections, timers)| World {
            n,
            chords,
            delays_ns,
            jitter,
            injections,
            timers,
        })
}

fn build_topology(w: &World) -> Topology {
    let mut t = Topology::new();
    for i in 0..w.n {
        t.add_node(AsNode::new(
            BASE_ID + i as u32,
            AsKind::Transit,
            format!("n{i}"),
        ))
        .expect("ids unique");
    }
    let mut edge = 0usize;
    let profile = |edge: usize| {
        let mut p = DirectionProfile::constant(w.delays_ns[edge % w.delays_ns.len()]);
        if w.jitter[edge % w.jitter.len()] {
            p = p.with_jitter(JitterModel::Uniform { range_ns: 100_000 });
        }
        if w.jitter[(edge + 5) % w.jitter.len()] {
            p = p.with_loss(0.2);
        }
        if edge == 1 {
            // A 2-byte packet holds this wire for 2 ms and nothing may
            // queue: near-simultaneous packets tail-drop.
            p = p.with_capacity(8_000, 0);
        }
        LinkProfile::symmetric(p)
    };
    for i in 0..w.n {
        let j = (i + 1) % w.n;
        if t.add_peering(
            AsId(BASE_ID + i as u32),
            AsId(BASE_ID + j as u32),
            profile(edge),
        )
        .is_ok()
        {
            edge += 1;
        }
    }
    for &(a, b) in &w.chords {
        let (a, b) = (a % w.n, b % w.n);
        if a == b {
            continue;
        }
        // Duplicate edges are rejected by the topology; skipping them
        // keeps the generator simple without losing cases.
        if t.add_peering(
            AsId(BASE_ID + a as u32),
            AsId(BASE_ID + b as u32),
            profile(edge),
        )
        .is_ok()
        {
            edge += 1;
        }
    }
    t.add_event(LinkEvent {
        from: AsId(BASE_ID),
        to: AsId(BASE_ID + 1),
        window: TimeWindow::new(10_000_000, 25_000_000),
        kind: EventKind::Outage,
    })
    .expect("the ring's first edge exists");
    t
}

/// Forwards every arriving packet to a random neighbor until its hop
/// budget (payload byte 0) runs out; timers also launch fresh packets.
/// Every decision consumes node-local rng, which is exactly what the
/// equivalence property needs to stress. Payload byte 1 picks the
/// occasional misroute: a table miss, or a next hop that is no neighbor.
struct RelayAgent {
    neighbors: Vec<AsId>,
}

impl RelayAgent {
    fn hop(&self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        let (Some(&budget), Some(&route)) = (pkt.bytes().first(), pkt.bytes().get(1)) else {
            return;
        };
        if budget == 0 {
            return ctx.count_ttl_expired(pkt);
        }
        if route % 11 == 0 {
            return ctx.count_no_route(pkt);
        }
        let mut next = self.neighbors[ctx.rng().gen_range(0..self.neighbors.len())];
        if route % 7 == 0 {
            next = AsId(BASE_ID - 1);
        }
        pkt.bytes_mut()[0] = budget - 1;
        ctx.transmit(next, pkt);
    }
}

impl Agent for RelayAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.hop(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let budget = (tag % 4) as u8 + 1;
        self.hop(ctx, Packet::new(vec![budget, (tag >> 8) as u8]));
    }
}

fn run(w: &World, seed: u64, shards: usize, mode: ShardMode) -> (SimStats, Vec<Span>, String) {
    let topology = build_topology(w);
    let registry = Registry::default();
    let mut sim = NetworkSim::new(
        topology.clone(),
        SimConfig {
            seed,
            span_capacity: 1 << 14,
            fault: Some(FaultInjector::new(0.05, 0.05)),
            shards,
            shard_mode: mode,
            obs: Some(registry.clone()),
        },
    );
    // The last node gets no agent: whatever is delivered to or injected
    // at it evaporates as a `NoRoute` drop, and its timers fire silently.
    let agentless = AsId(BASE_ID + w.n as u32 - 1);
    for node in topology.nodes() {
        if node.id == agentless {
            continue;
        }
        let neighbors = topology.neighbors(node.id).to_vec();
        sim.set_agent(node.id, Box::new(RelayAgent { neighbors }));
    }
    for &(at_ms, src, budget, payload) in &w.injections {
        sim.schedule_host_packet(
            SimTime::from_ms(at_ms),
            AsId(BASE_ID + (src % w.n) as u32),
            Packet::new(vec![budget, payload]),
        );
    }
    for &(at_ms, node, tag) in &w.timers {
        sim.schedule_timer_at(
            SimTime::from_ms(at_ms),
            AsId(BASE_ID + (node % w.n) as u32),
            tag,
        );
    }
    sim.run_until(SimTime::from_ms(200));
    let ring = sim.spans();
    let spans = ring.spans();
    assert_eq!(
        ring.total_recorded(),
        spans.len() as u64,
        "the ring is sized to never wrap"
    );
    (*sim.stats(), spans, registry.snapshot().to_json())
}

proptest! {
    /// The tentpole property: shard count and execution mode are
    /// unobservable. Stats, spans, and telemetry are bit-identical.
    #[test]
    fn sharding_is_unobservable(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 2usize..=4,
    ) {
        let (stats1, trace1, obs1) = run(&w, seed, 1, ShardMode::Serial);
        let (stats_s, trace_s, obs_s) = run(&w, seed, shards, ShardMode::Serial);
        let (stats_t, trace_t, obs_t) = run(&w, seed, shards, ShardMode::Threaded);

        prop_assert_eq!(stats1, stats_s, "serial multi-shard stats diverged");
        prop_assert_eq!(stats1, stats_t, "threaded multi-shard stats diverged");
        prop_assert_eq!(&trace1, &trace_s, "serial multi-shard trace diverged");
        prop_assert_eq!(&trace1, &trace_t, "threaded multi-shard trace diverged");
        prop_assert_eq!(&obs1, &obs_s, "serial multi-shard telemetry diverged");
        prop_assert_eq!(&obs1, &obs_t, "threaded multi-shard telemetry diverged");
    }

    /// Re-running the same world with the same seed and shard count is
    /// bit-identical too (no hidden global state across runs).
    #[test]
    fn repeat_runs_are_reproducible(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 1usize..=3,
    ) {
        let a = run(&w, seed, shards, ShardMode::Serial);
        let b = run(&w, seed, shards, ShardMode::Serial);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// The span stream is the one record: every packet counter of
    /// `SimStats` is a count of spans, under any shard count and mode.
    #[test]
    fn counters_are_derivable_from_spans(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 1usize..=4,
        threaded in any::<bool>(),
    ) {
        use tango_sim::{DropReason, SpanKind};
        let mode = if threaded { ShardMode::Threaded } else { ShardMode::Serial };
        let (stats, spans, _) = run(&w, seed, shards, mode);
        let count = |f: &dyn Fn(SpanKind) -> bool| spans.iter().filter(|s| f(s.kind)).count() as u64;
        prop_assert_eq!(count(&|k| matches!(k, SpanKind::Tx { .. })), stats.transmissions);
        prop_assert_eq!(count(&|k| k == SpanKind::Deliver), stats.deliveries);
        for (reason, counter) in [
            (DropReason::NoLink, stats.no_link),
            (DropReason::LossLink, stats.lost_link),
            (DropReason::LossOutage, stats.lost_outage),
            (DropReason::LossFault, stats.lost_fault),
            (DropReason::LossQueue, stats.lost_queue),
            (DropReason::NoRoute, stats.no_route),
            (DropReason::TtlExpired, stats.ttl_expired),
        ] {
            prop_assert_eq!(
                count(&|k| k == SpanKind::Drop { reason }),
                counter,
                "drop spans vs counter for {:?}", reason
            );
        }
    }
}
