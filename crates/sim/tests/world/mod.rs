//! The hostile random worlds the engine's properties run: a ring of
//! 3–8 nodes plus random chords, lossy, jittered and capacity-limited
//! hops, an outage, a fault injector, relays that misroute and one node
//! with no agent at all, so every `DropReason` occurs.
//!
//! The agents are deliberately rng-hungry relays — every delivery draws
//! from the node's stream to pick the next hop — so any slip in the
//! per-node RNG derivation, the event order or the parent plumbing shows
//! up as a diverging stream within a few hops.

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
pub struct World {
    n: usize,
    chords: Vec<(usize, usize)>,
    delays_ns: Vec<u64>,
    jitter: Vec<bool>,
    /// (at_ms, source node index, hop budget, payload byte)
    injections: Vec<(u64, usize, u8, u8)>,
    /// (at_ms, node index, timer tag)
    timers: Vec<(u64, usize, u64)>,
}

pub fn world_strategy() -> impl Strategy<Value = World> {
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

/// The world's topology, its outage window `shift_ns` later than the
/// unshifted world's.
fn build_topology(w: &World, shift_ns: u64) -> Topology {
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
        window: TimeWindow::new(10_000_000 + shift_ns, 25_000_000 + shift_ns),
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

/// Run `w` for 200 ms under `seed` on `shards` shards: its stats, its
/// canonical span stream and its telemetry export. Every scheduled event,
/// the outage and the horizon come `shift_ns` later than at shift 0.
pub fn run(
    w: &World,
    seed: u64,
    shards: usize,
    mode: ShardMode,
    shift_ns: u64,
) -> (SimStats, Vec<Span>, String) {
    let topology = build_topology(w, shift_ns);
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
            SimTime::from_ms(at_ms) + SimTime(shift_ns),
            AsId(BASE_ID + (src % w.n) as u32),
            Packet::new(vec![budget, payload]),
        );
    }
    for &(at_ms, node, tag) in &w.timers {
        sim.schedule_timer_at(
            SimTime::from_ms(at_ms) + SimTime(shift_ns),
            AsId(BASE_ID + (node % w.n) as u32),
            tag,
        );
    }
    sim.run_until(SimTime::from_ms(200) + SimTime(shift_ns));
    let ring = sim.spans();
    let spans = ring.spans();
    assert_eq!(
        ring.total_recorded(),
        spans.len() as u64,
        "the ring is sized to never wrap"
    );
    (*sim.stats(), spans, registry.snapshot().to_json())
}
