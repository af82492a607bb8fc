//! The engine's tests: each drives a whole [`NetworkSim`] — the link
//! model, routers, pool, telemetry and shards through one run — except
//! the last few, which check the packed [`EventKey`] and its bounds.

use super::*;
use crate::packet::tests::ipv6_packet;
use crate::router::RouterAgent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tango_net::IpCidr;
use tango_net::PrefixTrie;
use tango_topology::Topology;
use tango_topology::{AsKind, AsNode, DirectionProfile, LinkProfile};

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
fn ipv4_host_packet_is_no_route() {
    // Default routes in both families: only the version nibble keeps the
    // packet from being forwarded.
    let mut sim = NetworkSim::new(line(), SimConfig::default());
    let table = router_table(&[("::/0", 2), ("0.0.0.0/0", 2)]);
    sim.set_agent(AsId(1), Box::new(RouterAgent::new(AsId(1), table)));
    sim.set_agent(
        AsId(2),
        Box::new(RouterAgent::new(AsId(2), PrefixTrie::new())),
    );
    // 10.0.0.1 -> 10.0.0.2, TTL 64, UDP, 20 B header + 20 B payload, with
    // a correct header checksum.
    let mut v4 = vec![
        0x45, 0, 0, 40, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
    ];
    let ck = tango_net::checksum::checksum(&v4);
    v4[10..12].copy_from_slice(&ck.to_be_bytes());
    v4.resize(40, 0);
    sim.schedule_host_packet(SimTime::ZERO, AsId(1), Packet::new(v4));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.stats().no_route, 1);
    assert_eq!(sim.stats().transmissions, 0);
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
fn scheduling_before_now_fires_at_now() {
    // `run_until(7 s)`, then a timer and a host packet scheduled for 1 s:
    // both dispatch at 7 s, never back in time, and every shard count
    // and mode agrees on the run.
    use std::sync::Mutex;
    struct NowAgent {
        seen: Arc<Mutex<Vec<SimTime>>>,
    }
    impl Agent for NowAgent {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.seen.lock().unwrap().push(ctx.now());
            ctx.transmit(AsId(2), pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            self.seen.lock().unwrap().push(ctx.now());
            ctx.transmit(AsId(2), big_packet());
        }
    }
    let run = |shards: usize, shard_mode: ShardMode| {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sim = NetworkSim::new(
            line(),
            SimConfig {
                span_capacity: 64,
                shards,
                shard_mode,
                ..Default::default()
            },
        );
        assert_eq!(sim.shard_count(), shards);
        sim.set_agent(AsId(1), Box::new(NowAgent { seen: seen.clone() }));
        sim.set_agent(
            AsId(2),
            Box::new(RouterAgent::new(AsId(2), PrefixTrie::new())),
        );
        sim.run_until(SimTime::from_secs(7));
        sim.schedule_timer_at(SimTime::from_secs(1), AsId(1), 0);
        sim.schedule_host_packet(
            SimTime::from_secs(1),
            AsId(1),
            ipv6_packet("2001:db8:3::1", 64),
        );
        sim.run_until(SimTime::from_secs(8));
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen.len(), 2, "shards={shards} mode={shard_mode:?}");
        assert!(
            seen.iter().all(|&t| t >= SimTime::from_secs(7)),
            "shards={shards} mode={shard_mode:?} dispatched in the past: {seen:?}"
        );
        sim.digest()
    };
    let baseline = run(1, ShardMode::Serial);
    for (shards, mode) in [
        (1, ShardMode::Threaded),
        (2, ShardMode::Serial),
        (2, ShardMode::Threaded),
    ] {
        assert_eq!(run(shards, mode), baseline, "shards={shards} mode={mode:?}");
    }
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
    // the ladder. The same-timestamp batch drain must still fire them
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
        // ladder; the 2 ms timers stage in order. The merged drain must
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

/// A key field drawn from its whole range, both ends included often.
fn field(max: u64) -> proptest::strategy::BoxedStrategy<u64> {
    use proptest::prelude::*;
    prop_oneof![Just(0), Just(1), Just(max - 1), Just(max), 0..=max].boxed()
}

/// Real origins run from the external scheduler's 0 to the last node's.
const ORIGIN_MAX: u64 = MAX_NODES as u64;

proptest::proptest! {
    /// The packed key orders exactly as the `(time, origin, seq)` triple
    /// it packs, gives each field back, and maps to its dispatch span.
    /// `same` copies fields of `a` into `b`, so ties reach every field.
    #[test]
    fn packed_key_orders_like_its_triple(
        a in (field(u64::MAX), field(ORIGIN_MAX), field(SEQ_MAX)),
        b in (field(u64::MAX), field(ORIGIN_MAX), field(SEQ_MAX)),
        same in 0u8..8,
    ) {
        let b = (
            if same & 1 == 0 { b.0 } else { a.0 },
            if same & 2 == 0 { b.1 } else { a.1 },
            if same & 4 == 0 { b.2 } else { a.2 },
        );
        let key = |(t, o, s): (u64, u64, u64)| EventKey::new(SimTime(t), o as u32, s);
        let (ka, kb) = (key(a), key(b));
        proptest::prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        for (k, (t, o, s)) in [(ka, a), (kb, b)] {
            proptest::prop_assert_eq!((k.time, u64::from(k.origin()), k.seq()), (SimTime(t), o, s));
            proptest::prop_assert_ne!(k, EventKey::NONE);
            proptest::prop_assert_eq!(
                k.span(),
                SpanKey { time_ns: t, origin: o as u32, seq: s, intra: 0 }
            );
        }
    }
}

#[test]
fn no_parent_is_no_span() {
    assert_eq!(EventKey::NONE.span(), SpanKey::NONE);
    let last = EventKey::new(SimTime(u64::MAX), MAX_NODES as u32, SEQ_MAX);
    assert!(
        last < EventKey::NONE,
        "the reserved origin sorts above every real one"
    );
}

/// The origin field fixes the node bound (16 777 214, as
/// `NetworkSim::new` documents); checked on the count alone, since a
/// topology that large is gigabytes.
#[test]
fn the_origin_field_bounds_the_node_count() {
    assert_eq!(MAX_NODES, 16_777_214);
    assert_origins_fit(MAX_NODES);
}

#[test]
#[should_panic(expected = "origin field holds at most 16777214")]
fn one_node_past_the_origin_field_is_refused() {
    assert_origins_fit(MAX_NODES + 1);
}

#[test]
#[should_panic(expected = "exceeds the key's 40 bits")]
fn a_seq_past_its_field_is_refused() {
    EventKey::new(SimTime::ZERO, 1, SEQ_MAX + 1);
}

/// Parents travel as event keys and are spans again at dispatch: the
/// externally injected packet's span is a root, and every later span
/// hangs off a dispatch span (intra 0) that the stream holds.
#[test]
fn parents_are_dispatch_spans_or_none() {
    let (mut sim, received, _) = build_line_sim();
    sim.schedule_host_packet(SimTime::ZERO, AsId(1), ipv6_packet("2001:db8:3::1", 64));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(received.load(Ordering::SeqCst), 1);
    let spans = sim.spans().spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].kind, SpanKind::HostInject);
    assert_eq!((roots[0].key.origin, roots[0].key.intra), (EXT_ORIGIN, 0));
    for s in spans.iter().filter(|s| !s.parent.is_none()) {
        assert_eq!(s.parent.intra, 0, "{s:?} hangs off a dispatch span");
        assert!(
            spans.iter().any(|p| p.key == s.parent),
            "{s:?}'s parent is recorded"
        );
    }
}
