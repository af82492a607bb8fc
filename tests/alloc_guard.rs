//! Allocation guard: the steady-state event loop does not call the
//! allocator per packet, the BGP update path does not pay it for
//! memory a discovery probe could have reused, and the measurement store
//! and buffer pool do not hold more heap than what was measured needs.
//!
//! A test file is its own crate, so it can install a counting
//! `#[global_allocator]` without touching the libraries'
//! `#![forbid(unsafe_code)]`. One `#[test]` only: a second one would run
//! on a parallel thread and count into the same totals.
//!
//! The pairing and mesh scenarios pre-schedule all their packets, run the
//! first half as a warm-up (queues, buffer pool, slab and OWD store
//! reach their working size) and count allocator calls inside
//! `run_until` over the second half. What remains is amortised growth (a
//! new OWD chunk or a span `Vec` doubling): well under
//! [`MAX_CALLS_PER_PACKET`]. A per-packet allocation anywhere on the path
//! — the flow-hash key `Vec` this guard was written against cost 4.3 per
//! packet — fails it by two orders of magnitude. The templated scenario
//! ([`templated_run`]) is the benchmark's injection pattern and counts
//! from the first scheduled packet on, warm-up included: a clone of one
//! template per packet, where a `clone` that copies the bytes reads 1.006
//! calls per packet (0.012 when clones share them). It also bounds the
//! live heap a scheduled packet costs before dispatch
//! ([`MAX_HEAP_BYTES_PER_SCHEDULED_PACKET`]: 80.01 B shared, 192
//! copied). The control-plane scenario ([`probe_calls`]) counts against
//! `bgp.updates_processed` instead, and bounds the live heap its
//! converged engine holds per RIB route
//! ([`MAX_RIB_HEAP_BYTES_PER_ROUTE`]). The pairing scenario also reports the
//! live heap its whole run leaves behind per delivered app packet
//! ([`MAX_HEAP_BYTES_PER_APP_PACKET`]), and [`sim_heap_per_link`] bounds
//! what a freshly built simulator keeps per directed link
//! ([`MAX_SIM_HEAP_BYTES_PER_LINK`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use tango::npop::{host_prefix, probe_prefix, NPopMesh};
use tango::prelude::*;
use tango_bgp::{BgpEngine, Community};
use tango_net::IpCidr;
use tango_obs::Registry;
use tango_sim::{NetworkSim, Packet, ShardMode, SimConfig};
use tango_topology::gen::{try_generate, GenParams};

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since start.
// Relaxed: a statistic that publishes no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated (requested sizes; wrapping add/sub, so the
/// difference of two readings is exact).
static LIVE: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Relaxed,
        );
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls per packet tolerated inside `run_until`.
const MAX_CALLS_PER_PACKET: f64 = 0.02;
/// Packets per scenario; the second half is measured.
const PACKETS: u32 = 8_000;
/// Allocator calls per BGP update tolerated across discovery probes
/// ([`probe_calls`]). Exact: 405 calls for 21 138 updates (0.0192) with
/// every advertisement a record appended to its prefix column's arena —
/// what is left is an arena's doubling growth, the community set a
/// probe's edit adds and the copy a blank of a still-shared
/// (twin-filled) column makes; 8 220 (0.389) while each changed best
/// route built an `Rc<PathAttrs>` and a boxed path (a probe's unshaped
/// announcement being a twin fill of its host prefix's column, its
/// updates billed, not executed); 11 112 (0.526) before twin fills;
/// 19 770 (0.935) with speakers that freed a probe's record when it
/// left and regrew it slot by slot. Midway between 0.0192 and 0.389.
const MAX_CALLS_PER_BGP_UPDATE: f64 = 0.20;
/// Live heap bytes per RIB route (`rib_stats().total()`) that building
/// and converging the engine of [`probe_calls`] may hold: its speakers
/// and sessions, the RIB storage and the advertisements, over 8 host
/// prefixes. Exact: 14.95 with a 4-byte handle slot per directed
/// session (both Adj-RIB-Out and Adj-RIB-In entry), an 8-byte winner
/// per speaker and the advertisements as 12-byte records (path start,
/// path length, communities) in one arena per column; 15.64 with a MED
/// in every record (16 bytes); 21.46 with `Rc<PathAttrs>` slots and
/// winners (8 and 16 bytes) and an allocation per advertisement; 45.29
/// with a record per speaker and prefix, each holding its own
/// Adj-RIB-In and Adj-RIB-Out vectors. Midway between 14.95 and 15.64.
const MAX_RIB_HEAP_BYTES_PER_ROUTE: f64 = 15.30;
/// Live heap bytes per delivered app packet that [`pairing_run`] may
/// leave behind (the event queue's grown capacity, the `owd` values with
/// their app bits, the 500 ms bins, the rolling windows, the pooled
/// buffers). Exact, on 8 000 delivered: 140.37 with each `owd` value a
/// delta varint in fixed chunks, 96-byte pending events and 80-byte
/// staged ones, app packets scheduled as clones of one template, which
/// draw their buffers from the pool at dispatch, so the pool keeps about
/// as many as were ever in flight; 152.30 with every `owd` value an 8 B
/// `f64` in a doubling `Vec`, 186.15 with 112-byte events in both queues
/// on top, 203.98 with an 8 B receive timestamp stored beside every
/// `owd` value on top, 220.36 with a second app-only series on top of
/// that. A pool without its demand bound reads the same: it only ever
/// receives buffers it handed out. Midway between this tree and the
/// `f64` values.
const MAX_HEAP_BYTES_PER_APP_PACKET: f64 = 146.34;

/// Packets [`templated_run`] schedules: a power of two, so the staged
/// event queue it fills from empty ends at exactly their capacity.
const TEMPLATED_PACKETS: u32 = 8_192;
/// Live heap a scheduled, not yet dispatched packet may cost: its staged
/// entry (80 B: key and kind, the packet inline) plus 16 B. A clone that
/// shares its template's bytes costs the entry alone; one that copies
/// them costs the entry plus its own 112-byte buffer.
const MAX_HEAP_BYTES_PER_SCHEDULED_PACKET: f64 = 80.0 + 16.0;

/// Live heap bytes per directed link that [`NetworkSim::new`] may keep
/// over [`sim_heap_per_link`]'s graph, before any agent is installed.
/// Exact: 157.06 with the graph consumed into flat tables (per link an
/// 8-byte adjacency entry, its 104-byte profile moved out of the graph,
/// a 4-byte event offset and 16 bytes of busy horizons, plus the
/// per-node tables); 480.31 with the whole `Topology` kept beside them,
/// each link's events in its own `Vec` and `(to, to_idx, link_id)`
/// adjacency lists per node. Midway between 157.06 and 480.31.
const MAX_SIM_HEAP_BYTES_PER_LINK: f64 = 318.69;

/// Allocator calls made while `run` executes.
fn calls_during(run: impl FnOnce()) -> u64 {
    let before = CALLS.load(Relaxed);
    run();
    CALLS.load(Relaxed) - before
}

fn assert_steady(what: &str, calls: u64) {
    let per_packet = calls as f64 / f64::from(PACKETS / 2);
    assert!(
        per_packet < MAX_CALLS_PER_PACKET,
        "{what}: {calls} allocator calls inside run_until for {} packets = {per_packet:.3} per packet (limit {MAX_CALLS_PER_PACKET})",
        PACKETS / 2
    );
}

/// The static Vultr pairing: 64 B app packets alternating A→B / B→A
/// every 100 µs, probes every 10 ms. Returns the allocator calls over the
/// second half and the live heap the whole run (scheduling included)
/// leaves behind per delivered app packet.
fn pairing_run() -> (u64, f64) {
    let mut pairing =
        tango::vultr_pairing(PairingOptions::default()).expect("the Vultr scenario provisions");
    let live_before = LIVE.load(Relaxed);
    let gap = SimTime::from_us(100);
    let mut t = SimTime::from_ms(5);
    for i in 0..PACKETS {
        let from = if i % 2 == 0 { Side::A } else { Side::B };
        pairing.send_app_packet(t, from, 64);
        t += gap;
    }
    let half = SimTime::from_ms(5) + SimTime(gap.as_ns() * u64::from(PACKETS / 2));
    pairing.run_until(half);
    let calls = calls_during(|| pairing.run_until(t + SimTime::from_ms(200)));
    let left_behind = LIVE.load(Relaxed).wrapping_sub(live_before);
    let delivered: u64 = Side::BOTH
        .iter()
        .map(|&side| {
            let sink = pairing.stats(side).lock();
            sink.paths().map(|(_, p)| p.app_delivered).sum::<u64>()
        })
        .sum();
    (calls, left_behind as f64 / delivered as f64)
}

/// The benchmark's injection pattern over the converged 200-AS / 8-PoP
/// mesh: one template from PoP 0's host to PoP 1's, a clone of it
/// scheduled every millisecond for [`TEMPLATED_PACKETS`] packets, all
/// before the run. Returns the allocator calls over scheduling plus the
/// whole run, and the live heap scheduling left per packet.
fn templated_run(mesh: &NPopMesh) -> (u64, f64) {
    let (mut sim, _) = mesh
        .routed_sim(TEMPLATED_PACKETS, 1, ShardMode::Serial)
        .expect("every node speaks");
    let host = |pop: usize, host: u128| match host_prefix(pop) {
        IpCidr::V6(c) => c.host(host).expect("host prefixes are /48s"),
        IpCidr::V4(_) => unreachable!("host prefixes are IPv6"),
    };
    let template = Packet::host(host(0, 0x10), host(1, 1), 64, 0, 0);
    let src = mesh.pops()[0];
    let live_before = LIVE.load(Relaxed);
    let mut t = SimTime::from_ms(1);
    let mut scheduled = 0;
    let calls = calls_during(|| {
        for _ in 0..TEMPLATED_PACKETS {
            sim.schedule_host_packet(t, src, template.clone());
            t += SimTime::from_ms(1);
        }
        scheduled = LIVE.load(Relaxed).wrapping_sub(live_before);
        sim.run_until(t + SimTime::from_secs(1));
    });
    assert_eq!(
        sim.stats().no_route,
        u64::from(TEMPLATED_PACKETS),
        "every packet reaches PoP 1, where a plain router retires it"
    );
    (calls, scheduled as f64 / f64::from(TEMPLATED_PACKETS))
}

/// Router-only traffic over a converged 200-AS / 8-PoP mesh
/// ([`NPopMesh::inject`] schedules one packet every 250 µs from 1 ms).
fn mesh_calls(mesh: &NPopMesh, shards: usize) -> u64 {
    let (mut sim, _) = mesh
        .routed_sim(PACKETS, shards, ShardMode::Serial)
        .expect("every node speaks");
    let horizon = mesh.inject(&mut sim, PACKETS);
    let half =
        SimTime::from_ms(1) + SimTime(SimTime::from_us(250).as_ns() * u64::from(PACKETS / 2));
    sim.run_until(half);
    calls_during(|| {
        sim.run_until(horizon);
    })
}

/// `(allocator calls, bgp.updates_processed)` over three rotations of
/// §4.1 probe cycles on a converged 100-AS / 8-PoP internet: every PoP in
/// turn announces its probe prefix, suppresses the transit the next PoP
/// hears it through, and withdraws, converging after each step. One
/// rotation before counting brings the engine's probe column and
/// worklists to their working size. Also returns the live heap the
/// engine holds per RIB route once the mesh has converged, before any
/// probe.
///
/// Before the rotations it checks a twin fill: PoP 0's probe announced
/// exactly as its host prefix is converges by copying the host prefix's
/// column into the blank one `intern` made, sharing its arena of
/// advertisements, so that convergence makes no allocator call and
/// leaves no heap behind. A flood would build the probe's
/// advertisements anew. After the warm-up rotation it checks a rebuild:
/// a suppression step revisited in a column whose arena has grown for
/// it converges from the shelf with no allocator call and leaves no
/// heap behind.
///
/// The engine is built from a clone of the graph, counted from before
/// the clone: `BgpEngine::new` frees the graph once it has resolved the
/// sessions.
fn probe_calls() -> (u64, u64, f64) {
    let g = try_generate(&GenParams::internet(100, 8, 1)).expect("preset is valid");
    let pops = g.edge_sites;
    let registry = Registry::new();
    let live_before = LIVE.load(Relaxed);
    let mut engine = BgpEngine::new(g.topology.clone());
    engine.set_obs(&registry);
    for (i, &pop) in pops.iter().enumerate() {
        engine.set_honor_actions(pop, true).expect("a graph node");
        engine
            .announce(pop, host_prefix(i), BTreeSet::new())
            .expect("a graph node");
    }
    engine.converge().expect("Gao-Rexford policies converge");
    let rib_heap = LIVE.load(Relaxed).wrapping_sub(live_before);
    let heap_per_route = rib_heap as f64 / engine.rib_stats().total() as f64;
    let probes: Vec<_> = (0..pops.len()).map(probe_prefix).collect();
    engine
        .announce(pops[0], probes[0], BTreeSet::new())
        .expect("a graph node");
    let (announced, fills) = (LIVE.load(Relaxed), engine.work().fills);
    let fill_calls = calls_during(|| {
        engine.converge().expect("converges");
    });
    let fill_bytes = LIVE.load(Relaxed).wrapping_sub(announced) as i64;
    assert_eq!(
        engine.work().fills,
        fills + 1,
        "the probe is its host prefix's twin"
    );
    assert_eq!(fill_calls, 0, "a twin fill calls the allocator");
    assert!(fill_bytes <= 0, "a twin fill left {fill_bytes} B of heap");
    engine.withdraw(pops[0], probes[0]).expect("a graph node");
    engine.converge().expect("converges");
    let exit = |engine: &BgpEngine, k: usize| {
        let observer = pops[(k + 1) % pops.len()];
        let path = engine
            .as_path(observer, probes[k])
            .expect("the graph is connected");
        Community::NoExportTo(path[path.len() - 2])
    };
    let rotation = |engine: &mut BgpEngine| {
        for (k, &announcer) in pops.iter().enumerate() {
            engine
                .announce(announcer, probes[k], BTreeSet::new())
                .expect("a graph node");
            engine.converge().expect("converges");
            let suppress = [exit(engine, k)].into();
            engine
                .set_announcement_communities(announcer, probes[k], suppress)
                .expect("a graph node");
            engine.converge().expect("converges");
            engine.withdraw(announcer, probes[k]).expect("a graph node");
            engine.converge().expect("converges");
        }
    };
    rotation(&mut engine);
    // PoP 0's probe suppresses its exit, then the next one too, then only
    // the first again: that step's fixpoint was shelved by the one
    // before, and the column's own arena has grown for both.
    let (edit, rebuilds) = (pops[0], engine.work().rebuilds);
    let set = |engine: &mut BgpEngine, communities: &BTreeSet<Community>| {
        (engine.set_announcement_communities(edit, probes[0], communities.clone()))
            .expect("a graph node");
    };
    engine
        .announce(edit, probes[0], BTreeSet::new())
        .expect("a graph node");
    engine.converge().expect("converges");
    let first: BTreeSet<_> = [exit(&engine, 0)].into();
    set(&mut engine, &first);
    engine.converge().expect("converges");
    let both = first.iter().copied().chain([exit(&engine, 0)]).collect();
    set(&mut engine, &both);
    engine.converge().expect("converges");
    set(&mut engine, &first);
    let edited = LIVE.load(Relaxed);
    let rebuild_calls = calls_during(|| {
        engine.converge().expect("converges");
    });
    let rebuild_bytes = LIVE.load(Relaxed).wrapping_sub(edited) as i64;
    assert_eq!(engine.work().rebuilds, rebuilds + 2, "two shelved steps");
    assert_eq!(rebuild_calls, 0, "a warm rebuild calls the allocator");
    assert!(
        rebuild_bytes <= 0,
        "a rebuild left {rebuild_bytes} B of heap"
    );
    engine.withdraw(edit, probes[0]).expect("a graph node");
    engine.converge().expect("converges");
    let updates = || registry.snapshot().counters["bgp.updates_processed"];
    let before = updates();
    let calls = calls_during(|| (0..3).for_each(|_| rotation(&mut engine)));
    (calls, updates() - before, heap_per_route)
}

/// The live heap [`NetworkSim::new`] keeps per directed link of the
/// 200-AS / 8-PoP mesh's graph (the one [`NPopMesh::converge`] generates),
/// agents not yet installed, counted from before the clone of the graph
/// it is given: the simulator consumes the graph into its node and link
/// tables. Also checks that [`NetworkSim::node_ids`] is the graph's node
/// order.
fn sim_heap_per_link() -> f64 {
    let g = try_generate(&GenParams::internet(200, 8, 1)).expect("preset is valid");
    let ids: Vec<AsId> = g.topology.nodes().map(|n| n.id).collect();
    let directed_links = 2 * g.topology.link_count();
    let live_before = LIVE.load(Relaxed);
    let sim = NetworkSim::new(g.topology.clone(), SimConfig::default());
    let kept = LIVE.load(Relaxed).wrapping_sub(live_before);
    assert_eq!(sim.node_ids(), ids, "node_ids() is Topology::nodes() order");
    kept as f64 / directed_links as f64
}

#[test]
fn steady_state_event_loop_does_not_allocate_per_packet() {
    let (calls, updates, heap_per_route) = probe_calls();
    let per_update = calls as f64 / updates as f64;
    assert!(
        per_update < MAX_CALLS_PER_BGP_UPDATE,
        "discovery probes: {calls} allocator calls for {updates} BGP updates = {per_update:.3} per update (limit {MAX_CALLS_PER_BGP_UPDATE})"
    );
    assert!(
        heap_per_route < MAX_RIB_HEAP_BYTES_PER_ROUTE,
        "converged 100-AS mesh: {heap_per_route:.2} B of live engine heap per RIB route (limit {MAX_RIB_HEAP_BYTES_PER_ROUTE})"
    );
    let heap_per_link = sim_heap_per_link();
    assert!(
        heap_per_link < MAX_SIM_HEAP_BYTES_PER_LINK,
        "200-AS mesh: NetworkSim::new keeps {heap_per_link:.2} B of live heap per directed link (limit {MAX_SIM_HEAP_BYTES_PER_LINK})"
    );
    let (calls, heap_per_app_packet) = pairing_run();
    assert_steady("vultr pairing", calls);
    assert!(
        heap_per_app_packet < MAX_HEAP_BYTES_PER_APP_PACKET,
        "vultr pairing: {heap_per_app_packet:.2} B of live heap left behind per delivered app packet (limit {MAX_HEAP_BYTES_PER_APP_PACKET})"
    );
    let mesh = NPopMesh::converge(200, 8, 1).expect("the preset graph converges");
    let (calls, heap_per_scheduled) = templated_run(&mesh);
    let per_packet = calls as f64 / f64::from(TEMPLATED_PACKETS);
    assert!(
        per_packet < MAX_CALLS_PER_PACKET,
        "templated mesh: {calls} allocator calls over scheduling and running {TEMPLATED_PACKETS} packets = {per_packet:.4} per packet (limit {MAX_CALLS_PER_PACKET})"
    );
    assert!(
        heap_per_scheduled <= MAX_HEAP_BYTES_PER_SCHEDULED_PACKET,
        "templated mesh: {heap_per_scheduled:.2} B of live heap per scheduled packet (limit {MAX_HEAP_BYTES_PER_SCHEDULED_PACKET})"
    );
    for shards in [1, 4] {
        assert_steady(
            &format!("mesh at {shards} shards"),
            mesh_calls(&mesh, shards),
        );
    }
}
