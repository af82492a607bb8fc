//! End-to-end: the full Vultr scenario — BGP-pinned tunnel prefixes,
//! byte-exact probes through the simulator, one-way delays matching the
//! calibrated path floors, and the unsynchronized-clock invariance.

use std::collections::BTreeSet;
use std::sync::Arc;
use tango_bgp::{BgpEngine, Community};
use tango_dataplane::{
    stats::shared_sink, SharedStats, StaticPolicy, SwitchConfig, TangoSwitch, Tunnel,
};
use tango_net::{IpCidr, Ipv6Cidr};
use tango_sim::{NetworkSim, NodeClock, RouterAgent, SimConfig, SimTime};
use tango_topology::vultr::{
    vultr_scenario, COGENT, GTT, LEVEL3, NTT, TELIA, TENANT_LA, TENANT_NY, VULTR_LA, VULTR_NY,
};
use tango_topology::AsId;

/// The fixed single-path policy every switch here runs.
fn static_path() -> Box<StaticPolicy> {
    Box::new(StaticPolicy::single(0, "static"))
}

fn v6(s: &str) -> Ipv6Cidr {
    s.parse().unwrap()
}

/// LA-announced per-path prefixes, in Fig. 3 preference order, with the
/// community sets that pin them (suppress everything preferred over the
/// target path).
fn la_tunnel_prefixes() -> Vec<(Ipv6Cidr, Vec<AsId>, &'static str)> {
    vec![
        (v6("2001:db8:100::/48"), vec![], "NTT"),
        (v6("2001:db8:101::/48"), vec![NTT], "Telia"),
        (v6("2001:db8:102::/48"), vec![NTT, TELIA], "GTT"),
        (v6("2001:db8:103::/48"), vec![NTT, TELIA, GTT], "Level3"),
    ]
}

fn ny_tunnel_prefixes() -> Vec<(Ipv6Cidr, Vec<AsId>, &'static str)> {
    vec![
        (v6("2001:db8:200::/48"), vec![], "NTT"),
        (v6("2001:db8:201::/48"), vec![NTT], "Telia"),
        (v6("2001:db8:202::/48"), vec![NTT, TELIA], "GTT"),
        (v6("2001:db8:203::/48"), vec![NTT, TELIA, GTT], "Cogent"),
    ]
}

const LA_HOSTS: &str = "2001:db8:1ff::/48";
const NY_HOSTS: &str = "2001:db8:2ff::/48";

struct Setup {
    sim: NetworkSim,
    la_stats: SharedStats,
    ny_stats: SharedStats,
}

/// Wire the whole thing: converge BGP, install router tables, install
/// Tango switches with one tunnel per pinned prefix, arm probe timers.
fn build(seed: u64, ny_clock_offset_ns: i64) -> Setup {
    let scenario = vultr_scenario();
    let mut bgp = BgpEngine::new(scenario.topology.clone());
    for border in [VULTR_LA, VULTR_NY] {
        bgp.set_strip_private(border, true).unwrap();
        bgp.set_honor_actions(border, true).unwrap();
        bgp.set_neighbor_pref(border, scenario.neighbor_pref[&border].clone())
            .unwrap();
    }
    for (p, suppress, _) in la_tunnel_prefixes() {
        let comms: BTreeSet<Community> =
            suppress.iter().map(|&a| Community::NoExportTo(a)).collect();
        bgp.announce(TENANT_LA, IpCidr::V6(p), comms).unwrap();
    }
    for (p, suppress, _) in ny_tunnel_prefixes() {
        let comms: BTreeSet<Community> =
            suppress.iter().map(|&a| Community::NoExportTo(a)).collect();
        bgp.announce(TENANT_NY, IpCidr::V6(p), comms).unwrap();
    }
    bgp.announce(TENANT_LA, LA_HOSTS.parse().unwrap(), BTreeSet::new())
        .unwrap();
    bgp.announce(TENANT_NY, NY_HOSTS.parse().unwrap(), BTreeSet::new())
        .unwrap();
    bgp.converge().unwrap();

    let mut sim = NetworkSim::new(
        scenario.topology.clone(),
        SimConfig {
            seed,
            ..Default::default()
        },
    );
    for transit in [NTT, TELIA, GTT, COGENT, LEVEL3, VULTR_LA, VULTR_NY] {
        let table = bgp.forwarding_table(transit).unwrap();
        sim.set_agent(transit, Box::new(RouterAgent::new(transit, table)));
    }
    sim.set_clock(TENANT_NY, NodeClock::with_offset_ns(ny_clock_offset_ns));

    let la_stats = shared_sink();
    let ny_stats = shared_sink();

    // Tunnels as seen from LA (sending toward NY prefixes)...
    let la_tunnels: Vec<Tunnel> = la_tunnel_prefixes()
        .iter()
        .zip(ny_tunnel_prefixes().iter())
        .enumerate()
        .map(|(i, ((lp, _, _), (np, _, label)))| Tunnel::from_prefixes(i as u16, *label, *lp, *np))
        .collect();
    // ...and from NY (sending toward LA prefixes).
    let ny_tunnels: Vec<Tunnel> = ny_tunnel_prefixes()
        .iter()
        .zip(la_tunnel_prefixes().iter())
        .enumerate()
        .map(|(i, ((np, _, _), (lp, _, label)))| Tunnel::from_prefixes(i as u16, *label, *np, *lp))
        .collect();

    TangoSwitch::install(
        &mut sim,
        SwitchConfig {
            id: TENANT_LA,
            border: VULTR_LA,
            tunnels: la_tunnels,
            remote_host_prefixes: vec![NY_HOSTS.parse().unwrap()],
            probe_period: Some(SimTime::from_ms(10)),
            control_period: None,
            initial_path: 0,
            wan_table: None,
            feedback: tango_dataplane::FeedbackMode::Shared,
            auth_key: None,
            class_map: Default::default(),
            rx_labels: Vec::new(),
        },
        static_path(),
        Arc::clone(&la_stats),
        Arc::clone(&ny_stats),
        SimTime::from_ms(1),
    );
    TangoSwitch::install(
        &mut sim,
        SwitchConfig {
            id: TENANT_NY,
            border: VULTR_NY,
            tunnels: ny_tunnels,
            remote_host_prefixes: vec![LA_HOSTS.parse().unwrap()],
            probe_period: Some(SimTime::from_ms(10)),
            control_period: None,
            initial_path: 0,
            wan_table: None,
            feedback: tango_dataplane::FeedbackMode::Shared,
            auth_key: None,
            class_map: Default::default(),
            rx_labels: Vec::new(),
        },
        static_path(),
        Arc::clone(&ny_stats),
        Arc::clone(&la_stats),
        SimTime::from_ms(1),
    );
    Setup {
        sim,
        la_stats,
        ny_stats,
    }
}

fn mean_owd_ms(stats: &SharedStats, path: u16) -> f64 {
    let sink = stats.lock();
    sink.path(path).unwrap().owd.mean().unwrap() / 1e6
}

#[test]
fn probes_measure_calibrated_floors_ny_to_la() {
    let Setup {
        mut sim, la_stats, ..
    } = build(11, 0);
    sim.run_until(SimTime::from_secs(30));

    // ~3000 probes per path; all four paths measured at LA.
    let sink = la_stats.lock();
    for (id, p) in sink.paths() {
        assert!(p.owd.len() > 2900, "path {id} only {} samples", p.owd.len());
        assert_eq!(p.seq.lost(), 0, "lossless calibration");
        assert_eq!(p.rejected, 0);
    }
    drop(sink);

    let ntt = mean_owd_ms(&la_stats, 0);
    let telia = mean_owd_ms(&la_stats, 1);
    let gtt = mean_owd_ms(&la_stats, 2);
    let level3 = mean_owd_ms(&la_stats, 3);
    // Floor plus whichever ECMP lane (0..=180 µs) the tunnel pinned.
    assert!((28.10..28.40).contains(&gtt), "gtt {gtt}");
    assert!(
        (ntt / gtt - 1.295).abs() < 0.03,
        "default 30% worse: {}",
        ntt / gtt
    );
    assert!(telia > gtt && telia < ntt, "telia {telia}");
    assert!(level3 > ntt, "level3 {level3}");
}

#[test]
fn probes_measure_calibrated_floors_la_to_ny() {
    let Setup {
        mut sim, ny_stats, ..
    } = build(12, 0);
    sim.run_until(SimTime::from_secs(30));
    let ntt = mean_owd_ms(&ny_stats, 0);
    let gtt = mean_owd_ms(&ny_stats, 2);
    let cogent = mean_owd_ms(&ny_stats, 3);
    assert!((27.90..28.20).contains(&gtt), "gtt {gtt}");
    assert!(ntt / gtt > 1.25 && ntt / gtt < 1.35, "ratio {}", ntt / gtt);
    assert!(cogent > ntt, "cogent {cogent}");
}

#[test]
fn clock_offset_shifts_absolute_owd_but_not_relative() {
    // The §4.2 claim, end to end: give NY a +2 s clock offset. Absolute
    // OWDs measured at NY (LA→NY direction) shift by +2 s; the *gaps*
    // between paths do not.
    let Setup {
        mut sim, ny_stats, ..
    } = build(13, 0);
    sim.run_until(SimTime::from_secs(20));
    let base_ntt = mean_owd_ms(&ny_stats, 0);
    let base_gtt = mean_owd_ms(&ny_stats, 2);

    let offset_ns = 2_000_000_000i64;
    let Setup {
        mut sim, ny_stats, ..
    } = build(13, offset_ns);
    sim.run_until(SimTime::from_secs(20));
    let off_ntt = mean_owd_ms(&ny_stats, 0);
    let off_gtt = mean_owd_ms(&ny_stats, 2);

    // Absolute values are distorted by ~2000 ms...
    assert!(
        (off_gtt - base_gtt - 2000.0).abs() < 1.0,
        "{off_gtt} vs {base_gtt}"
    );
    // ...the relative comparison is preserved to within jitter noise.
    let base_gap = base_ntt - base_gtt;
    let off_gap = off_ntt - off_gtt;
    assert!(
        (base_gap - off_gap).abs() < 0.05,
        "relative gap must survive clock offset: {base_gap} vs {off_gap}"
    );
    assert!(base_gap > 8.0, "NTT−GTT gap ≈ 8.5 ms, got {base_gap}");
}

#[test]
fn app_traffic_rides_selected_tunnel_and_is_measured() {
    let Setup {
        mut sim,
        la_stats,
        ny_stats,
    } = build(14, 0);
    // Host packets from NY host → LA host prefix.
    let src = "2001:db8:2ff::7".parse().unwrap();
    let dst = "2001:db8:1ff::9".parse().unwrap();
    for i in 0..100u64 {
        sim.schedule_host_packet(
            SimTime::from_ms(i * 5),
            TENANT_NY,
            tango_sim::Packet::host(src, dst, 8, 0, 0),
        );
    }
    sim.run_until(SimTime::from_secs(5));
    // NY encapsulated them; LA delivered them on path 0 (static default).
    assert_eq!(ny_stats.lock().tx_encapsulated, 100);
    let sink = la_stats.lock();
    assert_eq!(sink.path(0).unwrap().app_delivered, 100);
    assert_eq!(sink.path(1).unwrap().app_delivered, 0);
}

#[test]
fn corrupted_tunnel_packets_are_rejected_not_measured() {
    use tango_sim::FaultInjector;
    // Rebuild with heavy corruption; rejected counters must grow and no
    // wildly wrong OWD samples appear. Both switches run authenticated
    // telemetry: with 30 % corruption on each of four links, a packet
    // can be hit twice, and two flips in the same 16-bit column cancel
    // in the RFC 1071 sum — the plain UDP checksum provably cannot
    // reject those, only the SipHash tag can.
    let scenario = vultr_scenario();
    let mut bgp = BgpEngine::new(scenario.topology.clone());
    for border in [VULTR_LA, VULTR_NY] {
        bgp.set_strip_private(border, true).unwrap();
        bgp.set_honor_actions(border, true).unwrap();
    }
    bgp.announce(
        TENANT_LA,
        IpCidr::V6(v6("2001:db8:100::/48")),
        BTreeSet::new(),
    )
    .unwrap();
    bgp.announce(
        TENANT_NY,
        IpCidr::V6(v6("2001:db8:200::/48")),
        BTreeSet::new(),
    )
    .unwrap();
    bgp.converge().unwrap();

    let mut sim = NetworkSim::new(
        scenario.topology.clone(),
        SimConfig {
            seed: 5,
            fault: Some(FaultInjector::new(0.0, 0.3)),
            ..Default::default()
        },
    );
    for transit in [NTT, TELIA, GTT, COGENT, LEVEL3, VULTR_LA, VULTR_NY] {
        let table = bgp.forwarding_table(transit).unwrap();
        sim.set_agent(transit, Box::new(RouterAgent::new(transit, table)));
    }
    let la_stats = shared_sink();
    let ny_stats = shared_sink();
    let tun = |id, local, remote| Tunnel::from_prefixes(id, "NTT", v6(local), v6(remote));
    TangoSwitch::install(
        &mut sim,
        SwitchConfig {
            id: TENANT_LA,
            border: VULTR_LA,
            tunnels: vec![tun(0, "2001:db8:100::/48", "2001:db8:200::/48")],
            remote_host_prefixes: vec![],
            probe_period: Some(SimTime::from_ms(10)),
            control_period: None,
            initial_path: 0,
            wan_table: None,
            feedback: tango_dataplane::FeedbackMode::Shared,
            auth_key: Some(tango_net::SipKey::from_words(0x7461, 0x6e67)),
            class_map: Default::default(),
            rx_labels: Vec::new(),
        },
        static_path(),
        Arc::clone(&la_stats),
        Arc::clone(&ny_stats),
        SimTime::from_ms(1),
    );
    TangoSwitch::install(
        &mut sim,
        SwitchConfig {
            id: TENANT_NY,
            border: VULTR_NY,
            tunnels: vec![tun(0, "2001:db8:200::/48", "2001:db8:100::/48")],
            remote_host_prefixes: vec![],
            probe_period: None,
            control_period: None,
            initial_path: 0,
            wan_table: None,
            feedback: tango_dataplane::FeedbackMode::Shared,
            auth_key: Some(tango_net::SipKey::from_words(0x7461, 0x6e67)),
            class_map: Default::default(),
            rx_labels: Vec::new(),
        },
        static_path(),
        Arc::clone(&ny_stats),
        Arc::clone(&la_stats),
        SimTime::from_ms(1),
    );
    sim.run_until(SimTime::from_secs(20));

    let sink = ny_stats.lock();
    // Each probe crosses 4 links at 30% corrupt chance each: most probes
    // arrive corrupted. They must land in `rejected`/unattributed, and
    // every accepted measurement must still be a sane OWD.
    let rejects = sink.unattributed_rejects + sink.paths().map(|(_, p)| p.rejected).sum::<u64>();
    assert!(rejects > 500, "expected many rejects, got {rejects}");
    if let Some(p) = sink.path(0) {
        for owd in p.owd.iter() {
            assert!(
                (30_000_000.0..45_000_000.0).contains(&owd),
                "corrupt packet produced insane OWD {owd}"
            );
        }
    }
}
