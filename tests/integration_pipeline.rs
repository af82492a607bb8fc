//! Cross-crate integration: the full pipeline — topology → BGP →
//! discovery → provisioning → simulation → measurement — reproduces the
//! paper's headline observations, deterministically.

use tango::prelude::*;

fn default_pairing(seed: u64) -> TangoPairing {
    tango::vultr_pairing(PairingOptions {
        seed,
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions")
}

#[test]
fn discovery_matches_fig3_both_directions() {
    let pairing = default_pairing(1);
    let to_ny: Vec<Vec<u32>> = pairing
        .provisioned
        .from(Side::A)
        .paths
        .iter()
        .map(|p| p.transit_path.iter().map(|a| a.0).collect())
        .collect();
    assert_eq!(
        to_ny,
        vec![vec![2914], vec![1299], vec![3257], vec![2914, 174]],
        "LA→NY: NTT, Telia, GTT, NTT+Cogent"
    );
    let to_la: Vec<Vec<u32>> = pairing
        .provisioned
        .from(Side::B)
        .paths
        .iter()
        .map(|p| p.transit_path.iter().map(|a| a.0).collect())
        .collect();
    assert_eq!(
        to_la,
        vec![vec![2914], vec![1299], vec![3257], vec![2914, 3356]],
        "NY→LA: NTT, Telia, GTT, NTT+Level3"
    );
}

#[test]
fn headline_default_path_30_percent_worse() {
    let mut pairing = default_pairing(2);
    pairing.run_until(SimTime::from_secs(60));
    for side in [Side::A, Side::B] {
        let default = pairing.mean_owd_ms(side, 0).unwrap();
        let best = (0..4)
            .map(|p| pairing.mean_owd_ms(side, p).unwrap())
            .fold(f64::INFINITY, f64::min);
        let pct = (default / best - 1.0) * 100.0;
        assert!(
            (25.0..35.0).contains(&pct),
            "{side:?}: default {pct:.1}% worse"
        );
        // And the best path is GTT (index 2), as in Fig. 4.
        assert_eq!(pairing.mean_owd_ms(side, 2).unwrap(), best);
    }
}

#[test]
fn jitter_ordering_gtt_vs_telia() {
    // §5: LA→NY rolling-1s std-dev — GTT ≈ 0.01 ms, Telia ≈ 0.33 ms.
    let mut pairing = default_pairing(3);
    pairing.run_until(SimTime::from_secs(60));
    let jitter_ms = |path: u16| {
        let sink = pairing.stats(Side::B).lock();
        sink.path(path).unwrap().jitter_ns().unwrap() / 1e6
    };
    let gtt = jitter_ms(2);
    let telia = jitter_ms(1);
    assert!((0.005..0.02).contains(&gtt), "GTT jitter {gtt:.4} ms");
    assert!((0.25..0.40).contains(&telia), "Telia jitter {telia:.3} ms");
    assert!(
        telia / gtt > 15.0,
        "paper reports ~33×; got {:.0}×",
        telia / gtt
    );
}

#[test]
fn determinism_same_seed_identical_series() {
    let series = |seed| {
        let mut p = default_pairing(seed);
        p.run_until(SimTime::from_secs(5));
        let sink = p.stats(Side::A).lock();
        let gtt = sink.path(2).unwrap();
        (gtt.owd.values(), gtt.bins.clone())
    };
    let a = series(7);
    let b = series(7);
    assert_eq!(a, b, "same seed must give identical measurements");
    let c = series(8);
    assert_ne!(a, c, "different seed must differ");
}

#[test]
fn loss_free_calibration_run_has_no_anomalies() {
    let mut pairing = default_pairing(4);
    pairing.run_until(SimTime::from_secs(30));
    for side in [Side::A, Side::B] {
        let sink = pairing.stats(side).lock();
        assert_eq!(sink.unattributed_rejects, 0);
        for (id, p) in sink.paths() {
            assert_eq!(p.seq.lost(), 0, "{side:?}/{id}");
            assert_eq!(p.seq.reordered(), 0, "{side:?}/{id}");
            assert_eq!(p.seq.duplicates(), 0, "{side:?}/{id}");
            assert_eq!(p.rejected, 0, "{side:?}/{id}");
        }
    }
    // No router dropped anything.
    assert_eq!(pairing.sim.stats().no_route, 0);
    assert_eq!(pairing.sim.stats().ttl_expired, 0);
    assert_eq!(pairing.sim.stats().lost_link, 0);
}

#[test]
fn unsynchronized_clocks_preserve_relative_comparison() {
    // Run with wildly offset clocks at NY; the per-side *relative* path
    // ordering and gaps must match the synchronized run.
    let gaps = |offset_ns: i64| {
        let mut p = tango::vultr_pairing(PairingOptions {
            seed: 5,
            clock_offset_b_ns: offset_ns,
            ..PairingOptions::default()
        })
        .unwrap();
        p.run_until(SimTime::from_secs(20));
        // LA→NY direction measured at NY (side B) with the skewed clock.
        let m: Vec<f64> = (0..4).map(|i| p.mean_owd_ms(Side::B, i).unwrap()).collect();
        (m[0] - m[2], m[1] - m[2], m[3] - m[2])
    };
    let sync = gaps(0);
    // NY clock 3 s *ahead*. (A negative offset would saturate the local
    // clock at zero for the first seconds of the run — see `NodeClock` —
    // which is a modeling artifact, not a Tango property.)
    let skewed = gaps(3_000_000_000);
    assert!(
        (sync.0 - skewed.0).abs() < 0.05,
        "NTT−GTT gap: {sync:?} vs {skewed:?}"
    );
    assert!((sync.1 - skewed.1).abs() < 0.1, "Telia−GTT gap");
    assert!((sync.2 - skewed.2).abs() < 0.1, "4th−GTT gap");
}

#[test]
fn swapping_the_sides_mirrors_the_pairing() {
    // Tango is symmetric: which edge is called A must not matter. Build
    // LA/NY and NY/LA; every per-side fact of one is the peer side's fact
    // of the other.
    use tango::vultr::{la_side, ny_side};
    let build = |a, b| {
        let scenario = tango_topology::vultr::vultr_scenario();
        let options = PairingOptions::default();
        TangoPairing::build(scenario.topology, scenario.neighbor_pref, a, b, options)
            .expect("vultr scenario provisions")
    };
    let mut la_ny = build(la_side(), ny_side());
    let mut ny_la = build(ny_side(), la_side());
    for side in Side::BOTH {
        let mirror = side.peer();
        assert_eq!(la_ny.side_config(side), ny_la.side_config(mirror));
        // Transit paths, AS paths, pin communities; tunnel ids, labels
        // and endpoints.
        assert_eq!(
            la_ny.provisioned.from(side),
            ny_la.provisioned.from(mirror),
            "direction from {side:?}"
        );
        assert_eq!(la_ny.labels_into(side), ny_la.labels_into(mirror));
    }
    la_ny.run_until(SimTime::from_secs(5));
    ny_la.run_until(SimTime::from_secs(5));
    for side in Side::BOTH {
        for path in 0..4 {
            let here = la_ny.mean_owd_ms(side, path).unwrap();
            let there = ny_la.mean_owd_ms(side.peer(), path).unwrap();
            assert!(
                (here - there).abs() < 0.05,
                "{side:?}/{path}: {here} ms vs mirrored {there} ms"
            );
        }
    }
}

#[test]
fn app_traffic_and_probes_coexist() {
    let mut pairing = default_pairing(6);
    for i in 0..500u64 {
        pairing.send_app_packet(SimTime::from_ms(10 + i * 7), Side::A, 100);
        pairing.send_app_packet(SimTime::from_ms(12 + i * 11), Side::B, 240);
    }
    pairing.run_until(SimTime::from_secs(30));
    let b = pairing.stats(Side::B).lock();
    assert_eq!(
        b.paths().map(|(_, p)| p.app_delivered).sum::<u64>(),
        500,
        "A→B apps"
    );
    drop(b);
    let a = pairing.stats(Side::A).lock();
    assert_eq!(
        a.paths().map(|(_, p)| p.app_delivered).sum::<u64>(),
        500,
        "B→A apps"
    );
    // App OWDs match the default path's floor.
    let app = a.path(0).unwrap();
    let owds: Vec<f64> = app.owd.app_values().collect();
    let mean = Summary::of(&owds).unwrap().mean / 1e6;
    assert!((36.0..37.5).contains(&mean), "app mean on NTT: {mean}");
}

#[test]
fn bgp_view_agrees_with_dataplane_trace() {
    // The control plane's AS-path and the simulator's actual packet route
    // must agree for every tunnel prefix.
    let pairing = default_pairing(9);
    let bgp = &pairing.bgp;
    for (i, t) in pairing.provisioned.from(Side::B).tunnels.iter().enumerate() {
        let prefix =
            tango_net::IpCidr::V6(tango_net::Ipv6Cidr::new(t.remote_endpoint, 48).unwrap());
        let trace = bgp
            .trace_path(tango_topology::vultr::TENANT_NY, prefix)
            .unwrap_or_else(|| panic!("tunnel {i} unroutable"));
        // trace: [TENANT_NY, VULTR_NY, ...transits..., VULTR_LA, TENANT_LA]
        let transits: Vec<tango_topology::AsId> = trace
            .iter()
            .copied()
            .filter(|a| {
                ![
                    tango_topology::vultr::TENANT_NY,
                    tango_topology::vultr::TENANT_LA,
                    tango_topology::vultr::VULTR_NY,
                    tango_topology::vultr::VULTR_LA,
                ]
                .contains(a)
            })
            .collect();
        assert_eq!(
            transits,
            pairing.provisioned.from(Side::B).paths[i].transit_path,
            "tunnel {i} forwarding disagrees with discovery"
        );
    }
}
