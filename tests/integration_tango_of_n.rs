//! Cross-crate integration: "Tango of N" (§6) — pairings over generated
//! topologies, multihomed-enterprise (self-bordered) switches included.

use tango::prelude::*;
use tango_control::SideConfig;
use tango_net::Ipv6Cidr;
use tango_topology::gen::{generate, GenParams};

fn side(site: AsId, idx: usize, role: usize) -> SideConfig {
    let blocks: Ipv6Cidr = "2001:db8::/32".parse().unwrap();
    let hosts: Ipv6Cidr = "2001:db9::/32".parse().unwrap();
    SideConfig {
        tenant: site,
        border: site, // multihomed enterprise: the site runs its own BGP
        block: blocks.subnet(44, (idx * 2 + role) as u128).unwrap(),
        host_prefix: tango_net::IpCidr::V6(hosts.subnet(48, idx as u128).unwrap()),
    }
}

#[test]
fn every_pair_in_a_generated_topology_is_pairable() {
    let g = generate(&GenParams {
        transits: 8,
        edges: 4,
        transit_peering_prob: 0.45,
        providers_per_edge: (2, 4),
        seed: 3,
        ..GenParams::default()
    });
    let mut pair_count = 0;
    for i in 0..g.edge_sites.len() {
        for j in (i + 1)..g.edge_sites.len() {
            let mut p = TangoPairing::build(
                g.topology.clone(),
                std::iter::empty(),
                side(g.edge_sites[i], i, 0),
                side(g.edge_sites[j], j, 1),
                PairingOptions {
                    seed: 100 + (i * 10 + j) as u64,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("pair {i}-{j}: {e}"));
            // Multihomed sites expose at least as many paths as providers.
            let providers = g.topology.providers(g.edge_sites[j]).len();
            assert!(
                p.provisioned.from(Side::A).paths.len() >= providers.min(2),
                "pair {i}-{j}: {} paths for {} providers",
                p.provisioned.from(Side::A).paths.len(),
                providers
            );
            p.run_until(SimTime::from_secs(5));
            for path in 0..p.provisioned.from(Side::B).paths.len() {
                let mean = p.mean_owd_ms(Side::A, path as u16);
                assert!(mean.is_some(), "pair {i}-{j} path {path} unmeasured");
                assert!(mean.unwrap() > 0.0);
            }
            pair_count += 1;
        }
    }
    assert_eq!(pair_count, 6);
}

#[test]
fn diversity_grows_with_multihoming_degree() {
    // Single-homed sites expose exactly 1 path; 4-homed sites expose ≥4
    // candidate first hops (some may collapse if the core offers no
    // alternative, so assert ≥ 3).
    let single = generate(&GenParams {
        transits: 6,
        edges: 2,
        providers_per_edge: (1, 1),
        transit_peering_prob: 0.6,
        seed: 11,
        ..GenParams::default()
    });
    let mut p = TangoPairing::build(
        single.topology.clone(),
        std::iter::empty(),
        side(single.edge_sites[0], 0, 0),
        side(single.edge_sites[1], 1, 1),
        PairingOptions::default(),
    )
    .unwrap();
    // With one provider each and a meshed core there can still be only
    // one exit — the suppression loop ends after 1 path.
    assert_eq!(
        p.provisioned.from(Side::A).paths.len(),
        1,
        "single-homed: one path"
    );
    p.run_until(SimTime::from_secs(2));
    assert!(p.mean_owd_ms(Side::A, 0).is_some());

    let multi = generate(&GenParams {
        transits: 6,
        edges: 2,
        providers_per_edge: (4, 4),
        transit_peering_prob: 0.6,
        seed: 12,
        ..GenParams::default()
    });
    let p = TangoPairing::build(
        multi.topology.clone(),
        std::iter::empty(),
        side(multi.edge_sites[0], 0, 0),
        side(multi.edge_sites[1], 1, 1),
        PairingOptions::default(),
    )
    .unwrap();
    assert!(
        p.provisioned.from(Side::A).paths.len() >= 3,
        "4-homed: got {}",
        p.provisioned.from(Side::A).paths.len()
    );
}

#[test]
fn n16_internet_mesh_converges_with_diversity_and_no_violations() {
    // The scalability tentpole's integration check: an N=16 mesh over a
    // 300-AS scale-free internet — all pairs must converge, discovery
    // must expose the diversity the multihomed PoPs are wired with, and
    // no routing invariant may break.
    let out = tango::npop::run_npop(&tango::npop::NPopOptions {
        ases: 300,
        pops: 16,
        seed: 42,
        traffic_packets: 240, // one packet both ways for each of the 120 pairs
        ..tango::npop::NPopOptions::default()
    })
    .expect("N=16 mesh runs");

    // All pairs converge: every ordered pair holds a route to the other
    // side's host prefix, and no discovery came up empty.
    assert_eq!(out.reachable_routes, 16 * 15, "all ordered pairs converge");
    assert_eq!(out.pairs.len(), 120, "C(16,2) unordered pairs probed");
    assert_eq!(out.unreachable_pairs, 0);

    // Known diversity: `GenParams::internet` multihomes every PoP with
    // 2..=3 providers, so discovery must surface >= 2 paths per pair.
    for p in &out.pairs {
        assert!(
            p.paths >= 2,
            "pair {:?}->{:?}: {} paths (multihoming guarantees 2)",
            p.a,
            p.b,
            p.paths
        );
        assert!(p.stretch_x1000 >= 1000, "stretch is default/best");
    }

    // Zero invariant violations: every discovered path valley-free, and
    // the invariant checker (fed the traffic phase's loop detector)
    // reports a clean run.
    assert_eq!(out.valley_violations(), 0, "no valley-free violations");
    let report = tango::invariant::check(&[], out.ttl_expired);
    assert!(report.ok(), "invariants violated: {report}");
    assert!(out.deliveries > 0, "traffic phase delivered packets");
}

#[test]
fn adaptive_policy_works_on_generated_topologies_too() {
    let g = generate(&GenParams {
        transits: 7,
        edges: 2,
        providers_per_edge: (3, 3),
        transit_peering_prob: 0.5,
        seed: 21,
        ..GenParams::default()
    });
    let mut p = TangoPairing::build(
        g.topology.clone(),
        std::iter::empty(),
        side(g.edge_sites[0], 0, 0),
        side(g.edge_sites[1], 1, 1),
        PairingOptions {
            seed: 22,
            control_period: Some(SimTime::from_ms(100)),
            policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
            ..PairingOptions::default()
        },
    )
    .unwrap();
    p.run_until(SimTime::from_secs(15));
    // The policy must settle on the measured-best path.
    let history = p.stats(Side::B).lock().selection_history.clone();
    let final_choice = history.last().expect("control ran").1[0];
    let best = (0..p.provisioned.from(Side::B).paths.len() as u16)
        .min_by(|a, b| {
            p.mean_owd_ms(Side::A, *a)
                .unwrap()
                .partial_cmp(&p.mean_owd_ms(Side::A, *b).unwrap())
                .unwrap()
        })
        .unwrap();
    assert_eq!(
        final_choice, best,
        "policy settled on {final_choice}, best is {best}"
    );
}
