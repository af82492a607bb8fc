//! Cross-crate integration: "Tango of N" (§6) — pairings over generated
//! scale-free topologies, multihomed-enterprise (self-bordered) switches
//! included, every side from the one PoP address plan
//! ([`tango::npop::pop_side`]).

use tango::npop::{pop_side, NPopMesh};
use tango::prelude::*;
use tango_topology::gen::{generate, GenParams};

/// PoP `idx` of a generated graph, through the N-PoP address plan.
fn side(g: &tango_topology::gen::Generated, idx: usize) -> tango_control::SideConfig {
    pop_side(g.edge_sites[idx], idx)
}

#[test]
fn every_pair_in_a_generated_topology_is_pairable() {
    let g = generate(&GenParams {
        providers_per_edge: (2, 4),
        ..GenParams::internet(60, 4, 3)
    });
    let mut pair_count = 0;
    for i in 0..g.edge_sites.len() {
        for j in (i + 1)..g.edge_sites.len() {
            let mut p = TangoPairing::build(
                g.topology.clone(),
                std::iter::empty(),
                side(&g, i),
                side(&g, j),
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
        providers_per_edge: (1, 1),
        ..GenParams::internet(60, 2, 11)
    });
    let mut p = TangoPairing::build(
        single.topology.clone(),
        std::iter::empty(),
        side(&single, 0),
        side(&single, 1),
        PairingOptions::default(),
    )
    .unwrap();
    // With one provider each there can still be only one exit, however
    // rich the core — the suppression loop ends after 1 path.
    assert_eq!(
        p.provisioned.from(Side::A).paths.len(),
        1,
        "single-homed: one path"
    );
    p.run_until(SimTime::from_secs(2));
    assert!(p.mean_owd_ms(Side::A, 0).is_some());

    let multi = generate(&GenParams {
        providers_per_edge: (4, 4),
        ..GenParams::internet(60, 2, 12)
    });
    let p = TangoPairing::build(
        multi.topology.clone(),
        std::iter::empty(),
        side(&multi, 0),
        side(&multi, 1),
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
        providers_per_edge: (3, 3),
        ..GenParams::internet(60, 2, 21)
    });
    let mut p = TangoPairing::build(
        g.topology.clone(),
        std::iter::empty(),
        side(&g, 0),
        side(&g, 1),
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

#[test]
fn a4_pairings_discover_the_paths_b5_discovers() {
    // A4 (one `TangoPairing` per pair) and B5 (`NPopMesh` all-pairs
    // discovery) run the same §4.1 loop on the same 100-AS / 8-PoP graph:
    // pair by pair, they must expose the same number of paths.
    let (ases, pops, seed) = (100, 8, 1);
    let g = generate(&GenParams::internet(ases, pops, seed));
    let mut mesh = NPopMesh::converge(ases, pops, seed).expect("mesh converges");
    assert_eq!(mesh.pops(), g.edge_sites.as_slice(), "one graph");
    let discovered = mesh.discover(8).expect("discovery runs");
    let mut k = 0;
    for i in 0..pops {
        for j in (i + 1)..pops {
            let p = TangoPairing::build(
                g.topology.clone(),
                std::iter::empty(),
                side(&g, i),
                side(&g, j),
                PairingOptions::default(),
            )
            .unwrap_or_else(|e| panic!("pair {i}-{j}: {e}"));
            assert_eq!(
                p.provisioned.from(Side::A).paths.len(),
                discovered[k].paths,
                "pair {i}-{j}"
            );
            k += 1;
        }
    }
    assert_eq!(k, discovered.len());
}
