//! Property-based tests for the internet-scale topology generator:
//! structural invariants (connectivity, heavy-tailed degrees, provider
//! chains) and bit-identical determinism over arbitrary `GenParams`.

use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
use tango_topology::gen::{try_generate, GenError, GenParams, Generated};
use tango_topology::{AsId, Topology};

/// An internet-preset parameter draw small enough for 32+ cases.
fn internet_params() -> impl Strategy<Value = GenParams> {
    (60usize..300, 3usize..9, any::<u64>())
        .prop_map(|(ases, edges, seed)| GenParams::internet(ases, edges, seed))
}

/// BFS over the undirected adjacency: every node reachable from the
/// first.
fn is_connected(t: &Topology) -> bool {
    let Some(first) = t.nodes().next() else {
        return true;
    };
    let mut seen: BTreeSet<AsId> = BTreeSet::new();
    let mut queue = VecDeque::from([first.id]);
    seen.insert(first.id);
    while let Some(n) = queue.pop_front() {
        for &peer in t.neighbors(n) {
            if seen.insert(peer) {
                queue.push_back(peer);
            }
        }
    }
    seen.len() == t.node_count()
}

fn degrees(g: &Generated) -> Vec<usize> {
    let mut d: Vec<usize> = g
        .topology
        .nodes()
        .map(|n| g.topology.neighbors(n.id).len())
        .collect();
    d.sort_unstable();
    d
}

proptest! {
    /// Satellite (b): the generated graph is connected and its degree
    /// distribution is heavy-tailed — preferential attachment must
    /// produce hubs far above the typical transit, for every seed.
    #[test]
    fn internet_graphs_are_connected_and_heavy_tailed(params in internet_params()) {
        let g = try_generate(&params).expect("internet preset is valid");
        prop_assert!(is_connected(&g.topology), "graph must be connected");
        let d = degrees(&g);
        let median = d[d.len() / 2].max(1);
        let max = *d.last().expect("non-empty graph");
        prop_assert!(
            max >= 4 * median,
            "degrees are not heavy-tailed: max {max} vs median {median}"
        );
        // The hubs are the tier-1 clique plus the oldest transits; the
        // biggest hub must dwarf the per-node wiring parameters.
        prop_assert!(max > 2 * params.uplinks.1, "no preferential hub formed");
    }

    /// Satellite (c): generator output is byte-identical for the same
    /// seed regardless of how many concurrent workers ("shards") are
    /// generating — the digest is a pure function of the parameters.
    #[test]
    fn generation_is_identical_across_1_4_8_workers(params in internet_params()) {
        let reference = try_generate(&params).expect("valid params").digest();
        for workers in [1usize, 4, 8] {
            // tango-lint: allow(thread-spawn) this test exists to prove the generator immune to scheduling: N concurrent workers must all reproduce the single-threaded digest
            let digests: Vec<u64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let p = params.clone();
                        scope.spawn(move || try_generate(&p).expect("valid params").digest())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            for d in digests {
                prop_assert_eq!(
                    d, reference,
                    "digest diverged at {} workers", workers
                );
            }
        }
    }

    /// Every transit climbs to a tier-1 over provider links and every
    /// edge site is multihomed per the requested range — the structure
    /// valley-free reachability rests on.
    #[test]
    fn provider_structure_holds(params in internet_params()) {
        let g = try_generate(&params).expect("valid params");
        let tier1: BTreeSet<AsId> = g.tier1.iter().copied().collect();
        for &t in &g.transits {
            // Walk up providers; the chain must reach the clique.
            let mut frontier = VecDeque::from([t]);
            let mut seen: BTreeSet<AsId> = BTreeSet::new();
            let mut reached = tier1.contains(&t);
            while let Some(n) = frontier.pop_front() {
                if reached {
                    break;
                }
                for p in g.topology.providers(n) {
                    if tier1.contains(&p) {
                        reached = true;
                        break;
                    }
                    if seen.insert(p) {
                        frontier.push_back(p);
                    }
                }
            }
            prop_assert!(reached, "transit {t:?} has no chain to a tier-1");
        }
        for &e in &g.edge_sites {
            let providers = g.topology.providers(e).len();
            prop_assert!(
                providers >= params.providers_per_edge.0
                    && providers <= params.providers_per_edge.1,
                "edge {e:?} has {providers} providers outside {:?}",
                params.providers_per_edge
            );
        }
    }

    /// Invalid parameters are rejected up front with a typed error —
    /// never a panic from deep inside generation.
    #[test]
    fn bad_params_are_rejected_not_panicked(
        lo in 0usize..6,
        hi in 0usize..6,
        transits in 0usize..3,
        tier1 in 0usize..3,
        seed in any::<u64>(),
    ) {
        let params = GenParams {
            tier1,
            transits,
            providers_per_edge: (lo, hi),
            ..GenParams::internet(60, 2, seed)
        };
        let result = try_generate(&params);
        let invalid = tier1 == 0 || transits == 0 || lo == 0 || lo > hi;
        match result {
            Ok(_) => prop_assert!(!invalid, "invalid params accepted: {params:?}"),
            Err(e) => {
                prop_assert!(invalid, "valid params rejected: {params:?} -> {e}");
                prop_assert!(matches!(
                    e,
                    GenError::NoTier1
                        | GenError::NoTransits
                        | GenError::BadProviderRange { .. }
                ));
            }
        }
    }
}
