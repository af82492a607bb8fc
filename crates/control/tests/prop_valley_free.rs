//! Property-based tests for the routing invariants of §4.1 discovery
//! over generated internet-scale topologies (satellite (a) of the
//! scalability tentpole): every path the suppress-and-observe loop
//! surfaces must be valley-free under the Gao-Rexford labels, must be a
//! real adjacency chain with positive propagation delay, and discovery
//! must leave no probe state behind. A differential property checks the
//! engine's community edit — a fresh announcement of the probe — against
//! re-originating it over the live routes.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tango_bgp::engine::RibStats;
use tango_bgp::policy::path_is_valley_free;
use tango_bgp::{BgpEngine, Community, Route};
use tango_control::{discover_paths, DiscoveredPath};
use tango_net::IpCidr;
use tango_topology::gen::{try_generate, GenParams, Generated};
use tango_topology::AsId;

/// A small internet draw: big enough for real transit hierarchies,
/// small enough for 64 cases of all-pairs discovery.
fn small_internet() -> impl Strategy<Value = GenParams> {
    (40usize..100, 3usize..5, any::<u64>())
        .prop_map(|(ases, edges, seed)| GenParams::internet(ases, edges, seed))
}

fn probe(i: usize) -> IpCidr {
    format!("2001:db8:{:x}::/48", 0xf00 + i)
        .parse()
        .expect("static prefix template")
}

/// A converged-ready engine over the generated graph: every edge site
/// honors the action communities its own announcements will carry.
fn engine(g: &Generated) -> BgpEngine {
    let mut e = BgpEngine::new(g.topology.clone());
    for &pop in &g.edge_sites {
        e.set_honor_actions(pop, true).expect("edge exists");
    }
    e
}

/// Run discovery for every unordered edge-site pair, handing each
/// discovered path (with its full observer-rooted node sequence) to
/// `check`.
fn for_all_pairs(
    g: &Generated,
    mut check: impl FnMut(AsId, AsId, usize, &[AsId]) -> Result<(), String>,
) -> Result<(), String> {
    let mut e = engine(g);
    for i in 0..g.edge_sites.len() {
        for j in (i + 1)..g.edge_sites.len() {
            let (observer, announcer) = (g.edge_sites[i], g.edge_sites[j]);
            let paths = discover_paths(
                &mut e,
                announcer,
                observer,
                probe(j),
                &[announcer, observer],
                8,
            )
            .expect("connected valley-free graph: every pair discovers");
            prop_assert!(
                paths.len() >= 2,
                "pair {observer:?}->{announcer:?}: {} paths, multihoming guarantees >= 2",
                paths.len()
            );
            for (k, p) in paths.iter().enumerate() {
                let mut nodes = Vec::with_capacity(p.as_path.len() + 1);
                nodes.push(observer);
                nodes.extend_from_slice(&p.as_path);
                check(observer, announcer, k, &nodes)?;
            }
        }
    }
    Ok(())
}

/// How a discovery step attaches its grown suppression set.
#[derive(Debug, Clone, Copy)]
enum Suppress {
    /// `set_announcement_communities`, as `discover_paths` does: the
    /// engine blanks the probe's column and announces it afresh.
    Edit,
    /// `announce` over the live origination: a re-origination the engine
    /// converges incrementally, over the previous step's routes.
    Reannounce,
}

/// Every node's best route to the probe, and the RIB totals.
type StepState = (Vec<Option<Route>>, RibStats);

/// A test-side copy of the §4.1 loop of `discover_paths` (at most 8
/// paths) over PoPs that are never adjacent, attaching each suppression
/// set by `how` and recording the engine's state after every convergence.
fn discover_stepwise(
    e: &mut BgpEngine,
    nodes: &[AsId],
    (announcer, observer, probe): (AsId, AsId, IpCidr),
    how: Suppress,
) -> (Vec<DiscoveredPath>, Vec<StepState>) {
    let mut states = Vec::new();
    let mut converge = |e: &mut BgpEngine| {
        e.converge().expect("Gao-Rexford policies converge");
        let routes = nodes.iter().map(|&n| e.best_route(n, probe));
        states.push((routes.collect(), e.rib_stats()));
    };
    let mut discovered = Vec::new();
    let mut communities = BTreeSet::new();
    e.announce(announcer, probe, BTreeSet::new())
        .expect("a graph node");
    converge(e);
    while discovered.len() < 8 {
        let Some(as_path) = e.as_path(observer, probe).map(<[AsId]>::to_vec) else {
            break;
        };
        let transit_path: Vec<AsId> = as_path
            .iter()
            .copied()
            .filter(|a| !a.is_private() && ![announcer, observer].contains(a))
            .collect();
        let exit = *transit_path
            .last()
            .expect("edge sites only attach to transits");
        discovered.push(DiscoveredPath {
            transit_path,
            as_path,
            pin_communities: communities.clone(),
        });
        communities.insert(Community::NoExportTo(exit));
        match how {
            Suppress::Edit => {
                let edited = e.set_announcement_communities(announcer, probe, communities.clone());
                assert!(edited.expect("a graph node"), "the set grew");
            }
            Suppress::Reannounce => e
                .announce(announcer, probe, communities.clone())
                .expect("a graph node"),
        }
        converge(e);
    }
    e.withdraw(announcer, probe).expect("a graph node");
    converge(e);
    (discovered, states)
}

proptest! {
    /// The community lever two ways, every ordered PoP pair in turn on
    /// three engines: discovery whose edits the engine turns into fresh
    /// announcements, the same loop re-originating each suppression over
    /// the live routes, and `discover_paths` itself. Gao-Rexford's one
    /// stable state makes them agree on every path and pin set, and after
    /// every step on every node's best route and on the RIB totals.
    #[test]
    fn discovery_from_a_blank_column_equals_discovery_over_live_routes(
        ases in 30usize..70,
        pops in 3usize..7,
        seed in any::<u64>(),
    ) {
        let g = try_generate(&GenParams::internet(ases, pops, seed)).expect("preset is valid");
        let nodes: Vec<AsId> = g.topology.nodes().map(|n| n.id).collect();
        let (mut fresh, mut reference, mut library) = (engine(&g), engine(&g), engine(&g));
        for (j, &announcer) in g.edge_sites.iter().enumerate() {
            for &observer in g.edge_sites.iter().filter(|&&o| o != announcer) {
                let pair = (announcer, observer, probe(j));
                let (paths, steps) = discover_stepwise(&mut fresh, &nodes, pair, Suppress::Edit);
                let (ref_paths, ref_steps) =
                    discover_stepwise(&mut reference, &nodes, pair, Suppress::Reannounce);
                prop_assert_eq!(&paths, &ref_paths, "pair {observer:?}->{announcer:?}");
                prop_assert_eq!(steps.len(), ref_steps.len());
                for (k, (step, ref_step)) in steps.iter().zip(&ref_steps).enumerate() {
                    for (n, (route, ref_route)) in nodes.iter().zip(step.0.iter().zip(&ref_step.0)) {
                        prop_assert_eq!(
                            route,
                            ref_route,
                            "pair {observer:?}->{announcer:?}, step {k}: best route at {n:?}"
                        );
                    }
                    prop_assert_eq!(
                        step.1,
                        ref_step.1,
                        "pair {observer:?}->{announcer:?}, step {k}: RIB occupancy"
                    );
                }
                let library_paths =
                    discover_paths(&mut library, announcer, observer, probe(j), &[announcer, observer], 8)
                        .expect("every pair discovers");
                prop_assert_eq!(paths, library_paths, "the test-side loop is discover_paths");
            }
        }
    }

    /// Satellite (a): every path installed by discovery is valley-free
    /// under the generated Gao-Rexford customer/provider/peer labels —
    /// the suppression loop can only surface routes the export policy
    /// was willing to propagate.
    #[test]
    fn discovered_paths_are_valley_free(params in small_internet()) {
        let g = try_generate(&params).expect("internet preset is valid");
        for_all_pairs(&g, |observer, announcer, k, nodes| {
            prop_assert!(
                path_is_valley_free(&g.topology, nodes),
                "pair {observer:?}->{announcer:?} path {k} has a valley: {nodes:?}"
            );
            Ok(())
        })?;
    }

    /// Every discovered path is a chain of real adjacencies ending at
    /// the announcer, with a positive total propagation delay — the
    /// property the scalability sweep's stretch column rests on.
    #[test]
    fn discovered_paths_are_real_adjacency_chains(params in small_internet()) {
        let g = try_generate(&params).expect("internet preset is valid");
        for_all_pairs(&g, |observer, announcer, k, nodes| {
            prop_assert!(
                nodes.last() == Some(&announcer),
                "pair {observer:?}->{announcer:?} path {k} does not end at the announcer"
            );
            let delay = g.topology.path_base_delay_ns(nodes);
            prop_assert!(
                delay.is_some_and(|d| d > 0),
                "pair {observer:?}->{announcer:?} path {k} is not adjacent: {nodes:?}"
            );
            Ok(())
        })?;
    }

    /// Discovery is hermetic: after the loop, no speaker anywhere in
    /// the graph still holds the probe prefix in its Loc-RIB — probes
    /// must never leak into later pairs or the artifact state.
    #[test]
    fn discovery_withdraws_all_probe_state(params in small_internet()) {
        let g = try_generate(&params).expect("internet preset is valid");
        let mut e = engine(&g);
        let (observer, announcer) = (g.edge_sites[0], g.edge_sites[1]);
        let prefix = probe(1);
        discover_paths(&mut e, announcer, observer, prefix, &[announcer, observer], 8)
            .expect("pair discovers");
        for node in g.topology.nodes() {
            prop_assert!(
                e.best_route(node.id, prefix).is_none(),
                "probe survived at {:?}", node.id
            );
        }
    }

    /// The valley-free checker itself rejects fabricated valleys on the
    /// generated graph: a route that descends to a customer and climbs
    /// back up must be refused, whatever the draw.
    #[test]
    fn checker_rejects_fabricated_valleys(params in small_internet()) {
        let g = try_generate(&params).expect("internet preset is valid");
        // Build provider -> transit -> provider detours: down then up.
        let mut checked = 0usize;
        for &t in &g.transits {
            let providers: Vec<AsId> = g.topology.providers(t).into_iter().collect();
            if providers.len() < 2 {
                continue;
            }
            let valley = [providers[0], t, providers[1]];
            prop_assert!(
                !path_is_valley_free(&g.topology, &valley),
                "valley accepted: {valley:?}"
            );
            checked += 1;
            if checked >= 8 {
                break;
            }
        }
        prop_assert!(checked > 0, "draw produced no multihomed transit to test");
    }
}

/// Non-random companion: the BTreeSet import above keeps the probe
/// announcements explicit in the one place plain announcements appear.
#[test]
fn engine_announces_with_empty_communities_compile_check() {
    let g = try_generate(&GenParams::internet(60, 3, 1)).expect("valid");
    let mut e = engine(&g);
    e.announce(g.edge_sites[0], probe(0), BTreeSet::new())
        .expect("edge announces");
    e.converge().expect("converges");
    assert!(e.best_route(g.edge_sites[1], probe(0)).is_some());
}
