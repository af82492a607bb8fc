//! The iterative path-discovery algorithm of §4.1 (step 2).
//!
//! > *"1) We observed the best BGP route for the destination exported by
//! > Vultr to our server at the source DC. 2) We configured our BIRD
//! > instance at the destination DC to attach a BGP community that would
//! > suppress this route. 3) We waited for BGP to propagate and confirmed
//! > that the source DC now sees an alternate route. 4) We recorded the
//! > communities and routes involved and repeated the process... This was
//! > repeated until suppressing the used route caused the prefix to
//! > become unreachable by the other endpoint."*
//!
//! The function below runs that loop against a [`BgpEngine`]. It probes
//! one *direction*: paths for traffic `observer → announcer` (the
//! announcer's prefix, observed at the other edge).

use std::collections::BTreeSet;
use tango_bgp::{BgpEngine, Community, EngineError};
use tango_net::IpCidr;
use tango_topology::AsId;

/// One discovered wide-area path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredPath {
    /// The transit sequence, source side first (e.g. `[NTT, COGENT]`),
    /// with borders and private ASNs stripped.
    pub transit_path: Vec<AsId>,
    /// The full AS path as observed at the source edge.
    pub as_path: Vec<AsId>,
    /// The community set that, attached at the announcer, pins an
    /// announcement onto this path (suppressing all preferred routes).
    pub pin_communities: BTreeSet<Community>,
}

impl DiscoveredPath {
    /// The distinguishing carrier: the transit adjacent to the announcing
    /// edge. The paper labels paths by it ("NTT and Cogent ... we refer
    /// to this as Cogent").
    pub fn distinguishing_carrier(&self) -> Option<AsId> {
        self.transit_path.last().copied()
    }
}

/// Discovery failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryError {
    /// The underlying BGP engine failed.
    Engine(EngineError),
    /// The prefix was unreachable before any path was found.
    NoPathAtAll,
    /// The observed best path had no transit hop to suppress (the two
    /// edges are directly connected — nothing for Tango to do).
    DegeneratePath,
}

impl From<EngineError> for DiscoveryError {
    fn from(e: EngineError) -> Self {
        DiscoveryError::Engine(e)
    }
}

impl core::fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DiscoveryError::Engine(e) => write!(f, "BGP engine: {e}"),
            DiscoveryError::NoPathAtAll => write!(f, "prefix unreachable before discovery"),
            DiscoveryError::DegeneratePath => {
                write!(f, "observed path has no transit hop to suppress")
            }
        }
    }
}

impl std::error::Error for DiscoveryError {}

/// Run the discovery loop.
///
/// * `announcer` originates `probe_prefix` (it is announced and finally
///   withdrawn by this function);
/// * `observer` is the other edge, whose best-route view drives the loop;
/// * `infrastructure` lists node ids to strip when extracting the transit
///   path (the two borders; private tenant ASNs are stripped
///   automatically);
/// * at most `max_paths` paths are probed (a safety bound — the loop
///   normally ends when the prefix becomes unreachable).
pub fn discover_paths(
    engine: &mut BgpEngine,
    announcer: AsId,
    observer: AsId,
    probe_prefix: IpCidr,
    infrastructure: &[AsId],
    max_paths: usize,
) -> Result<Vec<DiscoveredPath>, DiscoveryError> {
    let mut discovered = Vec::new();
    let mut communities: BTreeSet<Community> = BTreeSet::new();
    engine.announce(announcer, probe_prefix, communities.clone())?;
    engine.converge()?;

    while discovered.len() < max_paths {
        let Some(as_path) = engine.as_path(observer, probe_prefix).map(<[AsId]>::to_vec) else {
            break; // unreachable: the loop's natural end
        };
        let transit_path: Vec<AsId> = as_path
            .iter()
            .copied()
            .filter(|a| !a.is_private() && !infrastructure.contains(a))
            .collect();
        let Some(&adjacent_transit) = transit_path.last() else {
            engine.withdraw(announcer, probe_prefix)?;
            engine.converge()?;
            return Err(DiscoveryError::DegeneratePath);
        };
        discovered.push(DiscoveredPath {
            transit_path,
            as_path,
            pin_communities: communities.clone(),
        });
        // Suppress the transit the announcement currently exits through.
        communities.insert(Community::NoExportTo(adjacent_transit));
        engine.set_announcement_communities(announcer, probe_prefix, communities.clone())?;
        engine.converge()?;
    }

    // Clean up the probe announcement.
    engine.withdraw(announcer, probe_prefix)?;
    engine.converge()?;

    if discovered.is_empty() {
        return Err(DiscoveryError::NoPathAtAll);
    }
    Ok(discovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_bgp::engine::RibStats;
    use tango_topology::vultr::{
        vultr_scenario, COGENT, GTT, LEVEL3, NTT, TELIA, TENANT_LA, TENANT_NY, VULTR_LA, VULTR_NY,
    };
    use tango_topology::{AsKind, AsNode, DirectionProfile, LinkProfile, Topology};

    fn engine() -> BgpEngine {
        let s = vultr_scenario();
        let mut e = BgpEngine::new(s.topology.clone());
        for border in [VULTR_LA, VULTR_NY] {
            e.set_strip_private(border, true).unwrap();
            e.set_honor_actions(border, true).unwrap();
            e.set_neighbor_pref(border, s.neighbor_pref[&border].clone())
                .unwrap();
        }
        e
    }

    fn pfx(s: &str) -> IpCidr {
        s.parse().unwrap()
    }

    #[test]
    fn discovers_fig3_paths_ny_to_la() {
        let mut e = engine();
        let paths = discover_paths(
            &mut e,
            TENANT_LA,
            TENANT_NY,
            pfx("2001:db8:fe::/48"),
            &[VULTR_LA, VULTR_NY],
            8,
        )
        .unwrap();
        let transits: Vec<Vec<AsId>> = paths.iter().map(|p| p.transit_path.clone()).collect();
        assert_eq!(
            transits,
            vec![vec![NTT], vec![TELIA], vec![GTT], vec![NTT, LEVEL3]],
            "Fig. 3 NY→LA order"
        );
        // Pin sets are cumulative suppressions.
        assert!(paths[0].pin_communities.is_empty());
        assert_eq!(paths[2].pin_communities.len(), 2);
        assert_eq!(paths[3].distinguishing_carrier(), Some(LEVEL3));
    }

    #[test]
    fn discovers_fig3_paths_la_to_ny() {
        let mut e = engine();
        let paths = discover_paths(
            &mut e,
            TENANT_NY,
            TENANT_LA,
            pfx("2001:db8:fd::/48"),
            &[VULTR_LA, VULTR_NY],
            8,
        )
        .unwrap();
        let transits: Vec<Vec<AsId>> = paths.iter().map(|p| p.transit_path.clone()).collect();
        assert_eq!(
            transits,
            vec![vec![NTT], vec![TELIA], vec![GTT], vec![NTT, COGENT]],
            "Fig. 3 LA→NY order, 4th labeled Cogent"
        );
        assert_eq!(paths[3].distinguishing_carrier(), Some(COGENT));
    }

    #[test]
    fn discovery_cleans_up_probe_prefix() {
        let mut e = engine();
        let p = pfx("2001:db8:fc::/48");
        discover_paths(&mut e, TENANT_LA, TENANT_NY, p, &[VULTR_LA, VULTR_NY], 8).unwrap();
        assert!(
            e.best_route(TENANT_NY, p).is_none(),
            "probe must be withdrawn"
        );
        assert!(e.best_route(VULTR_NY, p).is_none());
    }

    #[test]
    fn max_paths_bounds_the_loop() {
        let mut e = engine();
        let paths = discover_paths(
            &mut e,
            TENANT_LA,
            TENANT_NY,
            pfx("2001:db8:fb::/48"),
            &[VULTR_LA, VULTR_NY],
            2,
        )
        .unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].transit_path, vec![NTT]);
        assert_eq!(paths[1].transit_path, vec![TELIA]);
    }

    /// The graph of `links` (customer, provider), each end a transit AS, and
    /// an engine over it with a host prefix converged at AS 1.
    fn small(links: &[(u32, u32)]) -> (Topology, BgpEngine) {
        let lp = || LinkProfile::symmetric(DirectionProfile::constant(1));
        let mut t = Topology::new();
        for &(customer, provider) in links {
            for id in [customer, provider] {
                t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                    .unwrap();
            }
            t.add_provider(AsId(customer), AsId(provider), lp())
                .unwrap();
        }
        let mut e = BgpEngine::new(t.clone());
        e.announce(AsId(1), pfx("2001:db8:1::/48"), BTreeSet::new())
            .unwrap();
        e.converge().unwrap();
        (t, e)
    }

    /// On an error path, discovery has withdrawn the probe: no speaker
    /// holds a route for it, and the RIB totals are back to `before`.
    fn assert_probe_withdrawn(e: &BgpEngine, t: &Topology, probe: IpCidr, before: RibStats) {
        for node in t.nodes() {
            assert!(e.best_route(node.id, probe).is_none(), "{:?}", node.id);
        }
        assert_eq!(e.rib_stats(), before);
    }

    #[test]
    fn observer_without_route_errors() {
        // The announcer 1 and the observer 2 are in different components.
        let (t, mut e) = small(&[(1, 10), (2, 20)]);
        let (before, probe) = (e.rib_stats(), pfx("2001:db8:fa::/48"));
        let result = discover_paths(&mut e, AsId(1), AsId(2), probe, &[], 8);
        assert_eq!(result, Err(DiscoveryError::NoPathAtAll));
        assert_probe_withdrawn(&e, &t, probe, before);
    }

    #[test]
    fn observer_behind_the_announcer_errors_degenerate_path() {
        // The observer 1's only provider is the announcer 10, passed as
        // infrastructure: the observed path has no transit to suppress.
        let (t, mut e) = small(&[(1, 10)]);
        let (before, probe) = (e.rib_stats(), pfx("2001:db8:fa::/48"));
        let infrastructure = [AsId(10), AsId(1)];
        let result = discover_paths(&mut e, AsId(10), AsId(1), probe, &infrastructure, 8);
        assert_eq!(result, Err(DiscoveryError::DegeneratePath));
        assert_probe_withdrawn(&e, &t, probe, before);
    }

    /// Discovery first announces the probe with no communities, exactly
    /// as the LA tenant announces its host prefix: with that prefix
    /// converged first, the first step copies its column — a twin fill,
    /// no update executed — and discovery finds the same paths and pins
    /// and bills the same updates as without it.
    #[test]
    fn a_converged_host_prefix_makes_the_first_step_a_fill() {
        let updates = |r: &tango_obs::Registry| r.snapshot().counters["bgp.updates_processed"];
        let run = |host: bool| {
            let registry = tango_obs::Registry::new();
            let mut e = engine();
            e.set_obs(&registry);
            if host {
                let la_hosts = pfx("2001:db8:1ff::/48");
                e.announce(TENANT_LA, la_hosts, BTreeSet::new()).unwrap();
                e.converge().unwrap();
            }
            let (billed, work) = (updates(&registry), e.work());
            let probe = pfx("2001:db8:fe::/48");
            let infrastructure = [VULTR_LA, VULTR_NY];
            let paths =
                discover_paths(&mut e, TENANT_LA, TENANT_NY, probe, &infrastructure, 8).unwrap();
            let (fills, executed) = (e.work().fills - work.fills, e.work().updates - work.updates);
            // Without the host prefix, `billed` is 0; with it, its flood.
            (paths, updates(&registry) - billed, fills, executed, billed)
        };
        let (paths, billed, fills, executed, _) = run(false);
        let (host_paths, host_billed, host_fills, host_executed, host_flood) = run(true);
        assert_eq!(paths.len(), 4, "Fig. 3 NY→LA");
        assert_eq!(host_paths, paths, "same paths, same pins");
        assert_eq!(host_billed, billed, "same updates_processed");
        assert_eq!((fills, host_fills), (0, 1));
        assert!(host_flood > 0);
        assert_eq!(
            host_executed,
            executed - host_flood,
            "the first step executed none of its flood"
        );
    }

    #[test]
    fn as_paths_are_private_free() {
        let mut e = engine();
        let paths = discover_paths(
            &mut e,
            TENANT_LA,
            TENANT_NY,
            pfx("2001:db8:f9::/48"),
            &[VULTR_LA, VULTR_NY],
            8,
        )
        .unwrap();
        for p in &paths {
            assert!(p.as_path.iter().all(|a| !a.is_private()), "{:?}", p.as_path);
        }
    }
}
