//! Provisioning: from discovered paths to a running tunnel configuration.
//!
//! §4.1 step 3 / §3: each side announces one prefix per discovered path
//! (with the community set that pins it), carves tunnel endpoints out of
//! those prefixes, and installs a static table mapping the peer's host
//! prefixes to the tunnel set. *"In our setup, each server advertises
//! four different /48 prefixes."*

use crate::discovery::{discover_paths, DiscoveredPath, DiscoveryError};
use std::collections::BTreeSet;
use tango_bgp::{BgpEngine, EngineError};
use tango_dataplane::Tunnel;
use tango_net::{IpCidr, Ipv6Cidr};
use tango_topology::{AsId, Topology};

/// One side of a Tango pairing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideConfig {
    /// The Tango switch's node id (the tenant server in the prototype).
    pub tenant: AsId,
    /// The provider border it speaks eBGP with.
    pub border: AsId,
    /// Address block to carve per-path /48 tunnel prefixes from
    /// (a /44 fits 16 paths).
    pub block: Ipv6Cidr,
    /// The host-addressing prefix (§3: "a distinct set of prefixes (not
    /// used for tunnels between Tango switches) that is used for host
    /// addressing"); announced plainly so non-Tango endpoints still work.
    pub host_prefix: IpCidr,
}

/// Provisioning failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionError {
    /// Discovery failed in one direction.
    Discovery(DiscoveryError),
    /// The BGP engine failed.
    Engine(EngineError),
    /// The address block is too small for the discovered path count.
    BlockTooSmall,
    /// After provisioning, a pinned prefix converged onto the wrong path.
    PinMismatch {
        /// The prefix that failed verification.
        prefix: IpCidr,
        /// The path it was meant to take.
        wanted: Vec<AsId>,
        /// The path it actually converged to (None = unreachable).
        got: Option<Vec<AsId>>,
    },
}

impl From<DiscoveryError> for ProvisionError {
    fn from(e: DiscoveryError) -> Self {
        ProvisionError::Discovery(e)
    }
}

impl From<EngineError> for ProvisionError {
    fn from(e: EngineError) -> Self {
        ProvisionError::Engine(e)
    }
}

impl core::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProvisionError::Discovery(e) => write!(f, "discovery: {e}"),
            ProvisionError::Engine(e) => write!(f, "engine: {e}"),
            ProvisionError::BlockTooSmall => write!(f, "address block too small for path count"),
            ProvisionError::PinMismatch {
                prefix,
                wanted,
                got,
            } => {
                write!(
                    f,
                    "prefix {prefix} pinned to {wanted:?} but converged to {got:?}"
                )
            }
        }
    }
}

impl std::error::Error for ProvisionError {}

/// Which edge of the pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first configured side.
    A,
    /// The second configured side.
    B,
}

impl Side {
    /// Both sides, in the order every per-side step runs.
    pub const BOTH: [Side; 2] = [Side::A, Side::B];

    /// The other side.
    pub fn peer(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }

    /// This side's slot in a per-side `[T; 2]`.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// One direction of a provisioned pairing: what a side sends on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Direction {
    /// Paths usable by traffic from this side to its peer (announced by
    /// the peer, observed here), parallel to `tunnels`.
    pub paths: Vec<DiscoveredPath>,
    /// Tunnel table for this side's switch (sending toward the peer).
    pub tunnels: Vec<Tunnel>,
}

/// Everything both switches need after provisioning.
#[derive(Debug, Clone)]
pub struct ProvisionedPairing {
    directions: [Direction; 2],
}

impl ProvisionedPairing {
    /// The direction of traffic sent *from* `side` (A→B for `Side::A`).
    pub fn from(&self, side: Side) -> &Direction {
        &self.directions[side.idx()]
    }
}

fn label_for(topology: &Topology, path: &DiscoveredPath) -> String {
    match path.distinguishing_carrier() {
        Some(id) => topology
            .node(id)
            .map_or_else(|| id.to_string(), |n| n.name.clone()),
        None => "direct".to_string(),
    }
}

/// Carve the `i`-th /48 out of a block.
fn path_prefix(block: &Ipv6Cidr, i: usize) -> Result<Ipv6Cidr, ProvisionError> {
    block
        .subnet(48, i as u128)
        .map_err(|_| ProvisionError::BlockTooSmall)
}

/// Discover paths in both directions, announce pinned per-path prefixes
/// and the host prefixes, converge, and verify every pin; name tunnels
/// after `topology`'s nodes.
///
/// Tunnel ids are indexes into the discovery order (0 = the BGP-default
/// path); the same id on both sides refers to *different* directions'
/// paths, which is fine — tunnels are unidirectional.
pub fn provision(
    engine: &mut BgpEngine,
    topology: &Topology,
    a: &SideConfig,
    b: &SideConfig,
    max_paths: usize,
) -> Result<ProvisionedPairing, ProvisionError> {
    let sides = [a, b];
    let infra = [a.border, b.border];
    // Borders must strip private ASNs and honor the action communities.
    for border in infra {
        engine.set_strip_private(border, true)?;
        engine.set_honor_actions(border, true)?;
    }

    // Paths for traffic side→peer are exposed by announcements from the
    // peer. Discovery uses a scratch prefix carved from the announcing
    // block's top end so it can't collide with path prefixes (index 15
    // of a /44).
    let mut directions: [Direction; 2] = Default::default();
    for side in Side::BOTH {
        let (me, peer) = (sides[side.idx()], sides[side.peer().idx()]);
        directions[side.idx()].paths = discover_paths(
            engine,
            peer.tenant,
            me.tenant,
            IpCidr::V6(path_prefix(&peer.block, 15)?),
            &infra,
            max_paths,
        )?;
    }

    // Each side's tunnels target the pinned per-path prefixes its peer
    // announces: B's prefixes carry A→B traffic, A's carry B→A.
    let mut targets: [Vec<Ipv6Cidr>; 2] = Default::default();
    for side in Side::BOTH {
        let peer = sides[side.peer().idx()];
        for (i, path) in directions[side.idx()].paths.iter().enumerate() {
            let prefix = path_prefix(&peer.block, i)?;
            engine.announce(
                peer.tenant,
                IpCidr::V6(prefix),
                path.pin_communities.clone(),
            )?;
            targets[side.idx()].push(prefix);
        }
    }
    for config in sides {
        engine.announce(config.tenant, config.host_prefix, BTreeSet::new())?;
    }
    engine.converge()?;

    // Verify every pin — the converged AS path for prefix i, seen from
    // the sending side, must match discovery's path i — then build the
    // side's tunnel table. A tunnel only needs a routable local address;
    // we use the side's own path-i prefix (or the last one if counts
    // differ).
    for side in Side::BOTH {
        let observer = sides[side.idx()].tenant;
        let (remote, local) = (&targets[side.idx()], &targets[side.peer().idx()]);
        let direction = &mut directions[side.idx()];
        for (i, (prefix, want)) in remote.iter().zip(&direction.paths).enumerate() {
            let got: Option<Vec<AsId>> = engine.as_path(observer, IpCidr::V6(*prefix)).map(|p| {
                p.iter()
                    .copied()
                    .filter(|x| !x.is_private() && !infra.contains(x))
                    .collect()
            });
            if got.as_deref() != Some(&want.transit_path[..]) {
                return Err(ProvisionError::PinMismatch {
                    prefix: IpCidr::V6(*prefix),
                    wanted: want.transit_path.clone(),
                    got,
                });
            }
            direction.tunnels.push(Tunnel::from_prefixes(
                i as u16,
                label_for(topology, want),
                local[i.min(local.len() - 1)],
                *prefix,
            ));
        }
    }
    Ok(ProvisionedPairing { directions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_topology::vultr::{
        vultr_scenario, COGENT, GTT, LEVEL3, NTT, TELIA, TENANT_LA, TENANT_NY, VULTR_LA, VULTR_NY,
    };

    fn engine() -> BgpEngine {
        let s = vultr_scenario();
        let mut e = BgpEngine::new(s.topology.clone());
        for border in [VULTR_LA, VULTR_NY] {
            e.set_neighbor_pref(border, s.neighbor_pref[&border].clone())
                .unwrap();
        }
        e
    }

    fn la() -> SideConfig {
        SideConfig {
            tenant: TENANT_LA,
            border: VULTR_LA,
            block: "2001:db8:100::/44".parse().unwrap(),
            host_prefix: "2001:db8:1ff::/48".parse().unwrap(),
        }
    }

    fn ny() -> SideConfig {
        SideConfig {
            tenant: TENANT_NY,
            border: VULTR_NY,
            block: "2001:db8:200::/44".parse().unwrap(),
            host_prefix: "2001:db8:2ff::/48".parse().unwrap(),
        }
    }

    #[test]
    fn provisions_four_verified_tunnels_each_way() {
        let mut e = engine();
        let p = provision(&mut e, &vultr_scenario().topology, &la(), &ny(), 8).unwrap();
        assert_eq!(p.from(Side::A).tunnels.len(), 4);
        assert_eq!(p.from(Side::B).tunnels.len(), 4);
        let labels: Vec<&str> = p
            .from(Side::A)
            .tunnels
            .iter()
            .map(|t| t.label.as_str())
            .collect();
        assert_eq!(
            labels,
            vec!["NTT", "Telia", "GTT", "Cogent"],
            "LA→NY labels"
        );
        let labels: Vec<&str> = p
            .from(Side::B)
            .tunnels
            .iter()
            .map(|t| t.label.as_str())
            .collect();
        assert_eq!(
            labels,
            vec!["NTT", "Telia", "GTT", "Level3"],
            "NY→LA labels"
        );
        // Discovery order matches Fig. 3.
        assert_eq!(p.from(Side::A).paths[3].transit_path, vec![NTT, COGENT]);
        assert_eq!(p.from(Side::B).paths[3].transit_path, vec![NTT, LEVEL3]);
        assert_eq!(p.from(Side::A).paths[2].transit_path, vec![GTT]);
        assert_eq!(p.from(Side::B).paths[1].transit_path, vec![TELIA]);
    }

    #[test]
    fn tunnel_endpoints_live_in_carved_prefixes() {
        let mut e = engine();
        let p = provision(&mut e, &vultr_scenario().topology, &la(), &ny(), 8).unwrap();
        // LA tunnel 2 (GTT) must target NY's third /48.
        let want: Ipv6Cidr = "2001:db8:202::/48".parse().unwrap();
        assert!(want.contains(p.from(Side::A).tunnels[2].remote_endpoint));
        // And NY tunnel 2's remote lives in LA's third /48.
        let want: Ipv6Cidr = "2001:db8:102::/48".parse().unwrap();
        assert!(want.contains(p.from(Side::B).tunnels[2].remote_endpoint));
    }

    #[test]
    fn converged_engine_routes_each_tunnel_prefix_distinctly() {
        let mut e = engine();
        let p = provision(&mut e, &vultr_scenario().topology, &la(), &ny(), 8).unwrap();
        // Forwarding traces from NY toward each LA prefix hit the right
        // transit.
        let transits = [NTT, TELIA, GTT, NTT /* Level3 path starts at NTT */];
        for (i, t) in p.from(Side::B).tunnels.iter().enumerate() {
            let dst = IpCidr::V6(Ipv6Cidr::new(t.remote_endpoint, 48).unwrap());
            let trace = e.trace_path(TENANT_NY, dst).unwrap();
            assert_eq!(trace[2], transits[i], "tunnel {i} first transit");
        }
    }

    #[test]
    fn host_prefixes_reachable_without_communities() {
        let mut e = engine();
        provision(&mut e, &vultr_scenario().topology, &la(), &ny(), 8).unwrap();
        assert!(e
            .as_path(TENANT_NY, "2001:db8:1ff::/48".parse().unwrap())
            .is_some());
        assert!(e
            .as_path(TENANT_LA, "2001:db8:2ff::/48".parse().unwrap())
            .is_some());
    }

    #[test]
    fn max_paths_limits_tunnels() {
        let mut e = engine();
        let p = provision(&mut e, &vultr_scenario().topology, &la(), &ny(), 2).unwrap();
        assert_eq!(p.from(Side::A).tunnels.len(), 2);
        assert_eq!(p.from(Side::B).tunnels.len(), 2);
    }

    #[test]
    fn block_too_small_is_reported() {
        let mut e = engine();
        let mut a = la();
        a.block = "2001:db8:100::/48".parse().unwrap(); // no room for /48 subnets
        match provision(&mut e, &vultr_scenario().topology, &a, &ny(), 8) {
            Err(ProvisionError::BlockTooSmall) => {}
            other => panic!("expected BlockTooSmall, got {other:?}"),
        }
    }
}
