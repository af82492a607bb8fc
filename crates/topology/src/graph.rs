//! The AS-level topology graph.
//!
//! Nodes are routing domains ([`crate::asys`]); edges carry a business
//! [`Relationship`] (Gao-Rexford) used by `tango-bgp`'s export policy and a
//! [`LinkProfile`] used by `tango-sim`'s packet timing. Events from
//! [`crate::events`] are stored alongside.

use crate::asys::{AsId, AsNode};
use crate::events::LinkEvent;
use crate::link::{DirectionProfile, LinkProfile};
use std::collections::BTreeMap;

/// Business relationship of an edge, read from the first endpoint's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// First endpoint is a customer of the second (pays for transit).
    CustomerOf,
    /// First endpoint is a provider of the second.
    ProviderOf,
    /// Settlement-free peering.
    PeerOf,
}

impl Relationship {
    /// The same relationship viewed from the other endpoint.
    pub fn flipped(self) -> Self {
        match self {
            Relationship::CustomerOf => Relationship::ProviderOf,
            Relationship::ProviderOf => Relationship::CustomerOf,
            Relationship::PeerOf => Relationship::PeerOf,
        }
    }
}

/// Errors building or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Referenced a node id that has not been added.
    UnknownNode(AsId),
    /// Added the same node id twice.
    DuplicateNode(AsId),
    /// Added the same edge twice (in either orientation).
    DuplicateLink(AsId, AsId),
    /// Asked for a link that does not exist.
    NoSuchLink(AsId, AsId),
    /// A link from a node to itself is not allowed.
    SelfLink(AsId),
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::UnknownNode(id) => write!(f, "unknown node {id}"),
            TopologyError::DuplicateNode(id) => write!(f, "duplicate node {id}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}–{b}"),
            TopologyError::NoSuchLink(a, b) => write!(f, "no link {a}–{b}"),
            TopologyError::SelfLink(a) => write!(f, "self-link at {a}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One stored (undirected) edge with relationship and per-direction profiles.
#[derive(Debug, Clone)]
struct Edge {
    /// Canonical endpoint order: the edge was added as (a, b).
    a: AsId,
    b: AsId,
    /// Relationship of `a` with respect to `b`.
    rel: Relationship,
    profile: LinkProfile,
}

/// A [`Topology`] taken apart into flat directed-hop arrays by
/// [`Topology::into_directed`]: what a consumer that keeps its own
/// tables (the simulator's) needs, with each hop's profile moved out of
/// its link rather than copied.
#[derive(Debug)]
pub struct DirectedGraph {
    /// Node ids, ascending.
    pub nodes: Vec<AsId>,
    /// `offsets[i]..offsets[i + 1]` indexes the hops leaving `nodes[i]`
    /// in [`DirectedGraph::to`] and [`DirectedGraph::profiles`]; one
    /// entry more than `nodes`.
    pub offsets: Vec<u32>,
    /// Each directed hop's receiving node, ascending within its
    /// from-node's range (hops are ordered by `(from, to)`).
    pub to: Vec<AsId>,
    /// Each directed hop's delay/loss profile.
    pub profiles: Vec<DirectionProfile>,
    /// The scheduled events, in the order they were added.
    pub events: Vec<LinkEvent>,
}

/// The AS-level topology: nodes, relationship-annotated links, and
/// scheduled wide-area events.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: BTreeMap<AsId, AsNode>,
    /// Keyed by canonical (min, max) id pair for O(log n) lookup.
    edges: BTreeMap<(AsId, AsId), Edge>,
    adjacency: BTreeMap<AsId, Vec<AsId>>,
    events: Vec<LinkEvent>,
}

fn key(a: AsId, b: AsId) -> (AsId, AsId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node. Errors on duplicate ids.
    pub fn add_node(&mut self, node: AsNode) -> Result<(), TopologyError> {
        if self.nodes.contains_key(&node.id) {
            return Err(TopologyError::DuplicateNode(node.id));
        }
        self.adjacency.entry(node.id).or_default();
        self.nodes.insert(node.id, node);
        Ok(())
    }

    /// Add a link between existing nodes. `rel` is read as "`a` is `rel`
    /// `b`" (e.g. `CustomerOf`: a pays b). Profile's `forward` direction is
    /// a→b.
    pub fn add_link(
        &mut self,
        a: AsId,
        b: AsId,
        rel: Relationship,
        profile: LinkProfile,
    ) -> Result<(), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLink(a));
        }
        if !self.nodes.contains_key(&a) {
            return Err(TopologyError::UnknownNode(a));
        }
        if !self.nodes.contains_key(&b) {
            return Err(TopologyError::UnknownNode(b));
        }
        let k = key(a, b);
        if self.edges.contains_key(&k) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        self.edges.insert(k, Edge { a, b, rel, profile });
        self.adjacency.get_mut(&a).expect("checked").push(b);
        self.adjacency.get_mut(&b).expect("checked").push(a);
        Ok(())
    }

    /// Convenience: add a customer→provider link (`customer` pays
    /// `provider`) with the given profile (forward = customer→provider).
    pub fn add_provider(
        &mut self,
        customer: AsId,
        provider: AsId,
        profile: LinkProfile,
    ) -> Result<(), TopologyError> {
        self.add_link(customer, provider, Relationship::CustomerOf, profile)
    }

    /// Convenience: add a settlement-free peering link.
    pub fn add_peering(
        &mut self,
        a: AsId,
        b: AsId,
        profile: LinkProfile,
    ) -> Result<(), TopologyError> {
        self.add_link(a, b, Relationship::PeerOf, profile)
    }

    /// Schedule a wide-area event. The link direction must exist.
    pub fn add_event(&mut self, event: LinkEvent) -> Result<(), TopologyError> {
        if !self.edges.contains_key(&key(event.from, event.to)) {
            return Err(TopologyError::NoSuchLink(event.from, event.to));
        }
        self.events.push(event);
        Ok(())
    }

    /// Look up a node.
    pub fn node(&self, id: AsId) -> Option<&AsNode> {
        self.nodes.get(&id)
    }

    /// All nodes, ordered by id.
    pub fn nodes(&self) -> impl Iterator<Item = &AsNode> {
        self.nodes.values()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.edges.len()
    }

    /// Neighbors of a node (insertion order).
    pub fn neighbors(&self, id: AsId) -> &[AsId] {
        self.adjacency.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The relationship of `a` with respect to `b`, if the link exists.
    pub fn relationship(&self, a: AsId, b: AsId) -> Option<Relationship> {
        let e = self.edges.get(&key(a, b))?;
        if e.a == a {
            Some(e.rel)
        } else {
            Some(e.rel.flipped())
        }
    }

    /// The delay/loss profile for the directed hop `from → to`.
    pub fn direction_profile(&self, from: AsId, to: AsId) -> Option<&DirectionProfile> {
        let e = self.edges.get(&key(from, to))?;
        if e.a == from {
            Some(&e.profile.forward)
        } else {
            Some(&e.profile.reverse)
        }
    }

    /// All scheduled events.
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// Consume the graph into its directed hops ([`DirectedGraph`]),
    /// ordered by `(from, to)`: each link's two directions are moved out
    /// of it. Names, relationships and the tree-keyed maps are dropped.
    pub fn into_directed(self) -> DirectedGraph {
        let Topology {
            nodes,
            edges,
            adjacency,
            events,
        } = self;
        drop(adjacency);
        let nodes: Vec<AsId> = nodes.into_keys().collect();
        // Grown while the edge map is freed, not reserved beside it whole:
        // the map and a second copy of every profile would be the peak.
        let mut hops = Vec::new();
        for edge in edges.into_values() {
            hops.push(((edge.a, edge.b), edge.profile.forward));
            hops.push(((edge.b, edge.a), edge.profile.reverse));
        }
        hops.sort_unstable_by_key(|&(hop, _)| hop);
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let mut from = hops.iter().map(|&((from, _), _)| from).peekable();
        let mut end = 0;
        for &id in &nodes {
            while from.next_if_eq(&id).is_some() {
                end += 1;
            }
            offsets.push(end);
        }
        let to = hops.iter().map(|&((_, to), _)| to).collect();
        // Collected in the hops' own allocation; its tail is given back.
        let mut profiles: Vec<DirectionProfile> =
            hops.into_iter().map(|(_, profile)| profile).collect();
        profiles.shrink_to_fit();
        DirectedGraph {
            nodes,
            offsets,
            to,
            profiles,
            events,
        }
    }

    /// The base (no-jitter, no-event) one-way delay of an AS-level path
    /// given as a node sequence. `None` if any hop is missing.
    pub fn path_base_delay_ns(&self, path: &[AsId]) -> Option<u64> {
        let mut total = 0u64;
        for w in path.windows(2) {
            total += self.direction_profile(w[0], w[1])?.base_delay_ns;
        }
        Some(total)
    }

    /// Providers of `id` (nodes it pays for transit).
    pub fn providers(&self, id: AsId) -> Vec<AsId> {
        self.neighbors(id)
            .iter()
            .copied()
            .filter(|&n| self.relationship(id, n) == Some(Relationship::CustomerOf))
            .collect()
    }

    /// Customers of `id`.
    pub fn customers(&self, id: AsId) -> Vec<AsId> {
        self.neighbors(id)
            .iter()
            .copied()
            .filter(|&n| self.relationship(id, n) == Some(Relationship::ProviderOf))
            .collect()
    }

    /// Peers of `id`.
    pub fn peers(&self, id: AsId) -> Vec<AsId> {
        self.neighbors(id)
            .iter()
            .copied()
            .filter(|&n| self.relationship(id, n) == Some(Relationship::PeerOf))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asys::AsKind;
    use crate::events::{EventKind, TimeWindow};

    fn node(id: u32) -> AsNode {
        AsNode::new(id, AsKind::Transit, format!("AS{id}"))
    }

    fn lp(fwd_ns: u64, rev_ns: u64) -> LinkProfile {
        LinkProfile::asymmetric(
            DirectionProfile::constant(fwd_ns),
            DirectionProfile::constant(rev_ns),
        )
    }

    fn tiny() -> Topology {
        let mut t = Topology::new();
        for id in [1, 2, 3] {
            t.add_node(node(id)).unwrap();
        }
        t.add_provider(AsId(1), AsId(2), lp(10, 20)).unwrap();
        t.add_peering(AsId(2), AsId(3), lp(30, 40)).unwrap();
        t
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut t = Topology::new();
        t.add_node(node(1)).unwrap();
        assert_eq!(
            t.add_node(node(1)),
            Err(TopologyError::DuplicateNode(AsId(1)))
        );
    }

    #[test]
    fn self_and_duplicate_links_rejected() {
        let mut t = tiny();
        assert_eq!(
            t.add_link(AsId(1), AsId(1), Relationship::PeerOf, lp(1, 1)),
            Err(TopologyError::SelfLink(AsId(1)))
        );
        assert_eq!(
            t.add_link(AsId(2), AsId(1), Relationship::PeerOf, lp(1, 1)),
            Err(TopologyError::DuplicateLink(AsId(2), AsId(1)))
        );
    }

    #[test]
    fn unknown_node_link_rejected() {
        let mut t = tiny();
        assert_eq!(
            t.add_link(AsId(1), AsId(9), Relationship::PeerOf, lp(1, 1)),
            Err(TopologyError::UnknownNode(AsId(9)))
        );
    }

    #[test]
    fn relationship_views() {
        let t = tiny();
        assert_eq!(
            t.relationship(AsId(1), AsId(2)),
            Some(Relationship::CustomerOf)
        );
        assert_eq!(
            t.relationship(AsId(2), AsId(1)),
            Some(Relationship::ProviderOf)
        );
        assert_eq!(t.relationship(AsId(2), AsId(3)), Some(Relationship::PeerOf));
        assert_eq!(t.relationship(AsId(3), AsId(2)), Some(Relationship::PeerOf));
        assert_eq!(t.relationship(AsId(1), AsId(3)), None);
    }

    #[test]
    fn direction_profiles_follow_orientation() {
        let t = tiny();
        assert_eq!(
            t.direction_profile(AsId(1), AsId(2)).unwrap().base_delay_ns,
            10
        );
        assert_eq!(
            t.direction_profile(AsId(2), AsId(1)).unwrap().base_delay_ns,
            20
        );
        assert_eq!(
            t.direction_profile(AsId(3), AsId(2)).unwrap().base_delay_ns,
            40
        );
        assert!(t.direction_profile(AsId(1), AsId(3)).is_none());
    }

    #[test]
    fn provider_customer_peer_queries() {
        let t = tiny();
        assert_eq!(t.providers(AsId(1)), vec![AsId(2)]);
        assert_eq!(t.customers(AsId(2)), vec![AsId(1)]);
        assert_eq!(t.peers(AsId(2)), vec![AsId(3)]);
        assert!(t.providers(AsId(2)).is_empty());
    }

    #[test]
    fn path_delay_sums_directed_hops() {
        let t = tiny();
        assert_eq!(t.path_base_delay_ns(&[AsId(1), AsId(2), AsId(3)]), Some(40));
        assert_eq!(t.path_base_delay_ns(&[AsId(3), AsId(2), AsId(1)]), Some(60));
        assert_eq!(t.path_base_delay_ns(&[AsId(1), AsId(3)]), None);
        assert_eq!(t.path_base_delay_ns(&[AsId(1)]), Some(0));
    }

    #[test]
    fn events_require_existing_link_and_filter_by_time() {
        let mut t = tiny();
        let ev = LinkEvent {
            from: AsId(1),
            to: AsId(2),
            window: TimeWindow::new(100, 200),
            kind: EventKind::Outage,
        };
        t.add_event(ev.clone()).unwrap();
        assert_eq!(
            t.add_event(LinkEvent {
                from: AsId(1),
                to: AsId(3),
                ..ev.clone()
            }),
            Err(TopologyError::NoSuchLink(AsId(1), AsId(3)))
        );
        assert_eq!(t.events(), [ev]);
        let stored = &t.events()[0];
        assert!(stored.window.contains(150));
        assert!(!stored.window.contains(50));
    }

    #[test]
    fn into_directed_moves_each_direction_to_its_hop() {
        let mut t = tiny();
        t.add_node(node(0)).unwrap();
        // Added after 1 and 3, first among 2's hops.
        t.add_peering(AsId(2), AsId(0), lp(50, 60)).unwrap();
        let ev = LinkEvent {
            from: AsId(3),
            to: AsId(2),
            window: TimeWindow::new(0, 10),
            kind: EventKind::Outage,
        };
        t.add_event(ev.clone()).unwrap();
        let g = t.into_directed();
        assert_eq!(g.nodes, [AsId(0), AsId(1), AsId(2), AsId(3)]);
        assert_eq!(g.offsets, [0, 1, 2, 5, 6]);
        assert_eq!(g.to, [2, 2, 0, 1, 3, 2].map(AsId));
        let delays: Vec<u64> = g.profiles.iter().map(|p| p.base_delay_ns).collect();
        assert_eq!(delays, [60, 10, 50, 20, 30, 40]);
        assert_eq!(g.events, [ev]);
    }

    #[test]
    fn counts() {
        let t = tiny();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.neighbors(AsId(2)), &[AsId(1), AsId(3)]);
    }
}
