//! The topology, interned: dense node and directed-link tables built
//! once at [`crate::NetworkSim::new`] and read, never written, by every
//! shard.
//!
//! ## Fast-path layout
//!
//! * Node identity is interned at build time: every [`AsId`] in the
//!   topology maps to a dense `NodeIdx` (a `u32` index), and the per-event
//!   tables — agents, clocks, per-directed-link busy horizons — are plain
//!   `Vec`s indexed by it, replacing the seed's `BTreeMap` lookups.
//! * Every directed link gets a dense link id at build time; its delay
//!   profile and scheduled wide-area events are copied into `Vec`-indexed
//!   tables so a transmission touches no tree and allocates nothing; the
//!   sender's own sorted neighbour list resolves the next hop's `AsId`
//!   to node index and link id in one search.

use tango_topology::{AsId, DirectionProfile, LinkEvent, Topology};

/// Dense interning of the topology's node ids: `AsId` ⇔ `u32` index.
/// Ids are sorted, so the index order matches `BTreeMap` iteration order
/// and results are bit-identical to the tree-keyed seed implementation.
#[derive(Debug)]
pub(crate) struct NodeTable {
    /// idx → id, ascending.
    pub(crate) ids: Vec<AsId>,
}

impl NodeTable {
    pub(crate) fn build(topology: &Topology) -> Self {
        NodeTable {
            ids: topology.nodes().map(|n| n.id).collect(),
        }
    }

    #[inline]
    pub(crate) fn idx(&self, id: AsId) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }

    #[inline]
    pub(crate) fn id(&self, idx: u32) -> AsId {
        self.ids[idx as usize] // tango-lint: allow(hot-path-panic) idx is a dense index interned by NodeTable
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Dense directed-link tables: per-link delay profile and scheduled
/// events, plus a per-node adjacency index that resolves a neighbour's
/// [`AsId`] to its node index and link id in one O(log degree) search of
/// the sender's own neighbours. Link ids are minted in from-node index
/// order, so a contiguous node range owns a contiguous link-id range —
/// which is what lets each shard carry dense local busy/accum tables.
#[derive(Debug)]
pub(crate) struct LinkTable {
    /// from_idx → [(to, to_idx, link_id)], ascending by `to` (id order
    /// is index order).
    pub(crate) adj: Vec<Vec<(AsId, u32, u32)>>,
    /// link_id → the directed hop's profile (copied out of the topology).
    pub(crate) profiles: Vec<DirectionProfile>,
    /// link_id → events scheduled on the directed hop, topology order.
    pub(crate) events: Vec<Vec<LinkEvent>>,
}

impl LinkTable {
    pub(crate) fn build(topology: &Topology, nodes: &NodeTable) -> Self {
        let mut adj = vec![Vec::new(); nodes.len()];
        let mut profiles = Vec::new();
        let mut events = Vec::new();
        for (from_idx, &from) in nodes.ids.iter().enumerate() {
            for &to in topology.neighbors(from) {
                // tango-lint: allow(hot-path-panic) build-time, not per-packet: neighbors come from the same topology
                let to_idx = nodes.idx(to).expect("neighbor is a topology node");
                // tango-lint: allow(hot-path-panic) build-time: adjacency implies the profile exists
                let profile = topology
                    .direction_profile(from, to)
                    .expect("adjacency implies a link");
                let link_id = profiles.len() as u32;
                profiles.push(profile.clone());
                events.push(
                    topology
                        .events()
                        .iter()
                        .filter(|e| e.from == from && e.to == to)
                        .cloned()
                        .collect(),
                );
                adj[from_idx].push((to, to_idx, link_id)); // tango-lint: allow(hot-path-panic) from_idx enumerates adj's own indices
            }
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|&(to, _, _)| to);
        }
        LinkTable {
            adj,
            profiles,
            events,
        }
    }

    /// The node index of `from_idx`'s neighbour `to` and the id of the
    /// directed link to it.
    #[inline]
    pub(crate) fn lookup(&self, from_idx: u32, to: AsId) -> Option<(u32, u32)> {
        let list = self.adj.get(from_idx as usize)?;
        let i = list.binary_search_by_key(&to, |&(id, _, _)| id).ok()?;
        list.get(i).map(|&(_, to_idx, link_id)| (to_idx, link_id))
    }
}
