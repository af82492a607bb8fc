//! The topology, interned: dense node and directed-link tables built
//! once at [`crate::NetworkSim::new`] and read, never written, by every
//! shard. They are the simulator's only copy of the graph: `new`
//! consumes its [`Topology`] into them ([`intern`]).
//!
//! ## Fast-path layout
//!
//! * Node identity is interned at build time: every [`AsId`] in the
//!   topology maps to a dense `NodeIdx` (a `u32` index), and the per-event
//!   tables — agents, clocks, per-directed-link busy horizons — are plain
//!   `Vec`s indexed by it, replacing the seed's `BTreeMap` lookups.
//! * The directed links are flat CSR arrays: a node's outgoing links are
//!   one contiguous, `to`-sorted range of the adjacency, and a link's id
//!   is its position there. Its delay profile (moved out of the
//!   topology) and its scheduled wide-area events (one range of a flat
//!   event array) are indexed by that id, so a transmission touches no
//!   tree and allocates nothing; the sender's own range resolves the next
//!   hop's `AsId` to node index and link id in one search.

use std::ops::Range;
use tango_topology::{AsId, DirectedGraph, DirectionProfile, LinkEvent, Topology};

/// Dense interning of the topology's node ids: `AsId` ⇔ `u32` index.
/// Ids are sorted, so the index order matches `BTreeMap` iteration order
/// and results are bit-identical to the tree-keyed seed implementation.
#[derive(Debug)]
pub(crate) struct NodeTable {
    /// idx → id, ascending.
    pub(crate) ids: Vec<AsId>,
}

impl NodeTable {
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

/// Dense directed-link tables in CSR form: per-node adjacency ranges,
/// per-link delay profile and per-link event ranges. A neighbour's
/// [`AsId`] resolves to its node index and link id in one O(log degree)
/// search of the sender's own range. Link ids follow from-node index
/// order, so a contiguous node range owns a contiguous link-id range —
/// which is what lets each shard carry dense local busy/accum tables.
#[derive(Debug)]
pub(crate) struct LinkTable {
    /// from_idx → its links' range of `adj`; one entry more than nodes.
    pub(crate) adj_off: Vec<u32>,
    /// link_id → `(to, to_idx)`, ascending by `to` within a from-node's
    /// range (id order is index order).
    adj: Vec<(AsId, u32)>,
    /// link_id → the directed hop's profile.
    pub(crate) profiles: Vec<DirectionProfile>,
    /// link_id → its events' range of `events`; one entry more than links.
    event_off: Vec<u32>,
    /// Every scheduled event, grouped by link id, topology order within
    /// a link.
    events: Vec<LinkEvent>,
}

/// Consume a topology into the simulator's node and link tables.
pub(crate) fn intern(topology: Topology) -> (NodeTable, LinkTable) {
    let DirectedGraph {
        nodes,
        offsets,
        to,
        profiles,
        events,
    } = topology.into_directed();
    let nodes = NodeTable { ids: nodes };
    let adj = to
        .into_iter()
        .map(|to| {
            // tango-lint: allow(hot-path-panic) build-time, not per-packet: neighbors come from the same topology
            let to_idx = nodes.idx(to).expect("neighbor is a topology node");
            (to, to_idx)
        })
        .collect();
    let mut links = LinkTable {
        event_off: vec![0; profiles.len() + 1],
        adj_off: offsets,
        adj,
        profiles,
        events: Vec::new(),
    };
    links.group_events(&nodes, events);
    (nodes, links)
}

/// The range `off[i]..off[i + 1]` of a CSR offset array.
#[inline]
fn range(off: &[u32], i: usize) -> Option<Range<usize>> {
    match *off.get(i..i.checked_add(2)?)? {
        [lo, hi] => Some(lo as usize..hi as usize),
        _ => None,
    }
}

impl LinkTable {
    /// Group the topology's events by directed link in one pass: a
    /// stable sort by link id keeps each link's events in topology
    /// order. An event on a hop the graph lacks (`Topology::add_event`
    /// refuses one) belongs to no link.
    fn group_events(&mut self, nodes: &NodeTable, events: Vec<LinkEvent>) {
        let mut keyed: Vec<(u32, LinkEvent)> = events
            .into_iter()
            .filter_map(|e| {
                let (_, link_id) = self.lookup(nodes.idx(e.from)?, e.to)?;
                Some((link_id, e))
            })
            .collect();
        keyed.sort_by_key(|&(link_id, _)| link_id);
        for &(link_id, _) in &keyed {
            if let Some(end) = self.event_off.get_mut(link_id as usize + 1) {
                *end += 1;
            }
        }
        let mut total = 0;
        for off in &mut self.event_off {
            total += *off;
            *off = total;
        }
        self.events = keyed.into_iter().map(|(_, e)| e).collect();
    }

    /// The node index of `from_idx`'s neighbour `to` and the id of the
    /// directed link to it.
    #[inline]
    pub(crate) fn lookup(&self, from_idx: u32, to: AsId) -> Option<(u32, u32)> {
        let links = range(&self.adj_off, from_idx as usize)?;
        let first = links.start;
        let list = self.adj.get(links)?;
        let i = list.binary_search_by_key(&to, |&(id, _)| id).ok()?;
        list.get(i).map(|&(_, to_idx)| (to_idx, (first + i) as u32))
    }

    /// The events scheduled on directed link `link_id`, topology order.
    #[inline]
    pub(crate) fn events(&self, link_id: u32) -> &[LinkEvent] {
        range(&self.event_off, link_id as usize)
            .and_then(|r| self.events.get(r))
            .unwrap_or(&[])
    }

    /// Every directed link as `(from_idx, to, to_idx)`, in link-id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, AsId, u32)> + '_ {
        self.adj_off
            .iter()
            .zip(self.adj_off.iter().skip(1))
            .enumerate()
            .flat_map(move |(from_idx, (&lo, &hi))| {
                let links = self.adj.get(lo as usize..hi as usize).unwrap_or(&[]);
                links
                    .iter()
                    .map(move |&(to, to_idx)| (from_idx as u32, to, to_idx))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_topology::{AsKind, AsNode, EventKind, LinkProfile, TimeWindow};

    fn event(from: u32, to: u32, start_ns: u64) -> LinkEvent {
        LinkEvent {
            from: AsId(from),
            to: AsId(to),
            window: TimeWindow::new(start_ns, start_ns + 10),
            kind: EventKind::Outage,
        }
    }

    /// A star around AS 2 (neighbours 3, 1 and 0, added in that order)
    /// with events on both directions of 2–1 and on 3 → 2, interleaved.
    fn star() -> Topology {
        let mut t = Topology::new();
        for id in 0..4 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        for (n, delay) in [(3, 30), (1, 10), (0, 5)] {
            let p = LinkProfile::asymmetric(
                DirectionProfile::constant(delay),
                DirectionProfile::constant(delay + 1),
            );
            t.add_peering(AsId(2), AsId(n), p).unwrap();
        }
        for (from, to, start_ns) in [(2, 1, 100), (3, 2, 0), (1, 2, 7), (2, 1, 50)] {
            t.add_event(event(from, to, start_ns)).unwrap();
        }
        t
    }

    #[test]
    fn links_are_sorted_csr_ranges_with_their_own_profiles() {
        let (nodes, links) = intern(star());
        assert_eq!(nodes.ids, [0, 1, 2, 3].map(AsId));
        assert_eq!(links.adj_off, [0, 1, 2, 5, 6]);
        let hops: Vec<(u32, AsId, u32)> = links.iter().collect();
        // Ids 0..4 intern to indices 0..4.
        let expected = [(0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)];
        assert_eq!(hops, expected.map(|(from, to)| (from, AsId(to), to)));
        for (link_id, &(from_idx, to, to_idx)) in hops.iter().enumerate() {
            assert_eq!(links.lookup(from_idx, to), Some((to_idx, link_id as u32)));
        }
        assert_eq!(links.lookup(0, AsId(1)), None, "no link 0 → 1");
        assert_eq!(links.lookup(9, AsId(2)), None, "no node 9");
        let delays: Vec<u64> = links.profiles.iter().map(|p| p.base_delay_ns).collect();
        assert_eq!(delays, [6, 11, 5, 10, 30, 31]);
    }

    #[test]
    fn events_group_by_directed_link_in_topology_order() {
        let (_, links) = intern(star());
        let starts = |link_id| -> Vec<u64> {
            (links.events(link_id).iter())
                .map(|e| e.window.start_ns)
                .collect()
        };
        assert_eq!(starts(3), [100, 50], "2 → 1, in the order added");
        assert_eq!(starts(1), [7], "1 → 2, its own direction only");
        assert_eq!(starts(5), [0], "3 → 2");
        for link_id in [0, 2, 4] {
            assert!(starts(link_id).is_empty());
        }
        assert!(starts(6).is_empty(), "past the last link");
        assert_eq!(links.event_off, [0, 0, 1, 1, 3, 3, 4]);
    }
}
