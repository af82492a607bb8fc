//! Sharded execution of the event loop: partitioning, conservative
//! windows, and the serial/threaded lockstep runners.
//!
//! The node table is split into contiguous shards. Each shard owns its
//! nodes' agents, queues, RNG streams, and outgoing links, and advances
//! through *conservative synchronization windows* in lockstep: a window
//! opens at the global minimum pending-event time `g` and closes at
//! `g + lookahead - 1` (clipped to the run horizon), where the lookahead
//! is the minimum latency of any cross-shard link. No cross-shard packet
//! sent at or after `g` can arrive inside the window, so every shard may
//! process its own window independently; deliveries that cross shards
//! wait in per-destination outboxes and are exchanged at the window
//! barrier — a null-message-free variant of the classic
//! Chandy–Misra–Bryant scheme (the lockstep barrier plays the role of
//! the null messages).
//!
//! Determinism does not depend on the runner: the serial runner and the
//! threaded runner execute the exact same windows over the exact same
//! per-shard state, and all cross-shard traffic is re-ordered by
//! canonical event keys on arrival, so their results are bit-identical.
//! DESIGN.md §11 gives the full argument.

use crate::engine::{QueuedEvent, ShardState, SimShared};
use crate::tables::{LinkTable, NodeTable};
use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// How a multi-shard simulation executes. Both modes produce
/// bit-identical results; the choice only trades wall-clock for cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// Run every shard's window on the calling thread, in shard order.
    /// The reference implementation, and the default: nothing creates a
    /// thread unless a caller writes [`ShardMode::Threaded`].
    #[default]
    Serial,
    /// One worker thread per shard, synchronized by barriers.
    Threaded,
}

/// The static partition of the node table: contiguous node ranges (and
/// therefore contiguous link-id ranges, since link ids are minted in
/// from-node order), a node→shard map, and the conservative lookahead.
#[derive(Debug)]
pub(crate) struct Partition {
    /// Shard s owns node indices `[node_starts[s], node_starts[s + 1])`.
    node_starts: Vec<u32>,
    /// Shard s owns dense link ids `[link_starts[s], link_starts[s + 1])`.
    link_starts: Vec<usize>,
    /// node idx → owning shard.
    shard_of: Vec<u32>,
    /// Minimum cross-shard link latency, ns (`u64::MAX` when no link
    /// crosses shards: windows open to the full horizon).
    lookahead_ns: u64,
}

impl Partition {
    /// Partition `nodes` into up to `requested` contiguous shards.
    /// Clamped to `[1, nodes]`; forced to a single shard if any
    /// cross-shard link would have zero minimum latency (zero lookahead
    /// cannot open a window).
    // tango-lint: allow(hot-path-panic) runs once at sim construction, not per event; node_starts has shards+1 entries and shard_of/link ids are bounded by the tables that minted them
    pub(crate) fn build(nodes: &NodeTable, links: &LinkTable, requested: usize) -> Partition {
        let n = nodes.len();
        // Prefix sums of out-degrees: link ids are minted in from-node
        // order, so node range [a, b) owns link ids [off[a], off[b]).
        let mut link_off = Vec::with_capacity(n + 1);
        link_off.push(0usize);
        for list in &links.adj {
            let prev = *link_off.last().unwrap_or(&0);
            link_off.push(prev + list.len());
        }
        let mut shards = requested.clamp(1, n.max(1));
        loop {
            let node_starts: Vec<u32> = (0..=shards).map(|s| (s * n / shards) as u32).collect();
            let mut shard_of = vec![0u32; n];
            for s in 0..shards {
                for idx in node_starts[s]..node_starts[s + 1] {
                    shard_of[idx as usize] = s as u32;
                }
            }
            let mut lookahead_ns = u64::MAX;
            for (from_idx, list) in links.adj.iter().enumerate() {
                for &(_, to_idx, link_id) in list {
                    if shard_of[from_idx] == shard_of[to_idx as usize] {
                        continue;
                    }
                    if let Some(p) = links.profiles.get(link_id as usize) {
                        lookahead_ns = lookahead_ns.min(p.min_delay_ns());
                    }
                }
            }
            if lookahead_ns == 0 && shards > 1 {
                // A zero-latency link crosses shards: no window could
                // safely contain both ends. Fall back to one shard (still
                // bit-identical — just not parallel).
                shards = 1;
                continue;
            }
            let link_starts = node_starts
                .iter()
                .map(|&i| link_off.get(i as usize).copied().unwrap_or(0))
                .collect();
            return Partition {
                node_starts,
                link_starts,
                shard_of,
                lookahead_ns,
            };
        }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.node_starts.len().saturating_sub(1)
    }

    /// The node-index range `[base, end)` of shard `s`.
    pub(crate) fn node_range(&self, s: usize) -> (u32, u32) {
        let base = self.node_starts.get(s).copied().unwrap_or(0);
        let end = self.node_starts.get(s + 1).copied().unwrap_or(base);
        (base, end)
    }

    /// The dense-link-id range `[base, end)` of shard `s`.
    pub(crate) fn link_range(&self, s: usize) -> (usize, usize) {
        let base = self.link_starts.get(s).copied().unwrap_or(0);
        let end = self.link_starts.get(s + 1).copied().unwrap_or(base);
        (base, end)
    }

    /// The shard owning node index `idx`. Total: out-of-range indices
    /// (including the `NO_NODE` sentinel) map to shard 0, which treats
    /// them as agent-less nodes exactly like the unsharded engine did.
    pub(crate) fn shard_of(&self, idx: u32) -> usize {
        self.shard_of.get(idx as usize).map_or(0, |&s| s as usize)
    }

    /// The conservative lookahead, ns.
    pub(crate) fn lookahead_ns(&self) -> u64 {
        self.lookahead_ns
    }
}

/// The global minimum pending-event time across shards, as raw ns
/// (`u64::MAX` when every queue is empty).
fn global_min_ns(shards: &[ShardState]) -> u64 {
    shards
        .iter()
        .filter_map(|s| s.next_time())
        .map(|t| t.as_ns())
        .min()
        .unwrap_or(u64::MAX)
}

/// Run the lockstep window loop on the calling thread: every shard's
/// window executes in shard order, then outboxes are exchanged. This is
/// the reference semantics the threaded runner must (and does) match
/// bit-for-bit. Returns events processed.
// tango-lint: allow(hot-path-panic) src/dst iterate 0..shards.len(), so every index is in bounds
pub(crate) fn run_serial(shards: &mut [ShardState], shared: &SimShared, until: SimTime) -> u64 {
    let la = shared.part.lookahead_ns();
    let n = shards.len();
    let mut processed = 0u64;
    loop {
        let g = global_min_ns(shards);
        if g == u64::MAX || g > until.as_ns() {
            break;
        }
        let h = SimTime(g).conservative_window_end(la, until);
        for shard in shards.iter_mut() {
            processed += shard.run_window(shared, h);
        }
        for src in 0..n {
            for dst in 0..n {
                if src == dst || shards[src].outbox[dst].is_empty() {
                    continue;
                }
                // Lend the outbox to the receiver and take it back
                // emptied, so its capacity outlives the window.
                let mut moved = std::mem::take(&mut shards[src].outbox[dst]);
                shards[dst].receive_drain(&mut moved);
                shards[src].outbox[dst] = moved;
            }
        }
    }
    processed
}

/// What [`run_threaded`] hands its workers: each shard's state moves to
/// a worker, the shared tables are read by all of them. Asserted by name
/// so that a field picking up an `Rc` (as `tango-bgp`'s routes did, on
/// purpose, for an engine that never leaves its thread) fails here and
/// says which type, not inside the spawn.
const _: () = {
    const fn moved_to_a_worker<T: Send>() {}
    const fn read_by_every_worker<T: Sync>() {}
    moved_to_a_worker::<ShardState>();
    read_by_every_worker::<SimShared>();
};

/// Run the lockstep window loop with one worker thread per shard.
///
/// Synchronization per round: a barrier opens the round, each worker
/// reads the window opening `g` from the current ping-pong slot and
/// resets the *next* slot to `u64::MAX`; workers run their windows and
/// publish outboxes into per-(src, dst) mailbox cells; a second barrier
/// closes the window, after which each worker drains its incoming cells
/// (queued, so canonical keys restore the total order) and
/// `fetch_min`s its next pending time into the next slot. The barriers
/// provide all cross-thread ordering, so relaxed atomics suffice.
///
/// Identical to [`run_serial`] by construction: the same windows execute
/// over the same per-shard state, and nothing a shard computes depends on
/// when — within a round — other shards run.
// tango-lint: allow(hot-path-panic) slots has 2 entries indexed mod 2 and cells is n×n indexed by shard ids < n; the join().expect deliberately re-raises a worker panic rather than reporting a truncated run as success
pub(crate) fn run_threaded(shards: &mut [ShardState], shared: &SimShared, until: SimTime) -> u64 {
    let n = shards.len();
    let la = shared.part.lookahead_ns();
    let until_ns = until.as_ns();
    let slots = [
        AtomicU64::new(global_min_ns(shards)),
        AtomicU64::new(u64::MAX),
    ];
    let barrier = Barrier::new(n);
    let cells: Vec<Vec<Mutex<Vec<QueuedEvent>>>> = (0..n)
        .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    // tango-lint: allow(thread-spawn) this is the approved shard runner: workers touch disjoint ShardStates, all cross-thread data flows through the barrier-ordered mailbox cells, and determinism is proven against run_serial by the equivalence tests
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for shard in shards.iter_mut() {
            let barrier = &barrier;
            let slots = &slots;
            let cells = &cells;
            handles.push(scope.spawn(move || {
                let i = shard.index;
                let mut processed = 0u64;
                let mut round = 0usize;
                loop {
                    barrier.wait();
                    let g = slots[round % 2].load(Ordering::Relaxed);
                    slots[(round + 1) % 2].store(u64::MAX, Ordering::Relaxed);
                    if g == u64::MAX || g > until_ns {
                        break;
                    }
                    let h = SimTime(g).conservative_window_end(la, until);
                    processed += shard.run_window(shared, h);
                    for (row, outbox) in cells[i].iter().zip(&mut shard.outbox) {
                        if !outbox.is_empty() {
                            if let Ok(mut cell) = row.lock() {
                                cell.append(outbox);
                            }
                        }
                    }
                    barrier.wait();
                    for (src, row) in cells.iter().enumerate() {
                        if src == i {
                            continue;
                        }
                        if let Some(cell) = row.get(i) {
                            if let Ok(mut inbox) = cell.lock() {
                                shard.receive_drain(&mut inbox);
                            }
                        }
                    }
                    if let Some(t) = shard.next_time() {
                        slots[(round + 1) % 2].fetch_min(t.as_ns(), Ordering::Relaxed);
                    }
                    round += 1;
                }
                processed
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_topology::{AsId, AsKind, AsNode, DirectionProfile, LinkProfile, Topology};

    fn tables(t: &Topology) -> (NodeTable, LinkTable) {
        let nodes = NodeTable::build(t);
        let links = LinkTable::build(t, &nodes);
        (nodes, links)
    }

    fn line(n: u32, delay_ns: u64) -> Topology {
        let mut t = Topology::new();
        for id in 1..=n {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        for id in 1..n {
            t.add_peering(
                AsId(id),
                AsId(id + 1),
                LinkProfile::symmetric(DirectionProfile::constant(delay_ns)),
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn partition_ranges_tile_the_tables() {
        let t = line(7, 1_000_000);
        let (nodes, links) = tables(&t);
        for requested in 1..=9 {
            let p = Partition::build(&nodes, &links, requested);
            assert!(p.len() >= 1 && p.len() <= 7);
            let mut node_cursor = 0u32;
            let mut link_cursor = 0usize;
            for s in 0..p.len() {
                let (nb, ne) = p.node_range(s);
                let (lb, le) = p.link_range(s);
                assert_eq!(nb, node_cursor, "node ranges must tile");
                assert_eq!(lb, link_cursor, "link ranges must tile");
                assert!(ne >= nb && le >= lb);
                for idx in nb..ne {
                    assert_eq!(p.shard_of(idx), s);
                }
                node_cursor = ne;
                link_cursor = le;
            }
            assert_eq!(node_cursor as usize, nodes.len());
            assert_eq!(link_cursor, links.profiles.len());
        }
    }

    #[test]
    fn requested_shards_clamp_to_node_count() {
        let t = line(3, 1_000_000);
        let (nodes, links) = tables(&t);
        assert_eq!(Partition::build(&nodes, &links, 0).len(), 1);
        assert_eq!(Partition::build(&nodes, &links, 64).len(), 3);
    }

    #[test]
    fn lookahead_is_min_cross_shard_latency() {
        // 1 ms hops: min_delay is the base/2 clamp floor = 500 µs.
        let t = line(4, 1_000_000);
        let (nodes, links) = tables(&t);
        let p = Partition::build(&nodes, &links, 2);
        assert_eq!(p.lookahead_ns(), 500_000);
    }

    #[test]
    fn zero_lookahead_forces_single_shard() {
        let t = line(4, 0);
        let (nodes, links) = tables(&t);
        let p = Partition::build(&nodes, &links, 4);
        assert_eq!(p.len(), 1, "a zero-latency cross-shard link cannot sync");
    }

    #[test]
    fn disconnected_components_have_infinite_lookahead() {
        // Two 2-node islands, no cross-island link: partitioned at the
        // island boundary, no link crosses shards.
        let mut t = Topology::new();
        for id in 1..=4u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        let lp = || LinkProfile::symmetric(DirectionProfile::constant(1_000_000));
        t.add_peering(AsId(1), AsId(2), lp()).unwrap();
        t.add_peering(AsId(3), AsId(4), lp()).unwrap();
        let (nodes, links) = tables(&t);
        let p = Partition::build(&nodes, &links, 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.lookahead_ns(), u64::MAX);
    }

    #[test]
    fn sentinel_indices_map_to_shard_zero() {
        let t = line(4, 1_000_000);
        let (nodes, links) = tables(&t);
        let p = Partition::build(&nodes, &links, 2);
        assert_eq!(p.shard_of(u32::MAX), 0);
        assert_eq!(p.shard_of(1_000), 0);
    }
}
