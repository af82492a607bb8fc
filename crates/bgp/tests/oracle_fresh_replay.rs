//! Differential oracle for the incremental engine.
//!
//! Gao-Rexford policies have a unique stable state, so a *fresh* engine
//! given only the final originations and configuration and converged
//! once is a sound reference for an engine that reached the same inputs
//! through any history of announces, withdrawals and config edits. After
//! every step the two must agree on every speaker's best route (full
//! attributes, including the receiver-local preference fields), on the
//! advertisement every session holds as sent, and on the RIB occupancy
//! totals — a stale Adj-RIB entry, a missed implicit withdrawal, an
//! export leaked across neighbors or a session slot that drifted from
//! its sender's export all show up here.
//!
//! The comparison is always *by prefix*: inside, each engine keys its
//! state by a dense prefix id it mints and recycles on its own schedule,
//! and the replay mints them in another order than the history did. The
//! churn property draws from more prefixes than are ever originated at
//! once, so the live engine keeps handing one id to different prefixes
//! while speakers' tables are indexed, and worklists keyed, by it.

use proptest::prelude::*;
use proptest::sample::Index;
use std::collections::{BTreeMap, BTreeSet};
use tango_bgp::{BgpEngine, Community};
use tango_net::IpCidr;
use tango_topology::gen::{try_generate, GenParams};
use tango_topology::{AsId, AsKind, AsNode, DirectionProfile, LinkProfile, Topology};

fn prefix(i: usize) -> IpCidr {
    format!("2001:db8:{:x}::/48", 0xa00 + i)
        .parse()
        .expect("static prefix template")
}

const PREFIXES: usize = 4;

/// Distinct prefixes the churn draws from, and the most it keeps
/// originated at once.
const POOL: usize = 24;
const LIVE: usize = 3;

/// Everything a from-scratch replay needs: the live originations and the
/// per-speaker configuration the history left behind.
#[derive(Debug, Default)]
struct Inputs {
    /// `(origin, prefix)` → communities and poisoned initial path.
    originated: BTreeMap<(AsId, IpCidr), (BTreeSet<Community>, Vec<AsId>)>,
    honor: BTreeSet<AsId>,
    prefs: BTreeMap<AsId, BTreeMap<AsId, u32>>,
}

impl Inputs {
    /// A fresh engine given only the final inputs, converged once.
    fn replay(&self, topology: &Topology) -> BgpEngine {
        let mut e = BgpEngine::new(topology.clone());
        for &id in &self.honor {
            e.set_honor_actions(id, true).expect("node exists");
        }
        for (&id, prefs) in &self.prefs {
            e.set_neighbor_pref(id, prefs.clone()).expect("node exists");
        }
        for (&(origin, p), (communities, poison)) in &self.originated {
            e.announce_poisoned(origin, p, communities.clone(), poison)
                .expect("node exists");
        }
        e.converge().expect("Gao-Rexford policies converge");
        e
    }
}

/// Assert the incremental engine equals the from-scratch replay on the
/// first `prefixes` prefixes: every Loc-RIB entry and every directed
/// session's advertisement.
fn check_against_replay(
    live: &BgpEngine,
    inputs: &Inputs,
    topology: &Topology,
    prefixes: usize,
    step: &str,
) -> Result<(), String> {
    let fresh = inputs.replay(topology);
    for node in topology.nodes() {
        for p in (0..prefixes).map(prefix) {
            prop_assert_eq!(
                live.best_route(node.id, p),
                fresh.best_route(node.id, p),
                "after {step}: Loc-RIB of {:?} for {p}",
                node.id
            );
            for &to in topology.neighbors(node.id) {
                prop_assert_eq!(
                    live.advertisement(node.id, to, p),
                    fresh.advertisement(node.id, to, p),
                    "after {step}: {:?} -> {to:?} for {p}",
                    node.id
                );
            }
        }
    }
    prop_assert_eq!(
        live.rib_stats(),
        fresh.rib_stats(),
        "after {step}: RIB occupancy"
    );
    Ok(())
}

/// One history step, drawn independently of the graph it will run on.
#[derive(Debug, Clone)]
struct Op {
    kind: u8,
    node: Index,
    other: Index,
    prefix: usize,
    communities: Vec<(u8, Index, u8)>,
    flag: bool,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..6,
        any::<Index>(),
        any::<Index>(),
        0usize..PREFIXES,
        proptest::collection::vec((0u8..4, any::<Index>(), 1u8..=3), 0..3),
        any::<bool>(),
    )
        .prop_map(|(kind, node, other, prefix, communities, flag)| Op {
            kind,
            node,
            other,
            prefix,
            communities,
            flag,
        })
}

fn draw_communities(spec: &[(u8, Index, u8)], nodes: &[AsId]) -> BTreeSet<Community> {
    spec.iter()
        .map(|&(kind, target, n)| {
            let target = nodes[target.index(nodes.len())];
            match kind {
                0 => Community::NoExportTo(target),
                1 => Community::PrependTo(target, n),
                2 => Community::NoExport,
                _ => Community::Plain(64512, u16::from(n)),
            }
        })
        .collect()
}

/// Apply `op` to the live engine and mirror it in the model. Returns a
/// label for failure messages.
fn apply(
    op: &Op,
    live: &mut BgpEngine,
    inputs: &mut Inputs,
    topology: &Topology,
    nodes: &[AsId],
) -> String {
    let node = nodes[op.node.index(nodes.len())];
    let p = prefix(op.prefix);
    let communities = draw_communities(&op.communities, nodes);
    // Edits and withdrawals prefer a live origination so they usually land.
    let live_origination = inputs
        .originated
        .keys()
        .nth(op.other.index(inputs.originated.len().max(1)))
        .copied()
        .unwrap_or((node, p));
    match op.kind {
        0 => {
            live.announce(node, p, communities.clone())
                .expect("node exists");
            inputs
                .originated
                .insert((node, p), (communities, Vec::new()));
            format!("announce {p} at {node:?}")
        }
        1 => {
            let poison = vec![nodes[op.other.index(nodes.len())]];
            live.announce_poisoned(node, p, communities.clone(), &poison)
                .expect("node exists");
            inputs
                .originated
                .insert((node, p), (communities, poison.clone()));
            format!("announce {p} at {node:?} poisoning {poison:?}")
        }
        2 => {
            let target = live_origination;
            let changed = live
                .set_announcement_communities(target.0, target.1, communities.clone())
                .expect("node exists");
            match inputs.originated.get_mut(&target) {
                Some(entry) => {
                    assert_eq!(
                        changed,
                        entry.0 != communities,
                        "an edit of a live origination lands iff it changes the set"
                    );
                    entry.0 = communities;
                }
                None => assert!(!changed, "edit of a missing origination is a no-op"),
            }
            format!("set communities on {} at {:?}", target.1, target.0)
        }
        3 => {
            let target = live_origination;
            let removed = live.withdraw(target.0, target.1).expect("node exists");
            assert_eq!(removed, inputs.originated.remove(&target).is_some());
            format!("withdraw {} at {:?}", target.1, target.0)
        }
        4 => {
            let neighbors = topology.neighbors(node);
            let mut prefs = BTreeMap::new();
            if op.flag && !neighbors.is_empty() {
                prefs.insert(
                    neighbors[op.other.index(neighbors.len())],
                    1 + op.prefix as u32 * 10,
                );
            }
            live.set_neighbor_pref(node, prefs.clone())
                .expect("node exists");
            inputs.prefs.insert(node, prefs.clone());
            format!("neighbor prefs {prefs:?} at {node:?}")
        }
        _ => {
            live.set_honor_actions(node, op.flag).expect("node exists");
            if op.flag {
                inputs.honor.insert(node);
            } else {
                inputs.honor.remove(&node);
            }
            format!("honor_actions={} at {node:?}", op.flag)
        }
    }
}

proptest! {
    /// Random histories over generated internet graphs: after every
    /// step and its convergence, live state == from-scratch replay.
    #[test]
    fn incremental_state_equals_fresh_replay(
        ases in 30usize..70,
        edges in 3usize..6,
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 8..16),
    ) {
        let g = try_generate(&GenParams::internet(ases, edges, seed)).expect("preset is valid");
        let nodes: Vec<AsId> = g.topology.nodes().map(|n| n.id).collect();
        let mut live = BgpEngine::new(g.topology.clone());
        let mut inputs = Inputs::default();
        // Start from a populated mesh so edits hit real state: every
        // edge site honors actions and announces one prefix.
        for (i, &site) in g.edge_sites.iter().enumerate() {
            live.set_honor_actions(site, true).expect("edge exists");
            inputs.honor.insert(site);
            let p = prefix(i % PREFIXES);
            live.announce(site, p, BTreeSet::new()).expect("edge exists");
            inputs.originated.insert((site, p), (BTreeSet::new(), Vec::new()));
        }
        live.converge().expect("Gao-Rexford policies converge");
        check_against_replay(&live, &inputs, &g.topology, PREFIXES, "mesh set-up")?;
        for op in &ops {
            let step = apply(op, &mut live, &mut inputs, &g.topology, &nodes);
            live.converge().expect("Gao-Rexford policies converge");
            check_against_replay(&live, &inputs, &g.topology, PREFIXES, &step)?;
        }
    }

    /// Announce / withdraw churn over [`POOL`] prefixes with at most
    /// [`LIVE`] originated at once: after every step, live state ==
    /// from-scratch replay, prefix by prefix.
    #[test]
    fn recycled_prefix_ids_equal_fresh_replay(
        ases in 30usize..60,
        edges in 3usize..6,
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_churn(), 24..40),
    ) {
        let g = try_generate(&GenParams::internet(ases, edges, seed)).expect("preset is valid");
        let nodes: Vec<AsId> = g.topology.nodes().map(|n| n.id).collect();
        let mut live = BgpEngine::new(g.topology.clone());
        let mut inputs = Inputs::default();
        for op in &ops {
            let step = churn(op, &mut live, &mut inputs, &nodes);
            let held: BTreeSet<IpCidr> = inputs.originated.keys().map(|&(_, p)| p).collect();
            prop_assert!(held.len() <= LIVE, "after {step}: {held:?} originated at once");
            live.converge().expect("Gao-Rexford policies converge");
            check_against_replay(&live, &inputs, &g.topology, POOL, &step)?;
        }
    }
}

/// One churn step, drawn independently of the graph it will run on.
#[derive(Debug, Clone)]
struct Churn {
    kind: u8,
    node: Index,
    pick: Index,
    prefix: usize,
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    (0u8..4, any::<Index>(), any::<Index>(), 0usize..POOL).prop_map(|(kind, node, pick, prefix)| {
        Churn {
            kind,
            node,
            pick,
            prefix,
        }
    })
}

/// Apply `op` to the live engine and mirror it in the model. Returns a
/// label for failure messages.
fn churn(op: &Churn, live: &mut BgpEngine, inputs: &mut Inputs, nodes: &[AsId]) -> String {
    let node = nodes[op.node.index(nodes.len())];
    let held: BTreeSet<IpCidr> = inputs.originated.keys().map(|&(_, p)| p).collect();
    let picked = held.iter().nth(op.pick.index(held.len().max(1))).copied();
    let announce = |live: &mut BgpEngine, inputs: &mut Inputs, p: IpCidr| {
        live.announce(node, p, BTreeSet::new())
            .expect("node exists");
        inputs
            .originated
            .insert((node, p), (BTreeSet::new(), Vec::new()));
    };
    match (op.kind, picked) {
        // One origination goes; other origins of its prefix stay, so the
        // prefix's id must stay too.
        (0, Some(_)) => {
            let live_originations = inputs.originated.len();
            let (origin, p) = *inputs
                .originated
                .keys()
                .nth(op.pick.index(live_originations))
                .expect("index is in range");
            assert!(live.withdraw(origin, p).expect("node exists"));
            inputs.originated.remove(&(origin, p));
            format!("withdraw {p} at {origin:?}")
        }
        // A second (third, ...) origin for a prefix already out there.
        (1, Some(p)) => {
            announce(live, inputs, p);
            format!("announce {p} at {node:?} too")
        }
        // A prefix from the pool. At the cap an old prefix makes room in
        // the same step: its state is still in every RIB, unconverged,
        // when the new prefix asks for an id.
        _ => {
            let p = prefix(op.prefix);
            let mut evicted = None;
            if !held.contains(&p) && held.len() == LIVE {
                evicted = picked;
                inputs.originated.retain(|&(origin, held), _| {
                    let goes = Some(held) == evicted;
                    if goes {
                        let removed = live.withdraw(origin, held).expect("node exists");
                        assert!(removed, "{held} at {origin:?} was originated");
                    }
                    !goes
                });
            }
            announce(live, inputs, p);
            format!("announce {p} at {node:?}, evicting {evicted:?}")
        }
    }
}

fn lp() -> LinkProfile {
    LinkProfile::symmetric(DirectionProfile::constant(1))
}

fn topology(nodes: &[u32], providers: &[(u32, u32)]) -> Topology {
    let mut t = Topology::new();
    for &id in nodes {
        t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
            .expect("fresh id");
    }
    for &(customer, provider) in providers {
        t.add_provider(AsId(customer), AsId(provider), lp())
            .expect("fresh link");
    }
    t
}

fn replay_ok(live: &BgpEngine, inputs: &Inputs, t: &Topology, step: &str) {
    check_against_replay(live, inputs, t, PREFIXES, step).unwrap_or_else(|e| panic!("{e}"));
}

/// Two providers offer AS 1 routes equal in local-pref, path length, MED
/// and administrative preference: only the neighbor-id tie-break is
/// left, and it must pick the same winner whatever order the candidates
/// arrived in.
#[test]
fn neighbor_id_tie_break_survives_any_arrival_order() {
    let t = topology(&[1, 5, 10, 20], &[(1, 10), (1, 20), (5, 10), (5, 20)]);
    let p = prefix(0);
    let mut live = BgpEngine::new(t.clone());
    let mut inputs = Inputs::default();
    // Force AS 20's copy to arrive first: announce while 10 is poisoned,
    // then re-announce clean so 10's copy lands second.
    live.announce_poisoned(AsId(5), p, BTreeSet::new(), &[AsId(10)])
        .unwrap();
    inputs
        .originated
        .insert((AsId(5), p), (BTreeSet::new(), vec![AsId(10)]));
    live.converge().unwrap();
    assert_eq!(
        live.as_path(AsId(1), p).unwrap(),
        &[AsId(20), AsId(5), AsId(10)]
    );
    replay_ok(&live, &inputs, &t, "poisoned announce");

    live.announce(AsId(5), p, BTreeSet::new()).unwrap();
    inputs
        .originated
        .insert((AsId(5), p), (BTreeSet::new(), Vec::new()));
    live.converge().unwrap();
    assert_eq!(
        live.as_path(AsId(1), p).unwrap(),
        &[AsId(10), AsId(5)],
        "lowest neighbor id wins the full tie"
    );
    replay_ok(&live, &inputs, &t, "clean re-announce");

    // A preference for 20 flips it; dropping the preference flips back.
    let prefs: BTreeMap<AsId, u32> = [(AsId(20), 7)].into();
    live.set_neighbor_pref(AsId(1), prefs.clone()).unwrap();
    inputs.prefs.insert(AsId(1), prefs);
    live.converge().unwrap();
    assert_eq!(live.as_path(AsId(1), p).unwrap(), &[AsId(20), AsId(5)]);
    replay_ok(&live, &inputs, &t, "prefer 20");

    live.set_neighbor_pref(AsId(1), BTreeMap::new()).unwrap();
    inputs.prefs.insert(AsId(1), BTreeMap::new());
    live.converge().unwrap();
    assert_eq!(live.as_path(AsId(1), p).unwrap(), &[AsId(10), AsId(5)]);
    replay_ok(&live, &inputs, &t, "preference dropped");
}

/// A preference set on routes already held takes effect at the next
/// convergence, exactly as if it had been set before they arrived: AS 1
/// holds equal routes from 10 and 20, picks 10 on the neighbor id, and
/// must switch to 20 once 20 is preferred — with no step between the
/// edit and the convergence.
#[test]
fn a_preference_edit_reranks_held_routes() {
    let t = topology(&[1, 5, 10, 20], &[(1, 10), (1, 20), (5, 10), (5, 20)]);
    let p = prefix(0);
    let mut live = BgpEngine::new(t.clone());
    let mut inputs = Inputs::default();
    live.announce(AsId(5), p, BTreeSet::new()).unwrap();
    inputs
        .originated
        .insert((AsId(5), p), (BTreeSet::new(), Vec::new()));
    live.converge().unwrap();
    assert_eq!(live.as_path(AsId(1), p).unwrap(), &[AsId(10), AsId(5)]);

    let prefs: BTreeMap<AsId, u32> = [(AsId(20), 40)].into();
    live.set_neighbor_pref(AsId(1), prefs.clone()).unwrap();
    inputs.prefs.insert(AsId(1), prefs);
    live.converge().unwrap();
    replay_ok(&live, &inputs, &t, "prefer 20 over held routes");
    assert_eq!(live.as_path(AsId(1), p).unwrap(), &[AsId(20), AsId(5)]);
}

/// One honoring speaker, three neighbors, three different prepend
/// counts for the same prefix: each neighbor must see exactly its own
/// count, before and after the counts are edited.
#[test]
fn prepend_counts_do_not_leak_across_neighbors() {
    let t = topology(&[5, 10, 20, 30], &[(5, 10), (5, 20), (5, 30)]);
    let p = prefix(1);
    let mut live = BgpEngine::new(t.clone());
    let mut inputs = Inputs::default();
    live.set_honor_actions(AsId(5), true).unwrap();
    inputs.honor.insert(AsId(5));

    let seen = |e: &BgpEngine, at: u32| e.as_path(AsId(at), p).unwrap().len();
    let set = |live: &mut BgpEngine, inputs: &mut Inputs, counts: &[(u32, u8)], step: &str| {
        let communities: BTreeSet<Community> = counts
            .iter()
            .map(|&(to, n)| Community::PrependTo(AsId(to), n))
            .collect();
        live.announce(AsId(5), p, communities.clone()).unwrap();
        inputs
            .originated
            .insert((AsId(5), p), (communities, Vec::new()));
        live.converge().unwrap();
        replay_ok(live, inputs, &t, step);
    };

    set(&mut live, &mut inputs, &[(10, 2), (20, 1)], "prepend 2/1/0");
    assert_eq!(
        [seen(&live, 10), seen(&live, 20), seen(&live, 30)],
        [3, 2, 1]
    );
    // 20 and 30 now share a count; 10 drops to none.
    set(&mut live, &mut inputs, &[(20, 3), (30, 3)], "prepend 0/3/3");
    assert_eq!(
        [seen(&live, 10), seen(&live, 20), seen(&live, 30)],
        [1, 4, 4]
    );
    for at in [10, 20, 30] {
        assert!(live
            .as_path(AsId(at), p)
            .unwrap()
            .iter()
            .all(|&a| a == AsId(5)));
    }
}
