//! Differential oracle for the incremental engine.
//!
//! Gao-Rexford policies have a unique stable state, so a *fresh* engine
//! given only the configuration and the final originations and
//! converged once is a sound reference for an engine that reached the
//! same originations through any history of announces, withdrawals and
//! community edits. The configuration — honor flags and neighbor
//! preferences, drawn per history — is set before the first
//! announcement, as the engine requires. After
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
//!
//! A prefix that enters a convergence blank may be filled by copying a
//! converged twin's column instead of being flooded. Every such step is
//! also held against a *lone* engine that floods only that prefix's
//! originations: same winners, advertisements, `updates_processed` and
//! rounds. A model of which columns carry a bill says when a fill must
//! happen, and the engine's fill count must agree with it step by step.
//!
//! An edit that changes a converged column shelves its fixpoint, and a
//! prefix that enters blank with shelved originations is rebuilt from
//! it. Histories draw community sets from a small pool, so edits revisit
//! them: the after-every-step replay then checks every rebuilt column,
//! and the fill check its bill.

use proptest::prelude::*;
use proptest::sample::Index;
use std::collections::{BTreeMap, BTreeSet};
use tango_bgp::engine::RibStats;
use tango_bgp::{BgpEngine, Community};
use tango_net::IpCidr;
use tango_obs::Registry;
use tango_topology::gen::{try_generate, GenParams};
use tango_topology::{AsId, AsKind, AsNode, DirectionProfile, LinkProfile, Topology};

fn prefix(i: usize) -> IpCidr {
    format!("2001:db8:{:x}::/48", 0xa00 + i)
        .parse()
        .expect("static prefix template")
}

const PREFIXES: usize = 4;
/// Prefixes after the first [`PREFIXES`] that only the twin step
/// announces.
const TWINS: usize = 2;

/// Distinct prefixes the churn draws from, and the most it keeps
/// originated at once.
const POOL: usize = 24;
const LIVE: usize = 3;

/// Everything a from-scratch replay needs: the per-speaker configuration
/// the history started from and the live originations.
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
        self.replay_where(topology, |_| true).0
    }

    /// A fresh engine given the configuration and only the originations
    /// of the prefixes `keep` selects, converged once, with the
    /// `bgp.updates_processed` and rounds that convergence reported.
    fn replay_where(
        &self,
        topology: &Topology,
        keep: impl Fn(IpCidr) -> bool,
    ) -> (BgpEngine, u64, usize) {
        let registry = Registry::new();
        let mut e = BgpEngine::new(topology.clone());
        e.set_obs(&registry);
        for &id in &self.honor {
            e.set_honor_actions(id, true).expect("node exists");
        }
        for (&id, prefs) in &self.prefs {
            e.set_neighbor_pref(id, prefs.clone()).expect("node exists");
        }
        for (&(origin, p), (communities, poison)) in &self.originated {
            if keep(p) {
                e.announce_poisoned(origin, p, communities.clone(), poison)
                    .expect("node exists");
            }
        }
        let rounds = e.converge().expect("Gao-Rexford policies converge");
        (e, updates(&registry), rounds)
    }

    /// The prefixes originated anywhere.
    fn held(&self) -> BTreeSet<IpCidr> {
        self.originated.keys().map(|&(_, p)| p).collect()
    }

    /// `p`'s originations: origin → (communities, poison).
    fn originations(&self, p: IpCidr) -> BTreeMap<AsId, &(BTreeSet<Community>, Vec<AsId>)> {
        let at_p = self.originated.iter().filter(|((_, q), _)| *q == p);
        at_p.map(|(&(origin, _), attrs)| (origin, attrs)).collect()
    }
}

fn updates(registry: &Registry) -> u64 {
    registry.snapshot().counters["bgp.updates_processed"]
}

/// Assert `live` and `reference` agree on every Loc-RIB entry and every
/// directed session's advertisement for `prefixes`.
fn check_routes(
    live: &BgpEngine,
    reference: &BgpEngine,
    topology: &Topology,
    prefixes: impl Iterator<Item = IpCidr> + Clone,
    step: &str,
) -> Result<(), String> {
    for node in topology.nodes() {
        for p in prefixes.clone() {
            prop_assert_eq!(
                live.best_route(node.id, p),
                reference.best_route(node.id, p),
                "after {step}: Loc-RIB of {:?} for {p}",
                node.id
            );
            for &to in topology.neighbors(node.id) {
                prop_assert_eq!(
                    live.advertisement(node.id, to, p),
                    reference.advertisement(node.id, to, p),
                    "after {step}: {:?} -> {to:?} for {p}",
                    node.id
                );
            }
        }
    }
    Ok(())
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
    check_routes(live, &fresh, topology, (0..prefixes).map(prefix), step)?;
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
    /// Draw `node` from the edge sites, not from every node.
    site: bool,
    node: Index,
    other: Index,
    prefix: usize,
    /// An index into the history's [`community_pool`].
    communities: usize,
    flag: bool,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        (0u8..7, any::<bool>()),
        any::<Index>(),
        any::<Index>(),
        0usize..PREFIXES,
        0usize..3,
        any::<bool>(),
    )
        .prop_map(
            |((kind, site), node, other, prefix, communities, flag)| Op {
                kind,
                site,
                node,
                other,
                prefix,
                communities,
                flag,
            },
        )
}

/// The three community sets a history attaches: none, and the
/// suppression of every other AS the edge sites neighbor, in id order,
/// starting with the first or the second.
fn community_pool(topology: &Topology, sites: &[AsId]) -> [BTreeSet<Community>; 3] {
    let mut near: Vec<AsId> = (sites.iter())
        .flat_map(|&site| topology.neighbors(site).iter().copied())
        .collect();
    near.sort_unstable();
    near.dedup();
    let every_other = |first| {
        near.iter()
            .skip(first)
            .step_by(2)
            .map(|&a| Community::NoExportTo(a))
    };
    [
        BTreeSet::new(),
        every_other(0).collect(),
        every_other(1).collect(),
    ]
}

/// The graph a history runs on, as [`apply`] draws from it.
struct Graph<'a> {
    topology: &'a Topology,
    nodes: &'a [AsId],
    sites: &'a [AsId],
    pool: [BTreeSet<Community>; 3],
}

/// What one [`Op`] did to the originations.
#[derive(Debug, Default)]
struct Effect {
    /// The prefix whose originations it edited, if any.
    edited: Option<IpCidr>,
    /// That prefix enters the next convergence blank: newly announced,
    /// or blanked by a community edit.
    fresh: bool,
}

impl Effect {
    fn edited(p: IpCidr, fresh: bool) -> Self {
        Effect {
            edited: Some(p),
            fresh,
        }
    }
}

/// Apply a setting, drawn as an [`Op`], to the live engine, which has
/// originated nothing yet, and mirror it in the model: an even kind sets
/// `node`'s neighbor preferences (one neighbor's when `flag`), an odd one
/// its honor flag.
fn configure(op: &Op, live: &mut BgpEngine, inputs: &mut Inputs, g: &Graph) {
    let from = if op.site { g.sites } else { g.nodes };
    let node = from[op.node.index(from.len())];
    if op.kind % 2 == 1 {
        live.set_honor_actions(node, op.flag).expect("node exists");
        match op.flag {
            true => inputs.honor.insert(node),
            false => inputs.honor.remove(&node),
        };
        return;
    }
    let neighbors = g.topology.neighbors(node);
    let mut prefs = BTreeMap::new();
    if op.flag && !neighbors.is_empty() {
        let preferred = neighbors[op.other.index(neighbors.len())];
        prefs.insert(preferred, 1 + op.prefix as u32 * 10);
    }
    live.set_neighbor_pref(node, prefs.clone())
        .expect("node exists");
    inputs.prefs.insert(node, prefs);
}

/// What the live engine reported for one step's convergence.
struct Reported {
    fills: u64,
    updates: u64,
    rounds: usize,
    /// The RIB totals before the step, if its prefix held nothing then.
    stats_before: Option<RibStats>,
}

/// Apply `op` to the live engine and mirror it in the model. Returns a
/// label for failure messages and what the step changed.
fn apply(op: &Op, live: &mut BgpEngine, inputs: &mut Inputs, g: &Graph) -> (String, Effect) {
    let nodes = g.nodes;
    let from = if op.site { g.sites } else { nodes };
    let node = from[op.node.index(from.len())];
    let p = prefix(op.prefix);
    let communities = g.pool[op.communities].clone();
    // Edits and withdrawals prefer a live origination so they usually land.
    let live_origination = inputs
        .originated
        .keys()
        .nth(op.other.index(inputs.originated.len().max(1)))
        .copied()
        .unwrap_or((node, p));
    let new = !inputs.held().contains(&p);
    match op.kind {
        0 => {
            live.announce(node, p, communities.clone())
                .expect("node exists");
            inputs
                .originated
                .insert((node, p), (communities, Vec::new()));
            (format!("announce {p} at {node:?}"), Effect::edited(p, new))
        }
        1 => {
            let poison = vec![nodes[op.other.index(nodes.len())]];
            live.announce_poisoned(node, p, communities.clone(), &poison)
                .expect("node exists");
            inputs
                .originated
                .insert((node, p), (communities, poison.clone()));
            let label = format!("announce {p} at {node:?} poisoning {poison:?}");
            (label, Effect::edited(p, new))
        }
        2 | 4 | 5 => {
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
            let label = format!("set communities on {} at {:?}", target.1, target.0);
            match changed {
                true => (label, Effect::edited(target.1, true)),
                false => (label, Effect::default()),
            }
        }
        3 => {
            let target = live_origination;
            let removed = live.withdraw(target.0, target.1).expect("node exists");
            assert_eq!(removed, inputs.originated.remove(&target).is_some());
            let label = format!("withdraw {} at {:?}", target.1, target.0);
            match removed {
                true => (label, Effect::edited(target.1, false)),
                false => (label, Effect::default()),
            }
        }
        // A twin: a blank prefix announced at a live prefix's origin
        // speakers, with its exact attributes when `flag`, else with the
        // drawn communities and no poison — a twin only by chance, which
        // a fill matched on origin speakers alone would copy wrongly.
        _ => {
            let held = inputs.held();
            let source = held.iter().nth(op.other.index(held.len().max(1)));
            let target = (PREFIXES..PREFIXES + TWINS)
                .map(prefix)
                .find(|t| !held.contains(t));
            let (Some(&source), Some(target)) = (source, target) else {
                return (
                    "twin: nothing to copy or no blank prefix".into(),
                    Effect::default(),
                );
            };
            let copied: Vec<_> = (inputs.originations(source).into_iter())
                .map(|(origin, attrs)| (origin, attrs.clone()))
                .collect();
            for (origin, (c, poison)) in copied {
                let (c, poison) = match op.flag {
                    true => (c, poison),
                    false => (communities.clone(), Vec::new()),
                };
                live.announce_poisoned(origin, target, c.clone(), &poison)
                    .expect("node exists");
                inputs.originated.insert((origin, target), (c, poison));
            }
            let label = format!("announce {target} as {source}'s twin (exact: {})", op.flag);
            (label, Effect::edited(target, true))
        }
    }
}

/// Hold one convergence against the model of which columns carry a
/// bill (`billed`, updated here): a prefix that entered blank must be
/// filled iff another billed prefix has equal originations, and it
/// must end exactly as, and report exactly the updates and rounds of,
/// a lone engine flooding its originations alone.
fn check_fill(
    live: &BgpEngine,
    inputs: &Inputs,
    topology: &Topology,
    effect: &Effect,
    billed: &mut BTreeSet<IpCidr>,
    reported: &Reported,
    step: &str,
) -> Result<(), String> {
    let Some(p) = effect.edited else {
        return Ok(());
    };
    billed.remove(&p);
    if !effect.fresh {
        return Ok(());
    }
    let twin = (billed.iter()).any(|&q| inputs.originations(q) == inputs.originations(p));
    billed.insert(p);
    prop_assert_eq!(reported.fills, u64::from(twin), "after {step}: twin fills");
    let (lone, lone_updates, lone_rounds) = inputs.replay_where(topology, |q| q == p);
    check_routes(live, &lone, topology, [p].into_iter(), step)?;
    prop_assert_eq!(
        reported.updates,
        lone_updates,
        "after {step}: updates billed for {p}"
    );
    prop_assert_eq!(reported.rounds, lone_rounds, "after {step}: rounds of {p}");
    if let Some(before) = reported.stats_before {
        let alone = lone.rib_stats();
        let with = RibStats {
            adj_rib_in: before.adj_rib_in + alone.adj_rib_in,
            loc_rib: before.loc_rib + alone.loc_rib,
            adj_rib_out: before.adj_rib_out + alone.adj_rib_out,
        };
        prop_assert_eq!(live.rib_stats(), with, "after {step}: RIB occupancy of {p}");
    }
    Ok(())
}

/// What one history exercised beyond the replay checks: arena
/// compactions, incremental edits of a column a twin fill shares, and
/// rebuilds from the shelf.
#[derive(Debug, Default)]
struct Reach {
    compactions: u64,
    filled_edits: u64,
    rebuilds: u64,
}

/// Random histories over generated internet graphs: after every step
/// and its convergence, live state == from-scratch replay. Over the
/// run, at least one arena compaction, one incremental edit of a
/// twin-filled column and one rebuild from the shelf must have
/// happened, so each is held against the replay.
#[test]
fn incremental_state_equals_fresh_replay() {
    let mut reach = Reach::default();
    proptest::test_runner::run("incremental_state_equals_fresh_replay", |rng| {
        let ases = (30usize..70).generate(rng);
        let edges = (3usize..6).generate(rng);
        let seed = any::<u64>().generate(rng);
        let settings = proptest::collection::vec(arb_op(), 0..6).generate(rng);
        let ops = proptest::collection::vec(arb_op(), 8..16).generate(rng);
        incremental_history(ases, edges, seed, &settings, &ops, &mut reach)
    });
    assert!(reach.compactions > 0, "no history compacted an arena");
    assert!(
        reach.filled_edits > 0,
        "no history edited a twin-filled column incrementally"
    );
    assert!(reach.rebuilds > 0, "no history rebuilt a shelved fixpoint");
}

fn incremental_history(
    ases: usize,
    edges: usize,
    seed: u64,
    settings: &[Op],
    ops: &[Op],
    reach: &mut Reach,
) -> Result<(), String> {
    let g = try_generate(&GenParams::internet(ases, edges, seed)).expect("preset is valid");
    let nodes: Vec<AsId> = g.topology.nodes().map(|n| n.id).collect();
    let graph = Graph {
        topology: &g.topology,
        nodes: &nodes,
        sites: &g.edge_sites,
        pool: community_pool(&g.topology, &g.edge_sites),
    };
    let registry = Registry::new();
    let mut live = BgpEngine::new(g.topology.clone());
    live.set_obs(&registry);
    let mut inputs = Inputs::default();
    // Every edge site honors actions unless a drawn setting says
    // otherwise; then, so edits hit real state, each announces one prefix.
    for &site in &g.edge_sites {
        live.set_honor_actions(site, true).expect("edge exists");
        inputs.honor.insert(site);
    }
    for setting in settings {
        configure(setting, &mut live, &mut inputs, &graph);
    }
    for (i, &site) in g.edge_sites.iter().enumerate() {
        let p = prefix(i % PREFIXES);
        live.announce(site, p, BTreeSet::new())
            .expect("edge exists");
        inputs
            .originated
            .insert((site, p), (BTreeSet::new(), Vec::new()));
    }
    live.converge().expect("Gao-Rexford policies converge");
    let checked = PREFIXES + TWINS;
    check_against_replay(&live, &inputs, &g.topology, checked, "mesh set-up")?;
    // Every prefix entered the set-up blank: each carries a bill.
    let mut billed = inputs.held();
    // Prefixes whose column a twin fill shares, untouched since.
    let mut filled = BTreeSet::new();
    for op in ops {
        let (held, stats) = (inputs.held(), live.rib_stats());
        let (fills, updates_before) = (live.work().fills, updates(&registry));
        let (step, effect) = apply(op, &mut live, &mut inputs, &graph);
        let rounds = live.converge().expect("Gao-Rexford policies converge");
        check_against_replay(&live, &inputs, &g.topology, checked, &step)?;
        let reported = Reported {
            fills: live.work().fills - fills,
            updates: updates(&registry) - updates_before,
            rounds,
            stats_before: effect.edited.filter(|p| !held.contains(p)).map(|_| stats),
        };
        check_fill(
            &live,
            &inputs,
            &g.topology,
            &effect,
            &mut billed,
            &reported,
            &step,
        )?;
        if let Some(p) = effect.edited {
            let was_filled = filled.remove(&p);
            if effect.fresh && reported.fills > 0 {
                filled.insert(p);
            }
            reach.filled_edits += u64::from(was_filled && !effect.fresh);
        }
    }
    reach.compactions += live.work().compactions;
    reach.rebuilds += live.work().rebuilds;
    Ok(())
}

proptest! {
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

/// Two providers offer AS 1 routes equal in local-pref, path length and
/// administrative preference: only the neighbor-id tie-break is
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
}
