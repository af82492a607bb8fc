//! Property-based tests for the decision process the engine runs: a star
//! of 1–8 neighbors around one speaker S, each neighbor originating the
//! same prefix with an arbitrary relationship to S, an arbitrary
//! administrative preference at S and an arbitrary AS-path poison (which
//! sometimes holds S, so S's loop check drops it). S's converged best
//! route must be the argmax of the comparator written out below, before
//! and after the winner withdraws. S's preferences are configuration, so
//! they are set before the first announcement: set later, the engine
//! refuses them and converges as if they had never been asked for.

use core::cmp::Ordering;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tango_bgp::engine::Work;
use tango_bgp::{BgpEngine, EngineError, Route};
use tango_net::IpCidr;
use tango_obs::Registry;
use tango_topology::{AsId, AsKind, AsNode, DirectionProfile, LinkProfile, Topology};

/// The speaker under test.
const S: AsId = AsId(100);

fn prefix() -> IpCidr {
    "2001:db8:ab::/48".parse().expect("static prefix")
}

/// One neighbor of S and its origination.
#[derive(Debug, Clone)]
struct Spoke {
    id: AsId,
    /// S's relationship class toward the neighbor: 2 customer, 1 peer,
    /// 0 provider (higher is preferred).
    class: u8,
    /// S's administrative preference for the neighbor.
    pref: u32,
    /// The poison the neighbor originates with.
    poison: Vec<AsId>,
}

impl Spoke {
    /// The AS path S hears from this neighbor.
    fn path(&self) -> Vec<AsId> {
        core::iter::once(self.id)
            .chain(self.poison.iter().copied())
            .collect()
    }

    /// Does S import the route (its own AS is not on the path)?
    fn imported(&self) -> bool {
        !self.poison.contains(&S)
    }
}

/// S's preference between two candidates: relationship class, then the
/// shorter path, then the higher administrative preference, then the
/// lower neighbor id.
fn preference(a: &Spoke, b: &Spoke) -> Ordering {
    (a.class.cmp(&b.class))
        .then(b.poison.len().cmp(&a.poison.len()))
        .then(a.pref.cmp(&b.pref))
        .then(b.id.cmp(&a.id))
}

/// S's expected best route among the spokes still originating.
fn argmax<'a>(spokes: impl Iterator<Item = &'a Spoke>) -> Option<&'a Spoke> {
    spokes
        .filter(|s| s.imported())
        .max_by(|a, b| preference(a, b))
}

fn arb_star() -> impl Strategy<Value = Vec<Spoke>> {
    // A poisoned hop is outside the graph, or (one time in seven) S.
    let hop = (0u32..700).prop_map(|k| if k < 100 { S } else { AsId(1000 + k) });
    let spoke = (0u8..3, 0u32..3, proptest::collection::vec(hop, 0..7));
    let ids = proptest::collection::btree_set(1u32..60, 1..9);
    (ids, proptest::collection::vec(spoke, 8)).prop_map(|(ids, drawn)| {
        (ids.into_iter().zip(drawn))
            .map(|(id, (class, pref, poison))| Spoke {
                id: AsId(id),
                class,
                pref,
                poison,
            })
            .collect()
    })
}

/// The star, its links added and its originations announced in `order`,
/// S's preferences set first, converged.
fn star(spokes: &[Spoke], order: impl Iterator<Item = usize> + Clone) -> BgpEngine {
    let mut e = BgpEngine::new(graph(spokes, order.clone()));
    e.set_neighbor_pref(S, prefs(spokes)).expect("S exists");
    announce(&mut e, spokes, order);
    e.converge().expect("Gao-Rexford policies converge");
    e
}

/// The star's graph, its links added in `order`.
fn graph(spokes: &[Spoke], order: impl Iterator<Item = usize>) -> Topology {
    let lp = || LinkProfile::symmetric(DirectionProfile::constant(1));
    let mut t = Topology::new();
    t.add_node(AsNode::new(S.0, AsKind::Transit, "S"))
        .expect("fresh id");
    for s in order.map(|k| &spokes[k]) {
        t.add_node(AsNode::new(s.id.0, AsKind::Transit, format!("{}", s.id.0)))
            .expect("fresh id");
        match s.class {
            2 => t.add_provider(s.id, S, lp()),
            1 => t.add_peering(S, s.id, lp()),
            _ => t.add_provider(S, s.id, lp()),
        }
        .expect("fresh link");
    }
    t
}

/// S's administrative preference for each neighbor.
fn prefs(spokes: &[Spoke]) -> BTreeMap<AsId, u32> {
    spokes.iter().map(|s| (s.id, s.pref)).collect()
}

/// Every spoke's origination, announced in `order`.
fn announce(e: &mut BgpEngine, spokes: &[Spoke], order: impl Iterator<Item = usize>) {
    for s in order.map(|k| &spokes[k]) {
        e.announce_poisoned(s.id, prefix(), BTreeSet::new(), &s.poison)
            .expect("a star node");
    }
}

/// What a converged star shows: every node's best route, the work the
/// engine ran and the updates it reported.
fn observed(
    e: &BgpEngine,
    spokes: &[Spoke],
    registry: &Registry,
) -> (Vec<Option<Route>>, Work, u64) {
    let nodes = core::iter::once(S).chain(spokes.iter().map(|s| s.id));
    let routes = nodes.map(|at| e.best_route(at, prefix())).collect();
    let updates = registry.snapshot().counters["bgp.updates_processed"];
    (routes, e.work(), updates)
}

/// Assert S's best route is `expected`'s, or that it has none.
fn check_best(e: &BgpEngine, expected: Option<&Spoke>, step: &str) -> Result<(), String> {
    let best = e.best_route(S, prefix());
    let Some(w) = expected else {
        prop_assert_eq!(best, None, "{}: every candidate loops", step);
        return Ok(());
    };
    let best = best.ok_or_else(|| format!("{step}: no route at S"))?;
    prop_assert_eq!(best.next_hop, w.id, "{}: next hop", step);
    prop_assert_eq!(&*best.attrs.as_path, &w.path()[..], "{}: AS path", step);
    prop_assert_eq!(best.tie_pref, w.pref, "{}: tie_pref", step);
    Ok(())
}

proptest! {
    /// S picks the argmax of its imported candidates; once the winner
    /// withdraws, the argmax of the rest.
    #[test]
    fn decision_winner_is_undominated(spokes in arb_star()) {
        let mut e = star(&spokes, 0..spokes.len());
        let winner = argmax(spokes.iter());
        check_best(&e, winner, "converged")?;
        if let Some(w) = winner {
            prop_assert!(e.withdraw(w.id, prefix()).expect("a star node"));
            e.converge().expect("Gao-Rexford policies converge");
            let rest = argmax(spokes.iter().filter(|s| s.id != w.id));
            check_best(&e, rest, "winner withdrawn")?;
        }
    }

    /// The order links are added and originations announced in changes
    /// nothing about S's best route.
    #[test]
    fn decision_permutation_invariant(spokes in arb_star(), rot in 0usize..8) {
        let n = spokes.len();
        let rotated = star(&spokes, (0..n).map(|k| (k + rot) % n));
        let straight = star(&spokes, 0..n);
        prop_assert_eq!(rotated.best_route(S, prefix()), straight.best_route(S, prefix()));
    }

    /// Configuration asked for between the announcements and the first
    /// convergence is refused, setter by setter, and the engine
    /// converges exactly as one never configured: the same route at
    /// every node, the same `work()` and `bgp.updates_processed`.
    #[test]
    fn configuration_after_the_announcements_changes_nothing(
        spokes in arb_star(),
        honor in any::<bool>(),
    ) {
        let run = |ask_late: bool| {
            let registry = Registry::new();
            let mut e = BgpEngine::new(graph(&spokes, 0..spokes.len()));
            e.set_obs(&registry);
            announce(&mut e, &spokes, 0..spokes.len());
            if ask_late {
                let refused = Err(EngineError::ConfiguredAfterOrigination(S));
                assert_eq!(e.set_neighbor_pref(S, prefs(&spokes)), refused);
                assert_eq!(e.set_honor_actions(S, honor), refused);
                assert_eq!(e.set_strip_private(S, honor), refused);
            }
            e.converge().expect("Gao-Rexford policies converge");
            observed(&e, &spokes, &registry)
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// A setter after an origination is refused with a typed error and
/// changes nothing — no route, no work, no `bgp.*` count — before the
/// first convergence and after it. Unknown speakers are still named as
/// such.
#[test]
fn a_setter_after_an_origination_is_refused_and_changes_nothing() {
    let spokes: Vec<Spoke> = (1..4)
        .map(|id| Spoke {
            id: AsId(id),
            class: 3 - id as u8,
            pref: 0,
            poison: Vec::new(),
        })
        .collect();
    let registry = Registry::new();
    let mut e = BgpEngine::new(graph(&spokes, 0..3));
    e.set_obs(&registry);
    announce(&mut e, &spokes, 0..3);
    let refuse = |e: &mut BgpEngine| {
        let refused = |at| Err(EngineError::ConfiguredAfterOrigination(at));
        assert_eq!(e.set_neighbor_pref(S, [(AsId(3), 9)].into()), refused(S));
        assert_eq!(e.set_honor_actions(AsId(1), true), refused(AsId(1)));
        assert_eq!(e.set_strip_private(AsId(2), true), refused(AsId(2)));
        let unknown = Err(EngineError::UnknownSpeaker(AsId(999)));
        assert_eq!(e.set_strip_private(AsId(999), true), unknown);
    };
    refuse(&mut e);
    e.converge().expect("Gao-Rexford policies converge");
    assert_eq!(e.best_route(S, prefix()).map(|r| r.next_hop), Some(AsId(1)));
    let state = |e: &BgpEngine| {
        (
            observed(e, &spokes, &registry),
            registry.snapshot().counters,
        )
    };
    let before = state(&e);
    refuse(&mut e);
    assert_eq!(state(&e), before);
    let work = e.work();
    assert_eq!(e.converge(), Ok(0), "nothing to re-decide");
    assert_eq!(e.work(), work);
}
