//! Property-based tests for the decision process the engine runs: a star
//! of 1–8 neighbors around one speaker S, each neighbor originating the
//! same prefix with an arbitrary relationship to S, an arbitrary
//! administrative preference at S and an arbitrary AS-path poison (which
//! sometimes holds S, so S's loop check drops it). S's converged best
//! route must be the argmax of the comparator written out below, before
//! and after the winner withdraws.

use core::cmp::Ordering;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tango_bgp::BgpEngine;
use tango_net::IpCidr;
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
/// converged.
fn star(spokes: &[Spoke], order: impl Iterator<Item = usize> + Clone) -> BgpEngine {
    let lp = || LinkProfile::symmetric(DirectionProfile::constant(1));
    let mut t = Topology::new();
    t.add_node(AsNode::new(S.0, AsKind::Transit, "S"))
        .expect("fresh id");
    for s in order.clone().map(|k| &spokes[k]) {
        t.add_node(AsNode::new(s.id.0, AsKind::Transit, format!("{}", s.id.0)))
            .expect("fresh id");
        match s.class {
            2 => t.add_provider(s.id, S, lp()),
            1 => t.add_peering(S, s.id, lp()),
            _ => t.add_provider(S, s.id, lp()),
        }
        .expect("fresh link");
    }
    let mut e = BgpEngine::new(t);
    let prefs: BTreeMap<AsId, u32> = spokes.iter().map(|s| (s.id, s.pref)).collect();
    e.set_neighbor_pref(S, prefs).expect("S exists");
    for s in order.map(|k| &spokes[k]) {
        e.announce_poisoned(s.id, prefix(), BTreeSet::new(), &s.poison)
            .expect("a star node");
    }
    e.converge().expect("Gao-Rexford policies converge");
    e
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
}
