//! Gao-Rexford routing policy: local preference by relationship and the
//! valley-free export rule.
//!
//! §2.2/§3 of the paper lean on this behaviour of the real Internet:
//! *"core ASes often select paths based on business objectives rather
//! than performance"* — which is exactly why the default BGP path between
//! the Vultr DCs is 30 % slower than the best one (§5).

use crate::community::Community;
use std::collections::BTreeSet;
use tango_topology::{Relationship, Topology};

/// Local-pref base for customer-learned routes (revenue: most preferred).
pub(crate) const LP_CUSTOMER: u32 = 300;
/// Local-pref base for peer-learned routes (free, but no revenue).
pub(crate) const LP_PEER: u32 = 200;
/// Local-pref base for provider-learned routes (costs money: least).
pub(crate) const LP_PROVIDER: u32 = 100;

/// The local-pref base for a route learned from a neighbor, given the
/// receiving AS's relationship `to_sender` to it.
pub(crate) fn local_pref_base(to_sender: Relationship) -> u32 {
    match to_sender {
        // We are the neighbor's customer → the route came from our provider.
        Relationship::CustomerOf => LP_PROVIDER,
        Relationship::ProviderOf => LP_CUSTOMER,
        Relationship::PeerOf => LP_PEER,
    }
}

/// Valley-free export rule: may a route be exported to a neighbor we
/// stand in relationship `to_neighbor` with? `learned_from` is our
/// relationship to the neighbor the route came from, `None` for a
/// locally originated route.
///
/// * Locally originated and customer-learned routes go to everyone.
/// * Peer- and provider-learned routes go only to customers.
pub(crate) fn may_export(learned_from: Option<Relationship>, to_neighbor: Relationship) -> bool {
    to_neighbor == Relationship::ProviderOf
        || matches!(learned_from, None | Some(Relationship::ProviderOf))
}

/// Community post-processing at export: does the route's communities
/// forbid exporting to this neighbor?
///
/// Only a speaker that honors the action communities (`honor_actions`)
/// acts on them: they are scoped to the provider that defines them
/// (Vultr's border in the prototype), and it withholds the route from
/// `neighbor` iff the set holds `NoExportTo(neighbor)`. This scoping
/// matters: the LA→NY fourth path traverses NTT *mid-path* ([NTT,
/// Cogent], Fig. 3), which only exists because Cogent treats Vultr's "do
/// not announce to NTT" community as opaque.
pub(crate) fn communities_forbid(
    communities: &BTreeSet<Community>,
    neighbor: tango_topology::AsId,
    honor_actions: bool,
) -> bool {
    honor_actions && communities.iter().any(|c| c.forbids_export_to(neighbor))
}

/// Is an AS-level path valley-free under the topology's Gao-Rexford
/// labels?
///
/// `nodes` is read in the **traffic direction** (first element forwards
/// toward the last): for an AS path observed at `v` for a prefix
/// originated at `o`, pass `[v, n1, n2, …, o]`. A valley-free walk is
/// zero or more *uphill* customer→provider hops, at most one *peering*
/// hop, then zero or more *downhill* provider→customer hops — the shape
/// valley-free export filters guarantee, so every path BGP actually
/// propagates must satisfy it (the property-test harness asserts this
/// for every path Tango discovery installs).
///
/// Consecutive duplicate ASes (path prepending) are collapsed first.
/// Hops between non-adjacent ASes (e.g. poisoned ASNs planted in a
/// path) make the walk non-verifiable and return `false`.
pub fn path_is_valley_free(topology: &Topology, nodes: &[tango_topology::AsId]) -> bool {
    let mut seq: Vec<tango_topology::AsId> = Vec::with_capacity(nodes.len());
    for &n in nodes {
        if seq.last() != Some(&n) {
            seq.push(n);
        }
    }
    #[derive(PartialEq, Eq, Clone, Copy)]
    enum Stage {
        /// Climbing customer→provider links.
        Up,
        /// Crossed the single allowed peering link.
        Peered,
        /// Descending provider→customer links.
        Down,
    }
    let mut stage = Stage::Up;
    for w in seq.windows(2) {
        let Some(rel) = topology.relationship(w[0], w[1]) else {
            return false;
        };
        stage = match (stage, rel) {
            // Still climbing toward the core.
            (Stage::Up, Relationship::CustomerOf) => Stage::Up,
            // The one peering crossing, only at the top of the climb.
            (Stage::Up, Relationship::PeerOf) => Stage::Peered,
            // Descending is legal from any stage (and is terminal).
            (_, Relationship::ProviderOf) => Stage::Down,
            // Climbing or peering after the apex is a valley.
            (Stage::Peered | Stage::Down, _) => return false,
        };
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_topology::{AsId, AsKind, AsNode, DirectionProfile, LinkProfile};

    /// customer(1) -> provider(2) -- peer(3); 2 also provides 4.
    fn topo() -> Topology {
        let mut t = Topology::new();
        for id in 1..=4u32 {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        let lp = || LinkProfile::symmetric(DirectionProfile::constant(1));
        t.add_provider(AsId(1), AsId(2), lp()).unwrap();
        t.add_peering(AsId(2), AsId(3), lp()).unwrap();
        t.add_provider(AsId(4), AsId(2), lp()).unwrap();
        t
    }

    #[test]
    fn local_pref_by_relationship() {
        // Learned from a customer (we are its provider) → customer pref.
        assert_eq!(local_pref_base(Relationship::ProviderOf), LP_CUSTOMER);
        assert_eq!(local_pref_base(Relationship::CustomerOf), LP_PROVIDER);
        assert_eq!(local_pref_base(Relationship::PeerOf), LP_PEER);
    }

    #[test]
    fn customer_routes_exported_everywhere() {
        let from_customer = Some(Relationship::ProviderOf);
        assert!(may_export(from_customer, Relationship::PeerOf));
        assert!(may_export(from_customer, Relationship::ProviderOf));
        assert!(may_export(from_customer, Relationship::CustomerOf));
    }

    #[test]
    fn peer_and_provider_routes_only_to_customers() {
        for learned_from in [Relationship::PeerOf, Relationship::CustomerOf] {
            assert!(may_export(Some(learned_from), Relationship::ProviderOf));
            assert!(!may_export(Some(learned_from), Relationship::PeerOf));
            assert!(!may_export(Some(learned_from), Relationship::CustomerOf));
        }
    }

    #[test]
    fn local_routes_exported_everywhere() {
        assert!(may_export(None, Relationship::CustomerOf));
        assert!(may_export(None, Relationship::PeerOf));
        assert!(may_export(None, Relationship::ProviderOf));
    }

    #[test]
    fn no_export_to_community_blocks_target_only() {
        let c = BTreeSet::from([Community::NoExportTo(AsId(3))]);
        assert!(communities_forbid(&c, AsId(3), true));
        assert!(!communities_forbid(&c, AsId(2), true));
    }

    #[test]
    fn action_community_is_opaque_unless_honored() {
        // A transit that does not act on Vultr's namespace must carry the
        // route through — this is what keeps the [NTT, Cogent] path alive.
        let c = BTreeSet::from([Community::NoExportTo(AsId(3))]);
        assert!(!communities_forbid(&c, AsId(3), false));
    }

    #[test]
    fn valley_free_checker_accepts_up_peer_down() {
        let t = topo(); // 1 →cust 2, 2 —peer— 3, 4 →cust 2
                        // Climb 1→2, peer 2→3: valley-free.
        assert!(path_is_valley_free(&t, &[AsId(1), AsId(2), AsId(3)]));
        // Climb 1→2, descend 2→4: valley-free.
        assert!(path_is_valley_free(&t, &[AsId(1), AsId(2), AsId(4)]));
        // Descend then climb (2→1 is provider→customer, then 1 has no
        // way back up that isn't a valley): 4→2→1 is pure downhill after
        // a climb — 4→2 up, 2→1 down: fine.
        assert!(path_is_valley_free(&t, &[AsId(4), AsId(2), AsId(1)]));
        // Trivial paths.
        assert!(path_is_valley_free(&t, &[AsId(1)]));
        assert!(path_is_valley_free(&t, &[]));
    }

    #[test]
    fn valley_free_checker_rejects_valleys() {
        let mut t = topo();
        // Add a second provider 5 for AS1 so a valley 2→1→5 is expressible.
        t.add_node(AsNode::new(5u32, AsKind::Transit, "5")).unwrap();
        t.add_provider(
            AsId(1),
            AsId(5),
            LinkProfile::symmetric(DirectionProfile::constant(1)),
        )
        .unwrap();
        // Down (2→1) then up (1→5): classic valley.
        assert!(!path_is_valley_free(&t, &[AsId(2), AsId(1), AsId(5)]));
        // Peer (3→2) then up — 3→2 is peer, 2→... wait 2 has no provider;
        // peer then peer is also illegal but needs two peer links; check
        // peer then up via 3—2 peer followed by climbing is impossible
        // here, so check peer-after-peer style valley: up to the peering
        // then trying to climb again: 1→2 (up), 2—3 (peer), then 3 has no
        // onward link to climb; instead assert down-then-peer: 4→2 is up…
        // use 2→1 (down) then nothing; simplest remaining valley: peer
        // crossing followed by a customer→provider hop 3—2 then 2's
        // provider does not exist, so assert the non-adjacent case below.
        assert!(!path_is_valley_free(&t, &[AsId(3), AsId(4)])); // not adjacent
    }

    #[test]
    fn valley_free_checker_collapses_prepends() {
        let t = topo();
        assert!(path_is_valley_free(
            &t,
            &[AsId(1), AsId(2), AsId(2), AsId(2), AsId(3)]
        ));
    }

    #[test]
    fn valley_free_checker_rejects_peer_after_descent() {
        // Build 1 →cust 2, 2 →prov… need: down then peer. 4 is customer
        // of 2; 2 peers 3. Path 3—2 (peer) → 2—1 (down) → fine; but
        // 4→2? that's up. Construct descent-then-peer: provider 2 sends
        // down to 4, then 4 peers with 6.
        let mut t = topo();
        t.add_node(AsNode::new(6u32, AsKind::Transit, "6")).unwrap();
        t.add_peering(
            AsId(4),
            AsId(6),
            LinkProfile::symmetric(DirectionProfile::constant(1)),
        )
        .unwrap();
        // 2→4 is down (2 is 4's provider), then 4—6 peer: valley.
        assert!(!path_is_valley_free(&t, &[AsId(2), AsId(4), AsId(6)]));
        // And two peer crossings: 3—2 peer then… 2—? only one peer link
        // at 2; use 6—4 peer then 4→2 up: peer then up is a valley too.
        assert!(!path_is_valley_free(&t, &[AsId(6), AsId(4), AsId(2)]));
    }
}
