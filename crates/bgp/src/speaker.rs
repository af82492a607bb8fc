//! A per-domain BGP border speaker: its configuration, its sessions and
//! the import/export policy it applies to a prefix's RIB column.
//!
//! This is the in-memory equivalent of the BIRD instance + Vultr border
//! router pair of the prototype (§4.1): it computes local-pref from
//! business relationships (plus the per-neighbor preference that models
//! "in order of preference by Vultr's routers"), runs the decision
//! process, applies valley-free export filters, honors action communities,
//! strips private ASNs on export, and supports AS-path poisoning at
//! origination.
//!
//! Storage: a speaker holds no routes. What it learned, chose and sent
//! for a prefix lives in that prefix's column in the engine
//! (`rib::PrefixColumn`): its Adj-RIB-In is the slots of its own sessions
//! (contiguous, in neighbor-id order, which is what makes the decision's
//! first-wins tie-break deterministic), its Adj-RIB-Out the slots of its
//! neighbors' sessions with it, and its Loc-RIB entry one winner. Import
//! policy is per session: each [`Neighbor`] caches the local-pref and
//! administrative preference its routes get, read at decision time.

use crate::policy::{communities_forbid, may_export};
use crate::rib::{Ads, PrefixColumn, Route, Winner, LOCAL, NONE};
use std::collections::BTreeMap;
use tango_topology::{AsId, Relationship};

/// A prefix's dense id in the engine's intern table, and its column's
/// index. Only [`crate::BgpEngine`] mints one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PrefixId(pub(crate) u32);

impl PrefixId {
    pub(crate) fn slot(self) -> usize {
        self.0 as usize
    }
}

/// One eBGP session as the owning speaker sees it, resolved once when the
/// speaker is built so the update path never consults the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Neighbor {
    /// The neighbor's AS id.
    pub(crate) id: AsId,
    /// The owning speaker's relationship to the neighbor
    /// (`ProviderOf`: the neighbor is our customer).
    pub(crate) rel: Relationship,
    /// The neighbor's slot in the engine's dense speaker table.
    pub(crate) index: u32,
    /// The owning speaker's slot in the *neighbor's* session list: what
    /// we send it lands in the neighbor's session slot `back`.
    pub(crate) back: u32,
    /// Local preference of routes learned over this session
    /// (relationship-based).
    pub(crate) local_pref: u32,
    /// Administrative preference of routes learned over this session
    /// (see [`Route::tie_pref`]).
    pub(crate) tie_pref: u32,
}

/// A BGP speaker: its export knobs and its sessions.
#[derive(Debug)]
pub(crate) struct BgpSpeaker {
    /// The speaker's AS (routing-domain) id.
    asid: AsId,
    /// Strip private ASNs from the AS path when exporting — what Vultr
    /// does with the tenant's private-ASN session (§4.1 footnote).
    pub(crate) strip_private_asns: bool,
    /// Act on the `NoExportTo` action communities when exporting. Set on
    /// the provider that defines the community namespace (the Vultr
    /// borders); everyone else carries them opaquely.
    pub(crate) honor_actions: bool,
    /// eBGP sessions, ordered by neighbor id.
    neighbors: Vec<Neighbor>,
}

impl BgpSpeaker {
    /// A speaker for `asid` with the given sessions and both export
    /// knobs off.
    pub(crate) fn new(asid: AsId, mut neighbors: Vec<Neighbor>) -> Self {
        neighbors.sort_unstable_by_key(|n| n.id);
        BgpSpeaker {
            asid,
            strip_private_asns: false,
            honor_actions: false,
            neighbors,
        }
    }

    /// This speaker's id.
    pub(crate) fn asid(&self) -> AsId {
        self.asid
    }

    /// The eBGP sessions, ordered by neighbor id.
    pub(crate) fn neighbors(&self) -> &[Neighbor] {
        &self.neighbors
    }

    /// Set each session's administrative preference from `prefs`
    /// (absent: 0), applied as a tie-break *after* AS-path length (see
    /// `Ads::rank`). Models the Vultr borders' NTT > Telia > GTT
    /// ordering without overriding shortest-path selection.
    pub(crate) fn set_neighbor_pref(&mut self, prefs: &BTreeMap<AsId, u32>) {
        for n in &mut self.neighbors {
            n.tie_pref = prefs.get(&n.id).copied().unwrap_or(0);
        }
    }

    /// The route `winner`, an advertisement in `ads`, stands for here.
    pub(crate) fn route(&self, winner: Winner, ads: &Ads) -> Route {
        let n = self.neighbors.get(winner.session as usize);
        Route {
            next_hop: self.next_hop(winner),
            attrs: ads.attrs(winner.ad),
            local_pref: n.map_or(u32::MAX, |n| n.local_pref),
            tie_pref: n.map_or(0, |n| n.tie_pref),
        }
    }

    /// Where traffic chosen by `winner` goes next: the neighbor it was
    /// learned from, or this speaker for its own origination.
    pub(crate) fn next_hop(&self, winner: Winner) -> AsId {
        self.neighbors
            .get(winner.session as usize)
            .map_or(self.asid, |n| n.id)
    }

    /// Re-run the decision process for this speaker (position `at`;
    /// `offsets[j]` is where speaker `j`'s sessions start) over `col`.
    /// Returns true if the Loc-RIB entry changed.
    ///
    /// Candidates are handles, the origination first and then the
    /// imported slots in neighbor-id order; the winner is compared with
    /// the installed one by value, and installed only if it differs.
    pub(crate) fn decide(&self, at: u32, offsets: &[u32], col: &mut PrefixColumn) -> bool {
        let base = offsets[at as usize] as usize;
        let ads = col.ads();
        let origin = col.origin(at);
        let mut best = origin.map(|h| (LOCAL, h, ads.rank(h, 0, u32::MAX, 0)));
        for (k, n) in self.neighbors.iter().enumerate() {
            let Some(h) = col.imported(base + k) else {
                continue;
            };
            let r = ads.rank(h, n.id.0, n.local_pref, n.tie_pref);
            if best.map_or(true, |(_, _, b)| r > b) {
                best = Some((k as u32, h, r));
            }
        }
        let unchanged = match (best, col.winner(at)) {
            (None, None) => true,
            (Some((session, h, _)), Some(w)) => w.session == session && ads.same(w.ad, h),
            _ => false,
        };
        if unchanged {
            return false;
        }
        col.set_winner(at, best.map(|(session, ad, _)| Winner { session, ad }));
        true
    }

    /// Bring this speaker's outgoing slots in `col` up to date with its
    /// Loc-RIB entry (speaker `at`; `offsets[j]` is where speaker `j`'s
    /// sessions start) and call `deliver(neighbor, update, changed)` for
    /// every session whose advertisement changed (`update` a handle in
    /// `col`'s arena, [`NONE`] for a withdrawal; `changed`: the
    /// neighbor's Adj-RIB-In moved). Sessions are visited in neighbor-id
    /// order. The advertisement (path prepended, private ASNs stripped)
    /// is appended to the arena at most once, for the first neighbor
    /// policy lets it reach, and its handle sent to every such neighbor.
    pub(crate) fn export(
        &self,
        at: u32,
        offsets: &[u32],
        col: &mut PrefixColumn,
        mut deliver: impl FnMut(&Neighbor, u32, bool),
    ) {
        let best = col.winner(at);
        let learned_from = best.and_then(|w| self.neighbors.get(w.session as usize));
        let learned_from = learned_from.map(|n| n.rel);
        let mut built = NONE;
        for to in &self.neighbors {
            let mut new = NONE;
            if let Some(w) = best {
                let communities = col.ads().communities(w.ad);
                if may_export(learned_from, to.rel)
                    && !communities_forbid(communities, to.id, self.honor_actions)
                {
                    if built == NONE {
                        built = col.export(w.ad, self.asid, self.strip_private_asns);
                    }
                    new = built;
                }
            }
            let slot = (offsets[to.index as usize] + to.back) as usize;
            if let Some(changed) = col.send(slot, to.id, new) {
                deliver(to, new, changed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::Community;
    use crate::engine::RibStats;
    use crate::BgpEngine;
    use std::collections::BTreeSet;
    use tango_net::IpCidr;
    use tango_topology::{AsKind, AsNode, DirectionProfile, LinkProfile, Topology};

    /// The speaker under test, AS 2, and its two sessions: 1 (customer)
    /// -> 2 (provider), 2 peers 3. Each test drives AS 2's steps by hand.
    fn engine() -> BgpEngine {
        let mut t = Topology::new();
        for id in [1u32, 2, 3] {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        let lp = LinkProfile::symmetric(DirectionProfile::constant(1));
        t.add_provider(AsId(1), AsId(2), lp.clone()).unwrap();
        t.add_peering(AsId(2), AsId(3), lp).unwrap();
        BgpEngine::new(t)
    }

    const S: AsId = AsId(2);
    const FROM_1: AsId = AsId(1);
    const FROM_3: AsId = AsId(3);

    fn prefix() -> IpCidr {
        "2001:db8:2::/48".parse().unwrap()
    }

    /// An advertisement of `path` (no communities) appended to
    /// the test prefix's column.
    fn learned(e: &mut BgpEngine, path: &[u32]) -> Option<u32> {
        let path: Vec<AsId> = path.iter().map(|&a| AsId(a)).collect();
        Some(e.parts(S, prefix()).3.push_ad(&path))
    }

    /// Put `update` (`None`: a withdrawal) on `from`'s session into
    /// `at`, as `from`'s export would; false if there is no such session.
    fn receive_at(e: &mut BgpEngine, from: AsId, at: AsId, update: Option<u32>) -> bool {
        let (s, i, offsets, column) = e.parts(at, prefix());
        let Some(k) = s.neighbors().iter().position(|n| n.id == from) else {
            return false;
        };
        let slot = offsets[i as usize] as usize + k;
        column
            .send(slot, at, update.unwrap_or(NONE))
            .unwrap_or(false)
    }

    fn receive(e: &mut BgpEngine, from: AsId, update: Option<u32>) -> bool {
        receive_at(e, from, S, update)
    }

    /// `path`, learned over `from`'s session.
    fn receive_path(e: &mut BgpEngine, from: AsId, path: &[u32]) -> bool {
        let update = learned(e, path);
        receive(e, from, update)
    }

    fn recompute(e: &mut BgpEngine) -> bool {
        let (s, i, offsets, column) = e.parts(S, prefix());
        s.decide(i, offsets, column)
    }

    /// Run AS 2's export diff, reporting every message sent (`None`: a
    /// withdrawal).
    fn export_prefix(e: &mut BgpEngine, mut deliver: impl FnMut(AsId, Option<u32>)) {
        let (s, i, offsets, column) = e.parts(S, prefix());
        s.export(i, offsets, column, |to, update, _| {
            deliver(to.id, Some(update).filter(|&h| h != NONE))
        });
    }

    fn best(e: &BgpEngine) -> Option<Route> {
        e.best_route(S, prefix())
    }

    /// What AS 2 sends `to` once its export diff has run.
    fn exported_path(e: &mut BgpEngine, to: u32) -> Option<Vec<AsId>> {
        export_prefix(e, |_, _| {});
        e.advertisement(S, AsId(to), prefix())
            .map(|attrs| attrs.as_path.to_vec())
    }

    /// `at`'s (Adj-RIB-In, Loc-RIB, Adj-RIB-Out) entry counts; all 0:
    /// it holds nothing (none of these tests originates at it).
    fn lens(e: &BgpEngine, at: AsId) -> (usize, usize, usize) {
        let RibStats {
            adj_rib_in,
            loc_rib,
            adj_rib_out,
        } = e.rib_lens(at);
        (adj_rib_in, loc_rib, adj_rib_out)
    }

    #[test]
    fn receive_computes_local_pref_and_source() {
        let mut e = engine();
        assert!(receive_path(&mut e, FROM_1, &[1]));
        recompute(&mut e);
        let best = best(&e).unwrap();
        assert_eq!(best.local_pref, crate::policy::LP_CUSTOMER);
        assert_eq!(best.next_hop, AsId(1));
    }

    #[test]
    fn neighbor_pref_never_overrides_relationship_or_length() {
        let mut e = engine();
        e.set_neighbor_pref(S, [(AsId(3), 99999)].into()).unwrap(); // arbitrarily large
        receive_path(&mut e, FROM_1, &[1]); // customer route
        receive_path(&mut e, FROM_3, &[3]); // boosted peer route
        recompute(&mut e);
        // Customer local-pref still beats any tie_pref on the peer route.
        assert_eq!(best(&e).unwrap().next_hop, AsId(1));
    }

    #[test]
    fn loop_detection_rejects_own_asn() {
        let mut e = engine();
        assert!(!receive_path(&mut e, FROM_1, &[1, 2, 7]));
        recompute(&mut e);
        assert!(best(&e).is_none());
    }

    #[test]
    fn update_from_a_stranger_is_dropped() {
        let mut e = engine();
        assert!(!receive_path(&mut e, AsId(9), &[9]));
        assert_eq!(lens(&e, S).0, 0);
        assert_eq!(lens(&e, S), (0, 0, 0), "holds nothing");
    }

    #[test]
    fn receive_same_route_reports_unchanged() {
        let mut e = engine();
        assert!(receive_path(&mut e, FROM_1, &[1]));
        // Equal content in a second record is still "unchanged".
        assert!(!receive_path(&mut e, FROM_1, &[1]));
        assert!(receive(&mut e, FROM_1, None));
        assert!(!receive(&mut e, FROM_1, None));
    }

    #[test]
    fn withdraw_falls_back_to_next_best() {
        let mut e = engine();
        receive_path(&mut e, FROM_1, &[1]); // customer
        receive_path(&mut e, FROM_3, &[3]); // peer
        recompute(&mut e);
        assert_eq!(best(&e).unwrap().next_hop, AsId(1));
        receive(&mut e, FROM_1, None);
        assert!(recompute(&mut e));
        assert_eq!(best(&e).unwrap().next_hop, AsId(3));
    }

    #[test]
    fn counts_track_edits_and_empty_prefixes_are_dropped() {
        let mut e = engine();
        receive_path(&mut e, FROM_1, &[1]);
        recompute(&mut e);
        let mut sent = Vec::new();
        export_prefix(&mut e, |to, update| sent.push((to, update.is_some())));
        // No split horizon: the customer's own route goes back to it too
        // (its loop detection drops it).
        assert_eq!(sent, vec![(AsId(1), true), (AsId(3), true)]);
        assert_eq!(lens(&e, S), (1, 1, 2));
        // Nothing changed: a second export pass sends nothing.
        export_prefix(&mut e, |_, _| panic!("no diff expected"));

        receive(&mut e, FROM_1, None);
        recompute(&mut e);
        sent.clear();
        export_prefix(&mut e, |to, update| sent.push((to, update.is_some())));
        assert_eq!(
            sent,
            vec![(AsId(1), false), (AsId(3), false)],
            "implicit withdrawals"
        );
        assert_eq!(lens(&e, S), (0, 0, 0));
        for at in [1, 2, 3] {
            assert_eq!(lens(&e, AsId(at)), (0, 0, 0), "AS {at} holds nothing");
        }
    }

    /// An export compares advertisements by value, never by handle: a
    /// compaction renumbers the records under the slots, and exporting
    /// the same winner again builds a new record but changes no slot.
    #[test]
    fn a_re_export_after_a_compaction_changes_no_slot() {
        let mut e = engine();
        for garbage in 0..20 {
            learned(&mut e, &[1, 100 + garbage]);
        }
        receive_path(&mut e, FROM_1, &[1]);
        recompute(&mut e);
        let mut sent = Vec::new();
        export_prefix(&mut e, |to, update| sent.push((to, update.is_some())));
        assert_eq!(sent, [(AsId(1), true), (AsId(3), true)]);
        let slot = |e: &mut BgpEngine| {
            let (s, _, offsets, column) = e.parts(S, prefix());
            let to_3 = s.neighbors().iter().find(|n| n.id == FROM_3).unwrap();
            column.sent((offsets[to_3.index as usize] + to_3.back) as usize)
        };
        let before = slot(&mut e);
        assert!(e.parts(S, prefix()).3.compact_if_sparse(&mut Vec::new()));
        assert_ne!(slot(&mut e), before, "the compaction renumbered the slot");
        export_prefix(&mut e, |to, _| panic!("{to:?}'s slot changed"));
        assert_eq!(exported_path(&mut e, 3), Some(vec![AsId(2), AsId(1)]));
    }

    #[test]
    fn export_prepends_self() {
        let mut e = engine();
        receive_path(&mut e, FROM_1, &[1]);
        recompute(&mut e);
        assert_eq!(exported_path(&mut e, 3), Some(vec![AsId(2), AsId(1)]));
    }

    #[test]
    fn export_honors_valley_free() {
        let mut e = engine();
        // Peer-learned route must not be exported back to a peer.
        receive_path(&mut e, FROM_3, &[3]);
        recompute(&mut e);
        assert!(exported_path(&mut e, 3).is_none());
        // ...but is exported to the customer.
        assert!(exported_path(&mut e, 1).is_some());
    }

    #[test]
    fn export_honors_no_export_to_community() {
        let mut e = engine();
        e.set_honor_actions(S, true).unwrap();
        let mut comms = BTreeSet::new();
        comms.insert(Community::NoExportTo(AsId(3)));
        e.announce(S, prefix(), comms).unwrap();
        recompute(&mut e);
        assert!(exported_path(&mut e, 3).is_none());
        assert!(exported_path(&mut e, 1).is_some());
    }

    #[test]
    fn non_honoring_speaker_carries_action_community_through() {
        let mut e = engine(); // honor = false
        let mut comms = BTreeSet::new();
        comms.insert(Community::NoExportTo(AsId(3)));
        e.announce(S, prefix(), comms.clone()).unwrap();
        recompute(&mut e);
        export_prefix(&mut e, |_, _| {});
        let export = e
            .advertisement(S, AsId(3), prefix())
            .expect("opaque community must not suppress");
        // The community rides along for a downstream honoring AS.
        assert_eq!(*export.communities, comms);
    }

    #[test]
    fn neighbors_share_one_advertisement() {
        let mut e = engine();
        e.set_honor_actions(S, true).unwrap();
        e.announce(S, prefix(), BTreeSet::new()).unwrap();
        recompute(&mut e);
        let mut sent = Vec::new();
        export_prefix(&mut e, |_, update| sent.push(update.unwrap()));
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0], sent[1], "one handle");
    }

    #[test]
    fn export_strips_private_asns_when_configured() {
        let mut e = engine();
        e.set_strip_private(S, true).unwrap();
        receive_path(&mut e, FROM_1, &[64701]);
        recompute(&mut e);
        assert_eq!(exported_path(&mut e, 3), Some(vec![AsId(2)]));
    }

    #[test]
    fn poisoned_origination_carries_poison() {
        let mut e = engine();
        e.announce_poisoned(S, prefix(), BTreeSet::new(), &[AsId(3)])
            .unwrap();
        recompute(&mut e);
        assert_eq!(exported_path(&mut e, 1), Some(vec![AsId(2), AsId(3)]));
    }

    #[test]
    fn set_origin_communities_updates() {
        let mut e = engine();
        e.announce(S, prefix(), BTreeSet::new()).unwrap();
        let mut c = BTreeSet::new();
        c.insert(Community::NoExportTo(AsId(9)));
        assert!(e
            .set_announcement_communities(S, prefix(), c.clone())
            .unwrap());
        assert!(
            !e.set_announcement_communities(S, prefix(), c.clone())
                .unwrap(),
            "same set"
        );
        recompute(&mut e);
        assert_eq!(*best(&e).unwrap().attrs.communities, c);
        // Another origin's prefix, and one nobody announced.
        let elsewhere: IpCidr = "2001:db8:1::/48".parse().unwrap();
        e.announce(AsId(1), elsewhere, BTreeSet::new()).unwrap();
        for other in [elsewhere, "2001:db8:9::/48".parse().unwrap()] {
            assert!(!e
                .set_announcement_communities(S, other, BTreeSet::new())
                .unwrap());
        }
    }

    #[test]
    fn heap_bytes_count_a_shared_advertisement_once() {
        let mut a = engine();
        let mut b = engine();
        let shared = learned(&mut a, &[1, 7, 8]);
        receive(&mut a, FROM_1, shared);
        receive_path(&mut b, FROM_1, &[1, 7, 8]);
        let alone = a.rib_heap_bytes();
        assert_eq!(alone, b.rib_heap_bytes());
        // Installing it in the Loc-RIB adds no bytes at all.
        recompute(&mut a);
        assert_eq!(a.rib_heap_bytes(), alone);
        // Nor does a second holder: its slot is in the column already,
        // and the advertisement is priced once.
        receive_at(&mut a, S, AsId(3), shared);
        let both = a.rib_heap_bytes();
        assert!(both < 2 * alone, "second holder pays only for its slots");
        assert_eq!(both, alone);
    }
}
