//! A per-domain BGP border speaker: one per-prefix RIB table plus
//! import/export policy.
//!
//! This is the in-memory equivalent of the BIRD instance + Vultr border
//! router pair of the prototype (§4.1): it computes local-pref from
//! business relationships (plus the per-neighbor preference that models
//! "in order of preference by Vultr's routers"), runs the decision
//! process, applies valley-free export filters, honors action communities,
//! strips private ASNs on export, and supports AS-path poisoning at
//! origination.
//!
//! Storage: everything the speaker knows about a prefix — origination,
//! Adj-RIB-In, Loc-RIB entry, Adj-RIB-Out — sits in one `PrefixRib`
//! record, and the records sit in a vector indexed by the engine's dense
//! [`PrefixId`], so an update costs one indexed load: no prefix is
//! compared on the update path. The Adj-RIB slots are small vectors
//! ordered by neighbor id: the decision process scans them in that
//! order, which is what makes its first-wins tie-break deterministic.
//! A record a prefix has left keeps those vectors' capacity: the engine
//! reissues its id, so the next discovery probe fills a record already
//! the right size, and what is retained is the largest probe's, once.

use crate::community::Community;
use crate::policy::{communities_forbid, local_pref_base, may_export};
use crate::rib::{best_of, PathAttrs, Route, RouteSource};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use tango_topology::{AsId, Relationship};

/// A prefix's dense id in the engine's intern table, and its record's
/// index in every speaker's table. Only [`crate::BgpEngine`] mints one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PrefixId(pub(crate) u32);

impl PrefixId {
    pub(crate) fn slot(self) -> usize {
        self.0 as usize
    }
}

/// Static configuration of one speaker.
#[derive(Debug, Clone)]
pub struct SpeakerConfig {
    /// The speaker's AS (routing-domain) id.
    pub asid: AsId,
    /// Per-neighbor administrative preference, applied as a tie-break
    /// *after* AS-path length (see `rib::better`). Models the Vultr
    /// borders' NTT > Telia > GTT ordering without overriding
    /// shortest-path selection.
    pub neighbor_pref: BTreeMap<AsId, u32>,
    /// Strip private ASNs from the AS path when exporting — what Vultr
    /// does with the tenant's private-ASN session (§4.1 footnote).
    pub strip_private_asns: bool,
    /// Act on action communities (`NoExportTo`, `PrependTo`) when
    /// exporting. Set on the provider that defines the community
    /// namespace (the Vultr borders); everyone else carries them opaquely.
    pub honor_action_communities: bool,
}

impl SpeakerConfig {
    /// Default config for an AS.
    pub fn new(asid: AsId) -> Self {
        SpeakerConfig {
            asid,
            neighbor_pref: BTreeMap::new(),
            strip_private_asns: false,
            honor_action_communities: false,
        }
    }

    fn bonus(&self, neighbor: AsId) -> u32 {
        self.neighbor_pref.get(&neighbor).copied().unwrap_or(0)
    }
}

/// One eBGP session as the owning speaker sees it, resolved once when the
/// speaker is built so the update path never consults the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The neighbor's AS id.
    pub id: AsId,
    /// The owning speaker's relationship to the neighbor
    /// (`ProviderOf`: the neighbor is our customer).
    pub rel: Relationship,
    /// The neighbor's slot in the engine's dense speaker table.
    pub index: u32,
    /// The owning speaker's slot in the *neighbor's* session list — what
    /// the neighbor's [`BgpSpeaker::receive`] is handed as the sender.
    pub back: u32,
}

/// The session with `id`, if there is one (`neighbors` is id-ordered).
fn session(neighbors: &[Neighbor], id: AsId) -> Option<&Neighbor> {
    let k = neighbors.binary_search_by_key(&id, |n| n.id).ok()?;
    neighbors.get(k)
}

/// Insert into one of the RIB's ordered vectors, growing a full one by
/// an eighth (at least one slot) instead of doubling it. Most hold one to
/// three entries and millions of them are live at once, so slack is what
/// the RIB's footprint is made of; an eighth still keeps filling a long
/// vector (a hub's Adj-RIB-Out) linear.
fn insert_snug<T>(v: &mut Vec<T>, at: usize, item: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(1 + v.len() / 8);
    }
    v.insert(at, item);
}

/// Everything a speaker holds for one prefix.
#[derive(Debug, Clone, Default)]
struct PrefixRib {
    /// Attributes of the local origination, if any.
    originated: Option<Rc<PathAttrs>>,
    /// Routes as received, ordered by sending neighbor id.
    adj_in: Vec<Route>,
    /// The decision process's current winner.
    loc: Option<Route>,
    /// What each neighbor was last sent, ordered by neighbor id; the
    /// export diff against it yields the implicit withdrawals.
    adj_out: Vec<(AsId, Rc<PathAttrs>)>,
}

impl PrefixRib {
    fn is_empty(&self) -> bool {
        self.originated.is_none()
            && self.adj_in.is_empty()
            && self.loc.is_none()
            && self.adj_out.is_empty()
    }

    fn adj_in_slot(&self, neighbor: AsId) -> Result<usize, usize> {
        self.adj_in
            .binary_search_by_key(&Some(neighbor), |r| r.source.neighbor())
    }
}

/// Entry counts of the three RIBs, kept current on every edit so the
/// engine's per-convergence occupancy gauges cost O(speakers).
#[derive(Debug, Clone, Copy, Default)]
struct RibCounts {
    adj_in: usize,
    loc: usize,
    adj_out: usize,
}

/// How the current best route of one prefix leaves a speaker: the
/// per-neighbor policy verdict, and the advertisement built at most once
/// per extra-prepend count rather than once per neighbor.
struct Export<'a> {
    config: &'a SpeakerConfig,
    best: &'a Route,
    /// Our relationship to the neighbor `best` was learned from.
    learned_from: Option<Relationship>,
    /// Advertisements built so far, indexed by extra-prepend count.
    built: [Option<Rc<PathAttrs>>; 4],
}

impl<'a> Export<'a> {
    fn new(config: &'a SpeakerConfig, best: &'a Route, neighbors: &[Neighbor]) -> Self {
        let learned_from = best.source.neighbor().map(|from| {
            session(neighbors, from)
                .expect("receive only admits routes from sessions")
                .rel
        });
        Export {
            config,
            best,
            learned_from,
            built: Default::default(),
        }
    }

    /// The advertisement for `to` (path prepended, private ASNs stripped,
    /// prepend communities applied), or `None` if policy withholds it.
    fn to(&mut self, to: &Neighbor) -> Option<&Rc<PathAttrs>> {
        let (config, best) = (self.config, self.best);
        let attrs = &best.attrs;
        if !may_export(self.learned_from, to.rel)
            || communities_forbid(
                &attrs.communities,
                to.id,
                self.learned_from.is_some(),
                config.honor_action_communities,
            )
        {
            return None;
        }
        // Prepend self once, plus any community-driven extra prepends
        // (action communities only fire on the honoring provider).
        let extra = if config.honor_action_communities {
            attrs
                .communities
                .iter()
                .map(|c| c.prepend_count_for(to.id))
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        Some(self.built[usize::from(extra)].get_or_insert_with(|| {
            let own = usize::from(extra) + 1;
            let mut path = Vec::with_capacity(own + attrs.as_path.len());
            path.resize(own, config.asid);
            if config.strip_private_asns {
                path.extend(attrs.as_path.iter().filter(|a| !a.is_private()));
            } else {
                path.extend_from_slice(&attrs.as_path);
            }
            Rc::new(PathAttrs {
                as_path: path.into(),
                communities: Rc::clone(&attrs.communities),
                med: attrs.med,
            })
        }))
    }
}

/// A BGP speaker: its sessions and, per prefix, the origination,
/// Adj-RIB-In, Loc-RIB entry and Adj-RIB-Out.
#[derive(Debug, Clone)]
pub struct BgpSpeaker {
    config: SpeakerConfig,
    /// eBGP sessions, ordered by neighbor id.
    neighbors: Vec<Neighbor>,
    /// Per-prefix state, indexed by [`PrefixId`]; ids at or past the end
    /// and blank records (capacity or not) alike mean "nothing held". The
    /// engine recycles ids, so the table is as long as the most prefixes
    /// ever live at once, and it grows by exactly what it needs.
    table: Vec<PrefixRib>,
    counts: RibCounts,
}

impl BgpSpeaker {
    /// A speaker with the given configuration and sessions.
    pub fn new(config: SpeakerConfig, mut neighbors: Vec<Neighbor>) -> Self {
        neighbors.sort_unstable_by_key(|n| n.id);
        BgpSpeaker {
            config,
            neighbors,
            table: Vec::new(),
            counts: RibCounts::default(),
        }
    }

    /// This speaker's id.
    pub fn asid(&self) -> AsId {
        self.config.asid
    }

    /// Mutable access to the configuration (neighbor prefs etc.).
    pub fn config_mut(&mut self) -> &mut SpeakerConfig {
        &mut self.config
    }

    /// `prefix`'s record, the table extended with blank ones up to it.
    fn record(&mut self, prefix: PrefixId) -> &mut PrefixRib {
        let k = prefix.slot();
        if k >= self.table.len() {
            self.table.reserve_exact(k + 1 - self.table.len());
            self.table.resize_with(k + 1, PrefixRib::default);
        }
        &mut self.table[k]
    }

    /// Does this speaker hold any state for `prefix`? The engine recycles
    /// an id once no speaker does.
    pub fn holds(&self, prefix: PrefixId) -> bool {
        self.table.get(prefix.slot()).is_some_and(|r| !r.is_empty())
    }

    /// Records in the table, blank ones included.
    #[cfg(test)]
    pub(crate) fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Originate a prefix with communities attached.
    pub fn originate(&mut self, prefix: PrefixId, communities: BTreeSet<Community>) {
        self.originate_poisoned(prefix, communities, &[]);
    }

    /// Originate with AS-path poisoning: `poison` ASNs are planted in the
    /// initial path, so those ASes will reject the route via loop
    /// detection and the announcement routes around them (§6 mentions
    /// poisoning as an additional path-exposure knob).
    pub fn originate_poisoned(
        &mut self,
        prefix: PrefixId,
        communities: BTreeSet<Community>,
        poison: &[AsId],
    ) {
        self.record(prefix).originated = Some(Rc::new(PathAttrs {
            as_path: poison.into(),
            communities: Rc::new(communities),
            med: 0,
        }));
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, prefix: PrefixId) -> bool {
        let rib = self.table.get_mut(prefix.slot());
        rib.is_some_and(|rib| rib.originated.take().is_some())
    }

    /// Replace the communities on an existing origination (the §4.1
    /// discovery loop repeatedly edits the community set). Returns false
    /// if there is no such origination or it already carries exactly
    /// `communities`.
    pub fn set_origin_communities(
        &mut self,
        prefix: PrefixId,
        communities: BTreeSet<Community>,
    ) -> bool {
        let Some(origin) = self
            .table
            .get_mut(prefix.slot())
            .and_then(|rib| rib.originated.as_mut())
        else {
            return false;
        };
        if *origin.communities == communities {
            return false;
        }
        *origin = Rc::new(PathAttrs {
            as_path: origin.as_path.clone(),
            communities: Rc::new(communities),
            med: origin.med,
        });
        true
    }

    /// Blank what this speaker learned, chose and sent for `prefix` —
    /// Adj-RIB-In, Loc-RIB entry, Adj-RIB-Out — keeping its origination
    /// and the vectors' capacity. Called on every speaker, it turns the
    /// prefix back into a fresh announcement. Returns whether this
    /// speaker still originates it.
    pub(crate) fn clear_routes(&mut self, prefix: PrefixId) -> bool {
        let Some(rib) = self.table.get_mut(prefix.slot()) else {
            return false;
        };
        self.counts.adj_in -= rib.adj_in.len();
        self.counts.loc -= usize::from(rib.loc.take().is_some());
        self.counts.adj_out -= rib.adj_out.len();
        rib.adj_in.clear();
        rib.adj_out.clear();
        rib.originated.is_some()
    }

    /// Process an incoming update (`Some(attrs)`) or withdrawal (`None`)
    /// for `prefix` from the neighbor in slot `via` of the session list
    /// (the sender's [`Neighbor::back`]). Returns true if Adj-RIB-In
    /// changed.
    ///
    /// Import policy: loop detection (reject paths containing our own id)
    /// and local-pref computation happen here. The shared attributes are
    /// cloned (a reference-count bump) only when they are stored.
    pub fn receive(&mut self, via: u32, prefix: PrefixId, update: Option<&Rc<PathAttrs>>) -> bool {
        // A slot with no session behind it never sent us anything.
        let Some(&session) = self.neighbors.get(via as usize) else {
            return false;
        };
        let from = session.id;
        // A looped (or poisoned) path is treated as a withdrawal.
        let Some(attrs) = update.filter(|attrs| !attrs.as_path.contains(&self.config.asid)) else {
            let Some(rib) = self.table.get_mut(prefix.slot()) else {
                return false;
            };
            let Ok(slot) = rib.adj_in_slot(from) else {
                return false;
            };
            rib.adj_in.remove(slot);
            self.counts.adj_in -= 1;
            return true;
        };
        let local_pref = local_pref_base(session.rel);
        let tie_pref = self.config.bonus(from);
        let rib = self.record(prefix);
        let slot = rib.adj_in_slot(from);
        if let Ok(k) = slot {
            let held = &rib.adj_in[k];
            if held.attrs == *attrs && held.local_pref == local_pref && held.tie_pref == tie_pref {
                return false;
            }
        }
        let route = Route {
            attrs: Rc::clone(attrs),
            source: RouteSource::Neighbor(from),
            local_pref,
            tie_pref,
        };
        match slot {
            Ok(k) => rib.adj_in[k] = route,
            Err(k) => {
                insert_snug(&mut rib.adj_in, k, route);
                self.counts.adj_in += 1;
            }
        }
        true
    }

    /// Re-run the decision process over originated + learned routes.
    /// Returns true if the Loc-RIB changed.
    pub fn recompute(&mut self) -> bool {
        let mut changed = false;
        for k in 0..self.table.len() {
            changed |= self.recompute_prefix(PrefixId(k as u32));
        }
        changed
    }

    /// Every prefix this speaker currently holds state for: originated,
    /// learned, still sitting in the Loc-RIB (a just-withdrawn
    /// origination lives only there until the next decision run), or
    /// advertised and not yet withdrawn.
    pub fn known_prefixes(&self) -> impl Iterator<Item = PrefixId> + '_ {
        (0..self.table.len() as u32)
            .map(PrefixId)
            .filter(|&p| self.holds(p))
    }

    /// Re-run the decision process for one prefix only — the incremental
    /// engine's unit of work. Returns true if the Loc-RIB entry changed.
    ///
    /// Candidates are compared by reference, the origination first and
    /// then Adj-RIB-In in neighbor-id order; only a winner that differs
    /// from the installed route is cloned.
    pub fn recompute_prefix(&mut self, prefix: PrefixId) -> bool {
        let Some(rib) = self.table.get_mut(prefix.slot()) else {
            return false;
        };
        let local = rib.originated.clone().map(Route::local);
        let best = best_of(local.iter().chain(&rib.adj_in));
        if best == rib.loc.as_ref() {
            return false;
        }
        self.counts.loc -= usize::from(rib.loc.is_some());
        self.counts.loc += usize::from(best.is_some());
        rib.loc = best.cloned();
        true
    }

    /// The current best route for a prefix.
    pub fn best(&self, prefix: PrefixId) -> Option<&Route> {
        self.table.get(prefix.slot())?.loc.as_ref()
    }

    /// The whole Loc-RIB, in id order.
    pub fn loc_rib(&self) -> impl Iterator<Item = (PrefixId, &Route)> {
        (0u32..)
            .map(PrefixId)
            .zip(&self.table)
            .filter_map(|(p, rib)| Some((p, rib.loc.as_ref()?)))
    }

    /// The advertisement this speaker would send `neighbor` for one
    /// prefix (path prepended, private ASNs stripped, prepend communities
    /// applied), or `None` if policy withholds it or there is no such
    /// session.
    pub fn export_for(&self, neighbor: AsId, prefix: PrefixId) -> Option<Rc<PathAttrs>> {
        let best = self.best(prefix)?;
        let to = session(&self.neighbors, neighbor)?;
        Export::new(&self.config, best, &self.neighbors)
            .to(to)
            .cloned()
    }

    /// Bring Adj-RIB-Out for `prefix` up to date with the Loc-RIB and
    /// call `deliver(neighbor, update)` for every session whose
    /// advertisement changed (`None` = withdrawal) — the incremental
    /// engine's per-prefix unit of export work. Sessions are visited in
    /// neighbor-id order, in step with the Adj-RIB-Out slots.
    pub fn export_prefix(
        &mut self,
        prefix: PrefixId,
        mut deliver: impl FnMut(&Neighbor, Option<&Rc<PathAttrs>>),
    ) {
        let Some(PrefixRib { loc, adj_out, .. }) = self.table.get_mut(prefix.slot()) else {
            return; // nothing held, nothing ever sent
        };
        let mut export = loc
            .as_ref()
            .map(|best| Export::new(&self.config, best, &self.neighbors));
        let mut at = 0; // Adj-RIB-Out cursor: slots before it are < `to.id`
        for to in &self.neighbors {
            let new = export.as_mut().and_then(|e| e.to(to));
            let sent = adj_out.get(at).filter(|(id, _)| *id == to.id);
            match (new, sent) {
                (None, None) => {}
                (Some(attrs), Some((_, prev))) if attrs == prev => at += 1,
                (Some(attrs), Some(_)) => {
                    deliver(to, Some(attrs));
                    adj_out[at].1 = Rc::clone(attrs);
                    at += 1;
                }
                (Some(attrs), None) => {
                    deliver(to, Some(attrs));
                    insert_snug(adj_out, at, (to.id, Rc::clone(attrs)));
                    self.counts.adj_out += 1;
                    at += 1;
                }
                (None, Some(_)) => {
                    deliver(to, None);
                    adj_out.remove(at);
                    self.counts.adj_out -= 1;
                }
            }
        }
    }

    /// Number of Adj-RIB-In entries (diagnostics).
    pub fn rib_in_len(&self) -> usize {
        self.counts.adj_in
    }

    /// Number of Loc-RIB entries (diagnostics).
    pub fn loc_rib_len(&self) -> usize {
        self.counts.loc
    }

    /// Number of Adj-RIB-Out entries (diagnostics).
    pub fn rib_out_len(&self) -> usize {
        self.counts.adj_out
    }

    /// Re-run import policy (local-pref computation) over everything in
    /// Adj-RIB-In — needed after `neighbor_pref` changes, like a BGP
    /// soft-reconfiguration inbound refresh. Returns true on any change.
    pub fn refresh_import(&mut self) -> bool {
        let mut changed = false;
        for rib in &mut self.table {
            for route in &mut rib.adj_in {
                let from = route.source.neighbor().expect("Adj-RIB-In is learned");
                let session = session(&self.neighbors, from)
                    .expect("receive only admits routes from sessions");
                let base = local_pref_base(session.rel);
                let bonus = self.config.bonus(from);
                if route.local_pref != base || route.tie_pref != bonus {
                    route.local_pref = base;
                    route.tie_pref = bonus;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Heap bytes this speaker's RIB table holds, with each shared
    /// allocation added to `seen` and priced on first sight only (so a
    /// caller summing over speakers counts it once graph-wide).
    pub(crate) fn rib_heap_bytes(&self, seen: &mut BTreeSet<usize>) -> usize {
        use core::mem::size_of;
        // `Rc` keeps two reference counts in front of the value.
        const RC_HEADER: usize = 2 * size_of::<usize>();
        let mut total = self.table.capacity() * size_of::<PrefixRib>();
        for rib in &self.table {
            total += rib.adj_in.capacity() * size_of::<Route>()
                + rib.adj_out.capacity() * size_of::<(AsId, Rc<PathAttrs>)>();
            let routes = rib.adj_in.iter().chain(&rib.loc).map(|r| &r.attrs);
            let sent = rib.adj_out.iter().map(|(_, attrs)| attrs);
            for attrs in rib.originated.iter().chain(routes).chain(sent) {
                if seen.insert(Rc::as_ptr(attrs) as usize) {
                    total += RC_HEADER
                        + size_of::<PathAttrs>()
                        + attrs.as_path.len() * size_of::<AsId>();
                }
                if seen.insert(Rc::as_ptr(&attrs.communities) as usize) {
                    total += RC_HEADER
                        + size_of::<BTreeSet<Community>>()
                        + attrs.communities.len() * size_of::<Community>();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AS 2's sessions in: 1 (customer) -> 2 (provider), 2 peers 3.
    /// Sorted by id they sit in slots [`FROM_1`] and [`FROM_3`].
    fn speaker2(config: SpeakerConfig) -> BgpSpeaker {
        let session = |id: u32, rel| Neighbor {
            id: AsId(id),
            rel,
            index: id,
            back: 0,
        };
        BgpSpeaker::new(
            config,
            vec![
                session(3, Relationship::PeerOf),
                session(1, Relationship::ProviderOf),
            ],
        )
    }

    const FROM_1: u32 = 0;
    const FROM_3: u32 = 1;

    /// The id the engine would have minted for the one prefix under test;
    /// not 0, so the table has to grow past blank records to reach it.
    fn prefix() -> PrefixId {
        PrefixId(2)
    }

    fn learned(path: &[u32]) -> Rc<PathAttrs> {
        Rc::new(PathAttrs {
            as_path: path.iter().map(|&a| AsId(a)).collect(),
            communities: Rc::default(),
            med: 0,
        })
    }

    fn exported_path(s: &BgpSpeaker, to: u32) -> Option<Vec<AsId>> {
        s.export_for(AsId(to), prefix())
            .map(|attrs| attrs.as_path.to_vec())
    }

    #[test]
    fn receive_computes_local_pref_and_source() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        assert!(s.receive(FROM_1, prefix(), Some(&learned(&[1]))));
        s.recompute();
        let best = s.best(prefix()).unwrap();
        assert_eq!(best.local_pref, crate::policy::LP_CUSTOMER);
        assert_eq!(best.source, RouteSource::Neighbor(AsId(1)));
    }

    #[test]
    fn neighbor_pref_never_overrides_relationship_or_length() {
        let mut cfg = SpeakerConfig::new(AsId(2));
        cfg.neighbor_pref.insert(AsId(3), 99999); // arbitrarily large
        let mut s = speaker2(cfg);
        s.receive(FROM_1, prefix(), Some(&learned(&[1]))); // customer route
        s.receive(FROM_3, prefix(), Some(&learned(&[3]))); // boosted peer route
        s.recompute();
        // Customer local-pref still beats any tie_pref on the peer route.
        assert_eq!(
            s.best(prefix()).unwrap().source,
            RouteSource::Neighbor(AsId(1))
        );
    }

    #[test]
    fn loop_detection_rejects_own_asn() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        assert!(!s.receive(FROM_1, prefix(), Some(&learned(&[1, 2, 7]))));
        s.recompute();
        assert!(s.best(prefix()).is_none());
    }

    #[test]
    fn update_from_a_stranger_is_dropped() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        assert!(!s.receive(2, prefix(), Some(&learned(&[9]))));
        assert_eq!(s.rib_in_len(), 0);
        assert!(!s.holds(prefix()));
    }

    #[test]
    fn receive_same_route_reports_unchanged() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        assert!(s.receive(FROM_1, prefix(), Some(&learned(&[1]))));
        // Equal content in a different allocation is still "unchanged".
        assert!(!s.receive(FROM_1, prefix(), Some(&learned(&[1]))));
        assert!(s.receive(FROM_1, prefix(), None));
        assert!(!s.receive(FROM_1, prefix(), None));
    }

    #[test]
    fn withdraw_falls_back_to_next_best() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        s.receive(FROM_1, prefix(), Some(&learned(&[1]))); // customer
        s.receive(FROM_3, prefix(), Some(&learned(&[3]))); // peer
        s.recompute();
        assert_eq!(
            s.best(prefix()).unwrap().source,
            RouteSource::Neighbor(AsId(1))
        );
        s.receive(FROM_1, prefix(), None);
        assert!(s.recompute());
        assert_eq!(
            s.best(prefix()).unwrap().source,
            RouteSource::Neighbor(AsId(3))
        );
    }

    #[test]
    fn counts_track_edits_and_empty_prefixes_are_dropped() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        s.receive(FROM_1, prefix(), Some(&learned(&[1])));
        s.recompute();
        let mut sent = Vec::new();
        s.export_prefix(prefix(), |to, update| sent.push((to.id, update.is_some())));
        // No split horizon: the customer's own route goes back to it too
        // (its loop detection drops it).
        assert_eq!(sent, vec![(AsId(1), true), (AsId(3), true)]);
        assert_eq!(
            (s.rib_in_len(), s.loc_rib_len(), s.rib_out_len()),
            (1, 1, 2)
        );
        // Nothing changed: a second export pass sends nothing.
        s.export_prefix(prefix(), |_, _| panic!("no diff expected"));

        s.receive(FROM_1, prefix(), None);
        s.recompute();
        sent.clear();
        s.export_prefix(prefix(), |to, update| sent.push((to.id, update.is_some())));
        assert_eq!(
            sent,
            vec![(AsId(1), false), (AsId(3), false)],
            "implicit withdrawals"
        );
        assert_eq!(
            (s.rib_in_len(), s.loc_rib_len(), s.rib_out_len()),
            (0, 0, 0)
        );
        assert_eq!(s.known_prefixes().count(), 0);
        assert!(!s.holds(prefix()));
    }

    #[test]
    fn export_prepends_self() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        s.receive(FROM_1, prefix(), Some(&learned(&[1])));
        s.recompute();
        assert_eq!(exported_path(&s, 3), Some(vec![AsId(2), AsId(1)]));
    }

    #[test]
    fn export_honors_valley_free() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        // Peer-learned route must not be exported back to a peer.
        s.receive(FROM_3, prefix(), Some(&learned(&[3])));
        s.recompute();
        assert!(exported_path(&s, 3).is_none());
        // ...but is exported to the customer.
        assert!(exported_path(&s, 1).is_some());
    }

    #[test]
    fn export_honors_no_export_to_community() {
        let mut cfg = SpeakerConfig::new(AsId(2));
        cfg.honor_action_communities = true;
        let mut s = speaker2(cfg);
        let mut comms = BTreeSet::new();
        comms.insert(Community::NoExportTo(AsId(3)));
        s.originate(prefix(), comms);
        s.recompute();
        assert!(exported_path(&s, 3).is_none());
        assert!(exported_path(&s, 1).is_some());
    }

    #[test]
    fn non_honoring_speaker_carries_action_community_through() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2))); // honor = false
        let mut comms = BTreeSet::new();
        comms.insert(Community::NoExportTo(AsId(3)));
        s.originate(prefix(), comms.clone());
        s.recompute();
        let export = s
            .export_for(AsId(3), prefix())
            .expect("opaque community must not suppress");
        // The community rides along for a downstream honoring AS.
        assert_eq!(*export.communities, comms);
    }

    #[test]
    fn export_applies_prepend_community() {
        let mut cfg = SpeakerConfig::new(AsId(2));
        cfg.honor_action_communities = true;
        let mut s = speaker2(cfg);
        let mut comms = BTreeSet::new();
        comms.insert(Community::PrependTo(AsId(3), 2));
        s.originate(prefix(), comms);
        s.recompute();
        assert_eq!(exported_path(&s, 3), Some(vec![AsId(2); 3]));
        assert_eq!(exported_path(&s, 1), Some(vec![AsId(2)]));
    }

    #[test]
    fn neighbors_with_one_prepend_count_share_one_advertisement() {
        let mut cfg = SpeakerConfig::new(AsId(2));
        cfg.honor_action_communities = true;
        let mut s = speaker2(cfg);
        s.originate(prefix(), BTreeSet::new());
        s.recompute();
        let mut sent = Vec::new();
        s.export_prefix(prefix(), |_, update| sent.push(Rc::clone(update.unwrap())));
        assert_eq!(sent.len(), 2);
        assert!(Rc::ptr_eq(&sent[0], &sent[1]));
    }

    #[test]
    fn export_strips_private_asns_when_configured() {
        let mut cfg = SpeakerConfig::new(AsId(2));
        cfg.strip_private_asns = true;
        let mut s = speaker2(cfg);
        s.receive(FROM_1, prefix(), Some(&learned(&[64701])));
        s.recompute();
        assert_eq!(exported_path(&s, 3), Some(vec![AsId(2)]));
    }

    #[test]
    fn poisoned_origination_carries_poison() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        s.originate_poisoned(prefix(), BTreeSet::new(), &[AsId(3)]);
        s.recompute();
        assert_eq!(exported_path(&s, 1), Some(vec![AsId(2), AsId(3)]));
    }

    #[test]
    fn set_origin_communities_updates() {
        let mut s = speaker2(SpeakerConfig::new(AsId(2)));
        s.originate(prefix(), BTreeSet::new());
        let mut c = BTreeSet::new();
        c.insert(Community::NoExportTo(AsId(9)));
        assert!(s.set_origin_communities(prefix(), c.clone()));
        assert!(!s.set_origin_communities(prefix(), c.clone()), "same set");
        s.recompute();
        assert_eq!(*s.best(prefix()).unwrap().attrs.communities, c);
        for other in [PrefixId(0), PrefixId(9)] {
            assert!(!s.set_origin_communities(other, BTreeSet::new()));
        }
    }

    #[test]
    fn heap_bytes_count_a_shared_advertisement_once() {
        let mut a = speaker2(SpeakerConfig::new(AsId(2)));
        let mut b = speaker2(SpeakerConfig::new(AsId(2)));
        let shared = learned(&[1, 7, 8]);
        a.receive(FROM_1, prefix(), Some(&shared));
        b.receive(FROM_1, prefix(), Some(&shared));
        let alone = a.rib_heap_bytes(&mut BTreeSet::new());
        let mut seen = BTreeSet::new();
        let both = a.rib_heap_bytes(&mut seen) + b.rib_heap_bytes(&mut seen);
        assert_eq!(alone, b.rib_heap_bytes(&mut BTreeSet::new()));
        assert!(both < 2 * alone, "second holder pays only for its slots");
        // Installing it in the Loc-RIB adds no bytes at all.
        a.recompute();
        assert_eq!(a.rib_heap_bytes(&mut BTreeSet::new()), alone);
    }
}
