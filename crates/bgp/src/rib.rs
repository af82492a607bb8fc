//! Routes, the BGP decision process, and the per-prefix RIB column.
//!
//! What travels in an UPDATE — AS path, communities, MED — is immutable
//! once built and lives in one shared [`PathAttrs`] allocation: the
//! session slot it was sent over and every Loc-RIB that chose it all hold
//! the same `Rc` — not `Arc`: an engine and all it shares stay on one
//! thread, so a clone or drop on the update path is a plain increment.
//! A [`Route`] is that handle plus the three fields the *receiver*
//! computes on import.
//!
//! Storage is prefix-major: everything every speaker knows about one
//! prefix sits in one `PrefixColumn` — one advertisement slot per
//! directed session, laid out receiver-major, which is at once the
//! sender's Adj-RIB-Out entry and the receiver's Adj-RIB-In entry (an
//! "imported" bit says whether the receiver's loop check let it in);
//! each speaker's winner; and the few local originations.

use crate::community::Community;
use crate::engine::RibStats;
use core::cmp::Reverse;
use std::collections::BTreeSet;
use std::rc::Rc;
use tango_topology::AsId;

/// Where a route entered the local speaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSource {
    /// Originated locally (our own prefix).
    Local,
    /// Learned from the given eBGP neighbor.
    Neighbor(AsId),
}

impl RouteSource {
    /// The neighbor id, if learned.
    pub fn neighbor(&self) -> Option<AsId> {
        match self {
            RouteSource::Local => None,
            RouteSource::Neighbor(n) => Some(*n),
        }
    }
}

/// The attributes one advertisement carries, shared by every RIB entry
/// that holds it.
#[derive(Debug, PartialEq, Eq)]
pub struct PathAttrs {
    /// AS path; element 0 is the *nearest* AS (the neighbor that sent it),
    /// the last element is the origin. Empty for locally originated routes.
    pub as_path: Box<[AsId]>,
    /// Attached communities. Speakers carry the set through unchanged,
    /// so it is shared along the whole propagation tree.
    pub communities: Rc<BTreeSet<Community>>,
    /// Multi-exit discriminator (carried; low = preferred).
    pub med: u32,
}

/// A candidate route for one prefix, as held in a RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The advertisement as received (or originated).
    pub attrs: Rc<PathAttrs>,
    /// How the route entered this speaker.
    pub source: RouteSource,
    /// Computed local preference (relationship-based).
    pub local_pref: u32,
    /// Per-neighbor administrative preference (higher = preferred),
    /// compared *after* AS-path length — this models Vultr's router
    /// preference among otherwise-equal provider routes ("in order of
    /// preference by Vultr's routers: NTT, Telia, GTT", §4.1) without
    /// letting it override shortest-path selection.
    pub tie_pref: u32,
}

impl Route {
    /// A locally originated route.
    pub fn local(attrs: Rc<PathAttrs>) -> Self {
        Route {
            attrs,
            source: RouteSource::Local,
            local_pref: u32::MAX, // local routes always win
            tie_pref: 0,
        }
    }

    /// The AS path, nearest AS first.
    pub fn as_path(&self) -> &[AsId] {
        &self.attrs.as_path
    }

    /// Does the AS path contain `asid` (loop detection / poisoning)?
    pub fn path_contains(&self, asid: AsId) -> bool {
        self.attrs.as_path.contains(&asid)
    }

    /// The origin AS of the path (None for local routes).
    pub fn origin(&self) -> Option<AsId> {
        self.attrs.as_path.last().copied()
    }

    /// AS-path length counting *unique* prepends as-is (standard length).
    pub fn path_len(&self) -> usize {
        self.attrs.as_path.len()
    }

    fn rank(&self) -> Rank {
        let neighbor = self.source.neighbor().map_or(0, |n| n.0);
        rank(&self.attrs, neighbor, self.local_pref, self.tie_pref)
    }
}

/// The decision process as one key: a candidate is better than another
/// iff its rank is greater.
pub(crate) type Rank = (u32, Reverse<usize>, Reverse<u32>, u32, Reverse<u32>);

/// The rank of `attrs` learned from `neighbor` (0 for a local route)
/// with the receiver's `local_pref` and `tie_pref`.
pub(crate) fn rank(attrs: &PathAttrs, neighbor: u32, local_pref: u32, tie_pref: u32) -> Rank {
    (
        local_pref,
        Reverse(attrs.as_path.len()),
        Reverse(attrs.med),
        tie_pref,
        Reverse(neighbor),
    )
}

/// The decision process: pick the best route among candidates.
///
/// Order (RFC 4271 §9.1 subset, documented in the crate root):
/// 1. highest `local_pref`;
/// 2. shortest AS path;
/// 3. lowest MED (compared across all candidates — "always-compare-med");
/// 4. highest per-neighbor `tie_pref` (Vultr-style administrative order);
/// 5. lowest neighbor AS id (deterministic tie-break, standing in for
///    lowest-router-id).
///
/// Decides over references — nothing is cloned. Among candidates no
/// other beats, the earliest in iteration order wins; `None` if there
/// are no candidates.
pub fn best_of<'a>(candidates: impl IntoIterator<Item = &'a Route>) -> Option<&'a Route> {
    candidates
        .into_iter()
        .reduce(|best, r| if better(r, best) { r } else { best })
}

/// Is `a` strictly better than `b` under the decision process?
pub fn better(a: &Route, b: &Route) -> bool {
    a.rank() > b.rank()
}

/// A [`Winner`]'s session for the local origination.
pub(crate) const LOCAL: u32 = u32::MAX;

/// One speaker's Loc-RIB entry: the session the route was learned over
/// (its index in the speaker's session list, or [`LOCAL`]) and the
/// advertisement, held here so a later write to that session's slot
/// cannot change what was decided.
#[derive(Debug, Clone)]
pub(crate) struct Winner {
    pub(crate) session: u32,
    pub(crate) attrs: Rc<PathAttrs>,
}

/// Every speaker's routing state for one prefix.
#[derive(Debug, Clone)]
pub(crate) struct PrefixColumn {
    /// What was last sent over each directed session, receiver-major: a
    /// receiver's sessions are contiguous and in its neighbor-id order.
    slots: Box<[Option<Rc<PathAttrs>>]>,
    /// One bit per slot: its receiver imported the advertisement (its
    /// own AS is not on the path), so it is an Adj-RIB-In entry.
    imported: Box<[u64]>,
    /// Each speaker's Loc-RIB entry, by speaker position.
    winners: Box<[Option<Winner>]>,
    /// `(speaker position, attributes)` of each local origination, at
    /// most one per speaker.
    pub(crate) origins: Vec<(u32, Rc<PathAttrs>)>,
    /// Entry counts over every speaker, kept current on every edit.
    pub(crate) stats: RibStats,
}

// `rib_heap_bytes` prices every column at this size, so a field added
// here costs bytes per route at every tier: engine-wide bookkeeping about
// a column (such as its twin-fill bill) lives beside the columns instead.
const _: () = assert!(core::mem::size_of::<PrefixColumn>() == 96);

impl PrefixColumn {
    /// A blank column for `sessions` directed sessions among `speakers`.
    pub(crate) fn new(sessions: usize, speakers: usize) -> Self {
        PrefixColumn {
            slots: vec![None; sessions].into(),
            imported: vec![0; sessions.div_ceil(64)].into(),
            winners: vec![None; speakers].into(),
            origins: Vec::new(),
            stats: RibStats::default(),
        }
    }

    /// What was last sent over session slot `k`.
    pub(crate) fn sent(&self, k: usize) -> Option<&Rc<PathAttrs>> {
        self.slots[k].as_ref()
    }

    /// Slot `k`'s advertisement, if its receiver imported it.
    pub(crate) fn imported(&self, k: usize) -> Option<&Rc<PathAttrs>> {
        let bit = self.imported[k / 64] >> (k % 64) & 1;
        self.slots[k].as_ref().filter(|_| bit == 1)
    }

    /// Send `update` (`None`: a withdrawal) over session slot `k` into
    /// `receiver`. `None` if the slot already holds it (compared by
    /// value), else whether the receiver's Adj-RIB-In changed: a looped
    /// path is stored as sent but not imported, so it withdraws what the
    /// receiver held.
    pub(crate) fn send(
        &mut self,
        k: usize,
        receiver: AsId,
        update: Option<&Rc<PathAttrs>>,
    ) -> Option<bool> {
        if self.slots[k].as_ref() == update {
            return None;
        }
        let was = self.imported(k).is_some();
        let now = update.is_some_and(|attrs| !attrs.as_path.contains(&receiver));
        let sent = usize::from(update.is_some());
        self.stats.adj_rib_out =
            self.stats.adj_rib_out + sent - usize::from(self.slots[k].is_some());
        self.stats.adj_rib_in = self.stats.adj_rib_in + usize::from(now) - usize::from(was);
        self.slots[k] = update.cloned();
        let word = &mut self.imported[k / 64];
        *word = *word & !(1 << (k % 64)) | u64::from(now) << (k % 64);
        Some(was || now)
    }

    /// The speaker at `at`'s origination.
    pub(crate) fn origin(&self, at: u32) -> Option<&Rc<PathAttrs>> {
        let (_, attrs) = self.origins.iter().find(|(o, _)| *o == at)?;
        Some(attrs)
    }

    /// The speaker at `at`'s Loc-RIB entry.
    pub(crate) fn winner(&self, at: u32) -> Option<&Winner> {
        self.winners[at as usize].as_ref()
    }

    /// Install `at`'s Loc-RIB entry.
    pub(crate) fn set_winner(&mut self, at: u32, winner: Option<Winner>) {
        let held = &mut self.winners[at as usize];
        self.stats.loc_rib =
            self.stats.loc_rib + usize::from(winner.is_some()) - usize::from(held.is_some());
        *held = winner;
    }

    /// Blank every slot and winner, keeping the originations: the prefix
    /// becomes a fresh announcement of them.
    pub(crate) fn clear_routes(&mut self) {
        self.slots.fill(None);
        self.imported.fill(0);
        self.winners.fill(None);
        self.stats = RibStats::default();
    }

    /// Has no speaker learned, chosen or sent a route for the prefix?
    /// The originations may be set: a converge then floods them from
    /// blank.
    pub(crate) fn is_blank(&self) -> bool {
        self.stats == RibStats::default()
    }

    /// Do the two columns originate the same set of announcements: the
    /// same origin speakers, with value-equal attributes?
    pub(crate) fn same_originations(&self, other: &PrefixColumn) -> bool {
        self.origins.len() == other.origins.len()
            && (self.origins.iter()).all(|(at, attrs)| other.origin(*at) == Some(attrs))
    }

    /// Take `twin`'s routes — every slot, imported bit and winner, and
    /// the counts — into this column's own buffers, keeping its
    /// originations. Nothing is allocated: the advertisements are shared.
    pub(crate) fn copy_routes(&mut self, twin: &PrefixColumn) {
        self.slots.clone_from_slice(&twin.slots);
        self.imported.copy_from_slice(&twin.imported);
        self.winners.clone_from_slice(&twin.winners);
        self.stats = twin.stats;
    }

    /// Does no speaker hold anything for the prefix? Its id can then be
    /// recycled, and the column with it.
    pub(crate) fn is_empty(&self) -> bool {
        self.origins.is_empty() && self.stats.adj_rib_out == 0 && self.stats.loc_rib == 0
    }

    /// Heap bytes the column holds, with each shared allocation added to
    /// `seen` and priced on first sight only (so a caller summing over
    /// columns counts it once engine-wide).
    pub(crate) fn heap_bytes(&self, seen: &mut BTreeSet<usize>) -> usize {
        use core::mem::{size_of, size_of_val};
        // `Rc` keeps two reference counts in front of the value.
        const RC_HEADER: usize = 2 * size_of::<usize>();
        let mut total = size_of_val(&*self.slots)
            + size_of_val(&*self.imported)
            + size_of_val(&*self.winners)
            + self.origins.capacity() * size_of::<(u32, Rc<PathAttrs>)>();
        let origins = self.origins.iter().map(|(_, attrs)| attrs);
        let winners = self.winners.iter().flatten().map(|w| &w.attrs);
        for attrs in origins.chain(self.slots.iter().flatten()).chain(winners) {
            if seen.insert(Rc::as_ptr(attrs) as usize) {
                total += RC_HEADER + size_of::<PathAttrs>() + size_of_val(&*attrs.as_path);
            }
            if seen.insert(Rc::as_ptr(&attrs.communities) as usize) {
                total += RC_HEADER
                    + size_of::<BTreeSet<Community>>()
                    + attrs.communities.len() * size_of::<Community>();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(path: &[u32], med: u32) -> Rc<PathAttrs> {
        Rc::new(PathAttrs {
            as_path: path.iter().map(|&a| AsId(a)).collect(),
            communities: Rc::default(),
            med,
        })
    }

    fn route(lp: u32, path: &[u32], neighbor: u32) -> Route {
        Route {
            attrs: attrs(path, 0),
            source: RouteSource::Neighbor(AsId(neighbor)),
            local_pref: lp,
            tie_pref: 0,
        }
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let short_low = route(100, &[1], 1);
        let long_high = route(300, &[2, 3, 4], 2);
        assert_eq!(best_of([&short_low, &long_high]), Some(&long_high));
        assert!(better(&long_high, &short_low));
    }

    #[test]
    fn path_length_breaks_equal_pref() {
        let long = route(100, &[1, 2, 3], 1);
        let short = route(100, &[4, 5], 4);
        assert_eq!(best_of([&long, &short]), Some(&short));
    }

    #[test]
    fn med_breaks_equal_length() {
        let mut a = route(100, &[1], 1);
        a.attrs = attrs(&[1], 20);
        let mut b = route(100, &[2], 2);
        b.attrs = attrs(&[2], 10);
        assert_eq!(best_of([&a, &b]), Some(&b));
    }

    #[test]
    fn neighbor_id_is_final_tiebreak() {
        let a = route(100, &[9], 9);
        let b = route(100, &[3], 3);
        assert_eq!(best_of([&a, &b]), Some(&b));
    }

    #[test]
    fn local_route_always_wins() {
        let local = Route::local(attrs(&[], 0));
        let learned = route(300, &[1], 1);
        assert_eq!(best_of([&learned, &local]), Some(&local));
        assert_eq!(local.path_len(), 0);
        assert_eq!(local.origin(), None);
    }

    #[test]
    fn empty_candidates() {
        assert_eq!(best_of([]), None);
    }

    #[test]
    fn prepending_lengthens_and_demotes() {
        let plain = route(100, &[7, 8], 7);
        let prepended = route(100, &[5, 5, 5, 8], 5);
        assert_eq!(best_of([&prepended, &plain]), Some(&plain));
    }

    #[test]
    fn path_contains_and_origin() {
        let r = route(100, &[3, 2, 1], 3);
        assert!(r.path_contains(AsId(2)));
        assert!(!r.path_contains(AsId(9)));
        assert_eq!(r.origin(), Some(AsId(1)));
    }

    #[test]
    fn decision_is_deterministic_under_permutation() {
        let a = route(100, &[1, 2], 1);
        let b = route(100, &[3, 4], 3);
        let c = route(200, &[5, 6, 7], 5);
        assert_eq!(best_of([&a, &b, &c]), best_of([&c, &a, &b]));
    }

    #[test]
    fn shared_attrs_compare_by_value() {
        let a = route(100, &[1, 2], 1);
        let mut b = a.clone();
        assert_eq!(a, b, "same allocation");
        b.attrs = attrs(&[1, 2], 0);
        assert_eq!(a, b, "equal content in a second allocation");
    }
}
