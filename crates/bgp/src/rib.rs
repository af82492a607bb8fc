//! Routes, the BGP decision process, and the per-prefix RIB column.
//!
//! Storage is prefix-major: everything every speaker knows about one
//! prefix sits in one `PrefixColumn` — one advertisement slot per
//! directed session, laid out receiver-major, which is at once the
//! sender's Adj-RIB-Out entry and the receiver's Adj-RIB-In entry (an
//! "imported" bit says whether the receiver's loop check let it in);
//! each speaker's winner; the few local originations; and the column's
//! arena of advertisements (`Ads`). Slots, winners and originations hold
//! `u32` handles into the arena, compared by value, never by number.
//! The arena is shared copy-on-write (`Rc`, not `Arc`: an engine stays
//! on one thread) by a column filled from a twin; a blank keeps only
//! the originations' records, and a compaction every held one.
//! [`PathAttrs`] is a record as an owned value, and a [`Route`] that
//! plus the neighbor it was learned from and the two preferences the
//! *receiver* gives it: both are built only when a caller asks.

use crate::community::Community;
use crate::engine::RibStats;
use core::cmp::Reverse;
use std::collections::BTreeSet;
use std::rc::Rc;
use tango_topology::AsId;

/// The attributes one advertisement carries, as an owned value: a RIB
/// entry holds a handle to its record instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAttrs {
    /// AS path; element 0 is the *nearest* AS (the neighbor that sent it),
    /// the last element is the origin. Empty for locally originated routes.
    pub as_path: Box<[AsId]>,
    /// Attached communities. Speakers carry the set through unchanged,
    /// so it is shared along the whole propagation tree.
    pub communities: Rc<BTreeSet<Community>>,
}

/// A speaker's best route for one prefix, built when a caller asks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The neighbor the route was learned from, or the speaker itself
    /// for its own origination.
    pub next_hop: AsId,
    /// The advertisement as received (or originated).
    pub attrs: PathAttrs,
    /// Local preference (relationship-based; `u32::MAX` for the
    /// speaker's own origination, which always wins).
    pub local_pref: u32,
    /// Per-neighbor administrative preference (higher = preferred),
    /// compared *after* AS-path length — this models Vultr's router
    /// preference among otherwise-equal provider routes ("in order of
    /// preference by Vultr's routers: NTT, Telia, GTT", §4.1) without
    /// letting it override shortest-path selection.
    pub tie_pref: u32,
}

/// The decision process as one key: a candidate is better than another
/// iff its rank is greater.
pub(crate) type Rank = (u32, Reverse<u32>, u32, Reverse<u32>);

/// A handle naming no advertisement: an empty slot, or no winner.
pub(crate) const NONE: u32 = u32::MAX;

/// A [`Winner`]'s session for the local origination.
pub(crate) const LOCAL: u32 = u32::MAX;

/// Garbage records an arena may carry beyond twice its column's winners
/// and originations before the end of a convergence compacts it.
const SLACK: usize = 16;

/// `Rc` keeps two reference counts in front of the value.
const RC_HEADER: usize = 2 * core::mem::size_of::<usize>();

/// A handle or path offset for position `n` of an arena.
fn handle(n: usize) -> u32 {
    u32::try_from(n).expect("an arena holds fewer than 2^32 records and path entries")
}

/// One advertisement: its AS path `paths[start..start + len]` and the
/// index of its communities.
#[derive(Debug, Clone, Copy)]
struct Ad {
    start: u32,
    len: u32,
    communities: u32,
}

/// A column's advertisements, named by handle (an index into `records`).
/// Records are only appended, their paths in record order, so dropping
/// garbage only moves what stays toward the front.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ads {
    records: Vec<Ad>,
    paths: Vec<AsId>,
    /// The originations' community sets (an export copies an index).
    communities: Vec<Rc<BTreeSet<Community>>>,
}

impl Ads {
    /// `h`'s AS path, nearest AS first.
    pub(crate) fn path(&self, h: u32) -> &[AsId] {
        let Ad { start, len, .. } = self.records[h as usize];
        &self.paths[start as usize..(start + len) as usize]
    }

    /// `h`'s communities.
    pub(crate) fn communities(&self, h: u32) -> &Rc<BTreeSet<Community>> {
        &self.communities[self.records[h as usize].communities as usize]
    }

    /// `h`'s rank as learned from `neighbor` (0 for a local route), with
    /// the receiver's `local_pref` and `tie_pref`. The order (an RFC 4271
    /// §9.1 subset):
    /// 1. highest `local_pref`;
    /// 2. shortest AS path;
    /// 3. highest per-neighbor `tie_pref` (Vultr-style administrative
    ///    order);
    /// 4. lowest neighbor AS id (deterministic tie-break, standing in for
    ///    lowest-router-id).
    pub(crate) fn rank(&self, h: u32, neighbor: u32, local_pref: u32, tie_pref: u32) -> Rank {
        let path_len = self.records[h as usize].len;
        (local_pref, Reverse(path_len), tie_pref, Reverse(neighbor))
    }

    /// `h` as an owned value.
    pub(crate) fn attrs(&self, h: u32) -> PathAttrs {
        PathAttrs {
            as_path: self.path(h).into(),
            communities: Rc::clone(self.communities(h)),
        }
    }

    /// Do `a` and `b`, either possibly [`NONE`], name equal advertisements?
    pub(crate) fn same(&self, a: u32, b: u32) -> bool {
        let equal = || self.path(a) == self.path(b) && self.communities(a) == self.communities(b);
        a == b || (a != NONE && b != NONE && equal())
    }

    /// Append the record whose path is `paths[begin..]`.
    fn push(&mut self, begin: usize, communities: u32) -> u32 {
        let (h, start) = (handle(self.records.len()), handle(begin));
        let len = handle(self.paths.len()) - start;
        self.records.push(Ad {
            start,
            len,
            communities,
        });
        h
    }

    /// Append an origination with `path` (the poison, if any) and
    /// `communities`.
    fn originate(&mut self, path: &[AsId], communities: BTreeSet<Community>) -> u32 {
        let (c, begin) = (handle(self.communities.len()), self.paths.len());
        self.communities.push(Rc::new(communities));
        self.paths.extend_from_slice(path);
        self.push(begin, c)
    }

    /// Append `from` as `asid` exports it: `asid` in front of its path,
    /// private ASNs dropped from it if `strip`.
    fn export(&mut self, from: u32, asid: AsId, strip: bool) -> u32 {
        let (ad, begin) = (self.records[from as usize], self.paths.len());
        self.paths.push(asid);
        for k in ad.start as usize..(ad.start + ad.len) as usize {
            let a = self.paths[k];
            if !(strip && a.is_private()) {
                self.paths.push(a);
            }
        }
        self.push(begin, ad.communities)
    }

    /// Keep, in place, the records and then the community sets `map`
    /// numbers in order (the rest map to [`NONE`]).
    fn retain(&mut self, map: &[u32]) {
        let (records, mut end) = (self.records.len(), 0);
        for (h, &to) in map[..records].iter().enumerate() {
            let ad = self.records[h];
            if to != NONE {
                let (start, len) = (ad.start as usize, ad.len as usize);
                self.paths.copy_within(start..start + len, end);
                let communities = map[records + ad.communities as usize];
                self.records[to as usize] = Ad {
                    start: handle(end),
                    communities,
                    ..ad
                };
                end += len;
            }
        }
        self.records
            .truncate(map[..records].iter().filter(|&&to| to != NONE).count());
        self.paths.truncate(end);
        let mut kept = map[records..].iter().map(|&to| to != NONE);
        self.communities.retain(|_| kept.next() == Some(true));
    }
}

/// One speaker's Loc-RIB entry: the session the route was learned over
/// (its index in the speaker's session list, or [`LOCAL`]) and its
/// advertisement ([`NONE`]: no entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Winner {
    pub(crate) session: u32,
    pub(crate) ad: u32,
}

const NO_WINNER: Winner = Winner {
    session: LOCAL,
    ad: NONE,
};

/// Every speaker's routing state for one prefix.
#[derive(Debug)]
pub(crate) struct PrefixColumn {
    /// The handle last sent over each directed session, receiver-major:
    /// a receiver's sessions are contiguous and in its neighbor-id order.
    slots: Box<[u32]>,
    /// One bit per slot: its receiver imported the advertisement (its
    /// own AS is not on the path), so it is an Adj-RIB-In entry.
    imported: Box<[u64]>,
    /// Each speaker's Loc-RIB entry, by speaker position.
    winners: Box<[Winner]>,
    /// `(speaker position, handle)` of each local origination, at most
    /// one per speaker.
    pub(crate) origins: Vec<(u32, u32)>,
    /// Every advertisement the handles above name.
    ads: Rc<Ads>,
    /// Entry counts over every speaker, kept current on every edit.
    pub(crate) stats: RibStats,
}

// `rib_heap_bytes` prices every column at this size, so a field added
// here costs bytes per route at every tier: engine-wide bookkeeping about
// a column (such as its twin-fill bill) lives beside the columns instead.
const _: () = assert!(core::mem::size_of::<PrefixColumn>() == 104);
// Every advertisement is one record, so its size is bytes per route too.
const _: () = assert!(core::mem::size_of::<Ad>() == 12);
const _: () = assert!(core::mem::size_of::<Community>() == 4);

impl PrefixColumn {
    /// A blank column for `sessions` directed sessions among `speakers`.
    pub(crate) fn new(sessions: usize, speakers: usize) -> Self {
        PrefixColumn {
            slots: vec![NONE; sessions].into(),
            imported: vec![0; sessions.div_ceil(64)].into(),
            winners: vec![NO_WINNER; speakers].into(),
            origins: Vec::new(),
            ads: Rc::default(),
            stats: RibStats::default(),
        }
    }

    /// The advertisements this column's handles name.
    pub(crate) fn ads(&self) -> &Ads {
        &self.ads
    }

    /// What was last sent over session slot `k`.
    pub(crate) fn sent(&self, k: usize) -> Option<u32> {
        Some(self.slots[k]).filter(|&h| h != NONE)
    }

    /// Slot `k`'s advertisement, if its receiver imported it.
    pub(crate) fn imported(&self, k: usize) -> Option<u32> {
        let bit = self.imported[k / 64] >> (k % 64) & 1;
        self.sent(k).filter(|_| bit == 1)
    }

    /// Send `update` ([`NONE`]: a withdrawal) over session slot `k` into
    /// `receiver`. `None` if the slot already holds it (compared by
    /// value), else whether the receiver's Adj-RIB-In changed: a looped
    /// path is stored as sent but not imported, so it withdraws what the
    /// receiver held.
    pub(crate) fn send(&mut self, k: usize, receiver: AsId, update: u32) -> Option<bool> {
        let held = self.slots[k];
        if self.ads.same(held, update) {
            return None;
        }
        let was = self.imported(k).is_some();
        let now = update != NONE && !self.ads.path(update).contains(&receiver);
        let sent = usize::from(update != NONE);
        self.stats.adj_rib_out = self.stats.adj_rib_out + sent - usize::from(held != NONE);
        self.stats.adj_rib_in = self.stats.adj_rib_in + usize::from(now) - usize::from(was);
        self.slots[k] = update;
        let word = &mut self.imported[k / 64];
        *word = *word & !(1 << (k % 64)) | u64::from(now) << (k % 64);
        Some(was || now)
    }

    /// `Ads::export`, copying a shared arena first.
    pub(crate) fn export(&mut self, from: u32, asid: AsId, strip: bool) -> u32 {
        Rc::make_mut(&mut self.ads).export(from, asid, strip)
    }

    /// The speaker at `at`'s origination.
    pub(crate) fn origin(&self, at: u32) -> Option<u32> {
        let &(_, h) = self.origins.iter().find(|(o, _)| *o == at)?;
        Some(h)
    }

    /// Originate the prefix at `at` with `path` (the poison, if any) and
    /// `communities`, replacing `at`'s origination if it has one.
    pub(crate) fn originate(&mut self, at: u32, path: &[AsId], communities: BTreeSet<Community>) {
        let h = Rc::make_mut(&mut self.ads).originate(path, communities);
        self.origins.retain(|&(o, _)| o != at);
        self.origins.push((at, h));
    }

    /// Give `at`'s origination, which must exist, `communities` and blank
    /// the column.
    pub(crate) fn set_communities(
        &mut self,
        at: u32,
        communities: BTreeSet<Community>,
        map: &mut Vec<u32>,
    ) {
        let h = self.origin(at).expect("an origination to edit");
        // Empty, so no allocation, but for a poisoned origination.
        let poison = self.ads.path(h).to_vec();
        self.clear_routes(map);
        self.originate(at, &poison, communities);
    }

    /// The speaker at `at`'s Loc-RIB entry.
    pub(crate) fn winner(&self, at: u32) -> Option<Winner> {
        Some(self.winners[at as usize]).filter(|w| w.ad != NONE)
    }

    /// Install `at`'s Loc-RIB entry.
    pub(crate) fn set_winner(&mut self, at: u32, winner: Option<Winner>) {
        let held = &mut self.winners[at as usize];
        self.stats.loc_rib =
            self.stats.loc_rib + usize::from(winner.is_some()) - usize::from(held.ad != NONE);
        *held = winner.unwrap_or(NO_WINNER);
    }

    /// Blank every slot and winner, keeping the originations and only
    /// their records: the prefix becomes a fresh announcement of them.
    pub(crate) fn clear_routes(&mut self, map: &mut Vec<u32>) {
        self.slots.fill(NONE);
        self.imported.fill(0);
        self.winners.fill(NO_WINNER);
        self.stats = RibStats::default();
        self.compact(map);
    }

    /// Compact the arena if it holds more than twice as many records as
    /// the column holds winners and originations, plus [`SLACK`] (about
    /// one record per exporting speaker is held). Returns whether it did.
    pub(crate) fn compact_if_sparse(&mut self, map: &mut Vec<u32>) -> bool {
        let held = self.stats.loc_rib + self.origins.len();
        let sparse = self.ads.records.len() > 2 * held + SLACK;
        if sparse {
            self.compact(map);
        }
        sparse
    }

    /// Drop the records no slot, winner or origination holds and the
    /// community sets no kept record carries, renumbering the rest in
    /// order, in place (a shared arena is copied first).
    fn compact(&mut self, map: &mut Vec<u32>) {
        let records = self.ads.records.len();
        map.clear();
        map.resize(records + self.ads.communities.len(), NONE);
        let winners = self.winners.iter().map(|w| &w.ad);
        for &h in (self.slots.iter().chain(winners)).chain(self.origins.iter().map(|(_, h)| h)) {
            if h != NONE {
                map[h as usize] = 0;
            }
        }
        let mut next = 0;
        for h in 0..records {
            if map[h] != NONE {
                (map[h], next) = (next, next + 1);
                map[records + self.ads.records[h].communities as usize] = 0;
            }
        }
        next = 0;
        for to in map[records..].iter_mut().filter(|to| **to != NONE) {
            (*to, next) = (next, next + 1);
        }
        Rc::make_mut(&mut self.ads).retain(map);
        let winners = self.winners.iter_mut().map(|w| &mut w.ad);
        let origins = self.origins.iter_mut().map(|(_, h)| h);
        for h in self.slots.iter_mut().chain(winners).chain(origins) {
            if *h != NONE {
                *h = map[*h as usize];
            }
        }
    }

    /// Has no speaker learned, chosen or sent a route for the prefix?
    /// (It may have originations, to flood from blank.)
    pub(crate) fn is_blank(&self) -> bool {
        self.stats == RibStats::default()
    }

    /// Does the speaker at `at` originate the prefix with `communities`
    /// and the path `poison`?
    pub(crate) fn originates(
        &self,
        at: u32,
        communities: &Rc<BTreeSet<Community>>,
        poison: &[AsId],
    ) -> bool {
        let same = |h| self.ads.path(h) == poison && self.ads.communities(h) == communities;
        self.origin(at).is_some_and(same)
    }

    /// Do the two columns originate the same set of announcements: the
    /// same origin speakers, with value-equal attributes?
    pub(crate) fn same_originations(&self, other: &PrefixColumn) -> bool {
        let ads = &other.ads;
        let same = |&(at, h): &(u32, u32)| self.originates(at, ads.communities(h), ads.path(h));
        self.origins.len() == other.origins.len() && other.origins.iter().all(same)
    }

    /// Each speaker's winner session, by position ([`LOCAL`] for its own
    /// origination or no route).
    pub(crate) fn winner_sessions(&self) -> impl Iterator<Item = u32> + '_ {
        self.winners.iter().map(|w| w.session)
    }

    /// Take `twin`'s routes — every slot, imported bit and winner, and
    /// the counts — keeping its originations, which must equal `twin`'s:
    /// they take `twin`'s handles, and the column shares its arena.
    pub(crate) fn copy_routes(&mut self, twin: &PrefixColumn) {
        self.slots.copy_from_slice(&twin.slots);
        self.imported.copy_from_slice(&twin.imported);
        self.winners.copy_from_slice(&twin.winners);
        self.stats = twin.stats;
        for (at, h) in &mut self.origins {
            *h = twin
                .origin(*at)
                .expect("twins originate at the same speakers");
        }
        self.ads = Rc::clone(&twin.ads);
    }

    /// Does no speaker hold anything for the prefix? Its id can then be
    /// recycled, and the column with it.
    pub(crate) fn is_empty(&self) -> bool {
        self.origins.is_empty() && self.stats.adj_rib_out == 0 && self.stats.loc_rib == 0
    }

    /// Heap bytes the column holds, its arena added to `seen` and priced
    /// on first sight only (so a caller summing over columns counts a
    /// shared one once).
    pub(crate) fn heap_bytes(&self, seen: &mut BTreeSet<usize>) -> usize {
        use core::mem::{size_of, size_of_val};
        let mut total = size_of_val(&*self.slots)
            + size_of_val(&*self.imported)
            + size_of_val(&*self.winners)
            + self.origins.capacity() * size_of::<(u32, u32)>();
        let (ads, set) = (&*self.ads, RC_HEADER + size_of::<BTreeSet<Community>>());
        if seen.insert(Rc::as_ptr(&self.ads) as usize) {
            total += RC_HEADER + size_of::<Ads>() + ads.records.capacity() * size_of::<Ad>();
            total += ads.paths.capacity() * size_of::<AsId>();
            total += ads.communities.capacity() * size_of::<Rc<BTreeSet<Community>>>();
            let sets = ads.communities.iter();
            total += sets
                .map(|c| set + c.len() * size_of::<Community>())
                .sum::<usize>();
        }
        total
    }

    /// Append an advertisement of `path`, with no communities, for a test
    /// to send.
    #[cfg(test)]
    pub(crate) fn push_ad(&mut self, path: &[AsId]) -> u32 {
        Rc::make_mut(&mut self.ads).originate(path, BTreeSet::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arena holding one record per path, with no communities.
    fn ads(paths: &[&[u32]]) -> Ads {
        let mut ads = Ads::default();
        for path in paths {
            let path: Vec<AsId> = path.iter().map(|&a| AsId(a)).collect();
            ads.originate(&path, BTreeSet::new());
        }
        ads
    }

    /// Record `h`'s rank as learned, at local-pref `lp`, from the first
    /// AS on its path.
    fn learned(ads: &Ads, h: u32, lp: u32) -> Rank {
        ads.rank(h, ads.path(h)[0].0, lp, 0)
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let ads = ads(&[&[1], &[2, 3, 4]]);
        assert!(learned(&ads, 1, 300) > learned(&ads, 0, 100));
    }

    #[test]
    fn path_length_breaks_equal_pref() {
        let ads = ads(&[&[1, 2, 3], &[4, 5]]);
        assert!(learned(&ads, 1, 100) > learned(&ads, 0, 100));
    }

    #[test]
    fn neighbor_id_is_final_tiebreak() {
        let ads = ads(&[&[9], &[3]]);
        assert!(learned(&ads, 1, 100) > learned(&ads, 0, 100));
    }

    #[test]
    fn local_route_always_wins() {
        let ads = ads(&[&[], &[1]]);
        assert!(ads.rank(0, 0, u32::MAX, 0) > learned(&ads, 1, 300));
        assert!(ads.path(0).is_empty());
    }

    #[test]
    fn empty_candidates() {
        let column = PrefixColumn::new(2, 2);
        assert_eq!((column.winner(0), column.winner(1)), (None, None));
        assert_eq!((column.sent(0), column.imported(1)), (None, None));
    }

    #[test]
    fn prepending_lengthens_and_demotes() {
        let ads = ads(&[&[7, 8], &[5, 5, 5, 8]]);
        assert!(learned(&ads, 0, 100) > learned(&ads, 1, 100));
    }

    #[test]
    fn path_contains_and_origin() {
        let mut column = PrefixColumn::new(2, 2);
        let h = column.push_ad(&[AsId(3), AsId(2), AsId(1)]);
        assert_eq!(column.send(0, AsId(2), h), Some(false), "a loop");
        assert_eq!((column.sent(0), column.imported(0)), (Some(h), None));
        assert_eq!(column.send(1, AsId(9), h), Some(true));
        assert_eq!(column.ads().path(h).last(), Some(&AsId(1)));
    }

    #[test]
    fn decision_is_deterministic_under_permutation() {
        let ads = ads(&[&[1, 2], &[3, 4], &[5, 6, 7]]);
        let ranks = [
            learned(&ads, 0, 100),
            learned(&ads, 1, 100),
            learned(&ads, 2, 200),
        ];
        let best = |order: [usize; 3]| order.into_iter().max_by_key(|&k| ranks[k]);
        assert_eq!(best([0, 1, 2]), best([2, 0, 1]));
        assert_eq!(best([1, 2, 0]), Some(2));
    }

    #[test]
    fn shared_attrs_compare_by_value() {
        let ads = ads(&[&[1, 2], &[1, 2], &[1]]);
        assert!(ads.same(0, 0), "same record");
        assert!(ads.same(0, 1), "equal content in a second record");
        assert_eq!(ads.attrs(0), ads.attrs(1));
        assert!(!ads.same(0, 2) && !ads.same(0, NONE));
    }
}
