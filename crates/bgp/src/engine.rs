//! Synchronous-round BGP propagation to a converged fixpoint.
//!
//! The engine owns one `BgpSpeaker` per topology node and repeatedly
//! exchanges export diffs (updates and implicit withdrawals) between
//! adjacent speakers until nothing changes. With Gao-Rexford policies this
//! fixpoint exists and is reached in O(diameter) rounds; the engine still
//! caps rounds to fail loudly if a policy bug ever induced oscillation.
//!
//! This replaces the prototype's mesh of BIRD eBGP sessions (§4.1 step 1:
//! "propagate advertisements"). The §4.1 step-2 discovery loop drives it
//! via `tango-control`.
//!
//! Callers name prefixes; inside, the engine interns each into a dense
//! `PrefixId` that indexes its RIB column — every speaker's state for
//! the prefix, one advertisement slot per directed session — and keys
//! the worklists, and recycles the id (and the blank column with it)
//! once the prefix is gone from every speaker: no prefix is compared on
//! the update path, and a stream of discovery probes costs one column,
//! not one per probe. A sender writes the slot `offsets[to.index] +
//! to.back`, which is also the receiver's Adj-RIB-In entry for it.
//! The worklists are plain vectors the engine keeps between calls; the
//! one that says where updates landed is drained as delivered, unsorted
//! and with duplicates, because re-deciding a pair twice is a no-op.
//! Speaker configuration is set before the first origination and fixed
//! from then on, so only an origination edit moves a fixpoint.
//! Announcements and withdrawals converge over the routes in place; a
//! community edit blanks its prefix's column and converges as a fresh
//! announcement of the prefix's originations. A prefix that enters a
//! convergence blank with the same originations as a converged twin is
//! filled by copying the twin's column, and billed the flood it skipped:
//! the copy shares the twin's arena of advertisements until either
//! column appends to it. An edit that blanks or changes a converged
//! column first shelves its fixpoint — the originations by value and
//! each speaker's winner session — and a prefix that enters blank with
//! those originations while no twin is live is rebuilt from it: one
//! export per speaker, parent first, and the same bill. A convergence
//! ends by compacting every arena whose garbage outgrew what its column
//! holds.

use crate::community::Community;
use crate::policy::local_pref_base;
use crate::rib::{Ads, PathAttrs, PrefixColumn, Route, Winner, LOCAL};
use crate::speaker::{BgpSpeaker, Neighbor, PrefixId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use tango_net::{IpCidr, PrefixTrie};
use tango_obs::{Counter, Gauge, Histogram, Registry};
use tango_topology::{AsId, Topology};

/// Errors from the propagation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Referenced a node with no speaker (not in the topology).
    UnknownSpeaker(AsId),
    /// Convergence was not reached within the round cap — indicates a
    /// policy-oscillation bug, so we fail loudly rather than loop forever.
    NoConvergence {
        /// The configured cap that was exceeded.
        round_cap: usize,
    },
    /// A speaker's configuration was set after a prefix had been
    /// originated; nothing changed.
    ConfiguredAfterOrigination(AsId),
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::UnknownSpeaker(id) => write!(f, "no speaker for {id}"),
            EngineError::NoConvergence { round_cap } => {
                write!(f, "BGP did not converge within {round_cap} rounds")
            }
            EngineError::ConfiguredAfterOrigination(id) => {
                write!(f, "{id} configured after a prefix was originated")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Metric handles for the control plane (see `tango-obs`).
///
/// Convergence runs as synchronous rounds outside simulated time, so
/// the "convergence span" is measured in *rounds* — the quantity that
/// actually bounds re-convergence disruption — rather than in virtual
/// nanoseconds (which do not advance inside a convergence call).
#[derive(Debug)]
struct BgpObs {
    /// Route updates (announcements and withdrawals) that changed a
    /// receiver's Adj-RIB-In.
    updates_processed: Counter,
    /// Completed [`BgpEngine::converge`] calls.
    converges: Counter,
    /// Rounds each convergence took to reach the fixpoint.
    rounds: Histogram,
}

/// Opt-in RIB occupancy telemetry — separate from [`BgpObs`] so the
/// scalability sweep can profile memory without perturbing the metric
/// sets pinned by the golden telemetry artifacts.
#[derive(Debug)]
struct RibObs {
    /// Adj-RIB-In entries across all speakers, after each convergence.
    adj_rib_in: Gauge,
    /// Loc-RIB entries across all speakers.
    loc_rib: Gauge,
    /// Adj-RIB-Out entries across all speakers.
    adj_rib_out: Gauge,
    /// High-water mark of the three combined (peak route memory).
    peak_routes: Gauge,
}

/// Total RIB occupancy across every speaker (see
/// [`BgpEngine::rib_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RibStats {
    /// Adj-RIB-In entries (routes as received, pre-decision).
    pub adj_rib_in: usize,
    /// Loc-RIB entries (chosen best routes).
    pub loc_rib: usize,
    /// Adj-RIB-Out entries (advertisement state toward neighbors).
    pub adj_rib_out: usize,
}

impl RibStats {
    /// All entries combined.
    pub fn total(&self) -> usize {
        self.adj_rib_in + self.loc_rib + self.adj_rib_out
    }
}

/// Work [`BgpEngine::converge`] executed, counted exactly since the
/// engine was built (see [`BgpEngine::work`]). Unlike
/// `bgp.updates_processed`, which bills a twin fill the updates its
/// flood would have delivered, these count what actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Route updates delivered by an export (each changed a receiver's
    /// Adj-RIB-In).
    pub updates: u64,
    /// Prefixes that entered a convergence blank and were filled by
    /// copying a converged twin's column instead of flooding.
    pub fills: u64,
    /// Prefixes that entered a convergence blank and were rebuilt from a
    /// shelved fixpoint instead of flooding (their exports' updates are
    /// in `updates`).
    pub rebuilds: u64,
    /// Decision-process runs (`BgpSpeaker::decide` calls).
    pub decides: u64,
    /// Column arenas compacted at the end of a convergence because their
    /// garbage outgrew what the column holds.
    pub compactions: u64,
}

/// What a prefix's column cost to flood from blank, by prefix id: the
/// updates it delivered and the rounds it took.
#[derive(Debug, Clone, Copy, Default)]
enum Bill {
    /// The column is not known to be a from-blank flood of its current
    /// originations.
    #[default]
    Unknown,
    /// The column entered the running convergence blank and is being
    /// flooded; the tally so far.
    Open { updates: u64, rounds: usize },
    /// The column is exactly the from-blank convergence of its current
    /// originations, which cost this much.
    Paid { updates: u64, rounds: usize },
}

/// An origination by value: speaker position, communities, poison path.
type Origination = (u32, Rc<BTreeSet<Community>>, Box<[AsId]>);

/// A from-blank fixpoint whose column an origination edit changed: its
/// originations, each speaker's winner session ([`LOCAL`] for its
/// origination or no route), and the [`Bill::Paid`] of its flood.
#[derive(Debug)]
struct Shelved {
    origins: Box<[Origination]>,
    winners: Box<[u32]>,
    bill: Bill,
}

impl Shelved {
    /// Are these the originations `column` holds?
    fn fits(&self, column: &PrefixColumn) -> bool {
        let same = |(at, c, poison): &Origination| column.originates(*at, c, poison);
        self.origins.len() == column.origins.len() && self.origins.iter().all(same)
    }

    /// Heap bytes the entry holds, but for its shared community sets.
    fn heap_bytes(&self) -> usize {
        use core::mem::size_of_val;
        let poisons: usize = self.origins.iter().map(|o| size_of_val(&*o.2)).sum();
        size_of_val(&*self.origins) + poisons + size_of_val(&*self.winners)
    }
}

/// Where [`BgpEngine::fixpoint`] found a blank prefix's fixpoint.
enum Fixpoint {
    /// A live column with a paid bill, by prefix id.
    Twin(usize),
    /// A shelf entry, by position.
    Shelf(usize),
}

/// The prefix intern table: prefix ↔ dense [`PrefixId`].
#[derive(Debug, Default)]
struct PrefixTable {
    /// id → prefix; a free id keeps its last prefix until it is reissued.
    prefixes: Vec<IpCidr>,
    /// prefix → id, for the ids in use.
    ids: BTreeMap<IpCidr, PrefixId>,
    /// Ids no speaker holds state for, reissued before the table grows.
    free: Vec<PrefixId>,
}

impl PrefixTable {
    fn get(&self, prefix: &IpCidr) -> Option<PrefixId> {
        self.ids.get(prefix).copied()
    }

    fn prefix(&self, id: PrefixId) -> IpCidr {
        self.prefixes[id.slot()]
    }

    /// `prefix`'s id, minted (a recycled one first) if it has none.
    fn intern(&mut self, prefix: IpCidr) -> PrefixId {
        if let Some(id) = self.get(&prefix) {
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.prefixes[id.slot()] = prefix;
                id
            }
            None => {
                self.prefixes.push(prefix);
                PrefixId((self.prefixes.len() - 1) as u32)
            }
        };
        self.ids.insert(prefix, id);
        id
    }

    /// Put an in-use id on the free list; a no-op on one already there.
    fn release(&mut self, id: PrefixId) {
        if self.ids.remove(&self.prefixes[id.slot()]).is_some() {
            self.free.push(id);
        }
    }
}

/// The BGP propagation engine over an AS-level topology.
///
/// Not `Send`: columns share arenas and community sets through `Rc`, and an engine stays
/// on the thread that built it (the workspace's one thread site,
/// `tango_sim::shard`, moves simulator shards, never an engine).
///
/// ```compile_fail,E0277
/// fn is_send<T: Send>() {}
/// is_send::<tango_bgp::BgpEngine>();
/// ```
#[derive(Debug)]
pub struct BgpEngine {
    /// One speaker per topology node, ordered by AS id, so a position in
    /// this table sorts exactly like the id it stands for (and, ids being
    /// 32-bit, fits a `u32`). Each speaker holds its neighbors' positions
    /// and relationships, resolved once in [`BgpEngine::new`].
    speakers: Vec<BgpSpeaker>,
    /// Where each speaker's sessions start in a column's slots (one more
    /// entry than speakers: the last is the slot count).
    offsets: Box<[u32]>,
    prefixes: PrefixTable,
    /// Every speaker's RIB state, one column per prefix id; a free id's
    /// column is blank.
    columns: Vec<PrefixColumn>,
    /// Each column's [`Bill`], by prefix id — beside the columns, not in
    /// them: [`BgpEngine::rib_heap_bytes`] prices every column at its
    /// size, so a field there costs bytes per route at every tier.
    bills: Vec<Bill>,
    /// Fixpoints whose columns were edited away, oldest first, holding
    /// at most twice as many bytes as the columns' slots (see
    /// [`BgpEngine::converge`]).
    shelf: VecDeque<Shelved>,
    work: Work,
    obs: Option<BgpObs>,
    rib_obs: Option<RibObs>,
    /// (origin, prefix) originations edited since the last convergence,
    /// and every origination of a prefix a community edit blanked — the
    /// incremental worklist's phase-0 seed, and the only prefixes that
    /// can have left every speaker by the end of it.
    dirty_origins: Worklist,
    /// [`BgpEngine::converge`]'s worklists, kept for their capacity: who
    /// exports this round (cleared on entry, and a rebuild's queue before
    /// that), and where an update landed.
    export_set: Worklist,
    received: Worklist,
    /// Working space for renumbering a column's arena, kept for its
    /// capacity.
    handle_map: Vec<u32>,
}

/// The most rounds [`BgpEngine::converge`] runs before it reports
/// [`EngineError::NoConvergence`].
const ROUND_CAP: usize = 200;

/// A worklist of `(speaker position, prefix id)` entries, in no order
/// and free to repeat one: every step it drives is idempotent.
type Worklist = Vec<(u32, PrefixId)>;

/// Column `to` mutably and column `from` (another one) shared.
fn pair_mut(
    columns: &mut [PrefixColumn],
    to: usize,
    from: usize,
) -> (&mut PrefixColumn, &PrefixColumn) {
    if to < from {
        let (head, tail) = columns.split_at_mut(from);
        (&mut head[to], &tail[0])
    } else {
        let (head, tail) = columns.split_at_mut(to);
        (&mut tail[0], &head[from])
    }
}

impl BgpEngine {
    /// Build an engine with a default speaker for every topology node.
    /// The engine keeps the sessions it resolves, not the graph.
    pub fn new(topology: Topology) -> Self {
        let ids: Vec<AsId> = topology.nodes().map(|n| n.id).collect();
        // Every node's session list in the order its speaker keeps it.
        let mut session_ids: Vec<Vec<AsId>> =
            (ids.iter().map(|&id| topology.neighbors(id).to_vec())).collect();
        session_ids.iter_mut().for_each(|list| list.sort_unstable());
        let speakers = ids
            .iter()
            .zip(&session_ids)
            .map(|(&id, neighbors)| {
                let sessions = neighbors.iter().map(|&n| {
                    let index = ids.binary_search(&n).expect("links join known nodes");
                    let rel = topology
                        .relationship(id, n)
                        .expect("adjacency lists mirror the edge map");
                    let back = session_ids[index]
                        .binary_search(&id)
                        .expect("adjacency is mutual");
                    Neighbor {
                        id: n,
                        rel,
                        index: index as u32,
                        back: back as u32,
                        local_pref: local_pref_base(rel),
                        tie_pref: 0,
                    }
                });
                BgpSpeaker::new(id, sessions.collect())
            })
            .collect();
        let offsets = core::iter::once(0)
            .chain(session_ids.iter().scan(0, |end, list| {
                *end += list.len() as u32;
                Some(*end)
            }))
            .collect();
        BgpEngine {
            speakers,
            offsets,
            prefixes: PrefixTable::default(),
            columns: Vec::new(),
            bills: Vec::new(),
            shelf: VecDeque::new(),
            work: Work::default(),
            obs: None,
            rib_obs: None,
            dirty_origins: Worklist::new(),
            export_set: Worklist::new(),
            received: Worklist::new(),
            handle_map: Vec::new(),
        }
    }

    /// A node's position in the speaker table.
    fn index_of(&self, id: AsId) -> Result<usize, EngineError> {
        self.speakers
            .binary_search_by_key(&id, BgpSpeaker::asid)
            .map_err(|_| EngineError::UnknownSpeaker(id))
    }

    /// Publish control-plane telemetry (`bgp.*`) into `registry`.
    pub fn set_obs(&mut self, registry: &Registry) {
        self.obs = Some(BgpObs {
            updates_processed: registry.counter("bgp.updates_processed"),
            converges: registry.counter("bgp.converges"),
            rounds: registry.histogram("bgp.convergence.rounds"),
        });
    }

    /// Publish RIB occupancy gauges (`bgp.rib.*`) into `registry`,
    /// refreshed after every convergence. `bgp.rib.peak_routes` is the
    /// high-water mark of total entries — the scalability sweep's "peak
    /// RIB memory" column.
    pub fn set_rib_obs(&mut self, registry: &Registry) {
        self.rib_obs = Some(RibObs {
            adj_rib_in: registry.gauge("bgp.rib.adj_rib_in"),
            loc_rib: registry.gauge("bgp.rib.loc_rib"),
            adj_rib_out: registry.gauge("bgp.rib.adj_rib_out"),
            peak_routes: registry.gauge("bgp.rib.peak_routes"),
        });
    }

    /// Current RIB occupancy summed over every speaker.
    pub fn rib_stats(&self) -> RibStats {
        let mut stats = RibStats::default();
        for c in self.columns.iter().map(|c| c.stats) {
            stats.adj_rib_in += c.adj_rib_in;
            stats.loc_rib += c.loc_rib;
            stats.adj_rib_out += c.adj_rib_out;
        }
        stats
    }

    /// Heap bytes held by the RIB columns right now: their slots,
    /// winners and originations, and their arenas with the community
    /// sets in them. An arena shared by twin columns is counted once.
    /// The shelf is a memo, not RIB: see [`BgpEngine::shelf_heap_bytes`].
    pub fn rib_heap_bytes(&self) -> u64 {
        let mut seen = BTreeSet::new();
        let columns = self.columns.capacity() * core::mem::size_of::<PrefixColumn>();
        let held: usize = self.columns.iter().map(|c| c.heap_bytes(&mut seen)).sum();
        (columns + held) as u64
    }

    /// The work every [`BgpEngine::converge`] so far executed. Read by
    /// tests and tools; published nowhere.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Heap bytes the shelved fixpoints hold: their winner maps and
    /// originations (the community sets are the columns' too).
    pub fn shelf_heap_bytes(&self) -> u64 {
        let entries = self.shelf.capacity() * core::mem::size_of::<Shelved>();
        (entries + self.shelf.iter().map(Shelved::heap_bytes).sum::<usize>()) as u64
    }

    /// Drop `p`'s bill before an edit of its originations. A paid flood
    /// that cost anything is shelved first, unless a live twin or the
    /// shelf holds its fixpoint already; then the oldest entries go
    /// until the shelf holds at most twice the bytes of the columns'
    /// slots.
    fn unbill(&mut self, p: PrefixId) {
        let bill = core::mem::take(&mut self.bills[p.slot()]);
        if !matches!(bill, Bill::Paid { updates: 1.., .. }) || self.fixpoint(p).is_some() {
            return;
        }
        let column = &self.columns[p.slot()];
        let ads = column.ads();
        let origins = column.origins.iter().map(|&(at, h)| {
            let communities = Rc::clone(ads.communities(h));
            (at, communities, ads.path(h).into())
        });
        self.shelf.push_back(Shelved {
            origins: origins.collect(),
            winners: column.winner_sessions().collect(),
            bill,
        });
        let slots = self.columns.len() * self.offsets[self.speakers.len()] as usize;
        let bound = (2 * slots * core::mem::size_of::<u32>()) as u64;
        while self.shelf_heap_bytes() > bound && self.shelf.pop_front().is_some() {}
    }

    /// Where blank prefix `p`'s originations have a known fixpoint: a
    /// paid twin, else a shelf entry.
    fn fixpoint(&self, p: PrefixId) -> Option<Fixpoint> {
        let column = &self.columns[p.slot()];
        let paid = |(bill, twin): (&Bill, &PrefixColumn)| {
            matches!(bill, Bill::Paid { .. }) && twin.same_originations(column)
        };
        let twin = self.bills.iter().zip(&self.columns).position(paid);
        let shelved = || self.shelf.iter().position(|s| s.fits(column));
        twin.map(Fixpoint::Twin)
            .or_else(|| shelved().map(Fixpoint::Shelf))
    }

    /// Rebuild blank column `p` from shelf entry `e`. Parent first from
    /// the origins, each speaker installs its shelved winner — the slot
    /// its parent's export just wrote — and exports once: every slot
    /// then holds what the flood left in it. Returns the updates the
    /// exports delivered.
    fn rebuild(&mut self, p: PrefixId, e: usize) -> u64 {
        let (column, winners) = (&mut self.columns[p.slot()], &self.shelf[e].winners);
        let (queue, mut delivered) = (&mut self.export_set, 0);
        queue.clear();
        queue.extend(column.origins.iter().map(|&(at, _)| (at, p)));
        let mut next = 0;
        while let Some(&(at, _)) = queue.get(next) {
            next += 1;
            let session = winners[at as usize];
            let ad = match session {
                LOCAL => column.origin(at),
                k => column.sent((self.offsets[at as usize] + k) as usize),
            };
            column.set_winner(at, ad.map(|ad| Winner { session, ad }));
            let s = &self.speakers[at as usize];
            s.export(at, &self.offsets, column, |_, _, changed| {
                delivered += u64::from(changed)
            });
            let children = s
                .neighbors()
                .iter()
                .filter(|n| winners[n.index as usize] == n.back);
            queue.extend(children.map(|n| (n.index, p)));
        }
        delivered
    }

    /// A speaker to configure, while no prefix has been originated: no
    /// route, bill or shelved fixpoint can depend on its settings yet.
    fn configure(&mut self, id: AsId) -> Result<&mut BgpSpeaker, EngineError> {
        let i = self.index_of(id)?;
        if !self.columns.is_empty() {
            return Err(EngineError::ConfiguredAfterOrigination(id));
        }
        Ok(&mut self.speakers[i])
    }

    /// `origin`'s position and `prefix`'s id, or `None` for a prefix
    /// no speaker holds — the target of an origination edit.
    fn origination(
        &self,
        origin: AsId,
        prefix: IpCidr,
    ) -> Result<Option<(u32, PrefixId)>, EngineError> {
        let i = self.index_of(origin)? as u32;
        Ok(self.prefixes.get(&prefix).map(|p| (i, p)))
    }

    /// `prefix`'s id, minted with a blank column if it has none.
    fn intern(&mut self, prefix: IpCidr) -> PrefixId {
        let p = self.prefixes.intern(prefix);
        if p.slot() == self.columns.len() {
            let sessions = self.offsets[self.speakers.len()] as usize;
            self.columns
                .push(PrefixColumn::new(sessions, self.speakers.len()));
            self.bills.push(Bill::Unknown);
        }
        p
    }

    /// `at`'s speaker, its Loc-RIB entry for `prefix` and the arena
    /// that entry's advertisement is in.
    fn winner(&self, at: AsId, prefix: IpCidr) -> Option<(&BgpSpeaker, Winner, &Ads)> {
        let i = self.index_of(at).ok()?;
        let column = &self.columns[self.prefixes.get(&prefix)?.slot()];
        Some((&self.speakers[i], column.winner(i as u32)?, column.ads()))
    }

    /// Set a node's per-neighbor preference map (e.g. the Vultr borders'
    /// NTT > Telia > GTT ordering). Like every configuration setter, it
    /// fails with [`EngineError::ConfiguredAfterOrigination`], changing
    /// nothing, once any prefix has been originated.
    pub fn set_neighbor_pref(
        &mut self,
        id: AsId,
        prefs: BTreeMap<AsId, u32>,
    ) -> Result<(), EngineError> {
        self.configure(id)?.set_neighbor_pref(&prefs);
        Ok(())
    }

    /// Enable private-ASN stripping on export at a node (Vultr borders).
    pub fn set_strip_private(&mut self, id: AsId, strip: bool) -> Result<(), EngineError> {
        self.configure(id)?.strip_private_asns = strip;
        Ok(())
    }

    /// Make a node act on the `NoExportTo` action communities — set on
    /// the provider that defines the namespace (the Vultr borders).
    pub fn set_honor_actions(&mut self, id: AsId, honor: bool) -> Result<(), EngineError> {
        self.configure(id)?.honor_actions = honor;
        Ok(())
    }

    /// Originate a prefix at a node.
    pub fn announce(
        &mut self,
        origin: AsId,
        prefix: IpCidr,
        communities: BTreeSet<Community>,
    ) -> Result<(), EngineError> {
        self.announce_poisoned(origin, prefix, communities, &[])
    }

    /// Originate with AS-path poisoning.
    pub fn announce_poisoned(
        &mut self,
        origin: AsId,
        prefix: IpCidr,
        communities: BTreeSet<Community>,
        poison: &[AsId],
    ) -> Result<(), EngineError> {
        let i = self.index_of(origin)? as u32; // before an id is minted
        let p = self.intern(prefix);
        self.unbill(p);
        self.columns[p.slot()].originate(i, poison, communities);
        self.dirty_origins.push((i, p));
        Ok(())
    }

    /// Update the communities on an existing origination (the §4.1
    /// discovery loop). Returns false, and changes nothing, if `origin`
    /// does not originate `prefix` or already attaches exactly
    /// `communities`.
    ///
    /// An edit is a fresh announcement of the prefix: its column — what
    /// every speaker learned, chose and sent for it — is blanked, and the next
    /// [`BgpEngine::converge`] propagates the prefix's originations from
    /// that blank column instead of re-converging over the old routes.
    /// Gao-Rexford policies have one stable state, so the fixpoint is the
    /// same; what is skipped is the path exploration. If another prefix's
    /// column is a converged twin of the edited originations, that
    /// convergence copies it instead of flooding, and bills what the
    /// flood would have cost (see [`BgpEngine::converge`]). Until that
    /// convergence, queries see no route for the prefix anywhere.
    pub fn set_announcement_communities(
        &mut self,
        origin: AsId,
        prefix: IpCidr,
        communities: BTreeSet<Community>,
    ) -> Result<bool, EngineError> {
        let Some((i, p)) = self.origination(origin, prefix)? else {
            return Ok(false);
        };
        let column = &self.columns[p.slot()];
        let held = column.origin(i).map(|h| column.ads().communities(h));
        if held.map_or(true, |c| **c == communities) {
            return Ok(false);
        }
        self.unbill(p);
        let column = &mut self.columns[p.slot()];
        column.set_communities(i, communities, &mut self.handle_map);
        let origins = column.origins.iter().map(|&(o, _)| (o, p));
        self.dirty_origins.extend(origins);
        Ok(true)
    }

    /// Withdraw an origination. Unlike a community edit, this converges
    /// incrementally over the routes in place.
    pub fn withdraw(&mut self, origin: AsId, prefix: IpCidr) -> Result<bool, EngineError> {
        let Some((i, p)) = self.origination(origin, prefix)? else {
            return Ok(false);
        };
        if self.columns[p.slot()].origin(i).is_none() {
            return Ok(false);
        }
        self.unbill(p);
        self.columns[p.slot()].origins.retain(|&(o, _)| o != i);
        self.dirty_origins.push((i, p));
        Ok(true)
    }

    /// Run synchronous rounds to the fixpoint. Returns the number of
    /// rounds taken (0 means the network was already converged).
    ///
    /// The propagation is *incremental*: the dirty originations seed a
    /// worklist, and each round re-exports and re-decides only the
    /// `(speaker, prefix)` entries whose state changed. The fixpoint,
    /// per-round update counts and round totals are those of an
    /// everyone-recomputes synchronous sweep: the work skipped changed
    /// no state. An [`BgpEngine::announce`] or
    /// [`BgpEngine::withdraw`] re-converges over the routes in place; a
    /// [`BgpEngine::set_announcement_communities`] edit has blanked its
    /// prefix, which converges as a fresh announcement.
    ///
    /// A prefix that enters blank is not flooded when another prefix's
    /// column is known to be the from-blank convergence of the same
    /// originations (value-equal, at the same speakers): its *twin*,
    /// whose routes and arena it copies. No policy reads the prefix
    /// itself, so the flood would rebuild that column slot for slot. Failing a twin, a *shelved* fixpoint of the
    /// same originations is rebuilt: each speaker installs its shelved
    /// winner and exports once, parent first, with no decision. The
    /// bill — the updates and rounds the flood cost — is added to
    /// `bgp.updates_processed` and joins the returned and recorded
    /// rounds, so every count is what flooding reports. A bill is set
    /// when a prefix that entered blank has converged, and shelved with
    /// its column's winners by any origination edit of its prefix.
    /// At the end, every column whose arena holds more than twice as many
    /// records as winners and originations, plus a slack, is compacted.
    /// [`BgpEngine::work`] counts what ran.
    pub fn converge(&mut self) -> Result<usize, EngineError> {
        let mut updates_applied = 0u64;
        // The updates and rounds of the floods twin fills skipped.
        let (mut billed_updates, mut billed_rounds) = (0u64, 0usize);
        let dirty_origins = core::mem::take(&mut self.dirty_origins);
        // Each prefix that enters blank is filled from a paid-for twin,
        // rebuilt from the shelf or opens a tally of its flood. A prefix
        // with several origins is listed once per origin; its first entry
        // settles which.
        for &(_, p) in &dirty_origins {
            let column = &self.columns[p.slot()];
            let fresh = column.is_blank() && !column.origins.is_empty();
            if !fresh || !matches!(self.bills[p.slot()], Bill::Unknown) {
                continue;
            }
            let bill = match self.fixpoint(p) {
                None => Bill::Open {
                    updates: 0,
                    rounds: 0,
                },
                Some(Fixpoint::Twin(k)) => {
                    let (to, from) = pair_mut(&mut self.columns, p.slot(), k);
                    to.copy_routes(from);
                    self.work.fills += 1;
                    self.bills[k]
                }
                Some(Fixpoint::Shelf(e)) => {
                    self.work.updates += self.rebuild(p, e);
                    self.work.rebuilds += 1;
                    self.shelf[e].bill
                }
            };
            if let Bill::Paid { updates, rounds } = bill {
                billed_updates += updates;
                billed_rounds = billed_rounds.max(rounds);
            }
            self.bills[p.slot()] = bill;
        }
        // Phase 0: re-decide each edited origination, which enters the
        // export set only if its Loc-RIB entry actually moved — which it
        // cannot in a prefix a twin filled or the shelf rebuilt.
        self.export_set.clear();
        for &(i, p) in &dirty_origins {
            if matches!(self.bills[p.slot()], Bill::Paid { .. }) {
                continue;
            }
            let column = &mut self.columns[p.slot()];
            self.work.decides += 1;
            if self.speakers[i as usize].decide(i, &self.offsets, column) {
                self.export_set.push((i, p));
            }
        }
        for round in 1..=ROUND_CAP {
            // Phase 1: deliver export diffs from the worklist. Each
            // writes its sender's slots in the prefix's column; a slot
            // is its receiver's Adj-RIB-In entry as well.
            for &(i, p) in &self.export_set {
                let column = &mut self.columns[p.slot()];
                let sender = &self.speakers[i as usize];
                let mut delivered = 0;
                sender.export(i, &self.offsets, column, |to, _, changed| {
                    if changed {
                        delivered += 1;
                        self.received.push((to.index, p));
                    }
                });
                updates_applied += delivered;
                if let Bill::Open { updates, rounds } = &mut self.bills[p.slot()] {
                    *updates += delivered;
                    if delivered > 0 {
                        *rounds = round;
                    }
                }
            }
            if self.received.is_empty() {
                let rounds = (round - 1).max(billed_rounds);
                for &(_, p) in &dirty_origins {
                    if let Bill::Open { updates, rounds } = self.bills[p.slot()] {
                        self.bills[p.slot()] = Bill::Paid { updates, rounds };
                    }
                    // A withdrawn prefix has now left every speaker it is
                    // ever going to leave: recycle the ids nobody holds.
                    if self.columns[p.slot()].is_empty() {
                        self.prefixes.release(p);
                    }
                }
                for column in &mut self.columns {
                    if column.compact_if_sparse(&mut self.handle_map) {
                        self.work.compactions += 1;
                    }
                }
                self.work.updates += updates_applied;
                if let Some(obs) = &self.obs {
                    obs.updates_processed.add(updates_applied + billed_updates);
                    obs.converges.inc();
                    obs.rounds.record(rounds as u64);
                }
                if let Some(rib) = &self.rib_obs {
                    let stats = self.rib_stats();
                    rib.adj_rib_in.set(stats.adj_rib_in as u64);
                    rib.loc_rib.set(stats.loc_rib as u64);
                    rib.adj_rib_out.set(stats.adj_rib_out as u64);
                    rib.peak_routes.record_max(stats.total() as u64);
                }
                // Keep room for a one-prefix round, an entry per speaker; a
                // burst (the mesh convergence) would sit under every later peak.
                self.export_set.shrink_to(self.speakers.len());
                self.received.shrink_to(self.speakers.len());
                return Ok(rounds);
            }
            // Phase 2: re-decide where an update landed, as delivered. A
            // pair k neighbors delivered to is listed k times: the first
            // visit installs the winner, the rest find it installed and
            // return false, so the pair is exported once.
            self.export_set.clear();
            for (i, p) in self.received.drain(..) {
                let column = &mut self.columns[p.slot()];
                self.work.decides += 1;
                if self.speakers[i as usize].decide(i, &self.offsets, column) {
                    self.export_set.push((i, p));
                }
            }
        }
        Err(EngineError::NoConvergence {
            round_cap: ROUND_CAP,
        })
    }

    /// The best route for `prefix` at node `at`, after convergence.
    pub fn best_route(&self, at: AsId, prefix: IpCidr) -> Option<Route> {
        let (s, winner, ads) = self.winner(at, prefix)?;
        Some(s.route(winner, ads))
    }

    /// The AS path for `prefix` as seen at `at` (§4.1: "observing the
    /// AS-path heard at the other server").
    pub fn as_path(&self, at: AsId, prefix: IpCidr) -> Option<&[AsId]> {
        self.winner(at, prefix).map(|(_, w, ads)| ads.path(w.ad))
    }

    /// The advertisement `from` last sent `to` for `prefix` — its
    /// Adj-RIB-Out entry, and `to`'s Adj-RIB-In entry unless `to`'s loop
    /// check dropped it — or `None` if it sent none or there is no such
    /// session.
    pub fn advertisement(&self, from: AsId, to: AsId, prefix: IpCidr) -> Option<PathAttrs> {
        let s = &self.speakers[self.index_of(from).ok()?];
        let n = s.neighbors().iter().find(|n| n.id == to)?;
        let slot = self.offsets[n.index as usize] + n.back;
        let column = &self.columns[self.prefixes.get(&prefix)?.slot()];
        column.sent(slot as usize).map(|h| column.ads().attrs(h))
    }

    /// Build a longest-prefix-match forwarding table for a node: prefix →
    /// next-hop AS (the node itself for locally originated prefixes).
    pub fn forwarding_table(&self, at: AsId) -> Result<PrefixTrie<AsId>, EngineError> {
        let i = self.index_of(at)?;
        let s = &self.speakers[i];
        let mut trie = PrefixTrie::new();
        for (k, column) in self.columns.iter().enumerate() {
            if let Some(winner) = column.winner(i as u32) {
                let prefix = self.prefixes.prefix(PrefixId(k as u32));
                trie.insert(prefix, s.next_hop(winner));
            }
        }
        Ok(trie)
    }

    /// Trace the AS-level forwarding path for `prefix` from `from` to the
    /// prefix's origin, following each hop's converged best route. Errors
    /// with `None` if any hop lacks a route (unreachable) or a forwarding
    /// loop is detected.
    pub fn trace_path(&self, from: AsId, prefix: IpCidr) -> Option<Vec<AsId>> {
        let mut path = vec![from];
        let mut at = from;
        let mut hops = 0;
        loop {
            let (s, winner, _) = self.winner(at, prefix)?;
            let n = s.next_hop(winner);
            if n == at {
                return Some(path); // the origin
            }
            if path.contains(&n) {
                return None; // forwarding loop
            }
            path.push(n);
            at = n;
            hops += 1;
            if hops > self.speakers.len() {
                return None;
            }
        }
    }
}

#[cfg(test)]
impl BgpEngine {
    /// `at`'s speaker and position, the session offsets, and `prefix`'s
    /// column (minted if new): what the speaker tests drive by hand.
    pub(crate) fn parts(
        &mut self,
        at: AsId,
        prefix: IpCidr,
    ) -> (&BgpSpeaker, u32, &[u32], &mut PrefixColumn) {
        let i = self.index_of(at).expect("a test speaker");
        let p = self.intern(prefix);
        let column = &mut self.columns[p.slot()];
        (&self.speakers[i], i as u32, &self.offsets, column)
    }

    /// `at`'s own entry counts: the imported slots of its sessions, its
    /// winners, and the slots it sent into.
    pub(crate) fn rib_lens(&self, at: AsId) -> RibStats {
        let i = self.index_of(at).expect("a test speaker");
        let sessions = self.speakers[i].neighbors();
        let mut stats = RibStats::default();
        for column in &self.columns {
            let ins = self.offsets[i]..self.offsets[i + 1];
            stats.adj_rib_in += ins
                .filter(|&k| column.imported(k as usize).is_some())
                .count();
            stats.loc_rib += usize::from(column.winner(i as u32).is_some());
            let outs = sessions
                .iter()
                .map(|n| self.offsets[n.index as usize] + n.back);
            stats.adj_rib_out += outs.filter(|&k| column.sent(k as usize).is_some()).count();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_topology::{AsKind, AsNode, DirectionProfile, LinkProfile};

    fn lp() -> LinkProfile {
        LinkProfile::symmetric(DirectionProfile::constant(1))
    }

    /// A small valley-free test net:
    ///
    /// ```text
    ///        T1 ——peer—— T2
    ///       /  \           \
    ///     E1    E2          E3       (E* are customers of T*)
    /// ```
    fn topo() -> Topology {
        let mut t = Topology::new();
        for (id, name) in [(10, "T1"), (20, "T2"), (1, "E1"), (2, "E2"), (3, "E3")] {
            t.add_node(AsNode::new(id as u32, AsKind::Transit, name))
                .unwrap();
        }
        t.add_peering(AsId(10), AsId(20), lp()).unwrap();
        t.add_provider(AsId(1), AsId(10), lp()).unwrap();
        t.add_provider(AsId(2), AsId(10), lp()).unwrap();
        t.add_provider(AsId(3), AsId(20), lp()).unwrap();
        t
    }

    fn pfx(s: &str) -> IpCidr {
        s.parse().unwrap()
    }

    #[test]
    fn basic_propagation_reaches_everyone() {
        let mut e = BgpEngine::new(topo());
        e.announce(AsId(1), pfx("2001:db8:100::/48"), BTreeSet::new())
            .unwrap();
        e.converge().unwrap();
        assert_eq!(
            e.as_path(AsId(10), pfx("2001:db8:100::/48")).unwrap(),
            &[AsId(1)]
        );
        assert_eq!(
            e.as_path(AsId(2), pfx("2001:db8:100::/48")).unwrap(),
            &[AsId(10), AsId(1)]
        );
        assert_eq!(
            e.as_path(AsId(3), pfx("2001:db8:100::/48")).unwrap(),
            &[AsId(20), AsId(10), AsId(1)]
        );
    }

    #[test]
    fn converge_is_idempotent() {
        let mut e = BgpEngine::new(topo());
        e.announce(AsId(1), pfx("2001:db8::/32"), BTreeSet::new())
            .unwrap();
        let r1 = e.converge().unwrap();
        assert!(r1 >= 1);
        let r2 = e.converge().unwrap();
        assert_eq!(r2, 0, "already converged");
    }

    #[test]
    fn valley_free_blocks_peer_to_peer_transit() {
        // E2's route must not flow T1 -> T2 if learned from peer... but E1
        // is T1's *customer*, so T1 -> T2 IS allowed. Check the actual
        // valley: announce at E3; T2 exports customer route to peer T1 ✓;
        // T1 exports peer-learned route to its customers ✓ but NOT to
        // other peers (none here). Everyone should still reach E3.
        let mut e = BgpEngine::new(topo());
        e.announce(AsId(3), pfx("2001:db8:3::/48"), BTreeSet::new())
            .unwrap();
        e.converge().unwrap();
        assert!(e.best_route(AsId(1), pfx("2001:db8:3::/48")).is_some());
        // Now the true valley test: a route learned by T1 from peer T2
        // must not be re-exported to another peer. Add peer T3 to check.
        let mut t = topo();
        t.add_node(AsNode::new(30u32, AsKind::Transit, "T3"))
            .unwrap();
        t.add_peering(AsId(10), AsId(30), lp()).unwrap();
        let mut e = BgpEngine::new(t);
        e.announce(AsId(3), pfx("2001:db8:3::/48"), BTreeSet::new())
            .unwrap();
        e.converge().unwrap();
        // T3 peers only with T1; T1's route to E3 is peer-learned (via T2),
        // so T3 must NOT hear it.
        assert!(e.best_route(AsId(30), pfx("2001:db8:3::/48")).is_none());
    }

    #[test]
    fn withdrawal_propagates() {
        let mut e = BgpEngine::new(topo());
        e.announce(AsId(1), pfx("2001:db8:1::/48"), BTreeSet::new())
            .unwrap();
        e.converge().unwrap();
        assert!(e.best_route(AsId(3), pfx("2001:db8:1::/48")).is_some());
        e.withdraw(AsId(1), pfx("2001:db8:1::/48")).unwrap();
        e.converge().unwrap();
        assert!(e.best_route(AsId(3), pfx("2001:db8:1::/48")).is_none());
        assert!(e.best_route(AsId(10), pfx("2001:db8:1::/48")).is_none());
    }

    #[test]
    fn community_suppression_reroutes() {
        // E1 and E2 share provider T1; E1 also gets a second provider T2
        // so there are two ways to reach it.
        let mut t = topo();
        t.add_provider(AsId(1), AsId(20), lp()).unwrap();
        let mut e = BgpEngine::new(t);
        // E1 plays the tenant+border role: it acts on its own action
        // communities when exporting.
        e.set_honor_actions(AsId(1), true).unwrap();
        let p = pfx("2001:db8:1::/48");
        e.announce(AsId(1), p, BTreeSet::new()).unwrap();
        e.converge().unwrap();
        // E3 sits under T2: direct customer path [20, 1] beats [20, 10, 1].
        assert_eq!(e.as_path(AsId(3), p).unwrap(), &[AsId(20), AsId(1)]);
        // Suppress export to T2: E3 must fall back to the T1 path.
        let mut comms = BTreeSet::new();
        comms.insert(Community::NoExportTo(AsId(20)));
        assert!(e.set_announcement_communities(AsId(1), p, comms).unwrap());
        e.converge().unwrap();
        assert_eq!(
            e.as_path(AsId(3), p).unwrap(),
            &[AsId(20), AsId(10), AsId(1)]
        );
    }

    #[test]
    fn poisoning_routes_around() {
        let mut t = topo();
        t.add_provider(AsId(1), AsId(20), lp()).unwrap();
        let mut e = BgpEngine::new(t);
        let p = pfx("2001:db8:2::/48");
        // Poison T2: it drops the route via loop detection, so E3 reaches
        // E1 only if some path avoids T2 — there is none (E3's sole
        // provider is T2) ⇒ unreachable.
        e.announce_poisoned(AsId(1), p, BTreeSet::new(), &[AsId(20)])
            .unwrap();
        e.converge().unwrap();
        assert!(e.best_route(AsId(20), p).is_none());
        assert!(e.best_route(AsId(3), p).is_none());
        // T1 still reaches it (path through the poison-free side),
        // and sees the poisoned ASN on the path.
        assert_eq!(e.as_path(AsId(10), p).unwrap(), &[AsId(1), AsId(20)]);
    }

    #[test]
    fn forwarding_table_lpm() {
        let mut e = BgpEngine::new(topo());
        e.announce(AsId(1), pfx("2001:db8::/32"), BTreeSet::new())
            .unwrap();
        e.announce(AsId(3), pfx("2001:db8:1::/48"), BTreeSet::new())
            .unwrap();
        e.converge().unwrap();
        let ft = e.forwarding_table(AsId(2)).unwrap();
        // 2001:db8:1::/48 goes toward E3's more-specific; the rest of
        // 2001:db8::/32 toward E1.
        let (_, next) = ft.longest_match("2001:db8:1::3".parse().unwrap()).unwrap();
        assert_eq!(*next, AsId(10)); // E2's only neighbor is T1 either way
        let (p, _) = ft.longest_match("2001:db8:1::3".parse().unwrap()).unwrap();
        assert_eq!(p, pfx("2001:db8:1::/48"));
        let (p, _) = ft.longest_match("2001:db8:c8::1".parse().unwrap()).unwrap();
        assert_eq!(p, pfx("2001:db8::/32"));
    }

    #[test]
    fn trace_path_follows_hops() {
        let mut e = BgpEngine::new(topo());
        let p = pfx("2001:db8:3::/48");
        e.announce(AsId(3), p, BTreeSet::new()).unwrap();
        e.converge().unwrap();
        assert_eq!(
            e.trace_path(AsId(1), p).unwrap(),
            vec![AsId(1), AsId(10), AsId(20), AsId(3)]
        );
        assert_eq!(e.trace_path(AsId(3), p).unwrap(), vec![AsId(3)]);
        assert!(e.trace_path(AsId(1), pfx("2001:db8:99::/48")).is_none());
    }

    #[test]
    fn neighbor_pref_steers_equal_candidates() {
        // E1 multihomes to T1 and T2; T1 and T2 both provide E2... make a
        // node with two equal-length provider routes and a pref.
        let mut t = Topology::new();
        for id in [1u32, 10, 20, 5] {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        t.add_provider(AsId(1), AsId(10), lp()).unwrap();
        t.add_provider(AsId(1), AsId(20), lp()).unwrap();
        t.add_provider(AsId(5), AsId(10), lp()).unwrap();
        t.add_provider(AsId(5), AsId(20), lp()).unwrap();
        let p = pfx("2001:db8:5::/48");
        let path_at_1 = |prefs: BTreeMap<AsId, u32>| {
            let mut e = BgpEngine::new(t.clone());
            e.set_neighbor_pref(AsId(1), prefs).unwrap();
            e.announce(AsId(5), p, BTreeSet::new()).unwrap();
            e.converge().unwrap();
            e.as_path(AsId(1), p).unwrap().to_vec()
        };
        // Without prefs, the tie-break is lowest neighbor id (10).
        assert_eq!(path_at_1(BTreeMap::new()), [AsId(10), AsId(5)]);
        // With a pref for 20, the route flips.
        assert_eq!(path_at_1([(AsId(20), 40)].into()), [AsId(20), AsId(5)]);
    }

    #[test]
    fn private_asn_stripping_at_border() {
        // tenant (private ASN) -> border -> transit.
        let mut t = Topology::new();
        for id in [64701u32, 20473, 2914] {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        t.add_provider(AsId(64701), AsId(20473), lp()).unwrap();
        t.add_provider(AsId(20473), AsId(2914), lp()).unwrap();
        let mut e = BgpEngine::new(t);
        e.set_strip_private(AsId(20473), true).unwrap();
        let p = pfx("2001:db8:100::/48");
        e.announce(AsId(64701), p, BTreeSet::new()).unwrap();
        e.converge().unwrap();
        // NTT sees [20473] — the private tenant ASN is gone.
        assert_eq!(e.as_path(AsId(2914), p).unwrap(), &[AsId(20473)]);
    }

    /// Phase 0 takes its seeds as they were pushed: an origination edited
    /// twice before one convergence costs what announcing its final form
    /// once costs.
    #[test]
    fn an_origination_edited_twice_before_converging_is_exported_once() {
        let p = pfx("2001:db8:1::/48");
        let suppress: BTreeSet<_> = [Community::NoExportTo(AsId(20))].into();
        let run = |edit_twice: bool| {
            let mut t = topo();
            t.add_provider(AsId(1), AsId(20), lp()).unwrap();
            let registry = Registry::new();
            let mut e = BgpEngine::new(t);
            e.set_obs(&registry);
            e.set_honor_actions(AsId(1), true).unwrap();
            if edit_twice {
                e.announce(AsId(1), p, BTreeSet::new()).unwrap();
                assert!(e
                    .set_announcement_communities(AsId(1), p, suppress.clone())
                    .unwrap());
            } else {
                e.announce(AsId(1), p, suppress.clone()).unwrap();
            }
            let rounds = e.converge().unwrap();
            let updates = registry.snapshot().counters["bgp.updates_processed"];
            (rounds, updates, e.as_path(AsId(3), p).map(<[AsId]>::to_vec))
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).2.unwrap(), [AsId(20), AsId(10), AsId(1)]);
    }

    /// Re-sending the community set an origination already carries is no
    /// edit: the prefix is not blanked, so there is nothing to converge.
    #[test]
    fn an_unchanged_community_set_is_not_an_edit() {
        let mut t = topo();
        t.add_provider(AsId(1), AsId(20), lp()).unwrap();
        let registry = Registry::new();
        let mut e = BgpEngine::new(t);
        e.set_obs(&registry);
        e.set_honor_actions(AsId(1), true).unwrap();
        let p = pfx("2001:db8:1::/48");
        let suppress: BTreeSet<_> = [Community::NoExportTo(AsId(20))].into();
        e.announce(AsId(1), p, suppress.clone()).unwrap();
        e.converge().unwrap();
        let updates = || registry.snapshot().counters["bgp.updates_processed"];
        let (before, heap) = (updates(), e.rib_heap_bytes());
        assert!(!e
            .set_announcement_communities(AsId(1), p, suppress)
            .unwrap());
        assert_eq!(e.converge().unwrap(), 0, "no rounds");
        assert_eq!(updates(), before, "no updates");
        assert_eq!(e.rib_heap_bytes(), heap);
        assert_eq!(
            e.as_path(AsId(3), p).unwrap(),
            &[AsId(20), AsId(10), AsId(1)]
        );
    }

    /// A 100-AS internet with one host prefix converged at each of its 8
    /// PoPs (which honor the action communities discovery attaches).
    fn churn_mesh() -> (BgpEngine, Vec<AsId>) {
        churn_mesh_with(|_, _| {})
    }

    /// [`churn_mesh`], with `configure` applied before the announcements.
    fn churn_mesh_with(configure: impl Fn(&mut BgpEngine, &[AsId])) -> (BgpEngine, Vec<AsId>) {
        use tango_topology::gen::{try_generate, GenParams};
        let g = try_generate(&GenParams::internet(100, 8, 1)).expect("preset is valid");
        let pops = g.edge_sites;
        let mut e = BgpEngine::new(g.topology);
        for &pop in &pops {
            e.set_honor_actions(pop, true).unwrap();
        }
        configure(&mut e, &pops);
        for (i, &pop) in pops.iter().enumerate() {
            let host = pfx(&format!("2001:db8:{:x}::/48", 0x1000 + i));
            e.announce(pop, host, BTreeSet::new()).unwrap();
        }
        e.converge().unwrap();
        (e, pops)
    }

    /// One discovery probe, start to finish, under a prefix of its own.
    fn probe_cycle(e: &mut BgpEngine, announcer: AsId, observer: AsId, cycle: usize) {
        let probe = pfx(&format!("2001:db8:{:x}::/48", 0x2000 + cycle));
        e.announce(announcer, probe, BTreeSet::new()).unwrap();
        e.converge().unwrap();
        // One §4.1 step: suppress the transit the probe exits through.
        let path = e.as_path(observer, probe).expect("the graph is connected");
        let exit = Community::NoExportTo(path[path.len() - 2]);
        assert!(e
            .set_announcement_communities(announcer, probe, [exit].into())
            .unwrap());
        e.converge().unwrap();
        assert!(e.withdraw(announcer, probe).unwrap());
        e.converge().unwrap();
    }

    /// The workspace-side twin of the benchmark's "discovery left probe
    /// routes in the RIB" violation, and the guard on its heap bound: a
    /// thousand probes under a thousand prefixes leave nothing behind,
    /// because each reuses the id — and so the column — the one before it
    /// gave back. A column is as large as the graph's sessions whatever it
    /// holds, so the heap stands still from the second rotation over the
    /// 8 announcers on.
    #[test]
    fn probe_churn_leaves_no_prefix_state_behind() {
        let (mut e, pops) = churn_mesh();
        let base = e.rib_stats();
        let mut heap_after_rotation = Vec::new();
        for cycle in 0..1000 {
            let announcer = pops[cycle % pops.len()];
            let observer = pops[(cycle + 1) % pops.len()];
            probe_cycle(&mut e, announcer, observer, cycle);
            if (cycle + 1) % pops.len() == 0 {
                heap_after_rotation.push(e.rib_heap_bytes());
            }
        }
        assert_eq!(heap_after_rotation.len(), 125);
        assert_eq!(heap_after_rotation[49], heap_after_rotation[1]);
        assert_eq!(heap_after_rotation[124], heap_after_rotation[1]);
        assert_eq!(e.rib_stats(), base);
        assert_eq!(e.prefixes.ids.len(), pops.len(), "host prefixes only");
        assert_eq!(
            (e.prefixes.prefixes.len(), e.prefixes.free.len()),
            (pops.len() + 1, 1),
            "one id served every probe"
        );
        assert!(e.columns.len() <= pops.len() + 1, "one column per id");
    }

    /// The same bound with one announcer: its thousandth probe finds the
    /// column its second one left, at the size it left it.
    #[test]
    fn probe_churn_from_one_announcer_stops_growing_the_heap() {
        let (mut e, pops) = churn_mesh();
        let mut heap_after_second = 0;
        for cycle in 0..1000 {
            probe_cycle(&mut e, pops[0], pops[1], cycle);
            if cycle == 1 {
                heap_after_second = e.rib_heap_bytes();
            }
        }
        assert_eq!(e.rib_heap_bytes(), heap_after_second);
    }

    /// A thousand distinct community sets on one probe, each edit
    /// shelving the fixpoint before it, and every fifth edit revisiting
    /// the set of four edits before: the shelf stays within twice the
    /// columns' slot bytes by dropping its oldest entries, the revisits
    /// are rebuilt, and the probe ends as a fresh engine has it.
    #[test]
    fn a_thousand_community_sets_keep_the_shelf_within_its_bound() {
        let (mut e, pops) = churn_mesh();
        let probe = pfx("2001:db8:2000::/48");
        e.announce(pops[0], probe, BTreeSet::new()).unwrap();
        e.converge().unwrap();
        let slots = e.columns.len() * e.offsets[e.speakers.len()] as usize;
        let bound = 2 * slots as u64 * 4;
        let set = |k: u32| -> BTreeSet<_> {
            let d = if k % 5 == 4 { k - 4 - k / 5 } else { k - k / 5 };
            [
                Community::NoExportTo(AsId(d % 100)),
                Community::NoExportTo(AsId(1000 + d)),
            ]
            .into()
        };
        for k in 0..1250 {
            e.set_announcement_communities(pops[0], probe, set(k))
                .unwrap();
            e.converge().unwrap();
            assert!(
                e.shelf_heap_bytes() <= bound,
                "{} B after {k} sets",
                e.shelf_heap_bytes()
            );
        }
        assert!(e.shelf.len() < 1000, "the oldest entries went");
        assert_eq!(e.work().rebuilds, 250, "every revisit was rebuilt");
        let (mut fresh, _) = churn_mesh();
        fresh.announce(pops[0], probe, set(1249)).unwrap();
        fresh.converge().unwrap();
        assert_same_routes(&e, &fresh, probe);
    }

    /// Assert `a` and `b` agree on every speaker's best route and every
    /// session's advertisement for `p`.
    fn assert_same_routes(a: &BgpEngine, b: &BgpEngine, p: IpCidr) {
        for s in &a.speakers {
            let at = s.asid();
            assert_eq!(a.best_route(at, p), b.best_route(at, p), "{at:?} for {p}");
            for to in s.neighbors().iter().map(|n| n.id) {
                let sent = |e: &BgpEngine| e.advertisement(at, to, p);
                assert_eq!(sent(a), sent(b), "{at:?} -> {to:?} for {p}");
            }
        }
    }

    /// A live prefix that is never blanked: a second origin announces
    /// and withdraws it a thousand times, each step converging
    /// incrementally over the routes in place, on a mesh where one PoP
    /// prefers a neighbor. The garbage every step leaves in the column's
    /// arena is compacted away, so once the first compaction has sized
    /// the arena (the warm-up), the heap after the last cycle is no
    /// larger than after the first, and the routes are a fresh engine's.
    #[test]
    fn an_arena_stays_bounded_under_incremental_churn() {
        let prefer_first = |e: &mut BgpEngine, pops: &[AsId]| {
            let first = e.speakers[e.index_of(pops[2]).unwrap()].neighbors()[0].id;
            e.set_neighbor_pref(pops[2], [(first, 30)].into()).unwrap();
        };
        let (mut e, pops) = churn_mesh_with(prefer_first);
        let host = pfx("2001:db8:1000::/48");
        let cycle = |e: &mut BgpEngine| {
            e.announce(pops[1], host, BTreeSet::new()).unwrap();
            e.converge().unwrap();
            e.withdraw(pops[1], host).unwrap();
            e.converge().unwrap();
        };
        while e.work().compactions == 0 {
            cycle(&mut e);
        }
        cycle(&mut e);
        let heap_after_first = e.rib_heap_bytes();
        for _ in 1..1000 {
            cycle(&mut e);
        }
        assert!(e.work().compactions > 100, "the churn is compacted away");
        assert!(e.rib_heap_bytes() <= heap_after_first);
        let (fresh, _) = churn_mesh_with(prefer_first);
        for i in 0..pops.len() {
            assert_same_routes(&e, &fresh, pfx(&format!("2001:db8:{:x}::/48", 0x1000 + i)));
        }
    }

    /// A twin-filled column shares its twin's arena; a withdrawal after
    /// the fill edits it incrementally, and its first append copies the
    /// arena. Both prefixes must end as a fresh engine has them.
    #[test]
    fn a_filled_column_edited_incrementally_equals_a_fresh_one() {
        let (mut e, pops) = churn_mesh();
        let (twin, filled) = (pfx("2001:db8:3000::/48"), pfx("2001:db8:3001::/48"));
        for p in [twin, filled] {
            for &pop in &pops[..2] {
                e.announce(pop, p, BTreeSet::new()).unwrap();
            }
            e.converge().unwrap();
        }
        assert_eq!(e.work().fills, 1, "the second prefix is the first's twin");
        e.withdraw(pops[1], filled).unwrap();
        e.converge().unwrap();
        let (mut fresh, _) = churn_mesh();
        for &pop in &pops[..2] {
            fresh.announce(pop, twin, BTreeSet::new()).unwrap();
        }
        fresh.announce(pops[0], filled, BTreeSet::new()).unwrap();
        fresh.converge().unwrap();
        assert_same_routes(&e, &fresh, twin);
        assert_same_routes(&e, &fresh, filled);
    }

    /// Phase 2 visits a pair once per update that landed on it. Here hub
    /// 100 hears the origin's prefix from its three customers 10, 20 and
    /// 30 in the same round: the first visit installs the winner, the
    /// other two change nothing, and the hub exports once. The literal
    /// counts are what the sorted, deduplicated worklist produced.
    #[test]
    fn a_pair_delivered_to_three_times_in_a_round_is_exported_once() {
        let mut t = Topology::new();
        for id in [1u32, 5, 10, 20, 30, 100] {
            t.add_node(AsNode::new(id, AsKind::Transit, format!("{id}")))
                .unwrap();
        }
        for mid in [10, 20, 30] {
            t.add_provider(AsId(1), AsId(mid), lp()).unwrap();
            t.add_provider(AsId(mid), AsId(100), lp()).unwrap();
        }
        t.add_provider(AsId(5), AsId(100), lp()).unwrap();
        let registry = Registry::new();
        let mut e = BgpEngine::new(t);
        e.set_obs(&registry);
        let p = pfx("2001:db8:f::/48");
        e.announce(AsId(1), p, BTreeSet::new()).unwrap();
        assert_eq!(e.converge().unwrap(), 3);
        assert_eq!(registry.snapshot().counters["bgp.updates_processed"], 9);
        let hub = e.rib_lens(AsId(100));
        assert_eq!(hub.adj_rib_in, 3, "one route from each customer");
        assert_eq!(hub.adj_rib_out, 4, "one advertisement per neighbor");
        assert_eq!(
            e.as_path(AsId(5), p).unwrap(),
            &[AsId(100), AsId(10), AsId(1)]
        );
        assert_eq!(e.converge().unwrap(), 0, "nothing left to re-decide");
    }

    #[test]
    fn unknown_speaker_errors() {
        let mut e = BgpEngine::new(topo());
        assert_eq!(
            e.announce(AsId(999), pfx("2001:db8::/32"), BTreeSet::new())
                .unwrap_err(),
            EngineError::UnknownSpeaker(AsId(999))
        );
        assert!(e.forwarding_table(AsId(999)).is_err());
        assert!(e.prefixes.ids.is_empty(), "a failed announce mints no id");
    }
}
