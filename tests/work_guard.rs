//! Work guard: exact counts of what the BGP engine executes
//! ([`BgpEngine::work`]) over the benchmark's canonical discovery plan —
//! the 500-AS / 20-PoP internet converged, then §4.1 discovery for every
//! unordered PoP pair in `(i, j)` order, the lower index observing, as
//! `tango::npop` runs it — next to the totals it reports, which must not
//! move. (The benchmark's `npop_discovery` walks the same pairs in a
//! seeded order and direction: 471 765 updates over 855 convergences at
//! `--seed 1`.)
//!
//! Each bound sits midway between this tree's exact count and the count
//! of the engine before its last saving (twin fills, then shelved
//! fixpoints), in `alloc_guard`'s style: a change that loses the saving
//! fails it, one that loses half of it does too.

use tango::npop::{NPopMesh, TrafficOutcome};

/// `bgp.updates_processed` over the run, mesh convergence included: what
/// flooding every step reports, and so what twin fills must bill.
const UPDATES_PROCESSED: u64 = 466_476;
/// Convergences over the run: the mesh, then 2 + paths per pair.
const CONVERGES: u64 = 860;
/// One fill per pair: discovery first announces the probe exactly as
/// the announcer's host prefix is announced, and the host prefix's
/// column is still the from-blank convergence of that announcement.
const FILLS: u64 = 190;
/// Suppression steps rebuilt from a shelved fixpoint: the first visit of
/// each (announcer, community set) floods, and a later pair that reaches
/// it rebuilds it.
const REBUILDS: u64 = 221;
/// Heap the shelf holds at the end (`BgpEngine::shelf_heap_bytes`): one
/// 500-speaker winner map per distinct suppression state that cost any
/// update, none evicted, under a bound of twice the columns' slot bytes
/// (306 768 B here).
const SHELF_BYTES: u64 = 145_344;
/// Route updates executed: exact 258 236 with shelved fixpoints (a
/// rebuild's exports deliver 176 396 of them), 280 572 with twin fills
/// alone, 466 476 when every step floods. Midway between the first two.
const MAX_UPDATES_EXECUTED: u64 = 269_404;
/// Decision-process runs: exact 82 308 with shelved fixpoints (a rebuild
/// runs none; 82 708 while the first convergence also re-decided every
/// column at each configured PoP), 281 661 with twin fills alone,
/// 467 755 when every step floods. Midway between 82 708 and 281 661.
const MAX_DECIDES: u64 = 182_184;

#[test]
fn canonical_discovery_executes_less_than_it_bills() {
    let mut mesh = NPopMesh::converge(500, 20, 1).expect("the preset graph converges");
    let pairs = mesh.discover(8).expect("discovery converges");
    let outcome = mesh.outcome(pairs, TrafficOutcome::default());
    assert_eq!(outcome.updates_processed, UPDATES_PROCESSED);
    assert_eq!(outcome.converges, CONVERGES);
    let work = mesh.engine().work();
    assert_eq!(work.fills, FILLS);
    assert_eq!(work.rebuilds, REBUILDS);
    assert_eq!(mesh.engine().shelf_heap_bytes(), SHELF_BYTES);
    assert!(
        work.updates < MAX_UPDATES_EXECUTED,
        "{} updates executed (limit {MAX_UPDATES_EXECUTED})",
        work.updates
    );
    assert!(
        work.decides < MAX_DECIDES,
        "{} decisions (limit {MAX_DECIDES})",
        work.decides
    );
}
