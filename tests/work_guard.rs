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
//! of the engine before twin fills, in `alloc_guard`'s style: a change
//! that loses the saving fails it, one that loses half of it does too.

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
/// Route updates executed: exact 280 572 with twin fills, 466 476 when
/// every step floods (the 190 fills skip 185 904). Midway between the
/// two.
const MAX_UPDATES_EXECUTED: u64 = 373_524;
/// Decision-process runs: exact 281 661 with twin fills, 467 755 when
/// every step floods. Midway between the two.
const MAX_DECIDES: u64 = 374_708;

#[test]
fn canonical_discovery_executes_less_than_it_bills() {
    let mut mesh = NPopMesh::converge(500, 20, 1).expect("the preset graph converges");
    let pairs = mesh.discover(8).expect("discovery converges");
    let outcome = mesh.outcome(pairs, TrafficOutcome::default());
    assert_eq!(outcome.updates_processed, UPDATES_PROCESSED);
    assert_eq!(outcome.converges, CONVERGES);
    let work = mesh.engine().work();
    assert_eq!(work.fills, FILLS);
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
