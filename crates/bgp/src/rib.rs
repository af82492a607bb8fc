//! Routes and the BGP decision process.
//!
//! What travels in an UPDATE — AS path, communities, MED — is immutable
//! once built and lives in one shared [`PathAttrs`] allocation: the
//! sender's Adj-RIB-Out, every receiver's Adj-RIB-In and their Loc-RIBs
//! all hold the same `Rc` — not `Arc`: an engine and all it shares stay
//! on one thread, so a clone or drop on the update path is a plain
//! increment. A [`Route`] is that handle plus the three fields the
//! *receiver* computes on import.

use crate::community::Community;
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
    if a.local_pref != b.local_pref {
        return a.local_pref > b.local_pref;
    }
    if a.path_len() != b.path_len() {
        return a.path_len() < b.path_len();
    }
    if a.attrs.med != b.attrs.med {
        return a.attrs.med < b.attrs.med;
    }
    if a.tie_pref != b.tie_pref {
        return a.tie_pref > b.tie_pref;
    }
    let na = a.source.neighbor().map(|n| n.0).unwrap_or(0);
    let nb = b.source.neighbor().map(|n| n.0).unwrap_or(0);
    na < nb
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
