//! Property-based tests for the BGP layer: decision-process consistency
//! on arbitrary inputs.

use proptest::prelude::*;
use std::rc::Rc;
use tango_bgp::rib::{best_of, better};
use tango_bgp::{Community, PathAttrs, Route, RouteSource};
use tango_topology::AsId;

fn arb_community() -> impl Strategy<Value = Community> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(a, v)| Community::Plain(a, v)),
        Just(Community::NoExport),
        Just(Community::NoAdvertise),
        (1u32..100_000).prop_map(|a| Community::NoExportTo(AsId(a))),
        ((1u32..100_000), 1u8..=3).prop_map(|(a, n)| Community::PrependTo(AsId(a), n)),
    ]
}

fn arb_route() -> impl Strategy<Value = Route> {
    (
        proptest::collection::vec(1u32..1_000_000, 0..8),
        proptest::collection::btree_set(arb_community(), 0..4),
        0u32..400,
        0u32..100,
        0u32..100,
        1u32..1_000_000,
    )
        .prop_map(
            |(path, communities, local_pref, med, tie_pref, neighbor)| Route {
                attrs: Rc::new(PathAttrs {
                    as_path: path.into_iter().map(AsId).collect(),
                    communities: Rc::new(communities),
                    med,
                }),
                source: RouteSource::Neighbor(AsId(neighbor)),
                local_pref,
                tie_pref,
            },
        )
}

proptest! {
    #[test]
    fn decision_winner_is_undominated(routes in proptest::collection::vec(arb_route(), 1..10)) {
        let w = best_of(&routes).unwrap();
        for (i, r) in routes.iter().enumerate() {
            prop_assert!(!better(r, w), "candidate {i} beats declared winner {w:?}");
        }
    }

    #[test]
    fn decision_permutation_invariant(routes in proptest::collection::vec(arb_route(), 1..8), rot in 0usize..8) {
        let w1 = best_of(&routes).unwrap();
        let mut rotated = routes.clone();
        rotated.rotate_left(rot % routes.len());
        let w2 = best_of(&rotated).unwrap();
        // Winners must agree on every decision-relevant attribute (full
        // equality can differ only when two candidates are decision-equal
        // duplicates, in which case either is acceptable).
        prop_assert_eq!(w1.local_pref, w2.local_pref);
        prop_assert_eq!(w1.path_len(), w2.path_len());
        prop_assert_eq!(w1.attrs.med, w2.attrs.med);
        prop_assert_eq!(w1.tie_pref, w2.tie_pref);
        prop_assert_eq!(w1.source.neighbor(), w2.source.neighbor());
    }

    #[test]
    fn better_is_asymmetric(a in arb_route(), b in arb_route()) {
        prop_assert!(!(better(&a, &b) && better(&b, &a)));
        prop_assert!(!better(&a, &a));
    }
}

/// A tiny deterministic exhaustive check alongside the random ones:
/// `better` must be transitive over a concrete sample (strict weak
/// ordering sanity — required for the decision loop to be well-defined).
#[test]
fn better_transitive_on_sample() {
    let mk = |lp: u32, len: usize, med: u32, tie: u32, n: u32| Route {
        attrs: Rc::new(PathAttrs {
            as_path: (0..len).map(|i| AsId(i as u32 + 1)).collect(),
            communities: Rc::default(),
            med,
        }),
        source: RouteSource::Neighbor(AsId(n)),
        local_pref: lp,
        tie_pref: tie,
    };
    let mut routes = Vec::new();
    for lp in [100, 200] {
        for len in [1usize, 2] {
            for med in [0, 5] {
                for tie in [0, 9] {
                    for n in [3, 7] {
                        routes.push(mk(lp, len, med, tie, n));
                    }
                }
            }
        }
    }
    for a in &routes {
        for b in &routes {
            for c in &routes {
                if better(a, b) && better(b, c) {
                    assert!(better(a, c), "transitivity violated");
                }
            }
        }
    }
}
