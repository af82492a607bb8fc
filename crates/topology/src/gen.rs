//! Seeded random topology generation: internet-scale scale-free AS
//! graphs.
//!
//! §6 of the paper ("From Tango of 2 to Tango of N") envisions Tango
//! pairings as building blocks of a wider overlay. The generator here
//! produces the Internet-like graphs the Tango-of-N experiments and the
//! BGP scale tests run on, by Barabási–Albert preferential attachment:
//! the tier-1 clique seeds the process, each new transit attaches its
//! provider uplinks to existing transits with probability proportional
//! to degree, and peering links are drawn degree-preferentially on both
//! ends. The resulting transit degree distribution is heavy-tailed, like
//! the measured AS graph ("The Internet's Unexploited Path Diversity"
//! quantifies the multipath structure such graphs expose).
//! [`GenParams::internet`] is the one preset; callers override single
//! fields with `..GenParams::internet(..)`.
//!
//! Every edge carries a Gao-Rexford business
//! [`Relationship`](crate::graph::Relationship); `tango-bgp::policy`
//! lowers those labels into valley-free export filters. The hierarchy
//! matters: under valley-free export, a flat peer-only core would leave
//! non-adjacent transits unable to exchange customer routes. With a
//! tier-1 peer mesh on top and every transit's provider chain climbing
//! into it (true by construction), any edge reaches any edge: customer
//! routes climb to the tier-1s, cross at most one peering hop, and
//! descend — so generated pairings are always provisionable.
//!
//! Generation is a pure function of (parameters, seed): identical inputs
//! produce identical topologies, byte for byte, independent of shard
//! counts, worker threads, or host machine ([`Generated::digest`] is the
//! canonical fingerprint).

use crate::asys::{AsId, AsKind, AsNode};
use crate::graph::Topology;
use crate::link::{DirectionProfile, JitterModel, LinkProfile};
use crate::{MS, US};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tango_obs::{fnv1a, fnv1a_bytes, FNV1A_OFFSET};

/// Parameters for the random generator.
#[derive(Debug, Clone)]
pub struct GenParams {
    /// Number of tier-1 (fully meshed) core ASes. Must be ≥ 1.
    pub tier1: usize,
    /// Number of tier-2 transit ASes. Must be ≥ 1.
    pub transits: usize,
    /// Provider uplinks per new transit (min, max inclusive). The count
    /// is drawn uniformly; each uplink's provider is drawn with
    /// probability proportional to its current degree.
    pub uplinks: (usize, usize),
    /// Expected peering links per transit. The generator places
    /// `transits * peering_per_transit / 2` peer edges, both endpoints
    /// drawn degree-preferentially (large transits peer more, as in the
    /// measured Internet).
    pub peering_per_transit: f64,
    /// Number of edge sites (cloud/enterprise borders that could run Tango).
    pub edges: usize,
    /// Providers per edge site (min, max inclusive), drawn from all
    /// transits (tier-1 and tier-2). Must satisfy `1 <= min <= max`.
    pub providers_per_edge: (usize, usize),
    /// Base one-way delay of the transit→edge delivery direction
    /// (min, max ns) — the continental-crossing share, placed as in the
    /// Vultr scenario.
    pub crossing_delay_ns: (u64, u64),
    /// Jitter sigma range for crossings (min, max ns).
    pub crossing_sigma_ns: (u64, u64),
    /// RNG seed: identical parameters + seed ⇒ identical topology.
    pub seed: u64,
}

/// Parameter-validation failures, reported **before** any generation
/// work starts (previously bad parameters panicked deep inside the
/// generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// `tier1 == 0`: the tier-1 clique seeds the growth.
    NoTier1,
    /// `transits == 0`: the core needs at least one tier-2 transit.
    NoTransits,
    /// `edges == 0`: nothing to pair.
    NoEdges,
    /// `providers_per_edge` violates `1 <= min <= max`.
    BadProviderRange {
        /// The offending (min, max) pair.
        range: (usize, usize),
    },
    /// A `(min, max)` delay or sigma range with `min > max`.
    BadDelayRange {
        /// The offending (min, max) pair, ns.
        range_ns: (u64, u64),
    },
    /// `uplinks` violates `1 <= min <= max`.
    BadUplinkRange {
        /// The offending (min, max) pair.
        range: (usize, usize),
    },
    /// `peering_per_transit` is negative or NaN.
    BadPeeringRate,
    /// The id plan cannot fit this many transits (tier-2 ids live in
    /// `[TRANSIT_BASE, EDGE_BASE)`).
    TooManyTransits {
        /// Requested tier-2 transit count.
        requested: usize,
        /// The largest representable count.
        max: usize,
    },
}

impl core::fmt::Display for GenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GenError::NoTier1 => write!(f, "tier1 must be >= 1"),
            GenError::NoTransits => write!(f, "transits must be >= 1"),
            GenError::NoEdges => write!(f, "edges must be >= 1"),
            GenError::BadProviderRange { range } => {
                write!(
                    f,
                    "providers_per_edge ({}, {}) must satisfy 1 <= min <= max",
                    range.0, range.1
                )
            }
            GenError::BadDelayRange { range_ns } => {
                write!(
                    f,
                    "delay range ({}, {}) ns has min > max",
                    range_ns.0, range_ns.1
                )
            }
            GenError::BadUplinkRange { range } => {
                write!(
                    f,
                    "scale-free uplinks ({}, {}) must satisfy 1 <= min <= max",
                    range.0, range.1
                )
            }
            GenError::BadPeeringRate => {
                write!(f, "peering_per_transit must be finite and >= 0")
            }
            GenError::TooManyTransits { requested, max } => {
                write!(f, "{requested} transits exceed the id plan's maximum {max}")
            }
        }
    }
}

impl std::error::Error for GenError {}

impl GenParams {
    /// Validate every field, returning the first violation. Called by
    /// [`try_generate`]; callers constructing parameters from external
    /// input should call it directly for early feedback.
    pub fn validate(&self) -> Result<(), GenError> {
        if self.tier1 == 0 {
            return Err(GenError::NoTier1);
        }
        if self.transits == 0 {
            return Err(GenError::NoTransits);
        }
        if self.edges == 0 {
            return Err(GenError::NoEdges);
        }
        let (pmin, pmax) = self.providers_per_edge;
        if pmin == 0 || pmin > pmax {
            return Err(GenError::BadProviderRange {
                range: self.providers_per_edge,
            });
        }
        if self.crossing_delay_ns.0 > self.crossing_delay_ns.1 {
            return Err(GenError::BadDelayRange {
                range_ns: self.crossing_delay_ns,
            });
        }
        if self.crossing_sigma_ns.0 > self.crossing_sigma_ns.1 {
            return Err(GenError::BadDelayRange {
                range_ns: self.crossing_sigma_ns,
            });
        }
        let max_transits = (EDGE_BASE - TRANSIT_BASE) as usize;
        if self.transits > max_transits {
            return Err(GenError::TooManyTransits {
                requested: self.transits,
                max: max_transits,
            });
        }
        if self.uplinks.0 == 0 || self.uplinks.0 > self.uplinks.1 {
            return Err(GenError::BadUplinkRange {
                range: self.uplinks,
            });
        }
        if !self.peering_per_transit.is_finite() || self.peering_per_transit < 0.0 {
            return Err(GenError::BadPeeringRate);
        }
        Ok(())
    }

    /// The generator's one preset: a scale-free graph of `ases` total
    /// ASes with `edges` Tango-capable edge sites. The tier-1 clique
    /// grows slowly with size (real tier-1 counts are O(10) regardless
    /// of Internet growth); everything else is tier-2 transit mass wired
    /// by preferential attachment. Override single fields with
    /// `..GenParams::internet(..)`.
    pub fn internet(ases: usize, edges: usize, seed: u64) -> GenParams {
        let tier1 = (ases / 100).clamp(4, 12);
        let transits = ases.saturating_sub(tier1 + edges).max(1);
        GenParams {
            tier1,
            transits,
            uplinks: (1, 2),
            peering_per_transit: 0.6,
            edges,
            providers_per_edge: (2, 3),
            crossing_delay_ns: (15 * MS, 60 * MS),
            crossing_sigma_ns: (10 * US, 400 * US),
            seed,
        }
    }
}

/// A generated topology plus the ids of its notable node groups.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The topology.
    pub topology: Topology,
    /// Edge-site node ids (candidates for Tango endpoints).
    pub edge_sites: Vec<AsId>,
    /// All transit ids (tier-1 first, then tier-2).
    pub transits: Vec<AsId>,
    /// The tier-1 subset.
    pub tier1: Vec<AsId>,
}

impl Generated {
    /// Canonical deterministic fingerprint of the whole generated graph:
    /// nodes (id, kind, name), edges (endpoints, relationship, both
    /// direction profiles), and the group lists, folded through FNV-1a
    /// in the graph's total iteration order. Identical parameters + seed
    /// ⇒ identical digest on every machine, shard count, and run.
    pub fn digest(&self) -> u64 {
        let id = |h, id: AsId| fnv1a(h, u64::from(id.0));
        let text = |h, s: &str| fnv1a_bytes(h, s.as_bytes());
        let mut h = FNV1A_OFFSET;
        for node in self.topology.nodes() {
            h = id(h, node.id);
            h = text(h, &format!("{:?}", node.kind));
            h = text(h, &node.name);
            for &peer in self.topology.neighbors(node.id) {
                h = id(h, peer);
                h = text(
                    h,
                    &format!("{:?}", self.topology.relationship(node.id, peer)),
                );
                if let Some(p) = self.topology.direction_profile(node.id, peer) {
                    h = text(h, &format!("{p:?}"));
                }
            }
        }
        for group in [&self.edge_sites, &self.transits, &self.tier1] {
            h = group.iter().fold(h, |h, &a| id(h, a));
        }
        h
    }
}

/// Tier-1 ids start here.
const TIER1_BASE: u32 = 10;
/// Tier-2 transit ids start here.
const TRANSIT_BASE: u32 = 100;
/// Edge-site ids start here.
const EDGE_BASE: u32 = 10_000;

fn core_link(rng: &mut StdRng) -> LinkProfile {
    let d = rng.gen_range(500 * US..2 * MS);
    LinkProfile::symmetric(
        DirectionProfile::constant(d).with_jitter(JitterModel::Gaussian { sigma_ns: 30 * US }),
    )
}

fn crossing_link(rng: &mut StdRng, params: &GenParams) -> LinkProfile {
    let cross = rng.gen_range(params.crossing_delay_ns.0..=params.crossing_delay_ns.1);
    let sigma = rng.gen_range(params.crossing_sigma_ns.0..=params.crossing_sigma_ns.1);
    LinkProfile::asymmetric(
        DirectionProfile::constant(150 * US)
            .with_jitter(JitterModel::Gaussian { sigma_ns: 3 * US }),
        DirectionProfile::constant(cross).with_jitter(JitterModel::Gaussian { sigma_ns: sigma }),
    )
}

/// Generate a random Internet-like topology, panicking on invalid
/// parameters. Prefer [`try_generate`] when parameters come from
/// anywhere but a literal.
pub fn generate(params: &GenParams) -> Generated {
    match try_generate(params) {
        Ok(g) => g,
        Err(e) => panic!("invalid GenParams: {e}"),
    }
}

/// Generate a random Internet-like topology.
///
/// Guarantees (by construction, tested below): the tier-1 core is a
/// full peer mesh; every tier-2 transit has a provider chain that climbs
/// to a tier-1; every edge site has at least one provider. Under
/// valley-free (Gao-Rexford) export this implies full edge-to-edge
/// reachability.
pub fn try_generate(params: &GenParams) -> Result<Generated, GenError> {
    params.validate()?;
    Ok(generate_scale_free(params))
}

/// Degree-proportional endpoint sampler for Barabási–Albert growth: the
/// classic "repeated endpoints" pool, where each node appears once per
/// incident edge, so a uniform draw from the pool is a degree-weighted
/// draw over nodes.
struct AttachmentPool {
    endpoints: Vec<AsId>,
}

impl AttachmentPool {
    fn new() -> Self {
        AttachmentPool {
            endpoints: Vec::new(),
        }
    }

    /// Record one edge: both endpoints gain a degree.
    fn add_edge(&mut self, a: AsId, b: AsId) {
        self.endpoints.push(a);
        self.endpoints.push(b);
    }

    /// Draw a node with probability proportional to degree, excluding
    /// `banned` ids. Falls back to a deterministic scan when rejection
    /// sampling runs long (tiny pools).
    fn draw(&self, rng: &mut StdRng, banned: &[AsId]) -> Option<AsId> {
        if self.endpoints.is_empty() {
            return None;
        }
        for _ in 0..64 {
            let pick = self.endpoints[rng.gen_range(0..self.endpoints.len())];
            if !banned.contains(&pick) {
                return Some(pick);
            }
        }
        self.endpoints.iter().copied().find(|p| !banned.contains(p))
    }
}

/// Barabási–Albert growth over the transit core: tier-1 clique seeds
/// the pool; each new tier-2 transit attaches 1..=m provider uplinks
/// degree-preferentially; peer edges are drawn degree-preferentially on
/// both ends. Edge sites multihome into the core, also
/// degree-preferentially, so large providers accumulate edge customers,
/// as on the real Internet.
fn generate_scale_free(params: &GenParams) -> Generated {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut t = Topology::new();
    let mut pool = AttachmentPool::new();

    let tier1: Vec<AsId> = (0..params.tier1)
        .map(|i| AsId(TIER1_BASE + i as u32))
        .collect();
    for (i, &id) in tier1.iter().enumerate() {
        t.add_node(AsNode::new(id, AsKind::Transit, format!("T1-{i}")))
            .expect("unique");
    }
    for i in 0..tier1.len() {
        for j in (i + 1)..tier1.len() {
            let p = core_link(&mut rng);
            t.add_peering(tier1[i], tier1[j], p)
                .expect("mesh edge is new");
            pool.add_edge(tier1[i], tier1[j]);
        }
    }
    // A single tier-1 forms no clique edge; seed its pool presence so
    // preferential attachment has a root to find.
    if tier1.len() == 1 {
        pool.endpoints.push(tier1[0]);
    }

    // Growth phase: each new transit is a customer of 1..=m existing
    // transits, chosen preferentially by degree.
    let tier2: Vec<AsId> = (0..params.transits)
        .map(|i| AsId(TRANSIT_BASE + i as u32))
        .collect();
    for (i, &id) in tier2.iter().enumerate() {
        t.add_node(AsNode::new(id, AsKind::Transit, format!("T2-{i}")))
            .expect("unique");
        let want = rng.gen_range(params.uplinks.0..=params.uplinks.1);
        let mut chosen: Vec<AsId> = vec![id]; // never attach to self
        for _ in 0..want {
            let Some(up) = pool.draw(&mut rng, &chosen) else {
                break;
            };
            chosen.push(up);
            let p = core_link(&mut rng);
            t.add_provider(id, up, p).expect("new uplink");
            pool.add_edge(id, up);
        }
    }

    // Peering phase: expected `peering_per_transit` peer links per
    // tier-2 transit, endpoints degree-preferential on both sides.
    let peer_links = ((params.transits as f64) * params.peering_per_transit / 2.0) as usize;
    for _ in 0..peer_links {
        // Draw two distinct endpoints; skip (deterministically) if the
        // pair is already linked — BA pools make repeats likely around
        // the hubs, and a skipped draw is cheaper than a retry loop.
        let Some(a) = pool.draw(&mut rng, &[]) else {
            break;
        };
        let Some(b) = pool.draw(&mut rng, &[a]) else {
            break;
        };
        if t.relationship(a, b).is_some() {
            continue;
        }
        let p = core_link(&mut rng);
        t.add_peering(a, b, p).expect("checked absent");
        pool.add_edge(a, b);
    }

    let all_transits: Vec<AsId> = tier1.iter().chain(tier2.iter()).copied().collect();

    // Edge sites: multi-homed customers, providers drawn preferentially.
    let edge_sites: Vec<AsId> = (0..params.edges)
        .map(|i| AsId(EDGE_BASE + i as u32))
        .collect();
    for (i, &id) in edge_sites.iter().enumerate() {
        t.add_node(AsNode::new(id, AsKind::CloudEdge, format!("E{i}")))
            .expect("unique");
        let want = rng
            .gen_range(params.providers_per_edge.0..=params.providers_per_edge.1)
            .min(all_transits.len());
        let mut chosen: Vec<AsId> = vec![id];
        for _ in 0..want {
            let Some(provider) = pool.draw(&mut rng, &chosen) else {
                break;
            };
            chosen.push(provider);
            let profile = crossing_link(&mut rng, params);
            t.add_provider(id, provider, profile)
                .expect("new edge link");
            // Edge links do not enter the pool: preferential attachment
            // runs over the transit core only (stub ASes do not attract
            // transit customers on the real Internet either).
        }
    }

    Generated {
        topology: t,
        edge_sites,
        transits: all_transits,
        tier1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Relationship;

    /// A small preset graph: 60 ASes, 4 edge sites.
    fn small(seed: u64) -> GenParams {
        GenParams::internet(60, 4, seed)
    }

    #[test]
    fn deterministic_for_seed() {
        let p = small(1);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.topology.node_count(), b.topology.node_count());
        assert_eq!(a.topology.link_count(), b.topology.link_count());
        for n in a.topology.nodes() {
            assert_eq!(Some(n), b.topology.node(n.id));
            assert_eq!(a.topology.neighbors(n.id), b.topology.neighbors(n.id));
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seed_differs() {
        let a = generate(&small(1));
        let b = generate(&small(2));
        let adj_diff = a
            .topology
            .nodes()
            .any(|n| a.topology.neighbors(n.id) != b.topology.neighbors(n.id));
        assert!(a.topology.link_count() != b.topology.link_count() || adj_diff);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn tier1_is_full_peer_mesh() {
        let g = generate(&GenParams {
            tier1: 6,
            ..small(1)
        });
        assert_eq!(g.tier1.len(), 6);
        for i in 0..g.tier1.len() {
            for j in (i + 1)..g.tier1.len() {
                assert_eq!(
                    g.topology.relationship(g.tier1[i], g.tier1[j]),
                    Some(Relationship::PeerOf)
                );
            }
        }
    }

    #[test]
    fn every_edge_site_has_a_provider() {
        let g = generate(&GenParams {
            edges: 10,
            ..small(1)
        });
        for &e in &g.edge_sites {
            assert!(!g.topology.providers(e).is_empty(), "{e} has no provider");
        }
    }

    #[test]
    fn valley_free_reachability_between_all_edges() {
        // The property the tier-1 clique buys: every edge can reach every
        // other edge through customer→tier1→peer→customer chains. Verify
        // the climb: from the announcer, following providers reaches a
        // tier-1, which peers with (or is) every other tier-1.
        for seed in [1, 11, 42, 99] {
            let g = generate(&GenParams {
                tier1: 3,
                transits: 6,
                edges: 3,
                providers_per_edge: (1, 1),
                ..small(seed)
            });
            for &e in &g.edge_sites {
                let mut seen = std::collections::BTreeSet::from([e]);
                let mut frontier = vec![e];
                while let Some(n) = frontier.pop() {
                    frontier.extend(
                        g.topology
                            .providers(n)
                            .into_iter()
                            .filter(|p| seen.insert(*p)),
                    );
                }
                assert!(
                    g.tier1.iter().any(|t| seen.contains(t)),
                    "edge {e} cannot climb to tier-1 (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn respects_provider_bounds() {
        let g = generate(&GenParams {
            edges: 8,
            providers_per_edge: (1, 2),
            ..small(1)
        });
        for &e in &g.edge_sites {
            let n = g.topology.providers(e).len();
            assert!((1..=2).contains(&n), "{e} has {n} providers");
        }
    }

    #[test]
    fn single_tier1_degenerate_case() {
        let g = generate(&GenParams {
            tier1: 1,
            transits: 2,
            edges: 2,
            providers_per_edge: (1, 1),
            ..small(1)
        });
        assert_eq!(g.tier1.len(), 1);
        // Everything still hangs off the single tier-1: the first transit
        // can only attach to it, every later one to it or an earlier
        // transit.
        let tier2: Vec<AsId> = g.transits[1..].to_vec();
        assert_eq!(g.topology.providers(tier2[0]), vec![g.tier1[0]]);
        for (i, &t2) in tier2.iter().enumerate() {
            let ups = g.topology.providers(t2);
            assert!(!ups.is_empty(), "{t2} has no provider");
            assert!(ups
                .iter()
                .all(|u| *u == g.tier1[0] || tier2[..i].contains(u)));
        }
    }

    // ------------------------------------------------ validation --

    #[test]
    fn validation_rejects_inverted_provider_range() {
        let p = GenParams {
            providers_per_edge: (3, 2),
            ..small(1)
        };
        assert_eq!(
            p.validate(),
            Err(GenError::BadProviderRange { range: (3, 2) })
        );
        assert!(try_generate(&p).is_err());
    }

    #[test]
    fn validation_rejects_zero_min_providers() {
        let p = GenParams {
            providers_per_edge: (0, 2),
            ..small(1)
        };
        assert_eq!(
            p.validate(),
            Err(GenError::BadProviderRange { range: (0, 2) })
        );
    }

    #[test]
    fn validation_rejects_zero_counts() {
        for (p, want) in [
            (
                GenParams {
                    tier1: 0,
                    ..small(1)
                },
                GenError::NoTier1,
            ),
            (
                GenParams {
                    transits: 0,
                    ..small(1)
                },
                GenError::NoTransits,
            ),
            (
                GenParams {
                    edges: 0,
                    ..small(1)
                },
                GenError::NoEdges,
            ),
        ] {
            assert_eq!(p.validate(), Err(want.clone()));
            assert_eq!(try_generate(&p).unwrap_err(), want);
        }
    }

    #[test]
    fn validation_rejects_inverted_delay_ranges() {
        let p = GenParams {
            crossing_delay_ns: (10, 5),
            ..small(1)
        };
        assert!(matches!(
            p.validate(),
            Err(GenError::BadDelayRange { range_ns: (10, 5) })
        ));
        let p = GenParams {
            crossing_sigma_ns: (10, 5),
            ..small(1)
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_scale_free_knobs() {
        let p = GenParams {
            uplinks: (0, 2),
            ..small(1)
        };
        assert_eq!(
            p.validate(),
            Err(GenError::BadUplinkRange { range: (0, 2) })
        );
        let p = GenParams {
            uplinks: (2, 1),
            ..small(1)
        };
        assert!(p.validate().is_err());
        let p = GenParams {
            peering_per_transit: -1.0,
            ..small(1)
        };
        assert_eq!(p.validate(), Err(GenError::BadPeeringRate));
    }

    #[test]
    #[should_panic(expected = "invalid GenParams")]
    fn generate_panics_with_clear_message_on_bad_params() {
        generate(&GenParams {
            providers_per_edge: (5, 1),
            ..small(1)
        });
    }

    // ------------------------------------------------ scale-free --

    fn internet(ases: usize, edges: usize, seed: u64) -> Generated {
        generate(&GenParams::internet(ases, edges, seed))
    }

    #[test]
    fn scale_free_counts_and_determinism() {
        let g = internet(300, 8, 7);
        assert_eq!(g.topology.node_count(), 300);
        assert_eq!(g.edge_sites.len(), 8);
        let h = internet(300, 8, 7);
        assert_eq!(g.digest(), h.digest());
        assert_ne!(g.digest(), internet(300, 8, 8).digest());
    }

    #[test]
    fn scale_free_transits_climb_to_tier1() {
        let g = internet(400, 8, 3);
        for &t2 in g.transits.iter().filter(|t| !g.tier1.contains(t)) {
            // Follow any provider chain: it must reach a tier-1 (chains
            // always attach to earlier nodes, so they terminate).
            let mut at = t2;
            let mut hops = 0;
            while !g.tier1.contains(&at) {
                let ups = g.topology.providers(at);
                assert!(!ups.is_empty(), "{at} stranded without a provider");
                at = ups[0];
                hops += 1;
                assert!(hops < 1000, "provider chain does not terminate");
            }
        }
    }

    #[test]
    fn scale_free_is_connected() {
        let g = internet(500, 12, 11);
        let mut seen = std::collections::BTreeSet::new();
        let first = g.topology.nodes().next().expect("nonempty").id;
        let mut frontier = vec![first];
        seen.insert(first);
        while let Some(n) = frontier.pop() {
            for &p in g.topology.neighbors(n) {
                if seen.insert(p) {
                    frontier.push(p);
                }
            }
        }
        assert_eq!(seen.len(), g.topology.node_count());
    }

    #[test]
    fn scale_free_degrees_are_heavy_tailed() {
        let g = internet(1000, 16, 5);
        let mut degrees: Vec<usize> = g
            .transits
            .iter()
            .map(|&t| g.topology.neighbors(t).len())
            .collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().expect("nonempty");
        // Preferential attachment concentrates degree on hubs: the
        // biggest transit must dwarf the median one. (A uniform random
        // graph with the same edge count would have max ≈ median + a
        // few.)
        assert!(
            max >= 8 * median.max(1),
            "max degree {max} vs median {median}: not heavy-tailed"
        );
    }
}
