//! The internet-scale Tango-of-N mesh: N edge PoPs on a generated
//! scale-free AS graph, every pair running §4.1 path discovery.
//!
//! One connected Gao-Rexford topology of hundreds to thousands of ASes
//! ([`GenParams::internet`]), N Tango-capable edge sites, and the full
//! all-pairs discovery workload the paper's §6 sketches for "Tango
//! networks of N participants". The run has three phases, each a method
//! of [`NPopMesh`] so a caller can stop after, repeat, or time any one:
//!
//! 1. **Mesh convergence** ([`NPopMesh::converge`]) — every PoP
//!    announces one /48 host prefix; one BGP convergence installs
//!    all-pairs reachability.
//! 2. **All-pairs discovery** ([`NPopMesh::discover`]) — for each
//!    unordered PoP pair, the suppress-and-observe loop of
//!    [`tango_control::discover_paths`] enumerates the wide-area paths
//!    BGP can be coaxed into exposing. Every observed path is checked
//!    against the Gao-Rexford valley-free property
//!    ([`tango_bgp::policy::path_is_valley_free`]), and its
//!    propagation-delay stretch vs the BGP default is recorded.
//! 3. **Traffic** ([`NPopMesh::routed_sim`] + [`NPopMesh::inject`], or
//!    [`NPopMesh::run_traffic`] for both and the run) — a [`NetworkSim`]
//!    over the same graph (sharded, any shard count bit-identical)
//!    forwards host packets between the PoPs through per-node
//!    longest-prefix-match [`RouterAgent`]s. Discovery withdraws every
//!    probe it announces, so the phase sees the same forwarding tables
//!    with or without phase 2.
//!
//! [`run_npop`] is the three in order. Everything observable is folded
//! into a deterministic digest so the scalability sweep (`experiments
//! scalability`) can assert bit-identity across runs and shard counts.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;

use tango_bgp::engine::RibStats;
use tango_bgp::policy::path_is_valley_free;
use tango_bgp::{BgpEngine, EngineError};
use tango_control::{discover_paths, DiscoveryError, SideConfig};
use tango_net::{IpCidr, Ipv6Cidr};
use tango_obs::{fnv1a, fnv1a_bytes, Registry, FNV1A_OFFSET};
use tango_sim::{NetworkSim, Packet, RouterAgent, ShardMode, SimConfig, SimTime};
use tango_topology::gen::{try_generate, GenError, GenParams};
use tango_topology::{AsId, Topology};

/// App payload bytes per injected packet in the traffic phase.
const PAYLOAD_BYTES: usize = 64;

/// First injection instant and the gap between injections.
const INJECT_START: SimTime = SimTime::from_ms(1);
const INJECT_GAP: SimTime = SimTime::from_us(250);

/// How long after the last injection the traffic phase runs: far above
/// any valley-free path's latency, so every packet reaches its verdict.
const DRAIN: SimTime = SimTime::from_secs(3);

/// Host prefixes live at `2001:db8:1000+i::/48`, probe prefixes at
/// `2001:db8:2000+i::/48`, tunnel blocks in `2001:db8:4000::/36` —
/// disjoint spaces, one slot per PoP index.
const HOST_HEXTET_BASE: usize = 0x1000;
const PROBE_HEXTET_BASE: usize = 0x2000;
const TUNNEL_SPACE: &str = "2001:db8:4000::/36";

/// Options for [`run_npop`].
#[derive(Debug, Clone)]
pub struct NPopOptions {
    /// Total AS count of the generated graph (tier-1 + transits + PoPs).
    pub ases: usize,
    /// Number of Tango-capable edge PoPs (N). Must be in `2..=256`.
    pub pops: usize,
    /// Seed for both the generator and the traffic simulator.
    pub seed: u64,
    /// Per-pair discovery bound (paths probed before giving up).
    pub max_paths: usize,
    /// Traffic-phase simulator shards (any value is bit-identical;
    /// multi-shard runs execute [`ShardMode::Serial`]).
    pub shards: usize,
    /// Host packets injected in the traffic phase, spread round-robin
    /// over the PoP pairs in alternating directions (0 skips the phase).
    pub traffic_packets: u32,
}

impl Default for NPopOptions {
    fn default() -> Self {
        NPopOptions {
            ases: 100,
            pops: 8,
            seed: 1,
            max_paths: 8,
            shards: 1,
            traffic_packets: 128,
        }
    }
}

/// Failures building or running the mesh.
#[derive(Debug)]
pub enum NPopError {
    /// Fewer than two PoPs, or more than the address plan's 256 slots.
    BadPopCount(usize),
    /// The topology generator rejected the derived parameters.
    Gen(GenError),
    /// The BGP engine failed (no convergence, unknown AS, ...).
    Engine(EngineError),
}

impl From<GenError> for NPopError {
    fn from(e: GenError) -> Self {
        NPopError::Gen(e)
    }
}

impl From<EngineError> for NPopError {
    fn from(e: EngineError) -> Self {
        NPopError::Engine(e)
    }
}

impl core::fmt::Display for NPopError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NPopError::BadPopCount(n) => {
                write!(f, "pop count {n} outside the supported range 2..=256")
            }
            NPopError::Gen(e) => write!(f, "topology generation: {e}"),
            NPopError::Engine(e) => write!(f, "BGP engine: {e}"),
        }
    }
}

impl std::error::Error for NPopError {}

/// One unordered PoP pair's discovery result (probed in the direction
/// `a` observes `b`'s announcement, i.e. traffic `a → b`).
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Observer-side PoP.
    pub a: AsId,
    /// Announcer-side PoP.
    pub b: AsId,
    /// Discovered wide-area paths (0 when the pair was unreachable).
    pub paths: usize,
    /// Discovered paths that violated the valley-free property (must
    /// be 0 — any other value is a policy bug).
    pub valley_violations: usize,
    /// Propagation delay of the BGP default path (discovery's first
    /// observation), ns.
    pub default_delay_ns: u64,
    /// Propagation delay of the best discovered path, ns.
    pub best_delay_ns: u64,
    /// `default_delay / best_delay`, scaled by 1000 (1000 = the
    /// default is already the best; 1300 = default 30 % slower).
    pub stretch_x1000: u64,
}

/// Everything measured over one N-PoP run.
#[derive(Debug)]
pub struct NPopOutcome {
    /// The PoP node ids, ascending.
    pub pops: Vec<AsId>,
    /// The generated graph's deterministic fingerprint.
    pub graph_digest: u64,
    /// Per-pair discovery results, in `(i, j)` iteration order.
    pub pairs: Vec<PairOutcome>,
    /// Pairs whose probe never reached the observer (expected 0 on a
    /// connected valley-free graph).
    pub unreachable_pairs: usize,
    /// Ordered pairs `(a, b)` where `a` holds a route to `b`'s host
    /// prefix after mesh convergence (expected `pops * (pops - 1)`).
    pub reachable_routes: usize,
    /// Rounds of the initial all-PoP mesh convergence.
    pub mesh_rounds: usize,
    /// Total `converge()` fixpoints over the whole run (mesh + every
    /// discovery step): the sweep's "convergence events" column.
    pub converges: u64,
    /// Total convergence rounds summed over all fixpoints: the
    /// "discovery rounds" column.
    pub convergence_rounds: u64,
    /// BGP update messages applied across the run.
    pub updates_processed: u64,
    /// RIB table sizes at the end of the run (probes withdrawn, host
    /// prefixes still announced).
    pub rib: RibStats,
    /// High-water mark of total RIB routes across the run (the
    /// `bgp.rib.peak_routes` gauge).
    pub peak_routes: u64,
    /// Estimated peak RIB heap bytes: [`BgpEngine::rib_heap_bytes`] per
    /// route at the end of the run, scaled to the peak total entry count.
    pub rib_bytes_est: u64,
    /// Total FIB (longest-prefix-match trie) entries installed across
    /// all nodes for the traffic phase.
    pub fib_entries: u64,
    /// Traffic-phase digest (stats + trace), `""` when the phase was
    /// skipped. Bit-identical across shard counts and execution modes.
    pub traffic_digest: String,
    /// Traffic-phase deliveries.
    pub deliveries: u64,
    /// Traffic-phase hop-limit expiries (forwarding-loop detector;
    /// must stay 0).
    pub ttl_expired: u64,
}

/// PoP `i`'s host prefix.
pub fn host_prefix(i: usize) -> IpCidr {
    format!("2001:db8:{:x}::/48", HOST_HEXTET_BASE + i)
        .parse()
        .expect("static prefix template")
}

/// Host number `host` inside PoP `i`'s host prefix.
fn host_addr(i: usize, host: u128) -> Ipv6Addr {
    match host_prefix(i) {
        IpCidr::V6(c) => c.host(host).expect("a /48 holds every host number used"),
        IpCidr::V4(_) => unreachable!("host prefixes are IPv6"),
    }
}

/// PoP `i`'s discovery probe prefix.
pub fn probe_prefix(i: usize) -> IpCidr {
    format!("2001:db8:{:x}::/48", PROBE_HEXTET_BASE + i)
        .parse()
        .expect("static prefix template")
}

/// PoP `i`'s side of a pairing — the one address plan every Tango-of-N
/// pairing uses. The PoP is its own tenant and border (the multihomed
/// enterprise of §2, running its own BGP), its tunnel block is the
/// `i`-th /44 of `2001:db8:4000::/36` (256 slots, the PoP cap), and its
/// hosts live in [`host_prefix`]`(i)`. The two sides of a pairing are
/// different PoPs, so their blocks never overlap.
pub fn pop_side(pop: AsId, i: usize) -> SideConfig {
    let space: Ipv6Cidr = TUNNEL_SPACE.parse().expect("static prefix");
    SideConfig {
        tenant: pop,
        border: pop,
        block: space
            .subnet(44, i as u128)
            .expect("a /36 holds one /44 per PoP index below 256"),
        host_prefix: host_prefix(i),
    }
}

/// The `p`-th percentile of an ascending-sorted slice, rounded down to
/// a sample: the element at index ⌊(n − 1)·p / 100⌋ (0 for empty). This
/// is not nearest-rank (the ⌈n·p / 100⌉-th element): for n = 5 and
/// p = 99 it is the 4th value where nearest-rank gives the 5th.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

impl NPopOutcome {
    /// Stretch percentiles `(p50, p90, p99)` in x1000 units, over the
    /// pairs that discovered at least one path.
    pub fn stretch_percentiles(&self) -> (u64, u64, u64) {
        let mut v: Vec<u64> = self
            .pairs
            .iter()
            .filter(|p| p.paths > 0)
            .map(|p| p.stretch_x1000)
            .collect();
        v.sort_unstable();
        (percentile(&v, 50), percentile(&v, 90), percentile(&v, 99))
    }

    /// Discovered-path-count summary `(min, p50, max, total)` across
    /// pairs.
    pub fn path_counts(&self) -> (u64, u64, u64, u64) {
        let mut v: Vec<u64> = self.pairs.iter().map(|p| p.paths as u64).collect();
        v.sort_unstable();
        let total = v.iter().sum();
        (
            v.first().copied().unwrap_or(0),
            percentile(&v, 50),
            v.last().copied().unwrap_or(0),
            total,
        )
    }

    /// Total valley-free violations over every discovered path (must
    /// be 0).
    pub fn valley_violations(&self) -> u64 {
        self.pairs.iter().map(|p| p.valley_violations as u64).sum()
    }

    /// Deterministic fingerprint of the whole run: graph digest,
    /// per-pair results, control-plane counters, RIB/FIB sizes, and
    /// the traffic digest. Bit-identical runs ⇒ identical values,
    /// regardless of shard count or execution mode.
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut mix = |v: u64| h = fnv1a(h, v);
        mix(self.graph_digest);
        for p in &self.pairs {
            mix(u64::from(p.a.0));
            mix(u64::from(p.b.0));
            mix(p.paths as u64);
            mix(p.valley_violations as u64);
            mix(p.default_delay_ns);
            mix(p.best_delay_ns);
            mix(p.stretch_x1000);
        }
        mix(self.unreachable_pairs as u64);
        mix(self.reachable_routes as u64);
        mix(self.mesh_rounds as u64);
        mix(self.converges);
        mix(self.convergence_rounds);
        mix(self.updates_processed);
        mix(self.rib.total() as u64);
        mix(self.peak_routes);
        mix(self.rib_bytes_est);
        mix(self.fib_entries);
        mix(self.deliveries);
        mix(self.ttl_expired);
        fnv1a_bytes(h, self.traffic_digest.as_bytes())
    }
}

/// The traffic phase's result (all-default when the phase was skipped).
/// Bit-identical across shard counts and execution modes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficOutcome {
    /// Total FIB entries installed across all nodes.
    pub fib_entries: u64,
    /// [`NetworkSim::digest`] at the horizon.
    pub digest: String,
    /// Packets handed to receiving agents.
    pub deliveries: u64,
    /// Hop-limit expiries.
    pub ttl_expired: u64,
}

/// A converged N-PoP mesh: phase 1's product, the value phases 2 and 3
/// run on (see the module docs).
pub struct NPopMesh {
    topology: Topology,
    pops: Vec<AsId>,
    graph_digest: u64,
    seed: u64,
    engine: BgpEngine,
    /// Private registry the engine reports its control-plane totals to.
    registry: Registry,
    mesh_rounds: usize,
    reachable_routes: usize,
}

impl NPopMesh {
    /// Phase 1: generate the `ases`-AS graph with `pops` edge PoPs,
    /// announce every PoP's host prefix and converge.
    pub fn converge(ases: usize, pops: usize, seed: u64) -> Result<Self, NPopError> {
        if !(2..=256).contains(&pops) {
            return Err(NPopError::BadPopCount(pops));
        }
        let generated = try_generate(&GenParams::internet(ases, pops, seed))?;
        let graph_digest = generated.digest();
        let topology = generated.topology;
        let pops = generated.edge_sites;

        let registry = Registry::new();
        let mut engine = BgpEngine::new(topology.clone());
        engine.set_obs(&registry);
        engine.set_rib_obs(&registry);
        // PoPs are their own borders: they must honor the action
        // communities their announcements carry for suppression to bite.
        for &pop in &pops {
            engine.set_honor_actions(pop, true)?;
        }
        for (i, &pop) in pops.iter().enumerate() {
            engine.announce(pop, host_prefix(i), BTreeSet::new())?;
        }
        let mesh_rounds = engine.converge()?;
        let mut reachable_routes = 0usize;
        for (i, &a) in pops.iter().enumerate() {
            for j in 0..pops.len() {
                if i != j && engine.as_path(a, host_prefix(j)).is_some() {
                    reachable_routes += 1;
                }
            }
        }
        Ok(NPopMesh {
            topology,
            pops,
            graph_digest,
            seed,
            engine,
            registry,
            mesh_rounds,
            reachable_routes,
        })
    }

    /// Phase 2: all-pairs discovery, in `(i, j)` iteration order. Every
    /// step converges one probe prefix and no other: the probe's
    /// announcement and withdrawal incrementally, each suppression as a
    /// fresh announcement of the probe alone.
    pub fn discover(&mut self, max_paths: usize) -> Result<Vec<PairOutcome>, NPopError> {
        let mut pairs = Vec::new();
        for i in 0..self.pops.len() {
            for j in (i + 1)..self.pops.len() {
                pairs.push(self.discover_pair(i, j, max_paths)?);
            }
        }
        Ok(pairs)
    }

    /// Probe the paths PoP `i` observes toward PoP `j`'s announcement.
    fn discover_pair(
        &mut self,
        i: usize,
        j: usize,
        max_paths: usize,
    ) -> Result<PairOutcome, NPopError> {
        let (observer, announcer) = (self.pops[i], self.pops[j]);
        let discovered = match discover_paths(
            &mut self.engine,
            announcer,
            observer,
            probe_prefix(j),
            &[announcer, observer],
            max_paths,
        ) {
            Ok(d) => d,
            // An unreachable pair is a result, not a failure: 0 paths.
            Err(DiscoveryError::NoPathAtAll | DiscoveryError::DegeneratePath) => Vec::new(),
            Err(DiscoveryError::Engine(e)) => return Err(NPopError::Engine(e)),
        };
        let mut valley_violations = 0usize;
        let mut delays = Vec::with_capacity(discovered.len());
        for path in &discovered {
            // Traffic direction: observer, then the AS path it
            // observed (nearest AS first, announcer last).
            let mut nodes = Vec::with_capacity(path.as_path.len() + 1);
            nodes.push(observer);
            nodes.extend_from_slice(&path.as_path);
            if !path_is_valley_free(&self.topology, &nodes) {
                valley_violations += 1;
            }
            match self.topology.path_base_delay_ns(&nodes) {
                Some(d) => delays.push(d),
                None => valley_violations += 1, // non-adjacent hop: impossible path
            }
        }
        let default_delay_ns = delays.first().copied().unwrap_or(0);
        let best_delay_ns = delays.iter().copied().min().unwrap_or(0);
        let stretch_x1000 = default_delay_ns
            .saturating_mul(1000)
            .checked_div(best_delay_ns)
            .unwrap_or(0);
        Ok(PairOutcome {
            a: observer,
            b: announcer,
            paths: discovered.len(),
            valley_violations,
            default_delay_ns,
            best_delay_ns,
            stretch_x1000,
        })
    }

    /// The edge PoPs: PoP `i` announces [`host_prefix`]`(i)`.
    pub fn pops(&self) -> &[AsId] {
        &self.pops
    }

    /// The converged engine phases 1 and 2 drive.
    pub fn engine(&self) -> &BgpEngine {
        &self.engine
    }

    /// Phase 3, built: a simulator over the mesh's graph, every node a
    /// [`RouterAgent`] over its converged FIB, plus the total FIB entry
    /// count. The span ring is sized so a run of `packets` injected
    /// packets never wraps it.
    pub fn routed_sim(
        &self,
        packets: u32,
        shards: usize,
        shard_mode: ShardMode,
    ) -> Result<(NetworkSim, u64), NPopError> {
        let mut sim = NetworkSim::new(
            self.topology.clone(),
            SimConfig {
                seed: self.seed,
                // Every packet leaves at most one inject, a tx + deliver
                // per hop, and one drop — so the digest's ring never wraps
                // (it allocates lazily: the bound costs nothing).
                span_capacity: packets as usize * (2 * usize::from(Packet::HOST_HOP_LIMIT) + 2),
                shards,
                shard_mode,
                ..SimConfig::default()
            },
        );
        let mut fib_entries = 0u64;
        for node in self.topology.nodes() {
            let table = self.engine.forwarding_table(node.id)?;
            fib_entries += table.len() as u64;
            sim.set_agent(node.id, Box::new(RouterAgent::new(node.id, table)));
        }
        Ok((sim, fib_entries))
    }

    /// Phase 3, loaded: schedule `packets` host packets round-robin over
    /// the PoP pairs in alternating directions, one every 250 µs, and
    /// return the horizon to [`NetworkSim::run_until`] — the last
    /// injection plus a drain bound, so no packet count is cut short.
    pub fn inject(&self, sim: &mut NetworkSim, packets: u32) -> SimTime {
        let n = self.pops.len();
        let pair_list: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let mut t = INJECT_START;
        for k in 0..packets {
            let (i, j) = pair_list[(k as usize) % pair_list.len()];
            let (src, dst) = if k % 2 == 0 { (i, j) } else { (j, i) };
            // The source host number varies so flows spread over ECMP
            // lanes deterministically.
            let pkt = Packet::host(
                host_addr(src, u128::from(k as u16) + 1),
                host_addr(dst, 1),
                PAYLOAD_BYTES,
                0,
                0,
            );
            sim.schedule_host_packet(t, self.pops[src], pkt);
            t += INJECT_GAP;
        }
        t + DRAIN
    }

    /// Phase 3 end to end at `shards` serial shards: build, inject, run
    /// to the horizon, fingerprint.
    pub fn run_traffic(&self, packets: u32, shards: usize) -> Result<TrafficOutcome, NPopError> {
        let (mut sim, fib_entries) = self.routed_sim(packets, shards, ShardMode::Serial)?;
        let horizon = self.inject(&mut sim, packets);
        sim.run_until(horizon);
        Ok(TrafficOutcome {
            fib_entries,
            digest: sim.digest(),
            deliveries: sim.stats().deliveries,
            ttl_expired: sim.stats().ttl_expired,
        })
    }

    /// Fold the phases' results and the engine's control-plane totals
    /// into the run's [`NPopOutcome`].
    pub fn outcome(&self, pairs: Vec<PairOutcome>, traffic: TrafficOutcome) -> NPopOutcome {
        let snap = self.registry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let peak_routes = snap.gauges.get("bgp.rib.peak_routes").copied().unwrap_or(0);
        let rib = self.engine.rib_stats();
        // Scale the final tables' bytes (shared advertisements counted
        // once) to the peak entry count, multiplying before dividing.
        let scaled = u128::from(peak_routes) * u128::from(self.engine.rib_heap_bytes());
        let rib_bytes_est = (scaled / (rib.total() as u128).max(1)) as u64;
        NPopOutcome {
            pops: self.pops.clone(),
            graph_digest: self.graph_digest,
            unreachable_pairs: pairs.iter().filter(|p| p.paths == 0).count(),
            pairs,
            reachable_routes: self.reachable_routes,
            mesh_rounds: self.mesh_rounds,
            converges: counter("bgp.converges"),
            convergence_rounds: snap
                .histograms
                .get("bgp.convergence.rounds")
                .map(|h| h.sum)
                .unwrap_or(0),
            updates_processed: counter("bgp.updates_processed"),
            rib,
            peak_routes,
            rib_bytes_est,
            fib_entries: traffic.fib_entries,
            traffic_digest: traffic.digest,
            deliveries: traffic.deliveries,
            ttl_expired: traffic.ttl_expired,
        }
    }
}

/// Run the full N-PoP workload: converge, discover all pairs, then
/// (optionally) forward traffic. See the module docs.
pub fn run_npop(options: &NPopOptions) -> Result<NPopOutcome, NPopError> {
    let mut mesh = NPopMesh::converge(options.ases, options.pops, options.seed)?;
    let pairs = mesh.discover(options.max_paths)?;
    let traffic = match options.traffic_packets {
        0 => TrafficOutcome::default(),
        packets => mesh.run_traffic(packets, options.shards)?,
    };
    Ok(mesh.outcome(pairs, traffic))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NPopOptions {
        NPopOptions {
            ases: 60,
            pops: 4,
            seed: 7,
            traffic_packets: 32,
            ..NPopOptions::default()
        }
    }

    #[test]
    fn percentile_rounds_the_index_down() {
        let v = [10, 20, 30, 40, 50];
        // ⌊4 · 99 / 100⌋ = 3: the 4th value, not nearest-rank's 5th.
        assert_eq!(percentile(&v, 99), 40);
        assert_eq!(percentile(&v, 50), 30);
        assert_eq!(percentile(&v, 100), 50);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    fn rejects_bad_pop_counts() {
        for pops in [0, 1, 257] {
            let r = run_npop(&NPopOptions { pops, ..small() });
            assert!(matches!(r, Err(NPopError::BadPopCount(_))), "pops={pops}");
        }
    }

    #[test]
    fn pop_side_is_self_bordered_with_one_block_per_pop() {
        let first = pop_side(AsId(7), 0);
        assert_eq!((first.tenant, first.border), (AsId(7), AsId(7)));
        assert_eq!(first.host_prefix, host_prefix(0));
        assert_eq!(first.block.to_string(), "2001:db8:4000::/44");
        let last = pop_side(AsId(8), 255);
        assert_eq!(last.block.to_string(), "2001:db8:4ff0::/44");
        // Tunnel blocks stay clear of the host and probe spaces.
        let tunnels: Ipv6Cidr = TUNNEL_SPACE.parse().expect("static prefix");
        for i in [0, 255] {
            for p in [host_prefix(i), probe_prefix(i)] {
                let IpCidr::V6(p) = p else { unreachable!() };
                assert!(!tunnels.overlaps(&p), "{p}");
            }
        }
    }

    #[test]
    fn small_mesh_discovers_everywhere() {
        let out = run_npop(&small()).expect("mesh runs");
        assert_eq!(out.pairs.len(), 6, "C(4,2) pairs");
        assert_eq!(out.unreachable_pairs, 0);
        assert_eq!(out.reachable_routes, 4 * 3, "all ordered pairs converge");
        assert_eq!(out.valley_violations(), 0);
        assert!(
            out.pairs.iter().all(|p| p.paths >= 2),
            "providers_per_edge (2,3) guarantees ≥ 2 discovered paths: {:?}",
            out.pairs
        );
        assert!(out.pairs.iter().all(|p| p.stretch_x1000 >= 1000));
        assert!(out.peak_routes > 0);
        assert!(out.rib_bytes_est > 0);
        assert!(out.fib_entries > 0);
        assert!(out.deliveries > 0, "traffic phase delivered packets");
        assert!(
            !out.traffic_digest.ends_with(&format!(
                "trace={:016x}",
                tango_trace::export::spans_digest(&[], 0)
            )),
            "the traffic digest must hash a live span stream: {}",
            out.traffic_digest
        );
        assert_eq!(out.ttl_expired, 0, "no forwarding loops");
        // Discovery withdrew every probe: the traffic phase alone, on a
        // mesh that never discovered, sees the same forwarding tables.
        let mesh = NPopMesh::converge(60, 4, 7).expect("mesh converges");
        let alone = mesh.run_traffic(32, 1).expect("traffic runs");
        assert_eq!(alone.digest, out.traffic_digest);
        assert_eq!(alone.fib_entries, out.fib_entries);
    }

    #[test]
    fn digest_is_shard_invariant_and_seed_sensitive() {
        let base = run_npop(&small()).expect("mesh runs").digest();
        let sharded = run_npop(&NPopOptions {
            shards: 4,
            ..small()
        })
        .expect("mesh runs")
        .digest();
        assert_eq!(base, sharded, "digest is shard-invariant");
        let reseeded = run_npop(&NPopOptions { seed: 8, ..small() })
            .expect("mesh runs")
            .digest();
        assert_ne!(base, reseeded, "seed matters");
    }

    /// The traffic phase alone (no discovery) on the `small()` graph.
    fn traffic(seed: u64, packets: u32, shards: usize, mode: ShardMode) -> (NetworkSim, u64) {
        let mesh = NPopMesh::converge(60, 4, seed).expect("mesh converges");
        let (mut sim, _) = mesh.routed_sim(packets, shards, mode).expect("fibs build");
        let horizon = mesh.inject(&mut sim, packets);
        let events = sim.run_until(horizon);
        (sim, events)
    }

    #[test]
    fn traffic_digest_is_shard_invariant() {
        let (reference, events) = traffic(7, 200, 1, ShardMode::Serial);
        for shards in [2, 4] {
            for mode in [ShardMode::Serial, ShardMode::Threaded] {
                let (sim, n) = traffic(7, 200, shards, mode);
                assert_eq!(sim.shard_count(), shards);
                assert_eq!(sim.digest(), reference.digest(), "{shards} {mode:?}");
                assert_eq!(n, events, "{shards} {mode:?}");
            }
        }
        let (reseeded, _) = traffic(8, 200, 1, ShardMode::Serial);
        assert_ne!(reseeded.digest(), reference.digest(), "seed matters");
    }

    #[test]
    fn long_runs_are_not_cut_short() {
        // 12 500 packets inject for 3.126 s: past the fixed 3 s horizon
        // the phase used to stop at, with packets still in flight.
        let packets = 12_500;
        let (sim, _) = traffic(7, packets, 1, ShardMode::Serial);
        let stats = sim.stats();
        // A packet's verdict is the NoRoute drop at the destination PoP,
        // which routes its own prefix nowhere: one per packet, none lost.
        assert_eq!(stats.no_route, u64::from(packets));
        assert_eq!(stats.transmissions, stats.deliveries);
        assert_eq!(stats.ttl_expired, 0);
    }
}
