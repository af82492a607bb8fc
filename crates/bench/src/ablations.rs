//! Ablations and extensions (DESIGN.md experiments A1–A4): the design
//! arguments of §2/§3/§6, quantified.

use crate::scalability::{Tier, SMALL_TIERS};
use crate::util::{fmt, print_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tango::npop::pop_side;
use tango::prelude::*;
use tango_measure::Summary;
use tango_sim::edge_noise::{HypervisorNoise, WirelessNoise};
use tango_topology::gen::{generate, GenParams, Generated};
use tango_topology::vultr::{
    gtt_instability_event, gtt_route_change_event, vultr_scenario, GTT, VULTR_NY,
};

// ---------------------------------------------------------------- A1 --

/// One measurement strategy's accuracy.
#[derive(Debug, Clone)]
pub struct OwdAccuracyRow {
    /// Strategy label.
    pub strategy: &'static str,
    /// Mean estimated wide-area delay, ms.
    pub mean_ms: f64,
    /// Standard deviation of the estimates, ms.
    pub std_ms: f64,
    /// Bias against the true wide-area one-way delay, ms.
    pub bias_ms: f64,
}

/// **A1** — why measure one-way at the border (§2.1/§3)? Compare three
/// strategies estimating the *same* GTT wide-area path:
///
/// 1. Tango: one-way at the border switches, tunnel-pinned ECMP lane.
/// 2. End-host RTT/2: round-trip through wireless access (drone side)
///    and a hypervisor (cloud side), halved.
/// 3. Un-tunneled flows: one-way at the border but aggregated across
///    many 5-tuples, so ECMP smears the samples over parallel lanes.
pub fn owd_accuracy(samples: usize, seed: u64) -> Vec<OwdAccuracyRow> {
    let scenario = vultr_scenario();
    let topo = &scenario.topology;
    let fwd = topo.direction_profile(GTT, VULTR_NY).expect("GTT→NY edge");
    let rev = topo
        .direction_profile(GTT, tango_topology::vultr::VULTR_LA)
        .expect("GTT→LA edge");
    let wireless = WirelessNoise::default();
    let hypervisor = HypervisorNoise::default();
    let mut rng = StdRng::seed_from_u64(seed);
    // 1: fixed flow hash (one tunnel = one lane), no end-host noise.
    let tunnel_hash = 0xDEAD_BEEFu64;
    // The truth being estimated is the tunnel's own path — base delay
    // plus the ECMP lane the tunnel's 5-tuple pins (the lane *is* part
    // of the path; that determinism is exactly what Tango buys).
    let true_owd = (fwd.base_delay_ns as i64 + fwd.lane_offset(tunnel_hash)) as f64 / 1e6;
    let tango: Vec<f64> = (0..samples)
        .map(|_| fwd.sample_delay(&mut rng, tunnel_hash, 0) as f64 / 1e6)
        .collect();

    // 2: RTT/2 with edge noise on both ends, both directions.
    let host: Vec<f64> = (0..samples)
        .map(|_| {
            let fwd_wan = fwd.sample_delay(&mut rng, tunnel_hash, 0) as f64;
            let rev_wan = rev.sample_delay(&mut rng, tunnel_hash, 0) as f64;
            let noise = wireless.sample(&mut rng) as f64
                + hypervisor.sample(&mut rng) as f64
                + wireless.sample(&mut rng) as f64
                + hypervisor.sample(&mut rng) as f64;
            (fwd_wan + rev_wan + noise) / 2.0 / 1e6
        })
        .collect();

    // 3: one-way, but each measurement comes from a random 5-tuple
    // (ECMP spreads flows over lanes: "measuring multiple paths as one").
    let ecmp: Vec<f64> = (0..samples)
        .map(|i| fwd.sample_delay(&mut rng, i as u64, 0) as f64 / 1e6)
        .collect();

    let row = |strategy: &'static str, vals: &[f64]| {
        let s = Summary::of(vals).expect("samples");
        OwdAccuracyRow {
            strategy,
            mean_ms: s.mean,
            std_ms: s.std,
            bias_ms: s.mean - true_owd,
        }
    };
    vec![
        row("Tango one-way @ border", &tango),
        row("end-host RTT/2", &host),
        row("un-tunneled (ECMP-smeared)", &ecmp),
    ]
}

/// Print A1.
pub fn report_owd_accuracy(seed: u64) {
    println!("A1 — measurement accuracy on the same GTT path (§2.1/§3 argument)\n");
    let rows = owd_accuracy(200_000, seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                fmt(r.mean_ms, 3),
                fmt(r.std_ms, 3),
                format!("{:+.3}", r.bias_ms),
            ]
        })
        .collect();
    print_table(&["strategy", "mean (ms)", "std (ms)", "bias (ms)"], &table);
    println!(
        "\nTango's border one-way measurement is unbiased with path-level σ; end-host \
         RTT/2 inherits wireless retransmissions + hypervisor jitter (σ and bias two \
         orders larger); un-tunneled aggregation mixes ECMP lanes into one fuzzy series."
    );
}

// ---------------------------------------------------------------- A2 --

/// A policy's achieved application latency.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: String,
    /// App-packet OWD summary, ms.
    pub summary: Summary,
    /// Path switches performed.
    pub switches: usize,
}

/// **A2** — policies facing both Fig. 4 incidents, same seed and traffic.
pub fn policy_comparison(seed: u64) -> Vec<PolicyRow> {
    let run = |policy: Box<dyn PathPolicy>, name: &str| -> PolicyRow {
        let mut pairing = tango::vultr_pairing_with_events(
            vec![
                gtt_route_change_event(SimTime::from_mins(4).as_ns()),
                gtt_instability_event(SimTime::from_mins(20).as_ns()),
            ],
            PairingOptions {
                seed,
                control_period: Some(SimTime::from_ms(100)),
                policy_b: policy,
                ..PairingOptions::default()
            },
        )
        .expect("provisioning succeeds");
        let mut t = SimTime::from_secs(2);
        while t < SimTime::from_mins(28) {
            pairing.send_app_packet(t, Side::B, 64);
            t += SimTime::from_ms(20);
        }
        pairing.run_until(SimTime::from_mins(29));
        let sink = pairing.stats(Side::A).lock();
        let mut owds: Vec<f64> = Vec::new();
        for (_, p) in sink.paths() {
            owds.extend(p.owd.app_values().map(|v| v / 1e6));
        }
        drop(sink);
        let history = pairing.stats(Side::B).lock().selection_history.clone();
        let mut switches = 0;
        for w in history.windows(2) {
            if w[0].1 != w[1].1 {
                switches += 1;
            }
        }
        PolicyRow {
            policy: name.to_string(),
            summary: Summary::of(&owds).expect("app traffic measured"),
            switches,
        }
    };
    vec![
        run(
            Box::new(StaticPolicy::single(0, "bgp-default")),
            "BGP default (NTT)",
        ),
        run(
            Box::new(StaticPolicy::single(2, "pin-best")),
            "pin to best (GTT)",
        ),
        run(Box::new(LowestOwdPolicy::new(500_000.0)), "lowest-OWD"),
        run(
            Box::new(JitterAwarePolicy::new(5.0, 500_000.0)),
            "jitter-aware",
        ),
        run(
            Box::new(LossAwarePolicy::new(0.02, 500_000.0)),
            "loss-aware",
        ),
        run(Box::new(WeightedSplitPolicy::new(1.3)), "weighted-split"),
    ]
}

/// Print A2.
pub fn report_policy(seed: u64) {
    println!(
        "A2 — path-selection policies through both Fig. 4 incidents \
         (route change @4 min, instability @20 min; app packet every 20 ms)\n"
    );
    let rows = policy_comparison(seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                fmt(r.summary.mean, 2),
                fmt(r.summary.p95, 2),
                fmt(r.summary.p99, 2),
                fmt(r.summary.max, 2),
                r.switches.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "policy", "mean ms", "p95 ms", "p99 ms", "max ms", "switches",
        ],
        &table,
    );
    println!(
        "\npaper (§5): \"during these route-change events, selecting an alternate path \
         based on live data is required for optimal performance\" — the adaptive rows \
         keep the best-path mean without the pinned row's tail."
    );
}

// ---------------------------------------------------------------- A3 --

/// One row of the multihoming comparison.
#[derive(Debug, Clone)]
pub struct MultihomingRow {
    /// Approach label.
    pub approach: &'static str,
    /// Best achievable LA→NY one-way delay, ms.
    pub la_ny_ms: f64,
    /// Best achievable NY→LA one-way delay, ms.
    pub ny_la_ms: f64,
    /// Number of (direction, path) combinations under the edge's control.
    pub controllable_paths: usize,
}

/// **A3** — §2.2's argument: one-sided multihoming route control only
/// optimizes one direction (and only across first hops); cooperation
/// controls both. Computed from the converged control plane + calibrated
/// link delays (no packet noise needed for floors).
pub fn multihoming() -> Vec<MultihomingRow> {
    use tango_topology::vultr::{TENANT_LA, TENANT_NY, VULTR_LA};
    let pairing = tango::vultr_pairing(PairingOptions::default()).expect("provisions");
    let topo = pairing.sim.topology().clone();
    let floor = |transits: &[tango_topology::AsId],
                 a: tango_topology::AsId,
                 a_border: tango_topology::AsId,
                 b_border: tango_topology::AsId,
                 b: tango_topology::AsId| {
        let mut path = vec![a, a_border];
        path.extend_from_slice(transits);
        path.push(b_border);
        path.push(b);
        topo.path_base_delay_ns(&path).expect("calibrated path") as f64 / 1e6
    };
    let la_ny = |transits: &[tango_topology::AsId]| {
        floor(transits, TENANT_LA, VULTR_LA, VULTR_NY, TENANT_NY)
    };
    // The per-direction floors of the four discovered paths.
    let fwd: Vec<f64> = pairing
        .provisioned
        .from(Side::A)
        .paths
        .iter()
        .map(|p| la_ny(&p.transit_path))
        .collect();
    let rev: Vec<f64> = pairing
        .provisioned
        .from(Side::B)
        .paths
        .iter()
        .map(|p| {
            // transit_path is source-side-first for NY→LA already.
            let mut path = vec![TENANT_NY, VULTR_NY];
            path.extend_from_slice(&p.transit_path);
            path.push(VULTR_LA);
            path.push(TENANT_LA);
            topo.path_base_delay_ns(&path).expect("calibrated") as f64 / 1e6
        })
        .collect();
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);

    vec![
        MultihomingRow {
            approach: "status quo (BGP default)",
            la_ny_ms: fwd[0],
            ny_la_ms: rev[0],
            controllable_paths: 0,
        },
        MultihomingRow {
            // LA picks its egress; inbound (NY→LA) stays on the default.
            approach: "LA-only multihoming control",
            la_ny_ms: min(&fwd),
            ny_la_ms: rev[0],
            controllable_paths: fwd.len(),
        },
        MultihomingRow {
            approach: "Tango (cooperative, both ways)",
            la_ny_ms: min(&fwd),
            ny_la_ms: min(&rev),
            controllable_paths: fwd.len() + rev.len(),
        },
    ]
}

/// Print A3.
pub fn report_multihoming() {
    println!("A3 — one-sided multihoming vs cooperation (§2.2 argument), delay floors\n");
    let rows = multihoming();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.approach.to_string(),
                fmt(r.la_ny_ms, 2),
                fmt(r.ny_la_ms, 2),
                fmt(r.la_ny_ms + r.ny_la_ms, 2),
                r.controllable_paths.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "approach",
            "LA→NY (ms)",
            "NY→LA (ms)",
            "RTT floor (ms)",
            "paths controlled",
        ],
        &table,
    );
    println!(
        "\npaper (§2.2): \"Even assuming one of them were multi-homed, the possible \
         optimizations would be limited to one direction and to a small set of paths.\""
    );
}

// ---------------------------------------------------------------- A4 --

/// Aggregates for one tier.
#[derive(Debug, Clone)]
pub struct TangoOfNRow {
    /// The generated graph and its PoP count (N).
    pub tier: Tier,
    /// Pairings attempted: every unordered PoP pair, C(N, 2).
    pub pairs: usize,
    /// Pairings that failed to provision or never measured their
    /// BGP-default path (left out of the averages).
    pub failed: usize,
    /// Mean discovered paths per direction.
    pub avg_paths: f64,
    /// Mean best-vs-default delay gain, percent.
    pub avg_gain_pct: f64,
    /// Share of pairs where Tango improves the floor by >10 %.
    pub pairs_with_big_gain: f64,
}

/// One pairing between PoPs `i` and `j`, run for 5 s: its discovered
/// paths (both directions) and best-vs-default gain, or `None` when it
/// failed to provision or to measure the default path.
fn pair_gain(g: &Generated, i: usize, j: usize, seed: u64) -> Option<(usize, f64)> {
    let mut p = TangoPairing::build(
        g.topology.clone(),
        std::iter::empty(),
        pop_side(g.edge_sites[i], i),
        pop_side(g.edge_sites[j], j),
        PairingOptions {
            seed: seed ^ ((i as u64) << 16 | j as u64),
            ..PairingOptions::default()
        },
    )
    .ok()?;
    p.run_until(SimTime::from_secs(5));
    let paths = p.provisioned.from(Side::A).paths.len() + p.provisioned.from(Side::B).paths.len();
    let default = p.mean_owd_ms(Side::A, 0)?;
    let best = (0..p.provisioned.from(Side::B).paths.len() as u16)
        .filter_map(|k| p.mean_owd_ms(Side::A, k))
        .fold(f64::INFINITY, f64::min);
    Some((paths, (default / best - 1.0) * 100.0))
}

/// **A4** — §6 "From Tango of 2 to Tango of N": one independent
/// pairing per PoP pair, on the scale-free graphs of the B5 sweep
/// (`experiments scalability`) and through its address plan
/// ([`pop_side`]).
pub fn tango_of_n(tiers: &[Tier], seed: u64) -> Vec<TangoOfNRow> {
    tiers
        .iter()
        .map(|&tier| {
            let g = generate(&GenParams::internet(tier.ases, tier.pops, seed));
            let pairs: Vec<(usize, usize)> = (0..tier.pops)
                .flat_map(|i| ((i + 1)..tier.pops).map(move |j| (i, j)))
                .collect();
            let ok: Vec<(usize, f64)> = pairs
                .iter()
                .filter_map(|&(i, j)| pair_gain(&g, i, j, seed))
                .collect();
            let n = ok.len().max(1) as f64;
            TangoOfNRow {
                tier,
                pairs: pairs.len(),
                failed: pairs.len() - ok.len(),
                avg_paths: ok.iter().map(|(p, _)| *p as f64).sum::<f64>() / (2.0 * n),
                avg_gain_pct: ok.iter().map(|(_, g)| g).sum::<f64>() / n,
                pairs_with_big_gain: ok.iter().filter(|(_, g)| *g > 10.0).count() as f64 / n,
            }
        })
        .collect()
}

/// Print A4.
pub fn report_tango_of_n(seed: u64) {
    println!("A4 — Tango of N (§6): all-pairs pairings over the B5 scale-free tiers\n");
    let rows = tango_of_n(&SMALL_TIERS, seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tier.ases.to_string(),
                r.tier.pops.to_string(),
                r.pairs.to_string(),
                r.failed.to_string(),
                fmt(r.avg_paths, 1),
                format!("{}%", fmt(r.avg_gain_pct, 1)),
                format!("{}%", fmt(r.pairs_with_big_gain * 100.0, 0)),
            ]
        })
        .collect();
    print_table(
        &[
            "ASes",
            "N PoPs",
            "pairs",
            "failed",
            "avg paths/dir",
            "avg best-vs-default",
            "pairs >10% gain",
        ],
        &table,
    );
    println!(
        "\npaper (§6): \"We envision Tango of two to be the building block of an open \
         and robust wide-area overlay composed of more networks and of more PoPs.\""
    );
}

// ---------------------------------------------------------------- A6 --

/// One row of the load-balancing comparison.
#[derive(Debug, Clone)]
pub struct LoadBalanceRow {
    /// Policy label.
    pub policy: String,
    /// App packets delivered (of those offered).
    pub delivered: u64,
    /// App packets offered.
    pub offered: u64,
    /// Tail drops at saturated queues (whole network).
    pub queue_drops: u64,
    /// Delivered-packet OWD summary, ms.
    pub owd: Summary,
}

/// **A6 (extension)** — §6: *"Tango has the potential to act as a
/// wide-area dynamically slicable network"* and calls for "effective
/// load balancing across multiple paths in the data plane". Offer more
/// traffic than any single wide-area path can carry (100 Mbit/s against
/// 50 Mbit/s crossings) and compare single-path policies against the
/// weighted split.
pub fn load_balance(seed: u64) -> Vec<LoadBalanceRow> {
    use tango::vultr::{la_side, ny_side};
    use tango_topology::vultr::vultr_scenario_with_capacity;

    let offered_count = 100_000u64; // 1250 B every 100 µs for 10 s ⇒ 100 Mbit/s
    let run = |policy: Box<dyn PathPolicy>, name: &str| -> LoadBalanceRow {
        // 50 Mbit/s crossings with a 30 ms tail-drop queue.
        let scenario = vultr_scenario_with_capacity(Some((50_000_000, 30_000_000)));
        let mut pairing = TangoPairing::build(
            scenario.topology.clone(),
            scenario.neighbor_pref.clone(),
            la_side(),
            ny_side(),
            PairingOptions {
                seed,
                probe_period: Some(SimTime::from_ms(10)),
                control_period: Some(SimTime::from_ms(100)),
                policy_b: policy,
                ..PairingOptions::default()
            },
        )
        .expect("provisions");
        // Warm up measurements before offering load.
        let start = SimTime::from_secs(2);
        for i in 0..offered_count {
            pairing.send_app_packet(start + SimTime(i * 100_000), Side::B, 1210);
        }
        pairing.run_until(start + SimTime::from_secs(11));
        let sink = pairing.stats(Side::A).lock();
        let mut owds: Vec<f64> = Vec::new();
        let mut delivered = 0u64;
        for (_, p) in sink.paths() {
            delivered += p.app_delivered;
            owds.extend(p.owd.app_values().map(|v| v / 1e6));
        }
        drop(sink);
        LoadBalanceRow {
            policy: name.to_string(),
            delivered,
            offered: offered_count,
            queue_drops: pairing.sim.stats().lost_queue,
            owd: Summary::of(&owds).expect("some delivered"),
        }
    };
    vec![
        run(
            Box::new(StaticPolicy::single(0, "bgp-default")),
            "BGP default (NTT)",
        ),
        run(
            Box::new(LowestOwdPolicy::new(500_000.0)),
            "lowest-OWD (single path)",
        ),
        run(
            Box::new(WeightedSplitPolicy::new(2.0)),
            "weighted-split (all paths)",
        ),
    ]
}

/// Print A6.
pub fn report_load_balance(seed: u64) {
    println!("A6 — load balancing (§6): 100 Mbit/s offered across 50 Mbit/s crossings, 10 s\n");
    let rows = load_balance(seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.1}%", r.delivered as f64 / r.offered as f64 * 100.0),
                r.queue_drops.to_string(),
                fmt(r.owd.mean, 2),
                fmt(r.owd.p99, 2),
            ]
        })
        .collect();
    print_table(
        &[
            "policy",
            "delivered",
            "queue drops",
            "mean OWD ms",
            "p99 OWD ms",
        ],
        &table,
    );
    println!(
        "\nA single path melts (tail drops + queueing delay up to the 30 ms cap); the \
         weighted split carries the full load at near-floor delay — the data-plane \
         load balancing §6 calls for."
    );
}

// ---------------------------------------------------------------- A7 --

/// One path's row in the loss/reorder measurement table.
#[derive(Debug, Clone)]
pub struct LossRow {
    /// Path label.
    pub path: String,
    /// Loss rate induced on the wide-area crossing.
    pub induced_loss: f64,
    /// Loss rate the sequence-gap tracker measured.
    pub measured_loss: f64,
    /// Reordered arrivals detected.
    pub reordered: u64,
    /// Duplicates detected.
    pub duplicates: u64,
}

/// **A7 (validation)** — §3: *"adding tunnel-specific sequence numbers
/// on packets can allow Tango to additionally compute loss and
/// reordering."* Induce known loss rates per path plus one path with
/// jitter large enough to reorder consecutive probes, and compare the
/// tracker's estimates against ground truth.
pub fn loss_table(seed: u64) -> Vec<LossRow> {
    use tango::vultr::{la_side, ny_side};
    use tango_topology::vultr::{vultr_scenario_custom, VultrOverrides, LEVEL3, NTT, TELIA};
    use tango_topology::JitterModel;

    let mut overrides = VultrOverrides::default();
    overrides.loss_into_la.insert(TELIA, 0.005);
    overrides.loss_into_la.insert(GTT, 0.02);
    overrides.loss_into_la.insert(LEVEL3, 0.05);
    // NTT gets no loss but a uniform jitter wider than the 10 ms probe
    // spacing: consecutive probes overtake each other → reordering.
    overrides.jitter_into_la.insert(
        NTT,
        JitterModel::Uniform {
            range_ns: 25_000_000,
        },
    );
    let induced = [(0u16, 0.0), (1, 0.005), (2, 0.02), (3, 0.05)];

    let scenario = vultr_scenario_custom(&overrides);
    let mut pairing = TangoPairing::build(
        scenario.topology.clone(),
        scenario.neighbor_pref.clone(),
        la_side(),
        ny_side(),
        PairingOptions {
            seed,
            ..PairingOptions::default()
        },
    )
    .expect("provisions");
    pairing.run_until(SimTime::from_secs(120)); // 12k probes per path

    let sink = pairing.stats(Side::A).lock();
    induced
        .iter()
        .map(|&(id, loss)| {
            let p = sink.path(id).expect("path probed");
            LossRow {
                path: p.label.clone(),
                induced_loss: loss,
                measured_loss: p.seq.loss_rate(),
                reordered: p.seq.reordered(),
                duplicates: p.seq.duplicates(),
            }
        })
        .collect()
}

/// Print A7.
pub fn report_loss_table(seed: u64) {
    println!("A7 — loss & reordering from tunnel sequence numbers (§3 claim), 120 s probing\n");
    let rows = loss_table(seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.path.clone(),
                format!("{:.2}%", r.induced_loss * 100.0),
                format!("{:.2}%", r.measured_loss * 100.0),
                r.reordered.to_string(),
                r.duplicates.to_string(),
            ]
        })
        .collect();
    print_table(
        &["path", "induced loss", "measured loss", "reordered", "dups"],
        &table,
    );
    println!(
        "\nNTT carries a deliberate 25 ms uniform jitter so consecutive 10 ms probes \
         overtake each other: the tracker reports the reordering (and retro-corrects \
         the loss estimate); the lossy paths' measured rates track the induced rates."
    );
}

// ---------------------------------------------------------------- A5 --

/// Result of the ECMP lane census.
#[derive(Debug, Clone)]
pub struct EcmpCensusResult {
    /// Probe flows launched (distinct UDP source ports).
    pub flows: usize,
    /// Distinct delay clusters observed = estimated ECMP lane count.
    pub estimated_lanes: usize,
    /// Mean OWD of each cluster, ms, ascending.
    pub lane_means_ms: Vec<f64>,
}

/// **A5 (extension)** — §6 lists "ECMP reverse engineering" among the
/// knobs worth automating. This census launches many probe flows that
/// differ *only* in UDP source port toward the same destination prefix;
/// 5-tuple hashing spreads them over the intra-AS parallel lanes, and
/// clustering the per-flow delay floors counts the lanes.
pub fn ecmp_census(flows: usize, seed: u64) -> EcmpCensusResult {
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use tango_bgp::BgpEngine;
    use tango_dataplane::{stats::shared_sink, FeedbackMode, SwitchConfig, TangoSwitch, Tunnel};
    use tango_net::IpCidr;
    use tango_sim::{NetworkSim, RouterAgent, SimConfig};
    use tango_topology::vultr::{COGENT, LEVEL3, NTT, TELIA, TENANT_LA, TENANT_NY, VULTR_LA};

    let scenario = vultr_scenario();
    let mut bgp = BgpEngine::new(scenario.topology.clone());
    for border in [VULTR_LA, VULTR_NY] {
        bgp.set_neighbor_pref(border, scenario.neighbor_pref[&border].clone())
            .expect("border");
    }
    let la_prefix: tango_net::Ipv6Cidr = "2001:db8:100::/48".parse().expect("static");
    let ny_prefix: tango_net::Ipv6Cidr = "2001:db8:200::/48".parse().expect("static");
    bgp.announce(TENANT_LA, IpCidr::V6(la_prefix), BTreeSet::new())
        .expect("announce");
    bgp.announce(TENANT_NY, IpCidr::V6(ny_prefix), BTreeSet::new())
        .expect("announce");
    bgp.converge().expect("converges");

    let mut sim = NetworkSim::new(
        scenario.topology.clone(),
        SimConfig {
            seed,
            ..Default::default()
        },
    );
    for node in [NTT, TELIA, GTT, COGENT, LEVEL3, VULTR_LA, VULTR_NY] {
        let table = bgp.forwarding_table(node).expect("node");
        sim.set_agent(node, Box::new(RouterAgent::new(node, table)));
    }
    // `flows` tunnels identical except id (⇒ UDP source port): each is
    // one probe flow, each hashes independently onto a lane.
    let tunnels: Vec<Tunnel> = (0..flows as u16)
        .map(|i| Tunnel::from_prefixes(i, format!("flow{i}"), la_prefix, ny_prefix))
        .collect();
    let la_stats = shared_sink();
    let ny_stats = shared_sink();
    // LA probes every flow; NY only receives (no tunnels, no timers).
    let mut install = |id, border, tunnels, mine, theirs, probe_period| {
        TangoSwitch::install(
            &mut sim,
            SwitchConfig {
                id,
                border,
                tunnels,
                remote_host_prefixes: vec![],
                probe_period,
                control_period: None,
                initial_path: 0,
                wan_table: None,
                feedback: FeedbackMode::Shared,
                auth_key: None,
                class_map: Default::default(),
                rx_labels: Vec::new(),
            },
            Box::new(StaticPolicy::single(0, "static")),
            Arc::clone(mine),
            Arc::clone(theirs),
            SimTime::from_ms(1),
        )
    };
    let probe = Some(SimTime::from_ms(10));
    install(TENANT_LA, VULTR_LA, tunnels, &la_stats, &ny_stats, probe);
    install(TENANT_NY, VULTR_NY, vec![], &ny_stats, &la_stats, None);
    sim.run_until(SimTime::from_secs(20));

    // Cluster the per-flow *means*: with ~2000 samples per flow the
    // standard error (σ/√n ≈ 1.3 µs for NTT) is far below the 60 µs lane
    // spacing, so clusters separate crisply even under jitter.
    let mut floors: Vec<f64> = ny_stats
        .lock()
        .paths()
        .filter_map(|(_, p)| p.owd.mean())
        .map(|v| v / 1e6)
        .collect();
    floors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut lane_means: Vec<f64> = Vec::new();
    let mut cluster: Vec<f64> = Vec::new();
    // Lanes are 60 µs apart in the Vultr calibration; split at half that.
    let gap = 0.03;
    for f in floors {
        if let Some(&last) = cluster.last() {
            if f - last > gap {
                lane_means.push(cluster.iter().sum::<f64>() / cluster.len() as f64);
                cluster.clear();
            }
        }
        cluster.push(f);
    }
    if !cluster.is_empty() {
        lane_means.push(cluster.iter().sum::<f64>() / cluster.len() as f64);
    }
    EcmpCensusResult {
        flows,
        estimated_lanes: lane_means.len(),
        lane_means_ms: lane_means,
    }
}

/// Print A5.
pub fn report_ecmp_census(seed: u64) {
    println!("A5 — ECMP lane census (§6 \"ECMP reverse engineering\" knob)\n");
    let r = ecmp_census(32, seed);
    let rows: Vec<Vec<String>> = r
        .lane_means_ms
        .iter()
        .enumerate()
        .map(|(i, m)| vec![format!("lane {i}"), fmt(*m, 3)])
        .collect();
    print_table(&["cluster", "delay floor (ms)"], &rows);
    println!(
        "\n{} probe flows (distinct source ports) clustered into {} lanes on the NTT \
         crossing (ground truth in the calibration: 4 lanes, 60 µs apart).",
        r.flows, r.estimated_lanes
    );
    println!(
        "A Tango tunnel pins one flow hash, so its samples land in exactly one cluster — \
         the determinism that makes per-path one-way measurements meaningful (§3)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_tango_is_sharpest_and_unbiased() {
        let rows = owd_accuracy(20_000, 1);
        let tango = &rows[0];
        let host = &rows[1];
        let ecmp = &rows[2];
        assert!(tango.bias_ms.abs() < 0.01, "tango bias {}", tango.bias_ms);
        assert!(tango.std_ms < 0.02, "tango std {}", tango.std_ms);
        assert!(
            host.std_ms > 10.0 * tango.std_ms,
            "host std {}",
            host.std_ms
        );
        assert!(host.bias_ms > 0.2, "host bias {}", host.bias_ms);
        assert!(ecmp.std_ms > 3.0 * tango.std_ms, "ecmp std {}", ecmp.std_ms);
    }

    #[test]
    fn a3_cooperation_beats_one_sided() {
        let rows = multihoming();
        let status_quo = &rows[0];
        let one_sided = &rows[1];
        let tango = &rows[2];
        // One-sided improves its own direction only.
        assert!(one_sided.la_ny_ms < status_quo.la_ny_ms - 5.0);
        assert_eq!(one_sided.ny_la_ms, status_quo.ny_la_ms);
        // Tango improves both.
        assert!(tango.ny_la_ms < one_sided.ny_la_ms - 5.0);
        assert!(tango.la_ny_ms + tango.ny_la_ms < one_sided.la_ny_ms + one_sided.ny_la_ms - 5.0);
    }

    #[test]
    fn a5_census_finds_the_four_lanes() {
        let r = ecmp_census(32, 2);
        assert_eq!(r.estimated_lanes, 4, "lanes {:?}", r.lane_means_ms);
        // Clusters sit ~60 µs apart.
        for w in r.lane_means_ms.windows(2) {
            let gap = w[1] - w[0];
            assert!((0.04..0.09).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn a7_loss_estimates_track_induced_rates() {
        let rows = loss_table(4);
        for r in &rows {
            let err = (r.measured_loss - r.induced_loss).abs();
            assert!(
                err < 0.01,
                "{}: induced {:.3} measured {:.3}",
                r.path,
                r.induced_loss,
                r.measured_loss
            );
            assert_eq!(r.duplicates, 0);
        }
        // Only the jittered path reorders.
        assert!(
            rows[0].reordered > 100,
            "NTT reorders: {}",
            rows[0].reordered
        );
        for r in &rows[1..] {
            assert_eq!(r.reordered, 0, "{}", r.path);
        }
    }

    #[test]
    fn a6_split_carries_what_single_path_drops() {
        let rows = load_balance(3);
        let default = &rows[0];
        let split = &rows[2];
        let rate = |r: &LoadBalanceRow| r.delivered as f64 / r.offered as f64;
        assert!(
            rate(default) < 0.7,
            "single path must melt: {:.2}",
            rate(default)
        );
        assert!(
            rate(split) > 0.95,
            "split must carry the load: {:.2}",
            rate(split)
        );
        assert!(default.queue_drops > 10_000);
        assert!(
            split.owd.p99 < default.owd.p99,
            "split tail must beat saturated tail"
        );
    }

    #[test]
    fn a4_small_sweep_runs() {
        // The 100-AS / 8-PoP tier: every pair provisions and measures.
        let rows = tango_of_n(&SMALL_TIERS[..1], 1);
        assert_eq!(rows[0].pairs, 8 * 7 / 2, "C(8, 2) pairings");
        assert_eq!(rows[0].failed, 0);
        assert!(rows[0].avg_paths >= 2.0, "avg paths {}", rows[0].avg_paths);
        assert!(rows[0].avg_gain_pct >= 0.0);
    }
}
