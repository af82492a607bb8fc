//! `experiments scalability` — the internet-scale Tango-of-N sweep
//! (EXPERIMENTS.md B5).
//!
//! Runs the three phases of [`tango::npop::NPopMesh`] over a ladder of
//! generated scale-free graphs (100 → 5000 ASes, 8 → 64 PoPs): each tier
//! converges and discovers all pairs once, then runs the traffic phase
//! twice from that one converged engine — at one shard and at the
//! requested shard count — and gates on the two results being identical:
//! the shard count is only ever seen by the traffic phase, which must be
//! bit-identical regardless of parallelism. (That the control plane —
//! generator, incremental BGP convergence, all-pairs discovery — repeats
//! bit for bit is `tests/gate.rs`'s to check, against the committed
//! bytes.) The committed artifact
//! `results/BENCH_scalability.json` holds **only deterministic
//! content** (per-tier digests, RIB/FIB occupancy, convergence and
//! discovery totals, path counts, stretch percentiles), so it is
//! byte-identical across runs, machines, and `--shards` settings. What
//! depends on the machine — per-tier wall-clock and updates per second,
//! with the RIB bytes per route beside them — goes to the sidecar
//! `BENCH_scalability.timing.json` next to it, which is never
//! byte-compared.
//!
//! Exits nonzero when any tier's shard counts disagree, or when any
//! discovered path violates the valley-free property — both are
//! correctness gates, not performance ones.

use crate::util::{fmt, out_dir, per_s, print_table};
use std::path::PathBuf;
use std::time::Instant;
use tango::npop::{NPopMesh, NPopOutcome};
use tango_obs::Value;

/// Scenario id of this sweep's and `experiments sharded`'s artifacts.
pub const SCENARIO: &str = "internet-npop-mesh";

/// Host packets injected per tier's traffic phase.
const TRAFFIC_PACKETS: u32 = 256;

/// Per-pair discovery bound.
const MAX_PATHS: usize = 8;

/// One `(ases, pops)` rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier {
    /// Total AS count of the generated graph.
    pub ases: usize,
    /// Edge PoPs running discovery (N).
    pub pops: usize,
}

/// The small rungs (also the golden-pinned ones).
pub const SMALL_TIERS: [Tier; 2] = [
    Tier { ases: 100, pops: 8 },
    Tier {
        ases: 300,
        pops: 16,
    },
];

/// The full ladder's additional rungs, up to the 5000-AS / N=64 row.
pub const FULL_TIERS: [Tier; 3] = [
    Tier {
        ases: 1000,
        pops: 32,
    },
    Tier {
        ases: 2000,
        pops: 48,
    },
    Tier {
        ases: 5000,
        pops: 64,
    },
];

/// Options for the scalability sweep.
pub struct ScalabilityOptions {
    /// Include the full ladder (1000/2000/5000 ASes) after the small
    /// tiers; `false` = small tiers only (the golden's configuration).
    pub full: bool,
    /// Generator + simulator seed.
    pub seed: u64,
    /// Shard count of each tier's second traffic run (the first always
    /// runs at one shard; the two results must match).
    pub shards: usize,
    /// Artifact directory override (`--out`); `None` = `results/`.
    pub out: Option<PathBuf>,
}

impl Default for ScalabilityOptions {
    fn default() -> Self {
        ScalabilityOptions {
            full: true,
            seed: 1,
            shards: 8,
            out: None,
        }
    }
}

/// One tier's completed run.
pub struct TierRun {
    /// The rung.
    pub tier: Tier,
    /// The outcome with the single-shard traffic phase (the artifact's
    /// content).
    pub outcome: NPopOutcome,
    /// `true` when the traffic phase at `--shards` reproduced the
    /// single-shard one (digest, deliveries, hop-limit expiries).
    pub identical: bool,
    /// Wall-clock ns of the three phases at one shard (timing sidecar
    /// only, never in the artifact).
    pub wall_ns: u64,
    /// Route updates the engine executed over those phases
    /// (`BgpEngine::work`): unlike `updates_processed`, no twin fill's
    /// billed flood.
    pub updates_executed: u64,
}

/// Run one tier: converge and discover once, then the traffic phase at
/// one shard and at `options.shards` from the same converged engine.
pub fn run_tier(options: &ScalabilityOptions, tier: Tier) -> TierRun {
    #[allow(clippy::disallowed_methods)] // bench wall-clock: timing is the product here
    let started = Instant::now();
    let mut mesh =
        NPopMesh::converge(tier.ases, tier.pops, options.seed).expect("npop tier converges");
    let pairs = mesh.discover(MAX_PATHS).expect("npop discovery runs");
    let reference = mesh
        .run_traffic(TRAFFIC_PACKETS, 1)
        .expect("npop traffic runs");
    let wall_ns = started.elapsed().as_nanos() as u64;
    let updates_executed = mesh.engine().work().updates;
    let sharded = mesh
        .run_traffic(TRAFFIC_PACKETS, options.shards)
        .expect("npop sharded traffic rerun");
    TierRun {
        tier,
        identical: sharded == reference,
        outcome: mesh.outcome(pairs, reference),
        wall_ns,
        updates_executed,
    }
}

/// The tier list an options struct selects.
pub fn tiers(options: &ScalabilityOptions) -> Vec<Tier> {
    let mut v = SMALL_TIERS.to_vec();
    if options.full {
        v.extend_from_slice(&FULL_TIERS);
    }
    v
}

/// Render the sweep as the `BENCH_scalability.json` document. Every
/// field is a pure function of (tiers, seed): no wall-clock content,
/// so the artifact is byte-identical across machines, runs, and shard
/// counts.
pub fn to_json(options: &ScalabilityOptions, runs: &[TierRun]) -> String {
    let n = |v: usize| Value::Num(v as u64);
    let tier = |r: &TierRun| {
        let o = &r.outcome;
        let (paths_min, paths_p50, paths_max, paths_total) = o.path_counts();
        let (p50, p90, p99) = o.stretch_percentiles();
        Value::obj([
            ("ases", n(r.tier.ases)),
            ("pops", n(r.tier.pops)),
            ("pairs", n(o.pairs.len())),
            ("unreachable_pairs", n(o.unreachable_pairs)),
            ("reachable_routes", n(o.reachable_routes)),
            ("mesh_rounds", n(o.mesh_rounds)),
            ("converges", Value::Num(o.converges)),
            ("discovery_rounds", Value::Num(o.convergence_rounds)),
            ("updates_processed", Value::Num(o.updates_processed)),
            ("rib_adj_in", n(o.rib.adj_rib_in)),
            ("rib_loc", n(o.rib.loc_rib)),
            ("rib_adj_out", n(o.rib.adj_rib_out)),
            ("rib_routes_peak", Value::Num(o.peak_routes)),
            ("rib_bytes_est", Value::Num(o.rib_bytes_est)),
            ("fib_entries", Value::Num(o.fib_entries)),
            ("paths_min", Value::Num(paths_min)),
            ("paths_p50", Value::Num(paths_p50)),
            ("paths_max", Value::Num(paths_max)),
            ("paths_total", Value::Num(paths_total)),
            ("valley_violations", Value::Num(o.valley_violations())),
            ("stretch_p50_x1000", Value::Num(p50)),
            ("stretch_p90_x1000", Value::Num(p90)),
            ("stretch_p99_x1000", Value::Num(p99)),
            ("deliveries", Value::Num(o.deliveries)),
            ("ttl_expired", Value::Num(o.ttl_expired)),
            ("identical", Value::Bool(r.identical)),
            ("digest", Value::Str(format!("{:016x}", o.digest()))),
            ("traffic_digest", Value::Str(o.traffic_digest.clone())),
        ])
    };
    Value::obj([
        ("schema", Value::Str("tango-bench/scalability/v1".into())),
        ("scenario", Value::Str(SCENARIO.into())),
        ("seed", Value::Num(options.seed)),
        ("traffic_packets", Value::Num(u64::from(TRAFFIC_PACKETS))),
        ("max_paths", n(MAX_PATHS)),
        ("tiers", Value::Arr(runs.iter().map(tier).collect())),
    ])
    .to_json()
}

/// Render the machine-dependent companion of [`to_json`]: one row per
/// tier with the single-shard run's wall-clock, the BGP updates the
/// engine executed per second of that wall-clock, and the estimated RIB
/// bytes per route and in total (KiB). Never byte-compared.
pub fn timing_json(runs: &[TierRun]) -> String {
    let tier = |r: &TierRun| {
        let o = &r.outcome;
        let updates_per_s = per_s(r.updates_executed, r.wall_ns);
        let per_route = o.rib_bytes_est / o.peak_routes.max(1);
        Value::obj([
            ("ases", Value::Num(r.tier.ases as u64)),
            ("pops", Value::Num(r.tier.pops as u64)),
            ("wall_ms", Value::Num(r.wall_ns / 1_000_000)),
            ("updates_per_s", Value::Num(updates_per_s)),
            ("rib_bytes_per_route", Value::Num(per_route)),
            ("rib_kib", Value::Num(o.rib_bytes_est >> 10)),
        ])
    };
    let schema = "tango-bench/scalability-timing/v3";
    Value::obj([
        ("schema", Value::Str(schema.into())),
        ("tiers", Value::Arr(runs.iter().map(tier).collect())),
    ])
    .to_json()
}

/// The `experiments scalability` entry point. Returns the process exit
/// code (nonzero on a shard-determinism or valley-free failure).
pub fn report(options: &ScalabilityOptions) -> i32 {
    let ladder = tiers(options);
    println!(
        "scalability — internet-scale N-PoP mesh: tiers {:?}, seed {}, shards 1 vs {}\n",
        ladder
            .iter()
            .map(|t| format!("{}x{}", t.ases, t.pops))
            .collect::<Vec<_>>(),
        options.seed,
        options.shards
    );
    let mut runs = Vec::new();
    for tier in ladder {
        let r = run_tier(options, tier);
        let o = &r.outcome;
        let (_, paths_p50, _, paths_total) = o.path_counts();
        let (p50, p90, p99) = o.stretch_percentiles();
        println!(
            "  {}x{}: {} pairs, {} paths (p50 {}), stretch p50/p90/p99 = \
             {}/{}/{} x1000, peak {} routes (~{} MiB), {} converges / {} rounds, \
             {} ms wall{}",
            tier.ases,
            tier.pops,
            o.pairs.len(),
            paths_total,
            paths_p50,
            p50,
            p90,
            p99,
            o.peak_routes,
            o.rib_bytes_est >> 20,
            o.converges,
            o.convergence_rounds,
            r.wall_ns / 1_000_000,
            if r.identical {
                ""
            } else {
                "  [DIGEST MISMATCH]"
            }
        );
        runs.push(r);
    }

    let mut rows = Vec::new();
    for r in &runs {
        let o = &r.outcome;
        let (paths_min, paths_p50, paths_max, _) = o.path_counts();
        let (p50, p90, p99) = o.stretch_percentiles();
        rows.push(vec![
            r.tier.ases.to_string(),
            r.tier.pops.to_string(),
            o.pairs.len().to_string(),
            format!("{}/{}/{}", paths_min, paths_p50, paths_max),
            format!("{}/{}/{}", p50, p90, p99),
            o.peak_routes.to_string(),
            o.fib_entries.to_string(),
            o.converges.to_string(),
            o.convergence_rounds.to_string(),
            fmt(r.wall_ns as f64 / 1e6, 1),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!();
    print_table(
        &[
            "ases",
            "pops",
            "pairs",
            "paths min/p50/max",
            "stretch p50/p90/p99",
            "rib peak",
            "fib",
            "converges",
            "rounds",
            "wall ms",
            "identical",
        ],
        &rows,
    );
    println!(
        "\n(wall-clock column depends on this machine and is NOT part of the \
         artifact; the committed JSON holds only the deterministic fields)"
    );

    let dir = out_dir(&options.out);
    let path = dir.join("BENCH_scalability.json");
    std::fs::write(&path, to_json(options, &runs)).expect("write BENCH_scalability json");
    let timing = dir.join("BENCH_scalability.timing.json");
    std::fs::write(&timing, timing_json(&runs)).expect("write BENCH_scalability timing json");
    println!("written to {} (+ {})", path.display(), timing.display());

    let identical = runs.iter().all(|r| r.identical);
    let valley: u64 = runs.iter().map(|r| r.outcome.valley_violations()).sum();
    if !identical {
        eprintln!(
            "FAIL: shard counts disagree — the traffic phase must be bit-identical \
             for shards 1 vs {}",
            options.shards
        );
        return 1;
    }
    if valley != 0 {
        eprintln!("FAIL: {valley} discovered paths violate the valley-free property");
        return 1;
    }
    println!(
        "determinism gate passed: {} tiers bit-identical at shards 1 vs {}, \
         0 valley-free violations",
        runs.len(),
        options.shards
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::{field, items};

    fn tiny() -> ScalabilityOptions {
        ScalabilityOptions {
            full: false,
            seed: 3,
            shards: 4,
            out: None,
        }
    }

    #[test]
    fn small_tier_is_deterministic_and_valley_free() {
        let options = tiny();
        let r = run_tier(&options, SMALL_TIERS[0]);
        assert!(r.identical, "shards 1 vs 4 must agree");
        assert_eq!(r.outcome.valley_violations(), 0);
        assert_eq!(r.outcome.unreachable_pairs, 0);
        let again = run_tier(&options, SMALL_TIERS[0]);
        assert_eq!(
            r.outcome.digest(),
            again.outcome.digest(),
            "rerun must be bit-identical"
        );
    }

    #[test]
    fn artifact_has_no_wall_clock_fields() {
        let options = tiny();
        let runs = vec![run_tier(&options, SMALL_TIERS[0])];
        let json = to_json(&options, &runs);
        assert!(
            !json.contains("wall"),
            "artifact must stay machine-independent"
        );
        let doc = Value::parse(&json).expect("the artifact parses");
        let schema = Value::Str("tango-bench/scalability/v1".into());
        assert_eq!(field(&doc, "schema"), &schema);
        let rows = items(field(&doc, "tiers"));
        assert_eq!(rows.len(), runs.len());
        assert_eq!(field(&rows[0], "identical"), &Value::Bool(true));
        assert_eq!(
            json,
            to_json(&options, &runs),
            "rendering is a pure function"
        );
    }

    #[test]
    fn timing_sidecar_has_a_row_per_tier() {
        let options = tiny();
        let runs = vec![run_tier(&options, SMALL_TIERS[0])];
        let doc = Value::parse(&timing_json(&runs)).expect("the sidecar parses");
        let schema = Value::Str("tango-bench/scalability-timing/v3".into());
        assert_eq!(field(&doc, "schema"), &schema);
        let rows = items(field(&doc, "tiers"));
        assert_eq!(rows.len(), runs.len());
        assert_eq!(field(&rows[0], "ases"), &Value::Num(100));
        assert_eq!(field(&rows[0], "pops"), &Value::Num(8));
        let rib_kib = runs[0].outcome.rib_bytes_est / 1024;
        assert_eq!(field(&rows[0], "rib_kib"), &Value::Num(rib_kib));
        // The rate is of updates executed; a twin fill's are only billed.
        let r = &runs[0];
        assert!(r.updates_executed < r.outcome.updates_processed);
        let rate = per_s(r.updates_executed, r.wall_ns);
        assert_eq!(field(&rows[0], "updates_per_s"), &Value::Num(rate));
    }

    #[test]
    fn tier_selection_honors_full_flag() {
        assert_eq!(tiers(&tiny()).len(), SMALL_TIERS.len());
        assert_eq!(
            tiers(&ScalabilityOptions::default()).len(),
            SMALL_TIERS.len() + FULL_TIERS.len()
        );
    }
}
