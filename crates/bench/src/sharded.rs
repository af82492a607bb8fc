//! `experiments sharded` — the shard-scaling sweep over the connected
//! N-PoP mesh (EXPERIMENTS.md B3).
//!
//! Runs **one** scenario — the traffic phase of `tango::npop` on B5's
//! 300-AS / 16-PoP tier: one connected generated Gao-Rexford graph,
//! converged once, every node a longest-prefix-match router — under a
//! list of shard counts and verifies the runs are bit-identical:
//! identical [`NetworkSim::digest`](tango_sim::NetworkSim::digest) (merged
//! stats + canonical span-stream hash) and identical event totals for
//! every shard count. The graph is connected, so every multi-shard run
//! synchronizes: windows as wide as the shortest cross-shard link, events
//! handed over through the outboxes. The committed artifact
//! `results/BENCH_sharded.json` contains **only deterministic content**
//! (digests, event counts, per-shard load, the identical verdict), so it
//! is byte-identical across machines, `--shards` settings and modes;
//! wall-clock times go to stdout and to the sidecar
//! `BENCH_sharded.timing.json` next to it, which is never byte-compared,
//! because they are a property of the machine, not of the simulation.
//!
//! Exits nonzero if any shard count disagrees with the single-shard
//! reference — that is the determinism gate the suite exists for.

use crate::scalability::{Tier, SCENARIO, SMALL_TIERS};
use crate::util::{fmt, out_dir, per_s, print_table};
use std::path::PathBuf;
use std::time::Instant;
use tango::npop::NPopMesh;
use tango_obs::Value;
use tango_sim::{ShardLoad, ShardMode};

/// The mesh under the sweep: B5's second tier, so `--packets 256` is
/// that tier's traffic phase to the byte.
pub const TIER: Tier = SMALL_TIERS[1];

/// Options for the shard-scaling sweep.
pub struct ShardedOptions {
    /// Host packets injected across the mesh (round-robin over the PoP
    /// pairs, alternating direction).
    pub packets: u32,
    /// Shard counts to sweep; the first is the reference.
    pub shard_counts: Vec<usize>,
    /// Generator + simulator seed.
    pub seed: u64,
    /// Execution mode for multi-shard runs: the lockstep serial runner
    /// or one worker thread per shard.
    pub mode: ShardMode,
    /// Artifact directory override (`--out`); `None` = `results/`.
    pub out: Option<PathBuf>,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            packets: 20_000,
            shard_counts: vec![1, 2, 4, 8],
            seed: 1,
            mode: ShardMode::Serial,
            out: None,
        }
    }
}

/// One shard count's completed run.
pub struct ShardRun {
    /// Shards requested.
    pub shards: usize,
    /// Shards the partition actually produced (clamped to node count).
    pub effective_shards: usize,
    /// Whether the shards ran on worker threads (`mode` is `Threaded`
    /// and the partition has more than one shard; timing sidecar only).
    pub threaded: bool,
    /// Wall-clock nanoseconds for the simulation (excludes build).
    pub wall_ns: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Deterministic fingerprint (stats + span-stream hash).
    pub digest: String,
    /// The engine self-profiler: per-shard window/event/queue/outbox
    /// accounting (deterministic — identical for serial and threaded
    /// runners, so it lives in the byte-diffed artifact).
    pub load: Vec<ShardLoad>,
}

/// Build the routed simulator at `shards`, inject the load, run to the
/// horizon (the only timed part), fingerprint.
pub fn run_one(mesh: &NPopMesh, options: &ShardedOptions, shards: usize) -> ShardRun {
    let (mut sim, _) = mesh
        .routed_sim(options.packets, shards, options.mode)
        .expect("forwarding tables build");
    let horizon = mesh.inject(&mut sim, options.packets);
    #[allow(clippy::disallowed_methods)] // bench wall-clock: timing is the product here
    let started = Instant::now();
    let events = sim.run_until(horizon);
    let wall_ns = started.elapsed().as_nanos() as u64;
    ShardRun {
        shards,
        effective_shards: sim.shard_count(),
        threaded: sim.is_threaded(),
        wall_ns,
        events,
        digest: sim.digest(),
        load: sim.shard_load(),
    }
}

/// Converge the mesh once and run it under every shard count of the
/// sweep (the testable core of [`report`]).
pub fn sweep(options: &ShardedOptions) -> Vec<ShardRun> {
    let mesh = NPopMesh::converge(TIER.ases, TIER.pops, options.seed).expect("mesh converges");
    options
        .shard_counts
        .iter()
        .map(|&s| run_one(&mesh, options, s))
        .collect()
}

/// Render the sweep as the `BENCH_sharded.json` document. Deliberately
/// excludes wall-clock numbers: every field is a pure function of
/// (scenario, seed), so the artifact is byte-identical across machines,
/// shard counts, and execution modes.
pub fn to_json(options: &ShardedOptions, runs: &[ShardRun], identical: bool) -> String {
    let load = |l: &ShardLoad| {
        Value::obj([
            ("shard", Value::Num(l.shard)),
            ("windows", Value::Num(l.windows)),
            ("idle_windows", Value::Num(l.idle_windows)),
            ("events", Value::Num(l.events)),
            ("queue_peak", Value::Num(l.queue_peak)),
            ("outbox_events", Value::Num(l.outbox_events)),
        ])
    };
    let run = |r: &ShardRun| {
        Value::obj([
            ("shards", Value::Num(r.shards as u64)),
            ("effective_shards", Value::Num(r.effective_shards as u64)),
            ("events", Value::Num(r.events)),
            ("digest", Value::Str(r.digest.clone())),
            ("load", Value::Arr(r.load.iter().map(load).collect())),
        ])
    };
    Value::obj([
        ("schema", Value::Str("tango-bench/sharded/v2".into())),
        ("scenario", Value::Str(SCENARIO.into())),
        ("ases", Value::Num(TIER.ases as u64)),
        ("pops", Value::Num(TIER.pops as u64)),
        ("packets", Value::Num(u64::from(options.packets))),
        ("seed", Value::Num(options.seed)),
        ("identical", Value::Bool(identical)),
        ("runs", Value::Arr(runs.iter().map(run).collect())),
    ])
    .to_json()
}

/// Render the machine-dependent companion of [`to_json`]: the cores the
/// host offered, then one row per run with its resolved execution mode,
/// wall-clock in µs, packets per second and wall-clock as a multiple of
/// the reference (first) run's, ×1000. Never byte-compared.
pub fn timing_json(options: &ShardedOptions, runs: &[ShardRun]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let reference_ns = runs.first().map_or(1, |r| r.wall_ns.max(1));
    let run = |r: &ShardRun| {
        let mode = if r.threaded { "threaded" } else { "serial" };
        let pkts_per_s = per_s(options.packets.into(), r.wall_ns);
        let ratio_x1000 = r.wall_ns * 1_000 / reference_ns;
        Value::obj([
            ("shards", Value::Num(r.shards as u64)),
            ("effective_shards", Value::Num(r.effective_shards as u64)),
            ("mode", Value::Str(mode.into())),
            ("wall_us", Value::Num(r.wall_ns / 1_000)),
            ("pkts_per_s", Value::Num(pkts_per_s)),
            ("wall_ratio_x1000", Value::Num(ratio_x1000)),
        ])
    };
    Value::obj([
        ("schema", Value::Str("tango-bench/sharded-timing/v2".into())),
        ("cores", Value::Num(cores as u64)),
        ("runs", Value::Arr(runs.iter().map(run).collect())),
    ])
    .to_json()
}

/// The `experiments sharded` entry point. Returns the process exit code
/// (nonzero when any shard count's results diverge from the reference).
pub fn report(options: &ShardedOptions) -> i32 {
    println!(
        "sharded — one connected {}-AS / {}-PoP mesh, {} host packets, seed {}, \
         shard counts {:?}\n",
        TIER.ases, TIER.pops, options.packets, options.seed, options.shard_counts
    );
    let runs = sweep(options);
    let reference = &runs[0];
    let identical = runs
        .iter()
        .all(|r| r.digest == reference.digest && r.events == reference.events);
    let mut rows = Vec::new();
    for r in &runs {
        rows.push(vec![
            r.shards.to_string(),
            r.effective_shards.to_string(),
            r.events.to_string(),
            fmt(r.wall_ns as f64 / 1e6, 1),
            per_s(options.packets.into(), r.wall_ns).to_string(),
            fmt(reference.wall_ns as f64 / r.wall_ns as f64, 2),
            if r.digest == reference.digest {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    print_table(
        &[
            "shards",
            "effective",
            "sim events",
            "wall ms",
            "pkts/sec",
            "speedup",
            "identical",
        ],
        &rows,
    );
    println!(
        "\n(wall-clock columns depend on this machine's free cores and are NOT part \
         of the artifact; the committed JSON holds only the deterministic fields, \
         the timing sidecar the rest)"
    );

    // The engine self-profiler: per-shard load for the widest partition
    // of the sweep (single-shard runs have nothing to imbalance). All
    // virtual-time counters, so the table is deterministic and the same
    // rows land in the artifact for every run.
    if let Some(widest) = runs.iter().max_by_key(|r| r.effective_shards) {
        if widest.effective_shards > 1 {
            println!(
                "\nper-shard load at --shards {} (idle% = barrier-wait share: windows \
                 drained with zero events):",
                widest.shards
            );
            let total_events: u64 = widest.load.iter().map(|l| l.events).sum();
            let mut rows = Vec::new();
            for l in &widest.load {
                rows.push(vec![
                    l.shard.to_string(),
                    l.events.to_string(),
                    fmt(100.0 * l.events as f64 / total_events.max(1) as f64, 1),
                    l.windows.to_string(),
                    fmt(100.0 * l.idle_windows as f64 / l.windows.max(1) as f64, 1),
                    l.queue_peak.to_string(),
                    l.outbox_events.to_string(),
                ]);
            }
            print_table(
                &[
                    "shard",
                    "events",
                    "share%",
                    "windows",
                    "idle%",
                    "queue peak",
                    "outbox",
                ],
                &rows,
            );
            let max_share = widest
                .load
                .iter()
                .map(|l| l.events as f64 / total_events.max(1) as f64)
                .fold(0.0f64, f64::max);
            println!(
                "load imbalance: busiest shard carries {}% of the events \
                 (perfect balance would be {}%)",
                fmt(100.0 * max_share, 1),
                fmt(100.0 / widest.effective_shards as f64, 1)
            );
        }
    }
    let dir = out_dir(&options.out);
    let path = dir.join("BENCH_sharded.json");
    std::fs::write(&path, to_json(options, &runs, identical)).expect("write BENCH_sharded json");
    let timing = dir.join("BENCH_sharded.timing.json");
    std::fs::write(&timing, timing_json(options, &runs)).expect("write BENCH_sharded timing json");
    println!("written to {} (+ {})", path.display(), timing.display());
    if !identical {
        eprintln!(
            "FAIL: shard counts disagree — digests/events must be bit-identical \
             for every --shards value"
        );
        return 1;
    }
    println!(
        "determinism gate passed: {} shard counts produced identical digests and \
         event totals",
        runs.len()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::{field, items};

    fn tiny() -> ShardedOptions {
        ShardedOptions {
            packets: 64,
            shard_counts: vec![1, 2],
            seed: 5,
            mode: ShardMode::Serial,
            out: None,
        }
    }

    #[test]
    fn sweep_is_identical_across_shard_counts() {
        let runs = sweep(&tiny());
        assert_eq!(runs[0].digest, runs[1].digest);
        assert_eq!(runs[0].events, runs[1].events);
        // The self-profiler accounts for every dispatched event, and its
        // rows are a pure function of (scenario, seed, shard count) —
        // the same partition must report the same loads in any mode.
        for r in &runs {
            assert_eq!(r.load.len(), r.effective_shards);
            assert_eq!(r.load.iter().map(|l| l.events).sum::<u64>(), r.events);
        }
        // The mesh is connected: two shards must synchronize — more than
        // one window each, and events crossing between them.
        let two = &runs[1];
        assert!(two.load.iter().map(|l| l.windows).sum::<u64>() > 2);
        assert!(two.load.iter().map(|l| l.outbox_events).sum::<u64>() > 0);
        let mesh = NPopMesh::converge(TIER.ases, TIER.pops, tiny().seed).expect("mesh converges");
        let forced = |mode| run_one(&mesh, &ShardedOptions { mode, ..tiny() }, 2);
        let (serial, threaded) = (forced(ShardMode::Serial), forced(ShardMode::Threaded));
        assert!(!serial.threaded && threaded.threaded);
        assert_eq!(
            serial.load, threaded.load,
            "profiler must be mode-invariant"
        );
        assert_eq!(serial.digest, threaded.digest);
    }

    /// `sharded --packets 256 --seed 1` is the traffic phase of B5's
    /// 300-AS tier: same mesh, same injection, so the same digest as the
    /// golden row (which ran behind a full discovery phase).
    #[test]
    fn default_seed_at_256_packets_matches_the_golden_scalability_row() {
        let golden = include_str!("../../../tests/golden/BENCH_scalability_small.json");
        let golden = Value::parse(golden).expect("the golden parses");
        let row = items(field(&golden, "tiers"))
            .iter()
            .find(|row| field(row, "ases") == &Value::Num(TIER.ases as u64))
            .expect("the golden has the tier's row");
        assert_eq!(field(row, "pops"), &Value::Num(TIER.pops as u64));
        let runs = sweep(&ShardedOptions {
            packets: 256,
            shard_counts: vec![1, 4],
            ..ShardedOptions::default()
        });
        for r in &runs {
            assert_eq!(field(row, "traffic_digest"), &Value::Str(r.digest.clone()));
        }
    }

    #[test]
    fn artifact_has_no_wall_clock_fields() {
        let options = tiny();
        let runs = sweep(&options);
        let json = to_json(&options, &runs, true);
        assert!(
            !json.contains("wall"),
            "artifact must stay machine-independent"
        );
        let doc = Value::parse(&json).expect("the artifact parses");
        let schema = Value::Str("tango-bench/sharded/v2".into());
        assert_eq!(field(&doc, "schema"), &schema);
        assert_eq!(field(&doc, "ases"), &Value::Num(300));
        assert_eq!(field(&doc, "pops"), &Value::Num(16));
        assert_eq!(field(&doc, "identical"), &Value::Bool(true));
        assert_eq!(items(field(&doc, "runs")).len(), runs.len());
        // The sidecar is where the wall-clock goes: a row per run.
        let timing = Value::parse(&timing_json(&options, &runs)).expect("the sidecar parses");
        let schema = Value::Str("tango-bench/sharded-timing/v2".into());
        assert_eq!(field(&timing, "schema"), &schema);
        let rows = items(field(&timing, "runs"));
        assert_eq!(rows.len(), runs.len());
        for (row, r) in rows.iter().zip(&runs) {
            assert_eq!(field(row, "shards"), &Value::Num(r.shards as u64));
            assert_eq!(field(row, "mode"), &Value::Str("serial".into()));
            assert_eq!(field(row, "wall_us"), &Value::Num(r.wall_ns / 1_000));
        }
        assert_eq!(field(&rows[0], "wall_ratio_x1000"), &Value::Num(1_000));
    }
}
