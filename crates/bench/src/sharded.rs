//! `experiments sharded` — the shard-scaling sweep over the replica
//! mesh (EXPERIMENTS.md B3).
//!
//! Runs **one** scenario — `tango::mesh::vultr_replica_mesh`, K offset
//! copies of the Vultr deployment inside a single simulator — under a
//! list of shard counts and verifies the runs are bit-identical:
//! identical [`NetworkSim::digest`](tango_sim::NetworkSim::digest) (merged
//! stats + canonical span-stream hash; without the `trace` feature the
//! stream is empty and the digest covers the stats only)
//! and identical event totals for every shard count. The committed
//! artifact `results/BENCH_sharded.json` contains **only deterministic
//! content** (digests, event counts, the identical verdict), so CI can
//! byte-diff it across machines and `--shards` settings; wall-clock
//! times and speedups go to stdout only, because they are a property of
//! the machine, not of the simulation.
//!
//! Exits nonzero if any shard count disagrees with the single-shard
//! reference — that is the determinism gate the suite exists for.

use crate::util::{fmt, json_escape_free, out_dir, print_table};
use std::path::PathBuf;
use std::time::Instant;
use tango::mesh::{vultr_replica_mesh, MeshOptions};
use tango::prelude::SimTime;
use tango_obs::Registry;
use tango_sim::{ShardLoad, ShardMode};

/// App-packet spacing of the injected mesh load, simulated time.
const PACKET_GAP_NS: u64 = 50_000;

/// Span ring capacity per shard (the digest hashes the canonical span
/// stream and rejects a wrapped ring, so it must cover the horizon).
const SPAN_CAPACITY: usize = 1 << 20;

/// Options for the shard-scaling sweep.
pub struct ShardedOptions {
    /// Replicas in the mesh (AS count = 9 × replicas).
    pub replicas: usize,
    /// App packets injected across the mesh (round-robin over replicas,
    /// alternating direction).
    pub packets: u64,
    /// Shard counts to sweep; the first is the reference.
    pub shard_counts: Vec<usize>,
    /// Simulation seed.
    pub seed: u64,
    /// Execution mode for multi-shard runs (`Auto` threads when the
    /// machine has cores to spare; `Serial`/`Threaded` force it).
    pub mode: ShardMode,
    /// Artifact directory override (`--out`); `None` = `results/`.
    pub out: Option<PathBuf>,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            replicas: 8,
            packets: 20_000,
            shard_counts: vec![1, 2, 4, 8],
            seed: 1,
            mode: ShardMode::Auto,
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

/// Build the mesh, inject the load, run to the horizon, fingerprint.
pub fn run_one(options: &ShardedOptions, shards: usize) -> ShardRun {
    let mut mesh = vultr_replica_mesh(&MeshOptions {
        replicas: options.replicas,
        seed: options.seed,
        shards,
        shard_mode: options.mode,
        span_capacity: SPAN_CAPACITY,
    })
    .expect("mesh provisions");
    let mut t = SimTime::from_ms(1);
    for i in 0..options.packets {
        let replica = (i as usize) % options.replicas;
        mesh.send_app_packet(t, replica, i % 2 == 0, (i % 4096) as u16);
        t += SimTime(PACKET_GAP_NS);
    }
    let horizon = t + SimTime::from_ms(100);
    #[allow(clippy::disallowed_methods)] // bench wall-clock: timing is the product here
    let started = Instant::now();
    let events = mesh.sim.run_until(horizon);
    let wall_ns = started.elapsed().as_nanos() as u64;
    ShardRun {
        shards,
        effective_shards: mesh.sim.shard_count(),
        wall_ns,
        events,
        digest: mesh.sim.digest(),
        load: mesh.sim.shard_load(),
    }
}

/// Export every run's [`ShardLoad`] into a `tango-obs` registry
/// (counters named `sharded.s<requested>.shard.<i>.<field>`), so the
/// self-profiler flows through the same snapshot/export machinery as the
/// rest of the metric tree. Callers pass a **private** registry: the
/// series are keyed by shard count, so they must never enter the shared
/// scenario registry that the shard-invariant TELEMETRY artifact
/// snapshots.
pub fn publish_load(registry: &Registry, runs: &[ShardRun]) {
    for r in runs {
        for l in &r.load {
            let base = format!("sharded.s{}.shard.{}", r.shards, l.shard);
            registry.counter(&format!("{base}.windows")).add(l.windows);
            registry
                .counter(&format!("{base}.idle_windows"))
                .add(l.idle_windows);
            registry.counter(&format!("{base}.events")).add(l.events);
            registry
                .counter(&format!("{base}.outbox_events"))
                .add(l.outbox_events);
            registry
                .gauge(&format!("{base}.queue_peak"))
                .set(l.queue_peak);
        }
    }
}

/// Render the sweep as the `BENCH_sharded.json` document. Deliberately
/// excludes wall-clock numbers: every field is a pure function of
/// (scenario, seed), so the artifact is byte-identical across machines,
/// shard counts, and execution modes.
pub fn to_json(options: &ShardedOptions, runs: &[ShardRun], identical: bool) -> String {
    let mut entries = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        let mut load = String::new();
        for (j, l) in r.load.iter().enumerate() {
            if j > 0 {
                load.push_str(",\n");
            }
            load.push_str(&format!(
                "      {{\"shard\": {}, \"windows\": {}, \"idle_windows\": {}, \
                 \"events\": {}, \"queue_peak\": {}, \"outbox_events\": {}}}",
                l.shard, l.windows, l.idle_windows, l.events, l.queue_peak, l.outbox_events
            ));
        }
        entries.push_str(&format!(
            "    {{\"shards\": {}, \"effective_shards\": {}, \"events\": {}, \
             \"digest\": \"{}\", \"load\": [\n{}\n    ]}}",
            r.shards,
            r.effective_shards,
            r.events,
            json_escape_free(&r.digest),
            load
        ));
    }
    format!(
        "{{\n  \"schema\": \"tango-bench/sharded/v1\",\n  \"scenario\": \"{}\",\n  \
         \"replicas\": {},\n  \"packets\": {},\n  \"seed\": {},\n  \
         \"identical\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        json_escape_free("vultr-replica-mesh"),
        options.replicas,
        options.packets,
        options.seed,
        identical,
        entries
    )
}

/// The `experiments sharded` entry point. Returns the process exit code
/// (nonzero when any shard count's results diverge from the reference).
pub fn report(options: &ShardedOptions) -> i32 {
    println!(
        "sharded — one {}-replica Vultr mesh ({} ASes), {} app packets, seed {}, \
         shard counts {:?}\n",
        options.replicas,
        options.replicas * 9,
        options.packets,
        options.seed,
        options.shard_counts
    );
    let runs: Vec<ShardRun> = options
        .shard_counts
        .iter()
        .map(|&s| run_one(options, s))
        .collect();
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
            fmt(options.packets as f64 / (r.wall_ns as f64 / 1e9), 0),
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
         of the artifact; the committed JSON holds only the deterministic fields)"
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
    // Export the profiler through tango-obs (a private registry — these
    // series are keyed by shard count, so they stay out of the shared
    // scenario registry that shard-invariant artifacts snapshot).
    let profiler = Registry::new();
    publish_load(&profiler, &runs);
    let snap = profiler.snapshot();
    println!(
        "self-profiler exported through tango-obs: {} series",
        snap.counters.len() + snap.gauges.len()
    );

    let path = out_dir(&options.out).join("BENCH_sharded.json");
    std::fs::write(&path, to_json(options, &runs, identical)).expect("write BENCH_sharded json");
    println!("written to {}", path.display());
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

    fn tiny() -> ShardedOptions {
        ShardedOptions {
            replicas: 2,
            packets: 64,
            shard_counts: vec![1, 2],
            seed: 5,
            mode: ShardMode::Auto,
            out: None,
        }
    }

    #[test]
    fn sweep_is_identical_across_shard_counts() {
        let options = tiny();
        let runs: Vec<ShardRun> = options
            .shard_counts
            .iter()
            .map(|&s| run_one(&options, s))
            .collect();
        assert_eq!(runs[0].digest, runs[1].digest);
        assert_eq!(runs[0].events, runs[1].events);
        // The self-profiler accounts for every dispatched event, and its
        // rows are a pure function of (scenario, seed, shard count) —
        // the same partition must report the same loads in any mode.
        for r in &runs {
            assert_eq!(r.load.len(), r.effective_shards);
            assert_eq!(r.load.iter().map(|l| l.events).sum::<u64>(), r.events);
        }
        let serial = run_one(
            &ShardedOptions {
                mode: ShardMode::Serial,
                ..tiny()
            },
            2,
        );
        let threaded = run_one(
            &ShardedOptions {
                mode: ShardMode::Threaded,
                ..tiny()
            },
            2,
        );
        assert_eq!(
            serial.load, threaded.load,
            "profiler must be mode-invariant"
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn profiler_flows_through_a_tango_obs_registry() {
        let options = tiny();
        let runs = vec![run_one(&options, 2)];
        let registry = Registry::new();
        publish_load(&registry, &runs);
        let snap = registry.snapshot();
        let total: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("sharded.s2.shard.") && k.ends_with(".events"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, runs[0].events);
        assert!(snap.gauges.contains_key("sharded.s2.shard.0.queue_peak"));
    }

    #[test]
    fn artifact_has_no_wall_clock_fields() {
        let options = tiny();
        let runs = vec![run_one(&options, 1)];
        let json = to_json(&options, &runs, true);
        assert!(
            !json.contains("wall"),
            "artifact must stay machine-independent"
        );
        assert!(json.contains("\"identical\": true"));
    }
}
