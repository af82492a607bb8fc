//! One run of one workload: repetitions until the time budget is spent,
//! then the medians.
//!
//! End-to-end numbers come from repetitions with the program's
//! observability off and the span recorder disarmed. A traced run
//! alternates those with traced repetitions (registry, span rings and the
//! benchmark's own spans armed); the ratio of the two is the tracing
//! overhead, and the traced side supplies the per-layer numbers.

use crate::isolated::Row;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, quantile, Summary};
use crate::workloads::{Params, Rep, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use tango_sim::ShardMode;

/// Fewest timed repetitions of a run, whatever the budget.
pub const MIN_REPS: usize = 3;
/// Size divisor of `--quick`.
pub const QUICK_SCALE: u64 = 20;
/// Size divisor of `check`.
pub const CHECK_SCALE: u64 = 50;
/// Size divisor of the warm-up repetition, relative to the run's own size.
const SMALL: u64 = 10;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Time budget, seconds. A repetition starts only while one more is
    /// expected to fit, except that [`MIN_REPS`] always run.
    pub seconds: f64,
    /// Size divisor (1 = full).
    pub scale: u64,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// Outputs verified: digests equal across repetitions, no invariant
    /// violated, no operation failed.
    pub correct: bool,
    /// Operations attempted over the timed, untraced repetitions.
    pub attempted: u64,
    /// Operations failed over the same. A violated invariant or a digest
    /// mismatch fails every operation.
    pub failed: u64,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    /// Digest of the simulated statistics (of repetition 1).
    pub digest: String,
    /// End-to-end metrics (untraced repetitions only).
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics; empty unless the run was traced.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// `(span name, count, total ns, self ns)` of the traced repetitions.
    pub span_totals: Vec<(&'static str, u64, u64, u64)>,
    /// Chrome `trace_event` JSON of the traced repetitions.
    pub chrome_trace: Option<String>,
}

/// Repeat `one` until the budget is spent: always [`MIN_REPS`] times,
/// then only while the slowest repetition so far would still fit.
fn repeat(seconds: f64, mut one: impl FnMut(usize)) {
    let started = Instant::now();
    let mut slowest = 0.0f64;
    for k in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        if k >= MIN_REPS && elapsed + slowest > seconds {
            break;
        }
        one(k);
        slowest = slowest.max(started.elapsed().as_secs_f64() - elapsed);
    }
}

/// Fold the untraced repetitions into the end-to-end metrics and the
/// correctness verdict.
fn summarize(workload: Workload, reps: &[Rep]) -> RunResult {
    let first = &reps[0];
    let mut problems: Vec<String> = Vec::new();
    for (k, rep) in reps.iter().enumerate() {
        for v in &rep.violations {
            problems.push(format!("repetition {}: {v}", k + 1));
        }
        if rep.digest != first.digest {
            problems.push(format!(
                "repetition {} digest {} differs from repetition 1's {}",
                k + 1,
                rep.digest,
                first.digest
            ));
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed = if problems.is_empty() {
        reps.iter().map(|r| r.failed).sum()
    } else {
        attempted
    };
    if problems.is_empty() && failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    let column = |f: &dyn Fn(&Rep) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    let end_to_end = BTreeMap::from([
        ("ops_per_s", column(&|r| r.completed as f64 / r.wall_s)),
        ("setup_s", column(&|r| r.setup_s)),
        (
            "peak_heap_mib",
            column(&|r| r.heap_peak as f64 / (1 << 20) as f64),
        ),
        (
            "delivered_share",
            column(&|r| r.completed as f64 / r.attempted.max(1) as f64),
        ),
    ]);
    debug_assert!(END_TO_END.iter().all(|m| end_to_end.contains_key(m.name)));
    RunResult {
        workload,
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        digest: first.digest.clone(),
        end_to_end,
        per_layer: BTreeMap::new(),
        span_totals: Vec::new(),
        chrome_trace: None,
    }
}

/// A reduced-size repetition first: code, allocator and page cache warm
/// before anything is timed.
fn warm_up(o: &RunOptions) {
    let p = Params {
        scale: o.scale * SMALL,
        ..Params::new(o.seed)
    };
    o.workload.rep(&p, &mut Recorder::new(false));
}

/// An untraced run: the end-to-end metrics.
pub fn untraced(o: &RunOptions) -> RunResult {
    warm_up(o);
    let p = Params {
        scale: o.scale,
        ..Params::new(o.seed)
    };
    let mut rec = Recorder::new(false);
    let mut reps = Vec::new();
    repeat(o.seconds, |_| reps.push(o.workload.rep(&p, &mut rec)));
    summarize(o.workload, &reps)
}

/// A traced run: every per-layer metric. `isolated` are the rows of
/// [`crate::isolated::run`], measured by the caller (once per process).
pub fn traced(o: &RunOptions, isolated: &[Row]) -> RunResult {
    warm_up(o);
    let plain = Params {
        scale: o.scale,
        ..Params::new(o.seed)
    };
    let armed = Params { obs: true, ..plain };
    let mut rec = Recorder::new(false);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    // Half the budget: each round is an untraced and a traced repetition.
    repeat(o.seconds / 2.0, |k| {
        rec.set_armed(false);
        off.push(o.workload.rep(&plain, &mut rec));
        rec.set_armed(true);
        rec.set_rep(k as u32 + 1);
        on.push(o.workload.rep(&armed, &mut rec));
    });
    rec.set_armed(false);

    let mut result = summarize(o.workload, &off);
    for (k, rep) in on.iter().enumerate() {
        if rep.digest != off[0].digest {
            result.correct = false;
            result.problems.push(format!(
                "traced repetition {} digest {} differs from the untraced {}",
                k + 1,
                rep.digest,
                off[0].digest
            ));
        }
    }

    let mut layer: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut put = |name: &'static str, v: f64| {
        let slot = layer.get_mut(name).expect("a registered per-layer metric");
        *slot = v;
    };
    for row in isolated {
        put(row.name, row.ns);
    }
    // Counts read at the boundaries: the untraced repetition's, then the
    // traced one's on top (it alone has the registry and the span rings).
    for source in [&off[0].layer, &on[0].layer] {
        for (name, v) in source {
            if PER_LAYER.iter().any(|m| m.name == *name) {
                put(name, *v);
            }
        }
    }
    let aux = |name: &str| {
        on[0]
            .layer
            .get(name)
            .or_else(|| off[0].layer.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let iso = |name: &str| {
        isolated
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.ns)
    };
    let wall_off = median(&off.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let wall_on = median(&on.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let ops = off[0].attempted as f64;
    put("trace.on_overhead_ratio", wall_on / wall_off);

    let span_ms =
        |name: &str| -> Vec<f64> { rec.durations_ns(name).iter().map(|ns| ns / 1e6).collect() };
    put(
        "topology.generate_ms",
        median(&span_ms("topology.generate")),
    );
    put("bgp.mesh_converge_ms", median(&span_ms("bgp.converge")));
    put(
        "core.pairing_build_ms",
        median(&span_ms("core.pairing_build")),
    );
    let tables = aux("bgp.fib_tables");
    if tables > 0.0 {
        put(
            "bgp.fib_build_us",
            median(&span_ms("bgp.fib_build")) * 1e3 / tables,
        );
    }

    if o.workload != Workload::NpopDiscovery {
        let events = aux("sim.events");
        put("sim.events_per_s", events / wall_off);
        put("sim.allocs_per_pkt", off[0].timed_allocs as f64 / ops);
        put(
            "sim.alloc_bytes_per_pkt",
            off[0].timed_alloc_bytes as f64 / ops,
        );
        let inject_ns: f64 = rec.durations_ns("core.inject").iter().sum();
        put(
            "core.inject_ns_per_pkt",
            inject_ns / (ops * on.len() as f64),
        );
        let slices = span_ms("sim.run_slice");
        put("core.slice_ms_p50", median(&slices));
        put("core.slice_ms_p90", quantile(&slices, 0.9));
    }
    match o.workload {
        Workload::PairFastpath | Workload::PairAdaptive => {
            // Estimated shares of the per-packet cost: isolated ns/op ×
            // the traced run's op count ÷ the untraced run's wall.
            let (encap, decap) = if o.workload == Workload::PairFastpath {
                ("dataplane.encap_64B_ns", "dataplane.decap_64B_ns")
            } else {
                (
                    "dataplane.encap_auth_1200B_ns",
                    "dataplane.decap_auth_1200B_ns",
                )
            };
            let wall_ns = wall_off * 1e9;
            let codec = (iso(encap) * aux("dataplane.encaps")
                + iso(decap) * aux("dataplane.decaps"))
                / wall_ns;
            // One lookup per dispatch at a router or switch, one per host
            // packet at its switch.
            let lpm = iso("net.lpm_tunnel_ns") * (aux("sim.deliveries") + ops) / wall_ns;
            let measure = iso("dataplane.record_owd_ns") * aux("dataplane.decaps") / wall_ns;
            // `sim.event_ns` is a router hop, FIB lookup included.
            let engine = (iso("sim.event_ns") - iso("net.lpm_fib_ns")).max(0.0) * aux("sim.events")
                / wall_ns;
            put("dataplane.codec_share", codec);
            put("net.lpm_share", lpm);
            put("measure.share", measure);
            put("sim.engine_share", engine);
            put(
                "core.unattributed_share",
                1.0 - codec - lpm - measure - engine,
            );
        }
        Workload::MeshSharded => {
            // Shard layouts against one shard, all at 1/40 size (median
            // wall of MIN_REPS repetitions each): on a 2-core box the
            // threaded runner is tens of times slower than one shard.
            let wall = |layout| {
                let p = Params {
                    scale: o.scale * 4 * SMALL,
                    shards: Some(layout),
                    ..plain
                };
                let walls: Vec<f64> = (0..MIN_REPS)
                    .map(|_| o.workload.rep(&p, &mut Recorder::new(false)).wall_s)
                    .collect();
                median(&walls)
            };
            let one = wall((1, ShardMode::Serial));
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            put(
                "sim.shard.serial_overhead_ratio",
                wall((crate::workloads::mesh::SHARDS, ShardMode::Serial)) / one,
            );
            put(
                "sim.shard.threaded_ratio",
                wall((cores.clamp(2, 4), ShardMode::Threaded)) / one,
            );
        }
        Workload::NpopDiscovery => {
            let updates = aux("bgp.timed_updates");
            put("bgp.update_ns", wall_off * 1e9 / updates.max(1.0));
            put("bgp.updates_per_s", updates / wall_off);
            put(
                "bgp.allocs_per_update",
                off[0].timed_allocs as f64 / updates.max(1.0),
            );
            let pairs = span_ms("control.discover_pair");
            put("control.discover_pair_ms_p50", median(&pairs));
            put("control.discover_pair_ms_p90", quantile(&pairs, 0.9));
        }
    }

    result.per_layer = layer;
    result.span_totals = rec.totals();
    result.chrome_trace = Some(rec.to_chrome_json());
    result
}
