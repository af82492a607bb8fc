//! The four workloads. Names are fixed: later issues cite them.
//!
//! A *repetition* is one complete pass: set-up from the seed (timed as
//! `setup_s`), the timed section (inject + drain, or all-pairs
//! discovery), then an untimed verification of the outputs. Every
//! repetition of a run starts from the same seed, so its simulated
//! statistics — folded into [`Rep::digest`] — must repeat exactly.

pub mod mesh;
pub mod npop;
pub mod pair;

use crate::alloc::{self, Reading};
use crate::spans::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;
use tango_sim::ShardMode;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Smallest packet through the static two-edge pairing.
    PairFastpath,
    /// Largest packet, authenticated, in-band feedback, faults mid-run.
    PairAdaptive,
    /// Plain IPv6 over a 1000-AS mesh in four serial shards.
    MeshSharded,
    /// All-pairs §4.1 path discovery on a 500-AS graph.
    NpopDiscovery,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PairFastpath,
        Workload::PairAdaptive,
        Workload::MeshSharded,
        Workload::NpopDiscovery,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairFastpath => "pair_fastpath",
            Workload::PairAdaptive => "pair_adaptive",
            Workload::MeshSharded => "mesh_sharded",
            Workload::NpopDiscovery => "npop_discovery",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::NpopDiscovery => "PoP pair",
            _ => "app packet",
        }
    }

    /// Run one repetition.
    pub fn rep(self, p: &Params, rec: &mut Recorder) -> Rep {
        match self {
            Workload::PairFastpath => pair::rep(pair::Kind::Fastpath, p, rec),
            Workload::PairAdaptive => pair::rep(pair::Kind::Adaptive, p, rec),
            Workload::MeshSharded => mesh::rep(p, rec),
            Workload::NpopDiscovery => npop::rep(p, rec),
        }
    }
}

/// Inputs of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload seed: every generated input derives from it.
    pub seed: u64,
    /// Size divisor: 1 = full, 20 = `--quick`, 50 = `check`.
    pub scale: u64,
    /// Arm the program's own observability (registry, span rings). On
    /// only in traced repetitions; end-to-end numbers never see it.
    pub obs: bool,
    /// `mesh_sharded` only: run with this shard layout instead of the
    /// workload's four serial shards (the `sim.shard.*_ratio` rows and
    /// the shard-invariance check).
    pub shards: Option<(usize, ShardMode)>,
}

impl Params {
    /// A full-size, untraced repetition of `seed`.
    pub fn new(seed: u64) -> Params {
        Params {
            seed,
            scale: 1,
            obs: false,
            shards: None,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds from the first call to the first timed operation.
    pub setup_s: f64,
    /// Host seconds of the timed section.
    pub wall_s: f64,
    /// Operations attempted (app packets or PoP pairs).
    pub attempted: u64,
    /// Operations that completed (delivered packets; pairs with at least
    /// two valley-free paths).
    pub completed: u64,
    /// Operations that failed. Not `attempted - completed`: a packet the
    /// scenario's own scheduled fault dropped is lost, not failed (see
    /// `pair::verify`).
    pub failed: u64,
    /// Broken invariants. Any entry fails every operation of the run.
    pub violations: Vec<String>,
    /// Fingerprint of the simulated statistics (exact across
    /// repetitions and, for an unchanged model, across commits).
    pub digest: String,
    /// Peak live heap above the repetition's starting point, bytes.
    pub heap_peak: u64,
    /// Allocator calls inside the timed section.
    pub timed_allocs: u64,
    /// Bytes requested inside the timed section.
    pub timed_alloc_bytes: u64,
    /// Per-layer counts read at the layer boundaries (metric name →
    /// value), exact unless the name says otherwise.
    pub layer: BTreeMap<&'static str, f64>,
}

/// Clock and allocator bookkeeping of one repetition.
pub struct Meter {
    base: Reading,
    started: Instant,
    setup_s: f64,
    timed_from: Reading,
    timed_at: Instant,
}

impl Meter {
    /// Start the repetition: restart the heap high-water mark and the
    /// set-up clock.
    pub fn start() -> Meter {
        let base = alloc::reset_peak();
        let now = Instant::now();
        Meter {
            base,
            started: now,
            setup_s: 0.0,
            timed_from: base,
            timed_at: now,
        }
    }

    /// Live heap growth since the repetition started, bytes.
    pub fn live_growth(&self) -> u64 {
        alloc::read().live.saturating_sub(self.base.live)
    }

    /// Set-up is done; the timed section starts now.
    pub fn setup_done(&mut self) {
        self.setup_s = self.started.elapsed().as_secs_f64();
        self.timed_from = alloc::read();
        self.timed_at = Instant::now();
    }

    /// The timed section is done: fill the clock and heap fields of `rep`.
    pub fn timed_done(&self, rep: &mut Rep) {
        rep.wall_s = self.timed_at.elapsed().as_secs_f64();
        let now = alloc::read();
        rep.setup_s = self.setup_s;
        rep.heap_peak = now.peak.saturating_sub(self.base.live);
        rep.timed_allocs = now.calls - self.timed_from.calls;
        rep.timed_alloc_bytes = now.bytes - self.timed_from.bytes;
    }
}

/// FNV-1a over a sequence of words: the digest primitive.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest so far, as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fold the simulator's counters into a digest.
pub fn mix_sim_stats(h: &mut Fnv, s: &tango_sim::SimStats) {
    for v in [
        s.transmissions,
        s.deliveries,
        s.lost_link,
        s.lost_outage,
        s.lost_fault,
        s.corrupted,
        s.no_link,
        s.lost_queue,
        s.no_route,
        s.ttl_expired,
        s.timers,
    ] {
        h.mix(v);
    }
}

impl Rep {
    /// Record a violation for every named counter that is not 0.
    pub fn expect_zero(&mut self, counters: &[(&str, u64)]) {
        for (name, v) in counters {
            if *v != 0 {
                self.violations.push(format!("{name} = {v}, expected 0"));
            }
        }
    }
}

/// The `sim.*` counts of a finished packet run: events and deliveries,
/// and the per-shard self-profiler summed over shards.
pub fn sim_rows(
    sim: &tango_sim::NetworkSim,
    packets: u64,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    let load = sim.shard_load();
    let sum = |f: fn(&tango_sim::ShardLoad) -> u64| load.iter().map(f).sum::<u64>() as f64;
    let events = sum(|l| l.events);
    let windows = sum(|l| l.windows);
    let busiest = load.iter().map(|l| l.events).max().unwrap_or(0) as f64;
    let share = |part: f64, whole: f64| if whole == 0.0 { 0.0 } else { part / whole };
    layer.insert("sim.events", events);
    layer.insert("sim.events_per_pkt", events / packets as f64);
    layer.insert("sim.deliveries", sim.stats().deliveries as f64);
    layer.insert("sim.shard.windows", windows);
    layer.insert(
        "sim.shard.idle_window_share",
        share(sum(|l| l.idle_windows), windows),
    );
    layer.insert("sim.shard.outbox_events", sum(|l| l.outbox_events));
    layer.insert(
        "sim.shard.imbalance_x1000",
        (share(busiest * load.len() as f64, events) * 1000.0).round(),
    );
}

/// The `bgp.*` counts of a registry the engine exported into.
pub fn bgp_rows(snap: &tango_obs::Snapshot, layer: &mut BTreeMap<&'static str, f64>) {
    let updates = snap
        .counters
        .get("bgp.updates_processed")
        .copied()
        .unwrap_or(0);
    let converges = snap.counters.get("bgp.converges").copied().unwrap_or(0);
    let rounds = snap
        .histograms
        .get("bgp.convergence.rounds")
        .map_or(0, |h| h.sum);
    let peak = snap.gauges.get("bgp.rib.peak_routes").copied().unwrap_or(0) as f64;
    layer.insert("bgp.updates_processed", updates as f64);
    layer.insert("bgp.converges", converges as f64);
    layer.insert(
        "bgp.rounds_per_converge_x1000",
        (rounds as f64 * 1000.0 / converges.max(1) as f64).round(),
    );
    let seen = layer.get("bgp.rib_routes_peak").copied().unwrap_or(0.0);
    layer.insert("bgp.rib_routes_peak", seen.max(peak));
}

/// The `trace.*` counts of the program's merged span ring.
pub fn trace_rows(spans: &tango_sim::SpanRing, layer: &mut BTreeMap<&'static str, f64>) {
    layer.insert("trace.spans_recorded", spans.total_recorded() as f64);
    layer.insert(
        "trace.ring_wrapped",
        f64::from(u8::from(spans.total_recorded() > spans.capacity() as u64)),
    );
}
