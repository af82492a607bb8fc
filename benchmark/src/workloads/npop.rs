//! `npop_discovery`: the control plane alone. Set-up generates a 500-AS
//! internet, builds the BGP engine, announces one host /48 per PoP and
//! converges; the timed section runs §4.1 `discover_paths` for every
//! unordered PoP pair and checks each path valley-free. `sim` and
//! `dataplane` do no work here, so this is where RIB interning or probe
//! rollback must show and where a data-plane change must not.
//!
//! The loop is `tango::npop::run_npop`'s discovery phase, call for call:
//! `check` asserts it reproduces `run_npop`'s pair, path and
//! `updates_processed` totals for the same parameters.

use super::{bgp_rows, Fnv, Meter, Params, Rep};
use crate::rng::SplitMix64;
use crate::spans::Recorder;
use std::collections::BTreeSet;
use tango::npop::{host_prefix, probe_prefix};
use tango_bgp::policy::path_is_valley_free;
use tango_bgp::BgpEngine;
use tango_control::discover_paths;
use tango_obs::Registry;
use tango_topology::gen::{try_generate, GenParams};

/// Graph size at full size.
pub const ASES: usize = 500;
/// PoPs at full size (190 unordered pairs).
pub const POPS: usize = 20;
/// Per-pair discovery bound.
pub const MAX_PATHS: usize = 8;
/// Seed of the generated graph. A constant of the benchmark, not the
/// run's `--seed`: across graph seeds 1–7 the same 190 pairs ran at 54–75
/// pairs/s, a spread no regression bound survives. `--seed` draws the
/// probing order and direction instead.
pub const GRAPH_SEED: u64 = 1;

/// `(ases, pops)` at size divisor `scale`: the pair count, not the graph,
/// carries the reduction (a graph too small stops being scale-free).
pub fn size(scale: u64) -> (usize, usize) {
    match scale {
        1 => (ASES, POPS),
        2..=20 => (200, 8),
        _ => (120, 5),
    }
}

/// The `(observer index, announcer index)` list `run_npop` walks: every
/// unordered pair once, `i < j`, the lower index observing.
pub fn canonical_plan(pops: usize) -> Vec<(usize, usize)> {
    (0..pops)
        .flat_map(|i| ((i + 1)..pops).map(move |j| (i, j)))
        .collect()
}

/// The seeded plan: the same pairs, each probed in a seeded direction,
/// in a seeded order.
pub fn seeded_plan(pops: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(seed);
    let mut plan = canonical_plan(pops);
    for pair in &mut plan {
        if rng.below(2) == 1 {
            *pair = (pair.1, pair.0);
        }
    }
    rng.shuffle(&mut plan);
    plan
}

/// One repetition over the seeded plan.
pub fn rep(p: &Params, rec: &mut Recorder) -> Rep {
    let (_, pops) = size(p.scale);
    rep_with_plan(p, &seeded_plan(pops, p.seed), rec)
}

/// One repetition over an explicit plan.
pub fn rep_with_plan(p: &Params, plan: &[(usize, usize)], rec: &mut Recorder) -> Rep {
    let (ases, pop_count) = size(p.scale);
    let registry = p.obs.then(Registry::new);
    let mut rep = Rep::default();

    let mut meter = Meter::start();
    let (topology, pops, mut engine, routes) = rec.scope("bench.setup", |rec| {
        let generated = rec.scope("topology.generate", |_| {
            try_generate(&GenParams::internet(ases, pop_count, GRAPH_SEED))
                .expect("preset parameters are valid")
        });
        let topology = generated.topology;
        let pops = generated.edge_sites;
        let heap_before_bgp = meter.live_growth();
        let mut engine = BgpEngine::new(topology.clone());
        if let Some(r) = &registry {
            engine.set_obs(r);
            engine.set_rib_obs(r);
        }
        // PoPs are their own borders: they must honor the action
        // communities discovery attaches.
        for &pop in &pops {
            engine
                .set_honor_actions(pop, true)
                .expect("PoPs are graph nodes");
        }
        rec.scope("bgp.announce", |_| {
            for (i, &pop) in pops.iter().enumerate() {
                engine
                    .announce(pop, host_prefix(i), BTreeSet::new())
                    .expect("PoPs are graph nodes");
            }
        });
        rec.scope("bgp.converge", |_| {
            engine.converge().expect("Gao-Rexford policies converge")
        });
        let routes = engine.rib_stats().total() as u64;
        rep.layer.insert(
            "bgp.heap_bytes_per_route",
            ((meter.live_growth() - heap_before_bgp) / routes.max(1)) as f64,
        );
        rep.layer.insert("bgp.rib_routes_peak", routes as f64);
        (topology, pops, engine, routes)
    });
    let setup_snap = registry.as_ref().map(Registry::snapshot);
    meter.setup_done();

    let mut h = Fnv::default();
    let mut paths_total = 0u64;
    rec.scope("bench.timed", |rec| {
        for &(i, j) in plan {
            let (observer, announcer) = (pops[i], pops[j]);
            let found = rec.scope("control.discover_pair", |_| {
                discover_paths(
                    &mut engine,
                    announcer,
                    observer,
                    probe_prefix(j),
                    &[announcer, observer],
                    MAX_PATHS,
                )
            });
            rep.attempted += 1;
            h.mix(u64::from(observer.0));
            h.mix(u64::from(announcer.0));
            let Ok(found) = found else {
                h.mix(u64::MAX);
                continue;
            };
            let mut valley_free = true;
            for path in &found {
                let mut nodes = Vec::with_capacity(path.as_path.len() + 1);
                nodes.push(observer);
                nodes.extend_from_slice(&path.as_path);
                valley_free &= path_is_valley_free(&topology, &nodes);
                nodes.iter().for_each(|n| h.mix(u64::from(n.0)));
            }
            paths_total += found.len() as u64;
            if found.len() >= 2 && valley_free {
                rep.completed += 1;
            }
        }
    });
    meter.timed_done(&mut rep);
    rep.failed = rep.attempted - rep.completed;

    rep.layer.insert("control.paths", paths_total as f64);
    if let (Some(registry), Some(before)) = (&registry, &setup_snap) {
        let snap = registry.snapshot();
        bgp_rows(&snap, &mut rep.layer);
        let since = |k: &str| {
            let count = |s: &tango_obs::Snapshot| s.counters.get(k).copied().unwrap_or(0);
            count(&snap) - count(before)
        };
        let converges = since("bgp.converges");
        rep.layer
            .insert("bgp.timed_updates", since("bgp.updates_processed") as f64);
        rep.layer.insert(
            "control.paths_per_converge_x1000",
            (paths_total as f64 * 1000.0 / converges.max(1) as f64).round(),
        );
    }
    // Probes are withdrawn after every pair: the RIB must be back to the
    // converged mesh, or a probe leaked.
    if engine.rib_stats().total() as u64 != routes {
        rep.violations
            .push("discovery left probe routes in the RIB".into());
    }
    h.mix(paths_total);
    rep.digest = h.hex();
    rep
}
