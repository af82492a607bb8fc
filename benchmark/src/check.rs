//! `check`: every workload at 1/50 size, asserting what the full-size run
//! relies on. Returns the list of failed assertions (empty = pass).

use crate::run::CHECK_SCALE;
use crate::spans::Recorder;
use crate::workloads::{npop, pair, Params, Rep, Workload};
use tango::npop::{run_npop, NPopOptions};
use tango::prelude::*;
use tango_sim::ShardMode;

fn rep(w: Workload, p: &Params) -> Rep {
    w.rep(p, &mut Recorder::new(false))
}

/// Run every assertion for `seed`.
pub fn check(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let p = Params {
        scale: CHECK_SCALE,
        ..Params::new(seed)
    };

    for w in Workload::ALL {
        let name = w.name();
        // The first repetition of a process also warms the allocator's
        // own structures; the counts compared are the second and third.
        let (_, a, b) = (rep(w, &p), rep(w, &p), rep(w, &p));
        expect(
            a.violations.is_empty(),
            format!("{name}: {:?}", a.violations),
        );
        expect(
            a.failed == 0,
            format!("{name}: {} of {} ops failed", a.failed, a.attempted),
        );
        expect(
            a.attempted > 0 && a.completed <= a.attempted,
            format!("{name}: conservation"),
        );
        expect(
            a.digest == b.digest,
            format!("{name}: repetition digests differ"),
        );
        expect(
            (a.heap_peak, a.timed_allocs, a.timed_alloc_bytes)
                == (b.heap_peak, b.timed_allocs, b.timed_alloc_bytes),
            format!(
                "{name}: allocator counts differ across repetitions: {:?} vs {:?}",
                (a.heap_peak, a.timed_allocs, a.timed_alloc_bytes),
                (b.heap_peak, b.timed_allocs, b.timed_alloc_bytes)
            ),
        );
        let traced = w.rep(&Params { obs: true, ..p }, &mut Recorder::new(true));
        expect(
            traced.digest == a.digest,
            format!("{name}: arming observability changed the digest"),
        );
        if matches!(w, Workload::PairFastpath | Workload::MeshSharded) {
            expect(
                a.completed == a.attempted,
                format!(
                    "{name}: {} of {} packets delivered",
                    a.completed, a.attempted
                ),
            );
        }
    }

    // mesh_sharded: one shard and four agree, and four really synchronize.
    let four = rep(Workload::MeshSharded, &p);
    let one = rep(
        Workload::MeshSharded,
        &Params {
            shards: Some((1, ShardMode::Serial)),
            ..p
        },
    );
    expect(
        one.digest == four.digest,
        "mesh_sharded: digest differs at shards 1 vs 4".into(),
    );
    expect(
        four.layer["sim.shard.windows"] > 1.0 && four.layer["sim.shard.outbox_events"] > 0.0,
        "mesh_sharded: four shards never synchronized".into(),
    );

    // Templates are exactly what `send_app_packet` builds: the same run
    // driven through the public helper, pre-scheduled, ends in the same
    // statistics.
    for kind in [pair::Kind::Fastpath, pair::Kind::Adaptive] {
        let templated = pair::rep(kind, &p, &mut Recorder::new(false));
        let packets = kind.packets() / p.scale;
        let mut pairing = tango::vultr_pairing(pair::options(kind, &p, None)).expect("provisions");
        let mut t = pair::START;
        for i in 0..packets {
            let from = if i % 2 == 0 { Side::A } else { Side::B };
            pairing.send_app_packet(t, from, kind.payload());
            t = t.saturating_add(SimTime(pair::GAP_NS * p.scale));
        }
        pairing.run_until(t.saturating_add(pair::DRAIN));
        expect(
            pair::digest(&pairing) == templated.digest,
            format!("{kind:?}: templated injection diverges from send_app_packet"),
        );
    }

    // npop_discovery: the driven loop is run_npop's discovery phase.
    let (ases, pops) = npop::size(p.scale);
    let driven = npop::rep_with_plan(
        &Params { obs: true, ..p },
        &npop::canonical_plan(pops),
        &mut Recorder::new(false),
    );
    match run_npop(&NPopOptions {
        ases,
        pops,
        seed: npop::GRAPH_SEED,
        max_paths: npop::MAX_PATHS,
        traffic_packets: 0,
        ..NPopOptions::default()
    }) {
        Ok(reference) => {
            let (_, _, _, paths) = reference.path_counts();
            expect(
                driven.attempted == reference.pairs.len() as u64,
                "npop_discovery: pair count differs from run_npop".into(),
            );
            expect(
                driven.layer["control.paths"] == paths as f64,
                "npop_discovery: path total differs from run_npop".into(),
            );
            expect(
                driven.layer["bgp.updates_processed"] == reference.updates_processed as f64,
                format!(
                    "npop_discovery: updates_processed {} differs from run_npop's {}",
                    driven.layer["bgp.updates_processed"], reference.updates_processed
                ),
            );
            expect(
                reference.pairs.iter().all(|p| p.paths >= 2) && reference.valley_violations() == 0,
                "npop_discovery: run_npop found a pair with < 2 valley-free paths".into(),
            );
        }
        Err(e) => expect(false, format!("npop_discovery: run_npop failed: {e}")),
    }
    failures
}
