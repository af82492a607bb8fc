//! Isolated per-layer rows: one public function of one crate, timed in a
//! loop. Each row is the median ns/op (with its MAD) over [`BATCHES`]
//! batches of at least [`BATCH_NS`]; a batch times only the operation
//! itself — state that must be restored between operations (a packet
//! re-encapsulated after a timed decapsulation) is restored off the
//! clock.

use crate::inject::{host_packet, pop_addr};
use crate::stats::{mad, median};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::{IpAddr, Ipv6Addr};
use std::time::{Duration, Instant};
use tango::npop::host_prefix;
use tango_bgp::BgpEngine;
use tango_control::{HealthConfig, HealthGated, LowestOwdPolicy};
use tango_dataplane::policy::SelectionState;
use tango_dataplane::report::report_from_sink;
use tango_dataplane::{
    codec, MeasurementReport, PathPolicy, PathSnapshot, Selection, StatsSink, Tunnel,
};
use tango_measure::{
    PlausibilityConfig, PlausibilityGate, ReplayWindow, RollingWindow, SeqTracker,
};
use tango_net::{siphash24, IpCidr, PrefixTrie, SipKey};
use tango_obs::Registry;
use tango_sim::hash::flow_hash;
use tango_sim::{NetworkSim, Packet, RouterAgent, SimConfig, SimTime, SpanKind, SpanRing};
use tango_topology::gen::{try_generate, GenParams};

/// Batches per row.
pub const BATCHES: usize = 15;
/// Minimum timed nanoseconds per batch.
pub const BATCH_NS: u64 = 20_000_000;

/// How hard to measure, and the rows measured so far.
struct Bench {
    batches: usize,
    batch_ns: u64,
    rows: Vec<Row>,
}

/// One isolated row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Median ns per operation.
    pub ns: f64,
    /// Median absolute deviation of the batch medians, ns.
    pub mad: f64,
    /// Batches measured.
    pub batches: usize,
}

impl Bench {
    /// Time `batch(n)` — which runs `n` operations and returns the time
    /// they took — until a batch lasts `batch_ns`, then sample `batches`
    /// of it.
    fn row(&mut self, name: &'static str, mut batch: impl FnMut(u64) -> Duration) {
        let mut n = 256u64;
        loop {
            let ns = batch(n).as_nanos() as u64;
            if ns >= self.batch_ns {
                break;
            }
            // Aim a quarter past the floor; grow at most 16× a step.
            let want = n as f64 * (self.batch_ns as f64 * 1.25) / ns.max(1_000) as f64;
            n = (want.ceil() as u64).clamp(n + 1, n * 16);
        }
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| batch(n).as_nanos() as f64 / n as f64)
            .collect();
        self.push(name, &samples);
    }

    fn push(&mut self, name: &'static str, samples: &[f64]) {
        self.rows.push(Row {
            name,
            ns: median(samples),
            mad: mad(samples),
            batches: samples.len(),
        });
    }

    /// Codec rows work on a ring of packets: `timed_op` is timed over
    /// every packet of the ring, `restore` then returns each packet to
    /// its starting form off the clock.
    fn codec_row(
        &mut self,
        name: &'static str,
        ring: &mut [Packet],
        mut timed_op: impl FnMut(&mut Packet, u32),
        mut restore: impl FnMut(&mut Packet, u32),
    ) {
        self.row(name, |n| {
            let mut total = Duration::ZERO;
            let mut done = 0u64;
            let mut seq = 0u32;
            while done < n {
                let started = Instant::now();
                for pkt in ring.iter_mut() {
                    seq = seq.wrapping_add(1);
                    timed_op(black_box(pkt), seq);
                }
                total += started.elapsed();
                for pkt in ring.iter_mut() {
                    restore(pkt, seq);
                }
                done += ring.len() as u64;
            }
            // `done` overshoots `n` by less than one ring; scale back.
            total.mul_f64(n as f64 / done as f64)
        });
    }
}

/// `n` back-to-back calls of `op`, timed as one block.
fn timed<R>(n: u64, mut op: impl FnMut(u64) -> R) -> Duration {
    let started = Instant::now();
    for i in 0..n {
        black_box(op(i));
    }
    started.elapsed()
}

fn tunnel() -> Tunnel {
    Tunnel::from_prefixes(
        2,
        "GTT",
        "2001:db8:102::/48".parse().expect("static"),
        "2001:db8:202::/48".parse().expect("static"),
    )
}

fn codec_rows(b: &mut Bench) {
    let tunnel = tunnel();
    let key = SipKey::from_words(0x7461_6e67, 0x6f21);
    let src: Ipv6Addr = "2001:db8:1ff::10".parse().expect("static");
    let dst: Ipv6Addr = "2001:db8:2ff::20".parse().expect("static");
    for (payload, auth, enc_name, dec_name) in [
        (64, None, "dataplane.encap_64B_ns", "dataplane.decap_64B_ns"),
        (
            1200,
            Some(&key),
            "dataplane.encap_auth_1200B_ns",
            "dataplane.decap_auth_1200B_ns",
        ),
    ] {
        let mut ring: Vec<Packet> = (0..256)
            .map(|_| host_packet(src, dst, payload, codec::ENCAP_OVERHEAD))
            .collect();
        let encap = |pkt: &mut Packet, seq: u32| {
            codec::encapsulate_in_place(&tunnel, pkt, seq, 1_234_567, auth)
        };
        let decap = |pkt: &mut Packet, _seq: u32| {
            codec::decapsulate_in_place(pkt, auth, auth.is_some())
                .expect("the ring holds this tunnel's own packets");
        };
        b.codec_row(enc_name, &mut ring, encap, decap);
        ring.iter_mut().for_each(|pkt| encap(pkt, 0));
        b.codec_row(dec_name, &mut ring, decap, encap);
    }
}

/// A 200-AS internet with 32 converged host prefixes: the FIB of
/// `net.lpm_fib_ns` and the router-only graph of `sim.event_ns`.
struct SmallMesh {
    topology: tango_topology::Topology,
    pops: Vec<tango_topology::AsId>,
    tier1: tango_topology::AsId,
    engine: BgpEngine,
}

const SMALL_POPS: usize = 32;

fn small_mesh() -> SmallMesh {
    let g = try_generate(&GenParams::internet(200, SMALL_POPS, 1)).expect("preset is valid");
    let mut engine = BgpEngine::new(g.topology.clone());
    for (i, &pop) in g.edge_sites.iter().enumerate() {
        engine
            .announce(pop, host_prefix(i), BTreeSet::new())
            .expect("PoPs are graph nodes");
    }
    engine.converge().expect("Gao-Rexford policies converge");
    SmallMesh {
        topology: g.topology,
        pops: g.edge_sites,
        tier1: g.tier1[0],
        engine,
    }
}

fn net_rows(mesh: &SmallMesh, b: &mut Bench) {
    let mut trie = PrefixTrie::new();
    let dsts: Vec<IpAddr> = (0..4u32)
        .map(|i| {
            let c: IpCidr = format!("2001:db8:{:x}::/48", 0x100 + i)
                .parse()
                .expect("static");
            trie.insert(c, i);
            format!("2001:db8:{:x}::1", 0x100 + i)
                .parse()
                .expect("static")
        })
        .collect();
    b.row("net.lpm_tunnel_ns", |n| {
        timed(n, |i| {
            trie.longest_match(black_box(dsts[(i % 4) as usize]))
                .map(|m| *m.1)
        })
    });

    let fib = mesh
        .engine
        .forwarding_table(mesh.tier1)
        .expect("tier-1 speaks");
    assert_eq!(fib.len(), SMALL_POPS, "one FIB entry per host prefix");
    let dsts: Vec<IpAddr> = (0..SMALL_POPS)
        .map(|i| IpAddr::V6(pop_addr(i, 1)))
        .collect();
    b.row("net.lpm_fib_ns", |n| {
        timed(n, |i| {
            fib.longest_match(black_box(dsts[i as usize % SMALL_POPS]))
                .map(|m| *m.1)
        })
    });

    let key = SipKey::from_words(0x7461_6e67, 0x6f21);
    let buf = vec![0xa5u8; 1200];
    b.row("net.siphash_1200B_ns", |n| {
        timed(n, |_| siphash24(&key, black_box(&buf)))
    });
}

fn healthy_snapshots() -> BTreeMap<u16, PathSnapshot> {
    (0..4u16)
        .map(|p| {
            (
                p,
                PathSnapshot {
                    owd_ewma_ns: Some(28e6 + 2e6 * f64::from(p)),
                    last_owd_ns: Some(28e6),
                    jitter_ns: Some(30_000.0),
                    loss_rate: 0.0,
                    samples: 1_000,
                    staleness_ns: Some(0),
                    silence_ns: Some(5_000_000),
                },
            )
        })
        .collect()
}

fn dataplane_rows(b: &mut Bench) {
    codec_rows(b);

    let mut sink = StatsSink::new();
    for p in 0..4u16 {
        sink.register_path(p, "p");
        for s in 1..=20u32 {
            sink.path_mut(p)
                .record_owd(u64::from(s) * 10_000_000, 28e6, s, true);
        }
    }
    let report: MeasurementReport = report_from_sink(&sink);
    b.row("dataplane.report_encode_ns", |n| {
        timed(n, |_| black_box(&report).encode())
    });
    let bytes = report.encode();
    b.row("dataplane.report_decode_ns", |n| {
        timed(n, |_| MeasurementReport::decode(black_box(&bytes)))
    });

    let mut single = SelectionState::new(Selection::Single(2));
    b.row("dataplane.select_single_ns", |n| {
        timed(n, |_| single.choose())
    });
    let mut wrr = SelectionState::new(Selection::Weighted(vec![
        (0, 77),
        (1, 88),
        (2, 100),
        (3, 69),
    ]));
    b.row("dataplane.select_weighted_ns", |n| {
        timed(n, |_| wrr.choose())
    });

    b.row("dataplane.record_owd_ns", |n| {
        // A fresh sink per batch: the OWD series grows with every sample,
        // as it does in a run, but must not grow across batches.
        let mut sink = StatsSink::new();
        sink.register_path(0, "GTT");
        timed(n, |i| {
            sink.path_mut(0)
                .record_owd((i + 1) * 10_000_000, 28_150_000.0, i as u32 + 1, true)
        })
    });
}

fn measure_rows(b: &mut Bench) {
    let mut window = RollingWindow::new(1_000_000_000);
    let mut t = 0u64;
    b.row("measure.rolling_push_ns", |n| {
        timed(n, |i| {
            t += 10_000_000;
            window.push(t, 28_150_000.0 + (i % 7) as f64);
        })
    });
    let mut seq = SeqTracker::new();
    let mut next = 0u32;
    b.row("measure.seq_record_ns", |n| {
        timed(n, |_| {
            next = next.wrapping_add(1);
            seq.record(next)
        })
    });
    let mut gate = PlausibilityGate::new(PlausibilityConfig::default());
    b.row("measure.plausibility_admit_ns", |n| {
        timed(n, |i| gate.admit(28_150_000.0 + (i % 7) as f64 * 1_000.0))
    });
    let mut replay = ReplayWindow::new();
    let mut next = 0u32;
    b.row("measure.replay_observe_ns", |n| {
        timed(n, |_| {
            next = next.wrapping_add(1);
            replay.observe(next)
        })
    });
}

fn sim_rows(mesh: &SmallMesh, b: &mut Bench) {
    let inner = host_packet(pop_addr(0, 0x10), pop_addr(1, 1), 64, 0);
    let wire = codec::encapsulate(&tunnel(), inner.bytes(), 1, 123_456_789);
    b.row("sim.flow_hash_ns", |n| {
        timed(n, |_| flow_hash(black_box(&wire)))
    });

    // `sim.event_ns`: host packets over the router-only graph, one shard.
    // A batch injects off the clock and times `run_until` alone; the
    // per-operation unit is one simulator event.
    let mut sim = NetworkSim::new(mesh.topology.clone(), SimConfig::default());
    for node in mesh.topology.nodes() {
        let table = mesh
            .engine
            .forwarding_table(node.id)
            .expect("every node speaks");
        sim.set_agent(node.id, Box::new(RouterAgent::new(node.id, table)));
    }
    let templates: Vec<Packet> = (0..SMALL_POPS)
        .map(|src| {
            host_packet(
                pop_addr(src, 0x10),
                pop_addr((src + 1) % SMALL_POPS, 1),
                64,
                0,
            )
        })
        .collect();
    let mut now = SimTime::from_ms(1);
    const PACKETS: u64 = 50_000;
    let samples: Vec<f64> = (0..=b.batches)
        .map(|_| {
            for i in 0..PACKETS {
                let src = i as usize % SMALL_POPS;
                sim.schedule_host_packet(now, mesh.pops[src], templates[src].clone());
                now = now.saturating_add(SimTime(20_000));
            }
            now = now.saturating_add(SimTime::from_secs(5));
            let started = Instant::now();
            let events = sim.run_until(now);
            started.elapsed().as_nanos() as f64 / events.max(1) as f64
        })
        .skip(1) // the first batch grows the queues and the buffer pool
        .collect();
    b.push("sim.event_ns", &samples);
}

fn control_rows(b: &mut Bench) {
    let snaps = healthy_snapshots();
    let mut bare = LowestOwdPolicy::new(500_000.0);
    b.row("control.policy_decide_ns", |n| {
        timed(n, |i| bare.decide(i * 100_000_000, black_box(&snaps)))
    });
    let mut gated = HealthGated::new(
        Box::new(LowestOwdPolicy::new(500_000.0)),
        HealthConfig::default(),
    );
    b.row("control.gated_decide_ns", |n| {
        timed(n, |i| gated.decide(i * 100_000_000, black_box(&snaps)))
    });
}

fn obs_rows(b: &mut Bench) {
    let registry = Registry::new();
    let counter = registry.counter("benchmark.isolated");
    b.row("obs.counter_inc_ns", |n| timed(n, |_| counter.inc()));
    let mut ring = SpanRing::new(1 << 16);
    b.row("trace.span_record_ns", |n| {
        timed(n, |i| {
            ring.begin_dispatch(i, 1, i);
            ring.record(7, SpanKind::Tx { to: 8 })
        })
    });
}

/// Measure every isolated row: ≈ 10 s, or ≈ 1 s with `quick` (a third of
/// the batches, a quarter of their length).
pub fn run(quick: bool) -> Vec<Row> {
    let mut b = Bench {
        batches: if quick { BATCHES / 3 } else { BATCHES },
        batch_ns: if quick { BATCH_NS / 4 } else { BATCH_NS },
        rows: Vec::new(),
    };
    let mesh = small_mesh();
    net_rows(&mesh, &mut b);
    dataplane_rows(&mut b);
    measure_rows(&mut b);
    sim_rows(&mesh, &mut b);
    control_rows(&mut b);
    obs_rows(&mut b);
    b.rows
}
