//! `pair_fastpath` and `pair_adaptive`: the two-edge Vultr pairing driven
//! the cheap way and the expensive way.
//!
//! Both offer 10 000 app packets per simulated second, alternating A→B /
//! B→A, far under link capacity, so `lost_queue == 0` is asserted. The
//! simulated timeline is the same at every size: a smaller size spaces
//! the packets further apart, it does not shorten the run, so the
//! scheduled faults of `pair_adaptive` always land mid-run.

use super::{mix_sim_stats, sim_rows, Fnv, Meter, Params, Rep};
use crate::inject::{self, Target};
use crate::spans::Recorder;
use tango::prelude::*;
use tango_obs::Registry;
use tango_sim::Packet;

/// Which of the two pairing workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Static policy, shared feedback, no auth, 64 B payloads.
    Fastpath,
    /// Health-gated adaptive policies, in-band reports, SipHash auth,
    /// 1200 B payloads, a blackhole and a session reset mid-run.
    Adaptive,
}

impl Kind {
    /// App packets at full size.
    pub fn packets(self) -> u64 {
        match self {
            Kind::Fastpath => 1_000_000,
            Kind::Adaptive => 500_000,
        }
    }

    /// App payload bytes.
    pub fn payload(self) -> usize {
        match self {
            Kind::Fastpath => 64,
            Kind::Adaptive => 1200,
        }
    }
}

/// Inter-packet gap at full size, ns (10k pps offered).
pub const GAP_NS: u64 = 100_000;
/// First packet.
pub const START: SimTime = SimTime(5_000_000);
/// Simulated time after the last packet (paths are 25–45 ms one way).
pub const DRAIN: SimTime = SimTime(200_000_000);
/// Span ring capacity per shard in traced repetitions.
const SPAN_CAPACITY: usize = 1 << 16;

/// The pairing options of `kind` (public so `check` can build the same
/// pairing and drive it through `send_app_packet`).
pub fn options(kind: Kind, p: &Params, registry: Option<Registry>) -> PairingOptions {
    let base = PairingOptions {
        seed: p.seed,
        probe_period: Some(SimTime::from_ms(10)),
        shards: 1,
        span_capacity: if p.obs { SPAN_CAPACITY } else { 0 },
        obs: registry,
        ..PairingOptions::default()
    };
    match kind {
        Kind::Fastpath => base,
        Kind::Adaptive => {
            // Faults at fixed shares of the run: the best path (GTT,
            // path 2) goes dark for 3 s at 20 %, path 1's BGP session
            // resets for 2 s at 60 %.
            let run_ns = Kind::Adaptive.packets() * GAP_NS;
            PairingOptions {
                control_period: Some(SimTime::from_ms(100)),
                policy_a: Box::new(JitterAwarePolicy::new(5.0, 500_000.0)),
                policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
                health_a: Some(HealthConfig::default()),
                health_b: Some(HealthConfig::default()),
                feedback: FeedbackMode::InBand {
                    period: SimTime::from_ms(100),
                },
                auth_key: Some(SipKey::from_words(0x7461_6e67 ^ p.seed, 0x6b65_7921)),
                wide_area_events: vec![
                    WideAreaEvent::Blackhole {
                        path: 2,
                        at_ns: run_ns / 5,
                        duration_ns: 3_000_000_000,
                    },
                    WideAreaEvent::SessionReset {
                        path: 1,
                        at_ns: run_ns * 3 / 5,
                        hold_ns: 2_000_000_000,
                    },
                ],
                ..base
            }
        }
    }
}

/// The host packet `send_app_packet(_, from, payload)` would build.
pub fn template(pairing: &TangoPairing, from: Side, payload: usize) -> Packet {
    let addr = |side: Side, host: u128| match pairing.side_config(side).host_prefix {
        tango_net::IpCidr::V6(c) => c.host(host).expect("host prefixes are /48"),
        tango_net::IpCidr::V4(_) => unreachable!("the pairing's host prefixes are IPv6"),
    };
    inject::host_packet(
        addr(from, 0x10),
        addr(from.peer(), 0x20),
        payload,
        tango_dataplane::codec::ENCAP_OVERHEAD,
    )
}

struct PairTarget {
    pairing: TangoPairing,
    /// `[A→B, B→A]` templates and their injecting tenants.
    lanes: [(tango_topology::AsId, Packet); 2],
}

impl Target for PairTarget {
    fn inject(&mut self, i: u64, at: SimTime) {
        let (tenant, pkt) = &self.lanes[(i % 2) as usize];
        self.pairing
            .sim
            .schedule_host_packet(at, *tenant, pkt.clone());
    }

    fn run_until(&mut self, t: SimTime) {
        self.pairing.run_until(t);
    }
}

/// One repetition.
pub fn rep(kind: Kind, p: &Params, rec: &mut Recorder) -> Rep {
    let packets = kind.packets() / p.scale;
    let gap = SimTime(GAP_NS * p.scale);
    let registry = p.obs.then(Registry::new);

    let mut meter = Meter::start();
    let mut target = rec.scope("bench.setup", |rec| {
        let mut pairing = rec.scope("core.pairing_build", |_| {
            tango::vultr_pairing(options(kind, p, registry.clone()))
                .expect("the Vultr scenario provisions")
        });
        if let Some(r) = &registry {
            pairing.bgp.set_rib_obs(r);
        }
        let lanes = [Side::A, Side::B].map(|side| {
            (
                pairing.side_config(side).tenant,
                template(&pairing, side, kind.payload()),
            )
        });
        PairTarget { pairing, lanes }
    });
    meter.setup_done();
    rec.scope("bench.timed", |rec| {
        inject::drive(&mut target, rec, packets, START, gap, DRAIN)
    });
    let mut rep = Rep::default();
    meter.timed_done(&mut rep);

    let pairing = target.pairing;
    verify(kind, &pairing, packets, &mut rep);
    rep.digest = digest(&pairing);
    layer_counts(&pairing, registry.as_ref(), packets, &mut rep);
    rep
}

/// Check the outputs and count failed operations.
///
/// A packet is *completed* when the peer's switch delivered it
/// (`Σ PathStats.app_delivered`). On `pair_fastpath` every undelivered
/// packet is a failure. On `pair_adaptive` the scenario itself drops
/// packets — a blackholed link (`lost_outage`) and a withdrawn tunnel
/// prefix (`no_route`) — so a loss covered by those two counters is the
/// workload's expected loss (it shows in `delivered_share`), and only a
/// loss beyond them is a failure. Every other loss counter, any receive
/// reject and any run-level invariant breach is a violation.
pub fn verify(kind: Kind, pairing: &TangoPairing, sent: u64, rep: &mut Rep) {
    let s = *pairing.sim.stats();
    let mut delivered = 0u64;
    let mut rejects = 0u64;
    for side in [Side::A, Side::B] {
        let sink = pairing.stats(side).lock();
        rejects += sink.unattributed_rejects + sink.auth_rejects + sink.replay_rejects;
        for (_, path) in sink.paths() {
            delivered += path.app_delivered;
            rejects += path.rejected;
        }
    }
    let lost = sent.saturating_sub(delivered);
    let scenario_drops = match kind {
        Kind::Fastpath => 0,
        Kind::Adaptive => s.lost_outage + s.no_route,
    };
    rep.attempted = sent;
    rep.completed = delivered;
    rep.failed = lost.saturating_sub(scenario_drops);
    rep.expect_zero(&[
        ("lost_queue", s.lost_queue),
        ("lost_link", s.lost_link),
        ("lost_fault", s.lost_fault),
        ("corrupted", s.corrupted),
        ("no_link", s.no_link),
        ("ttl_expired", s.ttl_expired),
        ("rx_rejects", rejects),
    ]);
    if kind == Kind::Fastpath && s.lost_outage + s.no_route != 0 {
        rep.violations
            .push("a fault-free run dropped packets".into());
    }
    let report = check_pairing(pairing);
    if !report.ok() {
        rep.violations
            .push(format!("invariant::check_pairing: {report}"));
    }
    rep.layer.insert("dataplane.rx_rejects", rejects as f64);
}

/// Fingerprint the simulated statistics of a finished pairing run.
pub fn digest(pairing: &TangoPairing) -> String {
    let mut h = Fnv::default();
    mix_sim_stats(&mut h, pairing.sim.stats());
    for side in [Side::A, Side::B] {
        let sink = pairing.stats(side).lock();
        for v in [
            sink.tx_encapsulated,
            sink.probes_sent,
            sink.probes_withheld,
            sink.reports_sent,
            sink.reports_received,
            sink.control_ticks,
            sink.plain_rx,
        ] {
            h.mix(v);
        }
        for (at, paths) in &sink.selection_history {
            h.mix(*at);
            paths.iter().for_each(|&p| h.mix(u64::from(p)));
        }
        for (id, path) in sink.paths() {
            h.mix(u64::from(id));
            h.mix(path.app_delivered);
            h.mix(path.owd.len() as u64);
            path.owd.values().iter().for_each(|v| h.mix(v.to_bits()));
        }
    }
    h.hex()
}

/// The per-layer counts a pairing exposes after a run.
fn layer_counts(pairing: &TangoPairing, registry: Option<&Registry>, packets: u64, rep: &mut Rep) {
    sim_rows(&pairing.sim, packets, &mut rep.layer);

    let (mut app_tx, mut slow_tx, mut decaps) = (0u64, 0u64, 0u64);
    for side in [Side::A, Side::B] {
        let sink = pairing.stats(side).lock();
        app_tx += sink.tx_encapsulated;
        slow_tx += sink.probes_sent + sink.reports_sent;
        decaps += sink.paths().map(|(_, p)| p.owd.len() as u64).sum::<u64>();
    }
    let rejects = rep
        .layer
        .get("dataplane.rx_rejects")
        .copied()
        .unwrap_or(0.0);
    rep.layer.insert(
        "dataplane.slowpath_share",
        (slow_tx as f64 + rejects) / (app_tx + slow_tx).max(1) as f64,
    );
    rep.layer
        .insert("dataplane.encaps", (app_tx + slow_tx) as f64);
    rep.layer.insert("dataplane.decaps", decaps as f64);
    rep.layer.insert(
        "bgp.rib_routes_peak",
        pairing.bgp.rib_stats().total() as f64,
    );

    if let Some(registry) = registry {
        super::bgp_rows(&registry.snapshot(), &mut rep.layer);
        super::trace_rows(&pairing.sim.spans(), &mut rep.layer);
    }
}
