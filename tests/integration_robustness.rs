//! Cross-crate integration: failure injection — corruption, loss,
//! withdrawal/re-convergence — must degrade Tango gracefully, never
//! produce bogus measurements, and never panic.

use std::collections::BTreeSet;
use tango::prelude::*;
use tango_bgp::Community;
use tango_topology::vultr::{GTT, NTT, TENANT_LA, TENANT_NY, VULTR_LA, VULTR_NY};

#[test]
fn corruption_storm_rejects_nearly_everything_bad() {
    // 20 % single-byte corruption on every hop. The UDP checksum rejects
    // every single-bit error, but the Internet checksum is famously weak
    // against *multiple* flips (two flips of the same bit position in
    // opposite directions cancel in the one's-complement sum) — so a
    // tiny residue of corrupted-but-accepted packets is expected and
    // must stay tiny. This is precisely the gap §6's "trustworthy
    // telemetry" future work is about; see EXPERIMENTS.md.
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 41,
        fault: Some(FaultInjector::new(0.0, 0.2)),
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(20));
    let sink = p.stats(Side::A).lock();
    let rejects = sink.unattributed_rejects + sink.paths().map(|(_, s)| s.rejected).sum::<u64>();
    assert!(
        rejects > 1000,
        "20% corruption per hop must reject plenty, got {rejects}"
    );
    let mut accepted = 0u64;
    let mut insane = 0u64;
    for (_, path) in sink.paths() {
        for owd in path.owd.iter() {
            accepted += 1;
            if !(20_000_000.0..60_000_000.0).contains(&owd) {
                insane += 1;
            }
        }
    }
    assert!(accepted > 3_000, "plenty of clean probes still arrive");
    let pollution = insane as f64 / accepted as f64;
    assert!(
        pollution < 0.002,
        "checksum-collision residue must be tiny: {insane}/{accepted}"
    );
}

#[test]
fn random_drops_show_up_as_loss_not_crashes() {
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 42,
        fault: Some(FaultInjector::new(0.05, 0.0)),
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(30));
    let sink = p.stats(Side::A).lock();
    for (id, path) in sink.paths() {
        let rate = path.seq.loss_rate();
        // Each probe crosses 4 links at 5%: expected end-to-end ≈ 18.5%.
        assert!(
            (0.12..0.26).contains(&rate),
            "path {id}: loss rate {rate:.3} out of expected band"
        );
    }
}

#[test]
fn withdrawal_and_reconvergence_reroutes_tunnel_prefix() {
    // Withdraw the GTT-pinned NY prefix mid-run, re-announce with a
    // different pin, re-converge, and verify the control-plane view.
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 43,
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(5));
    let gtt_prefix = tango_net::IpCidr::V6(
        tango_net::Ipv6Cidr::new(p.provisioned.from(Side::A).tunnels[2].remote_endpoint, 48)
            .unwrap(),
    );
    // Sanity: routed via GTT now.
    let trace = p.bgp.trace_path(TENANT_LA, gtt_prefix).unwrap();
    assert!(trace.contains(&GTT));
    // Withdraw at NY, re-announce pinned away from everything but NTT.
    p.bgp.withdraw(TENANT_NY, gtt_prefix).unwrap();
    p.bgp.converge().unwrap();
    assert!(
        p.bgp.trace_path(TENANT_LA, gtt_prefix).is_none(),
        "withdrawn ⇒ unreachable"
    );
    let mut comms = BTreeSet::new();
    comms.insert(Community::NoExportTo(tango_topology::vultr::TELIA));
    comms.insert(Community::NoExportTo(GTT));
    comms.insert(Community::NoExportTo(tango_topology::vultr::COGENT));
    p.bgp.announce(TENANT_NY, gtt_prefix, comms).unwrap();
    p.bgp.converge().unwrap();
    let trace = p.bgp.trace_path(TENANT_LA, gtt_prefix).unwrap();
    assert_eq!(trace, vec![TENANT_LA, VULTR_LA, NTT, VULTR_NY, TENANT_NY]);
}

#[test]
fn total_outage_on_every_path_starves_but_recovers() {
    use tango_topology::{EventKind, LinkEvent, TimeWindow};
    // Outage windows on all four NY→LA deliveries for 10 s.
    let mut events = Vec::new();
    for transit in [
        NTT,
        tango_topology::vultr::TELIA,
        GTT,
        tango_topology::vultr::LEVEL3,
    ] {
        events.push(LinkEvent {
            from: transit,
            to: VULTR_LA,
            window: TimeWindow::new(
                SimTime::from_secs(10).as_ns(),
                SimTime::from_secs(20).as_ns(),
            ),
            kind: EventKind::Outage,
        });
    }
    let mut p = tango::vultr_pairing_with_events(
        events,
        PairingOptions {
            seed: 44,
            ..PairingOptions::default()
        },
    )
    .unwrap();
    p.run_until(SimTime::from_secs(30));
    let sink = p.stats(Side::A).lock();
    // The windows are whole 500 ms bins, so their counts are exact.
    let samples = |path: &tango_dataplane::PathStats, from: u64, to: u64| {
        let window = path.bins.window(
            SimTime::from_secs(from).as_ns(),
            SimTime::from_secs(to).as_ns(),
        );
        window.map_or(0, |w| w.count)
    };
    // Nothing arrived during the blackout...
    for (id, path) in sink.paths() {
        let during = samples(path, 11, 20);
        assert_eq!(during, 0, "path {id}: {during} samples during blackout");
        // ...and probing resumed afterwards.
        let after = samples(path, 21, 30);
        assert!(
            after > 800,
            "path {id}: only {after} samples after recovery"
        );
        assert!(
            path.seq.lost() > 900,
            "path {id}: loss must reflect the outage"
        );
    }
}

#[test]
fn mid_run_reconvergence_rewires_the_data_plane() {
    // The full control→data loop under churn: 5 s of healthy probing,
    // then NY withdraws its GTT-pinned prefix; BGP re-converges; the
    // routers' forwarding tables are reinstalled mid-run (what a real
    // deployment's RIB→FIB push does); the LA→NY GTT tunnel goes dark
    // while all other tunnels keep flowing.
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 45,
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(5));
    let before: Vec<usize> = (0..4)
        .map(|i| p.stats(Side::B).lock().path(i).unwrap().owd.len())
        .collect();
    assert!(
        before.iter().all(|&n| n > 400),
        "all paths healthy first: {before:?}"
    );

    // Withdraw the prefix the LA→NY GTT tunnel targets.
    let gtt_prefix = tango_net::IpCidr::V6(
        tango_net::Ipv6Cidr::new(p.provisioned.from(Side::A).tunnels[2].remote_endpoint, 48)
            .unwrap(),
    );
    p.bgp.withdraw(TENANT_NY, gtt_prefix).unwrap();
    p.bgp.converge().unwrap();
    // RIB → FIB: reinstall every router's table from the new state.
    let routers: Vec<tango_topology::AsId> = (p.sim.node_ids().iter())
        .copied()
        .filter(|id| ![TENANT_LA, TENANT_NY].contains(id))
        .collect();
    for id in routers {
        let table = p.bgp.forwarding_table(id).unwrap();
        p.sim
            .set_agent(id, Box::new(tango_sim::RouterAgent::new(id, table)));
    }

    p.run_until(SimTime::from_secs(15));
    let after: Vec<usize> = (0..4)
        .map(|i| p.stats(Side::B).lock().path(i).unwrap().owd.len())
        .collect();
    // GTT tunnel (2) stopped exactly; others roughly tripled.
    let gtt_new = after[2] - before[2];
    assert!(
        gtt_new < 20,
        "GTT tunnel must starve after withdrawal, got {gtt_new} more"
    );
    for i in [0usize, 1, 3] {
        let grew = after[i] - before[i];
        assert!(grew > 900, "path {i} must keep flowing, grew {grew}");
    }
    // The dead tunnel's packets died as routing misses, not silently.
    assert!(
        p.sim.stats().no_route > 900,
        "no_route {}",
        p.sim.stats().no_route
    );
}

#[test]
fn duplicate_suppression_under_pathological_replay() {
    // Replay attack / duplication: inject the same host packet many
    // times; sequence numbers differ per encapsulation so this mostly
    // exercises steady counters — then directly replay an encapsulated
    // packet at the switch via two identical deliveries (same seq).
    use tango_dataplane::{codec, Tunnel};
    let tunnel = Tunnel::from_prefixes(
        0,
        "NTT",
        "2001:db8:100::/48".parse().unwrap(),
        "2001:db8:200::/48".parse().unwrap(),
    );
    let wire = codec::probe_packet(&tunnel, 77, 1_000);
    // Feed the same bytes twice through a receiver-side stats pipeline.
    let sink = tango_dataplane::stats::shared_sink();
    for _ in 0..2 {
        let d = codec::decapsulate(&wire).unwrap();
        sink.lock().path_mut(d.tango.path_id).record_owd(
            2_000,
            1_000.0,
            d.tango.sequence,
            d.tango.flags.is_probe(),
        );
    }
    let guard = sink.lock();
    let path = guard.path(0).unwrap();
    assert_eq!(
        path.seq.duplicates(),
        1,
        "replay must be counted as duplicate"
    );
    assert_eq!(path.seq.received(), 1);
}

#[test]
fn telemetry_tamper_modeled_as_corruption_is_rejected() {
    // §6 (future work) worries about on-path attackers modifying
    // measurement headers. Without cryptographic protection, Tango's
    // only line of defense is the checksum: a tampered timestamp must
    // fail validation unless the attacker also fixes the UDP checksum.
    use tango_dataplane::{codec, Tunnel};
    let tunnel = Tunnel::from_prefixes(
        1,
        "GTT",
        "2001:db8:100::/48".parse().unwrap(),
        "2001:db8:200::/48".parse().unwrap(),
    );
    let wire = codec::probe_packet(&tunnel, 5, 1_000_000);
    // Attacker rewrites the timestamp field (offset 40+8+12) to fake a
    // lower delay, without fixing the checksum.
    let mut tampered = wire.clone();
    tampered[40 + 8 + 12..40 + 8 + 20].copy_from_slice(&0u64.to_be_bytes());
    assert_eq!(
        codec::decapsulate(&tampered),
        Err(codec::CodecError::Checksum)
    );
    // (An attacker who fixes the checksum succeeds — documented gap,
    // matching the paper's call for trustworthy telemetry.)
}

// ------------------------------------------------------------------
// Path-health subsystem: scripted wide-area faults against the
// Up → Suspect → Down → Probing → Up machine and the HealthGated
// selector (ISSUE: blackhole detection + retry/backoff re-probing).

#[test]
fn scripted_blackhole_triggers_failover_and_readmission() {
    // GTT (path 2) silently blackholes at 5 s for 10 s — no BGP
    // withdrawal, so only the data plane's silence signal can notice.
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 46,
        control_period: Some(SimTime::from_ms(100)),
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        health_b: Some(HealthConfig::default()),
        wide_area_events: vec![WideAreaEvent::Blackhole {
            path: 2,
            at_ns: 5_000_000_000,
            duration_ns: 10_000_000_000,
        }],
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(25));

    // Detection: Down within the configured window (500 ms silence +
    // one 100 ms control tick + slack), never before the outage.
    let tl = p.health_timeline(Side::B).expect("health enabled on B");
    let down = tl
        .iter()
        .find(|t| t.path == 2 && t.to == HealthState::Down)
        .expect("blackhole must be detected");
    assert!(
        (5_000_000_000..6_000_000_000).contains(&down.at_ns),
        "detection at {} ns",
        down.at_ns
    );

    // While Down, no installed selection may include the dead path.
    let history = p.stats(Side::B).lock().selection_history.clone();
    assert!(
        history
            .iter()
            .any(|(at, paths)| *at < 5_000_000_000 && paths.contains(&2)),
        "GTT is the best path and must be selected before the outage"
    );
    for (at, paths) in &history {
        if (down.at_ns..15_000_000_000).contains(at) {
            assert!(
                !paths.contains(&2),
                "dead path selected at {at} ns: {paths:?}"
            );
        }
    }

    // Re-admission: a backoff re-probe gets through after the outage
    // ends and the path returns to Up (hysteresis: 3 clean ticks).
    let up = tl
        .iter()
        .find(|t| t.path == 2 && t.to == HealthState::Up && t.at_ns > down.at_ns)
        .expect("path must be re-admitted after the outage");
    assert!(
        up.at_ns >= 15_000_000_000,
        "re-admitted at {} ns, during the outage",
        up.at_ns
    );

    // The other paths kept carrying probes throughout.
    let sink = p.stats(Side::A).lock();
    for id in [0u16, 1, 3] {
        let n = sink.path(id).unwrap().owd.len();
        assert!(n > 1_800, "path {id} must keep flowing, got {n} samples");
    }
}

#[test]
fn all_paths_blackholed_degrades_to_bgp_default_without_panic() {
    // Kill every tunnel at once: the gate must degrade to the fallback
    // (path 0 = BGP default) instead of panicking or picking a corpse,
    // and re-admit the paths once the outage clears.
    let events: Vec<WideAreaEvent> = (0..4)
        .map(|path| WideAreaEvent::Blackhole {
            path,
            at_ns: 5_000_000_000,
            duration_ns: 5_000_000_000,
        })
        .collect();
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 47,
        control_period: Some(SimTime::from_ms(100)),
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        health_b: Some(HealthConfig::default()),
        wide_area_events: events,
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(20));

    let tl = p.health_timeline(Side::B).expect("health enabled");
    for path in 0..4u16 {
        assert!(
            tl.iter()
                .any(|t| t.path == path && t.to == HealthState::Down),
            "path {path} must go Down"
        );
        assert!(
            tl.iter()
                .any(|t| { t.path == path && t.to == HealthState::Up && t.at_ns > 10_000_000_000 }),
            "path {path} must recover after the outage"
        );
    }
    // With everything Down the installed selection is the BGP default.
    let history = p.stats(Side::B).lock().selection_history.clone();
    let mid_outage: Vec<&(u64, Vec<u16>)> = history
        .iter()
        .filter(|(at, _)| (7_000_000_000..10_000_000_000).contains(at))
        .collect();
    assert!(
        !mid_outage.is_empty(),
        "control loop must keep running through the outage"
    );
    for (at, paths) in mid_outage {
        assert_eq!(
            paths,
            &vec![0u16],
            "all-down must degrade to the default at {at} ns"
        );
    }
}

#[test]
fn same_seed_reproduces_the_health_timeline() {
    // Backoff jitter, probe scheduling, and detection are all seeded:
    // two identical runs must produce byte-identical timelines.
    let run = |seed: u64| {
        let mut p = tango::vultr_pairing(PairingOptions {
            seed,
            control_period: Some(SimTime::from_ms(100)),
            policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
            health_b: Some(HealthConfig::default()),
            wide_area_events: vec![WideAreaEvent::Blackhole {
                path: 2,
                at_ns: 3_000_000_000,
                duration_ns: 6_000_000_000,
            }],
            ..PairingOptions::default()
        })
        .unwrap();
        p.run_until(SimTime::from_secs(12));
        p.health_timeline(Side::B).expect("health enabled")
    };
    let a = run(48);
    let b = run(48);
    assert!(!a.is_empty(), "the blackhole must leave a trace");
    assert_eq!(a, b, "same seed must reproduce the transition timeline");
}

#[test]
fn owd_poison_never_fakes_a_path_death() {
    // The silence signal counts *admitted* OWD samples, and the
    // plausibility gate withholds a skewed path's samples until it
    // promotes the new level (after 8 consecutive outliers). So at each
    // onset and offset of a poisoned window, at most 7 arrivals per path
    // and direction read as silence: far short of the 500 ms Down
    // threshold at 10 ms probes.
    for skew_ns in [400_000_000, -400_000_000, 2_000_000_000] {
        let mut p = tango::vultr_pairing(PairingOptions {
            seed: 5,
            control_period: Some(SimTime::from_ms(100)),
            policy_a: Box::new(LowestOwdPolicy::new(500_000.0)),
            policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
            health_a: Some(HealthConfig::default()),
            health_b: Some(HealthConfig::default()),
            wide_area_events: vec![WideAreaEvent::OwdPoison {
                path: 0,
                at_ns: SimTime::from_secs(2).as_ns(),
                duration_ns: SimTime::from_secs(6).as_ns(),
                skew_ns,
            }],
            ..PairingOptions::default()
        })
        .unwrap();
        p.run_until(SimTime::from_secs(10));

        for side in Side::BOTH {
            let timeline = p.health_timeline(side).expect("health enabled");
            assert!(timeline.is_empty(), "skew {skew_ns}: {side:?} {timeline:?}");
        }
        let quarantined: u64 = Side::BOTH
            .map(|side| p.stats(side).lock().implausible_owd)
            .iter()
            .sum();
        assert_eq!(
            quarantined, 56,
            "skew {skew_ns}: 7 per onset/offset, path, direction"
        );
    }
}

#[test]
fn session_reset_withdraws_and_reannounces_mid_run() {
    // A scheduled SessionReset withdraws both /48 tunnel prefixes of
    // path 2 at 5 s and re-announces them (original pin communities) at
    // 10 s: the tunnel starves during the hold and resumes after.
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 49,
        wide_area_events: vec![WideAreaEvent::SessionReset {
            path: 2,
            at_ns: 5_000_000_000,
            hold_ns: 5_000_000_000,
        }],
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(5));
    let at_reset = p.stats(Side::A).lock().path(2).unwrap().owd.len();
    assert!(at_reset > 400, "healthy before the reset: {at_reset}");

    p.run_until(SimTime::from_secs(10));
    let at_hold_end = p.stats(Side::A).lock().path(2).unwrap().owd.len();
    assert!(
        at_hold_end - at_reset < 20,
        "tunnel must starve while withdrawn, grew {}",
        at_hold_end - at_reset
    );
    assert!(
        p.sim.stats().no_route > 400,
        "withdrawn packets die as routing misses"
    );

    p.run_until(SimTime::from_secs(16));
    let after = p.stats(Side::A).lock().path(2).unwrap().owd.len();
    assert!(
        after - at_hold_end > 400,
        "tunnel must resume after re-announce, grew {}",
        after - at_hold_end
    );
    // Other paths never blinked.
    for id in [0u16, 1, 3] {
        let n = p.stats(Side::A).lock().path(id).unwrap().owd.len();
        assert!(n > 1_400, "path {id} unaffected, got {n}");
    }
}

#[test]
fn events_on_an_unprovisioned_path_are_a_typed_error() {
    // The Vultr pairing provisions paths 0–3. A fault scripted on path 9
    // used to build, drop nothing, and re-converge BGP twice for nothing;
    // a Byzantine one on path 9 was silently skipped.
    let build = |event| {
        tango::vultr_pairing(PairingOptions {
            wide_area_events: vec![event],
            ..PairingOptions::default()
        })
    };
    let (at_ns, duration_ns) = (SimTime::from_secs(1).as_ns(), SimTime::from_secs(1).as_ns());
    let every_kind = |path| {
        [
            WideAreaEvent::Blackhole {
                path,
                at_ns,
                duration_ns,
            },
            WideAreaEvent::SessionReset {
                path,
                at_ns,
                hold_ns: duration_ns,
            },
            WideAreaEvent::OwdPoison {
                path,
                at_ns,
                duration_ns,
                skew_ns: 100_000_000,
            },
            WideAreaEvent::Replay {
                path,
                at_ns,
                duration_ns,
                delay_ns: 50_000_000,
                every: 1,
            },
            WideAreaEvent::SpoofReports {
                path,
                at_ns,
                duration_ns,
                period_ns: 10_000_000,
            },
            WideAreaEvent::Hijack {
                path,
                at_ns,
                duration_ns,
            },
        ]
    };
    for event in every_kind(9) {
        match build(event.clone()) {
            Err(PairingError::NoSuchPath { path: 9, paths: 4 }) => {}
            Err(e) => panic!("{event:?}: expected NoSuchPath, got {e}"),
            Ok(_) => panic!("{event:?}: built despite naming path 9 of 4"),
        }
    }
    for event in every_kind(3) {
        let mut p = build(event.clone()).unwrap_or_else(|e| panic!("{event:?}: {e}"));
        p.run_until(SimTime::from_secs(3));
    }
}

#[test]
fn replay_delayed_past_the_end_of_time_never_fires() {
    // A replay delay of `u64::MAX` ns lands past every horizon: each
    // copy is captured, and its timer — saturated at the end of
    // simulated time, not wrapped to before `now` — never fires.
    let second = SimTime::from_secs(1).as_ns();
    let mut p = tango::vultr_pairing(PairingOptions {
        wide_area_events: vec![WideAreaEvent::Replay {
            path: 0,
            at_ns: second,
            duration_ns: second,
            delay_ns: u64::MAX,
            every: 1,
        }],
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(5));
    let adversary = p.adversary_stats();
    assert!(adversary.captured > 0, "{adversary:?}");
    assert_eq!(adversary.replayed, 0, "{adversary:?}");
}
