//! Cross-crate integration: the §6 future-work extensions — in-band
//! cooperation feedback and authenticated telemetry.

use tango::prelude::*;

fn in_band_options(policy_b: Box<dyn PathPolicy>, seed: u64) -> PairingOptions {
    PairingOptions {
        seed,
        probe_period: Some(SimTime::from_ms(10)),
        control_period: Some(SimTime::from_ms(100)),
        feedback: FeedbackMode::InBand {
            period: SimTime::from_ms(200),
        },
        policy_b,
        ..PairingOptions::default()
    }
}

#[test]
fn in_band_feedback_drives_policy_to_best_path() {
    let mut p = tango::vultr_pairing(in_band_options(
        Box::new(LowestOwdPolicy::new(500_000.0)),
        51,
    ))
    .unwrap();
    p.run_until(SimTime::from_secs(20));
    // Reports flowed in both directions.
    let a = p.stats(Side::A).lock();
    let b = p.stats(Side::B).lock();
    assert!(a.reports_sent > 50, "A sent {} reports", a.reports_sent);
    assert!(
        b.reports_received > 50,
        "B received {} reports",
        b.reports_received
    );
    assert_eq!(a.reports_rejected, 0);
    drop((a, b));
    // And the policy at B settled on GTT using only in-band knowledge.
    let history = p.stats(Side::B).lock().selection_history.clone();
    assert_eq!(
        history.last().expect("control ran").1,
        vec![2u16],
        "settled on GTT"
    );
}

#[test]
fn in_band_feedback_pays_real_latency() {
    // With in-band feedback, no decision can be based on peer data until
    // the first report has crossed the wide area (~37 ms on the default
    // path). Early control ticks must therefore stay on the initial path
    // even though GTT is better.
    let mut p = tango::vultr_pairing(in_band_options(
        Box::new(LowestOwdPolicy::new(500_000.0)),
        52,
    ))
    .unwrap();
    p.run_until(SimTime::from_secs(10));
    let history = p.stats(Side::B).lock().selection_history.clone();
    // B's clock is (near) sim time here; its first control tick runs at
    // ~2 ms, well before any report (sent at ~2 ms, arriving ≥ 30 ms
    // later) could have landed.
    let first = history.first().expect("control ran");
    assert_eq!(
        first.1,
        vec![0u16],
        "first decision must predate any feedback"
    );
    // Eventually it still converges.
    assert_eq!(history.last().unwrap().1, vec![2u16]);
}

#[test]
fn in_band_reports_are_sequenced_and_measured_like_probes() {
    let mut p = tango::vultr_pairing(in_band_options(
        Box::new(StaticPolicy::single(0, "static")),
        53,
    ))
    .unwrap();
    p.run_until(SimTime::from_secs(10));
    // Report packets ride tunnels with sequence numbers: no loss or
    // duplication should be attributed, and path 0 (carrying reports
    // besides probes) has more samples than a probe-only path would.
    let sink = p.stats(Side::A).lock();
    for (id, path) in sink.paths() {
        assert_eq!(path.seq.lost(), 0, "path {id}");
        assert_eq!(path.seq.duplicates(), 0, "path {id}");
        assert_eq!(
            path.app_delivered, 0,
            "reports must not count as app traffic"
        );
    }
    let p0 = sink.path(0).unwrap().owd.len();
    let p1 = sink.path(1).unwrap().owd.len();
    assert!(p0 > p1, "path 0 carries probes + reports: {p0} vs {p1}");
}

#[test]
fn authenticated_pairing_runs_clean() {
    let key = SipKey::from_words(0x746f_6e67, 0x6f21);
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 54,
        auth_key: Some(key),
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(20));
    for side in Side::BOTH {
        let sink = p.stats(side).lock();
        assert_eq!(sink.auth_rejects, 0, "honest peers never fail verification");
        for (id, path) in sink.paths() {
            assert!(
                path.owd.len() > 1800,
                "path {id}: {} samples",
                path.owd.len()
            );
            assert_eq!(path.seq.lost(), 0);
        }
    }
    // Headline still holds with the auth trailer on every packet.
    let ratio = p.mean_owd_ms(Side::A, 0).unwrap() / p.mean_owd_ms(Side::A, 2).unwrap();
    assert!((1.25..1.35).contains(&ratio), "ratio {ratio}");
}

#[test]
fn authenticated_pairing_discards_corrupted_packets_via_auth() {
    // With the MAC on, even checksum-colliding corruption (the residue
    // the plain checksum misses) cannot produce a delay sample: the
    // 64-bit SipHash tag must also collide, which it doesn't.
    let key = SipKey::from_words(0xabcd, 0xef01);
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 55,
        auth_key: Some(key),
        fault: Some(FaultInjector::new(0.0, 0.2)),
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(20));
    let sink = p.stats(Side::A).lock();
    let auth_rejects = sink.auth_rejects;
    let checksum_rejects =
        sink.unattributed_rejects + sink.paths().map(|(_, s)| s.rejected).sum::<u64>();
    assert!(
        auth_rejects + checksum_rejects > 1000,
        "corruption must be caught: auth {auth_rejects}, checksum {checksum_rejects}"
    );
    // Zero pollution this time — every accepted sample is sane.
    for (id, path) in sink.paths() {
        for owd in path.owd.iter() {
            assert!(
                (20_000_000.0..60_000_000.0).contains(&owd),
                "path {id}: polluted OWD {owd} survived authentication"
            );
        }
    }
}

#[test]
fn application_class_overrides_steer_per_class() {
    // §3: "it makes a performance-driven/application-specific routing
    // decision". Control traffic (DSCP 46, expedited forwarding) pins to
    // GTT; bulk (DSCP 8) pins to Level3; unmarked traffic follows the
    // default selection (path 0).
    let mut class_map = std::collections::BTreeMap::new();
    class_map.insert(46u8 << 2, 2u16); // EF → GTT
    class_map.insert(8u8 << 2, 3u16); // CS1 → Level3
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 57,
        class_map,
        ..PairingOptions::default()
    })
    .unwrap();
    for i in 0..300u64 {
        let t = SimTime::from_ms(10 + i * 10);
        match i % 3 {
            0 => p.send_app_packet_class(t, Side::B, 64, 46 << 2),
            1 => p.send_app_packet_class(t, Side::B, 1210, 8 << 2),
            _ => p.send_app_packet(t, Side::B, 200),
        }
    }
    p.run_until(SimTime::from_secs(10));
    let sink = p.stats(Side::A).lock();
    let delivered = |path: u16| sink.path(path).unwrap().app_delivered;
    assert_eq!(delivered(2), 100, "EF class on GTT");
    assert_eq!(delivered(3), 100, "bulk class on Level3");
    assert_eq!(delivered(0), 100, "unmarked on the default selection");
    assert_eq!(delivered(1), 0);
    // The EF class actually got the lower latency it was promised.
    let app_mean = |path: u16| {
        let app: Vec<f64> = sink.path(path).unwrap().owd.app_values().collect();
        Summary::of(&app).unwrap().mean
    };
    let ef = app_mean(2);
    let bulk = app_mean(3);
    assert!(ef < bulk - 10_000_000.0, "EF {ef} vs bulk {bulk}");
}

#[test]
fn class_override_to_missing_tunnel_falls_back() {
    let mut class_map = std::collections::BTreeMap::new();
    class_map.insert(46u8 << 2, 99u16); // no such tunnel
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 58,
        class_map,
        ..PairingOptions::default()
    })
    .unwrap();
    for i in 0..50u64 {
        p.send_app_packet_class(SimTime::from_ms(10 + i * 10), Side::B, 64, 46 << 2);
    }
    p.run_until(SimTime::from_secs(5));
    let sink = p.stats(Side::A).lock();
    // Fallback to the installed selection (path 0) — never dropped.
    assert_eq!(sink.path(0).unwrap().app_delivered, 50);
}

#[test]
fn auth_and_in_band_feedback_compose() {
    let key = SipKey::from_words(1, 1);
    let mut p = tango::vultr_pairing(PairingOptions {
        seed: 56,
        control_period: Some(SimTime::from_ms(100)),
        feedback: FeedbackMode::InBand {
            period: SimTime::from_ms(200),
        },
        policy_b: Box::new(LowestOwdPolicy::new(500_000.0)),
        auth_key: Some(key),
        ..PairingOptions::default()
    })
    .unwrap();
    p.run_until(SimTime::from_secs(15));
    let b = p.stats(Side::B).lock();
    assert!(b.reports_received > 30);
    assert_eq!(b.auth_rejects, 0);
    drop(b);
    let history = p.stats(Side::B).lock().selection_history.clone();
    assert_eq!(history.last().unwrap().1, vec![2u16]);
}
