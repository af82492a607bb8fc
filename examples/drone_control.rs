//! The paper's motivating workload (§2.2): real-time drone control.
//!
//! *"ASX performs real-time analytics on drone data to enable adaptive
//! control... Soon enough, ASX realizes that occasional increases in
//! network delay hinder the drone applications."*
//!
//! This example runs latency-sensitive control traffic across the
//! wide area while one path suffers the paper's Fig. 4 (right)
//! instability (spikes to 78 ms), twice: once pinned to the BGP default
//! path, once under Tango's adaptive lowest-delay policy. Compare the
//! tail latency the drones actually experience.
//!
//! ```sh
//! cargo run --example drone_control
//! ```

use tango::prelude::*;
use tango_topology::vultr::gtt_instability_event;

/// Run one configuration and return the app packets' OWD summary (ms).
fn fly(policy: Box<dyn PathPolicy>, label: &str) -> Summary {
    // The instability hits GTT (the best path) 60 s in, for 5 minutes.
    let event = gtt_instability_event(SimTime::from_secs(60).as_ns());
    let mut pairing = tango::vultr_pairing_with_events(
        vec![event],
        PairingOptions {
            seed: 7,
            probe_period: Some(SimTime::from_ms(10)),
            control_period: Some(SimTime::from_ms(100)),
            policy_a: Box::new(StaticPolicy::single(0, "unused")), // LA->NY side idle
            policy_b: policy,                                      // NY->LA carries the drones
            ..PairingOptions::default()
        },
    )
    .expect("provisioning succeeds");

    // Warm up measurements, then pin to whatever the policy picked and
    // start the drone control stream: one command packet every 20 ms for
    // eight minutes (covering the whole instability window).
    let start = SimTime::from_secs(2);
    let end = SimTime::from_secs(8 * 60);
    let mut t = start;
    while t < end {
        pairing.send_app_packet(t, Side::B, 64);
        t += SimTime::from_ms(20);
    }
    pairing.run_until(end + SimTime::from_secs(2));

    // The OWDs the drones' packets actually experienced, across every
    // path the policy ran them on.
    let sink = pairing.stats(Side::A).lock();
    let mut app_owds: Vec<f64> = Vec::new();
    for (_, p) in sink.paths() {
        app_owds.extend(p.owd.app_values().map(|v| v / 1e6));
    }
    drop(sink);
    let summary = Summary::of(&app_owds).expect("app traffic measured");
    println!(
        "{label:<22} mean {:6.2} ms   p99 {:6.2} ms   max {:6.2} ms",
        summary.mean, summary.p99, summary.max
    );
    summary
}

fn main() {
    println!("drone control across the instability of Fig. 4 (right):\n");
    let default = fly(
        Box::new(StaticPolicy::single(0, "bgp-default")),
        "BGP default (NTT)",
    );
    let pinned_best = fly(
        Box::new(StaticPolicy::single(2, "pin-gtt")),
        "pinned to GTT",
    );
    // Drone control is latency- *and* jitter-sensitive: evacuate a path
    // whose rolling variance explodes even if its mean barely moves.
    let adaptive = fly(
        Box::new(JitterAwarePolicy::new(5.0, 500_000.0)),
        "Tango jitter-aware",
    );

    println!("\nWhat happened:");
    println!(
        "- The BGP default never spikes but always pays the +30% floor ({:.1} ms).",
        default.mean
    );
    println!(
        "- Pinning to the fastest path wins on average but its p99 explodes to {:.1} ms \
         during the instability.",
        pinned_best.p99
    );
    println!(
        "- The adaptive policy rides GTT while it is healthy and evacuates during the \
         event: mean {:.1} ms, p99 {:.1} ms.",
        adaptive.mean, adaptive.p99
    );
    assert!(
        adaptive.p99 < pinned_best.p99,
        "adaptive must beat the pinned tail"
    );
    assert!(
        adaptive.mean < default.mean,
        "adaptive must beat the default mean"
    );
}
