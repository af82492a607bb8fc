//! The full §4/§5 deployment story with the Fig. 4 incidents, rendered
//! as ASCII charts: a route change (+5 ms for 10 minutes) and an
//! instability period (spikes to 78 ms) on the GTT path, NY → LA.
//!
//! ```sh
//! cargo run --release --example cloud_pair
//! ```

use tango::prelude::*;
use tango_measure::export::ascii_chart;
use tango_measure::interval::means;
use tango_topology::vultr::{gtt_instability_event, gtt_route_change_event};

fn main() {
    // A 30-minute window containing both incidents.
    let route_change_at = SimTime::from_mins(5);
    let instability_at = SimTime::from_mins(20);
    let mut pairing = tango::vultr_pairing_with_events(
        vec![
            gtt_route_change_event(route_change_at.as_ns()),
            gtt_instability_event(instability_at.as_ns()),
        ],
        PairingOptions {
            seed: 22,
            ..PairingOptions::default()
        },
    )
    .expect("provisioning succeeds");

    println!("running 30 simulated minutes of 10 ms probing on 8 tunnels...");
    pairing.run_until(SimTime::from_mins(30));

    let labels = pairing.labels_into(Side::A);
    println!("\n== NY -> LA one-way delay (cf. Fig. 4) ==\n");

    // Bin to 1 s averages for the chart (raw is one point per 10 ms).
    let series: Vec<(String, tango_measure::TimeSeries)> = labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let bins = pairing.owd_bins(Side::A, i as u16).expect("probed");
            let ms = {
                // Convert ns → ms for readable axes.
                let mut out = tango_measure::TimeSeries::new();
                for (t, v) in means(&bins.merged(1_000_000_000)).iter() {
                    out.push(t, v / 1e6);
                }
                out
            };
            (label.clone(), ms)
        })
        .collect();
    let columns: Vec<(&str, &tango_measure::TimeSeries)> =
        series.iter().map(|(l, s)| (l.as_str(), s)).collect();
    println!("{}", ascii_chart(&columns, 100, 18, "one-way delay (ms)"));

    println!("== per-path summary ==");
    for (label, s) in &series {
        let summary = Summary::of(s.values()).expect("samples");
        println!(
            "  {label:<8} min {:5.2}  mean {:5.2}  p99 {:6.2}  max {:6.2} ms",
            summary.min, summary.mean, summary.p99, summary.max
        );
    }

    // Zoom on the route change, like Fig. 4 (middle).
    let gtt = pairing.owd_bins(Side::A, 2).expect("gtt probed");
    let window = |start: SimTime, end: SimTime| gtt.window(start.as_ns(), end.as_ns()).unwrap();
    let before = window(SimTime::ZERO, route_change_at);
    let during = window(
        route_change_at + SimTime::from_mins(1),
        route_change_at + SimTime::from_mins(9),
    );
    println!(
        "\nGTT route change: floor {:.2} ms -> {:.2} ms (paper: +5 ms), reverts after 10 min.",
        before.min / 1e6,
        during.min / 1e6
    );
    let storm = window(instability_at, instability_at + SimTime::from_mins(5));
    println!(
        "GTT instability: peak {:.1} ms (paper: 78 ms) while other paths stay at their floors.",
        storm.max / 1e6
    );
}
