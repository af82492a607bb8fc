//! **Fig. 4** — one-way delay of the four NY→LA paths over time: the
//! long trace (left), the GTT route change (middle), and the GTT
//! instability period (right).
//!
//! The paper's trace spans 8 days at 10 ms sampling; simulated time is
//! cheap but not free, so the default durations are scaled down (the
//! statistics converge within minutes of simulated time) and every run
//! accepts a duration override. Sampling stays at the paper's 10 ms.

use crate::util::{fmt, out_dir, print_table};
use tango::prelude::*;
use tango_measure::export::{ascii_chart, write_csv};
use tango_measure::interval::means;
use tango_measure::{IntervalAverager, TimeSeries};
use tango_topology::vultr::{gtt_instability_event, gtt_route_change_event};
use tango_topology::LinkEvent;

/// A completed Fig. 4-style run: per-path one-way delay (ns) NY→LA over
/// time.
pub struct Fig4Run {
    /// (label, the path's 500 ms one-way-delay bins).
    pub paths: Vec<(String, IntervalAverager)>,
}

/// The Vultr pairing with `events` scheduled, run to `duration`. With no
/// events this is the §5 trace `fig4-left`, `jitter` and `headline` all
/// read — `experiments all` simulates it once and hands it to the three.
pub fn vultr_run(events: Vec<LinkEvent>, duration: SimTime, seed: u64) -> TangoPairing {
    let mut pairing = tango::vultr_pairing_with_events(
        events,
        PairingOptions {
            seed,
            ..PairingOptions::default()
        },
    )
    .expect("vultr scenario provisions");
    pairing.run_until(duration);
    pairing
}

/// The NY→LA bins of a finished run.
fn bins_into_la(pairing: &TangoPairing) -> Fig4Run {
    let labels = pairing.labels_into(Side::A);
    let paths = labels
        .into_iter()
        .enumerate()
        .map(|(i, label)| (label, pairing.owd_bins(Side::A, i as u16).expect("probed")))
        .collect();
    Fig4Run { paths }
}

/// Run the Vultr pairing with events, return the NY→LA bins.
pub fn run(events: Vec<LinkEvent>, duration: SimTime, seed: u64) -> Fig4Run {
    bins_into_la(&vultr_run(events, duration, seed))
}

fn to_ms_binned(bins: &IntervalAverager, bin_ns: u64) -> TimeSeries {
    let mut out = TimeSeries::new();
    for (t, v) in means(&bins.merged(bin_ns)).iter() {
        out.push(t, v / 1e6);
    }
    out
}

fn chart_and_csv(run: &Fig4Run, bin_ns: u64, csv_name: &str, width: usize) {
    let binned: Vec<(String, TimeSeries)> = run
        .paths
        .iter()
        .map(|(l, s)| (l.clone(), to_ms_binned(s, bin_ns)))
        .collect();
    let columns: Vec<(&str, &TimeSeries)> = binned.iter().map(|(l, s)| (l.as_str(), s)).collect();
    println!("{}", ascii_chart(&columns, width, 16, "one-way delay (ms)"));
    let path = out_dir(&None).join(csv_name);
    write_csv(&path, "t_ns", &columns).expect("write csv");
    println!("series written to {}\n", path.display());
}

/// **Fig. 4 (left)** — the long trace (a finished fault-free
/// [`vultr_run`]). Paper shape: GTT lowest (~28 ms),
/// NTT the default ~30 % higher, Telia in between, the 4th path highest;
/// per-path jitter visibly different.
pub fn left(trace: &TangoPairing) {
    println!(
        "Fig. 4 (left) — {} of NY→LA one-way delay, 10 ms probes, no incidents\n",
        trace.sim.now()
    );
    let run = bins_into_la(trace);
    chart_and_csv(&run, 10_000_000_000, "fig4_left.csv", 100);

    let mut rows = Vec::new();
    let gtt_mean = run
        .paths
        .iter()
        .find(|(l, _)| l == "GTT")
        .and_then(|(_, b)| b.total())
        .expect("GTT samples")
        .mean();
    for (label, bins) in &run.paths {
        let all = bins.total().expect("samples");
        rows.push(vec![
            label.clone(),
            fmt(all.min / 1e6, 2),
            fmt(all.mean() / 1e6, 2),
            fmt(all.max / 1e6, 2),
            format!("{:+.1}%", (all.mean() / gtt_mean - 1.0) * 100.0),
        ]);
    }
    print_table(&["path", "min ms", "mean ms", "max ms", "vs best"], &rows);
    println!("\npaper: \"GTT's path significantly outperforms the BGP default path through");
    println!(
        "NTT whose delay is 30% higher on average. The same holds for the reverse\ndirection.\""
    );
}

/// **Fig. 4 (middle)** — an internal route change: GTT destabilizes
/// briefly, settles **+5 ms** for ~10 minutes, then reverts.
pub fn middle(seed: u64) {
    let event_at = SimTime::from_mins(15);
    let duration = SimTime::from_mins(40);
    println!("Fig. 4 (middle) — GTT internal route change at t={event_at}\n");
    let run = run(
        vec![gtt_route_change_event(event_at.as_ns())],
        duration,
        seed,
    );
    chart_and_csv(&run, 5_000_000_000, "fig4_middle.csv", 100);

    let gtt = &run
        .paths
        .iter()
        .find(|(l, _)| l == "GTT")
        .expect("GTT path")
        .1;
    let floor =
        |start: SimTime, end: SimTime| gtt.window(start.as_ns(), end.as_ns()).expect("samples").min;
    let before = floor(SimTime::ZERO, event_at);
    let shifted = floor(
        event_at + SimTime::from_mins(2),
        event_at + SimTime::from_mins(9),
    );
    let after = floor(event_at + SimTime::from_mins(12), duration);
    let rows = vec![
        vec!["before".into(), fmt(before / 1e6, 2)],
        vec!["during (2–9 min in)".into(), fmt(shifted / 1e6, 2)],
        vec!["after reversion".into(), fmt(after / 1e6, 2)],
    ];
    print_table(&["window", "GTT delay floor (ms)"], &rows);
    let delta = (shifted - before) / 1e6;
    println!(
        "\nmeasured floor shift: +{delta:.2} ms for ~10 min (paper: \"a new minimum that \
         has a 5ms longer one-way delay... persists for around 10 minutes\")"
    );
}

/// **Fig. 4 (right)** — a ~5 minute instability period on GTT with
/// spikes peaking at **78 ms** while all other paths are unaffected.
pub fn right(seed: u64) {
    let event_at = SimTime::from_mins(4);
    let duration = SimTime::from_mins(12);
    println!("Fig. 4 (right) — GTT instability period at t={event_at}\n");
    let run = run(
        vec![gtt_instability_event(event_at.as_ns())],
        duration,
        seed,
    );
    // Fine bins so spikes survive the averaging (paper plots 10 ms data).
    chart_and_csv(&run, 500_000_000, "fig4_right.csv", 100);

    let storm_end = event_at + SimTime::from_mins(5);
    let mut rows = Vec::new();
    for (label, bins) in &run.paths {
        let storm = bins
            .window(event_at.as_ns(), storm_end.as_ns())
            .expect("samples");
        rows.push(vec![
            label.clone(),
            fmt(storm.min / 1e6, 2),
            fmt(storm.max / 1e6, 2),
        ]);
    }
    print_table(
        &["path", "min during storm (ms)", "peak during storm (ms)"],
        &rows,
    );
    let gtt_peak = run
        .paths
        .iter()
        .find(|(l, _)| l == "GTT")
        .and_then(|(_, b)| b.window(event_at.as_ns(), storm_end.as_ns()))
        .expect("GTT storm window")
        .max
        / 1e6;
    println!(
        "\nmeasured GTT peak: {gtt_peak:.1} ms (paper: \"major spikes resulting in a peak \
         one-way-delay of 78ms (more than double the minimum one-way delay of 28ms)\");"
    );
    println!("other paths hold their floors throughout (paper: \"almost no interference\").");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_shape_holds_at_small_scale() {
        let r = run(Vec::new(), SimTime::from_secs(20), 5);
        assert_eq!(r.paths.len(), 4);
        let mean = |label: &str| {
            let bins = &r.paths.iter().find(|(l, _)| l == label).unwrap().1;
            bins.total().unwrap().mean() / 1e6
        };
        assert!(mean("NTT") / mean("GTT") > 1.25);
        assert!(mean("Telia") > mean("GTT"));
        assert!(mean("Level3") > mean("NTT"));
    }

    #[test]
    fn middle_shift_is_five_ms() {
        let event_at = SimTime::from_secs(60);
        let r = run(
            vec![gtt_route_change_event(event_at.as_ns())],
            SimTime::from_secs(180),
            6,
        );
        let gtt = &r.paths.iter().find(|(l, _)| l == "GTT").unwrap().1;
        let before = gtt.window(0, event_at.as_ns()).unwrap().min;
        let during = gtt
            .window(
                (event_at + SimTime::from_secs(40)).as_ns(),
                (event_at + SimTime::from_secs(120)).as_ns(),
            )
            .unwrap()
            .min;
        let delta_ms = (during - before) / 1e6;
        assert!((4.8..5.3).contains(&delta_ms), "shift {delta_ms}");
    }

    #[test]
    fn right_peak_near_78ms_and_others_quiet() {
        let event_at = SimTime::from_secs(30);
        let r = run(
            vec![gtt_instability_event(event_at.as_ns())],
            SimTime::from_mins(6),
            7,
        );
        let storm = |label: &str| {
            r.paths
                .iter()
                .find(|(l, _)| l == label)
                .unwrap()
                .1
                .window(event_at.as_ns(), (event_at + SimTime::from_mins(5)).as_ns())
                .unwrap()
        };
        let gtt_peak = storm("GTT").max / 1e6;
        // Spike cap lands the deterministic part at 78 ms; the additive
        // Gaussian storm noise can push a couple ms past it.
        assert!((72.0..82.0).contains(&gtt_peak), "peak {gtt_peak}");
        // Others unaffected (their max stays near their floor).
        for other in ["NTT", "Telia", "Level3"] {
            let s = storm(other);
            let spread = (s.max - s.min) / 1e6;
            assert!(spread < 3.0, "{other} disturbed by {spread} ms");
        }
    }
}
