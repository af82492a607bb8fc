//! **T-J (§5 jitter)** — *"To measure sub-second network jitter, we
//! calculated the mean standard deviation of a 1-second rolling window.
//! For example, in the LA to NY direction we found the least noisy path
//! GTT had a rolling window standard deviation of .01ms while Telia had
//! a deviation of .33ms."*

use crate::util::{fmt, print_table};
use tango::prelude::*;

/// One row of the jitter table.
#[derive(Debug, Clone)]
pub struct JitterRow {
    /// Direction label.
    pub direction: &'static str,
    /// Path label.
    pub path: String,
    /// Mean rolling-1s std-dev, ms.
    pub jitter_ms: f64,
    /// Mean delay, ms (context).
    pub mean_ms: f64,
}

/// Measure both directions of a finished fault-free
/// [`crate::fig4::vultr_run`].
pub fn run(pairing: &TangoPairing) -> Vec<JitterRow> {
    let mut rows = Vec::new();
    for (direction, side) in [("LA→NY", Side::B), ("NY→LA", Side::A)] {
        let sink = pairing.stats(side).lock();
        for (i, label) in pairing.labels_into(side).into_iter().enumerate() {
            let path = sink.path(i as u16).expect("probed");
            rows.push(JitterRow {
                direction,
                path: label,
                jitter_ms: path.jitter_ns().expect("samples") / 1e6,
                mean_ms: path.owd.mean().expect("samples") / 1e6,
            });
        }
    }
    rows
}

/// Print the paper-comparable table.
pub fn report(trace: &TangoPairing) {
    let duration = trace.sim.now();
    println!("§5 jitter — mean std-dev of a 1-second rolling window ({duration} trace)\n");
    let rows = run(trace);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.direction.to_string(),
                r.path.clone(),
                fmt(r.mean_ms, 2),
                fmt(r.jitter_ms, 3),
            ]
        })
        .collect();
    print_table(
        &["direction", "path", "mean OWD (ms)", "rolling-1s std (ms)"],
        &table,
    );
    let get = |dir: &str, path: &str| {
        rows.iter()
            .find(|r| r.direction == dir && r.path == path)
            .map(|r| r.jitter_ms)
            .expect("row present")
    };
    let gtt = get("LA→NY", "GTT");
    let telia = get("LA→NY", "Telia");
    println!(
        "\nLA→NY: GTT {gtt:.3} ms vs Telia {telia:.3} ms ({:.0}×) — paper: \"GTT had a \
         rolling window standard deviation of .01ms while Telia had a deviation of .33ms\"",
        telia / gtt
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig4::vultr_run;

    #[test]
    fn la_to_ny_matches_paper_jitter() {
        let rows = run(&vultr_run(Vec::new(), SimTime::from_secs(30), 9));
        let get = |path: &str| {
            rows.iter()
                .find(|r| r.direction == "LA→NY" && r.path == path)
                .unwrap()
                .jitter_ms
        };
        assert!((0.005..0.02).contains(&get("GTT")), "GTT {}", get("GTT"));
        assert!(
            (0.25..0.40).contains(&get("Telia")),
            "Telia {}",
            get("Telia")
        );
    }
}
