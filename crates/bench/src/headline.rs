//! **T-30 (§5 headline)** — *"The BGP default path is 30 % worse than the
//! most performant path... The same holds for the reverse direction."*

use crate::util::{fmt, print_table};
use tango::prelude::*;

/// The headline numbers for one direction.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Direction label.
    pub direction: &'static str,
    /// BGP-default path label and mean (ms).
    pub default_path: (String, f64),
    /// Best path label and mean (ms).
    pub best_path: (String, f64),
    /// How much worse the default is, percent.
    pub pct_worse: f64,
}

/// Measure both directions of a finished fault-free
/// [`crate::fig4::vultr_run`].
pub fn run(pairing: &TangoPairing) -> Vec<Headline> {
    let mut out = Vec::new();
    for (direction, side) in [("NY→LA", Side::A), ("LA→NY", Side::B)] {
        let labels = pairing.labels_into(side);
        let means: Vec<f64> = (0..labels.len())
            .map(|i| pairing.mean_owd_ms(side, i as u16).expect("probed"))
            .collect();
        let best_idx = (0..means.len())
            .min_by(|&a, &b| means[a].partial_cmp(&means[b]).expect("finite"))
            .expect("non-empty");
        out.push(Headline {
            direction,
            default_path: (labels[0].clone(), means[0]),
            best_path: (labels[best_idx].clone(), means[best_idx]),
            pct_worse: (means[0] / means[best_idx] - 1.0) * 100.0,
        });
    }
    out
}

/// Print the paper-comparable summary.
pub fn report(trace: &TangoPairing) {
    let duration = trace.sim.now();
    println!("§5 headline — default vs best path, {duration} of 10 ms probing\n");
    let rows = run(trace);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|h| {
            vec![
                h.direction.to_string(),
                format!("{} ({} ms)", h.default_path.0, fmt(h.default_path.1, 2)),
                format!("{} ({} ms)", h.best_path.0, fmt(h.best_path.1, 2)),
                format!("+{}%", fmt(h.pct_worse, 1)),
            ]
        })
        .collect();
    print_table(
        &[
            "direction",
            "BGP default",
            "best path",
            "default is worse by",
        ],
        &table,
    );
    println!(
        "\npaper: \"GTT's path significantly outperforms the BGP default path through NTT \
         whose delay is 30% higher on average. The same holds for the reverse direction.\""
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig4::vultr_run;

    #[test]
    fn thirty_percent_both_directions() {
        for h in run(&vultr_run(Vec::new(), SimTime::from_secs(30), 10)) {
            assert_eq!(h.default_path.0, "NTT");
            assert_eq!(h.best_path.0, "GTT");
            assert!(
                (25.0..35.0).contains(&h.pct_worse),
                "{}: {}",
                h.direction,
                h.pct_worse
            );
        }
    }
}
