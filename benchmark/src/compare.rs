//! `compare A.json B.json`: one row per (metric, workload) with base,
//! new, ratio, bound and a verdict.
//!
//! End-to-end verdicts: `worse` when the new median is worse than the
//! base's by more than the metric's bound, `better` when it is better by
//! more than the bound (any improvement, for an exact count), `ok`
//! otherwise — and `unresolved`, never `ok`, when either run's own
//! quartile spread exceeds the bound. Per-layer rows carry no bound: exact
//! counts read `same` or `differs`, timings `-`.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::report::SCHEMA;

/// The verdict on one end-to-end row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better than the base by more than the bound.
    Better,
    /// Worse than the base by more than the bound.
    Worse,
    /// A run's own spread exceeds the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decide one end-to-end row. `spread` is the larger of the two runs'
/// quartile spreads (0 for an exact count).
pub fn verdict(m: &metrics::Metric, base: f64, new: f64, spread: f64) -> Verdict {
    if !m.exact && spread > m.bound {
        return Verdict::Unresolved;
    }
    // How much worse `new` is, as a share of the base.
    let worse_by = match m.better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    };
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound || (m.exact && worse_by < 0.0) {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    Ok(doc)
}

/// `doc[key]` as a number; NaN when absent.
fn num(doc: Option<&Json>, key: &str) -> f64 {
    doc.and_then(|d| d.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn print_row(workload: &str, metric: &str, base: f64, new: f64, bound: Option<f64>, verdict: &str) {
    let ratio = if base == 0.0 { f64::NAN } else { new / base };
    let bound = bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
    println!(
        "{workload:<16} {metric:<36} {base:>18.6} {new:>18.6} {ratio:>8.4} {bound:>6}  {verdict}"
    );
}

/// Compare two results files and print the table. `Ok(true)` when no row
/// is `worse`; `Err` when the documents cannot be compared at all.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    compare_docs(&load(base_path)?, &load(new_path)?)
}

/// [`compare`] on parsed documents.
pub fn compare_docs(a: &Json, b: &Json) -> Result<bool, String> {
    let quick = |d: &Json| d.get("quick").and_then(Json::as_bool).unwrap_or(false);
    if quick(a) != quick(b) {
        return Err(
            "one document is a --quick run and the other is not: sizes differ, nothing compares"
                .into(),
        );
    }
    if num(Some(a), "seed") != num(Some(b), "seed") {
        println!("note: the seeds differ, so exact counts need not match");
    }
    let (mut worse, mut unresolved, mut differs) = (0u32, 0u32, 0u32);
    println!(
        "{:<16} {:<36} {:>18} {:>18} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let workloads = a.get("workloads").and_then(Json::as_obj);
    for (name, ea) in workloads.into_iter().flatten() {
        let Some(eb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<16} missing from the new document");
            worse += 1;
            continue;
        };
        let (fa, fb) = (num(Some(ea), "failed"), num(Some(eb), "failed"));
        if fb > fa || eb.get("correct").and_then(Json::as_bool) != Some(true) {
            print_row(name, "failed", fa, fb, None, "worse");
            worse += 1;
        }
        for m in &metrics::END_TO_END {
            let row = |e: &'_ Json| e.get("end_to_end").and_then(|t| t.get(m.name)).cloned();
            let (ra, rb) = (row(ea), row(eb));
            let (base, new) = (num(ra.as_ref(), "median"), num(rb.as_ref(), "median"));
            let spread = |r: Option<&Json>| (num(r, "q3") - num(r, "q1")) / num(r, "median").abs();
            let v = if base.is_nan() || new.is_nan() {
                Verdict::Worse
            } else {
                verdict(m, base, new, spread(ra.as_ref()).max(spread(rb.as_ref())))
            };
            worse += u32::from(v == Verdict::Worse);
            unresolved += u32::from(v == Verdict::Unresolved);
            let changed = m.exact && base != new;
            differs += u32::from(changed);
            let word = format!(
                "{}{}",
                v.word(),
                if changed {
                    " (exact count differs)"
                } else {
                    ""
                }
            );
            print_row(name, m.name, base, new, Some(m.bound), &word);
        }
        for m in &metrics::PER_LAYER {
            let value = |e: &Json| num(e.get("per_layer").and_then(|t| t.get(m.name)), "value");
            let (base, new) = (value(ea), value(eb));
            let word = match (m.exact, base == new) {
                (true, true) => "same",
                (true, false) => {
                    differs += 1;
                    "differs"
                }
                (false, _) => "-",
            };
            print_row(name, m.name, base, new, None, word);
        }
        let digest = |e: &'_ Json| {
            e.get("digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        println!(
            "{name:<16} {:<36} {:>18} {:>18}  {}",
            "digest",
            digest(ea),
            digest(eb),
            if digest(ea) == digest(eb) {
                "same"
            } else {
                "differs (reported, not a gate)"
            }
        );
    }
    println!(
        "\n{worse} worse, {unresolved} unresolved, {differs} exact-count rows differ \
         (two runs of one commit and seed must show 0, 0, 0)"
    );
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn verdicts() {
        let ops = &END_TO_END[0]; // higher is better, 25 %
        assert_eq!(verdict(ops, 100.0, 90.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(ops, 100.0, 70.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(ops, 100.0, 130.0, 0.02), Verdict::Better);
        assert_eq!(verdict(ops, 100.0, 70.0, 0.30), Verdict::Unresolved);
        let heap = &END_TO_END[2]; // exact, lower is better, 2 %
        assert_eq!(verdict(heap, 100.0, 100.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(heap, 100.0, 99.9, 0.0), Verdict::Better);
        assert_eq!(verdict(heap, 100.0, 101.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(heap, 100.0, 103.0, 0.0), Verdict::Worse);
    }
}
