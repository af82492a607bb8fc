//! Rendering: the driver's one-line result, the human tables of `all`,
//! and the results document `compare` reads back.

use crate::isolated::Row;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::RunResult;
use crate::stats::Summary;

/// Schema tag of the results document.
pub const SCHEMA: &str = "tango-benchmark/results/v1";

fn value(v: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))])
}

/// The driver's result object: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (untraced run) or the per-layer ones (traced run).
pub fn driver_line(r: &RunResult, traced: bool) -> String {
    let metrics = if traced {
        Json::obj(
            PER_LAYER
                .iter()
                .map(|m| (m.name, value(r.per_layer[m.name], m.unit))),
        )
    } else {
        Json::obj(
            END_TO_END
                .iter()
                .map(|m| (m.name, value(r.end_to_end[m.name].median, m.unit))),
        )
    };
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics),
    ])
    .line()
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// One workload's entry in the results document: end-to-end numbers of
/// the untraced run, per-layer numbers of the traced one.
pub fn workload_json(untraced: &RunResult, traced: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(untraced.correct && traced.correct)),
        ("attempted", Json::Num(untraced.attempted as f64)),
        ("failed", Json::Num(untraced.failed as f64)),
        ("digest", Json::Str(untraced.digest.clone())),
        (
            "end_to_end",
            Json::obj(
                END_TO_END
                    .iter()
                    .map(|m| (m.name, summary_json(&untraced.end_to_end[m.name], m.unit))),
            ),
        ),
        (
            "per_layer",
            Json::obj(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, value(traced.per_layer[m.name], m.unit))),
            ),
        ),
    ])
}

/// Print the end-to-end table of one untraced run.
pub fn print_end_to_end(r: &RunResult) {
    println!(
        "\n== {} — end to end ({} untraced repetitions; op = {}) ==",
        r.workload.name(),
        r.end_to_end["ops_per_s"].n,
        r.workload.op()
    );
    println!(
        "  {:<18} {:>16} {:>16} {:>16}  {:<6} {:>7}  status",
        "metric", "median", "q1", "q3", "unit", "spread"
    );
    for m in &END_TO_END {
        let s = &r.end_to_end[m.name];
        let status = if s.spread() > m.bound {
            "unresolved"
        } else {
            "ok"
        };
        println!(
            "  {:<18} {:>16.6} {:>16.6} {:>16.6}  {:<6} {:>6.2}%  {status}",
            m.name,
            s.median,
            s.q1,
            s.q3,
            m.unit,
            s.spread() * 100.0
        );
    }
    println!(
        "  attempted {}  failed {}  failed_share {}  digest {}  correct {}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        r.digest,
        r.correct
    );
    for p in &r.problems {
        println!("  PROBLEM: {p}");
    }
}

/// Print the isolated rows (they do not depend on the workload).
pub fn print_isolated(isolated: &[Row]) {
    println!("\n== isolated per-layer rows (median ns/op, MAD, batches) ==");
    for row in isolated {
        println!(
            "  {:<36} {:>12.4}  ns  MAD {:>8.4}  n {}",
            row.name, row.ns, row.mad, row.batches
        );
    }
}

/// Print the workload-dependent per-layer rows and the span totals of one
/// traced run (the isolated rows are printed once, by [`print_isolated`]).
pub fn print_per_layer(r: &RunResult, isolated: &[Row]) {
    println!("\n== {} — per layer (traced run) ==", r.workload.name());
    for m in PER_LAYER
        .iter()
        .filter(|m| isolated.iter().all(|row| row.name != m.name))
    {
        println!(
            "  {:<36} {:>18.4}  {:<6} {}",
            m.name,
            r.per_layer[m.name],
            m.unit,
            if m.exact { "exact" } else { "" }
        );
    }
    println!("  spans (count, total ms, self ms):");
    for (name, count, total, own) in &r.span_totals {
        println!(
            "    {:<24} {:>8} {:>12.3} {:>12.3}",
            name,
            count,
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    for p in &r.problems {
        println!("  PROBLEM: {p}");
    }
}
