//! The files around the code agree with the code: `BENCHMARK.json` lists
//! exactly the metrics and workloads the binary reports, the README
//! names every one of them, and `compare` behaves on hand-made documents.

use std::path::Path;
use tango_benchmark::json::Json;
use tango_benchmark::metrics::{END_TO_END, PER_LAYER};
use tango_benchmark::workloads::Workload;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|i| {
            i.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let doc = Json::parse(&repo_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    assert_eq!(
        names(&doc, "end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names(&doc, "per_layer"),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    let Some(Json::Arr(rows)) = doc.get("end_to_end") else {
        unreachable!("checked above");
    };
    for (row, m) in rows.iter().zip(&END_TO_END) {
        assert_eq!(
            row.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            row.get("better").and_then(Json::as_str),
            Some(m.better.word()),
            "{}",
            m.name
        );
        assert_eq!(
            row.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(tango_benchmark::cli::RUN_SECONDS)
    );
}

#[test]
fn readme_names_every_metric_and_workload() {
    let readme = repo_file("README.md");
    for name in END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.name)
        .chain(Workload::ALL.iter().map(|w| w.name()))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md never mentions `{name}`"
        );
    }
}

fn results(quick: bool, ops_per_s: f64, heap: f64) -> Json {
    let summary = |v: f64| {
        format!("{{\"median\": {v}, \"q1\": {v}, \"q3\": {v}, \"n\": 5, \"unit\": \"x\"}}")
    };
    Json::parse(&format!(
        "{{\"schema\": \"tango-benchmark/results/v1\", \"seed\": 1, \"quick\": {quick}, \"workloads\": \
         {{\"pair_fastpath\": {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"digest\": \"d\", \
         \"end_to_end\": {{\"ops_per_s\": {}, \"setup_s\": {}, \"peak_heap_mib\": {}, \"delivered_share\": {}}}, \
         \"per_layer\": {{}}}}}}}}",
        summary(ops_per_s),
        summary(0.5),
        summary(heap),
        summary(1.0)
    ))
    .expect("well-formed")
}

#[test]
fn compare_gates_on_worse_and_refuses_quick_against_full() {
    use tango_benchmark::compare::compare_docs;
    let base = results(false, 100.0, 10.0);
    assert_eq!(compare_docs(&base, &results(false, 97.0, 10.0)), Ok(true));
    assert_eq!(compare_docs(&base, &results(false, 70.0, 10.0)), Ok(false));
    assert_eq!(compare_docs(&base, &results(false, 100.0, 11.0)), Ok(false));
    assert!(compare_docs(&base, &results(true, 100.0, 10.0)).is_err());
}
