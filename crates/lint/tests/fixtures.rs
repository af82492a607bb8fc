//! Fixture-based rule tests: each rule has a `fail.rs` snippet that must
//! trigger it and a `pass.rs` snippet that must stay clean, linted under
//! a pretend path that puts the snippet in the rule's scope. A second
//! pretend path outside the scope must silence the scoped rules.
//!
//! The interprocedural passes get multi-file fixtures, linted together
//! through [`tango_lint::lint_files`] under pretend workspace paths.

use tango_lint::diagnostics::{Diagnostic, Severity};
use tango_lint::{lint_files, lint_source};

fn fixture(rel: &str) -> String {
    let path = format!("{}/tests/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(path, src)
        .expect("fixture lexes")
        .iter()
        .map(|d| d.rule)
        .collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// Lint a set of `(pretend path, fixture file)` pairs as one workspace.
fn lint_fixture_files(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|&(path, rel)| (path.to_string(), fixture(rel)))
        .collect();
    lint_files(&sources).diagnostics
}

#[test]
fn unordered_collections_fail_fires_in_deterministic_crate() {
    let diags = lint_source(
        "crates/sim/src/lib.rs",
        &fixture("unordered_collections/fail.rs"),
    )
    .unwrap();
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "unordered-collections")
        .collect();
    // Two HashMap mentions, two HashSet mentions outside tests, one
    // HashSet inside a test (test code is in scope for this rule).
    assert!(hits.len() >= 5, "expected >= 5 hits, got {diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    assert!(hits.iter().any(|d| d.message.contains("HashMap")));
    assert!(hits.iter().any(|d| d.message.contains("HashSet")));
}

#[test]
fn unordered_collections_pass_is_clean() {
    assert_eq!(
        rules_fired(
            "crates/sim/src/lib.rs",
            &fixture("unordered_collections/pass.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn unordered_collections_out_of_scope_crate_is_exempt() {
    // tango-lint itself is not a deterministic crate; HashMap is allowed.
    assert_eq!(
        rules_fired(
            "crates/lint/src/lib.rs",
            &fixture("unordered_collections/fail.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn wall_clock_fail_fires_outside_bench() {
    let diags = lint_source(
        "crates/control/src/health.rs",
        &fixture("wall_clock/fail.rs"),
    )
    .unwrap();
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "wall-clock").collect();
    assert!(
        hits.iter().any(|d| d.message.contains("Instant::now")),
        "{diags:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("SystemTime")),
        "{diags:?}"
    );
}

#[test]
fn wall_clock_pass_is_clean() {
    assert_eq!(
        rules_fired(
            "crates/control/src/health.rs",
            &fixture("wall_clock/pass.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn wall_clock_exempt_in_bench_crate() {
    assert_eq!(
        rules_fired(
            "crates/bench/src/sharded.rs",
            &fixture("wall_clock/fail.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn unseeded_rng_fail_fires_everywhere() {
    // Even tango-bench gets no exemption: benches must be replayable too.
    for path in ["crates/sim/src/lib.rs", "crates/bench/src/util.rs"] {
        let diags = lint_source(path, &fixture("unseeded_rng/fail.rs")).unwrap();
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == "unseeded-rng").collect();
        assert!(
            hits.iter().any(|d| d.message.contains("thread_rng")),
            "{path}: {diags:?}"
        );
        assert!(
            hits.iter().any(|d| d.message.contains("`random`")),
            "{path}: {diags:?}"
        );
        assert!(
            hits.iter().any(|d| d.message.contains("from_entropy")),
            "{path}: {diags:?}"
        );
    }
}

#[test]
fn unseeded_rng_pass_is_clean() {
    assert_eq!(
        rules_fired("crates/sim/src/lib.rs", &fixture("unseeded_rng/pass.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn lossy_cast_fail_fires_in_wire_module() {
    let diags = lint_source(
        "crates/dataplane/src/codec.rs",
        &fixture("lossy_cast/fail.rs"),
    )
    .unwrap();
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "lossy-cast").collect();
    assert_eq!(hits.len(), 3, "{diags:?}");
    assert!(hits
        .iter()
        .all(|d| d.help.as_deref().is_some_and(|h| h.contains("try_from"))));
}

#[test]
fn lossy_cast_pass_is_clean() {
    assert_eq!(
        rules_fired(
            "crates/dataplane/src/codec.rs",
            &fixture("lossy_cast/pass.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn lossy_cast_out_of_scope_module_is_exempt() {
    assert_eq!(
        rules_fired("crates/bgp/src/session.rs", &fixture("lossy_cast/fail.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn hot_path_panic_fail_fires_in_hot_module() {
    let diags = lint_source(
        "crates/sim/src/engine.rs",
        &fixture("hot_path_panic/fail.rs"),
    )
    .unwrap();
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "hot-path-panic")
        .collect();
    assert!(
        hits.iter().any(|d| d.message.contains("unwrap")),
        "{diags:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("expect")),
        "{diags:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("index")),
        "{diags:?}"
    );
}

#[test]
fn hot_path_panic_pass_is_clean() {
    // Includes a #[cfg(test)] module full of unwraps and indexing: test
    // code is exempt for this rule.
    assert_eq!(
        rules_fired(
            "crates/sim/src/engine.rs",
            &fixture("hot_path_panic/pass.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn hot_path_panic_out_of_scope_module_is_exempt() {
    assert_eq!(
        rules_fired(
            "crates/sim/src/agent.rs",
            &fixture("hot_path_panic/fail.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn span_alloc_fail_fires_in_emission_module() {
    for path in ["crates/trace/src/span.rs", "crates/trace/src/ring.rs"] {
        let diags = lint_source(path, &fixture("span_alloc/fail.rs")).unwrap();
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == "span-alloc").collect();
        assert!(
            hits.iter().any(|d| d.message.contains("`String` type")),
            "{path}: {diags:?}"
        );
        assert!(
            hits.iter().any(|d| d.message.contains("format!")),
            "{path}: {diags:?}"
        );
        assert!(
            hits.iter().any(|d| d.message.contains("to_string")),
            "{path}: {diags:?}"
        );
        assert!(
            hits.iter().any(|d| d.message.contains("to_owned")),
            "{path}: {diags:?}"
        );
        assert!(
            hits.iter().any(|d| d.message.contains("push_str")),
            "{path}: {diags:?}"
        );
        assert!(hits.iter().all(|d| d.severity == Severity::Error));
    }
}

#[test]
fn span_alloc_pass_is_clean() {
    // Includes a #[cfg(test)] module that formats strings: test code is
    // exempt for this rule.
    assert_eq!(
        rules_fired("crates/trace/src/span.rs", &fixture("span_alloc/pass.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn span_alloc_exporters_are_out_of_scope() {
    // export.rs builds the JSON dumps once per run; String is fine there.
    assert_eq!(
        rules_fired("crates/trace/src/export.rs", &fixture("span_alloc/fail.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn reasoned_suppressions_silence_their_violations() {
    // engine.rs scope: wall-clock and hot-path-panic both apply, and both
    // violations carry a reasoned allow — nothing may survive, including
    // unused-suppression warnings.
    assert_eq!(
        rules_fired(
            "crates/sim/src/engine.rs",
            &fixture("suppression/reasoned.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn bare_suppression_is_itself_a_violation() {
    let diags = lint_source("crates/sim/src/engine.rs", &fixture("suppression/bare.rs")).unwrap();
    let malformed: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "malformed-suppression")
        .collect();
    assert_eq!(malformed.len(), 2, "{diags:?}");
    assert!(malformed.iter().all(|d| d.severity == Severity::Error));
    assert!(malformed.iter().all(|d| d.message.contains("reason")));
    // A reasonless allow also fails to suppress the underlying violation.
    assert!(diags.iter().any(|d| d.rule == "wall-clock"), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.rule == "hot-path-panic"),
        "{diags:?}"
    );
}

#[test]
fn unknown_rule_in_allow_is_a_violation() {
    let src = "// tango-lint: allow(no-such-rule) some reason\nfn f() {}\n";
    let diags = lint_source("crates/sim/src/lib.rs", src).unwrap();
    assert!(
        diags.iter().any(|d| d.rule == "malformed-suppression"
            && d.severity == Severity::Error
            && d.message.contains("no-such-rule")),
        "{diags:?}"
    );
}

#[test]
fn unused_suppression_warns() {
    let src =
        "// tango-lint: allow(wall-clock) defensive but nothing here reads a clock\nfn f() {}\n";
    let diags = lint_source("crates/sim/src/lib.rs", src).unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "unused-suppression" && d.severity == Severity::Warning),
        "{diags:?}"
    );
}

#[test]
fn thread_spawn_fail_fires_in_deterministic_crate() {
    let diags = lint_source("crates/sim/src/engine.rs", &fixture("thread_spawn/fail.rs")).unwrap();
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "thread-spawn").collect();
    assert!(
        hits.iter().any(|d| d.message.contains("thread::spawn")),
        "{diags:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("thread::scope")),
        "{diags:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains(".spawn(")),
        "{diags:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("rayon")),
        "{diags:?}"
    );
    // Test code is in scope too: the in-test spawn is one of the hits.
    assert!(hits.len() >= 5, "expected >= 5 hits, got {diags:?}");
    // The help text points at the approved runner module.
    assert!(hits.iter().all(|d| d
        .help
        .as_deref()
        .is_some_and(|h| h.contains("crates/sim/src/shard.rs"))));
}

#[test]
fn thread_spawn_pass_is_clean() {
    assert_eq!(
        rules_fired("crates/sim/src/engine.rs", &fixture("thread_spawn/pass.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn thread_spawn_out_of_scope_crate_is_exempt() {
    // tango-bench fans seeds out over workers by design; the rule only
    // guards the deterministic crates.
    assert_eq!(
        rules_fired(
            "crates/bench/src/parallel.rs",
            &fixture("thread_spawn/fail.rs")
        ),
        Vec::<&str>::new()
    );
}

// ---------------------------------------------------------------------
// Interprocedural: determinism-taint
// ---------------------------------------------------------------------

#[test]
fn taint_reports_wall_clock_two_calls_below_sim_entry_with_chain() {
    let diags = lint_fixture_files(&[
        (
            "crates/bench/src/timing.rs",
            "determinism_taint/bench_timing.rs",
        ),
        ("crates/sim/src/probe.rs", "determinism_taint/sim_probe.rs"),
    ]);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "determinism-taint")
        .collect();
    assert_eq!(hits.len(), 1, "{diags:?}");
    let d = hits[0];
    assert_eq!(d.severity, Severity::Error);
    // Anchored at the source token, in the bench crate — where the local
    // wall-clock rule is exempt and would never fire.
    assert_eq!(d.file, "crates/bench/src/timing.rs");
    assert!(d.message.contains("Instant::now"), "{d:?}");
    assert!(d.message.contains("sim::probe::schedule_probe"), "{d:?}");
    // Full chain: deterministic entry → pub bench wrapper → private
    // source fn (the wall-clock read sits two call levels down).
    let fns: Vec<&str> = d.chain.iter().map(|h| h.function.as_str()).collect();
    assert_eq!(
        fns,
        [
            "sim::probe::schedule_probe",
            "bench::timing::measure_now_ns",
            "bench::timing::host_stamp_ns",
        ],
        "{d:?}"
    );
    assert!(d.chain[0].file == "crates/sim/src/probe.rs", "{d:?}");
    assert!(d.chain[2].file == "crates/bench/src/timing.rs", "{d:?}");
    // Nothing else fires on the pair.
    assert!(
        diags.iter().all(|d| d.rule == "determinism-taint"),
        "{diags:?}"
    );
}

#[test]
fn taint_chain_goes_quiet_with_reasoned_suppression_at_source() {
    let diags = lint_fixture_files(&[
        (
            "crates/bench/src/timing.rs",
            "determinism_taint/bench_timing_suppressed.rs",
        ),
        ("crates/sim/src/probe.rs", "determinism_taint/sim_probe.rs"),
    ]);
    // The allow at the source silences the chain AND counts as used — no
    // unused-suppression warning may appear either.
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn taint_silent_without_a_deterministic_caller() {
    // The bench-crate source alone is fine: nondeterminism that never
    // flows into simulation code is not a finding.
    let diags = lint_fixture_files(&[(
        "crates/bench/src/timing.rs",
        "determinism_taint/bench_timing.rs",
    )]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------
// Interprocedural: clock-domain
// ---------------------------------------------------------------------

#[test]
fn clock_domain_fail_flags_all_three_mixes() {
    let diags = lint_source("crates/sim/src/clock.rs", &fixture("clock_domain/fail.rs")).unwrap();
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "clock-domain").collect();
    assert_eq!(hits.len(), 3, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    // The motivating case: virtual-ns + wall-ns addition.
    assert!(
        hits.iter()
            .any(|d| d.message.contains("arithmetic/comparison")
                && d.message.contains("virtual-ns")
                && d.message.contains("wall-ns")),
        "{diags:?}"
    );
    // let dur_us = span_end_ns; — ns value into a µs binding.
    assert!(
        hits.iter()
            .any(|d| d.message.contains("assignment") && d.message.contains("fixed-point-µs")),
        "{diags:?}"
    );
    // deadline_ns.min(budget_ms) — same-domain method across domains.
    assert!(
        hits.iter()
            .any(|d| d.message.contains("argument") && d.message.contains("ms")),
        "{diags:?}"
    );
}

#[test]
fn clock_domain_pass_is_clean() {
    assert_eq!(
        rules_fired("crates/sim/src/clock.rs", &fixture("clock_domain/pass.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn clock_domain_out_of_scope_crate_is_exempt() {
    // tango-net is not a deterministic crate; mixing is its own problem.
    assert_eq!(
        rules_fired("crates/net/src/clock.rs", &fixture("clock_domain/fail.rs")),
        Vec::<&str>::new()
    );
}

// ---------------------------------------------------------------------
// Interprocedural: reachability-inherited hot-path-panic
// ---------------------------------------------------------------------

#[test]
fn hot_path_panic_reaches_helpers_outside_the_hot_module() {
    let diags = lint_fixture_files(&[
        ("crates/sim/src/engine.rs", "reach/engine.rs"),
        ("crates/sim/src/helper.rs", "reach/helper.rs"),
    ]);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "hot-path-panic")
        .collect();
    // helper.rs is not a hot-path module, so both findings are purely
    // interprocedural: .unwrap() in step(), table[3] in leaf().
    assert!(hits.len() >= 2, "{diags:?}");
    assert!(hits.iter().all(|d| d.file == "crates/sim/src/helper.rs"));
    assert!(
        hits.iter().any(|d| d.message.contains("unwrap")),
        "{diags:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("index")),
        "{diags:?}"
    );
    // Every finding carries a chain rooted at the hot-path entry.
    for d in &hits {
        assert_eq!(
            d.chain.first().map(|h| h.function.as_str()),
            Some("sim::engine::dispatch_one"),
            "{d:?}"
        );
        assert!(d.message.contains("dispatch_one"), "{d:?}");
    }
    // leaf() is two hops down: dispatch_one → step → leaf.
    assert!(
        hits.iter().any(|d| {
            let fns: Vec<&str> = d.chain.iter().map(|h| h.function.as_str()).collect();
            fns == [
                "sim::engine::dispatch_one",
                "sim::helper::step",
                "sim::helper::leaf",
            ]
        }),
        "{hits:?}"
    );
}

#[test]
fn helper_alone_is_clean_without_a_hot_path_caller() {
    let diags = lint_fixture_files(&[("crates/sim/src/helper.rs", "reach/helper.rs")]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------
// Interprocedural: which crates a crate names
// ---------------------------------------------------------------------

/// The hot-path-panic findings in the pretend core file when linted
/// together with `dataplane_fixture` as the hot-path switch module.
fn core_hits_reached_from(dataplane_fixture: &str) -> Vec<Diagnostic> {
    let mut diags = lint_fixture_files(&[
        ("crates/dataplane/src/switch.rs", dataplane_fixture),
        ("crates/core/src/pairing.rs", "crate_refs/core.rs"),
    ]);
    diags.retain(|d| d.rule == "hot-path-panic" && d.file == "crates/core/src/pairing.rs");
    diags
}

#[test]
fn a_local_named_tango_names_no_crate() {
    // `let tango = …`, a `tango` field and `tango_pkt` are not the core
    // crate: no cross-crate edge, so nothing in core is on the hot path.
    let hits = core_hits_reached_from("crate_refs/local.rs");
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn a_tango_path_still_links_into_core() {
    let hits = core_hits_reached_from("crate_refs/path.rs");
    assert_eq!(hits.len(), 1, "{hits:?}");
    let chain: Vec<&str> = hits[0].chain.iter().map(|h| h.function.as_str()).collect();
    assert_eq!(
        chain,
        [
            "dataplane::switch::on_packet",
            "core::pairing::Table::lookup"
        ],
        "{hits:?}"
    );
}

// ---------------------------------------------------------------------
// span-alloc: extended ban list
// ---------------------------------------------------------------------

#[test]
fn span_alloc_extended_bans_fire() {
    let diags = lint_source("crates/trace/src/span.rs", &fixture("span_alloc/fail.rs")).unwrap();
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "span-alloc").collect();
    for needle in ["to_vec", "Box::new", "vec!"] {
        assert!(
            hits.iter().any(|d| d.message.contains(needle)),
            "missing {needle}: {diags:?}"
        );
    }
    // `String::from(..)` is caught by the blanket `String`-type ban — the
    // fixture's `converted` fn must produce a hit on its String mention.
    assert!(
        hits.iter()
            .any(|d| d.line >= 29 && d.message.contains("`String` type")),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------------
// Suppression edge cases
// ---------------------------------------------------------------------

#[test]
fn stale_suppression_warns_and_names_its_rule() {
    let diags = lint_source("crates/sim/src/engine.rs", &fixture("suppression/stale.rs")).unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unused-suppression");
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("hot-path-panic"), "{diags:?}");
}

#[test]
fn deleting_the_stale_suppression_restores_clean() {
    assert_eq!(
        rules_fired(
            "crates/sim/src/engine.rs",
            &fixture("suppression/stale_pass.rs")
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn multiple_suppressions_stack_on_one_item() {
    // Two standalone allows above one fn: both apply to the whole body.
    let src = "\
// tango-lint: allow(wall-clock) coarse host stamp for the log header only
// tango-lint: allow(hot-path-panic) len checked by caller contract
pub fn stamp(buf: &[u8]) -> u64 {
    let t = std::time::Instant::now();
    let _ = buf[0];
    t.elapsed().as_nanos() as u64
}
";
    assert_eq!(
        rules_fired("crates/sim/src/engine.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn item_suppression_does_not_leak_to_the_next_item() {
    // The allow covers `first` only; the same violation in `second`
    // must still be reported.
    let src = "\
// tango-lint: allow(hot-path-panic) index bounded by construction
pub fn first(buf: &[u8]) -> u8 {
    buf[0]
}

pub fn second(buf: &[u8]) -> u8 {
    buf[1]
}
";
    let diags = lint_source("crates/sim/src/engine.rs", src).unwrap();
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "hot-path-panic")
        .collect();
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].line, 7, "{diags:?}");
}

#[test]
fn diagnostics_sort_deterministically_by_file_line_column_rule() {
    // Feed files in reverse path order with violations on assorted
    // lines; the report must come back sorted by (file, line, column,
    // rule) regardless of input or discovery order.
    let clock = fixture("clock_domain/fail.rs");
    let alloc = fixture("span_alloc/fail.rs");
    let files = vec![
        ("crates/trace/src/span.rs".to_string(), alloc),
        ("crates/sim/src/clock.rs".to_string(), clock),
    ];
    let diags = lint_files(&files).diagnostics;
    assert!(diags.len() >= 4, "{diags:?}");
    let keys: Vec<_> = diags.iter().map(|d| d.sort_key()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    // And the order is genuinely cross-file: sim sorts before trace.
    assert_eq!(diags[0].file, "crates/sim/src/clock.rs");
    assert_eq!(diags.last().unwrap().file, "crates/trace/src/span.rs");
}

#[test]
fn thread_spawn_suppression_with_reason_is_honored() {
    // The shard runner's own pattern: a reasoned allow on the statement
    // that creates the scoped workers.
    let src = "\
pub fn run(shards: &mut [u64]) {
    // tango-lint: allow(thread-spawn) approved shard runner: determinism proven against run_serial
    std::thread::scope(|scope| {
        for s in shards.iter_mut() {
            scope.spawn(move || *s += 1);
        }
    });
}
";
    assert_eq!(
        rules_fired("crates/sim/src/shard.rs", src),
        Vec::<&str>::new()
    );
}
