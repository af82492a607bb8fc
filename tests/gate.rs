//! The artifact gate: every committed artifact, listed once, and the
//! one check that regenerates and byte-checks it.
//!
//! The paper's figures and tables are reproduced as committed files in
//! `tango-obs`'s canonical JSON form, and their bytes are the behavioural
//! contract. [`MANIFEST`] lists each once with how it is produced: the
//! subcommand's own `report` entry point writing into a fresh directory
//! (exit code 0 asserted), then the in-process renders at other shard
//! settings, runner modes or a second build, which must give the same
//! bytes. The machine-dependent timing sidecars, and the lint baseline
//! that `tango-lint`'s `self_check` regenerates, are checked for
//! canonical form only.
//!
//! This file is a module, not a test target: `artifacts.rs`,
//! `golden_trace.rs` (telemetry), `golden_scalability.rs` and
//! `canonical_artifacts.rs` (the listing and canonical form) hold the
//! tests, each naming the entries it checks.
//!
//! A missing file, a committed JSON file the manifest does not list, or a
//! byte mismatch fails, naming the file, the first differing lines and
//! the refresh command. Refresh goldens here and review the diff like
//! code; `results/` is refreshed by the CLI, never by this gate:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release -p tango-bench
//! git diff tests/golden/
//! ```

// Each test target uses the part of the gate its entries need.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use tango_bench::scalability::ScalabilityOptions;
use tango_bench::sharded::ShardedOptions;
use tango_bench::util::SweepOptions;
use tango_bench::{chaos, scalability, sharded, telemetry, trace};
use tango_obs::Value;
use tango_sim::ShardMode;
use tango_trace::export;

/// A manifest entry.
struct Artifact {
    /// Where the file lives, relative to the workspace root.
    path: &'static str,
    /// `false` for an export the CLI writes but git ignores (the trace's
    /// Chrome form, ≈ 810 KB): only its renders are compared.
    committed: bool,
    /// The `experiments` command whose `report` writes the file, and the
    /// name it writes; `None` = canonical form only.
    report: Option<(&'static str, &'static str)>,
    /// Other settings, each rendering bytes that must equal the report's.
    renders: &'static [Render],
}

/// A setting, and the artifact's bytes rendered at it.
type Render = (&'static str, fn() -> String);

const CANONICAL_ONLY: Artifact = Artifact {
    path: "",
    committed: true,
    report: None,
    renders: &[],
};

/// Every artifact, each listed once.
const MANIFEST: &[Artifact] = &[
    Artifact {
        path: "tests/golden/TELEMETRY_vultr-blackhole_seed1.json",
        report: Some((
            "telemetry --seeds 1",
            "TELEMETRY_vultr-blackhole_seed1.json",
        )),
        renders: &[
            ("shards 2", || telemetry::collect_seed(1, 2).to_json()),
            ("shards 8", || telemetry::collect_seed(1, 8).to_json()),
            // One Vultr node per shard: shared feedback falls back to one.
            ("shards 9", || telemetry::collect_seed(1, 9).to_json()),
        ],
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "tests/golden/TELEMETRY_vultr-blackhole_seed7.json",
        report: Some((
            "telemetry --seeds 7",
            "TELEMETRY_vultr-blackhole_seed7.json",
        )),
        renders: &[
            ("shards 2", || telemetry::collect_seed(7, 2).to_json()),
            ("shards 8", || telemetry::collect_seed(7, 8).to_json()),
            ("shards 9", || telemetry::collect_seed(7, 9).to_json()),
        ],
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "tests/golden/CHAOS_storms.json",
        report: Some(("chaos", "CHAOS_storms.json")),
        renders: &[
            ("shards 8", || storms_at(8)),
            // In-band feedback: the two tenants really run split.
            ("shards 9", || storms_at(9)),
        ],
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "tests/golden/CHAOS_byzantine.json",
        report: Some(("chaos", "CHAOS_byzantine.json")),
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "tests/golden/TRACE_vultr-blackhole_seed1.json",
        report: Some(("trace", "TRACE_vultr-blackhole_seed1.json")),
        renders: &[("shards 8", || trace::dump_json(&trace::collect_seed(1, 8)))],
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "results/TRACE_vultr-blackhole_seed1.chrome.json",
        committed: false,
        report: Some(("trace", "TRACE_vultr-blackhole_seed1.chrome.json")),
        renders: &[("shards 8", || {
            export::chrome_trace(&trace::collect_seed(1, 8).spans())
        })],
    },
    Artifact {
        path: "tests/golden/BENCH_scalability_small.json",
        report: Some(("scalability --tiers small", "BENCH_scalability.json")),
        renders: &[("a second build in process", || {
            let options = ScalabilityOptions {
                full: false,
                ..ScalabilityOptions::default()
            };
            let ladder = scalability::tiers(&options).into_iter();
            let runs: Vec<_> = ladder.map(|t| scalability::run_tier(&options, t)).collect();
            scalability::to_json(&options, &runs)
        })],
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "results/BENCH_scalability.json",
        report: Some(("scalability", "BENCH_scalability.json")),
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "results/BENCH_sharded.json",
        report: Some(("sharded", "BENCH_sharded.json")),
        renders: &[("mode threaded", || {
            output("sharded --mode threaded", "BENCH_sharded.json")
        })],
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "results/BENCH_scalability.timing.json",
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "results/BENCH_sharded.timing.json",
        ..CANONICAL_ONLY
    },
    Artifact {
        path: "results/LINT_baseline.json",
        ..CANONICAL_ONLY
    },
];

fn storms_at(shards: usize) -> String {
    chaos::storms_to_json(&chaos::sweep(&chaos::DEFAULT_SEEDS, shards))
}

/// `experiments <command>` through its subcommand's `report`.
fn run(command: &str, out: PathBuf) -> i32 {
    let out = Some(out);
    let sweep = |seeds: &[u64]| SweepOptions {
        out: out.clone(),
        ..SweepOptions::new(seeds)
    };
    let ladder = |full| ScalabilityOptions {
        full,
        out: out.clone(),
        ..ScalabilityOptions::default()
    };
    let mode = |mode| ShardedOptions {
        mode,
        out: out.clone(),
        ..ShardedOptions::default()
    };
    match command {
        "telemetry --seeds 1" => telemetry::report(&sweep(&[1])),
        "telemetry --seeds 7" => telemetry::report(&sweep(&[7])),
        "chaos" => chaos::report(&sweep(&chaos::DEFAULT_SEEDS)),
        "trace" => trace::report(&sweep(&trace::DEFAULT_SEEDS)),
        "scalability --tiers small" => scalability::report(&ladder(false)),
        "scalability" => scalability::report(&ladder(true)),
        "sharded" => sharded::report(&mode(ShardMode::Serial)),
        "sharded --mode threaded" => sharded::report(&mode(ShardMode::Threaded)),
        other => panic!("the manifest names no report for `experiments {other}`"),
    }
}

/// The bytes of `file` as `experiments <command>` writes it, with `--out`
/// a fresh directory under the target dir (where CI picks up the timing
/// sidecars) and exit code 0 asserted. Each command runs once per
/// process: entries that read different files of one run share it.
fn output(command: &'static str, file: &str) -> String {
    static RUNS: Mutex<BTreeMap<&str, Arc<OnceLock<PathBuf>>>> = Mutex::new(BTreeMap::new());
    let mut runs = RUNS.lock().expect("no test panicked holding the run table");
    let once = Arc::clone(runs.entry(command).or_default());
    drop(runs);
    let out = once.get_or_init(|| {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("artifacts")
            .join(command.replace(' ', "_"));
        if out.exists() {
            std::fs::remove_dir_all(&out).expect("clear the previous run's --out dir");
        }
        let code = run(command, out.clone());
        assert_eq!(code, 0, "`experiments {command}` exited nonzero");
        out
    });
    let written = out.join(file);
    let bytes = std::fs::read_to_string(&written);
    bytes.unwrap_or_else(|e| panic!("`experiments {command}` wrote no {file}: {e}"))
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// What of a manifest entry [`check`] compares.
#[derive(PartialEq)]
pub enum Part {
    /// The report's bytes against the committed file.
    Report,
    /// Every other render against the report's bytes.
    Renders,
}

/// Both parts of an entry.
pub const ALL: &[Part] = &[Part::Report, Part::Renders];

/// Regenerate the entry at `path` through its report and byte-compare
/// the result with the committed file and with every other render, as
/// `parts` selects. `UPDATE_GOLDEN` rewrites a golden from the report
/// instead of comparing it.
pub fn check(path: &str, parts: &[Part]) {
    let artifact = MANIFEST.iter().find(|a| a.path == path);
    let artifact = artifact.unwrap_or_else(|| panic!("{path} is not in the manifest"));
    let (command, file) = artifact.report.expect("a regenerated entry");
    let golden = path.starts_with("tests/golden/");
    let refresh = if golden {
        "UPDATE_GOLDEN=1 cargo test --release -p tango-bench".to_string()
    } else {
        format!("cargo run --release -p tango-bench --bin experiments -- {command}")
    };
    let same = |expected: &str, actual: &str, from: &str| {
        if expected == actual {
            return;
        }
        let lines = expected.lines().zip(actual.lines()).enumerate();
        let diff: Vec<String> = lines
            .filter(|(_, (e, a))| e != a)
            .take(10)
            .map(|(i, (e, a))| format!("  line {}: expected `{e}` vs actual `{a}`", i + 1))
            .collect();
        panic!(
            "{path} from {from} differs ({} vs {} lines):\n{}\n(refresh intentionally with {refresh})",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    };
    let reference = output(command, file);
    let file = root().join(path);
    if parts.contains(&Part::Report) {
        if golden && std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&file, &reference).expect("write the golden");
        } else if artifact.committed {
            let committed = std::fs::read_to_string(&file);
            let committed = committed
                .unwrap_or_else(|e| panic!("missing {path} ({e}); refresh with {refresh}"));
            same(&committed, &reference, &format!("`experiments {command}`"));
        }
    }
    if parts.contains(&Part::Renders) {
        for (setting, render) in artifact.renders {
            same(&reference, &render(), setting);
        }
    }
}

/// The committed file at `path` is canonical: `Value::parse` then
/// `Value::to_json` reproduces its bytes. A file that fails was written
/// by something other than the one JSON writer, or edited by hand.
pub fn canonical(path: &str) {
    let text = std::fs::read_to_string(root().join(path));
    let text = text.unwrap_or_else(|e| panic!("missing committed artifact {path}: {e}"));
    let parsed = Value::parse(&text).unwrap_or_else(|e| panic!("{path} unparsable: {e}"));
    assert!(parsed.to_json() == text, "{path} is not in canonical form");
}

/// The manifest lists exactly the committed JSON files — every
/// `tests/golden/*.json` and every path the root `.gitignore` un-ignores
/// (`!/results/...`) — and each is [`canonical`].
pub fn listed_and_canonical() {
    let gitignore = std::fs::read_to_string(root().join(".gitignore")).expect("read .gitignore");
    let mut committed: Vec<String> = gitignore
        .lines()
        .filter_map(|line| line.strip_prefix("!/"))
        .map(String::from)
        .collect();
    for entry in std::fs::read_dir(root().join("tests/golden")).expect("list tests/golden") {
        let name = entry.expect("read a tests/golden entry").file_name();
        let name = name.to_str().expect("a UTF-8 file name");
        if name.ends_with(".json") {
            committed.push(format!("tests/golden/{name}"));
        }
    }
    committed.sort();
    let mut listed: Vec<&str> = MANIFEST
        .iter()
        .filter(|a| a.committed)
        .map(|a| a.path)
        .collect();
    listed.sort();
    assert_eq!(
        committed, listed,
        "the committed JSON files (left) differ from tests/gate.rs's manifest (right)"
    );
    for path in listed {
        canonical(path);
    }
}
