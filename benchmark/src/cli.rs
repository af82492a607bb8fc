//! The command line.

use crate::json::Json;
use crate::run::{self, RunOptions, QUICK_SCALE};
use crate::workloads::Workload;
use crate::{check, compare, isolated, report};
use std::path::{Path, PathBuf};

/// Default time budget of a run, seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

const USAGE: &str = "\
tango-benchmark — the repo benchmark (run from the repository root)

  --workload <name> --seed <n> --seconds <s> --trace <0|1>
        one run of one workload; the last line of stdout is one JSON
        object {correct, attempted, failed, metrics}: the end-to-end
        metrics with --trace 0, the per-layer metrics with --trace 1
  all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
        every workload, untraced then traced; prints every metric by name
        with its unit and writes the results document (default
        benchmark/out/results_seed<n>.json)
  check [--seed <n>]
        every workload at 1/50 size, invariants asserted
  compare <base.json> <new.json>
        one row per (metric, workload); exits 1 on any `worse`

workloads: pair_fastpath pair_adaptive mesh_sharded npop_discovery
--quick: 1/20 size and 3 repetitions, for smoke runs; never compared
         against a full run
span files: benchmark/out/trace_<workload>.json (Chrome trace_event)";

struct Args {
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn scale(&self) -> u64 {
        if self.quick {
            QUICK_SCALE
        } else {
            1
        }
    }

    /// `--quick` runs exactly `MIN_REPS` repetitions: no time budget.
    fn seconds(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            self.seconds
        }
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

/// Where span files and the default results document go (relative to the
/// repository root, where the benchmark is run from).
const OUT_DIR: &str = "benchmark/out";

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(r: &run::RunResult) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("trace_{}.json", r.workload.name()));
    write(&path, r.chrome_trace.as_deref().unwrap_or(""))
}

/// The driver's mode: one run of one workload.
fn one(args: &Args, workload: Workload) -> Result<i32, String> {
    let o = RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        scale: args.scale(),
    };
    let result = if args.trace {
        let rows = isolated::run(args.quick);
        let r = run::traced(&o, &rows);
        write_trace(&r)?;
        r
    } else {
        run::untraced(&o)
    };
    for p in &result.problems {
        eprintln!("PROBLEM: {p}");
    }
    println!("{}", report::driver_line(&result, args.trace));
    Ok(0)
}

/// Every workload, untraced then traced.
fn all(args: &Args) -> Result<i32, String> {
    let (scale, seconds) = (args.scale(), args.seconds());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "tango-benchmark all: seed {}, {} s per run, size 1/{scale}, {cores} cores, one driver thread",
        args.seed, seconds
    );
    let rows = isolated::run(args.quick);
    report::print_isolated(&rows);
    let mut entries = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let o = RunOptions {
            workload,
            seed: args.seed,
            seconds,
            scale,
        };
        let untraced = run::untraced(&o);
        report::print_end_to_end(&untraced);
        let traced = run::traced(&o, &rows);
        report::print_per_layer(&traced, &rows);
        write_trace(&traced)?;
        correct &= untraced.correct && traced.correct;
        entries.push((workload.name(), report::workload_json(&untraced, &traced)));
    }
    let doc = Json::obj([
        ("schema", Json::Str(report::SCHEMA.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(args.quick)),
        ("cores", Json::Num(cores as f64)),
        ("workloads", Json::obj(entries)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("results_seed{}.json", args.seed)));
    write(&path, &doc.pretty())?;
    println!("\nresults written to {}", path.display());
    println!("span files written to {OUT_DIR}/trace_<workload>.json");
    Ok(if correct { 0 } else { 1 })
}

/// Run the command line; returns the exit code.
pub fn main(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    let outcome = match (args.positional.first().map(String::as_str), args.workload) {
        (None, Some(workload)) => one(&args, workload),
        (Some("all"), None) => all(&args),
        (Some("check"), None) => {
            let failures = check::check(args.seed);
            for f in &failures {
                eprintln!("FAILED: {f}");
            }
            println!(
                "check --seed {}: {} failed assertions",
                args.seed,
                failures.len()
            );
            Ok(i32::from(!failures.is_empty()))
        }
        (Some("compare"), None) => match args.positional.as_slice() {
            [_, base, new] => compare::compare(base, new).map(|ok| i32::from(!ok)),
            _ => Err("compare takes two files".into()),
        },
        _ => Err("nothing to do".into()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            2
        }
    }
}
