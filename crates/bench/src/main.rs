//! `experiments` — regenerate every figure and table of the paper.
//!
//! ```sh
//! cargo run --release -p tango-bench --bin experiments -- all
//! cargo run --release -p tango-bench --bin experiments -- fig4-left --hours 24
//! ```

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use tango::prelude::SimTime;
use tango_bench::scalability::ScalabilityOptions;
use tango_bench::sharded::ShardedOptions;
use tango_bench::util::SweepOptions;
use tango_bench::{
    ablations, chaos, failover, fig3, fig4, headline, jitter, scalability, sharded, telemetry,
    trace,
};
use tango_sim::ShardMode;

const USAGE: &str = "\
experiments — regenerate the paper's figures and tables (see EXPERIMENTS.md)

USAGE: experiments <command> [options]

COMMANDS
  fig3                  Fig. 3 / §4.1: community-driven path discovery
  fig4-left             Fig. 4 (left): long OWD trace, four paths NY→LA
  fig4-middle           Fig. 4 (middle): +5 ms GTT route change
  fig4-right            Fig. 4 (right): GTT instability, spikes to 78 ms
  jitter                §5: rolling 1-second-window jitter per path
  headline              §5: 'BGP default is 30% worse than the best path'
  ablation-owd          A1: one-way vs end-to-end measurement accuracy
  ablation-policy       A2: selection policies through the Fig. 4 events
  ablation-multihoming  A3: Tango vs one-sided multihoming route control
  tango-of-n            A4: §6 all-pairs pairings over the B5 scale-free tiers
  ecmp-census           A5: §6 ECMP lane counting via source-port sweeps
  load-balance          A6: §6 weighted-split load balancing under saturation
  loss-table            A7: loss/reordering measured from sequence numbers
  ablation-failover     A8: blackhole detection, failover, and re-admission
  telemetry             deterministic observability export: full tango-obs
                        metric tree through a scripted blackhole →
                        results/TELEMETRY_vultr-blackhole_seed<S>.json
                        (byte-identical across runs)
  chaos                 A9/A10: seeded chaos storms (Byzantine + honest
                        faults, defenses on, invariant-checked) and the
                        spoofed-telemetry auth ablation →
                        results/CHAOS_storms.json + CHAOS_byzantine.json
                        (byte-identical across runs); exits nonzero on any
                        invariant violation or missing A9 gap
  sharded               B3: shard-scaling sweep — the traffic phase of the
                        connected 300-AS / 16-PoP mesh (B5's second tier)
                        run under several --shards values; digests and event
                        totals must be bit-identical for every value →
                        results/BENCH_sharded.json (deterministic fields
                        plus the engine self-profiler's per-shard load;
                        wall-clock goes to stdout and to
                        BENCH_sharded.timing.json beside it); exits nonzero
                        if any shard count diverges
  scalability           B5: internet-scale Tango-of-N sweep — generated
                        scale-free graphs (100→5000 ASes, 8→64 PoPs), every
                        PoP pair running §4.1 discovery; each tier's traffic
                        phase runs at shards 1 and --shards and must be
                        bit-identical → results/BENCH_scalability.json
                        (deterministic fields only; wall-clock goes to
                        BENCH_scalability.timing.json beside it); exits
                        nonzero on a digest mismatch or any valley-free
                        violation
  trace                 B4: causal flight-recorder export — the blackhole
                        scenario with span recording armed →
                        results/TRACE_vultr-blackhole_seed<S>.json
                        (canonical span dump) + .chrome.json (open in
                        Perfetto); byte-identical across runs; --query
                        answers causal questions instead of writing
                        artifacts
  all                   run everything (with default durations)

OPTIONS
  --hours <H>     trace duration in simulated hours (fig4-left, jitter,
                  headline; default 1; the paper ran 8 days — shapes
                  converge within minutes of simulated time)
  --seed <S>      simulation seed (default 1)

SWEEP OPTIONS (telemetry, chaos, trace)
  --seeds <list>  comma-separated seeds, one independent simulation each
                  (default: the golden seeds — telemetry 1,7, trace 1,
                  chaos 1,2,3,4,5,6)
  --query <Q>     trace only: answer a causal query about the one seed
                  instead of writing artifacts:
                    ancestry:<time_ns>:<origin>:<seq>[:<intra>]
                    node:<as>:<t0_ns>:<t1_ns>
                    kinds
  --out <DIR>     write artifacts into DIR instead of results/

SHARDED OPTIONS
  --packets <N>   host packets injected across the mesh (default 20000)
  --shards <list> comma-separated shard counts to sweep (default 1,2,4,8;
                  the first is the reference)
  --seed <S>      generator + simulator seed (default 1)
  --mode <M>      execution mode for multi-shard runs: serial | threaded
                  (default serial; threaded = one worker thread per shard)
  --out <DIR>     write artifacts into DIR instead of results/

SCALABILITY OPTIONS
  --tiers <T>     small = 100/300-AS tiers only (the CI + golden set);
                  full = small plus 1000/2000/5000 ASes (default full)
  --seed <S>      generator + simulator seed (default 1)
  --shards <N>    shard count of each tier's second traffic run
                  (default 8; the run is gated on shards 1 vs N being
                  bit-identical)
  --out <DIR>     write the artifact into DIR instead of results/
";

struct Args {
    hours: f64,
    seed: u64,
}

/// The flag/value cursor every subcommand parser walks.
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(rest: &'a [String]) -> Self {
        Flags {
            rest: rest.iter(),
            flag: "",
        }
    }

    /// Advance to the next flag.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        let value = self.rest.next().map(String::as_str);
        value.ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The current flag's value, parsed.
    fn parsed<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let flag = self.flag;
        self.value()?.parse().map_err(|e| format!("{flag}: {e}"))
    }

    /// The current flag's value, parsed and required to exceed zero.
    fn positive<T: FromStr + Default + PartialOrd>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v: T = self.parsed()?;
        if v <= T::default() {
            return Err(format!("{} must be positive", self.flag));
        }
        Ok(v)
    }

    /// The current flag's value as a comma-separated list (never empty:
    /// an empty value is one unparsable item).
    fn list<T: FromStr>(&mut self) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        let flag = self.flag;
        let items = self.value()?.split(',');
        items
            .map(|s| s.trim().parse().map_err(|e| format!("{flag}: {e}")))
            .collect()
    }

    /// The current flag's value as a directory or file path.
    fn path(&mut self) -> Result<PathBuf, String> {
        self.value().map(PathBuf::from)
    }
}

fn unknown_option(flag: &str) -> String {
    format!("unknown option {flag}")
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        hours: 1.0,
        seed: 1,
    };
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--hours" => args.hours = flags.positive()?,
            "--seed" => args.seed = flags.parsed()?,
            other => return Err(unknown_option(other)),
        }
    }
    Ok(args)
}

fn duration(args: &Args) -> SimTime {
    SimTime::from_secs((args.hours * 3600.0) as u64)
}

/// The seeded sweeps (`telemetry`, `chaos`, `trace`) share one parser:
/// they differ in `default_seeds`, and only `trace` `takes_query`.
fn parse_sweep_args(
    rest: &[String],
    default_seeds: &[u64],
    takes_query: bool,
) -> Result<SweepOptions, String> {
    let mut options = SweepOptions::new(default_seeds);
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seeds" => options.seeds = flags.list()?,
            "--query" if takes_query => options.query = Some(flags.value()?.to_string()),
            "--out" => options.out = Some(flags.path()?),
            other => return Err(unknown_option(other)),
        }
    }
    if options.query.is_some() && options.seeds.len() != 1 {
        return Err("--query takes exactly one seed".into());
    }
    Ok(options)
}

fn parse_sharded_args(rest: &[String]) -> Result<ShardedOptions, String> {
    let mut options = ShardedOptions::default();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--packets" => options.packets = flags.positive()?,
            "--shards" => {
                options.shard_counts = flags.list()?;
                if options.shard_counts.contains(&0) {
                    return Err("--shards must name positive shard counts".into());
                }
            }
            "--seed" => options.seed = flags.parsed()?,
            "--mode" => {
                options.mode = match flags.value()? {
                    "serial" => ShardMode::Serial,
                    "threaded" => ShardMode::Threaded,
                    other => return Err(format!("--mode: unknown mode {other}")),
                };
            }
            "--out" => options.out = Some(flags.path()?),
            other => return Err(unknown_option(other)),
        }
    }
    Ok(options)
}

fn parse_scalability_args(rest: &[String]) -> Result<ScalabilityOptions, String> {
    let mut options = ScalabilityOptions::default();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--tiers" => {
                options.full = match flags.value()? {
                    "small" => false,
                    "full" => true,
                    other => return Err(format!("--tiers: unknown tier set {other}")),
                };
            }
            "--seed" => options.seed = flags.parsed()?,
            "--shards" => options.shards = flags.positive()?,
            "--out" => options.out = Some(flags.path()?),
            other => return Err(unknown_option(other)),
        }
    }
    Ok(options)
}

/// Report a bad command line and exit 2.
fn usage_error(e: &str) -> ! {
    eprintln!("error: {e}\n");
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// Run a subcommand on its parsed options and exit with its code.
fn run<O>(parsed: Result<O, String>, report: impl FnOnce(&O) -> i32) -> ! {
    match parsed {
        Ok(options) => std::process::exit(report(&options)),
        Err(e) => usage_error(&e),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let rest = &argv[1..];
    match command.as_str() {
        "telemetry" => run(
            parse_sweep_args(rest, &telemetry::DEFAULT_SEEDS, false),
            telemetry::report,
        ),
        "chaos" => run(
            parse_sweep_args(rest, &chaos::DEFAULT_SEEDS, false),
            chaos::report,
        ),
        "sharded" => run(parse_sharded_args(rest), sharded::report),
        "scalability" => run(parse_scalability_args(rest), scalability::report),
        "trace" => run(
            parse_sweep_args(rest, &trace::DEFAULT_SEEDS, true),
            trace::report,
        ),
        _ => {}
    }
    let args = parse_args(rest).unwrap_or_else(|e| usage_error(&e));
    let hr = |title: &str| {
        println!("\n{}", "=".repeat(78));
        println!("{title}");
        println!("{}\n", "=".repeat(78));
    };
    // The fault-free §5 trace fig4-left, jitter and headline all read:
    // each stand-alone subcommand simulates its own, `all` one for the three.
    let section5_trace = || fig4::vultr_run(Vec::new(), duration(&args), args.seed);
    match command.as_str() {
        "fig3" => fig3::report(),
        "fig4-left" => fig4::left(&section5_trace()),
        "fig4-middle" => fig4::middle(args.seed),
        "fig4-right" => fig4::right(args.seed),
        "jitter" => jitter::report(&section5_trace()),
        "headline" => headline::report(&section5_trace()),
        "ablation-owd" => ablations::report_owd_accuracy(args.seed),
        "ablation-policy" => ablations::report_policy(args.seed),
        "ablation-multihoming" => ablations::report_multihoming(),
        "tango-of-n" => ablations::report_tango_of_n(args.seed),
        "ecmp-census" => ablations::report_ecmp_census(args.seed),
        "load-balance" => ablations::report_load_balance(args.seed),
        "loss-table" => ablations::report_loss_table(args.seed),
        "ablation-failover" => failover::report(args.seed),
        "all" => {
            hr("Fig. 3 — path discovery");
            fig3::report();
            hr("Fig. 4 (left) — long trace");
            let trace = section5_trace();
            fig4::left(&trace);
            hr("Fig. 4 (middle) — route change");
            fig4::middle(args.seed);
            hr("Fig. 4 (right) — instability");
            fig4::right(args.seed);
            hr("§5 — jitter table");
            jitter::report(&trace);
            hr("§5 — headline (default vs best)");
            headline::report(&trace);
            drop(trace); // an hour of samples; nothing below reads it
            hr("A1 — measurement accuracy");
            ablations::report_owd_accuracy(args.seed);
            hr("A2 — policy comparison");
            ablations::report_policy(args.seed);
            hr("A3 — multihoming vs cooperation");
            ablations::report_multihoming();
            hr("A4 — Tango of N");
            ablations::report_tango_of_n(args.seed);
            hr("A5 — ECMP lane census");
            ablations::report_ecmp_census(args.seed);
            hr("A6 — load balancing under saturation");
            ablations::report_load_balance(args.seed);
            hr("A7 — loss & reordering measurement");
            ablations::report_loss_table(args.seed);
            hr("A8 — blackhole failover");
            failover::report(args.seed);
            hr("A9/A10 — chaos storms & Byzantine telemetry");
            chaos::report(&SweepOptions::new(&chaos::DEFAULT_SEEDS));
        }
        "--help" | "-h" | "help" => print!("{USAGE}"),
        other => usage_error(&format!("unknown command {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `parser | arguments | error`: every parser on a missing value, a
    /// zero, an unparsable value and an option it does not own. The error
    /// strings are part of the CLI contract.
    const REJECTED: &str = "\
        common      | --seed            | --seed needs a value
        common      | --hours 0         | --hours must be positive
        common      | --hours x         | --hours: invalid float literal
        common      | --seed x          | --seed: invalid digit found in string
        common      | --packets 5       | unknown option --packets
        telemetry   | --seeds           | --seeds needs a value
        telemetry   | --out             | --out needs a value
        telemetry   | --workers 2       | unknown option --workers
        telemetry   | --shards 8        | unknown option --shards
        telemetry   | --query kinds     | unknown option --query
        chaos       | --out             | --out needs a value
        chaos       | --workers 2       | unknown option --workers
        chaos       | --seeds 1,x       | --seeds: invalid digit found in string
        chaos       | --shards 8        | unknown option --shards
        chaos       | --seed 1          | unknown option --seed
        sharded     | --mode            | --mode needs a value
        sharded     | --replicas 2      | unknown option --replicas
        sharded     | --packets 0       | --packets must be positive
        sharded     | --shards 1,0      | --shards must name positive shard counts
        sharded     | --shards 1,,2     | --shards: cannot parse integer from empty string
        sharded     | --mode fast       | --mode: unknown mode fast
        sharded     | --mode auto       | --mode: unknown mode auto
        sharded     | --seeds 1         | unknown option --seeds
        scalability | --tiers           | --tiers needs a value
        scalability | --shards 0        | --shards must be positive
        scalability | --tiers huge      | --tiers: unknown tier set huge
        scalability | --seed s          | --seed: invalid digit found in string
        scalability | --workers 2       | unknown option --workers
        trace       | --query           | --query needs a value
        trace       | --workers 2       | unknown option --workers
        trace       | --seeds 1,        | --seeds: cannot parse integer from empty string
        trace       | --packets 9       | unknown option --packets
        trace       | --seeds 1,2 --query kinds | --query takes exactly one seed";

    fn rejection<O>(parsed: Result<O, String>) -> String {
        parsed.err().expect("the arguments must be rejected")
    }

    #[test]
    fn bad_arguments_yield_the_pinned_errors() {
        for case in REJECTED.lines() {
            let cols: Vec<&str> = case.split('|').map(str::trim).collect();
            let argv: Vec<String> = cols[1].split(' ').map(String::from).collect();
            let got = match cols[0] {
                "common" => rejection(parse_args(&argv)),
                "telemetry" => rejection(parse_sweep_args(&argv, &telemetry::DEFAULT_SEEDS, false)),
                "chaos" => rejection(parse_sweep_args(&argv, &chaos::DEFAULT_SEEDS, false)),
                "sharded" => rejection(parse_sharded_args(&argv)),
                "scalability" => rejection(parse_scalability_args(&argv)),
                "trace" => rejection(parse_sweep_args(&argv, &trace::DEFAULT_SEEDS, true)),
                other => panic!("no parser for {other}"),
            };
            assert_eq!(got, cols[2], "{case}");
        }
    }
}
