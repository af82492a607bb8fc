//! `experiments chaos` — the adversarial & chaos scenario suite.
//!
//! Two artifacts, both byte-identical across runs and `--shards`
//! settings (every run is a pure function of its seed):
//!
//! * `results/CHAOS_storms.json` (A10) — one seeded storm per seed:
//!   honest outages *and* Byzantine faults (timestamp poisoning,
//!   replay, spoofed reports, sub-prefix hijacks) against the NY↔LA
//!   pairing with all defenses on, verdicted by the invariant checker
//!   (no dead-path forwarding while an alternative lives, no forwarding
//!   loops, full post-storm recovery).
//! * `results/CHAOS_byzantine.json` (A9) — the spoofed-telemetry
//!   ablation: honest baseline vs. attack with auth off (ranking flips
//!   to the promoted path) vs. attack with auth on (forged reports die
//!   at the tag check, ranking matches the baseline).
//!
//! The entry point enforces the acceptance conditions and exits nonzero
//! if any storm violates an invariant, fails to recover, or the A9 gap
//! fails to materialize — so CI can gate on it.

use crate::util::{out_dir, print_table, SweepOptions};
use std::collections::BTreeMap;
use tango::prelude::*;
use tango_obs::Value;
use tango_sim::ChaosKind;

/// Faults generated per storm.
const STORM_EVENTS: usize = 8;

/// Seeds of a default run: the six storms CI gates on.
pub const DEFAULT_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// Run one seeded storm (defenses on, Byzantine faults included).
pub fn storm_seed(seed: u64, shards: usize) -> ChaosOutcome {
    tango::run_chaos(ChaosRunOptions {
        seed,
        events: STORM_EVENTS,
        byzantine: true,
        auth: true,
        shards,
    })
    .expect("vultr scenario provisions")
}

fn kind_name(kind: &ChaosKind) -> &'static str {
    match kind {
        ChaosKind::Blackhole { .. } => "blackhole",
        ChaosKind::SessionReset { .. } => "session-reset",
        ChaosKind::OwdPoison { .. } => "owd-poison",
        ChaosKind::Replay { .. } => "replay",
        ChaosKind::SpoofReports { .. } => "spoof-reports",
        ChaosKind::Hijack { .. } => "hijack",
    }
}

fn outcome_value(outcome: &ChaosOutcome) -> Value {
    let mut events = Vec::new();
    for ev in &outcome.schedule.events {
        let mut o = BTreeMap::new();
        o.insert("at_ns".to_string(), Value::Num(ev.at.as_ns()));
        o.insert(
            "kind".to_string(),
            Value::Str(kind_name(&ev.kind).to_string()),
        );
        o.insert("path".to_string(), Value::Num(u64::from(ev.kind.path())));
        o.insert("duration_ns".to_string(), Value::Num(ev.kind.duration_ns()));
        events.push(Value::Obj(o));
    }
    let inv = &outcome.invariants;
    let mut invariants = BTreeMap::new();
    invariants.insert(
        "checked_decisions".to_string(),
        Value::Num(inv.checked_decisions),
    );
    invariants.insert(
        "dead_path_selections".to_string(),
        Value::Num(inv.violations.len() as u64),
    );
    invariants.insert("ttl_expired".to_string(), Value::Num(inv.ttl_expired));
    invariants.insert(
        "unrecovered_paths".to_string(),
        Value::Num(inv.unrecovered.len() as u64),
    );
    invariants.insert(
        "ok".to_string(),
        Value::Str(if inv.ok() { "true" } else { "false" }.to_string()),
    );
    let mut root = BTreeMap::new();
    root.insert("events".to_string(), Value::Arr(events));
    root.insert("horizon_ns".to_string(), Value::Num(outcome.horizon_ns));
    root.insert("invariants".to_string(), Value::Obj(invariants));
    root.insert(
        "app_delivered".to_string(),
        Value::Num(outcome.app_delivered),
    );
    root.insert("auth_rejects".to_string(), Value::Num(outcome.auth_rejects));
    root.insert(
        "replay_rejects".to_string(),
        Value::Num(outcome.replay_rejects),
    );
    root.insert(
        "implausible_owd".to_string(),
        Value::Num(outcome.implausible_owd),
    );
    root.insert("downs".to_string(), Value::Num(outcome.downs));
    root.insert(
        "adversary_poisoned".to_string(),
        Value::Num(outcome.adversary.poisoned),
    );
    root.insert(
        "adversary_replayed".to_string(),
        Value::Num(outcome.adversary.replayed),
    );
    root.insert(
        "adversary_spoofed".to_string(),
        Value::Num(outcome.adversary.spoofed),
    );
    // The flight recorder: digest + span count of the control-plane ring
    // dumped by the invariant check (the full dump is reproducible from
    // the seed; the digest pins it byte-for-byte in CI diffs).
    let mut flight = BTreeMap::new();
    flight.insert("digest".to_string(), Value::Num(outcome.flight.digest));
    flight.insert("spans".to_string(), Value::Num(outcome.flight.span_count));
    root.insert("flight".to_string(), Value::Obj(flight));
    Value::Obj(root)
}

/// Assemble the A10 artifact (canonical JSON: equal outcomes ⇒ equal
/// bytes).
pub fn storms_to_json(sections: &[(u64, ChaosOutcome)]) -> String {
    let mut seeds = BTreeMap::new();
    for (seed, outcome) in sections {
        seeds.insert(seed.to_string(), outcome_value(outcome));
    }
    let mut root = BTreeMap::new();
    root.insert(
        "schema".to_string(),
        Value::Str("tango-bench/chaos-storms/v1".to_string()),
    );
    root.insert(
        "events_per_storm".to_string(),
        Value::Num(STORM_EVENTS as u64),
    );
    root.insert("seeds".to_string(), Value::Obj(seeds));
    Value::Obj(root).to_json()
}

/// Run the storm sweep: per-seed outcomes in seed order.
pub fn sweep(options: &SweepOptions) -> Vec<(u64, ChaosOutcome)> {
    let run = |&seed| (seed, storm_seed(seed, options.shards));
    options.seeds.iter().map(run).collect()
}

fn ablation_value(outcome: &AblationOutcome) -> Value {
    let mut ticks = BTreeMap::new();
    for (path, n) in &outcome.selected_ticks {
        ticks.insert(path.to_string(), Value::Num(*n));
    }
    let mut root = BTreeMap::new();
    root.insert("selected_ticks".to_string(), Value::Obj(ticks));
    root.insert(
        "final_selection".to_string(),
        Value::Arr(
            outcome
                .final_selection
                .iter()
                .map(|p| Value::Num(u64::from(*p)))
                .collect(),
        ),
    );
    root.insert("auth_rejects".to_string(), Value::Num(outcome.auth_rejects));
    root.insert(
        "replay_rejects".to_string(),
        Value::Num(outcome.replay_rejects),
    );
    root.insert("spoofed".to_string(), Value::Num(outcome.spoofed));
    Value::Obj(root)
}

/// The three A9 arms for one seed: honest baseline, attacked with auth
/// off, attacked with auth on.
pub fn ablation_arms(seed: u64) -> [(String, AblationOutcome); 3] {
    let run = |attack, auth| {
        tango::run_byzantine_ablation(seed, attack, auth).expect("vultr scenario provisions")
    };
    [
        ("honest".to_string(), run(false, false)),
        ("attacked-auth-off".to_string(), run(true, false)),
        ("attacked-auth-on".to_string(), run(true, true)),
    ]
}

/// Assemble the A9 artifact.
pub fn ablation_to_json(seed: u64, arms: &[(String, AblationOutcome)]) -> String {
    let mut arms_obj = BTreeMap::new();
    for (name, outcome) in arms {
        arms_obj.insert(name.clone(), ablation_value(outcome));
    }
    let mut root = BTreeMap::new();
    root.insert(
        "schema".to_string(),
        Value::Str("tango-bench/chaos-byzantine/v1".to_string()),
    );
    root.insert("seed".to_string(), Value::Num(seed));
    root.insert("arms".to_string(), Value::Obj(arms_obj));
    Value::Obj(root).to_json()
}

/// The `experiments chaos` entry point. Returns the process exit code:
/// nonzero when any acceptance condition fails.
pub fn report(options: &SweepOptions) -> i32 {
    println!(
        "chaos — {} seeded storms ({} faults each, Byzantine + honest, defenses on) \
         plus the A9 spoofed-telemetry ablation\n",
        options.seeds.len(),
        STORM_EVENTS
    );

    // A10: the storm sweep.
    let sections = sweep(options);
    let mut rows = Vec::new();
    let mut failures = 0u32;
    for (seed, o) in &sections {
        let inv = &o.invariants;
        if !inv.ok() {
            failures += 1;
        }
        rows.push(vec![
            seed.to_string(),
            o.schedule.events.len().to_string(),
            o.app_delivered.to_string(),
            o.downs.to_string(),
            o.auth_rejects.to_string(),
            o.replay_rejects.to_string(),
            o.adversary.spoofed.to_string(),
            inv.violations.len().to_string(),
            inv.ttl_expired.to_string(),
            inv.unrecovered.len().to_string(),
            if inv.ok() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    print_table(
        &[
            "seed",
            "faults",
            "delivered",
            "downs",
            "auth rej",
            "replay rej",
            "spoofed",
            "dead-path sel",
            "ttl exp",
            "unrecovered",
            "survived",
        ],
        &rows,
    );
    let storms_path = out_dir(&options.out).join("CHAOS_storms.json");
    std::fs::write(&storms_path, storms_to_json(&sections)).expect("write CHAOS_storms json");
    println!("\nwritten to {}", storms_path.display());

    // A9: the Byzantine-telemetry ablation.
    let seed = options.seeds.first().copied().unwrap_or(1);
    let arms = ablation_arms(seed);
    println!("\nA9 — spoofed telemetry, seed {seed}:");
    let mut rows = Vec::new();
    for (name, o) in &arms {
        rows.push(vec![
            name.clone(),
            o.settled_path()
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_string()),
            o.selected_ticks
                .iter()
                .map(|(p, n)| format!("{p}:{n}"))
                .collect::<Vec<_>>()
                .join(" "),
            o.auth_rejects.to_string(),
            o.spoofed.to_string(),
        ]);
    }
    print_table(
        &[
            "arm",
            "settled path",
            "ticks per path",
            "auth rej",
            "spoofed",
        ],
        &rows,
    );
    let byz_path = out_dir(&options.out).join("CHAOS_byzantine.json");
    std::fs::write(&byz_path, ablation_to_json(seed, &arms)).expect("write CHAOS_byzantine json");
    println!("\nwritten to {}", byz_path.display());

    // Acceptance gates.
    let (honest, attacked, defended) = (&arms[0].1, &arms[1].1, &arms[2].1);
    let mut gate = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failures += 1;
        }
    };
    gate(sections.len() >= 6, "at least 6 seeded storms must run");
    gate(
        attacked.settled_path() != honest.settled_path(),
        "A9: spoofed reports must flip the ranking when auth is off",
    );
    gate(
        defended.settled_path() == honest.settled_path(),
        "A9: with auth on the ranking must match the honest baseline",
    );
    gate(
        defended.auth_rejects > 0,
        "A9: forged reports must be rejected and counted with auth on",
    );
    gate(honest.auth_rejects == 0, "A9: baseline must be clean");
    if failures > 0 {
        eprintln!("\nchaos: {failures} acceptance failure(s)");
        return 1;
    }
    println!("\nchaos: all storms survived, full recovery, A9 gap confirmed");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_is_bit_identical_across_shard_counts() {
        let one = sweep(&SweepOptions::new(&[2, 5]));
        let three = sweep(&SweepOptions {
            shards: 3,
            ..SweepOptions::new(&[2, 5])
        });
        assert_eq!(
            storms_to_json(&one),
            storms_to_json(&three),
            "shard count must not leak into the artifact"
        );
    }

    #[test]
    fn storms_survive_and_detect() {
        let sections = sweep(&SweepOptions::new(&[1, 4]));
        for (seed, o) in &sections {
            assert!(
                o.invariants.ok(),
                "storm seed {seed} violated invariants: {}",
                o.invariants
            );
            assert!(o.app_delivered > 0, "seed {seed}: traffic must survive");
        }
    }
}
