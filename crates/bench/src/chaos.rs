//! `experiments chaos` — the adversarial & chaos scenario suite.
//!
//! Two artifacts, both byte-identical across runs and shard counts
//! (every run is a pure function of its seed):
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
//! fails to materialize — `tests/gate.rs` asserts exit code 0.

use crate::util::{out_dir, print_table, SweepOptions};
use tango::prelude::*;
use tango_obs::Value;

/// Faults generated per storm.
const STORM_EVENTS: usize = 8;

/// Seeds of a default run: the six storms of the committed golden.
pub const DEFAULT_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

fn kind_name(event: &WideAreaEvent) -> &'static str {
    match event {
        WideAreaEvent::Blackhole { .. } => "blackhole",
        WideAreaEvent::SessionReset { .. } => "session-reset",
        WideAreaEvent::OwdPoison { .. } => "owd-poison",
        WideAreaEvent::Replay { .. } => "replay",
        WideAreaEvent::SpoofReports { .. } => "spoof-reports",
        WideAreaEvent::Hijack { .. } => "hijack",
    }
}

fn outcome_value(outcome: &ChaosOutcome) -> Value {
    let events = outcome.schedule.events.iter().map(|ev| {
        let window = ev.window();
        Value::obj([
            ("at_ns", Value::Num(window.start_ns)),
            ("kind", Value::Str(kind_name(ev).into())),
            ("path", Value::Num(u64::from(ev.path()))),
            ("duration_ns", Value::Num(window.duration_ns())),
        ])
    });
    let inv = &outcome.invariants;
    let (dead, unrecovered) = (inv.violations.len(), inv.unrecovered.len());
    let invariants = Value::obj([
        ("checked_decisions", Value::Num(inv.checked_decisions)),
        ("dead_path_selections", Value::Num(dead as u64)),
        ("ttl_expired", Value::Num(inv.ttl_expired)),
        ("unrecovered_paths", Value::Num(unrecovered as u64)),
        ("ok", Value::Bool(inv.ok())),
    ]);
    Value::obj([
        ("events", Value::Arr(events.collect())),
        ("horizon_ns", Value::Num(outcome.horizon_ns)),
        ("invariants", invariants),
        ("app_delivered", Value::Num(outcome.app_delivered)),
        ("auth_rejects", Value::Num(outcome.auth_rejects)),
        ("replay_rejects", Value::Num(outcome.replay_rejects)),
        ("implausible_owd", Value::Num(outcome.implausible_owd)),
        ("downs", Value::Num(outcome.downs)),
        ("adversary_poisoned", Value::Num(outcome.adversary.poisoned)),
        ("adversary_replayed", Value::Num(outcome.adversary.replayed)),
        ("adversary_spoofed", Value::Num(outcome.adversary.spoofed)),
        // The flight recorder: digest + span count of the control-plane
        // ring dumped by the invariant check (the full dump is
        // reproducible from the seed; the digest pins it byte-for-byte in
        // the committed golden).
        (
            "flight",
            Value::obj([
                ("digest", Value::Num(outcome.flight.digest)),
                ("spans", Value::Num(outcome.flight.span_count)),
            ]),
        ),
    ])
}

/// Assemble the A10 artifact (canonical JSON: equal outcomes ⇒ equal
/// bytes).
pub fn storms_to_json(sections: &[(u64, ChaosOutcome)]) -> String {
    let seeds = sections
        .iter()
        .map(|(seed, outcome)| (seed.to_string(), outcome_value(outcome)));
    Value::obj([
        ("schema", Value::Str("tango-bench/chaos-storms/v1".into())),
        ("events_per_storm", Value::Num(STORM_EVENTS as u64)),
        ("seeds", Value::Obj(seeds.collect())),
    ])
    .to_json()
}

/// Run one seeded storm per seed (defenses on, Byzantine faults
/// included) at `shards` simulator shards: per-seed outcomes in seed
/// order, bit-identical for every `shards` value.
pub fn sweep(seeds: &[u64], shards: usize) -> Vec<(u64, ChaosOutcome)> {
    let storm = |seed| ChaosRunOptions {
        seed,
        events: STORM_EVENTS,
        byzantine: true,
        auth: true,
        shards,
    };
    let run = |&seed| {
        let outcome = tango::run_chaos(storm(seed));
        (seed, outcome.expect("vultr scenario provisions"))
    };
    seeds.iter().map(run).collect()
}

fn ablation_value(outcome: &AblationOutcome) -> Value {
    let ticks = outcome.selected_ticks.iter();
    let ticks = ticks.map(|(path, n)| (path.to_string(), Value::Num(*n)));
    let selection = outcome.final_selection.iter();
    let selection = selection.map(|p| Value::Num(u64::from(*p)));
    Value::obj([
        ("selected_ticks", Value::Obj(ticks.collect())),
        ("final_selection", Value::Arr(selection.collect())),
        ("auth_rejects", Value::Num(outcome.auth_rejects)),
        ("replay_rejects", Value::Num(outcome.replay_rejects)),
        ("spoofed", Value::Num(outcome.spoofed)),
    ])
}

/// The three A9 arms for one seed: honest baseline, attacked with auth
/// off, attacked with auth on.
fn ablation_arms(seed: u64) -> [(String, AblationOutcome); 3] {
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
fn ablation_to_json(seed: u64, arms: &[(String, AblationOutcome)]) -> String {
    let arms = arms
        .iter()
        .map(|(name, outcome)| (name.clone(), ablation_value(outcome)));
    let schema = "tango-bench/chaos-byzantine/v1";
    Value::obj([
        ("schema", Value::Str(schema.into())),
        ("seed", Value::Num(seed)),
        ("arms", Value::Obj(arms.collect())),
    ])
    .to_json()
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
    let sections = sweep(&options.seeds, 1);
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
        let one = sweep(&[2, 5], 1);
        let three = sweep(&[2, 5], 3);
        assert_eq!(
            storms_to_json(&one),
            storms_to_json(&three),
            "shard count must not leak into the artifact"
        );
    }

    #[test]
    fn storms_survive_and_detect() {
        let sections = sweep(&[1, 4], 1);
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
