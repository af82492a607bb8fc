//! The shard partition must be an exact wall-clock-only knob: the static
//! fast-path pairing yields the same digest, counters and per-path
//! one-way-delay series whether each seed runs at 1 shard or at 4, and
//! a repeated seed repeats its outcome.

use tango::prelude::*;
use tango_sim::SimStats;

const PACKETS: u64 = 400;
const SEEDS: [u64; 4] = [11, 7, 42, 7];

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    seed: u64,
    events: u64,
    digest: String,
    stats: SimStats,
    /// Per side and path: sample count and sum of OWD values. Every
    /// receive time is already in `digest`'s span stream.
    owd: Vec<(Side, u16, usize, f64)>,
}

/// 64 B app packets A→B and B→A alternately, 100 µs apart, through the
/// 2-edge Vultr pairing with no policy installed.
fn run_one(seed: u64, shards: usize) -> Outcome {
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed,
        probe_period: Some(SimTime::from_ms(10)),
        shards,
        span_capacity: 1 << 16,
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions");
    let mut t = SimTime::from_ms(5);
    for i in 0..PACKETS {
        let from = if i % 2 == 0 { Side::A } else { Side::B };
        pairing.send_app_packet(t, from, 64);
        t += SimTime(100_000);
    }
    let events = pairing.sim.run_until(t + SimTime::from_ms(50));
    let mut owd = Vec::new();
    for side in [Side::A, Side::B] {
        let sink = pairing.stats(side).lock();
        for (id, p) in sink.paths() {
            let sum: f64 = p.owd.iter().sum();
            owd.push((side, id, p.owd.len(), sum));
        }
    }
    Outcome {
        seed,
        events,
        digest: pairing.sim.digest(),
        stats: *pairing.sim.stats(),
        owd,
    }
}

#[test]
fn four_shards_match_one_shard_seed_by_seed() {
    let one: Vec<Outcome> = SEEDS.iter().map(|&s| run_one(s, 1)).collect();
    let four: Vec<Outcome> = SEEDS.iter().map(|&s| run_one(s, 4)).collect();

    // Element-wise equality includes `seed`.
    assert_eq!(one, four);
    assert!(one.iter().all(|o| o.stats.deliveries >= PACKETS));
    assert!(one.iter().all(|o| !o.owd.is_empty()));
    // Repeated seeds are independent simulations of the same world:
    // their outcomes agree too.
    assert_eq!(four[1], four[3]);
}
