//! Property-based equivalence of the sharded engine (DESIGN.md §11):
//! for random small topologies, workloads, and seeds, running the same
//! simulation under 1 shard, N shards serial, and N shards threaded
//! produces identical `SimStats`, identical canonical span streams, and
//! an identical observability export — and the span stream alone
//! reproduces every packet counter of `SimStats`.
//!
//! The worlds (`world`) are hostile on purpose and their relays
//! rng-hungry, so any slip in the per-node RNG derivation, the
//! conservative window math, or the barrier merge order shows up as a
//! diverging stream within a few hops.

mod world;

use proptest::prelude::*;
use tango_sim::ShardMode;
use world::{run, world_strategy};

proptest! {
    /// The tentpole property: shard count and execution mode are
    /// unobservable. Stats, spans, and telemetry are bit-identical.
    #[test]
    fn sharding_is_unobservable(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 2usize..=4,
    ) {
        let (stats1, trace1, obs1) = run(&w, seed, 1, ShardMode::Serial, 0);
        let (stats_s, trace_s, obs_s) = run(&w, seed, shards, ShardMode::Serial, 0);
        let (stats_t, trace_t, obs_t) = run(&w, seed, shards, ShardMode::Threaded, 0);

        prop_assert_eq!(stats1, stats_s, "serial multi-shard stats diverged");
        prop_assert_eq!(stats1, stats_t, "threaded multi-shard stats diverged");
        prop_assert_eq!(&trace1, &trace_s, "serial multi-shard trace diverged");
        prop_assert_eq!(&trace1, &trace_t, "threaded multi-shard trace diverged");
        prop_assert_eq!(&obs1, &obs_s, "serial multi-shard telemetry diverged");
        prop_assert_eq!(&obs1, &obs_t, "threaded multi-shard telemetry diverged");
    }

    /// Re-running the same world with the same seed and shard count is
    /// bit-identical too (no hidden global state across runs).
    #[test]
    fn repeat_runs_are_reproducible(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 1usize..=3,
    ) {
        let a = run(&w, seed, shards, ShardMode::Serial, 0);
        let b = run(&w, seed, shards, ShardMode::Serial, 0);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// The span stream is the one record: every packet counter of
    /// `SimStats` is a count of spans, under any shard count and mode.
    #[test]
    fn counters_are_derivable_from_spans(
        w in world_strategy(),
        seed in any::<u64>(),
        shards in 1usize..=4,
        threaded in any::<bool>(),
    ) {
        use tango_sim::{DropReason, SpanKind};
        let mode = if threaded { ShardMode::Threaded } else { ShardMode::Serial };
        let (stats, spans, _) = run(&w, seed, shards, mode, 0);
        let count = |f: &dyn Fn(SpanKind) -> bool| spans.iter().filter(|s| f(s.kind)).count() as u64;
        prop_assert_eq!(count(&|k| matches!(k, SpanKind::Tx { .. })), stats.transmissions);
        prop_assert_eq!(count(&|k| k == SpanKind::Deliver), stats.deliveries);
        for (reason, counter) in [
            (DropReason::NoLink, stats.no_link),
            (DropReason::LossLink, stats.lost_link),
            (DropReason::LossOutage, stats.lost_outage),
            (DropReason::LossFault, stats.lost_fault),
            (DropReason::LossQueue, stats.lost_queue),
            (DropReason::NoRoute, stats.no_route),
            (DropReason::TtlExpired, stats.ttl_expired),
        ] {
            prop_assert_eq!(
                count(&|k| k == SpanKind::Drop { reason }),
                counter,
                "drop spans vs counter for {:?}", reason
            );
        }
    }
}
