//! Every metric the benchmark reports: name, unit, direction, and — for
//! the end-to-end ones — the regression bound the benchmark fixes.
//! `BENCHMARK.json` at the repo root lists exactly these (a test checks).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[<layer>.]<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// A count (or a ratio of counts) that repeats exactly for a seed; a
    /// timing otherwise.
    pub exact: bool,
    /// End-to-end only: the share of the base's median by which the
    /// metric may worsen before `compare` says `worse`.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact,
        bound,
    }
}

const fn timing(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        bound: 0.0,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        bound: 0.0,
    }
}

const fn higher(m: Metric) -> Metric {
    Metric {
        better: Better::Higher,
        ..m
    }
}

/// What a user of the system sees. Every workload reports every one.
///
/// An operation is an app packet on the three packet workloads and a PoP
/// pair on `npop_discovery`, so ISSUE 11's `pkts_per_s` / `pairs_per_s`
/// are the one metric `ops_per_s`, and its `failed_share` (0 on three
/// workloads, which the driver's contract forbids) is reported as its
/// complement `delivered_share` plus the exact `failed` / `attempted`
/// counts of every run.
pub const END_TO_END: [Metric; 4] = [
    e2e("ops_per_s", "1/s", Better::Higher, false, 0.25),
    e2e("setup_s", "s", Better::Lower, false, 0.25),
    e2e("peak_heap_mib", "MiB", Better::Lower, true, 0.02),
    e2e("delivered_share", "share", Better::Higher, true, 0.01),
];

/// Single layers (layer = crate). No bounds: they explain a movement of
/// an end-to-end metric, they do not gate. A row a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [Metric; 60] = [
    timing("net.lpm_tunnel_ns", "ns"),
    timing("net.lpm_fib_ns", "ns"),
    timing("net.siphash_1200B_ns", "ns"),
    timing("net.lpm_share", "share"),
    timing("dataplane.encap_64B_ns", "ns"),
    timing("dataplane.decap_64B_ns", "ns"),
    timing("dataplane.encap_auth_1200B_ns", "ns"),
    timing("dataplane.decap_auth_1200B_ns", "ns"),
    timing("dataplane.report_encode_ns", "ns"),
    timing("dataplane.report_decode_ns", "ns"),
    timing("dataplane.select_single_ns", "ns"),
    timing("dataplane.select_weighted_ns", "ns"),
    timing("dataplane.record_owd_ns", "ns"),
    count("dataplane.slowpath_share", "share"),
    count("dataplane.rx_rejects", "count"),
    timing("dataplane.codec_share", "share"),
    timing("measure.rolling_push_ns", "ns"),
    timing("measure.seq_record_ns", "ns"),
    timing("measure.plausibility_admit_ns", "ns"),
    timing("measure.replay_observe_ns", "ns"),
    timing("measure.share", "share"),
    timing("sim.flow_hash_ns", "ns"),
    timing("sim.event_ns", "ns"),
    count("sim.events_per_pkt", "count"),
    higher(timing("sim.events_per_s", "1/s")),
    count("sim.allocs_per_pkt", "count"),
    count("sim.alloc_bytes_per_pkt", "B"),
    count("sim.shard.windows", "count"),
    count("sim.shard.idle_window_share", "share"),
    count("sim.shard.outbox_events", "count"),
    count("sim.shard.imbalance_x1000", "x1000"),
    timing("sim.shard.serial_overhead_ratio", "ratio"),
    timing("sim.shard.threaded_ratio", "ratio"),
    timing("sim.engine_share", "share"),
    timing("bgp.mesh_converge_ms", "ms"),
    timing("bgp.fib_build_us", "us"),
    count("bgp.updates_processed", "count"),
    count("bgp.converges", "count"),
    count("bgp.rounds_per_converge_x1000", "x1000"),
    count("bgp.rib_routes_peak", "count"),
    timing("bgp.update_ns", "ns"),
    higher(timing("bgp.updates_per_s", "1/s")),
    count("bgp.allocs_per_update", "count"),
    count("bgp.heap_bytes_per_route", "B"),
    timing("control.discover_pair_ms_p50", "ms"),
    timing("control.discover_pair_ms_p90", "ms"),
    higher(count("control.paths_per_converge_x1000", "x1000")),
    timing("control.policy_decide_ns", "ns"),
    timing("control.gated_decide_ns", "ns"),
    timing("topology.generate_ms", "ms"),
    timing("core.pairing_build_ms", "ms"),
    timing("core.inject_ns_per_pkt", "ns"),
    timing("core.slice_ms_p50", "ms"),
    timing("core.slice_ms_p90", "ms"),
    timing("core.unattributed_share", "share"),
    timing("obs.counter_inc_ns", "ns"),
    timing("trace.span_record_ns", "ns"),
    count("trace.spans_recorded", "count"),
    count("trace.ring_wrapped", "count"),
    timing("trace.on_overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
