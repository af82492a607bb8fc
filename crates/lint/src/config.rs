//! Which rules apply where. Paths are repo-relative with `/` separators.
//!
//! The scoping here is the policy half of the lint: the rules themselves
//! are generic token matchers, and this module decides which crates and
//! modules they guard. Keep it in sync with DESIGN.md's "Determinism
//! invariants" section.

/// Crates whose behaviour must be bit-identical across runs and shard
/// counts: everything that feeds an experiment artifact. `tango-net` is
/// pure codec/parsing (no iteration-order hazards) and `tango-bench` is
/// the measurement harness, so both stay out.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "dataplane",
    "control",
    "measure",
    "bgp",
    "topology",
    "core",
    "obs",
    "trace",
];

/// Crates allowed to read the wall clock (the bench harness times real
/// executions; nothing else may).
pub const WALL_CLOCK_EXEMPT_CRATES: &[&str] = &["bench"];

/// Wire-format modules where a silent `as` truncation corrupts bytes on
/// the wire instead of producing a type error: the header views and
/// representations, and the encapsulation that assembles them.
pub const WIRE_FORMAT_MODULES: &[&str] = &[
    "crates/net/src/ipv6.rs",
    "crates/net/src/udp.rs",
    "crates/net/src/tango_hdr.rs",
    "crates/dataplane/src/codec.rs",
];

/// The approved home of thread creation inside the deterministic
/// crates: the conservative shard runner, whose cross-thread protocol
/// is proven equivalent to serial execution. Named in the
/// `thread-spawn` rule's help text; the runner itself still carries a
/// mandatory-reason suppression rather than a blanket exemption.
pub const SHARD_RUNNER_MODULES: &[&str] = &["crates/sim/src/shard.rs"];

/// Span-emission modules, where every recorded label must be a
/// `&'static str`: recording runs per simulation event whenever tracing
/// is compiled in, so `String`/`format!` allocation is banned there.
/// The exporters (`export.rs`, `query.rs`) run once per dump and may
/// build text freely.
pub const SPAN_EMISSION_MODULES: &[&str] =
    &["crates/trace/src/span.rs", "crates/trace/src/ring.rs"];

/// Hot-path modules where a panic aborts a whole simulation run:
/// the per-event engine loop and event queue, the packet, the agent
/// context and its link model, the node and link tables, the counters,
/// the plain router, the per-hop flow hash and longest-prefix match,
/// the per-byte checksum and SipHash kernel, and the per-packet
/// dataplane transforms.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/packet.rs",
    "crates/sim/src/ctx.rs",
    "crates/sim/src/tables.rs",
    "crates/sim/src/stats.rs",
    "crates/sim/src/router.rs",
    "crates/sim/src/hash.rs",
    "crates/net/src/trie.rs",
    "crates/net/src/siphash.rs",
    "crates/net/src/checksum.rs",
    "crates/dataplane/src/codec.rs",
    "crates/dataplane/src/switch.rs",
];

/// The crate name (`sim`, `bgp`, …) of a repo-relative path under
/// `crates/`, or `None` for files outside `crates/`.
pub fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Is `path` inside one of the deterministic crates?
pub fn in_deterministic_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
}

/// Is `path` inside a crate allowed to read the wall clock?
pub fn wall_clock_exempt(path: &str) -> bool {
    crate_of(path).is_some_and(|c| WALL_CLOCK_EXEMPT_CRATES.contains(&c))
}

/// Is `path` one of the wire-format modules?
pub fn is_wire_format_module(path: &str) -> bool {
    WIRE_FORMAT_MODULES.contains(&path)
}

/// Is `path` one of the designated hot-path modules?
pub fn is_hot_path_module(path: &str) -> bool {
    HOT_PATH_MODULES.contains(&path)
}

/// Is `path` one of the span-emission modules?
pub fn is_span_emission_module(path: &str) -> bool {
    SPAN_EMISSION_MODULES.contains(&path)
}
