//! The span data model: keys, kinds, and the record itself.
//!
//! Everything here is `Copy`, integer-payload-only, and allocation-free —
//! enforced by the `span-alloc` tango-lint rule. Span emission sits on
//! the simulator's per-event path; a `String` or `format!` here would be
//! both a throughput bug and a determinism hazard (allocator state is not
//! part of the simulation).

/// The canonical, globally unique ordering key of a span.
///
/// The first three fields are the engine's `EventKey` of the dispatch
/// that recorded the span (virtual time, emitting origin, per-origin
/// sequence); `intra` indexes the span within that dispatch (0 is the
/// dispatch span itself). A pure function of stable identities — never of
/// shard layout or realized interleaving — so sorting any union of
/// per-shard rings by key reproduces one total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanKey {
    /// Virtual time of the dispatch, nanoseconds.
    pub time_ns: u64,
    /// Emitting origin: 0 for the external scheduler, node index + 1 for
    /// node agents, [`SpanKey::CONTROL_ORIGIN`] for the pairing-level
    /// control-plane recorder.
    pub origin: u32,
    /// Per-origin emission sequence number.
    pub seq: u64,
    /// Index of this span within its dispatch (0 = the dispatch span).
    pub intra: u32,
}

impl SpanKey {
    /// "No parent": the sentinel carried by root spans (externally
    /// scheduled events and control-plane actions with no recorded
    /// cause). All-ones, so it sorts after every real key and can never
    /// collide with one (no origin emits at time `u64::MAX`).
    pub const NONE: SpanKey = SpanKey {
        time_ns: u64::MAX,
        origin: u32::MAX,
        seq: u64::MAX,
        intra: u32::MAX,
    };

    /// Origin id of the pairing-level control-plane recorder. Node
    /// origins are `idx + 1` (bounded by the topology size) and the
    /// external scheduler is 0, so the top of the `u32` range is free.
    pub const CONTROL_ORIGIN: u32 = u32::MAX;

    /// Is this the [`SpanKey::NONE`] sentinel?
    #[inline]
    pub fn is_none(&self) -> bool {
        *self == SpanKey::NONE
    }

    /// The dispatch span key sharing this key's dispatch (intra = 0).
    #[inline]
    pub fn dispatch(&self) -> SpanKey {
        SpanKey { intra: 0, ..*self }
    }
}

/// Why a packet died in flight (mirrors the simulator's drop counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No link to the requested next hop.
    NoLink,
    /// Stochastic link loss.
    LossLink,
    /// An active wide-area outage on the hop.
    LossOutage,
    /// The fault injector.
    LossFault,
    /// Tail drop on a full capacity-limited link queue.
    LossQueue,
    /// Routing-table miss.
    NoRoute,
    /// Hop limit exhausted.
    TtlExpired,
}

impl DropReason {
    /// Stable lowercase name (for exporters; no allocation).
    pub fn name(&self) -> &'static str {
        match self {
            DropReason::NoLink => "no_link",
            DropReason::LossLink => "loss_link",
            DropReason::LossOutage => "loss_outage",
            DropReason::LossFault => "loss_fault",
            DropReason::LossQueue => "loss_queue",
            DropReason::NoRoute => "no_route",
            DropReason::TtlExpired => "ttl_expired",
        }
    }
}

/// What a span records. Integer payloads only: path ids, AS numbers,
/// timer tags, and small state codes — never strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A packet was dispatched to a node's agent (one span per hop; the
    /// parent is the previous hop's dispatch span).
    Deliver,
    /// An application packet entered at a node's host side (the root of
    /// a packet's causal chain).
    HostInject,
    /// A timer fired (recorded lazily: only if the handler emitted a
    /// child span, so idle probe/control ticks don't flood the ring).
    Timer {
        /// The timer's tag.
        tag: u64,
    },
    /// A packet was committed to the link toward a neighbor AS.
    Tx {
        /// Receiving neighbor's AS number.
        to: u32,
    },
    /// A packet died in flight.
    Drop {
        /// Why.
        reason: DropReason,
    },
    /// The Tango data plane encapsulated a payload onto a tunnel path.
    Encap {
        /// Tunnel path id.
        path: u16,
        /// Payload class: 0 = data, 1 = probe, 2 = report.
        payload: u8,
    },
    /// The Tango data plane decapsulated a tunnel packet.
    Decap {
        /// Tunnel path id.
        path: u16,
    },
    /// The data plane rejected an incoming tunnel packet.
    RxReject {
        /// 0 = authentication failure, 1 = replay.
        reason: u8,
    },
    /// A control-plane step drove a BGP announce/withdraw + reconverge.
    BgpUpdate {
        /// Tunnel path id the update concerns.
        path: u16,
        /// 1 = announce/reannounce, 0 = withdraw.
        announce: u8,
    },
    /// A path-health state machine transitioned.
    HealthTransition {
        /// Tunnel path id.
        path: u16,
        /// Previous state code (see `tango_control::HealthState::code`).
        from: u8,
        /// New state code.
        to: u8,
    },
    /// Path selection moved off / back onto a path after a health event.
    Reroute {
        /// The path whose health change drove the reselection.
        path: u16,
    },
    /// A scheduled control-plane / chaos action was applied.
    Control {
        /// Step code: 0 = withdraw, 1 = reannounce, 2 = hijack start,
        /// 3 = hijack end, 4 = blackhole start, 5 = blackhole end.
        step: u8,
        /// Tunnel path id the action targets.
        path: u16,
    },
    /// A run-level invariant was violated (flight-recorder trigger).
    InvariantViolation {
        /// The offending path.
        path: u16,
        /// Health-state code the path was in.
        state: u8,
    },
}

/// One payload field's value, as exporters render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// An integer payload (path ids, AS numbers, tags, state codes).
    Num(u64),
    /// A name from a fixed vocabulary (a [`DropReason`]).
    Name(&'static str),
}

impl core::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FieldValue::Num(v) => write!(f, "{v}"),
            FieldValue::Name(name) => f.write_str(name),
        }
    }
}

fn num(name: &'static str, v: impl Into<u64>) -> Option<(&'static str, FieldValue)> {
    Some((name, FieldValue::Num(v.into())))
}

impl SpanKind {
    /// The payload as `(field name, value)` pairs in declaration order —
    /// the one description every renderer (canonical dump, Chrome `args`,
    /// `trace=` digests, `--query` tables) loops over. The order is part
    /// of the committed digests.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, FieldValue)> {
        let fields = match *self {
            SpanKind::Deliver | SpanKind::HostInject => [None, None, None],
            SpanKind::Timer { tag } => [num("tag", tag), None, None],
            SpanKind::Tx { to } => [num("to", to), None, None],
            SpanKind::Drop { reason } => [
                Some(("reason", FieldValue::Name(reason.name()))),
                None,
                None,
            ],
            SpanKind::Encap { path, payload } => [num("path", path), num("payload", payload), None],
            SpanKind::Decap { path } => [num("path", path), None, None],
            SpanKind::RxReject { reason } => [num("reason", reason), None, None],
            SpanKind::BgpUpdate { path, announce } => {
                [num("path", path), num("announce", announce), None]
            }
            SpanKind::HealthTransition { path, from, to } => {
                [num("path", path), num("from", from), num("to", to)]
            }
            SpanKind::Reroute { path } => [num("path", path), None, None],
            SpanKind::Control { step, path } => [num("step", step), num("path", path), None],
            SpanKind::InvariantViolation { path, state } => {
                [num("path", path), num("state", state), None]
            }
        };
        fields.into_iter().flatten()
    }

    /// Stable lowercase name (for exporters and queries; no allocation).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Deliver => "deliver",
            SpanKind::HostInject => "host_inject",
            SpanKind::Timer { .. } => "timer",
            SpanKind::Tx { .. } => "tx",
            SpanKind::Drop { .. } => "drop",
            SpanKind::Encap { .. } => "encap",
            SpanKind::Decap { .. } => "decap",
            SpanKind::RxReject { .. } => "rx_reject",
            SpanKind::BgpUpdate { .. } => "bgp_update",
            SpanKind::HealthTransition { .. } => "health_transition",
            SpanKind::Reroute { .. } => "reroute",
            SpanKind::Control { .. } => "control",
            SpanKind::InvariantViolation { .. } => "invariant_violation",
        }
    }
}

/// One causal trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Canonical ordering key (globally unique).
    pub key: SpanKey,
    /// The span that caused this one ([`SpanKey::NONE`] for roots).
    pub parent: SpanKey,
    /// AS number of the node the span happened on (0 for control-plane
    /// spans, which belong to the pairing, not a single AS).
    pub node: u32,
    /// What happened.
    pub kind: SpanKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_time_origin_seq_intra() {
        let base = SpanKey {
            time_ns: 5,
            origin: 2,
            seq: 7,
            intra: 1,
        };
        assert!(SpanKey { time_ns: 4, ..base } < base);
        assert!(SpanKey { origin: 1, ..base } < base);
        assert!(SpanKey { seq: 6, ..base } < base);
        assert!(SpanKey { intra: 0, ..base } < base);
        assert!(base < SpanKey::NONE);
    }

    #[test]
    fn dispatch_key_zeroes_intra() {
        let k = SpanKey {
            time_ns: 9,
            origin: 3,
            seq: 2,
            intra: 4,
        };
        assert_eq!(k.dispatch().intra, 0);
        assert_eq!(k.dispatch().time_ns, 9);
    }

    #[test]
    fn none_is_none() {
        assert!(SpanKey::NONE.is_none());
        assert!(!SpanKey::NONE.dispatch().is_none());
    }
}
