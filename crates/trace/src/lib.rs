//! # tango-trace — deterministic causal span tracing for the Tango stack
//!
//! `tango-obs` (DESIGN.md §9) answers *how many*; this crate answers
//! *why and in what order*. Every simulator dispatch, packet hop,
//! encap/decap, BGP update, health transition, and chaos action can
//! record a [`Span`] keyed by the engine's canonical event key
//! (`EventKey{time, origin, seq}` plus an intra-dispatch index), with a
//! `parent` key linking cause to effect — across shard boundaries too,
//! because the parent key travels with the event through the outbox
//! handoff.
//!
//! ## Determinism
//!
//! A [`SpanKey`] is a pure function of stable identities (virtual time,
//! emitting origin, per-origin sequence, intra-dispatch index) — never of
//! shard layout, runner mode, or realized execution interleaving. Every
//! shard records into its own [`SpanRing`]; [`SpanRing::merged`] unions
//! the rings and sorts by key, reproducing the exact stream a
//! single-shard run records (rings that never wrap merge exactly). The
//! exporters ([`export`]) render that stream as canonical JSON and as
//! Chrome `trace_event` JSON, and fold it into the `trace=` hash of the
//! run digests ([`export::spans_digest`]), so trace artifacts byte-diff
//! across runs and `--shards`.
//!
//! ## Flight recording
//!
//! The ring is fixed-capacity: with tracing armed for a long run it
//! degrades into a *flight recorder* holding the last-N spans, which
//! invariant violations and chaos faults dump for post-mortem causal
//! analysis (see `tango::pairing`).
//!
//! ## Off switch
//!
//! A ring built with capacity 0 is disarmed: it records nothing and
//! allocates nothing. That run-time capacity (`SimConfig::span_capacity`)
//! is the only switch; there is no compile-time one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod query;
mod ring;
mod span;

pub use ring::SpanRing;
pub use span::{DropReason, FieldValue, Span, SpanKey, SpanKind};
