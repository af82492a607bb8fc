//! # tango-sim — deterministic discrete-event wide-area network simulator
//!
//! The paper's prototype ran between two real Vultr datacenters for eight
//! days; this crate is the substitute substrate (see DESIGN.md): a
//! deterministic discrete-event simulator that moves *byte-exact packets*
//! across the AS-level topology of `tango-topology`, sampling per-hop
//! delay/jitter/loss from the calibrated link profiles and folding in the
//! scheduled wide-area events (route changes, instability periods).
//!
//! Key properties:
//!
//! * **Determinism** — one seeded RNG, a totally ordered event queue
//!   (time, then insertion sequence). Same seed ⇒ same trace, byte for
//!   byte. Experiments and tests rely on this.
//! * **Unsynchronized clocks** — every node owns a [`NodeClock`] with a
//!   constant offset (and optional drift). The Tango data plane reads
//!   *node-local* time only, so the paper's central argument — a constant
//!   clock offset cancels out of relative one-way-delay comparisons
//!   (§4.2) — is reproduced, not assumed.
//! * **Intra-AS ECMP** — a packet's 5-tuple flow hash picks a lane on
//!   multi-lane links, reproducing the "unpredictable path diversity"
//!   that Tango's fixed UDP encapsulation pins down (§3).
//! * **Fault injection** (smoltcp-inspired) — configurable random drop and
//!   corruption for robustness tests.
//!
//! Node behaviour is pluggable through the [`Agent`] trait: plain routers
//! ([`RouterAgent`]) forward by longest-prefix match over a BGP-derived
//! table, while `tango-dataplane` provides the Tango switch agents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod chaos;
pub mod clock;
pub mod edge_noise;
pub mod engine;
pub mod fault;
pub mod hash;
mod queue;
pub mod shard;
pub mod time;

pub use adversary::{
    shared_adversary_stats, AdversaryAgent, AdversaryBehavior, AdversaryStats,
    SharedAdversaryStats, TAG_ADV_REPLAY, TAG_ADV_SPOOF,
};
pub use chaos::{ChaosConfig, ChaosSchedule};
pub use clock::NodeClock;
pub use engine::{
    Agent, BufferPool, Ctx, NetworkSim, Packet, RouterAgent, ShardLoad, SimConfig, SimStats,
};
pub use fault::{FaultDecision, FaultInjector};
pub use shard::ShardMode;
pub use tango_trace::{DropReason, Span, SpanKey, SpanKind, SpanRing};
pub use time::SimTime;
