//! # tango-control — discovery, provisioning, and routing logic
//!
//! The cooperative control plane on top of `tango-bgp` and below the
//! experiment harness:
//!
//! * [`discovery`] — the §4.1 step-2 algorithm: iteratively suppress the
//!   currently selected route with a BGP community, observe what BGP
//!   falls back to at the other edge, and record (path, community set)
//!   pairs until the prefix goes unreachable.
//! * [`config`] — §4.1 step-3 provisioning: carve one prefix per
//!   discovered path out of each side's address block, announce each
//!   with the community set that pins it, verify the pinning against the
//!   converged BGP state, and emit the tunnel tables for both switches.
//! * [`policy`] — implementations of the data-plane's
//!   [`tango_dataplane::PathPolicy`]. Lowest one-way delay, jitter-aware
//!   and loss-aware are three scores over one rule: rank the eligible
//!   paths (at least [`policy::MIN_SAMPLES`] samples, not stale) by the
//!   score, and keep the current path unless it may not stay or the best
//!   path beats it by the hysteresis. An inverse-latency weighted split
//!   uses the same eligibility rule. The BGP-default baseline is
//!   [`tango_dataplane::StaticPolicy`].
//! * [`health`] — per-tunnel liveness: the
//!   `Up → Suspect → Down → Probing → Up` state machine, exponential
//!   backoff re-probing, the [`health::HealthGated`] wrapper that
//!   keeps any policy from ever selecting a blackholed path, and the
//!   gate's [`health::HealthLog`], from which `health.<as>.…`
//!   telemetry is published.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod discovery;
pub mod health;
pub mod policy;

pub use config::{provision, Direction, ProvisionError, ProvisionedPairing, Side, SideConfig};
pub use discovery::{discover_paths, DiscoveredPath, DiscoveryError};
pub use health::{
    HealthConfig, HealthGated, HealthLog, HealthState, HealthTimeline, HealthTransition, PathHealth,
};
pub use policy::{JitterAwarePolicy, LossAwarePolicy, LowestOwdPolicy, WeightedSplitPolicy};
