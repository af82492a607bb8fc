//! # tango-topology — AS-level topology and wide-area link models
//!
//! The substrate the Tango paper ran on was the real Internet between two
//! Vultr datacenters. This crate models that substrate: an AS-level graph
//! with Gao-Rexford business relationships (consumed by `tango-bgp` for
//! route propagation) and per-directed-link delay/jitter/loss profiles
//! (consumed by `tango-sim` for packet timing), plus a schedule of
//! wide-area events — the route changes and instability periods the paper
//! observed in Fig. 4.
//!
//! The flagship scenario, [`vultr::vultr_scenario`], is calibrated to the
//! paper's measurements: four wide-area paths in each direction between a
//! Los Angeles and a New York site, with per-path one-way-delay floors,
//! jitter characteristics, and the two GTT events (a +5 ms route change
//! and a 5-minute instability with spikes to 78 ms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asys;
pub mod events;
pub mod gen;
pub mod graph;
pub mod link;
pub mod vultr;

pub use asys::{AsId, AsKind, AsNode};
pub use events::{EventKind, LinkEvent, TimeWindow, WideAreaEvent};
pub use graph::{DirectedGraph, Relationship, Topology, TopologyError};
pub use link::{DirectionProfile, JitterModel, LinkProfile};
pub use vultr::{
    vultr_scenario, vultr_scenario_custom, vultr_scenario_with_capacity, VultrOverrides,
    VultrScenario,
};

/// Nanoseconds per millisecond, for readable calibration constants.
pub const MS: u64 = 1_000_000;
/// Nanoseconds per microsecond.
pub const US: u64 = 1_000;
/// Nanoseconds per second.
pub const SEC: u64 = 1_000_000_000;
