//! The repo benchmark: four workloads, end-to-end metrics, a per-layer
//! ledger and a traced run. See `README.md` in this directory.

// The root clippy.toml bans wall clocks (they break replayable
// experiments). Here the wall clock is the product.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod check;
pub mod cli;
pub mod compare;
pub mod inject;
pub mod isolated;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
