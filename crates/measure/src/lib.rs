//! # tango-measure — one-way-delay statistics
//!
//! The measurement pipeline of §4.2/§5, as a library:
//!
//! * [`IntervalAverager`] — "recorded the average one-way delay for every
//!   path at 10 ms intervals": online fixed-width [`Bin`]s (count, app
//!   count, sum, min, max) that merge to any multiple of their width and
//!   summarize any aligned window, so a reader needs no sample timestamps;
//! * [`RollingWindow::mean_std`] — "to measure sub-second network
//!   jitter, we calculated the mean standard deviation of a 1-second
//!   rolling window", accumulated as samples arrive
//!   ([`rolling::mean_rolling_std`] is its offline reference);
//! * [`SeqTracker`] — "adding tunnel-specific sequence numbers on packets
//!   can allow Tango to additionally compute loss and reordering" (§3);
//! * [`Ewma`], [`Summary`] and percentiles for the routing policies in
//!   `tango-control`;
//! * [`TimeSeries`] plus CSV/ASCII export for the experiment harness.
//!
//! All delay values are nanoseconds as `f64` at the statistics layer
//! (sub-nanosecond precision is meaningless; dynamic range is what
//! matters), and timestamps are nanoseconds as `u64`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ewma;
pub mod export;
pub mod interval;
pub mod loss;
pub mod owd;
pub mod percentile;
pub mod replay;
pub mod rolling;
mod seq_window;
pub mod series;

pub use ewma::Ewma;
pub use interval::{Bin, IntervalAverager};
pub use loss::{SeqEvent, SeqTracker};
pub use owd::{saturating_owd_ns, PlausibilityConfig, PlausibilityGate};
pub use percentile::{percentile, Summary};
pub use replay::ReplayWindow;
pub use rolling::{mean_rolling_std, RollingWindow};
pub use series::TimeSeries;
