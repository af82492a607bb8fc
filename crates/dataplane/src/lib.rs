//! # tango-dataplane — the Tango border-switch data plane
//!
//! The paper's prototype implements this layer as two eBPF programs on
//! each server (§4.2): *"The sender-side eBPF program timestamps and
//! encapsulates packets in a fixed IP and UDP header based on the chosen
//! path for that packet. The receiver-side eBPF program calculates the
//! difference between the current time and the timestamp to estimate the
//! one-way delay."* This crate is that data plane as a Rust library,
//! operating on byte-exact packets, plus the [`TangoSwitch`] agent that
//! runs it inside the `tango-sim` network.
//!
//! Structure mirrors a real control/data split:
//!
//! * [`codec`] — encapsulation/decapsulation (outer IPv6 + UDP + Tango
//!   header) with checksums; pure functions, portable to eBPF/P4.
//! * [`tunnel`] — tunnel descriptors: endpoint addresses drawn from the
//!   per-path prefixes, fixed UDP source port per tunnel (pins ECMP).
//! * [`stats`] — per-path receive-side statistics (one-way delay, loss,
//!   reordering), written by the receiver and shared with the peer's
//!   controller: this sharing *is* the cooperation of "cooperative
//!   edge-to-edge routing" (modeled as a zero-delay out-of-band channel;
//!   see DESIGN.md). The sink is the switch's only tally; its
//!   `dataplane.<as>.…` telemetry is published from it.
//! * [`policy`] — the interface the control plane implements
//!   ([`PathPolicy`]) and the selection state it installs
//!   ([`Selection`]), evaluated per packet in the switch.
//! * [`switch`] — the [`TangoSwitch`] simulator agent tying it together:
//!   host-side classification, per-packet tunnel choice, probe
//!   generation, decapsulation and measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod policy;
pub mod report;
pub mod stats;
pub mod switch;
pub mod tunnel;

pub use codec::{
    decapsulate, decapsulate_with, encapsulate, encapsulate_auth, probe_packet, probe_packet_auth,
    report_packet, CodecError, Decapsulated,
};
pub use policy::{PathPolicy, PathSnapshot, Selection, StaticPolicy};
pub use report::{MeasurementReport, PathRecord, ReportError};
pub use stats::{OwdSamples, PathStats, SharedStats, StatsSink, BIN_NS};
pub use switch::{FeedbackMode, SwitchConfig, TangoSwitch};
pub use tunnel::Tunnel;
