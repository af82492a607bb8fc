//! # tango — cooperative edge-to-edge routing
//!
//! A from-scratch reproduction of *"It Takes Two to Tango: Cooperative
//! Edge-to-Edge Routing"* (Birge-Lee, Apostolaki, Rexford — HotNets '22)
//! as a Rust workspace: the Tango architecture itself plus every
//! substrate its evaluation needs (BGP control plane, AS-level topology,
//! deterministic packet simulator, eBPF-equivalent data plane,
//! measurement pipeline).
//!
//! This crate is the front door. The one-line story:
//!
//! ```
//! use tango::prelude::*;
//!
//! // The paper's testbed: two Vultr datacenters (NY + LA).
//! let mut pairing = tango::vultr_pairing(PairingOptions::default()).unwrap();
//! // Run 10 simulated seconds of probing (10 ms per path, like §5).
//! pairing.run_until(SimTime::from_secs(10));
//! // Fig. 3: four wide-area paths per direction...
//! assert_eq!(pairing.provisioned.from(Side::B).tunnels.len(), 4);
//! // ...and the BGP default (NTT) is ~30 % slower than the best (GTT).
//! let ntt = pairing.mean_owd_ms(Side::A, 0).unwrap();
//! let gtt = pairing.mean_owd_ms(Side::A, 2).unwrap();
//! assert!(ntt / gtt > 1.25);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`tango_net`] | wire formats (IPv6/UDP/Tango header), CIDRs, LPM trie |
//! | [`tango_topology`] | AS graph, link delay/jitter/loss models, wide-area events, the calibrated Vultr scenario |
//! | [`tango_bgp`] | BGP speakers/RIBs/policy, propagation engine, communities, poisoning (typed routes in memory, no wire format) |
//! | [`tango_sim`] | deterministic discrete-event simulator, unsynchronized clocks, ECMP, fault injection |
//! | [`tango_dataplane`] | the border-switch programs: encap/decap, timestamps, sequence numbers, per-path stats |
//! | [`tango_measure`] | one-way-delay statistics: interval averages, rolling jitter, loss/reordering from sequence numbers, EWMA, percentiles |
//! | [`tango_control`] | §4.1 path discovery, prefix/tunnel provisioning per [`Side`], selection policies, path health |
//! | [`tango_obs`] | deterministic metrics: counters, gauges, fixed-bucket histograms, byte-stable snapshots |
//! | [`tango_trace`] | causal span tracing: the one packet-incident record, its ring, exporters and queries |
//!
//! This crate adds the scenario runners on top: [`TangoPairing`] (two
//! sides, each stated once — `stats(side)`, `side_config(side)`,
//! `provisioned.from(side)`), [`NPopMesh`] (N PoPs), [`chaos`] and the
//! run-level [`invariant`] checker.
//!
//! See `DESIGN.md` for the substitution table (what the paper's physical
//! testbed provided vs. what is simulated here) and `EXPERIMENTS.md` for
//! paper-vs-measured numbers on every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod invariant;
pub mod npop;
pub mod pairing;
pub mod vultr;

pub use chaos::{
    run_byzantine_ablation, run_chaos, AblationOutcome, ChaosOutcome, ChaosRunOptions,
};
pub use invariant::{
    check, check_pairing, check_pairing_flight, InvariantReport, SideEvidence, Violation,
};
pub use npop::{
    run_npop, NPopError, NPopMesh, NPopOptions, NPopOutcome, PairOutcome, TrafficOutcome,
};
pub use pairing::{FlightDump, PairingError, PairingOptions, Side, TangoPairing};
pub use vultr::{vultr_pairing, vultr_pairing_with_events};

/// The convenient imports for examples and experiments.
pub mod prelude {
    pub use crate::chaos::{
        run_byzantine_ablation, run_chaos, AblationOutcome, ChaosOutcome, ChaosRunOptions,
    };
    pub use crate::invariant::{
        check_pairing, check_pairing_flight, InvariantReport, SideEvidence,
    };
    pub use crate::pairing::{FlightDump, PairingError, PairingOptions, Side, TangoPairing};
    pub use crate::vultr::{vultr_pairing, vultr_pairing_with_events};
    pub use tango_control::{
        HealthConfig, HealthGated, HealthState, HealthTransition, JitterAwarePolicy,
        LossAwarePolicy, LowestOwdPolicy, SideConfig, WeightedSplitPolicy,
    };
    pub use tango_dataplane::{FeedbackMode, PathPolicy, Selection, StaticPolicy};
    pub use tango_measure::Summary;
    pub use tango_net::SipKey;
    pub use tango_sim::{FaultInjector, NodeClock, SimTime};
    pub use tango_topology::{AsId, Topology, WideAreaEvent};
}
