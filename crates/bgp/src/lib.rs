//! # tango-bgp — the BGP control plane Tango coaxes into exposing paths
//!
//! §3 of the paper: *"Enabling prefixes to propagate over specific routes
//! is already well studied and is achievable with well established BGP
//! techniques such as BGP communities and AS-path poisoning."* This crate
//! implements the BGP machinery those techniques need:
//!
//! * typed [`Community`] values including Vultr-style *action communities*
//!   ("do not announce to AS X", "prepend N× to AS X") that the paper's
//!   prototype uses to shape outbound announcements (§4.1, step 2);
//! * per-domain [`BgpSpeaker`]s — configuration, sessions, import and
//!   export policy — whose Adj-RIB-In / Loc-RIB / Adj-RIB-Out live
//!   prefix-major in the engine: one column per prefix, indexed by a
//!   dense prefix id the engine interns (callers name prefixes; nothing
//!   on the update path compares one), with one slot per directed
//!   session that is both the sender's Adj-RIB-Out entry and the
//!   receiver's Adj-RIB-In entry, each a `u32` handle into the column's
//!   copy-on-write arena of advertisements (a caller reads one as an
//!   owned [`PathAttrs`]);
//!   the standard decision process (local-pref by Gao-Rexford relationship
//!   plus a per-neighbor preference modeling Vultr's router config, then
//!   AS-path length, then a deterministic tie-break);
//! * Gao-Rexford export filters (customer routes go everywhere; peer- and
//!   provider-learned routes go only to customers);
//! * a synchronous-round fixpoint [`BgpEngine`] that propagates
//!   announcements and withdrawals over a `tango-topology` graph until
//!   convergence — the in-memory stand-in for the BIRD sessions of the
//!   prototype;
//! * AS-path poisoning at origination.
//!
//! ## Omitted (documented) features
//!
//! * No RFC 4271 wire encoding: speakers exchange typed routes in
//!   memory, and every question asked of the engine (which paths exist,
//!   how many updates convergence costs) is answered by those.
//! * No TCP session FSM, keepalives, or MRAI timers: convergence is
//!   synchronous rounds; `tango-sim` layers a configurable convergence
//!   delay on top when experiments need BGP re-convergence *time*.
//! * No route reflectors or iBGP (each domain is one border speaker).
//! * MED is carried but only used as the documented late tie-break.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod community;
pub mod engine;
pub mod policy;
pub mod rib;
pub mod speaker;

pub use community::Community;
pub use engine::{BgpEngine, EngineError};
pub use policy::{local_pref_base, may_export, LP_CUSTOMER, LP_PEER, LP_PROVIDER};
pub use rib::{PathAttrs, Route, RouteSource};
pub use speaker::{BgpSpeaker, Neighbor, SpeakerConfig};
