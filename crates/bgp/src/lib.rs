//! # tango-bgp — the BGP control plane Tango coaxes into exposing paths
//!
//! §3 of the paper: *"Enabling prefixes to propagate over specific routes
//! is already well studied and is achievable with well established BGP
//! techniques such as BGP communities and AS-path poisoning."* This crate
//! implements the BGP machinery those techniques need:
//!
//! * the typed [`Community`] the paper's prototype uses to shape
//!   outbound announcements (§4.1, step 2): Vultr's *action community*
//!   "do not announce to AS X", acted on only by speakers configured to
//!   honor it;
//! * per-domain BGP speakers — export knobs, sessions, import and
//!   export policy — whose Adj-RIB-In / Loc-RIB / Adj-RIB-Out live
//!   prefix-major in the engine: one column per prefix, indexed by a
//!   dense prefix id the engine interns (callers name prefixes; nothing
//!   on the update path compares one), with one slot per directed
//!   session that is both the sender's Adj-RIB-Out entry and the
//!   receiver's Adj-RIB-In entry, each a `u32` handle into the column's
//!   copy-on-write arena of advertisements (a caller reads one as an
//!   owned [`PathAttrs`]);
//!   the standard decision process (local-pref by Gao-Rexford
//!   relationship, then AS-path length, then a per-neighbor preference
//!   modeling Vultr's router config, then the lowest neighbor id);
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
//!   synchronous rounds and takes zero simulated time.
//! * No route reflectors or iBGP (each domain is one border speaker).
//! * No MED, no well-known communities (NO_EXPORT, NO_ADVERTISE) and no
//!   prepend actions: Tango shapes announcements with `NoExportTo` and
//!   AS-path poisoning only.
//! * No reconfiguration of a running network: speaker settings are
//!   inputs, fixed before the first announcement, as the transits'
//!   policies are in §4.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod community;
pub mod engine;
pub mod policy;
mod rib;
mod speaker;

pub use community::Community;
pub use engine::{BgpEngine, EngineError};
pub use rib::{PathAttrs, Route};
