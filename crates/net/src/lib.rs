//! # tango-net — wire formats for the Tango data plane
//!
//! Byte-exact representations of every header the Tango data plane touches:
//! IPv6, UDP, and the Tango tunnel header that carries the one-way
//! delay timestamp and per-tunnel sequence number described in §3/§4.2 of
//! *"It Takes Two to Tango: Cooperative Edge-to-Edge Routing"* (HotNets '22).
//!
//! The design follows the smoltcp idiom:
//!
//! * a zero-copy *view* type `XxxPacket<T: AsRef<[u8]>>` wrapping a buffer,
//!   with checked constructors and per-field accessors;
//! * an owned *representation* type `XxxRepr` that can be parsed from a view
//!   (`parse`) and serialized into one (`emit`).
//!
//! On top of the headers the crate provides CIDR prefix types
//! ([`Ipv4Cidr`], [`Ipv6Cidr`], [`IpCidr`]) and a longest-prefix-match
//! [`PrefixTrie`] used by the forwarding tables in `tango-dataplane`.
//!
//! ## Omitted features
//!
//! * IPv4: IPv6 is the one packet format parsed, built or forwarded (the
//!   paper's deployment announced an IPv6 block). A header whose version
//!   nibble is not 6 fails [`Ipv6Packet::new_checked`] as
//!   [`Error::Malformed`]. [`Ipv4Cidr`] remains only as a prefix type.
//! * IPv6 extension headers are not parsed: the next header is read at
//!   its fixed offset, matching the data plane a Tango switch would
//!   deploy (fixed-offset parsing).
//! * Fragmentation/reassembly: Tango tunnels are provisioned under the path
//!   MTU, so nothing is fragmented or reassembled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod cidr;
mod error;
pub mod ipv6;
pub mod siphash;
pub mod tango_hdr;
pub mod trie;
pub mod udp;

pub use cidr::{IpCidr, Ipv4Cidr, Ipv6Cidr};
pub use error::{Error, Result};
pub use ipv6::{Ipv6Packet, Ipv6Repr};
pub use siphash::{siphash24, SipKey};
pub use tango_hdr::{
    TangoFlags, TangoPacket, TangoRepr, TANGO_HEADER_LEN, TANGO_MAGIC, TANGO_UDP_PORT,
};
pub use trie::PrefixTrie;
pub use udp::{UdpPacket, UdpRepr};
