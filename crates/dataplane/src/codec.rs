//! Encapsulation and decapsulation — the pure packet transformations of
//! the two eBPF programs (§4.2), portable in spirit to eBPF/P4.
//!
//! Wire layout of a tunneled packet:
//!
//! ```text
//! outer IPv6 (40 B) | UDP (8 B) | Tango header (20 B) | inner IP packet
//! ```
//!
//! The outer UDP checksum covers the Tango header and inner packet, so a
//! corrupted timestamp can never become a delay sample ([`decapsulate`]
//! verifies before trusting anything).

use crate::tunnel::Tunnel;
use tango_net::siphash::{siphash24, siphash24_summing, tags_equal, SipKey};
use tango_net::{
    Ipv6Packet, Ipv6Repr, TangoFlags, TangoPacket, TangoRepr, UdpPacket, UdpRepr, TANGO_HEADER_LEN,
    TANGO_UDP_PORT,
};
use tango_sim::Packet;

/// Length of the SipHash-2-4 authentication trailer.
pub const TANGO_AUTH_TAG_LEN: usize = 8;
/// `inner_proto` code for an in-band measurement report payload.
pub const INNER_PROTO_REPORT: u16 = 253;

/// Bytes the encapsulation prepends in front of the inner packet: outer
/// IPv6 + UDP + Tango header. A [`Packet`] carrying at least this much
/// headroom rides the zero-copy in-place path; the optional auth trailer
/// is *appended*, so it needs no headroom.
pub const ENCAP_OVERHEAD: usize =
    tango_net::ipv6::HEADER_LEN + tango_net::udp::HEADER_LEN + TANGO_HEADER_LEN;

/// Offset of the Tango header within an encapsulated wire image.
const TANGO_OFF: usize = tango_net::ipv6::HEADER_LEN + tango_net::udp::HEADER_LEN;

/// Errors from the decapsulation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The outer packet is not valid IPv6.
    OuterIp,
    /// The outer packet is not UDP on the Tango port.
    NotTangoUdp,
    /// The UDP checksum failed (corruption in flight).
    Checksum,
    /// The Tango header is absent or malformed.
    TangoHeader,
    /// The inner packet length is inconsistent.
    Inner,
    /// Authentication failed: missing, truncated, or forged tag (§6
    /// trustworthy-telemetry mode).
    Auth,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CodecError::OuterIp => "outer packet is not valid IPv6",
            CodecError::NotTangoUdp => "not Tango-encapsulated UDP",
            CodecError::Checksum => "outer UDP checksum mismatch",
            CodecError::TangoHeader => "bad Tango header",
            CodecError::Inner => "inconsistent inner packet",
            CodecError::Auth => "authentication tag missing or invalid",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CodecError {}

/// Inner-protocol codes in the Tango header.
fn inner_proto_of(inner: &[u8]) -> u16 {
    match inner.first().map(|b| b >> 4) {
        Some(6) => 41, // IPv6-in-Tango
        _ => 0,
    }
}

/// Sender-side program: timestamp + encapsulate an inner IP packet onto a
/// tunnel. `timestamp_ns` is the *sender's node-local clock*.
pub fn encapsulate(tunnel: &Tunnel, inner: &[u8], sequence: u32, timestamp_ns: u64) -> Vec<u8> {
    build(
        tunnel,
        inner,
        None,
        sequence,
        timestamp_ns,
        TangoFlags::measured(),
        None,
    )
}

/// A bare measurement probe (no inner packet) — the paper generates
/// probe traffic along each path every 10 ms (§5).
pub fn probe_packet(tunnel: &Tunnel, sequence: u32, timestamp_ns: u64) -> Vec<u8> {
    build(
        tunnel,
        &[],
        None,
        sequence,
        timestamp_ns,
        TangoFlags::probe(),
        None,
    )
}

/// [`encapsulate`] with an authentication trailer (§6).
pub fn encapsulate_auth(
    tunnel: &Tunnel,
    inner: &[u8],
    sequence: u32,
    timestamp_ns: u64,
    key: &SipKey,
) -> Vec<u8> {
    build(
        tunnel,
        inner,
        None,
        sequence,
        timestamp_ns,
        TangoFlags::measured(),
        Some(key),
    )
}

/// [`probe_packet`] with an authentication trailer (§6).
pub fn probe_packet_auth(
    tunnel: &Tunnel,
    sequence: u32,
    timestamp_ns: u64,
    key: &SipKey,
) -> Vec<u8> {
    build(
        tunnel,
        &[],
        None,
        sequence,
        timestamp_ns,
        TangoFlags::probe(),
        Some(key),
    )
}

/// An in-band measurement report packet: the cooperation feedback
/// channel. `report` is a `report::MeasurementReport::encode()` payload.
pub fn report_packet(
    tunnel: &Tunnel,
    sequence: u32,
    timestamp_ns: u64,
    report: &[u8],
    key: Option<&SipKey>,
) -> Vec<u8> {
    build(
        tunnel,
        report,
        Some(INNER_PROTO_REPORT),
        sequence,
        timestamp_ns,
        TangoFlags::report(),
        key,
    )
}

// tango-lint: allow(hot-path-panic) payload and buf are allocated exactly sized right above every emit and slice
fn build(
    tunnel: &Tunnel,
    inner: &[u8],
    inner_proto_override: Option<u16>,
    sequence: u32,
    timestamp_ns: u64,
    flags: TangoFlags,
    key: Option<&SipKey>,
) -> Vec<u8> {
    let flags = if key.is_some() {
        flags.with_auth()
    } else {
        flags
    };
    let tango = TangoRepr {
        flags,
        path_id: tunnel.id,
        inner_proto: inner_proto_override.unwrap_or_else(|| inner_proto_of(inner)),
        sequence,
        timestamp_ns,
    };
    // Assemble the Tango payload (header + inner + optional auth tag)
    // first, then wrap it: the tag covers header and inner.
    let tag_len = if key.is_some() { TANGO_AUTH_TAG_LEN } else { 0 };
    let mut payload = vec![0u8; TANGO_HEADER_LEN + inner.len() + tag_len];
    {
        let mut tango_pkt = TangoPacket::new_unchecked(&mut payload[..]);
        tango.emit(&mut tango_pkt).expect("sized buffer");
    }
    payload[TANGO_HEADER_LEN..TANGO_HEADER_LEN + inner.len()].copy_from_slice(inner);
    if let Some(key) = key {
        let tag = siphash24(key, &payload[..TANGO_HEADER_LEN + inner.len()]);
        let at = TANGO_HEADER_LEN + inner.len();
        payload[at..].copy_from_slice(&tag.to_be_bytes());
    }

    let udp = UdpRepr {
        src_port: tunnel.src_port,
        dst_port: TANGO_UDP_PORT,
        payload_len: payload.len(),
    };
    let ip = Ipv6Repr {
        src_addr: tunnel.local_endpoint,
        dst_addr: tunnel.remote_endpoint,
        next_header: 17,
        payload_len: udp.total_len(),
        hop_limit: 64,
        traffic_class: 0,
        // A fixed flow label per tunnel: flow-label-aware ECMP hashes the
        // tunnel onto one lane too.
        flow_label: u32::from(tunnel.id) + 1,
    };
    let mut buf = vec![0u8; ip.total_len()];
    let mut ip_pkt = Ipv6Packet::new_unchecked(&mut buf[..]);
    ip.emit(&mut ip_pkt).expect("sized buffer");
    let mut udp_pkt = UdpPacket::new_unchecked(ip_pkt.payload_mut());
    udp.emit(&mut udp_pkt).expect("sized buffer");
    udp_pkt.payload_mut().copy_from_slice(&payload);
    udp_pkt.fill_checksum_v6(tunnel.local_endpoint, tunnel.remote_endpoint);
    buf
}

/// [`encapsulate`]/[`encapsulate_auth`] operating in place: the packet's
/// current bytes become the inner payload and the outer headers are
/// written into its headroom (the auth trailer, when `key` is set, is
/// appended). Zero-copy when the packet carries [`ENCAP_OVERHEAD`] bytes
/// of headroom; otherwise falls back to a copying rebuild. The resulting
/// wire image is byte-identical to the `Vec`-returning builders.
pub fn encapsulate_in_place(
    tunnel: &Tunnel,
    pkt: &mut Packet,
    sequence: u32,
    timestamp_ns: u64,
    key: Option<&SipKey>,
) {
    build_in_place(
        tunnel,
        pkt,
        None,
        sequence,
        timestamp_ns,
        TangoFlags::measured(),
        key,
    );
}

/// [`probe_packet`]/[`probe_packet_auth`] in place: `pkt` must be empty
/// (probes carry no inner packet) with headroom for the outer headers.
pub fn probe_packet_in_place(
    tunnel: &Tunnel,
    pkt: &mut Packet,
    sequence: u32,
    timestamp_ns: u64,
    key: Option<&SipKey>,
) {
    debug_assert!(pkt.is_empty(), "probes carry no inner packet");
    build_in_place(
        tunnel,
        pkt,
        None,
        sequence,
        timestamp_ns,
        TangoFlags::probe(),
        key,
    );
}

/// [`report_packet`] in place: the packet's bytes are the encoded
/// measurement report.
pub fn report_packet_in_place(
    tunnel: &Tunnel,
    pkt: &mut Packet,
    sequence: u32,
    timestamp_ns: u64,
    key: Option<&SipKey>,
) {
    build_in_place(
        tunnel,
        pkt,
        Some(INNER_PROTO_REPORT),
        sequence,
        timestamp_ns,
        TangoFlags::report(),
        key,
    );
}

// tango-lint: allow(hot-path-panic) headroom is checked on entry; emits write into exactly-sized sub-slices of it
fn build_in_place(
    tunnel: &Tunnel,
    pkt: &mut Packet,
    inner_proto_override: Option<u16>,
    sequence: u32,
    timestamp_ns: u64,
    flags: TangoFlags,
    key: Option<&SipKey>,
) {
    if pkt.headroom() < ENCAP_OVERHEAD {
        // Copying fallback for callers without reserved headroom.
        *pkt = Packet::new(build(
            tunnel,
            pkt.bytes(),
            inner_proto_override,
            sequence,
            timestamp_ns,
            flags,
            key,
        ));
        return;
    }
    let flags = if key.is_some() {
        flags.with_auth()
    } else {
        flags
    };
    let inner_len = pkt.len();
    let tango = TangoRepr {
        flags,
        path_id: tunnel.id,
        inner_proto: inner_proto_override.unwrap_or_else(|| inner_proto_of(pkt.bytes())),
        sequence,
        timestamp_ns,
    };
    let tag_len = if key.is_some() { TANGO_AUTH_TAG_LEN } else { 0 };
    let udp = UdpRepr {
        src_port: tunnel.src_port,
        dst_port: TANGO_UDP_PORT,
        payload_len: TANGO_HEADER_LEN + inner_len + tag_len,
    };
    let ip = Ipv6Repr {
        src_addr: tunnel.local_endpoint,
        dst_addr: tunnel.remote_endpoint,
        next_header: 17,
        payload_len: udp.total_len(),
        hop_limit: 64,
        traffic_class: 0,
        flow_label: u32::from(tunnel.id) + 1,
    };
    if key.is_some() {
        // Room for the tag, written in the checksum pass below.
        pkt.append(&[0; TANGO_AUTH_TAG_LEN]);
    }
    let bytes = pkt.prepend(ENCAP_OVERHEAD);
    let mut ip_pkt = Ipv6Packet::new_unchecked(bytes);
    ip.emit(&mut ip_pkt).expect("sized buffer");
    let mut udp_pkt = UdpPacket::new_unchecked(ip_pkt.payload_mut());
    udp.emit(&mut udp_pkt).expect("sized buffer");
    tango
        .emit(&mut TangoPacket::new_unchecked(udp_pkt.payload_mut()))
        .expect("sized buffer");
    // One pass over the datagram: the tag is computed over header +
    // inner by the kernel that sums the same bytes for the checksum.
    udp_pkt.fill_checksum_v6_with(
        tunnel.local_endpoint,
        tunnel.remote_endpoint,
        |payload, sum| match key {
            Some(key) => {
                let (covered, trailer) = payload.split_at_mut(TANGO_HEADER_LEN + inner_len);
                trailer.copy_from_slice(&siphash24_summing(key, covered, sum).to_be_bytes());
                sum.add(trailer);
            }
            None => sum.add(payload),
        },
    );
}

/// What [`decapsulate`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decapsulated {
    /// The parsed Tango header.
    pub tango: TangoRepr,
    /// The inner packet (empty for probes).
    pub inner: Vec<u8>,
    /// The outer source address (which remote tunnel endpoint sent it).
    pub outer_src: std::net::Ipv6Addr,
    /// The outer destination (which of our tunnel endpoints it hit).
    pub outer_dst: std::net::Ipv6Addr,
}

/// Receiver-side program: validate and strip the encapsulation.
///
/// Validation order is security-relevant: checksum *before* trusting the
/// timestamp, authentication *before* semantics, magic/version before
/// attributing to a path. A packet that fails any check yields an error
/// and must be counted, not measured.
///
/// Equivalent to [`decapsulate_with`]`(bytes, None, false)` — no
/// authentication is enforced (tags on AUTH-flagged packets are stripped
/// unverified).
pub fn decapsulate(bytes: &[u8]) -> Result<Decapsulated, CodecError> {
    decapsulate_with(bytes, None, false)
}

/// [`decapsulate`] with §6 authenticated-telemetry enforcement.
///
/// * `key = Some(..)`: AUTH-flagged packets have their SipHash-2-4
///   trailer verified; forged or truncated tags yield
///   [`CodecError::Auth`].
/// * `require_auth = true`: packets *without* the AUTH flag are also
///   rejected — an on-path attacker cannot bypass verification by
///   clearing the flag. Without a key, AUTH-flagged packets are rejected
///   too: a tag that cannot be checked is not trusted.
///
/// The UDP checksum and the tag are computed in one pass over the
/// covered bytes; the verdict order (checksum, Tango header, auth) is
/// that of two separate passes.
pub fn decapsulate_with(
    bytes: &[u8],
    key: Option<&SipKey>,
    require_auth: bool,
) -> Result<Decapsulated, CodecError> {
    let (tango, outer_src, outer_dst, inner) = parse_outer(bytes, key, require_auth)?;
    // tango-lint: allow(hot-path-panic) parse_outer validated the range against bytes.len()
    Ok(Decapsulated {
        tango,
        inner: bytes[inner].to_vec(),
        outer_src,
        outer_dst,
    })
}

/// What [`decapsulate_in_place`] returns: everything [`Decapsulated`]
/// carries except the inner bytes, which stay in the packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecapInfo {
    /// The parsed Tango header.
    pub tango: TangoRepr,
    /// The outer source address (which remote tunnel endpoint sent it).
    pub outer_src: std::net::Ipv6Addr,
    /// The outer destination (which of our tunnel endpoints it hit).
    pub outer_dst: std::net::Ipv6Addr,
}

/// [`decapsulate_with`] without the inner-packet copy: on success the
/// encapsulation (and any auth trailer) is stripped *in place* and `pkt`
/// becomes the inner packet — the stripped outer headers become headroom
/// for a later re-encapsulation. On error the packet is untouched.
///
/// Validation (checksum, auth, inner-proto consistency) is identical to
/// the copying API.
pub fn decapsulate_in_place(
    pkt: &mut Packet,
    key: Option<&SipKey>,
    require_auth: bool,
) -> Result<DecapInfo, CodecError> {
    let (tango, outer_src, outer_dst, inner) = parse_outer(pkt.bytes(), key, require_auth)?;
    pkt.truncate(inner.end);
    pkt.strip_front(inner.start);
    Ok(DecapInfo {
        tango,
        outer_src,
        outer_dst,
    })
}

/// The shared validation path: parse and verify the outer headers, the
/// Tango header, and (when flagged) the auth trailer; return the parsed
/// header, outer addresses, and the byte range of the inner packet
/// within `bytes`.
fn parse_outer(
    bytes: &[u8],
    key: Option<&SipKey>,
    require_auth: bool,
) -> Result<
    (
        TangoRepr,
        std::net::Ipv6Addr,
        std::net::Ipv6Addr,
        core::ops::Range<usize>,
    ),
    CodecError,
> {
    let ip = Ipv6Packet::new_checked(bytes).map_err(|_| CodecError::OuterIp)?;
    if ip.next_header() != 17 {
        return Err(CodecError::NotTangoUdp);
    }
    let src = ip.src_addr();
    let dst = ip.dst_addr();
    let udp = UdpPacket::new_checked(ip.payload()).map_err(|_| CodecError::NotTangoUdp)?;
    if udp.dst_port() != TANGO_UDP_PORT {
        return Err(CodecError::NotTangoUdp);
    }
    let payload = udp.payload();
    // An AUTH-flagged packet long enough to carry a tag, with a key to
    // check it, has its tag computed in the checksum pass: one read of
    // the covered bytes feeds both. The verdicts below keep their order
    // either way, since the datagram sum is complete in both branches.
    let fused_key = key.filter(|_| {
        payload.len() >= TANGO_HEADER_LEN + TANGO_AUTH_TAG_LEN
            && TangoPacket::new_unchecked(payload).flags().has_auth()
    });
    let mut computed_tag = None;
    let checksum_ok = match fused_key {
        Some(key) => udp.verify_checksum_v6_with(src, dst, |payload, sum| {
            let (covered, trailer) = payload.split_at(payload.len() - TANGO_AUTH_TAG_LEN);
            computed_tag = Some(siphash24_summing(key, covered, sum));
            sum.add(trailer);
        }),
        None => udp.verify_checksum_v6(src, dst),
    };
    if !checksum_ok {
        return Err(CodecError::Checksum);
    }
    let tango_pkt = TangoPacket::new_checked(payload).map_err(|_| CodecError::TangoHeader)?;
    let tango = TangoRepr::parse(&tango_pkt).map_err(|_| CodecError::TangoHeader)?;
    if require_auth && !tango.flags.has_auth() {
        return Err(CodecError::Auth);
    }
    let inner_end = if tango.flags.has_auth() {
        if payload.len() < TANGO_HEADER_LEN + TANGO_AUTH_TAG_LEN {
            return Err(CodecError::Auth);
        }
        let (covered, trailer) = payload.split_at(payload.len() - TANGO_AUTH_TAG_LEN);
        // Flagged and long enough: the tag was computed above exactly
        // when a key is set.
        match computed_tag {
            Some(tag) => {
                let sent: [u8; TANGO_AUTH_TAG_LEN] =
                    trailer.try_into().map_err(|_| CodecError::Auth)?;
                if !tags_equal(tag, u64::from_be_bytes(sent)) {
                    return Err(CodecError::Auth);
                }
            }
            // Authentication is mandatory but there is no key to check
            // the tag with: fail closed.
            None if require_auth => return Err(CodecError::Auth),
            None => {}
        }
        covered.len()
    } else {
        payload.len()
    };
    // tango-lint: allow(hot-path-panic) TangoPacket::new_checked proved TANGO_HEADER_LEN bytes; inner_end <= payload.len()
    let inner = &payload[TANGO_HEADER_LEN..inner_end];
    match tango.inner_proto {
        0 => {
            if !inner.is_empty() {
                return Err(CodecError::Inner);
            }
        }
        41 => {
            if inner.first().map(|b| b >> 4) != Some(6) {
                return Err(CodecError::Inner);
            }
        }
        INNER_PROTO_REPORT => {
            if inner.is_empty() {
                return Err(CodecError::Inner);
            }
        }
        _ => return Err(CodecError::Inner),
    }
    // No IPv6 extension headers on the outer header, so the UDP payload
    // sits at the fixed wire offset TANGO_OFF and udp-payload-relative
    // bounds translate by that constant.
    Ok((
        tango,
        src,
        dst,
        TANGO_OFF + TANGO_HEADER_LEN..TANGO_OFF + inner_end,
    ))
}

/// Is this packet addressed to a Tango tunnel endpoint (fast classifier —
/// the first check a switch applies to network-side arrivals)?
pub fn looks_like_tango(bytes: &[u8]) -> bool {
    let Ok(ip) = Ipv6Packet::new_checked(bytes) else {
        return false;
    };
    if ip.next_header() != 17 {
        return false;
    }
    match UdpPacket::new_checked(ip.payload()) {
        Ok(udp) => udp.dst_port() == TANGO_UDP_PORT,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_net::Ipv6Cidr;

    fn tunnel() -> Tunnel {
        Tunnel::from_prefixes(
            3,
            "GTT",
            "2001:db8:103::/48".parse::<Ipv6Cidr>().unwrap(),
            "2001:db8:203::/48".parse::<Ipv6Cidr>().unwrap(),
        )
    }

    fn inner_v6() -> Vec<u8> {
        let src = "2001:db8:a::1".parse().unwrap();
        let mut pkt = Packet::host(src, "2001:db8:b::1".parse().unwrap(), 3, 0, 0);
        Ipv6Packet::new_unchecked(pkt.bytes_mut())
            .payload_mut()
            .copy_from_slice(b"app");
        pkt.into_buffer()
    }

    #[test]
    fn encap_decap_roundtrip() {
        let t = tunnel();
        let inner = inner_v6();
        let wire = encapsulate(&t, &inner, 42, 1_234_567);
        let d = decapsulate(&wire).unwrap();
        assert_eq!(d.tango.path_id, 3);
        assert_eq!(d.tango.sequence, 42);
        assert_eq!(d.tango.timestamp_ns, 1_234_567);
        assert_eq!(d.tango.inner_proto, 41);
        assert!(!d.tango.flags.is_probe());
        assert_eq!(d.inner, inner);
        assert_eq!(d.outer_src, t.local_endpoint);
        assert_eq!(d.outer_dst, t.remote_endpoint);
    }

    #[test]
    fn probe_roundtrip() {
        let t = tunnel();
        let wire = probe_packet(&t, 7, 99);
        let d = decapsulate(&wire).unwrap();
        assert!(d.tango.flags.is_probe());
        assert_eq!(d.tango.inner_proto, 0);
        assert!(d.inner.is_empty());
    }

    #[test]
    fn every_single_byte_corruption_is_caught_or_harmless() {
        // Flip each byte of the wire packet: decapsulation must never
        // yield a *different* accepted measurement. Flips in fields the
        // UDP checksum does not cover (outer traffic class, flow label,
        // hop limit) are accepted but measurement-identical; everything
        // that could distort a sample (addresses, ports, Tango header,
        // inner bytes) must be rejected.
        let t = tunnel();
        let inner = inner_v6();
        let wire = encapsulate(&t, &inner, 42, 1_234_567);
        let reference = decapsulate(&wire).unwrap();
        for i in 0..wire.len() {
            let mut corrupt = wire.clone();
            corrupt[i] ^= 0x01;
            match decapsulate(&corrupt) {
                Err(_) => {}
                Ok(d) => {
                    assert_eq!(
                        d, reference,
                        "byte {i}: accepted corruption altered the measurement"
                    );
                    // Only checksum-uncovered outer-header bytes may pass.
                    assert!(
                        i < 8,
                        "byte {i} is checksum-covered yet corruption was accepted"
                    );
                }
            }
        }
        assert_eq!(decapsulate(&wire).unwrap(), reference);
    }

    #[test]
    fn rejects_non_tango_udp() {
        let t = tunnel();
        let mut wire = encapsulate(&t, &[], 1, 1);
        // Rewrite the UDP dst port and fix the checksum so only the port
        // check can reject it.
        {
            let (src, dst) = {
                let p = Ipv6Packet::new_checked(&wire[..]).unwrap();
                (p.src_addr(), p.dst_addr())
            };
            let mut ip = Ipv6Packet::new_unchecked(&mut wire[..]);
            let mut udp = UdpPacket::new_unchecked(ip.payload_mut());
            udp.set_dst_port(5353);
            udp.fill_checksum_v6(src, dst);
        }
        assert_eq!(decapsulate(&wire), Err(CodecError::NotTangoUdp));
        assert!(!looks_like_tango(&wire));
    }

    #[test]
    fn rejects_truncated_everything() {
        let t = tunnel();
        let wire = encapsulate(&t, &inner_v6(), 1, 1);
        for cut in 0..wire.len() {
            assert!(decapsulate(&wire[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_inner_proto_mismatch() {
        let t = tunnel();
        // Claim the retired IPv4 code 4, over IPv6 bytes and over an IPv4
        // version nibble alike: build manually.
        for first in [None, Some(0x45)] {
            let inner = inner_v6();
            let mut wire = encapsulate(&t, &inner, 1, 1);
            // Tango header starts at 40 (IPv6) + 8 (UDP); inner_proto at +6.
            wire[40 + 8 + 6] = 0;
            wire[40 + 8 + 7] = 4;
            if let Some(b) = first {
                wire[40 + 8 + TANGO_HEADER_LEN] = b;
            }
            // Fix the UDP checksum for the modified bytes.
            let (src, dst) = (t.local_endpoint, t.remote_endpoint);
            let mut ip = Ipv6Packet::new_unchecked(&mut wire[..]);
            let mut udp = UdpPacket::new_unchecked(ip.payload_mut());
            udp.fill_checksum_v6(src, dst);
            assert_eq!(decapsulate(&wire), Err(CodecError::Inner));
        }
    }

    #[test]
    fn classifier_matches_tango_only() {
        let t = tunnel();
        assert!(looks_like_tango(&encapsulate(&t, &inner_v6(), 1, 1)));
        assert!(looks_like_tango(&probe_packet(&t, 1, 1)));
        assert!(!looks_like_tango(&inner_v6())); // plain UDP, wrong port? no UDP at all
        assert!(!looks_like_tango(&[0x45, 0, 0, 0]));
        assert!(!looks_like_tango(&[]));
    }

    #[test]
    fn auth_roundtrip_and_forgery_rejection() {
        let t = tunnel();
        let key = SipKey::from_words(0x1111, 0x2222);
        let inner = inner_v6();
        let wire = encapsulate_auth(&t, &inner, 9, 777, &key);
        // Verifying receiver accepts and recovers the inner packet.
        let d = decapsulate_with(&wire, Some(&key), true).unwrap();
        assert!(d.tango.flags.has_auth());
        assert_eq!(d.inner, inner);
        // Wrong key: rejected.
        let bad = SipKey::from_words(0x1111, 0x2223);
        assert_eq!(
            decapsulate_with(&wire, Some(&bad), true),
            Err(CodecError::Auth)
        );
        // Non-verifying receiver still strips the tag correctly.
        let d = decapsulate(&wire).unwrap();
        assert_eq!(d.inner, inner);
    }

    #[test]
    fn require_auth_rejects_unauthenticated_packets() {
        let t = tunnel();
        let key = SipKey::from_words(1, 2);
        let plain = encapsulate(&t, &inner_v6(), 1, 1);
        assert_eq!(
            decapsulate_with(&plain, Some(&key), true),
            Err(CodecError::Auth)
        );
        // ...but is fine when auth is optional.
        assert!(decapsulate_with(&plain, Some(&key), false).is_ok());
    }

    #[test]
    fn auth_catches_checksum_fixed_tampering() {
        // The attack the plain checksum cannot stop (§6): rewrite the
        // timestamp to fake a lower delay AND fix the UDP checksum.
        let t = tunnel();
        let key = SipKey::from_words(7, 8);
        let mut wire = probe_packet_auth(&t, 5, 1_000_000, &key);
        wire[40 + 8 + 12..40 + 8 + 20].copy_from_slice(&42u64.to_be_bytes());
        let (src, dst) = (t.local_endpoint, t.remote_endpoint);
        let mut ip = Ipv6Packet::new_unchecked(&mut wire[..]);
        let mut udp = UdpPacket::new_unchecked(ip.payload_mut());
        udp.fill_checksum_v6(src, dst);
        // Checksum now verifies — but the SipHash tag does not.
        assert_eq!(
            decapsulate_with(&wire, Some(&key), true),
            Err(CodecError::Auth)
        );
    }

    #[test]
    fn auth_flag_stripping_attack_fails() {
        // An attacker clears the AUTH flag (and fixes the checksum) to
        // bypass verification: require_auth rejects the packet.
        let t = tunnel();
        let key = SipKey::from_words(3, 4);
        let mut wire = probe_packet_auth(&t, 5, 1_000_000, &key);
        wire[40 + 8 + 3] &= !TangoFlags::AUTH;
        let (src, dst) = (t.local_endpoint, t.remote_endpoint);
        let mut ip = Ipv6Packet::new_unchecked(&mut wire[..]);
        let mut udp = UdpPacket::new_unchecked(ip.payload_mut());
        udp.fill_checksum_v6(src, dst);
        assert_eq!(
            decapsulate_with(&wire, Some(&key), true),
            Err(CodecError::Auth)
        );
    }

    #[test]
    fn truncated_auth_tag_rejected() {
        let t = tunnel();
        let key = SipKey::from_words(5, 6);
        let wire = probe_packet_auth(&t, 1, 1, &key);
        // Reconstruct a packet whose UDP payload is only the header (tag
        // missing) but whose AUTH flag is set.
        let plain = probe_packet(&t, 1, 1);
        let mut forged = plain.clone();
        forged[40 + 8 + 3] |= TangoFlags::AUTH;
        let (src, dst) = (t.local_endpoint, t.remote_endpoint);
        let mut ip = Ipv6Packet::new_unchecked(&mut forged[..]);
        let mut udp = UdpPacket::new_unchecked(ip.payload_mut());
        udp.fill_checksum_v6(src, dst);
        assert_eq!(
            decapsulate_with(&forged, Some(&key), true),
            Err(CodecError::Auth)
        );
        let _ = wire;
    }

    #[test]
    fn require_auth_without_a_key_fails_closed() {
        let t = tunnel();
        let key = SipKey::from_words(0x1111, 0x2222);
        let genuine = encapsulate_auth(&t, &inner_v6(), 9, 777, &key);
        // Forge the tag and fix the checksum, so only the tag is wrong.
        let mut forged = genuine.clone();
        let last = forged.len() - 1;
        forged[last] ^= 0xff;
        let (src, dst) = (t.local_endpoint, t.remote_endpoint);
        let mut ip = Ipv6Packet::new_unchecked(&mut forged[..]);
        UdpPacket::new_unchecked(ip.payload_mut()).fill_checksum_v6(src, dst);
        for wire in [&genuine, &forged] {
            assert_eq!(decapsulate_with(wire, None, true), Err(CodecError::Auth));
            let mut pkt = Packet::new(wire.clone());
            assert_eq!(
                decapsulate_in_place(&mut pkt, None, true),
                Err(CodecError::Auth)
            );
            assert_eq!(pkt.bytes(), &wire[..]);
            // Auth optional and no key: the tag is stripped unverified.
            assert!(decapsulate_with(wire, None, false).is_ok());
        }
        assert_eq!(
            decapsulate_with(&forged, Some(&key), true),
            Err(CodecError::Auth)
        );
    }

    #[test]
    fn report_packet_roundtrip() {
        let t = tunnel();
        let payload = vec![1u8, 2, 3, 4, 5];
        let wire = report_packet(&t, 3, 99, &payload, None);
        let d = decapsulate(&wire).unwrap();
        assert!(d.tango.flags.is_report());
        assert_eq!(d.tango.inner_proto, INNER_PROTO_REPORT);
        assert_eq!(d.inner, payload);
        // Authenticated report too.
        let key = SipKey::from_words(9, 9);
        let wire = report_packet(&t, 4, 100, &payload, Some(&key));
        let d = decapsulate_with(&wire, Some(&key), true).unwrap();
        assert_eq!(d.inner, payload);
    }

    #[test]
    fn fixed_five_tuple_across_packets() {
        // The ECMP-pinning property: any two packets on the same tunnel
        // present identical outer 5-tuples.
        let t = tunnel();
        let w1 = encapsulate(&t, &inner_v6(), 1, 100);
        let w2 = probe_packet(&t, 2, 200);
        let five_tuple = |w: &[u8]| {
            let ip = Ipv6Packet::new_checked(w).unwrap();
            let udp = UdpPacket::new_checked(ip.payload()).unwrap();
            (
                ip.src_addr(),
                ip.dst_addr(),
                ip.next_header(),
                udp.src_port(),
                udp.dst_port(),
            )
        };
        assert_eq!(five_tuple(&w1), five_tuple(&w2));
    }
}
