//! Property-based tests for the zero-copy codec paths: the in-place
//! encap/decap must be byte-for-byte interchangeable with the
//! `Vec`-returning builders on every input, and the one-pass
//! authenticated decap must reach the verdict of separate checksum and
//! SipHash passes on every mutation of an authenticated packet. The
//! in-band measurement report parser takes arbitrary bytes without
//! panicking and round-trips every report it can encode.

use proptest::prelude::*;
use tango_dataplane::codec::{self, CodecError};
use tango_dataplane::report::REPORT_VERSION;
use tango_dataplane::{MeasurementReport, PathRecord, ReportError, Tunnel};
use tango_net::siphash::{siphash24, SipKey};
use tango_net::{Ipv6Packet, TangoFlags, TangoPacket, TangoRepr, UdpPacket, TANGO_HEADER_LEN};
use tango_sim::Packet;

/// Wire offset of the Tango header: outer IPv6 (40 B) + UDP (8 B).
const TANGO_OFF: usize = 48;

fn arb_tunnel() -> impl Strategy<Value = Tunnel> {
    (any::<u16>(), any::<u128>(), any::<u128>()).prop_map(|(id, local, remote)| Tunnel {
        id,
        label: format!("path-{id}"),
        local_endpoint: local.into(),
        remote_endpoint: remote.into(),
        src_port: 49_152_u16.wrapping_add(id),
    })
}

fn arb_inner() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..1400)
}

fn arb_key() -> impl Strategy<Value = Option<SipKey>> {
    proptest::option::of((any::<u64>(), any::<u64>()).prop_map(|(a, b)| SipKey::from_words(a, b)))
}

/// Inner payloads the receiver accepts: empty (probe), or leading with
/// the IPv6 version nibble. (Anything else is rejected at decap as
/// inconsistent with the advertised inner protocol.)
fn arb_valid_inner(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len).prop_map(|mut bytes| {
        if let Some(first) = bytes.first_mut() {
            *first = 0x60 | (*first & 0x0f);
        }
        bytes
    })
}

proptest! {
    /// The headroom (zero-copy) path emits the exact wire image of the
    /// copying builders, auth or not.
    #[test]
    fn in_place_encap_matches_vec_builder(
        tunnel in arb_tunnel(),
        inner in arb_inner(),
        seq in any::<u32>(),
        ts in any::<u64>(),
        key in arb_key(),
    ) {
        let expected = match &key {
            Some(k) => codec::encapsulate_auth(&tunnel, &inner, seq, ts, k),
            None => codec::encapsulate(&tunnel, &inner, seq, ts),
        };
        let mut pkt = Packet::with_headroom(codec::ENCAP_OVERHEAD, &inner);
        codec::encapsulate_in_place(&tunnel, &mut pkt, seq, ts, key.as_ref());
        prop_assert_eq!(pkt.bytes(), &expected[..]);
        prop_assert_eq!(pkt.headroom(), 0);
    }

    /// Without headroom the copying fallback kicks in — the wire image
    /// is still identical.
    #[test]
    fn no_headroom_fallback_matches_vec_builder(
        tunnel in arb_tunnel(),
        inner in arb_inner(),
        seq in any::<u32>(),
        ts in any::<u64>(),
        key in arb_key(),
        headroom in 0usize..codec::ENCAP_OVERHEAD,
    ) {
        let expected = match &key {
            Some(k) => codec::encapsulate_auth(&tunnel, &inner, seq, ts, k),
            None => codec::encapsulate(&tunnel, &inner, seq, ts),
        };
        let mut pkt = Packet::with_headroom(headroom, &inner);
        codec::encapsulate_in_place(&tunnel, &mut pkt, seq, ts, key.as_ref());
        prop_assert_eq!(pkt.bytes(), &expected[..]);
    }

    /// In-place probe and report builders match theirs too.
    #[test]
    fn in_place_probe_and_report_match_vec_builders(
        tunnel in arb_tunnel(),
        report in proptest::collection::vec(any::<u8>(), 0..256),
        seq in any::<u32>(),
        ts in any::<u64>(),
        key in arb_key(),
    ) {
        let expected_probe = match &key {
            Some(k) => codec::probe_packet_auth(&tunnel, seq, ts, k),
            None => codec::probe_packet(&tunnel, seq, ts),
        };
        let mut probe = Packet::alloc(codec::ENCAP_OVERHEAD, 0);
        codec::probe_packet_in_place(&tunnel, &mut probe, seq, ts, key.as_ref());
        prop_assert_eq!(probe.bytes(), &expected_probe[..]);

        let expected_report = codec::report_packet(&tunnel, seq, ts, &report, key.as_ref());
        let mut rpt = Packet::with_headroom(codec::ENCAP_OVERHEAD, &report);
        codec::report_packet_in_place(&tunnel, &mut rpt, seq, ts, key.as_ref());
        prop_assert_eq!(rpt.bytes(), &expected_report[..]);
    }

    /// Round trip: in-place encap then in-place decap strips back to the
    /// original inner bytes with the header fields intact, and agrees
    /// with the allocating `decapsulate_with` on the same wire image.
    #[test]
    fn in_place_roundtrip_recovers_inner(
        tunnel in arb_tunnel(),
        inner in arb_valid_inner(1400),
        seq in any::<u32>(),
        ts in any::<u64>(),
        key in arb_key(),
    ) {
        let mut pkt = Packet::with_headroom(codec::ENCAP_OVERHEAD, &inner);
        codec::encapsulate_in_place(&tunnel, &mut pkt, seq, ts, key.as_ref());

        let d = codec::decapsulate_with(pkt.bytes(), key.as_ref(), key.is_some()).unwrap();
        let info = codec::decapsulate_in_place(&mut pkt, key.as_ref(), key.is_some()).unwrap();
        prop_assert_eq!(pkt.bytes(), &inner[..]);
        prop_assert_eq!(&d.inner[..], &inner[..]);
        prop_assert_eq!(info.tango.sequence, seq);
        prop_assert_eq!(info.tango.timestamp_ns, ts);
        prop_assert_eq!(info.tango.path_id, tunnel.id);
        prop_assert_eq!(info.tango, d.tango);
        prop_assert_eq!(info.outer_src, tunnel.local_endpoint);
        prop_assert_eq!(info.outer_dst, tunnel.remote_endpoint);
    }

    /// A failed decap (wrong key, mandatory auth) leaves the packet
    /// untouched so the caller can still count/trace the wire bytes.
    #[test]
    fn failed_in_place_decap_leaves_packet_intact(
        tunnel in arb_tunnel(),
        inner in arb_inner(),
        seq in any::<u32>(),
        ts in any::<u64>(),
        k1 in any::<u64>(),
        k2 in any::<u64>(),
    ) {
        let key = SipKey::from_words(k1, k2);
        let wrong = SipKey::from_words(k1 ^ 1, k2);
        let mut pkt = Packet::with_headroom(codec::ENCAP_OVERHEAD, &inner);
        codec::encapsulate_in_place(&tunnel, &mut pkt, seq, ts, Some(&key));
        let wire = pkt.bytes().to_vec();
        prop_assert!(codec::decapsulate_in_place(&mut pkt, Some(&wrong), true).is_err());
        prop_assert_eq!(pkt.bytes(), &wire[..]);
    }
}

/// The in-place builder sums the datagram in one pass with the tag; the
/// copying builder tags first and checksums the datagram after. Every
/// inner length up to 64 and around 1 200 B, so both parities of the
/// covered range and the tag at an odd offset are exercised.
#[test]
fn in_place_auth_encap_matches_two_pass_builder_at_every_length() {
    let tunnel = Tunnel {
        id: 7,
        label: "path-7".to_string(),
        local_endpoint: "2001:db8:107::1".parse().unwrap(),
        remote_endpoint: "2001:db8:207::1".parse().unwrap(),
        src_port: 49_159,
    };
    let key = SipKey::from_words(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
    for len in (0..=64).chain(1199..=1201) {
        let inner: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
        let expected = codec::encapsulate_auth(&tunnel, &inner, 3, 5, &key);
        let mut pkt = Packet::with_headroom(codec::ENCAP_OVERHEAD, &inner);
        codec::encapsulate_in_place(&tunnel, &mut pkt, 3, 5, Some(&key));
        assert_eq!(pkt.bytes(), &expected[..], "inner length {len}");
    }
}

/// What a decap accepted: the header and the inner bytes.
type Verdict = Result<(TangoRepr, Vec<u8>), CodecError>;

/// The two-pass reference: the plain UDP checksum, then the Tango
/// header, then a separate SipHash pass over the covered bytes, then the
/// inner-protocol check — the receiver spelled out step by step.
fn two_pass_decap(bytes: &[u8], key: Option<&SipKey>, require_auth: bool) -> Verdict {
    let ip = Ipv6Packet::new_checked(bytes).map_err(|_| CodecError::OuterIp)?;
    if ip.next_header() != 17 {
        return Err(CodecError::NotTangoUdp);
    }
    let udp = UdpPacket::new_checked(ip.payload()).map_err(|_| CodecError::NotTangoUdp)?;
    if udp.dst_port() != tango_net::TANGO_UDP_PORT {
        return Err(CodecError::NotTangoUdp);
    }
    if !udp.verify_checksum_v6(ip.src_addr(), ip.dst_addr()) {
        return Err(CodecError::Checksum);
    }
    let payload = udp.payload();
    let tango_pkt = TangoPacket::new_checked(payload).map_err(|_| CodecError::TangoHeader)?;
    let tango = TangoRepr::parse(&tango_pkt).map_err(|_| CodecError::TangoHeader)?;
    let auth = tango.flags.has_auth();
    if require_auth && !auth {
        return Err(CodecError::Auth);
    }
    let mut inner = &payload[TANGO_HEADER_LEN..];
    if auth {
        if payload.len() < TANGO_HEADER_LEN + codec::TANGO_AUTH_TAG_LEN {
            return Err(CodecError::Auth);
        }
        let (covered, tag) = payload.split_at(payload.len() - codec::TANGO_AUTH_TAG_LEN);
        let forged = |key| siphash24(key, covered) != u64::from_be_bytes(tag.try_into().unwrap());
        match key {
            Some(key) if forged(key) => return Err(CodecError::Auth),
            None if require_auth => return Err(CodecError::Auth),
            _ => {}
        }
        inner = &covered[TANGO_HEADER_LEN..];
    }
    let consistent = match tango.inner_proto {
        0 => inner.is_empty(),
        41 => inner.first().map(|b| b >> 4) == Some(6),
        codec::INNER_PROTO_REPORT => !inner.is_empty(),
        _ => false,
    };
    if !consistent {
        return Err(CodecError::Inner);
    }
    Ok((tango, inner.to_vec()))
}

/// Recompute the outer UDP checksum of a full wire image after an edit.
fn refix_checksum(wire: &mut [u8]) {
    let mut ip = Ipv6Packet::new_unchecked(wire);
    let (src, dst) = (ip.src_addr(), ip.dst_addr());
    UdpPacket::new_unchecked(ip.payload_mut()).fill_checksum_v6(src, dst);
}

/// Every receiver configuration must agree with the reference on `wire`.
fn agrees_with_two_pass(wire: &[u8], key: &SipKey, what: &str) -> Result<(), String> {
    let wrong = SipKey::from_words(0x5eed, 0xfeed);
    for (key, require_auth) in [
        (Some(key), true),
        (Some(key), false),
        (Some(&wrong), true),
        (None, true),
        (None, false),
    ] {
        let fused: Verdict =
            codec::decapsulate_with(wire, key, require_auth).map(|d| (d.tango, d.inner));
        prop_assert_eq!(
            fused,
            two_pass_decap(wire, key, require_auth),
            "{} (key {}, require_auth {})",
            what,
            key.is_some(),
            require_auth
        );
    }
    Ok(())
}

proptest! {
    /// The one-pass authenticated decap returns the two-pass verdict on
    /// every single-byte flip, every truncation, the AUTH flag cleared
    /// (checksum left stale or fixed up) and every tag byte flipped
    /// behind a fixed-up checksum.
    #[test]
    fn fused_auth_decap_matches_two_pass_reference(
        tunnel in arb_tunnel(),
        inner in arb_valid_inner(160),
        seq in any::<u32>(),
        ts in any::<u64>(),
        (k0, k1) in (any::<u64>(), any::<u64>()),
        mask in 1u8..=255,
    ) {
        let key = SipKey::from_words(k0, k1);
        let wire = codec::encapsulate_auth(&tunnel, &inner, seq, ts, &key);
        agrees_with_two_pass(&wire, &key, "intact")?;
        for i in 0..wire.len() {
            let mut flipped = wire.clone();
            flipped[i] ^= mask;
            agrees_with_two_pass(&flipped, &key, &format!("byte {i} ^ {mask:#04x}"))?;
        }
        for cut in 0..wire.len() {
            agrees_with_two_pass(&wire[..cut], &key, &format!("cut at {cut}"))?;
        }
        let mut cleared = wire.clone();
        cleared[TANGO_OFF + 3] &= !TangoFlags::AUTH;
        agrees_with_two_pass(&cleared, &key, "AUTH cleared")?;
        refix_checksum(&mut cleared);
        agrees_with_two_pass(&cleared, &key, "AUTH cleared, checksum fixed")?;
        for i in wire.len() - codec::TANGO_AUTH_TAG_LEN..wire.len() {
            let mut forged = wire.clone();
            forged[i] ^= mask;
            refix_checksum(&mut forged);
            agrees_with_two_pass(&forged, &key, &format!("tag byte {i} forged"))?;
        }
    }
}

/// Wire bytes of one report record (see `tango_dataplane::report`).
const REPORT_RECORD_LEN: usize = 2 + 8 + 8 + 8 + 4 + 8;

/// Arbitrary bytes, half of them shaped to get past the version check
/// (version byte fixed) and a quarter also declaring exactly the records
/// they hold, so every decode outcome is drawn.
fn arb_report_bytes() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(any::<u8>(), 0..256), 0u8..4).prop_map(|(mut bytes, shape)| {
        if shape >= 2 && !bytes.is_empty() {
            bytes[0] = REPORT_VERSION;
        }
        if shape == 3 && bytes.len() >= 2 {
            bytes[1] = ((bytes.len() - 2) / REPORT_RECORD_LEN) as u8;
        }
        bytes
    })
}

fn arb_record() -> impl Strategy<Value = PathRecord> {
    (
        any::<u16>(),
        any::<u64>(),
        any::<i64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(
            |(path_id, samples, owd_ewma_ns, jitter_ns, loss_ppm, staleness_ns)| PathRecord {
                path_id,
                samples,
                owd_ewma_ns,
                jitter_ns,
                loss_ppm,
                staleness_ns,
            },
        )
}

proptest! {
    /// `report_from_sink` output crosses the wide area and is parsed by
    /// the peer: 0..256 hostile bytes decode to a report whose encoding
    /// is exactly the bytes its header declares, or fail with the typed
    /// error the bytes call for — never a panic.
    #[test]
    fn hostile_report_bytes_decode_or_fail_typed(bytes in arb_report_bytes()) {
        let declared = bytes.get(1).map(|&n| 2 + usize::from(n) * REPORT_RECORD_LEN);
        let version_ok = bytes.first() == Some(&REPORT_VERSION);
        match MeasurementReport::decode(&bytes) {
            Ok(report) => {
                let len = declared.expect("a decoded report has a header");
                prop_assert!(version_ok && bytes.len() >= len);
                prop_assert_eq!(report.encode(), &bytes[..len]);
            }
            Err(ReportError::Version) => prop_assert!(declared.is_some() && !version_ok),
            Err(ReportError::Truncated) => prop_assert!(
                declared.map_or(true, |len| version_ok && bytes.len() < len)
            ),
        }
    }

    /// Every report survives encode → decode, truncated to the 255
    /// records a count byte can declare.
    #[test]
    fn report_encode_decode_roundtrip(
        records in proptest::collection::vec(arb_record(), 0..300),
    ) {
        let report = MeasurementReport { records };
        let decoded = MeasurementReport::decode(&report.encode());
        let kept = report.records.len().min(255);
        prop_assert_eq!(
            decoded,
            Ok(MeasurementReport { records: report.records[..kept].to_vec() })
        );
    }
}
