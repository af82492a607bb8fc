//! Property-based tests for the wire formats and the prefix trie.

use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use tango_net::{
    IpCidr, Ipv4Cidr, Ipv6Cidr, Ipv6Packet, Ipv6Repr, PrefixTrie, TangoFlags, TangoPacket,
    TangoRepr, UdpPacket, UdpRepr, TANGO_HEADER_LEN, TANGO_MAGIC,
};

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_ipv6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

/// The top `len` bits of a `u128` set.
fn top_bits(len: u8) -> u128 {
    u128::MAX.checked_shl(128 - u32::from(len)).unwrap_or(0)
}

/// The prefix of `len` bits (clamped to the family's width) of the
/// address in the top bits of `bits`.
fn cidr_of(v6: bool, bits: u128, len: u8) -> IpCidr {
    if v6 {
        IpCidr::V6(Ipv6Cidr::new(Ipv6Addr::from(bits), len).unwrap())
    } else {
        IpCidr::V4(Ipv4Cidr::new(Ipv4Addr::from((bits >> 96) as u32), len.min(32)).unwrap())
    }
}

fn addr_of(v6: bool, bits: u128) -> IpAddr {
    if v6 {
        IpAddr::V6(Ipv6Addr::from(bits))
    } else {
        IpAddr::V4(Ipv4Addr::from((bits >> 96) as u32))
    }
}

/// The slow reference for [`PrefixTrie`]: a list, scanned. It is kept
/// in `IpCidr` order — IPv4 then IPv6, each by (network, length) — the
/// order `iter()` promises.
#[derive(Default)]
struct LinearLpm(Vec<(IpCidr, usize)>);

impl LinearLpm {
    fn insert(&mut self, c: IpCidr, v: usize) -> Option<usize> {
        match self.0.binary_search_by_key(&c, |e| e.0) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, v)),
            Err(at) => {
                self.0.insert(at, (c, v));
                None
            }
        }
    }

    fn remove(&mut self, c: &IpCidr) -> Option<usize> {
        let at = self.0.binary_search_by_key(c, |e| e.0).ok()?;
        Some(self.0.remove(at).1)
    }

    fn longest(&self, a: IpAddr) -> Option<(IpCidr, usize)> {
        let covering = self.0.iter().filter(|(p, _)| p.contains(a));
        covering.max_by_key(|(p, _)| p.prefix_len()).copied()
    }

    /// `len`, `is_empty`, `get` of every entry, and `iter()` match this
    /// model.
    fn agrees_with(&self, trie: &PrefixTrie<usize>) -> Result<(), String> {
        prop_assert_eq!(trie.len(), self.0.len());
        prop_assert_eq!(trie.is_empty(), self.0.is_empty());
        for (c, v) in &self.0 {
            prop_assert_eq!(trie.get(c), Some(v));
        }
        let got: Vec<_> = trie.iter().into_iter().map(|(c, v)| (c, *v)).collect();
        prop_assert_eq!(got, self.0);
        Ok(())
    }
}

/// Insert `prefixes` (value = position, last writer wins) and compare
/// every probe's longest match with the linear scan, and the value-only
/// `lookup` with the longest match.
fn check_longest_match(prefixes: Vec<IpCidr>, probes: Vec<IpAddr>) -> Result<(), String> {
    let mut trie = PrefixTrie::new();
    let mut model = LinearLpm::default();
    for (i, c) in prefixes.into_iter().enumerate() {
        prop_assert_eq!(trie.insert(c, i), model.insert(c, i));
    }
    model.agrees_with(&trie)?;
    for a in probes {
        prop_assert_eq!(
            trie.longest_match(a).map(|(p, v)| (p, *v)),
            model.longest(a)
        );
        prop_assert_eq!(trie.lookup(a), trie.longest_match(a).map(|(_, v)| v));
    }
    Ok(())
}

proptest! {
    #[test]
    fn hostile_bytes_parse_or_fail_typed(
        data in proptest::collection::vec(any::<u8>(), 0..128),
        forge in any::<bool>(),
    ) {
        // Whatever bytes arrive, each header's view and representation
        // parse them or return a typed error: no panic, no read past the
        // buffer. Random bytes almost never pass a view's first checks,
        // so `forge` makes the identifying fields plausible (version
        // nibble and a payload length that fits, a UDP length within the
        // buffer, Tango magic and version) and leaves every other byte
        // hostile.
        let len = data.len();
        let mut ip = data.clone();
        let mut udp = data.clone();
        let mut tango = data.clone();
        if forge && len >= 40 {
            ip[0] = 0x60 | (ip[0] & 0x0f);
            let payload = u16::from_be_bytes([ip[4], ip[5]]) % (len as u16 - 39);
            ip[4..6].copy_from_slice(&payload.to_be_bytes());
        }
        if forge && len >= 8 {
            let field = u16::from_be_bytes([udp[4], udp[5]]) % (len as u16 + 1);
            udp[4..6].copy_from_slice(&field.to_be_bytes());
        }
        if forge && len >= TANGO_HEADER_LEN {
            tango[..2].copy_from_slice(&TANGO_MAGIC.to_be_bytes());
            tango[2] = tango_net::tango_hdr::TANGO_VERSION;
        }
        // A view that checks out must also yield a representation.
        if let Ok(packet) = Ipv6Packet::new_checked(&ip[..]) {
            prop_assert!(Ipv6Repr::parse(&packet).is_ok());
        }
        if let Ok(packet) = UdpPacket::new_checked(&udp[..]) {
            prop_assert!(UdpRepr::parse(&packet).is_ok());
        }
        if let Ok(packet) = TangoPacket::new_checked(&tango[..]) {
            let _ = TangoRepr::parse(&packet);
        }
    }

    #[test]
    fn ipv6_emit_parse_roundtrip(
        src in arb_ipv6(),
        dst in arb_ipv6(),
        next_header in any::<u8>(),
        payload_len in 0usize..1400,
        hop_limit in any::<u8>(),
        traffic_class in any::<u8>(),
        flow_label in 0u32..=0x000f_ffff,
    ) {
        let repr = Ipv6Repr { src_addr: src, dst_addr: dst, next_header, payload_len, hop_limit, traffic_class, flow_label };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        let packet = Ipv6Packet::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(Ipv6Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn udp_v6_checksum_roundtrip(
        src in arb_ipv6(),
        dst in arb_ipv6(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let repr = UdpRepr { src_port, dst_port, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = UdpPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        p.payload_mut().copy_from_slice(&payload);
        p.fill_checksum_v6(src, dst);
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum_v6(src, dst));
        prop_assert_eq!(UdpRepr::parse(&packet).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    #[test]
    fn udp_v6_payload_flip_detected(
        src in arb_ipv6(),
        dst in arb_ipv6(),
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        flip_bit in 0usize..8,
        at in any::<proptest::sample::Index>(),
    ) {
        let repr = UdpRepr { src_port: 7, dst_port: 8, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = UdpPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        p.payload_mut().copy_from_slice(&payload);
        p.fill_checksum_v6(src, dst);
        let idx = 8 + at.index(payload.len());
        buf[idx] ^= 1 << flip_bit;
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        prop_assert!(!packet.verify_checksum_v6(src, dst));
    }

    #[test]
    fn tango_emit_parse_roundtrip(
        path_id in any::<u16>(),
        inner_proto in any::<u16>(),
        sequence in any::<u32>(),
        timestamp_ns in any::<u64>(),
        probe in any::<bool>(),
    ) {
        let flags = if probe { TangoFlags::probe() } else { TangoFlags::measured() };
        let repr = TangoRepr { flags, path_id, inner_proto, sequence, timestamp_ns };
        let mut buf = vec![0u8; TANGO_HEADER_LEN];
        let mut p = TangoPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        let packet = TangoPacket::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(TangoRepr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn cidr_v4_contains_consistent_with_network(
        addr in arb_ipv4(),
        len in 0u8..=32,
        probe in arb_ipv4(),
    ) {
        let c = Ipv4Cidr::new(addr, len).unwrap();
        prop_assert!(c.contains(c.network()));
        prop_assert!(c.contains(c.broadcast()));
        // Canonicalization: constructing from any contained address gives
        // the same prefix.
        if c.contains(probe) {
            prop_assert_eq!(Ipv4Cidr::new(probe, len).unwrap(), c);
        }
        // Display/parse roundtrip.
        let reparsed: Ipv4Cidr = c.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, c);
    }

    #[test]
    fn cidr_v6_display_parse_roundtrip(addr in arb_ipv6(), len in 0u8..=128) {
        let c = Ipv6Cidr::new(addr, len).unwrap();
        let reparsed: Ipv6Cidr = c.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, c);
        prop_assert!(c.contains(c.network()));
    }

    #[test]
    fn trie_longest_match_agrees_with_linear_scan(
        prefixes in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let prefixes = prefixes.iter().map(|&(bits, len)| cidr_of(false, u128::from(bits) << 96, len));
        let probes = probes.iter().map(|&p| addr_of(false, u128::from(p) << 96));
        check_longest_match(prefixes.collect(), probes.collect())?;
    }

    #[test]
    fn trie_v6_longest_match_agrees_with_linear_scan(
        bases in proptest::collection::vec(any::<u128>(), 1..4),
        prefixes in proptest::collection::vec((any::<usize>(), 0u8..=128), 1..40),
        probes in proptest::collection::vec((any::<usize>(), 0u8..=128, any::<u128>()), 1..40),
    ) {
        // Prefixes at random lengths /0–/128 of a few base addresses nest
        // into chains; a probe keeps the top `keep` bits of a base, so it
        // sits inside every prefix of that base no longer than `keep`.
        let base = |i: usize| bases[i % bases.len()];
        let prefixes = prefixes.iter().map(|&(i, len)| cidr_of(true, base(i), len));
        let probes = probes.iter().map(|&(i, keep, noise)| {
            addr_of(true, (base(i) & top_bits(keep)) | (noise & !top_bits(keep)))
        });
        check_longest_match(prefixes.collect(), probes.collect())?;
    }

    #[test]
    fn trie_tracks_linear_model_through_inserts_and_removes(
        bases in proptest::collection::vec(any::<u128>(), 1..3),
        ops in proptest::collection::vec(
            (any::<bool>(), any::<usize>(), 0u8..=128, any::<bool>()),
            1..60,
        ),
        noise in any::<u128>(),
    ) {
        // Both families, few bases, many lengths: chains nest, duplicates
        // replace, and removes empty whole lengths out again.
        let mut trie = PrefixTrie::new();
        let mut model = LinearLpm::default();
        for (step, &(v6, i, len, remove)) in ops.iter().enumerate() {
            let bits = bases[i % bases.len()];
            let c = cidr_of(v6, bits, len);
            if remove {
                prop_assert_eq!(trie.remove(&c), model.remove(&c));
            } else {
                prop_assert_eq!(trie.insert(c, step), model.insert(c, step));
            }
            model.agrees_with(&trie)?;
            for keep in [0, len / 2, len, 128] {
                let a = addr_of(v6, (bits & top_bits(keep)) | (noise & !top_bits(keep)));
                prop_assert_eq!(trie.longest_match(a).map(|(p, v)| (p, *v)), model.longest(a));
                prop_assert_eq!(trie.lookup(a), trie.longest_match(a).map(|(_, v)| v));
            }
        }
        // Remove what is left, one at a time, down to the empty table.
        while let Some(&(c, v)) = model.0.last() {
            prop_assert_eq!(trie.remove(&c), Some(v));
            model.remove(&c);
            model.agrees_with(&trie)?;
        }
        prop_assert!(trie.is_empty());
        prop_assert_eq!(trie.longest_match(addr_of(true, noise)), None);
        prop_assert_eq!(trie.longest_match(addr_of(false, noise)), None);
    }

    #[test]
    fn trie_hashed_levels_track_linear_model_at_scale(
        base in any::<u128>(),
        two_lengths in any::<bool>(),
        ops in proptest::collection::vec((0u8..4, 0usize..2048, any::<u128>()), 0..2000),
    ) {
        // Up to 2 000 operations on 1 024 /48s under one /32, as the
        // committed scenarios number their hosts, and on /56s inside
        // them: enough per length to form probe chains, grow the index
        // several times and, through removes and re-inserts, rebuild it.
        let net48 = |i: usize| (base & top_bits(32)) | ((i as u128 & 0x3ff) << 80);
        let mut trie = PrefixTrie::new();
        let mut model = LinearLpm::default();
        for (step, &(op, i, noise)) in ops.iter().enumerate() {
            let c = if op == 3 && !model.0.is_empty() {
                // Remove a present prefix.
                let c = model.0[i % model.0.len()].0;
                prop_assert_eq!(trie.remove(&c), model.remove(&c));
                c
            } else {
                // Insert, replacing when the prefix is present.
                let long = two_lengths && i >= 1024;
                let c = if long {
                    cidr_of(true, net48(i) | ((noise >> 120) << 72), 56)
                } else {
                    cidr_of(true, net48(i), 48)
                };
                prop_assert_eq!(trie.insert(c, step), model.insert(c, step));
                c
            };
            model.agrees_with(&trie)?;
            let IpAddr::V6(net) = c.network() else { unreachable!() };
            let len = c.prefix_len();
            let inside = u128::from(net) | (noise & !top_bits(len));
            // Inside `c`; one bit outside it; inside its /48 but in a
            // random /56, which only the /48 may cover.
            let probes = [
                inside,
                inside ^ (1 << (128 - u32::from(len))),
                (inside & top_bits(48)) | (noise.rotate_left(64) & !top_bits(48)),
            ];
            for a in probes.map(|bits| addr_of(true, bits)) {
                prop_assert_eq!(trie.longest_match(a).map(|(p, v)| (p, *v)), model.longest(a));
                prop_assert_eq!(trie.lookup(a), trie.longest_match(a).map(|(_, v)| v));
            }
        }
    }

    #[test]
    fn trie_insert_remove_restores(
        base in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..20),
        extra_bits in any::<u32>(),
        extra_len in 0u8..=32,
        probes in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let mut trie = PrefixTrie::new();
        for (i, (bits, len)) in base.iter().enumerate() {
            trie.insert(IpCidr::V4(Ipv4Cidr::new(Ipv4Addr::from(*bits), *len).unwrap()), i);
        }
        let extra = IpCidr::V4(Ipv4Cidr::new(Ipv4Addr::from(extra_bits), extra_len).unwrap());
        let before: Vec<_> = probes
            .iter()
            .map(|p| trie.longest_match(IpAddr::V4(Ipv4Addr::from(*p))).map(|(c, v)| (c, *v)))
            .collect();
        let preexisting = trie.get(&extra).copied();
        trie.insert(extra, usize::MAX);
        match preexisting {
            Some(v) => { trie.insert(extra, v); }
            None => { trie.remove(&extra); }
        }
        let after: Vec<_> = probes
            .iter()
            .map(|p| trie.longest_match(IpAddr::V4(Ipv4Addr::from(*p))).map(|(c, v)| (c, *v)))
            .collect();
        prop_assert_eq!(before, after);
    }
}
