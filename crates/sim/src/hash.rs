//! Flow hashing: the 5-tuple hash core routers use for ECMP.
//!
//! §3: *"Tango tunnels traffic before forwarding it to each path to avoid
//! unpredictable path diversity (e.g., due to 5-tuple hashing in ECMP)
//! which will result in measuring multiple paths as one."* The simulator
//! hashes exactly the fields a real router would, so un-tunneled flows
//! smear across ECMP lanes while Tango's fixed outer header pins one lane.

use tango_net::Ipv6Packet;
use tango_obs::{fnv1a_bytes, FNV1A_OFFSET};

/// SplitMix64 finalizer: a bijective avalanche over one `u64`.
///
/// Used to derive statistically independent per-node RNG stream seeds
/// from `(run seed, AS number)` — the derivation depends only on stable
/// identities, never on shard layout or event interleaving, which is what
/// keeps a sharded run bit-identical to the single-shard run.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Compute the ECMP flow hash of a raw IPv6 packet.
///
/// Hashes (src addr, dst addr, next header) plus (src port, dst port)
/// when the payload is UDP or TCP and long enough to carry ports.
/// Unparseable packets (any version but 6 among them) hash their first
/// bytes — a router would do something equally arbitrary.
/// Allocation-free: it runs on every transmission whose
/// [`crate::Packet`] has no cached hash.
pub fn flow_hash(packet: &[u8]) -> u64 {
    let Ok(ip) = Ipv6Packet::new_checked(packet) else {
        return fnv1a_bytes(FNV1A_OFFSET, packet.get(..40).unwrap_or(packet));
    };
    let protocol = ip.next_header();
    let h = fnv1a_bytes(FNV1A_OFFSET, &ip.src_addr().octets());
    let h = fnv1a_bytes(fnv1a_bytes(h, &ip.dst_addr().octets()), &[protocol]);
    // UDP and TCP alike open with the source and destination ports.
    match ip.payload().get(..4) {
        Some(ports) if matches!(protocol, 6 | 17) => fnv1a_bytes(h, ports),
        _ => h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Packet;
    use tango_net::{UdpPacket, UdpRepr};

    fn udp6(src_port: u16, dst_port: u16, dst_last: u16) -> Vec<u8> {
        let udp = UdpRepr {
            src_port,
            dst_port,
            payload_len: 4,
        };
        let src = "2001:db8:100::1".parse().unwrap();
        let dst = format!("2001:db8:200::{dst_last:x}").parse().unwrap();
        let mut pkt = Packet::host(src, dst, udp.total_len(), 0, 0);
        let mut p = Ipv6Packet::new_unchecked(pkt.bytes_mut());
        let mut u = UdpPacket::new_unchecked(p.payload_mut());
        udp.emit(&mut u).unwrap();
        pkt.into_buffer()
    }

    #[test]
    fn same_five_tuple_same_hash() {
        assert_eq!(
            flow_hash(&udp6(1000, 2000, 1)),
            flow_hash(&udp6(1000, 2000, 1))
        );
    }

    #[test]
    fn hash_depends_on_ports_and_addrs() {
        let base = flow_hash(&udp6(1000, 2000, 1));
        assert_ne!(
            base,
            flow_hash(&udp6(1001, 2000, 1)),
            "src port must matter"
        );
        assert_ne!(
            base,
            flow_hash(&udp6(1000, 2001, 1)),
            "dst port must matter"
        );
        assert_ne!(
            base,
            flow_hash(&udp6(1000, 2000, 2)),
            "dst addr must matter"
        );
    }

    #[test]
    fn payload_does_not_affect_hash() {
        let mut a = udp6(7, 8, 1);
        let mut b = udp6(7, 8, 1);
        let n = a.len();
        a[n - 1] = 0x11;
        b[n - 1] = 0x22;
        assert_eq!(flow_hash(&a), flow_hash(&b));
    }

    #[test]
    fn garbage_does_not_panic() {
        assert_eq!(flow_hash(&[]), flow_hash(&[]));
        let _ = flow_hash(&[0x45]);
        let _ = flow_hash(&[0x60, 1, 2, 3]);
        let _ = flow_hash(&[0xff; 64]);
    }

    #[test]
    fn mix64_avalanches_and_separates_streams() {
        // Adjacent inputs must land far apart (no accidental stream
        // correlation between neighboring AS numbers).
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        let a = mix64(1) ^ mix64(2);
        assert!(a.count_ones() > 8, "weak diffusion: {a:#x}");
        // Deterministic across calls.
        assert_eq!(mix64(0xdead_beef), mix64(0xdead_beef));
    }

    #[test]
    fn many_flows_spread_over_lanes() {
        // 100 flows over 4 lanes: every lane should be hit.
        let mut lanes = [0u32; 4];
        for sp in 0..100u16 {
            let h = flow_hash(&udp6(sp, 443, 1));
            lanes[(h % 4) as usize] += 1;
        }
        assert!(lanes.iter().all(|&c| c > 5), "lanes {lanes:?}");
    }
}
