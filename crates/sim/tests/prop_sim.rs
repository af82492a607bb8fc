//! Property-based tests for simulator primitives: clocks, flow hashing
//! and the packet's parse caches; and one metamorphic property of the
//! whole engine, that a run shifted in time is the same run.

mod world;

use proptest::prelude::*;
use tango_net::{Ipv6Packet, Ipv6Repr, UdpPacket, UdpRepr};
use tango_sim::hash::flow_hash;
use tango_sim::{NodeClock, Packet, ShardMode, SimTime, Span};

fn udp6(src: u128, dst: u128, sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    let udp = UdpRepr {
        src_port: sport,
        dst_port: dport,
        payload_len: payload.len(),
    };
    let mut pkt = Packet::host(src.into(), dst.into(), udp.total_len(), 0, 0);
    let mut p = Ipv6Packet::new_unchecked(pkt.bytes_mut());
    let mut u = UdpPacket::new_unchecked(p.payload_mut());
    udp.emit(&mut u).unwrap();
    u.payload_mut().copy_from_slice(payload);
    pkt.into_buffer()
}

/// A 24-byte-headroom IPv4 or IPv6 packet carrying `protocol` over
/// `l4`: UDP/TCP numbers with ≥ 4 bytes hash ports, anything else does
/// not. The IPv4 header is written by hand: it is the version nibble no
/// code parses, which must fare like any malformed header.
fn ip_packet(v6: bool, src: u128, dst: u128, protocol: u8, l4: &[u8]) -> Packet {
    let mut pkt;
    if v6 {
        let repr = Ipv6Repr {
            src_addr: src.into(),
            dst_addr: dst.into(),
            next_header: protocol,
            payload_len: l4.len(),
            hop_limit: 64,
            traffic_class: 0,
            flow_label: 0,
        };
        pkt = Packet::alloc(24, repr.total_len());
        let mut ip = Ipv6Packet::new_unchecked(pkt.bytes_mut());
        repr.emit(&mut ip).unwrap();
        ip.payload_mut().copy_from_slice(l4);
    } else {
        let total = u16::try_from(20 + l4.len()).unwrap();
        pkt = Packet::alloc(24, usize::from(total));
        let b = pkt.bytes_mut();
        b[0] = 0x45;
        b[2..4].copy_from_slice(&total.to_be_bytes());
        b[8] = 64;
        b[9] = protocol;
        b[12..16].copy_from_slice(&((src >> 96) as u32).to_be_bytes());
        b[16..20].copy_from_slice(&((dst >> 96) as u32).to_be_bytes());
        b[20..].copy_from_slice(l4);
    }
    pkt
}

/// The always-copy reference for a copy-on-write [`Packet`]: a plain
/// buffer (headroom, then the visible bytes) and the visible offset.
#[derive(Clone)]
struct Model {
    buf: Vec<u8>,
    start: usize,
}

impl Model {
    fn of(pkt: &Packet) -> Self {
        let mut buf = vec![0; pkt.headroom()];
        buf.extend_from_slice(pkt.bytes());
        Model {
            buf,
            start: pkt.headroom(),
        }
    }

    fn visible(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn visible_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.start..]
    }
}

/// Both caches of `pkt` answer what a fresh parse of its bytes answers.
fn caches_are_coherent(pkt: &Packet, after: &str) -> Result<(), String> {
    let fresh = Packet::new(pkt.bytes().to_vec());
    prop_assert_eq!(
        pkt.flow_hash(),
        flow_hash(pkt.bytes()),
        "flow hash after {}",
        after
    );
    prop_assert_eq!(pkt.dst_addr(), fresh.dst_addr(), "dst_addr after {}", after);
    Ok(())
}

proptest! {
    #[test]
    fn clock_elapsed_time_is_offset_invariant(
        offset in -1_000_000_000i64..1_000_000_000,
        t1 in 2_000_000_000u64..1_000_000_000_000,
        dt in 0u64..1_000_000_000,
    ) {
        // For any constant offset, elapsed local time equals elapsed sim
        // time (once clear of the zero-saturation region) — the §4.2
        // invariant the whole measurement design rests on.
        let c = NodeClock::with_offset_ns(offset);
        let a = c.local_ns(SimTime(t1));
        let b = c.local_ns(SimTime(t1 + dt));
        prop_assert_eq!(b - a, dt);
    }

    #[test]
    fn clock_offset_shifts_absolute_reading(
        offset in 0i64..1_000_000_000,
        t in 0u64..1_000_000_000_000,
    ) {
        let sync = NodeClock::synchronized();
        let skewed = NodeClock::with_offset_ns(offset);
        prop_assert_eq!(
            skewed.local_ns(SimTime(t)) as i64 - sync.local_ns(SimTime(t)) as i64,
            offset
        );
    }

    #[test]
    fn drift_grows_linearly(
        ppm in 0.0f64..500.0,
        t in 1_000_000u64..1_000_000_000_000,
    ) {
        let c = NodeClock::with_offset_and_drift(0, ppm);
        let local = c.local_ns(SimTime(t));
        let expected = t as f64 * (1.0 + ppm / 1e6);
        prop_assert!((local as f64 - expected).abs() < 2.0, "{local} vs {expected}");
    }

    #[test]
    fn flow_hash_ignores_payload(
        src in any::<u128>(),
        dst in any::<u128>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        pay_a in proptest::collection::vec(any::<u8>(), 0..64),
        pay_b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let a = flow_hash(&udp6(src, dst, sport, dport, &pay_a));
        let b = flow_hash(&udp6(src, dst, sport, dport, &pay_b));
        prop_assert_eq!(a, b, "same 5-tuple must hash identically");
    }

    #[test]
    fn flow_hash_separates_tuples(
        src in any::<u128>(),
        dst in any::<u128>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
    ) {
        let base = flow_hash(&udp6(src, dst, sport, dport, b"x"));
        let other = flow_hash(&udp6(src, dst, sport.wrapping_add(1), dport, b"x"));
        // Not a cryptographic guarantee, but FNV over distinct keys
        // colliding would break the ECMP model; accept with a tiny
        // collision budget by checking inequality (FNV-1a collisions on
        // 64-bit outputs for 14-byte keys are ~2^-64 per pair).
        prop_assert_ne!(base, other);
    }

    #[test]
    fn packet_caches_track_every_mutation(
        v6 in any::<bool>(),
        src in any::<u128>(),
        dst in any::<u128>(),
        protocol in prop_oneof![Just(17u8), Just(6u8), Just(59u8)],
        l4 in proptest::collection::vec(any::<u8>(), 0..24),
        ops in proptest::collection::vec(
            (
                0u8..9,
                any::<usize>(),
                any::<usize>(),
                proptest::collection::vec(any::<u8>(), 1..12),
            ),
            1..48,
        ),
    ) {
        // A set of live clones, each beside an always-copy model of its
        // bytes. An op lands on clone `which`; afterwards *every* clone
        // must still equal its own model, so a write that leaks into a
        // copy another clone shares fails here. Every check also warms
        // both caches, so each mutation starts from cached state it must
        // either keep or invalidate.
        let first = ip_packet(v6, src, dst, protocol, &l4);
        let mut live = vec![(Model::of(&first), first)];
        for (op, which, n, data) in ops {
            let i = which % live.len();
            let (model, pkt) = &mut live[i];
            let after = match op {
                0 if !pkt.is_empty() => {
                    let at = n % pkt.len();
                    pkt.bytes_mut()[at] ^= data[0] | 1;
                    model.visible_mut()[at] ^= data[0] | 1;
                    "bytes_mut"
                }
                1 => {
                    let k = data.len().min(pkt.headroom());
                    pkt.prepend(k)[..k].copy_from_slice(&data[..k]);
                    model.start -= k;
                    model.visible_mut()[..k].copy_from_slice(&data[..k]);
                    "prepend"
                }
                2 => {
                    let k = n % (pkt.len() + 1);
                    pkt.strip_front(k);
                    model.start += k;
                    "strip_front"
                }
                3 => {
                    pkt.append(&data);
                    model.buf.extend_from_slice(&data);
                    "append"
                }
                4 => {
                    let len = n % (pkt.len() + 1);
                    pkt.truncate(len);
                    model.buf.truncate(model.start + len);
                    "truncate"
                }
                5 => {
                    // The reference decrements an unshared copy.
                    let mut copy = Packet::new(model.visible().to_vec());
                    prop_assert_eq!(pkt.decrement_hop_limit(), copy.decrement_hop_limit());
                    model.visible_mut().copy_from_slice(copy.bytes());
                    "decrement_hop_limit"
                }
                6 => {
                    let twin = (model.clone(), pkt.clone());
                    live.push(twin);
                    "clone"
                }
                7 => {
                    // Pool recycle: the buffer comes back as a new packet.
                    let headroom = n % 32;
                    let old = std::mem::replace(pkt, Packet::new(Vec::new()));
                    *pkt = Packet::from_recycled(old.into_buffer(), headroom);
                    pkt.append(&data);
                    *model = Model {
                        buf: vec![0; headroom],
                        start: headroom,
                    };
                    model.buf.extend_from_slice(&data);
                    "recycle"
                }
                8 if live.len() > 1 => {
                    live.swap_remove(i);
                    "drop"
                }
                _ => "nothing",
            };
            for (model, pkt) in &live {
                prop_assert_eq!(pkt.bytes(), model.visible(), "{} on clone {}", after, i);
                // The headroom's bytes too, through a throwaway clone: a
                // prepend into a shared copy lands there first.
                let mut whole = pkt.clone();
                whole.prepend(whole.headroom());
                prop_assert_eq!(whole.bytes(), &model.buf[..], "{} on clone {}", after, i);
                caches_are_coherent(pkt, after)?;
            }
        }
    }

    #[test]
    fn simtime_arithmetic_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (ta, tb) = (SimTime(a), SimTime(b));
        prop_assert_eq!((ta + tb).as_ns(), a + b);
        if a >= b {
            prop_assert_eq!((ta - tb).as_ns(), a - b);
        }
        prop_assert_eq!(ta.saturating_sub(tb).as_ns(), a.saturating_sub(b));
    }
}

// ---------------------------------------------------------------------
// Fault-injection properties (the robustness substrate the path-health
// experiments stand on).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tango_sim::{FaultDecision, FaultInjector};

proptest! {
    #[test]
    fn fault_rates_always_clamp_to_unit_interval(
        drop in -10.0f64..10.0,
        corrupt in -10.0f64..10.0,
    ) {
        let f = FaultInjector::new(drop, corrupt);
        prop_assert!((0.0..=1.0).contains(&f.drop_chance), "drop {}", f.drop_chance);
        prop_assert!((0.0..=1.0).contains(&f.corrupt_chance), "corrupt {}", f.corrupt_chance);
    }

    #[test]
    fn certain_drop_always_drops(
        seed in any::<u64>(),
        corrupt in 0.0f64..1.0,
        len in 0usize..64,
    ) {
        // drop_chance = 1.0 must drop every packet regardless of the
        // rng state, the corruption rate, or the packet size.
        let f = FaultInjector::new(1.0, corrupt);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = vec![0u8; len];
        for _ in 0..16 {
            prop_assert_eq!(f.apply(&mut rng, &mut bytes), FaultDecision::Drop);
        }
    }

    #[test]
    fn same_seed_same_decision_sequence(
        seed in any::<u64>(),
        drop in 0.0f64..1.0,
        corrupt in 0.0f64..1.0,
    ) {
        // Determinism: the whole simulator's reproducibility contract
        // rests on the injector consuming rng state identically.
        let f = FaultInjector::new(drop, corrupt);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|_| {
                    let mut b = [0x5au8; 16];
                    (f.apply(&mut rng, &mut b), b)
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn decisions_never_lie_about_the_buffer(
        seed in any::<u64>(),
        drop in 0.0f64..1.0,
        corrupt in 0.0f64..1.0,
        orig in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Pass/Drop leave the bytes untouched; Corrupted flips exactly
        // one bit.
        let f = FaultInjector::new(drop, corrupt);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = orig.clone();
        let flipped_bits = |a: &[u8], c: &[u8]| -> u32 {
            a.iter().zip(c).map(|(x, y)| (x ^ y).count_ones()).sum()
        };
        match f.apply(&mut rng, &mut b) {
            FaultDecision::Corrupted => prop_assert_eq!(flipped_bits(&orig, &b), 1),
            FaultDecision::Pass | FaultDecision::Drop => prop_assert_eq!(&orig, &b),
        }
    }
}

/// `s` as recorded `delta_ns` later: its own time and its parent's move,
/// and a root stays a root.
fn shifted(mut s: Span, delta_ns: u64) -> Span {
    s.key.time_ns += delta_ns;
    if !s.parent.is_none() {
        s.parent.time_ns += delta_ns;
    }
    s
}

proptest! {
    /// Nothing in the engine reads absolute time: scheduling every
    /// external event, the outage and the horizon `delta_ns` later gives
    /// the same counters and the same span stream, every span and every
    /// parent `delta_ns` later. Parents travel as event keys and become
    /// spans again at dispatch, so a slip in that plumbing breaks this.
    #[test]
    fn a_time_shifted_run_is_the_same_run(
        w in world::world_strategy(),
        seed in any::<u64>(),
        shards in 1usize..=3,
        delta_ns in prop_oneof![Just(1u64), 1u64..1_000_000_000, 1u64..1 << 62],
    ) {
        let (stats, spans, _) = world::run(&w, seed, shards, ShardMode::Serial, 0);
        let (stats_d, spans_d, _) = world::run(&w, seed, shards, ShardMode::Serial, delta_ns);
        prop_assert_eq!(stats, stats_d);
        prop_assert!(!spans.is_empty(), "every world injects a packet");
        prop_assert_eq!(spans.len(), spans_d.len());
        for (i, (&s, d)) in spans.iter().zip(&spans_d).enumerate() {
            prop_assert_eq!(&shifted(s, delta_ns), d, "span {} of {}", i, spans.len());
        }
    }
}
