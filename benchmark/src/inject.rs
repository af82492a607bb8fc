//! Sliced injection with pre-built packet templates, shared by the three
//! packet workloads.
//!
//! Load model: closed, one client. The driver thread schedules one slice
//! of [`SLICE`] packets (cloning a template per packet, no header is
//! rebuilt), drains it with `run_until`, then schedules the next.
//! Pre-scheduling a whole run the way `throughput::run_one` does cost
//! 715 MiB of `VmHWM` at 500k × 1200 B and a first-touch page-fault stall
//! in the sizing runs; slices bound the queue and give the
//! `core.slice_ms_*` samples.

use crate::spans::Recorder;
use std::net::Ipv6Addr;
use tango_net::{Ipv6Packet, Ipv6Repr};
use tango_sim::{Packet, SimTime};

/// Packets per slice.
pub const SLICE: u64 = 10_000;

/// A UDP-in-IPv6 host packet of `payload` zero bytes behind `headroom`
/// writable bytes — what `TangoPairing::send_app_packet` builds, once.
pub fn host_packet(src: Ipv6Addr, dst: Ipv6Addr, payload: usize, headroom: usize) -> Packet {
    let repr = Ipv6Repr {
        src_addr: src,
        dst_addr: dst,
        next_header: 17,
        payload_len: payload,
        hop_limit: 64,
        traffic_class: 0,
        flow_label: 0,
    };
    let mut pkt = Packet::alloc(headroom, repr.total_len());
    let mut view = Ipv6Packet::new_unchecked(pkt.bytes_mut());
    repr.emit(&mut view).expect("buffer sized by total_len");
    pkt
}

/// Host number `host` inside PoP `pop`'s /48 (`tango::npop::host_prefix`).
pub fn pop_addr(pop: usize, host: u128) -> Ipv6Addr {
    match tango::npop::host_prefix(pop) {
        tango_net::IpCidr::V6(c) => c.host(host).expect("host prefixes are /48"),
        tango_net::IpCidr::V4(_) => unreachable!("npop host prefixes are IPv6"),
    }
}

/// What the slice driver drives: a simulation that accepts host packets
/// and advances simulated time.
pub trait Target {
    /// Schedule packet number `i` of the run at simulated time `at`.
    fn inject(&mut self, i: u64, at: SimTime);
    /// Advance simulated time to `t`.
    fn run_until(&mut self, t: SimTime);
}

/// Inject `packets` packets `gap` apart starting at `start`, one slice at
/// a time, then drain for `drain` more simulated time. Records a
/// `core.inject` and a `sim.run_slice` span per slice.
pub fn drive(
    target: &mut dyn Target,
    rec: &mut Recorder,
    packets: u64,
    start: SimTime,
    gap: SimTime,
    drain: SimTime,
) {
    let mut t = start;
    let mut next = 0u64;
    while next < packets {
        let end = (next + SLICE).min(packets);
        rec.scope("core.inject", |_| {
            for i in next..end {
                target.inject(i, t);
                t = t.saturating_add(gap);
            }
        });
        let until = if end == packets {
            t.saturating_add(drain)
        } else {
            t
        };
        rec.scope("sim.run_slice", |_| target.run_until(until));
        next = end;
    }
}
