//! IPv6 header view and representation (RFC 8200).
//!
//! The Tango prototype's tunnel overlay runs over IPv6: each of the
//! announced /48 prefixes corresponds to one wide-area path, and tunnel
//! endpoint addresses are drawn from those prefixes (§4).

use crate::error::{Error, Result};
use std::net::Ipv6Addr;

/// Length of the fixed IPv6 header.
pub const HEADER_LEN: usize = 40;

mod field {
    pub const VER_TC_FL: core::ops::Range<usize> = 0..4;
    pub const PAYLOAD_LEN: core::ops::Range<usize> = 4..6;
    pub const NEXT_HEADER: usize = 6;
    pub const HOP_LIMIT: usize = 7;
    pub const SRC: core::ops::Range<usize> = 8..24;
    pub const DST: core::ops::Range<usize> = 24..40;
}

/// A read/write view of an IPv6 packet in a byte buffer.
#[derive(Debug, Clone)]
pub struct Ipv6Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv6Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap and validate: version and payload length vs buffer size.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 6 {
            return Err(Error::Malformed);
        }
        if HEADER_LEN + usize::from(self.payload_len()) > data.len() {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// IP version field (must be 6).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Traffic class byte.
    pub fn traffic_class(&self) -> u8 {
        let d = self.buffer.as_ref();
        (d[0] << 4) | (d[1] >> 4)
    }

    /// 20-bit flow label. Tango sets this on tunnel packets so that any
    /// flow-label-aware ECMP also hashes all tunnel traffic identically.
    pub fn flow_label(&self) -> u32 {
        let d = self.buffer.as_ref();
        (u32::from(d[1] & 0x0f) << 16) | (u32::from(d[2]) << 8) | u32::from(d[3])
    }

    /// Payload length (everything after the fixed header).
    pub fn payload_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::PAYLOAD_LEN.start], d[field::PAYLOAD_LEN.start + 1]])
    }

    /// Next-header protocol number.
    pub fn next_header(&self) -> u8 {
        self.buffer.as_ref()[field::NEXT_HEADER]
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[field::HOP_LIMIT]
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv6Addr {
        let d = self.buffer.as_ref();
        let mut o = [0u8; 16];
        o.copy_from_slice(&d[field::SRC]);
        Ipv6Addr::from(o)
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv6Addr {
        let d = self.buffer.as_ref();
        let mut o = [0u8; 16];
        o.copy_from_slice(&d[field::DST]);
        Ipv6Addr::from(o)
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        let len = usize::from(self.payload_len());
        &self.buffer.as_ref()[HEADER_LEN..HEADER_LEN + len]
    }

    /// Consume the view and return the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv6Packet<T> {
    /// Set version, traffic class and flow label in one go.
    pub fn set_ver_tc_fl(&mut self, traffic_class: u8, flow_label: u32) {
        let d = self.buffer.as_mut();
        let word: u32 =
            (6u32 << 28) | (u32::from(traffic_class) << 20) | (flow_label & 0x000f_ffff);
        d[field::VER_TC_FL].copy_from_slice(&word.to_be_bytes());
    }

    /// Set payload length.
    pub fn set_payload_len(&mut self, value: u16) {
        self.buffer.as_mut()[field::PAYLOAD_LEN].copy_from_slice(&value.to_be_bytes());
    }

    /// Set next header.
    pub fn set_next_header(&mut self, value: u8) {
        self.buffer.as_mut()[field::NEXT_HEADER] = value;
    }

    /// Set hop limit.
    pub fn set_hop_limit(&mut self, value: u8) {
        self.buffer.as_mut()[field::HOP_LIMIT] = value;
    }

    /// Set source address.
    pub fn set_src_addr(&mut self, value: Ipv6Addr) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&value.octets());
    }

    /// Set destination address.
    pub fn set_dst_addr(&mut self, value: Ipv6Addr) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&value.octets());
    }

    /// Mutable payload slice.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let len = usize::from(self.payload_len());
        &mut self.buffer.as_mut()[HEADER_LEN..HEADER_LEN + len]
    }
}

/// Owned high-level representation of an IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Repr {
    /// Source address.
    pub src_addr: Ipv6Addr,
    /// Destination address.
    pub dst_addr: Ipv6Addr,
    /// Next-header protocol number.
    pub next_header: u8,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Hop limit for emitted packets.
    pub hop_limit: u8,
    /// Traffic class (copied through tunnels).
    pub traffic_class: u8,
    /// Flow label (Tango uses a fixed per-tunnel label to pin ECMP).
    pub flow_label: u32,
}

impl Ipv6Repr {
    /// Parse a validated packet into a representation.
    /// (IPv6 has no header checksum; UDP's covers the addresses.)
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv6Packet<T>) -> Result<Self> {
        packet.check()?;
        Ok(Self {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            next_header: packet.next_header(),
            payload_len: usize::from(packet.payload_len()),
            hop_limit: packet.hop_limit(),
            traffic_class: packet.traffic_class(),
            flow_label: packet.flow_label(),
        })
    }

    /// Total length of the emitted packet.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit into the start of `packet`'s buffer.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Ipv6Packet<T>) -> Result<()> {
        if packet.buffer.as_ref().len() < self.total_len() {
            return Err(Error::Truncated);
        }
        let payload_len = u16::try_from(self.payload_len).map_err(|_| Error::Malformed)?;
        if self.flow_label > 0x000f_ffff {
            return Err(Error::Malformed);
        }
        packet.set_ver_tc_fl(self.traffic_class, self.flow_label);
        packet.set_payload_len(payload_len);
        packet.set_next_header(self.next_header);
        packet.set_hop_limit(self.hop_limit);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv6Repr {
        Ipv6Repr {
            src_addr: "2001:db8:100::1".parse().unwrap(),
            dst_addr: "2001:db8:200::2".parse().unwrap(),
            next_header: 17,
            payload_len: 16,
            hop_limit: 64,
            traffic_class: 0,
            flow_label: 0x1234,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        let packet = Ipv6Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Ipv6Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn ver_tc_fl_bit_layout() {
        let mut repr = sample_repr();
        repr.traffic_class = 0xab;
        repr.flow_label = 0xfffff;
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        // 6 | ab | fffff -> 0x6abfffff
        assert_eq!(&buf[0..4], &[0x6a, 0xbf, 0xff, 0xff]);
        let packet = Ipv6Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.traffic_class(), 0xab);
        assert_eq!(packet.flow_label(), 0xfffff);
        assert_eq!(packet.version(), 6);
    }

    #[test]
    fn checked_rejects_wrong_version() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        buf[0] = 0x45;
        assert_eq!(
            Ipv6Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn checked_rejects_truncation() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        assert_eq!(
            Ipv6Packet::new_checked(&buf[..HEADER_LEN - 1]).unwrap_err(),
            Error::Truncated
        );
        // payload_len lying beyond the buffer
        buf[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            Ipv6Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn emit_rejects_oversized_flow_label() {
        let mut repr = sample_repr();
        repr.flow_label = 0x100000;
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        assert_eq!(repr.emit(&mut p).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn emit_rejects_payload_beyond_u16() {
        let mut repr = sample_repr();
        repr.payload_len = 65_536;
        let mut buf = vec![0xa5u8; repr.total_len()];
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        assert_eq!(repr.emit(&mut p).unwrap_err(), Error::Malformed);
        // Nothing was written.
        assert!(buf.iter().all(|&b| b == 0xa5));
    }

    #[test]
    fn payload_windowing() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len() + 8]; // slack after packet
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        p.payload_mut().fill(0x5a);
        let packet = Ipv6Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload().len(), repr.payload_len);
        assert!(packet.payload().iter().all(|&b| b == 0x5a));
        assert!(buf[repr.total_len()..].iter().all(|&b| b == 0));
    }
}
