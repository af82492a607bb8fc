//! UDP header view and representation (RFC 768).
//!
//! Tango encapsulates tunneled packets in "an IP tunnel header, a UDP
//! header (to control ECMP behavior), and a timestamp" (§3). The UDP
//! ports are fixed per tunnel so that 5-tuple ECMP hashing in the core
//! pins every tunnel to a single underlying path — without this, ECMP
//! would smear one tunnel's traffic over several physical paths and the
//! one-way-delay samples would mix distributions.

use crate::checksum::{self, Checksum};
use crate::error::{Error, Result};
use std::net::Ipv6Addr;

/// Length of a UDP header.
pub const HEADER_LEN: usize = 8;

mod field {
    pub const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub const DST_PORT: core::ops::Range<usize> = 2..4;
    pub const LENGTH: core::ops::Range<usize> = 4..6;
    pub const CHECKSUM: core::ops::Range<usize> = 6..8;
}

/// A read/write view of a UDP datagram in a byte buffer.
#[derive(Debug, Clone)]
pub struct UdpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpPacket<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap and validate the length field against the buffer.
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
        let len = usize::from(self.len_field());
        if len < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if len > data.len() {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[0], d[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// The UDP length field (header + payload).
    pub fn len_field(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// The stored checksum field.
    pub fn checksum_field(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[6], d[7]])
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        let len = usize::from(self.len_field());
        &self.buffer.as_ref()[HEADER_LEN..len]
    }

    /// Verify the checksum with an IPv6 pseudo-header. A zero checksum
    /// is illegal over IPv6 (RFC 8200 §8.1).
    pub fn verify_checksum_v6(&self, src: Ipv6Addr, dst: Ipv6Addr) -> bool {
        self.verify_checksum_v6_with(src, dst, |payload, sum| sum.add(payload))
    }

    /// [`verify_checksum_v6`](Self::verify_checksum_v6) with the payload
    /// summed by `sum_payload`, which must add exactly the payload bytes
    /// it is given to the sum — for a caller that reads them for
    /// something else in the same pass
    /// ([`siphash24_summing`](crate::siphash::siphash24_summing)).
    pub fn verify_checksum_v6_with(
        &self,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        sum_payload: impl FnOnce(&[u8], &mut Checksum),
    ) -> bool {
        if self.checksum_field() == 0 {
            return false;
        }
        let len = self.len_field();
        let mut c = checksum::pseudo_header_v6(src, dst, 17, u32::from(len));
        let (header, payload) = self.buffer.as_ref()[..usize::from(len)].split_at(HEADER_LEN);
        c.add(header);
        sum_payload(payload, &mut c);
        c.finish() == 0
    }

    /// Consume the view and return the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpPacket<T> {
    /// Set source port.
    pub fn set_src_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&value.to_be_bytes());
    }

    /// Set destination port.
    pub fn set_dst_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the length field.
    pub fn set_len_field(&mut self, value: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&value.to_be_bytes());
    }

    /// Mutable payload slice.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let len = usize::from(self.len_field());
        &mut self.buffer.as_mut()[HEADER_LEN..len]
    }

    /// Compute and store the checksum with an IPv6 pseudo-header.
    pub fn fill_checksum_v6(&mut self, src: Ipv6Addr, dst: Ipv6Addr) {
        self.fill_checksum_v6_with(src, dst, |payload, sum| sum.add(payload));
    }

    /// [`fill_checksum_v6`](Self::fill_checksum_v6) with the payload
    /// summed by `sum_payload`, which may still write it (an
    /// authentication trailer) but must add exactly its final bytes to
    /// the sum.
    pub fn fill_checksum_v6_with(
        &mut self,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        sum_payload: impl FnOnce(&mut [u8], &mut Checksum),
    ) {
        let len = self.len_field();
        let mut c = checksum::pseudo_header_v6(src, dst, 17, u32::from(len));
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let (header, payload) = self.buffer.as_mut()[..usize::from(len)].split_at_mut(HEADER_LEN);
        c.add(header);
        sum_payload(payload, &mut c);
        let mut ck = c.finish();
        // An all-zero computed checksum is transmitted as 0xffff (RFC 768).
        if ck == 0 {
            ck = 0xffff;
        }
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// Owned high-level representation of a UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl UdpRepr {
    /// Parse a validated datagram (checksum verification is separate
    /// because it needs the pseudo-header addresses).
    pub fn parse<T: AsRef<[u8]>>(packet: &UdpPacket<T>) -> Result<Self> {
        packet.check()?;
        Ok(Self {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            payload_len: usize::from(packet.len_field()) - HEADER_LEN,
        })
    }

    /// Total length of the emitted datagram.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the header (ports + length; checksum must be filled after the
    /// payload is written, via `fill_checksum_v6`).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut UdpPacket<T>) -> Result<()> {
        if packet.buffer.as_ref().len() < self.total_len() {
            return Err(Error::Truncated);
        }
        let len = u16::try_from(self.total_len()).map_err(|_| Error::Malformed)?;
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_len_field(len);
        packet.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v6_pair() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8:100::1".parse().unwrap(),
            "2001:db8:200::2".parse().unwrap(),
        )
    }

    #[test]
    fn roundtrip_v6_checksum() {
        let (src, dst) = v6_pair();
        let repr = UdpRepr {
            src_port: 1,
            dst_port: 2,
            payload_len: 4,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = UdpPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        p.payload_mut().copy_from_slice(b"abcd");
        p.fill_checksum_v6(src, dst);
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum_v6(src, dst));
    }

    #[test]
    fn corrupt_payload_fails_verification() {
        let (src, dst) = v6_pair();
        let repr = UdpRepr {
            src_port: 1,
            dst_port: 2,
            payload_len: 4,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = UdpPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        p.payload_mut().copy_from_slice(b"abcd");
        p.fill_checksum_v6(src, dst);
        buf[HEADER_LEN] ^= 0x01;
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(!packet.verify_checksum_v6(src, dst));
    }

    #[test]
    fn zero_checksum_v6_rejected() {
        let (src, dst) = v6_pair();
        let repr = UdpRepr {
            src_port: 9,
            dst_port: 9,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = UdpPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap(); // checksum left at zero
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(!packet.verify_checksum_v6(src, dst));
    }

    #[test]
    fn length_field_validation() {
        let mut buf = [0u8; 8];
        buf[4..6].copy_from_slice(&7u16.to_be_bytes()); // < header
        assert_eq!(
            UdpPacket::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
        buf[4..6].copy_from_slice(&9u16.to_be_bytes()); // > buffer
        assert_eq!(
            UdpPacket::new_checked(&buf[..]).unwrap_err(),
            Error::Truncated
        );
        assert_eq!(
            UdpPacket::new_checked(&buf[..4]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn computed_zero_checksum_becomes_ffff() {
        // Craft src/dst/ports/payload such that the sum is 0xffff
        // (complement = 0) and confirm we transmit 0xffff instead of 0.
        let src = Ipv6Addr::UNSPECIFIED;
        let dst = Ipv6Addr::UNSPECIFIED;
        let repr = UdpRepr {
            src_port: 0,
            dst_port: 0,
            payload_len: 2,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = UdpPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        // The pseudo-header contributes next header 17 + len 10, and len
        // appears again in the header. Want total sum = 0xffff.
        // sum so far: 17 + 10 (pseudo) + 10 (len field) = 37 = 0x25.
        // payload word must be 0xffff - 0x25 = 0xffda.
        p.payload_mut().copy_from_slice(&0xffdau16.to_be_bytes());
        p.fill_checksum_v6(src, dst);
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.checksum_field(), 0xffff);
        assert!(packet.verify_checksum_v6(src, dst));
    }

    #[test]
    fn emit_rejects_length_beyond_u16() {
        let repr = UdpRepr {
            src_port: 1,
            dst_port: 2,
            payload_len: 65_536 - HEADER_LEN,
        };
        let mut buf = vec![0xa5u8; repr.total_len()];
        let mut p = UdpPacket::new_unchecked(&mut buf);
        assert_eq!(repr.emit(&mut p).unwrap_err(), Error::Malformed);
        // Nothing was written.
        assert!(buf.iter().all(|&b| b == 0xa5));
    }
}
