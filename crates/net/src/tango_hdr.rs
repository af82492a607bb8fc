//! The Tango tunnel header.
//!
//! §3 of the paper: *"Tango adds an IP tunnel header, a UDP header (to
//! control ECMP behavior), and a timestamp to data packets. The destination
//! switch records the timestamp and computes the difference between the
//! timestamp and current system time before removing the encapsulation...
//! adding tunnel-specific sequence numbers on packets can allow Tango to
//! additionally compute loss and reordering."*
//!
//! The paper does not specify an exact bit layout, so this crate defines
//! one (documented below) and uses it consistently across the data plane:
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |         magic 0x7A60          |    version    |     flags     |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |            path id            |         inner proto           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                     tunnel sequence number                    |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                                                               |
//! +                  sender timestamp (ns, local clock)           +
//! |                                                               |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! * `magic`/`version` guard against decapsulating stray UDP traffic that
//!   happens to arrive on the tunnel port.
//! * `path id` identifies the tunnel (→ wide-area path) the sender chose,
//!   so the receiver attributes the delay sample to the right path even if
//!   tunnels share an address (e.g. during re-provisioning).
//! * `inner proto` says how to interpret the decapsulated payload
//!   (41 = IPv6 packet), mirroring IP protocol numbers.
//! * `sequence` is per-tunnel and lets the receiver compute loss and
//!   reordering.
//! * `timestamp` is the *sender's node-local clock* in nanoseconds. Clocks
//!   need not be synchronized: the receiver-side OWD estimate is offset by
//!   a constant, which cancels when comparing paths (§4.2).

use crate::error::{Error, Result};

/// Magic number identifying a Tango tunnel header.
pub const TANGO_MAGIC: u16 = 0x7A60;
/// Wire-format version implemented by this crate.
pub const TANGO_VERSION: u8 = 1;
/// Length of the Tango tunnel header in bytes.
pub const TANGO_HEADER_LEN: usize = 20;
/// The well-known UDP destination port Tango tunnels use.
pub const TANGO_UDP_PORT: u16 = 31328;

/// Flag bits in the Tango header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TangoFlags(pub u8);

impl TangoFlags {
    /// The timestamp field is valid.
    pub const HAS_TIMESTAMP: u8 = 0b0000_0001;
    /// The sequence-number field is valid.
    pub const HAS_SEQUENCE: u8 = 0b0000_0010;
    /// This packet is a bare keepalive probe (no inner packet).
    pub const PROBE: u8 = 0b0000_0100;
    /// An 8-byte SipHash-2-4 tag trails the packet (authenticated
    /// telemetry, §6). The tag covers header and payload.
    pub const AUTH: u8 = 0b0000_1000;
    /// The payload is a measurement report for the peer's controller
    /// (the in-band cooperation feedback channel), not host traffic.
    pub const REPORT: u8 = 0b0001_0000;

    /// All flags this implementation understands.
    pub const KNOWN: u8 =
        Self::HAS_TIMESTAMP | Self::HAS_SEQUENCE | Self::PROBE | Self::AUTH | Self::REPORT;

    /// Is this a probe packet?
    pub fn is_probe(self) -> bool {
        self.0 & Self::PROBE != 0
    }

    /// Does an authentication tag trail the packet?
    pub fn has_auth(self) -> bool {
        self.0 & Self::AUTH != 0
    }

    /// Is this a measurement report?
    pub fn is_report(self) -> bool {
        self.0 & Self::REPORT != 0
    }

    /// Set the AUTH bit.
    pub fn with_auth(self) -> Self {
        TangoFlags(self.0 | Self::AUTH)
    }

    /// Flags for an in-band measurement report.
    pub fn report() -> Self {
        TangoFlags(Self::HAS_TIMESTAMP | Self::HAS_SEQUENCE | Self::REPORT)
    }

    /// Flags with all measurement fields enabled (the normal data packet).
    pub fn measured() -> Self {
        TangoFlags(Self::HAS_TIMESTAMP | Self::HAS_SEQUENCE)
    }

    /// Flags for a probe packet.
    pub fn probe() -> Self {
        TangoFlags(Self::HAS_TIMESTAMP | Self::HAS_SEQUENCE | Self::PROBE)
    }
}

mod field {
    pub const MAGIC: core::ops::Range<usize> = 0..2;
    pub const VERSION: usize = 2;
    pub const FLAGS: usize = 3;
    pub const PATH_ID: core::ops::Range<usize> = 4..6;
    pub const INNER_PROTO: core::ops::Range<usize> = 6..8;
    pub const SEQUENCE: core::ops::Range<usize> = 8..12;
    pub const TIMESTAMP: core::ops::Range<usize> = 12..20;
}

/// A read/write view of a Tango tunnel header (and trailing inner packet).
#[derive(Debug, Clone)]
pub struct TangoPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TangoPacket<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wrap and validate magic, version and length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < TANGO_HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.magic() != TANGO_MAGIC {
            return Err(Error::NotTango);
        }
        if self.version() != TANGO_VERSION {
            return Err(Error::NotTango);
        }
        Ok(())
    }

    /// The magic field.
    pub fn magic(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[0], d[1]])
    }

    /// The version field.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VERSION]
    }

    /// The flags field.
    pub fn flags(&self) -> TangoFlags {
        TangoFlags(self.buffer.as_ref()[field::FLAGS])
    }

    /// The tunnel/path identifier.
    pub fn path_id(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// Protocol of the inner (encapsulated) packet: 41 = IPv6.
    pub fn inner_proto(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[6], d[7]])
    }

    /// Per-tunnel sequence number.
    pub fn sequence(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([d[8], d[9], d[10], d[11]])
    }

    /// Sender timestamp, nanoseconds on the sender's local clock.
    pub fn timestamp_ns(&self) -> u64 {
        let d = self.buffer.as_ref();
        let mut b = [0u8; 8];
        b.copy_from_slice(&d[field::TIMESTAMP]);
        u64::from_be_bytes(b)
    }

    /// The encapsulated inner packet.
    pub fn inner(&self) -> &[u8] {
        &self.buffer.as_ref()[TANGO_HEADER_LEN..]
    }

    /// Consume the view and return the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TangoPacket<T> {
    /// Write magic and version.
    pub fn set_magic_version(&mut self) {
        self.buffer.as_mut()[field::MAGIC].copy_from_slice(&TANGO_MAGIC.to_be_bytes());
        self.buffer.as_mut()[field::VERSION] = TANGO_VERSION;
    }

    /// Set flags.
    pub fn set_flags(&mut self, flags: TangoFlags) {
        self.buffer.as_mut()[field::FLAGS] = flags.0;
    }

    /// Set the path identifier.
    pub fn set_path_id(&mut self, value: u16) {
        self.buffer.as_mut()[field::PATH_ID].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the inner protocol.
    pub fn set_inner_proto(&mut self, value: u16) {
        self.buffer.as_mut()[field::INNER_PROTO].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the sequence number.
    pub fn set_sequence(&mut self, value: u32) {
        self.buffer.as_mut()[field::SEQUENCE].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the sender timestamp.
    pub fn set_timestamp_ns(&mut self, value: u64) {
        self.buffer.as_mut()[field::TIMESTAMP].copy_from_slice(&value.to_be_bytes());
    }
}

/// Owned high-level representation of a Tango tunnel header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TangoRepr {
    /// Flag bits.
    pub flags: TangoFlags,
    /// Tunnel/path identifier.
    pub path_id: u16,
    /// Inner packet protocol (41 = IPv6, 0 = none/probe).
    pub inner_proto: u16,
    /// Per-tunnel sequence number.
    pub sequence: u32,
    /// Sender node-local timestamp in nanoseconds.
    pub timestamp_ns: u64,
}

impl TangoRepr {
    /// Parse a validated packet into a representation.
    pub fn parse<T: AsRef<[u8]>>(packet: &TangoPacket<T>) -> Result<Self> {
        packet.check()?;
        let flags = packet.flags();
        if flags.0 & !TangoFlags::KNOWN != 0 {
            return Err(Error::Unsupported);
        }
        Ok(Self {
            flags,
            path_id: packet.path_id(),
            inner_proto: packet.inner_proto(),
            sequence: packet.sequence(),
            timestamp_ns: packet.timestamp_ns(),
        })
    }

    /// Emit the header into the start of `packet`'s buffer.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut TangoPacket<T>) -> Result<()> {
        if packet.buffer.as_ref().len() < TANGO_HEADER_LEN {
            return Err(Error::Truncated);
        }
        packet.set_magic_version();
        packet.set_flags(self.flags);
        packet.set_path_id(self.path_id);
        packet.set_inner_proto(self.inner_proto);
        packet.set_sequence(self.sequence);
        packet.set_timestamp_ns(self.timestamp_ns);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> TangoRepr {
        TangoRepr {
            flags: TangoFlags::measured(),
            path_id: 3,
            inner_proto: 41,
            sequence: 0xdead_beef,
            timestamp_ns: 1_234_567_890_123,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; TANGO_HEADER_LEN + 5];
        let mut p = TangoPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        buf[TANGO_HEADER_LEN..].copy_from_slice(b"inner");
        let packet = TangoPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(TangoRepr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.inner(), b"inner");
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let repr = sample_repr();
        let mut buf = vec![0u8; TANGO_HEADER_LEN];
        let mut p = TangoPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        buf[0] = 0x00;
        assert_eq!(
            TangoPacket::new_checked(&buf[..]).unwrap_err(),
            Error::NotTango
        );
        buf[0] = 0x7a;
        buf[2] = 99;
        assert_eq!(
            TangoPacket::new_checked(&buf[..]).unwrap_err(),
            Error::NotTango
        );
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(
            TangoPacket::new_checked(&[0u8; TANGO_HEADER_LEN - 1][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn rejects_unknown_flags() {
        let repr = sample_repr();
        let mut buf = vec![0u8; TANGO_HEADER_LEN];
        let mut p = TangoPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        buf[3] |= 0x80; // reserved bit
        let packet = TangoPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(TangoRepr::parse(&packet).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn flags_accessors() {
        let measured = TangoFlags::HAS_TIMESTAMP | TangoFlags::HAS_SEQUENCE;
        let f = TangoFlags::probe();
        assert!(f.0 & measured == measured && f.is_probe());
        assert!(!f.has_auth() && !f.is_report());
        let m = TangoFlags::measured();
        assert!(m.0 == measured && !m.is_probe());
        let none = TangoFlags::default();
        assert!(none.0 == 0 && !none.is_probe());
        let a = TangoFlags::measured().with_auth();
        assert!(a.has_auth() && a.0 & measured == measured);
        let r = TangoFlags::report();
        assert!(r.is_report() && !r.is_probe());
    }

    #[test]
    fn timestamp_extremes() {
        for ts in [0u64, u64::MAX, 1] {
            let mut repr = sample_repr();
            repr.timestamp_ns = ts;
            let mut buf = vec![0u8; TANGO_HEADER_LEN];
            let mut p = TangoPacket::new_unchecked(&mut buf);
            repr.emit(&mut p).unwrap();
            let packet = TangoPacket::new_checked(&buf[..]).unwrap();
            assert_eq!(packet.timestamp_ns(), ts);
        }
    }

    #[test]
    fn header_layout_is_stable() {
        // Pin the byte layout so the wire format never changes silently.
        let repr = TangoRepr {
            flags: TangoFlags(0x03),
            path_id: 0x0102,
            inner_proto: 0x0029,
            sequence: 0x0a0b0c0d,
            timestamp_ns: 0x1122334455667788,
        };
        let mut buf = vec![0u8; TANGO_HEADER_LEN];
        let mut p = TangoPacket::new_unchecked(&mut buf);
        repr.emit(&mut p).unwrap();
        assert_eq!(
            buf,
            vec![
                0x7a, 0x60, 0x01, 0x03, // magic, version, flags
                0x01, 0x02, 0x00, 0x29, // path id, inner proto
                0x0a, 0x0b, 0x0c, 0x0d, // sequence
                0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // timestamp
            ]
        );
    }
}
