//! CIDR prefix types.
//!
//! In Tango, prefixes are re-thought as *routes*: each announced prefix
//! represents one wide-area path toward the announcing edge (§3). These
//! types therefore show up throughout the control plane (`tango-bgp`
//! announcements) and the data plane (tunnel endpoint allocation,
//! forwarding-table keys).

use crate::error::{Error, Result};
use core::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// An IPv4 prefix in CIDR notation, e.g. `203.0.113.0/24`.
///
/// The stored address is always the canonical network address (host bits
/// cleared), so two `Ipv4Cidr` values compare equal iff they denote the
/// same prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Cidr {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Cidr {
    /// Build a prefix; host bits of `addr` are cleared.
    /// Fails with [`Error::PrefixLen`] if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Result<Self> {
        if prefix_len > 32 {
            return Err(Error::PrefixLen);
        }
        let bits = u32::from(addr) & mask_v4(prefix_len);
        Ok(Self {
            addr: Ipv4Addr::from(bits),
            prefix_len,
        })
    }

    /// The canonical network address.
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The last address covered by the prefix.
    pub fn broadcast(&self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.addr) | !mask_v4(self.prefix_len))
    }

    /// Does this prefix cover `addr`?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask_v4(self.prefix_len) == u32::from(self.addr)
    }

    /// Does this prefix cover the whole of `other`?
    pub fn covers(&self, other: &Ipv4Cidr) -> bool {
        self.prefix_len <= other.prefix_len && self.contains(other.addr)
    }

    /// Do the two prefixes share any address?
    pub fn overlaps(&self, other: &Ipv4Cidr) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The `i`-th host address inside the prefix (0 = network address).
    /// Returns `None` if `i` falls outside the prefix.
    pub fn host(&self, i: u32) -> Option<Ipv4Addr> {
        let size = 1u64 << (32 - self.prefix_len);
        if u64::from(i) >= size {
            return None;
        }
        Some(Ipv4Addr::from(u32::from(self.addr) + i))
    }

    /// Split into the two child prefixes one bit longer.
    /// Returns `None` for a /32.
    pub fn split(&self) -> Option<(Ipv4Cidr, Ipv4Cidr)> {
        if self.prefix_len >= 32 {
            return None;
        }
        let len = self.prefix_len + 1;
        let lo = Ipv4Cidr::new(self.addr, len).expect("len <= 32");
        let hi_bits = u32::from(self.addr) | (1 << (32 - len));
        let hi = Ipv4Cidr::new(Ipv4Addr::from(hi_bits), len).expect("len <= 32");
        Some((lo, hi))
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

impl FromStr for Ipv4Cidr {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        let (addr, len) = s.split_once('/').ok_or(Error::Malformed)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| Error::Malformed)?;
        let len: u8 = len.parse().map_err(|_| Error::PrefixLen)?;
        Ipv4Cidr::new(addr, len)
    }
}

/// An IPv6 prefix in CIDR notation, e.g. `2001:db8:100::/48`.
///
/// Tango's prototype announces multiple /48s out of an institutional IPv6
/// block — one per wide-area path (§4). Canonicalized like [`Ipv4Cidr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv6Cidr {
    addr: Ipv6Addr,
    prefix_len: u8,
}

impl Ipv6Cidr {
    /// Build a prefix; host bits of `addr` are cleared.
    /// Fails with [`Error::PrefixLen`] if `prefix_len > 128`.
    pub fn new(addr: Ipv6Addr, prefix_len: u8) -> Result<Self> {
        if prefix_len > 128 {
            return Err(Error::PrefixLen);
        }
        let bits = u128::from(addr) & mask_v6(prefix_len);
        Ok(Self {
            addr: Ipv6Addr::from(bits),
            prefix_len,
        })
    }

    /// The canonical network address.
    pub fn network(&self) -> Ipv6Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Does this prefix cover `addr`?
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & mask_v6(self.prefix_len) == u128::from(self.addr)
    }

    /// Does this prefix cover the whole of `other`?
    pub fn covers(&self, other: &Ipv6Cidr) -> bool {
        self.prefix_len <= other.prefix_len && self.contains(other.addr)
    }

    /// Do the two prefixes share any address?
    pub fn overlaps(&self, other: &Ipv6Cidr) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The `i`-th address inside the prefix. `None` if out of range.
    pub fn host(&self, i: u128) -> Option<Ipv6Addr> {
        if self.prefix_len < 128 {
            let size_log2 = 128 - self.prefix_len;
            if size_log2 < 128 && i >> size_log2 != 0 {
                return None;
            }
        } else if i != 0 {
            return None;
        }
        Some(Ipv6Addr::from(u128::from(self.addr) + i))
    }

    /// The `i`-th sub-prefix of length `sub_len` inside this prefix
    /// (used to carve per-path tunnel /64s out of a /48).
    pub fn subnet(&self, sub_len: u8, i: u128) -> Result<Ipv6Cidr> {
        if sub_len < self.prefix_len || sub_len > 128 {
            return Err(Error::PrefixLen);
        }
        let extra = sub_len - self.prefix_len;
        if extra < 128 && extra > 0 && i >> extra != 0 {
            return Err(Error::PrefixLen);
        }
        if extra == 0 && i != 0 {
            return Err(Error::PrefixLen);
        }
        // At /0 the checks above leave only `i == 0`, and a shift by 128
        // overflows.
        let offset = if sub_len == 0 {
            0
        } else {
            i << (128 - sub_len)
        };
        Ipv6Cidr::new(Ipv6Addr::from(u128::from(self.addr) | offset), sub_len)
    }
}

impl fmt::Display for Ipv6Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

impl FromStr for Ipv6Cidr {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        let (addr, len) = s.split_once('/').ok_or(Error::Malformed)?;
        let addr: Ipv6Addr = addr.parse().map_err(|_| Error::Malformed)?;
        let len: u8 = len.parse().map_err(|_| Error::PrefixLen)?;
        Ipv6Cidr::new(addr, len)
    }
}

/// A prefix of either address family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpCidr {
    /// An IPv4 prefix.
    V4(Ipv4Cidr),
    /// An IPv6 prefix.
    V6(Ipv6Cidr),
}

impl IpCidr {
    /// Build a prefix from a generic address.
    pub fn new(addr: IpAddr, prefix_len: u8) -> Result<Self> {
        match addr {
            IpAddr::V4(a) => Ipv4Cidr::new(a, prefix_len).map(IpCidr::V4),
            IpAddr::V6(a) => Ipv6Cidr::new(a, prefix_len).map(IpCidr::V6),
        }
    }

    /// The canonical network address.
    pub fn network(&self) -> IpAddr {
        match self {
            IpCidr::V4(c) => IpAddr::V4(c.network()),
            IpCidr::V6(c) => IpAddr::V6(c.network()),
        }
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        match self {
            IpCidr::V4(c) => c.prefix_len(),
            IpCidr::V6(c) => c.prefix_len(),
        }
    }

    /// Does this prefix cover `addr`? Always false across families.
    pub fn contains(&self, addr: IpAddr) -> bool {
        match (self, addr) {
            (IpCidr::V4(c), IpAddr::V4(a)) => c.contains(a),
            (IpCidr::V6(c), IpAddr::V6(a)) => c.contains(a),
            _ => false,
        }
    }

    /// Does this prefix cover the whole of `other`?
    pub fn covers(&self, other: &IpCidr) -> bool {
        match (self, other) {
            (IpCidr::V4(a), IpCidr::V4(b)) => a.covers(b),
            (IpCidr::V6(a), IpCidr::V6(b)) => a.covers(b),
            _ => false,
        }
    }
}

impl fmt::Display for IpCidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpCidr::V4(c) => c.fmt(f),
            IpCidr::V6(c) => c.fmt(f),
        }
    }
}

impl From<Ipv4Cidr> for IpCidr {
    fn from(c: Ipv4Cidr) -> Self {
        IpCidr::V4(c)
    }
}

impl From<Ipv6Cidr> for IpCidr {
    fn from(c: Ipv6Cidr) -> Self {
        IpCidr::V6(c)
    }
}

impl FromStr for IpCidr {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        if s.contains(':') {
            s.parse::<Ipv6Cidr>().map(IpCidr::V6)
        } else {
            s.parse::<Ipv4Cidr>().map(IpCidr::V4)
        }
    }
}

fn mask_v4(prefix_len: u8) -> u32 {
    if prefix_len == 0 {
        0
    } else {
        u32::MAX << (32 - prefix_len)
    }
}

/// The top `prefix_len` (at most 128) bits set. The longest-prefix
/// match masks with it once per length per lookup.
pub(crate) fn mask_v6(prefix_len: u8) -> u128 {
    if prefix_len == 0 {
        0
    } else {
        u128::MAX << (128 - prefix_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_canonicalizes_host_bits() {
        let c = Ipv4Cidr::new(Ipv4Addr::new(203, 0, 113, 77), 24).unwrap();
        assert_eq!(c.network(), Ipv4Addr::new(203, 0, 113, 0));
        assert_eq!(c.to_string(), "203.0.113.0/24");
        assert_eq!(c.broadcast(), Ipv4Addr::new(203, 0, 113, 255));
    }

    #[test]
    fn v4_contains_boundaries() {
        let c: Ipv4Cidr = "10.1.0.0/16".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(10, 1, 0, 0)));
        assert!(c.contains(Ipv4Addr::new(10, 1, 255, 255)));
        assert!(!c.contains(Ipv4Addr::new(10, 2, 0, 0)));
        assert!(!c.contains(Ipv4Addr::new(10, 0, 255, 255)));
    }

    #[test]
    fn v4_zero_and_full_prefix() {
        let any: Ipv4Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(any.contains(Ipv4Addr::new(255, 255, 255, 255)));
        let host: Ipv4Cidr = "192.0.2.1/32".parse().unwrap();
        assert!(host.contains(Ipv4Addr::new(192, 0, 2, 1)));
        assert!(!host.contains(Ipv4Addr::new(192, 0, 2, 2)));
        assert!(host.split().is_none());
    }

    #[test]
    fn v4_invalid_prefix_len() {
        assert_eq!(
            Ipv4Cidr::new(Ipv4Addr::UNSPECIFIED, 33),
            Err(Error::PrefixLen)
        );
        assert!("10.0.0.0/33".parse::<Ipv4Cidr>().is_err());
        assert!("10.0.0.0".parse::<Ipv4Cidr>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Cidr>().is_err());
    }

    #[test]
    fn v4_covers_and_overlaps() {
        let big: Ipv4Cidr = "10.0.0.0/8".parse().unwrap();
        let small: Ipv4Cidr = "10.5.0.0/16".parse().unwrap();
        let other: Ipv4Cidr = "11.0.0.0/8".parse().unwrap();
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.overlaps(&small) && small.overlaps(&big));
        assert!(!big.overlaps(&other));
        assert!(big.covers(&big));
    }

    #[test]
    fn v4_host_indexing() {
        let c: Ipv4Cidr = "198.51.100.0/30".parse().unwrap();
        assert_eq!(c.host(0), Some(Ipv4Addr::new(198, 51, 100, 0)));
        assert_eq!(c.host(3), Some(Ipv4Addr::new(198, 51, 100, 3)));
        assert_eq!(c.host(4), None);
    }

    #[test]
    fn v4_split() {
        let c: Ipv4Cidr = "10.0.0.0/8".parse().unwrap();
        let (lo, hi) = c.split().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        assert!(c.covers(&lo) && c.covers(&hi));
        assert!(!lo.overlaps(&hi));
    }

    #[test]
    fn v6_canonicalizes_and_displays() {
        let c: Ipv6Cidr = "2001:db8:100::dead:beef/48".parse().unwrap();
        assert_eq!(c.to_string(), "2001:db8:100::/48");
        assert!(c.contains("2001:db8:100:ffff::1".parse().unwrap()));
        assert!(!c.contains("2001:db8:101::1".parse().unwrap()));
    }

    #[test]
    fn v6_subnet_carving() {
        // The Tango prototype carves per-path tunnel subnets out of a /48.
        let block: Ipv6Cidr = "2001:db8:100::/48".parse().unwrap();
        let t0 = block.subnet(64, 0).unwrap();
        let t1 = block.subnet(64, 1).unwrap();
        let t3 = block.subnet(64, 3).unwrap();
        assert_eq!(t0.to_string(), "2001:db8:100::/64");
        assert_eq!(t1.to_string(), "2001:db8:100:1::/64");
        assert_eq!(t3.to_string(), "2001:db8:100:3::/64");
        assert!(block.covers(&t3));
        assert!(!t0.overlaps(&t1));
    }

    #[test]
    fn v6_subnet_errors() {
        let block: Ipv6Cidr = "2001:db8:100::/48".parse().unwrap();
        assert_eq!(block.subnet(32, 0), Err(Error::PrefixLen)); // shorter than parent
        assert_eq!(block.subnet(129, 0), Err(Error::PrefixLen));
        assert!(block.subnet(49, 2).is_err()); // only 2 children at /49
        assert!(block.subnet(48, 1).is_err()); // same length: only index 0
        assert!(block.subnet(48, 0).is_ok());
    }

    #[test]
    fn subnet_at_the_length_edges() {
        let all: Ipv6Cidr = "::/0".parse().unwrap();
        assert_eq!(all.subnet(0, 0), Ok(all));
        assert_eq!(all.subnet(0, 1), Err(Error::PrefixLen));
        assert_eq!(all.subnet(1, 1).unwrap().to_string(), "8000::/1");
        assert_eq!(all.subnet(128, 0).unwrap().to_string(), "::/128");
        assert_eq!(
            all.subnet(128, u128::MAX).unwrap().network(),
            Ipv6Addr::from(u128::MAX)
        );
        let block: Ipv6Cidr = "2001:db8::/48".parse().unwrap();
        let last = block.subnet(128, (1 << 80) - 1).unwrap();
        assert_eq!(last.to_string(), "2001:db8:0:ffff:ffff:ffff:ffff:ffff/128");
        assert_eq!(block.subnet(128, 1 << 80), Err(Error::PrefixLen));
        let host: Ipv6Cidr = "2001:db8::1/128".parse().unwrap();
        assert_eq!(host.subnet(128, 0), Ok(host));
        assert_eq!(host.subnet(128, 1), Err(Error::PrefixLen));
    }

    #[test]
    fn v6_host_indexing_extremes() {
        let c: Ipv6Cidr = "::/0".parse().unwrap();
        assert!(c.host(u128::MAX).is_some());
        let host: Ipv6Cidr = "2001:db8::1/128".parse().unwrap();
        assert_eq!(host.host(0), Some("2001:db8::1".parse().unwrap()));
        assert_eq!(host.host(1), None);
    }

    #[test]
    fn ip_cidr_cross_family() {
        let v4: IpCidr = "10.0.0.0/8".parse().unwrap();
        let v6: IpCidr = "2001:db8::/32".parse().unwrap();
        assert!(!v4.contains("2001:db8::1".parse().unwrap()));
        assert!(!v6.contains("10.0.0.1".parse().unwrap()));
        assert!(!v4.covers(&v6));
        assert!(matches!(v6, IpCidr::V6(_)) && matches!(v4, IpCidr::V4(_)));
    }
}
