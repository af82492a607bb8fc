//! Longest-prefix-match table.
//!
//! The Tango border switch keeps a table mapping destination host prefixes
//! to tunnel decisions ("when the border router sees traffic destined for
//! another Tango endpoint (based on a table...), it makes a
//! performance-driven routing decision", §3). This module provides the LPM
//! structure backing that table (and the simulator's core routing tables).
//!
//! Implementation: per address family, one sorted `Vec<(masked network,
//! value)>` per prefix length present, longest length first. A lookup is
//! one mask and one binary search per length. Every table the committed
//! scenarios build holds one or two lengths (/48, plus /56 under a
//! sub-prefix hijack) and at most a few hundred entries, and the lookup
//! runs once per hop of every packet — a bit-at-a-time boxed trie spent
//! 48 dependent pointer loads matching one /48 there.
//! The cost grows with the number of distinct lengths, not of prefixes:
//! a full-table FIB with dozens of lengths would want a multibit trie.

use crate::cidr::{IpCidr, Ipv4Cidr, Ipv6Cidr};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// The prefixes of one length, ascending by network.
#[derive(Debug, Clone)]
struct Level<V> {
    len: u8,
    entries: Vec<(u128, V)>,
}

impl<V> Level<V> {
    /// Where `network` is (`Ok`) or would be inserted (`Err`).
    fn find(&self, network: u128) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&network, |e| e.0)
    }
}

/// One address family's table. Addresses are MSB-first in a `u128`
/// (IPv4 in the top 32 bits), so one mask formula serves both families.
#[derive(Debug, Clone)]
struct Table<V> {
    /// Longest prefix length first; no level is empty.
    levels: Vec<Level<V>>,
}

/// The top `len` bits set.
fn mask(len: u8) -> u128 {
    u128::MAX
        .checked_shl(128 - u32::from(len.min(128)))
        .unwrap_or(0)
}

impl<V> Table<V> {
    fn level(&self, len: u8) -> Result<usize, usize> {
        self.levels.binary_search_by(|l| len.cmp(&l.len))
    }

    fn insert(&mut self, bits: u128, len: u8, value: V) -> Option<V> {
        let at = self.level(len).unwrap_or_else(|at| {
            let entries = Vec::new();
            self.levels.insert(at, Level { len, entries });
            at
        });
        let level = self.levels.get_mut(at)?;
        match level.find(bits) {
            Ok(i) => level
                .entries
                .get_mut(i)
                .map(|e| std::mem::replace(&mut e.1, value)),
            Err(i) => {
                level.entries.insert(i, (bits, value));
                None
            }
        }
    }

    fn remove(&mut self, bits: u128, len: u8) -> Option<V> {
        let at = self.level(len).ok()?;
        let level = self.levels.get_mut(at)?;
        let (_, old) = level.entries.remove(level.find(bits).ok()?);
        if level.entries.is_empty() {
            self.levels.remove(at);
        }
        Some(old)
    }

    fn exact(&self, bits: u128, len: u8) -> Option<&V> {
        let level = self.levels.get(self.level(len).ok()?)?;
        level.entries.get(level.find(bits).ok()?).map(|e| &e.1)
    }

    fn longest(&self, bits: u128) -> Option<(u8, &V)> {
        self.levels.iter().find_map(|l| {
            let i = l.find(bits & mask(l.len)).ok()?;
            l.entries.get(i).map(|e| (l.len, &e.1))
        })
    }

    /// Every entry as (network, length, value), sorted by (network,
    /// length): the pre-order of the bit trie this table replaced.
    fn sorted(&self) -> Vec<(u128, u8, &V)> {
        let mut out: Vec<_> = self
            .levels
            .iter()
            .flat_map(|l| l.entries.iter().map(|e| (e.0, l.len, &e.1)))
            .collect();
        out.sort_unstable_by_key(|&(bits, len, _)| (bits, len));
        out
    }
}

/// A longest-prefix-match table from [`IpCidr`] keys to values.
///
/// IPv4 and IPv6 prefixes live in separate tables, so a v4 lookup can
/// never match a v6 prefix or vice versa.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    v4: Table<V>,
    v6: Table<V>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

fn v4_bits(addr: Ipv4Addr) -> u128 {
    (u128::from(u32::from(addr))) << 96
}

fn v6_bits(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

impl<V> PrefixTrie<V> {
    /// An empty table.
    pub fn new() -> Self {
        PrefixTrie {
            v4: Table { levels: Vec::new() },
            v6: Table { levels: Vec::new() },
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        let levels = self.v4.levels.iter().chain(&self.v6.levels);
        levels.map(|l| l.entries.len()).sum()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.v4.levels.is_empty() && self.v6.levels.is_empty()
    }

    /// Insert a prefix → value mapping; returns the previous value if the
    /// exact prefix was already present.
    pub fn insert(&mut self, prefix: IpCidr, value: V) -> Option<V> {
        match prefix {
            IpCidr::V4(c) => self.v4.insert(v4_bits(c.network()), c.prefix_len(), value),
            IpCidr::V6(c) => self.v6.insert(v6_bits(c.network()), c.prefix_len(), value),
        }
    }

    /// Remove an exact prefix, returning its value.
    pub fn remove(&mut self, prefix: &IpCidr) -> Option<V> {
        match prefix {
            IpCidr::V4(c) => self.v4.remove(v4_bits(c.network()), c.prefix_len()),
            IpCidr::V6(c) => self.v6.remove(v6_bits(c.network()), c.prefix_len()),
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &IpCidr) -> Option<&V> {
        match prefix {
            IpCidr::V4(c) => self.v4.exact(v4_bits(c.network()), c.prefix_len()),
            IpCidr::V6(c) => self.v6.exact(v6_bits(c.network()), c.prefix_len()),
        }
    }

    /// Longest-prefix match for an address: returns the matching prefix
    /// and its value, or `None` if no prefix covers the address.
    pub fn longest_match(&self, addr: IpAddr) -> Option<(IpCidr, &V)> {
        // A stored length came from a valid CIDR of the same family, so
        // the `ok()?`s never fire.
        match addr {
            IpAddr::V4(a) => {
                let (len, v) = self.v4.longest(v4_bits(a))?;
                Some((IpCidr::V4(Ipv4Cidr::new(a, len).ok()?), v))
            }
            IpAddr::V6(a) => {
                let (len, v) = self.v6.longest(v6_bits(a))?;
                Some((IpCidr::V6(Ipv6Cidr::new(a, len).ok()?), v))
            }
        }
    }

    /// The value of the longest prefix covering `addr`: the forwarding
    /// path's [`PrefixTrie::longest_match`], which builds no prefix.
    pub fn lookup(&self, addr: IpAddr) -> Option<&V> {
        let (_, v) = match addr {
            IpAddr::V4(a) => self.v4.longest(v4_bits(a))?,
            IpAddr::V6(a) => self.v6.longest(v6_bits(a))?,
        };
        Some(v)
    }

    /// All stored (prefix, value) pairs: IPv4 then IPv6, each sorted by
    /// (network, prefix length).
    pub fn iter(&self) -> Vec<(IpCidr, &V)> {
        let v4 = self.v4.sorted().into_iter().filter_map(|(bits, len, v)| {
            let addr = Ipv4Addr::from((bits >> 96) as u32);
            Some((IpCidr::V4(Ipv4Cidr::new(addr, len).ok()?), v))
        });
        let v6 = self.v6.sorted().into_iter().filter_map(|(bits, len, v)| {
            Some((
                IpCidr::V6(Ipv6Cidr::new(Ipv6Addr::from(bits), len).ok()?),
                v,
            ))
        });
        v4.chain(v6).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> IpCidr {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_prefers_longer() {
        let mut t = PrefixTrie::new();
        t.insert(cidr("10.0.0.0/8"), "eight");
        t.insert(cidr("10.1.0.0/16"), "sixteen");
        t.insert(cidr("10.1.2.0/24"), "twentyfour");
        let (p, v) = t.longest_match(addr("10.1.2.3")).unwrap();
        assert_eq!((p, *v), (cidr("10.1.2.0/24"), "twentyfour"));
        let (p, v) = t.longest_match(addr("10.1.9.9")).unwrap();
        assert_eq!((p, *v), (cidr("10.1.0.0/16"), "sixteen"));
        let (p, v) = t.longest_match(addr("10.200.0.1")).unwrap();
        assert_eq!((p, *v), (cidr("10.0.0.0/8"), "eight"));
        assert!(t.longest_match(addr("11.0.0.1")).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(cidr("0.0.0.0/0"), 1);
        t.insert(cidr("::/0"), 2);
        assert_eq!(*t.longest_match(addr("255.255.255.255")).unwrap().1, 1);
        assert_eq!(*t.longest_match(addr("8.8.8.8")).unwrap().1, 1);
        assert_eq!(*t.longest_match(addr("2001:db8::1")).unwrap().1, 2);
    }

    #[test]
    fn families_are_isolated() {
        let mut t = PrefixTrie::new();
        t.insert(cidr("0.0.0.0/0"), "v4");
        assert!(t.longest_match(addr("2001:db8::1")).is_none());
        t.insert(cidr("2001:db8::/32"), "v6");
        assert_eq!(*t.longest_match(addr("2001:db8::1")).unwrap().1, "v6");
        assert_eq!(*t.longest_match(addr("1.2.3.4")).unwrap().1, "v4");
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(cidr("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(cidr("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(*t.get(&cidr("10.0.0.0/8")).unwrap(), 2);
    }

    #[test]
    fn remove_works_and_reexposes_shorter() {
        let mut t = PrefixTrie::new();
        t.insert(cidr("10.0.0.0/8"), "short");
        t.insert(cidr("10.1.0.0/16"), "long");
        assert_eq!(t.remove(&cidr("10.1.0.0/16")), Some("long"));
        assert_eq!(t.remove(&cidr("10.1.0.0/16")), None);
        let (p, v) = t.longest_match(addr("10.1.2.3")).unwrap();
        assert_eq!((p, *v), (cidr("10.0.0.0/8"), "short"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn v6_tunnel_prefixes_resolve() {
        // The Tango scenario: four /48s, each a different wide-area path.
        let mut t = PrefixTrie::new();
        for (i, name) in ["ntt", "telia", "gtt", "cogent"].iter().enumerate() {
            let c: IpCidr = format!("2001:db8:{:x}::/48", 0x100 + i).parse().unwrap();
            t.insert(c, *name);
        }
        assert_eq!(*t.longest_match(addr("2001:db8:102::42")).unwrap().1, "gtt");
        assert_eq!(
            *t.longest_match(addr("2001:db8:103:ffff::1")).unwrap().1,
            "cogent"
        );
        assert!(t.longest_match(addr("2001:db8:104::1")).is_none());
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(cidr("192.0.2.1/32"), "host");
        t.insert(cidr("192.0.2.0/24"), "net");
        assert_eq!(*t.longest_match(addr("192.0.2.1")).unwrap().1, "host");
        assert_eq!(*t.longest_match(addr("192.0.2.2")).unwrap().1, "net");
    }

    #[test]
    fn iter_returns_all() {
        let mut t = PrefixTrie::new();
        let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "2001:db8::/32", "0.0.0.0/0"];
        for (i, p) in prefixes.iter().enumerate() {
            t.insert(cidr(p), i);
        }
        let got = t.iter();
        assert_eq!(got.len(), 4);
        for (i, p) in prefixes.iter().enumerate() {
            assert!(got.iter().any(|(c, v)| *c == cidr(p) && **v == i));
        }
    }

    #[test]
    fn zero_len_prefix_lookup_on_empty_trie() {
        let t: PrefixTrie<u8> = PrefixTrie::new();
        assert!(t.longest_match(addr("0.0.0.0")).is_none());
        assert!(t.is_empty());
    }
}
