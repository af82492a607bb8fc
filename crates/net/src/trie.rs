//! Longest-prefix-match table.
//!
//! The Tango border switch keeps a table mapping destination host prefixes
//! to tunnel decisions ("when the border router sees traffic destined for
//! another Tango endpoint (based on a table...), it makes a
//! performance-driven routing decision", §3). This module provides the LPM
//! structure backing that table (and the simulator's core routing tables).
//!
//! Implementation: per address family, one exact-match hash table per
//! prefix length present, tried longest length first — the per-length
//! tables of Waldvogel, Varghese, Turner and Plattner ("Scalable High
//! Speed IP Routing Lookups", SIGCOMM 1997), without their binary search
//! over lengths. A lookup is one mask and one hash probe per length; a
//! hit costs two dependent loads, the slot and then the entry.
//! Every table the committed scenarios build holds one or two lengths
//! (/48, plus /56 under a sub-prefix hijack) and at most a few hundred
//! entries, and the lookup runs once per hop of every packet.
//! The cost grows with the number of distinct lengths, not of prefixes:
//! a full-table FIB with dozens of lengths would want a multibit trie.
//!
//! A length's table keeps its entries in insertion order as `(Key, V)`,
//! the network split into two `u64` words so an entry with a 4-byte
//! value is 24 B (a `u128` key pads it to 32), and indexes them with an
//! open-addressing `Vec<u32>` of entry index + 1 (0 = empty): linear
//! probing, a power-of-two length, at most half full. The hash is a
//! fixed Fibonacci hash of the masked network, so the layout — and
//! with it every simulation — is deterministic.

use crate::cidr::{mask_v6, IpCidr, Ipv4Cidr, Ipv6Cidr};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// A masked network as two words: 8-byte aligned, unlike a `u128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    hi: u64,
    lo: u64,
}

impl Key {
    #[inline]
    fn of(bits: u128) -> Key {
        Key {
            hi: (bits >> 64) as u64,
            lo: bits as u64,
        }
    }

    fn bits(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// The first slot probed for this key in a table of `slots` slots
    /// (a power of two, at least 2): the top bits of a Fibonacci hash.
    #[inline]
    fn home(self, slots: usize) -> usize {
        let h = (self.hi ^ self.lo.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - slots.trailing_zeros())) as usize
    }
}

/// The prefixes of one length: an exact-match hash table.
#[derive(Debug, Clone)]
struct Level<V> {
    len: u8,
    /// In insertion order; never empty once the level is in a table.
    entries: Vec<(Key, V)>,
    /// Entry index + 1 per slot, 0 = empty. A power of two, at least 2,
    /// and at least twice `entries.len()`, so every probe chain ends.
    slots: Vec<u32>,
}

impl<V> Level<V> {
    /// `key`'s entry index (`Ok`), or the empty slot that ends its probe
    /// chain (`Err`).
    fn probe(&self, key: Key) -> Result<usize, usize> {
        let wrap = self.slots.len().wrapping_sub(1);
        let mut at = key.home(self.slots.len());
        loop {
            let i = match self.slots.get(at) {
                Some(&s) if s != 0 => s as usize - 1,
                _ => return Err(at),
            };
            if self.entries.get(i).is_some_and(|e| e.0 == key) {
                return Ok(i);
            }
            at = (at + 1) & wrap;
        }
    }

    fn get(&self, key: Key) -> Option<&V> {
        let i = self.probe(key).ok()?;
        self.entries.get(i).map(|e| &e.1)
    }

    fn insert(&mut self, key: Key, value: V) -> Option<V> {
        match self.probe(key) {
            Ok(i) => self
                .entries
                .get_mut(i)
                .map(|e| std::mem::replace(&mut e.1, value)),
            Err(at) => {
                self.entries.push((key, value));
                if self.entries.len() * 2 > self.slots.len() {
                    self.reindex();
                } else if let Some(s) = self.slots.get_mut(at) {
                    *s = self.entries.len() as u32;
                }
                None
            }
        }
    }

    /// Removal is rare, so it moves the last entry into the hole and
    /// rebuilds the index rather than repairing probe chains in place.
    fn remove(&mut self, key: Key) -> Option<V> {
        let i = self.probe(key).ok()?;
        let (_, old) = self.entries.swap_remove(i);
        self.reindex();
        Some(old)
    }

    /// Size the index for the entries (at most half full) and rebuild it.
    fn reindex(&mut self) {
        self.slots = vec![0; (self.entries.len() * 2).next_power_of_two().max(2)];
        for i in 0..self.entries.len() {
            let Some(key) = self.entries.get(i).map(|e| e.0) else {
                break;
            };
            // Only entries before `i` are indexed yet, and keys are
            // distinct, so the probe ends at a free slot.
            if let Err(at) = self.probe(key) {
                if let Some(s) = self.slots.get_mut(at) {
                    *s = i as u32 + 1;
                }
            }
        }
    }
}

/// One address family's table. Addresses are MSB-first in a `u128`
/// (IPv4 in the top 32 bits), so one mask formula serves both families.
#[derive(Debug, Clone)]
struct Table<V> {
    /// Longest prefix length first; no level is empty.
    levels: Vec<Level<V>>,
}

impl<V> Table<V> {
    fn level(&self, len: u8) -> Result<usize, usize> {
        self.levels.binary_search_by(|l| len.cmp(&l.len))
    }

    fn insert(&mut self, bits: u128, len: u8, value: V) -> Option<V> {
        let at = self.level(len).unwrap_or_else(|at| {
            let (entries, slots) = (Vec::new(), Vec::new());
            self.levels.reserve_exact(1);
            self.levels.insert(
                at,
                Level {
                    len,
                    entries,
                    slots,
                },
            );
            at
        });
        self.levels.get_mut(at)?.insert(Key::of(bits), value)
    }

    fn remove(&mut self, bits: u128, len: u8) -> Option<V> {
        let at = self.level(len).ok()?;
        let level = self.levels.get_mut(at)?;
        let old = level.remove(Key::of(bits))?;
        if level.entries.is_empty() {
            self.levels.remove(at);
        }
        Some(old)
    }

    fn exact(&self, bits: u128, len: u8) -> Option<&V> {
        self.levels.get(self.level(len).ok()?)?.get(Key::of(bits))
    }

    fn longest(&self, bits: u128) -> Option<(u8, &V)> {
        self.levels.iter().find_map(|l| {
            let v = l.get(Key::of(bits & mask_v6(l.len)))?;
            Some((l.len, v))
        })
    }

    /// Every entry as (network, length, value), sorted by (network,
    /// length): the pre-order of the bit trie this table replaced.
    fn sorted(&self) -> Vec<(u128, u8, &V)> {
        let mut out: Vec<_> = self
            .levels
            .iter()
            .flat_map(|l| l.entries.iter().map(|e| (e.0.bits(), l.len, &e.1)))
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
    fn removing_a_chain_head_keeps_the_rest_of_the_chain() {
        // Eight /48s index into 16 slots. Three of them share the last
        // home slot, so their chain wraps round to slots 0 and 1.
        let net = |i: u16| cidr(&format!("2001:db8:{i:x}::/48"));
        let homes_last = |i: &u16| {
            let bits = (0x2001_0db8 << 96) | (u128::from(*i) << 80);
            Key::of(bits).home(16) == 15
        };
        let chain: Vec<u16> = (0..).filter(homes_last).take(5).collect();
        let others = (0..).filter(|i| !homes_last(i));
        let (present, absent) = chain.split_at(3);
        let keys: Vec<u16> = present.iter().copied().chain(others.take(5)).collect();
        let mut t = PrefixTrie::new();
        for &i in &keys {
            t.insert(net(i), i);
        }
        // Entries 0, 1 and 2 (index + 1 in a slot) fill slots 15, 0, 1.
        let slots = &t.v6.levels[0].slots;
        assert_eq!(slots.len(), 16);
        assert_eq!([slots[15], slots[0], slots[1]], [1, 2, 3]);

        assert_eq!(t.remove(&net(present[0])), Some(present[0]));
        for &i in &keys[1..] {
            assert_eq!(t.get(&net(i)), Some(&i));
            let host = format!("2001:db8:{i:x}:1::1");
            assert_eq!(t.lookup(addr(&host)), Some(&i));
        }
        for &i in absent.iter().chain(&present[..1]) {
            assert_eq!(t.get(&net(i)), None);
            assert_eq!(t.lookup(addr(&format!("2001:db8:{i:x}::1"))), None);
        }
        assert_eq!(t.len(), keys.len() - 1);
    }

    #[test]
    fn zero_len_prefix_lookup_on_empty_trie() {
        let t: PrefixTrie<u8> = PrefixTrie::new();
        assert!(t.longest_match(addr("0.0.0.0")).is_none());
        assert!(t.is_empty());
    }
}
