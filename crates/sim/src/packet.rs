//! The bytes in flight: [`Packet`] and the [`BufferPool`] its buffers
//! come from and go back to.
//!
//! ## Fast-path layout
//!
//! * A [`Packet`] keeps its bytes in a buffer with *headroom*, so the
//!   data plane can prepend/strip encapsulation in place, and dead
//!   packets' buffers are recycled through a freelist
//!   ([`crate::Ctx::recycle`]) instead of hitting the allocator per
//!   packet.
//! * Its bytes are copy-on-write: a clone shares them, so a scheduled
//!   packet holds no buffer until dispatch hands it one from that
//!   freelist. The buffer format (`buf`, `shared`, `start`, `view`) is
//!   private to this module: everything else goes through the methods.
//! * It caches its parsed destination and its ECMP flow hash, so a hop
//!   re-parses and re-hashes nothing.

use crate::hash::flow_hash;
use std::cell::{Cell, OnceCell};
use std::net::Ipv6Addr;
use std::num::NonZeroU64;
use std::sync::Arc;
use tango_net::{Ipv6Packet, Ipv6Repr};

/// Cached destination-address parse state of a [`Packet`]: whether the
/// header parsed, not its address, which a hop reads back out of the
/// already-validated header (one byte of cache instead of a 16-byte
/// address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DstCache {
    /// Not parsed yet (or invalidated by a mutation).
    Unparsed,
    /// Parsed and the header was not valid IPv6.
    Invalid,
    /// A valid IPv6 header.
    V6,
}

/// A packet in flight: raw bytes, nothing else. All semantics live in the
/// bytes themselves (smoltcp idiom) — the simulator never peeks beyond
/// what a real router could see.
///
/// The bytes sit inside a buffer at an offset, so a data plane can
/// reserve *headroom* and prepend/strip encapsulation headers in place
/// instead of rebuilding the wire image. The parsed destination and the
/// ECMP flow hash are cached alongside the bytes (computed at the first
/// hop that asks) and invalidated by any byte mutation, so multi-hop
/// forwarding re-parses and re-hashes nothing.
///
/// Copy-on-write: `clone` copies no bytes. An owned packet freezes one
/// shared copy of its buffer at its first clone, every later clone
/// reuses that copy until the next mutation drops it, and a clone is a
/// *view* of it. Every mutator but `strip_front` (which only moves the
/// offset) gives a view a buffer of its own first, and the engine gives
/// one from the shard's [`BufferPool`] to every view it dispatches, so a
/// scheduled packet costs a reference count, not a buffer.
#[derive(Debug)]
pub struct Packet {
    /// The packet's own buffer: headroom, then the visible bytes. Empty
    /// and unallocated while the packet is a view.
    buf: Vec<u8>,
    /// A view's bytes; for an owned packet, the frozen copy of `buf` its
    /// clones share (equal to `buf` whenever it is set).
    shared: OnceCell<Arc<[u8]>>,
    /// Offset of the visible bytes — a `u32`, so the caches fit beside
    /// it without growing the struct every queued event carries.
    start: u32,
    /// The bytes are `shared`'s and `buf` holds none yet.
    view: bool,
    dst: Cell<DstCache>,
    /// [`flow_hash`] of the visible bytes, once computed. A hash of
    /// exactly 0 is never cached, only recomputed.
    hash: Cell<Option<NonZeroU64>>,
}

// Every queued event carries a packet: a larger one grows every queue.
const _: () = assert!(std::mem::size_of::<Packet>() <= 56);

/// A view of the bytes (see [`Packet`]) that keeps both caches.
impl Clone for Packet {
    fn clone(&self) -> Self {
        let shared = self.shared.get_or_init(|| Arc::from(self.buf.as_slice()));
        Packet {
            buf: Vec::new(),
            shared: OnceCell::from(Arc::clone(shared)),
            start: self.start,
            view: true,
            dst: self.dst.clone(),
            hash: self.hash.clone(),
        }
    }
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}
impl Eq for Packet {}

impl Packet {
    /// Spare capacity that [`Packet::alloc`], [`Packet::with_headroom`],
    /// [`Packet::host`] and a view's first buffer reserve behind the
    /// bytes: room for the 8-byte authentication trailer the data plane
    /// appends in place, so an exactly-sized buffer is not reallocated
    /// (and doubled) for it. Capacity only — never visible bytes.
    pub const TAILROOM: usize = 8;

    // tango-lint: allow(hot-path-panic) an offset never exceeds buf.len(), and a packet buffer beyond 4 GiB is a caller bug
    fn offset(at: usize) -> u32 {
        u32::try_from(at).expect("packet offsets fit u32")
    }

    /// The packet over `buf` whose visible bytes begin at `start`.
    fn over(buf: Vec<u8>, start: usize) -> Self {
        Packet {
            buf,
            shared: OnceCell::new(),
            start: Self::offset(start),
            view: false,
            dst: Cell::new(DstCache::Unparsed),
            hash: Cell::new(None),
        }
    }

    /// The whole buffer: headroom, then the visible bytes.
    fn whole(&self) -> &[u8] {
        match self.shared.get() {
            Some(shared) if self.view => shared,
            _ => &self.buf,
        }
    }

    /// The packet's own buffer, about to be written: a view first copies
    /// its bytes into `spare()` (with [`Packet::TAILROOM`] to spare), and
    /// an owned packet drops its frozen copy (its clones keep theirs).
    fn own(&mut self, spare: impl FnOnce() -> Vec<u8>) -> &mut Vec<u8> {
        if let Some(shared) = self.shared.take() {
            if std::mem::take(&mut self.view) {
                let mut buf = spare();
                buf.clear();
                buf.reserve(shared.len() + Self::TAILROOM);
                buf.extend_from_slice(&shared);
                self.buf = buf;
            }
        }
        &mut self.buf
    }

    /// Give a view a buffer from `pool` before an agent writes to it. An
    /// owned packet keeps its own and draws nothing.
    pub(crate) fn materialize(&mut self, pool: &mut BufferPool) {
        if self.view {
            self.own(|| pool.take());
        }
    }

    /// Forget both caches: the bytes changed.
    fn invalidate(&self) {
        self.dst.set(DstCache::Unparsed);
        self.hash.set(None);
    }

    /// Wrap raw bytes (no headroom).
    pub fn new(bytes: Vec<u8>) -> Self {
        Self::over(bytes, 0)
    }

    /// Copy `bytes` into a fresh buffer with `headroom` writable bytes in
    /// front (room for in-place encapsulation).
    pub fn with_headroom(headroom: usize, bytes: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(headroom + bytes.len() + Self::TAILROOM);
        buf.resize(headroom, 0);
        buf.extend_from_slice(bytes);
        Self::over(buf, headroom)
    }

    /// A zero-filled packet of `len` visible bytes behind `headroom` —
    /// emit a representation into [`Packet::bytes_mut`] afterwards.
    pub fn alloc(headroom: usize, len: usize) -> Self {
        let mut buf = Vec::with_capacity(headroom + len + Self::TAILROOM);
        buf.resize(headroom + len, 0);
        Self::over(buf, headroom)
    }

    /// Hop limit of every [`Packet::host`] packet: bounds its hops, and
    /// with them the spans it can leave in a ring.
    pub const HOST_HOP_LIMIT: u8 = 64;

    /// The host packet every scenario injects: an IPv6 header (next
    /// header UDP, hop limit [`Packet::HOST_HOP_LIMIT`], flow label 0)
    /// over `payload_len` zero bytes, behind `headroom` bytes reserved
    /// for in-place encapsulation.
    ///
    /// # Panics
    ///
    /// If `payload_len` exceeds the IPv6 payload-length field (65 535).
    pub fn host(
        src: Ipv6Addr,
        dst: Ipv6Addr,
        payload_len: usize,
        headroom: usize,
        traffic_class: u8,
    ) -> Self {
        let repr = Ipv6Repr {
            src_addr: src,
            dst_addr: dst,
            next_header: 17,
            payload_len,
            hop_limit: Self::HOST_HOP_LIMIT,
            traffic_class,
            flow_label: 0,
        };
        let mut pkt = Packet::alloc(headroom, repr.total_len());
        // tango-lint: allow(hot-path-panic) injection-time, not per-hop: the buffer is sized by total_len, so only the documented oversize payload fails
        repr.emit(&mut Ipv6Packet::new_unchecked(pkt.bytes_mut()))
            .expect("payload fits the 16-bit length field");
        pkt
    }

    /// Reuse `buf` (typically from the pool) as an empty packet with
    /// `headroom` bytes reserved in front.
    pub fn from_recycled(mut buf: Vec<u8>, headroom: usize) -> Self {
        buf.clear();
        buf.resize(headroom, 0);
        Self::over(buf, headroom)
    }

    /// The visible packet bytes.
    // tango-lint: allow(hot-path-panic) start <= buf.len() is a Packet invariant upheld by every constructor
    pub fn bytes(&self) -> &[u8] {
        &self.whole()[self.headroom()..]
    }

    /// Mutable access to the packet bytes. Invalidates the cached
    /// destination and flow hash (the caller may rewrite anything).
    // tango-lint: allow(hot-path-panic) start <= buf.len() is a Packet invariant upheld by every constructor
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.invalidate();
        let start = self.headroom();
        &mut self.own(Vec::new)[start..]
    }

    /// Visible length.
    pub fn len(&self) -> usize {
        self.whole().len() - self.headroom()
    }

    /// Is the packet empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writable bytes available in front of the packet.
    pub fn headroom(&self) -> usize {
        self.start as usize
    }

    /// Grow the packet `n` bytes at the front (into headroom), returning
    /// the new front. Panics if the headroom is insufficient — callers
    /// must check [`Packet::headroom`] and fall back to a copying path.
    // tango-lint: allow(hot-path-panic) the assert above this slice enforces the documented headroom contract
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        assert!(self.headroom() >= n, "prepend past headroom");
        self.start = Self::offset(self.headroom() - n);
        self.invalidate();
        let start = self.headroom();
        &mut self.own(Vec::new)[start..]
    }

    /// Drop `n` bytes from the front (they become headroom for a later
    /// re-encapsulation). Moves the offset only: a view stays a view.
    pub fn strip_front(&mut self, n: usize) {
        assert!(n <= self.len(), "strip past end");
        self.start = Self::offset(self.headroom() + n);
        self.invalidate();
    }

    /// Append bytes at the tail.
    pub fn append(&mut self, data: &[u8]) {
        self.own(Vec::new).extend_from_slice(data);
        self.invalidate();
    }

    /// Shorten the packet to `len` visible bytes.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len(), "truncate cannot grow");
        let end = self.headroom() + len;
        self.own(Vec::new).truncate(end);
        self.invalidate();
    }

    /// Take the packet's own buffer (for recycling): a view has none and
    /// yields an empty, unallocated one.
    pub fn into_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// The destination address, if the bytes parse as an IPv6 header (a
    /// header of any other version does not). Cached: repeated calls
    /// between mutations parse once.
    pub fn dst_addr(&self) -> Option<Ipv6Addr> {
        let bytes = self.bytes();
        match self.dst.get() {
            DstCache::V6 => return Some(Ipv6Packet::new_unchecked(bytes).dst_addr()),
            DstCache::Invalid => return None,
            DstCache::Unparsed => {}
        }
        let parsed = Ipv6Packet::new_checked(bytes).ok().map(|p| p.dst_addr());
        self.dst.set(match parsed {
            Some(_) => DstCache::V6,
            None => DstCache::Invalid,
        });
        parsed
    }

    /// The ECMP flow hash of the packet ([`flow_hash`] of its bytes).
    /// Cached: the 5-tuple is hashed once, not at each router it crosses.
    pub fn flow_hash(&self) -> u64 {
        if let Some(h) = self.hash.get() {
            return h.get();
        }
        let h = flow_hash(self.bytes());
        self.hash.set(NonZeroU64::new(h));
        h
    }

    /// Decrement the hop limit in place. Returns false if the hop limit
    /// is exhausted or the packet is not IPv6. Leaves the cached
    /// destination intact — this mutation cannot change the addresses —
    /// and the cached flow hash too when the header is known to parse:
    /// the 5-tuple excludes the hop limit, but the first-bytes hash of an
    /// unparseable packet covers it.
    // tango-lint: allow(hot-path-panic) both offsets lie inside the 40-byte header slice the match arm holds
    pub fn decrement_hop_limit(&mut self) -> bool {
        if self.dst.get() != DstCache::V6 {
            self.hash.set(None);
        }
        let start = self.headroom();
        match self.own(Vec::new)[start..].get_mut(..40) {
            Some(hdr) if hdr[0] >> 4 == 6 && hdr[7] > 1 => {
                hdr[7] -= 1;
                true
            }
            _ => false,
        }
    }
}

/// Freelist of packet buffers: dead packets hand their allocation back,
/// new packets take one instead of hitting the allocator.
///
/// Retention is bounded by demand: the pool keeps a dead buffer only
/// while it holds fewer than the number of times [`BufferPool::take`]
/// has found it empty. Scheduled clones draw from it as they are
/// dispatched, so it keeps about as many buffers as packets were ever
/// in flight at once; packets that arrive owning a buffer draw nothing.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    /// Pool misses so far, capped at [`POOL_MAX`].
    pub(crate) demand: usize,
}

/// Buffers retained at most (beyond this, dead buffers really free).
const POOL_MAX: usize = 4096;

impl BufferPool {
    /// Take a cleared buffer (pool hit) or a fresh one (a miss, which
    /// raises how many dead buffers the pool will keep).
    pub fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_else(|| {
            self.demand = (self.demand + 1).min(POOL_MAX);
            Vec::new()
        })
    }

    /// Return a buffer to the freelist, or free it if the pool already
    /// holds as many as it has had to hand out.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.demand && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Buffers currently parked in the freelist.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Is the freelist empty?
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A host packet to `dst` with the given hop limit and no payload.
    pub(crate) fn ipv6_packet(dst: &str, hop_limit: u8) -> Packet {
        let src = "2001:db8:aaaa::1".parse().unwrap();
        let mut pkt = Packet::host(src, dst.parse().unwrap(), 0, 0, 0);
        Ipv6Packet::new_unchecked(pkt.bytes_mut()).set_hop_limit(hop_limit);
        pkt
    }

    #[test]
    fn packet_headroom_prepend_strip_roundtrip() {
        let inner = vec![0x45u8, 1, 2, 3];
        let mut pkt = Packet::with_headroom(16, &inner);
        assert_eq!(pkt.bytes(), &inner[..]);
        assert_eq!(pkt.headroom(), 16);
        let hdr = pkt.prepend(8);
        hdr[..8].copy_from_slice(&[9u8; 8]);
        assert_eq!(pkt.len(), inner.len() + 8);
        assert_eq!(pkt.headroom(), 8);
        assert_eq!(&pkt.bytes()[..8], &[9u8; 8]);
        pkt.strip_front(8);
        assert_eq!(pkt.bytes(), &inner[..]);
        assert_eq!(pkt.headroom(), 16);
    }

    #[test]
    fn packet_equality_ignores_headroom() {
        let a = Packet::new(vec![1, 2, 3]);
        let b = Packet::with_headroom(32, &[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn dst_addr_cache_tracks_mutation() {
        let mut pkt = ipv6_packet("2001:db8:3::1", 64);
        let first = pkt.dst_addr().unwrap();
        assert_eq!(first, "2001:db8:3::1".parse::<Ipv6Addr>().unwrap());
        // Cached: a second call without mutation returns the same.
        assert_eq!(pkt.dst_addr(), Some(first));
        // Rewrite the destination through bytes_mut: cache must refresh.
        {
            let bytes = pkt.bytes_mut();
            let mut v = Ipv6Packet::new_unchecked(bytes);
            v.set_dst_addr("2001:db8:3::2".parse().unwrap());
        }
        assert_eq!(
            pkt.dst_addr(),
            Some("2001:db8:3::2".parse::<Ipv6Addr>().unwrap())
        );
    }

    #[test]
    fn decrement_hop_limit_keeps_dst_cache_valid() {
        let mut pkt = ipv6_packet("2001:db8:3::1", 64);
        let before = pkt.dst_addr();
        assert!(pkt.decrement_hop_limit());
        assert_eq!(pkt.bytes()[7], 63);
        assert_eq!(pkt.dst_addr(), before);
    }

    #[test]
    fn ipv4_header_is_not_routed() {
        // A well-formed 20-byte IPv4 header (10.0.0.1 -> 10.0.0.2, TTL 64,
        // correct header checksum) gets the drop a malformed header gets:
        // no destination, no hop-limit decrement, bytes untouched.
        let mut hdr = vec![
            0x45, 0, 0, 20, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
        ];
        let ck = tango_net::checksum::checksum(&hdr);
        hdr[10..12].copy_from_slice(&ck.to_be_bytes());
        let mut pkt = Packet::new(hdr.clone());
        assert_eq!(pkt.dst_addr(), None);
        assert!(!pkt.decrement_hop_limit());
        assert_eq!(pkt.bytes(), &hdr[..]);
        assert_eq!(pkt.dst_addr(), None);
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let buf = |cap: usize| {
            let mut b = Vec::with_capacity(cap);
            b.extend_from_slice(&[1, 2, 3]);
            b
        };
        // No miss yet: nothing to keep a buffer for.
        let mut pool = BufferPool::default();
        pool.put(buf(256));
        assert!(pool.is_empty());
        // Three misses: the pool keeps three dead buffers and frees the rest.
        for _ in 0..3 {
            assert_eq!(pool.take().capacity(), 0);
        }
        for _ in 0..5 {
            pool.put(buf(256));
        }
        assert_eq!(pool.len(), 3);
        // A hit hands back a kept buffer's capacity, cleared, and does not
        // raise demand: the slot it frees is the only one to refill.
        let reused = pool.take();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), 256);
        pool.put(buf(512));
        pool.put(buf(512));
        assert_eq!(pool.len(), 3);
        // However often it misses, the pool never keeps more than POOL_MAX.
        let mut pool = BufferPool::default();
        for _ in 0..POOL_MAX + 10 {
            pool.take();
        }
        for _ in 0..POOL_MAX + 10 {
            pool.put(buf(8));
        }
        assert_eq!(pool.len(), POOL_MAX);
    }
}
