//! The span flight-recorder ring (live implementation, `enabled` on).
//!
//! The one record of packet-level incidents: fixed capacity,
//! overwrite-oldest, key-ordered merge across shards. Capacity 0 records
//! nothing (the default), so the instrumentation costs one branch when
//! disarmed.
//!
//! This module is on the span-emission path: the `span-alloc` tango-lint
//! rule bans `String`/`format!` allocation here.

use crate::span::{Span, SpanKey, SpanKind};

/// A bounded ring of [`Span`]s with dispatch-scoped key assignment.
#[derive(Debug, Default)]
pub struct SpanRing {
    capacity: usize,
    entries: Vec<Span>,
    head: usize,
    total: u64,
    /// Key template of the current dispatch; `intra` is the next index
    /// to assign.
    cur: SpanKey,
    /// Lazily staged dispatch span (flushed by the first child record,
    /// discarded if the dispatch emits nothing).
    pending: Option<Span>,
}

impl SpanRing {
    /// A ring keeping at most `capacity` most-recent spans.
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            capacity,
            entries: Vec::new(),
            head: 0,
            total: 0,
            cur: SpanKey {
                time_ns: 0,
                origin: 0,
                seq: 0,
                intra: 0,
            },
            pending: None,
        }
    }

    /// Is recording armed (capacity > 0)?
    #[inline]
    pub fn armed(&self) -> bool {
        self.capacity > 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mark the start of a dispatch: spans recorded up to the next call
    /// are keyed `{time_ns, origin, seq, intra}` with `intra` counting
    /// up from 0. An unflushed staged dispatch span is discarded.
    #[inline]
    pub fn begin_dispatch(&mut self, time_ns: u64, origin: u32, seq: u64) {
        self.cur = SpanKey {
            time_ns,
            origin,
            seq,
            intra: 0,
        };
        self.pending = None;
    }

    /// The key of the current dispatch's own span (intra 0) — what child
    /// spans and scheduled events use as their parent.
    #[inline]
    pub fn dispatch_key(&self) -> SpanKey {
        self.cur.dispatch()
    }

    /// Record the current dispatch's own span immediately (intra 0).
    #[inline]
    pub fn record_dispatch(&mut self, node: u32, parent: SpanKey, kind: SpanKind) {
        if !self.armed() {
            return;
        }
        let key = self.cur.dispatch();
        self.cur.intra = self.cur.intra.max(1);
        self.push(Span {
            key,
            parent,
            node,
            kind,
        });
    }

    /// Stage the current dispatch's own span lazily: it is recorded only
    /// if a child span follows within the dispatch. Keeps idle timer
    /// ticks (probe/control timers that emit nothing) out of the ring.
    #[inline]
    pub fn stage_dispatch(&mut self, node: u32, parent: SpanKey, kind: SpanKind) {
        if !self.armed() {
            return;
        }
        let key = self.cur.dispatch();
        self.cur.intra = self.cur.intra.max(1);
        self.pending = Some(Span {
            key,
            parent,
            node,
            kind,
        });
    }

    /// Record a child span of the current dispatch. Returns its key
    /// ([`SpanKey::NONE`] when disarmed).
    #[inline]
    pub fn record(&mut self, node: u32, kind: SpanKind) -> SpanKey {
        if !self.armed() {
            return SpanKey::NONE;
        }
        if let Some(staged) = self.pending.take() {
            self.push(staged);
        }
        self.cur.intra = self.cur.intra.max(1);
        let key = self.cur;
        self.cur.intra += 1;
        let parent = self.cur.dispatch();
        self.push(Span {
            key,
            parent,
            node,
            kind,
        });
        key
    }

    fn push(&mut self, span: Span) {
        self.total += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(span);
        } else {
            // tango-lint: allow(hot-path-panic) head < capacity == len here; silently dropping on a broken invariant would corrupt the ring, so the bounds check must stay fatal
            self.entries[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained spans in canonical (key) order. Within one run this
    /// coincides with recording order except inside a same-timestamp
    /// cluster, where the canonical key order — not the realized dispatch
    /// interleaving — defines the output. That is exactly what makes the
    /// result shard-invariant.
    pub fn spans(&self) -> Vec<Span> {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|s| s.key);
        sorted
    }

    /// Merge per-shard rings into one canonical ring: union the retained
    /// spans, sort by key, keep the most-recent `capacity`. Exact (equal
    /// to a single-shard run) whenever no ring wrapped; once one wraps,
    /// the eviction boundary can differ from a single-shard run's within
    /// a same-timestamp cluster (each ring evicts by its own realized
    /// order), so consumers that promise shard-invariance must reject
    /// `total_recorded() > spans().len()`.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a SpanRing>) -> SpanRing {
        let mut capacity = 0usize;
        let mut total = 0u64;
        let mut entries: Vec<Span> = Vec::new();
        for part in parts {
            capacity = capacity.max(part.capacity);
            total += part.total;
            entries.extend_from_slice(&part.entries);
        }
        entries.sort_unstable_by_key(|s| s.key);
        if entries.len() > capacity {
            let excess = entries.len() - capacity;
            entries.drain(..excess);
        }
        SpanRing {
            capacity,
            entries,
            head: 0,
            total,
            cur: SpanKey {
                time_ns: 0,
                origin: 0,
                seq: 0,
                intra: 0,
            },
            pending: None,
        }
    }

    /// Total spans ever recorded (including evicted ones; staged
    /// dispatch spans count only once flushed).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_records_nothing() {
        let mut r = SpanRing::new(0);
        r.begin_dispatch(1, 1, 1);
        r.record_dispatch(7, SpanKey::NONE, SpanKind::Deliver);
        let k = r.record(7, SpanKind::Tx { to: 8 });
        assert!(k.is_none());
        assert!(r.spans().is_empty());
        assert_eq!(r.total_recorded(), 0);
    }

    #[test]
    fn dispatch_and_children_share_the_dispatch_key() {
        let mut r = SpanRing::new(16);
        r.begin_dispatch(10, 2, 3);
        r.record_dispatch(7, SpanKey::NONE, SpanKind::Deliver);
        let a = r.record(7, SpanKind::Tx { to: 8 });
        let b = r.record(7, SpanKind::Tx { to: 9 });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].key.intra, 0);
        assert_eq!((a.intra, b.intra), (1, 2));
        assert_eq!(spans[1].parent, spans[0].key);
        assert_eq!(spans[2].parent, spans[0].key);
    }

    #[test]
    fn staged_dispatch_flushes_only_on_child() {
        let mut r = SpanRing::new(16);
        r.begin_dispatch(10, 2, 3);
        r.stage_dispatch(7, SpanKey::NONE, SpanKind::Timer { tag: 1 });
        r.begin_dispatch(11, 2, 4);
        r.stage_dispatch(7, SpanKey::NONE, SpanKind::Timer { tag: 2 });
        r.record(7, SpanKind::Tx { to: 8 });
        let spans = r.spans();
        assert_eq!(spans.len(), 2, "idle timer dispatch must be elided");
        assert_eq!(spans[0].kind, SpanKind::Timer { tag: 2 });
        assert_eq!(spans[1].parent, spans[0].key);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = SpanRing::new(2);
        for seq in 0..5u64 {
            r.begin_dispatch(seq, 1, seq);
            r.record_dispatch(7, SpanKey::NONE, SpanKind::Deliver);
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].key.time_ns, 3);
        assert_eq!(spans[1].key.time_ns, 4);
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn spans_sort_by_key_not_arrival_order() {
        // Two dispatches recorded out of canonical order (as happens when
        // a same-timestamp cluster realizes in non-key order): spans()
        // must present them in key order.
        let mut r = SpanRing::new(16);
        r.begin_dispatch(5, 3, 1);
        r.record_dispatch(7, SpanKey::NONE, SpanKind::Deliver);
        r.begin_dispatch(5, 1, 9);
        r.record_dispatch(7, SpanKey::NONE, SpanKind::Deliver);
        r.record(7, SpanKind::Tx { to: 8 });
        let keys: Vec<(u32, u64, u32)> = r
            .spans()
            .iter()
            .map(|s| (s.key.origin, s.key.seq, s.key.intra))
            .collect();
        assert_eq!(keys, vec![(1, 9, 0), (1, 9, 1), (3, 1, 0)]);
    }

    #[test]
    fn merged_reproduces_single_ring_order() {
        let mut single = SpanRing::new(8);
        let mut a = SpanRing::new(8);
        let mut b = SpanRing::new(8);
        for (time, origin, seq) in [(1u64, 1u32, 1u64), (1, 2, 1), (2, 1, 2), (3, 2, 2)] {
            for r in [&mut single, if origin == 1 { &mut a } else { &mut b }] {
                r.begin_dispatch(time, origin, seq);
                r.record_dispatch(origin, SpanKey::NONE, SpanKind::Deliver);
            }
        }
        let merged = SpanRing::merged([&a, &b]);
        assert_eq!(merged.spans(), single.spans());
        assert_eq!(merged.total_recorded(), single.total_recorded());
    }
}
