//! A shard's pending-event queue: a ladder queue (Tang, Goh and Thng,
//! "Ladder Queue: An O(1) Priority Queue Structure for Large-Scale
//! Discrete Event Simulation", ACM TOMACS 2005).
//!
//! Events sit still in a slab whose slots are reused; the queue orders
//! slot numbers. Three tiers partition the pending events by time:
//!
//! * **top** — an unsorted list of far-future events (every time at or
//!   after `top_start`), with a running min, max and count;
//! * **rungs** — bucket arrays, each spawned from top or from an overfull
//!   bucket of the rung above, `max(1, (max − min) / count)` wide over
//!   the events it is built from. The width is a property of the pending
//!   events: there is nothing to tune. A rung's last bucket is open,
//!   holding everything up to the rung above;
//! * **bottom** — the earliest few events, sorted descending on the full
//!   [`EventKey`], so `pop` and `peek_key` work at its end.
//!
//! A bucket is an intrusive singly-linked list threaded through one
//! `next` word per slot: an empty bucket costs 4 bytes and filling one
//! never allocates. An empty bottom is refilled from the deepest rung's
//! next non-empty bucket: sorted if it holds at most `THRES` events or a
//! single instant (no width splits one), otherwise spawned into a finer
//! rung. Bottom is never empty while anything is pending, so `peek_key`
//! is a read. Pop order is exactly ascending `EventKey` order.

use crate::engine::{EventKey, QueuedEvent};

/// End of a bucket list.
const NIL: u32 = u32::MAX;
/// Largest list sorted into bottom (the paper's threshold); a bigger
/// one spawns a finer rung.
const THRES: usize = 50;
/// Deepest ladder: past it an overfull bucket is sorted whole.
const MAX_RUNGS: usize = 8;

struct Slot {
    /// Next slot in the same bucket (or top) list.
    next: u32,
    ev: Option<QueuedEvent>,
}

struct Rung {
    /// Time of bucket 0.
    start: u64,
    width: u64,
    /// First bucket not yet taken; every bucket before it is empty.
    cur: usize,
    /// Start of bucket `cur`: a push at or after it lands in this rung.
    floor: u64,
    /// Events in the rung's buckets.
    count: usize,
    heads: Vec<u32>,
}

impl Rung {
    /// The bucket of time `t >= self.floor`; the last one is open-ended.
    fn bucket_of(&self, t: u64) -> usize {
        let last = self.heads.len().saturating_sub(1);
        usize::try_from((t - self.start) / self.width).map_or(last, |b| b.min(last))
    }
}

pub(crate) struct EventQueue {
    slab: Vec<Slot>,
    free: Vec<u32>,
    top: u32,
    top_len: usize,
    top_min: u64,
    top_max: u64,
    /// Every push at or after this instant goes to top. One past
    /// `u64::MAX` is a real bound here, hence the width.
    top_start: u128,
    /// `rungs[..depth]` is the ladder, coarsest first; the rest keep
    /// their bucket arrays for reuse.
    rungs: Vec<Rung>,
    depth: usize,
    bottom: Vec<(EventKey, u32)>,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            top: NIL,
            top_len: 0,
            top_min: 0,
            top_max: 0,
            top_start: 0,
            rungs: Vec::new(),
            depth: 0,
            bottom: Vec::new(),
            len: 0,
        }
    }
}

/// Prepend `slot` to the list at `head`; returns the new head.
fn link(slab: &mut [Slot], slot: u32, head: u32) -> u32 {
    if let Some(s) = slab.get_mut(slot as usize) {
        s.next = head;
    }
    slot
}

fn time_of(s: &Slot) -> u64 {
    s.ev.as_ref().map_or(0, |e| e.key.time.as_ns())
}

impl EventQueue {
    pub(crate) fn push(&mut self, ev: QueuedEvent) {
        let key = ev.key;
        let slot = match self.free.pop() {
            Some(slot) => {
                if let Some(s) = self.slab.get_mut(slot as usize) {
                    s.ev = Some(ev);
                }
                slot
            }
            None => {
                self.slab.push(Slot {
                    next: NIL,
                    ev: Some(ev),
                });
                (self.slab.len() - 1) as u32
            }
        };
        self.len += 1;
        let t = key.time.as_ns();
        if u128::from(t) >= self.top_start {
            if self.top_len == 0 {
                (self.top_min, self.top_max) = (t, t);
            } else {
                self.top_min = self.top_min.min(t);
                self.top_max = self.top_max.max(t);
            }
            self.top = link(&mut self.slab, slot, self.top);
            self.top_len += 1;
        } else if let Some(rung) = self
            .rungs
            .iter_mut()
            .take(self.depth)
            .find(|r| t >= r.floor)
        {
            let b = rung.bucket_of(t);
            if let Some(head) = rung.heads.get_mut(b) {
                *head = link(&mut self.slab, slot, *head);
                rung.count += 1;
            }
        } else {
            // Most pushes below the ladder are due next: append those
            // without a search.
            let at = match self.bottom.last() {
                Some(&(least, _)) if least < key => self.bottom.partition_point(|&(k, _)| k > key),
                _ => self.bottom.len(),
            };
            self.bottom.insert(at, (key, slot));
            if self.bottom.len() > THRES {
                self.split_bottom();
            }
        }
        if self.bottom.is_empty() {
            self.refill();
        }
    }

    pub(crate) fn peek_key(&self) -> Option<EventKey> {
        self.bottom.last().map(|&(key, _)| key)
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let (_, slot) = self.bottom.pop()?;
        self.len -= 1;
        if self.bottom.is_empty() {
            self.refill();
        }
        self.free.push(slot);
        self.slab.get_mut(slot as usize)?.ev.take()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Move bottom's entries above its earliest instant into a rung of
    /// their own once there are more than `THRES` of them (the earliest
    /// instant stays: no width splits it).
    fn split_bottom(&mut self) {
        let Some(&(lo, _)) = self.bottom.last() else {
            return;
        };
        let above = self.bottom.partition_point(|&(k, _)| k.time > lo.time);
        if above <= THRES || self.depth == MAX_RUNGS {
            return;
        }
        let (Some(&(max, _)), Some(&(min, _))) = (self.bottom.first(), self.bottom.get(above - 1))
        else {
            return;
        };
        let mut head = NIL;
        for (_, slot) in self.bottom.drain(..above) {
            head = link(&mut self.slab, slot, head);
        }
        self.spawn_rung(head, above, min.time.as_ns(), max.time.as_ns());
    }

    /// Refill an empty bottom: take the deepest rung's next non-empty
    /// bucket (top, when the ladder is empty) and sort it into bottom,
    /// or spawn it into a finer rung and take again.
    fn refill(&mut self) {
        loop {
            let (head, n, min, max) = match self
                .depth
                .checked_sub(1)
                .and_then(|d| self.rungs.get_mut(d))
            {
                None if self.top_len == 0 => return,
                None => {
                    let list = (self.top, self.top_len, self.top_min, self.top_max);
                    self.top_start = u128::from(self.top_max) + 1;
                    (self.top, self.top_len) = (NIL, 0);
                    list
                }
                Some(rung) => {
                    let next = match rung.count {
                        0 => None,
                        _ => rung.heads.iter().skip(rung.cur).position(|&h| h != NIL),
                    };
                    let Some(b) = next.map(|off| rung.cur + off) else {
                        self.depth -= 1;
                        continue;
                    };
                    let head = rung
                        .heads
                        .get_mut(b)
                        .map_or(NIL, |h| std::mem::replace(h, NIL));
                    rung.cur = b + 1;
                    rung.floor = rung
                        .start
                        .saturating_add((rung.cur as u64).saturating_mul(rung.width));
                    // Taking the open last bucket hands the rung's whole
                    // remaining range to whatever the bucket becomes.
                    if rung.cur == rung.heads.len() {
                        self.depth -= 1;
                    }
                    let (mut n, mut min, mut max) = (0, u64::MAX, 0);
                    let mut at = head;
                    while let Some(s) = self.slab.get(at as usize) {
                        let t = time_of(s);
                        (n, min, max) = (n + 1, min.min(t), max.max(t));
                        at = s.next;
                    }
                    rung.count = rung.count.saturating_sub(n);
                    (head, n, min, max)
                }
            };
            if n > THRES && min < max && self.depth < MAX_RUNGS {
                self.spawn_rung(head, n, min, max);
            } else {
                self.fill_bottom(head);
                return;
            }
        }
    }

    /// Push a rung built from the `n` events of list `head`, all in
    /// `[min, max]`, onto the ladder.
    fn spawn_rung(&mut self, mut head: u32, n: usize, min: u64, max: u64) {
        let span = max - min;
        let width = (span / (n as u64).max(1)).max(1);
        // ≤ 2n + 1 buckets: `width` is at least half of span / n.
        let buckets = (span / width) as usize + 1;
        if self.rungs.len() <= self.depth {
            self.rungs.push(Rung {
                start: 0,
                width: 1,
                cur: 0,
                floor: 0,
                count: 0,
                heads: Vec::new(),
            });
        }
        let Some(rung) = self.rungs.get_mut(self.depth) else {
            return;
        };
        rung.heads.clear();
        rung.heads.resize(buckets, NIL);
        (rung.start, rung.width, rung.cur, rung.floor, rung.count) = (min, width, 0, min, n);
        while let Some(s) = self.slab.get_mut(head as usize) {
            let next = s.next;
            let b = rung.bucket_of(time_of(s));
            if let Some(h) = rung.heads.get_mut(b) {
                s.next = *h;
                *h = head;
            }
            head = next;
        }
        self.depth += 1;
    }

    fn fill_bottom(&mut self, mut head: u32) {
        while let Some(s) = self.slab.get(head as usize) {
            if let Some(ev) = &s.ev {
                self.bottom.push((ev.key, head));
            }
            head = s.next;
        }
        self.bottom
            .sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventKind;
    use crate::time::SimTime;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use tango_trace::SpanKey;

    fn event(time: u64, origin: u32, seq: u64) -> QueuedEvent {
        QueuedEvent {
            key: EventKey {
                time: SimTime(time),
                origin,
                seq,
            },
            parent: SpanKey::NONE,
            kind: EventKind::Timer {
                node: origin,
                tag: seq,
            },
        }
    }

    fn tag(ev: QueuedEvent) -> (EventKey, u64) {
        match ev.kind {
            EventKind::Timer { tag, .. } => (ev.key, tag),
            _ => unreachable!("only timers are pushed"),
        }
    }

    proptest::proptest! {
        #[test]
        fn ladder_pops_in_key_order_and_reuses_slots(
            ops in proptest::collection::vec((0u8..8, proptest::arbitrary::any::<u64>(), 0u32..3), 1..1200),
        ) {
            // Times mix equal instants, delays spread evenly over 40
            // octaves, a dense near-term band, rare far outliers up to
            // `u64::MAX`, and pushes below everything pending; origins
            // collide, and `seq` (the payload tag too) keeps keys unique,
            // as emission counters do.
            let mut queue = EventQueue::default();
            let mut reference: BTreeMap<EventKey, u64> = BTreeMap::new();
            let (mut now, mut peak) = (0u64, 0);
            for (seq, &(op, v, origin)) in ops.iter().enumerate() {
                let seq = seq as u64;
                let time = match op {
                    0..=2 => {
                        let want = reference.pop_first();
                        if let Some((key, _)) = want {
                            now = key.time.as_ns();
                        }
                        proptest::prop_assert_eq!(queue.pop().map(tag), want);
                        None
                    }
                    3 => Some(now.saturating_add(v % 4 * 1_000_000)),
                    4 => Some(now.saturating_add((v >> 8) % (1 << (v % 40)))),
                    5 => Some(now.saturating_add(v % 100_000_000)),
                    6 => Some(if v % 8 == 0 { u64::MAX - v % 3 } else { v }),
                    _ => Some(v % now.saturating_add(1)),
                };
                if let Some(time) = time {
                    queue.push(event(time, origin, seq));
                    reference.insert(EventKey { time: SimTime(time), origin, seq }, seq);
                }
                peak = peak.max(reference.len());
                proptest::prop_assert_eq!(queue.len(), reference.len());
                proptest::prop_assert_eq!(queue.peek_key(), reference.keys().next().copied());
                proptest::prop_assert!(queue.slab.len() <= peak, "popped slots are reused");
            }
            while let Some(want) = reference.pop_first() {
                proptest::prop_assert_eq!(queue.pop().map(tag), Some(want));
            }
            proptest::prop_assert!(queue.pop().is_none());
            proptest::prop_assert_eq!(queue.len(), 0);
        }
    }

    /// The width rule keeps every sort small: in discrete-event order
    /// (each push at or after the last pop, 150 µs–60 ms ahead), with a
    /// timer an hour out stretching top's span and a 10 000-event burst
    /// at one instant, bottom never holds more than `THRES` entries
    /// above its earliest instant — no refill sorts more, and pushes
    /// below the ladder never pile up past it. A one-level bucket queue
    /// (rung 0 only) refills thousands of distinct instants at once.
    #[test]
    fn ladder_sorts_at_most_thres_events_at_a_time() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut queue = EventQueue::default();
        let mut seq = 0;
        let mut push = |queue: &mut EventQueue, time: u64| {
            seq += 1;
            queue.push(event(time, 1, seq));
        };
        push(&mut queue, SimTime::from_hours(1).as_ns());
        for _ in 0..10_000 {
            push(&mut queue, SimTime::from_ms(20).as_ns());
        }
        for _ in 0..1_000 {
            push(&mut queue, rng.gen_range(150_000u64..60_000_000));
        }
        let above_earliest = |queue: &EventQueue| match queue.bottom.last() {
            Some(&(lo, _)) => queue.bottom.partition_point(|&(k, _)| k.time > lo.time),
            None => 0,
        };
        let (mut popped, mut last) = (0, None);
        while let Some(ev) = queue.pop() {
            popped += 1;
            assert!(Some(ev.key) > last, "pop {popped} out of key order");
            last = Some(ev.key);
            let above = above_earliest(&queue);
            assert!(
                above <= THRES,
                "pop {popped}: {above} entries above bottom's earliest instant"
            );
            // Everything pushed so far is popped or pending.
            if popped + queue.len() < 100_000 {
                push(
                    &mut queue,
                    ev.key.time.as_ns() + rng.gen_range(150_000u64..60_000_000),
                );
                let above = above_earliest(&queue);
                assert!(
                    above <= THRES,
                    "push after pop {popped}: {above} entries above bottom's earliest instant"
                );
            }
        }
        assert_eq!(popped, 100_000);
        assert_eq!(last.map(|k| k.time), Some(SimTime::from_hours(1)));
    }

    /// A push just past a finer rung's range, made while that rung's
    /// last bucket sits in bottom, belongs to bottom, not to the spent
    /// rung.
    #[test]
    fn a_push_past_a_spent_rung_still_pops() {
        let mut queue = EventQueue::default();
        let mut seq = 0;
        let mut push = |queue: &mut EventQueue, time: u64| {
            seq += 1;
            queue.push(event(time, 1, seq));
        };
        push(&mut queue, 0);
        // 60 events one nanosecond apart and an outlier: rung 0's first
        // bucket holds the 60 and spawns a 1 ns rung under it.
        for t in 1_000..1_060 {
            push(&mut queue, t);
        }
        push(&mut queue, 1_000_000);
        for want in std::iter::once(0).chain(1_000..1_059) {
            assert_eq!(queue.pop().map(|e| e.key.time.as_ns()), Some(want));
        }
        push(&mut queue, 2_000);
        let rest: Vec<u64> = std::iter::from_fn(|| queue.pop())
            .map(|e| e.key.time.as_ns())
            .collect();
        assert_eq!(rest, [1_059, 2_000, 1_000_000]);
    }
}
