//! Anti-replay sequence windows.
//!
//! The SipHash trailer (§6) proves a tunnel packet was built by the
//! peer, but proves nothing about *when*: an on-path attacker can record
//! an authenticated packet and retransmit it later, feeding the receiver
//! a stale timestamp with a perfectly valid tag. The classic fix (IPsec
//! ESP, RFC 4303 §3.4.3) is a sliding window over sequence numbers:
//! accept each number exactly once, refuse anything older than the
//! window. [`ReplayWindow`] is that structure — a 1024-entry bitmap like
//! its sibling [`crate::SeqTracker`], but answering "fresh or replayed?"
//! instead of "how much was lost?".

use crate::seq_window::{Arrival, SeqWindow};

/// A sliding anti-replay window over `u32` tunnel sequence numbers.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    window: SeqWindow,
    accepted: u64,
    rejected: u64,
}

impl Default for ReplayWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayWindow {
    /// Window size: arrivals more than this many sequence numbers behind
    /// the highest seen are unconditionally rejected. Matches the
    /// `SeqTracker` reorder window, so honest reordering the loss
    /// tracker can classify is never mistaken for replay.
    pub const WINDOW: u32 = SeqWindow::WINDOW;

    /// A fresh window (accepts any first sequence number).
    pub fn new() -> Self {
        ReplayWindow {
            window: SeqWindow::new(),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Observe an arriving sequence number: `true` = first sighting
    /// (accept), `false` = replayed or too stale to tell (reject).
    pub fn observe(&mut self, seq: u32) -> bool {
        let fresh = self.window.mark(seq) != Arrival::Stale;
        if fresh {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
        fresh
    }

    /// Sequence numbers accepted as fresh.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Arrivals rejected as replayed or stale.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_all_fresh() {
        let mut w = ReplayWindow::new();
        for s in 0..2048 {
            assert!(w.observe(s), "seq {s}");
        }
        assert_eq!(w.accepted(), 2048);
        assert_eq!(w.rejected(), 0);
    }

    #[test]
    fn exact_replay_rejected() {
        let mut w = ReplayWindow::new();
        assert!(w.observe(0));
        assert!(w.observe(1));
        assert!(!w.observe(1), "second sighting is a replay");
        assert!(!w.observe(0));
        assert_eq!(w.rejected(), 2);
    }

    #[test]
    fn reordered_but_fresh_accepted_once() {
        let mut w = ReplayWindow::new();
        w.observe(0);
        w.observe(3);
        assert!(w.observe(1), "late but never seen");
        assert!(w.observe(2));
        assert!(!w.observe(1), "now it's a replay");
    }

    #[test]
    fn stale_beyond_window_rejected() {
        let mut w = ReplayWindow::new();
        w.observe(0);
        w.observe(5000);
        assert!(!w.observe(1), "replay of a pre-window number");
        assert!(
            !w.observe(5000 - ReplayWindow::WINDOW),
            "exactly one window behind"
        );
        assert!(w.observe(5000 - ReplayWindow::WINDOW + 1));
    }

    #[test]
    fn skipped_slots_cleared_on_advance() {
        let mut w = ReplayWindow::new();
        w.observe(0);
        w.observe(1);
        w.observe(2);
        // Jump a full window: slot of 1025 aliases slot of 1 and must
        // have been cleared by the advance.
        w.observe(1024 + 2);
        assert!(w.observe(1025), "aliased slot must read as unseen");
        assert!(!w.observe(1025));
    }

    #[test]
    fn replay_burst_counted() {
        let mut w = ReplayWindow::new();
        for s in 0..100 {
            w.observe(s);
        }
        for s in 50..100 {
            assert!(!w.observe(s));
        }
        assert_eq!(w.rejected(), 50);
        assert_eq!(w.accepted(), 100);
    }

    #[test]
    fn huge_jump_no_overflow() {
        let mut w = ReplayWindow::new();
        w.observe(0);
        assert!(w.observe(u32::MAX));
        assert!(!w.observe(0));
    }
}
