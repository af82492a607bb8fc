//! Loss, duplication and reordering from tunnel sequence numbers.
//!
//! §3: *"adding tunnel-specific sequence numbers on packets can allow
//! Tango to additionally compute loss and reordering."* The tracker keeps
//! a sliding bitmap window of recently seen sequence numbers, so memory
//! stays bounded no matter how long the tunnel runs.

use crate::seq_window::{Arrival, SeqWindow};

/// How one arriving sequence number was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqEvent {
    /// The next expected (or first) sequence number.
    InOrder,
    /// Ahead of the highest seen: the gap may be loss (or later reorders).
    Advanced {
        /// How many numbers were skipped.
        gap: u32,
    },
    /// Behind the highest seen but not seen before: a reordered arrival
    /// (retroactively shrinks the loss estimate).
    Reordered,
    /// Already seen (duplicate) or too old to classify.
    Duplicate,
}

/// Per-tunnel sequence-number tracker.
///
/// Loss is estimated as "numbers skipped and never subsequently seen
/// within the reorder window". The window is a 1024-entry bitmap; a
/// packet reordered by more than 1024 positions is (conservatively)
/// counted as a duplicate, not a recovery.
#[derive(Debug, Clone)]
pub struct SeqTracker {
    window: SeqWindow,
    received: u64,
    duplicates: u64,
    reordered: u64,
    outstanding_gap: u64,
}

impl Default for SeqTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        SeqTracker {
            window: SeqWindow::new(),
            received: 0,
            duplicates: 0,
            reordered: 0,
            outstanding_gap: 0,
        }
    }

    /// Record an arriving sequence number.
    pub fn record(&mut self, seq: u32) -> SeqEvent {
        match self.window.mark(seq) {
            Arrival::First => {
                self.received += 1;
                SeqEvent::InOrder
            }
            Arrival::Ahead { gap } => {
                self.received += 1;
                self.outstanding_gap += u64::from(gap);
                if gap == 0 {
                    SeqEvent::InOrder
                } else {
                    SeqEvent::Advanced { gap }
                }
            }
            Arrival::Late => {
                self.received += 1;
                self.reordered += 1;
                self.outstanding_gap = self.outstanding_gap.saturating_sub(1);
                SeqEvent::Reordered
            }
            Arrival::Stale => {
                self.duplicates += 1;
                SeqEvent::Duplicate
            }
        }
    }

    /// Distinct sequence numbers received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Duplicate (or unclassifiably late) arrivals.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Arrivals that filled an earlier gap (reordering).
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Estimated lost packets (gaps never filled).
    pub fn lost(&self) -> u64 {
        self.outstanding_gap
    }

    /// Loss rate estimate in [0, 1].
    pub fn loss_rate(&self) -> f64 {
        let expected = self.received + self.outstanding_gap;
        if expected == 0 {
            0.0
        } else {
            self.outstanding_gap as f64 / expected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream() {
        let mut t = SeqTracker::new();
        for s in 0..100 {
            assert_eq!(t.record(s), SeqEvent::InOrder);
        }
        assert_eq!(t.received(), 100);
        assert_eq!(t.lost(), 0);
        assert_eq!(t.reordered(), 0);
        assert_eq!(t.loss_rate(), 0.0);
    }

    #[test]
    fn gap_counts_as_loss_until_filled() {
        let mut t = SeqTracker::new();
        t.record(0);
        assert_eq!(t.record(3), SeqEvent::Advanced { gap: 2 });
        assert_eq!(t.lost(), 2);
        assert_eq!(t.record(1), SeqEvent::Reordered);
        assert_eq!(t.lost(), 1);
        assert_eq!(t.record(2), SeqEvent::Reordered);
        assert_eq!(t.lost(), 0);
        assert_eq!(t.reordered(), 2);
    }

    #[test]
    fn duplicates_detected() {
        let mut t = SeqTracker::new();
        t.record(0);
        t.record(1);
        assert_eq!(t.record(1), SeqEvent::Duplicate);
        assert_eq!(t.record(0), SeqEvent::Duplicate);
        assert_eq!(t.duplicates(), 2);
        assert_eq!(t.received(), 2);
    }

    #[test]
    fn permanent_loss_rate() {
        let mut t = SeqTracker::new();
        // Send 0..100, drop every 10th.
        for s in 0..100u32 {
            if s % 10 != 0 {
                t.record(s);
            }
        }
        assert_eq!(t.received(), 90);
        // seq 0 was dropped before anything was seen: the tracker can't
        // know about losses before the first arrival, so 9 are counted.
        assert_eq!(t.lost(), 9);
        assert!((t.loss_rate() - 9.0 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn ancient_arrival_is_duplicate_not_reorder() {
        let mut t = SeqTracker::new();
        t.record(0);
        t.record(5000); // jump far ahead
        assert_eq!(t.record(1), SeqEvent::Duplicate); // outside the 1024 window
        assert_eq!(t.reordered(), 0);
    }

    #[test]
    fn bitmap_wraparound_does_not_alias() {
        let mut t = SeqTracker::new();
        // Fill 0..1024, then 1024 must not read 0's bit as its own.
        for s in 0..1024 {
            t.record(s);
        }
        assert_eq!(t.record(1024), SeqEvent::InOrder);
        assert_eq!(t.duplicates(), 0);
    }

    #[test]
    fn skipped_slots_are_cleared_on_advance() {
        let mut t = SeqTracker::new();
        t.record(0);
        t.record(1);
        t.record(2);
        // Jump exactly one window ahead: slot of 1025 aliases slot of 1,
        // which must have been cleared — 1025 was never received.
        t.record(1024 + 2);
        assert_eq!(t.record(1025), SeqEvent::Reordered);
        assert_eq!(t.duplicates(), 0);
    }

    #[test]
    fn large_jump_does_not_overflow_or_hang() {
        let mut t = SeqTracker::new();
        t.record(0);
        assert_eq!(t.record(u32::MAX), SeqEvent::Advanced { gap: u32::MAX - 1 });
        assert_eq!(t.lost(), u64::from(u32::MAX - 1));
    }

    #[test]
    fn empty_tracker_rates() {
        let t = SeqTracker::new();
        assert_eq!(t.loss_rate(), 0.0);
        assert_eq!(t.received(), 0);
    }
}
