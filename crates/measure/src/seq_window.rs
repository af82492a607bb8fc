//! The 1024-entry sliding bitmap over `u32` sequence numbers that both
//! [`crate::SeqTracker`] (loss and reordering) and
//! [`crate::ReplayWindow`] (anti-replay) classify arrivals against.

/// Where an arriving sequence number falls relative to the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// The first number the window has seen.
    First,
    /// Ahead of the highest seen, skipping `gap` numbers.
    Ahead {
        /// How many numbers were skipped (0 for the next one in order).
        gap: u32,
    },
    /// Behind the highest seen, inside the window and not seen before.
    Late,
    /// Already seen, or too far behind the highest to tell.
    Stale,
}

/// A sliding window over the last [`SeqWindow::WINDOW`] sequence numbers
/// up to the highest seen, one bit each.
#[derive(Debug, Clone)]
pub(crate) struct SeqWindow {
    highest: Option<u32>,
    bits: [u64; Self::WORDS],
}

impl SeqWindow {
    /// Arrivals this many or more numbers behind the highest seen are
    /// [`Arrival::Stale`].
    pub(crate) const WINDOW: u32 = 1024;
    const WORDS: usize = (Self::WINDOW as usize) / 64;

    /// An empty window.
    pub(crate) fn new() -> Self {
        SeqWindow {
            highest: None,
            bits: [0; Self::WORDS],
        }
    }

    // tango-lint: allow(hot-path-panic) idx < WINDOW = WORDS*64 by the mod, so idx/64 < WORDS
    fn bit(&self, seq: u32) -> bool {
        let idx = (seq % Self::WINDOW) as usize;
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    // tango-lint: allow(hot-path-panic) idx < WINDOW = WORDS*64 by the mod, so idx/64 < WORDS
    fn set_bit(&mut self, seq: u32, value: bool) {
        let idx = (seq % Self::WINDOW) as usize;
        if value {
            self.bits[idx / 64] |= 1 << (idx % 64);
        } else {
            self.bits[idx / 64] &= !(1 << (idx % 64));
        }
    }

    /// Classify `seq` and mark it seen (a [`Arrival::Stale`] arrival
    /// changes nothing).
    pub(crate) fn mark(&mut self, seq: u32) -> Arrival {
        match self.highest {
            None => {
                self.highest = Some(seq);
                self.set_bit(seq, true);
                Arrival::First
            }
            Some(h) if seq > h => {
                // Clear the slots being skipped so bits from a window
                // ago don't read as "seen".
                let gap = seq - h - 1;
                let clear_from = h.saturating_add(1);
                let clear_n = gap.min(Self::WINDOW);
                for s in clear_from..clear_from + clear_n {
                    self.set_bit(s, false);
                }
                self.set_bit(seq, true);
                self.highest = Some(seq);
                Arrival::Ahead { gap }
            }
            Some(h) => {
                if h - seq >= Self::WINDOW || self.bit(seq) {
                    return Arrival::Stale;
                }
                self.set_bit(seq, true);
                Arrival::Late
            }
        }
    }
}
