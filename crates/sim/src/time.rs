//! Simulated time: integer nanoseconds since simulation start.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time (nanoseconds since t=0).
///
/// Wall-clock-free: experiments that "run for 24 hours" finish in seconds
/// of host time while the statistics see a full day of samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// t = 0.
    pub const ZERO: SimTime = SimTime(0);

    /// From microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// From minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60 * 1_000_000_000)
    }

    /// From hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600 * 1_000_000_000)
    }

    /// As nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// End of a conservative synchronization window that opens at `self`:
    /// the last instant a shard may safely process given that no
    /// cross-shard event sent at or after `self` can arrive earlier than
    /// `self + lookahead_ns` (so everything at or before the returned
    /// instant is immune to other shards), clipped to the run horizon
    /// `until`. `lookahead_ns == u64::MAX` means "no cross-shard links at
    /// all" and opens the window to the full horizon.
    pub fn conservative_window_end(self, lookahead_ns: u64, until: SimTime) -> SimTime {
        if lookahead_ns == u64::MAX {
            return until;
        }
        debug_assert!(lookahead_ns > 0, "zero lookahead cannot open a window");
        until.min(self.saturating_add(SimTime(lookahead_ns.saturating_sub(1))))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_us(5).as_ns(), 5_000);
        assert_eq!(SimTime::from_ms(28).as_ns(), 28_000_000);
        assert_eq!(SimTime::from_secs(2).as_ns(), 2_000_000_000);
        assert_eq!(SimTime::from_mins(10).as_ns(), 600_000_000_000);
        assert_eq!(SimTime::from_hours(24).as_ns(), 86_400_000_000_000);
        assert_eq!(SimTime::from_ms(28).as_ms_f64(), 28.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(10);
        let b = SimTime::from_ms(3);
        assert_eq!(a + b, SimTime::from_ms(13));
        assert_eq!(a - b, SimTime::from_ms(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_ms(13));
        assert_eq!(SimTime(u64::MAX).checked_add(SimTime(1)), None);
    }

    #[test]
    fn conservative_window() {
        let g = SimTime::from_ms(10);
        let until = SimTime::from_secs(1);
        // Lookahead 25 µs: the window is inclusive of g + 24_999 ns.
        assert_eq!(
            g.conservative_window_end(25_000, until),
            SimTime(10_000_000 + 24_999)
        );
        // Clipped to the run horizon.
        assert_eq!(
            g.conservative_window_end(25_000, SimTime::from_ms(10)),
            SimTime::from_ms(10)
        );
        // No cross-shard links: the whole horizon at once.
        assert_eq!(g.conservative_window_end(u64::MAX, until), until);
        // Near-overflow opening times never wrap.
        assert_eq!(
            SimTime(u64::MAX - 1).conservative_window_end(25_000, SimTime(u64::MAX)),
            SimTime(u64::MAX)
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ms(1) < SimTime::from_ms(2));
        assert!(SimTime::ZERO < SimTime(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime(12).to_string(), "12ns");
        assert_eq!(SimTime::from_us(3).to_string(), "3.000µs");
        assert_eq!(SimTime::from_ms(28).to_string(), "28.000ms");
        assert_eq!(SimTime::from_secs(3).to_string(), "3.000s");
    }
}
