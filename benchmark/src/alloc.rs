//! A counting global allocator: live bytes, peak live bytes, allocation
//! calls and bytes requested. Exact, so `peak_heap_mib` and the
//! `*.allocs_per_*` rows compare as counts across commits, not as noisy
//! samples of `VmHWM`.
//!
//! The binary (and the test harness) installs it with
//! `#[global_allocator]`; when it is not installed every reading is 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed throughout: each counter is a statistic that publishes no other
// data; readers only run between repetitions, on the driver thread.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator. Forwards to [`System`] and counts on the way.
pub struct Counting;

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A realloc is one allocator call; only growth requests bytes.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            let live = LIVE.fetch_add(new_size as u64, Relaxed) + new_size as u64;
            PEAK.fetch_max(live, Relaxed);
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(
                (new_size as u64).saturating_sub(layout.size() as u64),
                Relaxed,
            );
        }
        p
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    /// Bytes currently allocated.
    pub live: u64,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak: u64,
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
    pub calls: u64,
    /// Bytes requested so far (growth only, for `realloc`).
    pub bytes: u64,
}

/// Read all four counters.
pub fn read() -> Reading {
    Reading {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restart the high-water mark at the current live size (once per
/// repetition) and return the reading it starts from.
pub fn reset_peak() -> Reading {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    read()
}
