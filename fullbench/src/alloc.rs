//! A counting global allocator, switched on in traced runs only.
//!
//! While counting is off, every call pays one relaxed load and goes
//! straight to the system allocator. While it is on, allocations,
//! allocated bytes and freed bytes are added up, so a caller can read
//! the heap bytes a layer holds and the allocations it made by
//! differencing [`counts`] around its calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark binary's global allocator.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so every
// access is `Relaxed`.
fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

fn record_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
}

fn record_free(size: usize) {
    FREED.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// counting around the calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on() {
            record_alloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on() {
            record_alloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if on() {
            record_free(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on() {
            record_alloc(new_size);
            record_free(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative allocator counts since the process started counting.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    /// Allocation and reallocation calls.
    pub allocs: u64,
    /// Bytes handed out.
    pub allocated: u64,
    /// Bytes given back.
    pub freed: u64,
}

impl AllocCounts {
    /// Heap bytes held now that were not held at `earlier`.
    pub fn held_since(&self, earlier: &AllocCounts) -> i64 {
        (self.allocated - earlier.allocated) as i64 - (self.freed - earlier.freed) as i64
    }
}

/// Reads the counters.
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        allocated: ALLOCATED.load(Ordering::Relaxed),
        freed: FREED.load(Ordering::Relaxed),
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::SeqCst);
}
