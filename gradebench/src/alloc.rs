//! A counting global allocator: the baseline for the "allocation-free
//! `Soc::step`" goal.
//!
//! Counting is off by default and switched on only around the
//! single-threaded SoC probe, so the grading passes run with nothing
//! but one relaxed load added to each allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// [`System`] plus an allocation counter that can be switched on and
/// off.
pub struct CountingAlloc {
    enabled: AtomicBool,
    count: AtomicU64,
}

impl CountingAlloc {
    const fn new() -> CountingAlloc {
        CountingAlloc {
            enabled: AtomicBool::new(false),
            count: AtomicU64::new(0),
        }
    }

    /// Counts the heap allocations (including reallocations) `f`
    /// makes on any thread while it runs, and returns them with its
    /// result.
    pub fn count<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let before = self.count.load(Ordering::Relaxed);
        self.enabled.store(true, Ordering::Relaxed);
        let out = f();
        self.enabled.store(false, Ordering::Relaxed);
        (out, self.count.load(Ordering::Relaxed) - before)
    }

    fn tick(&self) {
        if self.enabled.load(Ordering::Relaxed) {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.tick();
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.tick();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this
        // allocator with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.tick();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The benchmark binary's allocator.
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();
