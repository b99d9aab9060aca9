//! Counting `#[global_allocator]` wrapper.
//!
//! Timed runs pay one relaxed load per allocation (the `ENABLED` flag
//! stays off). The traced run switches it on and reads the calling
//! thread's own counters around each span, so server threads running
//! beside the replay do not leak into a span's numbers and the counts
//! repeat from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator can neither allocate nor run after teardown.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator installed by `main.rs`.
pub struct Counting;

#[inline]
fn note(size: usize) {
    // Relaxed: the flag publishes no other data, it only gates a statistic.
    if ENABLED.load(Ordering::Relaxed) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping beside it touches only thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live block of this
        // allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch counting on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` made by the calling thread while
/// counting was enabled.
pub fn thread_totals() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}
