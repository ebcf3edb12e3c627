//! A counting global allocator.
//!
//! Every allocation (and the growing half of every reallocation) made on a
//! thread bumps that thread's counters. The counts are exact and do not
//! depend on the host, so two runs of one seed read identical numbers;
//! keeping them per thread lets the test harness run tests in parallel
//! without one test's allocations leaking into another's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus per-thread counters.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn down;
    // allocations made then are not inside any measured region.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-locals without destructors, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation count and bytes requested on this thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub count: u64,
    /// Bytes requested (a `realloc` counts only its growth).
    pub bytes: u64,
}

impl Allocs {
    /// The counters now.
    #[must_use]
    pub fn now() -> Self {
        Allocs {
            count: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// Allocations made since `self` was read.
    #[must_use]
    pub fn since(self) -> Self {
        let now = Self::now();
        Allocs {
            count: now.count - self.count,
            bytes: now.bytes - self.bytes,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Allocs) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}
