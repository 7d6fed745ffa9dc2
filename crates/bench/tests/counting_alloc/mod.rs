//! The counting global allocator the allocation audits share: a
//! pass-through to the system allocator that counts every `alloc` and
//! `realloc`, process-wide (rayon workers and harness threads included).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to the System allocator plus a relaxed
// atomic counter; layout handling and memory validity are exactly the
// System allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, which does the real work.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged; the caller upholds
        // GlobalAlloc's contract (non-zero size).
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `Self::alloc`/`Self::realloc`,
        // i.e. by the System allocator, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator (hence the
        // System allocator); `new_size` validity is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) so far, on every thread.
pub fn calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Runs the audits of one test binary one at a time: the counter sees every
/// thread, so a concurrently running test's set-up would land in another's
/// measured window. Hold the guard for the whole test.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static AUDIT: Mutex<()> = Mutex::new(());
    AUDIT.lock().unwrap_or_else(PoisonError::into_inner)
}
