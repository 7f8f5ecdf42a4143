//! A counting global allocator: live and peak heap bytes, so a run can
//! report the peak live heap of its timed phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes.
pub struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    // Statistics only (publishes no other data), hence `Relaxed`; the
    // plain load keeps the read-modify-write off the common path.
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counters are side statistics that never influence an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's trim and mmap thresholds, which otherwise adapt to the
/// allocation history: freed machine images then return to the kernel
/// or not depending on what ran before, and the same op's time swings
/// with its page faults. Pinned, memory freed by one op is reused by
/// the next, so a run measures the program's work, not that history.
pub fn pin_malloc_thresholds() {
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called
    // before any other thread exists and takes plain integers.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 256 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
    };
    assert!(ok, "mallopt rejected the malloc thresholds");
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}
