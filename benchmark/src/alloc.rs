//! A counting global allocator: live heap and its high-water mark, which
//! can be reset, so `peak_heap_mb` covers exactly the windows of the
//! measured phase (an OS high-water mark such as `VmHWM` cannot be reset;
//! this can).
//!
//! Each thread nets its allocations locally and publishes them to the
//! shared counter once they pass [`FLUSH_BYTES`], so the threads of the
//! server and the load do not contend on one cache line per allocation.
//! The peak is therefore exact to within `FLUSH_BYTES` per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Net bytes a thread may hold back before publishing them.
const FLUSH_BYTES: isize = 16 * 1024;

pub struct PeakAlloc {
    live: AtomicIsize,
    peak: AtomicIsize,
}

thread_local! {
    // const-initialized without a destructor: touching it never
    // allocates, so the allocator may use it
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

impl PeakAlloc {
    fn account(&self, bytes: isize) {
        let flushed = PENDING.try_with(|p| {
            let pending = p.get() + bytes;
            if pending.abs() < FLUSH_BYTES {
                p.set(pending);
                None
            } else {
                p.set(0);
                Some(pending)
            }
        });
        // a thread being torn down publishes directly
        if let Some(delta) = flushed.unwrap_or(Some(bytes)) {
            let live = self.live.fetch_add(delta, Ordering::Relaxed) + delta;
            if live > self.peak.load(Ordering::Relaxed) {
                self.peak.fetch_max(live, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are statistics only and publish no other data.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static HEAP: PeakAlloc = PeakAlloc {
    live: AtomicIsize::new(0),
    peak: AtomicIsize::new(0),
};

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    HEAP.peak
        .store(HEAP.live.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The high-water mark since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    HEAP.peak.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
