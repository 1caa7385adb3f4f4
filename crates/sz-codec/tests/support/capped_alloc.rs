//! Test-only global allocator that fails any single request above a
//! fixed cap, shared by the decoder corruption and hardening suites.
//!
//! Decoders must size their allocations by the length of their input,
//! never by a count read from it. A forged count that slips through
//! asks for gigabytes; on a host that overcommits memory such a zeroed
//! request succeeds lazily and hides the bug. Behind this allocator it
//! aborts the test binary with "memory allocation of N bytes failed" on
//! every host.
//!
//! Include it with `#[path]` from a test crate's root:
//!
//! ```ignore
//! #[path = "support/capped_alloc.rs"]
//! mod capped_alloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};

/// Largest single allocation a corruption suite may make. The suites'
/// honest inputs are a few MiB at most.
const CAP_BYTES: usize = 256 << 20;

struct CappedAlloc;

// SAFETY: every call forwards to `System` unchanged, or returns null,
// which the `GlobalAlloc` contract allows for any request.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP_BYTES {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP_BYTES {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP_BYTES {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CappedAlloc = CappedAlloc;
