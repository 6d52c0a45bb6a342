//! A per-thread counting global allocator for zero-allocation tests.
//! Include it with `#[path]` from a test crate root; it installs itself
//! as that test binary's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter: the libtest harness allocates on its own threads
// (progress printing, panic plumbing) concurrently with a measurement
// window, so a process-global counter flakes. `Cell<usize>` has no
// destructor, so the const-initialized TLS access never allocates or
// recurses into the allocator; `try_with` covers thread teardown.
thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

pub fn allocs_on_this_thread() -> usize {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;
