//! A counting global allocator: per-thread allocation counts and bytes, so
//! allocation figures repeat exactly whatever other threads do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// Forwards to the system allocator, counting every allocation and
/// reallocation of the calling thread.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals without destructors, so touching them never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and allocated bytes of the calling thread so far.
pub fn snapshot() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}

/// Runs `f` and returns its result with the allocations and bytes it made
/// on the calling thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count0, bytes0) = snapshot();
    let value = f();
    let (count1, bytes1) = snapshot();
    (value, count1 - count0, bytes1 - bytes0)
}
