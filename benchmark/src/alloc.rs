//! Counting global allocator for the benchmark binary only: feeds
//! `harness.allocs_per_query` / `harness.alloc_bytes_per_query`.
//!
//! The server runs in-process, so the harness's own threads (load
//! generator, response reader) opt out with [`set_counted`]: what is left
//! is what the system under test allocates. Counters are sharded per
//! thread onto separate cache lines, so the reactor and worker threads do
//! not bounce one line between cores on every allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat initializer only
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTS: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static COUNTED: Cell<bool> = const { Cell::new(true) };
}

/// Includes or excludes the calling thread's allocations from [`totals`].
pub fn set_counted(counted: bool) {
    COUNTED.with(|c| c.set(counted));
}

fn count(size: usize) {
    if !COUNTED.with(Cell::get) {
        return;
    }
    let slot = SLOT.with(|s| {
        if s.get() == usize::MAX {
            // ordering: relaxed — slot numbers only spread threads over shards.
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        s.get()
    });
    // ordering: relaxed — statistics; read only between timed phases.
    COUNTS[slot].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[slot].bytes.fetch_add(size as u64, Ordering::Relaxed);
}

pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; `count` only touches
// atomics and a destructor-free const thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` so far, summed over all threads.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        // ordering: relaxed — statistics snapshot.
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
