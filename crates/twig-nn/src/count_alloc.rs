//! Heap-allocation counting for zero-allocation assertions.
//!
//! The training hot path (`Twig::decide` / `MaBdq::train_step`) is meant to
//! be allocation-free in steady state. That property is cheap to lose and
//! invisible in ordinary tests, so this module provides the process-wide
//! counter behind a counting allocator that a *binary* (integration test or
//! bin target) installs. The `GlobalAlloc` impl itself lives in each
//! installing binary — `unsafe impl` is denied in this crate
//! (`#![deny(unsafe_code)]`) — and funnels every counted entry point
//! through the safe [`note_alloc`] hook:
//!
//! ```ignore
//! struct CountingAlloc;
//!
//! // SAFETY: defers every operation to `System`, only adding a relaxed
//! // atomic increment, so all `GlobalAlloc` contracts are inherited.
//! unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
//!     unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
//!         twig_nn::note_alloc();
//!         unsafe { std::alloc::System.alloc(layout) }
//!     }
//!     // ... dealloc (uncounted), alloc_zeroed, realloc ...
//! }
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//! ```
//!
//! Library code can then bracket a region with [`allocation_count`] and
//! assert the delta. Because `#[global_allocator]` is per-binary, library
//! code must not assume the counter is live: [`counter_armed`] reports
//! whether any allocation has been observed (always true immediately in a
//! hosting binary — the runtime allocates long before user code runs), so
//! callers like the Table III overhead row can degrade to "n/a" instead of
//! reporting a misleading zero.
//!
//! Count `alloc`/`alloc_zeroed`/`realloc` but not frees: a hot path that
//! merely *recycles* capacity never hits any of the counted entry points,
//! which is exactly the property asserted.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ONE_THREAD: AtomicBool = AtomicBool::new(false);
thread_local! {
    // Const-initialised and without a destructor: reading it from inside an
    // allocator neither allocates nor registers anything.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Records one heap allocation. Called by the counting `GlobalAlloc`
/// wrappers installed in test/bench binaries (see the module docs); safe to
/// call from an allocator context because it only touches a static atomic
/// and a const-initialised thread-local flag.
pub fn note_alloc() {
    if ONE_THREAD.load(Ordering::Relaxed) && !COUNTED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

/// From here on, counts only allocations made by the calling thread. A
/// `#[test]` that asserts a zero delta calls this first: libtest's main
/// thread keeps allocating for a moment after it has spawned the test (its
/// bookkeeping of running tests), and a test body fast enough to reach its
/// measured region within that moment would otherwise count the harness.
pub fn count_this_thread_only() {
    COUNTED.with(|counted| counted.set(true));
    ONE_THREAD.store(true, Ordering::Relaxed);
}

/// Total heap allocations observed so far in this process (0 when no
/// counting allocator is installed).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Whether a counting allocator is installed in this binary. Any hosted
/// process allocates during startup, so a zero count means the counter is
/// not wired in and deltas would be meaningless.
pub fn counter_armed() -> bool {
    allocation_count() > 0
}

/// Allocations observed since a prior [`allocation_count`] reading.
pub fn allocations_since(start: u64) -> u64 {
    allocation_count().saturating_sub(start)
}
