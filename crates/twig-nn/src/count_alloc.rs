//! Heap-allocation counting for zero-allocation assertions.
//!
//! The training hot path (`Twig::decide` / `MaBdq::train_step`) is meant to
//! be allocation-free in steady state. That property is cheap to lose and
//! invisible in ordinary tests, so this module provides [`CountingAlloc`],
//! the one counting allocator, and the process-wide counters behind it. A
//! *binary* (integration test or bin target) installs it with no `unsafe`
//! of its own:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: twig_nn::CountingAlloc = twig_nn::CountingAlloc;
//!
//! fn main() {
//!     use twig_nn::count_alloc;
//!     assert!(count_alloc::counter_armed());
//!     let before = count_alloc::allocation_count();
//!     let v = vec![0u8; 64];
//!     assert_eq!(count_alloc::allocations_since(before), 1);
//!     assert!(count_alloc::live_bytes() >= v.len());
//! }
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
//! which is exactly the property asserted. The byte counters
//! ([`requested_bytes`], [`live_bytes`]) hold a structure to its footprint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static HELPER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REQUESTED_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ONE_THREAD: AtomicBool = AtomicBool::new(false);
thread_local! {
    // Const-initialised and without a destructor: reading it from inside an
    // allocator neither allocates nor registers anything.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The counting global allocator: [`System`], plus a [`note_alloc`] for
/// every counted entry point and the byte counters. See the module docs.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every operation defers to `System` with the caller's own
// arguments, adding only relaxed atomic updates and a read of a
// const-initialised thread-local, none of which allocates. So all of
// `GlobalAlloc`'s contracts are inherited from `System` unchanged.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts one allocation of `size` bytes that replaces a block of `freed`
/// bytes (0 for a fresh allocation).
fn note_request(size: usize, freed: usize) {
    note_alloc();
    REQUESTED_BYTES.fetch_add(size, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(size, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(freed, Ordering::Relaxed);
}

/// Records one heap allocation. Called by [`CountingAlloc`] and by any
/// other counting allocator a binary installs; safe to call from an
/// allocator context because it only touches a static atomic and a
/// const-initialised thread-local flag.
pub fn note_alloc() {
    if twig_stats::helper::on_helper_thread() {
        HELPER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
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

/// Heap allocations observed so far on [`twig_stats::helper::Helper`]
/// threads, whatever [`count_this_thread_only`] says. A helper whose job the
/// spawning thread sized never allocates, so this stays at 0.
pub fn helper_allocation_count() -> u64 {
    HELPER_ALLOCATIONS.load(Ordering::Relaxed)
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

/// Bytes requested from [`CountingAlloc`] so far, by every thread (0 when
/// it is not installed). Only meaningful around calls that dwarf whatever
/// other threads allocate meanwhile.
pub fn requested_bytes() -> usize {
    REQUESTED_BYTES.load(Ordering::Relaxed)
}

/// Bytes allocated through [`CountingAlloc`] and not yet freed, by every
/// thread. Wraps below zero and back when a block outlives the reading it
/// is compared with, so compare readings with `wrapping_sub`.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}
