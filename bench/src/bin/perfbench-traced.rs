//! The traced binary (`--trace 1`): telemetry armed, a span around every
//! call into a layer, probes after the loop, and the counting allocator
//! below so spans and probes can report allocation counts.

use std::alloc::{GlobalAlloc, Layout, System};

struct CountingAlloc;

// SAFETY: every operation defers to `System`; the only addition is a relaxed
// atomic increment, so all `GlobalAlloc` contracts are inherited.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        twig_nn::note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        twig_nn::note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        twig_nn::note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    twig_perfbench::main_with(true)
}
