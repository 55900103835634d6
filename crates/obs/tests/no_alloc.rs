//! Acceptance test: disabled observability must add near-zero overhead —
//! in particular, zero heap allocation on hot loops (mirroring the
//! `EventRecorder::emit_with` contract in llmms-core).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Counting per thread keeps the tests
    /// independent under the parallel harness; `const` initialisation and a
    /// destructor-free `Cell` mean the allocator never initialises anything
    /// lazily (which could itself allocate).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_timed_and_span_do_not_allocate() {
    let registry = llmms_obs::Registry::disabled();
    // Warm any lazy statics outside the measured window.
    let warm = registry.timed("warm", || 0u64);
    assert_eq!(warm, 0);

    let allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            let v = registry.timed("hot_stage", || i.wrapping_mul(31));
            std::hint::black_box(v);
            registry.span("hot_span").finish();
        }
    });
    assert_eq!(allocs, 0, "disabled observability must not allocate");
}

#[test]
fn enabled_hot_loop_with_cached_handles_does_not_allocate() {
    let registry = llmms_obs::Registry::new();
    // Resolve handles once, as hot paths are expected to.
    let counter = registry.counter_with("hot_total", &[("site", "loop")]);
    let histogram = registry.histogram_with("hot_us", &[("site", "loop")]);

    let allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            counter.metric.inc();
            histogram.metric.record((i % 97) as f64);
            registry.span_on(&histogram).finish();
        }
    });
    assert_eq!(allocs, 0, "cached-handle recording must not allocate");
    assert_eq!(counter.metric.get(), 10_000);
    assert_eq!(histogram.metric.count(), 20_000);
}

#[test]
fn disabled_tracing_does_not_allocate() {
    use llmms_obs::trace;

    // Warm the thread-local slot outside the measured window.
    let _ = trace::current();

    let allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            // The full per-layer pattern: read the current context, open a
            // span, attach attributes, set status — with no tracer
            // installed, none of it may touch the heap.
            let ctx = trace::current();
            let mut span = ctx.span("hot_span");
            span.attr_with("i", || i.to_string());
            span.set_status(llmms_obs::SpanStatus::Error);
            let child = span.context().span("child");
            child.end();
            span.end();
            std::hint::black_box(trace::span_here("other"));
        }
    });
    assert_eq!(allocs, 0, "disabled tracing must not allocate");
}

#[test]
fn disabled_registry_stays_empty_but_flips_live() {
    let registry = llmms_obs::Registry::disabled();
    registry.timed("x", || ());
    assert!(registry.snapshot().histograms.is_empty());
    registry.set_enabled(true);
    registry.timed("x", || ());
    assert_eq!(registry.snapshot().histograms.len(), 1);
}
