//! The disabled fast path, pinned: in a process that never enables metrics
//! or installs a trace writer, the registry snapshot is empty and span
//! guards / metric mutations perform **zero heap allocations** — measured
//! with a counting global allocator. This is the contract that lets every
//! hot path in rc4-exec / rc4-store stay instrumented without moving the
//! BENCH numbers or the byte-identity guarantees.
//!
//! Global process state (the whole point of the test) forces this into its
//! own integration binary; keep it to a single `#[test]` so no sibling test
//! thread allocates concurrently.

// The workspace denies `unsafe_code`, but a counting GlobalAlloc cannot be
// written without it; the allocator below is two direct delegations to
// `System` plus one relaxed counter bump.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rc4_obs::{kv, metrics, trace, Span};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method delegates to `System`, which upholds the GlobalAlloc
// contract; the counter bump has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, which
        // guarantees it is non-zero-sized per the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` call above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn disabled_observability_is_empty_and_allocation_free() {
    assert!(!metrics::is_enabled());
    assert!(!trace::is_enabled());

    // Snapshot of a never-enabled registry: empty, and its JSON form is
    // three empty objects.
    let snap = metrics::snapshot();
    assert!(
        snap.is_empty(),
        "disabled registry must stay empty: {snap:?}"
    );
    let json = serde_json::to_string(&snap.to_value()).unwrap();
    assert!(json.contains("\"counters\""), "{json}");

    // Warm up once outside the measured window so any lazy runtime
    // initialization (thread-locals etc.) is not attributed to the guards.
    {
        let _warm = Span::enter("warmup");
        metrics::counter_add("warmup", 1);
    }

    let evaluated = AtomicU64::new(0);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        let _span = Span::enter("exec.map");
        let _nested = Span::enter_with("store.load_or_generate", || {
            // Must never run while tracing is disabled — evaluating it
            // would both allocate and waste time on the hot path.
            evaluated.fetch_add(1, Ordering::Relaxed);
            vec![("key", "value".to_string())]
        });
        let mut macro_kv = Span::enter_with("exec.worker", kv! { "index" => i });
        macro_kv.record("tier", "memory");
        metrics::counter_add("exec.tasks", i);
        metrics::observe_us("exec.map_us", i);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "disabled spans/metrics must not allocate"
    );
    assert_eq!(
        evaluated.load(Ordering::Relaxed),
        0,
        "kv closures must not be evaluated while tracing is disabled"
    );
    // Still empty after all that traffic.
    assert!(metrics::snapshot().is_empty());
}
