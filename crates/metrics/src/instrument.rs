//! Kernel instrumentation: thread-local hot-path counters and an
//! optional counting global allocator.
//!
//! The event kernel, the runtime manager, and EX-MEM's memo table bump
//! these counters on their hot paths; the `repro profile` harness resets
//! them before a run and snapshots them after to report events/s and the
//! per-run operation mix. Counters are thread-local [`Cell`]s — a single
//! uncontended add per event, no atomics — so profile runs must read them
//! on the thread that ran the simulation.
//!
//! [`CountingAllocator`] is a [`GlobalAlloc`] wrapper over the system
//! allocator that tracks total/peak/live bytes in process-wide atomics.
//! It is always compiled (the type is zero-cost unless installed); a
//! binary opts in with `#[global_allocator]` — the repro binary gates its
//! installation behind the `count-alloc` cargo feature so the default
//! build keeps the stock allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

thread_local! {
    static COUNTERS: Cell<CounterSnapshot> = const { Cell::new(CounterSnapshot::zero()) };
}

/// A point-in-time copy of this thread's instrumentation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Events popped off the kernel heap (including stale ones).
    pub events: u64,
    /// Events pushed onto the kernel heap.
    pub heap_pushes: u64,
    /// Admission flushes (batches submitted to the runtime manager).
    pub flushes: u64,
    /// Scheduler activations (calls into `Scheduler::schedule`).
    pub schedule_calls: u64,
    /// EX-MEM memo-table hits (subproblems answered without search).
    pub memo_hits: u64,
    /// Maximum admission-queue depth observed.
    pub peak_queue_depth: u64,
}

impl CounterSnapshot {
    const fn zero() -> Self {
        CounterSnapshot {
            events: 0,
            heap_pushes: 0,
            flushes: 0,
            schedule_calls: 0,
            memo_hits: 0,
            peak_queue_depth: 0,
        }
    }
}

fn update(f: impl FnOnce(&mut CounterSnapshot)) {
    COUNTERS.with(|c| {
        let mut snap = c.get();
        f(&mut snap);
        c.set(snap);
    });
}

/// Zeroes this thread's counters. Call before a measured run.
pub fn reset() {
    COUNTERS.with(|c| c.set(CounterSnapshot::zero()));
}

/// Copies this thread's counters.
pub fn snapshot() -> CounterSnapshot {
    COUNTERS.with(Cell::get)
}

/// Drains this thread's counters: returns the current snapshot and resets
/// them to zero, so a run bracketed by two calls reads its own counts.
pub fn take() -> CounterSnapshot {
    COUNTERS.with(|c| c.replace(CounterSnapshot::zero()))
}

/// Records one event popped off the kernel heap.
pub fn record_event() {
    update(|c| c.events += 1);
}

/// Records one event pushed onto the kernel heap.
pub fn record_heap_push() {
    update(|c| c.heap_pushes += 1);
}

/// Records one admission flush.
pub fn record_flush() {
    update(|c| c.flushes += 1);
}

/// Records one scheduler activation.
pub fn record_schedule_call() {
    update(|c| c.schedule_calls += 1);
}

/// Records one EX-MEM memo-table hit.
pub fn record_memo_hit() {
    update(|c| c.memo_hits += 1);
}

/// Folds an observed admission-queue depth into the peak.
pub fn record_queue_depth(depth: usize) {
    update(|c| c.peak_queue_depth = c.peak_queue_depth.max(depth as u64));
}

static ALLOC_TOTAL: AtomicU64 = AtomicU64::new(0);
static ALLOC_LIVE: AtomicU64 = AtomicU64::new(0);
static ALLOC_PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper over the system allocator. Install with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// in a binary or test crate, then read the process-wide tallies through
/// the associated functions. All statics stay zero when the allocator is
/// not installed, which is how consumers detect "no data".
pub struct CountingAllocator;

impl CountingAllocator {
    /// Total bytes ever allocated (monotonic).
    pub fn total_allocated_bytes() -> u64 {
        ALLOC_TOTAL.load(Ordering::Relaxed)
    }

    /// Bytes currently live (allocated minus freed).
    pub fn live_bytes() -> u64 {
        ALLOC_LIVE.load(Ordering::Relaxed)
    }

    /// High-water mark of live bytes.
    pub fn peak_bytes() -> u64 {
        ALLOC_PEAK.load(Ordering::Relaxed)
    }

    /// Number of allocation calls (alloc + realloc growths).
    pub fn allocation_calls() -> u64 {
        ALLOC_CALLS.load(Ordering::Relaxed)
    }

    /// True once any allocation has been observed, i.e. the allocator is
    /// actually installed as `#[global_allocator]`.
    pub fn installed() -> bool {
        ALLOC_TOTAL.load(Ordering::Relaxed) > 0
    }

    fn on_alloc(size: u64) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_TOTAL.fetch_add(size, Ordering::Relaxed);
        let live = ALLOC_LIVE.fetch_add(size, Ordering::Relaxed) + size;
        ALLOC_PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: u64) {
        ALLOC_LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the bookkeeping uses
// only relaxed atomics and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            Self::on_dealloc(layout.size() as u64);
            Self::on_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_event();
        record_event();
        record_heap_push();
        record_flush();
        record_schedule_call();
        record_memo_hit();
        record_queue_depth(3);
        record_queue_depth(1);
        let snap = snapshot();
        assert_eq!(snap.events, 2);
        assert_eq!(snap.heap_pushes, 1);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.schedule_calls, 1);
        assert_eq!(snap.memo_hits, 1);
        assert_eq!(snap.peak_queue_depth, 3);
        reset();
        assert_eq!(snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn counters_are_thread_local() {
        reset();
        record_event();
        let other = std::thread::spawn(|| {
            record_event();
            snapshot().events
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert_eq!(snapshot().events, 1);
        reset();
    }

    #[test]
    fn take_drains_this_threads_counters() {
        reset();
        record_event();
        record_flush();
        record_queue_depth(7);
        let drained = take();
        assert_eq!(drained.events, 1);
        assert_eq!(drained.flushes, 1);
        assert_eq!(drained.peak_queue_depth, 7);
        assert_eq!(snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn allocator_bookkeeping_is_consistent() {
        // Drive the bookkeeping directly (the allocator is not installed
        // globally in unit tests): a grow-then-free cycle must leave live
        // bytes back where they started and the peak at the high-water.
        let live0 = CountingAllocator::live_bytes();
        CountingAllocator::on_alloc(1024);
        CountingAllocator::on_alloc(2048);
        assert!(CountingAllocator::peak_bytes() >= live0 + 3072);
        assert!(CountingAllocator::total_allocated_bytes() >= 3072);
        assert!(CountingAllocator::allocation_calls() >= 2);
        assert!(CountingAllocator::installed());
        CountingAllocator::on_dealloc(2048);
        CountingAllocator::on_dealloc(1024);
        assert_eq!(CountingAllocator::live_bytes(), live0);
    }
}
