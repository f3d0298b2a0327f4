//! Smoke tests of the `repro profile` harness with the counting global
//! allocator installed: the fast test pins the counter wiring and the
//! allocation accounting; the ignored release-only tests stream a
//! million requests through MMKP-MDF, asserting the wall-clock,
//! peak-memory and allocations-per-request bounds of the lazy kernel, and
//! bound the allocations of the EX-MEM exact-path cell (run them with
//! `cargo test --release -p amrm-bench --test profile_smoke --
//! --ignored`).

use std::sync::{Mutex, MutexGuard, PoisonError};

use amrm_baselines::{EXMEM_NAME, MDF_NAME};
use amrm_bench::profile::{run_profile, run_profile_with};
use amrm_metrics::CountingAllocator;

#[global_allocator]
static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocation counters are process-wide, so the tests that read them
/// take turns: a concurrent run would add its calls to another's cell.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn quick_profile_reports_counters_and_allocations() {
    let _counters = counters();
    let report = run_profile(2_000, 11);
    assert!(CountingAllocator::installed());
    assert!(report.peak_alloc_bytes > 0);
    // Two heuristic cells plus the reduced-count EX-MEM exact-path cell.
    assert_eq!(report.cells.len(), 3);
    let exact = &report.cells[2];
    assert_eq!(exact.requests, 20);
    assert!(exact.counters.schedule_calls > 0);
    assert!(exact.allocated_bytes > 0);
    for cell in &report.cells[..2] {
        assert_eq!(cell.requests, 2_000);
        assert!(cell.requests_per_second > 0.0);
        assert!(cell.events_per_second > 0.0);
        // One arrival event per request, plus completions.
        assert!(cell.counters.events >= 2_000);
        assert_eq!(cell.counters.flushes, 2_000);
        assert!(cell.counters.schedule_calls > 0);
        // The run does allocate (requests vector, engine state) — the
        // accounting must see it.
        assert!(cell.allocated_bytes > 0);
        assert!(cell.allocation_calls > 0);
    }
}

#[test]
#[ignore = "release-only million-request throughput bound; run with -- --ignored"]
fn million_request_stream_completes_within_bounds() {
    let _counters = counters();
    let requests = 1_000_000;
    let report = run_profile_with(requests, 2020, &[MDF_NAME]);
    let cell = &report.cells[0];
    assert_eq!(cell.requests, requests);
    // Every request was decided (arrival handled) and most were decided
    // cheaply: the kernel must stay event-linear.
    assert!(cell.counters.events >= requests as u64);
    // Wall-clock bound: ~5 s in release on a mid-range core; 120 s is
    // ~25x headroom for slow CI machines (debug builds miss it — use
    // --release).
    assert!(
        cell.wall_seconds < 120.0,
        "1M-request MDF profile took {:.1} s (> 120 s bound)",
        cell.wall_seconds
    );
    // Allocation bound: MMKP-MDF packs on reusable buffers, so a request
    // costs a few allocations (3.4 at 1M requests). Per-trial assignment
    // clones and per-point capacity vectors cost ~80 per request; this
    // bound catches such a revert on any host, unlike a throughput floor.
    let calls_per_request = cell.allocation_calls as f64 / requests as f64;
    assert!(
        calls_per_request <= 20.0,
        "{calls_per_request:.1} allocations per request on the MDF cell (> 20)"
    );
    // Peak memory bound: profile runs are aggregated, so each decided
    // request is folded into counters and its slot recycled; nothing
    // grows with the request count (a whole 1M-request `repro profile`,
    // EX-MEM memo included, peaked at 46 MiB live on a 2-vCPU VM).
    // 512 MiB catches any accidentally re-materialized stream or trace
    // accumulation.
    let peak = CountingAllocator::peak_bytes();
    assert!(
        peak < 512 * 1024 * 1024,
        "peak live allocation {:.1} MiB exceeds the 512 MiB bound",
        peak as f64 / (1024.0 * 1024.0)
    );
}

#[test]
#[ignore = "release-only EX-MEM allocation bound; run with -- --ignored"]
fn exact_profile_cell_allocates_per_activation_not_per_state() {
    let _counters = counters();
    // The `repro profile --quick` EX-MEM cell.
    let requests = 200;
    let report = run_profile_with(requests, 2020, &[EXMEM_NAME]);
    let cell = &report.cells[0];
    assert_eq!(cell.requests, requests);
    assert!(cell.counters.schedule_calls > 0);
    // Allocation bound: EX-MEM expands states on per-depth scratch and
    // looks memo keys up from a reused buffer, so a request costs a few
    // dozen allocations (26 here), mostly memo entries and schedules. A
    // search that owns a key per lookup and a vector per candidate made
    // 45,574 per request on this cell; like the MDF bound above, this
    // catches such a revert on any host.
    let calls_per_request = cell.allocation_calls as f64 / requests as f64;
    assert!(
        calls_per_request <= 1_000.0,
        "{calls_per_request:.1} allocations per request on the EX-MEM cell (> 1,000)"
    );
}
