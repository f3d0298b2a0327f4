//! Million-request throughput profile of the streaming event kernel
//! (`repro profile`).
//!
//! [`run_profile`] drives a lazily generated diurnal
//! [`ArrivalStream`](amrm_workload::ArrivalStream) — never materialized —
//! through the event kernel for each profiled scheduler (MMKP-MDF and
//! META under the online search budget) in aggregated outcome mode, and
//! reports wall-clock throughput (requests/s, events/s) together with the
//! thread-local instrumentation counters the kernel, the runtime manager
//! and EX-MEM's memo table bump on their hot paths. Cells run *serially*
//! on the calling thread — the counters are thread-local, and a
//! throughput measurement shares no cores.
//!
//! When the `repro` binary is built with the `count-alloc` feature the
//! counting global allocator is installed and the report additionally
//! carries allocation deltas per cell and the process-wide peak; in the
//! default build those fields are zero.

use std::time::Instant;

use amrm_baselines::{standard_registry, EXMEM_NAME, MDF_NAME, META_NAME};
use amrm_core::{Immediate, ReactivationPolicy, SearchBudget};
use amrm_metrics::{instrument, CounterSnapshot, CountingAllocator, TextTable};
use amrm_platform::Platform;
use amrm_sim::Simulation;
use amrm_workload::{ArrivalStream, StreamSpec};
use serde::{Deserialize, Serialize};

/// The diurnal stream shape every profile run uses: mean inter-arrival
/// 0.5 s swinging ×3 over a 600 s period — dense enough to keep the
/// platform saturated (so admission exercises both accept and reject
/// paths) while the bounded job set keeps activations O(1).
const MEAN_INTERARRIVAL: f64 = 0.5;
const PEAK_FACTOR: f64 = 3.0;
const PERIOD: f64 = 600.0;
const SLACK_RANGE: (f64, f64) = (1.5, 3.0);

/// Throughput and operation mix of one scheduler over the profile stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileCell {
    /// Scheduler (registry) name.
    pub scheduler: String,
    /// Requests streamed through the kernel.
    pub requests: usize,
    /// Requests admitted.
    pub accepted: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Requests decided per wall-clock second.
    pub requests_per_second: f64,
    /// Kernel events handled per wall-clock second.
    pub events_per_second: f64,
    /// Hot-path instrumentation counters for this run.
    pub counters: CounterSnapshot,
    /// Bytes allocated during this run (0 unless the counting allocator
    /// is installed — build `repro` with `--features count-alloc`).
    pub allocated_bytes: u64,
    /// Allocation calls during this run (0 unless counting).
    pub allocation_calls: u64,
}

/// A whole profile run plus its provenance, embedded into the perf
/// baseline (`BENCH_baseline.json`) and written standalone by
/// `repro profile --json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileReport {
    /// RNG seed of the diurnal stream.
    pub seed: u64,
    /// Requests per cell.
    pub requests: usize,
    /// One cell per profiled scheduler.
    pub cells: Vec<ProfileCell>,
    /// Process-wide live-bytes high-water mark at the end of the run
    /// (0 unless the counting allocator is installed).
    pub peak_alloc_bytes: u64,
}

/// The EX-MEM exact-path profile cell runs at `requests /
/// EXACT_PROFILE_DIVISOR` arrivals: a budgeted exhaustive activation
/// costs orders of magnitude more than a heuristic one, and the cell
/// exists to watch the *per-activation* cost of the capped ranked search
/// (and its memo hit rate), not to race the streaming kernel.
pub const EXACT_PROFILE_DIVISOR: usize = 100;

/// Runs the throughput profile: `requests` diurnal arrivals through the
/// streaming kernel once per profiled scheduler (MMKP-MDF, META), in
/// aggregated outcome mode under [`SearchBudget::online`], plus an EX-MEM
/// exact-path cell at `requests / `[`EXACT_PROFILE_DIVISOR`] arrivals
/// (each cell's own `requests` field records its count).
///
/// # Panics
///
/// Panics if `requests` is zero.
pub fn run_profile(requests: usize, seed: u64) -> ProfileReport {
    let mut report = run_profile_with(requests, seed, &[MDF_NAME, META_NAME]);
    let exact = run_profile_with(
        (requests / EXACT_PROFILE_DIVISOR).max(1),
        seed,
        &[EXMEM_NAME],
    );
    report.cells.extend(exact.cells);
    report.peak_alloc_bytes = report.peak_alloc_bytes.max(exact.peak_alloc_bytes);
    report
}

/// [`run_profile`] over an explicit registry subset — the 1M-request
/// smoke test profiles MMKP-MDF alone to keep its wall-clock bound tight.
///
/// # Panics
///
/// Panics if `requests` is zero or a name is not registered.
pub fn run_profile_with(requests: usize, seed: u64, schedulers: &[&str]) -> ProfileReport {
    assert!(requests > 0, "profile needs at least one request");
    let platform = Platform::odroid_xu4();
    let library = amrm_dataflow::apps::benchmark_suite(&platform);
    let spec = StreamSpec {
        requests,
        slack_range: SLACK_RANGE,
    };
    let registry = standard_registry().subset(schedulers);
    let cells = registry
        .iter()
        .map(|(name, factory)| {
            let stream = ArrivalStream::diurnal(
                &library,
                MEAN_INTERARRIVAL,
                PEAK_FACTOR,
                PERIOD,
                &spec,
                seed,
            );
            // Drain (not just read) the thread-local counters around the
            // cell: a leftover snapshot from an earlier run on this thread
            // must not bleed into this cell, and this cell's counts must
            // not bleed into the next.
            let _ = instrument::take();
            let alloc0 = CountingAllocator::total_allocated_bytes();
            let calls0 = CountingAllocator::allocation_calls();
            let t0 = Instant::now();
            let outcome = Simulation::from_stream(
                platform.clone(),
                factory(),
                ReactivationPolicy::OnArrival,
                Immediate,
                stream,
            )
            .with_search_budget(SearchBudget::online())
            .aggregated()
            .run();
            let wall = t0.elapsed().as_secs_f64().max(f64::EPSILON);
            let counters = instrument::take();
            ProfileCell {
                scheduler: name.to_string(),
                requests,
                accepted: outcome.accepted(),
                wall_seconds: wall,
                requests_per_second: requests as f64 / wall,
                events_per_second: counters.events as f64 / wall,
                counters,
                allocated_bytes: CountingAllocator::total_allocated_bytes() - alloc0,
                allocation_calls: CountingAllocator::allocation_calls() - calls0,
            }
        })
        .collect();
    ProfileReport {
        seed,
        requests,
        cells,
        peak_alloc_bytes: CountingAllocator::peak_bytes(),
    }
}

/// Renders a profile report as an aligned text table plus an allocator
/// footnote.
pub fn profile_report(report: &ProfileReport) -> String {
    let mut out = format!(
        "Streaming-kernel throughput profile: {} diurnal requests per heuristic \
         scheduler, 1/{} of that on the EX-MEM exact path (seed {})\n\n",
        report.requests, EXACT_PROFILE_DIVISOR, report.seed
    );
    let mut t = TextTable::new(vec![
        "Scheduler",
        "requests",
        "accepted",
        "wall s",
        "req/s",
        "events/s",
        "events",
        "pushes",
        "flushes",
        "activations",
        "memo hits",
        "peak queue",
    ]);
    for c in &report.cells {
        t.add_row(vec![
            c.scheduler.clone(),
            c.requests.to_string(),
            c.accepted.to_string(),
            format!("{:.2}", c.wall_seconds),
            format!("{:.0}", c.requests_per_second),
            format!("{:.0}", c.events_per_second),
            c.counters.events.to_string(),
            c.counters.heap_pushes.to_string(),
            c.counters.flushes.to_string(),
            c.counters.schedule_calls.to_string(),
            c.counters.memo_hits.to_string(),
            c.counters.peak_queue_depth.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    if CountingAllocator::installed() {
        out.push_str(&format!(
            "\npeak live allocation: {:.1} MiB",
            report.peak_alloc_bytes as f64 / (1024.0 * 1024.0)
        ));
        for c in &report.cells {
            out.push_str(&format!(
                "\n  {}: {:.1} MiB allocated over {} calls",
                c.scheduler,
                c.allocated_bytes as f64 / (1024.0 * 1024.0),
                c.allocation_calls
            ));
        }
        out.push('\n');
    } else {
        out.push_str(
            "\nallocation counters inactive (build with --features count-alloc to enable)\n",
        );
    }
    out
}

/// The fraction of a recorded baseline's events/s a run may drop to
/// before the floor guard fails. Deliberately loose: the guard catches
/// order-of-magnitude regressions (an accidentally quadratic hot path,
/// re-materialized streams), not machine-to-machine noise.
pub const FLOOR_FRACTION: f64 = 0.2;

/// Compares a fresh profile against the cells recorded in the committed
/// perf baseline: every scheduler present in both must reach at least
/// [`FLOOR_FRACTION`] of the recorded events/s.
///
/// # Errors
///
/// Returns a message naming every scheduler below its floor. A baseline
/// without profile cells (or with disjoint schedulers) passes vacuously.
pub fn check_floor(current: &[ProfileCell], baseline: &[ProfileCell]) -> Result<(), String> {
    let mut failures = Vec::new();
    for cell in current {
        let Some(recorded) = baseline.iter().find(|b| b.scheduler == cell.scheduler) else {
            continue;
        };
        let floor = recorded.events_per_second * FLOOR_FRACTION;
        if cell.events_per_second < floor {
            failures.push(format!(
                "{}: {:.0} events/s is below the floor of {:.0} (recorded {:.0})",
                cell.scheduler, cell.events_per_second, floor, recorded.events_per_second
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_measures_throughput_and_counters() {
        let report = run_profile(200, 7);
        assert_eq!(report.requests, 200);
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.cells[0].scheduler, MDF_NAME);
        assert_eq!(report.cells[1].scheduler, META_NAME);
        assert_eq!(report.cells[2].scheduler, EXMEM_NAME);
        // The exact-path cell runs at the reduced request count; its own
        // `requests` field records it.
        let exact = &report.cells[2];
        assert_eq!(exact.requests, 200 / EXACT_PROFILE_DIVISOR);
        assert!(exact.accepted <= exact.requests);
        assert!(exact.wall_seconds > 0.0);
        assert!(exact.counters.schedule_calls > 0);
        for c in &report.cells[..2] {
            assert_eq!(c.requests, 200);
            assert!(c.accepted <= c.requests);
            assert!(c.wall_seconds > 0.0);
            assert!(c.requests_per_second > 0.0);
            assert!(c.events_per_second > 0.0);
            // Every request arrives exactly once; completions add more.
            assert!(c.counters.events >= 200);
            assert!(c.counters.heap_pushes >= 200);
            // Immediate admission: one flush and one decision per request.
            assert_eq!(c.counters.flushes, 200);
            assert!(c.counters.schedule_calls > 0);
            assert!(c.counters.peak_queue_depth >= 1);
        }
    }

    #[test]
    fn profile_is_deterministic_per_seed_on_admissions() {
        let a = run_profile(150, 3);
        let b = run_profile(150, 3);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.scheduler, y.scheduler);
            assert_eq!(x.accepted, y.accepted);
            assert_eq!(x.counters.events, y.counters.events);
            assert_eq!(x.counters.schedule_calls, y.counters.schedule_calls);
        }
    }

    #[test]
    fn floor_guard_flags_only_regressions() {
        let fast = run_profile(100, 1);
        // A run can never be 5× below itself.
        check_floor(&fast.cells, &fast.cells).unwrap();
        // Vacuous against an empty or disjoint baseline.
        check_floor(&fast.cells, &[]).unwrap();
        // A synthetic 10× faster baseline must trip the guard.
        let mut inflated = fast.cells.clone();
        for c in &mut inflated {
            c.events_per_second *= 10.0;
        }
        let err = check_floor(&fast.cells, &inflated).unwrap_err();
        assert!(err.contains("below the floor"));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = run_profile(80, 5);
        let path = std::env::temp_dir().join("amrm_profile_roundtrip.json");
        crate::write_json(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let back: ProfileReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, 5);
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(
            back.cells[0].counters.events,
            report.cells[0].counters.events
        );
        let rendered = profile_report(&back);
        assert!(rendered.contains(MDF_NAME));
        assert!(rendered.contains("events/s"));
    }
}
