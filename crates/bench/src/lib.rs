//! Benchmark and experiment-regeneration harness.
//!
//! One module per concern:
//!
//! * [`runner`] — evaluates every scheduler in a
//!   [`SchedulerRegistry`](amrm_core::SchedulerRegistry) over a workload
//!   suite, collecting feasibility, energy and wall-clock search time;
//! * [`admission`] — the grid runner every `repro` grid simulates on:
//!   one [`Cell`] per stream × admission policy × scheduler, built by
//!   [`run_cell`] and fanned out by [`run_grid`], plus the
//!   admission-policy A/B report (acceptance, energy/job, activations);
//! * [`reports`] — renders each table/figure of the paper from those
//!   results, one column per registered scheduler;
//! * [`sweep`] — acceptance/energy curves over an offered-load grid ×
//!   schedulers × admission policies (`repro sweep`), one grid cell per
//!   point;
//! * [`tune`] — deterministic grid/random parameter fitting for the
//!   adaptive policies, the META thresholds and the EX-MEM caps
//!   (`repro tune`), each candidate scored from grid cells;
//! * [`profile`] — million-request streaming-kernel throughput profile
//!   with hot-path instrumentation counters (`repro profile`);
//! * [`shard`] — sharded-federation benchmark: shard counts × routing
//!   policies over one dispatched arrival stream (`repro shard`);
//! * [`trace`] — deterministic event-journal trace of a federated META
//!   run with Chrome trace-event (Perfetto) export (`repro trace`);
//! * [`exact`] — EX-MEM exact-path A/B: capped candidate ranking vs the
//!   uncapped enumeration on the bursty grid stream, and cold-solve vs
//!   warm-start replay from a persisted mapping cache (`repro exact`);
//! * [`baseline`] — condenses an evaluation into the machine-readable
//!   perf baseline (`BENCH_baseline.json`).
//!
//! `profile`, `shard` and `trace` run lazy or federated streams and keep
//! cells of their own; the federated ones share one shard builder.
//! Every report persists through [`write_json`].
//!
//! The `repro` binary drives all of them; Criterion benches under
//! `benches/` measure steady-state scheduler overhead (Fig. 4), the
//! execution-engine hot path, and ablations. Grid-shaped evaluations
//! share one work-stealing fan-out helper, re-exported here as
//! [`fanout`].

pub mod ablation;
pub mod admission;
pub mod baseline;
pub mod exact;
pub mod profile;
pub mod reports;
pub mod runner;
pub mod shard;
pub mod sweep;
pub mod trace;
pub mod tune;

pub use amrm_core::fanout;

pub use crate::admission::{admission_report, run_cell, run_grid, standard_policies, Cell};
pub use crate::baseline::{summarize, PerfBaseline, SchedulerBaseline};
pub use crate::exact::{exact_report, run_exact, run_exact_with, ExactCell, ExactReport};
pub use crate::profile::{
    check_floor, profile_report, run_profile, run_profile_with, ProfileCell, ProfileReport,
};
pub use crate::runner::{evaluate_case, evaluate_suite, CaseResult, SchedResult, SuiteEvaluation};
pub use crate::shard::{run_shard_bench, shard_report, ShardCell, ShardReport};
pub use crate::sweep::{sweep_grid, sweep_report, SweepReport};
pub use crate::trace::{run_trace, trace_report, TraceCount, TraceReport, TraceRun};
pub use crate::tune::{tune_grid, tune_report, TuneOptions, TuneReport};

/// Writes any report as pretty-printed JSON — the one writer behind every
/// `repro --json` artifact and the perf baseline.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_json(
    path: impl AsRef<std::path::Path>,
    report: &impl serde::Serialize,
) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(report).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}
