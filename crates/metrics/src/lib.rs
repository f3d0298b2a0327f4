//! Evaluation metrics and text reporting for the amrm workspace.
//!
//! Provides the statistics behind the paper's evaluation artifacts —
//! geometric means (Table IV), S-curves (Fig. 3), box plots (Fig. 4),
//! percentiles — a small aligned-text table renderer for the regeneration
//! harness, and the [`telemetry`] subsystem: O(1)-memory online time
//! series ([`Telemetry`], [`TelemetrySnapshot`], [`TelemetrySummary`])
//! that the `amrm-sim` event kernel feeds and adaptive admission policies
//! read — plus the [`instrument`] layer: thread-local hot-path counters
//! and an opt-in counting global allocator behind `repro profile` — plus
//! the observability layer: the deterministic structured event
//! [`journal`] ([`TraceSink`], JSONL and Chrome-trace exporters).
//! Queue-wait percentiles have one source, [`Telemetry`]'s sample ring:
//! it steers META's budget regime and fills the summary's p50/p95/p99.
//!
//! # Examples
//!
//! ```
//! use amrm_metrics::{geometric_mean, BoxplotStats, SCurve};
//!
//! let rel = [1.0, 1.05, 1.2];
//! assert!(geometric_mean(&rel).unwrap() < 1.1);
//! assert_eq!(SCurve::new(rel.to_vec()).count_at_or_below(1.0), 1);
//! assert!(BoxplotStats::from_samples(&rel).unwrap().median > 1.0);
//! ```

pub mod instrument;
pub mod invariant;
pub mod journal;
mod stats;
mod table;
pub mod telemetry;

pub use crate::instrument::{CounterSnapshot, CountingAllocator};
pub use crate::journal::{
    EventKind, Journal, JournalConfig, JournalEvent, RejectReason, TraceSink,
};
pub use crate::stats::{
    geometric_mean, mean, percentile, quantile_sorted, BoxplotStats, Percentiles, SCurve,
};
pub use crate::table::TextTable;
pub use crate::telemetry::{Ewma, RingBuffer, Telemetry, TelemetrySnapshot, TelemetrySummary};
