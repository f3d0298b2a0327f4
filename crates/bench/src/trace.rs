//! Deterministic event-journal trace of a federated META run
//! (`repro trace`).
//!
//! [`run_trace`] drives a bursty arrival stream through a small
//! federation — [`TRACE_SHARDS`] shards running META under batched
//! admission, hash-affinity routing with work stealing — with the
//! structured journal enabled end to end: each shard's kernel records
//! request lifecycles (arrival → window → flush → decision →
//! admit/reject → completion) and scheduler decisions (META regime and
//! budget switches, EX-MEM memo aggregates when present), while the
//! dispatcher records epoch barriers, per-request routing verdicts and
//! steals on its own track.
//!
//! The per-track journals export to Chrome trace-event JSON
//! (Perfetto-loadable; shards as processes, regimes as counter tracks)
//! via [`write_chrome`], and the aggregate per-kind / per-reject-reason
//! counts condense into a [`TraceReport`], the `repro trace --json`
//! artifact.

use amrm_baselines::META_NAME;
use amrm_core::{BatchK, HashAffinity};
use amrm_metrics::journal::{self, EventKind, JournalConfig, RejectReason};
use amrm_metrics::{Journal, TextTable, TraceSink};
use amrm_platform::Platform;
use amrm_sim::{Federation, FederationConfig};
use amrm_workload::{ArrivalStream, StreamSpec};
use serde::{Deserialize, Serialize};

use crate::shard::open_shard;

/// Shards in the traced federation.
pub const TRACE_SHARDS: usize = 4;

// The traced stream alternates dense bursts with idle valleys: the
// on-window load exceeds what BatchK shards can admit (so windows
// tighten, joint schedules fail and queues build deep enough to steal
// from), while the off-window lets META's signals relax back — both
// regime directions show up in one run.
const ON_INTERARRIVAL: f64 = 0.08;
const OFF_INTERARRIVAL: f64 = 2.0;
const WINDOW: f64 = 30.0;
const SLACK_RANGE: (f64, f64) = (1.2, 2.2);
const BATCH: usize = 8;
const EPOCH: usize = 2;
const STEAL_THRESHOLD: usize = 4;

/// One aggregate journal counter: `category` is `"event"` (per
/// [`EventKind`]) or `"reject"` (per [`RejectReason`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCount {
    /// `"event"` or `"reject"`.
    pub category: String,
    /// Stable machine-readable kind/reason name (e.g. `"regime_switch"`,
    /// `"queue_deadline"`).
    pub name: String,
    /// Occurrences summed over the dispatcher and every shard journal.
    pub count: u64,
}

/// Aggregate statistics of one traced run, ready to serialize
/// (`repro trace --json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// RNG seed of the bursty stream.
    pub seed: u64,
    /// Whether the quick (shrunken) request count was used.
    pub quick: bool,
    /// Requests offered to the federation.
    pub requests: usize,
    /// 1-in-N request sampling (0 = every request journaled).
    pub sample: u64,
    /// Shards in the federation.
    pub shards: usize,
    /// Requests admitted across all shards.
    pub accepted: usize,
    /// Requests that migrated between shards through work stealing.
    pub stolen: usize,
    /// Events journaled across all tracks (exact, ring eviction aside).
    pub total_events: u64,
    /// Events overwritten by the bounded rings across all tracks.
    pub dropped_events: u64,
    /// Per-kind event counts followed by per-reason reject counts; every
    /// kind and reason appears, zero counts included.
    pub counts: Vec<TraceCount>,
}

/// A traced run: the aggregate report plus the labelled per-track
/// journals (dispatcher first, then one per shard) for export.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Aggregate statistics over every track.
    pub report: TraceReport,
    /// `("dispatch", …)`, then `("shard0", …)` … in shard order.
    pub tracks: Vec<(String, Journal)>,
}

/// Runs the traced federation scenario at the standard request counts
/// (20k; quick: 2k).
///
/// # Panics
///
/// Panics if the META scheduler is not registered.
pub fn run_trace(quick: bool, seed: u64, sample: u64) -> TraceRun {
    run_trace_with(if quick { 2_000 } else { 20_000 }, quick, seed, sample)
}

/// [`run_trace`] over an explicit request count (tests use tiny runs).
///
/// # Panics
///
/// Panics if `requests` is zero or META is not registered.
pub fn run_trace_with(requests: usize, quick: bool, seed: u64, sample: u64) -> TraceRun {
    assert!(requests > 0, "trace needs at least one request");
    let platform = Platform::odroid_xu4();
    let library = amrm_dataflow::apps::benchmark_suite(&platform);
    let spec = StreamSpec {
        requests,
        slack_range: SLACK_RANGE,
    };
    let stream = ArrivalStream::bursty_window(
        &library,
        ON_INTERARRIVAL,
        OFF_INTERARRIVAL,
        WINDOW,
        &spec,
        seed,
    );
    let config = JournalConfig {
        sample,
        ..JournalConfig::default()
    };
    let pool: Vec<_> = (0..TRACE_SHARDS)
        .map(|_| open_shard(&platform, META_NAME, BatchK(BATCH)).with_journal(config))
        .collect();
    let outcome = Federation::new(pool, Box::new(HashAffinity::new()))
        .with_config(FederationConfig {
            epoch: EPOCH,
            steal_threshold: Some(STEAL_THRESHOLD),
        })
        .with_trace(TraceSink::enabled(config))
        .run(stream);

    let mut tracks: Vec<(String, Journal)> = Vec::with_capacity(TRACE_SHARDS + 1);
    tracks.push((
        "dispatch".to_string(),
        outcome.journal.clone().expect("dispatcher journal enabled"),
    ));
    for (i, shard) in outcome.shards.iter().enumerate() {
        tracks.push((
            format!("shard{i}"),
            shard.journal.clone().expect("shard journal enabled"),
        ));
    }

    let mut counts = Vec::with_capacity(EventKind::ALL.len() + RejectReason::ALL.len());
    for kind in EventKind::ALL {
        counts.push(TraceCount {
            category: "event".to_string(),
            name: kind.name().to_string(),
            count: tracks.iter().map(|(_, j)| j.count_of(kind)).sum(),
        });
    }
    for reason in RejectReason::ALL {
        counts.push(TraceCount {
            category: "reject".to_string(),
            name: reason.name().to_string(),
            count: tracks.iter().map(|(_, j)| j.rejects_for(reason)).sum(),
        });
    }
    let report = TraceReport {
        seed,
        quick,
        requests,
        sample,
        shards: TRACE_SHARDS,
        accepted: outcome.accepted(),
        stolen: outcome.stolen,
        total_events: tracks.iter().map(|(_, j)| j.total()).sum(),
        dropped_events: tracks.iter().map(|(_, j)| j.dropped()).sum(),
        counts,
    };
    TraceRun { report, tracks }
}

/// Renders a trace report as aligned text tables: events by kind, then
/// rejects by reason.
pub fn trace_report(report: &TraceReport) -> String {
    let mut out = format!(
        "Event-journal trace: {} bursty requests over {} META shards \
         (seed {}, {}, {} events journaled, {} dropped)\n\n",
        report.requests,
        report.shards,
        report.seed,
        if report.sample <= 1 {
            "every request".to_string()
        } else {
            format!("1-in-{} request sampling", report.sample)
        },
        report.total_events,
        report.dropped_events,
    );
    let mut events = TextTable::new(vec!["Event", "count"]);
    let mut rejects = TextTable::new(vec!["Reject reason", "count"]);
    for c in &report.counts {
        if c.category == "event" {
            events.add_row(vec![c.name.clone(), c.count.to_string()]);
        } else {
            rejects.add_row(vec![c.name.clone(), c.count.to_string()]);
        }
    }
    out.push_str(&events.to_string());
    out.push('\n');
    out.push_str(&rejects.to_string());
    out.push_str(&format!(
        "\naccepted {} / {} requests; {} stolen between shards\n",
        report.accepted, report.requests, report.stolen
    ));
    out
}

/// Writes the per-track journals as one Chrome trace-event document —
/// open it at <https://ui.perfetto.dev> (or `chrome://tracing`).
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_chrome(
    path: impl AsRef<std::path::Path>,
    tracks: &[(String, Journal)],
) -> std::io::Result<()> {
    let borrowed: Vec<(&str, &Journal)> = tracks.iter().map(|(l, j)| (l.as_str(), j)).collect();
    let file = std::fs::File::create(path)?;
    journal::write_chrome_trace(&borrowed, &mut std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    #[test]
    fn trace_covers_the_event_kinds_and_lifecycles_are_complete() {
        // The acceptance gate of `repro trace`: the quick scenario at the
        // default seed must produce every headline event family —
        // request lifecycles, META regime switches, routing verdicts and
        // steals — and every journaled request's lifecycle must be
        // complete on its shard.
        let run = run_trace_with(2_000, true, 2020, 0);
        let count = |kind| {
            run.tracks
                .iter()
                .map(|(_, j)| j.count_of(kind))
                .sum::<u64>()
        };
        assert!(count(EventKind::Arrival) > 0, "no lifecycle events");
        assert!(count(EventKind::RegimeSwitch) > 0, "no regime switches");
        assert!(count(EventKind::Route) > 0, "no routing verdicts");
        assert!(count(EventKind::Steal) > 0, "no steals");
        let kinds_present = EventKind::ALL.iter().filter(|&&k| count(k) > 0).count();
        assert!(kinds_present >= 4, "only {kinds_present} event kinds");
        // Dispatcher routed every request exactly once.
        assert_eq!(count(EventKind::Route), 2_000);
        for (label, journal) in &run.tracks[1..] {
            assert_eq!(journal.dropped(), 0, "{label} ring-evicted events");
            journal
                .validate_lifecycles()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        // The aggregate counts mirror the per-track tallies.
        let arrival = run
            .report
            .counts
            .iter()
            .find(|c| c.category == "event" && c.name == "arrival")
            .expect("arrival row present");
        assert_eq!(arrival.count, count(EventKind::Arrival));
    }

    #[test]
    fn sampling_thins_lifecycles_but_not_decisions() {
        let full = run_trace_with(600, true, 7, 0);
        let sampled = run_trace_with(600, true, 7, 8);
        let lifecycle = |run: &TraceRun| {
            run.tracks
                .iter()
                .map(|(_, j)| j.count_of(EventKind::Arrival))
                .sum::<u64>()
        };
        assert!(lifecycle(&sampled) < lifecycle(&full) / 4);
        // Sampling is observation-only: admissions are bit-identical.
        assert_eq!(full.report.accepted, sampled.report.accepted);
        assert_eq!(full.report.stolen, sampled.report.stolen);
        // Sampled lifecycles still validate.
        for (label, journal) in &sampled.tracks[1..] {
            journal
                .validate_lifecycles()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn traced_runs_are_deterministic_per_seed() {
        let a = run_trace_with(400, true, 11, 0);
        let b = run_trace_with(400, true, 11, 0);
        assert_eq!(a.tracks.len(), b.tracks.len());
        for ((la, ja), (lb, jb)) in a.tracks.iter().zip(&b.tracks) {
            assert_eq!(la, lb);
            assert_eq!(ja.events(), jb.events(), "{la} journals diverge");
        }
        assert_eq!(a.report.accepted, b.report.accepted);
    }

    #[test]
    fn chrome_export_carries_every_track() {
        let run = run_trace_with(300, true, 3, 0);
        let path = std::env::temp_dir().join("amrm_trace_chrome.json");
        write_chrome(&path, &run.tracks).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("traceEvents"));
        assert!(text.contains("dispatch"));
        assert!(text.contains("shard3"));
        assert!(text.contains("regime"));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let run = run_trace_with(300, true, 5, 4);
        let path = std::env::temp_dir().join("amrm_trace_roundtrip.json");
        crate::write_json(&path, &run.report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let back: TraceReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, 5);
        assert_eq!(back.sample, 4);
        assert_eq!(back.counts, run.report.counts);
        let rendered = trace_report(&back);
        assert!(rendered.contains("regime_switch"));
        assert!(rendered.contains("queue_deadline"));
    }

    #[test]
    #[ignore = "wall-clock overhead gate; run with --release -- --ignored"]
    fn sampled_journal_keeps_most_of_the_throughput() {
        // The overhead gate: 1-in-64 sampling must keep ≥ 80% of the
        // journal-off throughput on the quick trace scenario.
        let timed = |sample: Option<u64>| {
            let t0 = Instant::now();
            let requests = 20_000;
            match sample {
                Some(s) => {
                    let _ = run_trace_with(requests, true, 2020, s);
                }
                None => {
                    // Journal-free control: the same federation without
                    // any sink installed.
                    let platform = Platform::odroid_xu4();
                    let library = amrm_dataflow::apps::benchmark_suite(&platform);
                    let spec = StreamSpec {
                        requests,
                        slack_range: SLACK_RANGE,
                    };
                    let stream = ArrivalStream::bursty_window(
                        &library,
                        ON_INTERARRIVAL,
                        OFF_INTERARRIVAL,
                        WINDOW,
                        &spec,
                        2020,
                    );
                    let pool: Vec<_> = (0..TRACE_SHARDS)
                        .map(|_| open_shard(&platform, META_NAME, BatchK(BATCH)))
                        .collect();
                    let _ = Federation::new(pool, Box::new(HashAffinity::new()))
                        .with_config(FederationConfig {
                            epoch: EPOCH,
                            steal_threshold: Some(STEAL_THRESHOLD),
                        })
                        .run(stream);
                }
            }
            t0.elapsed().as_secs_f64()
        };
        // Warm up, then measure.
        let _ = timed(None);
        let off = timed(None);
        let on = timed(Some(64));
        assert!(
            on <= off / 0.8,
            "1-in-64 journal costs too much: {on:.3} s vs {off:.3} s journal-off"
        );
    }
}
