//! The arithmetic that turns a pass's tallies into metrics.
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a test keeps the two in step.

use crate::driver::{Layers, Pass, Window, REGIMES};

/// A metric as printed: `name value unit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl std::fmt::Display for Reading {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.name, self.value, self.unit)
    }
}

fn reading(name: impl Into<String>, value: f64, unit: &str) -> Reading {
    Reading {
        name: name.into(),
        value,
        unit: unit.to_string(),
    }
}

const NS_PER_S: f64 = 1e9;
const MIB: f64 = 1024.0 * 1024.0;

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median, or the mean of the middle two for an even count.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// The end-to-end metrics of an untraced run. `setup_ns` holds one
/// sample per set-up repeat. Host times are medians over the pass's
/// windows, so that noise from outside the program that lasts a fraction
/// of the run does not move them.
pub fn end_to_end(setup_ns: &[u64], pass: &Pass, peak_rss_mib: f64) -> Vec<Reading> {
    let windows = &pass.windows;
    let over_windows = |f: &dyn Fn(&Window) -> f64| median(windows.iter().map(f).collect());
    let digest = &pass.digest;
    vec![
        reading(
            "setup_s",
            median(setup_ns.iter().map(|&ns| ns as f64).collect()) / NS_PER_S,
            "s",
        ),
        reading(
            "requests_per_s",
            over_windows(&|w| ratio(w.service.count() as f64 * NS_PER_S, w.wall_ns as f64)),
            "req/s",
        ),
        reading(
            "service_us_p50",
            over_windows(&|w| w.service.quantile(0.50)) / 1e3,
            "us",
        ),
        reading(
            "service_us_p99",
            over_windows(&|w| w.service.quantile(0.99)) / 1e3,
            "us",
        ),
        reading(
            "acceptance",
            ratio(digest.accepted as f64, digest.offered as f64),
            "fraction",
        ),
        reading(
            "energy_per_job_j",
            ratio(pass.total_energy, digest.accepted as f64),
            "J",
        ),
        reading("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// The per-layer metrics of a traced pass. `untraced_wall_ns` is the wall
/// time of an untraced pass over the same stream, the base of
/// `trace.overhead_share`. The busy times of the layers, `kernel.self_s`
/// and `check.busy_s` add up to `trace.wall_s`.
pub fn per_layer(
    pass: &Pass,
    layers: &Layers,
    peak_alloc_bytes: u64,
    untraced_wall_ns: f64,
) -> Vec<Reading> {
    let seconds = |ns: u64| ns as f64 / NS_PER_S;
    let requests = pass.digest.offered as f64;
    let sched = &layers.scheduler;
    let calls = sched.calls as f64;
    let kernel_ns = pass
        .wall_ns
        .saturating_sub(pass.generator_ns + layers.admission.ns + sched.ns + sched.check_ns);

    let mut out = vec![
        reading("workload.busy_s", seconds(pass.generator_ns), "s"),
        reading(
            "workload.ns_per_request",
            ratio(pass.generator_ns as f64, pass.generated as f64),
            "ns",
        ),
        reading("admission.calls", layers.admission.calls as f64, "count"),
        reading("admission.busy_s", seconds(layers.admission.ns), "s"),
        reading(
            "admission.flush_share",
            ratio(
                layers.admission.flushes as f64,
                layers.admission.calls as f64,
            ),
            "fraction",
        ),
        reading("scheduler.calls", calls, "count"),
        reading("scheduler.busy_s", seconds(sched.ns), "s"),
        reading(
            "scheduler.call_us_p50",
            sched.call_ns.quantile(0.50) / 1e3,
            "us",
        ),
        reading(
            "scheduler.call_us_p99",
            sched.call_ns.quantile(0.99) / 1e3,
            "us",
        ),
        reading(
            "scheduler.jobs_per_call",
            ratio(sched.jobs as f64, calls),
            "count",
        ),
        reading(
            "scheduler.found_share",
            ratio(sched.found as f64, calls),
            "fraction",
        ),
        reading("scheduler.invalid_schedules", sched.invalid as f64, "count"),
    ];
    for (i, regime) in REGIMES.iter().enumerate() {
        out.push(reading(
            format!("meta.{regime}.calls"),
            sched.regime_calls[i] as f64,
            "count",
        ));
        out.push(reading(
            format!("meta.{regime}.busy_s"),
            seconds(sched.regime_ns[i]),
            "s",
        ));
    }
    out.extend([
        reading("meta.switches", sched.meta_switches as f64, "count"),
        reading(
            "meta.budget_switches",
            sched.meta_budget_switches as f64,
            "count",
        ),
        reading(
            "exmem.nodes_per_call",
            ratio(sched.exmem_nodes as f64, calls),
            "count",
        ),
        reading("exmem.degraded_calls", sched.exmem_degraded as f64, "count"),
        reading("exmem.rank_pruned", sched.exmem_rank_pruned as f64, "count"),
        reading("exmem.memo_len", sched.exmem_memo_len as f64, "count"),
        reading("exmem.memo_hits", layers.memo_hits as f64, "count"),
        reading("kernel.self_s", seconds(kernel_ns), "s"),
        reading(
            "kernel.self_share",
            ratio(kernel_ns as f64, pass.wall_ns as f64),
            "fraction",
        ),
        reading("kernel.events", layers.events as f64, "count"),
        reading("kernel.heap_pushes", layers.heap_pushes as f64, "count"),
        reading(
            "kernel.events_per_request",
            ratio(layers.events as f64, requests),
            "count",
        ),
        reading("kernel.flushes", layers.flushes as f64, "count"),
        reading(
            "kernel.peak_queue_depth",
            layers.peak_queue_depth as f64,
            "count",
        ),
        reading(
            "manager.activations_per_request",
            ratio(pass.digest.activations as f64, requests),
            "count",
        ),
        reading(
            "manager.queue_deadline_drops",
            layers.queue_deadline_drops as f64,
            "count",
        ),
        reading(
            "manager.peak_live_requests",
            layers.peak_live_requests as f64,
            "count",
        ),
        reading("journal.events", layers.journal_events as f64, "count"),
        reading("journal.dropped", layers.journal_dropped as f64, "count"),
        reading(
            "journal.rollback_victims",
            layers.rollback_victims as f64,
            "count",
        ),
        reading("telemetry.queue_wait_p95_s", layers.queue_wait_p95_s, "s"),
        reading(
            "alloc.bytes_per_request",
            ratio(layers.alloc_bytes as f64, requests),
            "B",
        ),
        reading(
            "alloc.calls_per_request",
            ratio(layers.alloc_calls as f64, requests),
            "count",
        ),
        reading("alloc.peak_live_mib", peak_alloc_bytes as f64 / MIB, "MiB"),
        reading("trace.wall_s", seconds(pass.wall_ns), "s"),
        reading(
            "trace.overhead_share",
            ratio(pass.wall_ns as f64, untraced_wall_ns) - 1.0,
            "fraction",
        ),
        reading("check.busy_s", seconds(sched.check_ns), "s"),
    ]);
    out
}

/// The run's result line: one JSON object, the last line of the output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, readings: &[Reading]) -> String {
    let metrics: Vec<String> = readings
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
