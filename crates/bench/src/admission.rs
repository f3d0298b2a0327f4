//! The stream × policy × scheduler grid every `repro` grid runs on, and
//! the admission-policy A/B report built from it.
//!
//! A grid cell is one materialized request stream crossed with one
//! admission policy and one scheduler, scored in the currencies that
//! matter online: acceptance rate, energy per admitted job, and
//! scheduler activations. [`run_cell`] is the only place the bench crate
//! builds a [`Simulation`] over a materialized stream: it attaches the
//! observation-only journal (for the exact path's truncation / rank-prune
//! / warm-hit aggregates), drains the thread-local instrumentation
//! counters around the run, and condenses the outcome into a [`Cell`].
//! [`run_grid`] fans cells out over OS threads — streams outermost, then
//! policies, schedulers in registry order innermost. The load sweep, the
//! parameter fit and the exact-path bench call these too.
//!
//! Policies are supplied as **boxed factories** ([`PolicyFactory`]): the
//! adaptive ones are stateful, so every cell gets a fresh instance.
//! [`admission_report`] renders a grid, and the `repro` binary embeds the
//! cells — each with its counters and [`TelemetrySummary`] aggregates — in
//! the perf baseline (`BENCH_baseline.json`) whenever a suite run writes
//! JSON.

use amrm_core::fanout::for_each_cell;
use amrm_core::{
    AdaptiveBatch, AdmissionPolicy, BatchK, Immediate, ReactivationPolicy, Scheduler,
    SchedulerRegistry, SearchBudget, SlackAware, WindowTau,
};
use amrm_metrics::journal::{EventKind, JournalConfig};
use amrm_metrics::{instrument, CounterSnapshot, TelemetrySummary, TextTable};
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_sim::{SimOutcome, Simulation};
use amrm_workload::{ScenarioRequest, StreamSpec};
use serde::{Deserialize, Serialize};

/// A thread-shareable factory for (possibly stateful) admission policies:
/// each grid cell calls it for a fresh instance.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn AdmissionPolicy> + Send + Sync>;

/// Deadline slack range of the standard grid streams.
pub const STREAM_SLACK: (f64, f64) = (1.5, 3.0);

/// One cell of a stream × policy × scheduler grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Label of the request stream the cell ran on (e.g. `"poisson"`,
    /// `"poisson@2"` in a load sweep).
    pub stream: String,
    /// Admission-policy label (e.g. `"BatchK(4)"`), stable across runs.
    pub policy: String,
    /// Scheduler name: the registry name in a [`run_grid`] cell.
    pub scheduler: String,
    /// Requests offered to the runtime manager.
    pub requests: usize,
    /// Requests admitted.
    pub accepted: usize,
    /// Acceptance rate in `[0, 1]` (0.0 for an empty stream).
    pub acceptance_rate: f64,
    /// Energy per admitted job, in joules (0.0 if nothing was admitted).
    pub energy_per_job: f64,
    /// Scheduler activations over the whole run — what batching buys.
    pub activations: usize,
    /// Requests dropped from the admission queue at their deadline.
    pub queue_deadline_drops: usize,
    /// Admitted jobs that finished late (0 unless a scheduler misbehaved).
    pub deadline_misses: usize,
    /// Exact-path activations that exhausted their node budget and fell
    /// back to the anytime incumbent (0 for the heuristic schedulers).
    pub exact_truncations: u64,
    /// Exact-path activations where the rank cap pruned first-segment
    /// candidates before full evaluation.
    pub rank_pruned: u64,
    /// Exact-path activations that served at least one warm-start
    /// (disk-loaded) mapping-cache proof.
    pub cache_warm_hits: u64,
    /// Hot-path instrumentation counters for this cell alone: the
    /// thread-local counters are drained around every run, so cells
    /// sharing a worker thread do not bleed counts into each other.
    pub counters: CounterSnapshot,
    /// End-of-run telemetry aggregates (queue-wait percentiles, EWMA
    /// utilization and arrival rate, rolling acceptance, …).
    pub telemetry: TelemetrySummary,
}

/// The default policy set for A/B runs: the paper's per-request
/// discipline, a size-4 batch, a 2-second gathering window, and the two
/// telemetry-driven adaptive policies.
pub fn standard_policies() -> Vec<PolicyFactory> {
    vec![
        Box::new(|| Box::new(Immediate)),
        Box::new(|| Box::new(BatchK(4))),
        Box::new(|| Box::new(WindowTau(2.0))),
        Box::new(|| Box::new(AdaptiveBatch::default())),
        Box::new(|| Box::new(SlackAware::default())),
    ]
}

/// Requests per standard grid stream. When EX-MEM runs in the grid its
/// exponential online search bounds the stream length (`with_exmem`);
/// without it the heuristics get full-length streams.
pub fn grid_requests(quick: bool, with_exmem: bool) -> usize {
    match (with_exmem, quick) {
        (true, true) => 30,
        (true, false) => 60,
        (false, true) => 120,
        (false, false) => 300,
    }
}

/// The seeded streams the standard A/B grid runs on — one definition
/// shared by the `repro` binary, the parameter fit, the exact-path bench
/// and the tests pinning the committed baseline's reproducibility claims,
/// so tuning the streams cannot silently decouple them: a steady Poisson
/// stream (mean 2 s — dense enough that a size-4 batch fills well inside
/// a request's deadline slack) and a bursty on/off stream (~1 s
/// inter-arrivals for 15 s, then ~8 s lulls) whose load swings are what
/// the adaptive policies exploit.
pub fn standard_streams(
    library: &[AppRef],
    requests: usize,
    seed: u64,
) -> Vec<(&'static str, Vec<ScenarioRequest>)> {
    let spec = StreamSpec {
        requests,
        slack_range: STREAM_SLACK,
    };
    vec![
        (
            "poisson",
            amrm_workload::poisson_stream(library, 2.0, &spec, seed),
        ),
        (
            "bursty",
            amrm_workload::bursty_window_stream(library, 1.0, 8.0, 15.0, &spec, seed),
        ),
    ]
}

/// Runs one cell: `stream` through `scheduler` under `policy`, with every
/// activation bounded by `budget`. Returns the cell (labelled with
/// [`Scheduler::name`]), the whole outcome, and the scheduler for its
/// post-run state (EX-MEM's mapping cache).
///
/// The journal is always attached. It is observation-only (sampling
/// cannot perturb the simulation), so it changes no decision; it is what
/// surfaces the exact path's truncation / rank-prune / warm-hit
/// aggregates, which are exact counters even when the bounded ring
/// evicts events.
///
/// # Panics
///
/// Panics if the policy is invalid or a request's deadline precedes its
/// arrival.
pub fn run_cell<S: Scheduler, A: AdmissionPolicy>(
    platform: &Platform,
    (stream_label, stream): (&str, &[ScenarioRequest]),
    scheduler: S,
    policy: A,
    budget: SearchBudget,
) -> (Cell, SimOutcome, S) {
    let policy_label = policy.label();
    let scheduler_name = scheduler.name().to_string();
    let _ = instrument::take();
    let (outcome, scheduler) = Simulation::new(
        platform.clone(),
        scheduler,
        ReactivationPolicy::OnArrival,
        policy,
        stream,
    )
    .with_search_budget(budget)
    .with_journal(JournalConfig::default())
    .run_with_scheduler();
    let counters = instrument::take();
    let journal = outcome.journal.as_ref().expect("journal installed");
    let cell = Cell {
        stream: stream_label.to_string(),
        policy: policy_label,
        scheduler: scheduler_name,
        requests: stream.len(),
        accepted: outcome.accepted(),
        acceptance_rate: outcome.acceptance_rate(),
        energy_per_job: outcome.energy_per_job(),
        activations: outcome.stats.activations,
        queue_deadline_drops: outcome.queue_deadline_drops,
        deadline_misses: outcome.stats.deadline_misses,
        exact_truncations: journal.count_of(EventKind::Truncation),
        rank_pruned: journal.count_of(EventKind::RankPrune),
        cache_warm_hits: journal.count_of(EventKind::CacheWarmHit),
        counters,
        telemetry: outcome.telemetry.clone(),
    };
    (cell, outcome, scheduler)
}

/// Runs every (stream × policy × scheduler) combination through
/// [`run_cell`] and collects one [`Cell`] per combination — streams
/// outermost, then policies, schedulers in registry order innermost.
/// Cells are independent simulations, so they are fanned out over
/// `threads` OS threads via the shared [`for_each_cell`] work index (a
/// slow exhaustive cell would otherwise serialize the whole grid). Each
/// cell is labelled with its registry name, which tells apart two
/// configurations of one algorithm.
///
/// `budget` is the per-activation [`SearchBudget`] every cell's runtime
/// manager forwards to its scheduler. The repro binary passes
/// [`SearchBudget::online`], which is what lets the anytime EX-MEM run
/// the full grid — bursty stream included — instead of sitting out.
///
/// # Panics
///
/// Panics if `threads` is zero, the registry, policy or stream set is
/// empty, or a policy factory produces an invalid policy.
pub fn run_grid(
    platform: &Platform,
    registry: &SchedulerRegistry,
    policies: &[PolicyFactory],
    streams: &[(&str, &[ScenarioRequest])],
    threads: usize,
    budget: SearchBudget,
) -> Vec<Cell> {
    assert!(!registry.is_empty(), "registry must not be empty");
    assert!(!policies.is_empty(), "need at least one admission policy");
    assert!(!streams.is_empty(), "need at least one request stream");
    for factory in policies {
        if let Err(msg) = factory().validate() {
            panic!("invalid admission policy: {msg}");
        }
    }
    let columns = registry.len();
    let per_stream = policies.len() * columns;
    let names = registry.names();
    for_each_cell(streams.len() * per_stream, threads, |i| {
        let sched_idx = i % columns;
        let scheduler = registry
            .create_at(sched_idx)
            .expect("scheduler index in range");
        let policy = policies[(i % per_stream) / columns]();
        let (mut cell, _, _) =
            run_cell(platform, streams[i / per_stream], scheduler, policy, budget);
        cell.scheduler = names[sched_idx].to_string();
        cell
    })
}

/// Renders a grid as a text table, one row per (stream, policy,
/// scheduler). The queue-wait tail column is the telemetry ring's
/// linear-interpolated p95, the same signal META's budget regime reads;
/// it is exact for grid cells, which flush at most
/// [`amrm_metrics::Telemetry::SAMPLE_CAPACITY`] requests.
pub fn admission_report(cells: &[Cell]) -> String {
    let mut out = String::from(
        "Admission-policy A/B: fixed and adaptive batching vs the paper's per-request discipline\n\n",
    );
    let mut t = TextTable::new(vec![
        "Stream",
        "Policy",
        "Scheduler",
        "accepted",
        "energy/job [J]",
        "activations",
        "queue drops",
        "misses",
        "trunc",
        "pruned",
        "warm",
        "wait p95 [s]",
    ]);
    for c in cells {
        t.add_row(vec![
            c.stream.clone(),
            c.policy.clone(),
            c.scheduler.clone(),
            format!("{}/{}", c.accepted, c.requests),
            format!("{:.2}", c.energy_per_job),
            c.activations.to_string(),
            c.queue_deadline_drops.to_string(),
            c.deadline_misses.to_string(),
            c.exact_truncations.to_string(),
            c.rank_pruned.to_string(),
            c.cache_warm_hits.to_string(),
            format!("{:.2}", c.telemetry.queue_wait_p95),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nBatching trades scheduler activations (runtime overhead) against\n\
         acceptance under tight slack; fixed windows additionally risk\n\
         queue-deadline drops at low load. The adaptive policies size their\n\
         batches from the observed telemetry (arrival rate, rolling\n\
         acceptance, queued slack) instead of a fixed knob.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_baselines::{standard_registry, FIXED_NAME, MDF_NAME, META_NAME};
    use amrm_workload::{poisson_stream, scenarios, StreamSpec};

    fn small_stream() -> Vec<ScenarioRequest> {
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let spec = StreamSpec {
            requests: 12,
            slack_range: (1.3, 2.5),
        };
        poisson_stream(&lib, 4.0, &spec, 31)
    }

    fn fixed_policies() -> Vec<PolicyFactory> {
        vec![
            Box::new(|| Box::new(Immediate)),
            Box::new(|| Box::new(BatchK(4))),
            Box::new(|| Box::new(WindowTau(2.0))),
        ]
    }

    #[test]
    fn grid_covers_every_stream_policy_scheduler_triple() {
        let registry = standard_registry().subset(&[MDF_NAME, FIXED_NAME]);
        let policies = standard_policies();
        let stream = small_stream();
        let cells = run_grid(
            &scenarios::platform(),
            &registry,
            &policies,
            &[("poisson", &stream)],
            2,
            SearchBudget::unbounded(),
        );
        assert_eq!(cells.len(), policies.len() * registry.len());
        // Policies outermost (within the stream), registry order within.
        assert_eq!(cells[0].policy, "Immediate");
        assert_eq!(cells[0].scheduler, MDF_NAME);
        assert_eq!(cells[1].scheduler, FIXED_NAME);
        assert_eq!(cells[2].policy, "BatchK(4)");
        assert_eq!(cells[6].policy, "AdaptiveBatch");
        assert_eq!(cells[8].policy, "SlackAware");
        for c in &cells {
            assert_eq!(c.stream, "poisson");
            assert!((0.0..=1.0).contains(&c.acceptance_rate));
            assert!(c.accepted <= c.requests);
            assert!(c.energy_per_job >= 0.0);
            assert_eq!(c.deadline_misses, 0);
            assert_eq!(c.telemetry.arrivals, c.requests);
            // The heuristics never hit the exact path's aggregates.
            assert_eq!(c.exact_truncations, 0);
            assert_eq!(c.rank_pruned, 0);
            assert_eq!(c.cache_warm_hits, 0);
        }
    }

    #[test]
    fn multiple_streams_stack_in_order() {
        let registry = standard_registry().subset(&[MDF_NAME]);
        let a = small_stream();
        let b = scenarios::scenario_s1();
        let cells = run_grid(
            &scenarios::platform(),
            &registry,
            &fixed_policies(),
            &[("poisson", &a), ("s1", &b)],
            2,
            SearchBudget::unbounded(),
        );
        assert_eq!(cells.len(), 2 * 3);
        assert!(cells[..3].iter().all(|c| c.stream == "poisson"));
        assert!(cells[3..].iter().all(|c| c.stream == "s1"));
        assert_eq!(cells[3].requests, 2);
    }

    #[test]
    fn parallel_and_serial_grids_agree() {
        let registry = standard_registry().subset(&[MDF_NAME, FIXED_NAME, META_NAME]);
        let stream = small_stream();
        let streams: &[(&str, &[ScenarioRequest])] = &[("poisson", &stream)];
        let serial = run_grid(
            &scenarios::platform(),
            &registry,
            &standard_policies(),
            streams,
            1,
            SearchBudget::online(),
        );
        let parallel = run_grid(
            &scenarios::platform(),
            &registry,
            &standard_policies(),
            streams,
            4,
            SearchBudget::online(),
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.scheduler, b.scheduler);
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.activations, b.activations);
            assert_eq!(a.acceptance_rate.to_bits(), b.acceptance_rate.to_bits());
            assert_eq!(a.energy_per_job.to_bits(), b.energy_per_job.to_bits());
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.telemetry, b.telemetry);
        }
    }

    #[test]
    fn batching_reduces_activations() {
        let registry = standard_registry().subset(&[MDF_NAME]);
        let stream = small_stream();
        let policies: Vec<PolicyFactory> = vec![
            Box::new(|| Box::new(Immediate)),
            Box::new(|| Box::new(BatchK(4))),
        ];
        let cells = run_grid(
            &scenarios::platform(),
            &registry,
            &policies,
            &[("poisson", &stream)],
            1,
            SearchBudget::unbounded(),
        );
        let immediate = &cells[0];
        let batched = &cells[1];
        assert!(immediate.activations >= batched.activations);
        assert!(batched.activations >= 1);
    }

    #[test]
    fn report_lists_all_cells() {
        let registry = standard_registry().subset(&[MDF_NAME]);
        let stream = small_stream();
        let cells = run_grid(
            &scenarios::platform(),
            &registry,
            &standard_policies(),
            &[("poisson", &stream)],
            1,
            SearchBudget::unbounded(),
        );
        let report = admission_report(&cells);
        assert!(report.contains("Immediate"));
        assert!(report.contains("BatchK(4)"));
        assert!(report.contains("WindowTau(2)"));
        assert!(report.contains("AdaptiveBatch"));
        assert!(report.contains("SlackAware"));
        assert!(report.contains(MDF_NAME));
        assert!(report.contains("poisson"));
        // Title, blank line, header and rule, then one row per cell whose
        // last column is the ring's queue-wait p95.
        let rows: Vec<&str> = report.lines().skip(4).take(cells.len()).collect();
        assert_eq!(rows.len(), cells.len());
        for (row, c) in rows.iter().zip(&cells) {
            let p95 = format!("{:.2}", c.telemetry.queue_wait_p95);
            assert_eq!(row.split_whitespace().last(), Some(p95.as_str()), "{row}");
        }
    }

    #[test]
    fn cells_roundtrip_through_serde_json() {
        let registry = standard_registry().subset(&[MDF_NAME]);
        let stream = small_stream();
        let policies: Vec<PolicyFactory> = vec![Box::new(|| Box::new(BatchK(2)))];
        let cells = run_grid(
            &scenarios::platform(),
            &registry,
            &policies,
            &[("poisson", &stream)],
            1,
            SearchBudget::unbounded(),
        );
        let text = serde_json::to_string(&cells).unwrap();
        let back: Vec<Cell> = serde_json::from_str(&text).unwrap();
        assert_eq!(back.len(), cells.len());
        assert_eq!(back[0].stream, cells[0].stream);
        assert_eq!(back[0].policy, cells[0].policy);
        assert_eq!(back[0].accepted, cells[0].accepted);
        assert_eq!(back[0].activations, cells[0].activations);
        assert_eq!(back[0].telemetry, cells[0].telemetry);
    }

    #[test]
    fn adaptive_policy_beats_fixed_cells_on_the_bursty_grid_stream() {
        // Pins the reproducibility claim behind the committed baseline
        // (`repro --quick --seed 2020`): on the grid's bursty stream,
        // AdaptiveBatch strictly beats every fixed BatchK/WindowTau cell
        // on acceptance rate for MMKP-MDF. The stream comes from the
        // same `standard_streams` the repro binary runs.
        let platform = amrm_platform::Platform::odroid_xu4();
        let library = amrm_dataflow::apps::benchmark_suite(&platform);
        let streams = standard_streams(&library, grid_requests(true, true), 2020);
        let (_, stream) = streams
            .into_iter()
            .find(|(label, _)| *label == "bursty")
            .expect("standard streams include a bursty shape");
        let registry = standard_registry().subset(&[MDF_NAME]);
        let policies: Vec<PolicyFactory> = vec![
            Box::new(|| Box::new(BatchK(4))),
            Box::new(|| Box::new(WindowTau(2.0))),
            Box::new(|| Box::new(AdaptiveBatch::default())),
        ];
        let cells = run_grid(
            &platform,
            &registry,
            &policies,
            &[("bursty", &stream)],
            2,
            SearchBudget::online(),
        );
        let adaptive = &cells[2];
        assert_eq!(adaptive.policy, "AdaptiveBatch");
        for fixed in &cells[..2] {
            assert!(
                adaptive.acceptance_rate > fixed.acceptance_rate,
                "AdaptiveBatch ({:.3}) does not strictly beat {} ({:.3}) on acceptance",
                adaptive.acceptance_rate,
                fixed.policy,
                fixed.acceptance_rate
            );
        }
    }

    #[test]
    fn budgeted_exmem_completes_the_bursty_quick_grid() {
        // The stream EX-MEM used to sit out: its bursts stack more
        // concurrent jobs than the exhaustive joint enumeration finishes
        // online (a single unbudgeted cell ran for over ten minutes).
        // Under the default online budget the anytime search degrades to
        // best-found-so-far (or the MDF incumbent) and the whole quick
        // grid — every standard policy — completes in seconds.
        let platform = amrm_platform::Platform::odroid_xu4();
        let library = amrm_dataflow::apps::benchmark_suite(&platform);
        let streams = standard_streams(&library, grid_requests(true, true), 2020);
        let (_, stream) = streams
            .into_iter()
            .find(|(label, _)| *label == "bursty")
            .expect("standard streams include a bursty shape");
        let registry = standard_registry().subset(&[amrm_baselines::EXMEM_NAME]);
        let cells = run_grid(
            &platform,
            &registry,
            &standard_policies(),
            &[("bursty", &stream)],
            2,
            SearchBudget::online(),
        );
        assert_eq!(cells.len(), standard_policies().len());
        for c in &cells {
            assert_eq!(c.scheduler, amrm_baselines::EXMEM_NAME);
            assert!((0.0..=1.0).contains(&c.acceptance_rate));
            assert_eq!(c.deadline_misses, 0);
        }
        assert!(
            cells.iter().any(|c| c.accepted > 0),
            "budgeted EX-MEM admitted nothing on the bursty stream"
        );
        // The capped online budget prunes wide bursts instead of burning
        // the node budget on them — the prune aggregate must surface.
        assert!(
            cells.iter().any(|c| c.rank_pruned > 0),
            "no bursty cell recorded rank-cap pruning"
        );
    }

    #[test]
    fn meta_tracks_the_best_fixed_scheduler_on_the_quick_grid() {
        // The META acceptance criterion, pinned at the committed
        // baseline's `--quick --seed 2020` configuration: on each grid
        // stream, META's acceptance (averaged over the standard
        // admission policies) is at least the best single fixed
        // scheduler's minus 0.02, and strictly beats the worst one.
        let platform = amrm_platform::Platform::odroid_xu4();
        let library = amrm_dataflow::apps::benchmark_suite(&platform);
        let streams = standard_streams(&library, grid_requests(true, true), 2020);
        let stream_refs: Vec<(&str, &[ScenarioRequest])> = streams
            .iter()
            .map(|(label, stream)| (*label, stream.as_slice()))
            .collect();
        let registry = standard_registry();
        let cells = run_grid(
            &platform,
            &registry,
            &standard_policies(),
            &stream_refs,
            4,
            SearchBudget::online(),
        );
        for (label, _) in &stream_refs {
            let mean_acceptance = |scheduler: &str| {
                let rates: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.stream == *label && c.scheduler == scheduler)
                    .map(|c| c.acceptance_rate)
                    .collect();
                assert!(!rates.is_empty(), "no {scheduler} cells on {label}");
                rates.iter().sum::<f64>() / rates.len() as f64
            };
            let meta = mean_acceptance(amrm_baselines::META_NAME);
            let fixed: Vec<(String, f64)> = registry
                .names()
                .into_iter()
                .filter(|n| *n != amrm_baselines::META_NAME)
                .map(|n| (n.to_string(), mean_acceptance(n)))
                .collect();
            let best = fixed
                .iter()
                .map(|(_, a)| *a)
                .fold(f64::NEG_INFINITY, f64::max);
            let worst = fixed.iter().map(|(_, a)| *a).fold(f64::INFINITY, f64::min);
            assert!(
                meta >= best - 0.02,
                "{label}: META acceptance {meta:.3} below best fixed {best:.3} - 0.02 ({fixed:?})"
            );
            assert!(
                meta > worst,
                "{label}: META acceptance {meta:.3} does not beat worst fixed {worst:.3}"
            );
        }
    }

    #[test]
    fn budget_adaptive_meta_tracks_fixed_budget_meta_on_the_quick_grid() {
        // The budget-regime acceptance criterion, pinned at the committed
        // baseline's `--quick --seed 2020` configuration: on each grid
        // stream, budget-adaptive META's acceptance (averaged over the
        // standard admission policies) is at least the fixed-budget
        // configuration's. Tightening the exact-regime budget under
        // latency pressure must never cost admissions — EX-MEM degrades
        // to its MDF fallback, not to a rejection.
        use amrm_baselines::MetaScheduler;
        let platform = amrm_platform::Platform::odroid_xu4();
        let library = amrm_dataflow::apps::benchmark_suite(&platform);
        let streams = standard_streams(&library, grid_requests(true, true), 2020);
        let stream_refs: Vec<(&str, &[ScenarioRequest])> = streams
            .iter()
            .map(|(label, stream)| (*label, stream.as_slice()))
            .collect();
        let registry = amrm_core::SchedulerRegistry::new()
            .with("META-adaptive", || Box::new(MetaScheduler::new()))
            .with(
                "META-fixed",
                || Box::new(MetaScheduler::with_fixed_budget()),
            );
        let cells = run_grid(
            &platform,
            &registry,
            &standard_policies(),
            &stream_refs,
            2,
            SearchBudget::online(),
        );
        for (label, _) in &stream_refs {
            let mean_acceptance = |scheduler: &str| {
                let rates: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.stream == *label && c.scheduler == scheduler)
                    .map(|c| c.acceptance_rate)
                    .collect();
                assert!(!rates.is_empty(), "no {scheduler} cells on {label}");
                rates.iter().sum::<f64>() / rates.len() as f64
            };
            let adaptive = mean_acceptance("META-adaptive");
            let fixed = mean_acceptance("META-fixed");
            assert!(
                adaptive >= fixed,
                "{label}: budget-adaptive META acceptance {adaptive:.3} \
                 below fixed-budget {fixed:.3}"
            );
        }
    }
}
