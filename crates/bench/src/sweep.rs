//! First-class load sweeps: acceptance/energy curves over an offered-load
//! grid × registry schedulers × admission policies.
//!
//! [`sweep_grid`] crosses every registered scheduler with every admission
//! policy and replays the same seeded Poisson stream shape at each mean
//! inter-arrival time, producing one [`SweepCell`] per (policy ×
//! scheduler × load) point. Each point is one event-kernel
//! [`Simulation`] run, and the independent (policy × scheduler) curves
//! fan out over OS threads via the shared
//! [`for_each_cell`](amrm_core::fanout::for_each_cell) work index.
//!
//! Every cell runs under [`SearchBudget::online`]-style budgets supplied
//! by the caller, so the anytime EX-MEM (and the META selector's exact
//! regime) sweep alongside the heuristics instead of sitting out. The
//! `repro sweep` subcommand renders [`sweep_report`] and `--json`
//! persists a [`SweepReport`].

use amrm_core::fanout::for_each_cell;
use amrm_core::{ReactivationPolicy, SchedulerRegistry, SearchBudget};
use amrm_metrics::{instrument, CounterSnapshot, TextTable};
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_sim::Simulation;
use amrm_workload::{poisson_stream, StreamSpec};
use serde::{Deserialize, Serialize};

use crate::admission::PolicyFactory;

/// One (admission policy × scheduler × offered load) point of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Admission-policy label (e.g. `"AdaptiveBatch"`).
    pub policy: String,
    /// Scheduler (registry) name.
    pub scheduler: String,
    /// Mean inter-arrival time of the Poisson stream at this point.
    pub mean_interarrival: f64,
    /// Requests offered.
    pub requests: usize,
    /// Requests admitted.
    pub accepted: usize,
    /// Acceptance rate in `[0, 1]`.
    pub acceptance_rate: f64,
    /// Energy per admitted job, in joules (0.0 if nothing admitted).
    pub energy_per_job: f64,
    /// Scheduler activations over the run.
    pub activations: usize,
    /// Requests dropped from the admission queue at their deadline.
    pub queue_deadline_drops: usize,
    /// Admitted jobs that finished late (0 unless a scheduler misbehaved).
    pub deadline_misses: usize,
    /// Hot-path instrumentation counters for this cell alone: the
    /// thread-local counters are *drained* around every point, so cells
    /// sharing a worker thread no longer bleed counts into each other.
    pub counters: CounterSnapshot,
}

/// A whole sweep run plus its provenance, ready to serialize as a JSON
/// artifact (`repro sweep --json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// RNG seed of the request streams.
    pub seed: u64,
    /// Whether the quick grid was used.
    pub quick: bool,
    /// Requests per load point.
    pub requests_per_point: usize,
    /// The offered-load grid (mean inter-arrival seconds), densest first.
    pub interarrivals: Vec<f64>,
    /// One cell per (policy × scheduler × load), policies outermost,
    /// schedulers in registry order, loads in grid order innermost.
    pub cells: Vec<SweepCell>,
}

/// Runs the (policy × scheduler × load) sweep grid. Cells are grouped as
/// (policy × scheduler) curves — each curve replays identical seeded
/// Poisson streams over `interarrivals` — and the curves fan out over
/// `threads` OS threads. `budget` bounds every scheduler activation (pass
/// [`SearchBudget::online`] so exhaustive search cannot stall a
/// dense-load cell).
///
/// # Panics
///
/// Panics if `threads` is zero, the registry or policy set is empty,
/// `interarrivals` is empty, or the stream spec is invalid.
#[allow(clippy::too_many_arguments)]
pub fn sweep_grid(
    platform: &Platform,
    registry: &SchedulerRegistry,
    policies: &[PolicyFactory],
    apps: &[AppRef],
    interarrivals: &[f64],
    spec: &StreamSpec,
    seed: u64,
    threads: usize,
    budget: SearchBudget,
) -> Vec<SweepCell> {
    assert!(!registry.is_empty(), "registry must not be empty");
    assert!(!policies.is_empty(), "need at least one admission policy");
    let columns = registry.len();
    let names = registry.names();
    // Every (policy × scheduler) curve replays identical seeded streams,
    // so generate them exactly once and share across all curves.
    let streams: Vec<_> = interarrivals
        .iter()
        .map(|&mean| poisson_stream(apps, mean, spec, seed))
        .collect();
    let curves = for_each_cell(policies.len() * columns, threads, |curve| {
        let policy_idx = curve / columns;
        let sched_idx = curve % columns;
        let factory = registry
            .iter()
            .nth(sched_idx)
            .expect("scheduler index in range")
            .1;
        let label = policies[policy_idx]().label();
        // The thread-local counters are drained around each point:
        // consecutive cells on the same worker thread must not leak
        // counts into each other.
        (0..interarrivals.len())
            .map(|i| {
                let _ = instrument::take();
                let outcome = Simulation::new(
                    platform.clone(),
                    factory(),
                    ReactivationPolicy::OnArrival,
                    policies[policy_idx](),
                    &streams[i],
                )
                .with_search_budget(budget)
                .run();
                SweepCell {
                    policy: label.clone(),
                    scheduler: names[sched_idx].to_string(),
                    mean_interarrival: interarrivals[i],
                    requests: outcome.admissions.len(),
                    accepted: outcome.accepted(),
                    acceptance_rate: outcome.acceptance_rate(),
                    energy_per_job: outcome.energy_per_job(),
                    activations: outcome.stats.activations,
                    queue_deadline_drops: outcome.queue_deadline_drops,
                    deadline_misses: outcome.stats.deadline_misses,
                    counters: instrument::take(),
                }
            })
            .collect::<Vec<_>>()
    });
    curves.into_iter().flatten().collect()
}

/// Renders sweep cells as acceptance/energy curves: one row per (policy,
/// scheduler), one acceptance and energy column pair per load point.
pub fn sweep_report(cells: &[SweepCell], interarrivals: &[f64]) -> String {
    let mut out = String::from(
        "Load sweep: acceptance rate and energy/job over offered load \
         (Poisson mean inter-arrival, seconds)\n\n",
    );
    let mut header = vec!["Policy".to_string(), "Scheduler".to_string()];
    for &mean in interarrivals {
        header.push(format!("acc@{mean}"));
        header.push(format!("J/job@{mean}"));
    }
    let mut t = TextTable::new(header.iter().map(String::as_str).collect());
    let mut row_keys: Vec<(String, String)> = Vec::new();
    for c in cells {
        let key = (c.policy.clone(), c.scheduler.clone());
        if !row_keys.contains(&key) {
            row_keys.push(key);
        }
    }
    for (policy, scheduler) in row_keys {
        let mut row = vec![policy.clone(), scheduler.clone()];
        for &mean in interarrivals {
            let cell = cells.iter().find(|c| {
                c.policy == policy && c.scheduler == scheduler && c.mean_interarrival == mean
            });
            match cell {
                Some(c) => {
                    row.push(format!("{:.2}", c.acceptance_rate));
                    row.push(format!("{:.2}", c.energy_per_job));
                }
                None => {
                    row.push("-".to_string());
                    row.push("-".to_string());
                }
            }
        }
        t.add_row(row);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nDenser load (smaller mean inter-arrival) stresses admission: \
         adaptive scheduling holds acceptance longer and budgeted EX-MEM\n\
         (and META's exact regime) now sweep alongside the heuristics \
         under the online search budget.\n",
    );
    out
}

/// Writes a sweep report as pretty-printed JSON.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_json(path: impl AsRef<std::path::Path>, report: &SweepReport) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), report)
        .map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_baselines::{standard_registry, FIXED_NAME, MDF_NAME, META_NAME};
    use amrm_core::{BatchK, Immediate};
    use amrm_workload::scenarios;

    fn tiny_policies() -> Vec<PolicyFactory> {
        vec![
            Box::new(|| Box::new(Immediate)),
            Box::new(|| Box::new(BatchK(2))),
        ]
    }

    fn lib() -> Vec<AppRef> {
        vec![scenarios::lambda1(), scenarios::lambda2()]
    }

    #[test]
    fn grid_covers_policy_times_scheduler_times_load() {
        let registry = standard_registry().subset(&[MDF_NAME, FIXED_NAME]);
        let spec = StreamSpec {
            requests: 8,
            slack_range: (1.5, 2.5),
        };
        let loads = [2.0, 8.0];
        let cells = sweep_grid(
            &scenarios::platform(),
            &registry,
            &tiny_policies(),
            &lib(),
            &loads,
            &spec,
            11,
            2,
            SearchBudget::online(),
        );
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Policies outermost, schedulers next, loads innermost.
        assert_eq!(cells[0].policy, "Immediate");
        assert_eq!(cells[0].scheduler, MDF_NAME);
        assert_eq!(cells[0].mean_interarrival, 2.0);
        assert_eq!(cells[1].mean_interarrival, 8.0);
        assert_eq!(cells[2].scheduler, FIXED_NAME);
        assert_eq!(cells[4].policy, "BatchK(2)");
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.acceptance_rate));
            assert!(c.accepted <= c.requests);
            assert_eq!(c.deadline_misses, 0);
        }
    }

    #[test]
    fn lighter_load_is_never_worse_on_acceptance() {
        let registry = standard_registry().subset(&[MDF_NAME]);
        let policies: Vec<PolicyFactory> = vec![Box::new(|| Box::new(Immediate))];
        let spec = StreamSpec {
            requests: 25,
            slack_range: (1.2, 2.0),
        };
        let cells = sweep_grid(
            &scenarios::platform(),
            &registry,
            &policies,
            &lib(),
            &[2.0, 20.0],
            &spec,
            11,
            1,
            SearchBudget::unbounded(),
        );
        // Very light load (mean 20 s between ~5 s jobs) must admit at
        // least as much as heavy load in aggregate.
        assert!(cells[1].acceptance_rate >= cells[0].acceptance_rate - 1e-9);
        assert!(cells[1].acceptance_rate > 0.9);
    }

    #[test]
    fn serial_and_parallel_sweeps_agree_bitwise() {
        let registry = standard_registry().subset(&[MDF_NAME, META_NAME]);
        let spec = StreamSpec {
            requests: 10,
            slack_range: (1.4, 2.8),
        };
        let loads = [1.5, 6.0];
        let run = |threads| {
            sweep_grid(
                &scenarios::platform(),
                &registry,
                &tiny_policies(),
                &lib(),
                &loads,
                &spec,
                7,
                threads,
                SearchBudget::online(),
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.scheduler, b.scheduler);
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.acceptance_rate.to_bits(), b.acceptance_rate.to_bits());
            assert_eq!(a.energy_per_job.to_bits(), b.energy_per_job.to_bits());
        }
    }

    #[test]
    fn report_renders_a_row_per_policy_scheduler_pair() {
        let registry = standard_registry().subset(&[MDF_NAME]);
        let spec = StreamSpec {
            requests: 6,
            slack_range: (1.5, 2.5),
        };
        let loads = [3.0, 9.0];
        let cells = sweep_grid(
            &scenarios::platform(),
            &registry,
            &tiny_policies(),
            &lib(),
            &loads,
            &spec,
            3,
            1,
            SearchBudget::online(),
        );
        let report = sweep_report(&cells, &loads);
        assert!(report.contains("Immediate"));
        assert!(report.contains("BatchK(2)"));
        assert!(report.contains(MDF_NAME));
        assert!(report.contains("acc@3"));
        assert!(report.contains("J/job@9"));
    }

    #[test]
    fn sweep_report_roundtrips_through_json() {
        let registry = standard_registry().subset(&[MDF_NAME]);
        let spec = StreamSpec {
            requests: 5,
            slack_range: (1.5, 2.5),
        };
        let loads = vec![4.0];
        let report = SweepReport {
            seed: 3,
            quick: true,
            requests_per_point: spec.requests,
            interarrivals: loads.clone(),
            cells: sweep_grid(
                &scenarios::platform(),
                &registry,
                &tiny_policies(),
                &lib(),
                &loads,
                &spec,
                3,
                1,
                SearchBudget::online(),
            ),
        };
        let path = std::env::temp_dir().join("amrm_sweep_roundtrip.json");
        write_json(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let back: SweepReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, 3);
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(back.cells[0].policy, report.cells[0].policy);
        assert_eq!(back.interarrivals, vec![4.0]);
    }
}
