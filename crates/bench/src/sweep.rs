//! First-class load sweeps: acceptance/energy curves over an offered-load
//! grid × registry schedulers × admission policies.
//!
//! [`sweep_grid`] replays the same seeded Poisson stream shape at each
//! mean inter-arrival time, labels each stream `poisson@{mean}`, and runs
//! the load × policy × scheduler grid on the admission grid's runner
//! ([`run_grid`]): one [`Cell`] per point, loads outermost, each carrying
//! the grid's counters, telemetry and exact-path aggregates.
//!
//! Every cell runs under [`SearchBudget::online`]-style budgets supplied
//! by the caller, so the anytime EX-MEM (and the META selector's exact
//! regime) sweep alongside the heuristics instead of sitting out. The
//! `repro sweep` subcommand renders [`sweep_report`] and `--json`
//! persists a [`SweepReport`].

use amrm_core::{SchedulerRegistry, SearchBudget};
use amrm_metrics::TextTable;
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_workload::{poisson_stream, ScenarioRequest, StreamSpec};
use serde::{Deserialize, Serialize};

use crate::admission::{run_grid, Cell, PolicyFactory};

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
    /// One cell per (load × policy × scheduler), keyed by the stream
    /// label `poisson@{mean}`: loads outermost, then policies, schedulers
    /// in registry order innermost.
    pub cells: Vec<Cell>,
}

/// The stream label of the load point with mean inter-arrival `mean`.
fn load_label(mean: f64) -> String {
    format!("poisson@{mean}")
}

/// Runs the (load × policy × scheduler) sweep grid: one seeded Poisson
/// stream per mean in `interarrivals`, all of them through [`run_grid`]
/// on `threads` OS threads. `budget` bounds every scheduler activation
/// (pass [`SearchBudget::online`] so exhaustive search cannot stall a
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
) -> Vec<Cell> {
    let streams: Vec<(String, Vec<ScenarioRequest>)> = interarrivals
        .iter()
        .map(|&mean| (load_label(mean), poisson_stream(apps, mean, spec, seed)))
        .collect();
    let refs: Vec<(&str, &[ScenarioRequest])> = streams
        .iter()
        .map(|(label, stream)| (label.as_str(), stream.as_slice()))
        .collect();
    run_grid(platform, registry, policies, &refs, threads, budget)
}

/// Renders sweep cells as acceptance/energy curves: one row per (policy,
/// scheduler), one acceptance and energy column pair per load point.
pub fn sweep_report(cells: &[Cell], interarrivals: &[f64]) -> String {
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
            let stream = load_label(mean);
            let cell = cells
                .iter()
                .find(|c| c.policy == policy && c.scheduler == scheduler && c.stream == stream);
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

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_baselines::{standard_registry, FIXED_NAME, MDF_NAME};
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
        // Loads outermost, policies next, schedulers innermost.
        assert_eq!(cells[0].stream, "poisson@2");
        assert_eq!(cells[0].policy, "Immediate");
        assert_eq!(cells[0].scheduler, MDF_NAME);
        assert_eq!(cells[1].scheduler, FIXED_NAME);
        assert_eq!(cells[2].policy, "BatchK(2)");
        assert_eq!(cells[3].stream, "poisson@2");
        assert_eq!(cells[4].stream, "poisson@8");
        assert_eq!(cells[4].policy, "Immediate");
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
        crate::write_json(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let back: SweepReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, 3);
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(back.cells[0].policy, report.cells[0].policy);
        assert_eq!(back.interarrivals, vec![4.0]);
    }
}
