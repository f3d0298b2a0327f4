//! Machine-readable performance baselines.
//!
//! [`summarize`] condenses a [`SuiteEvaluation`] into per-scheduler
//! feasibility, energy and search-time aggregates;
//! [`write_json`](crate::write_json) persists them (conventionally to
//! `BENCH_baseline.json` in the repo root) so later changes have a
//! recorded trajectory to compare against, and [`read_json`] reads them
//! back.

use std::path::Path;

use amrm_baselines::EXMEM_NAME;
use amrm_metrics::{geometric_mean, mean};
use serde::{Deserialize, Serialize};

use crate::runner::SuiteEvaluation;

/// Aggregates for one scheduler over one suite run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerBaseline {
    /// Scheduler (registry) name.
    pub scheduler: String,
    /// Cases for which a feasible, validated schedule was found.
    pub scheduled: usize,
    /// Total cases evaluated.
    pub cases: usize,
    /// Geometric-mean energy relative to EX-MEM over co-scheduled cases;
    /// `None` when EX-MEM is absent or nothing was co-scheduled (written
    /// as `null`).
    pub geomean_energy_vs_exmem: Option<f64>,
    /// Mean wall-clock search time, in seconds.
    pub mean_search_seconds: f64,
    /// Worst-case wall-clock search time, in seconds.
    pub max_search_seconds: f64,
}

/// A whole suite run, ready to serialize as the repo's perf baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfBaseline {
    /// RNG seed the suite was generated with.
    pub seed: u64,
    /// Worker threads used for the evaluation.
    pub threads: usize,
    /// Whether the quick (divided-counts) suite was used.
    pub quick: bool,
    /// Number of test cases evaluated.
    pub cases: usize,
    /// Wall-clock seconds for the whole evaluation.
    pub evaluation_seconds: f64,
    /// Per-scheduler aggregates, in registry order.
    pub schedulers: Vec<SchedulerBaseline>,
    /// Admission-policy × scheduler grid on the seeded online stream
    /// (empty when the producing command skipped the online A/B).
    pub admission: Vec<crate::admission::Cell>,
    /// Streaming-kernel throughput cells (`repro profile`; empty when the
    /// producing command skipped the profile). `repro profile --baseline`
    /// reads them back as its throughput floor.
    pub profile: Vec<crate::profile::ProfileCell>,
}

/// Condenses `eval` into a [`PerfBaseline`].
pub fn summarize(
    eval: &SuiteEvaluation,
    seed: u64,
    threads: usize,
    quick: bool,
    evaluation_seconds: f64,
) -> PerfBaseline {
    let cases = eval.results.len();
    let schedulers = eval
        .scheduler_names
        .iter()
        .enumerate()
        .map(|(idx, name)| {
            let times: Vec<f64> = eval
                .results
                .iter()
                .map(|r| r.schedulers[idx].seconds)
                .collect();
            SchedulerBaseline {
                scheduler: name.clone(),
                scheduled: eval
                    .results
                    .iter()
                    .filter(|r| r.schedulers[idx].feasible)
                    .count(),
                cases,
                geomean_energy_vs_exmem: geometric_mean(
                    &eval.relative_energies(name, EXMEM_NAME, None, None),
                ),
                mean_search_seconds: mean(&times).unwrap_or(0.0),
                max_search_seconds: times.iter().copied().fold(0.0, f64::max),
            }
        })
        .collect();
    PerfBaseline {
        seed,
        threads,
        quick,
        cases,
        evaluation_seconds,
        schedulers,
        admission: Vec::new(),
        profile: Vec::new(),
    }
}

/// Reads a baseline back from JSON.
///
/// # Errors
///
/// Returns any I/O or deserialization error.
pub fn read_json(path: impl AsRef<Path>) -> std::io::Result<PerfBaseline> {
    let file = std::fs::File::open(path)?;
    serde_json::from_reader::<_, PerfBaseline>(std::io::BufReader::new(file))
        .map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_suite;
    use amrm_baselines::standard_registry;
    use amrm_workload::{generate_suite, scenarios, SuiteSpec};

    fn tiny_eval() -> SuiteEvaluation {
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let spec = SuiteSpec {
            weak_counts: [2, 2, 0, 0],
            tight_counts: [1, 1, 0, 0],
            ..SuiteSpec::default()
        };
        let cases = generate_suite(&lib, &spec, 13);
        evaluate_suite(&cases, &scenarios::platform(), 1, &standard_registry())
    }

    #[test]
    fn summary_covers_every_scheduler() {
        let eval = tiny_eval();
        let baseline = summarize(&eval, 13, 1, true, 0.5);
        assert_eq!(baseline.schedulers.len(), eval.scheduler_names.len());
        assert_eq!(baseline.cases, eval.results.len());
        for s in &baseline.schedulers {
            assert!(s.scheduled <= s.cases);
            assert!(s.mean_search_seconds >= 0.0);
            assert!(s.max_search_seconds >= s.mean_search_seconds);
        }
        // EX-MEM relative to itself is exactly 1.
        let exmem = &baseline.schedulers[0];
        assert_eq!(exmem.scheduler, EXMEM_NAME);
        if let Some(g) = exmem.geomean_energy_vs_exmem {
            assert!((g - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let mut baseline = summarize(&tiny_eval(), 13, 2, false, 1.25);
        // Attach a small policy grid, as `repro --json` does.
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let spec = amrm_workload::StreamSpec {
            requests: 6,
            slack_range: (1.3, 2.5),
        };
        let stream = amrm_workload::poisson_stream(&lib, 5.0, &spec, 13);
        baseline.admission = crate::admission::run_grid(
            &scenarios::platform(),
            &standard_registry().subset(&[amrm_baselines::MDF_NAME]),
            &crate::admission::standard_policies(),
            &[("poisson", &stream)],
            1,
            amrm_core::SearchBudget::unbounded(),
        );
        let path = std::env::temp_dir().join("amrm_baseline_roundtrip.json");
        crate::write_json(&path, &baseline).unwrap();
        let back = read_json(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.seed, 13);
        assert_eq!(back.threads, 2);
        assert!(!back.quick);
        assert_eq!(back.schedulers.len(), baseline.schedulers.len());
        for (a, b) in baseline.schedulers.iter().zip(&back.schedulers) {
            assert_eq!(a.scheduler, b.scheduler);
            assert_eq!(a.scheduled, b.scheduled);
        }
        assert_eq!(
            back.admission.len(),
            crate::admission::standard_policies().len()
        );
        for (a, b) in baseline.admission.iter().zip(&back.admission) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.activations, b.activations);
        }
    }
}
