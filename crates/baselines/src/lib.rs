//! Baseline schedulers evaluated against MMKP-MDF in the paper.
//!
//! * [`ExMem`] — the exhaustive, memoized optimal reference (Section VI-A);
//! * [`MmkpLr`] — the Lagrangian-relaxation MMKP heuristic with
//!   single-segment analysis scope (Wildermann et al.);
//! * [`FixedMapper`] — a state-of-the-art fixed mapper that never
//!   reconfigures running jobs (Fig. 1(a)/(b) behaviour);
//! * [`IncrementalMapper`] — maps new jobs onto currently free cores only;
//! * [`MetaScheduler`] — a telemetry-driven meta-scheduler switching
//!   between the registry algorithms by observed load regime.
//!
//! All implement [`amrm_core::Scheduler`] and can be plugged into the
//! [`amrm_core::RuntimeManager`] unchanged. [`standard_registry`] collects
//! them — together with MMKP-MDF — into the
//! [`SchedulerRegistry`](amrm_core::SchedulerRegistry) that benchmark
//! suites, sweeps and the repro binary enumerate.
//!
//! # Examples
//!
//! ```
//! use amrm_baselines::ExMem;
//! use amrm_core::{MmkpMdf, Scheduler};
//! use amrm_workload::scenarios;
//!
//! let jobs = scenarios::s1_jobs_at_t1();
//! let platform = scenarios::platform();
//! let optimal = ExMem::new().schedule_at(&jobs, &platform, 1.0).unwrap();
//! let heuristic = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
//! assert!(optimal.energy(&jobs) <= heuristic.energy(&jobs) + 1e-9);
//! ```

mod cache;
mod exmem;
#[cfg(test)]
mod exmem_reference;
mod fixed;
mod incremental;
mod lr;
mod meta;

pub use crate::cache::MappingCache;
pub use crate::exmem::ExMem;
pub use crate::fixed::FixedMapper;
pub use crate::incremental::IncrementalMapper;
pub use crate::lr::MmkpLr;
pub use crate::meta::{BudgetRegime, MetaConfig, MetaScheduler, Regime};

use amrm_core::{MmkpMdf, SchedulerRegistry};

/// Registry name of the exhaustive optimal reference.
pub const EXMEM_NAME: &str = "EX-MEM";
/// Registry name of the Lagrangian-relaxation heuristic.
pub const LR_NAME: &str = "MMKP-LR";
/// Registry name of the paper's MMKP-MDF heuristic.
pub const MDF_NAME: &str = "MMKP-MDF";
/// Registry name of the fixed mapper.
pub const FIXED_NAME: &str = "FIXED";
/// Registry name of the incremental (free-cores-only) mapper.
pub const INCREMENTAL_NAME: &str = "INCREMENTAL";
/// Registry name of the telemetry-driven meta-scheduler.
pub const META_NAME: &str = "META";

/// All schedulers of the reproduction, in report order: the three the
/// paper evaluates (EX-MEM, MMKP-LR, MMKP-MDF) followed by the fixed and
/// incremental baselines and the telemetry-driven META selector.
///
/// Each name matches the scheduler's own [`Scheduler::name`]
/// (`amrm_core::Scheduler::name`), so results keyed by registry name and
/// log lines keyed by scheduler name agree.
///
/// # Examples
///
/// ```
/// use amrm_baselines::standard_registry;
///
/// let registry = standard_registry();
/// assert_eq!(
///     registry.names(),
///     vec!["EX-MEM", "MMKP-LR", "MMKP-MDF", "FIXED", "INCREMENTAL", "META"]
/// );
/// let mut mdf = registry.create("MMKP-MDF").unwrap();
/// assert_eq!(mdf.name(), "MMKP-MDF");
/// ```
pub fn standard_registry() -> SchedulerRegistry {
    SchedulerRegistry::new()
        .with(EXMEM_NAME, || Box::new(ExMem::new()))
        .with(LR_NAME, || Box::new(MmkpLr::new()))
        .with(MDF_NAME, || Box::new(MmkpMdf::new()))
        .with(FIXED_NAME, || Box::new(FixedMapper::new()))
        .with(INCREMENTAL_NAME, || Box::new(IncrementalMapper::new()))
        .with(META_NAME, || Box::new(MetaScheduler::new()))
}

/// The three algorithms of the paper's evaluation (Section VI), in the
/// order used by its tables and figures.
pub fn paper_registry() -> SchedulerRegistry {
    standard_registry().subset(&[EXMEM_NAME, LR_NAME, MDF_NAME])
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use amrm_core::Scheduler;
    use amrm_workload::scenarios;

    #[test]
    fn registry_names_match_scheduler_names() {
        let registry = standard_registry();
        for (name, factory) in registry.iter() {
            assert_eq!(factory().name(), name);
        }
    }

    #[test]
    fn paper_registry_is_the_evaluated_triple() {
        assert_eq!(
            paper_registry().names(),
            vec![EXMEM_NAME, LR_NAME, MDF_NAME]
        );
    }

    #[test]
    fn every_registered_scheduler_handles_s1() {
        let platform = scenarios::platform();
        let jobs = scenarios::s1_jobs_at_t1();
        for (name, mut scheduler) in standard_registry().instantiate_all() {
            if let Some(schedule) = scheduler.schedule_at(&jobs, &platform, 1.0) {
                schedule
                    .validate(&jobs, &platform, 1.0)
                    .unwrap_or_else(|e| panic!("{name} produced an invalid schedule: {e}"));
            }
        }
    }
}
