//! Event-driven simulation of the online runtime manager.
//!
//! The [`Simulation`] kernel composes any [`Scheduler`] with any batched-
//! [`AdmissionPolicy`](amrm_core::AdmissionPolicy) and drives an
//! [`amrm_core::RuntimeManager`] from a time-ordered event queue (arrival,
//! batch-window expiry, job completion, queue deadline), collecting
//! admissions, energy and an executed Gantt trace — enough to reproduce
//! the management scenarios of Fig. 1 and to run workloads far beyond the
//! paper (Poisson/diurnal/bursty streams, batched admission A/Bs).
//!
//! [`run_scenario`] is the per-request convenience wrapper
//! ([`Immediate`](amrm_core::Immediate)) matching the paper's discipline.
//!
//! # Examples
//!
//! Reproducing Fig. 1(c):
//!
//! ```
//! use amrm_core::{MmkpMdf, ReactivationPolicy};
//! use amrm_sim::run_scenario;
//! use amrm_workload::scenarios;
//!
//! let outcome = run_scenario(
//!     scenarios::platform(),
//!     MmkpMdf::new(),
//!     ReactivationPolicy::OnArrival,
//!     &scenarios::scenario_s1(),
//! );
//! assert_eq!(outcome.accepted(), 2);
//! assert!((outcome.total_energy - 14.63).abs() < 5e-3);
//! ```

pub mod federation;
mod simulation;

pub use crate::federation::{Federation, FederationConfig, FederationOutcome};
pub use crate::simulation::Simulation;

use amrm_core::{Admission, Immediate, ReactivationPolicy, RmStats, RuntimeManager, Scheduler};
use amrm_metrics::{Journal, Telemetry, TelemetrySummary};
use amrm_model::{Job, JobId, JobSet, Schedule};
use amrm_platform::Platform;
use amrm_workload::ScenarioRequest;

/// The outcome of simulating one request stream.
///
/// An outcome is a pure function of the simulation's inputs — it holds no
/// wall-clock reading — so two runs with the same seed compare equal with
/// `==`. (`==` on `f64` equates `-0.0` and `0.0`; compare
/// `total_energy.to_bits()` where the sign of zero matters.)
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Per request (in arrival order): the assigned job id and whether the
    /// request was admitted. Empty in aggregated-outcome mode
    /// ([`Simulation::aggregated`]), where the per-request records are
    /// folded into [`offered`](SimOutcome::offered) and the acceptance
    /// counters instead.
    pub admissions: Vec<(JobId, bool)>,
    /// Requests decided, maintained as a running counter in both modes
    /// (equals `admissions.len()` whenever records are kept).
    pub offered: usize,
    /// Requests admitted, as a running counter (equals the fold of
    /// `admissions` whenever records are kept).
    pub accepted_total: usize,
    /// Total energy metered over the whole run, in joules.
    pub total_energy: f64,
    /// Final simulated time (all admitted jobs completed).
    pub end_time: f64,
    /// Runtime-manager counters.
    pub stats: RmStats,
    /// The executed mapping-segment trace (Fig. 1 style).
    pub trace: Schedule,
    /// All admitted jobs at full remaining ratio — the lookup table for
    /// rendering/energy-checking the trace.
    pub admitted_jobs: JobSet,
    /// Requests dropped because their deadline passed while they waited
    /// in the admission queue (always 0 under per-request admission).
    pub queue_deadline_drops: usize,
    /// Requests the federation dispatcher stole out of this shard's
    /// queue and re-routed (always 0 outside a federation); their
    /// decisions are counted at the thief shard.
    pub stolen: usize,
    /// High-water mark of simultaneously tracked request slots — the
    /// flat-memory bound in aggregated mode, the total request count when
    /// records are kept.
    pub peak_live_requests: usize,
    /// End-of-run telemetry summary: queue-wait percentiles, EWMA
    /// arrival rate and utilization, activation latency, rolling
    /// acceptance. The doc-hidden sequential driver mirrors the kernel's
    /// per-request telemetry feed, so its summary equals the kernel's
    /// under per-request admission.
    pub telemetry: TelemetrySummary,
    /// Snapshot of the structured event journal, when one was attached
    /// with [`Simulation::with_journal`] (`None` otherwise — and for the
    /// sequential driver, which predates the journal).
    pub journal: Option<Journal>,
}

impl SimOutcome {
    /// Number of admitted requests (counter-backed, so aggregated runs
    /// report it without per-request records).
    pub fn accepted(&self) -> usize {
        self.accepted_total
    }

    /// Number of rejected requests.
    pub fn rejected(&self) -> usize {
        self.offered - self.accepted_total
    }

    /// Acceptance rate in `[0, 1]`; an empty stream accepted nothing, so
    /// its rate is 0.0 (never a division by zero).
    pub fn acceptance_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.accepted_total as f64 / self.offered as f64
    }

    /// Total energy per admitted job, in joules; 0.0 when nothing was
    /// admitted (never a division by zero).
    pub fn energy_per_job(&self) -> f64 {
        if self.accepted() == 0 {
            return 0.0;
        }
        self.total_energy / self.accepted() as f64
    }

    /// Renders the executed trace as an ASCII Gantt chart.
    pub fn gantt(&self, platform: &Platform) -> String {
        amrm_model::render_gantt(
            &self.trace,
            &self.admitted_jobs,
            platform,
            &amrm_model::GanttOptions::default(),
        )
    }
}

/// Runs a stream of requests (sorted by arrival internally) through a
/// runtime manager with the given scheduler and re-activation policy, then
/// lets all admitted jobs run to completion.
///
/// This is the paper's per-request admission discipline: a thin wrapper
/// over the event-driven [`Simulation`] kernel with
/// [`Immediate`] admission.
///
/// # Panics
///
/// Panics if any request has a deadline before its arrival.
pub fn run_scenario<S: Scheduler>(
    platform: Platform,
    scheduler: S,
    policy: ReactivationPolicy,
    requests: &[ScenarioRequest],
) -> SimOutcome {
    Simulation::new(platform, scheduler, policy, Immediate, requests).run()
}

/// The pre-kernel per-arrival driver, kept as the equivalence reference
/// for the event-driven [`Simulation`]: the property tests in
/// `tests/admission_equivalence.rs` pin `Immediate`/`BatchK(1)`/
/// `WindowTau(0)` kernel runs to this loop bit for bit. Not part of the
/// public API surface.
///
/// The loop maintains its own [`Telemetry`] recorder and feeds the
/// runtime manager exactly the snapshot sequence the event kernel
/// produces under per-request admission (arrival → utilization sample →
/// zero queue wait → context snapshot → submit → activation/decision/
/// energy samples), so even *context-aware* schedulers (META) see
/// bit-identical telemetry here and under the kernel's `Immediate`
/// discipline.
#[doc(hidden)]
pub fn run_scenario_sequential<S: Scheduler>(
    platform: Platform,
    scheduler: S,
    policy: ReactivationPolicy,
    requests: &[ScenarioRequest],
) -> SimOutcome {
    let mut ordered: Vec<&ScenarioRequest> = requests.iter().collect();
    ordered.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));

    let mut rm = RuntimeManager::with_policy(platform, scheduler, policy);
    let mut telemetry = Telemetry::new();
    let mut admissions = Vec::with_capacity(ordered.len());
    let mut admitted = Vec::new();
    for req in ordered {
        rm.advance_to(req.arrival);
        // Mirror the kernel's per-arrival telemetry feed (arrival gap,
        // utilization sample, the flushed request's zero queue wait, the
        // post-flush context snapshot) …
        telemetry.record_arrival(req.arrival);
        let busy = rm.busy_cores();
        telemetry.record_utilization(busy.as_slice(), rm.platform().counts().as_slice());
        telemetry.record_queue_wait(0.0);
        rm.observe_telemetry(&telemetry.snapshot(req.arrival, 0, None, None));
        let admission = rm.submit(amrm_model::AppRef::clone(&req.app), req.deadline);
        // … and the post-decision samples (gathering latency 0 under
        // per-request admission, rolling acceptance, energy per job,
        // drained queue depth).
        telemetry.record_activation(0.0);
        let accepted = usize::from(admission.is_accepted());
        telemetry.record_decisions(accepted, 1 - accepted);
        telemetry.record_energy(rm.total_energy(), rm.stats().accepted);
        telemetry.record_queue_depth(0);
        if let Admission::Accepted { job } = admission {
            admitted.push(Job::new(
                job,
                amrm_model::AppRef::clone(&req.app),
                req.arrival,
                req.deadline,
                1.0,
            ));
        }
        admissions.push((admission.job(), admission.is_accepted()));
    }
    let total_energy = rm.run_to_completion();
    telemetry.record_energy(total_energy, rm.stats().accepted);

    let accepted_total = admissions.iter().filter(|(_, ok)| *ok).count();
    SimOutcome {
        offered: admissions.len(),
        accepted_total,
        peak_live_requests: admissions.len(),
        admissions,
        total_energy,
        end_time: rm.now(),
        stats: rm.stats(),
        trace: rm.executed_trace(),
        admitted_jobs: JobSet::new(admitted),
        queue_deadline_drops: 0,
        stolen: 0,
        telemetry: telemetry.summary(),
        journal: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_baselines::{ExMem, FixedMapper, MmkpLr};
    use amrm_core::MmkpMdf;
    use amrm_workload::scenarios;

    #[test]
    fn fig1a_fixed_mapper_on_arrival() {
        let outcome = run_scenario(
            scenarios::platform(),
            FixedMapper::new(),
            ReactivationPolicy::OnArrival,
            &scenarios::scenario_s1(),
        );
        assert_eq!(outcome.accepted(), 2);
        assert!(
            (outcome.total_energy - scenarios::fig1::FIXED_AT_START_J).abs() < 5e-3,
            "got {}",
            outcome.total_energy
        );
    }

    #[test]
    fn fig1b_fixed_mapper_remaps_at_finish() {
        let outcome = run_scenario(
            scenarios::platform(),
            FixedMapper::new(),
            ReactivationPolicy::OnArrivalAndCompletion,
            &scenarios::scenario_s1(),
        );
        assert_eq!(outcome.accepted(), 2);
        assert!(
            (outcome.total_energy - scenarios::fig1::FIXED_AT_START_AND_FINISH_J).abs() < 5e-3,
            "got {}",
            outcome.total_energy
        );
    }

    #[test]
    fn fig1c_adaptive_mapper() {
        let outcome = run_scenario(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            &scenarios::scenario_s1(),
        );
        assert_eq!(outcome.accepted(), 2);
        assert!(
            (outcome.total_energy - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3,
            "got {}",
            outcome.total_energy
        );
    }

    #[test]
    fn s2_fixed_rejects_adaptive_accepts() {
        let fixed = run_scenario(
            scenarios::platform(),
            FixedMapper::new(),
            ReactivationPolicy::OnArrival,
            &scenarios::scenario_s2(),
        );
        assert_eq!(fixed.accepted(), 1);
        assert_eq!(fixed.rejected(), 1);

        let adaptive = run_scenario(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            &scenarios::scenario_s2(),
        );
        assert_eq!(adaptive.accepted(), 2);
        assert!((adaptive.acceptance_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_energy_matches_metered_energy() {
        for policy in [
            ReactivationPolicy::OnArrival,
            ReactivationPolicy::OnArrivalAndCompletion,
        ] {
            let outcome = run_scenario(
                scenarios::platform(),
                MmkpMdf::new(),
                policy,
                &scenarios::scenario_s1(),
            );
            let trace_energy = outcome.trace.energy(&outcome.admitted_jobs);
            assert!((trace_energy - outcome.total_energy).abs() < 1e-9);
        }
    }

    #[test]
    fn gantt_renders_both_jobs() {
        let outcome = run_scenario(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            &scenarios::scenario_s1(),
        );
        let chart = outcome.gantt(&scenarios::platform());
        assert!(chart.contains('A') && chart.contains('B'), "{chart}");
    }

    #[test]
    fn all_schedulers_complete_s1_without_misses() {
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(MmkpMdf::new()),
            Box::new(ExMem::new()),
            Box::new(MmkpLr::new()),
            Box::new(FixedMapper::new()),
        ];
        for s in schedulers {
            let outcome = run_scenario(
                scenarios::platform(),
                s,
                ReactivationPolicy::OnArrival,
                &scenarios::scenario_s1(),
            );
            assert_eq!(outcome.stats.deadline_misses, 0);
            assert_eq!(outcome.stats.completed, outcome.accepted());
        }
    }

    #[test]
    fn empty_stream_is_trivial() {
        let outcome = run_scenario(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            &[],
        );
        assert_eq!(outcome.accepted(), 0);
        // Nothing offered, nothing accepted: the rate is 0, not NaN.
        assert_eq!(outcome.acceptance_rate(), 0.0);
        assert_eq!(outcome.total_energy, 0.0);
    }

    #[test]
    fn zero_acceptance_reports_zero_energy_per_job() {
        // A scheduler that rejects everything: the outcome aggregates must
        // come out as exact zeros, not NaN from a 0/0.
        struct RejectAll;
        impl Scheduler for RejectAll {
            fn name(&self) -> &str {
                "REJECT-ALL"
            }
            fn schedule(
                &mut self,
                _: &JobSet,
                _: &Platform,
                _: &amrm_core::SchedulingContext,
            ) -> Option<Schedule> {
                None
            }
        }
        let spec = amrm_workload::StreamSpec {
            requests: 8,
            slack_range: (1.5, 2.0),
        };
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let stream = amrm_workload::poisson_stream(&lib, 4.0, &spec, 2);
        let outcome = run_scenario(
            scenarios::platform(),
            RejectAll,
            ReactivationPolicy::OnArrival,
            &stream,
        );
        assert_eq!(outcome.offered, 8);
        assert_eq!(outcome.acceptance_rate(), 0.0);
        assert_eq!(outcome.energy_per_job(), 0.0);
        assert_eq!(outcome.total_energy, 0.0);
    }

    #[test]
    fn kernel_and_sequential_driver_agree_bit_for_bit() {
        use amrm_workload::{poisson_stream, StreamSpec};
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let spec = StreamSpec {
            requests: 40,
            slack_range: (1.1, 2.0),
        };
        let stream = poisson_stream(&lib, 2.5, &spec, 23);
        for policy in [
            ReactivationPolicy::OnArrival,
            ReactivationPolicy::OnArrivalAndCompletion,
        ] {
            let kernel = run_scenario(scenarios::platform(), MmkpMdf::new(), policy, &stream);
            let sequential =
                run_scenario_sequential(scenarios::platform(), MmkpMdf::new(), policy, &stream);
            assert_eq!(
                kernel.total_energy.to_bits(),
                sequential.total_energy.to_bits()
            );
            assert_eq!(kernel, sequential);
        }
    }

    #[test]
    fn unsorted_arrivals_are_handled() {
        let mut reqs = scenarios::scenario_s1();
        reqs.reverse();
        let outcome = run_scenario(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            &reqs,
        );
        assert_eq!(outcome.accepted(), 2);
        assert!((outcome.total_energy - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3);
    }
}
