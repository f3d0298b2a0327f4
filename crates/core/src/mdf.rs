//! MMKP-MDF — Algorithm 1 of the paper (the primary contribution).
//!
//! The scheduling problem is viewed as a Multiple-choice Multi-dimensional
//! Knapsack Problem: core types are knapsacks whose capacity is processing
//! time within the analysis horizon (`J = Θ × (max δ − t)`), and each job's
//! operating points form a group of items weighted by `θ · τ · ρ`. Jobs are
//! picked by Maximum-Difference-First and packed with
//! [`schedule_jobs`](crate::schedule_jobs) (Algorithm 2).
//!
//! [`MmkpLoop`] runs the algorithm on job positions: the assignment is one
//! optional configuration per position, each trial sets the chosen job's
//! slot and re-packs the whole assignment with the positional packer, and
//! the EDF order, the containers and the candidate configuration lists live
//! in buffers that persist across activations. The same loop drives the
//! ablation variants, which differ only in how the next job is chosen
//! ([`JobOrderPolicy`]).

use amrm_model::{Job, JobSet, Schedule};
use amrm_platform::{Platform, EPS};

use crate::schedule_jobs::{edf_order, Packer};
use crate::{JobOrderPolicy, Scheduler, SchedulingContext};

/// The MMKP-MDF scheduler.
///
/// Holds only scratch buffers that every call starts by resetting, so it
/// is effectively stateless and one instance can be reused across RM
/// activations.
///
/// # Examples
///
/// Scheduling the motivational example at `t = 1` produces the adaptive
/// schedule of Fig. 1(c):
///
/// ```
/// use amrm_core::{MmkpMdf, Scheduler};
/// use amrm_workload::scenarios;
///
/// let jobs = scenarios::s1_jobs_at_t1();
/// let schedule = MmkpMdf::new()
///     .schedule_at(&jobs, &scenarios::platform(), 1.0)
///     .expect("feasible");
/// let rho1 = 1.0 - 1.0 / 5.3;
/// assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MmkpMdf {
    mmkp: MmkpLoop,
}

impl MmkpMdf {
    /// Creates an MMKP-MDF scheduler.
    pub fn new() -> Self {
        MmkpMdf::default()
    }
}

impl Scheduler for MmkpMdf {
    fn name(&self) -> &str {
        "MMKP-MDF"
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        self.mmkp
            .run(JobOrderPolicy::MaxDifference, jobs, platform, ctx.now)
    }
}

/// The outer loop of Algorithm 1 with its buffers, reused across calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct MmkpLoop {
    /// Containers `J`: remaining core-seconds per core type.
    containers: Vec<f64>,
    /// The configuration of each job position, committed or on trial;
    /// `None` while unmapped.
    assignment: Vec<Option<usize>>,
    /// Job positions in EDF order, for the packer.
    edf: Vec<usize>,
    /// Feasible configurations of the job being examined.
    candidate: Vec<usize>,
    /// Feasible configurations of the job picked so far, cheapest first.
    chosen: Vec<usize>,
    packer: Packer,
}

impl MmkpLoop {
    /// Runs Algorithm 1 at time `now`, picking jobs by `policy`.
    pub(crate) fn run(
        &mut self,
        policy: JobOrderPolicy,
        jobs: &JobSet,
        platform: &Platform,
        now: f64,
    ) -> Option<Schedule> {
        if jobs.is_empty() {
            return Some(Schedule::new());
        }
        let horizon = jobs.max_deadline().expect("non-empty") - now;
        if horizon <= 0.0 {
            return None;
        }
        let jobs = jobs.jobs();
        // Line 1: containers hold processing time per core type.
        self.containers.clear();
        self.containers
            .extend(platform.counts().iter().map(|c| f64::from(c) * horizon));
        // Line 2: no configuration chosen yet.
        self.assignment.clear();
        self.assignment.resize(jobs.len(), None);
        edf_order(jobs, &mut self.edf);

        // Line 3: iterate until every job has a configuration.
        for _ in 0..jobs.len() {
            // Line 4: job selection with filtered config list.
            let target = self.next_job(policy, jobs, platform, now)?;
            let job = &jobs[target];

            // Lines 5–14: try configs in non-decreasing energy order.
            let mut placed = None;
            for &j in &self.chosen {
                self.assignment[target] = Some(j);
                if self
                    .packer
                    .pack(jobs, &self.edf, &self.assignment, platform, now)
                {
                    placed = Some(j);
                    break;
                }
            }
            let Some(j_star) = placed else {
                return None; // line 6
            };
            // Lines 11–12: charge the containers.
            let p = job.point(j_star);
            let work = p.time() * job.remaining();
            for (c, theta) in self.containers.iter_mut().zip(p.resources().iter()) {
                *c = (*c - f64::from(theta) * work).max(0.0);
            }
        }
        // The last successful pack was the complete assignment.
        Some(self.packer.schedule())
    }

    /// `NEXTJOB`: scans the unmapped jobs in job-set order and returns the
    /// position `policy` prefers, with its feasible configurations left in
    /// `chosen`. A job with no feasible configuration makes the whole
    /// activation infeasible (`None`).
    fn next_job(
        &mut self,
        policy: JobOrderPolicy,
        jobs: &[Job],
        platform: &Platform,
        now: f64,
    ) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (pos, job) in jobs.iter().enumerate() {
            if self.assignment[pos].is_some() {
                continue;
            }
            feasible_configs(job, &self.containers, platform, now, &mut self.candidate);
            if self.candidate.is_empty() {
                return None; // some job can no longer be scheduled at all
            }
            let key = policy.key(job, &self.candidate);
            let replace = match best {
                None => true,
                Some((best_key, best_pos)) => {
                    policy.prefers((key, job.id()), (best_key, jobs[best_pos].id()))
                }
            };
            if replace {
                best = Some((key, pos));
                std::mem::swap(&mut self.candidate, &mut self.chosen);
            }
        }
        best.map(|(_, pos)| pos)
    }
}

/// The configuration filtering inside `NEXTJOBMDF`: fills `out` with the
/// indices of `job`'s feasible points sorted by non-decreasing remaining
/// energy.
fn feasible_configs(
    job: &Job,
    containers: &[f64],
    platform: &Platform,
    now: f64,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.extend((0..job.app().num_points()).filter(|&j| {
        let p = job.point(j);
        let work = p.time() * job.remaining();
        // (i) the point can meet the deadline when started now;
        // (ii) the platform has enough cores of each type;
        // (iii) the work θ·τ·ρ fits the remaining containers J.
        job.meets_deadline_with(j, now)
            && p.resources().fits_within(platform.counts())
            && p.resources()
                .iter()
                .zip(containers)
                .all(|(theta, &c)| f64::from(theta) * work <= c + EPS)
    }));
    // Indices break ties, so the order is total and an unstable sort is
    // exact.
    out.sort_unstable_by(|&a, &b| {
        job.remaining_energy(a)
            .total_cmp(&job.remaining_energy(b))
            .then(a.cmp(&b))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_model::{Application, Job, JobId, JobSet, OperatingPoint};
    use amrm_platform::ResourceVec;
    use amrm_workload::scenarios;

    /// `NEXTJOBMDF` on a fresh loop with no job mapped yet and the given
    /// containers: the picked job's id and its feasible configurations.
    fn next_job_mdf(
        jobs: &JobSet,
        containers: &[f64],
        platform: &Platform,
        now: f64,
    ) -> Option<(JobId, Vec<usize>)> {
        let mut mmkp = MmkpLoop {
            containers: containers.to_vec(),
            assignment: vec![None; jobs.len()],
            ..MmkpLoop::default()
        };
        let pos = mmkp.next_job(JobOrderPolicy::MaxDifference, jobs.jobs(), platform, now)?;
        Some((jobs.jobs()[pos].id(), mmkp.chosen))
    }

    #[test]
    fn single_job_gets_cheapest_deadline_feasible_point() {
        // Scenario S1 at t = 0: σ1 alone must pick 2L1B (8.9 J).
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        let schedule = MmkpMdf::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .unwrap();
        schedule
            .validate(&jobs, &scenarios::platform(), 0.0)
            .unwrap();
        assert!((schedule.energy(&jobs) - 8.9).abs() < 1e-9);
        assert_eq!(schedule.num_segments(), 1);
        let mapping = schedule.segments()[0].mappings()[0];
        assert_eq!(
            jobs.get(JobId(1))
                .unwrap()
                .point(mapping.point)
                .resources()
                .as_slice(),
            &[2, 1]
        );
    }

    #[test]
    fn s1_at_t1_reproduces_fig1c() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        schedule.validate(&jobs, &platform, 1.0).unwrap();
        let rho1 = 1.0 - 1.0 / 5.3;
        // Remaining-work energy 12.951 J; adding the 1.679 J prefix gives
        // the paper's 14.63 J overall.
        assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
        let total = schedule.energy(&jobs) + scenarios::fig1::PREFIX_J;
        assert!((total - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3);
        // σ2 runs [1,4) alone; σ1 is suspended then resumes.
        assert_eq!(schedule.num_segments(), 2);
        assert!(schedule.segments()[0].contains_job(JobId(2)));
        assert!(!schedule.segments()[0].contains_job(JobId(1)));
    }

    #[test]
    fn s2_at_t1_is_still_feasible_for_the_adaptive_mapper() {
        // A fixed mapper must reject S2 (Section III); MMKP-MDF finds the
        // same adaptive schedule as in S1.
        let jobs = scenarios::s2_jobs_at_t1();
        let platform = scenarios::platform();
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        schedule.validate(&jobs, &platform, 1.0).unwrap();
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
        assert!(schedule.completion_time(JobId(2)).unwrap() <= 4.0 + 1e-9);
    }

    #[test]
    fn impossible_deadline_rejected() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            1.0, // even the fastest point needs 4.7 s
            1.0,
        )]);
        assert!(MmkpMdf::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .is_none());
    }

    #[test]
    fn empty_job_set_yields_empty_schedule() {
        let schedule = MmkpMdf::new()
            .schedule_at(&JobSet::default(), &scenarios::platform(), 0.0)
            .unwrap();
        assert!(schedule.is_empty());
    }

    #[test]
    fn oversized_points_are_filtered_out() {
        // An app whose only fast point needs more cores than the platform
        // has must fall back to the feasible small point.
        let app = Application::shared(
            "fat",
            vec![
                OperatingPoint::new(ResourceVec::from_slice(&[4, 0]), 1.0, 1.0),
                OperatingPoint::new(ResourceVec::from_slice(&[1, 0]), 5.0, 3.0),
            ],
        );
        let jobs = JobSet::new(vec![Job::new(JobId(1), app, 0.0, 10.0, 1.0)]);
        let platform = scenarios::platform(); // only 2 little cores
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
        assert!((schedule.energy(&jobs) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn split_point_rounding_onto_the_segment_end_stays_feasible() {
        let platform = amrm_platform::Platform::motivational_2l2b();
        for now in [1e8, 1e9] {
            let jobs = crate::schedule_jobs::tests::sub_ulp_jobs(now);
            let schedule = MmkpMdf::new()
                .schedule_at(&jobs, &platform, now)
                .expect("both jobs meet their deadlines");
            schedule.validate(&jobs, &platform, now).unwrap();
        }
    }

    #[test]
    fn past_deadline_horizon_rejected() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        assert!(MmkpMdf::new()
            .schedule_at(&jobs, &scenarios::platform(), 9.5)
            .is_none());
    }

    #[test]
    fn three_jobs_all_meet_deadlines() {
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 20.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 8.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 14.0, 0.7),
        ]);
        let platform = scenarios::platform();
        let schedule = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
    }

    #[test]
    fn mdf_prefers_job_with_larger_degradation() {
        // σ1's margin between best (7.22 J) and second best (8.60 J) is
        // 1.38 J; σ2's is 0.71 J → σ1 must be mapped first and get 2L1B.
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        // J = Θ × 8 s of core-seconds per type.
        let containers: Vec<f64> = platform
            .counts()
            .iter()
            .map(|c| f64::from(c) * 8.0)
            .collect();
        let (first, cl) = next_job_mdf(&jobs, &containers, &platform, 1.0).unwrap();
        assert_eq!(first, JobId(1));
        // Best config of σ1 is 2L1B (index 6).
        assert_eq!(cl[0], 6);
    }

    #[test]
    fn next_job_returns_none_when_a_job_is_stuck() {
        // Exhausted containers leave no feasible configs.
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        assert!(next_job_mdf(&jobs, &[0.0, 0.0], &platform, 1.0).is_none());
    }
}
