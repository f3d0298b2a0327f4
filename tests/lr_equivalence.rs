//! Property tests pinning [`MmkpLr`] against a *frozen* reference copy of
//! its original per-segment kernel, which ran every subgradient iteration
//! of the budget and priced options inside each comparison.
//!
//! `MmkpLr` stops the subgradient once the multipliers reach a bit-exact
//! fixed point and prices every option once per segment. Neither may
//! change a schedule, so the reference below replicates the full-budget
//! loop independently and the schedules must compare `==` (or both be
//! `None`) for the paper's budget and for shorter ones. Job sets go up to
//! 8 jobs with deadlines from infeasible to loose, so many are
//! oversubscribed and the multipliers move before they settle.

use std::sync::OnceLock;

use amrm::baselines::MmkpLr;
use amrm::core::Scheduler;
use amrm::dataflow::apps;
use amrm::model::{AppRef, Job, JobId, JobMapping, JobSet, Schedule, Segment};
use amrm::platform::{Platform, ResourceVec, EPS};
use amrm::workload::scenarios;
use proptest::prelude::*;

/// Frozen copy of the original remaining-ratio threshold.
const RHO_EPS: f64 = 1e-9;

#[derive(Debug, Clone)]
struct Pending {
    idx: usize,
    rho: f64,
}

/// Frozen copy of the original `MmkpLr::schedule`.
fn reference_schedule(
    max_iterations: usize,
    jobs: &JobSet,
    platform: &Platform,
    now: f64,
) -> Option<Schedule> {
    if jobs.is_empty() {
        return Some(Schedule::new());
    }
    let job_slice = jobs.jobs();

    // Static per-job data: feasible points and the fastest one.
    let mut options: Vec<Vec<usize>> = Vec::with_capacity(job_slice.len());
    let mut fastest: Vec<f64> = Vec::with_capacity(job_slice.len());
    for job in job_slice {
        let opts: Vec<usize> = (0..job.app().num_points())
            .filter(|&j| job.point(j).resources().fits_within(platform.counts()))
            .collect();
        if opts.is_empty() {
            return None;
        }
        fastest.push(
            opts.iter()
                .map(|&j| job.point(j).time())
                .fold(f64::INFINITY, f64::min),
        );
        options.push(opts);
    }

    let mut pending: Vec<Pending> = (0..job_slice.len())
        .map(|idx| Pending {
            idx,
            rho: job_slice[idx].remaining(),
        })
        .collect();
    let mut t = now;
    let mut schedule = Schedule::new();

    while !pending.is_empty() {
        // Viability: every remaining job must still be salvageable.
        if pending
            .iter()
            .any(|p| t + fastest[p.idx] * p.rho > job_slice[p.idx].deadline() + EPS)
        {
            return None;
        }

        // (a) Subgradient on the per-segment relaxation.
        let u = reference_subgradient(
            max_iterations,
            job_slice,
            &pending,
            &options,
            platform,
            t,
            &fastest,
        );

        // (b) Greedy mapping in increasing order of minimum cost.
        let mut order: Vec<usize> = (0..pending.len()).collect();
        let min_cost = |p: &Pending| -> f64 {
            options[p.idx]
                .iter()
                .map(|&j| lagr_cost(&job_slice[p.idx], j, p.rho, &u))
                .fold(f64::INFINITY, f64::min)
        };
        order.sort_by(|&a, &b| {
            min_cost(&pending[a])
                .total_cmp(&min_cost(&pending[b]))
                .then(a.cmp(&b))
        });

        let mut free = platform.counts().clone();
        let mut chosen: Vec<Option<usize>> = vec![None; pending.len()];
        // Earliest completion among mapped jobs = tentative segment end.
        let mut tentative_end = f64::INFINITY;
        for &pi in &order {
            let p = &pending[pi];
            let job = &job_slice[p.idx];
            let mut sorted = options[p.idx].clone();
            sorted.sort_by(|&a, &b| {
                lagr_cost(job, a, p.rho, &u).total_cmp(&lagr_cost(job, b, p.rho, &u))
            });
            for j in sorted {
                let point = job.point(j);
                if !point.resources().fits_within(&free) {
                    continue;
                }
                let completion = t + point.time() * p.rho;
                let seg_end = tentative_end.min(completion);
                // Optimistic deadline check: finish with this point, or
                // reconfigure to the fastest point at the segment end.
                let ok = if completion <= job.deadline() + EPS {
                    true
                } else {
                    let progressed = (seg_end - t) / point.time();
                    let rho_rest = (p.rho - progressed).max(0.0);
                    seg_end + fastest[p.idx] * rho_rest <= job.deadline() + EPS
                };
                if ok {
                    free = &free - point.resources();
                    chosen[pi] = Some(j);
                    tentative_end = seg_end;
                    break;
                }
            }
        }

        if !tentative_end.is_finite() {
            return None; // nothing could be mapped: no progress possible
        }

        // Build the segment up to the earliest completion.
        let delta = tentative_end - t;
        debug_assert!(delta > 0.0);
        let mut mappings = Vec::new();
        for (pi, c) in chosen.iter().enumerate() {
            if let Some(j) = c {
                mappings.push(JobMapping::new(job_slice[pending[pi].idx].id(), *j));
            }
        }
        schedule.push(Segment::new(t, tentative_end, mappings));

        // Advance progress, retire finished jobs.
        let mut next = Vec::with_capacity(pending.len());
        for (pi, p) in pending.iter().enumerate() {
            let rho2 = match chosen[pi] {
                Some(j) => p.rho - delta / job_slice[p.idx].point(j).time(),
                None => p.rho,
            };
            if rho2 > RHO_EPS {
                next.push(Pending {
                    idx: p.idx,
                    rho: rho2,
                });
            } else if tentative_end > job_slice[p.idx].deadline() + EPS {
                return None;
            }
        }
        pending = next;
        t = tentative_end;
    }
    Some(schedule)
}

/// Frozen copy of the original `lagr_cost`.
fn lagr_cost(job: &Job, j: usize, rho: f64, u: &[f64]) -> f64 {
    let p = job.point(j);
    let penalty: f64 = p
        .resources()
        .iter()
        .zip(u)
        .map(|(theta, ui)| f64::from(theta) * ui)
        .sum();
    p.energy() * rho + penalty
}

/// Frozen copy of the original `MmkpLr::subgradient`: always the full
/// iteration budget.
fn reference_subgradient(
    max_iterations: usize,
    jobs: &[Job],
    pending: &[Pending],
    options: &[Vec<usize>],
    platform: &Platform,
    t: f64,
    fastest: &[f64],
) -> Vec<f64> {
    let m = platform.num_types();
    let mut u = vec![0.0; m];
    // Scale: average remaining energy per core, so steps are unit-sane.
    let scale = pending
        .iter()
        .map(|p| {
            options[p.idx]
                .iter()
                .map(|&j| jobs[p.idx].point(j).energy() * p.rho)
                .fold(f64::INFINITY, f64::min)
        })
        .sum::<f64>()
        .max(1e-6)
        / f64::from(platform.total_cores());

    for iter in 0..max_iterations {
        // Relaxed per-group argmin with current prices.
        let mut demand = ResourceVec::zeros(m);
        for p in pending {
            let job = &jobs[p.idx];
            let best = options[p.idx]
                .iter()
                .copied()
                .filter(|&j| {
                    // Deadline-plausible points only.
                    let completion = t + job.point(j).time() * p.rho;
                    completion <= job.deadline() + EPS
                        || t + fastest[p.idx] * p.rho <= job.deadline() + EPS
                })
                .min_by(|&a, &b| {
                    lagr_cost(job, a, p.rho, &u).total_cmp(&lagr_cost(job, b, p.rho, &u))
                });
            if let Some(j) = best {
                demand += job.point(j).resources();
            }
        }
        // Subgradient g = demand − Θ, always for the full budget.
        let step = scale / (iter as f64 + 1.0);
        for k in 0..m {
            let g = f64::from(demand[k]) - f64::from(platform.counts()[k]);
            u[k] = (u[k] + step * g).max(0.0);
        }
    }
    u
}

/// The characterized benchmark suite on the Odroid XU4, built once.
fn suite() -> &'static [AppRef] {
    static SUITE: OnceLock<Vec<AppRef>> = OnceLock::new();
    SUITE.get_or_init(|| apps::benchmark_suite(&Platform::odroid_xu4()))
}

/// One drawn job: application index (taken modulo the library size),
/// remaining ratio, and deadline slack in multiples of the job's fastest
/// remaining run time (below 1 is infeasible). Up to 8 jobs oversubscribe
/// both platforms, so the multipliers move before they settle.
type JobDraw = (usize, f64, f64);

fn jobs_strategy() -> impl Strategy<Value = Vec<JobDraw>> {
    prop::collection::vec((0usize..1000, 0.01f64..=1.0, 0.8f64..=6.0), 1..=8)
}

fn job_set(library: &[AppRef], draws: &[JobDraw], now: f64) -> JobSet {
    JobSet::new(
        draws
            .iter()
            .enumerate()
            .map(|(i, &(app, rho, slack))| {
                let app = AppRef::clone(&library[app % library.len()]);
                let deadline = now + app.min_time() * rho * slack;
                Job::new(JobId(i as u64), app, now, deadline, rho)
            })
            .collect(),
    )
}

/// `MmkpLr` must match the frozen reference for the paper's budget and
/// for shorter ones.
fn assert_matches_reference(jobs: &JobSet, platform: &Platform, now: f64) {
    let cases = [
        (MmkpLr::new(), 100),
        (MmkpLr::with_iterations(1), 1),
        (MmkpLr::with_iterations(7), 7),
        (MmkpLr::with_iterations(100), 100),
    ];
    for (mut lr, iterations) in cases {
        assert_eq!(
            lr.schedule_at(jobs, platform, now),
            reference_schedule(iterations, jobs, platform, now),
            "{iterations} iterations, now = {now}, jobs = {jobs:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn lr_matches_the_frozen_reference_on_the_benchmark_suite(
        draws in jobs_strategy(),
        now in 0.0f64..=1e6,
    ) {
        let jobs = job_set(suite(), &draws, now);
        assert_matches_reference(&jobs, &Platform::odroid_xu4(), now);
    }

    #[test]
    fn lr_matches_the_frozen_reference_on_the_motivational_platform(
        draws in jobs_strategy(),
        now in 0.0f64..=1e6,
    ) {
        let library = [scenarios::lambda1(), scenarios::lambda2()];
        let jobs = job_set(&library, &draws, now);
        assert_matches_reference(&jobs, &scenarios::platform(), now);
    }
}
