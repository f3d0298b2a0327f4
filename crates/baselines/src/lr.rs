//! MMKP-LR: the Lagrangian-relaxation baseline (Wildermann et al.,
//! ISORC'15, as adapted by the paper).
//!
//! For every mapping segment the algorithm (a) runs a subgradient method
//! (bounded at 100 iterations, as in the paper, and stopped once the
//! multipliers reach a fixed point) on the Lagrangian relaxation
//! of the per-segment MMKP — multipliers `u ≥ 0` price the per-type core
//! constraint — then (b) greedily maps jobs in increasing order of their
//! minimum Lagrangian configuration cost `ξ·ρ + u·θ`. A configuration is
//! accepted if it fits the free resources and passes the *optimistic*
//! deadline check: the job finishes with it before its deadline, or could
//! still finish if reconfigured to its fastest point at the end of the
//! segment. The segment is cut at the earliest completion and the process
//! repeats — the analysis scope is a single segment, which is exactly the
//! limitation MMKP-MDF's full-horizon containers remove.

use amrm_core::{Scheduler, SchedulingContext};
use amrm_model::{Job, JobMapping, JobSet, Schedule, Segment};
use amrm_platform::{Platform, EPS};

/// Remaining ratio below which a job counts as finished.
const RHO_EPS: f64 = 1e-9;

/// The MMKP-LR scheduler.
///
/// # Examples
///
/// ```
/// use amrm_baselines::MmkpLr;
/// use amrm_core::{Scheduler, SchedulingContext};
/// use amrm_workload::scenarios;
///
/// let jobs = scenarios::s1_jobs_at_t1();
/// let schedule = MmkpLr::new()
///     .schedule_at(&jobs, &scenarios::platform(), 1.0)
///     .expect("feasible");
/// schedule.validate(&jobs, &scenarios::platform(), 1.0).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MmkpLr {
    max_iterations: usize,
}

impl Default for MmkpLr {
    fn default() -> Self {
        MmkpLr::new()
    }
}

impl MmkpLr {
    /// Creates an MMKP-LR scheduler with the paper's subgradient budget of
    /// 100 iterations.
    pub fn new() -> Self {
        MmkpLr {
            max_iterations: 100,
        }
    }

    /// Overrides the subgradient iteration budget (ablation hook).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn with_iterations(iterations: usize) -> Self {
        assert!(iterations > 0, "at least one subgradient iteration");
        MmkpLr {
            max_iterations: iterations,
        }
    }
}

/// Per-job state while building segments.
#[derive(Debug, Clone)]
struct Pending {
    idx: usize,
    rho: f64,
}

impl Scheduler for MmkpLr {
    fn name(&self) -> &str {
        "MMKP-LR"
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        let now = ctx.now;
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
        let mut table = OptionTable::default();
        let mut cost = Vec::new();
        let mut sorted: Vec<usize> = Vec::new();

        while !pending.is_empty() {
            // Viability: every remaining job must still be salvageable.
            if pending
                .iter()
                .any(|p| t + fastest[p.idx] * p.rho > job_slice[p.idx].deadline() + EPS)
            {
                return None;
            }

            // (a) Subgradient on the per-segment relaxation.
            table.fill(job_slice, &pending, &options, t, &fastest, platform);
            let u = self.subgradient(&table, platform);

            // (b) Greedy mapping in increasing order of minimum cost, with
            // every option priced once under the final multipliers.
            cost.clear();
            cost.extend((0..table.len()).map(|e| table.cost(e, &u)));
            let min_cost: Vec<f64> = (0..table.jobs())
                .map(|pi| {
                    cost[table.entries(pi)]
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let mut order: Vec<usize> = (0..pending.len()).collect();
            order.sort_by(|&a, &b| min_cost[a].total_cmp(&min_cost[b]).then(a.cmp(&b)));

            let mut free = platform.counts().clone();
            let mut chosen: Vec<Option<usize>> = vec![None; pending.len()];
            // Earliest completion among mapped jobs = tentative segment end.
            let mut tentative_end = f64::INFINITY;
            for &pi in &order {
                let p = &pending[pi];
                let job = &job_slice[p.idx];
                sorted.clear();
                sorted.extend(table.entries(pi));
                // Stable: equal costs keep the job's option order.
                sorted.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]));
                for &e in &sorted {
                    let j = table.point[e];
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

            // At large clocks a remaining run time can fall below the float
            // resolution of `t`, so the earliest completion does not advance
            // the clock. Such a job is numerically complete (and on time, by
            // the viability check): retire it and push no empty segment.
            if tentative_end <= t {
                let mut pi = 0;
                pending.retain(|p| {
                    let done = chosen[pi]
                        .is_some_and(|j| t + job_slice[p.idx].point(j).time() * p.rho <= t);
                    pi += 1;
                    !done
                });
                continue;
            }

            // Build the segment up to the earliest completion.
            let delta = tentative_end - t;
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
}

/// The options of one segment's pending jobs in one flat table, so that
/// pricing an option reads contiguous memory. Entry `e` is point
/// `point[e]` of its job, with energy term `energy_rho[e] = ξ·ρ` and core
/// vector `θ` at `theta[e·m..(e+1)·m]`; pending job `pi` owns the entries
/// `start[pi]..start[pi + 1]`, in the order of its options.
#[derive(Debug, Default)]
struct OptionTable {
    m: usize,
    start: Vec<usize>,
    point: Vec<usize>,
    energy_rho: Vec<f64>,
    theta: Vec<f64>,
    /// Deadline-plausible: the relaxation only prices these.
    plausible: Vec<bool>,
}

impl OptionTable {
    /// Refills the table for the pending jobs of the segment starting
    /// at `t`.
    fn fill(
        &mut self,
        jobs: &[Job],
        pending: &[Pending],
        options: &[Vec<usize>],
        t: f64,
        fastest: &[f64],
        platform: &Platform,
    ) {
        self.m = platform.num_types();
        self.start.clear();
        self.point.clear();
        self.energy_rho.clear();
        self.theta.clear();
        self.plausible.clear();
        for p in pending {
            let job = &jobs[p.idx];
            self.start.push(self.point.len());
            for &j in &options[p.idx] {
                let point = job.point(j);
                let completion = t + point.time() * p.rho;
                self.point.push(j);
                self.energy_rho.push(point.energy() * p.rho);
                self.theta.extend(point.resources().iter().map(f64::from));
                self.plausible.push(
                    completion <= job.deadline() + EPS
                        || t + fastest[p.idx] * p.rho <= job.deadline() + EPS,
                );
            }
        }
        self.start.push(self.point.len());
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.point.len()
    }

    /// Number of pending jobs.
    fn jobs(&self) -> usize {
        self.start.len() - 1
    }

    /// The entries of pending job `pi`.
    fn entries(&self, pi: usize) -> std::ops::Range<usize> {
        self.start[pi]..self.start[pi + 1]
    }

    /// Core vector of entry `e`.
    fn theta(&self, e: usize) -> &[f64] {
        &self.theta[e * self.m..(e + 1) * self.m]
    }

    /// Lagrangian cost `ξ·ρ + u·θ` of entry `e`.
    fn cost(&self, e: usize, u: &[f64]) -> f64 {
        let penalty: f64 = self
            .theta(e)
            .iter()
            .zip(u)
            .map(|(theta, ui)| theta * ui)
            .sum();
        self.energy_rho[e] + penalty
    }
}

impl MmkpLr {
    /// Runs the subgradient method on the relaxed per-segment MMKP and
    /// returns the final multipliers.
    fn subgradient(&self, table: &OptionTable, platform: &Platform) -> Vec<f64> {
        let m = platform.num_types();
        let mut u = vec![0.0; m];
        // Scale: average remaining energy per core, so steps are unit-sane.
        let scale = (0..table.jobs())
            .map(|pi| {
                table.energy_rho[table.entries(pi)]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            .max(1e-6)
            / f64::from(platform.total_cores());

        let mut demand = vec![0.0; m];
        for iter in 0..self.max_iterations {
            // Relaxed per-group argmin with current prices: the first
            // strict minimum among the plausible options.
            demand.fill(0.0);
            for pi in 0..table.jobs() {
                let mut best: Option<(usize, f64)> = None;
                for e in table.entries(pi).filter(|&e| table.plausible[e]) {
                    let c = table.cost(e, &u);
                    if best.is_none_or(|(_, b)| c.total_cmp(&b).is_lt()) {
                        best = Some((e, c));
                    }
                }
                if let Some((e, _)) = best {
                    for (d, theta) in demand.iter_mut().zip(table.theta(e)) {
                        *d += theta;
                    }
                }
            }
            // Subgradient g = demand − Θ, with a diminishing step. The
            // paper bounds the method at 100 iterations, but the argmin
            // depends only on `u`: once an update leaves every `u[k]`
            // bit-for-bit unchanged, the next one sees the same demand with
            // a step no larger, and by monotone rounding cannot move `u`
            // either. Stopping there returns the multipliers the full
            // budget would.
            let step = scale / (iter as f64 + 1.0);
            let mut moved = false;
            for k in 0..m {
                let g = demand[k] - f64::from(platform.counts()[k]);
                let next = (u[k] + step * g).max(0.0);
                moved |= next.to_bits() != u[k].to_bits();
                u[k] = next;
            }
            if !moved {
                break;
            }
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_core::MmkpMdf;
    use amrm_model::{JobId, JobSet};
    use amrm_workload::scenarios;

    #[test]
    fn single_job_is_optimal() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        let platform = scenarios::platform();
        let schedule = MmkpLr::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
        assert!((schedule.energy(&jobs) - 8.9).abs() < 1e-6);
    }

    #[test]
    fn remainder_below_clock_resolution_is_retired_without_a_segment() {
        // 5.3 s × 1.1e-9 is far below the spacing of f64 at 1e9 s, so
        // the job's completion does not advance the clock.
        let now = 1e9;
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            now + 10.0,
            1.1e-9,
        )]);
        let platform = scenarios::platform();
        let schedule = MmkpLr::new().schedule_at(&jobs, &platform, now).unwrap();
        assert!(schedule.is_empty());
        schedule.validate(&jobs, &platform, now).unwrap();
    }

    #[test]
    fn s1_at_t1_feasible_but_not_better_than_mdf() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let lr = MmkpLr::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        lr.validate(&jobs, &platform, 1.0).unwrap();
        let mdf = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        // The single-segment scope costs energy: LR must not beat MDF here.
        assert!(lr.energy(&jobs) >= mdf.energy(&jobs) - 1e-9);
    }

    #[test]
    fn impossible_deadline_rejected() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            1.0,
            1.0,
        )]);
        assert!(MmkpLr::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .is_none());
    }

    #[test]
    fn multi_job_schedules_are_valid() {
        let platform = scenarios::platform();
        for (d1, d2, d3) in [(20.0, 9.0, 15.0), (30.0, 12.0, 18.0)] {
            let jobs = JobSet::new(vec![
                Job::new(JobId(1), scenarios::lambda1(), 0.0, d1, 1.0),
                Job::new(JobId(2), scenarios::lambda2(), 0.0, d2, 1.0),
                Job::new(JobId(3), scenarios::lambda2(), 0.0, d3, 0.8),
            ]);
            if let Some(s) = MmkpLr::new().schedule_at(&jobs, &platform, 0.0) {
                s.validate(&jobs, &platform, 0.0).unwrap();
            }
        }
    }

    #[test]
    fn iteration_budget_is_configurable() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let a = MmkpLr::with_iterations(1).schedule_at(&jobs, &platform, 1.0);
        let b = MmkpLr::new().schedule_at(&jobs, &platform, 1.0);
        // Both must produce valid schedules (possibly different energy).
        for s in [a, b].into_iter().flatten() {
            s.validate(&jobs, &platform, 1.0).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one subgradient iteration")]
    fn zero_iterations_rejected() {
        let _ = MmkpLr::with_iterations(0);
    }

    #[test]
    fn empty_set_is_trivially_feasible() {
        let schedule = MmkpLr::new()
            .schedule_at(&JobSet::default(), &scenarios::platform(), 0.0)
            .unwrap();
        assert!(schedule.is_empty());
    }
}
