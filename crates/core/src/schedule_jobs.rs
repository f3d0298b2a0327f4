//! SCHEDULEJOBS — Algorithm 2 of the paper.
//!
//! Given one chosen configuration per job, this routine constructs a
//! feasible segmented schedule (or reports failure). Jobs are placed in EDF
//! order: each job first fills already-constructed segments (skipping those
//! whose resources are exhausted — that is how *suspensions* arise), a
//! segment is *split* when the job completes inside it, and any remaining
//! work is appended as new segments at the tail.
//!
//! The packer works on job *positions* in the [`JobSet`]: the caller hands
//! it the EDF order of positions and one optional configuration per
//! position. Segments live in flat buffers that persist across calls —
//! bounds, `m` core-demand entries and `n` mapping slots per segment — so
//! the demand check is a lookup, and MMKP-MDF, which packs once per trial,
//! allocates nothing once the buffers have grown. [`schedule_jobs`] is the
//! public, id-keyed form over the same packer.

use std::collections::HashMap;

use amrm_model::{Job, JobId, JobMapping, JobSet, Schedule, Segment};
use amrm_platform::{Platform, EPS};

/// Remaining-ratio threshold below which a job counts as finished while
/// packing. Far below [`amrm_model::PROGRESS_TOL`], so packed schedules
/// always validate.
const RHO_EPS: f64 = 1e-12;

/// Builds a feasible schedule for the jobs that have an assigned
/// configuration in `configs` (Algorithm 2).
///
/// Jobs of `jobs` without an entry in `configs` are ignored — Algorithm 1
/// packs its growing partial assignment this way.
///
/// Returns `None` if some job misses its deadline under this assignment
/// (line 23 of the paper's listing).
///
/// # Examples
///
/// Packing the two motivational jobs with both on their `2L1B` points
/// yields the adaptive schedule of Fig. 1(c): σ2 runs `[1, 4)`, σ1 is
/// suspended and resumes on `[4, 8.3)`.
///
/// ```
/// use std::collections::HashMap;
/// use amrm_core::schedule_jobs;
/// use amrm_model::JobId;
/// use amrm_workload::scenarios;
///
/// let jobs = scenarios::s1_jobs_at_t1();
/// let configs = HashMap::from([(JobId(1), 6), (JobId(2), 6)]); // both 2L1B
/// let schedule = schedule_jobs(&jobs, &configs, &scenarios::platform(), 1.0).unwrap();
/// assert_eq!(schedule.num_segments(), 2);
/// assert!((schedule.segments()[0].end() - 4.0).abs() < 1e-9);
/// ```
pub fn schedule_jobs(
    jobs: &JobSet,
    configs: &HashMap<JobId, usize>,
    platform: &Platform,
    now: f64,
) -> Option<Schedule> {
    let jobs = jobs.jobs();
    let assignment: Vec<Option<usize>> = jobs
        .iter()
        .map(|job| configs.get(&job.id()).copied())
        .collect();
    let mut edf = Vec::new();
    edf_order(jobs, &mut edf);
    let mut packer = Packer::default();
    packer
        .pack(jobs, &edf, &assignment, platform, now)
        .then(|| packer.schedule())
}

/// Fills `order` with the positions of `jobs` sorted by non-decreasing
/// deadline, ties broken by job id (the EDF order of Algorithm 2).
pub(crate) fn edf_order(jobs: &[Job], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..jobs.len());
    // Ids are unique, so the order is total and an unstable sort is exact.
    order.sort_unstable_by(|&a, &b| {
        jobs[a]
            .deadline()
            .total_cmp(&jobs[b].deadline())
            .then(jobs[a].id().cmp(&jobs[b].id()))
    });
}

/// Algorithm 2 over job positions, on buffers reused across calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct Packer {
    /// `[start, end)` of every segment, in time order.
    bounds: Vec<(f64, f64)>,
    /// Core demand `Σν θ` of every segment: `m` entries per segment.
    demand: Vec<u32>,
    /// Job mappings of every segment: `n` slots per segment, the first
    /// `used[s]` of them filled in the order the jobs were packed.
    mappings: Vec<JobMapping>,
    used: Vec<usize>,
    m: usize,
    n: usize,
}

impl Packer {
    /// Packs every job position of `edf` that has a configuration in
    /// `configs` (indexed by position). Returns `false` if some job misses
    /// its deadline (line 23); otherwise [`Packer::schedule`] yields the
    /// packed schedule.
    pub(crate) fn pack(
        &mut self,
        jobs: &[Job],
        edf: &[usize],
        configs: &[Option<usize>],
        platform: &Platform,
        now: f64,
    ) -> bool {
        let counts = platform.counts().as_slice();
        self.m = counts.len();
        self.n = jobs.len();
        self.bounds.clear();
        self.demand.clear();
        self.mappings.clear();
        self.used.clear();
        // te: end of the last appended segment (line 1).
        let mut te = now;

        for &pos in edf {
            let Some(point_idx) = configs[pos] else {
                continue;
            };
            let job = &jobs[pos];
            let point = job.point(point_idx);
            let theta = point.resources().as_slice();
            assert_eq!(theta.len(), self.m, "resource type count mismatch");
            let mapping = JobMapping::new(job.id(), point_idx);
            let mut rho = job.remaining();
            // tf: completion time of this job (for the deadline check, line 23).
            let mut tf = now;

            // Lines 5–18: fill existing segments in time order.
            let mut si = 0;
            while si < self.bounds.len() && rho > RHO_EPS {
                if !self.fits(si, theta, counts) {
                    si += 1;
                    continue; // suspended during this segment (line 7)
                }
                let (start, end) = self.bounds[si];
                let r = point.time() * rho; // remaining runtime (line 8)
                let dur = end - start;
                if r >= dur - EPS {
                    // Runs for the whole segment (lines 10–11).
                    self.add(si, theta, mapping);
                    rho = (rho - dur / point.time()).max(0.0);
                    if rho <= RHO_EPS {
                        rho = 0.0;
                        tf = end; // line 18
                    }
                } else {
                    // Completes mid-segment: split it (lines 13–17).
                    let at = start + r;
                    if at >= end {
                        // Once the float spacing of the clock exceeds
                        // 2·EPS (t ≥ 2^24 s), a runtime short of the
                        // segment by more than EPS can still round onto
                        // its end: the job runs the whole segment.
                        self.add(si, theta, mapping);
                        rho = 0.0;
                        tf = end;
                    } else if at > start {
                        self.split(si, at);
                        self.add(si, theta, mapping);
                        rho = 0.0;
                        tf = at;
                    } else {
                        // At large clock values a remainder barely above
                        // RHO_EPS yields a runtime below the float
                        // resolution of `start` — the job is numerically
                        // complete here.
                        rho = 0.0;
                        tf = start;
                    }
                }
                si += 1;
            }

            // Lines 19–22: leftover work goes into a fresh tail segment.
            if rho > RHO_EPS {
                let r = point.time() * rho;
                // Guard the same float-resolution edge as the split above: a
                // vanishing remainder must not create an empty segment.
                if te + r > te {
                    self.push(te, te + r, theta, mapping);
                    te += r;
                }
                tf = te;
            }
            // Keep te at the schedule tail even when the job fit entirely
            // into existing segments created by earlier (EDF-earlier) jobs.
            if let Some(&(_, end)) = self.bounds.last() {
                te = te.max(end);
            }

            // Line 23: firm deadline check.
            if tf > job.deadline() + EPS {
                return false;
            }
        }
        true
    }

    /// The schedule built by the last [`Packer::pack`], which must have
    /// returned `true`.
    pub(crate) fn schedule(&self) -> Schedule {
        self.bounds
            .iter()
            .zip(&self.used)
            .enumerate()
            .map(|(s, (&(start, end), &used))| {
                Segment::new(start, end, self.mappings[s * self.n..][..used].to_vec())
            })
            .collect()
    }

    /// Does demand `theta` fit next to segment `s`'s current demand?
    fn fits(&self, s: usize, theta: &[u32], counts: &[u32]) -> bool {
        self.demand[s * self.m..][..self.m]
            .iter()
            .zip(theta)
            .zip(counts)
            .all(|((&used, &t), &c)| t + used <= c)
    }

    /// Maps a job with demand `theta` into segment `s`.
    fn add(&mut self, s: usize, theta: &[u32], mapping: JobMapping) {
        for (used, &t) in self.demand[s * self.m..][..self.m].iter_mut().zip(theta) {
            *used += t;
        }
        self.mappings[s * self.n + self.used[s]] = mapping;
        self.used[s] += 1;
    }

    /// Splits segment `s` at `at`; both halves keep its mappings (SPLIT,
    /// line 13).
    fn split(&mut self, s: usize, at: f64) {
        let end = self.bounds[s].1;
        self.bounds[s].1 = at;
        self.bounds.insert(s + 1, (at, end));
        duplicate_block(&mut self.demand, self.m, s);
        duplicate_block(&mut self.mappings, self.n, s);
        self.used.insert(s + 1, self.used[s]);
    }

    /// Appends a segment `[start, end)` running only `mapping`.
    fn push(&mut self, start: f64, end: f64, theta: &[u32], mapping: JobMapping) {
        self.bounds.push((start, end));
        self.demand.extend_from_slice(theta);
        self.mappings.resize(self.bounds.len() * self.n, mapping);
        self.used.push(1);
    }
}

/// Inserts a copy of the `width`-wide block `index` of `v` right after it.
fn duplicate_block<T: Copy>(v: &mut Vec<T>, width: usize, index: usize) {
    let at = (index + 1) * width;
    v.extend_from_within(index * width..at);
    v[at..].rotate_right(width);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use amrm_model::{Application, Job, OperatingPoint};
    use amrm_platform::ResourceVec;
    use amrm_workload::scenarios;

    fn cfg(pairs: &[(u64, usize)]) -> HashMap<JobId, usize> {
        pairs.iter().map(|&(id, j)| (JobId(id), j)).collect()
    }

    #[test]
    fn edf_order_breaks_deadline_ties_by_id() {
        let jobs = [
            Job::new(JobId(5), scenarios::lambda1(), 0.0, 5.0, 1.0),
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 9.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 5.0, 1.0),
        ];
        let mut order = Vec::new();
        edf_order(&jobs, &mut order);
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn reproduces_fig1c_packing() {
        let jobs = scenarios::s1_jobs_at_t1();
        // Index 6 is the 2L1B row in both Table II fixtures.
        let schedule =
            schedule_jobs(&jobs, &cfg(&[(1, 6), (2, 6)]), &scenarios::platform(), 1.0).unwrap();
        schedule
            .validate(&jobs, &scenarios::platform(), 1.0)
            .unwrap();
        assert_eq!(schedule.num_segments(), 2);
        // σ2 (EDF-first) on [1, 4); σ1 suspended, then [4, 4 + 5.3·ρ1).
        let s0 = &schedule.segments()[0];
        assert!((s0.start() - 1.0).abs() < 1e-9 && (s0.end() - 4.0).abs() < 1e-9);
        assert!(s0.contains_job(JobId(2)) && !s0.contains_job(JobId(1)));
        let s1 = &schedule.segments()[1];
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((s1.end() - (4.0 + 5.3 * rho1)).abs() < 1e-9);
        assert!(s1.contains_job(JobId(1)) && !s1.contains_job(JobId(2)));
        // Energy of the remaining work: 5.73 + 8.9·ρ1 ≈ 12.951 J.
        assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
    }

    #[test]
    fn parallel_jobs_share_a_segment_when_resources_allow() {
        let jobs = scenarios::s1_jobs_at_t1();
        // σ1 on 1L1B (idx 4), σ2 on 1L1B (idx 4): 2L2B total — fits 2L2B.
        let schedule =
            schedule_jobs(&jobs, &cfg(&[(1, 4), (2, 4)]), &scenarios::platform(), 1.0).unwrap();
        schedule
            .validate(&jobs, &scenarios::platform(), 1.0)
            .unwrap();
        // σ2 finishes at 4.5; σ1 runs in parallel and continues till 7.57.
        assert!((schedule.completion_time(JobId(2)).unwrap() - 4.5).abs() < 1e-9);
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((schedule.completion_time(JobId(1)).unwrap() - (1.0 + 8.1 * rho1)).abs() < 1e-9);
        // First segment hosts both jobs (σ1 is split off when σ2 finishes).
        assert!(schedule.segments()[0].contains_job(JobId(1)));
        assert!(schedule.segments()[0].contains_job(JobId(2)));
    }

    #[test]
    fn deadline_violation_returns_none() {
        let jobs = scenarios::s2_jobs_at_t1();
        // σ2 on 1L1B takes 3.5 s from t = 1 → misses deadline 4.
        assert!(schedule_jobs(&jobs, &cfg(&[(2, 4)]), &scenarios::platform(), 1.0).is_none());
    }

    #[test]
    fn jobs_without_config_are_ignored() {
        let jobs = scenarios::s1_jobs_at_t1();
        let schedule = schedule_jobs(&jobs, &cfg(&[(2, 6)]), &scenarios::platform(), 1.0).unwrap();
        assert!(schedule.completion_time(JobId(1)).is_none());
        assert!(schedule.completion_time(JobId(2)).is_some());
    }

    #[test]
    fn empty_config_map_gives_empty_schedule() {
        let jobs = scenarios::s1_jobs_at_t1();
        let schedule = schedule_jobs(&jobs, &cfg(&[]), &scenarios::platform(), 1.0).unwrap();
        assert!(schedule.is_empty());
    }

    #[test]
    fn split_happens_when_later_job_finishes_first() {
        // EDF-first job is long; the second job finishes mid-segment and
        // forces a split of the first job's segment.
        let app = Application::shared(
            "a",
            vec![
                OperatingPoint::new(ResourceVec::from_slice(&[1, 0]), 10.0, 5.0),
                OperatingPoint::new(ResourceVec::from_slice(&[1, 0]), 4.0, 4.0),
            ],
        );
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), app.clone(), 0.0, 10.0, 1.0),
            Job::new(JobId(2), app, 0.0, 20.0, 1.0),
        ]);
        let platform = amrm_platform::Platform::motivational_2l2b();
        let schedule = schedule_jobs(&jobs, &cfg(&[(1, 0), (2, 1)]), &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
        // Job 2 (deadline 20) is packed second, finishes at 4 → split at 4.
        assert_eq!(schedule.num_segments(), 2);
        assert!((schedule.segments()[0].end() - 4.0).abs() < 1e-9);
        assert!(schedule.segments()[0].contains_job(JobId(2)));
        assert!(schedule.segments()[1].contains_job(JobId(1)));
        assert!(!schedule.segments()[1].contains_job(JobId(2)));
    }

    #[test]
    fn zero_length_tail_is_not_created() {
        // A job that exactly fills existing segments must not append an
        // empty segment.
        let app = Application::shared(
            "a",
            vec![OperatingPoint::new(
                ResourceVec::from_slice(&[1, 0]),
                4.0,
                4.0,
            )],
        );
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), app.clone(), 0.0, 10.0, 1.0),
            Job::new(JobId(2), app, 0.0, 20.0, 1.0),
        ]);
        let platform = amrm_platform::Platform::motivational_2l2b();
        let schedule = schedule_jobs(&jobs, &cfg(&[(1, 0), (2, 0)]), &platform, 0.0).unwrap();
        assert_eq!(schedule.num_segments(), 1);
        assert!((schedule.segments()[0].duration() - 4.0).abs() < 1e-9);
    }

    /// Two single-core jobs at clock `now`: job 1 runs one ULP of `now`
    /// alone, and job 2, beside it on the other little core, needs 0.8 ULP
    /// — short of the segment by more than EPS once ULP(now) > 2·EPS, yet
    /// `now + 0.8 ULP` rounds onto the segment end.
    pub(crate) fn sub_ulp_jobs(now: f64) -> JobSet {
        let ulp = f64::from_bits(now.to_bits() + 1) - now;
        let app = Application::shared(
            "a",
            vec![OperatingPoint::new(
                ResourceVec::from_slice(&[1, 0]),
                1.0,
                1.0,
            )],
        );
        JobSet::new(vec![
            Job::new(JobId(1), app.clone(), now, now + 1.0, ulp),
            Job::new(JobId(2), app, now, now + 2.0, 0.8 * ulp),
        ])
    }

    #[test]
    fn split_point_rounding_onto_the_segment_end_runs_the_whole_segment() {
        let platform = amrm_platform::Platform::motivational_2l2b();
        for now in [1e8, 1e9] {
            let jobs = sub_ulp_jobs(now);
            let schedule = schedule_jobs(&jobs, &cfg(&[(1, 0), (2, 0)]), &platform, now)
                .expect("both jobs meet their deadlines");
            schedule.validate(&jobs, &platform, now).unwrap();
            assert_eq!(schedule.num_segments(), 1);
            assert!(schedule.segments()[0].contains_job(JobId(2)));
        }
    }

    #[test]
    fn earlier_deadline_job_goes_first_even_if_listed_later() {
        let jobs = scenarios::s1_jobs_at_t1(); // σ2 deadline 5 < σ1 deadline 9
        let schedule =
            schedule_jobs(&jobs, &cfg(&[(1, 6), (2, 6)]), &scenarios::platform(), 1.0).unwrap();
        // σ2 occupies the first segment despite σ1 being listed first.
        assert!(schedule.segments()[0].contains_job(JobId(2)));
    }
}
