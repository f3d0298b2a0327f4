//! Mapping segments and adaptive schedules.
//!
//! A schedule `κ = {µi × ∆µi}` is a list of mappings on consecutive time
//! segments (Equation (1) of the paper). Each mapping contains at most one
//! job mapping `ν = ⟨σ, λ, j⟩` per job; jobs absent from a segment are
//! *suspended* during it, and a job whose configuration index differs across
//! segments has been *reconfigured* — that is the adaptivity this paper adds
//! over fixed mappers.

use amrm_platform::{Platform, ResourceVec, EPS};
use serde::{Deserialize, Serialize};

use crate::{JobId, JobSet, ScheduleError};

/// Tolerance on accumulated progress ratios when checking constraint (2d).
pub const PROGRESS_TOL: f64 = 1e-6;

/// A job mapping `ν = ⟨σ, j⟩`: job `σ` runs configuration `j` of its
/// application (the application itself is reachable through the job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobMapping {
    /// The mapped job.
    pub job: JobId,
    /// Configuration (operating-point) index into the job's application.
    pub point: usize,
}

impl JobMapping {
    /// Creates a job mapping.
    pub fn new(job: JobId, point: usize) -> Self {
        JobMapping { job, point }
    }
}

/// A mapping segment `µ × ∆µ`: a set of job mappings active on the
/// half-open time interval `[start, end)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    start: f64,
    end: f64,
    mappings: Vec<JobMapping>,
}

impl Segment {
    /// Creates a segment on `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or reversed.
    pub fn new(start: f64, end: f64, mappings: Vec<JobMapping>) -> Self {
        assert!(
            end > start,
            "segment interval must have positive length ({start}..{end})"
        );
        Segment {
            start,
            end,
            mappings,
        }
    }

    /// Segment start time.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Segment end time.
    pub fn end(&self) -> f64 {
        self.end
    }

    /// Segment duration `|∆µ|`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The job mappings active in this segment.
    pub fn mappings(&self) -> &[JobMapping] {
        &self.mappings
    }

    /// The mapping of `job` in this segment, if present.
    pub fn mapping_for(&self, job: JobId) -> Option<&JobMapping> {
        self.mappings.iter().find(|m| m.job == job)
    }

    /// Returns `true` if `job` runs during this segment.
    pub fn contains_job(&self, job: JobId) -> bool {
        self.mapping_for(job).is_some()
    }

    /// Aggregate core demand `Σν θ` of the segment on a platform with
    /// `num_types` resource types.
    pub fn demand(&self, jobs: &JobSet, num_types: usize) -> ResourceVec {
        let mut total = ResourceVec::zeros(num_types);
        for m in &self.mappings {
            if let Some(job) = jobs.get(m.job) {
                total += job.point(m.point).resources();
            }
        }
        total
    }
}

/// An adaptive schedule: job mappings over consecutive time segments.
///
/// # Examples
///
/// Constructing the adaptive schedule of Fig. 1(c) by hand and checking its
/// energy (14.63 J including the 1.679 J spent before `t = 1`):
///
/// ```
/// use amrm_model::{Application, Job, JobId, JobMapping, JobSet, OperatingPoint, Schedule, Segment};
/// use amrm_platform::ResourceVec;
///
/// let l1 = Application::shared(
///     "λ1",
///     vec![OperatingPoint::new(ResourceVec::from_slice(&[2, 1]), 5.3, 8.9)],
/// );
/// let l2 = Application::shared(
///     "λ2",
///     vec![OperatingPoint::new(ResourceVec::from_slice(&[2, 1]), 3.0, 5.73)],
/// );
/// let jobs = JobSet::new(vec![
///     Job::new(JobId(1), l1, 0.0, 9.0, 1.0 - 1.0 / 5.3),
///     Job::new(JobId(2), l2, 1.0, 5.0, 1.0),
/// ]);
/// let mut schedule = Schedule::new();
/// schedule.push(Segment::new(1.0, 4.0, vec![JobMapping::new(JobId(2), 0)]));
/// schedule.push(Segment::new(4.0, 4.0 + 5.3 * (1.0 - 1.0 / 5.3), vec![JobMapping::new(JobId(1), 0)]));
/// let energy = schedule.energy(&jobs);
/// assert!((energy - (5.73 + 8.9 * (1.0 - 1.0 / 5.3))).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    segments: Vec<Segment>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Creates a schedule from segments.
    ///
    /// # Panics
    ///
    /// Panics if segments are unordered or overlap beyond [`EPS`].
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        for w in segments.windows(2) {
            assert!(
                w[1].start() >= w[0].end() - EPS,
                "segments out of order or overlapping"
            );
        }
        Schedule { segments }
    }

    /// The segments in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments `N`.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Returns `true` if the schedule has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// End time of the last segment, or `None` if empty.
    pub fn end_time(&self) -> Option<f64> {
        self.segments.last().map(Segment::end)
    }

    /// Start time of the first segment, or `None` if empty.
    pub fn start_time(&self) -> Option<f64> {
        self.segments.first().map(Segment::start)
    }

    /// Appends a segment at the end.
    ///
    /// # Panics
    ///
    /// Panics if the segment would overlap the current last segment.
    pub fn push(&mut self, segment: Segment) {
        if let Some(last) = self.segments.last() {
            assert!(
                segment.start() >= last.end() - EPS,
                "pushed segment overlaps schedule tail"
            );
        }
        self.segments.push(segment);
    }

    /// Total energy of the schedule per objective (2a):
    /// `Σµ Σν ξ · |∆µ| / τ`.
    pub fn energy(&self, jobs: &JobSet) -> f64 {
        self.segments
            .iter()
            .map(|seg| {
                seg.mappings()
                    .iter()
                    .filter_map(|m| {
                        jobs.get(m.job).map(|job| {
                            let p = job.point(m.point);
                            p.energy() * seg.duration() / p.time()
                        })
                    })
                    .sum::<f64>()
            })
            .sum()
    }

    /// Progress ratio accumulated by `job` over the whole schedule
    /// (the left side of constraint (2d)).
    pub fn progress_of(&self, job: JobId, jobs: &JobSet) -> f64 {
        let Some(j) = jobs.get(job) else { return 0.0 };
        self.segments
            .iter()
            .filter_map(|seg| {
                seg.mapping_for(job)
                    .map(|m| seg.duration() / j.point(m.point).time())
            })
            .sum()
    }

    /// The time `job` finishes: the end of the last segment mapping it.
    pub fn completion_time(&self, job: JobId) -> Option<f64> {
        self.segments
            .iter()
            .rev()
            .find(|seg| seg.contains_job(job))
            .map(Segment::end)
    }

    /// Checks schedule well-formedness and the paper's constraints
    /// (2b)–(2e) for the job set `jobs` on `platform`, with the schedule
    /// starting no earlier than `now`.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ScheduleError`].
    pub fn validate(
        &self,
        jobs: &JobSet,
        platform: &Platform,
        now: f64,
    ) -> Result<(), ScheduleError> {
        let m = platform.num_types();
        // Structural checks.
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.start() < now - EPS {
                return Err(ScheduleError::StartsBeforeNow {
                    index: i,
                    start: seg.start(),
                    now,
                });
            }
            if i > 0 && seg.start() < self.segments[i - 1].end() - EPS {
                return Err(ScheduleError::Overlap { index: i });
            }
        }
        // Per-segment checks: job validity, (2c), (2b), arrivals.
        for (i, seg) in self.segments.iter().enumerate() {
            for (k, mp) in seg.mappings().iter().enumerate() {
                let Some(job) = jobs.get(mp.job) else {
                    return Err(ScheduleError::UnknownJob { job: mp.job });
                };
                if mp.point >= job.app().num_points() {
                    return Err(ScheduleError::BadPoint {
                        job: mp.job,
                        point: mp.point,
                    });
                }
                if seg.mappings()[..k].iter().any(|o| o.job == mp.job) {
                    return Err(ScheduleError::DuplicateMapping {
                        job: mp.job,
                        segment: i,
                    });
                }
                if seg.start() < job.arrival() - EPS {
                    return Err(ScheduleError::MappedBeforeArrival {
                        job: mp.job,
                        start: seg.start(),
                        arrival: job.arrival(),
                    });
                }
            }
            let demand = seg.demand(jobs, m);
            if !demand.fits_within(platform.counts()) {
                return Err(ScheduleError::ResourceOverflow {
                    segment: i,
                    demand,
                    available: platform.counts().clone(),
                });
            }
        }
        // Per-job checks: (2d) completeness and (2e) deadlines.
        for job in jobs.iter() {
            let progress = self.progress_of(job.id(), jobs);
            if (progress - job.remaining()).abs() > PROGRESS_TOL {
                return Err(ScheduleError::ProgressMismatch {
                    job: job.id(),
                    scheduled: progress,
                    required: job.remaining(),
                });
            }
            // An unmapped job passed the progress check only with remaining
            // work within PROGRESS_TOL: it is already complete.
            let Some(completion) = self.completion_time(job.id()) else {
                continue;
            };
            if completion > job.deadline() + EPS {
                return Err(ScheduleError::DeadlineMiss {
                    job: job.id(),
                    completion,
                    deadline: job.deadline(),
                });
            }
        }
        Ok(())
    }
}

impl FromIterator<Segment> for Schedule {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        Schedule::from_segments(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Application, Job, OperatingPoint};
    use amrm_platform::Platform;
    use std::sync::Arc;

    fn lambda1() -> crate::AppRef {
        Application::shared(
            "λ1",
            vec![
                OperatingPoint::new(ResourceVec::from_slice(&[2, 1]), 5.3, 8.9),
                OperatingPoint::new(ResourceVec::from_slice(&[1, 1]), 8.1, 10.9),
            ],
        )
    }

    fn lambda2() -> crate::AppRef {
        Application::shared(
            "λ2",
            vec![OperatingPoint::new(
                ResourceVec::from_slice(&[2, 1]),
                3.0,
                5.73,
            )],
        )
    }

    /// The Fig. 1(c) schedule at t = 1: σ2 on 2L1B for [1,4), σ1 suspended
    /// then resumed on 2L1B for [4, 8.3).
    fn fig1c() -> (Schedule, JobSet) {
        let rho1 = 1.0 - 1.0 / 5.3;
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), lambda1(), 0.0, 9.0, rho1),
            Job::new(JobId(2), lambda2(), 1.0, 5.0, 1.0),
        ]);
        let mut s = Schedule::new();
        s.push(Segment::new(1.0, 4.0, vec![JobMapping::new(JobId(2), 0)]));
        s.push(Segment::new(
            4.0,
            4.0 + 5.3 * rho1,
            vec![JobMapping::new(JobId(1), 0)],
        ));
        (s, jobs)
    }

    #[test]
    fn fig1c_is_valid_and_has_expected_energy() {
        let (s, jobs) = fig1c();
        let platform = Platform::motivational_2l2b();
        s.validate(&jobs, &platform, 1.0).unwrap();
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((s.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-9);
        assert!((s.completion_time(JobId(2)).unwrap() - 4.0).abs() < 1e-12);
        assert!((s.completion_time(JobId(1)).unwrap() - (4.0 + 5.3 * rho1)).abs() < 1e-12);
    }

    #[test]
    fn resource_overflow_detected() {
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), lambda1(), 0.0, 20.0, 1.0),
            Job::new(JobId(2), lambda2(), 0.0, 20.0, 1.0),
        ]);
        // Both on 2L1B concurrently: 4L2B > 2L2B.
        let mut s = Schedule::new();
        s.push(Segment::new(
            0.0,
            3.0,
            vec![JobMapping::new(JobId(1), 0), JobMapping::new(JobId(2), 0)],
        ));
        let platform = Platform::motivational_2l2b();
        match s.validate(&jobs, &platform, 0.0) {
            Err(ScheduleError::ResourceOverflow { segment: 0, .. }) => {}
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn progress_mismatch_detected() {
        let jobs = JobSet::new(vec![Job::new(JobId(1), lambda1(), 0.0, 20.0, 1.0)]);
        let mut s = Schedule::new();
        // Only half the required work is scheduled.
        s.push(Segment::new(
            0.0,
            5.3 / 2.0,
            vec![JobMapping::new(JobId(1), 0)],
        ));
        let platform = Platform::motivational_2l2b();
        match s.validate(&jobs, &platform, 0.0) {
            Err(ScheduleError::ProgressMismatch { job, .. }) => assert_eq!(job, JobId(1)),
            other => panic!("expected progress mismatch, got {other:?}"),
        }
    }

    #[test]
    fn deadline_miss_detected() {
        let jobs = JobSet::new(vec![Job::new(JobId(1), lambda1(), 0.0, 5.0, 1.0)]);
        let mut s = Schedule::new();
        s.push(Segment::new(0.0, 5.3, vec![JobMapping::new(JobId(1), 0)]));
        let platform = Platform::motivational_2l2b();
        match s.validate(&jobs, &platform, 0.0) {
            Err(ScheduleError::DeadlineMiss { job, .. }) => assert_eq!(job, JobId(1)),
            other => panic!("expected deadline miss, got {other:?}"),
        }
    }

    #[test]
    fn unmapped_job_within_progress_tolerance_is_complete() {
        let jobs = JobSet::new(vec![Job::new(JobId(1), lambda1(), 0.0, 20.0, 1e-9)]);
        let platform = Platform::motivational_2l2b();
        Schedule::new().validate(&jobs, &platform, 0.0).unwrap();
    }

    #[test]
    fn duplicate_mapping_detected_by_validate() {
        let jobs = JobSet::new(vec![Job::new(JobId(1), lambda1(), 0.0, 20.0, 1.0)]);
        let seg = Segment::new(
            0.0,
            5.3,
            vec![JobMapping::new(JobId(1), 0), JobMapping::new(JobId(1), 1)],
        );
        let s = Schedule::from_segments(vec![seg]);
        let platform = Platform::motivational_2l2b();
        assert!(matches!(
            s.validate(&jobs, &platform, 0.0),
            Err(ScheduleError::DuplicateMapping { .. })
        ));
    }

    #[test]
    fn unknown_job_and_bad_point_detected() {
        let jobs = JobSet::new(vec![Job::new(JobId(1), lambda1(), 0.0, 20.0, 1.0)]);
        let platform = Platform::motivational_2l2b();

        let s = Schedule::from_segments(vec![Segment::new(
            0.0,
            1.0,
            vec![JobMapping::new(JobId(9), 0)],
        )]);
        assert!(matches!(
            s.validate(&jobs, &platform, 0.0),
            Err(ScheduleError::UnknownJob { .. })
        ));

        let s = Schedule::from_segments(vec![Segment::new(
            0.0,
            1.0,
            vec![JobMapping::new(JobId(1), 5)],
        )]);
        assert!(matches!(
            s.validate(&jobs, &platform, 0.0),
            Err(ScheduleError::BadPoint { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_segment_rejected() {
        let _ = Segment::new(1.0, 1.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "overlaps schedule tail")]
    fn overlapping_push_rejected() {
        let mut s = Schedule::new();
        s.push(Segment::new(0.0, 2.0, vec![]));
        s.push(Segment::new(1.0, 3.0, vec![]));
    }

    #[test]
    fn schedule_with_gap_is_still_valid() {
        // A gap means every job is suspended — structurally fine.
        let jobs = JobSet::new(vec![Job::new(JobId(1), lambda1(), 0.0, 30.0, 1.0)]);
        let mut s = Schedule::new();
        s.push(Segment::new(0.0, 2.65, vec![JobMapping::new(JobId(1), 0)]));
        s.push(Segment::new(
            10.0,
            12.65,
            vec![JobMapping::new(JobId(1), 0)],
        ));
        let platform = Platform::motivational_2l2b();
        s.validate(&jobs, &platform, 0.0).unwrap();
    }

    #[test]
    fn energy_of_empty_schedule_is_zero() {
        let s = Schedule::new();
        let jobs = JobSet::default();
        assert_eq!(s.energy(&jobs), 0.0);
        assert!(s.end_time().is_none());
    }

    #[test]
    fn progress_of_unknown_job_is_zero() {
        let (s, jobs) = fig1c();
        assert_eq!(s.progress_of(JobId(42), &jobs), 0.0);
    }

    #[test]
    fn reconfiguration_across_segments_counts_progress_correctly() {
        // Job runs first on point 0, then reconfigures to point 1.
        let app = lambda1();
        let half0 = 5.3 / 2.0; // half the work on point 0
        let half1 = 8.1 / 2.0; // other half on point 1
        let jobs = JobSet::new(vec![Job::new(JobId(1), Arc::clone(&app), 0.0, 20.0, 1.0)]);
        let mut s = Schedule::new();
        s.push(Segment::new(0.0, half0, vec![JobMapping::new(JobId(1), 0)]));
        s.push(Segment::new(
            half0,
            half0 + half1,
            vec![JobMapping::new(JobId(1), 1)],
        ));
        let platform = Platform::motivational_2l2b();
        s.validate(&jobs, &platform, 0.0).unwrap();
        let expected = 8.9 / 2.0 + 10.9 / 2.0;
        assert!((s.energy(&jobs) - expected).abs() < 1e-9);
    }
}
