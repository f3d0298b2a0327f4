//! Jobs (admitted requests) and job sets.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AppRef, OperatingPoint};

/// Identifier of a job within a runtime-manager instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

/// A job: an admitted request `σ = ⟨α, δ, λ, ρ⟩` with arrival time,
/// absolute deadline, application, and *remaining* progress ratio.
///
/// `ρ = 1` means the job has not started; `ρ = 0.3792` means 62.08% of the
/// work is done (the σ1 state at `t = 4.5` in the motivational example).
///
/// # Examples
///
/// ```
/// use amrm_model::{Application, Job, JobId, OperatingPoint};
/// use amrm_platform::ResourceVec;
///
/// let app = Application::shared(
///     "λ2",
///     vec![OperatingPoint::new(ResourceVec::from_slice(&[2, 1]), 3.0, 5.73)],
/// );
/// let job = Job::new(JobId(2), app, 1.0, 5.0, 1.0);
/// assert!((job.remaining_time(0) - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    id: JobId,
    app: AppRef,
    arrival: f64,
    deadline: f64,
    remaining: f64,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if `deadline < arrival` or `remaining` is outside `(0, 1]`.
    pub fn new(id: JobId, app: AppRef, arrival: f64, deadline: f64, remaining: f64) -> Self {
        assert!(deadline >= arrival, "deadline before arrival");
        assert!(
            remaining > 0.0 && remaining <= 1.0,
            "remaining ratio must be in (0, 1]"
        );
        Job {
            id,
            app,
            arrival,
            deadline,
            remaining,
        }
    }

    /// The job identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The application `λ` this job executes.
    pub fn app(&self) -> &AppRef {
        &self.app
    }

    /// Arrival time `α` (absolute).
    pub fn arrival(&self) -> f64 {
        self.arrival
    }

    /// Absolute deadline `δ`.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// Remaining progress ratio `ρ ∈ (0, 1]`.
    pub fn remaining(&self) -> f64 {
        self.remaining
    }

    /// Returns a copy of this job with its remaining ratio replaced.
    ///
    /// # Panics
    ///
    /// Panics if `remaining` is outside `(0, 1]`.
    pub fn with_remaining(&self, remaining: f64) -> Job {
        Job::new(
            self.id,
            AppRef::clone(&self.app),
            self.arrival,
            self.deadline,
            remaining,
        )
    }

    /// The operating point with configuration index `j` of this job's app.
    pub fn point(&self, j: usize) -> &OperatingPoint {
        self.app.point(j)
    }

    /// Seconds needed to finish the job under configuration `j`.
    pub fn remaining_time(&self, j: usize) -> f64 {
        self.app.point(j).remaining_time(self.remaining)
    }

    /// Joules needed to finish the job under configuration `j`.
    pub fn remaining_energy(&self, j: usize) -> f64 {
        self.app.point(j).remaining_energy(self.remaining)
    }

    /// Can the job meet its deadline when running configuration `j`
    /// exclusively, starting at time `now`?
    pub fn meets_deadline_with(&self, j: usize, now: f64) -> bool {
        now + self.remaining_time(j) <= self.deadline + amrm_platform::EPS
    }
}

/// An immutable set of jobs `Σ` handed to a scheduler at an RM activation.
///
/// Job identifiers within the set are unique; lookups are by [`JobId`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobSet {
    jobs: Vec<Job>,
}

impl JobSet {
    /// Creates a job set.
    ///
    /// # Panics
    ///
    /// Panics if two jobs share an id.
    pub fn new(jobs: Vec<Job>) -> Self {
        for (i, a) in jobs.iter().enumerate() {
            for b in &jobs[i + 1..] {
                assert!(a.id() != b.id(), "duplicate job id {}", a.id());
            }
        }
        JobSet { jobs }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if the set contains no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs in insertion order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Iterates over the jobs.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Looks up a job by id.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id() == id)
    }

    /// The largest absolute deadline, or `None` for an empty set.
    ///
    /// This bounds the analysis scope of Algorithm 1 (line 1).
    pub fn max_deadline(&self) -> Option<f64> {
        self.jobs.iter().map(Job::deadline).max_by(f64::total_cmp)
    }
}

impl FromIterator<Job> for JobSet {
    fn from_iter<I: IntoIterator<Item = Job>>(iter: I) -> Self {
        JobSet::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a JobSet {
    type Item = &'a Job;
    type IntoIter = std::slice::Iter<'a, Job>;

    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Application;
    use amrm_platform::ResourceVec;

    fn toy_app() -> AppRef {
        Application::shared(
            "toy",
            vec![
                OperatingPoint::new(ResourceVec::from_slice(&[1, 0]), 10.0, 2.0),
                OperatingPoint::new(ResourceVec::from_slice(&[2, 1]), 3.0, 5.73),
            ],
        )
    }

    #[test]
    fn remaining_time_and_energy_scale() {
        let j = Job::new(JobId(1), toy_app(), 0.0, 9.0, 0.5);
        assert!((j.remaining_time(0) - 5.0).abs() < 1e-12);
        assert!((j.remaining_energy(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_feasibility() {
        let j = Job::new(JobId(1), toy_app(), 0.0, 4.0, 1.0);
        assert!(!j.meets_deadline_with(0, 0.0)); // 10 s > 4 s
        assert!(j.meets_deadline_with(1, 0.0)); // 3 s ≤ 4 s
        assert!(!j.meets_deadline_with(1, 2.0)); // 2 + 3 > 4
    }

    #[test]
    fn with_remaining_preserves_identity() {
        let j = Job::new(JobId(7), toy_app(), 1.0, 9.0, 1.0);
        let j2 = j.with_remaining(0.25);
        assert_eq!(j2.id(), JobId(7));
        assert!((j2.remaining() - 0.25).abs() < 1e-12);
        assert!((j2.deadline() - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "remaining ratio")]
    fn zero_remaining_rejected() {
        let _ = Job::new(JobId(1), toy_app(), 0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "deadline before arrival")]
    fn deadline_before_arrival_rejected() {
        let _ = Job::new(JobId(1), toy_app(), 5.0, 1.0, 1.0);
    }

    #[test]
    fn jobset_lookup_and_max_deadline() {
        let a = toy_app();
        let set = JobSet::new(vec![
            Job::new(JobId(1), AppRef::clone(&a), 0.0, 9.0, 1.0),
            Job::new(JobId(2), AppRef::clone(&a), 1.0, 5.0, 1.0),
            Job::new(JobId(3), a, 1.0, 7.0, 1.0),
        ]);
        assert_eq!(set.len(), 3);
        assert!(set.get(JobId(2)).is_some());
        assert!(set.get(JobId(9)).is_none());
        assert!((set.max_deadline().unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_rejected() {
        let a = toy_app();
        let _ = JobSet::new(vec![
            Job::new(JobId(1), AppRef::clone(&a), 0.0, 9.0, 1.0),
            Job::new(JobId(1), a, 0.0, 5.0, 1.0),
        ]);
    }

    #[test]
    fn empty_set_has_no_deadline() {
        let set = JobSet::default();
        assert!(set.is_empty());
        assert!(set.max_deadline().is_none());
    }
}
