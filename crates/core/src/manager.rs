//! The runtime manager: admission control and scheduler re-activation on
//! top of the indexed [`ExecutionEngine`].

use amrm_model::{AppRef, JobId, JobSet, Schedule};
use amrm_platform::{Platform, EPS};

use amrm_metrics::journal::{EventKind, JournalEvent};

use crate::engine::{EngineJob, ExecutionEngine};
use crate::{Scheduler, SchedulingContext, SearchBudget, TelemetrySnapshot, TraceSink};

/// When the runtime manager re-invokes its scheduler.
///
/// The paper's RM is activated "every time a request arrives"; re-activating
/// at job completions as well lets fixed mappers pick fresh mappings when
/// resources free up (the Fig. 1(b) behaviour) and is a cheap improvement
/// for any scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactivationPolicy {
    /// Re-schedule only when a new request arrives (Fig. 1(a) for fixed
    /// mappers; sufficient for adaptive schedules, which already plan the
    /// whole horizon).
    #[default]
    OnArrival,
    /// Additionally re-schedule whenever a job completes (Fig. 1(b)).
    OnArrivalAndCompletion,
}

/// Outcome of submitting a request to the runtime manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request was admitted; the job will meet its deadline.
    Accepted {
        /// Id assigned to the admitted job.
        job: JobId,
    },
    /// No feasible schedule exists; the request is rejected and the
    /// previously admitted jobs continue undisturbed.
    Rejected {
        /// Id that was tentatively assigned to the rejected request.
        job: JobId,
    },
}

/// Why a batch decision turned out the way it did, per request — the
/// journal's reject-reason taxonomy, kept in lockstep with the
/// [`Admission`] slots of the most recent
/// [`submit_batch`](RuntimeManager::submit_batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Admitted (under the joint schedule or a greedy retry).
    Accepted,
    /// Deadline at/behind `now` when the batch was decided; the scheduler
    /// never saw the request.
    ExpiredBeforeFlush,
    /// No feasible joint schedule existed even for this request alone.
    InfeasibleJointSchedule,
    /// The joint batch was infeasible and the greedy retry could not fit
    /// this request next to the prefix accepted before it.
    RollbackVictim,
}

impl Admission {
    /// Returns `true` for [`Admission::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Admission::Accepted { .. })
    }

    /// The job id assigned to the request (whether admitted or not).
    pub fn job(&self) -> JobId {
        match *self {
            Admission::Accepted { job } | Admission::Rejected { job } => job,
        }
    }
}

/// Counters kept by the runtime manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmStats {
    /// Requests submitted.
    pub submitted: usize,
    /// Requests admitted.
    pub accepted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Completed jobs that finished after their deadline (always 0 unless a
    /// scheduler produced an invalid schedule).
    pub deadline_misses: usize,
    /// Scheduler invocations (admission attempts and re-activations) — the
    /// cost batched admission trades against acceptance.
    pub activations: usize,
}

/// An online runtime manager for firm real-time multi-threaded applications.
///
/// Drive it with [`advance_to`](RuntimeManager::advance_to) and
/// [`submit`](RuntimeManager::submit); execution accounting — job progress
/// along the current adaptive schedule, energy metering, the executed
/// trace — is delegated to an [`ExecutionEngine`], while the manager
/// decides admission and re-invokes the scheduling algorithm per its
/// [`ReactivationPolicy`].
///
/// # Examples
///
/// Reproducing Fig. 1(c) end to end:
///
/// ```
/// use amrm_core::{MmkpMdf, RuntimeManager};
/// use amrm_workload::scenarios;
///
/// let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
/// assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
/// rm.advance_to(1.0);
/// assert!(rm.submit(scenarios::lambda2(), 5.0).is_accepted());
/// rm.run_to_completion();
/// assert!((rm.total_energy() - 14.63).abs() < 5e-3);
/// ```
#[derive(Debug)]
pub struct RuntimeManager<S> {
    platform: Platform,
    scheduler: S,
    policy: ReactivationPolicy,
    next_id: u64,
    engine: ExecutionEngine,
    stats: RmStats,
    /// The most recent telemetry snapshot observed via
    /// [`observe_telemetry`](RuntimeManager::observe_telemetry); handed to
    /// the scheduler inside every [`SchedulingContext`]. Stays at the idle
    /// default when no telemetry source feeds this manager.
    telemetry: TelemetrySnapshot,
    /// Per-activation search budget forwarded through the context.
    budget: SearchBudget,
    /// Decision-journal handle cloned into every [`SchedulingContext`];
    /// disabled by default (one branch per emission site).
    trace: TraceSink,
    /// Per-request reasons for the most recent batch decision, parallel
    /// to its admissions (in input order). Refilled on every
    /// [`submit_batch`](RuntimeManager::submit_batch).
    last_reasons: Vec<DecisionReason>,
    /// Reusable batch-decision buffers: viable candidates and the
    /// positions of their admission slots. Emptied between batches; kept
    /// to avoid two heap allocations per admission flush.
    viable_scratch: Vec<EngineJob>,
    viable_slots_scratch: Vec<usize>,
}

impl<S: Scheduler> RuntimeManager<S> {
    /// Creates a runtime manager with the default
    /// [`ReactivationPolicy::OnArrival`].
    pub fn new(platform: Platform, scheduler: S) -> Self {
        RuntimeManager::with_policy(platform, scheduler, ReactivationPolicy::default())
    }

    /// Creates a runtime manager with an explicit re-activation policy.
    pub fn with_policy(platform: Platform, scheduler: S, policy: ReactivationPolicy) -> Self {
        RuntimeManager {
            platform,
            scheduler,
            policy,
            next_id: 1,
            engine: ExecutionEngine::new(),
            stats: RmStats::default(),
            telemetry: TelemetrySnapshot::default(),
            budget: SearchBudget::unbounded(),
            trace: TraceSink::disabled(),
            last_reasons: Vec::new(),
            viable_scratch: Vec::new(),
            viable_slots_scratch: Vec::new(),
        }
    }

    /// Builder-style override of the per-activation [`SearchBudget`]
    /// (unbounded by default).
    #[must_use]
    pub fn with_search_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the per-activation [`SearchBudget`] forwarded to the scheduler
    /// through the [`SchedulingContext`].
    pub fn set_search_budget(&mut self, budget: SearchBudget) {
        self.budget = budget;
    }

    /// The configured per-activation search budget.
    pub fn search_budget(&self) -> SearchBudget {
        self.budget
    }

    /// Updates the telemetry snapshot handed to the scheduler at the next
    /// activations. The `amrm-sim` event kernel calls this right before
    /// every batch flush; outside a kernel the manager keeps the idle
    /// default snapshot (so standalone `submit` calls behave like the
    /// pre-context API).
    pub fn observe_telemetry(&mut self, snapshot: &TelemetrySnapshot) {
        self.telemetry.clone_from(snapshot);
    }

    /// Enables or disables executed-trace recording in the engine
    /// (enabled by default). Profile runs over millions of requests turn
    /// it off: admissions, energy, and completion times are bit-identical
    /// either way, only [`executed_trace`](RuntimeManager::executed_trace)
    /// comes back empty.
    pub fn set_record_trace(&mut self, record: bool) {
        self.engine.set_record_trace(record);
    }

    /// Installs the decision-journal sink cloned into every scheduling
    /// context (and used by the manager's own `ScheduleDecision` events).
    /// The default disabled sink costs one branch per emission site.
    pub fn set_trace_sink(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// The trace sink handed to schedulers (disabled unless
    /// [`set_trace_sink`](RuntimeManager::set_trace_sink) installed one).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Per-request [`DecisionReason`]s of the most recent batch decision,
    /// parallel (in input order) to the admissions it returned. Empty
    /// before the first batch.
    pub fn last_decision_reasons(&self) -> &[DecisionReason] {
        &self.last_reasons
    }

    /// The scheduling context for an activation at time `now`.
    fn context(&self, now: f64) -> SchedulingContext {
        SchedulingContext {
            now,
            telemetry: self.telemetry.clone(),
            budget: self.budget,
            trace: self.trace.clone(),
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> f64 {
        self.engine.clock()
    }

    /// Total energy consumed by all (partially) executed jobs so far.
    pub fn total_energy(&self) -> f64 {
        self.engine.total_energy()
    }

    /// Admission and completion counters.
    pub fn stats(&self) -> RmStats {
        self.stats
    }

    /// The platform this manager runs on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The scheduling algorithm's name.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// The execution engine driving this manager.
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// Read access to the scheduling algorithm (e.g. to inspect a
    /// context-aware scheduler's regime after a run).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Consumes the manager and returns its scheduler — the way a run
    /// hands back stateful algorithm internals (switch counters, memo
    /// statistics) for inspection.
    pub fn into_scheduler(self) -> S {
        self.scheduler
    }

    /// Cores busy at the current instant, per platform core type (all
    /// zeros while the platform idles).
    pub fn busy_cores(&self) -> amrm_platform::ResourceVec {
        self.engine.busy_cores(self.platform.num_types())
    }

    /// Snapshot of the unfinished jobs, with progress advanced to
    /// [`now`](RuntimeManager::now).
    pub fn active_jobs(&self) -> JobSet {
        self.engine.job_set()
    }

    /// The schedule currently being executed (covering `now` onwards; the
    /// already-consumed prefix is retained for inspection).
    pub fn current_schedule(&self) -> &Schedule {
        self.engine.schedule()
    }

    /// Everything executed so far, as one contiguous trace of mapping
    /// segments — exactly what Fig. 1 of the paper draws.
    ///
    /// Unlike [`current_schedule`](RuntimeManager::current_schedule), which
    /// is replaced on every scheduler re-activation, the trace accumulates
    /// the actually consumed portions of all successive schedules.
    pub fn executed_trace(&self) -> Schedule {
        self.engine.executed_trace()
    }

    /// Submits a request for `app` with absolute deadline `deadline` at the
    /// current time, and re-runs the scheduler over all unfinished jobs.
    ///
    /// On rejection the previous schedule continues untouched (the paper's
    /// semantics: "otherwise the request is rejected"). A zero-slack
    /// request (`deadline == now`) is rejected outright without consulting
    /// the scheduler — no schedule can finish remaining work in zero time.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is in the past.
    pub fn submit(&mut self, app: AppRef, deadline: f64) -> Admission {
        assert!(deadline >= self.engine.clock(), "deadline in the past");
        self.submit_batch(&[(app, deadline)])[0]
    }

    /// Submits a whole batch of `(application, deadline)` requests at the
    /// current time and decides them *atomically*: one scheduler
    /// activation covers the unfinished jobs plus every candidate, and if
    /// that joint schedule is feasible the entire batch is admitted under
    /// it.
    ///
    /// If the joint schedule is infeasible the batch is rolled back — the
    /// engine keeps its previous jobs and schedule untouched — and the
    /// candidates are re-tried greedily in submission order, each against
    /// the jobs admitted so far, exactly like a sequence of per-request
    /// [`submit`](RuntimeManager::submit) calls at one instant. A batch of
    /// one viable candidate therefore behaves identically to `submit`:
    /// one activation, no retry.
    ///
    /// Unlike `submit`, a candidate whose deadline is not strictly in the
    /// future is rejected (without a scheduler activation) instead of
    /// panicking: under windowed admission a queued request may
    /// legitimately expire before its batch is flushed.
    ///
    /// Returns one [`Admission`] per request, in input order; job ids are
    /// assigned in input order whether admitted or not.
    pub fn submit_batch(&mut self, requests: &[(AppRef, f64)]) -> Vec<Admission> {
        let mut admissions = Vec::with_capacity(requests.len());
        self.submit_batch_into(requests, &mut admissions);
        admissions
    }

    /// [`submit_batch`](RuntimeManager::submit_batch) into a caller-owned
    /// buffer: `admissions` is cleared and refilled, one entry per request
    /// in input order. The event kernel reuses one buffer across every
    /// flush, so steady-state admission allocates nothing here.
    pub fn submit_batch_into(
        &mut self,
        requests: &[(AppRef, f64)],
        admissions: &mut Vec<Admission>,
    ) {
        // The candidate buffers live on the manager so repeated batches
        // reuse their capacity; they are taken out for the duration of
        // the decision to keep the borrow checker out of the hot loop.
        let mut viable = std::mem::take(&mut self.viable_scratch);
        let mut viable_slots = std::mem::take(&mut self.viable_slots_scratch);
        viable.clear();
        viable_slots.clear();
        self.decide_batch(requests, admissions, &mut viable, &mut viable_slots);
        self.viable_scratch = viable;
        self.viable_slots_scratch = viable_slots;
    }

    fn decide_batch(
        &mut self,
        requests: &[(AppRef, f64)],
        admissions: &mut Vec<Admission>,
        viable: &mut Vec<EngineJob>,
        viable_slots: &mut Vec<usize>,
    ) {
        let now = self.engine.clock();
        admissions.clear();
        self.last_reasons.clear();
        // Candidates still decidable by the scheduler, with the positions
        // of their (initially Rejected) admission slots.
        for (app, deadline) in requests {
            let id = JobId(self.next_id);
            self.next_id += 1;
            self.stats.submitted += 1;
            if *deadline <= now {
                // Expired (or zero-slack) while queued: reject without an
                // activation — no scheduler sees a deadline at/behind
                // `now`.
                self.stats.rejected += 1;
                self.last_reasons.push(DecisionReason::ExpiredBeforeFlush);
            } else {
                viable_slots.push(admissions.len());
                viable.push(EngineJob::fresh(id, AppRef::clone(app), now, *deadline));
                // Placeholder; every path below overwrites the slot.
                self.last_reasons.push(DecisionReason::RollbackVictim);
            }
            admissions.push(Admission::Rejected { job: id });
        }
        if viable.is_empty() {
            return;
        }

        // Fast path: one activation schedules existing jobs + whole batch.
        if let Some(schedule) = self.activate_with(viable, now) {
            for &slot in viable_slots.iter() {
                admissions[slot] = Admission::Accepted {
                    job: admissions[slot].job(),
                };
                self.last_reasons[slot] = DecisionReason::Accepted;
            }
            self.stats.accepted += viable.len();
            self.engine.admit_batch(viable.drain(..), schedule);
            return;
        }
        if viable.len() == 1 {
            self.stats.rejected += 1;
            self.last_reasons[viable_slots[0]] = DecisionReason::InfeasibleJointSchedule;
            return;
        }

        // Partially-infeasible batch: nothing was installed, so re-try the
        // candidates greedily in submission order against the accepted
        // prefix; only the final accepted set and its schedule land in the
        // engine.
        let mut accepted: Vec<EngineJob> = Vec::new();
        let mut accepted_schedule: Option<Schedule> = None;
        for (slot, candidate) in viable_slots.drain(..).zip(viable.drain(..)) {
            accepted.push(candidate);
            match self.activate_with(&accepted, now) {
                Some(schedule) => {
                    admissions[slot] = Admission::Accepted {
                        job: admissions[slot].job(),
                    };
                    self.last_reasons[slot] = DecisionReason::Accepted;
                    self.stats.accepted += 1;
                    accepted_schedule = Some(schedule);
                }
                None => {
                    self.stats.rejected += 1;
                    self.last_reasons[slot] = DecisionReason::RollbackVictim;
                    accepted.pop();
                }
            }
        }
        if let Some(schedule) = accepted_schedule {
            self.engine.admit_batch(accepted, schedule);
        }
    }

    /// Runs one scheduler activation over the engine's unfinished jobs
    /// plus `candidates`, counting it in the stats.
    fn activate_with(&mut self, candidates: &[EngineJob], now: f64) -> Option<Schedule> {
        let jobs: JobSet = self
            .engine
            .jobs()
            .iter()
            .chain(candidates.iter())
            .map(EngineJob::as_job)
            .collect();
        self.stats.activations += 1;
        amrm_metrics::instrument::record_schedule_call();
        let ctx = self.context(now);
        let schedule = self.scheduler.schedule(&jobs, &self.platform, &ctx)?;
        debug_assert!(
            schedule.validate(&jobs, &self.platform, now).is_ok(),
            "scheduler {} produced an invalid schedule: {:?}",
            self.scheduler.name(),
            schedule.validate(&jobs, &self.platform, now)
        );
        if self.trace.is_enabled() {
            // The chosen candidate's (2a) energy is only computed when a
            // journal is attached — the disabled path stays one branch.
            self.trace.emit(
                JournalEvent::at(now, EventKind::ScheduleDecision)
                    .detail(jobs.len() as u32)
                    .value(schedule.energy(&jobs)),
            );
        }
        Some(schedule)
    }

    /// Advances time to `t`, executing the current schedule: job progress
    /// and energy are accounted, completed jobs are retired, and — under
    /// [`ReactivationPolicy::OnArrivalAndCompletion`] — the scheduler is
    /// re-invoked at every completion.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current time.
    pub fn advance_to(&mut self, t: f64) {
        assert!(
            t >= self.engine.clock() - EPS,
            "cannot advance into the past"
        );
        loop {
            self.retire_finished();
            match self.engine.next_completion() {
                Some(tc) if tc <= t + EPS => {
                    self.engine.consume(tc);
                    let completed_some = self.retire_finished() > 0;
                    if completed_some
                        && self.policy == ReactivationPolicy::OnArrivalAndCompletion
                        && !self.engine.is_idle()
                    {
                        let jobs = self.engine.job_set();
                        let now = self.engine.clock();
                        self.stats.activations += 1;
                        amrm_metrics::instrument::record_schedule_call();
                        let ctx = self.context(now);
                        if let Some(schedule) = self.scheduler.schedule(&jobs, &self.platform, &ctx)
                        {
                            debug_assert!(schedule.validate(&jobs, &self.platform, now).is_ok());
                            self.engine.replace_schedule(schedule);
                        }
                    }
                }
                _ => {
                    self.engine.consume(t);
                    self.retire_finished();
                    break;
                }
            }
        }
    }

    /// Runs until every admitted job has completed; returns the total
    /// energy consumed.
    pub fn run_to_completion(&mut self) -> f64 {
        while !self.engine.is_idle() {
            let Some(end) = self.engine.schedule().end_time() else {
                break; // no schedule covers the leftovers; nothing to do
            };
            if end <= self.engine.clock() + EPS {
                break;
            }
            self.advance_to(end);
        }
        self.engine.total_energy()
    }

    /// Retires finished jobs from the engine and updates the counters;
    /// returns how many jobs completed.
    fn retire_finished(&mut self) -> usize {
        let clock = self.engine.clock();
        let finished = self.engine.retire_finished();
        for job in &finished {
            self.stats.completed += 1;
            if clock > job.deadline + 1e-6 {
                self.stats.deadline_misses += 1;
            }
        }
        finished.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MmkpMdf;
    use amrm_model::JobId;
    use amrm_workload::scenarios;

    #[test]
    fn fig1c_end_to_end_energy() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
        rm.advance_to(1.0);
        assert!(rm.submit(scenarios::lambda2(), 5.0).is_accepted());
        let total = rm.run_to_completion();
        assert!(
            (total - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3,
            "got {total}"
        );
        let stats = rm.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.deadline_misses, 0);
    }

    #[test]
    fn s2_is_accepted_by_adaptive_mapper() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
        rm.advance_to(1.0);
        assert!(rm.submit(scenarios::lambda2(), 4.0).is_accepted());
        let total = rm.run_to_completion();
        assert!((total - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3);
    }

    #[test]
    fn rejection_preserves_running_jobs() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
        rm.advance_to(1.0);
        // Deadline 1.5 is impossible for λ2 (fastest point needs 2 s).
        let admission = rm.submit(scenarios::lambda2(), 1.5);
        assert!(!admission.is_accepted());
        let total = rm.run_to_completion();
        // σ1 alone on 2L1B: 8.9 J.
        assert!((total - 8.9).abs() < 1e-6, "got {total}");
        assert_eq!(rm.stats().rejected, 1);
        assert_eq!(rm.stats().completed, 1);
    }

    #[test]
    fn progress_is_tracked_partially() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        rm.submit(scenarios::lambda1(), 9.0);
        rm.advance_to(1.0);
        let jobs = rm.active_jobs();
        let job = jobs.jobs().first().unwrap();
        assert!((job.remaining() - (1.0 - 1.0 / 5.3)).abs() < 1e-9);
        assert!((rm.total_energy() - 8.9 / 5.3).abs() < 1e-9);
    }

    #[test]
    fn advance_without_jobs_is_a_noop() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        rm.advance_to(5.0);
        assert!((rm.now() - 5.0).abs() < 1e-12);
        assert_eq!(rm.total_energy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "deadline in the past")]
    fn past_deadline_panics() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        rm.advance_to(5.0);
        rm.submit(scenarios::lambda1(), 4.0);
    }

    #[test]
    fn completion_reactivation_reschedules() {
        // With OnArrivalAndCompletion the manager re-invokes the scheduler
        // when σ2 finishes; for MMKP-MDF the remaining schedule is
        // re-derived and σ1 still completes on time.
        let mut rm = RuntimeManager::with_policy(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrivalAndCompletion,
        );
        rm.submit(scenarios::lambda1(), 9.0);
        rm.advance_to(1.0);
        rm.submit(scenarios::lambda2(), 5.0);
        let total = rm.run_to_completion();
        assert_eq!(rm.stats().completed, 2);
        assert_eq!(rm.stats().deadline_misses, 0);
        // Re-scheduling at completions can only help or match.
        assert!(total <= scenarios::fig1::ADAPTIVE_J + 5e-3);
    }

    #[test]
    fn executed_trace_accounts_all_energy() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        rm.submit(scenarios::lambda1(), 9.0);
        rm.advance_to(1.0);
        rm.submit(scenarios::lambda2(), 5.0);
        let total = rm.run_to_completion();
        // The trace spans [0, 8.3) and its (2a) energy equals the metered
        // total, because full executions have ρ = 1.
        let trace = rm.executed_trace();
        let all_jobs = amrm_model::JobSet::new(vec![
            amrm_model::Job::new(JobId(1), scenarios::lambda1(), 0.0, 9.0, 1.0),
            amrm_model::Job::new(JobId(2), scenarios::lambda2(), 1.0, 5.0, 1.0),
        ]);
        assert!((trace.energy(&all_jobs) - total).abs() < 1e-9);
        assert!((trace.start_time().unwrap() - 0.0).abs() < 1e-12);
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((trace.end_time().unwrap() - (4.0 + 5.3 * rho1)).abs() < 1e-9);
    }

    #[test]
    fn batch_of_one_matches_submit_exactly() {
        let mut a = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        let mut b = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert!(a.submit(scenarios::lambda1(), 9.0).is_accepted());
        assert!(b.submit_batch(&[(scenarios::lambda1(), 9.0)])[0].is_accepted());
        a.advance_to(1.0);
        b.advance_to(1.0);
        assert!(a.submit(scenarios::lambda2(), 5.0).is_accepted());
        assert!(b.submit_batch(&[(scenarios::lambda2(), 5.0)])[0].is_accepted());
        let ea = a.run_to_completion();
        let eb = b.run_to_completion();
        assert_eq!(ea.to_bits(), eb.to_bits());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn feasible_batch_is_admitted_in_one_activation() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        let batch = rm.submit_batch(&[
            (scenarios::lambda1(), 20.0),
            (scenarios::lambda2(), 20.0),
            (scenarios::lambda2(), 25.0),
        ]);
        assert!(batch.iter().all(Admission::is_accepted));
        assert_eq!(rm.stats().activations, 1);
        assert_eq!(rm.stats().accepted, 3);
        rm.run_to_completion();
        assert_eq!(rm.stats().completed, 3);
        assert_eq!(rm.stats().deadline_misses, 0);
    }

    #[test]
    fn partially_infeasible_batch_rolls_back_and_readmits_greedily() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
        rm.advance_to(1.0);
        // λ2 with deadline 5 fits next to the running σ1 (Fig. 1(c)), but a
        // second λ2 with an impossible deadline poisons the joint batch.
        let batch = rm.submit_batch(&[
            (scenarios::lambda2(), 5.0),
            (scenarios::lambda2(), 1.5), // fastest point needs 2 s
        ]);
        assert!(batch[0].is_accepted());
        assert!(!batch[1].is_accepted());
        assert_eq!(batch[0].job(), JobId(2));
        assert_eq!(batch[1].job(), JobId(3));
        // One joint attempt + two greedy retries.
        assert_eq!(rm.stats().activations, 1 + 2 + 1); // +1 for the first submit
        let total = rm.run_to_completion();
        // The surviving pair executes exactly the Fig. 1(c) scenario.
        assert!(
            (total - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3,
            "got {total}"
        );
        assert_eq!(rm.stats().completed, 2);
        assert_eq!(rm.stats().deadline_misses, 0);
    }

    #[test]
    fn fully_infeasible_batch_leaves_engine_untouched() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
        rm.advance_to(1.0);
        let schedule_before = rm.current_schedule().clone();
        let batch = rm.submit_batch(&[(scenarios::lambda2(), 1.5), (scenarios::lambda2(), 1.2)]);
        assert!(batch.iter().all(|a| !a.is_accepted()));
        assert_eq!(rm.current_schedule(), &schedule_before);
        assert_eq!(rm.engine().jobs().len(), 1);
        let total = rm.run_to_completion();
        assert!((total - 8.9).abs() < 1e-6, "got {total}");
    }

    #[test]
    fn expired_deadlines_are_rejected_not_panicking() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        rm.advance_to(5.0);
        let batch = rm.submit_batch(&[
            (scenarios::lambda2(), 4.0),  // already past
            (scenarios::lambda2(), 12.0), // still viable
        ]);
        assert!(!batch[0].is_accepted());
        assert!(batch[1].is_accepted());
        let stats = rm.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
        // The expired request never reaches the scheduler.
        assert_eq!(stats.activations, 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert!(rm.submit_batch(&[]).is_empty());
        assert_eq!(rm.stats(), RmStats::default());
    }

    #[test]
    fn ids_are_sequential() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        let a = rm.submit(scenarios::lambda2(), 50.0);
        let b = rm.submit(scenarios::lambda2(), 60.0);
        assert_eq!(a.job(), JobId(1));
        assert_eq!(b.job(), JobId(2));
    }

    #[test]
    fn busy_cores_are_observable() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        assert_eq!(rm.busy_cores().total(), 0);
        assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
        rm.advance_to(1.0);
        // σ1 runs on 2L1B of the 2L2B platform: 3 of 4 cores busy.
        assert_eq!(rm.busy_cores().total(), 3);
        assert_eq!(rm.busy_cores().as_slice(), &[2, 1]);
        rm.run_to_completion();
        assert_eq!(rm.busy_cores().total(), 0);
    }

    #[test]
    fn engine_accessor_exposes_live_state() {
        let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
        rm.submit(scenarios::lambda1(), 9.0);
        rm.advance_to(2.0);
        assert_eq!(rm.engine().jobs().len(), 1);
        assert!((rm.engine().clock() - 2.0).abs() < 1e-12);
        assert!(rm.engine().total_energy() > 0.0);
    }
}
