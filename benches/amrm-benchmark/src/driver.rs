//! The only file that calls into the amrm library crates.
//!
//! It builds each workload from the public API, runs one pass of it, and
//! hands back plain tallies ([`Pass`], [`Layers`]) that the measurement
//! code turns into metrics. An API change (a new `Simulation` builder, a
//! renamed getter) therefore edits this file and no measurement code.
//!
//! Two ways to run a pass:
//!
//! * [`Prepared::run`] — the end-to-end pass. The scheduler comes from
//!   `standard_registry()`, exactly as a user of the library would get it.
//!   The only instrument is the timing iterator around the arrival stream,
//!   which yields the per-arrival service time.
//! * [`Prepared::run_traced`] — the per-layer pass. It builds the same
//!   scheduler from its concrete constructor and wraps it, the admission
//!   policy and the stream in timing decorators from outside. The wrapper
//!   around the scheduler also validates every schedule it returns.
//!
//! Both passes are single-threaded: the instrumentation counters of
//! `amrm_metrics::instrument` are thread-local.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use amrm_baselines::{standard_registry, ExMem, FixedMapper, MetaScheduler, Regime};
use amrm_core::{
    AdaptiveBatch, AdmissionDirective, AdmissionPolicy, Immediate, MmkpMdf, ReactivationPolicy,
    Scheduler, SchedulingContext, SearchBudget, TelemetrySnapshot,
};
use amrm_metrics::{instrument, CountingAllocator, JournalConfig, RejectReason};
use amrm_model::{JobSet, Schedule};
use amrm_platform::Platform;
use amrm_sim::{run_scenario, SimOutcome, Simulation};
use amrm_workload::{scenarios, ArrivalStream, ScenarioRequest, StreamSpec};

use crate::hist::Histogram;

/// The benchmark's workloads. See the crate README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MdfDiurnal,
    MetaDiurnal,
    MetaBurstyBatch,
    ExmemPoisson,
}

/// Slack range of every workload's requests, in multiples of the
/// application's fastest execution time.
const SLACK_RANGE: (f64, f64) = (1.5, 3.0);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MdfDiurnal,
        Workload::MetaDiurnal,
        Workload::MetaBurstyBatch,
        Workload::ExmemPoisson,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MdfDiurnal => "mdf-diurnal",
            Workload::MetaDiurnal => "meta-diurnal",
            Workload::MetaBurstyBatch => "meta-bursty-batch",
            Workload::ExmemPoisson => "exmem-poisson",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests in a run of `seconds`: a positive multiple of
    /// [`WINDOWS`]. The rates are about what the program handles on a
    /// 2-vCPU x86-64 VM (8–13 s for a 10 s run), so a run lasts about as
    /// long as asked while its size, and therefore its simulated result,
    /// depends only on `seconds` and the seed.
    pub fn requests(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::MdfDiurnal => 150_000.0,
            Workload::MetaDiurnal => 7_500.0,
            Workload::MetaBurstyBatch => 60_000.0,
            Workload::ExmemPoisson => 1_200.0,
        };
        let windows = (per_second * seconds / WINDOWS as f64) as usize;
        windows.max(1) * WINDOWS
    }

    fn registry_name(self) -> &'static str {
        match self {
            Workload::MdfDiurnal => amrm_baselines::MDF_NAME,
            Workload::MetaDiurnal | Workload::MetaBurstyBatch => amrm_baselines::META_NAME,
            Workload::ExmemPoisson => amrm_baselines::EXMEM_NAME,
        }
    }

    fn stream(self, platform: &Platform, requests: usize, seed: u64) -> ArrivalStream {
        let library = amrm_dataflow::apps::benchmark_suite(platform);
        let spec = StreamSpec {
            requests,
            slack_range: SLACK_RANGE,
        };
        match self {
            Workload::MdfDiurnal | Workload::MetaDiurnal => {
                ArrivalStream::diurnal(&library, 0.5, 3.0, 600.0, &spec, seed)
            }
            Workload::MetaBurstyBatch => {
                ArrivalStream::bursty_window(&library, 1.0, 8.0, 15.0, &spec, seed)
            }
            Workload::ExmemPoisson => ArrivalStream::poisson(&library, 2.0, &spec, seed),
        }
    }

    /// The journal is part of the batching workload only: it is the one
    /// that exercises rollback victims and queue-deadline drops.
    fn journal(self) -> Option<JournalConfig> {
        (self == Workload::MetaBurstyBatch).then(|| JournalConfig::sampled(64))
    }
}

/// The bit-level fingerprint of a pass's simulated result. Every pass of
/// one workload and seed must produce the same digest, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub offered: u64,
    pub accepted: u64,
    pub energy_bits: u64,
    pub end_time_bits: u64,
    pub activations: u64,
}

/// Consecutive runs of arrivals a stream is cut into for timing. Host
/// noise that lasts a fraction of a run spoils a few windows, and the
/// medians over windows ignore them.
pub const WINDOWS: usize = 10;

/// What one pass produced, traced or not.
#[derive(Debug, Clone)]
pub struct Pass {
    pub digest: Digest,
    /// Requests the stream yielded.
    pub generated: u64,
    pub deadline_misses: u64,
    pub total_energy: f64,
    /// Host time from building the simulation to the end of its run.
    pub wall_ns: u64,
    /// Host time spent inside the stream's `next()`.
    pub generator_ns: u64,
    /// The arrivals in [`WINDOWS`] equal, consecutive windows.
    pub windows: Vec<Window>,
}

/// Timing of consecutive arrivals.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Host time from the pull of the window's first arrival to the pull
    /// after its last one.
    pub wall_ns: u64,
    /// Host time per arrival: from the end of one pull of the stream to
    /// the start of the next, i.e. the kernel's time on one arrival.
    pub service: Histogram,
}

impl Pass {
    /// Requests lost between the generator and a decision.
    pub fn lost(&self) -> u64 {
        self.generated.abs_diff(self.digest.offered)
    }
}

/// Per-layer tallies of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub admission: AdmissionTally,
    pub scheduler: SchedulerTally,
    pub events: u64,
    pub heap_pushes: u64,
    pub flushes: u64,
    pub peak_queue_depth: u64,
    pub memo_hits: u64,
    pub queue_deadline_drops: u64,
    pub peak_live_requests: u64,
    pub journal_events: u64,
    pub journal_dropped: u64,
    pub rollback_victims: u64,
    /// Simulated seconds, as the program's telemetry reports it.
    pub queue_wait_p95_s: f64,
    /// Zero unless the counting allocator is the global allocator.
    pub alloc_bytes: u64,
    pub alloc_calls: u64,
}

#[derive(Debug, Clone, Default)]
pub struct AdmissionTally {
    pub calls: u64,
    pub flushes: u64,
    pub ns: u64,
}

/// META's three regimes, in `Regime` declaration order.
pub const REGIMES: [&str; 3] = ["light", "heavy", "exact"];

#[derive(Debug, Clone, Default)]
pub struct SchedulerTally {
    pub calls: u64,
    pub ns: u64,
    pub call_ns: Histogram,
    pub jobs: u64,
    pub found: u64,
    pub invalid: u64,
    /// Host time spent validating returned schedules.
    pub check_ns: u64,
    /// Per META regime: calls and host time.
    pub regime_calls: [u64; 3],
    pub regime_ns: [u64; 3],
    pub meta_switches: u64,
    pub meta_budget_switches: u64,
    pub exmem_nodes: u64,
    pub exmem_degraded: u64,
    pub exmem_rank_pruned: u64,
    pub exmem_memo_len: u64,
}

/// One workload instance, built and ready to run: the set-up the
/// benchmark times as `setup_s`.
pub struct Prepared {
    workload: Workload,
    platform: Platform,
    stream: ArrivalStream,
    scheduler: Box<dyn Scheduler + Send>,
}

impl Prepared {
    /// Builds the platform, characterizes the application library, and
    /// constructs the stream and the registry scheduler.
    pub fn new(workload: Workload, requests: usize, seed: u64) -> Self {
        let platform = Platform::odroid_xu4();
        let stream = workload.stream(&platform, requests, seed);
        let scheduler = standard_registry()
            .create(workload.registry_name())
            .expect("every workload names a registered scheduler");
        Prepared {
            workload,
            platform,
            stream,
            scheduler,
        }
    }

    /// The end-to-end pass.
    pub fn run(self) -> Pass {
        let Prepared {
            workload,
            platform,
            stream,
            scheduler,
        } = self;
        let arrivals = Slot::default();
        let source = TimedArrivals::new(stream, arrivals.clone());
        let start = Instant::now();
        let (outcome, _) = match workload {
            Workload::MetaBurstyBatch => simulate(
                workload,
                platform,
                scheduler,
                AdaptiveBatch::fitted(),
                source,
            ),
            _ => simulate(workload, platform, scheduler, Immediate, source),
        };
        let wall_ns = elapsed_ns(start);
        pass(&outcome, arrivals.take(), wall_ns)
    }

    /// The per-layer pass.
    pub fn run_traced(self) -> (Pass, Layers) {
        let Prepared {
            workload,
            platform,
            stream,
            ..
        } = self;
        let arrivals = Slot::default();
        let admission = Slot::default();
        let source = TimedArrivals::new(stream, arrivals.clone());
        let _ = instrument::take();
        let alloc_bytes = CountingAllocator::total_allocated_bytes();
        let alloc_calls = CountingAllocator::allocation_calls();
        let start = Instant::now();
        let (outcome, scheduler) = match workload {
            Workload::MdfDiurnal => traced(workload, platform, MmkpMdf::new(), source, &admission),
            Workload::MetaDiurnal | Workload::MetaBurstyBatch => {
                traced(workload, platform, MetaScheduler::new(), source, &admission)
            }
            Workload::ExmemPoisson => traced(workload, platform, ExMem::new(), source, &admission),
        };
        let wall_ns = elapsed_ns(start);
        let counters = instrument::take();
        let journal = outcome.journal.as_ref();
        let layers = Layers {
            admission: admission.take(),
            scheduler,
            events: counters.events,
            heap_pushes: counters.heap_pushes,
            flushes: counters.flushes,
            peak_queue_depth: counters.peak_queue_depth,
            memo_hits: counters.memo_hits,
            queue_deadline_drops: outcome.queue_deadline_drops as u64,
            peak_live_requests: outcome.peak_live_requests as u64,
            journal_events: journal.map_or(0, |j| j.total()),
            journal_dropped: journal.map_or(0, |j| j.dropped()),
            rollback_victims: journal.map_or(0, |j| j.rejects_for(RejectReason::RollbackVictim)),
            queue_wait_p95_s: outcome.telemetry.queue_wait_p95,
            alloc_bytes: CountingAllocator::total_allocated_bytes() - alloc_bytes,
            alloc_calls: CountingAllocator::allocation_calls() - alloc_calls,
        };
        (pass(&outcome, arrivals.take(), wall_ns), layers)
    }
}

/// Live bytes at the process's allocation high-water mark; zero unless
/// the counting allocator is the global allocator.
pub fn peak_allocated_bytes() -> u64 {
    CountingAllocator::peak_bytes()
}

/// The paper's Fig. 1 scenario S1 under its three management strategies:
/// `(reference energy, simulated energy)` in joules, in the figure's
/// order (fixed at start, fixed at start and finish, adaptive).
pub fn fig1_energies() -> [(f64, f64); 3] {
    let energy = |scheduler: Box<dyn Scheduler>, policy| {
        run_scenario(
            scenarios::platform(),
            scheduler,
            policy,
            &scenarios::scenario_s1(),
        )
        .total_energy
    };
    [
        (
            scenarios::fig1::FIXED_AT_START_J,
            energy(Box::new(FixedMapper::new()), ReactivationPolicy::OnArrival),
        ),
        (
            scenarios::fig1::FIXED_AT_START_AND_FINISH_J,
            energy(
                Box::new(FixedMapper::new()),
                ReactivationPolicy::OnArrivalAndCompletion,
            ),
        ),
        (
            scenarios::fig1::ADAPTIVE_J,
            energy(Box::new(MmkpMdf::new()), ReactivationPolicy::OnArrival),
        ),
    ]
}

fn simulate<S: Scheduler, A: AdmissionPolicy>(
    workload: Workload,
    platform: Platform,
    scheduler: S,
    admission: A,
    source: TimedArrivals,
) -> (SimOutcome, S) {
    let sim = Simulation::from_stream(
        platform,
        scheduler,
        ReactivationPolicy::OnArrival,
        admission,
        source,
    )
    .with_search_budget(SearchBudget::online())
    .aggregated();
    match workload.journal() {
        Some(config) => sim.with_journal(config),
        None => sim,
    }
    .run_with_scheduler()
}

fn traced<S: Scheduler + Inspect>(
    workload: Workload,
    platform: Platform,
    scheduler: S,
    source: TimedArrivals,
    admission: &Slot<AdmissionTally>,
) -> (SimOutcome, SchedulerTally) {
    let scheduler = TimedScheduler {
        inner: scheduler,
        tally: SchedulerTally::default(),
    };
    let (outcome, scheduler) = match workload {
        Workload::MetaBurstyBatch => {
            let policy = TimedAdmission::new(AdaptiveBatch::fitted(), admission.clone());
            simulate(workload, platform, scheduler, policy, source)
        }
        _ => {
            let policy = TimedAdmission::new(Immediate, admission.clone());
            simulate(workload, platform, scheduler, policy, source)
        }
    };
    let TimedScheduler { inner, mut tally } = scheduler;
    inner.at_end(&mut tally);
    (outcome, tally)
}

fn pass(outcome: &SimOutcome, arrivals: ArrivalTally, wall_ns: u64) -> Pass {
    Pass {
        digest: Digest {
            offered: outcome.offered as u64,
            accepted: outcome.accepted() as u64,
            energy_bits: outcome.total_energy.to_bits(),
            end_time_bits: outcome.end_time.to_bits(),
            activations: outcome.stats.activations as u64,
        },
        generated: arrivals.generated,
        deadline_misses: outcome.stats.deadline_misses as u64,
        total_energy: outcome.total_energy,
        wall_ns,
        generator_ns: arrivals.generator_ns,
        windows: arrivals.windows,
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).expect("a pass lasts less than 584 years")
}

/// Carries a decorator's tallies out of the kernel, which drops the
/// admission policy and the stream at the end of a run instead of
/// returning them. The decorator publishes once, from `Drop`.
struct Slot<T>(Arc<Mutex<Option<T>>>);

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot(Arc::new(Mutex::new(None)))
    }
}

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Slot(Arc::clone(&self.0))
    }
}

impl<T> Slot<T> {
    fn publish(&self, value: T) {
        // Runs in `Drop`: a poisoned slot only loses the tallies, which
        // `take` then reports.
        if let Ok(mut slot) = self.0.lock() {
            *slot = Some(value);
        }
    }

    fn take(&self) -> T {
        self.0
            .lock()
            .expect("no decorator panicked while publishing")
            .take()
            .expect("the kernel dropped the decorator at the end of the run")
    }
}

#[derive(Debug, Default)]
struct ArrivalTally {
    generated: u64,
    generator_ns: u64,
    windows: Vec<Window>,
}

/// Times every pull of the arrival stream. The kernel pulls the next
/// arrival while it handles the previous one (pull-ahead-one), so the gap
/// between one pull's return and the next pull's start is the host time
/// the kernel spent on one arrival.
struct TimedArrivals {
    inner: ArrivalStream,
    window_len: u64,
    window_start: Instant,
    last_return: Option<Instant>,
    tally: ArrivalTally,
    slot: Slot<ArrivalTally>,
}

impl TimedArrivals {
    fn new(inner: ArrivalStream, slot: Slot<ArrivalTally>) -> Self {
        TimedArrivals {
            window_len: (inner.remaining() / WINDOWS).max(1) as u64,
            inner,
            window_start: Instant::now(),
            last_return: None,
            tally: ArrivalTally::default(),
            slot,
        }
    }
}

impl Iterator for TimedArrivals {
    type Item = ScenarioRequest;

    fn next(&mut self) -> Option<ScenarioRequest> {
        let start = Instant::now();
        let item = self.inner.next();
        let end = Instant::now();
        let pulled = self.tally.generated;
        if let (Some(last), Some(window)) = (self.last_return, self.tally.windows.last_mut()) {
            window
                .service
                .record(start.saturating_duration_since(last).as_nanos() as u64);
            if pulled.is_multiple_of(self.window_len) || item.is_none() {
                window.wall_ns = start
                    .saturating_duration_since(self.window_start)
                    .as_nanos() as u64;
            }
        }
        if item.is_some() && pulled.is_multiple_of(self.window_len) {
            self.tally.windows.push(Window::default());
            self.window_start = start;
        }
        self.tally.generator_ns += end.saturating_duration_since(start).as_nanos() as u64;
        self.tally.generated += u64::from(item.is_some());
        self.last_return = item.as_ref().map(|_| end);
        item
    }
}

impl Drop for TimedArrivals {
    fn drop(&mut self) {
        self.slot.publish(std::mem::take(&mut self.tally));
    }
}

/// Times every admission decision. Forwards every trait method
/// explicitly: relying on a trait default would silently replace the
/// wrapped policy's own answer.
struct TimedAdmission<A> {
    inner: A,
    tally: AdmissionTally,
    slot: Slot<AdmissionTally>,
}

impl<A> TimedAdmission<A> {
    fn new(inner: A, slot: Slot<AdmissionTally>) -> Self {
        TimedAdmission {
            inner,
            tally: AdmissionTally::default(),
            slot,
        }
    }
}

impl<A: AdmissionPolicy> AdmissionPolicy for TimedAdmission<A> {
    fn on_arrival(&mut self, snapshot: &TelemetrySnapshot, now: f64) -> AdmissionDirective {
        let start = Instant::now();
        let directive = self.inner.on_arrival(snapshot, now);
        self.tally.ns += elapsed_ns(start);
        self.tally.calls += 1;
        self.tally.flushes += u64::from(directive == AdmissionDirective::Flush);
        directive
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    fn flush_at_stream_end(&self) -> bool {
        self.inner.flush_at_stream_end()
    }
}

impl<A> Drop for TimedAdmission<A> {
    fn drop(&mut self) {
        self.slot.publish(std::mem::take(&mut self.tally));
    }
}

/// Reads a concrete scheduler's own counters, after each call and at the
/// end of the run.
trait Inspect {
    fn after_call(&self, _ns: u64, _tally: &mut SchedulerTally) {}
    fn at_end(&self, _tally: &mut SchedulerTally) {}
}

impl Inspect for MmkpMdf {}

impl Inspect for MetaScheduler {
    fn after_call(&self, ns: u64, tally: &mut SchedulerTally) {
        let regime = match self.regime() {
            Regime::Light => 0,
            Regime::Heavy => 1,
            Regime::Exact => 2,
        };
        tally.regime_calls[regime] += 1;
        tally.regime_ns[regime] += ns;
    }

    fn at_end(&self, tally: &mut SchedulerTally) {
        tally.meta_switches = self.switches() as u64;
        tally.meta_budget_switches = self.budget_switches() as u64;
    }
}

impl Inspect for ExMem {
    fn after_call(&self, _ns: u64, tally: &mut SchedulerTally) {
        tally.exmem_nodes += self.nodes_explored();
        tally.exmem_degraded += u64::from(self.last_degraded());
        tally.exmem_rank_pruned += self.last_rank_pruned();
    }

    fn at_end(&self, tally: &mut SchedulerTally) {
        tally.exmem_memo_len = self.memo_len() as u64;
    }
}

/// Times every scheduler call and validates every schedule it returns;
/// the validation is timed apart so that it counts against no layer.
struct TimedScheduler<S> {
    inner: S,
    tally: SchedulerTally,
}

impl<S: Scheduler + Inspect> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        let start = Instant::now();
        let schedule = self.inner.schedule(jobs, platform, ctx);
        let ns = elapsed_ns(start);
        let tally = &mut self.tally;
        tally.calls += 1;
        tally.ns += ns;
        tally.call_ns.record(ns);
        tally.jobs += jobs.len() as u64;
        self.inner.after_call(ns, tally);
        if let Some(schedule) = &schedule {
            tally.found += 1;
            let start = Instant::now();
            tally.invalid += u64::from(schedule.validate(jobs, platform, ctx.now).is_err());
            tally.check_ns += elapsed_ns(start);
        }
        schedule
    }
}
