//! The event-driven simulation kernel.
//!
//! [`Simulation`] composes any [`Scheduler`] with any [`AdmissionPolicy`]
//! and drives a [`RuntimeManager`] from a time-ordered event queue instead
//! of a hand-rolled per-arrival loop. Four event kinds exist:
//!
//! * **arrival** — a request joins the admission queue; the policy decides
//!   whether to flush the queue, keep gathering, or (re-)open a batching
//!   window;
//! * **window expiry** — an open batching window closes and the queue is
//!   flushed to [`RuntimeManager::submit_batch`];
//! * **job completion** — the next completion under the current schedule
//!   (re-armed after every handled event and guarded by a generation
//!   counter, so only *exact* completion instants are consumed — energy
//!   accounting stays bit-identical to the sequential driver);
//! * **queue deadline** — a queued request's deadline passes before its
//!   batch is flushed; the request is pulled out of the queue and
//!   submitted alone at that instant, where it is rejected without a
//!   scheduler activation.
//!
//! The kernel owns a [`Telemetry`] recorder: every arrival, flush and
//! expiry feeds the online series (queue depth, EWMA arrival rate,
//! platform utilization from the execution engine, rolling acceptance,
//! activation latency), and every admission decision point hands the
//! policy a read-only [`TelemetrySnapshot`] — the feedback loop the
//! adaptive policies ([`amrm_core::AdaptiveBatch`],
//! [`amrm_core::SlackAware`]) close. The end-of-run summary lands in
//! [`SimOutcome::telemetry`].
//!
//! With [`amrm_core::Immediate`] the kernel reproduces the paper's
//! per-request discipline event for event; `BatchK(1)` and `WindowTau(0)`
//! are equivalent by construction (the property tests in
//! `tests/admission_equivalence.rs` pin this down to the bit level).
//!
//! # Streaming and the hot path
//!
//! Arrivals are *pulled* lazily: the kernel holds exactly one pending
//! arrival event and asks its request source for the next one only when
//! that event is handled, so a million-request
//! [`ArrivalStream`](amrm_workload::ArrivalStream) is never materialized
//! ([`Simulation::from_stream`]). [`Simulation::new`] routes a
//! pre-materialized slice through the same machinery, and the two are
//! bit-identical: at equal times arrivals are ordered by class and then
//! by push order, which the pull-ahead-one discipline preserves.
//!
//! The per-event hot path is allocation-free in steady state: flush
//! batches, submissions, admissions and the telemetry snapshot live in
//! scratch buffers reused across events, and the single live completion
//! event is only re-armed when the engine's next completion instant
//! actually changed (bitwise), so completion re-arming no longer thrashes
//! the [`BinaryHeap`] with one stale entry per event.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use amrm_core::{
    Admission, AdmissionDirective, AdmissionPolicy, DecisionReason, ReactivationPolicy,
    RuntimeManager, Scheduler, SearchBudget, ShardView, TelemetrySnapshot,
};
use amrm_metrics::journal::{EventKind, JournalConfig, JournalEvent, RejectReason};
use amrm_metrics::{instrument, Telemetry, TraceSink};
use amrm_model::{AppRef, Job, JobId, JobSet};
use amrm_platform::Platform;
use amrm_workload::ScenarioRequest;

use crate::SimOutcome;

/// The class of a kernel event — the *single* encoding of the same-instant
/// tie-break order (the `#[repr(u8)]` discriminants *are* the priorities):
/// completions retire first, arrivals join the queue next, window expiries
/// flush after them (so simultaneous arrivals land in the same window
/// flush), and queue deadlines come last — a flush at the very instant a
/// queued request expires wins the tie, and the zero-slack candidate is
/// uniformly auto-rejected by `submit_batch` rather than counted as a
/// queue drop (keeping `WindowTau(0)` aligned with `Immediate` even for
/// `deadline == arrival` requests).
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventClass {
    /// A job completes under the current schedule; the payload carries
    /// the arming generation and must match the kernel's current one or
    /// the event is stale.
    Completion = 0,
    /// The request with the payload's (arrival-order) index arrives.
    Arrival = 1,
    /// The batching window with the payload's id expires.
    WindowExpiry = 2,
    /// The deadline of the queued request with the payload's index passes.
    QueueDeadline = 3,
}

/// A time-stamped kernel event. Ordered for a min-heap on
/// `(time, class, seq)`; `seq` makes the order total and deterministic.
///
/// The payload is a plain `u32` interpreted per class (request index,
/// window id, or completion generation) — no boxed data, and the whole
/// entry packs into 24 bytes so heap churn moves cache lines, not pages.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    payload: u32,
    class: EventClass,
}

const _: () = assert!(
    std::mem::size_of::<Event>() == 24,
    "Event grew past 24 bytes"
);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the earliest event.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An event-driven online-RM simulation: a request stream, a scheduler,
/// a re-activation policy and a batched-admission policy.
///
/// # Examples
///
/// Admitting the Fig. 1 scenario in one `BatchK(2)` activation:
///
/// ```
/// use amrm_core::{BatchK, MmkpMdf, ReactivationPolicy};
/// use amrm_sim::Simulation;
/// use amrm_workload::scenarios;
///
/// let outcome = Simulation::new(
///     scenarios::platform(),
///     MmkpMdf::new(),
///     ReactivationPolicy::OnArrival,
///     BatchK(2),
///     &scenarios::scenario_s1(),
/// )
/// .run();
/// assert_eq!(outcome.accepted(), 2);
/// // Both requests were decided in a single scheduler activation.
/// assert_eq!(outcome.stats.activations, 1);
/// ```
pub struct Simulation<S, A> {
    rm: RuntimeManager<S>,
    admission: A,
    telemetry: Telemetry,
    /// The lazy arrival source; pulled one request ahead of the event
    /// loop so the heap never holds more than one pending arrival. `Send`
    /// keeps the whole simulation `Send`, so one thread can build it and
    /// another run it.
    source: Box<dyn Iterator<Item = ScenarioRequest> + Send>,
    /// Requests pulled from the source so far, in arrival order.
    requests: Vec<ScenarioRequest>,
    events: BinaryHeap<Event>,
    /// Request indices waiting for a batch flush, FIFO.
    queue: VecDeque<usize>,
    /// Per pulled request: the admission decision, once made.
    decisions: Vec<Option<(JobId, bool)>>,
    /// Set once the source is drained: no arrival event is in the heap
    /// and none will be pushed.
    arrivals_done: bool,
    /// Arrival time of the most recently pulled request — streams must be
    /// non-decreasing.
    last_arrival: f64,
    /// Liveness stamp for completion events; bumped whenever the armed
    /// completion instant must be invalidated.
    completion_generation: u32,
    /// The instant of the currently armed (live) completion event, if
    /// any. Re-arming is skipped while the engine's next completion is
    /// bitwise unchanged, so steady execution keeps one live event
    /// instead of staling one per handled event.
    armed_completion: Option<f64>,
    /// Id and absolute expiry of the currently open batching window.
    open_window: Option<(u32, f64)>,
    next_window: u32,
    next_seq: u64,
    /// Admitted jobs at full remaining ratio, for the outcome.
    admitted: Vec<Job>,
    /// Requests dropped from the queue because their deadline passed
    /// before their batch was flushed.
    queue_deadline_drops: usize,
    /// External-arrival mode (see [`Simulation::open`]): the kernel owns
    /// no stream; a federation dispatcher injects arrivals between
    /// lockstep epochs.
    external: bool,
    /// External mode: the dispatcher declared the global stream over.
    external_closed: bool,
    /// External mode: arrival events injected but not yet handled.
    pending_arrivals: usize,
    /// Requests stolen out of this shard's admission queue by the
    /// federation dispatcher; their decision slots legitimately stay
    /// empty here (the thief shard decides them).
    stolen: usize,
    /// Aggregated-outcome mode (see [`Simulation::aggregated`]): decided
    /// request slots are folded into running counters and recycled, so
    /// memory stays flat in the stream length.
    aggregate: bool,
    /// Aggregated mode: recycled request slots, reused LIFO.
    free_slots: Vec<u32>,
    /// Aggregated mode, per slot: a queue-deadline guard event is still
    /// pending. A slot is only recycled once unguarded — the invariant
    /// that keeps a stale guard from dropping a later tenant.
    guarded: Vec<bool>,
    /// Requests decided so far (the admissions fold, maintained in both
    /// modes and pinned equal to the per-request records).
    offered: usize,
    /// Requests admitted so far.
    accepted_total: usize,
    /// High-water mark of live (undecided or guard-pinned) request slots.
    peak_live: usize,
    /// Decision-journal sink shared with the runtime manager and (via
    /// the scheduling context) the scheduler. Disabled by default: every
    /// emission site is gated on one branch, so the journal-off hot path
    /// is bit-identical to the pre-journal kernel.
    journal: TraceSink,
    /// Request-sampling modulus copied out of the journal config
    /// (`0`/`1` = every request), mirrored here so the kernel can skip
    /// per-request bookkeeping for unsampled ids without taking the lock.
    journal_sample: u64,
    /// Per request slot: the journal request id (global arrival ordinal)
    /// of the slot's current tenant. Only maintained while the journal
    /// is enabled.
    journal_ids: Vec<u64>,
    /// Next journal request id (arrival ordinal, assigned at pull/inject).
    next_journal_id: u64,
    /// Sampled admitted jobs awaiting completion: `(engine job id,
    /// journal request id)`. Swept against the engine's live set after
    /// every clock advance so each admitted sampled request gets its
    /// terminal `completion` event.
    journal_live: Vec<(JobId, u64)>,
    // Hot-path scratch buffers, reused across events so steady-state
    // admission allocates nothing.
    flush_scratch: Vec<usize>,
    submit_scratch: Vec<(AppRef, f64)>,
    admissions_scratch: Vec<Admission>,
    snapshot_scratch: TelemetrySnapshot,
    /// Debug-only pop-order witness: the last popped `(time, class)` and
    /// whether a push intervened since — see
    /// [`amrm_metrics::invariant::pop_order_violation`].
    #[cfg(debug_assertions)]
    last_popped: Option<(f64, u8)>,
    #[cfg(debug_assertions)]
    pushed_since_pop: bool,
}

impl<S: Scheduler, A: AdmissionPolicy> Simulation<S, A> {
    /// Creates a simulation over `requests` (sorted by arrival
    /// internally).
    ///
    /// # Panics
    ///
    /// Panics if the admission policy is invalid or any request has a
    /// deadline before its arrival.
    pub fn new(
        platform: Platform,
        scheduler: S,
        reactivation: ReactivationPolicy,
        admission: A,
        requests: &[ScenarioRequest],
    ) -> Self {
        for req in requests {
            assert!(
                req.deadline >= req.arrival,
                "request deadline {} before its arrival {}",
                req.deadline,
                req.arrival
            );
        }
        let mut ordered: Vec<ScenarioRequest> = requests.to_vec();
        ordered.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Self::from_stream(platform, scheduler, reactivation, admission, ordered)
    }

    /// Creates a simulation that pulls requests lazily from `stream`
    /// (e.g. an [`amrm_workload::ArrivalStream`]) instead of holding a
    /// materialized vector: the kernel keeps one pending arrival event
    /// and asks the stream for the next request only when that event is
    /// handled. For any stream, the outcome is bit-identical to
    /// materializing it first and calling [`Simulation::new`].
    ///
    /// # Panics
    ///
    /// Panics if the admission policy is invalid; the run panics if the
    /// stream yields decreasing arrival times or a deadline before its
    /// arrival.
    pub fn from_stream<I>(
        platform: Platform,
        scheduler: S,
        reactivation: ReactivationPolicy,
        admission: A,
        stream: I,
    ) -> Self
    where
        I: IntoIterator<Item = ScenarioRequest>,
        I::IntoIter: Send + 'static,
    {
        if let Err(msg) = admission.validate() {
            panic!("invalid admission policy: {msg}");
        }
        let source = stream.into_iter();
        let (lower, upper) = source.size_hint();
        let known = upper.unwrap_or(lower);
        let mut sim = Simulation {
            rm: RuntimeManager::with_policy(platform, scheduler, reactivation),
            admission,
            telemetry: Telemetry::new(),
            source: Box::new(source),
            requests: Vec::with_capacity(known),
            decisions: Vec::with_capacity(known),
            arrivals_done: false,
            last_arrival: f64::NEG_INFINITY,
            events: BinaryHeap::with_capacity(64),
            queue: VecDeque::new(),
            completion_generation: 0,
            armed_completion: None,
            open_window: None,
            next_window: 0,
            next_seq: 0,
            admitted: Vec::new(),
            queue_deadline_drops: 0,
            external: false,
            external_closed: false,
            pending_arrivals: 0,
            stolen: 0,
            aggregate: false,
            free_slots: Vec::new(),
            guarded: Vec::new(),
            offered: 0,
            accepted_total: 0,
            peak_live: 0,
            journal: TraceSink::disabled(),
            journal_sample: 0,
            journal_ids: Vec::new(),
            next_journal_id: 0,
            journal_live: Vec::new(),
            flush_scratch: Vec::new(),
            submit_scratch: Vec::new(),
            admissions_scratch: Vec::new(),
            snapshot_scratch: TelemetrySnapshot::default(),
            #[cfg(debug_assertions)]
            last_popped: None,
            #[cfg(debug_assertions)]
            pushed_since_pop: false,
        };
        sim.pull_next_arrival();
        sim
    }

    /// The admission policy this simulation runs under.
    pub fn admission_policy(&self) -> &A {
        &self.admission
    }

    /// Builder-style override of the per-activation [`SearchBudget`] the
    /// runtime manager forwards to the scheduler through its
    /// [`amrm_core::SchedulingContext`] (unbounded by default, so plain
    /// simulations behave exactly like the pre-context kernel).
    #[must_use]
    pub fn with_search_budget(mut self, budget: SearchBudget) -> Self {
        self.rm.set_search_budget(budget);
        self
    }

    /// Attaches a structured event journal: the kernel emits the
    /// request lifecycle (arrival → window open/tighten → flush →
    /// schedule decision → admit/reject-with-reason → completion), and
    /// the same sink rides into every [`amrm_core::SchedulingContext`]
    /// so context-aware schedulers journal their own decisions. Memory
    /// stays flat (ring buffer; exact counters survive eviction) and all
    /// payloads are sim-time, so enabling the journal leaves admissions,
    /// energy bits, stats and telemetry bit-identical to a journal-free
    /// run. The resulting [`Journal`](amrm_metrics::Journal) lands in
    /// [`SimOutcome::journal`].
    ///
    /// Each simulation owns its sink, so federation shards journaled this
    /// way cannot perturb each other's event order.
    #[must_use]
    pub fn with_journal(mut self, config: JournalConfig) -> Self {
        let sink = TraceSink::enabled(config);
        self.journal_sample = config.sample;
        self.rm.set_trace_sink(sink.clone());
        // Backfill ids for requests pulled ahead of this call (the
        // constructor pulls one arrival before builders run).
        while self.journal_ids.len() < self.requests.len() {
            self.journal_ids.push(self.next_journal_id);
            self.next_journal_id += 1;
        }
        self.journal = sink;
        self
    }

    /// Whether the journal samples this request id (mirrors
    /// [`Journal::samples`](amrm_metrics::Journal::samples) without
    /// taking the sink lock).
    fn journal_samples(&self, id: u64) -> bool {
        self.journal_sample <= 1 || id.is_multiple_of(self.journal_sample)
    }

    /// Creates an *externally driven* simulation: the kernel owns no
    /// request stream — a federation dispatcher injects arrivals with
    /// [`inject_request`](Simulation::inject_request) and advances the
    /// shard in sim-time lockstep with
    /// [`advance_until`](Simulation::advance_until). Once the dispatcher
    /// has [`close_stream`](Simulation::close_stream)ed and
    /// [`finalize`](Simulation::finalize)d the shard,
    /// [`run`](Simulation::run) drains the tail and builds its outcome.
    ///
    /// Injecting the whole stream in arrival order reproduces a
    /// [`Simulation::from_stream`] run bit for bit: same-instant events
    /// are ordered by class first, and within a class by push order,
    /// which batched injection preserves.
    ///
    /// # Panics
    ///
    /// Panics if the admission policy is invalid.
    pub fn open(
        platform: Platform,
        scheduler: S,
        reactivation: ReactivationPolicy,
        admission: A,
    ) -> Self {
        let mut sim = Self::from_stream(
            platform,
            scheduler,
            reactivation,
            admission,
            std::iter::empty(),
        );
        sim.external = true;
        sim
    }

    /// Switches on the aggregated (flat-memory) outcome mode: decided
    /// request slots are folded into running counters
    /// ([`SimOutcome::offered`], acceptance, energy — latency percentiles
    /// already live in the telemetry's bounded rings) and recycled, so a
    /// 10M-request or multi-shard run keeps memory flat instead of
    /// holding one record per request. The O(events) outcome bulk is
    /// dropped too: the engine stops recording the executed trace and the
    /// kernel stops accumulating the admitted-jobs set.
    /// [`SimOutcome::admissions`], [`SimOutcome::trace`] and
    /// [`SimOutcome::admitted_jobs`] come back empty; everything else —
    /// counters, energy (bit-for-bit), stats, telemetry — matches the
    /// recording run exactly.
    #[must_use]
    pub fn aggregated(mut self) -> Self {
        self.rm.set_record_trace(false);
        self.aggregate = true;
        // The constructor pulled ahead before the mode flipped on —
        // backfill the per-slot guard flags for already-pulled slots.
        self.guarded.resize(self.requests.len(), false);
        self.peak_live = self.peak_live.max(self.requests.len());
        self
    }

    /// Runs the event loop to quiescence, lets every admitted job finish,
    /// and returns the outcome.
    pub fn run(self) -> SimOutcome {
        self.run_with_scheduler().0
    }

    /// Like [`run`](Simulation::run), but also hands back the scheduler —
    /// the way stateful algorithm internals (META's regime switch count,
    /// EX-MEM's memo statistics) are inspected after a run.
    pub fn run_with_scheduler(mut self) -> (SimOutcome, S) {
        while let Some(event) = self.events.pop() {
            self.handle(event);
        }
        debug_assert!(self.queue.is_empty(), "requests stranded in the queue");
        let total_energy = self.rm.run_to_completion();
        // Fold the tail execution (after the last flush) into the energy
        // series so the summary's energy/job matches the outcome's.
        self.telemetry
            .record_energy(total_energy, self.rm.stats().accepted);
        if self.journal.is_enabled() {
            // Jobs completing in the tail (after the last event) retire
            // inside run_to_completion; close their lifecycles at the
            // final clock.
            let now = self.rm.now();
            for (_, jid) in self.journal_live.drain(..) {
                self.journal
                    .emit(JournalEvent::at(now, EventKind::Completion).request(jid));
            }
        }

        let admissions = if self.aggregate {
            Vec::new()
        } else {
            debug_assert_eq!(
                self.decisions.iter().filter(|d| d.is_none()).count(),
                self.stolen,
                "the undecided slots must be exactly the stolen ones"
            );
            self.decisions.into_iter().flatten().collect()
        };
        let journal = self.journal.snapshot();
        // Test-mode invariant: every sampled request this kernel
        // journaled closed its lifecycle (arrival + completion, reject
        // or steal). Vacuous when the ring evicted events.
        #[cfg(debug_assertions)]
        if let Some(journal) = &journal {
            if let Err(msg) = journal.validate_lifecycles() {
                panic!("journal lifecycle invariant violated at run end: {msg}");
            }
        }
        let outcome = SimOutcome {
            admissions,
            offered: self.offered,
            accepted_total: self.accepted_total,
            total_energy,
            end_time: self.rm.now(),
            stats: self.rm.stats(),
            trace: self.rm.executed_trace(),
            admitted_jobs: JobSet::new(self.admitted),
            queue_deadline_drops: self.queue_deadline_drops,
            stolen: self.stolen,
            peak_live_requests: self.peak_live,
            telemetry: self.telemetry.summary(),
            journal,
        };
        (outcome, self.rm.into_scheduler())
    }

    /// High-water mark of simultaneously tracked request slots. In
    /// aggregated mode this is the flat-memory bound (live = undecided +
    /// guard-pinned); in recording mode it equals the requests pulled so
    /// far, since slots are never recycled.
    pub fn peak_live_requests(&self) -> usize {
        self.peak_live
    }

    /// Pulls the next request from the source and arms its arrival
    /// event, or marks the stream drained. Called once at construction
    /// and once per handled arrival, so the heap holds at most one
    /// pending arrival — the pull-ahead-one discipline that keeps lazy
    /// and materialized streams bit-identical.
    fn pull_next_arrival(&mut self) {
        if self.external {
            return; // the dispatcher injects arrivals instead
        }
        let Some(req) = self.source.next() else {
            self.arrivals_done = true;
            return;
        };
        self.admit_arrival(req);
    }

    /// Validates stream monotonicity, allocates a request slot and arms
    /// the arrival event — shared by the stream pull and external
    /// injection.
    fn admit_arrival(&mut self, req: ScenarioRequest) {
        assert!(
            req.deadline >= req.arrival,
            "request deadline {} before its arrival {}",
            req.deadline,
            req.arrival
        );
        assert!(
            req.arrival >= self.last_arrival,
            "arrival stream regressed: {} after {}",
            req.arrival,
            self.last_arrival
        );
        self.last_arrival = req.arrival;
        let arrival = req.arrival;
        let slot = self.alloc_slot(req);
        self.push_event(arrival, EventClass::Arrival, slot);
    }

    /// Allocates the slot tracking a pulled/injected request: a recycled
    /// one in aggregated mode, a fresh record otherwise. Slot indices
    /// ride in event payloads and the admission queue but never order
    /// events, so recycling cannot perturb the event sequence.
    fn alloc_slot(&mut self, req: ScenarioRequest) -> u32 {
        let slot = if let Some(slot) = self.free_slots.pop() {
            let i = slot as usize;
            debug_assert!(!self.guarded[i], "recycled a guard-pinned slot");
            self.requests[i] = req;
            self.decisions[i] = None;
            slot
        } else {
            let index = u32::try_from(self.requests.len())
                .expect("request index exceeds u32 payload range");
            self.requests.push(req);
            self.decisions.push(None);
            if self.aggregate {
                self.guarded.push(false);
            }
            index
        };
        let live = self.requests.len() - self.free_slots.len();
        self.peak_live = self.peak_live.max(live);
        if self.journal.is_enabled() {
            let id = self.next_journal_id;
            self.next_journal_id += 1;
            let i = slot as usize;
            if i < self.journal_ids.len() {
                self.journal_ids[i] = id;
            } else {
                self.journal_ids.push(id);
            }
        }
        slot
    }

    /// Whether no further arrival can ever be handled: the stream-owned
    /// kernel's drained flag, or — externally driven — a closed stream
    /// with no injected arrival pending. While the *global* last arrival
    /// is being handled both formulations are true, which keeps the
    /// final-flush discipline of a 1-shard federation bit-identical to a
    /// stream-owned run.
    fn arrivals_exhausted(&self) -> bool {
        if self.external {
            self.external_closed && self.pending_arrivals == 0
        } else {
            self.arrivals_done
        }
    }

    /// External mode: injects one dispatcher-routed arrival. Injections
    /// must be non-decreasing in arrival time, mirroring the stream
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics on a stream-owned simulation, after
    /// [`close_stream`](Simulation::close_stream), on a regressing
    /// arrival, or on a deadline before its arrival.
    pub fn inject_request(&mut self, req: ScenarioRequest) {
        assert!(
            self.external,
            "inject_request needs a Simulation::open kernel"
        );
        assert!(!self.external_closed, "arrival stream already closed");
        self.admit_arrival(req);
        self.pending_arrivals += 1;
    }

    /// External mode: handles every event strictly before `t` — the
    /// lockstep epoch advance. The dispatcher picks `t` as the next
    /// epoch's first arrival instant, so the state observed at the
    /// barrier is exactly what a single stream-owned kernel would show
    /// there.
    pub fn advance_until(&mut self, t: f64) {
        debug_assert!(self.external, "advance_until is the dispatcher's tick");
        while let Some(event) = self.events.peek() {
            if event.time >= t {
                break;
            }
            let event = self.events.pop().expect("peeked event vanished");
            self.handle(event);
        }
    }

    /// External mode: declares the global arrival stream over. Injected
    /// arrivals still in flight drain through
    /// [`finalize`](Simulation::finalize).
    pub fn close_stream(&mut self) {
        debug_assert!(self.external, "close_stream is the dispatcher's tick");
        self.external_closed = true;
    }

    /// External mode, after [`close_stream`](Simulation::close_stream):
    /// handles every event up to *and including* `t_close` (the global
    /// stream's last arrival instant), then flushes deferred leftovers
    /// the way a stream-owned kernel flushes them while handling its last
    /// arrival — a shard whose local last arrival predates `t_close` has
    /// no arrival event left to trigger that flush on its own.
    pub fn finalize(&mut self, t_close: f64) {
        debug_assert!(
            self.external && self.external_closed,
            "finalize follows close_stream"
        );
        while let Some(event) = self.events.peek() {
            if event.time > t_close {
                break;
            }
            let event = self.events.pop().expect("peeked event vanished");
            self.handle(event);
        }
        if !self.queue.is_empty() && self.admission.flush_at_stream_end() {
            self.rm.advance_to(t_close.max(self.rm.now()));
            self.sample_utilization();
            self.flush_queue();
            self.telemetry.record_queue_depth(self.queue.len());
            self.rearm_completion();
        }
    }

    /// External mode: removes the most recently queued (still unadmitted)
    /// request so the dispatcher can re-route it to an idle shard.
    /// Returns `None` when the queue is empty. The stolen slot's decision
    /// legitimately stays unmade here — the thief shard decides the
    /// request — and its pending deadline guard goes stale (the pop-time
    /// queue-membership check discards it).
    pub fn steal_queued(&mut self) -> Option<ScenarioRequest> {
        debug_assert!(self.external, "steal_queued is the dispatcher's tick");
        let slot = self.queue.pop_back()?;
        self.stolen += 1;
        let req = self.requests[slot].clone();
        if self.journal.is_enabled() {
            // Terminal on this shard: the request re-arrives (under a
            // fresh journal id) at the thief.
            self.journal.emit(
                JournalEvent::at(self.rm.now(), EventKind::Steal)
                    .request(self.journal_ids[slot])
                    .value(req.deadline),
            );
        }
        // Mirror the queue-drop path: a steal that empties an open
        // gathering window closes it, so the next arrival opens a fresh
        // full-length window instead of joining a stale one.
        if self.queue.is_empty() {
            self.open_window = None;
        }
        self.telemetry.record_queue_depth(self.queue.len());
        if self.aggregate && !self.guarded[slot] {
            self.free_slots
                .push(u32::try_from(slot).expect("slot index fits the event payload"));
        }
        Some(req)
    }

    /// The dispatcher's read-only load view of this shard at a routing
    /// barrier. Injected-but-unhandled arrivals count toward the queue
    /// depth so barrier-time ties are not undercounted.
    pub fn shard_view(&self, shard: usize) -> ShardView {
        let stats = self.rm.stats();
        let now = self.rm.now();
        let snap = self.telemetry.snapshot(now, self.queue.len(), None, None);
        ShardView {
            shard,
            queue_depth: self.queue.len() + self.pending_arrivals,
            running_jobs: stats.accepted - stats.completed,
            utilization: snap.utilization,
            energy_per_job: snap.energy_per_job,
            rolling_acceptance: snap.rolling_acceptance,
            arrival_rate: snap.arrival_rate,
            now,
        }
    }

    /// Records the current platform utilization (busy cores per type
    /// from the execution engine) into the telemetry series.
    fn sample_utilization(&mut self) {
        let busy = self.rm.busy_cores();
        self.telemetry
            .record_utilization(busy.as_slice(), self.rm.platform().counts().as_slice());
    }

    /// Refills the scratch snapshot with the read-only telemetry view at
    /// a decision point: series state plus the kernel's queue depth,
    /// tightest queued slack and open window.
    fn refresh_snapshot(&mut self, now: f64) {
        let min_queued_slack = self
            .queue
            .iter()
            .map(|&i| self.requests[i].deadline - now)
            .min_by(f64::total_cmp);
        self.telemetry.snapshot_into(
            &mut self.snapshot_scratch,
            now,
            self.queue.len(),
            min_queued_slack,
            self.open_window.map(|(_, expiry)| expiry),
        );
    }

    fn push_event(&mut self, time: f64, class: EventClass, payload: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        instrument::record_heap_push();
        #[cfg(debug_assertions)]
        {
            self.pushed_since_pop = true;
        }
        self.events.push(Event {
            time,
            seq,
            payload,
            class,
        });
    }

    fn handle(&mut self, event: Event) {
        instrument::record_event();
        #[cfg(debug_assertions)]
        {
            // Time must never run backwards across pops, and same-instant
            // events must respect the EventClass tie-break unless a
            // handler armed a new event in between.
            let popped = (event.time, event.class as u8);
            if let Some(prev) = self.last_popped {
                if let Some(msg) = amrm_metrics::invariant::pop_order_violation(
                    prev,
                    popped,
                    self.pushed_since_pop,
                ) {
                    panic!("{msg}");
                }
            }
            self.last_popped = Some(popped);
            self.pushed_since_pop = false;
        }
        match event.class {
            EventClass::Arrival => {
                let request = event.payload as usize;
                // Pull ahead before any admission logic so the
                // stream-drained check below sees the true state; the
                // externally driven kernel tracks its in-flight
                // injections for the same check instead.
                if self.external {
                    self.pending_arrivals -= 1;
                } else {
                    self.pull_next_arrival();
                }
                self.rm.advance_to(event.time);
                self.queue.push_back(request);
                instrument::record_queue_depth(self.queue.len());
                self.telemetry.record_arrival(event.time);
                if self.journal.is_enabled() {
                    self.journal.emit(
                        JournalEvent::at(event.time, EventKind::Arrival)
                            .request(self.journal_ids[request])
                            .value(self.requests[request].deadline),
                    );
                }
                self.sample_utilization();
                self.refresh_snapshot(event.time);
                let directive = self
                    .admission
                    .on_arrival(&self.snapshot_scratch, event.time);
                match directive {
                    AdmissionDirective::Flush => {
                        // An explicit flush closes any open window.
                        self.open_window = None;
                        self.flush_queue();
                    }
                    AdmissionDirective::OpenWindow { expiry } => {
                        // Opens a fresh window — or supersedes the running
                        // one (its expiry event goes stale via the id
                        // check): adaptive policies tighten windows this
                        // way when queued slack runs short.
                        let tightened = self.open_window.is_some();
                        let id = self.next_window;
                        self.next_window += 1;
                        self.open_window = Some((id, expiry));
                        self.push_event(expiry, EventClass::WindowExpiry, id);
                        if self.journal.is_enabled() {
                            let kind = if tightened {
                                EventKind::WindowTighten
                            } else {
                                EventKind::WindowOpen
                            };
                            self.journal.emit(
                                JournalEvent::at(event.time, kind)
                                    .request(self.journal_ids[request])
                                    .detail(id)
                                    .value(expiry),
                            );
                        }
                        self.guard_queued_deadline(request);
                    }
                    AdmissionDirective::Defer => {
                        // BatchK never starves a partial final batch.
                        if self.arrivals_exhausted() && self.admission.flush_at_stream_end() {
                            self.flush_queue();
                        } else {
                            self.guard_queued_deadline(request);
                        }
                    }
                }
                // Depth after the directive took effect (0 if flushed) —
                // sampling before the flush would bias the series upward.
                self.telemetry.record_queue_depth(self.queue.len());
                self.rearm_completion();
            }
            EventClass::WindowExpiry => {
                if self.open_window.map(|(id, _)| id) != Some(event.payload) {
                    return; // superseded window, nothing to do
                }
                self.open_window = None;
                if !self.queue.is_empty() {
                    self.rm.advance_to(event.time);
                    self.sample_utilization();
                    self.flush_queue();
                    self.telemetry.record_queue_depth(self.queue.len());
                    self.rearm_completion();
                }
            }
            EventClass::Completion => {
                if event.payload != self.completion_generation {
                    return; // stale: the schedule changed since arming
                }
                // The armed event is the one firing right now.
                self.armed_completion = None;
                // `event.time` is the exact next completion instant, so
                // the consume split matches the sequential driver's.
                self.rm.advance_to(event.time);
                self.rearm_completion();
            }
            EventClass::QueueDeadline => {
                let request = event.payload as usize;
                let was_guarded = if self.aggregate {
                    // Slots recycle only while unguarded, so a popped
                    // guard always belongs to the slot's current (or
                    // last) tenant — never to a later one.
                    debug_assert!(self.guarded[request], "stale guard on a recycled slot");
                    std::mem::replace(&mut self.guarded[request], false)
                } else {
                    false
                };
                let Some(pos) = self.queue.iter().position(|&r| r == request) else {
                    // Already flushed (or stolen): in aggregated mode the
                    // guard was the only thing pinning the slot.
                    if was_guarded {
                        self.free_slots.push(event.payload);
                    }
                    return;
                };
                self.queue.remove(pos);
                self.queue_deadline_drops += 1;
                self.telemetry.record_queue_drop();
                // If the drop emptied an open gathering window, close it:
                // the next arrival must open a fresh full-length window,
                // not join the stale one (its expiry event is skipped via
                // the id check above).
                if self.queue.is_empty() {
                    self.open_window = None;
                }
                self.rm.advance_to(event.time);
                // Submitted alone at its deadline: `submit_batch` rejects
                // it without a scheduler activation once the deadline is
                // no longer in the future (so no activation sample is
                // recorded for the pseudo-flush).
                self.flush_one(request);
                self.telemetry.record_queue_depth(self.queue.len());
                self.rearm_completion();
            }
        }
    }

    /// Flushes the whole admission queue as one batch.
    fn flush_queue(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.flush_scratch);
        batch.clear();
        batch.extend(self.queue.drain(..));
        self.flush_requests(&batch, true);
        self.flush_scratch = batch;
    }

    /// Submits a single (already dequeued) request as a pseudo-flush.
    fn flush_one(&mut self, request: usize) {
        self.flush_requests(&[request], false);
    }

    /// Submits the given (arrival-order index) requests as one batch,
    /// records the decisions and feeds the telemetry series (queue waits,
    /// the activation's gathering latency, rolling acceptance, energy per
    /// job). `record_activation` is false for the queue-deadline
    /// pseudo-flush, which never reaches the scheduler.
    fn flush_requests(&mut self, batch: &[usize], record_activation: bool) {
        instrument::record_flush();
        let now = self.rm.now();
        if record_activation && self.journal.is_enabled() {
            self.journal
                .emit(JournalEvent::at(now, EventKind::Flush).detail(batch.len() as u32));
        }
        for &i in batch {
            self.telemetry
                .record_queue_wait(now - self.requests[i].arrival);
        }
        let mut submissions = std::mem::take(&mut self.submit_scratch);
        submissions.clear();
        submissions.extend(batch.iter().map(|&i| {
            let req = &self.requests[i];
            (AppRef::clone(&req.app), req.deadline)
        }));
        // The context feed: the runtime manager hands this snapshot —
        // series state plus the post-flush queue — to the scheduler in
        // the SchedulingContext of every activation this batch causes.
        self.refresh_snapshot(now);
        self.rm.observe_telemetry(&self.snapshot_scratch);
        let mut admissions = std::mem::take(&mut self.admissions_scratch);
        self.rm.submit_batch_into(&submissions, &mut admissions);
        self.submit_scratch = submissions;
        if record_activation {
            let oldest = batch
                .iter()
                .map(|&i| self.requests[i].arrival)
                .fold(f64::INFINITY, f64::min);
            self.telemetry.record_activation(now - oldest);
        }
        let mut accepted = 0;
        for (pos, (&i, admission)) in batch.iter().zip(&admissions).enumerate() {
            self.decisions[i] = Some((admission.job(), admission.is_accepted()));
            self.offered += 1;
            if self.journal.is_enabled() {
                // Reasons are parallel (in input order) to the batch.
                let reason = self.rm.last_decision_reasons()[pos];
                self.journal_decision(i, now, reason, record_activation);
            }
            if let Admission::Accepted { job } = admission {
                accepted += 1;
                self.accepted_total += 1;
                if self.journal.is_enabled() {
                    let jid = self.journal_ids[i];
                    if self.journal_samples(jid) {
                        self.journal_live.push((*job, jid));
                    }
                }
                if !self.aggregate {
                    let req = &self.requests[i];
                    self.admitted.push(Job::new(
                        *job,
                        AppRef::clone(&req.app),
                        req.arrival,
                        req.deadline,
                        1.0,
                    ));
                }
            }
            // Aggregated mode: the record is folded, recycle the slot —
            // unless a pending deadline guard still points at it (the
            // guard recycles it when it fires).
            if self.aggregate && !self.guarded[i] {
                self.free_slots
                    .push(u32::try_from(i).expect("slot index fits the event payload"));
            }
        }
        self.admissions_scratch = admissions;
        self.telemetry
            .record_decisions(accepted, batch.len() - accepted);
        self.telemetry
            .record_energy(self.rm.total_energy(), self.rm.stats().accepted);
    }

    /// Journals one batch decision as an `admit` (with its
    /// slack-at-admission) or a `reject` (with the reason code). The
    /// queue-deadline pseudo-flush never reaches the scheduler, so its
    /// manager-side `ExpiredBeforeFlush` verdict is reported as the
    /// taxonomy's `QueueDeadline` — the request expired *while queued*,
    /// not merely before its batch flushed.
    fn journal_decision(&self, slot: usize, now: f64, reason: DecisionReason, flushed: bool) {
        let jid = self.journal_ids[slot];
        match reason {
            DecisionReason::Accepted => {
                self.journal.emit(
                    JournalEvent::at(now, EventKind::Admit)
                        .request(jid)
                        .value(self.requests[slot].deadline - now),
                );
            }
            reason => {
                let code = if flushed {
                    match reason {
                        DecisionReason::ExpiredBeforeFlush => RejectReason::ExpiredBeforeFlush,
                        DecisionReason::InfeasibleJointSchedule => {
                            RejectReason::InfeasibleJointSchedule
                        }
                        DecisionReason::RollbackVictim => RejectReason::RollbackVictim,
                        DecisionReason::Accepted => unreachable!("matched above"),
                    }
                } else {
                    RejectReason::QueueDeadline
                };
                self.journal.emit(
                    JournalEvent::at(now, EventKind::Reject)
                        .request(jid)
                        .detail(code as u32),
                );
            }
        }
    }

    /// Emits `completion` events for sampled admitted jobs the engine
    /// has retired since the last sweep. Called (journal-gated) after
    /// every clock advance; the tail after the last event is drained in
    /// [`run_with_scheduler`](Simulation::run_with_scheduler).
    fn sweep_completed_journal(&mut self) {
        if self.journal_live.is_empty() {
            return;
        }
        let now = self.rm.now();
        let engine = self.rm.engine();
        let mut k = 0;
        while k < self.journal_live.len() {
            let (job, jid) = self.journal_live[k];
            if engine.jobs().iter().any(|j| j.id == job) {
                k += 1;
            } else {
                self.journal
                    .emit(JournalEvent::at(now, EventKind::Completion).request(jid));
                self.journal_live.swap_remove(k);
            }
        }
    }

    /// Schedules a queue-deadline guard for a request that stayed queued.
    /// Guards are always armed and filtered at pop time instead: an event
    /// whose request has already been flushed finds it gone from the
    /// queue and is discarded without touching the clock.
    fn guard_queued_deadline(&mut self, request: usize) {
        let deadline = self.requests[request].deadline;
        let index = u32::try_from(request).expect("request index exceeds u32 payload range");
        if self.aggregate {
            debug_assert!(!self.guarded[request], "double guard on one tenancy");
            self.guarded[request] = true;
        }
        self.push_event(deadline, EventClass::QueueDeadline, index);
    }

    /// Keeps the single live completion event armed at the engine's next
    /// completion instant. While that instant is bitwise unchanged the
    /// armed event stays live as-is; when it changed, the generation bump
    /// stales the old event and — if execution continues — a fresh one is
    /// pushed. Stale events are no-ops at pop time, so the dedup only
    /// removes heap churn, never reorders live events.
    ///
    /// Once the stream is exhausted and nothing waits for admission, no
    /// event can change the schedule any more and the tail execution is
    /// left to `run_to_completion` — exactly like the sequential driver,
    /// whose final clock is the *schedule end*, not the last completion.
    fn rearm_completion(&mut self) {
        if self.journal.is_enabled() {
            self.sweep_completed_journal();
        }
        if self.arrivals_exhausted() && self.queue.is_empty() {
            if self.armed_completion.is_some() {
                self.completion_generation = self.completion_generation.wrapping_add(1);
                self.armed_completion = None;
            }
            return;
        }
        let next = self.rm.engine().next_completion();
        let unchanged = match (next, self.armed_completion) {
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            (None, None) => true,
            _ => false,
        };
        if unchanged {
            return;
        }
        self.completion_generation = self.completion_generation.wrapping_add(1);
        self.armed_completion = next;
        if let Some(tc) = next {
            let generation = self.completion_generation;
            self.push_event(tc, EventClass::Completion, generation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_core::{AdaptiveBatch, BatchK, Immediate, MmkpMdf, SlackAware, WindowTau};
    use amrm_model::Schedule;
    use amrm_workload::{
        bursty_window_stream, poisson_stream, scenarios, ArrivalStream, StreamSpec,
    };

    fn lib() -> Vec<AppRef> {
        vec![scenarios::lambda1(), scenarios::lambda2()]
    }

    fn simulate<A: AdmissionPolicy>(admission: A, requests: &[ScenarioRequest]) -> SimOutcome {
        Simulation::new(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            admission,
            requests,
        )
        .run()
    }

    #[test]
    fn immediate_reproduces_fig1c() {
        let outcome = simulate(Immediate, &scenarios::scenario_s1());
        assert_eq!(outcome.accepted(), 2);
        assert!((outcome.total_energy - scenarios::fig1::ADAPTIVE_J).abs() < 5e-3);
        assert_eq!(outcome.stats.activations, 2);
        assert_eq!(outcome.queue_deadline_drops, 0);
    }

    #[test]
    fn batch_k_admits_whole_queue_in_one_activation() {
        // Both S1 requests deferred until the second arrival at t = 1,
        // then admitted atomically.
        let outcome = simulate(BatchK(2), &scenarios::scenario_s1());
        assert_eq!(outcome.accepted(), 2);
        assert_eq!(outcome.stats.activations, 1);
        assert_eq!(outcome.stats.deadline_misses, 0);
    }

    #[test]
    fn batch_leftovers_flush_at_stream_end() {
        // Three requests with k = 2: the trailing odd request must not
        // starve.
        let mut reqs = scenarios::scenario_s1();
        reqs.push(ScenarioRequest {
            app: scenarios::lambda2(),
            arrival: 6.0,
            deadline: 20.0,
        });
        let outcome = simulate(BatchK(2), &reqs);
        assert_eq!(outcome.admissions.len(), 3);
        assert_eq!(outcome.accepted(), 3);
        assert_eq!(outcome.stats.completed, 3);
    }

    #[test]
    fn window_gathers_requests_before_flushing() {
        // A 2-second window opened at t = 0 gathers the t = 1 arrival;
        // admission happens at t = 2 in one joint activation.
        let reqs = vec![
            ScenarioRequest {
                app: scenarios::lambda1(),
                arrival: 0.0,
                deadline: 20.0,
            },
            ScenarioRequest {
                app: scenarios::lambda2(),
                arrival: 1.0,
                deadline: 20.0,
            },
        ];
        let outcome = simulate(WindowTau(2.0), &reqs);
        assert_eq!(outcome.accepted(), 2);
        assert_eq!(outcome.stats.activations, 1);
        assert_eq!(outcome.stats.deadline_misses, 0);
    }

    #[test]
    fn window_gathering_can_cost_acceptance_under_tight_slack() {
        // On S1 itself the 2-second wait eats σ2's slack: the joint batch
        // at t = 2 is infeasible for MMKP-MDF, the rollback path admits
        // only σ1. Batching trades activations against acceptance — the
        // very dimension the policy grid measures.
        let outcome = simulate(WindowTau(2.0), &scenarios::scenario_s1());
        assert_eq!(outcome.accepted(), 1);
        // One joint attempt + two greedy retries.
        assert_eq!(outcome.stats.activations, 3);
        assert_eq!(outcome.stats.deadline_misses, 0);
    }

    #[test]
    fn queued_requests_expiring_before_flush_are_dropped() {
        // A huge window: both S1 deadlines (9.0 and 5.0) pass before the
        // window expires at t = 50, so both requests are dropped at
        // exactly their deadlines and no scheduler activation ever runs.
        let outcome = simulate(WindowTau(50.0), &scenarios::scenario_s1());
        assert_eq!(outcome.accepted(), 0);
        assert_eq!(outcome.rejected(), 2);
        assert_eq!(outcome.queue_deadline_drops, 2);
        assert_eq!(outcome.stats.activations, 0);
        assert_eq!(outcome.total_energy, 0.0);
    }

    #[test]
    fn drop_emptied_window_closes_so_next_arrival_opens_a_fresh_one() {
        // r1 opens a 5 s window at t = 0 but expires (deadline 2) before
        // it flushes, emptying the queue. r2 arriving at t = 3 must open
        // a *fresh* window expiring at t = 8 — not join the stale one
        // expiring at t = 5.
        let reqs = vec![
            ScenarioRequest {
                app: scenarios::lambda2(),
                arrival: 0.0,
                deadline: 2.0,
            },
            ScenarioRequest {
                app: scenarios::lambda2(),
                arrival: 3.0,
                deadline: 20.0,
            },
        ];
        let outcome = simulate(WindowTau(5.0), &reqs);
        assert_eq!(outcome.queue_deadline_drops, 1);
        assert_eq!(outcome.accepted(), 1);
        // r2 is admitted at t = 8 (fresh window) and runs ≥ 2 s from
        // there; a stale-window flush at t = 5 would finish before 8.
        assert!(
            outcome.end_time >= 10.0 - 1e-9,
            "end {} implies the stale window flushed early",
            outcome.end_time
        );
    }

    #[test]
    fn window_zero_matches_immediate_on_poisson_load() {
        let spec = StreamSpec {
            requests: 30,
            slack_range: (1.2, 2.5),
        };
        let stream = poisson_stream(&lib(), 3.0, &spec, 17);
        let immediate = simulate(Immediate, &stream);
        let window = simulate(WindowTau(0.0), &stream);
        assert_eq!(immediate.admissions, window.admissions);
        assert_eq!(
            immediate.total_energy.to_bits(),
            window.total_energy.to_bits()
        );
        assert_eq!(immediate.stats, window.stats);
    }

    #[test]
    fn simultaneous_arrivals_share_a_zero_window() {
        // Two requests at the same instant: WindowTau(0) groups them into
        // one activation, Immediate decides them separately.
        let reqs = vec![
            ScenarioRequest {
                app: scenarios::lambda1(),
                arrival: 0.0,
                deadline: 20.0,
            },
            ScenarioRequest {
                app: scenarios::lambda2(),
                arrival: 0.0,
                deadline: 20.0,
            },
        ];
        let grouped = simulate(WindowTau(0.0), &reqs);
        assert_eq!(grouped.accepted(), 2);
        assert_eq!(grouped.stats.activations, 1);
        let separate = simulate(Immediate, &reqs);
        assert_eq!(separate.accepted(), 2);
        assert_eq!(separate.stats.activations, 2);
    }

    #[test]
    #[should_panic(expected = "invalid admission policy")]
    fn zero_batch_size_panics() {
        let _ = simulate(BatchK(0), &scenarios::scenario_s1());
    }

    #[test]
    fn telemetry_summary_tracks_the_run() {
        let spec = StreamSpec {
            requests: 25,
            slack_range: (1.5, 2.5),
        };
        let stream = poisson_stream(&lib(), 2.0, &spec, 7);
        let outcome = simulate(BatchK(3), &stream);
        let t = &outcome.telemetry;
        assert_eq!(t.arrivals, 25);
        assert!(t.activations >= 1 && t.activations <= outcome.stats.activations);
        assert!(t.arrival_rate > 0.0);
        assert!((0.0..=1.0).contains(&t.utilization));
        assert!((0.0..=1.0).contains(&t.rolling_acceptance));
        // Batching by 3 makes most requests wait in the queue.
        assert!(t.queue_wait_p95 > 0.0);
        assert!(t.queue_wait_p50 <= t.queue_wait_p95);
        assert!(t.activation_latency > 0.0);
        if outcome.accepted() > 0 {
            assert!((t.energy_per_job - outcome.energy_per_job()).abs() < 1e-9);
        }
    }

    #[test]
    fn immediate_telemetry_has_zero_queue_wait() {
        let outcome = simulate(Immediate, &scenarios::scenario_s1());
        assert_eq!(outcome.telemetry.queue_wait_p99, 0.0);
        assert_eq!(outcome.telemetry.activation_latency, 0.0);
        assert_eq!(outcome.telemetry.arrivals, 2);
        assert_eq!(outcome.telemetry.queue_drops, 0);
    }

    #[test]
    fn adaptive_batch_admits_everything_at_sparse_load() {
        // At light load the AIMD policy idles at k = 1 and behaves like
        // the per-request discipline: no queue drops, full acceptance on
        // a stream Immediate fully accepts.
        let spec = StreamSpec {
            requests: 20,
            slack_range: (1.5, 2.5),
        };
        let stream = poisson_stream(&lib(), 20.0, &spec, 13);
        let immediate = simulate(Immediate, &stream);
        let adaptive = simulate(AdaptiveBatch::default(), &stream);
        assert_eq!(adaptive.queue_deadline_drops, 0);
        assert_eq!(adaptive.accepted(), immediate.accepted());
    }

    #[test]
    fn adaptive_batch_batches_under_dense_load() {
        // Dense feasible arrivals with generous slack: the AIMD loop must
        // grow past k = 1 and decide several requests per activation,
        // spending fewer scheduler activations than requests. The fitted
        // gather target (~2.43 s) only batches under genuinely dense
        // load, so the stream runs at one arrival per second.
        let spec = StreamSpec {
            requests: 40,
            slack_range: (6.0, 8.0),
        };
        let stream = poisson_stream(&lib(), 1.0, &spec, 5);
        let outcome = simulate(AdaptiveBatch::default(), &stream);
        assert!(
            outcome.stats.activations < stream.len(),
            "activations {} show no batching over {} requests",
            outcome.stats.activations,
            stream.len()
        );
        assert!(outcome.accepted() > 0);
    }

    #[test]
    fn slack_aware_avoids_window_tau_queue_drops() {
        // A fixed 50 s window drops both S1 requests at their deadlines;
        // SlackAware caps the window by the queued slack and admits.
        let fixed = simulate(WindowTau(50.0), &scenarios::scenario_s1());
        assert_eq!(fixed.accepted(), 0);
        let adaptive = simulate(
            SlackAware {
                max_window: 50.0,
                margin: 2.0,
            },
            &scenarios::scenario_s1(),
        );
        assert_eq!(adaptive.queue_deadline_drops, 0);
        assert!(adaptive.accepted() >= 1);
    }

    #[test]
    fn slack_aware_tightens_open_windows_for_urgent_arrivals() {
        // r1 (slack 30) opens a 10 s window at t = 0; r2 arrives at t = 1
        // with 4 s of slack. The superseded window must close at
        // t = 1 + 4/2 = 3 — early enough for r2 (λ2, fastest point 2 s)
        // to be admitted instead of dropped at t = 5.
        let reqs = vec![
            ScenarioRequest {
                app: scenarios::lambda2(),
                arrival: 0.0,
                deadline: 30.0,
            },
            ScenarioRequest {
                app: scenarios::lambda2(),
                arrival: 1.0,
                deadline: 5.0,
            },
        ];
        let policy = SlackAware {
            max_window: 10.0,
            margin: 1.0,
        };
        let outcome = simulate(policy, &reqs);
        assert_eq!(outcome.queue_deadline_drops, 0);
        assert_eq!(outcome.accepted(), 2);
        // One joint activation decided both.
        assert_eq!(outcome.stats.activations, 1);
        // The fixed window of the same length drops r2 at its deadline.
        let fixed = simulate(WindowTau(10.0), &reqs);
        assert_eq!(fixed.queue_deadline_drops, 1);
        assert_eq!(fixed.accepted(), 1);
    }

    #[test]
    fn adaptive_policies_are_deterministic_per_seed() {
        let spec = StreamSpec {
            requests: 40,
            slack_range: (1.3, 2.5),
        };
        let stream = bursty_window_stream(&lib(), 0.5, 5.0, 12.0, &spec, 21);
        let a = simulate(AdaptiveBatch::default(), &stream);
        let b = simulate(AdaptiveBatch::default(), &stream);
        assert_eq!(a.admissions, b.admissions);
        assert_eq!(a.total_energy.to_bits(), b.total_energy.to_bits());
        let c = simulate(SlackAware::default(), &stream);
        let d = simulate(SlackAware::default(), &stream);
        assert_eq!(c.admissions, d.admissions);
        assert_eq!(c.total_energy.to_bits(), d.total_energy.to_bits());
    }

    #[test]
    #[should_panic(expected = "before its arrival")]
    fn deadline_before_arrival_panics() {
        let reqs = vec![ScenarioRequest {
            app: scenarios::lambda1(),
            arrival: 2.0,
            deadline: 1.0,
        }];
        let _ = simulate(Immediate, &reqs);
    }

    #[test]
    fn event_order_is_deterministic_at_equal_times() {
        let mut heap = BinaryHeap::new();
        heap.push(Event {
            time: 1.0,
            seq: 3,
            payload: 0,
            class: EventClass::WindowExpiry,
        });
        heap.push(Event {
            time: 1.0,
            seq: 1,
            payload: 0,
            class: EventClass::Arrival,
        });
        heap.push(Event {
            time: 1.0,
            seq: 2,
            payload: 0,
            class: EventClass::Completion,
        });
        heap.push(Event {
            time: 1.0,
            seq: 5,
            payload: 0,
            class: EventClass::QueueDeadline,
        });
        heap.push(Event {
            time: 0.5,
            seq: 4,
            payload: 1,
            class: EventClass::Arrival,
        });
        let order: Vec<EventClass> = std::iter::from_fn(|| heap.pop()).map(|e| e.class).collect();
        // Earliest time first; at equal times completion < arrival <
        // window expiry < queue deadline.
        assert_eq!(
            order,
            vec![
                EventClass::Arrival,
                EventClass::Completion,
                EventClass::Arrival,
                EventClass::WindowExpiry,
                EventClass::QueueDeadline,
            ]
        );
    }

    #[test]
    fn queue_deadline_is_the_last_class_at_equal_times() {
        // The #[repr(u8)] discriminants are the one and only encoding of
        // the same-instant tie-break; QueueDeadline must sort after every
        // other class so a same-instant flush wins the tie.
        let classes = [
            EventClass::Completion,
            EventClass::Arrival,
            EventClass::WindowExpiry,
            EventClass::QueueDeadline,
        ];
        for class in classes {
            assert!(class <= EventClass::QueueDeadline);
        }
        assert_eq!(EventClass::Completion as u8, 0);
        assert_eq!(EventClass::Arrival as u8, 1);
        assert_eq!(EventClass::WindowExpiry as u8, 2);
        assert_eq!(EventClass::QueueDeadline as u8, 3);
        // And the event struct stays a compact Copy value.
        assert_eq!(std::mem::size_of::<Event>(), 24);
    }

    #[test]
    fn lazy_stream_matches_materialized_run_bit_for_bit() {
        let spec = StreamSpec {
            requests: 60,
            slack_range: (1.2, 2.5),
        };
        let eager = diurnal_fixture(&spec);
        let materialized = simulate(Immediate, &eager);
        let streamed = Simulation::from_stream(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            Immediate,
            ArrivalStream::diurnal(&lib(), 2.0, 3.0, 60.0, &spec, 23),
        )
        .run();
        assert_eq!(
            materialized.total_energy.to_bits(),
            streamed.total_energy.to_bits()
        );
        assert_eq!(materialized, streamed);
    }

    fn diurnal_fixture(spec: &StreamSpec) -> Vec<ScenarioRequest> {
        ArrivalStream::diurnal(&lib(), 2.0, 3.0, 60.0, spec, 23).collect()
    }

    #[test]
    fn aggregated_outcome_equals_the_fold_of_full_records() {
        // The flat-memory contract: every aggregate counter must equal
        // the corresponding fold over the recording run's per-request
        // records, and the outcome must equal the recording run's with
        // its bulk (per-request records, trace, admitted jobs) cleared.
        let spec = StreamSpec {
            requests: 120,
            slack_range: (1.2, 2.5),
        };
        let build = || {
            Simulation::from_stream(
                scenarios::platform(),
                MmkpMdf::new(),
                ReactivationPolicy::OnArrival,
                BatchK(4),
                ArrivalStream::diurnal(&lib(), 2.0, 3.0, 60.0, &spec, 77),
            )
        };
        let full = build().run();
        let flat = build().aggregated().run();

        // Drops are decided (rejected) records, so the recording run has
        // one record per request regardless of expiries.
        assert_eq!(full.admissions.len(), spec.requests);
        assert_eq!(full.offered, full.admissions.len());
        assert_eq!(
            full.accepted_total,
            full.admissions.iter().filter(|(_, ok)| *ok).count()
        );
        assert!(!full.trace.segments().is_empty());
        assert!(!full.admitted_jobs.is_empty());
        assert_eq!(flat.total_energy.to_bits(), full.total_energy.to_bits());
        let cleared = SimOutcome {
            admissions: Vec::new(),
            trace: Schedule::default(),
            admitted_jobs: JobSet::default(),
            peak_live_requests: flat.peak_live_requests,
            ..full.clone()
        };
        assert_eq!(flat, cleared);

        // Flat memory: recycled slots keep the high-water mark far below
        // the stream length, while the recording run pins every slot.
        assert_eq!(full.peak_live_requests, spec.requests);
        assert!(
            flat.peak_live_requests < spec.requests / 2,
            "aggregated mode must recycle slots: peak {} of {} requests",
            flat.peak_live_requests,
            spec.requests
        );
    }

    #[test]
    #[should_panic(expected = "arrival stream regressed")]
    fn decreasing_stream_panics() {
        let reqs = vec![
            ScenarioRequest {
                app: scenarios::lambda1(),
                arrival: 5.0,
                deadline: 20.0,
            },
            ScenarioRequest {
                app: scenarios::lambda1(),
                arrival: 1.0,
                deadline: 20.0,
            },
        ];
        // from_stream trusts the source's order — a regressing stream
        // must be rejected (Simulation::new sorts instead).
        let _ = Simulation::from_stream(
            scenarios::platform(),
            MmkpMdf::new(),
            ReactivationPolicy::OnArrival,
            Immediate,
            reqs,
        )
        .run();
    }
}
