//! Online telemetry: O(1)-memory time series the runtime feeds and
//! adaptive admission policies read.
//!
//! The `amrm-sim` event kernel owns a [`Telemetry`] recorder and updates
//! it at every arrival, batch flush and window expiry: queue depth,
//! observed arrival rate, platform utilization (busy cores per type),
//! rolling acceptance, energy per admitted job and the admission
//! pipeline's activation latency. All series are either exponentially
//! weighted moving averages ([`Ewma`]) or bounded sample rings
//! ([`RingBuffer`]), so memory stays constant no matter how long the
//! stream runs.
//!
//! At each decision point the kernel hands policies a read-only
//! [`TelemetrySnapshot`]; at the end of a run
//! [`Telemetry::summary`] condenses the series into a serializable
//! [`TelemetrySummary`] (percentile queue waits, mean utilization, …).
//!
//! Every series is derived from *simulated* time and state — never wall
//! clocks — so adaptive policies stay deterministic per seed and two runs
//! of one seed produce equal summaries.
//!
//! # Examples
//!
//! ```
//! use amrm_metrics::Telemetry;
//!
//! let mut t = Telemetry::new();
//! t.record_arrival(0.0);
//! t.record_arrival(2.0);
//! t.record_arrival(4.0);
//! let snap = t.snapshot(4.0, 1, Some(3.5), None);
//! assert!((snap.arrival_rate - 0.5).abs() < 1e-12);
//! assert_eq!(snap.queue_depth, 1);
//! ```

use serde::{Deserialize, Serialize};

use crate::stats::Percentiles;

/// A fixed-capacity ring of `f64` samples: pushing beyond capacity
/// overwrites the oldest sample, so memory is O(capacity) forever.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    data: Vec<f64>,
    capacity: usize,
    /// Write position once the ring is full.
    next: usize,
}

impl RingBuffer {
    /// Creates an empty ring holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs a positive capacity");
        RingBuffer {
            data: Vec::new(),
            capacity,
            next: 0,
        }
    }

    /// Appends a sample, evicting the oldest once full; returns the
    /// evicted sample.
    pub fn push(&mut self, sample: f64) -> Option<f64> {
        if self.data.len() < self.capacity {
            self.data.push(sample);
            None
        } else {
            let evicted = std::mem::replace(&mut self.data[self.next], sample);
            self.next = (self.next + 1) % self.capacity;
            Some(evicted)
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained samples, in no particular order (enough for order-
    /// insensitive statistics like means and percentiles).
    pub fn samples(&self) -> &[f64] {
        &self.data
    }

    /// The most recently pushed sample.
    pub fn last(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else if self.data.len() < self.capacity {
            self.data.last().copied()
        } else {
            Some(self.data[(self.next + self.capacity - 1) % self.capacity])
        }
    }

    /// Arithmetic mean of the retained samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }
}

/// An exponentially weighted moving average: `v ← α·x + (1−α)·v`, with
/// the first sample taken verbatim. O(1) memory, one multiply per update.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an empty average with smoothing factor `alpha ∈ (0, 1]`
    /// (1.0 degenerates to "latest sample wins").
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA smoothing factor must be in (0, 1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Folds a sample into the average and returns the new value.
    pub fn update(&mut self, sample: f64) -> f64 {
        let next = match self.value {
            Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
            None => sample,
        };
        self.value = Some(next);
        next
    }

    /// The current average, or `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The current average, defaulting to 0.0 before the first sample.
    pub fn get(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

/// Read-only view of the telemetry series at one decision point, plus the
/// kernel's queue state (depth, tightest queued slack, open window).
///
/// Every field is derived from simulated time and state — handing this to
/// a stateful policy keeps its decisions deterministic per seed.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// The decision instant (simulated seconds).
    pub now: f64,
    /// Requests currently waiting in the admission queue (including the
    /// one that just arrived, at arrival decision points).
    pub queue_depth: usize,
    /// Tightest `deadline − now` over the queued requests, or `None` when
    /// the queue is empty.
    pub min_queued_slack: Option<f64>,
    /// Absolute expiry of the currently open gathering window, if any.
    pub window_expiry: Option<f64>,
    /// EWMA observed arrival rate in requests per simulated second (0.0
    /// until two arrivals have been seen).
    pub arrival_rate: f64,
    /// EWMA overall platform utilization in `[0, 1]` (busy cores over
    /// total cores).
    pub utilization: f64,
    /// Acceptance rate over the last [`Telemetry::ACCEPTANCE_WINDOW`]
    /// admission decisions; optimistically 1.0 before any decision.
    pub rolling_acceptance: f64,
    /// Metered energy per admitted job so far, in joules (0.0 before the
    /// first admission).
    pub energy_per_job: f64,
    /// EWMA activation latency in simulated seconds: the delay between a
    /// flushed batch's oldest arrival and its scheduler activation — how
    /// long the admission pipeline has recently held requests back.
    pub activation_latency: f64,
    /// 95th-percentile simulated queue wait (arrival → flush) over the
    /// most recent [`Telemetry::SAMPLE_CAPACITY`] flushed requests; 0.0
    /// before the first flush. Simulated time only — together with the
    /// activation-latency EWMA this is the *decision-latency* signal a
    /// budget-adaptive scheduler sizes its search effort from, without
    /// breaking per-seed determinism.
    pub queue_wait_p95: f64,
    /// Requests dropped from the queue at their deadline so far.
    pub queue_drops: usize,
    /// Arrivals observed so far.
    pub arrivals: usize,
    /// Scheduler activations triggered by batch flushes so far.
    pub activations: usize,
}

impl Default for TelemetrySnapshot {
    /// An idle snapshot at t = 0: empty queue, no window, no history
    /// (rolling acceptance starts optimistic at 1.0).
    fn default() -> Self {
        TelemetrySnapshot {
            now: 0.0,
            queue_depth: 0,
            min_queued_slack: None,
            window_expiry: None,
            arrival_rate: 0.0,
            utilization: 0.0,
            rolling_acceptance: 1.0,
            energy_per_job: 0.0,
            activation_latency: 0.0,
            queue_wait_p95: 0.0,
            queue_drops: 0,
            arrivals: 0,
            activations: 0,
        }
    }
}

/// End-of-run condensation of the telemetry series, embedded in
/// `SimOutcome` and (per admission-grid cell) in the perf baseline.
///
/// The queue-wait percentiles are linear-interpolated over the sample
/// ring: exact for a run of at most [`Telemetry::SAMPLE_CAPACITY`]
/// flushed requests, over the most recent that many beyond it, and 0.0
/// when no request was flushed. Every field is simulated time or state,
/// so a summary is reproducible per seed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Arrivals observed.
    pub arrivals: usize,
    /// Batch flushes that reached the scheduler.
    pub activations: usize,
    /// Requests dropped from the admission queue at their deadline.
    pub queue_drops: usize,
    /// Final EWMA arrival rate, requests per simulated second.
    pub arrival_rate: f64,
    /// Final EWMA of the post-event queue depth (sampled after each
    /// directive takes effect, so a flushed queue contributes 0).
    pub queue_depth: f64,
    /// Final EWMA overall utilization in `[0, 1]`.
    pub utilization: f64,
    /// Final EWMA per-core-type utilization in `[0, 1]`.
    pub utilization_per_type: Vec<f64>,
    /// Acceptance rate over the most recent admission decisions.
    pub rolling_acceptance: f64,
    /// Final energy per admitted job, in joules.
    pub energy_per_job: f64,
    /// Final EWMA activation latency (batch gathering delay), simulated
    /// seconds.
    pub activation_latency: f64,
    /// Median queue wait (arrival → flush), simulated seconds.
    pub queue_wait_p50: f64,
    /// 95th-percentile queue wait, simulated seconds.
    pub queue_wait_p95: f64,
    /// 99th-percentile queue wait, simulated seconds.
    pub queue_wait_p99: f64,
}

/// The online telemetry recorder owned by the simulation kernel.
///
/// All series are O(1) memory: EWMAs for the rates and levels, bounded
/// rings for the sample distributions. The kernel calls the `record_*`
/// methods as events are handled; policies only ever see the read-only
/// [`TelemetrySnapshot`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    last_arrival: Option<f64>,
    arrival_gap: Ewma,
    queue_depth: Ewma,
    utilization: Ewma,
    utilization_per_type: Vec<Ewma>,
    activation_latency: Ewma,
    /// 1.0 per accepted / 0.0 per rejected request, most recent
    /// [`Telemetry::ACCEPTANCE_WINDOW`] decisions.
    acceptance: RingBuffer,
    queue_wait: RingBuffer,
    /// Cached queue-wait p95, invalidated whenever a recorded wait changes
    /// the ring's contents: the snapshot is taken on every kernel event
    /// and after every flush's waits, and sorting the sample ring there
    /// would put an O(n log n) pass on the hot event path.
    /// A `Cell` because the lazily recomputed value must be stored from
    /// the `&self` snapshot path (the recorder stays `Send`).
    queue_wait_p95_cache: std::cell::Cell<Option<f64>>,
    total_energy: f64,
    total_accepted: usize,
    queue_drops: usize,
    arrivals: usize,
    activations: usize,
}

impl Telemetry {
    /// EWMA smoothing factor for all rate/level series.
    pub const ALPHA: f64 = 0.2;
    /// Rolling-acceptance window: decisions remembered for the rate.
    pub const ACCEPTANCE_WINDOW: usize = 64;
    /// Ring capacity for the percentile sample series.
    pub const SAMPLE_CAPACITY: usize = 512;

    /// Creates an empty recorder with the default smoothing and ring
    /// capacities.
    pub fn new() -> Self {
        Telemetry {
            last_arrival: None,
            arrival_gap: Ewma::new(Self::ALPHA),
            queue_depth: Ewma::new(Self::ALPHA),
            utilization: Ewma::new(Self::ALPHA),
            utilization_per_type: Vec::new(),
            activation_latency: Ewma::new(Self::ALPHA),
            acceptance: RingBuffer::new(Self::ACCEPTANCE_WINDOW),
            queue_wait: RingBuffer::new(Self::SAMPLE_CAPACITY),
            queue_wait_p95_cache: std::cell::Cell::new(None),
            total_energy: 0.0,
            total_accepted: 0,
            queue_drops: 0,
            arrivals: 0,
            activations: 0,
        }
    }

    /// Records a request arrival at simulated time `now`, updating the
    /// observed inter-arrival gap (and thus the arrival rate).
    pub fn record_arrival(&mut self, now: f64) {
        self.arrivals += 1;
        if let Some(prev) = self.last_arrival {
            self.arrival_gap.update((now - prev).max(0.0));
        }
        self.last_arrival = Some(now);
    }

    /// Records the admission-queue depth after an event.
    pub fn record_queue_depth(&mut self, depth: usize) {
        self.queue_depth.update(depth as f64);
    }

    /// Records platform utilization from per-type busy and capacity core
    /// counts (as reported by the execution engine).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the total capacity
    /// is zero.
    pub fn record_utilization(&mut self, busy: &[u32], capacity: &[u32]) {
        assert_eq!(busy.len(), capacity.len(), "core type count mismatch");
        let total: u32 = capacity.iter().sum();
        assert!(total > 0, "platform must have at least one core");
        if self.utilization_per_type.len() != busy.len() {
            self.utilization_per_type = vec![Ewma::new(Self::ALPHA); busy.len()];
        }
        for (ewma, (&b, &c)) in self
            .utilization_per_type
            .iter_mut()
            .zip(busy.iter().zip(capacity))
        {
            ewma.update(if c == 0 {
                0.0
            } else {
                f64::from(b) / f64::from(c)
            });
        }
        let busy_total: u32 = busy.iter().sum();
        self.utilization
            .update(f64::from(busy_total) / f64::from(total));
    }

    /// Records one scheduler activation caused by a batch flush:
    /// `gather_latency` is the simulated delay between the batch's oldest
    /// arrival and the flush.
    pub fn record_activation(&mut self, gather_latency: f64) {
        self.activations += 1;
        self.activation_latency.update(gather_latency.max(0.0));
    }

    /// Records the simulated queue wait (arrival → flush) of one flushed
    /// request.
    pub fn record_queue_wait(&mut self, wait: f64) {
        let wait = wait.max(0.0);
        let evicted = self.queue_wait.push(wait);
        // A full ring that evicts a sample with the pushed sample's bits
        // holds the same multiset as before, so the cached p95 still holds
        // (every wait is 0 under `Immediate` admission).
        if evicted.map(f64::to_bits) != Some(wait.to_bits()) {
            self.queue_wait_p95_cache.set(None);
        }
    }

    /// Records the decisions of one flushed batch for the rolling
    /// acceptance rate.
    pub fn record_decisions(&mut self, accepted: usize, rejected: usize) {
        for _ in 0..accepted {
            self.acceptance.push(1.0);
        }
        for _ in 0..rejected {
            self.acceptance.push(0.0);
        }
    }

    /// Records a request dropped from the queue at its deadline (its
    /// rejection is recorded separately via
    /// [`record_decisions`](Telemetry::record_decisions)).
    pub fn record_queue_drop(&mut self) {
        self.queue_drops += 1;
    }

    /// Records the cumulative metered energy and admitted-job count, from
    /// which the energy-per-job series derives.
    pub fn record_energy(&mut self, total_energy: f64, total_accepted: usize) {
        self.total_energy = total_energy;
        self.total_accepted = total_accepted;
    }

    /// Energy per admitted job so far, in joules (0.0 before the first
    /// admission).
    pub fn energy_per_job(&self) -> f64 {
        if self.total_accepted == 0 {
            0.0
        } else {
            self.total_energy / self.total_accepted as f64
        }
    }

    /// Floor for the smoothed inter-arrival gap when inverting it into a
    /// rate: a gap EWMA driven to zero by simultaneous burst arrivals
    /// reports a very *high* (but finite, JSON-safe) rate instead of
    /// falling back to 0.0 — the old cold-start underestimate read a
    /// stacked burst as "no load" and delayed reactive schedulers'
    /// heavy-regime entry.
    const MIN_RATE_GAP: f64 = 1e-9;

    /// EWMA arrival rate in requests per simulated second (0.0 until two
    /// arrivals have been observed — one arrival carries no rate
    /// information).
    fn arrival_rate(&self) -> f64 {
        match self.arrival_gap.value() {
            Some(gap) => 1.0 / gap.max(Self::MIN_RATE_GAP),
            None => 0.0,
        }
    }

    /// Acceptance rate over the retained decisions; optimistically 1.0
    /// before any decision.
    fn rolling_acceptance(&self) -> f64 {
        if self.acceptance.is_empty() {
            1.0
        } else {
            self.acceptance.mean()
        }
    }

    /// The read-only view handed to admission policies at a decision
    /// point. Queue state (`queue_depth`, `min_queued_slack`,
    /// `window_expiry`) is the caller's — the kernel owns the queue, the
    /// recorder owns the series.
    pub fn snapshot(
        &self,
        now: f64,
        queue_depth: usize,
        min_queued_slack: Option<f64>,
        window_expiry: Option<f64>,
    ) -> TelemetrySnapshot {
        let mut out = TelemetrySnapshot::default();
        self.snapshot_into(&mut out, now, queue_depth, min_queued_slack, window_expiry);
        out
    }

    /// [`Telemetry::snapshot`] into a caller-owned snapshot: the event
    /// kernel takes one per arrival, so the hot path refills a scratch
    /// struct instead of constructing a fresh one each time. All fields
    /// are overwritten; the previous contents never leak through.
    pub fn snapshot_into(
        &self,
        out: &mut TelemetrySnapshot,
        now: f64,
        queue_depth: usize,
        min_queued_slack: Option<f64>,
        window_expiry: Option<f64>,
    ) {
        out.now = now;
        out.queue_depth = queue_depth;
        out.min_queued_slack = min_queued_slack;
        out.window_expiry = window_expiry;
        out.arrival_rate = self.arrival_rate();
        out.utilization = self.utilization.get();
        out.rolling_acceptance = self.rolling_acceptance();
        out.energy_per_job = self.energy_per_job();
        out.activation_latency = self.activation_latency.get();
        out.queue_wait_p95 = self.queue_wait_p95();
        out.queue_drops = self.queue_drops;
        out.arrivals = self.arrivals;
        out.activations = self.activations;
    }

    /// 95th-percentile simulated queue wait over the retained samples
    /// (0.0 while the ring is empty). Derived from simulated time only,
    /// so snapshots carrying it keep adaptive consumers deterministic.
    /// Recomputed only after a wait sample changed the ring — snapshots
    /// between such changes reuse the cached value.
    fn queue_wait_p95(&self) -> f64 {
        if let Some(cached) = self.queue_wait_p95_cache.get() {
            return cached;
        }
        let p95 = crate::percentile(self.queue_wait.samples(), 95.0).unwrap_or(0.0);
        self.queue_wait_p95_cache.set(Some(p95));
        p95
    }

    /// Condenses the series into the end-of-run summary.
    pub fn summary(&self) -> TelemetrySummary {
        let zero = Percentiles {
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        };
        let wait = Percentiles::from_samples(self.queue_wait.samples()).unwrap_or(zero);
        TelemetrySummary {
            arrivals: self.arrivals,
            activations: self.activations,
            queue_drops: self.queue_drops,
            arrival_rate: self.arrival_rate(),
            queue_depth: self.queue_depth.get(),
            utilization: self.utilization.get(),
            utilization_per_type: self.utilization_per_type.iter().map(Ewma::get).collect(),
            rolling_acceptance: self.rolling_acceptance(),
            energy_per_job: self.energy_per_job(),
            activation_latency: self.activation_latency.get(),
            queue_wait_p50: wait.p50,
            queue_wait_p95: wait.p95,
            queue_wait_p99: wait.p99,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let mut r = RingBuffer::new(3);
        assert!(r.is_empty());
        assert_eq!(r.last(), None);
        for x in [1.0, 2.0, 3.0] {
            r.push(x);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.last(), Some(3.0));
        r.push(4.0); // evicts 1.0
        assert_eq!(r.len(), 3);
        assert_eq!(r.last(), Some(4.0));
        let mut s = r.samples().to_vec();
        s.sort_by(f64::total_cmp);
        assert_eq!(s, vec![2.0, 3.0, 4.0]);
        assert!((r.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_ring_panics() {
        let _ = RingBuffer::new(0);
    }

    #[test]
    fn ewma_smooths_towards_samples() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.get(), 0.0);
        assert_eq!(e.update(4.0), 4.0); // first sample verbatim
        assert_eq!(e.update(0.0), 2.0);
        assert_eq!(e.update(2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn arrival_rate_is_inverse_mean_gap() {
        let mut t = Telemetry::new();
        t.record_arrival(0.0);
        // No gap yet: rate is 0.
        assert_eq!(t.snapshot(0.0, 1, None, None).arrival_rate, 0.0);
        t.record_arrival(2.0);
        t.record_arrival(4.0);
        let snap = t.snapshot(4.0, 2, Some(1.0), None);
        assert!((snap.arrival_rate - 0.5).abs() < 1e-12);
        assert_eq!(snap.arrivals, 3);
        assert_eq!(snap.min_queued_slack, Some(1.0));
    }

    #[test]
    fn rolling_acceptance_starts_optimistic_then_tracks() {
        let mut t = Telemetry::new();
        assert_eq!(t.snapshot(0.0, 0, None, None).rolling_acceptance, 1.0);
        t.record_decisions(3, 1);
        let snap = t.snapshot(1.0, 0, None, None);
        assert!((snap.rolling_acceptance - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utilization_tracks_busy_over_capacity() {
        let mut t = Telemetry::new();
        t.record_utilization(&[2, 2], &[4, 4]);
        let snap = t.snapshot(0.0, 0, None, None);
        assert!((snap.utilization - 0.5).abs() < 1e-12);
        let summary = t.summary();
        assert_eq!(summary.utilization_per_type.len(), 2);
        assert!((summary.utilization_per_type[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn energy_per_job_guards_division() {
        let mut t = Telemetry::new();
        assert_eq!(t.energy_per_job(), 0.0);
        t.record_energy(30.0, 3);
        assert!((t.energy_per_job() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_percentiles_and_counters() {
        let mut t = Telemetry::new();
        t.record_arrival(0.0);
        t.record_arrival(1.0);
        for w in [0.0, 1.0, 2.0, 3.0] {
            t.record_queue_wait(w);
        }
        t.record_activation(1.5);
        t.record_queue_drop();
        t.record_decisions(1, 1);
        let s = t.summary();
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.activations, 1);
        assert_eq!(s.queue_drops, 1);
        assert!((s.queue_wait_p50 - 1.5).abs() < 1e-12);
        assert!(s.queue_wait_p99 > s.queue_wait_p50);
        assert!((s.activation_latency - 1.5).abs() < 1e-12);
        assert!((s.rolling_acceptance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Telemetry::new().summary();
        assert_eq!(s.arrivals, 0);
        assert_eq!(s.queue_wait_p95, 0.0);
        assert_eq!(s.arrival_rate, 0.0);
        // No decisions yet: optimistic acceptance, like the snapshot.
        assert_eq!(s.rolling_acceptance, 1.0);
    }

    #[test]
    fn ewma_cold_start_seeds_the_first_sample_as_the_mean() {
        // Audit pin: the first sample must become the average verbatim —
        // an EWMA that blended it against an implicit 0 would decay from
        // zero and underestimate every early rate/level series.
        for alpha in [0.05, 0.2, 1.0] {
            let mut e = Ewma::new(alpha);
            assert_eq!(e.value(), None, "no sample yet");
            let first = e.update(7.5);
            assert_eq!(first.to_bits(), 7.5f64.to_bits(), "alpha {alpha}");
            assert_eq!(e.get().to_bits(), 7.5f64.to_bits());
        }
    }

    #[test]
    fn simultaneous_burst_arrivals_report_a_high_rate_not_zero() {
        // Regression: a gap EWMA driven to 0 by back-to-back arrivals
        // used to make `arrival_rate` fall back to 0.0 — a stacked burst
        // read as "no load", delaying any reactive consumer's
        // heavy-regime entry. The rate must be very high and finite.
        let mut t = Telemetry::new();
        for _ in 0..4 {
            t.record_arrival(2.0);
        }
        let rate = t.snapshot(2.0, 4, None, None).arrival_rate;
        assert!(rate >= 1e8, "burst rate {rate} still reads as calm");
        assert!(rate.is_finite(), "rate must stay JSON-serializable");
        // A single arrival still carries no rate information.
        let mut cold = Telemetry::new();
        cold.record_arrival(0.0);
        assert_eq!(cold.snapshot(0.0, 1, None, None).arrival_rate, 0.0);
    }

    #[test]
    fn snapshot_carries_the_queue_wait_percentile() {
        let mut t = Telemetry::new();
        assert_eq!(t.snapshot(0.0, 0, None, None).queue_wait_p95, 0.0);
        for w in [0.0, 1.0, 2.0, 3.0] {
            t.record_queue_wait(w);
        }
        let snap = t.snapshot(4.0, 0, None, None);
        assert!((snap.queue_wait_p95 - 2.85).abs() < 1e-12);
        // The snapshot percentile and the summary percentile agree on the
        // same ring (the summary also reports p50/p99).
        assert_eq!(
            snap.queue_wait_p95.to_bits(),
            t.summary().queue_wait_p95.to_bits()
        );
    }

    #[test]
    fn summary_roundtrips_through_serde_json() {
        let mut t = Telemetry::new();
        t.record_arrival(0.0);
        t.record_arrival(0.5);
        t.record_utilization(&[1, 0], &[4, 4]);
        t.record_decisions(2, 0);
        let s = t.summary();
        let text = serde_json::to_string(&s).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
