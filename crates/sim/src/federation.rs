//! Sharded multi-manager federation: one arrival stream, N independent
//! runtime managers behind a routing dispatcher.
//!
//! A single [`Simulation`] — one platform, one scheduler, one admission
//! policy — is the throughput ceiling of the repo's serving story. The
//! [`Federation`] scales past it by running N full simulations ("shards")
//! side by side: a dispatcher consumes one lazy request stream, routes
//! each arrival to a shard through a pluggable
//! [`RoutingPolicy`](amrm_core::RoutingPolicy) (round-robin, join-shortest
//! -queue, energy-aware, per-app hash affinity), and advances all shards
//! in **sim-time lockstep** so the federated run stays deterministic per
//! seed.
//!
//! # Lockstep epochs
//!
//! The dispatcher works in *epochs* of up to
//! [`FederationConfig::epoch`] arrivals:
//!
//! 1. pull the next batch of requests off the stream (one look-ahead
//!    request tells it the next epoch's first arrival — the barrier
//!    instant `t`);
//! 2. refresh a read-only [`ShardView`](amrm_core::ShardView) per shard
//!    (queue depth, in-flight jobs, EWMA utilization, energy/job) —
//!    skipped when the routing policy declares it feedback-free;
//! 3. optionally *steal* still-queued requests from overloaded shards to
//!    idle ones ([`FederationConfig::steal_threshold`]);
//! 4. route the batch **serially** (views get an in-epoch queue-depth
//!    bump per assignment, so feedback policies never dog-pile one shard
//!    within an epoch) and inject each request into its shard;
//! 5. advance every shard, in index order, to the barrier.
//!
//! Everything runs on the dispatcher's thread: between barriers the
//! shards share nothing, and routing, stealing and shard advances happen
//! in one fixed order, so the outcome is deterministic per seed, and a
//! 1-shard federation under `RoundRobin` is bit-identical to the plain
//! kernel (pinned by `tests/federation_equivalence.rs`). The shards'
//! instrument counters accumulate on that thread too, so the reset → run
//! → snapshot profiling convention covers federated runs unchanged.
//!
//! # Examples
//!
//! ```
//! use amrm_core::{Immediate, JoinShortestQueue, MmkpMdf, ReactivationPolicy};
//! use amrm_sim::{Federation, FederationConfig, Simulation};
//! use amrm_workload::{scenarios, ArrivalStream, StreamSpec};
//!
//! let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
//! let spec = StreamSpec { requests: 40, slack_range: (1.5, 2.5) };
//! let shards = (0..2)
//!     .map(|_| {
//!         Simulation::open(
//!             scenarios::platform(),
//!             MmkpMdf::new(),
//!             ReactivationPolicy::OnArrival,
//!             Immediate,
//!         )
//!     })
//!     .collect();
//! let outcome = Federation::new(shards, Box::new(JoinShortestQueue::new()))
//!     .run(ArrivalStream::poisson(&lib, 4.0, &spec, 7));
//! assert_eq!(outcome.offered(), 40);
//! assert_eq!(outcome.shards.len(), 2);
//! ```

use amrm_core::{AdmissionPolicy, RouteRequest, RoutingPolicy, Scheduler, ShardView};
use amrm_metrics::journal::{EventKind, JournalEvent};
use amrm_metrics::{Journal, TraceSink};
use amrm_workload::ScenarioRequest;

use crate::{SimOutcome, Simulation};

/// Dispatcher tuning knobs.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Arrivals routed per lockstep epoch. Coarse epochs refresh the
    /// shard views less often; fine epochs (e.g. 8) give feedback
    /// policies fresher ones. Determinism never depends on it, but
    /// routed *destinations* of feedback policies do — treat it as part
    /// of the experiment configuration.
    pub epoch: usize,
    /// Work-stealing trigger: at each barrier, while a shard's queue
    /// exceeds this threshold and another shard sits idle, one queued
    /// request migrates to the idle shard. `None` disables stealing.
    pub steal_threshold: Option<usize>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            epoch: 64,
            steal_threshold: None,
        }
    }
}

/// The merged result of a federated run.
#[derive(Debug, Clone)]
pub struct FederationOutcome {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<SimOutcome>,
    /// Requests routed to each shard (stolen requests count at the thief,
    /// where they were ultimately decided).
    pub routed: Vec<usize>,
    /// Requests that migrated between shards through work-stealing.
    pub stolen: usize,
    /// The routing policy's label, for reports.
    pub routing: String,
    /// The dispatcher's decision journal (epoch barriers, per-request
    /// routing verdicts, steals), when one was attached with
    /// [`Federation::with_trace`]. Per-shard journals ride inside each
    /// shard's [`SimOutcome::journal`].
    pub journal: Option<Journal>,
}

impl FederationOutcome {
    /// Requests decided across all shards.
    pub fn offered(&self) -> usize {
        self.shards.iter().map(|s| s.offered).sum()
    }

    /// Requests admitted across all shards.
    pub fn accepted(&self) -> usize {
        self.shards.iter().map(|s| s.accepted()).sum()
    }

    /// Federation-wide acceptance rate in `[0, 1]` (0.0 on an empty
    /// stream).
    pub fn acceptance_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        self.accepted() as f64 / offered as f64
    }

    /// Total metered energy across all shards, joules.
    pub fn total_energy(&self) -> f64 {
        self.shards.iter().map(|s| s.total_energy).sum()
    }

    /// Latest shard end time — when the whole federation went quiet.
    pub fn end_time(&self) -> f64 {
        self.shards.iter().map(|s| s.end_time).fold(0.0, f64::max)
    }

    /// Load imbalance as max-over-mean of the per-shard routed counts
    /// (1.0 = perfectly balanced; 0.0 when nothing was routed).
    pub fn imbalance_max_over_mean(&self) -> f64 {
        let mean = self.offered() as f64 / self.routed.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let max = self.routed.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }
}

/// A dispatcher over N externally driven [`Simulation`] shards (built
/// with [`Simulation::open`]) and one [`RoutingPolicy`]. See the module
/// docs for the lockstep protocol.
pub struct Federation<S, A> {
    shards: Vec<Simulation<S, A>>,
    routing: Box<dyn RoutingPolicy + Send>,
    config: FederationConfig,
    /// The dispatcher's own journal sink (disabled by default). Shards
    /// keep per-shard journals instead (see [`Simulation::with_journal`]).
    trace: TraceSink,
}

impl<S: Scheduler, A: AdmissionPolicy> Federation<S, A> {
    /// Builds a federation over `shards` with the default
    /// [`FederationConfig`] (epoch 64, no stealing).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the routing policy fails
    /// [`validate`](RoutingPolicy::validate).
    pub fn new(shards: Vec<Simulation<S, A>>, routing: Box<dyn RoutingPolicy + Send>) -> Self {
        assert!(!shards.is_empty(), "a federation needs at least one shard");
        if let Err(msg) = routing.validate() {
            panic!("invalid routing policy: {msg}");
        }
        Federation {
            shards,
            routing,
            config: FederationConfig::default(),
            trace: TraceSink::disabled(),
        }
    }

    /// Builder-style dispatcher configuration.
    #[must_use]
    pub fn with_config(mut self, config: FederationConfig) -> Self {
        assert!(config.epoch > 0, "epochs must route at least one arrival");
        self.config = config;
        self
    }

    /// Attaches a journal sink to the *dispatcher*: epoch barriers,
    /// per-request routing verdicts (policy target and the queue depth
    /// seen) and steals are journaled in dispatch order. Give each shard
    /// its own journal via [`Simulation::with_journal`].
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Consumes `stream`, routing every request to a shard and advancing
    /// the shards in lockstep, then drains all shards to quiescence and
    /// merges the per-shard outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the routing policy returns an out-of-range shard index,
    /// or on the stream contract violations [`Simulation::from_stream`]
    /// rejects (regressing arrivals, deadline before arrival).
    pub fn run<I>(mut self, stream: I) -> FederationOutcome
    where
        I: IntoIterator<Item = ScenarioRequest>,
    {
        let n = self.shards.len();
        let mut stream = stream.into_iter();
        let mut views: Vec<ShardView> = (0..n).map(ShardView::idle).collect();
        let mut routed = vec![0usize; n];
        let mut stolen = 0usize;
        let mut batch: Vec<ScenarioRequest> = Vec::with_capacity(self.config.epoch);
        let needs_feedback = self.routing.needs_feedback();
        // One request of look-ahead: its arrival is the next barrier.
        let mut pending = stream.next();
        // The instant every shard has been advanced to so far; stolen
        // requests are re-injected as arrivals at this barrier time.
        let mut advanced_to = f64::NEG_INFINITY;
        let mut last_arrival = 0.0;
        let mut epoch_ordinal: u32 = 0;

        while let Some(first) = pending.take() {
            last_arrival = first.arrival;
            batch.clear();
            batch.push(first);
            while batch.len() < self.config.epoch {
                match stream.next() {
                    Some(req) => {
                        last_arrival = req.arrival;
                        batch.push(req);
                    }
                    None => break,
                }
            }
            pending = stream.next();

            let stealing = self.config.steal_threshold.is_some();
            if needs_feedback || stealing {
                self.refresh_views(&mut views);
            }
            if let Some(threshold) = self.config.steal_threshold {
                if advanced_to.is_finite() {
                    stolen += self.steal_pass(threshold, advanced_to, &mut views, &mut routed);
                }
            }
            let epoch_arrivals = batch.len();
            for req in batch.drain(..) {
                let target = self.routing.route(
                    &RouteRequest {
                        app: req.app.name(),
                        arrival: req.arrival,
                        deadline: req.deadline,
                    },
                    &views,
                );
                assert!(
                    target < n,
                    "routing policy `{}` picked shard {target} of {n}",
                    self.routing.label()
                );
                if self.trace.is_enabled() {
                    // The verdict and the load the policy saw making it.
                    self.trace.emit(
                        JournalEvent::at(req.arrival, EventKind::Route)
                            .detail(target as u32)
                            .value(views[target].queue_depth as f64),
                    );
                }
                views[target].queue_depth += 1;
                routed[target] += 1;
                self.shards[target].inject_request(req);
            }

            if let Some(next) = &pending {
                let barrier = next.arrival;
                if self.trace.is_enabled() {
                    self.trace.emit(
                        JournalEvent::at(barrier, EventKind::EpochBarrier)
                            .detail(epoch_ordinal)
                            .value(epoch_arrivals as f64),
                    );
                }
                for shard in &mut self.shards {
                    shard.advance_until(barrier);
                }
                advanced_to = barrier;
            }
            epoch_ordinal = epoch_ordinal.wrapping_add(1);
        }

        // Stream over: drain in-flight arrivals and flush deferred
        // leftovers at the global last-arrival instant, then run each
        // shard to quiescence.
        let shards = self
            .shards
            .into_iter()
            .map(|mut shard| {
                shard.close_stream();
                shard.finalize(last_arrival);
                shard.run()
            })
            .collect();

        FederationOutcome {
            shards,
            routed,
            stolen,
            routing: self.routing.label(),
            journal: self.trace.snapshot(),
        }
    }

    /// Refreshes the per-shard routing views at a barrier.
    fn refresh_views(&self, views: &mut [ShardView]) {
        for (i, view) in views.iter_mut().enumerate() {
            *view = self.shards[i].shard_view(i);
        }
    }

    /// One barrier's work-stealing sweep: while some shard queues more
    /// than `threshold` requests and another sits fully idle, the newest
    /// queued request migrates to the idle shard (re-injected as an
    /// arrival at the barrier instant, which every still-queued request's
    /// deadline is guaranteed to reach). Deterministic: thieves are
    /// scanned in index order, victims by deepest queue.
    fn steal_pass(
        &mut self,
        threshold: usize,
        barrier: f64,
        views: &mut [ShardView],
        routed: &mut [usize],
    ) -> usize {
        let mut moved = 0;
        for thief in 0..views.len() {
            loop {
                if views[thief].queue_depth > 0 || views[thief].running_jobs > 0 {
                    break;
                }
                let Some(victim) = views
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.queue_depth > threshold)
                    .max_by_key(|(_, v)| v.queue_depth)
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let Some(req) = self.shards[victim].steal_queued() else {
                    break;
                };
                if self.trace.is_enabled() {
                    self.trace.emit(
                        JournalEvent::at(barrier, EventKind::Steal)
                            .detail(thief as u32)
                            .value(victim as f64)
                            .aux(views[victim].queue_depth as f64),
                    );
                }
                views[victim].queue_depth -= 1;
                views[thief].queue_depth += 1;
                routed[victim] -= 1;
                routed[thief] += 1;
                moved += 1;
                self.shards[thief].inject_request(ScenarioRequest {
                    arrival: barrier,
                    ..req
                });
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_core::{BatchK, HashAffinity, Immediate, MmkpMdf, ReactivationPolicy, RoundRobin};
    use amrm_metrics::instrument;
    use amrm_model::AppRef;
    use amrm_workload::{scenarios, ArrivalStream, StreamSpec};

    fn lib() -> Vec<AppRef> {
        vec![scenarios::lambda1(), scenarios::lambda2()]
    }

    fn open_shards(n: usize) -> Vec<Simulation<MmkpMdf, Immediate>> {
        (0..n)
            .map(|_| {
                Simulation::open(
                    scenarios::platform(),
                    MmkpMdf::new(),
                    ReactivationPolicy::OnArrival,
                    Immediate,
                )
            })
            .collect()
    }

    fn stream(requests: usize, seed: u64) -> ArrivalStream {
        let spec = StreamSpec {
            requests,
            slack_range: (1.5, 2.5),
        };
        ArrivalStream::poisson(&lib(), 4.0, &spec, seed)
    }

    #[test]
    fn every_request_is_decided_exactly_once() {
        for routing in amrm_core::routing::standard_policies() {
            let label = routing.label();
            let outcome = Federation::new(open_shards(3), routing).run(stream(60, 11));
            assert_eq!(outcome.offered(), 60, "{label}");
            assert_eq!(outcome.routed.iter().sum::<usize>(), 60, "{label}");
            for (shard, &count) in outcome.shards.iter().zip(&outcome.routed) {
                assert_eq!(shard.offered, count, "{label}");
            }
            assert_eq!(outcome.routing, label);
        }
    }

    #[test]
    fn round_robin_routes_evenly() {
        let outcome =
            Federation::new(open_shards(4), Box::new(RoundRobin::new())).run(stream(80, 3));
        assert_eq!(outcome.routed, vec![20, 20, 20, 20]);
        assert!((outcome.imbalance_max_over_mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hash_affinity_keeps_each_app_on_one_shard() {
        let spec = StreamSpec {
            requests: 50,
            slack_range: (1.5, 2.5),
        };
        let reqs: Vec<ScenarioRequest> = ArrivalStream::poisson(&lib(), 4.0, &spec, 9).collect();
        let outcome = Federation::new(open_shards(4), Box::new(HashAffinity::new()))
            .run(reqs.iter().cloned());
        // Two apps → at most two shards ever see traffic.
        let busy = outcome.routed.iter().filter(|&&c| c > 0).count();
        assert!(busy <= 2, "routed {:?}", outcome.routed);
        assert_eq!(outcome.offered(), 50);
    }

    #[test]
    fn counters_total_every_shard() {
        // The shards advance on the calling thread, so its instrument
        // counters see every shard's flushes and scheduler activations,
        // at the epoch barriers (epoch 8 of 60 arrivals) and in the tail.
        for routing in amrm_core::routing::standard_policies() {
            let label = routing.label();
            let _ = instrument::take();
            let outcome = Federation::new(open_shards(3), routing)
                .with_config(FederationConfig {
                    epoch: 8,
                    steal_threshold: None,
                })
                .run(stream(60, 13));
            let counters = instrument::take();
            let activations: usize = outcome.shards.iter().map(|s| s.stats.activations).sum();
            assert_eq!(counters.flushes, outcome.offered() as u64, "{label}");
            assert_eq!(counters.schedule_calls, activations as u64, "{label}");
        }
    }

    #[test]
    fn work_stealing_migrates_queued_requests_to_idle_shards() {
        // Hash affinity pins both apps' traffic onto ≤ 2 of 4 shards, and
        // BatchK(8) keeps requests queued between flushes — the idle
        // shards must pick queued work up once stealing is enabled. The
        // stream arrives much faster than the queue deadlines expire
        // (mean interarrival 0.2 with generous slack), and the epoch (6)
        // is deliberately not a multiple of the batch size, so barriers
        // observe non-empty queues.
        let build = || {
            (0..4)
                .map(|_| {
                    Simulation::open(
                        scenarios::platform(),
                        MmkpMdf::new(),
                        ReactivationPolicy::OnArrival,
                        BatchK(8),
                    )
                })
                .collect::<Vec<_>>()
        };
        let config = |steal| FederationConfig {
            epoch: 6,
            steal_threshold: steal,
        };
        let fast = || {
            let spec = StreamSpec {
                requests: 80,
                slack_range: (6.0, 9.0),
            };
            ArrivalStream::poisson(&lib(), 0.2, &spec, 29)
        };
        let without = Federation::new(build(), Box::new(HashAffinity::new()))
            .with_config(config(None))
            .run(fast());
        assert_eq!(without.stolen, 0);
        let with = Federation::new(build(), Box::new(HashAffinity::new()))
            .with_config(config(Some(2)))
            .run(fast());
        assert!(with.stolen > 0, "no steals despite pinned overload");
        assert_eq!(with.offered(), 80, "stolen requests must still be decided");
        let idle_without = without.routed.iter().filter(|&&c| c == 0).count();
        let idle_with = with.routed.iter().filter(|&&c| c == 0).count();
        assert!(idle_with < idle_without, "stealing must engage idle shards");
        let total_stolen: usize = with.shards.iter().map(|s| s.stolen).sum();
        assert_eq!(total_stolen, with.stolen);
    }

    #[test]
    fn aggregated_shards_report_the_same_counters() {
        let full = Federation::new(open_shards(2), Box::new(RoundRobin::new())).run(stream(60, 41));
        let lean_shards: Vec<_> = (0..2)
            .map(|_| {
                Simulation::open(
                    scenarios::platform(),
                    MmkpMdf::new(),
                    ReactivationPolicy::OnArrival,
                    Immediate,
                )
                .aggregated()
            })
            .collect();
        let lean = Federation::new(lean_shards, Box::new(RoundRobin::new())).run(stream(60, 41));
        assert_eq!(lean.offered(), full.offered());
        assert_eq!(lean.accepted(), full.accepted());
        assert_eq!(lean.total_energy().to_bits(), full.total_energy().to_bits());
        for (a, b) in lean.shards.iter().zip(&full.shards) {
            assert!(a.admissions.is_empty());
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.stats, b.stats);
            assert!(a.peak_live_requests <= b.peak_live_requests);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_federation_panics() {
        let _ = Federation::new(open_shards(0), Box::new(RoundRobin::new()));
    }
}
