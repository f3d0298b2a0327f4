//! Request routing across a federation of runtime managers: *which* shard
//! an arriving request is dispatched to.
//!
//! One runtime manager owns one platform; scaling past a single manager's
//! throughput means running N managers side by side behind a dispatcher.
//! A [`RoutingPolicy`] is the third pluggable axis next to schedulers and
//! admission policies: the dispatcher calls
//! [`route`](RoutingPolicy::route) once per arriving request with a
//! read-only [`ShardView`] per shard (queue depth, in-flight jobs, EWMA
//! utilization, energy per job — the same telemetry signals E-Mapper
//! routes on at the OS level) and the policy picks a shard index.
//!
//! Everything a policy can observe is simulated time and state, so
//! routing decisions stay deterministic per stream seed — the federation
//! routes and advances its shards serially on one thread, and the views
//! it hands over are refreshed at deterministic sim-time barriers.
//!
//! Like [`AdmissionPolicy`](crate::AdmissionPolicy), implementations are
//! labelled ([`label`](RoutingPolicy::label)) and validated
//! ([`validate`](RoutingPolicy::validate)); the `repro shard` grid keys
//! rows by the label.

/// The routed view of one arriving request.
///
/// Borrowed fields only — the routing tier lives below the workload crate,
/// so it sees the request's identity (application name), its timing, and
/// nothing else.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest<'a> {
    /// Name of the requested application (the [`HashAffinity`] key).
    pub app: &'a str,
    /// Absolute arrival time, simulated seconds.
    pub arrival: f64,
    /// Absolute deadline, simulated seconds.
    pub deadline: f64,
}

/// A read-only snapshot of one shard's load at a routing barrier.
///
/// Refreshed by the dispatcher at every routing epoch; `queue_depth` is
/// additionally bumped in-epoch as requests are assigned, so
/// feedback-driven policies ([`JoinShortestQueue`], [`EnergyAware`]) see
/// their own routing decisions immediately instead of dog-piling one
/// shard within an epoch.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// Index of the shard this view describes.
    pub shard: usize,
    /// Requests waiting in the shard's admission queue, plus requests
    /// already routed to it in the current epoch.
    pub queue_depth: usize,
    /// Jobs admitted and not yet completed on the shard.
    pub running_jobs: usize,
    /// The shard's EWMA platform utilization in `[0, 1]`.
    pub utilization: f64,
    /// The shard's metered energy per admitted job, joules.
    pub energy_per_job: f64,
    /// The shard's rolling acceptance rate.
    pub rolling_acceptance: f64,
    /// The shard's EWMA arrival rate, requests per simulated second.
    pub arrival_rate: f64,
    /// The shard's local clock (simulated seconds).
    pub now: f64,
}

impl ShardView {
    /// An idle view of shard `shard` at t = 0 (no queue, no history).
    pub fn idle(shard: usize) -> Self {
        ShardView {
            shard,
            queue_depth: 0,
            running_jobs: 0,
            utilization: 0.0,
            energy_per_job: 0.0,
            rolling_acceptance: 1.0,
            arrival_rate: 0.0,
            now: 0.0,
        }
    }
}

/// A dispatcher routing policy: picks the shard an arriving request is
/// federated to.
///
/// # Implementing a custom policy
///
/// ```
/// use amrm_core::routing::{RouteRequest, RoutingPolicy, ShardView};
///
/// /// Sends tight-deadline requests to shard 0, the rest round-robin.
/// struct SlackSplit {
///     next: usize,
/// }
///
/// impl RoutingPolicy for SlackSplit {
///     fn route(&mut self, req: &RouteRequest<'_>, shards: &[ShardView]) -> usize {
///         if req.deadline - req.arrival < 1.0 || shards.len() == 1 {
///             return 0;
///         }
///         self.next = self.next % (shards.len() - 1) + 1;
///         self.next
///     }
///     fn label(&self) -> String {
///         "SlackSplit".to_string()
///     }
/// }
/// ```
pub trait RoutingPolicy {
    /// Picks the shard for `req`. `shards` is non-empty and indexed by
    /// shard; the returned index must be `< shards.len()`.
    fn route(&mut self, req: &RouteRequest<'_>, shards: &[ShardView]) -> usize;

    /// A short stable label (`"RoundRobin"`, `"JSQ"`) — the key used by
    /// shard reports and the perf baseline. Distinct policy
    /// configurations should never share a label.
    fn label(&self) -> String;

    /// Checks the policy's configuration invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Whether the policy reads the shard views at all. Feedback-free
    /// policies ([`RoundRobin`], [`HashAffinity`]) let the dispatcher
    /// skip per-request view refreshes and use coarse routing epochs
    /// without affecting where anything lands.
    fn needs_feedback(&self) -> bool {
        true
    }
}

impl<P: RoutingPolicy + ?Sized> RoutingPolicy for Box<P> {
    fn route(&mut self, req: &RouteRequest<'_>, shards: &[ShardView]) -> usize {
        (**self).route(req, shards)
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn validate(&self) -> Result<(), String> {
        (**self).validate()
    }

    fn needs_feedback(&self) -> bool {
        (**self).needs_feedback()
    }
}

/// Cycles through the shards in order, ignoring load. The baseline every
/// feedback-driven policy is measured against, and the policy under which
/// a 1-shard federation must be bit-identical to a plain simulation.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A fresh cycler starting at shard 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl RoutingPolicy for RoundRobin {
    fn route(&mut self, _req: &RouteRequest<'_>, shards: &[ShardView]) -> usize {
        let pick = self.next % shards.len();
        self.next = (self.next + 1) % shards.len();
        pick
    }

    fn label(&self) -> String {
        "RoundRobin".to_string()
    }

    fn needs_feedback(&self) -> bool {
        false
    }
}

/// Joins the shortest queue: routes to the shard with the fewest waiting
/// plus running requests, breaking ties toward the lowest index.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueue;

impl JoinShortestQueue {
    /// The classic JSQ policy.
    pub fn new() -> Self {
        JoinShortestQueue
    }
}

impl RoutingPolicy for JoinShortestQueue {
    fn route(&mut self, _req: &RouteRequest<'_>, shards: &[ShardView]) -> usize {
        shards
            .iter()
            .map(|s| s.queue_depth + s.running_jobs)
            .enumerate()
            .min_by_key(|&(_, load)| load)
            .map(|(i, _)| i)
            .expect("dispatcher hands at least one shard view")
    }

    fn label(&self) -> String {
        "JSQ".to_string()
    }
}

/// Routes to the shard whose telemetry shows the lowest EWMA utilization,
/// breaking utilization ties by lower metered energy per job, then lower
/// index — the E-Mapper discipline lifted to the federation tier: spare
/// (and cheap) capacity attracts work.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyAware;

impl EnergyAware {
    /// The telemetry-driven energy/utilization router.
    pub fn new() -> Self {
        EnergyAware
    }
}

impl RoutingPolicy for EnergyAware {
    fn route(&mut self, _req: &RouteRequest<'_>, shards: &[ShardView]) -> usize {
        shards
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| {
                a.utilization
                    .total_cmp(&b.utilization)
                    .then(a.energy_per_job.total_cmp(&b.energy_per_job))
                    .then(ia.cmp(ib))
            })
            .map(|(i, _)| i)
            .expect("dispatcher hands at least one shard view")
    }

    fn label(&self) -> String {
        "EnergyAware".to_string()
    }
}

/// Sticks every request of one application to one shard, by hashing the
/// application name. Keeps per-app history (and any per-app scheduler
/// state) on a single manager at the cost of ignoring load.
///
/// Uses FNV-1a over the app-name bytes — a fixed, portable hash, so
/// placements are stable across platforms and Rust versions (unlike
/// `DefaultHasher`, whose algorithm is explicitly unspecified).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashAffinity;

impl HashAffinity {
    /// The per-app sticky router.
    pub fn new() -> Self {
        HashAffinity
    }

    /// FNV-1a over `bytes` (64-bit offset basis / prime).
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

impl RoutingPolicy for HashAffinity {
    fn route(&mut self, req: &RouteRequest<'_>, shards: &[ShardView]) -> usize {
        (Self::fnv1a(req.app.as_bytes()) % shards.len() as u64) as usize
    }

    fn label(&self) -> String {
        "HashAffinity".to_string()
    }

    fn needs_feedback(&self) -> bool {
        false
    }
}

/// All built-in routing policies, in report order. The `repro shard` grid
/// sweeps exactly this set.
pub fn standard_policies() -> Vec<Box<dyn RoutingPolicy + Send>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(JoinShortestQueue::new()),
        Box::new(EnergyAware::new()),
        Box::new(HashAffinity::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req<'a>(app: &'a str) -> RouteRequest<'a> {
        RouteRequest {
            app,
            arrival: 1.0,
            deadline: 3.0,
        }
    }

    fn views(n: usize) -> Vec<ShardView> {
        (0..n).map(ShardView::idle).collect()
    }

    #[test]
    fn standard_policy_labels_are_stable_and_distinct() {
        let policies = standard_policies();
        let labels: Vec<String> = policies.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["RoundRobin", "JSQ", "EnergyAware", "HashAffinity"]);
        for p in &policies {
            p.validate().expect("built-in policies validate");
        }
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let mut rr = RoundRobin::new();
        let v = views(3);
        let picks: Vec<usize> = (0..7).map(|_| rr.route(&req("a"), &v)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2, 0]);
        assert!(!rr.needs_feedback());
    }

    #[test]
    fn jsq_picks_least_loaded_counting_running_jobs() {
        let mut jsq = JoinShortestQueue::new();
        let mut v = views(3);
        v[0].queue_depth = 2;
        v[1].queue_depth = 1;
        v[1].running_jobs = 2;
        v[2].queue_depth = 2;
        v[2].running_jobs = 0;
        // Loads are [2, 3, 2]: the tie breaks toward the lowest index.
        assert_eq!(jsq.route(&req("a"), &v), 0);
        v[0].running_jobs = 1;
        assert_eq!(jsq.route(&req("a"), &v), 2);
        assert!(jsq.needs_feedback());
    }

    #[test]
    fn energy_aware_orders_by_utilization_then_energy() {
        let mut ea = EnergyAware::new();
        let mut v = views(3);
        v[0].utilization = 0.8;
        v[1].utilization = 0.2;
        v[2].utilization = 0.5;
        assert_eq!(ea.route(&req("a"), &v), 1);
        v[1].utilization = 0.5;
        v[1].energy_per_job = 4.0;
        v[2].energy_per_job = 2.0;
        // Utilization tie between shards 1 and 2 → cheaper energy wins.
        assert_eq!(ea.route(&req("a"), &v), 2);
    }

    #[test]
    fn hash_affinity_is_sticky_and_spreads_apps() {
        let mut ha = HashAffinity::new();
        let v = views(4);
        let a = ha.route(&req("audio-filter"), &v);
        for _ in 0..5 {
            assert_eq!(ha.route(&req("audio-filter"), &v), a);
        }
        // Pinned FNV-1a placements: stickiness across runs and platforms
        // is the whole point, so a silent hash change must fail loudly.
        let apps = ["audio-filter", "fft", "matmul", "sobel"];
        let placed: Vec<usize> = apps.iter().map(|n| ha.route(&req(n), &v)).collect();
        let expected: Vec<usize> = apps
            .iter()
            .map(|n| (HashAffinity::fnv1a(n.as_bytes()) % 4) as usize)
            .collect();
        assert_eq!(placed, expected);
        assert!(!ha.needs_feedback());
    }

    #[test]
    fn boxed_policies_delegate() {
        let mut boxed: Box<dyn RoutingPolicy> = Box::new(RoundRobin::new());
        let v = views(2);
        assert_eq!(boxed.route(&req("a"), &v), 0);
        assert_eq!(boxed.route(&req("a"), &v), 1);
        assert_eq!(boxed.label(), "RoundRobin");
        assert!(boxed.validate().is_ok());
        assert!(!boxed.needs_feedback());
    }

    #[test]
    fn single_shard_routes_to_zero_under_every_policy() {
        let v = views(1);
        for mut p in standard_policies() {
            for app in ["a", "b", "c"] {
                assert_eq!(p.route(&req(app), &v), 0, "{}", p.label());
            }
        }
    }
}
