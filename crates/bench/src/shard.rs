//! Sharded-federation benchmark (`repro shard`).
//!
//! One lazy arrival stream fans out over N independent runtime managers
//! through the [`Federation`](amrm_sim::Federation) dispatcher; this
//! module measures what that buys and what it costs:
//!
//! * **weak scaling** — shard counts × routing policies on the diurnal
//!   profile stream at *fixed per-shard load* (the offered rate scales
//!   with the shard count), reporting aggregate requests/s and events/s
//!   (the dispatcher advances every shard on one thread, so these rows
//!   show what each extra shard costs it);
//! * **skewed routing** — a fixed shard count on a hotspot stream (one
//!   application dominates the mix), where feedback routing
//!   (join-shortest-queue, energy-aware) must beat blind round-robin on
//!   acceptance, plus one affinity-with-work-stealing row.
//!
//! Every cell runs the shards in **lean aggregated outcome mode**
//! ([`Simulation::aggregated`]) so multi-million-request federated runs
//! stay flat in memory, and every simulated column is deterministic per
//! seed (the dispatcher advances shards serially in sim-time lockstep).

use std::time::Instant;

use amrm_baselines::{standard_registry, MDF_NAME};
use amrm_core::routing::standard_policies;
use amrm_core::{
    AdmissionPolicy, BatchK, Immediate, ReactivationPolicy, RoutingPolicy, Scheduler, SearchBudget,
};
use amrm_metrics::{instrument, TextTable};
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_sim::{Federation, FederationConfig, Simulation};
use amrm_workload::{ArrivalStream, StreamSpec};
use serde::{Deserialize, Serialize};

/// Shard counts of the weak-scaling sweep.
pub const WEAK_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Shard count of the skewed-routing rows.
pub const SKEWED_SHARDS: usize = 4;

// The weak-scaling stream mirrors the kernel profile's diurnal shape
// (mean inter-arrival 0.5 s swinging ×3 over 600 s) so 1-shard rows are
// directly comparable with `repro profile`; N-shard rows divide the mean
// inter-arrival by N to hold per-shard load fixed.
const WEAK_MEAN_INTERARRIVAL: f64 = 0.5;
const WEAK_PEAK_FACTOR: f64 = 3.0;
const WEAK_PERIOD: f64 = 600.0;
const SLACK_RANGE: (f64, f64) = (1.5, 3.0);

// The skewed stream mixes the single most expensive application into an
// otherwise-uniform draw at a load where shards hover near the admission
// feasibility edge.  Both knobs matter for the routing comparison: the
// moderate hot fraction keeps service times *heterogeneous* (under a
// near-homogeneous mix, blind round-robin's perfect count balance is
// already optimal and feedback routing has nothing to exploit), and the
// short dispatch epoch keeps shard views fresh enough for
// join-shortest-queue to dodge the shards still chewing on a hot job.
const SKEW_MEAN_INTERARRIVAL: f64 = 1.0;
const SKEW_HOT_FRACTION: f64 = 0.3;
const SKEW_SLACK_RANGE: (f64, f64) = (1.2, 2.0);
const SKEW_EPOCH: usize = 2;

/// One federated run: a (stream, routing policy, shard count) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardCell {
    /// Label of the arrival stream (`"diurnal"`, `"hotspot"`, …).
    pub stream: String,
    /// Routing-policy label, stable across runs.
    pub routing: String,
    /// Number of shards (independent runtime managers).
    pub shards: usize,
    /// Requests consumed from the stream.
    pub requests: usize,
    /// Requests admitted across all shards.
    pub accepted: usize,
    /// Federation-wide acceptance rate in `[0, 1]`.
    pub acceptance_rate: f64,
    /// Energy per admitted job, joules (0.0 if nothing was admitted).
    pub energy_per_job: f64,
    /// Wall-clock seconds for the whole federated run.
    pub wall_seconds: f64,
    /// Aggregate requests decided per wall-clock second.
    pub requests_per_second: f64,
    /// Aggregate kernel events handled per wall-clock second, summed
    /// over the shards.
    pub events_per_second: f64,
    /// Requests routed to each shard, in shard order.
    pub shard_routed: Vec<usize>,
    /// Requests accepted by each shard, in shard order.
    pub shard_accepted: Vec<usize>,
    /// Metered energy per shard, joules, in shard order.
    pub shard_energy: Vec<f64>,
    /// Load imbalance: max routed count over the mean (1.0 = perfectly
    /// balanced).
    pub imbalance_max_over_mean: f64,
    /// Load imbalance: 95th-percentile routed count over the mean.
    pub imbalance_p95_over_mean: f64,
    /// Requests that migrated between shards through work-stealing.
    pub stolen: usize,
}

/// A whole `repro shard` run plus its provenance, written by
/// `repro shard --json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardReport {
    /// RNG seed of every stream in the run.
    pub seed: u64,
    /// Whether the quick (shrunken) request counts were used.
    pub quick: bool,
    /// Requests per shard in the weak-scaling rows.
    pub weak_requests_per_shard: usize,
    /// All cells: weak-scaling rows first, then the skewed rows.
    pub cells: Vec<ShardCell>,
}

/// The index of the most expensive application (largest minimal
/// completion time) — the hotspot stream's hot app.
pub fn hot_app_index(library: &[AppRef]) -> usize {
    assert!(!library.is_empty(), "application library must not be empty");
    library
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.min_time().total_cmp(&b.min_time()))
        .map(|(i, _)| i)
        .expect("non-empty library")
}

fn percentile_over_mean(routed: &[usize], q: f64) -> f64 {
    let total: usize = routed.iter().sum();
    let mean = total as f64 / routed.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let mut sorted: Vec<usize> = routed.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / mean
}

/// Builds one lean federation shard: the registered `scheduler` under the
/// online search budget with the given admission policy, in aggregated
/// outcome mode — the shard builder of the shard bench and the trace.
///
/// # Panics
///
/// Panics if `scheduler` is not in the standard registry.
pub(crate) fn open_shard<A: AdmissionPolicy>(
    platform: &Platform,
    scheduler: &str,
    admission: A,
) -> Simulation<Box<dyn Scheduler + Send>, A> {
    let scheduler = standard_registry()
        .create(scheduler)
        .unwrap_or_else(|| panic!("{scheduler} is not registered"));
    Simulation::open(
        platform.clone(),
        scheduler,
        ReactivationPolicy::OnArrival,
        admission,
    )
    .with_search_budget(SearchBudget::online())
    .aggregated()
}

/// Runs one federated cell and measures it.
fn run_cell<A: AdmissionPolicy>(
    pool: Vec<Simulation<Box<dyn Scheduler + Send>, A>>,
    stream_label: &str,
    stream: ArrivalStream,
    routing: Box<dyn RoutingPolicy + Send>,
    config: FederationConfig,
) -> ShardCell {
    let requests = stream.len();
    let shards = pool.len();
    instrument::reset();
    let t0 = Instant::now();
    let outcome = Federation::new(pool, routing)
        .with_config(config)
        .run(stream);
    let wall = t0.elapsed().as_secs_f64().max(f64::EPSILON);
    let counters = instrument::snapshot();
    let accepted = outcome.accepted();
    let energy = outcome.total_energy();
    ShardCell {
        stream: stream_label.to_string(),
        routing: outcome.routing.clone(),
        shards,
        requests,
        accepted,
        acceptance_rate: outcome.acceptance_rate(),
        energy_per_job: if accepted == 0 {
            0.0
        } else {
            energy / accepted as f64
        },
        wall_seconds: wall,
        requests_per_second: requests as f64 / wall,
        events_per_second: counters.events as f64 / wall,
        shard_routed: outcome.routed.clone(),
        shard_accepted: outcome.shards.iter().map(|s| s.accepted()).collect(),
        shard_energy: outcome.shards.iter().map(|s| s.total_energy).collect(),
        imbalance_max_over_mean: outcome.imbalance_max_over_mean(),
        imbalance_p95_over_mean: percentile_over_mean(&outcome.routed, 0.95),
        stolen: outcome.stolen,
    }
}

/// Weak-scaling rows: every routing policy × every shard count, on the
/// diurnal profile stream at fixed per-shard load (`per_shard` requests
/// and a 2 req/s-per-shard mean rate each).
pub fn weak_scaling_grid(
    library: &[AppRef],
    per_shard: usize,
    shard_counts: &[usize],
    seed: u64,
) -> Vec<ShardCell> {
    assert!(per_shard > 0, "need at least one request per shard");
    let platform = Platform::odroid_xu4();
    let mut cells = Vec::new();
    for &shards in shard_counts {
        for routing in standard_policies() {
            let spec = StreamSpec {
                requests: per_shard * shards,
                slack_range: SLACK_RANGE,
            };
            let stream = ArrivalStream::diurnal(
                library,
                WEAK_MEAN_INTERARRIVAL / shards as f64,
                WEAK_PEAK_FACTOR,
                WEAK_PERIOD,
                &spec,
                seed,
            );
            let pool = (0..shards)
                .map(|_| open_shard(&platform, MDF_NAME, Immediate))
                .collect();
            cells.push(run_cell(
                pool,
                "diurnal",
                stream,
                routing,
                FederationConfig::default(),
            ));
        }
    }
    cells
}

/// Skewed-routing rows: every routing policy on the hotspot stream over
/// [`SKEWED_SHARDS`] shards (fine epochs keep the feedback fresh), plus
/// one hash-affinity row with work-stealing enabled.
pub fn skewed_grid(library: &[AppRef], requests: usize, seed: u64) -> Vec<ShardCell> {
    assert!(requests > 0, "need at least one request");
    let platform = Platform::odroid_xu4();
    let hot = hot_app_index(library);
    let spec = StreamSpec {
        requests,
        slack_range: SKEW_SLACK_RANGE,
    };
    let stream = || {
        ArrivalStream::hotspot(
            library,
            SKEW_MEAN_INTERARRIVAL,
            hot,
            SKEW_HOT_FRACTION,
            &spec,
            seed,
        )
    };
    let config = |steal| FederationConfig {
        epoch: SKEW_EPOCH,
        steal_threshold: steal,
    };
    let mut cells: Vec<ShardCell> = standard_policies()
        .into_iter()
        .map(|routing| {
            let pool = (0..SKEWED_SHARDS)
                .map(|_| open_shard(&platform, MDF_NAME, Immediate))
                .collect();
            run_cell(pool, "hotspot", stream(), routing, config(None))
        })
        .collect();
    // Affinity pins the hot app to one shard and batched admission keeps
    // its overflow queued between flushes; stealing lets idle shards
    // drain it. (Per-request admission never leaves a queue to steal
    // from, so this row runs BatchK shards.)
    let pool = (0..SKEWED_SHARDS)
        .map(|_| open_shard(&platform, MDF_NAME, BatchK(8)))
        .collect();
    cells.push(run_cell(
        pool,
        "hotspot+steal",
        stream(),
        Box::new(amrm_core::HashAffinity::new()),
        config(Some(4)),
    ));
    cells
}

/// Runs the full shard benchmark: the weak-scaling sweep followed by the
/// skewed-routing rows.
pub fn run_shard_bench(quick: bool, seed: u64) -> ShardReport {
    let platform = Platform::odroid_xu4();
    let library = amrm_dataflow::apps::benchmark_suite(&platform);
    let per_shard = if quick { 2_000 } else { 40_000 };
    let skew_requests = if quick { 2_000 } else { 20_000 };
    let mut cells = weak_scaling_grid(&library, per_shard, &WEAK_SHARD_COUNTS, seed);
    cells.extend(skewed_grid(&library, skew_requests, seed));
    ShardReport {
        seed,
        quick,
        weak_requests_per_shard: per_shard,
        cells,
    }
}

/// Renders a shard report as one aligned text table (weak scaling, then
/// the skewed rows).
pub fn shard_report(report: &ShardReport) -> String {
    let mut out = format!(
        "Sharded-federation benchmark: seed {}, {} requests/shard (weak scaling)\n\n",
        report.seed, report.weak_requests_per_shard
    );
    let mut t = TextTable::new(vec![
        "Stream", "Routing", "shards", "requests", "accepted", "acc rate", "J/job", "wall s",
        "req/s", "events/s", "max/mean", "p95/mean", "stolen",
    ]);
    for c in &report.cells {
        t.add_row(vec![
            c.stream.clone(),
            c.routing.clone(),
            c.shards.to_string(),
            c.requests.to_string(),
            c.accepted.to_string(),
            format!("{:.3}", c.acceptance_rate),
            format!("{:.2}", c.energy_per_job),
            format!("{:.2}", c.wall_seconds),
            format!("{:.0}", c.requests_per_second),
            format!("{:.0}", c.events_per_second),
            format!("{:.2}", c.imbalance_max_over_mean),
            format!("{:.2}", c.imbalance_p95_over_mean),
            c.stolen.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> Vec<AppRef> {
        amrm_dataflow::apps::benchmark_suite(&Platform::odroid_xu4())
    }

    #[test]
    fn weak_grid_covers_every_policy_and_shard_count() {
        let cells = weak_scaling_grid(&library(), 40, &[1, 2], 7);
        assert_eq!(cells.len(), 8);
        for c in &cells {
            assert_eq!(c.stream, "diurnal");
            assert_eq!(c.requests, 40 * c.shards);
            assert_eq!(c.shard_routed.len(), c.shards);
            assert_eq!(c.shard_accepted.len(), c.shards);
            assert_eq!(c.shard_energy.len(), c.shards);
            assert_eq!(c.shard_routed.iter().sum::<usize>(), c.requests);
            assert!(c.accepted <= c.requests);
            assert!((0.0..=1.0).contains(&c.acceptance_rate));
            assert!(c.requests_per_second > 0.0);
            assert!(c.events_per_second > 0.0);
            assert!(c.imbalance_max_over_mean >= 1.0 - 1e-12);
            assert!(c.imbalance_p95_over_mean <= c.imbalance_max_over_mean + 1e-12);
        }
        let labels: Vec<&str> = cells[..4].iter().map(|c| c.routing.as_str()).collect();
        assert_eq!(labels, ["RoundRobin", "JSQ", "EnergyAware", "HashAffinity"]);
    }

    #[test]
    fn skewed_gate_feedback_routing_beats_round_robin_at_seed_2020() {
        // The acceptance gate of `repro shard`: on the hotspot stream at
        // the pinned seed, join-shortest-queue or energy-aware routing
        // must strictly beat blind round-robin on acceptance rate.  Uses
        // the same request count as `repro shard --quick` so the test
        // exercises the exact stream the CLI gate reports.
        let cells = skewed_grid(&library(), 2000, 2020);
        assert_eq!(cells.len(), 5);
        let rate = |label: &str| {
            cells
                .iter()
                .find(|c| c.routing == label && c.stream == "hotspot")
                .expect("cell present")
                .acceptance_rate
        };
        let rr = rate("RoundRobin");
        let best = rate("JSQ").max(rate("EnergyAware"));
        assert!(
            best > rr,
            "feedback routing must beat RoundRobin: JSQ {:.3} / EA {:.3} vs RR {rr:.3}",
            rate("JSQ"),
            rate("EnergyAware"),
        );
        // The stealing row actually steals and decides everything.
        let steal = cells.last().unwrap();
        assert_eq!(steal.stream, "hotspot+steal");
        assert_eq!(steal.shard_routed.iter().sum::<usize>(), steal.requests);
        assert!(steal.stolen > 0, "affinity overload must trigger steals");
    }

    #[test]
    fn hot_app_is_the_most_expensive() {
        let lib = library();
        let hot = hot_app_index(&lib);
        for app in &lib {
            assert!(lib[hot].min_time() >= app.min_time());
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = ShardReport {
            seed: 3,
            quick: true,
            weak_requests_per_shard: 40,
            cells: weak_scaling_grid(&library(), 30, &[2], 3),
        };
        let path = std::env::temp_dir().join("amrm_shard_roundtrip.json");
        crate::write_json(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let back: ShardReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, 3);
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(back.cells[0].routing, report.cells[0].routing);
        assert_eq!(back.cells[0].shard_routed, report.cells[0].shard_routed);
        let rendered = shard_report(&back);
        assert!(rendered.contains("RoundRobin"));
        assert!(rendered.contains("req/s"));
    }
}
