//! EX-MEM exact-path benchmark: capped candidate ranking and persistent
//! warm-start mapping cache (`repro exact`).
//!
//! Two A/B pairs, one report:
//!
//! 1. **Ranking** — the bursty admission-grid stream runs through EX-MEM
//!    twice at the *same* node budget: once uncapped (the pre-cap
//!    `online()` shape) and once under the shipped rank cap. The capped
//!    run spends its nodes on the cheapest-bound candidates instead of
//!    exhausting them on wide first segments, so its budget-truncation
//!    count (MDF fallbacks) must drop — the quick `--seed 2020`
//!    configuration is pinned by `capped_ranking_halves_truncations` to
//!    drop ≥ 2× without losing a single admission.
//! 2. **Warm start** — a calm Poisson stream is solved cold (every
//!    activation exactly, nothing truncated), the mapping cache is saved
//!    to disk, reloaded, and the same stream replays warm. The warm run
//!    must be bit-identical to the cold one (admissions, energy bits,
//!    executed trace) while serving its roots from disk-loaded proofs —
//!    and, with search skipped, finish faster (the ≥ 1.5× wall-clock
//!    gate is a release-mode `#[ignore]` test, like the profile floor).
//!
//! `repro exact --cache-out F` persists the cold cache for later
//! `--warm-cache F` runs, which is how a recorded workload's proofs are
//! reused across processes; `--json F` writes the [`ExactReport`].

use std::path::Path;
use std::time::Instant;

use amrm_baselines::{ExMem, MappingCache};
use amrm_core::{Immediate, SearchBudget};
use amrm_metrics::TextTable;
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_sim::SimOutcome;
use amrm_workload::{poisson_stream, ScenarioRequest, StreamSpec};
use serde::{Deserialize, Serialize};

use crate::admission;

/// The calm replay stream: sparse enough that the uncapped online node
/// budget solves every activation exactly (no truncation, no pruning),
/// which is the precondition making warm-vs-cold bit-identity a theorem
/// — every persisted entry is a proof, and replaying proofs cannot
/// diverge.
const REPLAY_INTERARRIVAL: f64 = 10.0;
const REPLAY_SLACK: (f64, f64) = (1.4, 2.8);
/// The replay pair's node budget: 8× the online work units, deep enough
/// that the calm stream's occasional overlap stacks still solve to
/// proofs instead of truncating (truncated roots memoize `Anytime` and
/// would not persist).
const REPLAY_NODE_BUDGET: u64 = SearchBudget::ONLINE_WORK_UNITS * 8;

/// One measured EX-MEM run of the exact-path A/B pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExactCell {
    /// `"uncapped"` / `"capped"` (ranking pair on the bursty stream) or
    /// `"cold"` / `"warm"` (replay pair on the calm stream).
    pub phase: String,
    /// Requests offered.
    pub requests: usize,
    /// Requests admitted.
    pub accepted: usize,
    /// Activations that exhausted the node budget (MDF fallbacks).
    pub truncations: u64,
    /// Activations where the rank cap pruned first-segment candidates.
    pub rank_pruned: u64,
    /// Activations that served at least one disk-loaded proof.
    pub cache_warm_hits: u64,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Energy per admitted job, in joules.
    pub energy_per_job: f64,
}

/// The whole exact-path benchmark — the `repro exact --json` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExactReport {
    /// RNG seed of both streams.
    pub seed: u64,
    /// Whether the quick request counts were used.
    pub quick: bool,
    /// Cells in pair order: uncapped, capped, cold, warm.
    pub cells: Vec<ExactCell>,
    /// Whether the warm replay reproduced the cold run bit for bit
    /// (admissions, energy bits, end time, counters, executed trace).
    pub bit_identical: bool,
    /// Cold wall-clock over warm wall-clock (> 1 means warm is faster).
    pub warm_speedup: f64,
    /// Proof entries the cold run persisted to disk.
    pub cache_proofs: usize,
}

impl ExactReport {
    /// Factor by which the rank cap reduced budget truncations on the
    /// bursty stream; `None` when the capped run never truncated (an
    /// infinite improvement) or the pair is missing.
    pub fn truncation_drop(&self) -> Option<f64> {
        let t = |phase: &str| {
            self.cells
                .iter()
                .find(|c| c.phase == phase)
                .map(|c| c.truncations)
        };
        match (t("uncapped")?, t("capped")?) {
            (_, 0) => None,
            (uncapped, capped) => Some(uncapped as f64 / capped as f64),
        }
    }
}

/// One timed EX-MEM [`admission::run_cell`] under `Immediate` admission,
/// warm-started from `cache` when given. Returns the phase's cell, the
/// outcome, and the scheduler (for its mapping cache).
fn exmem_cell(
    phase: &str,
    platform: &Platform,
    stream: (&str, &[ScenarioRequest]),
    budget: SearchBudget,
    cache: Option<MappingCache>,
) -> (ExactCell, SimOutcome, ExMem) {
    let scheduler = match cache {
        Some(cache) => ExMem::new().with_cache(cache),
        None => ExMem::new(),
    };
    let t0 = Instant::now();
    let (cell, outcome, scheduler) =
        admission::run_cell(platform, stream, scheduler, Immediate, budget);
    let exact = ExactCell {
        phase: phase.to_string(),
        requests: cell.requests,
        accepted: cell.accepted,
        truncations: cell.exact_truncations,
        rank_pruned: cell.rank_pruned,
        cache_warm_hits: cell.cache_warm_hits,
        wall_seconds: t0.elapsed().as_secs_f64().max(f64::EPSILON),
        energy_per_job: cell.energy_per_job,
    };
    (exact, outcome, scheduler)
}

fn bit_identical(a: &SimOutcome, b: &SimOutcome) -> bool {
    a.admissions == b.admissions
        && a.total_energy.to_bits() == b.total_energy.to_bits()
        && a.end_time.to_bits() == b.end_time.to_bits()
        && a.stats == b.stats
        && a.trace == b.trace
}

/// Runs the exact-path benchmark at the standard request counts (the
/// admission grid's EX-MEM-bounded stream lengths).
///
/// `warm_cache` replays from a previously saved cache file instead of
/// the cold run's own; `cache_out` persists the cold cache there (a
/// deterministic temp file otherwise, so the warm run always exercises
/// the real disk roundtrip).
///
/// # Errors
///
/// Returns any I/O or serialization error from the cache roundtrip.
pub fn run_exact(
    quick: bool,
    seed: u64,
    warm_cache: Option<&Path>,
    cache_out: Option<&Path>,
) -> std::io::Result<ExactReport> {
    let replay_requests = if quick { 30 } else { 90 };
    run_exact_with(quick, seed, replay_requests, warm_cache, cache_out)
}

/// [`run_exact`] over an explicit replay-stream length (tests use tiny
/// runs).
///
/// # Errors
///
/// Returns any I/O or serialization error from the cache roundtrip.
///
/// # Panics
///
/// Panics if `replay_requests` is zero.
pub fn run_exact_with(
    quick: bool,
    seed: u64,
    replay_requests: usize,
    warm_cache: Option<&Path>,
    cache_out: Option<&Path>,
) -> std::io::Result<ExactReport> {
    assert!(replay_requests > 0, "replay needs at least one request");
    let platform = Platform::odroid_xu4();
    let library = amrm_dataflow::apps::benchmark_suite(&platform);

    // Ranking pair: the bursty grid stream at one node budget, fan-out
    // uncapped vs capped at the shipped online rank cap.
    let streams =
        admission::standard_streams(&library, admission::grid_requests(quick, true), seed);
    let (_, bursty) = streams
        .into_iter()
        .find(|(label, _)| *label == "bursty")
        .expect("standard streams include a bursty shape");
    let bursty = ("bursty", bursty.as_slice());
    let node_budget = SearchBudget::nodes(SearchBudget::ONLINE_WORK_UNITS);
    let (uncapped, _, _) = exmem_cell("uncapped", &platform, bursty, node_budget, None);
    let (capped, _, _) = exmem_cell("capped", &platform, bursty, SearchBudget::online(), None);

    // Replay pair: solve the calm stream cold, persist the proofs,
    // reload and replay warm.
    let calm = replay_stream(&library, replay_requests, seed);
    let calm = ("calm", calm.as_slice());
    let replay_budget = SearchBudget::nodes(REPLAY_NODE_BUDGET);
    let (cold, cold_outcome, cold_ex) = exmem_cell("cold", &platform, calm, replay_budget, None);
    let default_path =
        std::env::temp_dir().join(format!("amrm_exact_cache_{seed}_{replay_requests}.json"));
    let cache_path = cache_out.unwrap_or(&default_path);
    cold_ex.cache().save(cache_path)?;
    let loaded = MappingCache::load(warm_cache.unwrap_or(cache_path))?;
    let (warm, warm_outcome, _) = exmem_cell("warm", &platform, calm, replay_budget, Some(loaded));

    Ok(ExactReport {
        seed,
        quick,
        bit_identical: bit_identical(&cold_outcome, &warm_outcome),
        warm_speedup: cold.wall_seconds / warm.wall_seconds,
        cache_proofs: cold_ex.cache().proof_count(),
        cells: vec![uncapped, capped, cold, warm],
    })
}

/// The calm Poisson stream of the replay pair.
pub fn replay_stream(library: &[AppRef], requests: usize, seed: u64) -> Vec<ScenarioRequest> {
    let spec = StreamSpec {
        requests,
        slack_range: REPLAY_SLACK,
    };
    poisson_stream(library, REPLAY_INTERARRIVAL, &spec, seed)
}

/// Renders an exact-path report: one row per cell plus the two verdicts.
pub fn exact_report(report: &ExactReport) -> String {
    let mut out = format!(
        "EX-MEM exact path at scale: capped ranking and warm-start cache (seed {})\n\n",
        report.seed
    );
    let mut t = TextTable::new(vec![
        "Phase",
        "accepted",
        "trunc",
        "pruned",
        "warm hits",
        "wall s",
        "J/job",
    ]);
    for c in &report.cells {
        t.add_row(vec![
            c.phase.clone(),
            format!("{}/{}", c.accepted, c.requests),
            c.truncations.to_string(),
            c.rank_pruned.to_string(),
            c.cache_warm_hits.to_string(),
            format!("{:.3}", c.wall_seconds),
            format!("{:.2}", c.energy_per_job),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(&format!(
        "\nranking: budget truncations {} on the bursty stream; \
         replay: {} proofs persisted, warm run {} and {:.2}x the cold \
         wall-clock\n",
        match report.truncation_drop() {
            Some(drop) => format!("dropped {drop:.1}x"),
            None => "eliminated".to_string(),
        },
        report.cache_proofs,
        if report.bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        report.warm_speedup,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_ranking_halves_truncations_without_losing_admissions() {
        // The PR's ranking acceptance gate, pinned at the committed
        // baseline's `--quick --seed 2020` configuration: at the same
        // node budget, the shipped rank cap must cut the bursty stream's
        // budget truncations (MDF fallbacks) at least in half while
        // admitting no fewer requests.
        let report = run_exact_with(true, 2020, 10, None, None).unwrap();
        let cell = |phase: &str| {
            report
                .cells
                .iter()
                .find(|c| c.phase == phase)
                .unwrap_or_else(|| panic!("missing {phase} cell"))
        };
        let (uncapped, capped) = (cell("uncapped"), cell("capped"));
        assert!(
            capped.truncations * 2 <= uncapped.truncations,
            "rank cap only cut truncations {} -> {}",
            uncapped.truncations,
            capped.truncations
        );
        assert!(uncapped.truncations > 0, "the uncapped run never truncated");
        assert!(
            capped.accepted >= uncapped.accepted,
            "rank cap lost admissions: {} -> {}",
            uncapped.accepted,
            capped.accepted
        );
        assert!(capped.rank_pruned > 0, "the cap never pruned");
    }

    #[test]
    fn warm_replay_is_bit_identical_and_serves_disk_proofs() {
        let report = run_exact_with(true, 2020, 12, None, None).unwrap();
        assert!(report.bit_identical, "warm replay diverged from cold");
        assert!(report.cache_proofs > 0);
        let warm = report.cells.iter().find(|c| c.phase == "warm").unwrap();
        assert!(warm.cache_warm_hits > 0, "warm run served no disk proofs");
        let cold = report.cells.iter().find(|c| c.phase == "cold").unwrap();
        assert_eq!(cold.cache_warm_hits, 0);
        assert_eq!(cold.truncations, 0, "replay stream must stay exact");
    }

    #[test]
    fn cache_out_and_warm_cache_roundtrip_through_explicit_paths() {
        let dir = std::env::temp_dir().join("amrm_exact_bench");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("explicit.cache.json");
        let saved = run_exact_with(true, 7, 8, None, Some(&path)).unwrap();
        assert!(path.exists(), "--cache-out file missing");
        let replayed = run_exact_with(true, 7, 8, Some(&path), None).unwrap();
        assert!(replayed.bit_identical);
        assert_eq!(saved.cache_proofs, replayed.cache_proofs);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = run_exact_with(true, 3, 6, None, None).unwrap();
        let path = std::env::temp_dir().join("amrm_exact_roundtrip.json");
        crate::write_json(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let back: ExactReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, 3);
        assert_eq!(back.cells.len(), 4);
        assert_eq!(back.bit_identical, report.bit_identical);
        let rendered = exact_report(&back);
        assert!(rendered.contains("uncapped"));
        assert!(rendered.contains("warm"));
        assert!(rendered.contains("proofs persisted"));
    }

    #[test]
    #[ignore = "wall-clock speedup gate; run with --release -- --ignored"]
    fn warm_replay_is_at_least_1_5x_faster_than_cold() {
        // The PR's replay acceptance gate: with every root served from a
        // disk-loaded proof, the warm run skips the search entirely and
        // must finish at least 1.5x faster than the cold run. Warmed up
        // once to keep allocator and page-cache noise out.
        let _ = run_exact(true, 2020, None, None).unwrap();
        let report = run_exact(false, 2020, None, None).unwrap();
        assert!(report.bit_identical);
        assert!(
            report.warm_speedup >= 1.5,
            "warm replay only {:.2}x faster than cold",
            report.warm_speedup
        );
    }
}
