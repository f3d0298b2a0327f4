//! Parameter fitting for the adaptive subsystems: a deterministic
//! grid-plus-random search over the AIMD constants ([`AdaptiveBatch`]),
//! the [`SlackAware`] margin and the META regime thresholds
//! ([`MetaConfig`]), scored with the same acceptance/energy currency the
//! `repro sweep` curves report.
//!
//! The ROADMAP's standing complaint — and the argument of E-Mapper
//! (Smejkal & Castrillon) and of Nejat et al.'s coordinated budget/
//! configuration tuning — is that these knobs were hand-picked, not
//! measured. [`tune_grid`] replaces folklore with measurement:
//!
//! 1. a **candidate list** per family is generated serially — the shipped
//!    default first, then a coarse grid, then a few random samples drawn
//!    from a seeded [`StdRng`] — so the list is a pure function of the
//!    seed;
//! 2. every candidate is **scored** on three seeded streams (steady
//!    Poisson, bursty on/off windows, diurnal modulation) under
//!    [`SearchBudget::online`]; policy candidates run under MMKP-MDF,
//!    META candidates run under per-request *and* adaptive batched
//!    admission. The score is mean acceptance, with mean energy per
//!    admitted job as the tiebreak — the two axes of the sweep curves;
//! 3. candidates fan out over OS threads via the shared
//!    [`for_each_cell`] work index. Scores are pure per-candidate
//!    functions and the winner reduction is serial, so the resulting
//!    [`TuneReport`] is **bit-identical across thread counts** (pinned by
//!    `tests/tune_determinism.rs`).
//!
//! The winners ship as constructors — [`AdaptiveBatch::fitted`],
//! [`SlackAware::fitted`], [`MetaConfig::fitted`] — and the
//! `repro tune [--quick] [--json]` subcommand emits the report artifact
//! with the fitted-vs-shipped diff.

use amrm_baselines::{ExMem, MetaConfig, MetaScheduler};
use amrm_core::fanout::for_each_cell;
use amrm_core::{
    AdaptiveBatch, AdmissionPolicy, Immediate, MmkpMdf, Scheduler, SearchBudget, SlackAware,
};
use amrm_metrics::TextTable;
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_workload::{diurnal_stream, ScenarioRequest, StreamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::admission;

/// Acceptance differences below this are ties (energy breaks them).
const ACCEPTANCE_EPS: f64 = 1e-9;
/// Energy differences below this are ties (candidate order breaks them).
const ENERGY_EPS: f64 = 1e-9;

/// Options of one tuning run.
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// RNG seed: drives both the scored streams and the random samples.
    pub seed: u64,
    /// Quick mode: shorter streams (30 requests instead of 80).
    pub quick: bool,
    /// Worker threads for the candidate fan-out (must not change the
    /// report — see `tests/tune_determinism.rs`).
    pub threads: usize,
}

/// A candidate's fitness: the two axes of the sweep curves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuneScore {
    /// Mean acceptance rate over the scored cells (higher is better).
    pub acceptance: f64,
    /// Mean energy per admitted job over the scored cells, in joules
    /// (lower is better; the tiebreak).
    pub energy_per_job: f64,
}

impl TuneScore {
    /// Strict dominance in the tuning order: higher acceptance first,
    /// lower energy as the tiebreak. Ties in both leave the incumbent.
    pub fn beats(&self, other: &TuneScore) -> bool {
        if (self.acceptance - other.acceptance).abs() > ACCEPTANCE_EPS {
            return self.acceptance > other.acceptance;
        }
        other.energy_per_job - self.energy_per_job > ENERGY_EPS
    }
}

/// The tunable knobs of [`AdaptiveBatch`] (bounds stay at the shipped
/// `min_batch = 1`; everything else is searched).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveBatchParams {
    /// Upper bound for the AIMD batch size.
    pub max_batch: usize,
    /// Target gathering time in simulated seconds.
    pub gather_target: f64,
    /// Rolling acceptance below which the batch halves.
    pub low_acceptance: f64,
    /// Rolling acceptance at/above which the batch grows.
    pub high_acceptance: f64,
}

impl AdaptiveBatchParams {
    /// The shipped default, as searchable parameters.
    pub fn shipped() -> Self {
        AdaptiveBatchParams::of(&AdaptiveBatch::default())
    }

    fn of(p: &AdaptiveBatch) -> Self {
        AdaptiveBatchParams {
            max_batch: p.max_batch,
            gather_target: p.gather_target,
            low_acceptance: p.low_acceptance,
            high_acceptance: p.high_acceptance,
        }
    }

    /// Instantiates the policy these parameters describe.
    pub fn policy(&self) -> AdaptiveBatch {
        AdaptiveBatch::with_constants(
            self.max_batch,
            self.gather_target,
            self.low_acceptance,
            self.high_acceptance,
        )
    }
}

/// The tunable knobs of [`SlackAware`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlackAwareParams {
    /// Upper bound on the gathering window, simulated seconds.
    pub max_window: f64,
    /// Multiplier on the activation-latency EWMA.
    pub margin: f64,
}

impl SlackAwareParams {
    /// The shipped default, as searchable parameters.
    pub fn shipped() -> Self {
        let p = SlackAware::default();
        SlackAwareParams {
            max_window: p.max_window,
            margin: p.margin,
        }
    }

    /// Instantiates the policy these parameters describe.
    pub fn policy(&self) -> SlackAware {
        SlackAware {
            max_window: self.max_window,
            margin: self.margin,
        }
    }
}

/// The tunable META regime thresholds (the budget-regime knobs and the
/// exact-regime size limits keep their shipped values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaParams {
    /// Heavy-regime enter threshold on the EWMA arrival rate.
    pub heavy_enter_rate: f64,
    /// Heavy-regime exit threshold on the arrival rate.
    pub heavy_exit_rate: f64,
    /// Heavy-regime enter threshold on the EWMA utilization.
    pub heavy_enter_util: f64,
    /// Heavy-regime exit threshold on the utilization.
    pub heavy_exit_util: f64,
    /// Minimum per-job slack for the exact regime, simulated seconds.
    pub exact_min_slack: f64,
}

impl MetaParams {
    /// The shipped default, as searchable parameters.
    pub fn shipped() -> Self {
        MetaParams::of(&MetaConfig::default())
    }

    fn of(c: &MetaConfig) -> Self {
        MetaParams {
            heavy_enter_rate: c.heavy_enter_rate,
            heavy_exit_rate: c.heavy_exit_rate,
            heavy_enter_util: c.heavy_enter_util,
            heavy_exit_util: c.heavy_exit_util,
            exact_min_slack: c.exact_min_slack,
        }
    }

    /// Instantiates the configuration these thresholds describe.
    pub fn config(&self) -> MetaConfig {
        MetaConfig {
            heavy_enter_rate: self.heavy_enter_rate,
            heavy_exit_rate: self.heavy_exit_rate,
            heavy_enter_util: self.heavy_enter_util,
            heavy_exit_util: self.heavy_exit_util,
            exact_min_slack: self.exact_min_slack,
            ..MetaConfig::default()
        }
    }
}

/// The tunable knobs of EX-MEM's capped exact path: how many ranked
/// first-segment candidates survive to full evaluation per node, and how
/// large the cross-activation memo may grow before bounded eviction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExMemParams {
    /// Online rank cap (first-segment candidates fully evaluated).
    pub rank_cap: usize,
    /// Memo entries beyond which bounded eviction runs.
    pub memo_cap: usize,
}

impl ExMemParams {
    /// The shipped defaults, as searchable parameters.
    pub fn shipped() -> Self {
        ExMemParams {
            rank_cap: SearchBudget::ONLINE_RANK_CAP,
            memo_cap: ExMem::DEFAULT_MEMO_CAP,
        }
    }

    /// Instantiates the scheduler these parameters describe. The rank
    /// cap travels in the instance's own [`SearchBudget`], composed
    /// min-wise with the context's online budget at every activation.
    pub fn scheduler(&self) -> ExMem {
        ExMem::new()
            .with_budget(SearchBudget::unbounded().with_rank_cap(self.rank_cap))
            .with_memo_cap(self.memo_cap)
    }
}

/// One scored [`AdaptiveBatch`] candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveBatchCandidate {
    /// The candidate's knobs.
    pub params: AdaptiveBatchParams,
    /// Its fitness on the tuning streams.
    pub score: TuneScore,
}

/// One scored [`SlackAware`] candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlackAwareCandidate {
    /// The candidate's knobs.
    pub params: SlackAwareParams,
    /// Its fitness on the tuning streams.
    pub score: TuneScore,
}

/// One scored META-threshold candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetaCandidate {
    /// The candidate's thresholds.
    pub params: MetaParams,
    /// Its fitness on the tuning streams.
    pub score: TuneScore,
}

/// One scored EX-MEM exact-path candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExMemCandidate {
    /// The candidate's knobs.
    pub params: ExMemParams,
    /// Its fitness on the tuning streams.
    pub score: TuneScore,
    /// Budget truncations across the tuning streams — the contract axis:
    /// a candidate may only win if it keeps at least the 2× truncation
    /// drop against the uncapped reference (see [`exmem_eligible`]).
    pub truncations: u64,
}

/// Search outcome of the [`AdaptiveBatch`] family: the shipped default,
/// the winner, and whether the winner strictly dominates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveBatchOutcome {
    /// Candidates evaluated (shipped default + grid + random samples).
    pub evaluated: usize,
    /// The shipped default and its score.
    pub shipped: AdaptiveBatchCandidate,
    /// The best-scoring candidate (the shipped default when nothing
    /// strictly beats it).
    pub winner: AdaptiveBatchCandidate,
    /// `true` when the winner strictly beats the shipped default — the
    /// signal for updating the shipped constants.
    pub winner_dominates: bool,
}

/// Search outcome of the [`SlackAware`] family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlackAwareOutcome {
    /// Candidates evaluated.
    pub evaluated: usize,
    /// The shipped default and its score.
    pub shipped: SlackAwareCandidate,
    /// The best-scoring candidate.
    pub winner: SlackAwareCandidate,
    /// `true` when the winner strictly beats the shipped default.
    pub winner_dominates: bool,
}

/// Search outcome of the META-threshold family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetaOutcome {
    /// Candidates evaluated.
    pub evaluated: usize,
    /// The shipped default and its score.
    pub shipped: MetaCandidate,
    /// The best-scoring candidate.
    pub winner: MetaCandidate,
    /// `true` when the winner strictly beats the shipped default.
    pub winner_dominates: bool,
}

/// Search outcome of the EX-MEM exact-path family. Unlike the policy
/// families, acceptance alone cannot pick this winner: a cap wide enough
/// stops pruning, the node budget truncates instead, truncated
/// activations memoize only `Anytime` results, and the warm-start proof
/// cache silently dies. So the search also pins the truncation count of
/// the *uncapped* reference, and only candidates that preserve the ≥2×
/// truncation drop of the capped path are eligible to win.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExMemOutcome {
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Budget truncations of the uncapped reference over the same
    /// streams — the bar [`exmem_eligible`] holds candidates to.
    pub uncapped_truncations: u64,
    /// The shipped default and its score.
    pub shipped: ExMemCandidate,
    /// The best-scoring candidate.
    pub winner: ExMemCandidate,
    /// `true` when the winner strictly beats the shipped default.
    pub winner_dominates: bool,
}

/// The whole tuning run plus its provenance — the `repro tune --json`
/// artifact. Thread-count independent by construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneReport {
    /// RNG seed of the streams and the random candidate samples.
    pub seed: u64,
    /// Whether the quick streams were used.
    pub quick: bool,
    /// Requests per tuning stream.
    pub requests_per_stream: usize,
    /// Labels of the scored streams, in evaluation order.
    pub streams: Vec<String>,
    /// The AIMD-constant search.
    pub adaptive_batch: AdaptiveBatchOutcome,
    /// The slack-margin search.
    pub slack_aware: SlackAwareOutcome,
    /// The META-threshold search.
    pub meta: MetaOutcome,
    /// The EX-MEM exact-path search (rank cap × memo cap).
    pub exmem: ExMemOutcome,
}

/// The three seeded streams every candidate is scored on: the admission
/// grid's steady and bursty [`standard_streams`](admission::standard_streams)
/// plus a diurnal swing, so a winner must hold up across load regimes
/// instead of overfitting one.
pub fn tune_streams(
    library: &[AppRef],
    quick: bool,
    seed: u64,
) -> Vec<(&'static str, Vec<ScenarioRequest>)> {
    let spec = StreamSpec {
        requests: if quick { 30 } else { 80 },
        slack_range: admission::STREAM_SLACK,
    };
    let mut streams = admission::standard_streams(library, spec.requests, seed);
    streams.push((
        "diurnal",
        diurnal_stream(library, 2.0, 3.0, 60.0, &spec, seed),
    ));
    streams
}

/// The batched-admission policy META candidates are scored under
/// (besides [`Immediate`]). Pinned to literal constants — deliberately
/// *not* [`AdaptiveBatch::default`] — so META candidate scores are a
/// pure function of the tune seed and never shift when a future fitting
/// round moves the shipped AIMD defaults; that independence is what
/// makes the committed `TUNE_baseline.json` a stable fixed point. (The
/// pinned values equal the 2020-fitted constants at the time of
/// pinning.)
fn meta_reference_batch_policy() -> AdaptiveBatch {
    AdaptiveBatch::with_constants(
        17,
        2.4343004440087355,
        0.388003278411439,
        0.7996502860683732,
    )
}

/// Scores one [`admission::run_cell`]: acceptance, energy/job and budget
/// truncations. Policy and META candidates run under
/// [`SearchBudget::online`]; EX-MEM candidates run under the bare online
/// *node* budget — their rank cap travels in the scheduler instance, and
/// the context must not clamp it to the shipped value.
fn score<S: Scheduler, A: AdmissionPolicy>(
    platform: &Platform,
    (label, stream): &(&str, Vec<ScenarioRequest>),
    scheduler: S,
    policy: A,
    budget: SearchBudget,
) -> (f64, f64, u64) {
    let (c, _, _) = admission::run_cell(platform, (label, stream), scheduler, policy, budget);
    (c.acceptance_rate, c.energy_per_job, c.exact_truncations)
}

/// The exact-path contract an EX-MEM candidate must honor to win: at
/// most half the uncapped reference's budget truncations over the tuning
/// streams. Truncated activations memoize only `Anytime` results — no
/// `Exact` proofs, nothing for the persistent cache to replay — so a cap
/// that stops cutting truncations has stopped doing its job no matter
/// how well it scores on acceptance.
fn exmem_eligible(truncations: u64, uncapped_truncations: u64) -> bool {
    truncations * 2 <= uncapped_truncations
}

/// Means over scored runs into a [`TuneScore`], with the runs' summed
/// budget truncations.
fn mean_score(runs: &[(f64, f64, u64)]) -> (TuneScore, u64) {
    let n = runs.len() as f64;
    let score = TuneScore {
        acceptance: runs.iter().map(|r| r.0).sum::<f64>() / n,
        energy_per_job: runs.iter().map(|r| r.1).sum::<f64>() / n,
    };
    (score, runs.iter().map(|r| r.2).sum())
}

/// The deterministic candidate list of the [`AdaptiveBatch`] family:
/// shipped default, coarse grid, then `extra` seeded random samples.
fn adaptive_batch_candidates(rng: &mut StdRng, extra: usize) -> Vec<AdaptiveBatchParams> {
    let mut out = vec![AdaptiveBatchParams::shipped()];
    for &gather_target in &[2.0, 4.0, 6.0] {
        for &max_batch in &[8usize, 12, 16] {
            for &(low, high) in &[(0.4, 0.85), (0.5, 0.9), (0.6, 0.95)] {
                out.push(AdaptiveBatchParams {
                    max_batch,
                    gather_target,
                    low_acceptance: low,
                    high_acceptance: high,
                });
            }
        }
    }
    for _ in 0..extra {
        out.push(AdaptiveBatchParams {
            max_batch: rng.gen_range(4usize..=20),
            gather_target: rng.gen_range(1.0..8.0),
            low_acceptance: rng.gen_range(0.2..0.6),
            high_acceptance: rng.gen_range(0.7..1.0),
        });
    }
    out
}

/// The deterministic candidate list of the [`SlackAware`] family.
fn slack_aware_candidates(rng: &mut StdRng, extra: usize) -> Vec<SlackAwareParams> {
    let mut out = vec![SlackAwareParams::shipped()];
    for &max_window in &[1.0, 2.0, 4.0] {
        for &margin in &[0.5, 1.0, 2.0, 3.0] {
            out.push(SlackAwareParams { max_window, margin });
        }
    }
    for _ in 0..extra {
        out.push(SlackAwareParams {
            max_window: rng.gen_range(0.5..6.0),
            margin: rng.gen_range(0.0..4.0),
        });
    }
    out
}

/// The deterministic candidate list of the META-threshold family. Exit
/// thresholds scale with their enter thresholds so every grid point keeps
/// a hysteresis band and passes [`MetaConfig::validate`].
fn meta_candidates(rng: &mut StdRng, extra: usize) -> Vec<MetaParams> {
    let mut out = vec![MetaParams::shipped()];
    for &enter_rate in &[1.0, 1.5, 2.0] {
        for &enter_util in &[0.7, 0.85] {
            for &exact_min_slack in &[3.0, 4.0] {
                out.push(MetaParams {
                    heavy_enter_rate: enter_rate,
                    heavy_exit_rate: 0.6 * enter_rate,
                    heavy_enter_util: enter_util,
                    heavy_exit_util: 0.7 * enter_util,
                    exact_min_slack,
                });
            }
        }
    }
    for _ in 0..extra {
        let enter_rate = rng.gen_range(0.8..2.5);
        let enter_util = rng.gen_range(0.6..0.95);
        out.push(MetaParams {
            heavy_enter_rate: enter_rate,
            heavy_exit_rate: rng.gen_range(0.3..0.9) * enter_rate,
            heavy_enter_util: enter_util,
            heavy_exit_util: rng.gen_range(0.5..0.9) * enter_util,
            exact_min_slack: rng.gen_range(2.0..6.0),
        });
    }
    out
}

/// The deterministic candidate list of the EX-MEM exact-path family: the
/// shipped pair first, then a rank-cap × memo-cap grid around it, then
/// `extra` seeded random samples. Memo caps are powers of two — eviction
/// granularity, not a fine-grained knob.
fn exmem_candidates(rng: &mut StdRng, extra: usize) -> Vec<ExMemParams> {
    let mut out = vec![ExMemParams::shipped()];
    for &rank_cap in &[8usize, 12, 16, 32, 48, 64] {
        for &memo_cap in &[1usize << 16, 1 << 20] {
            out.push(ExMemParams { rank_cap, memo_cap });
        }
    }
    for _ in 0..extra {
        out.push(ExMemParams {
            rank_cap: rng.gen_range(4usize..=96),
            memo_cap: 1usize << rng.gen_range(14u32..22),
        });
    }
    out
}

/// Index of the best score; earlier candidates win ties, so the shipped
/// default (index 0) is only displaced by a strict improvement.
fn argbest(scores: &[TuneScore]) -> usize {
    let mut best = 0;
    for (i, score) in scores.iter().enumerate().skip(1) {
        if score.beats(&scores[best]) {
            best = i;
        }
    }
    best
}

/// Runs the whole three-family search and assembles the report.
///
/// Candidate lists are generated serially from the seed; scoring fans out
/// over `opts.threads` via [`for_each_cell`]; the winner reduction is
/// serial again — so the report is a pure function of `(library, opts
/// minus threads)` and bit-identical across thread counts.
///
/// # Panics
///
/// Panics if `opts.threads` is zero or `library` is empty.
pub fn tune_grid(platform: &Platform, library: &[AppRef], opts: &TuneOptions) -> TuneReport {
    assert!(!library.is_empty(), "application library must not be empty");
    let streams = tune_streams(library, opts.quick, opts.seed);
    let requests_per_stream = streams.first().map(|(_, s)| s.len()).unwrap_or(0);

    // Candidate generation is serial and seeded: the random tail of each
    // family draws from its own deterministic sub-seed.
    let extra = if opts.quick { 6 } else { 12 };
    let ab = adaptive_batch_candidates(&mut StdRng::seed_from_u64(opts.seed ^ 0xadba), extra);
    let sa = slack_aware_candidates(&mut StdRng::seed_from_u64(opts.seed ^ 0x51ac), extra / 2);
    let meta = meta_candidates(&mut StdRng::seed_from_u64(opts.seed ^ 0x3e7a), extra / 2);
    let ex = exmem_candidates(&mut StdRng::seed_from_u64(opts.seed ^ 0xe0e0), extra / 2);

    // EX-MEM runs carry only the online node limit in their context
    // budget: the candidate's rank cap rides in the scheduler instance,
    // and `tightest()` must not clamp caps above the shipped default.
    let exmem_budget = SearchBudget::nodes(SearchBudget::ONLINE_WORK_UNITS);
    let online = SearchBudget::online();

    // The uncapped EX-MEM reference pins the truncation bar every capped
    // candidate must clear (see [`exmem_eligible`]). Three serial runs
    // before the fan-out: cheap, and trivially thread-independent.
    let uncapped_truncations: u64 = streams
        .iter()
        .map(|stream| {
            let uncapped = ExMem::new().with_budget(SearchBudget::unbounded());
            score(platform, stream, uncapped, Immediate, exmem_budget).2
        })
        .sum();

    // One flat work index over all families, so slow META and EX-MEM
    // cells steal time from fast policy cells instead of serializing
    // their family. Policy-family cells (AdaptiveBatch, SlackAware) are
    // scored under MMKP-MDF with a fresh policy instance per stream (the
    // adaptive policies are stateful); META cells under per-request and
    // reference-batched admission; EX-MEM cells under `Immediate`. Cells
    // yield `(score, truncations)`; only the EX-MEM family reports the
    // truncation axis.
    let total = ab.len() + sa.len() + meta.len() + ex.len();
    let scores = for_each_cell(total, opts.threads, |cell| {
        let runs: Vec<(f64, f64, u64)> = if cell < ab.len() {
            let params = &ab[cell];
            streams
                .iter()
                .map(|s| score(platform, s, MmkpMdf::new(), params.policy(), online))
                .collect()
        } else if cell < ab.len() + sa.len() {
            let params = &sa[cell - ab.len()];
            streams
                .iter()
                .map(|s| score(platform, s, MmkpMdf::new(), params.policy(), online))
                .collect()
        } else if cell < ab.len() + sa.len() + meta.len() {
            let params = &meta[cell - ab.len() - sa.len()];
            let sched = || MetaScheduler::with_config(params.config());
            streams
                .iter()
                .flat_map(|s| {
                    [
                        score(platform, s, sched(), Immediate, online),
                        score(platform, s, sched(), meta_reference_batch_policy(), online),
                    ]
                })
                .collect()
        } else {
            let params = &ex[cell - ab.len() - sa.len() - meta.len()];
            streams
                .iter()
                .map(|s| score(platform, s, params.scheduler(), Immediate, exmem_budget))
                .collect()
        };
        mean_score(&runs)
    });

    let (ab_cells, rest) = scores.split_at(ab.len());
    let (sa_cells, rest) = rest.split_at(sa.len());
    let (meta_cells, ex_cells) = rest.split_at(meta.len());
    let strip =
        |cells: &[(TuneScore, u64)]| -> Vec<TuneScore> { cells.iter().map(|c| c.0).collect() };
    let (ab_scores, sa_scores, meta_scores) = (strip(ab_cells), strip(sa_cells), strip(meta_cells));
    let ex_scores = strip(ex_cells);
    // Ineligible EX-MEM candidates (contract breakers) are ranked with a
    // sentinel score no real run can reach, so they can never displace
    // the shipped default; their *true* scores still go in the report.
    let ex_ranked: Vec<TuneScore> = ex_cells
        .iter()
        .map(|&(score, truncations)| {
            if exmem_eligible(truncations, uncapped_truncations) {
                score
            } else {
                TuneScore {
                    acceptance: -1.0,
                    energy_per_job: f64::MAX,
                }
            }
        })
        .collect();

    let ab_best = argbest(&ab_scores);
    let sa_best = argbest(&sa_scores);
    let meta_best = argbest(&meta_scores);
    let ex_best = argbest(&ex_ranked);

    TuneReport {
        seed: opts.seed,
        quick: opts.quick,
        requests_per_stream,
        streams: streams.iter().map(|(label, _)| label.to_string()).collect(),
        adaptive_batch: AdaptiveBatchOutcome {
            evaluated: ab.len(),
            shipped: AdaptiveBatchCandidate {
                params: ab[0].clone(),
                score: ab_scores[0],
            },
            winner: AdaptiveBatchCandidate {
                params: ab[ab_best].clone(),
                score: ab_scores[ab_best],
            },
            winner_dominates: ab_best != 0,
        },
        slack_aware: SlackAwareOutcome {
            evaluated: sa.len(),
            shipped: SlackAwareCandidate {
                params: sa[0].clone(),
                score: sa_scores[0],
            },
            winner: SlackAwareCandidate {
                params: sa[sa_best].clone(),
                score: sa_scores[sa_best],
            },
            winner_dominates: sa_best != 0,
        },
        meta: MetaOutcome {
            evaluated: meta.len(),
            shipped: MetaCandidate {
                params: meta[0].clone(),
                score: meta_scores[0],
            },
            winner: MetaCandidate {
                params: meta[meta_best].clone(),
                score: meta_scores[meta_best],
            },
            winner_dominates: meta_best != 0,
        },
        exmem: ExMemOutcome {
            evaluated: ex.len(),
            uncapped_truncations,
            shipped: ExMemCandidate {
                params: ex[0].clone(),
                score: ex_scores[0],
                truncations: ex_cells[0].1,
            },
            winner: ExMemCandidate {
                params: ex[ex_best].clone(),
                score: ex_scores[ex_best],
                truncations: ex_cells[ex_best].1,
            },
            winner_dominates: ex_best != 0,
        },
    }
}

/// Renders the tuning outcome: one shipped-vs-winner row pair per family,
/// with the knobs spelled out and the score axes side by side.
pub fn tune_report(report: &TuneReport) -> String {
    let mut out = format!(
        "Parameter fitting over {} streams ({} requests each, seed {}): \
         grid + seeded random search, scored by mean acceptance with \
         energy/job as the tiebreak\n\n",
        report.streams.join("/"),
        report.requests_per_stream,
        report.seed,
    );
    let mut t = TextTable::new(vec![
        "Family",
        "Row",
        "Parameters",
        "acceptance",
        "J/job",
        "dominates",
    ]);
    let score_cols = |s: &TuneScore| {
        (
            format!("{:.4}", s.acceptance),
            format!("{:.2}", s.energy_per_job),
        )
    };
    let ab_params = |p: &AdaptiveBatchParams| {
        format!(
            "max_batch={} gather={} low={} high={}",
            p.max_batch, p.gather_target, p.low_acceptance, p.high_acceptance
        )
    };
    let sa_params = |p: &SlackAwareParams| format!("window={} margin={}", p.max_window, p.margin);
    let ex_params = |p: &ExMemParams| format!("rank_cap={} memo_cap={}", p.rank_cap, p.memo_cap);
    let meta_params = |p: &MetaParams| {
        format!(
            "rate={}/{} util={}/{} slack={}",
            p.heavy_enter_rate,
            p.heavy_exit_rate,
            p.heavy_enter_util,
            p.heavy_exit_util,
            p.exact_min_slack
        )
    };
    let mut row = |family: &str, kind: &str, params: String, score: &TuneScore, dominates: &str| {
        let (acc, energy) = score_cols(score);
        t.add_row(vec![
            family.to_string(),
            kind.to_string(),
            params,
            acc,
            energy,
            dominates.to_string(),
        ]);
    };
    let flag = |d: bool| if d { "yes" } else { "no" };
    row(
        "AdaptiveBatch",
        "shipped",
        ab_params(&report.adaptive_batch.shipped.params),
        &report.adaptive_batch.shipped.score,
        "-",
    );
    row(
        "AdaptiveBatch",
        "winner",
        ab_params(&report.adaptive_batch.winner.params),
        &report.adaptive_batch.winner.score,
        flag(report.adaptive_batch.winner_dominates),
    );
    row(
        "SlackAware",
        "shipped",
        sa_params(&report.slack_aware.shipped.params),
        &report.slack_aware.shipped.score,
        "-",
    );
    row(
        "SlackAware",
        "winner",
        sa_params(&report.slack_aware.winner.params),
        &report.slack_aware.winner.score,
        flag(report.slack_aware.winner_dominates),
    );
    row(
        "META",
        "shipped",
        meta_params(&report.meta.shipped.params),
        &report.meta.shipped.score,
        "-",
    );
    row(
        "META",
        "winner",
        meta_params(&report.meta.winner.params),
        &report.meta.winner.score,
        flag(report.meta.winner_dominates),
    );
    row(
        "EX-MEM",
        "shipped",
        format!(
            "{} trunc={}",
            ex_params(&report.exmem.shipped.params),
            report.exmem.shipped.truncations
        ),
        &report.exmem.shipped.score,
        "-",
    );
    row(
        "EX-MEM",
        "winner",
        format!(
            "{} trunc={}",
            ex_params(&report.exmem.winner.params),
            report.exmem.winner.truncations
        ),
        &report.exmem.winner.score,
        flag(report.exmem.winner_dominates),
    );
    out.push_str(&t.to_string());
    out.push_str(&format!(
        "\nCandidates evaluated: {} AdaptiveBatch, {} SlackAware, {} META, \
         {} EX-MEM. A \"yes\" in `dominates` means the winner strictly \
         beats the shipped default on these streams — the fitted() \
         constructors and the shipped exact-path caps record such \
         winners. EX-MEM candidates must additionally keep a ≥2× drop in \
         budget truncations against the uncapped reference ({} over these \
         streams) — an over-wide cap stops producing Exact proofs and \
         starves the warm-start cache.\n",
        report.adaptive_batch.evaluated,
        report.slack_aware.evaluated,
        report.meta.evaluated,
        report.exmem.evaluated,
        report.exmem.uncapped_truncations,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_workload::scenarios;

    fn tiny_library() -> Vec<AppRef> {
        vec![scenarios::lambda1(), scenarios::lambda2()]
    }

    #[test]
    fn candidate_lists_start_with_the_shipped_defaults() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            adaptive_batch_candidates(&mut rng, 2)[0],
            AdaptiveBatchParams::shipped()
        );
        assert_eq!(
            slack_aware_candidates(&mut rng, 2)[0],
            SlackAwareParams::shipped()
        );
        assert_eq!(meta_candidates(&mut rng, 2)[0], MetaParams::shipped());
        assert_eq!(exmem_candidates(&mut rng, 2)[0], ExMemParams::shipped());
    }

    #[test]
    fn exmem_candidates_are_seed_deterministic_and_sane() {
        let a = exmem_candidates(&mut StdRng::seed_from_u64(9), 4);
        let b = exmem_candidates(&mut StdRng::seed_from_u64(9), 4);
        assert_eq!(a, b);
        let c = exmem_candidates(&mut StdRng::seed_from_u64(10), 4);
        assert_ne!(a, c, "different seeds must explore different samples");
        for params in &a {
            assert!(params.rank_cap >= 1, "a zero rank cap evaluates nothing");
            assert!(params.memo_cap.is_power_of_two());
        }
    }

    #[test]
    fn exmem_eligibility_is_the_two_x_truncation_contract() {
        // Calm streams (no uncapped truncations) demand a clean run.
        assert!(exmem_eligible(0, 0));
        assert!(!exmem_eligible(1, 0));
        // Busy streams demand at least a 2× drop.
        assert!(exmem_eligible(7, 15));
        assert!(!exmem_eligible(8, 15));
    }

    #[test]
    fn exmem_candidate_budget_survives_online_composition() {
        // The candidate's cap must govern when composed with the bare
        // online node budget the EX-MEM cells are scored under; the
        // shipped `online()` budget would clamp caps above 24.
        let candidate = ExMemParams {
            rank_cap: 64,
            memo_cap: 1 << 16,
        };
        let own = SearchBudget::unbounded().with_rank_cap(candidate.rank_cap);
        let context = SearchBudget::nodes(SearchBudget::ONLINE_WORK_UNITS);
        assert_eq!(own.tightest(context).rank_cap(), Some(64));
        assert_eq!(
            own.tightest(SearchBudget::online()).rank_cap(),
            Some(SearchBudget::ONLINE_RANK_CAP),
            "the shipped online budget clamps — the reason cells use nodes()"
        );
    }

    #[test]
    fn candidate_lists_are_seed_deterministic() {
        let a = meta_candidates(&mut StdRng::seed_from_u64(9), 4);
        let b = meta_candidates(&mut StdRng::seed_from_u64(9), 4);
        assert_eq!(a, b);
        let c = meta_candidates(&mut StdRng::seed_from_u64(10), 4);
        assert_ne!(a, c, "different seeds must explore different samples");
    }

    #[test]
    fn every_meta_candidate_validates() {
        let mut rng = StdRng::seed_from_u64(77);
        for params in meta_candidates(&mut rng, 16) {
            params
                .config()
                .validate()
                .unwrap_or_else(|e| panic!("candidate {params:?} invalid: {e}"));
        }
    }

    #[test]
    fn every_policy_candidate_validates() {
        let mut rng = StdRng::seed_from_u64(78);
        for params in adaptive_batch_candidates(&mut rng, 16) {
            params
                .policy()
                .validate()
                .unwrap_or_else(|e| panic!("candidate {params:?} invalid: {e}"));
        }
        for params in slack_aware_candidates(&mut rng, 16) {
            params
                .policy()
                .validate()
                .unwrap_or_else(|e| panic!("candidate {params:?} invalid: {e}"));
        }
    }

    #[test]
    fn score_order_prefers_acceptance_then_energy() {
        let better_acc = TuneScore {
            acceptance: 0.9,
            energy_per_job: 50.0,
        };
        let worse_acc = TuneScore {
            acceptance: 0.8,
            energy_per_job: 10.0,
        };
        assert!(better_acc.beats(&worse_acc));
        assert!(!worse_acc.beats(&better_acc));
        let cheaper = TuneScore {
            acceptance: 0.9,
            energy_per_job: 40.0,
        };
        assert!(cheaper.beats(&better_acc));
        assert!(!better_acc.beats(&better_acc), "a tie must not dominate");
        assert_eq!(argbest(&[worse_acc, better_acc, cheaper, cheaper]), 2);
    }

    #[test]
    fn tune_streams_cover_three_shapes() {
        let streams = tune_streams(&tiny_library(), true, 3);
        let labels: Vec<&str> = streams.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["poisson", "bursty", "diurnal"]);
        assert!(streams.iter().all(|(_, s)| s.len() == 30));
    }

    #[test]
    fn report_renders_all_families() {
        // A miniature end-to-end run on the cheap scenario library.
        let report = tune_grid(
            &scenarios::platform(),
            &tiny_library(),
            &TuneOptions {
                seed: 5,
                quick: true,
                threads: 2,
            },
        );
        assert_eq!(report.streams.len(), 3);
        assert!(report.adaptive_batch.evaluated > 27);
        assert!(report.slack_aware.evaluated > 12);
        assert!(report.meta.evaluated > 12);
        assert!(report.exmem.evaluated > 12);
        let text = tune_report(&report);
        assert!(text.contains("AdaptiveBatch"));
        assert!(text.contains("SlackAware"));
        assert!(text.contains("META"));
        assert!(text.contains("EX-MEM"));
        assert!(text.contains("rank_cap="));
        assert!(text.contains("shipped"));
        assert!(text.contains("winner"));
    }

    #[test]
    fn report_roundtrips_through_serde_json() {
        let report = tune_grid(
            &scenarios::platform(),
            &tiny_library(),
            &TuneOptions {
                seed: 2,
                quick: true,
                threads: 1,
            },
        );
        let text = serde_json::to_string(&report).unwrap();
        let back: TuneReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, report.seed);
        assert_eq!(back.streams, report.streams);
        assert_eq!(
            back.adaptive_batch.winner.params,
            report.adaptive_batch.winner.params
        );
        assert_eq!(
            back.meta.winner.score.acceptance.to_bits(),
            report.meta.winner.score.acceptance.to_bits()
        );
        assert_eq!(back.exmem.winner.params, report.exmem.winner.params);
    }
}
