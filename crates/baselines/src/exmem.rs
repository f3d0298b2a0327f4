//! EX-MEM: exhaustive segment-by-segment search with memoization — now
//! *anytime* and reusable across runtime-manager activations.
//!
//! The paper's optimal reference: it "exhaustively checks all possible
//! mappings for each of the mapping segments; in each constructed mapping
//! segment it cuts the segment on the shortest job, and generates the next
//! mapping segment", memoizing "the best energy consumption for a given
//! current state (a pair of jobs, their progress rates, and time)".
//!
//! This implementation keeps the search *exact* while making it fast enough
//! for Rust-scale sweeps:
//!
//! * per-state memoization on quantized `(time, {job, ρ})` keys, storing
//!   either the exact optimum (with the optimal first-segment assignment,
//!   for schedule reconstruction) or a proven lower bound;
//! * admissible branch-and-bound: a branch is cut when the energy spent so
//!   far plus `Σ_jobs min_point(ξ)·ρ` cannot beat the incumbent — this
//!   bound never overestimates, so optimality is preserved;
//! * incumbent seeding with the MMKP-MDF solution: the heuristic's energy
//!   is a valid upper bound and prunes most of the tree immediately.
//!
//! Two extensions make the exhaustive reference viable *online*:
//!
//! * **memo reuse across activations** — keys are `(time, {JobId, ρ})`,
//!   so states proven at one activation are hits at the next (successive
//!   activations of an online run revisit overlapping job states). A
//!   per-job signature (application identity + deadline) guards validity:
//!   any mismatch clears the table, so reuse never crosses unrelated runs.
//! * **a deterministic anytime mode** — when the
//!   [`SchedulingContext`]'s [`SearchBudget`] (or this instance's own cap)
//!   bounds the search, exploration stops after that many *work units*
//!   (state expansions + enumeration steps; never wall-clock, so budgeted
//!   runs are reproducible per seed). A truncated search returns the best
//!   feasible schedule found so far, falling back to MMKP-MDF's answer
//!   when the budget expires with nothing feasible. Memo soundness is
//!   preserved: results tainted by truncation are stored as upper-bound
//!   (`Anytime`) entries, never as exact optima or infeasibility proofs.
//!
//! Two further extensions make it viable at *scale*:
//!
//! * **capped candidate ranking** — when the budget carries a finite
//!   [`rank_cap`](SearchBudget::rank_cap), each expanded state scores its
//!   first-segment candidates with the cheap admissible lower bound
//!   (segment energy + per-job minimum-energy completion, no joint
//!   feasibility beyond the segment itself), ranks them, and recurses
//!   into only the top-N. Exactly like budget truncation, a finite cap
//!   taints the subtree: results memoize as `Anytime` upper bounds, never
//!   as exact optima or failure proofs, so soundness is unchanged. With
//!   `rank_cap = usize::MAX` the legacy exhaustive enumeration runs
//!   verbatim (proptest-pinned bit-identical in
//!   `tests/exmem_rank_cache.rs`).
//! * **a persistent warm-start cache** — the cross-activation memo lives
//!   in an owned [`MappingCache`] that serializes its proofs (`Exact` +
//!   `Infeasible`) to JSON alongside recorded workload traces, so a
//!   replayed stream warm-starts from proofs instead of re-searching
//!   (see `cache.rs` for the format and the content-based signature
//!   revalidation that replaces pointer identity across the
//!   serialization boundary). Every reconstructed schedule is validated,
//!   in release builds too, because a loaded entry can be well-formed
//!   yet wrong for the current jobs; a failing one degrades to the MDF
//!   fallback.
//!
//! Expanding a state allocates nothing but the memo entry it inserts.
//! Lookups hash a flat key buffer, `[time_q, id0, ρ0, id1, ρ1, …]`, that
//! is copied into an owned key only on insertion. Each search depth owns
//! a `Level` of scratch that the scheduler keeps across activations: the
//! key buffer, the enumerator's partial assignment, and the generated
//! candidates as fixed-stride choice rows, concatenated successor states
//! and per-candidate scores, explored through an index array sorted
//! stably by bound. `solve` takes its depth's level out of the pool for
//! the expansion, so a child's candidates never alias its parent's.
//!
//! The enumerator reaches no operating point through a pointer. Flat
//! per-activation tables, refilled in place like the root state and the
//! MDF seeder, hold every fitting option's point index, cores per type
//! and full-execution time, in the order it is tried, and one
//! subtract/add array holds the cores still free. Each recursion level
//! passes down `delta`, the segment length set so far (`min(time × ρ)`
//! over the running jobs, in `push_candidate`'s own arithmetic), and the
//! last job's choices are tried in a loop, one complete assignment each.
//! Every assignment is charged its work unit as before, but one with
//! `t + delta > due`, where `due` is the state's earliest
//! `deadline + EPS`, is never scored: the job holding `due` either
//! completes in the segment, late, or keeps work past its deadline, which
//! `viable` rejects. A frozen copy of the allocating search
//! (`exmem_reference.rs`) pins schedules, work counts and memo tables bit
//! for bit.
//!
//! With an unbounded budget the search, its exploration order and its
//! results are bit-identical to the pre-anytime EX-MEM (pinned by
//! `tests/exmem_budget.rs`).

use std::collections::{HashMap, HashSet};
use std::mem;

use amrm_core::{MmkpMdf, Scheduler, SchedulingContext, SearchBudget};
use amrm_metrics::journal::{EventKind, JournalEvent};
use amrm_model::{Job, JobMapping, JobSet, Schedule, Segment};
use amrm_platform::{Platform, EPS};

use crate::cache::{Key, MappingCache, MemoVal};

/// Quantization step for memoization keys (progress ratios and time).
const KEY_QUANTUM: f64 = 1e-9;
/// Remaining ratio below which a job counts as finished.
const RHO_EPS: f64 = 1e-9;
/// Memo entries beyond which bounded eviction kicks in (a deterministic
/// size cap: long streams reuse states heavily, but unrelated states from
/// thousands of activations must not accumulate without bound). Crossing
/// the cap evicts the refinable entry classes (`Anytime` upper bounds and
/// incumbent-relative `Bound`s) wholesale and keeps the expensive proofs
/// (`Exact`, `Infeasible`); only if the proofs alone still exceed the cap
/// is the table cleared outright.
const MEMO_CAP: usize = 1 << 20;

/// The exhaustive optimal scheduler (EX-MEM), with memo reuse across
/// activations and a budget-bounded anytime mode.
///
/// # Examples
///
/// ```
/// use amrm_baselines::ExMem;
/// use amrm_core::Scheduler;
/// use amrm_workload::scenarios;
///
/// // The adaptive schedule of Fig. 1(c) is optimal for S1 at t = 1.
/// let jobs = scenarios::s1_jobs_at_t1();
/// let schedule = ExMem::new()
///     .schedule_at(&jobs, &scenarios::platform(), 1.0)
///     .expect("feasible");
/// let rho1 = 1.0 - 1.0 / 5.3;
/// assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct ExMem {
    seed_with_mdf: bool,
    reuse_memo: bool,
    /// This instance's own search cap, combined with the context's budget
    /// via [`SearchBudget::tightest`] at every activation.
    budget: SearchBudget,
    /// Memo entries beyond which bounded eviction runs (see `MEMO_CAP`).
    memo_cap: usize,
    /// The cross-activation memo, its per-job validity signatures, and
    /// the warm (loaded-from-disk) key set — extracted into an owned,
    /// serializable store (see `cache.rs`).
    cache: MappingCache,
    nodes_explored: u64,
    degraded: bool,
    /// Memo entries dropped by cap eviction during the current
    /// activation — reported as one aggregate `memo_evict` journal event.
    last_evicted: usize,
    /// Candidates dropped by the rank cap during the most recent
    /// activation — reported as one aggregate `rank_pruned` event.
    last_rank_pruned: u64,
    /// Conclusive memo hits served from disk-loaded entries during the
    /// most recent activation — reported as one `cache_warm_hit` event.
    last_warm_hits: u64,
    /// The incumbent seeder, kept so its packing buffers are reused.
    seeder: MmkpMdf,
    /// Per-activation tables and the per-depth candidate arena.
    scratch: Scratch,
}

/// How many candidates past the rank cap the capped enumeration still
/// generates before stopping: ranking needs a margin of slack so the
/// lower-bound sort has something to choose from, but generation must not
/// degenerate back into the exponential full enumeration.
const RANK_OVERSAMPLE: usize = 4;

/// Buffers refilled at every activation instead of reallocated.
#[derive(Debug, Clone, Default)]
struct Scratch {
    tables: Tables,
    /// The root state: `(job index, remaining ratio)` per job.
    root: Vec<(usize, f64)>,
    /// Cores per type the enumerator's partial assignment leaves free.
    free: Vec<u32>,
    /// One candidate arena per search depth.
    levels: Vec<Level>,
}

/// The per-activation option tables. The enumerator reads each option's
/// point, cores and time from flat arrays (see [`Tables::of`]), never
/// through the job's application.
#[derive(Debug, Clone, Default)]
struct Tables {
    /// Per job, concatenated: the operating points that fit the platform,
    /// in the order the enumerator tries them. That is index order when
    /// the rank cap is infinite, and cheapest-energy-first (ties by
    /// index) under a finite cap, so the kept prefix is the low-energy
    /// one. Job `i`'s points are `options[starts[i]..starts[i + 1]]`.
    options: Vec<usize>,
    starts: Vec<usize>,
    /// Per option: its cores per type, `types` entries each.
    demand: Vec<u32>,
    /// Per option: its full-execution time.
    time: Vec<f64>,
    /// The platform's number of core types.
    types: usize,
    /// Per job: minimum full-execution energy over its feasible points.
    min_energy: Vec<f64>,
    /// Per job: minimum full-execution time over its feasible points.
    min_time: Vec<f64>,
}

impl Tables {
    /// Refills the tables for `jobs` on `platform`, each job's points in
    /// index order or, if `cheapest_first`, by energy (ties by index).
    /// Returns `false` if some job has no point that fits the platform.
    fn fill(&mut self, jobs: &[Job], platform: &Platform, cheapest_first: bool) -> bool {
        self.options.clear();
        self.starts.clear();
        self.demand.clear();
        self.time.clear();
        self.types = platform.num_types();
        self.min_energy.clear();
        self.min_time.clear();
        self.starts.push(0);
        for job in jobs {
            let start = self.options.len();
            self.options.extend(
                (0..job.app().num_points())
                    .filter(|&j| job.point(j).resources().fits_within(platform.counts())),
            );
            let opts = &mut self.options[start..];
            if opts.is_empty() {
                return false;
            }
            if cheapest_first {
                opts.sort_by(|&a, &b| {
                    job.point(a)
                        .energy()
                        .total_cmp(&job.point(b).energy())
                        .then(a.cmp(&b))
                });
            }
            let (mut min_energy, mut min_time) = (f64::INFINITY, f64::INFINITY);
            for &j in &*opts {
                let point = job.point(j);
                self.demand.extend_from_slice(point.resources().as_slice());
                self.time.push(point.time());
                min_energy = min_energy.min(point.energy());
                min_time = min_time.min(point.time());
            }
            self.min_energy.push(min_energy);
            self.min_time.push(min_time);
            self.starts.push(self.options.len());
        }
        true
    }

    /// Job `ji`'s options in enumeration order: the point index, its
    /// cores per type and its full-execution time.
    fn of(&self, ji: usize) -> impl Iterator<Item = (usize, &[u32], f64)> {
        let (start, end) = (self.starts[ji], self.starts[ji + 1]);
        self.options[start..end]
            .iter()
            .zip(self.demand[start * self.types..end * self.types].chunks_exact(self.types))
            .zip(&self.time[start..end])
            .map(|((&point, demand), &time)| (point, demand, time))
    }
}

/// Whether `demand` fits in the `free` cores, type by type.
fn fits(free: &[u32], demand: &[u32]) -> bool {
    free.iter().zip(demand).all(|(free, d)| d <= free)
}

/// The scratch of one search depth: the expanded state's memo key, the
/// enumerator's partial assignment, and the candidates it generated.
#[derive(Debug, Clone, Default)]
struct Level {
    /// Memo key of the expanded state (see [`fill_key`]).
    key: Vec<u64>,
    /// The partial assignment, one slot per job of the state (`None` =
    /// suspended in the first segment).
    choice: Vec<Option<usize>>,
    /// Candidate `c`'s assignment is `rows[c * n..(c + 1) * n]` for a
    /// state of `n` jobs.
    rows: Vec<Option<usize>>,
    /// Candidate successor states, concatenated (see [`Candidate`]).
    next: Vec<(usize, f64)>,
    candidates: Vec<Candidate>,
    /// Candidate indices in exploration order: ascending bound, ties in
    /// generation order.
    ranked: Vec<usize>,
}

/// One enumerated first-segment candidate.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    seg_energy: f64,
    next_t: f64,
    bound: f64,
    /// The state after the segment is `Level::next[start..end]`.
    start: usize,
    end: usize,
}

struct SearchCtx<'a> {
    jobs: &'a [Job],
    tables: &'a Tables,
    free: &'a mut [u32],
    levels: &'a mut Vec<Level>,
    memo: &'a mut HashMap<Key, MemoVal>,
    /// Keys loaded from a persisted cache (warm-start accounting).
    warm: &'a HashSet<Key>,
    /// Work units spent so far this activation (state expansions +
    /// enumeration steps) — the deterministic quantity the budget caps.
    work: u64,
    limit: Option<u64>,
    /// Per-state candidate cap (`usize::MAX` = exhaustive enumeration).
    rank_cap: usize,
    /// Candidates per state at which the enumerator stops
    /// (`usize::MAX` when uncapped).
    gen_cap: usize,
    /// Whether the enumerator tries suspension before a job's points
    /// (the exhaustive order) or after them (the capped order: an
    /// all-suspended assignment never advances time, so suspending last
    /// keeps the generated prefix productive).
    suspend_first: bool,
    /// Whether the result may be approximate: the budget truncated the
    /// search, the rank cap dropped candidates, or an `Anytime`
    /// (upper-bound) memo entry was consumed.
    approximate: bool,
    /// Whether the *work budget* specifically ran out this activation
    /// (monotone; drives the `truncation` journal event, which must not
    /// fire for mere rank-cap taint — that has its own `rank_pruned`
    /// signal).
    budget_truncated: bool,
    /// Memo lookups this activation that returned a conclusive entry
    /// (exact / infeasible / pruning bound).
    memo_hits: u64,
    /// States expanded after an inconclusive lookup.
    memo_misses: u64,
    /// Candidates dropped by the rank cap this activation.
    rank_pruned: u64,
    /// Conclusive hits served from disk-loaded (warm) entries.
    warm_hits: u64,
}

impl<'a> SearchCtx<'a> {
    /// A search over `tables` under `budget`, with no work spent and
    /// every core of `capacity` free.
    fn new(
        jobs: &'a [Job],
        capacity: &'a [u32],
        tables: &'a Tables,
        free: &'a mut Vec<u32>,
        levels: &'a mut Vec<Level>,
        cache: &'a mut MappingCache,
        budget: SearchBudget,
    ) -> Self {
        free.clear();
        free.extend_from_slice(capacity);
        let rank_cap = budget.rank_cap().unwrap_or(usize::MAX);
        SearchCtx {
            jobs,
            tables,
            free,
            levels,
            memo: &mut cache.memo,
            warm: &cache.warm,
            work: 0,
            limit: budget.node_limit(),
            rank_cap,
            gen_cap: rank_cap.saturating_mul(RANK_OVERSAMPLE).max(1),
            suspend_first: rank_cap == usize::MAX,
            approximate: false,
            budget_truncated: false,
            memo_hits: 0,
            memo_misses: 0,
            rank_pruned: 0,
            warm_hits: 0,
        }
    }

    /// Returns `true` (and marks the search approximate) once the work
    /// budget is exhausted.
    fn out_of_budget(&mut self) -> bool {
        if self.limit.is_some_and(|l| self.work >= l) {
            self.approximate = true;
            self.budget_truncated = true;
            true
        } else {
            false
        }
    }
}

impl ExMem {
    /// Creates an EX-MEM scheduler (incumbent-seeded, memo-reusing,
    /// unbounded by default — the exact reference configuration).
    pub fn new() -> Self {
        ExMem {
            seed_with_mdf: true,
            reuse_memo: true,
            budget: SearchBudget::unbounded(),
            memo_cap: MEMO_CAP,
            cache: MappingCache::new(),
            nodes_explored: 0,
            degraded: false,
            last_evicted: 0,
            last_rank_pruned: 0,
            last_warm_hits: 0,
            seeder: MmkpMdf::new(),
            scratch: Scratch::default(),
        }
    }

    /// Installs a (typically disk-loaded) [`MappingCache`] so this
    /// instance warm-starts from its proofs. Loaded entries are *not*
    /// trusted blindly: at every activation the content-based signatures
    /// are revalidated against the current jobs' applications and
    /// deadlines, and any mismatch clears the table before a single hit
    /// is served.
    #[must_use]
    pub fn with_cache(mut self, cache: MappingCache) -> Self {
        self.cache = cache;
        self
    }

    /// The cross-activation mapping cache (save it with
    /// [`MappingCache::save`] to warm-start a later run).
    pub fn cache(&self) -> &MappingCache {
        &self.cache
    }

    /// Disables MDF incumbent seeding (pure exhaustive search with
    /// memoization — slower, same result; used by ablation benches).
    /// Without the seed there is also no fallback schedule when a bounded
    /// budget expires empty-handed.
    #[must_use]
    pub fn without_seed(mut self) -> Self {
        self.seed_with_mdf = false;
        self
    }

    /// Disables memo reuse across activations: the table is cleared at
    /// every [`schedule`](Scheduler::schedule) call, reproducing the
    /// pre-reuse per-activation search exactly. Used by the equivalence
    /// tests that pin memo reuse as behaviour-preserving.
    #[must_use]
    pub fn without_memo_reuse(mut self) -> Self {
        self.reuse_memo = false;
        self
    }

    /// The default memo-size cap (see `MEMO_CAP`), exposed so the tune
    /// search can anchor its candidate grid on the shipped value.
    pub const DEFAULT_MEMO_CAP: usize = MEMO_CAP;

    /// Sets this instance's own [`SearchBudget`].
    #[must_use]
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the memo-size cap beyond which bounded eviction runs
    /// (default `1 << 20` entries). Used by memory-pressure tests and by
    /// deployments trading reuse for footprint.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_memo_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "memo cap must be at least 1");
        self.memo_cap = cap;
        self
    }

    /// Search work units spent by the most recent
    /// [`schedule`](Scheduler::schedule) call.
    pub fn nodes_explored(&self) -> u64 {
        self.nodes_explored
    }

    /// Whether the most recent call was truncated by its budget (the
    /// returned schedule — if any — is best-found-so-far or the MDF
    /// fallback, not a proven optimum).
    pub fn last_degraded(&self) -> bool {
        self.degraded
    }

    /// Memoized states currently retained for reuse across activations.
    pub fn memo_len(&self) -> usize {
        self.cache.len()
    }

    /// Candidates dropped by the rank cap during the most recent
    /// [`schedule`](Scheduler::schedule) call.
    pub fn last_rank_pruned(&self) -> u64 {
        self.last_rank_pruned
    }

    /// Conclusive memo hits served from disk-loaded (warm) cache entries
    /// during the most recent [`schedule`](Scheduler::schedule) call.
    pub fn last_warm_hits(&self) -> u64 {
        self.last_warm_hits
    }

    /// Clears the memo unless every job's identity matches the signature
    /// it was memoized under (same application name and operating-point
    /// content, same deadline). JobIds never recur with different
    /// parameters within one runtime-manager run, so a mismatch means
    /// this instance crossed into an unrelated job population — or was
    /// warm-started from a cache recorded against a different
    /// application library.
    fn guard_signatures(&mut self, jobs: &[Job]) {
        let mismatch = jobs.iter().any(|job| {
            self.cache
                .signatures
                .get(&job.id().0)
                .is_some_and(|sig| !sig.matches(job))
        });
        if mismatch {
            self.cache.clear();
        } else {
            self.enforce_memo_cap();
        }
        for job in jobs {
            // Matching signatures are kept as-is (the common warm case),
            // so steady-state activations never re-allocate name strings.
            self.cache
                .signatures
                .entry(job.id().0)
                .or_insert_with(|| crate::cache::JobSig::of(job));
        }
    }

    /// Bounded eviction at the memo cap. The old behaviour — wiping the
    /// *entire* table at a cliff — threw away every exact optimum and
    /// infeasibility proof along with the cheap entries; instead the
    /// refinable classes are dropped first (`Anytime` upper bounds, which
    /// a later exhaustive pass re-derives anyway, then incumbent-relative
    /// `Bound`s), and the proofs survive. Eviction removes whole classes,
    /// never individual entries, so it is independent of the hash map's
    /// (randomized) iteration order and budgeted runs stay deterministic.
    /// Only when the proofs alone still exceed the cap is the table
    /// cleared outright.
    fn enforce_memo_cap(&mut self) {
        let before = self.cache.memo.len();
        if before <= self.memo_cap {
            return;
        }
        self.cache
            .memo
            .retain(|_, v| matches!(v, MemoVal::Exact { .. } | MemoVal::Infeasible));
        if self.cache.memo.len() > self.memo_cap {
            self.cache.clear();
            self.last_evicted += before;
            return;
        }
        #[cfg(debug_assertions)]
        if let Some(msg) =
            amrm_metrics::invariant::cap_exceeded(self.cache.memo.len(), Some(self.memo_cap))
        {
            panic!("EX-MEM memo {msg}");
        }
        self.last_evicted += before - self.cache.memo.len();
        // The signature map guards the memo and must not outgrow it: on
        // a long stream of fresh job ids the mismatch clear never fires,
        // so eviction time is when stale ids are shed. Keep only the
        // signatures some surviving memo key still relies on (dropping a
        // referenced one would disarm the validity guard).
        let live: HashSet<u64> = self
            .cache
            .memo
            .keys()
            .flat_map(|key| key[1..].iter().step_by(2).copied())
            .collect();
        self.cache.signatures.retain(|id, _| live.contains(id));
        let memo = &self.cache.memo;
        self.cache.warm.retain(|key| memo.contains_key(key));
    }
}

impl Default for ExMem {
    /// Same as [`ExMem::new`] — the exact reference configuration.
    fn default() -> Self {
        ExMem::new()
    }
}

impl Scheduler for ExMem {
    fn name(&self) -> &str {
        "EX-MEM"
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        let now = ctx.now;
        // The per-activation counters describe this call even when it
        // returns before searching.
        self.nodes_explored = 0;
        self.degraded = false;
        self.last_rank_pruned = 0;
        self.last_warm_hits = 0;
        self.last_evicted = 0;
        if jobs.is_empty() {
            return Some(Schedule::new());
        }
        if self.reuse_memo {
            self.guard_signatures(jobs.jobs());
        } else {
            self.cache.clear();
        }

        let job_slice = jobs.jobs();
        let effective = self.budget.tightest(ctx.budget);
        let Scratch {
            tables,
            root,
            free,
            levels,
        } = &mut self.scratch;
        // Under a finite cap the enumeration runs cheapest-energy-first,
        // so the generated (and therefore kept) prefix is the low-energy
        // one; uncapped searches keep the point order.
        if !tables.fill(job_slice, platform, effective.rank_cap().is_some()) {
            return None;
        }

        // Incumbent: MDF's energy is an upper bound on the optimum, and
        // its schedule is the fallback when a bounded budget expires with
        // nothing feasible found.
        let (incumbent, seed_schedule) = if self.seed_with_mdf {
            match self.seeder.schedule(jobs, platform, ctx) {
                Some(s) => (s.energy(jobs) + 1e-7, Some(s)),
                None => (f64::INFINITY, None),
            }
        } else {
            (f64::INFINITY, None)
        };

        root.clear();
        root.extend(job_slice.iter().map(Job::remaining).enumerate());

        let mut search = SearchCtx::new(
            job_slice,
            platform.counts().as_slice(),
            tables,
            free,
            levels,
            &mut self.cache,
            effective,
        );
        let result = solve(&mut search, 0, root, now, incumbent);
        // Budget invariant: `out_of_budget` checks before every spend,
        // so the work counter may hit the limit but never pass it.
        #[cfg(debug_assertions)]
        if let Some(msg) = amrm_metrics::invariant::budget_overdraw(search.work, search.limit) {
            panic!("EX-MEM {msg}");
        }
        let approximate = search.approximate;
        let budget_truncated = search.budget_truncated;
        let (hits, misses) = (search.memo_hits, search.memo_misses);
        let rank_cap = search.rank_cap;
        self.nodes_explored = search.work;
        self.degraded = approximate;
        self.last_rank_pruned = search.rank_pruned;
        self.last_warm_hits = search.warm_hits;

        // One aggregate event per activation, never per lookup: the memo
        // is consulted once per expanded state, so per-hit emission would
        // dominate the search itself.
        if ctx.trace.is_enabled() {
            if hits > 0 {
                ctx.trace.emit(
                    JournalEvent::at(now, EventKind::MemoHit)
                        .detail(hits.min(u64::from(u32::MAX)) as u32)
                        .value(self.cache.len() as f64),
                );
            }
            if misses > 0 {
                ctx.trace.emit(
                    JournalEvent::at(now, EventKind::MemoMiss)
                        .detail(misses.min(u64::from(u32::MAX)) as u32),
                );
            }
            if budget_truncated {
                ctx.trace.emit(
                    JournalEvent::at(now, EventKind::Truncation)
                        .value(self.nodes_explored as f64)
                        .aux(effective.node_limit().unwrap_or(0) as f64),
                );
            }
            if self.last_evicted > 0 {
                ctx.trace.emit(
                    JournalEvent::at(now, EventKind::MemoEvict)
                        .detail(self.last_evicted.min(u32::MAX as usize) as u32),
                );
            }
            if self.last_rank_pruned > 0 {
                ctx.trace.emit(
                    JournalEvent::at(now, EventKind::RankPrune)
                        .detail(self.last_rank_pruned.min(u64::from(u32::MAX)) as u32)
                        .value(rank_cap as f64),
                );
            }
            if self.last_warm_hits > 0 {
                ctx.trace.emit(
                    JournalEvent::at(now, EventKind::CacheWarmHit)
                        .detail(self.last_warm_hits.min(u64::from(u32::MAX)) as u32)
                        .value(self.cache.warm_len() as f64),
                );
            }
        }

        let schedule = match result {
            // The replayed path is checked in every build: a memo entry
            // may route through a loaded choice that is well-formed but
            // wrong for these jobs (it misses a deadline, say).
            Some(_) => reconstruct(job_slice, &self.cache.memo, root, now)
                .filter(|s| s.validate(jobs, platform, now).is_ok())
                .or(seed_schedule),
            // A truncated search that found nothing degrades to the MDF
            // incumbent; an exhaustive failure is a genuine rejection.
            None if approximate => seed_schedule,
            None => None,
        }?;
        debug_assert!(schedule.validate(jobs, platform, now).is_ok());
        Some(schedule)
    }
}

/// Writes the memo key of `state` at `t` into `key`:
/// `[time_q, id0, rho0, id1, rho1, …]`, quantized by `KEY_QUANTUM`.
fn fill_key(key: &mut Vec<u64>, jobs: &[Job], state: &[(usize, f64)], t: f64) {
    key.clear();
    key.push((t / KEY_QUANTUM).round() as u64);
    for &(i, rho) in state {
        key.push(jobs[i].id().0);
        key.push((rho / KEY_QUANTUM).round() as u64);
    }
}

/// Admissible lower bound on the energy needed to finish `state`.
fn lower_bound(ctx: &SearchCtx<'_>, state: &[(usize, f64)]) -> f64 {
    state
        .iter()
        .map(|&(i, rho)| ctx.tables.min_energy[i] * rho)
        .sum()
}

/// Returns `false` if some job can no longer meet its deadline even on its
/// fastest point with exclusive resources (admissible feasibility cut).
fn viable(ctx: &SearchCtx<'_>, state: &[(usize, f64)], t: f64) -> bool {
    state
        .iter()
        .all(|&(i, rho)| t + ctx.tables.min_time[i] * rho <= ctx.jobs[i].deadline() + EPS)
}

/// The earliest `deadline + EPS` among `state`'s jobs: no segment that
/// ends past it yields a candidate (see [`leaf`]).
fn due(ctx: &SearchCtx<'_>, state: &[(usize, f64)]) -> f64 {
    state
        .iter()
        .map(|&(i, _)| ctx.jobs[i].deadline() + EPS)
        .fold(f64::INFINITY, f64::min)
}

/// Minimum energy to finish `state` from time `t`, if it is `< incumbent`.
/// Exact when the search ran to completion; an upper bound when the work
/// budget truncated it (`ctx.approximate`). Memoizes exact values and
/// failure bounds only for untruncated subtrees, and feasible-but-
/// unproven values as [`MemoVal::Anytime`]. `depth` selects the scratch
/// level the expansion borrows from the pool.
fn solve(
    ctx: &mut SearchCtx<'_>,
    depth: usize,
    state: &[(usize, f64)],
    t: f64,
    incumbent: f64,
) -> Option<f64> {
    if state.is_empty() {
        return if incumbent > 0.0 { Some(0.0) } else { None };
    }
    if !viable(ctx, state, t) {
        return None;
    }
    if lower_bound(ctx, state) >= incumbent {
        return None;
    }
    if ctx.levels.len() == depth {
        ctx.levels.push(Level::default());
    }
    let mut level = mem::take(&mut ctx.levels[depth]);
    let result = expand(ctx, &mut level, depth, state, t, incumbent);
    ctx.levels[depth] = level;
    result
}

/// The body of [`solve`] past its cheap cuts, on `level`'s scratch.
fn expand(
    ctx: &mut SearchCtx<'_>,
    level: &mut Level,
    depth: usize,
    state: &[(usize, f64)],
    t: f64,
    incumbent: f64,
) -> Option<f64> {
    fill_key(&mut level.key, ctx.jobs, state, t);
    let mut anytime_hit: Option<f64> = None;
    match ctx.memo.get(level.key.as_slice()) {
        Some(MemoVal::Exact { energy, .. }) => {
            amrm_metrics::instrument::record_memo_hit();
            ctx.memo_hits += 1;
            if !ctx.warm.is_empty() && ctx.warm.contains(level.key.as_slice()) {
                ctx.warm_hits += 1;
            }
            return if *energy < incumbent {
                Some(*energy)
            } else {
                None
            };
        }
        Some(MemoVal::Infeasible) => {
            amrm_metrics::instrument::record_memo_hit();
            ctx.memo_hits += 1;
            if !ctx.warm.is_empty() && ctx.warm.contains(level.key.as_slice()) {
                ctx.warm_hits += 1;
            }
            return None;
        }
        Some(MemoVal::Bound { at_least }) if incumbent <= *at_least + EPS => {
            amrm_metrics::instrument::record_memo_hit();
            ctx.memo_hits += 1;
            return None;
        }
        Some(MemoVal::Anytime { energy, .. }) => anytime_hit = Some(*energy),
        _ => {}
    }

    if ctx.out_of_budget() {
        // No work left: fall back to a previously found feasible
        // completion of this state, if one beats the incumbent.
        return match anytime_hit {
            Some(energy) if energy < incumbent => Some(energy),
            _ => None,
        };
    }
    ctx.work += 1;
    ctx.memo_misses += 1;

    // Track approximation per subtree so untruncated sibling states still
    // earn exact memo entries.
    let approx_before = ctx.approximate;
    ctx.approximate = false;

    // Enumerate joint first-segment assignments: all of them when the
    // rank cap is infinite (the legacy exhaustive order, bit-identical),
    // otherwise a cheapest-energy-first generation stopped at a small
    // multiple of the cap.
    let n = state.len();
    level.choice.clear();
    level.choice.resize(n, None);
    level.rows.clear();
    level.next.clear();
    level.candidates.clear();
    // Reaching the generation cap needs more candidates than the rank
    // cap keeps, so the truncation below also marks that subtree
    // approximate.
    enumerate(ctx, level, state, (t, due(ctx, state)), 0, f64::INFINITY);
    // Best-first exploration makes the local branch-and-bound effective.
    // The sort is stable, so ties keep generation order and capped runs
    // stay deterministic.
    let Level {
        candidates, ranked, ..
    } = &mut *level;
    ranked.clear();
    ranked.extend(0..candidates.len());
    ranked.sort_by(|&a, &b| candidates[a].bound.total_cmp(&candidates[b].bound));
    if ranked.len() > ctx.rank_cap {
        // Capped ranking: only the top-N cheapest lower bounds survive
        // full recursive evaluation. Dropping candidates taints the
        // subtree exactly like budget truncation — the result memoizes
        // as an `Anytime` upper bound, never as a proof.
        let dropped = (ranked.len() - ctx.rank_cap) as u64;
        ranked.truncate(ctx.rank_cap);
        ctx.rank_pruned += dropped;
        ctx.approximate = true;
    }

    let mut local_best = incumbent;
    let mut best: Option<usize> = None;
    let mut pruned = false;
    for &c in &level.ranked {
        let cand = level.candidates[c];
        if cand.bound >= local_best {
            pruned = true;
            continue;
        }
        if let Some(sub) = solve(
            ctx,
            depth + 1,
            &level.next[cand.start..cand.end],
            cand.next_t,
            local_best - cand.seg_energy,
        ) {
            let total = cand.seg_energy + sub;
            if total < local_best {
                local_best = total;
                best = Some(c);
            }
        }
    }

    let subtree_approx = ctx.approximate;
    ctx.approximate = subtree_approx || approx_before;

    let key = level.key.as_slice();
    match best {
        Some(c) => {
            let choice = level.rows[c * n..(c + 1) * n].to_vec();
            if subtree_approx {
                // Feasible but unproven: keep the better of old and new.
                let keep_existing = matches!(
                    ctx.memo.get(key),
                    Some(MemoVal::Anytime { energy, .. }) if *energy <= local_best
                );
                if !keep_existing {
                    ctx.memo.insert(
                        key.into(),
                        MemoVal::Anytime {
                            energy: local_best,
                            choice,
                        },
                    );
                }
            } else {
                ctx.memo.insert(
                    key.into(),
                    MemoVal::Exact {
                        energy: local_best,
                        choice,
                    },
                );
            }
            Some(local_best)
        }
        None if subtree_approx => {
            // The truncated search found nothing new; a previously found
            // completion still stands if it beats the incumbent. Never
            // record a failure proof for a truncated subtree.
            match anytime_hit {
                Some(energy) if energy < incumbent => Some(energy),
                _ => None,
            }
        }
        None => {
            // Exhaustive failure — but never overwrite a known feasible
            // completion (from an earlier budgeted activation) with a
            // bound that lacks its reconstruction choice.
            if anytime_hit.is_none() {
                let val = if pruned || incumbent.is_finite() {
                    MemoVal::Bound {
                        at_least: incumbent,
                    }
                } else {
                    MemoVal::Infeasible
                };
                ctx.memo.insert(key.into(), val);
            }
            None
        }
    }
}

/// Depth-first enumeration of per-job choices (run a feasible point or
/// suspend), with per-type core pruning; complete assignments with at
/// least one running job become candidates on `level`. Uncapped, each job
/// is tried suspended first and then on its points in index order (the
/// legacy exhaustive order). Under a finite rank cap its points come
/// cheapest-energy-first and suspension last, and generation stops at
/// `ctx.gen_cap` candidates, so the kept prefix is the low-energy corner
/// of the joint space rather than an arbitrary one. Each recursion step
/// costs one budget work unit — with many concurrent jobs the joint
/// assignment space is itself exponential, so a truncated enumeration
/// (partial candidate list) is exactly what the anytime mode degrades to.
///
/// `delta` is the segment length the jobs before `depth` have set so far
/// (`min(time × ρ)` over the running ones), and `window` is `(t, due)`:
/// the expanded state's time and its earliest `deadline + EPS`. The last
/// job's choices complete an assignment each and go to [`leaf`] in a loop.
fn enumerate(
    ctx: &mut SearchCtx<'_>,
    level: &mut Level,
    state: &[(usize, f64)],
    window: (f64, f64),
    depth: usize,
    delta: f64,
) {
    if level.candidates.len() >= ctx.gen_cap || ctx.out_of_budget() {
        return;
    }
    ctx.work += 1;
    let (ji, rho) = state[depth];
    let tables = ctx.tables;
    if depth + 1 == state.len() {
        if ctx.suspend_first && !leaf(ctx, level, state, window, delta, None) {
            return;
        }
        for (point, demand, time) in tables.of(ji) {
            if !fits(ctx.free, demand) {
                continue;
            }
            let delta = delta.min(time * rho);
            if !leaf(ctx, level, state, window, delta, Some(point)) {
                return;
            }
        }
        if !ctx.suspend_first {
            leaf(ctx, level, state, window, delta, None);
        }
        return;
    }
    if ctx.suspend_first {
        level.choice[depth] = None;
        enumerate(ctx, level, state, window, depth + 1, delta);
    }
    for (point, demand, time) in tables.of(ji) {
        if !fits(ctx.free, demand) {
            continue;
        }
        for (free, d) in ctx.free.iter_mut().zip(demand) {
            *free -= d;
        }
        level.choice[depth] = Some(point);
        enumerate(ctx, level, state, window, depth + 1, delta.min(time * rho));
        for (free, d) in ctx.free.iter_mut().zip(demand) {
            *free += d;
        }
        if level.candidates.len() >= ctx.gen_cap {
            level.choice[depth] = None;
            return;
        }
    }
    level.choice[depth] = None;
    if !ctx.suspend_first {
        enumerate(ctx, level, state, window, depth + 1, delta);
    }
}

/// One complete assignment: the last job takes `last` and the segment
/// lasts `delta`. It is charged like a recursion step (the generation
/// cap, then the budget, then one work unit) and scored by
/// [`push_candidate`] unless it ends past `due`. Such an assignment never
/// yields a candidate: the job whose deadline is `due` either completes
/// in the segment, late, or keeps work beyond its deadline, which
/// `viable` rejects. Returns `false` once generation must stop.
///
/// Inlined: it runs once per complete assignment, 72 million times over
/// the 12,000 requests of the benchmark's `exmem-poisson` workload at
/// seed 2020, and nine in ten of those stop at the cut.
#[inline(always)]
fn leaf(
    ctx: &mut SearchCtx<'_>,
    level: &mut Level,
    state: &[(usize, f64)],
    (t, due): (f64, f64),
    delta: f64,
    last: Option<usize>,
) -> bool {
    if level.candidates.len() >= ctx.gen_cap || ctx.out_of_budget() {
        return false;
    }
    ctx.work += 1;
    if t + delta > due {
        return true;
    }
    level.choice[state.len() - 1] = last;
    push_candidate(ctx, level, state, t);
    true
}

/// Scores `level.choice` as a candidate: cuts the segment at the earliest
/// completion among running jobs and appends its assignment row,
/// successor state and bound to `level`, unless a job would finish late
/// or the successor is not viable.
fn push_candidate(ctx: &SearchCtx<'_>, level: &mut Level, state: &[(usize, f64)], t: f64) {
    let mut delta = f64::INFINITY;
    for (slot, &(ji, rho)) in state.iter().enumerate() {
        if let Some(cfg) = level.choice[slot] {
            delta = delta.min(ctx.jobs[ji].point(cfg).time() * rho);
        }
    }
    if !delta.is_finite() {
        return; // everybody suspended: time would not advance
    }

    let next_t = t + delta;
    let mut seg_energy = 0.0;
    let start = level.next.len();
    for (slot, &(ji, rho)) in state.iter().enumerate() {
        match level.choice[slot] {
            Some(cfg) => {
                let p = ctx.jobs[ji].point(cfg);
                seg_energy += p.energy() * delta / p.time();
                let rho2 = rho - delta / p.time();
                if rho2 > RHO_EPS {
                    level.next.push((ji, rho2));
                } else if next_t > ctx.jobs[ji].deadline() + EPS {
                    level.next.truncate(start);
                    return; // completes past its deadline
                }
            }
            None => level.next.push((ji, rho)),
        }
    }
    let next_state = &level.next[start..];
    if !viable(ctx, next_state, next_t) {
        level.next.truncate(start);
        return;
    }
    let bound = seg_energy + lower_bound(ctx, next_state);
    level.rows.extend_from_slice(&level.choice);
    level.candidates.push(Candidate {
        seg_energy,
        next_t,
        bound,
        start,
        end: level.next.len(),
    });
}

/// Rebuilds the schedule by replaying the memoized first-segment choices
/// from the root state. `Exact` entries trace the optimal path; `Anytime`
/// entries trace the best feasible path a truncated search recorded.
/// Returns `None` if the path breaks (a later exhaustive pass replaced an
/// anytime entry with a bound, or a loaded cache names an operating point
/// the job's application lacks) — the caller then degrades to the MDF
/// fallback.
fn reconstruct(
    jobs: &[Job],
    memo: &HashMap<Key, MemoVal>,
    root: &[(usize, f64)],
    mut t: f64,
) -> Option<Schedule> {
    let mut schedule = Schedule::new();
    let mut state = root.to_vec();
    let mut next_state = Vec::with_capacity(state.len());
    let mut key = Vec::with_capacity(2 * state.len() + 1);
    while !state.is_empty() {
        fill_key(&mut key, jobs, &state, t);
        let choice = match memo.get(key.as_slice()) {
            Some(MemoVal::Exact { choice, .. }) | Some(MemoVal::Anytime { choice, .. }) => choice,
            _ => return None,
        };
        let mut delta = f64::INFINITY;
        for (slot, &(ji, rho)) in state.iter().enumerate() {
            if let Some(cfg) = choice[slot] {
                if cfg >= jobs[ji].app().num_points() {
                    return None;
                }
                delta = delta.min(jobs[ji].point(cfg).time() * rho);
            }
        }
        let mut mappings = Vec::new();
        next_state.clear();
        for (slot, &(ji, rho)) in state.iter().enumerate() {
            match choice[slot] {
                Some(cfg) => {
                    mappings.push(JobMapping::new(jobs[ji].id(), cfg));
                    let rho2 = rho - delta / jobs[ji].point(cfg).time();
                    if rho2 > RHO_EPS {
                        next_state.push((ji, rho2));
                    }
                }
                None => next_state.push((ji, rho)),
            }
        }
        schedule.push(Segment::new(t, t + delta, mappings));
        mem::swap(&mut state, &mut next_state);
        t += delta;
    }
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use amrm_model::{AppRef, Application, JobId, JobSet, OperatingPoint};
    use amrm_workload::scenarios;
    use proptest::prelude::*;

    #[test]
    fn single_job_is_optimal() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        let platform = scenarios::platform();
        let schedule = ExMem::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        schedule.validate(&jobs, &platform, 0.0).unwrap();
        assert!((schedule.energy(&jobs) - 8.9).abs() < 1e-6);
    }

    #[test]
    fn fig1c_is_the_optimum_for_s1_at_t1() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let schedule = ExMem::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        schedule.validate(&jobs, &platform, 1.0).unwrap();
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-6);
    }

    #[test]
    fn s2_feasible_with_same_energy() {
        let jobs = scenarios::s2_jobs_at_t1();
        let platform = scenarios::platform();
        let schedule = ExMem::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        schedule.validate(&jobs, &platform, 1.0).unwrap();
        let rho1 = 1.0 - 1.0 / 5.3;
        assert!((schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-6);
    }

    #[test]
    fn never_worse_than_mdf() {
        // EX-MEM is exact, so on any instance it must be ≤ MDF.
        let platform = scenarios::platform();
        for (d1, d2) in [(9.0, 5.0), (12.0, 6.0), (20.0, 8.0), (9.0, 4.0)] {
            let jobs = JobSet::new(vec![
                Job::new(JobId(1), scenarios::lambda1(), 0.0, d1, 1.0),
                Job::new(JobId(2), scenarios::lambda2(), 0.0, d2, 1.0),
            ]);
            let opt = ExMem::new().schedule_at(&jobs, &platform, 0.0);
            let heur = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0);
            if let Some(h) = &heur {
                let o = opt.as_ref().expect("EX-MEM must succeed when MDF does");
                assert!(
                    o.energy(&jobs) <= h.energy(&jobs) + 1e-6,
                    "EX-MEM {} > MDF {} for ({d1},{d2})",
                    o.energy(&jobs),
                    h.energy(&jobs)
                );
            }
        }
    }

    #[test]
    fn seeded_and_unseeded_agree() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let a = ExMem::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        let b = ExMem::new()
            .without_seed()
            .schedule_at(&jobs, &platform, 1.0)
            .unwrap();
        assert!((a.energy(&jobs) - b.energy(&jobs)).abs() < 1e-6);
    }

    #[test]
    fn infeasible_case_rejected() {
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            1.0,
            1.0,
        )]);
        assert!(ExMem::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .is_none());
    }

    #[test]
    fn finds_schedules_where_fixed_reasoning_fails() {
        // S2 at t = 1 (the fixed mapper rejects it — see fixed.rs tests).
        let jobs = scenarios::s2_jobs_at_t1();
        assert!(ExMem::new()
            .schedule_at(&jobs, &scenarios::platform(), 1.0)
            .is_some());
    }

    #[test]
    fn three_jobs_feasible_and_not_worse_than_mdf() {
        let platform = scenarios::platform();
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 25.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 9.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 16.0, 0.6),
        ]);
        let opt = ExMem::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        opt.validate(&jobs, &platform, 0.0).unwrap();
        let heur = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        assert!(opt.energy(&jobs) <= heur.energy(&jobs) + 1e-6);
    }

    #[test]
    fn oversized_only_app_rejected() {
        let app = Application::shared(
            "fat",
            vec![OperatingPoint::new(
                amrm_platform::ResourceVec::from_slice(&[4, 0]),
                1.0,
                1.0,
            )],
        );
        let jobs = JobSet::new(vec![Job::new(JobId(1), app, 0.0, 10.0, 1.0)]);
        assert!(ExMem::new()
            .schedule_at(&jobs, &scenarios::platform(), 0.0)
            .is_none());
    }

    #[test]
    fn node_counter_reports_work() {
        let jobs = scenarios::s1_jobs_at_t1();
        let mut ex = ExMem::new();
        ex.schedule_at(&jobs, &scenarios::platform(), 1.0).unwrap();
        assert!(ex.nodes_explored() > 0);
        assert!(!ex.last_degraded());
        assert!(ex.memo_len() > 0);
    }

    #[test]
    fn early_returns_reset_the_activation_counters() {
        let platform = scenarios::platform();
        let mut ex = ExMem::new();
        ex.schedule_at(&scenarios::s1_jobs_at_t1(), &platform, 1.0)
            .unwrap();
        assert!(ex.nodes_explored() > 0);
        let assert_idle = |ex: &ExMem, what: &str| {
            assert_eq!(ex.nodes_explored(), 0, "{what}: work");
            assert!(!ex.last_degraded(), "{what}: degraded");
            assert_eq!(ex.last_rank_pruned(), 0, "{what}: pruned");
            assert_eq!(ex.last_warm_hits(), 0, "{what}: warm hits");
        };
        let empty = JobSet::new(Vec::new());
        assert_eq!(
            ex.schedule_at(&empty, &platform, 2.0),
            Some(Schedule::new())
        );
        assert_idle(&ex, "empty job set");
        let app = Application::shared(
            "nine-little",
            vec![OperatingPoint::new(
                amrm_platform::ResourceVec::from_slice(&[9, 0]),
                1.0,
                1.0,
            )],
        );
        let unfit = JobSet::new(vec![Job::new(JobId(3), app, 2.0, 10.0, 1.0)]);
        assert!(ex.schedule_at(&unfit, &platform, 2.0).is_none());
        assert_idle(&ex, "no fitting point");
    }

    #[test]
    fn warm_memo_answers_repeat_activations_cheaply() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let mut ex = ExMem::new();
        let cold = ex.schedule_at(&jobs, &platform, 1.0).unwrap();
        let cold_work = ex.nodes_explored();
        let warm = ex.schedule_at(&jobs, &platform, 1.0).unwrap();
        let warm_work = ex.nodes_explored();
        assert_eq!(cold, warm, "memo hit must reproduce the same schedule");
        assert!(
            warm_work < cold_work,
            "warm activation ({warm_work}) should cost less than cold ({cold_work})"
        );
    }

    #[test]
    fn signature_guard_clears_memo_across_unrelated_runs() {
        // Same JobId, different deadline: the memoized states are invalid
        // and must not leak into the second run.
        let platform = scenarios::platform();
        let mut ex = ExMem::new();
        let a = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        let first = ex.schedule_at(&a, &platform, 0.0).unwrap();
        assert!((first.energy(&a) - 8.9).abs() < 1e-6);
        let b = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            30.0,
            1.0,
        )]);
        let second = ex.schedule_at(&b, &platform, 0.0).unwrap();
        second.validate(&b, &platform, 0.0).unwrap();
        // With the loose deadline the cheapest point (1L, 11 J? — the
        // energy-minimal feasible point) may differ; the result must be
        // the true optimum for `b`, i.e. match a cold instance.
        let fresh = ExMem::new().schedule_at(&b, &platform, 0.0).unwrap();
        assert_eq!(
            second.energy(&b).to_bits(),
            fresh.energy(&b).to_bits(),
            "stale memo leaked across a signature change"
        );
    }

    #[test]
    fn memo_cap_crossing_keeps_exact_entries_reusable() {
        // Regression: crossing MEMO_CAP used to wipe the *whole* memo at
        // a cliff, throwing away every exact optimum along with the cheap
        // refinable entries. Bounded eviction must drop the Anytime/Bound
        // classes and keep the proofs, so a warm re-activation of an
        // already-proven state stays cheaper than its cold solve.
        let platform = scenarios::platform();
        let jobs_x = scenarios::s1_jobs_at_t1();

        // Probe: the exact-solve footprint and cost of X.
        let mut probe = ExMem::new();
        probe.schedule_at(&jobs_x, &platform, 1.0).unwrap();
        let exact_entries = probe.memo_len();
        let cold_work = probe.nodes_explored();
        assert!(exact_entries > 0);

        // Cap sized so X's proofs fit but any truncated follow-up search
        // pushes the table over it.
        let mut ex = ExMem::new().with_memo_cap(exact_entries + 2);
        let cold = ex.schedule_at(&jobs_x, &platform, 1.0).unwrap();
        assert_eq!(ex.memo_len(), exact_entries);

        // A budget-truncated activation over an unrelated job set (fresh
        // ids, so no signature mismatch) piles refinable entries on top.
        let jobs_y = JobSet::new(vec![
            Job::new(JobId(11), scenarios::lambda1(), 0.0, 25.0, 1.0),
            Job::new(JobId(12), scenarios::lambda2(), 0.0, 9.0, 1.0),
            Job::new(JobId(13), scenarios::lambda2(), 0.0, 16.0, 0.6),
        ]);
        let ctx = SchedulingContext::at(0.0).with_budget(SearchBudget::nodes(400));
        ex.schedule(&jobs_y, &platform, &ctx);
        assert!(
            ex.memo_len() > exact_entries + 2,
            "memo {} did not cross the cap; raise the probe budget",
            ex.memo_len()
        );

        // The next guarded activation evicts at the cap — X's exact
        // entries must survive and answer the warm solve cheaply.
        let warm = ex.schedule_at(&jobs_x, &platform, 1.0).unwrap();
        assert_eq!(cold, warm, "eviction changed the proven optimum");
        assert!(
            ex.nodes_explored() < cold_work,
            "warm work {} ≥ cold work {cold_work}: the exact entries were \
             evicted with the rest",
            ex.nodes_explored()
        );
        // Eviction also sheds signatures no surviving memo key relies on
        // — on fresh-id streams the signature map must not outgrow the
        // memo it guards. (Ids 1/2 were re-inserted for the warm call.)
        let live: std::collections::HashSet<u64> = ex
            .cache
            .memo
            .keys()
            .flat_map(|key| key[1..].iter().step_by(2).copied())
            .collect();
        assert!(
            ex.cache
                .signatures
                .keys()
                .all(|id| live.contains(id) || *id == 1 || *id == 2),
            "orphaned signatures survived the cap eviction"
        );
    }

    #[test]
    fn proof_overflow_still_clears_the_table() {
        // When the proofs alone exceed the cap there is nothing selective
        // left to do — the table clears outright and the search stays
        // correct (cold cost, same optimum).
        let platform = scenarios::platform();
        let jobs = scenarios::s1_jobs_at_t1();
        let mut ex = ExMem::new().with_memo_cap(1);
        let first = ex.schedule_at(&jobs, &platform, 1.0).unwrap();
        let cold_work = ex.nodes_explored();
        let second = ex.schedule_at(&jobs, &platform, 1.0).unwrap();
        assert_eq!(first, second);
        assert_eq!(ex.nodes_explored(), cold_work, "cap 1 cannot retain state");
    }

    #[test]
    #[should_panic(expected = "memo cap")]
    fn zero_memo_cap_panics() {
        let _ = ExMem::new().with_memo_cap(0);
    }

    #[test]
    fn tiny_budget_degrades_to_the_mdf_fallback() {
        let platform = scenarios::platform();
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 25.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 9.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 16.0, 0.6),
        ]);
        let mdf = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        let ctx = SchedulingContext::at(0.0).with_budget(SearchBudget::nodes(1));
        let mut ex = ExMem::new();
        let degraded = ex.schedule(&jobs, &platform, &ctx).unwrap();
        assert!(ex.last_degraded());
        degraded.validate(&jobs, &platform, 0.0).unwrap();
        assert_eq!(
            degraded.energy(&jobs).to_bits(),
            mdf.energy(&jobs).to_bits(),
            "a one-unit budget must return exactly MDF's schedule"
        );
    }

    #[test]
    fn budgeted_result_is_feasible_and_never_worse_than_mdf() {
        let platform = scenarios::platform();
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 25.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 9.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 16.0, 0.6),
        ]);
        let mdf = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        for limit in [1u64, 10, 100, 1_000, 100_000] {
            let ctx = SchedulingContext::at(0.0).with_budget(SearchBudget::nodes(limit));
            let s = ExMem::new().schedule(&jobs, &platform, &ctx).unwrap();
            s.validate(&jobs, &platform, 0.0).unwrap();
            assert!(
                s.energy(&jobs) <= mdf.energy(&jobs) + 1e-7,
                "budget {limit}: {} > MDF {}",
                s.energy(&jobs),
                mdf.energy(&jobs)
            );
        }
    }

    #[test]
    fn budgeted_search_is_deterministic() {
        let platform = scenarios::platform();
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 25.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 9.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 16.0, 0.6),
        ]);
        let ctx = SchedulingContext::at(0.0).with_budget(SearchBudget::nodes(500));
        let a = ExMem::new().schedule(&jobs, &platform, &ctx).unwrap();
        let b = ExMem::new().schedule(&jobs, &platform, &ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn max_rank_cap_is_the_legacy_enumeration() {
        // `usize::MAX` normalizes to no cap at the budget layer, so the
        // legacy exhaustive path runs verbatim: identical schedule AND
        // identical work accounting.
        let platform = scenarios::platform();
        let jobs = scenarios::s1_jobs_at_t1();
        let plain = SchedulingContext::at(1.0).with_budget(SearchBudget::nodes(50_000));
        let capped = SchedulingContext::at(1.0)
            .with_budget(SearchBudget::nodes(50_000).with_rank_cap(usize::MAX));
        let mut a = ExMem::new();
        let mut b = ExMem::new();
        let sa = a.schedule(&jobs, &platform, &plain).unwrap();
        let sb = b.schedule(&jobs, &platform, &capped).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a.nodes_explored(), b.nodes_explored());
    }

    #[test]
    fn finite_rank_cap_never_memoizes_exact() {
        // Soundness: a state solved under a finite cap that actually
        // dropped candidates is truncation-tainted — it must memoize as
        // `Anytime` (or not at all), never as an `Exact` optimum or an
        // `Infeasible`/`Bound` failure proof.
        let platform = scenarios::platform();
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 25.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 9.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 16.0, 0.6),
        ]);
        let ctx =
            SchedulingContext::at(0.0).with_budget(SearchBudget::nodes(50_000).with_rank_cap(1));
        let mut ex = ExMem::new();
        let s = ex.schedule(&jobs, &platform, &ctx).unwrap();
        s.validate(&jobs, &platform, 0.0).unwrap();
        assert!(ex.last_rank_pruned() > 0, "cap 1 must drop candidates");
        assert!(ex.last_degraded(), "a pruning cap taints the activation");
        assert!(
            !ex.cache
                .memo
                .values()
                .any(|v| matches!(v, MemoVal::Exact { .. } | MemoVal::Infeasible)),
            "a capped activation that pruned must not record proofs"
        );
        assert_eq!(ex.cache().proof_count(), 0);
    }

    #[test]
    fn rank_capped_result_is_feasible_and_never_worse_than_mdf() {
        let platform = scenarios::platform();
        let jobs = JobSet::new(vec![
            Job::new(JobId(1), scenarios::lambda1(), 0.0, 25.0, 1.0),
            Job::new(JobId(2), scenarios::lambda2(), 0.0, 9.0, 1.0),
            Job::new(JobId(3), scenarios::lambda2(), 0.0, 16.0, 0.6),
        ]);
        let mdf = MmkpMdf::new().schedule_at(&jobs, &platform, 0.0).unwrap();
        for cap in [1usize, 2, 4, 8, 24, 256] {
            let ctx = SchedulingContext::at(0.0)
                .with_budget(SearchBudget::nodes(50_000).with_rank_cap(cap));
            let s = ExMem::new().schedule(&jobs, &platform, &ctx).unwrap();
            s.validate(&jobs, &platform, 0.0).unwrap();
            assert!(
                s.energy(&jobs) <= mdf.energy(&jobs) + 1e-7,
                "cap {cap}: {} > MDF {}",
                s.energy(&jobs),
                mdf.energy(&jobs)
            );
        }
    }

    #[test]
    fn warm_cache_replays_the_cold_proofs() {
        let platform = scenarios::platform();
        let jobs = scenarios::s1_jobs_at_t1();

        let mut cold = ExMem::new();
        let cold_schedule = cold.schedule_at(&jobs, &platform, 1.0).unwrap();
        let cold_work = cold.nodes_explored();
        assert_eq!(cold.last_warm_hits(), 0, "a cold run has no warm entries");

        // Roundtrip through the serialized form, as `repro --warm-cache`
        // does, then solve the same activation warm.
        let value = serde::Serialize::to_value(cold.cache());
        let loaded = <MappingCache as serde::Deserialize>::from_value(&value).unwrap();
        assert!(loaded.warm_len() > 0);
        let mut warm = ExMem::new().with_cache(loaded);
        let warm_schedule = warm.schedule_at(&jobs, &platform, 1.0).unwrap();
        assert_eq!(
            cold_schedule, warm_schedule,
            "warm replay must reproduce the cold schedule exactly"
        );
        assert!(warm.last_warm_hits() > 0, "the root hit must count as warm");
        assert!(
            warm.nodes_explored() < cold_work,
            "warm work {} should undercut cold work {cold_work}",
            warm.nodes_explored()
        );
    }

    #[test]
    fn warm_cache_from_a_different_library_is_revalidated_away() {
        // The bugfix satellite: signatures are content-based, so a cache
        // recorded against one application library must be cleared — not
        // trusted — when the points or deadlines differ, even though the
        // JobIds and app names collide.
        let platform = scenarios::platform();
        let jobs = scenarios::s1_jobs_at_t1();
        let mut cold = ExMem::new();
        cold.schedule_at(&jobs, &platform, 1.0).unwrap();
        let value = serde::Serialize::to_value(cold.cache());
        let loaded = <MappingCache as serde::Deserialize>::from_value(&value).unwrap();

        // Same ids, same app names would require an edited library to
        // collide; a moved deadline is the cheapest content change.
        let job_slice = jobs.jobs();
        let shifted = JobSet::new(
            job_slice
                .iter()
                .map(|j| {
                    Job::new(
                        j.id(),
                        j.app().clone(),
                        j.arrival(),
                        j.deadline() + 5.0,
                        j.remaining(),
                    )
                })
                .collect(),
        );
        let mut warm = ExMem::new().with_cache(loaded);
        let s = warm.schedule_at(&shifted, &platform, 1.0).unwrap();
        assert_eq!(warm.last_warm_hits(), 0, "stale warm entries were served");
        let fresh = ExMem::new().schedule_at(&shifted, &platform, 1.0).unwrap();
        assert_eq!(
            s.energy(&shifted).to_bits(),
            fresh.energy(&shifted).to_bits(),
            "the revalidated run must match a cold instance bit for bit"
        );
    }

    #[test]
    fn corrupt_cache_choices_fail_to_load_or_fall_back_to_mdf() {
        // Well-formed version-1 files whose two-job exact entries (the
        // root included) name a missing point or have the wrong length.
        let platform = scenarios::platform();
        let jobs = scenarios::s1_jobs_at_t1();
        let mut cold = ExMem::new();
        cold.schedule_at(&jobs, &platform, 1.0).unwrap();
        let path = std::env::temp_dir().join("amrm_exmem_corrupt.cache.json");
        for bad in [vec![Some(99), Some(99)], vec![]] {
            let mut cache = cold.cache().clone();
            for val in cache.memo.values_mut() {
                if let MemoVal::Exact { choice, .. } = val {
                    if choice.len() == 2 {
                        choice.clone_from(&bad);
                    }
                }
            }
            cache.save(&path).unwrap();
            match MappingCache::load(&path) {
                Ok(loaded) => {
                    assert!(!bad.is_empty(), "a wrong slot count must not load");
                    let s = ExMem::new()
                        .with_cache(loaded)
                        .schedule_at(&jobs, &platform, 1.0)
                        .expect("a broken path falls back to the MDF schedule");
                    s.validate(&jobs, &platform, 1.0).unwrap();
                }
                Err(e) => {
                    assert!(bad.is_empty(), "a bad point index must load: {e}");
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                }
            }
        }
    }

    #[test]
    fn warm_cache_choice_that_misses_a_deadline_falls_back_to_mdf() {
        // A well-formed file whose root proof runs the job on λ1's 1L
        // point (16.8 s) with 8 s to its deadline: it loads, and the
        // replayed schedule ends at 17.8, so it must not be returned.
        let platform = scenarios::platform();
        let jobs = JobSet::new(vec![Job::new(
            JobId(1),
            scenarios::lambda1(),
            0.0,
            9.0,
            1.0,
        )]);
        let mut cold = ExMem::new();
        cold.schedule_at(&jobs, &platform, 1.0).unwrap();
        let mut cache = cold.cache().clone();
        let mut root = Vec::new();
        fill_key(&mut root, jobs.jobs(), &[(0, 1.0)], 1.0);
        match cache.memo.get_mut(root.as_slice()) {
            Some(MemoVal::Exact { choice, .. }) => *choice = vec![Some(0)],
            other => panic!("expected an exact root entry, got {other:?}"),
        }
        let path = std::env::temp_dir().join("amrm_exmem_deadline_miss.cache.json");
        cache.save(&path).unwrap();
        let loaded = MappingCache::load(&path).expect("the edited file is well-formed");
        let mut warm = ExMem::new().with_cache(loaded);
        let s = warm
            .schedule_at(&jobs, &platform, 1.0)
            .expect("a deadline-missing path falls back to the MDF schedule");
        assert!(warm.last_warm_hits() > 0, "the edited root must be served");
        s.validate(&jobs, &platform, 1.0).unwrap();
        let mdf = MmkpMdf::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        assert_eq!(s, mdf);
    }

    #[test]
    fn huge_budget_is_exact() {
        let jobs = scenarios::s1_jobs_at_t1();
        let platform = scenarios::platform();
        let unbounded = ExMem::new().schedule_at(&jobs, &platform, 1.0).unwrap();
        let ctx = SchedulingContext::at(1.0).with_budget(SearchBudget::nodes(u64::MAX));
        let mut budgeted = ExMem::new();
        let capped = budgeted.schedule(&jobs, &platform, &ctx).unwrap();
        assert!(!budgeted.last_degraded());
        assert_eq!(unbounded, capped);
    }

    fn odroid_library() -> &'static [AppRef] {
        static LIBRARY: OnceLock<Vec<AppRef>> = OnceLock::new();
        LIBRARY.get_or_init(|| amrm_dataflow::apps::benchmark_suite(&Platform::odroid_xu4()))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The lemma behind the enumerator's `due` cut: a complete
        /// assignment whose segment ends past the state's earliest
        /// `deadline + EPS` never becomes a candidate. Each job draws an
        /// application, ρ ∈ (0, 1], a deadline at 1.2–5× the
        /// application's fastest time, and a point or suspension; a point
        /// that no longer fits beside the others is suspended instead.
        /// Half the cases put `t` at the first float past the cut.
        #[test]
        fn assignments_that_end_past_due_yield_no_candidate(
            draws in prop::collection::vec(
                (0usize..1000, 0.0f64..1.0, 1.2f64..=5.0, 0usize..1000),
                1..=4,
            ),
            at in (prop::bool::ANY, 0.0f64..2.0),
        ) {
            let platform = Platform::odroid_xu4();
            let library = odroid_library();
            let jobs: Vec<Job> = draws
                .iter()
                .enumerate()
                .map(|(i, &(app, done, slack, _))| {
                    let app = library[app % library.len()].clone();
                    let deadline = slack * app.min_time();
                    Job::new(JobId(i as u64 + 1), app, 0.0, deadline, 1.0 - done)
                })
                .collect();
            let state: Vec<(usize, f64)> = jobs.iter().map(Job::remaining).enumerate().collect();
            let mut tables = Tables::default();
            prop_assert!(tables.fill(&jobs, &platform, false));
            let (mut spare, mut levels, mut cache) = (Vec::new(), Vec::new(), MappingCache::new());
            let ctx = SearchCtx::new(
                &jobs,
                platform.counts().as_slice(),
                &tables,
                &mut spare,
                &mut levels,
                &mut cache,
                SearchBudget::unbounded(),
            );

            let mut level = Level::default();
            let mut free = platform.counts().as_slice().to_vec();
            let mut delta = f64::INFINITY;
            for (&(ji, rho), &(.., pick)) in state.iter().zip(&draws) {
                let choice = tables
                    .of(ji)
                    .nth(pick % (tables.of(ji).count() + 1))
                    .filter(|&(_, demand, _)| fits(&free, demand));
                if let Some((_, demand, time)) = choice {
                    for (free, d) in free.iter_mut().zip(demand) {
                        *free -= d;
                    }
                    delta = delta.min(time * rho);
                }
                level.choice.push(choice.map(|(point, ..)| point));
            }
            let due = due(&ctx, &state);
            let (edge, frac) = at;
            let t = if edge {
                let mut t = (due - delta).max(0.0);
                while t + delta <= due {
                    t = t.next_up();
                }
                t
            } else {
                frac * due
            };

            push_candidate(&ctx, &mut level, &state, t);
            if t + delta > due {
                prop_assert!(
                    level.candidates.is_empty() && level.next.is_empty() && level.rows.is_empty(),
                    "a segment ending at {} past due {due} became a candidate: {:?}",
                    t + delta,
                    level.choice
                );
            }
        }
    }
}
