//! A frozen copy of EX-MEM's search as it was before the per-depth
//! candidate arena: owned `(time, [(id, ρ)])` memo keys, one allocated
//! `Candidate` per enumerated assignment, two enumerators, and a fresh
//! MMKP-MDF seeder per activation. The proptest below drives it and
//! [`ExMem`] through the same activation sequences and demands equal
//! schedules, work counts, taint flags and memo tables, entry by entry.
//!
//! The copy omits what the arena rewrite did not touch: the signature
//! guard (every sequence keeps each id's application and deadline, so
//! it never clears) and cap eviction (no sequence nears `MEMO_CAP`).
//! Its per-activation counters follow [`ExMem`]'s reporting rule: reset
//! at the top of every call, so a call that returns before searching
//! reports no work.

use std::collections::{HashMap, HashSet};

use amrm_core::{MmkpMdf, Scheduler, SchedulingContext, SearchBudget};
use amrm_model::{Job, JobMapping, JobSet, Schedule, Segment};
use amrm_platform::{Platform, ResourceVec, EPS};

use crate::cache::MemoVal;

const KEY_QUANTUM: f64 = 1e-9;
const RHO_EPS: f64 = 1e-9;
const RANK_OVERSAMPLE: usize = 4;

type OldKey = (u64, Vec<(u64, u64)>);

/// The pre-arena EX-MEM, reduced to its search and per-activation setup.
#[derive(Default)]
struct Reference {
    without_seed: bool,
    without_memo_reuse: bool,
    memo: HashMap<OldKey, MemoVal>,
    warm: HashSet<OldKey>,
    nodes_explored: u64,
    degraded: bool,
    last_rank_pruned: u64,
    last_warm_hits: u64,
}

struct SearchCtx<'a> {
    jobs: &'a [Job],
    platform: &'a Platform,
    options: Vec<Vec<usize>>,
    ranked_options: Vec<Vec<usize>>,
    min_energy: Vec<f64>,
    min_time: Vec<f64>,
    memo: &'a mut HashMap<OldKey, MemoVal>,
    warm: &'a HashSet<OldKey>,
    work: u64,
    limit: Option<u64>,
    rank_cap: usize,
    approximate: bool,
    budget_truncated: bool,
    memo_hits: u64,
    memo_misses: u64,
    rank_pruned: u64,
    warm_hits: u64,
}

impl SearchCtx<'_> {
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

impl Reference {
    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        let now = ctx.now;
        self.nodes_explored = 0;
        self.degraded = false;
        self.last_rank_pruned = 0;
        self.last_warm_hits = 0;
        if jobs.is_empty() {
            return Some(Schedule::new());
        }
        if self.without_memo_reuse {
            self.memo.clear();
            self.warm.clear();
        }

        let job_slice = jobs.jobs();
        let mut options = Vec::with_capacity(job_slice.len());
        let mut min_energy = Vec::with_capacity(job_slice.len());
        let mut min_time = Vec::with_capacity(job_slice.len());
        for job in job_slice {
            let opts: Vec<usize> = (0..job.app().num_points())
                .filter(|&j| job.point(j).resources().fits_within(platform.counts()))
                .collect();
            if opts.is_empty() {
                return None;
            }
            min_energy.push(
                opts.iter()
                    .map(|&j| job.point(j).energy())
                    .fold(f64::INFINITY, f64::min),
            );
            min_time.push(
                opts.iter()
                    .map(|&j| job.point(j).time())
                    .fold(f64::INFINITY, f64::min),
            );
            options.push(opts);
        }

        let (incumbent, seed_schedule) = if !self.without_seed {
            match MmkpMdf::new().schedule(jobs, platform, ctx) {
                Some(s) => (s.energy(jobs) + 1e-7, Some(s)),
                None => (f64::INFINITY, None),
            }
        } else {
            (f64::INFINITY, None)
        };

        let effective = SearchBudget::unbounded().tightest(ctx.budget);
        let rank_cap = effective.rank_cap().unwrap_or(usize::MAX);
        let ranked_options = if rank_cap == usize::MAX {
            Vec::new()
        } else {
            options
                .iter()
                .enumerate()
                .map(|(i, opts)| {
                    let mut by_energy = opts.clone();
                    by_energy.sort_by(|&a, &b| {
                        job_slice[i]
                            .point(a)
                            .energy()
                            .total_cmp(&job_slice[i].point(b).energy())
                            .then(a.cmp(&b))
                    });
                    by_energy
                })
                .collect()
        };

        let mut search = SearchCtx {
            jobs: job_slice,
            platform,
            options,
            ranked_options,
            min_energy,
            min_time,
            memo: &mut self.memo,
            warm: &self.warm,
            work: 0,
            limit: effective.node_limit(),
            rank_cap,
            approximate: false,
            budget_truncated: false,
            memo_hits: 0,
            memo_misses: 0,
            rank_pruned: 0,
            warm_hits: 0,
        };

        let state: Vec<(usize, f64)> = (0..job_slice.len())
            .map(|i| (i, job_slice[i].remaining()))
            .collect();
        let result = solve(&mut search, &state, now, incumbent);
        let approximate = search.approximate;
        let _ = (
            search.budget_truncated,
            search.memo_hits,
            search.memo_misses,
        );
        self.nodes_explored = search.work;
        self.degraded = approximate;
        self.last_rank_pruned = search.rank_pruned;
        self.last_warm_hits = search.warm_hits;

        match result {
            Some(_) => reconstruct(job_slice, &self.memo, state, now).or(seed_schedule),
            None if approximate => seed_schedule,
            None => None,
        }
    }
}

fn key_of(jobs: &[Job], state: &[(usize, f64)], t: f64) -> OldKey {
    (
        (t / KEY_QUANTUM).round() as u64,
        state
            .iter()
            .map(|&(i, rho)| (jobs[i].id().0, (rho / KEY_QUANTUM).round() as u64))
            .collect(),
    )
}

fn lower_bound(ctx: &SearchCtx<'_>, state: &[(usize, f64)]) -> f64 {
    state.iter().map(|&(i, rho)| ctx.min_energy[i] * rho).sum()
}

fn viable(ctx: &SearchCtx<'_>, state: &[(usize, f64)], t: f64) -> bool {
    state
        .iter()
        .all(|&(i, rho)| t + ctx.min_time[i] * rho <= ctx.jobs[i].deadline() + EPS)
}

struct Candidate {
    choice: Vec<Option<usize>>,
    seg_energy: f64,
    next_state: Vec<(usize, f64)>,
    next_t: f64,
    bound: f64,
}

fn solve(ctx: &mut SearchCtx<'_>, state: &[(usize, f64)], t: f64, incumbent: f64) -> Option<f64> {
    if state.is_empty() {
        return if incumbent > 0.0 { Some(0.0) } else { None };
    }
    if !viable(ctx, state, t) {
        return None;
    }
    if lower_bound(ctx, state) >= incumbent {
        return None;
    }

    let key = key_of(ctx.jobs, state, t);
    let mut anytime_hit: Option<f64> = None;
    match ctx.memo.get(&key) {
        Some(MemoVal::Exact { energy, .. }) => {
            ctx.memo_hits += 1;
            if !ctx.warm.is_empty() && ctx.warm.contains(&key) {
                ctx.warm_hits += 1;
            }
            return if *energy < incumbent {
                Some(*energy)
            } else {
                None
            };
        }
        Some(MemoVal::Infeasible) => {
            ctx.memo_hits += 1;
            if !ctx.warm.is_empty() && ctx.warm.contains(&key) {
                ctx.warm_hits += 1;
            }
            return None;
        }
        Some(MemoVal::Bound { at_least }) if incumbent <= *at_least + EPS => {
            ctx.memo_hits += 1;
            return None;
        }
        Some(MemoVal::Anytime { energy, .. }) => anytime_hit = Some(*energy),
        _ => {}
    }

    if ctx.out_of_budget() {
        return match anytime_hit {
            Some(energy) if energy < incumbent => Some(energy),
            _ => None,
        };
    }
    ctx.work += 1;
    ctx.memo_misses += 1;

    let approx_before = ctx.approximate;
    ctx.approximate = false;

    let mut candidates = Vec::new();
    if ctx.rank_cap == usize::MAX {
        enumerate(
            ctx,
            state,
            t,
            0,
            &mut vec![None; state.len()],
            &ResourceVec::zeros(ctx.platform.num_types()),
            &mut candidates,
        );
    } else {
        let gen_cap = ctx.rank_cap.saturating_mul(RANK_OVERSAMPLE).max(1);
        enumerate_ranked(
            ctx,
            state,
            t,
            0,
            &mut vec![None; state.len()],
            &ResourceVec::zeros(ctx.platform.num_types()),
            &mut candidates,
            gen_cap,
        );
        if candidates.len() >= gen_cap {
            ctx.approximate = true;
        }
    }
    candidates.sort_by(|a, b| a.bound.total_cmp(&b.bound));
    if candidates.len() > ctx.rank_cap {
        let dropped = (candidates.len() - ctx.rank_cap) as u64;
        candidates.truncate(ctx.rank_cap);
        ctx.rank_pruned += dropped;
        ctx.approximate = true;
    }

    let mut local_best = incumbent;
    let mut best_choice: Option<Vec<Option<usize>>> = None;
    let mut pruned = false;
    for cand in candidates {
        if cand.bound >= local_best {
            pruned = true;
            continue;
        }
        if let Some(sub) = solve(
            ctx,
            &cand.next_state,
            cand.next_t,
            local_best - cand.seg_energy,
        ) {
            let total = cand.seg_energy + sub;
            if total < local_best {
                local_best = total;
                best_choice = Some(cand.choice);
            }
        }
    }

    let subtree_approx = ctx.approximate;
    ctx.approximate = subtree_approx || approx_before;

    match best_choice {
        Some(choice) => {
            if subtree_approx {
                let keep_existing = matches!(
                    ctx.memo.get(&key),
                    Some(MemoVal::Anytime { energy, .. }) if *energy <= local_best
                );
                if !keep_existing {
                    ctx.memo.insert(
                        key,
                        MemoVal::Anytime {
                            energy: local_best,
                            choice,
                        },
                    );
                }
            } else {
                ctx.memo.insert(
                    key,
                    MemoVal::Exact {
                        energy: local_best,
                        choice,
                    },
                );
            }
            Some(local_best)
        }
        None if subtree_approx => match anytime_hit {
            Some(energy) if energy < incumbent => Some(energy),
            _ => None,
        },
        None => {
            if anytime_hit.is_none() {
                let val = if pruned || incumbent.is_finite() {
                    MemoVal::Bound {
                        at_least: incumbent,
                    }
                } else {
                    MemoVal::Infeasible
                };
                ctx.memo.insert(key, val);
            }
            None
        }
    }
}

fn enumerate(
    ctx: &mut SearchCtx<'_>,
    state: &[(usize, f64)],
    t: f64,
    depth: usize,
    choice: &mut Vec<Option<usize>>,
    used: &ResourceVec,
    out: &mut Vec<Candidate>,
) {
    if ctx.out_of_budget() {
        return;
    }
    ctx.work += 1;
    if depth == state.len() {
        push_candidate(ctx, state, t, choice, out);
        return;
    }
    let (ji, _) = state[depth];
    choice[depth] = None;
    enumerate(ctx, state, t, depth + 1, choice, used, out);
    for idx in 0..ctx.options[ji].len() {
        let cfg = ctx.options[ji][idx];
        let demand = used + ctx.jobs[ji].point(cfg).resources();
        if !demand.fits_within(ctx.platform.counts()) {
            continue;
        }
        choice[depth] = Some(cfg);
        enumerate(ctx, state, t, depth + 1, choice, &demand, out);
    }
    choice[depth] = None;
}

#[allow(clippy::too_many_arguments)]
fn enumerate_ranked(
    ctx: &mut SearchCtx<'_>,
    state: &[(usize, f64)],
    t: f64,
    depth: usize,
    choice: &mut Vec<Option<usize>>,
    used: &ResourceVec,
    out: &mut Vec<Candidate>,
    gen_cap: usize,
) {
    if out.len() >= gen_cap || ctx.out_of_budget() {
        return;
    }
    ctx.work += 1;
    if depth == state.len() {
        push_candidate(ctx, state, t, choice, out);
        return;
    }
    let (ji, _) = state[depth];
    for idx in 0..ctx.ranked_options[ji].len() {
        let cfg = ctx.ranked_options[ji][idx];
        let demand = used + ctx.jobs[ji].point(cfg).resources();
        if !demand.fits_within(ctx.platform.counts()) {
            continue;
        }
        choice[depth] = Some(cfg);
        enumerate_ranked(ctx, state, t, depth + 1, choice, &demand, out, gen_cap);
        if out.len() >= gen_cap {
            choice[depth] = None;
            return;
        }
    }
    choice[depth] = None;
    enumerate_ranked(ctx, state, t, depth + 1, choice, used, out, gen_cap);
}

fn push_candidate(
    ctx: &SearchCtx<'_>,
    state: &[(usize, f64)],
    t: f64,
    choice: &[Option<usize>],
    out: &mut Vec<Candidate>,
) {
    let mut delta = f64::INFINITY;
    for (slot, &(ji, rho)) in state.iter().enumerate() {
        if let Some(cfg) = choice[slot] {
            delta = delta.min(ctx.jobs[ji].point(cfg).time() * rho);
        }
    }
    if !delta.is_finite() {
        return;
    }

    let next_t = t + delta;
    let mut seg_energy = 0.0;
    let mut next_state = Vec::with_capacity(state.len());
    for (slot, &(ji, rho)) in state.iter().enumerate() {
        match choice[slot] {
            Some(cfg) => {
                let p = ctx.jobs[ji].point(cfg);
                seg_energy += p.energy() * delta / p.time();
                let rho2 = rho - delta / p.time();
                if rho2 > RHO_EPS {
                    next_state.push((ji, rho2));
                } else if next_t > ctx.jobs[ji].deadline() + EPS {
                    return;
                }
            }
            None => next_state.push((ji, rho)),
        }
    }
    if !viable(ctx, &next_state, next_t) {
        return;
    }
    let bound = seg_energy + lower_bound(ctx, &next_state);
    out.push(Candidate {
        choice: choice.to_vec(),
        seg_energy,
        next_state,
        next_t,
        bound,
    });
}

fn reconstruct(
    jobs: &[Job],
    memo: &HashMap<OldKey, MemoVal>,
    mut state: Vec<(usize, f64)>,
    mut t: f64,
) -> Option<Schedule> {
    let mut schedule = Schedule::new();
    while !state.is_empty() {
        let key = key_of(jobs, &state, t);
        let choice = match memo.get(&key) {
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
        let mut next_state = Vec::new();
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
        state = next_state;
        t += delta;
    }
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use amrm_model::{AppRef, JobId};
    use amrm_workload::scenarios;
    use proptest::prelude::*;

    use super::*;
    use crate::{ExMem, MappingCache};

    /// One memo entry in a comparable form: the flattened key, the class,
    /// the energy bits (`Bound`'s `at_least` included) and the choice.
    type Entry = (Vec<u64>, u8, u64, Option<Vec<Option<usize>>>);

    fn entry(key: Vec<u64>, val: &MemoVal) -> Entry {
        match val {
            MemoVal::Exact { energy, choice } => (key, 0, energy.to_bits(), Some(choice.clone())),
            MemoVal::Anytime { energy, choice } => (key, 1, energy.to_bits(), Some(choice.clone())),
            MemoVal::Bound { at_least } => (key, 2, at_least.to_bits(), None),
            MemoVal::Infeasible => (key, 3, 0, None),
        }
    }

    /// The reference memo in its own key order, flattened afterwards: if
    /// the flat order differs from the nested one, the comparison with
    /// the arena's flat-sorted memo fails too.
    fn reference_memo(reference: &Reference) -> Vec<Entry> {
        let mut entries: Vec<(&OldKey, &MemoVal)> = reference.memo.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
            .into_iter()
            .map(|((time_q, state), val)| {
                let mut key = vec![*time_q];
                for &(id, rho_q) in state {
                    key.extend([id, rho_q]);
                }
                entry(key, val)
            })
            .collect()
    }

    fn arena_memo(exmem: &ExMem) -> Vec<Entry> {
        let mut entries: Vec<Entry> = exmem
            .cache()
            .memo
            .iter()
            .map(|(key, val)| entry(key.to_vec(), val))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// The budgets a step may run under: every node limit (unbounded
    /// first) at every rank cap.
    fn budget(index: usize, jobs: usize) -> SearchBudget {
        let limits = [None, Some(1), Some(100), Some(5_000), Some(50_000)];
        let caps = [usize::MAX, 16, 1];
        let limit = limits[index / caps.len()];
        // Unbounded runs keep to three jobs: the joint assignment space
        // grows as points^jobs.
        let limit = if jobs > 3 {
            limit.or(Some(50_000))
        } else {
            limit
        };
        let budget = limit.map_or(SearchBudget::unbounded(), SearchBudget::nodes);
        budget.with_rank_cap(caps[index % caps.len()])
    }

    const BUDGETS: usize = 15;

    fn odroid_library() -> &'static [AppRef] {
        static LIBRARY: OnceLock<Vec<AppRef>> = OnceLock::new();
        LIBRARY.get_or_init(|| amrm_dataflow::apps::benchmark_suite(&Platform::odroid_xu4()))
    }

    /// One activation sequence: a pool of four jobs (application index,
    /// deadline in units of the application's fastest time) and 2–4
    /// steps, each `(kind, budget, pool mask)`.
    #[derive(Debug, Clone)]
    struct Case {
        odroid: bool,
        pool: Vec<(usize, f64)>,
        steps: Vec<(usize, usize, usize)>,
    }

    fn cases() -> impl Strategy<Value = Case> {
        (
            prop::bool::ANY,
            prop::collection::vec((0usize..9, 1.2f64..5.0), 4),
            prop::collection::vec((0usize..3, 0usize..BUDGETS, 1usize..16), 2..=4),
        )
            .prop_map(|(odroid, pool, steps)| Case {
                odroid,
                pool,
                steps,
            })
    }

    /// Runs `case` through `exmem` and `reference` side by side,
    /// asserting equality after every step; returns `exmem` and the warm
    /// hits it served.
    ///
    /// A step of kind 0 repeats the previous activation under a new
    /// budget; kind 1 advances to the end of the previous schedule's
    /// first segment (the states a reactivation at that completion
    /// sees, and which the previous search memoized) and adds the
    /// mask's pool jobs not yet running; kind 2 activates the mask's
    /// jobs at the current time.
    fn check(case: &Case, mut exmem: ExMem, reference: &mut Reference) -> (ExMem, u64) {
        let (platform, library): (Platform, Vec<AppRef>) = if case.odroid {
            (Platform::odroid_xu4(), odroid_library().to_vec())
        } else {
            (
                scenarios::platform(),
                vec![scenarios::lambda1(), scenarios::lambda2()],
            )
        };
        let pool: Vec<(AppRef, f64)> = case
            .pool
            .iter()
            .map(|&(app, slack)| {
                let app = library[app % library.len()].clone();
                let deadline = slack * app.min_time();
                (app, deadline)
            })
            .collect();
        let job = |slot: usize, remaining: f64| {
            let (app, deadline) = &pool[slot];
            Job::new(
                JobId(slot as u64 + 1),
                app.clone(),
                0.0,
                *deadline,
                remaining,
            )
        };

        let mut warm_hits = 0;
        let mut now = 0.0;
        // `(pool slot, remaining ratio)` of the jobs in the activation.
        let mut active: Vec<(usize, f64)> = Vec::new();
        let mut last: Option<Schedule> = None;
        for (step, &(kind, budget_idx, mask)) in case.steps.iter().enumerate() {
            let in_mask = |slot: usize| mask & (1 << slot) != 0;
            match (kind, last.as_ref().and_then(|s| s.segments().first())) {
                (0, _) if step > 0 => {}
                (1, Some(seg)) => {
                    let running = |slot: usize| {
                        seg.mappings()
                            .iter()
                            .find(|m| m.job == JobId(slot as u64 + 1))
                            .map(|m| pool[slot].0.point(m.point).time())
                    };
                    // The search's own arithmetic, so the new root is a
                    // state the previous activation memoized.
                    let delta = active
                        .iter()
                        .filter_map(|&(slot, rho)| running(slot).map(|time| time * rho))
                        .fold(f64::INFINITY, f64::min);
                    let mut next: Vec<(usize, f64)> = active
                        .iter()
                        .map(|&(slot, rho)| {
                            (slot, running(slot).map_or(rho, |time| rho - delta / time))
                        })
                        .filter(|&(_, rho)| rho > RHO_EPS)
                        .collect();
                    for slot in (0..pool.len()).filter(|&slot| in_mask(slot)) {
                        if !active.iter().any(|&(s, _)| s == slot) {
                            next.push((slot, 1.0));
                        }
                    }
                    now += delta;
                    active = next;
                }
                _ => {
                    active = (0..pool.len())
                        .filter(|&slot| in_mask(slot))
                        .map(|slot| (slot, 1.0))
                        .collect();
                }
            }
            let jobs = JobSet::new(active.iter().map(|&(slot, rho)| job(slot, rho)).collect());
            let ctx = SchedulingContext::at(now).with_budget(budget(budget_idx, active.len()));
            let got = exmem.schedule(&jobs, &platform, &ctx);
            let want = reference.schedule(&jobs, &platform, &ctx);
            let at = format!("{case:?}, step {step}");
            assert_eq!(got, want, "schedule diverged: {at}");
            assert_eq!(
                exmem.nodes_explored(),
                reference.nodes_explored,
                "work: {at}"
            );
            assert_eq!(exmem.last_degraded(), reference.degraded, "degraded: {at}");
            assert_eq!(
                exmem.last_rank_pruned(),
                reference.last_rank_pruned,
                "pruned: {at}"
            );
            assert_eq!(
                exmem.last_warm_hits(),
                reference.last_warm_hits,
                "warm: {at}"
            );
            assert_eq!(arena_memo(&exmem), reference_memo(reference), "memo: {at}");
            warm_hits += exmem.last_warm_hits();
            last = got;
        }
        (exmem, warm_hits)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn arena_search_is_bit_identical_to_the_frozen_reference(case in cases()) {
            check(&case, ExMem::new(), &mut Reference::default());
        }
    }

    fn fixed_case() -> Case {
        Case {
            odroid: false,
            pool: vec![(0, 2.0), (1, 1.6), (1, 2.5), (0, 2.8)],
            steps: vec![(2, 6, 0b0111), (0, 0, 0b0111), (1, 10, 0b1000), (0, 2, 0)],
        }
    }

    #[test]
    fn seedless_search_is_bit_identical_to_the_frozen_reference() {
        let mut reference = Reference {
            without_seed: true,
            ..Reference::default()
        };
        check(&fixed_case(), ExMem::new().without_seed(), &mut reference);
    }

    #[test]
    fn memo_clearing_search_is_bit_identical_to_the_frozen_reference() {
        let mut reference = Reference {
            without_memo_reuse: true,
            ..Reference::default()
        };
        check(
            &fixed_case(),
            ExMem::new().without_memo_reuse(),
            &mut reference,
        );
    }

    #[test]
    fn warm_started_search_is_bit_identical_to_the_frozen_reference() {
        let (cold, _) = check(&fixed_case(), ExMem::new(), &mut Reference::default());
        let value = serde::Serialize::to_value(cold.cache());
        let loaded = <MappingCache as serde::Deserialize>::from_value(&value).unwrap();
        let nested = |key: &[u64]| -> OldKey {
            let state = key[1..].chunks_exact(2).map(|p| (p[0], p[1])).collect();
            (key[0], state)
        };
        let mut reference = Reference {
            memo: loaded
                .memo
                .iter()
                .map(|(key, val)| (nested(key), val.clone()))
                .collect(),
            warm: loaded.warm.iter().map(|key| nested(key)).collect(),
            ..Reference::default()
        };
        let (_, warm_hits) = check(
            &fixed_case(),
            ExMem::new().with_cache(loaded),
            &mut reference,
        );
        assert!(warm_hits > 0, "the replay served no loaded proof");
    }
}
