//! The equivalence gate for the anytime EX-MEM refactor.
//!
//! Three claims are pinned:
//!
//! 1. **Unbounded is exact and unchanged.** With an unbounded
//!    [`SearchBudget`] the memo-reusing EX-MEM is bit-identical — across
//!    whole online runs — to the pre-refactor per-activation search
//!    (reproduced by `ExMem::without_memo_reuse()`): the memo only ever
//!    replays *exact* optima, so reuse is behaviour-preserving, and the
//!    seed-scenario optima still come out to the paper's values.
//! 2. **Bounded is deterministic and feasible.** A budgeted run completes
//!    streams whose bursts stack more concurrent jobs than the
//!    exhaustive search can finish online, is reproducible bit for bit,
//!    never misses a deadline, and never does worse than the MMKP-MDF
//!    incumbent it degrades to.
//! 3. **The online search is pinned at stream scale.** On a seeded
//!    300-request stream over the odroid benchmark suite, the summed work
//!    units, rank-pruned candidates and degraded activations, the final
//!    memo size, the accepted count and the energy bits are fixed literals:
//!    a digest that does not depend on the host.

use amrm::baselines::ExMem;
use amrm::core::{
    Immediate, MmkpMdf, ReactivationPolicy, Scheduler, SchedulingContext, SearchBudget,
};
use amrm::dataflow::apps::benchmark_suite;
use amrm::model::{AppRef, JobSet, Schedule};
use amrm::platform::Platform;
use amrm::sim::{run_scenario, SimOutcome, Simulation};
use amrm::workload::{bursty_window_stream, poisson_stream, scenarios, ArrivalStream, StreamSpec};
use proptest::prelude::*;

fn library() -> Vec<AppRef> {
    vec![scenarios::lambda1(), scenarios::lambda2()]
}

fn assert_bit_identical(label: &str, a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.admissions, b.admissions, "{label}: admissions diverged");
    assert_eq!(
        a.total_energy.to_bits(),
        b.total_energy.to_bits(),
        "{label}: energy diverged ({} vs {})",
        a.total_energy,
        b.total_energy
    );
    assert_eq!(
        a.end_time.to_bits(),
        b.end_time.to_bits(),
        "{label}: end time diverged"
    );
    assert_eq!(a.stats, b.stats, "{label}: counters diverged");
    assert_eq!(a.trace, b.trace, "{label}: executed trace diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Memo reuse across activations changes nothing under an unbounded
    /// budget: every memo hit replays an exact optimum, so a whole online
    /// run is bit-identical to the fresh-table-per-activation search the
    /// pre-refactor EX-MEM performed.
    #[test]
    fn unbounded_memo_reuse_is_bit_identical_to_fresh_search(
        seed in 0u64..1000,
        mean in 2.0f64..8.0,
        requests in 6usize..12,
    ) {
        let spec = StreamSpec { requests, slack_range: (1.2, 2.5) };
        let stream = poisson_stream(&library(), mean, &spec, seed);
        let reusing = run_scenario(
            scenarios::platform(),
            ExMem::new(),
            ReactivationPolicy::OnArrival,
            &stream,
        );
        let fresh = run_scenario(
            scenarios::platform(),
            ExMem::new().without_memo_reuse(),
            ReactivationPolicy::OnArrival,
            &stream,
        );
        assert_bit_identical("memo reuse", &reusing, &fresh);
    }

    /// A budgeted online run is deterministic: identical budgets on
    /// identical seeds reproduce admissions, energy bits and traces —
    /// the budget counts search work, never wall-clock.
    #[test]
    fn budgeted_runs_are_deterministic_per_seed(
        seed in 0u64..1000,
        requests in 8usize..16,
        limit in 200u64..5000,
    ) {
        let spec = StreamSpec { requests, slack_range: (1.3, 2.6) };
        let stream = bursty_window_stream(&library(), 0.8, 6.0, 12.0, &spec, seed);
        let run = || {
            Simulation::new(
                scenarios::platform(),
                ExMem::new(),
                ReactivationPolicy::OnArrival,
                Immediate,
                &stream,
            )
            .with_search_budget(SearchBudget::nodes(limit))
            .run()
        };
        let first = run();
        let second = run();
        assert_bit_identical("budgeted determinism", &first, &second);
        assert_eq!(first.stats.deadline_misses, 0);
    }

    /// Under any budget the anytime EX-MEM admits at least as much as
    /// MMKP-MDF at the same decision points would never be guaranteed —
    /// but each individual activation never returns a schedule *worse*
    /// than the MDF incumbent, so total energy per accepted job stays
    /// bounded and no admitted deadline is ever missed.
    #[test]
    fn budgeted_runs_never_miss_deadlines(
        seed in 0u64..1000,
        limit in 50u64..2000,
    ) {
        let spec = StreamSpec { requests: 12, slack_range: (1.3, 2.8) };
        let stream = poisson_stream(&library(), 1.5, &spec, seed);
        let outcome = Simulation::new(
            scenarios::platform(),
            ExMem::new(),
            ReactivationPolicy::OnArrival,
            Immediate,
            &stream,
        )
        .with_search_budget(SearchBudget::nodes(limit))
        .run();
        assert_eq!(outcome.stats.deadline_misses, 0);
        assert_eq!(outcome.stats.completed, outcome.accepted());
    }
}

#[test]
fn unbounded_budget_reproduces_the_seed_scenario_optima() {
    // The paper's motivational optima, unchanged by the anytime refactor.
    let platform = scenarios::platform();
    let rho1 = 1.0 - 1.0 / 5.3;
    for jobs in [scenarios::s1_jobs_at_t1(), scenarios::s2_jobs_at_t1()] {
        let mut ex = ExMem::new();
        let schedule = ex.schedule_at(&jobs, &platform, 1.0).expect("feasible");
        schedule.validate(&jobs, &platform, 1.0).unwrap();
        assert!(
            (schedule.energy(&jobs) - (5.73 + 8.9 * rho1)).abs() < 1e-6,
            "seed-scenario optimum changed: {}",
            schedule.energy(&jobs)
        );
        assert!(!ex.last_degraded());
    }
    let mut ex = ExMem::new();
    let jobs = scenarios::s1_jobs_at_t1();
    let ctx = SchedulingContext::at(1.0).with_budget(SearchBudget::unbounded());
    let via_ctx = ex.schedule(&jobs, &platform, &ctx).unwrap();
    let via_at = ExMem::new().schedule_at(&jobs, &platform, 1.0).unwrap();
    assert_eq!(via_ctx, via_at);
}

#[test]
fn online_budget_completes_a_burst_the_exhaustive_search_cannot() {
    // A dense burst stacks far more concurrent jobs than EX-MEM's
    // exponential joint enumeration finishes online — the reason the old
    // grid excluded it from the bursty stream. The online budget caps
    // every activation, the search degrades to best-found-so-far (or the
    // MDF incumbent) and the whole stream completes in bounded work.
    let lib = library();
    let spec = StreamSpec {
        requests: 20,
        slack_range: (2.0, 3.5),
    };
    let stream = bursty_window_stream(&lib, 0.4, 6.0, 8.0, &spec, 2020);
    let (outcome, ex) = Simulation::new(
        scenarios::platform(),
        ExMem::new(),
        ReactivationPolicy::OnArrival,
        Immediate,
        &stream,
    )
    .with_search_budget(SearchBudget::online())
    .run_with_scheduler();
    assert_eq!(outcome.admissions.len(), 20);
    assert_eq!(outcome.stats.deadline_misses, 0);
    assert!(outcome.accepted() > 0, "budgeted EX-MEM admitted nothing");
    // The budget must actually have bitten somewhere in the bursts.
    assert!(
        ex.nodes_explored() <= SearchBudget::ONLINE_WORK_UNITS,
        "an activation exceeded the online budget: {}",
        ex.nodes_explored()
    );
}

#[test]
fn budgeted_exmem_matches_mdf_acceptance_or_better_on_a_seeded_stream() {
    // The MDF fallback guarantees a budgeted activation never *rejects*
    // a request MDF would admit: acceptance can only match or beat the
    // heuristic run at the same decision points.
    let lib = library();
    let spec = StreamSpec {
        requests: 25,
        slack_range: (1.4, 2.8),
    };
    let stream = poisson_stream(&lib, 2.0, &spec, 2020);
    let mdf = run_scenario(
        scenarios::platform(),
        MmkpMdf::new(),
        ReactivationPolicy::OnArrival,
        &stream,
    );
    let budgeted = Simulation::new(
        scenarios::platform(),
        ExMem::new(),
        ReactivationPolicy::OnArrival,
        Immediate,
        &stream,
    )
    .with_search_budget(SearchBudget::online())
    .run();
    assert!(
        budgeted.accepted() >= mdf.accepted(),
        "budgeted EX-MEM ({}) fell below its MDF fallback ({})",
        budgeted.accepted(),
        mdf.accepted()
    );
}

/// Forwards to EX-MEM and sums its per-activation work counters.
struct Tally {
    inner: ExMem,
    work: u64,
    rank_pruned: u64,
    degraded: u64,
}

impl Scheduler for Tally {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        jobs: &JobSet,
        platform: &Platform,
        ctx: &SchedulingContext,
    ) -> Option<Schedule> {
        let schedule = self.inner.schedule(jobs, platform, ctx);
        self.work += self.inner.nodes_explored();
        self.rank_pruned += self.inner.last_rank_pruned();
        self.degraded += u64::from(self.inner.last_degraded());
        schedule
    }
}

#[test]
fn online_exmem_work_is_pinned_on_a_seeded_stream() {
    // The benchmark's exmem-poisson stream shape, under the online budget
    // and its rank cap. Any change to what the search visits, charges,
    // prunes or memoizes moves one of these numbers.
    let platform = Platform::odroid_xu4();
    let spec = StreamSpec {
        requests: 300,
        slack_range: (1.5, 3.0),
    };
    let stream = ArrivalStream::poisson(&benchmark_suite(&platform), 2.0, &spec, 2020);
    let tally = Tally {
        inner: ExMem::new(),
        work: 0,
        rank_pruned: 0,
        degraded: 0,
    };
    let (outcome, tally) = Simulation::from_stream(
        platform,
        tally,
        ReactivationPolicy::OnArrival,
        Immediate,
        stream,
    )
    .with_search_budget(SearchBudget::online())
    .aggregated()
    .run_with_scheduler();
    let digest = (
        tally.work,
        tally.rank_pruned,
        tally.degraded,
        tally.inner.memo_len(),
        outcome.accepted(),
        outcome.total_energy.to_bits(),
    );
    // Total energy 2,310.48 J.
    let pinned = (2_068_465, 12_769, 177, 16_533, 204, 0x40a2_0cf8_4ad2_0a3e);
    assert_eq!(digest, pinned, "EX-MEM's online search moved");
}
