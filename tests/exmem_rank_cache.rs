//! The equivalence and soundness gates for EX-MEM's capped candidate
//! ranking and persistent warm-start mapping cache.
//!
//! Three claims are pinned:
//!
//! 1. **An infinite rank cap changes nothing.** `rank_cap = usize::MAX`
//!    normalizes to "no cap" at the [`SearchBudget`] layer, so whole
//!    online runs under `nodes(L).with_rank_cap(usize::MAX)` are
//!    bit-identical to `nodes(L)` — the budget shape every pre-cap run
//!    used — for *every* standard admission policy.
//! 2. **Warm replay is bit-identical to cold.** Saving the cold run's
//!    mapping cache and replaying the same recorded trace warm must
//!    reproduce admissions and energy bits exactly, while actually
//!    serving warm hits. (The guarded precondition — journal-checked —
//!    is that the cold run never truncated: then every persisted entry
//!    is an exact proof and replaying proofs cannot diverge.)
//! 3. **A finite cap is truncation-equivalent.** Capped runs degrade to
//!    the MDF fallback, never below it, and never miss an admitted
//!    deadline.

use amrm::baselines::{ExMem, MappingCache};
use amrm::core::{
    AdaptiveBatch, AdmissionPolicy, BatchK, Immediate, ReactivationPolicy, SearchBudget,
    SlackAware, WindowTau,
};
use amrm::metrics::journal::{EventKind, JournalConfig};
use amrm::model::AppRef;
use amrm::sim::{SimOutcome, Simulation};
use amrm::workload::{
    bursty_window_stream, poisson_stream, scenarios, ScenarioRequest, StreamSpec,
};
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

/// Runs EX-MEM over `stream` under `budget` with the `policy_idx`-th
/// standard admission policy (the same five the admission grid sweeps).
fn run_exmem(stream: &[ScenarioRequest], budget: SearchBudget, policy_idx: usize) -> SimOutcome {
    fn go<A: AdmissionPolicy>(
        stream: &[ScenarioRequest],
        budget: SearchBudget,
        policy: A,
    ) -> SimOutcome {
        Simulation::new(
            scenarios::platform(),
            ExMem::new(),
            ReactivationPolicy::OnArrival,
            policy,
            stream,
        )
        .with_search_budget(budget)
        .run()
    }
    match policy_idx {
        0 => go(stream, budget, Immediate),
        1 => go(stream, budget, BatchK(4)),
        2 => go(stream, budget, WindowTau(2.0)),
        3 => go(stream, budget, AdaptiveBatch::default()),
        _ => go(stream, budget, SlackAware::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// `rank_cap = usize::MAX` ≡ the pre-cap enumeration, bit for bit
    /// over whole runs, for every standard admission policy.
    #[test]
    fn max_rank_cap_runs_are_bit_identical_to_uncapped(
        seed in 0u64..1000,
        requests in 8usize..14,
        policy_idx in 0usize..5,
    ) {
        let spec = StreamSpec { requests, slack_range: (1.3, 2.6) };
        let stream = bursty_window_stream(&library(), 0.8, 6.0, 12.0, &spec, seed);
        let uncapped = run_exmem(
            &stream,
            SearchBudget::nodes(SearchBudget::ONLINE_WORK_UNITS),
            policy_idx,
        );
        let max_capped = run_exmem(
            &stream,
            SearchBudget::nodes(SearchBudget::ONLINE_WORK_UNITS).with_rank_cap(usize::MAX),
            policy_idx,
        );
        assert_bit_identical("max rank cap", &uncapped, &max_capped);
    }

    /// A finite rank cap is deterministic and safe: same seed, same cap
    /// → same bits, and no admitted deadline is ever missed.
    #[test]
    fn finite_rank_cap_runs_are_deterministic_and_safe(
        seed in 0u64..1000,
        cap in 1usize..64,
        policy_idx in 0usize..5,
    ) {
        let spec = StreamSpec { requests: 12, slack_range: (1.3, 2.6) };
        let stream = bursty_window_stream(&library(), 0.8, 6.0, 12.0, &spec, seed);
        let budget = SearchBudget::nodes(SearchBudget::ONLINE_WORK_UNITS).with_rank_cap(cap);
        let first = run_exmem(&stream, budget, policy_idx);
        let second = run_exmem(&stream, budget, policy_idx);
        assert_bit_identical("finite rank cap determinism", &first, &second);
        assert_eq!(first.stats.deadline_misses, 0);
    }
}

/// One journal-instrumented EX-MEM run over `stream`, warm-started from
/// `cache` when given.
fn run_journaled(stream: &[ScenarioRequest], cache: Option<MappingCache>) -> (SimOutcome, ExMem) {
    let scheduler = match cache {
        Some(cache) => ExMem::new().with_cache(cache),
        None => ExMem::new(),
    };
    Simulation::new(
        scenarios::platform(),
        scheduler,
        ReactivationPolicy::OnArrival,
        Immediate,
        stream,
    )
    // The replay pair runs uncapped (plain online work units): warm
    // replay is the *exact* path served from proofs, and the
    // zero-truncation precondition below is what makes cold-vs-warm
    // bit-identity a theorem instead of a coincidence.
    .with_search_budget(SearchBudget::nodes(SearchBudget::ONLINE_WORK_UNITS))
    .with_journal(JournalConfig::default())
    .run_with_scheduler()
}

#[test]
fn warm_cache_replay_is_bit_identical_to_the_cold_run() {
    let spec = StreamSpec {
        requests: 30,
        slack_range: (1.4, 2.8),
    };
    let stream = poisson_stream(&library(), 5.0, &spec, 2020);

    let (cold, cold_ex) = run_journaled(&stream, None);
    let cold_journal = cold.journal.as_ref().expect("journal installed");
    // Precondition that makes bit-identity a theorem rather than luck:
    // the calm stream solves every activation exactly under the online
    // budget, so everything persisted is a proof.
    assert_eq!(
        cold_journal.count_of(EventKind::Truncation),
        0,
        "pick a calmer pinned stream: the cold run truncated"
    );
    assert_eq!(cold_journal.count_of(EventKind::RankPrune), 0);
    assert_eq!(cold_journal.count_of(EventKind::CacheWarmHit), 0);
    assert!(cold_ex.cache().proof_count() > 0);

    // Roundtrip the cache through disk, exactly as `repro exact` does.
    let dir = std::env::temp_dir().join("amrm_rank_cache_gate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("poisson2020.cache.json");
    cold_ex.cache().save(&path).unwrap();
    let loaded = MappingCache::load(&path).unwrap();
    assert_eq!(loaded.warm_len(), cold_ex.cache().proof_count());

    let (warm, warm_ex) = run_journaled(&stream, Some(loaded));
    assert_bit_identical("warm replay", &cold, &warm);
    let warm_journal = warm.journal.as_ref().expect("journal installed");
    assert!(
        warm_journal.count_of(EventKind::CacheWarmHit) > 0,
        "the warm run never served a disk-loaded proof"
    );
    assert!(
        warm_ex.last_warm_hits() > 0 || warm_journal.count_of(EventKind::CacheWarmHit) > 0,
        "warm-hit accounting lost"
    );
}

#[test]
fn saved_cache_files_are_deterministic() {
    // Equal cache states must serialize to equal bytes (sorted key
    // order), so committed artifacts and CI comparisons are stable.
    let spec = StreamSpec {
        requests: 12,
        slack_range: (1.4, 2.8),
    };
    let stream = poisson_stream(&library(), 2.0, &spec, 7);
    let run = || {
        let (_, ex) = run_journaled(&stream, None);
        serde_json::to_string(ex.cache()).unwrap()
    };
    assert_eq!(run(), run());
}
