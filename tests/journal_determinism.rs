//! Determinism and non-perturbation gates for the event journal.
//!
//! Two properties, both over every scheduler in the standard registry:
//!
//! 1. **Reproducibility** — two runs at the same seed produce *identical*
//!    journals, event for event (the journal records sim-time quantities
//!    only, so nothing wall-clock can leak in).
//! 2. **Observation-only** — enabling the journal leaves the outcome
//!    (minus the journal itself) equal to the journal-free run, energy
//!    bits included; the journal is a pure observer of the hot path.
//!
//! Both rest on outcomes being comparable whole: a `SimOutcome` holds no
//! wall-clock reading, so equal inputs give equal outcomes.

use amrm::baselines::standard_registry;
use amrm::core::{AdmissionPolicy, BatchK, ReactivationPolicy, SearchBudget};
use amrm::metrics::journal::JournalConfig;
use amrm::sim::{SimOutcome, Simulation};
use amrm::workload::{poisson_stream, scenarios, ScenarioRequest, StreamSpec};
use proptest::prelude::*;

fn library() -> Vec<amrm::model::AppRef> {
    vec![scenarios::lambda1(), scenarios::lambda2()]
}

fn run_outcome(
    name: &str,
    stream: &[ScenarioRequest],
    admission: impl AdmissionPolicy,
    journal: Option<JournalConfig>,
) -> SimOutcome {
    let sim = Simulation::new(
        scenarios::platform(),
        standard_registry().create(name).unwrap(),
        ReactivationPolicy::OnArrival,
        admission,
        stream,
    )
    .with_search_budget(SearchBudget::online());
    match journal {
        Some(config) => sim.with_journal(config),
        None => sim,
    }
    .run()
}

/// Whole-outcome equality, plus the energy's raw bits (`==` on f64
/// equates −0.0 and 0.0).
fn assert_bit_identical(name: &str, seed: u64, a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(
        a.total_energy.to_bits(),
        b.total_energy.to_bits(),
        "{name}/seed {seed}: energy diverged"
    );
    assert_eq!(a, b, "{name}/seed {seed}: outcome diverged");
}

/// The journaled outcome with its journal detached, to compare against a
/// journal-free run.
fn without_journal(outcome: &SimOutcome) -> SimOutcome {
    SimOutcome {
        journal: None,
        ..outcome.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Same seed, same journal — event for event, for every scheduler.
    #[test]
    fn journals_are_identical_across_runs_at_one_seed(
        seed in 0u64..1000,
        mean in 1.5f64..6.0,
        requests in 6usize..14,
    ) {
        let spec = StreamSpec { requests, slack_range: (1.2, 2.5) };
        let stream = poisson_stream(&library(), mean, &spec, seed);
        for (name, _) in standard_registry().iter() {
            let a = run_outcome(name, &stream, BatchK(2), Some(JournalConfig::default()));
            let b = run_outcome(name, &stream, BatchK(2), Some(JournalConfig::default()));
            let (ja, jb) = (a.journal.unwrap(), b.journal.unwrap());
            prop_assert_eq!(
                ja.events(), jb.events(),
                "{}/seed {}: journals diverged", name, seed
            );
            prop_assert_eq!(ja.counts(), jb.counts());
            prop_assert_eq!(ja.reject_reasons(), jb.reject_reasons());
        }
    }

    /// Journal on (sampling off) vs journal-free: the simulation itself
    /// is bit-identical — the journal only observes.
    #[test]
    fn enabling_the_journal_perturbs_nothing(
        seed in 0u64..1000,
        mean in 1.5f64..6.0,
        requests in 6usize..14,
    ) {
        let spec = StreamSpec { requests, slack_range: (1.2, 2.5) };
        let stream = poisson_stream(&library(), mean, &spec, seed);
        for (name, _) in standard_registry().iter() {
            let journaled = run_outcome(name, &stream, BatchK(2), Some(JournalConfig::default()));
            let plain = run_outcome(name, &stream, BatchK(2), None);
            prop_assert!(plain.journal.is_none());
            prop_assert!(journaled.journal.is_some());
            assert_bit_identical(name, seed, &without_journal(&journaled), &plain);
        }
    }
}

/// Deterministic 1-in-N sampling also reproduces exactly and also
/// perturbs nothing — it thins the lifecycle events by arrival ordinal,
/// never by RNG.
#[test]
fn sampled_journals_reproduce_and_do_not_perturb() {
    let spec = StreamSpec {
        requests: 12,
        slack_range: (1.2, 2.5),
    };
    let stream = poisson_stream(&library(), 2.0, &spec, 42);
    for (name, _) in standard_registry().iter() {
        let config = JournalConfig::sampled(4);
        let a = run_outcome(name, &stream, BatchK(3), Some(config));
        let b = run_outcome(name, &stream, BatchK(3), Some(config));
        assert_eq!(
            a.journal.as_ref().unwrap().events(),
            b.journal.as_ref().unwrap().events(),
            "{name}: sampled journals diverged"
        );
        let plain = run_outcome(name, &stream, BatchK(3), None);
        assert_bit_identical(name, 42, &without_journal(&a), &plain);
    }
}

/// An outcome is a pure function of its inputs: two journaled runs at one
/// seed are equal as whole outcomes — telemetry included, since no
/// wall-clock reading reaches it — and detaching the journal leaves
/// exactly the journal-free run.
#[test]
fn seeded_outcomes_compare_equal_whole() {
    let spec = StreamSpec {
        requests: 24,
        slack_range: (1.2, 2.5),
    };
    let stream = poisson_stream(&library(), 2.0, &spec, 2020);
    for (name, _) in standard_registry().iter() {
        let config = Some(JournalConfig::default());
        let a = run_outcome(name, &stream, BatchK(2), config);
        let b = run_outcome(name, &stream, BatchK(2), config);
        assert_bit_identical(name, 2020, &a, &b);
        let plain = run_outcome(name, &stream, BatchK(2), None);
        assert_bit_identical(name, 2020, &without_journal(&a), &plain);
    }
}
