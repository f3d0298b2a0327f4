//! The equivalence gate for the streaming (lazy-arrival) kernel path.
//!
//! `Simulation::from_stream` pulls arrivals one ahead of the clock from a
//! lazy iterator instead of materializing the whole request vector. That
//! path must produce an *equal* outcome to `Simulation::new` over the
//! collected stream — the whole `SimOutcome`, with accumulated energy
//! also compared as raw f64 bits — for **every** scheduler in the
//! standard registry, under the online search budget the profile harness
//! uses. The lean aggregated mode must change only the bulk outcome
//! fields, never a decision.

use amrm::baselines::standard_registry;
use amrm::core::{Immediate, ReactivationPolicy, SearchBudget};
use amrm::model::{AppRef, JobSet, Schedule};
use amrm::sim::{SimOutcome, Simulation};
use amrm::workload::{scenarios, ArrivalStream, ScenarioRequest, StreamSpec};

fn library() -> Vec<AppRef> {
    vec![scenarios::lambda1(), scenarios::lambda2()]
}

fn spec() -> StreamSpec {
    StreamSpec {
        requests: 50,
        slack_range: (1.2, 2.5),
    }
}

fn diurnal(seed: u64) -> ArrivalStream {
    ArrivalStream::diurnal(&library(), 2.0, 3.0, 60.0, &spec(), seed)
}

fn materialized_outcome(name: &str, stream: &[ScenarioRequest]) -> SimOutcome {
    let registry = standard_registry();
    Simulation::new(
        scenarios::platform(),
        registry.create(name).unwrap(),
        ReactivationPolicy::OnArrival,
        Immediate,
        stream,
    )
    .with_search_budget(SearchBudget::online())
    .run()
}

fn streamed_outcome(name: &str, seed: u64, aggregated: bool) -> SimOutcome {
    let registry = standard_registry();
    let sim = Simulation::from_stream(
        scenarios::platform(),
        registry.create(name).unwrap(),
        ReactivationPolicy::OnArrival,
        Immediate,
        diurnal(seed),
    )
    .with_search_budget(SearchBudget::online());
    if aggregated { sim.aggregated() } else { sim }.run()
}

/// Whole-outcome equality, plus the energy's raw bits (`==` on f64
/// equates −0.0 and 0.0).
fn assert_bit_identical(name: &str, seed: u64, streamed: &SimOutcome, reference: &SimOutcome) {
    assert_eq!(
        streamed.total_energy.to_bits(),
        reference.total_energy.to_bits(),
        "{name}/seed {seed}: energy diverged ({} vs {})",
        streamed.total_energy,
        reference.total_energy
    );
    assert_eq!(streamed, reference, "{name}/seed {seed}: outcome diverged");
}

#[test]
fn lazy_kernel_is_bit_identical_for_every_registry_scheduler() {
    let registry = standard_registry();
    for seed in [7u64, 23, 404] {
        let stream: Vec<ScenarioRequest> = diurnal(seed).collect();
        for (name, _) in registry.iter() {
            let reference = materialized_outcome(name, &stream);
            let streamed = streamed_outcome(name, seed, false);
            assert_bit_identical(name, seed, &streamed, &reference);
        }
    }
}

#[test]
fn lean_mode_preserves_every_decision() {
    let registry = standard_registry();
    let seed = 23u64;
    let stream: Vec<ScenarioRequest> = diurnal(seed).collect();
    for (name, _) in registry.iter() {
        let reference = materialized_outcome(name, &stream);
        let lean = streamed_outcome(name, seed, true);
        // Aggregated mode skips only the bulk per-request outcome state
        // and recycles request slots.
        assert!(lean.peak_live_requests <= reference.peak_live_requests);
        let cleared = SimOutcome {
            admissions: Vec::new(),
            trace: Schedule::default(),
            admitted_jobs: JobSet::default(),
            peak_live_requests: lean.peak_live_requests,
            ..reference
        };
        assert_bit_identical(name, seed, &lean, &cleared);
    }
}
