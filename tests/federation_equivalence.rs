//! The degenerate-federation equivalence gate.
//!
//! A [`Federation`] with a single shard and round-robin routing is just a
//! `Simulation` with extra bookkeeping: every request routes to shard 0
//! and the lockstep epochs merely chop the stream into arbitrary-sized
//! injection batches.  That degenerate case must be *bit-identical* to
//! the plain batch kernel — the whole outcome, with accumulated energy
//! also compared as raw f64 bits — for **every** scheduler in the
//! standard registry, at every epoch length. Anything less means the
//! dispatcher tier itself distorts results, and no cross-policy
//! comparison it produces can be trusted.
//!
//! The second gate is determinism: under every routing policy, rerunning
//! a multi-shard federation at the same seed must reproduce every
//! shard's outcome bit for bit.

use amrm::baselines::standard_registry;
use amrm::core::{
    EnergyAware, HashAffinity, Immediate, JoinShortestQueue, ReactivationPolicy, RoundRobin,
    RoutingPolicy, Scheduler, SearchBudget,
};
use amrm::model::AppRef;
use amrm::sim::{Federation, FederationConfig, FederationOutcome, SimOutcome, Simulation};
use amrm::workload::{scenarios, ArrivalStream, ScenarioRequest, StreamSpec};
use proptest::prelude::*;

fn library() -> Vec<AppRef> {
    vec![scenarios::lambda1(), scenarios::lambda2()]
}

fn diurnal(requests: usize, seed: u64) -> ArrivalStream {
    let spec = StreamSpec {
        requests,
        slack_range: (1.2, 2.5),
    };
    ArrivalStream::diurnal(&library(), 2.0, 3.0, 60.0, &spec, seed)
}

fn plain_outcome(name: &str, stream: &[ScenarioRequest]) -> SimOutcome {
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

fn one_shard_federation(
    name: &str,
    stream: impl Iterator<Item = ScenarioRequest>,
    epoch: usize,
) -> FederationOutcome {
    let registry = standard_registry();
    let shard: Simulation<Box<dyn Scheduler + Send>, Immediate> = Simulation::open(
        scenarios::platform(),
        registry.create(name).unwrap(),
        ReactivationPolicy::OnArrival,
        Immediate,
    )
    .with_search_budget(SearchBudget::online());
    Federation::new(vec![shard], Box::new(RoundRobin::new()))
        .with_config(FederationConfig {
            epoch,
            steal_threshold: None,
        })
        .run(stream)
}

/// Whole-outcome equality, plus the energy's raw bits (`==` on f64
/// equates −0.0 and 0.0).
fn assert_bit_identical(label: &str, federated: &SimOutcome, reference: &SimOutcome) {
    assert_eq!(
        federated.total_energy.to_bits(),
        reference.total_energy.to_bits(),
        "{label}: energy diverged ({} vs {})",
        federated.total_energy,
        reference.total_energy
    );
    assert_eq!(federated, reference, "{label}: outcome diverged");
}

#[test]
fn one_shard_federation_is_bit_identical_for_every_registry_scheduler() {
    let registry = standard_registry();
    for seed in [7u64, 23, 404] {
        let stream: Vec<ScenarioRequest> = diurnal(50, seed).collect();
        for (name, _) in registry.iter() {
            let reference = plain_outcome(name, &stream);
            let federated = one_shard_federation(name, diurnal(50, seed), 64);
            assert_eq!(federated.offered(), 50);
            assert_eq!(federated.routed, vec![50]);
            assert_bit_identical(
                &format!("{name}/seed {seed}"),
                &federated.shards[0],
                &reference,
            );
        }
    }
}

#[test]
fn multi_shard_federation_reruns_bit_identically() {
    let registry = standard_registry();
    let policies: Vec<fn() -> Box<dyn RoutingPolicy + Send>> = vec![
        || Box::new(RoundRobin::new()),
        || Box::new(JoinShortestQueue::new()),
        || Box::new(EnergyAware::new()),
        || Box::new(HashAffinity::new()),
    ];
    for make_policy in policies {
        let run = || {
            let shards: Vec<Simulation<Box<dyn Scheduler + Send>, Immediate>> = (0..4)
                .map(|_| {
                    Simulation::open(
                        scenarios::platform(),
                        registry.create(amrm::baselines::MDF_NAME).unwrap(),
                        ReactivationPolicy::OnArrival,
                        Immediate,
                    )
                    .with_search_budget(SearchBudget::online())
                })
                .collect();
            Federation::new(shards, make_policy()).run(diurnal(80, 23))
        };
        let first = run();
        let rerun = run();
        assert_eq!(first.routed, rerun.routed, "{}", first.routing);
        assert_eq!(first.stolen, rerun.stolen, "{}", first.routing);
        for (idx, (a, b)) in first.shards.iter().zip(&rerun.shards).enumerate() {
            assert_bit_identical(&format!("{} shard {idx}", first.routing), a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random stream length × epoch × seed: the dispatcher's epoch
    /// chopping must never leak into the single shard's results.
    #[test]
    fn one_shard_equivalence_holds_for_random_streams_and_epochs(
        requests in 1usize..=40,
        epoch in 1usize..=16,
        seed in 0u64..500,
    ) {
        let stream: Vec<ScenarioRequest> = diurnal(requests, seed).collect();
        let reference = plain_outcome(amrm::baselines::MDF_NAME, &stream);
        let federated = one_shard_federation(
            amrm::baselines::MDF_NAME,
            stream.iter().cloned(),
            epoch,
        );
        assert_eq!(federated.offered(), requests);
        assert_bit_identical(
            &format!("MDF/seed {seed}/epoch {epoch}"),
            &federated.shards[0],
            &reference,
        );
    }
}
