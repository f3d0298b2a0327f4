//! Checks of the harness itself: `cargo test --manifest-path
//! benches/amrm-benchmark/Cargo.toml` from the repository root.

use amrm_benchmark::driver::{Prepared, Workload};
use amrm_benchmark::hist::Histogram;
use amrm_benchmark::report::{self, Reading};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Requests in the cut of each workload the tests run.
const CUT: usize = 2_000;
const SEED: u64 = 2020;

#[test]
fn histogram_percentiles_stay_within_one_bucket_of_an_exact_sort() {
    let mut rng = StdRng::seed_from_u64(SEED);
    // Log-uniform over 1 ns .. 10 s: every bucket scale gets samples.
    let mut samples: Vec<u64> = (0..50_000)
        .map(|_| 10f64.powf(rng.gen_range(0.0..10.0)) as u64)
        .collect();
    let mut hist = Histogram::default();
    for &s in &samples {
        hist.record(s);
    }
    assert_eq!(hist.count(), samples.len() as u64);
    samples.sort_unstable();
    for q in [0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let estimate = hist.quantile(q);
        let buckets = Histogram::bucket_of(estimate as u64).abs_diff(Histogram::bucket_of(exact));
        assert!(buckets <= 1, "q {q}: {estimate} vs exact {exact}");
        assert!(
            (estimate - exact as f64).abs() <= 0.02 * exact as f64 + 1.0,
            "q {q}: {estimate} is more than 2 % off {exact}"
        );
    }
}

#[test]
fn wrappers_are_transparent_on_a_cut_of_every_workload() {
    for workload in Workload::ALL {
        let plain = Prepared::new(workload, CUT, SEED).run();
        let (traced, layers) = Prepared::new(workload, CUT, SEED).run_traced();
        assert_eq!(plain.digest, traced.digest, "{}", workload.name());
        assert_eq!(plain.generated, CUT as u64);
        assert_eq!(plain.lost(), 0);
        assert_eq!(plain.deadline_misses, 0);
        assert_eq!(layers.scheduler.invalid, 0);
        assert_eq!(layers.admission.calls, CUT as u64);
        assert!(layers.scheduler.calls > 0);
        let samples: u64 = plain.windows.iter().map(|w| w.service.count()).sum();
        assert_eq!(samples, CUT as u64, "one service sample per arrival");
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let root = json.as_obj().expect("an object");
    let items = serde::value::get_field(root, section)
        .expect("section present")
        .as_arr()
        .expect("an array");
    items
        .iter()
        .map(|item| {
            let field = |key| {
                serde::value::get_field(item.as_obj().expect("an object"), key)
                    .ok()
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(readings: &[Reading]) -> Vec<(String, String)> {
    readings
        .iter()
        .map(|r| (r.name.clone(), r.unit.clone()))
        .collect()
}

#[test]
fn printed_metrics_are_exactly_those_in_benchmark_json() {
    let workload = Workload::MetaBurstyBatch;
    let plain = Prepared::new(workload, CUT, SEED).run();
    let (traced, layers) = Prepared::new(workload, CUT, SEED).run_traced();
    let end_to_end = report::end_to_end(&[1], &plain, 1.0);
    let per_layer = report::per_layer(&traced, &layers, 1, plain.wall_ns as f64);
    assert_eq!(printed(&end_to_end), declared("end_to_end"));
    assert_eq!(printed(&per_layer), declared("per_layer"));
    let workloads: Vec<String> = declared("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    for reading in end_to_end.iter().chain(&per_layer) {
        assert!(reading.value.is_finite(), "{reading}");
    }
}

#[test]
fn metric_names_are_plain_identifiers() {
    let valid = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut names: Vec<String> = ["end_to_end", "per_layer", "workloads"]
        .into_iter()
        .flat_map(declared)
        .map(|(name, _)| name)
        .collect();
    for name in &names {
        assert!(valid(name), "`{name}` is not a plain metric name");
    }
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "every name is used once");
}
