//! Design-time characterization: from a dataflow graph to the
//! Pareto-filtered operating-point table the runtime manager consumes.
//!
//! This replaces the paper's exhaustive on-board benchmarking ("we
//! exhaustively benchmarked these applications with input data of different
//! sizes on the Hardkernel Odroid XU4"): every core allocation is simulated
//! and the resulting ⟨θ, τ, ξ⟩ triples are Pareto-filtered.

use amrm_model::{pareto_filter, AppRef, Application, OperatingPoint};
use amrm_platform::{Platform, ResourceVec};

use crate::{place, simulate_with_placement, DataflowGraph, SimConfig};

/// Characterization options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CharacterizeConfig {
    /// Simulation parameters per allocation.
    pub sim: SimConfig,
    /// Also sweep allocations with more cores than processes (these are
    /// always Pareto-dominated; off by default).
    pub include_oversized: bool,
}

/// Enumerates every non-empty allocation `(n1, …, nm) ≤ Θ`.
pub fn all_allocations(platform: &Platform) -> Vec<ResourceVec> {
    let mut out = Vec::new();
    let counts = platform.counts();
    let m = platform.num_types();
    let mut current = vec![0u32; m];
    loop {
        if current.iter().any(|&c| c > 0) {
            out.push(ResourceVec::from_slice(&current));
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == m {
                return out;
            }
            if current[k] < counts[k] {
                current[k] += 1;
                break;
            }
            current[k] = 0;
            k += 1;
        }
    }
}

/// Simulates every allocation of `platform` for `graph` and returns the
/// Pareto-filtered operating points as an [`Application`].
///
/// # Examples
///
/// ```
/// use amrm_dataflow::{apps, characterize, CharacterizeConfig};
/// use amrm_platform::Platform;
///
/// let platform = Platform::odroid_xu4();
/// let app = characterize(
///     &apps::audio_filter(),
///     &platform,
///     &CharacterizeConfig::default(),
/// );
/// assert!(app.num_points() >= 4);
/// assert!(app.is_pareto_filtered());
/// ```
pub fn characterize(
    graph: &DataflowGraph,
    platform: &Platform,
    config: &CharacterizeConfig,
) -> AppRef {
    let topo = graph
        .topological_order()
        .expect("dataflow graph must be acyclic");
    let mut points = Vec::new();
    for alloc in all_allocations(platform) {
        if !config.include_oversized && alloc.total() as usize > graph.num_processes() {
            continue;
        }
        let placement = place(graph, platform, &alloc);
        let r = simulate_with_placement(graph, platform, &alloc, &placement, &topo, &config.sim);
        points.push(OperatingPoint::new(alloc, r.makespan, r.energy));
    }
    Application::shared(graph.name(), pareto_filter(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn allocation_enumeration_counts() {
        let platform = Platform::odroid_xu4();
        // (4+1)·(4+1) − 1 = 24 non-empty allocations.
        assert_eq!(all_allocations(&platform).len(), 24);
        let homo = Platform::homogeneous(3);
        assert_eq!(all_allocations(&homo).len(), 3);
    }

    #[test]
    fn characterized_table_is_pareto_front() {
        let platform = Platform::odroid_xu4();
        let app = characterize(
            &apps::pedestrian_recognition(),
            &platform,
            &CharacterizeConfig::default(),
        );
        assert!(app.is_pareto_filtered());
        assert!(app.num_points() >= 3, "expected several trade-off points");
    }

    #[test]
    fn front_contains_both_frugal_and_fast_points() {
        let platform = Platform::odroid_xu4();
        let app = characterize(
            &apps::audio_filter(),
            &platform,
            &CharacterizeConfig::default(),
        );
        let min_energy = app
            .points()
            .iter()
            .min_by(|a, b| a.energy().total_cmp(&b.energy()))
            .unwrap();
        let min_time = app
            .points()
            .iter()
            .min_by(|a, b| a.time().total_cmp(&b.time()))
            .unwrap();
        // The frugal point is slower than the fast point and vice versa.
        assert!(min_energy.time() > min_time.time());
        assert!(min_time.energy() > min_energy.energy());
    }

    #[test]
    fn oversized_allocations_do_not_change_front() {
        let platform = Platform::odroid_xu4();
        let base = characterize(
            &apps::pedestrian_recognition(),
            &platform,
            &CharacterizeConfig::default(),
        );
        let with_oversized = characterize(
            &apps::pedestrian_recognition(),
            &platform,
            &CharacterizeConfig {
                include_oversized: true,
                ..CharacterizeConfig::default()
            },
        );
        // Oversized allocations only add dominated points (same or fewer
        // survive; the front itself is unchanged in size here).
        assert_eq!(base.num_points(), with_oversized.num_points());
    }

    #[test]
    fn larger_input_scales_time_roughly_linearly() {
        let platform = Platform::odroid_xu4();
        let small = characterize(
            &apps::audio_filter(),
            &platform,
            &CharacterizeConfig::default(),
        );
        let big_graph = apps::audio_filter().scaled(2.0);
        let big = characterize(&big_graph, &platform, &CharacterizeConfig::default());
        let t_small = small.min_time();
        let t_big = big.min_time();
        assert!(t_big > 1.5 * t_small && t_big < 3.0 * t_small);
    }
}
