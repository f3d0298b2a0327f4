//! DVFS-aware characterization (extension beyond the paper).
//!
//! The paper pins cluster frequencies (1.5/1.8 GHz) and cites frequency
//! selection as orthogonal related work. The platform model already
//! carries alternative [`FrequencyLevel`]s; this module sweeps them during
//! characterization, producing richer Pareto fronts in which slow/frugal
//! points come from down-clocked clusters rather than only from smaller
//! allocations.

use amrm_model::{pareto_filter, AppRef, Application, OperatingPoint};
use amrm_platform::{CoreType, FrequencyLevel, Platform, PlatformBuilder};

use crate::{all_allocations, place, simulate_with_placement, CharacterizeConfig, DataflowGraph};

/// An Odroid-XU4-like platform with three DVFS levels per cluster.
///
/// Power scales roughly with `f·V²`; the level tables below use the
/// published big.LITTLE shape (power grows super-linearly with frequency).
pub fn odroid_xu4_dvfs() -> Platform {
    let little = CoreType::new("A7", 1.5e9, 1.0, 0.45, 0.045)
        .with_dvfs_level(FrequencyLevel::new(1.0e9, 0.22, 0.030))
        .with_dvfs_level(FrequencyLevel::new(0.6e9, 0.10, 0.020));
    let big = CoreType::new("A15", 1.8e9, 1.4, 1.60, 0.16)
        .with_dvfs_level(FrequencyLevel::new(1.2e9, 0.72, 0.10))
        .with_dvfs_level(FrequencyLevel::new(0.8e9, 0.33, 0.06));
    PlatformBuilder::new("odroid-xu4-dvfs")
        .cluster(little, 4)
        .cluster(big, 2)
        .cluster(CoreType::new("A15", 1.8e9, 1.4, 1.60, 0.16), 2)
        .build()
}

/// Enumerates per-cluster frequency assignments of `platform` (the pinned
/// level plus every registered DVFS level, independently per cluster) and
/// returns one re-pinned platform per combination.
pub fn frequency_variants(platform: &Platform) -> Vec<Platform> {
    let mut variants: Vec<Vec<CoreType>> = vec![Vec::new()];
    for t in platform.core_types() {
        let mut levels = vec![t.level().clone()];
        levels.extend(t.dvfs_levels().iter().cloned());
        let mut next = Vec::with_capacity(variants.len() * levels.len());
        for prefix in &variants {
            for level in &levels {
                let mut row = prefix.clone();
                row.push(t.at_level(level.clone()));
                next.push(row);
            }
        }
        variants = next;
    }
    variants
        .into_iter()
        .map(|types| {
            Platform::new(
                platform.name().to_string(),
                types,
                platform.counts().clone(),
            )
        })
        .collect()
}

/// Characterizes `graph` over allocations × per-cluster frequency levels.
///
/// The returned table uses the *same* resource arity as `platform`: a
/// point records how many cores of each cluster it occupies; the frequency
/// chosen at characterization time is folded into its time/energy. (The
/// runtime manager remains frequency-oblivious, exactly as in the paper
/// where tables came from fixed-frequency measurements.)
///
/// # Examples
///
/// ```
/// use amrm_dataflow::{apps, characterize, characterize_dvfs, odroid_xu4_dvfs, CharacterizeConfig};
///
/// let platform = odroid_xu4_dvfs();
/// let fixed = characterize(&apps::pedestrian_recognition(), &platform, &CharacterizeConfig::default());
/// let dvfs = characterize_dvfs(&apps::pedestrian_recognition(), &platform, &CharacterizeConfig::default());
/// assert!(dvfs.num_points() >= fixed.num_points());
/// ```
pub fn characterize_dvfs(
    graph: &DataflowGraph,
    platform: &Platform,
    config: &CharacterizeConfig,
) -> AppRef {
    let topo = graph
        .topological_order()
        .expect("dataflow graph must be acyclic");
    let mut points = Vec::new();
    for variant in frequency_variants(platform) {
        for alloc in all_allocations(&variant) {
            if !config.include_oversized && alloc.total() as usize > graph.num_processes() {
                continue;
            }
            let placement = place(graph, &variant, &alloc);
            let r =
                simulate_with_placement(graph, &variant, &alloc, &placement, &topo, &config.sim);
            points.push(OperatingPoint::new(alloc, r.makespan, r.energy));
        }
    }
    Application::shared(graph.name(), pareto_filter(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn variant_count_is_product_of_levels() {
        let platform = odroid_xu4_dvfs();
        // Clusters: 3 levels × 3 levels × 1 level = 9 variants.
        assert_eq!(frequency_variants(&platform).len(), 9);
        let fixed = Platform::odroid_xu4();
        assert_eq!(frequency_variants(&fixed).len(), 1);
    }

    #[test]
    fn variants_preserve_counts_and_arity() {
        let platform = odroid_xu4_dvfs();
        for v in frequency_variants(&platform) {
            assert_eq!(v.counts(), platform.counts());
            assert_eq!(v.num_types(), platform.num_types());
        }
    }

    #[test]
    fn dvfs_front_is_a_superset_quality_wise() {
        let platform = odroid_xu4_dvfs();
        let cfg = CharacterizeConfig::default();
        let app = apps::pedestrian_recognition();
        let fixed = crate::characterize(&app, &platform, &cfg);
        let dvfs = characterize_dvfs(&app, &platform, &cfg);
        assert!(dvfs.is_pareto_filtered());
        // Down-clocking opens strictly more frugal operating points.
        let min_fixed = fixed
            .points()
            .iter()
            .map(|p| p.energy())
            .fold(f64::INFINITY, f64::min);
        let min_dvfs = dvfs
            .points()
            .iter()
            .map(|p| p.energy())
            .fold(f64::INFINITY, f64::min);
        assert!(min_dvfs <= min_fixed + 1e-9);
        assert!(dvfs.num_points() >= fixed.num_points());
    }

    #[test]
    fn dvfs_tables_remain_usable_by_the_scheduler_stack() {
        // Resource arity must match the platform so the RM can use them.
        let platform = odroid_xu4_dvfs();
        let app = characterize_dvfs(
            &apps::audio_filter(),
            &platform,
            &CharacterizeConfig::default(),
        );
        for p in app.points() {
            assert_eq!(p.resources().num_types(), platform.num_types());
            assert!(platform.can_fit(p.resources()));
        }
    }
}
