//! The three benchmark applications of the paper's evaluation.
//!
//! The paper uses "an algorithm of speaker recognition with 8 processes, an
//! audio filter — a stereo frequency filter with 8 processes — and an
//! algorithm of pedestrian recognition with 6 processes, provided by
//! Silexica". The originals are proprietary; the graphs below reproduce
//! their published structure (process counts, pipeline/fork-join topology)
//! with per-process workloads tuned so that single-little-core execution
//! times and big/little energy ratios land in the range implied by
//! Table II.

use amrm_model::AppRef;
use amrm_platform::Platform;

use crate::{characterize, CharacterizeConfig, DataflowGraph};

/// Speaker recognition, 8 processes: an MFCC/GMM pipeline
/// (cf. Bouraoui et al., PARMA-DITAM'19).
pub fn speaker_recognition() -> DataflowGraph {
    let mut g = DataflowGraph::new("speaker_recognition");
    let src = g.add_process("audio_src", 0.3e8);
    let pre = g.add_process("preemphasis", 0.6e8);
    let frame = g.add_process("framing", 0.7e8);
    let fft = g.add_process("fft", 2.2e8);
    let mel = g.add_process("mel_filterbank", 1.2e8);
    let dct = g.add_process("dct_mfcc", 1.0e8);
    let gmm = g.add_process("gmm_scoring", 2.0e8);
    let dec = g.add_process("decision", 0.4e8);
    let frame_bytes = 64.0 * 1024.0;
    g.connect(src, pre, frame_bytes);
    g.connect(pre, frame, frame_bytes);
    g.connect(frame, fft, frame_bytes);
    g.connect(fft, mel, frame_bytes / 2.0);
    g.connect(mel, dct, 16.0 * 1024.0);
    g.connect(dct, gmm, 8.0 * 1024.0);
    g.connect(gmm, dec, 1024.0);
    g
}

/// Audio filter, 8 processes: a stereo split into two parallel 3-stage
/// biquad chains merged back (cf. the Tetris benchmark set).
pub fn audio_filter() -> DataflowGraph {
    let mut g = DataflowGraph::new("audio_filter");
    let split = g.add_process("split", 0.3e8);
    let l1 = g.add_process("left_stage1", 0.8e8);
    let l2 = g.add_process("left_stage2", 0.8e8);
    let l3 = g.add_process("left_stage3", 0.8e8);
    let r1 = g.add_process("right_stage1", 0.8e8);
    let r2 = g.add_process("right_stage2", 0.8e8);
    let r3 = g.add_process("right_stage3", 0.8e8);
    let merge = g.add_process("merge", 0.5e8);
    let buf = 48.0 * 1024.0;
    g.connect(split, l1, buf);
    g.connect(l1, l2, buf);
    g.connect(l2, l3, buf);
    g.connect(split, r1, buf);
    g.connect(r1, r2, buf);
    g.connect(r2, r3, buf);
    g.connect(l3, merge, buf);
    g.connect(r3, merge, buf);
    g
}

/// Pedestrian recognition, 6 processes: a HOG/SVM detection pipeline.
pub fn pedestrian_recognition() -> DataflowGraph {
    let mut g = DataflowGraph::new("pedestrian_recognition");
    let cap = g.add_process("capture", 0.4e8);
    let resize = g.add_process("resize", 0.5e8);
    let grad = g.add_process("gradients", 0.9e8);
    let hog = g.add_process("hog_descriptor", 1.3e8);
    let svm = g.add_process("svm_classify", 0.8e8);
    let nms = g.add_process("non_max_suppression", 0.3e8);
    let img = 512.0 * 1024.0;
    g.connect(cap, resize, img);
    g.connect(resize, grad, img / 2.0);
    g.connect(grad, hog, img / 4.0);
    g.connect(hog, svm, 64.0 * 1024.0);
    g.connect(svm, nms, 8.0 * 1024.0);
    g
}

/// The three applications in paper order.
pub fn all_graphs() -> Vec<DataflowGraph> {
    vec![
        speaker_recognition(),
        audio_filter(),
        pedestrian_recognition(),
    ]
}

/// Input-size scale factors used by the benchmark suite, mirroring the
/// paper's "input data of different sizes".
pub const INPUT_SCALES: [(&str, f64); 3] = [("S", 0.6), ("M", 1.0), ("L", 1.6)];

/// Characterizes every application at every input size on `platform`,
/// returning one Pareto-filtered [`Application`](amrm_model::Application)
/// per (app, input-size) pair — 9 variants in total, named e.g.
/// `"audio_filter#L"`.
pub fn benchmark_suite(platform: &Platform) -> Vec<AppRef> {
    let config = CharacterizeConfig::default();
    let mut out = Vec::new();
    for graph in all_graphs() {
        for (tag, scale) in INPUT_SCALES {
            let mut variant = graph.scaled(scale);
            variant.set_name(format!("{}#{}", graph.name(), tag));
            out.push(characterize(&variant, platform, &config));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_platform::ResourceVec;

    #[test]
    fn process_counts_match_the_paper() {
        assert_eq!(speaker_recognition().num_processes(), 8);
        assert_eq!(audio_filter().num_processes(), 8);
        assert_eq!(pedestrian_recognition().num_processes(), 6);
    }

    #[test]
    fn all_graphs_are_acyclic() {
        for g in all_graphs() {
            assert!(g.topological_order().is_some(), "{} has a cycle", g.name());
        }
    }

    #[test]
    fn single_little_core_times_are_in_table_ii_range() {
        // Table II's full-execution times are 2–17 s; our graphs at default
        // iterations must land in the same order of magnitude.
        let platform = Platform::odroid_xu4();
        for g in all_graphs() {
            let r = crate::simulate(
                &g,
                &platform,
                &ResourceVec::from_slice(&[1, 0]),
                &crate::SimConfig::default(),
            );
            assert!(
                r.makespan > 4.0 && r.makespan < 30.0,
                "{}: {} s",
                g.name(),
                r.makespan
            );
        }
    }

    #[test]
    fn big_little_speed_ratio_is_realistic() {
        // Table II implies big ≈ 1.5–2× faster than little.
        let platform = Platform::odroid_xu4();
        for g in all_graphs() {
            let little = crate::simulate(
                &g,
                &platform,
                &ResourceVec::from_slice(&[1, 0]),
                &crate::SimConfig::default(),
            );
            let big = crate::simulate(
                &g,
                &platform,
                &ResourceVec::from_slice(&[0, 1]),
                &crate::SimConfig::default(),
            );
            let ratio = little.makespan / big.makespan;
            assert!(ratio > 1.3 && ratio < 2.5, "{}: ratio {ratio}", g.name());
        }
    }

    #[test]
    fn benchmark_suite_has_nine_variants_with_distinct_names() {
        let platform = Platform::odroid_xu4();
        let suite = benchmark_suite(&platform);
        assert_eq!(suite.len(), 9);
        let mut names: Vec<&str> = suite.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
        for app in &suite {
            assert!(app.is_pareto_filtered());
            assert!(app.num_points() >= 3, "{} too small", app.name());
        }
    }

    /// FNV-1a over every point's time and energy bits and its resources.
    fn table_digest(apps: &[AppRef]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for app in apps {
            for p in app.points() {
                eat(&p.time().to_bits().to_le_bytes());
                eat(&p.energy().to_bits().to_le_bytes());
                for n in p.resources().iter() {
                    eat(&n.to_le_bytes());
                }
            }
        }
        h
    }

    #[test]
    fn characterized_tables_are_pinned_bit_for_bit() {
        // Recorded with the per-firing simulation that scanned every
        // channel for predecessors; any change to the simulated times or
        // energies moves these digests.
        let suite = benchmark_suite(&Platform::odroid_xu4());
        assert_eq!(table_digest(&suite), 0xf10c_53f3_c7cd_8b38);
        let config = CharacterizeConfig::default();
        let dvfs: Vec<AppRef> = all_graphs()
            .iter()
            .map(|g| crate::characterize_dvfs(g, &crate::odroid_xu4_dvfs(), &config))
            .collect();
        assert_eq!(table_digest(&dvfs), 0x49af_9b4f_d0ee_7743);
    }

    #[test]
    fn suite_point_counts_are_in_paper_ballpark() {
        // The paper reports 28–36 Pareto configurations per application
        // aggregated over input sizes; per variant that is ~9–12.
        let platform = Platform::odroid_xu4();
        let suite = benchmark_suite(&platform);
        let total: usize = suite.iter().map(|a| a.num_points()).sum();
        assert!(
            (27..=150).contains(&total),
            "total Pareto points {total} out of plausible range"
        );
    }
}
