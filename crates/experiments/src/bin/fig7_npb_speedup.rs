//! Figure 7: speedups of the Grewe et al. predictive model over the best
//! static device mapping on the NAS Parallel Benchmarks, with and without
//! CLgen synthetic benchmarks added to the training set, on both experimental
//! platforms.
//!
//! Paper: baseline 1.26x (AMD) / 2.50x (NVIDIA); with CLgen 1.57x / 3.26x —
//! an average improvement of 1.27x.
//!
//! Prints, per platform, a table of each NPB program's leave-one-out speedup
//! with and without the synthetic training examples and their geometric
//! mean, then a summary table (per platform: both means and their ratio, the
//! "improvement"). It prints; it asserts nothing. Whether the synthetic
//! benchmarks improve the NPB speedup — the paper's shape — is not checked
//! by this binary or by any test: read it off the summary's "improvement"
//! column.

use cldrive::Platform;
use experiments::{
    build_suite_dataset, build_synthetic_dataset, print_table, scaled, synthesize_kernels,
    DatasetConfig, SyntheticConfig,
};
use grewe_features::FeatureSet;
use predictive::{geomean_speedup, leave_one_out, TreeConfig};

fn main() {
    let mut synth_config = SyntheticConfig::default();
    synth_config.target_kernels = scaled(300, 30);
    synth_config.max_attempts = synth_config.target_kernels * 25;
    eprintln!(
        "synthesizing {} CLgen kernels (paper: 1000)...",
        synth_config.target_kernels
    );
    let kernels = synthesize_kernels(&synth_config);
    eprintln!("accepted {} synthetic kernels", kernels.len());

    let tree = TreeConfig::default();
    let mut summary_rows = Vec::new();
    for platform in [Platform::amd(), Platform::nvidia()] {
        eprintln!("building {} dataset...", platform.name);
        let config = DatasetConfig {
            feature_set: FeatureSet::Grewe,
            ..Default::default()
        };
        let dataset = build_suite_dataset(&platform, &config);
        let npb = dataset.of_suite("NPB");
        // Training pool: all other suites (as in the paper, the NPB programs under
        // test are held out by LOOCV; the remaining suites provide training data).
        let synth = build_synthetic_dataset(
            &kernels,
            &platform,
            FeatureSet::Grewe,
            &synth_config.dataset_sizes,
        );
        eprintln!("  synthetic examples: {}", synth.len());
        let others = predictive::Dataset {
            examples: dataset
                .examples
                .iter()
                .filter(|e| e.suite != "NPB")
                .cloned()
                .collect(),
        };

        let baseline = leave_one_out(&npb, Some(&others), &tree);
        let augmented_pool = others.merged_with(&synth);
        let with_clgen = leave_one_out(&npb, Some(&augmented_pool), &tree);

        let mut rows = Vec::new();
        for (b, w) in baseline.iter().zip(&with_clgen) {
            rows.push(vec![
                b.benchmark.clone(),
                format!("{:.2}x", b.metrics.speedup_vs_static()),
                format!("{:.2}x", w.metrics.speedup_vs_static()),
            ]);
        }
        let base_avg = geomean_speedup(&baseline);
        let clgen_avg = geomean_speedup(&with_clgen);
        rows.push(vec![
            "AVERAGE".into(),
            format!("{base_avg:.2}x"),
            format!("{clgen_avg:.2}x"),
        ]);
        print_table(
            &format!(
                "Figure 7 ({}): NPB speedup over best static mapping",
                platform.name
            ),
            &["benchmark", "Grewe et al.", "w. CLgen"],
            &rows,
        );
        summary_rows.push(vec![
            platform.name.clone(),
            format!("{base_avg:.2}x"),
            format!("{clgen_avg:.2}x"),
            format!("{:.2}x", clgen_avg / base_avg.max(1e-9)),
        ]);
    }
    print_table(
        "Figure 7 summary (paper: AMD 1.26x -> 1.57x, NVIDIA 2.50x -> 3.26x, improvement 1.27x)",
        &["platform", "Grewe et al.", "w. CLgen", "improvement"],
        &summary_rows,
    );
}
