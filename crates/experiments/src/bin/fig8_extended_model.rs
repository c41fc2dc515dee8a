//! Figure 8: speedups of the *extended* model (raw features + branch counts,
//! trained with CLgen synthetic benchmarks) over the original Grewe et al.
//! model, evaluated across all seven benchmark suites on both platforms.
//!
//! Paper: 3.56x on AMD and 5.04x on NVIDIA (geometric means across a large
//! test set).
//!
//! Prints, per platform, a table of each suite's speedup over the best static
//! mapping for the original model and for the extended features plus
//! synthetic training data (with the extended model's share of the oracle),
//! then a summary table (per platform: both geometric means and their
//! ratio). It prints; it asserts nothing. Whether the extended model
//! outperforms the original — the paper's shape — is not checked by this
//! binary or by any test: read it off the summary's "relative improvement"
//! column.

use cldrive::Platform;
use experiments::{
    build_suite_dataset, build_synthetic_dataset, print_table, scaled, synthesize_kernels,
    DatasetConfig, SyntheticConfig,
};
use grewe_features::FeatureSet;
use predictive::{aggregate, geomean_speedup, leave_one_out, TreeConfig};

fn main() {
    let mut synth_config = SyntheticConfig::default();
    synth_config.target_kernels = scaled(300, 30);
    synth_config.max_attempts = synth_config.target_kernels * 25;
    eprintln!(
        "synthesizing {} CLgen kernels...",
        synth_config.target_kernels
    );
    let kernels = synthesize_kernels(&synth_config);
    eprintln!("accepted {} synthetic kernels", kernels.len());

    let tree = TreeConfig::default();
    let mut summary = Vec::new();
    for platform in [Platform::amd(), Platform::nvidia()] {
        eprintln!(
            "building {} datasets (Grewe + extended features)...",
            platform.name
        );
        let grewe_cfg = DatasetConfig {
            feature_set: FeatureSet::Grewe,
            ..Default::default()
        };
        let ext_cfg = DatasetConfig {
            feature_set: FeatureSet::Extended,
            ..Default::default()
        };
        let grewe_data = build_suite_dataset(&platform, &grewe_cfg);
        let ext_data = build_suite_dataset(&platform, &ext_cfg);
        let synth_ext = build_synthetic_dataset(
            &kernels,
            &platform,
            FeatureSet::Extended,
            &synth_config.dataset_sizes,
        );

        // Original model: Grewe features, no synthetic training data.
        let original = leave_one_out(&grewe_data, None, &tree);
        // Extended model: raw+branch features, synthetic benchmarks added.
        let extended = leave_one_out(&ext_data, Some(&synth_ext), &tree);

        let mut per_suite = Vec::new();
        for suite in grewe_data.suites() {
            let orig: Vec<_> = original
                .iter()
                .filter(|r| r.suite == suite)
                .cloned()
                .collect();
            let ext: Vec<_> = extended
                .iter()
                .filter(|r| r.suite == suite)
                .cloned()
                .collect();
            per_suite.push(vec![
                suite.clone(),
                format!("{:.2}x", geomean_speedup(&orig)),
                format!("{:.2}x", geomean_speedup(&ext)),
                format!("{:.1}%", aggregate(&ext).performance_vs_oracle() * 100.0),
            ]);
        }
        print_table(
            &format!(
                "Figure 8 ({}): per-suite speedup over best static mapping",
                platform.name
            ),
            &[
                "suite",
                "Grewe et al.",
                "extended + CLgen",
                "ext. % of oracle",
            ],
            &per_suite,
        );
        let orig_avg = geomean_speedup(&original);
        let ext_avg = geomean_speedup(&extended);
        summary.push(vec![
            platform.name.clone(),
            format!("{orig_avg:.2}x"),
            format!("{ext_avg:.2}x"),
            format!("{:.2}x", ext_avg / orig_avg.max(1e-9)),
        ]);
    }
    print_table(
        "Figure 8 summary (paper reports extended model outperforming Grewe et al. by 3.56x on AMD, 5.04x on NVIDIA)",
        &["platform", "Grewe et al.", "extended + CLgen", "relative improvement"],
        &summary,
    );
}
