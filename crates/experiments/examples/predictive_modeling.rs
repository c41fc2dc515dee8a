//! Predictive modeling end-to-end: build the benchmark-suite dataset on the
//! AMD platform, train the Grewe et al. CPU/GPU-mapping model with
//! leave-one-out cross-validation, then augment the training set with CLgen
//! synthetic benchmarks and compare (a miniature Figure 7).
//!
//! ```bash
//! cargo run --release --example predictive_modeling
//! ```

use cldrive::Platform;
use experiments::{
    build_suite_dataset, build_synthetic_dataset, synthesize_kernels, DatasetConfig,
    SyntheticConfig,
};
use grewe_features::FeatureSet;
use predictive::{aggregate, geomean_speedup, leave_one_out, TreeConfig};

fn main() {
    let platform = Platform::amd();
    println!(
        "building benchmark-suite dataset on the {} platform...",
        platform.name
    );
    let dataset = build_suite_dataset(&platform, &DatasetConfig::default());
    println!(
        "dataset: {} examples, {} benchmarks, {} suites ({:.0}% GPU-optimal)",
        dataset.len(),
        dataset.benchmarks().len(),
        dataset.suites().len(),
        dataset.gpu_fraction() * 100.0
    );

    let tree = TreeConfig::default();
    println!("\nleave-one-out cross-validation, Grewe et al. features, no augmentation...");
    let baseline = leave_one_out(&dataset, None, &tree);
    let base = aggregate(&baseline);
    println!(
        "  accuracy {:.1}%, performance vs oracle {:.1}%, speedup vs static {:.2}x",
        base.accuracy * 100.0,
        base.performance_vs_oracle() * 100.0,
        geomean_speedup(&baseline)
    );

    println!("\nsynthesizing CLgen benchmarks for training-set augmentation...");
    let config = SyntheticConfig {
        target_kernels: 60,
        max_attempts: 2000,
        ..Default::default()
    };
    let kernels = synthesize_kernels(&config);
    let synthetic = build_synthetic_dataset(
        &kernels,
        &platform,
        FeatureSet::Grewe,
        &config.dataset_sizes,
    );
    println!(
        "  {} synthetic kernels -> {} training examples",
        kernels.len(),
        synthetic.len()
    );

    let augmented = leave_one_out(&dataset, Some(&synthetic), &tree);
    let aug = aggregate(&augmented);
    println!(
        "\nwith CLgen augmentation: accuracy {:.1}%, performance vs oracle {:.1}%, speedup vs static {:.2}x",
        aug.accuracy * 100.0,
        aug.performance_vs_oracle() * 100.0,
        geomean_speedup(&augmented)
    );
    println!(
        "\nimprovement from synthetic benchmarks: {:.2}x (the paper reports 1.27x on its full setup)",
        geomean_speedup(&augmented) / geomean_speedup(&baseline).max(1e-9)
    );
}
