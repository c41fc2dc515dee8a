//! Cross-crate integration tests: the full CLgen pipeline from corpus to
//! synthesized benchmark to driver record to predictive model.

use cldrive::{DriverOptions, Platform};
use clgen::{ArgumentSpec, ClgenBuilder, ClgenOptions, SamplerConfig};
use clgen_harness::{Deadline, Harness, HarnessConfig};
use experiments::data::build_dataset_from_benchmarks;
use experiments::DatasetConfig;
use grewe_features::FeatureSet;
use predictive::{aggregate, leave_one_out, TreeConfig};
use suites::{suite_benchmarks, Suite};

#[test]
fn synthesized_kernels_flow_through_driver_and_features() {
    let mut options = ClgenOptions::small(2024);
    options.corpus.miner.repositories = 40;
    let report = ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus")
        .train()
        .expect("training")
        .sampler(
            SamplerConfig::new(2024)
                .with_spec(ArgumentSpec::paper_default())
                .with_max_attempts(300),
        )
        .synthesize(4);
    assert!(!report.kernels.is_empty(), "no kernels synthesized");

    let harness = Harness::new(
        HarnessConfig {
            platform: Platform::amd(),
            driver: DriverOptions::quick(),
            sizes: vec![4096],
            feature_set: FeatureSet::Extended,
        },
        None,
    );
    let mut driven = 0;
    for kernel in &report.kernels {
        let report = harness
            .drive_source(&kernel.source, &Deadline::none())
            .unwrap_or_else(|e| {
                panic!(
                    "synthesized kernel does not compile ({e}):\n{}",
                    kernel.source
                )
            });
        // The first kernel of the source at its one size.
        let unit = &report.units[0];
        if unit.run.is_none() {
            continue;
        }
        driven += 1;
        // Sanity-check the Grewe feature vector extracted for the record.
        let vector = unit.features.as_ref().expect("a driven unit has features");
        assert_eq!(vector.len(), 11);
        assert!(vector.iter().all(|v| v.is_finite()));
    }
    assert!(driven > 0, "no synthesized kernel could be driven");
}

#[test]
fn suite_dataset_supports_loocv_on_both_platforms() {
    // A two-suite dataset is enough to exercise the full modeling path.
    let benchmarks: Vec<_> = suite_benchmarks(Suite::Shoc)
        .into_iter()
        .chain(suite_benchmarks(Suite::Polybench))
        .collect();
    for platform in [Platform::amd(), Platform::nvidia()] {
        let dataset =
            build_dataset_from_benchmarks(&benchmarks, &platform, &DatasetConfig::default());
        assert!(
            dataset.len() >= benchmarks.len(),
            "dataset too small on {}",
            platform.name
        );
        let results = leave_one_out(&dataset, None, &TreeConfig::default());
        let metrics = aggregate(&results);
        assert!(metrics.count > 0);
        assert!(
            metrics.performance_vs_oracle() > 0.3,
            "model collapsed on {}: {:?}",
            platform.name,
            metrics
        );
        assert!(metrics.performance_vs_oracle() <= 1.0 + 1e-9);
    }
}
