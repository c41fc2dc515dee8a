//! Cross-crate integration tests: the full CLgen pipeline from corpus to
//! synthesized benchmark to driver record to predictive model.

use clgen_repro::cldrive::{DriverOptions, HostDriver, Platform};
use clgen_repro::clgen::{ArgumentSpec, ClgenBuilder, ClgenOptions, SamplerConfig};
use clgen_repro::grewe_features::{FeatureSet, GreweFeatures, StaticFeatures};
use clgen_repro::predictive::{aggregate, leave_one_out, TreeConfig};
use clgen_repro::suites::{suite_benchmarks, Suite};
use experiments::data::build_dataset_from_benchmarks;
use experiments::DatasetConfig;

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

    let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
    let mut driven = 0;
    for kernel in &report.kernels {
        let compiled = cl_frontend::compile(&kernel.source, &Default::default());
        assert!(
            compiled.is_ok(),
            "synthesized kernel does not compile:\n{}",
            kernel.source
        );
        let sig = &compiled.kernels[0];
        let Ok(run) = driver.run_kernel(&compiled.unit, sig, 4096) else {
            continue;
        };
        driven += 1;
        // Build the Grewe feature vector for the record and sanity-check it.
        let counts = cl_frontend::analysis::analyze_kernels(&compiled.unit);
        let statics = StaticFeatures::from_counts(&counts[0].1);
        let features = GreweFeatures {
            static_features: statics,
            transfer: run.workload.transfer_bytes,
            wgsize: 4096.0,
        };
        let vector = FeatureSet::Extended.vector(&features);
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
