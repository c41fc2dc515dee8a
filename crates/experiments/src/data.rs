//! Dataset construction shared by the experiment binaries.

use cl_frontend::analysis::analyze_function;
use cl_frontend::compile;
use cldrive::{DriverOptions, HostDriver, Platform};
use clgen::{
    ArgumentSpec, ClgenBuilder, ClgenOptions, SampleOptions, SamplerConfig, SynthesizedKernel,
};
use grewe_features::{FeatureSet, GreweFeatures, StaticFeatures};
use predictive::{Dataset, Example};
use suites::{all_benchmarks, Benchmark};

/// Configuration for building the benchmark-suite dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Which feature representation to emit.
    pub feature_set: FeatureSet,
    /// Host driver options (profiling caps etc.).
    pub driver: DriverOptions,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            feature_set: FeatureSet::Grewe,
            driver: suite_driver_options(),
        }
    }
}

/// Driver options used for trusted suite benchmarks: the dynamic checker is
/// skipped (the benchmarks are known to do useful work) and profiling caps are
/// kept small so dataset construction stays fast.
pub fn suite_driver_options() -> DriverOptions {
    DriverOptions {
        local_size: 64,
        profile_elements_cap: 1024,
        profile_work_item_cap: 192,
        checker: None,
        seed: 0xBE7C,
        repetitions: 1,
        total_step_budget: 0,
    }
}

/// Extract static features for every kernel in a benchmark source and return
/// the *sum* over kernels (multi-kernel benchmarks contribute the union of
/// their kernels' behaviour, mirroring how the paper treats per-benchmark
/// feature vectors).
fn benchmark_static_features(source: &str) -> Option<StaticFeatures> {
    let compiled = compile(source, &Default::default());
    if !compiled.is_ok() || compiled.kernels.is_empty() {
        return None;
    }
    let mut total = cl_frontend::analysis::StaticCounts::default();
    for kernel in compiled.unit.kernels() {
        let counts = analyze_function(&compiled.unit, kernel);
        total.merge(&counts);
    }
    Some(StaticFeatures::from_counts(&total))
}

/// Build the labelled dataset for one platform from every benchmark of every
/// suite, one example per (benchmark, dataset size).
pub fn build_suite_dataset(platform: &Platform, config: &DatasetConfig) -> Dataset {
    build_dataset_from_benchmarks(&all_benchmarks(), platform, config)
}

/// Build a dataset from an explicit list of benchmarks.
pub fn build_dataset_from_benchmarks(
    benchmarks: &[Benchmark],
    platform: &Platform,
    config: &DatasetConfig,
) -> Dataset {
    let driver = HostDriver::with_options(platform.clone(), config.driver.clone());
    let mut dataset = Dataset::new();
    for benchmark in benchmarks {
        let compiled = compile(&benchmark.source, &Default::default());
        if !compiled.is_ok() || compiled.kernels.is_empty() {
            continue;
        }
        let Some(statics) = benchmark_static_features(&benchmark.source) else {
            continue;
        };
        for &size in &benchmark.dataset_sizes {
            // Aggregate CPU/GPU times over all kernels of the benchmark (a
            // benchmark maps to one device as a whole).
            let mut cpu = 0.0f64;
            let mut gpu = 0.0f64;
            let mut transfer = 0.0f64;
            let mut any = false;
            for sig in &compiled.kernels {
                let Ok(run) = driver.run_kernel(&compiled.unit, sig, size) else {
                    continue;
                };
                cpu += run.cpu_time;
                gpu += run.gpu_time;
                transfer += run.workload.transfer_bytes;
                any = true;
            }
            if !any {
                continue;
            }
            let features = GreweFeatures {
                static_features: statics,
                transfer,
                wgsize: size as f64,
            };
            dataset.push(Example {
                features: config.feature_set.vector(&features),
                benchmark: benchmark.name.clone(),
                suite: benchmark.suite.short_name().to_string(),
                id: format!("{}@{}", benchmark.id(), size),
                cpu_time: cpu,
                gpu_time: gpu,
            });
        }
    }
    dataset
}

/// Sampling parameters every experiment synthesizes with.
pub const SAMPLE: SampleOptions = SampleOptions {
    max_chars: 1024,
    temperature: 0.8,
};

/// Configuration for synthesizing the CLgen training-set augmentation.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of accepted synthetic kernels to aim for (the paper uses 1000).
    pub target_kernels: usize,
    /// Upper bound on sampling attempts.
    pub max_attempts: usize,
    /// CLgen pipeline options (corpus scale, model backend).
    pub clgen: ClgenOptions,
    /// Dataset sizes each synthetic kernel is executed at.
    pub dataset_sizes: Vec<usize>,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        let mut clgen = ClgenOptions::small(0x51A7);
        clgen.corpus.miner.repositories = 150;
        clgen.corpus.miner.files_per_repo = (1, 6);
        SyntheticConfig {
            target_kernels: 300,
            max_attempts: 6000,
            clgen,
            dataset_sizes: vec![1 << 12, 1 << 16, 1 << 20],
        }
    }
}

impl SyntheticConfig {
    /// A configuration small enough for unit tests.
    pub fn small() -> SyntheticConfig {
        let mut config = SyntheticConfig {
            target_kernels: 12,
            max_attempts: 400,
            clgen: ClgenOptions::small(0x51A7),
            dataset_sizes: vec![1 << 12, 1 << 18],
        };
        config.clgen.corpus.miner.repositories = 40;
        config
    }
}

/// Run the staged CLgen pipeline (corpus → model → sampler stream) and
/// return the accepted synthetic kernels.
pub fn synthesize_kernels(config: &SyntheticConfig) -> Vec<SynthesizedKernel> {
    let stage = ClgenBuilder::with_options(config.clgen.clone())
        .build_corpus()
        .expect("corpus construction failed");
    let model = stage.train().expect("model training failed");
    let sampler = model.sampler(
        SamplerConfig::new(config.clgen.seed)
            .with_spec(ArgumentSpec::paper_default())
            .with_sample(SAMPLE)
            .with_max_attempts(config.max_attempts),
    );
    sampler.synthesize(config.target_kernels).kernels
}

/// Drive synthesized kernels and convert them into dataset examples
/// (suite = "CLgen"). Kernels that fail the dynamic checker or cannot be
/// executed are skipped, mirroring the paper's host-driver pipeline.
pub fn build_synthetic_dataset(
    kernels: &[SynthesizedKernel],
    platform: &Platform,
    feature_set: FeatureSet,
    dataset_sizes: &[usize],
) -> Dataset {
    let mut driver_options = suite_driver_options();
    driver_options.checker = Some(cldrive::CheckerOptions {
        global_size: 128,
        local_size: 32,
        ..Default::default()
    });
    let driver = HostDriver::with_options(platform.clone(), driver_options);
    let mut dataset = Dataset::new();
    for (idx, kernel) in kernels.iter().enumerate() {
        let compiled = compile(&kernel.source, &Default::default());
        if !compiled.is_ok() || compiled.kernels.is_empty() {
            continue;
        }
        let Some(statics) = benchmark_static_features(&kernel.source) else {
            continue;
        };
        let sig = &compiled.kernels[0];
        for &size in dataset_sizes {
            let Ok(run) = driver.run_kernel(&compiled.unit, sig, size) else {
                continue;
            };
            let features = GreweFeatures {
                static_features: statics,
                transfer: run.workload.transfer_bytes,
                wgsize: size as f64,
            };
            dataset.push(Example {
                features: feature_set.vector(&features),
                benchmark: format!("clgen-{idx}"),
                suite: "CLgen".to_string(),
                id: format!("clgen-{idx}@{size}"),
                cpu_time: run.cpu_time,
                gpu_time: run.gpu_time,
            });
        }
    }
    dataset
}

/// Static feature records (with the branch count) for a set of kernel sources;
/// used by Figure 9 and the Turing test.
pub fn static_features_of_sources<'a>(
    sources: impl Iterator<Item = &'a str>,
) -> Vec<StaticFeatures> {
    sources.filter_map(benchmark_static_features).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_dataset_covers_all_suites() {
        let config = DatasetConfig {
            feature_set: FeatureSet::Grewe,
            driver: DriverOptions {
                profile_elements_cap: 256,
                profile_work_item_cap: 64,
                ..suite_driver_options()
            },
        };
        // Restrict to two suites to keep the test fast.
        let benchmarks: Vec<Benchmark> = suites::suite_benchmarks(suites::Suite::NvidiaSdk)
            .into_iter()
            .chain(suites::suite_benchmarks(suites::Suite::Shoc))
            .collect();
        let dataset = build_dataset_from_benchmarks(&benchmarks, &Platform::amd(), &config);
        assert!(!dataset.is_empty());
        assert_eq!(dataset.suites().len(), 2);
        // every example has a 4-dimensional Grewe feature vector and valid runtimes
        for e in &dataset.examples {
            assert_eq!(e.features.len(), 4);
            assert!(e.cpu_time > 0.0 && e.gpu_time > 0.0);
        }
        // both mappings appear somewhere (the learning problem is non-trivial)
        assert!(
            dataset.gpu_fraction() > 0.0 && dataset.gpu_fraction() < 1.0,
            "gpu fraction {}",
            dataset.gpu_fraction()
        );
    }

    #[test]
    fn synthetic_dataset_builds_from_clgen_kernels() {
        let config = SyntheticConfig::small();
        let kernels = synthesize_kernels(&config);
        assert!(!kernels.is_empty(), "CLgen produced no kernels");
        let dataset = build_synthetic_dataset(
            &kernels,
            &Platform::amd(),
            FeatureSet::Grewe,
            &config.dataset_sizes,
        );
        assert!(
            !dataset.is_empty(),
            "no synthetic kernels survived the driver"
        );
        assert!(dataset.examples.iter().all(|e| e.suite == "CLgen"));
    }
}
