//! Dataset construction shared by the experiment binaries: every kernel is
//! driven through [`clgen_harness`] (one compile, one lowering and one dynamic
//! check per kernel, one launch per distinct profile size), and a dataset is
//! a fold over its reports.

use cl_frontend::{compile, CompileResult, StaticCounts};
use cldrive::{DriverOptions, KernelRun, Platform};
use clgen::{
    ArgumentSpec, ClgenBuilder, ClgenOptions, SampleOptions, SamplerConfig, SynthesizedKernel,
};
use clgen_harness::{Deadline, Harness, HarnessConfig};
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
        total_step_budget: 0,
    }
}

/// Static features of a compiled source: the *sum* over its kernels
/// (multi-kernel benchmarks contribute the union of their kernels' behaviour,
/// mirroring how the paper treats per-benchmark feature vectors).
fn summed_static_features(compiled: &CompileResult) -> StaticFeatures {
    let mut total = StaticCounts::default();
    for (_, counts) in &compiled.kernel_counts {
        total.merge(counts);
    }
    StaticFeatures::from_counts(&total)
}

/// Compile `source` once, drive it through the harness at every size, and
/// fold the report into one `(size, feature vector, cpu_time, gpu_time)` row
/// per size at which any of its first `kernels` kernels ran: times and
/// transfer are summed over those kernels' runs (a benchmark maps to one
/// device as a whole). No rows for a source that does not compile.
fn drive_rows(
    source: &str,
    sizes: &[usize],
    kernels: usize,
    platform: &Platform,
    driver: &DriverOptions,
    feature_set: FeatureSet,
) -> Vec<(usize, Vec<f64>, f64, f64)> {
    let config = HarnessConfig {
        platform: platform.clone(),
        driver: driver.clone(),
        sizes: sizes.to_vec(),
        feature_set,
    };
    let compiled = compile(source, &Default::default());
    let Ok(report) = Harness::new(config, None).drive_compiled(&compiled, &Deadline::none()) else {
        return Vec::new();
    };
    let static_features = summed_static_features(&compiled);
    let mut rows = Vec::new();
    for (nth, &size) in sizes.iter().enumerate() {
        // Units are kernel-major, size-minor.
        let runs: Vec<&KernelRun> = report.units[nth..]
            .iter()
            .step_by(sizes.len())
            .take(kernels)
            .filter_map(|unit| unit.run.as_ref())
            .collect();
        if runs.is_empty() {
            continue;
        }
        let features = GreweFeatures {
            static_features,
            transfer: runs.iter().map(|run| run.workload.transfer_bytes).sum(),
            wgsize: size as f64,
        };
        rows.push((
            size,
            feature_set.vector(&features),
            runs.iter().map(|run| run.cpu_time).sum(),
            runs.iter().map(|run| run.gpu_time).sum(),
        ));
    }
    rows
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
    let mut dataset = Dataset::new();
    for benchmark in benchmarks {
        for (size, features, cpu_time, gpu_time) in drive_rows(
            &benchmark.source,
            &benchmark.dataset_sizes,
            usize::MAX,
            platform,
            &config.driver,
            config.feature_set,
        ) {
            dataset.push(Example {
                features,
                benchmark: benchmark.name.clone(),
                suite: benchmark.suite.short_name().to_string(),
                id: format!("{}@{}", benchmark.id(), size),
                cpu_time,
                gpu_time,
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
    let mut dataset = Dataset::new();
    for (idx, kernel) in kernels.iter().enumerate() {
        // A synthetic benchmark is the first kernel of its source.
        for (size, features, cpu_time, gpu_time) in drive_rows(
            &kernel.source,
            dataset_sizes,
            1,
            platform,
            &driver_options,
            feature_set,
        ) {
            dataset.push(Example {
                features,
                benchmark: format!("clgen-{idx}"),
                suite: "CLgen".to_string(),
                id: format!("clgen-{idx}@{size}"),
                cpu_time,
                gpu_time,
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
    sources
        .filter_map(|source| {
            let compiled = compile(source, &Default::default());
            (compiled.is_ok() && !compiled.kernels.is_empty())
                .then(|| summed_static_features(&compiled))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_frontend::analysis::analyze_function;
    use cldrive::HostDriver;

    /// One source's `(size, features, cpu, gpu)` rows as the datasets were
    /// assembled before the harness: the first `kernels` kernels driven one
    /// (kernel, size) at a time by `run_kernel`, the static counts from an
    /// analysis pass of their own.
    fn reference_rows(
        driver: &HostDriver,
        source: &str,
        sizes: &[usize],
        kernels: usize,
    ) -> Vec<(usize, GreweFeatures, f64, f64)> {
        let compiled = compile(source, &Default::default());
        if !compiled.is_ok() || compiled.kernels.is_empty() {
            return Vec::new();
        }
        let mut statics = StaticCounts::default();
        for kernel in compiled.unit.kernels() {
            statics.merge(&analyze_function(&compiled.unit, kernel));
        }
        let mut rows = Vec::new();
        for &size in sizes {
            let (mut cpu, mut gpu, mut transfer, mut any) = (0.0f64, 0.0f64, 0.0f64, false);
            for sig in compiled.kernels.iter().take(kernels) {
                let Ok(run) = driver.run_kernel(&compiled.unit, sig, size) else {
                    continue;
                };
                cpu += run.cpu_time;
                gpu += run.gpu_time;
                transfer += run.workload.transfer_bytes;
                any = true;
            }
            if any {
                let features = GreweFeatures {
                    static_features: StaticFeatures::from_counts(&statics),
                    transfer,
                    wgsize: size as f64,
                };
                rows.push((size, features, cpu, gpu));
            }
        }
        rows
    }

    /// `build` at 1 and at 4 workers equals `expected`, bit for bit.
    fn assert_dataset_is(expected: &[Example], build: impl Fn() -> Dataset) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        assert!(!expected.is_empty());
        for workers in [1, 4] {
            let got = rayon::with_num_threads(workers, &build).examples;
            assert_eq!(got.len(), expected.len(), "{workers} workers");
            for (g, e) in got.iter().zip(expected) {
                let what = format!("{} at {workers} workers", e.id);
                assert_eq!(
                    (&g.id, &g.benchmark, &g.suite),
                    (&e.id, &e.benchmark, &e.suite)
                );
                assert_eq!(bits(&g.features), bits(&e.features), "{what}");
                assert_eq!(g.cpu_time.to_bits(), e.cpu_time.to_bits(), "{what}");
                assert_eq!(g.gpu_time.to_bits(), e.gpu_time.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn suite_dataset_matches_the_per_unit_reference_at_1_and_4_workers() {
        // NPB runs five sizes and Parboil two; the cap puts the smaller ones
        // on launches of their own and the rest on one shared launch.
        let config = DatasetConfig {
            feature_set: FeatureSet::Extended,
            driver: DriverOptions {
                profile_elements_cap: 1 << 14,
                profile_work_item_cap: 64,
                ..suite_driver_options()
            },
        };
        let platform = Platform::nvidia();
        let benchmarks: Vec<Benchmark> = suites::suite_benchmarks(suites::Suite::Npb)
            .into_iter()
            .chain(suites::suite_benchmarks(suites::Suite::Parboil))
            .collect();
        let driver = HostDriver::with_options(platform.clone(), config.driver.clone());
        let mut expected = Vec::new();
        for b in &benchmarks {
            for (size, features, cpu_time, gpu_time) in
                reference_rows(&driver, &b.source, &b.dataset_sizes, usize::MAX)
            {
                expected.push(Example {
                    features: config.feature_set.vector(&features),
                    benchmark: b.name.clone(),
                    suite: b.suite.short_name().to_string(),
                    id: format!("{}@{}", b.id(), size),
                    cpu_time,
                    gpu_time,
                });
            }
        }
        assert_dataset_is(&expected, || {
            build_dataset_from_benchmarks(&benchmarks, &platform, &config)
        });
    }

    #[test]
    fn synthetic_dataset_matches_the_per_unit_reference_at_1_and_4_workers() {
        let config = SyntheticConfig::small();
        let kernels = synthesize_kernels(&config);
        let platform = Platform::amd();
        let mut options = suite_driver_options();
        options.checker = Some(cldrive::CheckerOptions {
            global_size: 128,
            local_size: 32,
            ..Default::default()
        });
        let driver = HostDriver::with_options(platform.clone(), options);
        let mut expected = Vec::new();
        for (idx, kernel) in kernels.iter().enumerate() {
            for (size, features, cpu_time, gpu_time) in
                reference_rows(&driver, &kernel.source, &config.dataset_sizes, 1)
            {
                expected.push(Example {
                    features: FeatureSet::Grewe.vector(&features),
                    benchmark: format!("clgen-{idx}"),
                    suite: "CLgen".to_string(),
                    id: format!("clgen-{idx}@{size}"),
                    cpu_time,
                    gpu_time,
                });
            }
        }
        assert_dataset_is(&expected, || {
            build_synthetic_dataset(
                &kernels,
                &platform,
                FeatureSet::Grewe,
                &config.dataset_sizes,
            )
        });
    }

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
