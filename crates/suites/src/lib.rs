//! # suites
//!
//! Synthetic stand-ins for the seven GPGPU benchmark suites used in the
//! paper's evaluation (Table 3): NPB (SNU OpenCL), Rodinia, NVIDIA SDK,
//! AMD SDK, Parboil, PolyBench and SHOC.
//!
//! We cannot redistribute the original suites, so each suite here is a set of
//! hand-written OpenCL kernels in that suite's characteristic style — NPB
//! benchmarks lean heavily on local memory and avoid branching, PolyBench is
//! regular dense loop nests, Rodinia mixes irregular access with branching,
//! SHOC has bandwidth/compute microbenchmarks, and so on. Dataset size classes
//! mirror the paper's setup (five classes for NPB, one to four for Parboil,
//! defaults elsewhere). The *count* of benchmarks is reduced relative to
//! Table 3.

#![warn(missing_docs)]

pub mod kernels;

use std::fmt;

/// The seven benchmark suites of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// NAS Parallel Benchmarks (SNU OpenCL implementation).
    Npb,
    /// Rodinia 3.1.
    Rodinia,
    /// NVIDIA SDK 4.2 samples.
    NvidiaSdk,
    /// AMD APP SDK 3.0 samples.
    AmdSdk,
    /// Parboil 0.2.
    Parboil,
    /// PolyBench/GPU 1.0.
    Polybench,
    /// SHOC 1.1.5.
    Shoc,
}

impl Suite {
    /// All seven suites, in the order used by the paper's tables.
    pub fn all() -> Vec<Suite> {
        vec![
            Suite::AmdSdk,
            Suite::Npb,
            Suite::NvidiaSdk,
            Suite::Parboil,
            Suite::Polybench,
            Suite::Rodinia,
            Suite::Shoc,
        ]
    }

    /// Short display name matching the paper's tables.
    pub fn short_name(&self) -> &'static str {
        match self {
            Suite::Npb => "NPB",
            Suite::Rodinia => "Rodinia",
            Suite::NvidiaSdk => "NVIDIA",
            Suite::AmdSdk => "AMD",
            Suite::Parboil => "Parboil",
            Suite::Polybench => "Polybench",
            Suite::Shoc => "SHOC",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// One benchmark: a kernel source plus the dataset sizes it is run with.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Owning suite.
    pub suite: Suite,
    /// Benchmark name (e.g. `"FT"`, `"hotspot"`).
    pub name: String,
    /// OpenCL source (one or more kernels).
    pub source: String,
    /// Dataset sizes (global sizes / element counts) the benchmark is run at.
    pub dataset_sizes: Vec<usize>,
}

impl Benchmark {
    /// Identifier like `"NPB.FT"`.
    pub fn id(&self) -> String {
        format!("{}.{}", self.suite.short_name(), self.name)
    }
}

/// NPB dataset size classes S, W, A, B, C (element counts). The paper runs all
/// five classes per NPB program.
pub const NPB_CLASSES: &[(&str, usize)] = &[
    ("S", 1 << 12),
    ("W", 1 << 14),
    ("A", 1 << 16),
    ("B", 1 << 18),
    ("C", 1 << 20),
];

/// Default dataset sizes for the non-NPB suites.
pub const DEFAULT_SIZES: &[usize] = &[1 << 16];

/// Parboil ships 1-4 datasets per program; we use two.
pub const PARBOIL_SIZES: &[usize] = &[1 << 14, 1 << 18];

/// All benchmarks of one suite.
pub fn suite_benchmarks(suite: Suite) -> Vec<Benchmark> {
    match suite {
        Suite::Npb => kernels::npb(),
        Suite::Rodinia => kernels::rodinia(),
        Suite::NvidiaSdk => kernels::nvidia_sdk(),
        Suite::AmdSdk => kernels::amd_sdk(),
        Suite::Parboil => kernels::parboil(),
        Suite::Polybench => kernels::polybench(),
        Suite::Shoc => kernels::shoc(),
    }
}

/// Every benchmark of every suite.
pub fn all_benchmarks() -> Vec<Benchmark> {
    Suite::all()
        .into_iter()
        .flat_map(suite_benchmarks)
        .collect()
}

/// Summary row for Table 3: (suite, number of benchmarks, number of kernels).
pub fn inventory() -> Vec<(Suite, usize, usize)> {
    Suite::all()
        .into_iter()
        .map(|suite| {
            let benchmarks = suite_benchmarks(suite);
            let kernels: usize = benchmarks
                .iter()
                .map(|b| {
                    cl_frontend::compile(&b.source, &Default::default())
                        .kernels
                        .len()
                })
                .sum();
            (suite, benchmarks.len(), kernels)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_frontend::{compile, CompileOptions};

    #[test]
    fn every_benchmark_compiles_cleanly() {
        for b in all_benchmarks() {
            let r = compile(&b.source, &CompileOptions::default());
            assert!(
                r.is_ok(),
                "{} failed to compile:\n{}",
                b.id(),
                r.diagnostics
            );
            assert!(!r.kernels.is_empty(), "{} has no kernels", b.id());
            assert!(r.max_kernel_instructions() >= 3, "{} is trivial", b.id());
        }
    }

    #[test]
    fn suite_composition_matches_paper_structure() {
        let npb = suite_benchmarks(Suite::Npb);
        assert_eq!(npb.len(), 7, "NPB has 7 programs");
        for b in &npb {
            assert_eq!(
                b.dataset_sizes.len(),
                5,
                "NPB programs have 5 dataset classes"
            );
        }
        for b in suite_benchmarks(Suite::Parboil) {
            assert_eq!(b.dataset_sizes.len(), PARBOIL_SIZES.len());
        }
        assert_eq!(Suite::all().len(), 7);
        let total: usize = Suite::all()
            .iter()
            .map(|s| suite_benchmarks(*s).len())
            .sum();
        assert!(
            total >= 40,
            "expected a substantial benchmark population, got {total}"
        );
    }

    #[test]
    fn npb_kernels_use_local_memory_heavily() {
        // §8.2 attributes the F3 sparsity to NPB's heavy local-memory use; our
        // stand-in suite must reproduce that idiom.
        let npb = suite_benchmarks(Suite::Npb);
        let with_local = npb.iter().filter(|b| b.source.contains("__local")).count();
        assert!(
            with_local * 2 > npb.len(),
            "most NPB programs should use local memory"
        );
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<String> = all_benchmarks().iter().map(Benchmark::id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(before, ids.len());
    }

    #[test]
    fn inventory_counts_kernels() {
        let inv = inventory();
        assert_eq!(inv.len(), 7);
        let total_kernels: usize = inv.iter().map(|(_, _, k)| k).sum();
        let total_benchmarks: usize = inv.iter().map(|(_, b, _)| b).sum();
        assert!(total_kernels >= total_benchmarks);
    }
}
