//! The Grewe et al. feature set (Table 2 of the paper).
//!
//! The predictive model of Grewe, Wang and O'Boyle (CGO 2013) characterises an
//! OpenCL kernel + dataset pair with four static code features, two dynamic
//! features and four combinations:
//!
//! | raw | kind | meaning |
//! |-----|------|---------|
//! | `comp` | static | number of compute operations |
//! | `mem` | static | number of accesses to global memory |
//! | `localmem` | static | number of accesses to local memory |
//! | `coalesced` | static | number of coalesced memory accesses |
//! | `transfer` | dynamic | size of host↔device data transfers |
//! | `wgsize` | dynamic | number of work items per kernel |
//!
//! Combined: `F1 = transfer/(comp+mem)`, `F2 = coalesced/mem`,
//! `F3 = (localmem/mem)×wgsize`, `F4 = comp/mem`.
//!
//! §8.2 of the CLgen paper extends this with a static branch count and the raw
//! feature values; see [`GreweFeatures::extended_vector`].

use cl_frontend::analysis::StaticCounts;
use cldrive::KernelRun;

/// The four static code features of Table 2a.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StaticFeatures {
    /// Number of compute operations.
    pub comp: f64,
    /// Number of accesses to global memory.
    pub mem: f64,
    /// Number of accesses to local memory.
    pub localmem: f64,
    /// Number of coalesced memory accesses.
    pub coalesced: f64,
    /// Static count of branching operations (the §8.2 extension).
    pub branches: f64,
}

impl StaticFeatures {
    /// Extract static features from frontend static analysis counts.
    pub fn from_counts(counts: &StaticCounts) -> StaticFeatures {
        StaticFeatures {
            comp: counts.compute_ops as f64,
            mem: counts.global_mem_accesses as f64,
            localmem: counts.local_mem_accesses as f64,
            coalesced: counts.coalesced_accesses as f64,
            branches: counts.branches as f64,
        }
    }

    /// The integer-valued static feature tuple used for exact feature-value
    /// matching in Figure 9 (`comp`, `mem`, `localmem`, `coalesced`).
    pub fn match_key(&self) -> (u64, u64, u64, u64) {
        (
            self.comp as u64,
            self.mem as u64,
            self.localmem as u64,
            self.coalesced as u64,
        )
    }

    /// Match key including the branch feature (used for the extended model's
    /// Figure 9 variant).
    pub fn match_key_with_branches(&self) -> (u64, u64, u64, u64, u64) {
        let (a, b, c, d) = self.match_key();
        (a, b, c, d, self.branches as u64)
    }
}

/// The full Grewe et al. feature vector for one (kernel, dataset) pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GreweFeatures {
    /// Static code features.
    pub static_features: StaticFeatures,
    /// Dynamic: bytes transferred between host and device.
    pub transfer: f64,
    /// Dynamic: number of work items.
    pub wgsize: f64,
}

impl GreweFeatures {
    /// Build the feature vector from static counts and a driver record.
    pub fn new(static_counts: &StaticCounts, run: &KernelRun) -> GreweFeatures {
        GreweFeatures {
            static_features: StaticFeatures::from_counts(static_counts),
            transfer: run.workload.transfer_bytes,
            wgsize: run.global_size as f64,
        }
    }

    /// F1: communication-computation ratio `transfer / (comp + mem)`.
    ///
    /// Zero-denominator convention (applies to all of F1..F4): a denominator
    /// of zero is clamped to 1, so the feature degrades to its raw numerator
    /// instead of producing `inf`/`NaN`. A kernel with `comp + mem == 0` thus
    /// has `F1 == transfer`, and a kernel with `mem == 0` has
    /// `F2 == coalesced`, `F3 == localmem × wgsize`, `F4 == comp` — finite,
    /// deterministic values the decision tree can split on.
    pub fn f1(&self) -> f64 {
        self.transfer / (self.static_features.comp + self.static_features.mem).max(1.0)
    }

    /// F2: fraction of coalesced memory accesses `coalesced / mem`.
    ///
    /// `mem == 0` clamps to 1 (see [`GreweFeatures::f1`]); since coalesced
    /// accesses are a subset of global accesses, this yields exactly 0.
    pub fn f2(&self) -> f64 {
        self.static_features.coalesced / self.static_features.mem.max(1.0)
    }

    /// F3: `(localmem / mem) × wgsize`.
    ///
    /// `mem == 0` clamps to 1 (see [`GreweFeatures::f1`]), giving
    /// `localmem × wgsize`.
    pub fn f3(&self) -> f64 {
        (self.static_features.localmem / self.static_features.mem.max(1.0)) * self.wgsize
    }

    /// F4: computation-memory ratio `comp / mem`.
    ///
    /// `mem == 0` clamps to 1 (see [`GreweFeatures::f1`]), giving `comp`.
    pub fn f4(&self) -> f64 {
        self.static_features.comp / self.static_features.mem.max(1.0)
    }

    /// The original Grewe et al. model input: the four combined features only.
    pub fn combined_vector(&self) -> Vec<f64> {
        vec![self.f1(), self.f2(), self.f3(), self.f4()]
    }

    /// The extended model input of §8.2: combined features plus the raw
    /// features plus the branch count.
    pub fn extended_vector(&self) -> Vec<f64> {
        vec![
            self.f1(),
            self.f2(),
            self.f3(),
            self.f4(),
            self.static_features.comp,
            self.static_features.mem,
            self.static_features.localmem,
            self.static_features.coalesced,
            self.transfer,
            self.wgsize,
            self.static_features.branches,
        ]
    }

    /// Names of the extended feature columns, aligned with
    /// [`GreweFeatures::extended_vector`].
    pub fn extended_names() -> Vec<&'static str> {
        vec![
            "F1:transfer/(comp+mem)",
            "F2:coalesced/mem",
            "F3:(localmem/mem)*wgsize",
            "F4:comp/mem",
            "comp",
            "mem",
            "localmem",
            "coalesced",
            "transfer",
            "wgsize",
            "branches",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_frontend::analysis::analyze_function;
    use cl_frontend::parser::parse;
    use cldrive::{DriverOptions, HostDriver, Platform};

    fn features_of(src: &str, size: usize) -> GreweFeatures {
        let parsed = parse(src);
        assert!(parsed.is_ok(), "{}", parsed.diagnostics);
        let kernel = parsed.unit.kernels().next().unwrap().clone();
        let counts = analyze_function(&parsed.unit, &kernel);
        let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
        let compiled = cl_frontend::compile(src, &Default::default());
        let run = driver
            .run_kernel(&parsed.unit, &compiled.kernels[0], size)
            .unwrap();
        GreweFeatures::new(&counts, &run)
    }

    const VECADD: &str =
        "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
        int e = get_global_id(0);
        if (e < d) { c[e] = a[e] + b[e]; }
    }";

    #[test]
    fn static_features_extracted() {
        let f = features_of(VECADD, 1024);
        assert_eq!(f.static_features.mem, 3.0);
        assert_eq!(f.static_features.coalesced, 3.0);
        assert!(f.static_features.comp >= 1.0);
        assert_eq!(f.static_features.branches, 1.0);
    }

    #[test]
    fn combined_features_match_formulas() {
        let f = features_of(VECADD, 1024);
        assert!((f.f2() - 1.0).abs() < 1e-9, "all accesses are coalesced");
        assert!((f.f4() - f.static_features.comp / 3.0).abs() < 1e-9);
        assert_eq!(f.f3(), 0.0, "no local memory");
        assert!(f.f1() > 0.0, "transfers are non-zero");
        assert_eq!(f.combined_vector().len(), 4);
        assert_eq!(f.extended_vector().len(), 11);
        assert_eq!(GreweFeatures::extended_names().len(), 11);
    }

    #[test]
    fn dynamic_features_scale_with_dataset() {
        let small = features_of(VECADD, 256);
        let large = features_of(VECADD, 1 << 20);
        assert!(large.transfer > small.transfer * 1000.0);
        assert!(large.wgsize > small.wgsize * 1000.0);
        // static part identical
        assert_eq!(small.static_features, large.static_features);
    }

    #[test]
    fn local_memory_kernel_has_nonzero_f3() {
        let src = "__kernel void A(__global float* a, __local float* t, const int n) {
            int i = get_local_id(0);
            t[i] = a[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            a[get_global_id(0)] = t[i] * 2.0f;
        }";
        let f = features_of(src, 2048);
        assert!(f.static_features.localmem >= 2.0);
        assert!(f.f3() > 0.0);
    }

    #[test]
    fn zero_mem_denominator_is_clamped_not_nan() {
        // A kernel that never touches global memory: mem == 0 must not poison
        // the combined features with inf/NaN.
        let f = GreweFeatures {
            static_features: StaticFeatures {
                comp: 12.0,
                mem: 0.0,
                localmem: 3.0,
                coalesced: 0.0,
                branches: 1.0,
            },
            transfer: 64.0,
            wgsize: 128.0,
        };
        assert!(f.combined_vector().iter().all(|v| v.is_finite()));
        // The documented convention: denominators clamp to 1.
        assert_eq!(f.f1(), 64.0 / 12.0);
        assert_eq!(f.f2(), 0.0);
        assert_eq!(f.f3(), 3.0 * 128.0);
        assert_eq!(f.f4(), 12.0);
    }

    #[test]
    fn zero_comp_and_mem_denominator_is_clamped_not_nan() {
        // comp + mem == 0: F1's denominator clamps to 1, so F1 == transfer.
        let f = GreweFeatures {
            static_features: StaticFeatures::default(),
            transfer: 256.0,
            wgsize: 64.0,
        };
        assert!(f.combined_vector().iter().all(|v| v.is_finite()));
        assert_eq!(f.f1(), 256.0);
        assert_eq!(f.f2(), 0.0);
        assert_eq!(f.f3(), 0.0);
        assert_eq!(f.f4(), 0.0);
        assert!(f.extended_vector().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn match_keys_distinguish_branchiness() {
        let plain = features_of(VECADD, 256);
        let branchy_src = "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
            int e = get_global_id(0);
            if (e < 4 && e < d) { c[e] = a[e] + b[e]; a[e] = b[e] + 1; }
        }";
        let branchy = features_of(branchy_src, 256);
        // The Listing-2 phenomenon: indistinguishable on the four static
        // features, separated once the branch feature is added.
        assert_ne!(
            plain.static_features.match_key_with_branches(),
            branchy.static_features.match_key_with_branches()
        );
    }
}
