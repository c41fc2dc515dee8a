//! The host driver (Figure 4, "Benchmark Driver").
//!
//! Given an OpenCL kernel and a dataset size, the driver generates a payload,
//! optionally validates the kernel with the dynamic checker, profiles its
//! dynamic behaviour by interpretation, and produces runtime estimates for the
//! CPU and GPU of an experimental platform. The per-(kernel, dataset) records
//! it emits are the raw material of every predictive-modeling experiment in
//! the paper.
//!
//! Driving a kernel at several sizes has little to repeat: the kernel is
//! lowered once ([`HostDriver::prepare`], which also runs the dynamic check —
//! it does not depend on the size), launched once per *distinct* profiling
//! size ([`HostDriver::profile`]; every size above
//! [`DriverOptions::profile_elements_cap`] profiles at the cap), and each
//! size's record is scaled from the counts of its launch
//! ([`HostDriver::record`]). The `clgen-harness` pool is the caller that
//! shares launches; [`HostDriver::run_source`] and
//! [`HostDriver::run_kernel`] are the three steps in order, one launch per
//! size, for tests and examples.

use crate::checker::{check_by, CheckOutcome, CheckerOptions, Launcher};
use crate::device::{DeviceKind, Platform, WorkloadProfile};
use crate::interp::{ExecError, ExecLimits, ExecutionCounts, NDRange};
use crate::payload::{estimated_transfer_bytes, generate_payload, PayloadError, PayloadOptions};
use crate::program::Program;
use cl_frontend::ast::TranslationUnit;
use cl_frontend::sema::KernelSignature;
use cl_frontend::{compile, CompileOptions, Diagnostics};

/// Driver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverOptions {
    /// Work-group size used for launches.
    pub local_size: usize,
    /// Cap on the number of buffer elements allocated while profiling (larger
    /// dataset sizes are extrapolated from per-work-item averages).
    pub profile_elements_cap: usize,
    /// Cap on the number of work items actually interpreted while profiling.
    pub profile_work_item_cap: usize,
    /// Dynamic-checker configuration; `None` skips the check.
    pub checker: Option<CheckerOptions>,
    /// Payload RNG seed.
    pub seed: u64,
    /// Launch-wide interpreter step budget (0 = unbounded) of every launch
    /// the driver makes: each profile launch, and each of the dynamic check's
    /// four. Batched callers (the `clgen-harness` drive pool) set this so a
    /// single hostile kernel cannot consume a worker for
    /// `steps_per_work_item * work_items` steps: driving one kernel at `n`
    /// distinct profiling sizes costs at most `(4 + n)` budgets.
    pub total_step_budget: u64,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            local_size: 64,
            profile_elements_cap: 4096,
            profile_work_item_cap: 512,
            checker: Some(CheckerOptions::default()),
            seed: 0xD21E,
            total_step_budget: 0,
        }
    }
}

impl DriverOptions {
    /// A faster configuration for unit tests (smaller caps, no checker).
    pub fn quick() -> DriverOptions {
        DriverOptions {
            local_size: 32,
            profile_elements_cap: 512,
            profile_work_item_cap: 128,
            checker: None,
            seed: 7,
            total_step_budget: 0,
        }
    }
}

/// Why the driver could not produce a record for a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveError {
    /// The source failed to compile.
    Compile(Diagnostics),
    /// The source contains no kernels.
    NoKernel,
    /// No payload could be generated for the kernel signature.
    Payload(PayloadError),
    /// The dynamic checker rejected the kernel.
    Check(CheckOutcome),
    /// Interpretation failed.
    Exec(ExecError),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Compile(d) => write!(f, "compile error: {}", d),
            DriveError::NoKernel => write!(f, "no kernel in source"),
            DriveError::Payload(e) => write!(f, "payload error: {e}"),
            DriveError::Check(c) => write!(f, "dynamic check failed: {c:?}"),
            DriveError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for DriveError {}

/// The record produced for one (kernel, dataset size) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// Kernel function name.
    pub kernel_name: String,
    /// Dataset (global) size the record is for.
    pub global_size: usize,
    /// Work-group size used.
    pub local_size: usize,
    /// Raw interpreter counts over the profiled sample.
    pub counts: ExecutionCounts,
    /// Derived device-neutral workload profile (scaled to the full NDRange).
    pub workload: WorkloadProfile,
    /// Estimated CPU runtime in seconds.
    pub cpu_time: f64,
    /// Estimated GPU runtime in seconds.
    pub gpu_time: f64,
    /// Name of the platform the estimate is for ("AMD" / "NVIDIA").
    pub platform: String,
}

impl KernelRun {
    /// The device that minimises runtime (the oracle mapping).
    pub fn oracle(&self) -> DeviceKind {
        if self.cpu_time <= self.gpu_time {
            DeviceKind::Cpu
        } else {
            DeviceKind::Gpu
        }
    }

    /// Runtime of the given mapping.
    pub fn time_of(&self, device: DeviceKind) -> f64 {
        match device {
            DeviceKind::Cpu => self.cpu_time,
            DeviceKind::Gpu => self.gpu_time,
        }
    }

    /// Speedup of the oracle mapping over the given mapping (>= 1).
    pub fn slowdown_of(&self, device: DeviceKind) -> f64 {
        self.time_of(device) / self.time_of(self.oracle()).max(1e-12)
    }
}

/// The host driver for one experimental platform.
#[derive(Debug, Clone)]
pub struct HostDriver {
    /// The CPU/GPU pairing runtimes are estimated for.
    pub platform: Platform,
    /// Driver options.
    pub options: DriverOptions,
}

impl HostDriver {
    /// A driver with explicit options.
    pub fn with_options(platform: Platform, options: DriverOptions) -> HostDriver {
        HostDriver { platform, options }
    }

    /// Compile `source` and produce one record per kernel for each global size.
    ///
    /// # Errors
    ///
    /// Returns a [`DriveError`] when compilation fails or no kernel yields a
    /// usable record (individual kernel failures are skipped when at least one
    /// kernel succeeds).
    pub fn run_source(
        &self,
        source: &str,
        global_sizes: &[usize],
    ) -> Result<Vec<KernelRun>, DriveError> {
        let compiled = compile(source, &CompileOptions::default());
        if !compiled.is_ok() {
            return Err(DriveError::Compile(compiled.diagnostics));
        }
        if compiled.kernels.is_empty() {
            return Err(DriveError::NoKernel);
        }
        let mut runs = Vec::new();
        let mut last_error = None;
        for sig in &compiled.kernels {
            let kernel = self.prepare(&compiled.unit, sig);
            for &size in global_sizes {
                match self.run_prepared(&kernel, size) {
                    Ok(run) => runs.push(run),
                    Err(e) => last_error = Some(e),
                }
            }
        }
        if runs.is_empty() {
            Err(last_error.unwrap_or(DriveError::NoKernel))
        } else {
            Ok(runs)
        }
    }

    /// Produce the record for one kernel at one dataset size.
    ///
    /// # Errors
    ///
    /// Returns a [`DriveError`] if payload generation, the dynamic check or
    /// interpretation fails.
    pub fn run_kernel(
        &self,
        unit: &TranslationUnit,
        sig: &KernelSignature,
        global_size: usize,
    ) -> Result<KernelRun, DriveError> {
        self.run_prepared(&self.prepare(unit, sig), global_size)
    }

    /// The three steps for one dataset size.
    pub(crate) fn run_prepared(
        &self,
        kernel: &PreparedKernel,
        global_size: usize,
    ) -> Result<KernelRun, DriveError> {
        if let Some(rejection) = kernel.rejection() {
            return Err(rejection);
        }
        let counts = self
            .profile(kernel, self.profile_size(global_size))
            .result?;
        Ok(self.record(kernel, &counts, global_size))
    }

    /// Step 1, once per kernel: lower it, decide the shape of its launches,
    /// and run the dynamic check (on a small payload) if one is configured.
    /// Never fails: a rejection is part of the result.
    pub fn prepare<'a>(
        &self,
        unit: &TranslationUnit,
        sig: &'a KernelSignature,
    ) -> PreparedKernel<'a> {
        let program = Program::lower(unit, &sig.name);
        let launch =
            move |args, ndrange, limits: &ExecLimits| program.launch(args, ndrange, limits);
        self.prepare_by(unit, sig, Box::new(launch))
    }

    /// [`HostDriver::prepare`] for a kernel launched by `launch` (the lowered
    /// program in production, the reference walker in tests).
    pub(crate) fn prepare_by<'a>(
        &self,
        unit: &TranslationUnit,
        sig: &'a KernelSignature,
        launch: Box<Launcher<'a>>,
    ) -> PreparedKernel<'a> {
        let (rejected, check_steps) = match &self.options.checker {
            Some(checker) => {
                let budget = self.options.total_step_budget;
                let (outcome, steps) = check_by(&*launch, sig, checker, budget);
                ((!outcome.is_useful()).then_some(outcome), steps)
            }
            None => (None, 0),
        };
        PreparedKernel {
            sig,
            two_d: uses_second_dimension(unit, sig),
            launch,
            rejected,
            check_steps,
        }
    }

    /// The payload size a dataset of `global_size` elements is profiled at
    /// (larger dataset sizes are extrapolated from per-work-item averages).
    pub fn profile_size(&self, global_size: usize) -> usize {
        global_size
            .min(self.options.profile_elements_cap)
            .max(self.options.local_size)
    }

    /// Step 2, once per distinct [`HostDriver::profile_size`]: profile the
    /// kernel by interpretation over a payload of that size.
    pub fn profile(&self, kernel: &PreparedKernel, profile_size: usize) -> Profile {
        let payload_options = PayloadOptions {
            global_size: profile_size,
            local_size: self.options.local_size,
            seed: self.options.seed,
        };
        let payload = match generate_payload(kernel.sig, &payload_options) {
            Ok(payload) => payload,
            Err(e) => {
                return Profile {
                    result: Err(DriveError::Payload(e)),
                    steps: 0,
                }
            }
        };
        let ndrange = if kernel.two_d {
            let side = (profile_size as f64).sqrt().ceil() as usize;
            let lside = (self.options.local_size as f64).sqrt().ceil().max(1.0) as usize;
            NDRange::two_d(side.max(1), side.max(1), lside, lside)
        } else {
            NDRange::linear(profile_size, self.options.local_size)
        };
        let limits = ExecLimits {
            steps_per_work_item: 2_000_000,
            max_work_items: self.options.profile_work_item_cap,
            total_steps: self.options.total_step_budget,
        };
        let launched = (kernel.launch)(payload.args, ndrange, &limits);
        Profile {
            result: launched
                .result
                .map(|result| result.counts)
                .map_err(DriveError::Exec),
            steps: launched.steps,
        }
    }

    /// Step 3, once per dataset size: scale the per-work-item averages of a
    /// profile launch to `global_size` and estimate both devices.
    pub fn record(
        &self,
        kernel: &PreparedKernel,
        counts: &ExecutionCounts,
        global_size: usize,
    ) -> KernelRun {
        let sig = kernel.sig;
        let counts = *counts;
        let executed = counts.work_items_executed.max(1) as f64;
        // A 2-D launch over an N-element dataset still touches ~N items.
        let total_items = global_size as f64;
        let elem_bytes = 4.0;
        let (to_device, from_device) = estimated_transfer_bytes(sig, global_size);
        let global_accesses = counts.global_accesses() as f64;
        let workload = WorkloadProfile {
            work_items: total_items,
            compute_ops: (counts.compute_ops as f64 / executed) * total_items,
            global_bytes: (global_accesses * elem_bytes / executed) * total_items,
            local_bytes: (counts.local_accesses as f64 * elem_bytes / executed) * total_items,
            coalesced_fraction: if global_accesses == 0.0 {
                1.0
            } else {
                (counts.coalesced_accesses as f64 / global_accesses).clamp(0.0, 1.0)
            },
            branch_fraction: if counts.instructions == 0 {
                0.0
            } else {
                (counts.branches as f64 / counts.instructions as f64).clamp(0.0, 1.0)
            },
            transfer_bytes: (to_device + from_device) as f64,
        };
        let cpu_time = self.platform.cpu.estimate(&workload).total();
        let gpu_time = self.platform.gpu.estimate(&workload).total();
        KernelRun {
            kernel_name: sig.name.clone(),
            global_size,
            local_size: self.options.local_size,
            counts,
            workload,
            cpu_time,
            gpu_time,
            platform: self.platform.name.clone(),
        }
    }
}

/// A kernel the driver has lowered and (if configured to) checked: what
/// [`HostDriver::prepare`] produces and the other two steps consume.
pub struct PreparedKernel<'a> {
    sig: &'a KernelSignature,
    launch: Box<Launcher<'a>>,
    two_d: bool,
    rejected: Option<CheckOutcome>,
    check_steps: u64,
}

impl PreparedKernel<'_> {
    /// Why the dynamic checker turned the kernel away, if it did: the error
    /// every record of this kernel fails with.
    pub fn rejection(&self) -> Option<DriveError> {
        self.rejected.clone().map(DriveError::Check)
    }

    /// Steps the dynamic check consumed (0 without a checker).
    pub fn check_steps(&self) -> u64 {
        self.check_steps
    }
}

/// The outcome of one profile launch.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The dynamic counts over the profiled sample, or why there are none.
    pub result: Result<ExecutionCounts, DriveError>,
    /// Steps the launch consumed, also when it was cut short.
    pub steps: u64,
}

/// Does the kernel read `get_global_id(1)` / `get_group_id(1)`? If so the
/// driver launches a 2-D NDRange.
fn uses_second_dimension(unit: &TranslationUnit, sig: &KernelSignature) -> bool {
    use cl_frontend::printer::print_function;
    match unit.function(&sig.name) {
        Some(f) => {
            let text = print_function(f);
            text.contains("get_global_id(1)")
                || text.contains("get_group_id(1)")
                || text.contains("get_local_id(1)")
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VECADD: &str =
        "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
        int e = get_global_id(0);
        if (e < d) { c[e] = a[e] + b[e]; }
    }";

    const MATMUL: &str =
        "__kernel void mm(__global float* a, __global float* b, __global float* c, const int w) {
        int row = get_global_id(1);
        int col = get_global_id(0);
        float acc = 0.0f;
        for (int k = 0; k < w; k++) { acc += a[row * w + k] * b[k * w + col]; }
        c[row * w + col] = acc;
    }";

    #[test]
    fn driver_produces_records_for_each_size() {
        let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
        let runs = driver.run_source(VECADD, &[256, 65536]).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].kernel_name, "A");
        assert!(runs[0].cpu_time > 0.0 && runs[0].gpu_time > 0.0);
        assert_eq!(runs[0].platform, "AMD");
    }

    #[test]
    fn streaming_vecadd_is_cpu_bound_and_transfer_dominated_on_gpu() {
        let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
        let runs = driver.run_source(VECADD, &[256, 1 << 22]).unwrap();
        let small = &runs[0];
        let large = &runs[1];
        // A streaming kernel with one flop per element never amortises the
        // PCIe transfer, so the CPU is the oracle at every size — this is the
        // classic case the Grewe et al. model must learn to keep on the CPU.
        assert_eq!(
            small.oracle(),
            DeviceKind::Cpu,
            "tiny vecadd should favour CPU"
        );
        assert_eq!(
            large.oracle(),
            DeviceKind::Cpu,
            "streaming vecadd should stay on the CPU"
        );
        // And the GPU penalty at large sizes is dominated by data transfer.
        assert!(large.workload.transfer_bytes > large.workload.compute_ops);
    }

    #[test]
    fn compute_heavy_matmul_maps_to_gpu_at_scale() {
        let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
        let runs = driver.run_source(MATMUL, &[1 << 20]).unwrap();
        assert_eq!(
            runs[0].oracle(),
            DeviceKind::Gpu,
            "large matmul should favour the GPU"
        );
        assert!(runs[0].slowdown_of(DeviceKind::Cpu) > 1.0);
    }

    #[test]
    fn checker_rejects_constant_kernel() {
        let driver = HostDriver::with_options(
            Platform::nvidia(),
            DriverOptions {
                checker: Some(CheckerOptions {
                    global_size: 64,
                    local_size: 16,
                    ..Default::default()
                }),
                ..DriverOptions::quick()
            },
        );
        let err = driver.run_source("__kernel void A(__global float* a, const int n) { int i = get_global_id(0); if (i < n) { a[i] = 1.0f; } }", &[256]);
        assert!(matches!(
            err,
            Err(DriveError::Check(CheckOutcome::InputInsensitive))
        ));
    }

    #[test]
    fn compile_errors_reported() {
        let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
        let err = driver.run_source("__kernel void A(__global float* a) { a[0] = oops; }", &[64]);
        assert!(matches!(err, Err(DriveError::Compile(_))));
    }

    #[test]
    fn two_dimensional_kernels_profiled() {
        let driver = HostDriver::with_options(Platform::nvidia(), DriverOptions::quick());
        let runs = driver.run_source(MATMUL, &[4096]).unwrap();
        assert!(runs[0].counts.work_items_executed > 0);
        assert!(runs[0].workload.compute_ops > 0.0);
    }

    #[test]
    fn workload_scales_with_global_size() {
        let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
        let runs = driver.run_source(VECADD, &[1024, 1 << 20]).unwrap();
        assert!(runs[1].workload.transfer_bytes > runs[0].workload.transfer_bytes * 100.0);
        assert!(runs[1].workload.compute_ops > runs[0].workload.compute_ops * 100.0);
    }
}
