//! # clgen-harness
//!
//! The batched drive-and-predict pipeline that closes the paper's loop:
//! accepted kernels go in, `KernelRun` records, Grewe feature vectors and
//! CPU/GPU mapping predictions come out. This is the one composition of
//! `cldrive`, `grewe-features` and `predictive`: `clgen-serve` exposes it as
//! `POST /drive`, `POST /features` and `POST /pipeline`, and the experiment
//! binaries fold their datasets from its reports.
//!
//! # Work units and isolation
//!
//! A kernel source is compiled **once**; every (kernel function × payload
//! size) pair is a work unit with a result of its own. Units are independent
//! in *outcome* — each is what driving that kernel at that size alone would
//! produce — but not in *work*: a kernel is lowered and dynamically checked
//! once, whatever the number of sizes, and sizes that profile at the same
//! payload (everything above the driver's `profile_elements_cap`) share one
//! launch. The rayon pool fans out what is left: the kernels' preparation,
//! then the distinct launches ([`cldrive::HostDriver::prepare`] /
//! [`cldrive::HostDriver::profile`]). Shared work is charged — in
//! [`UnitResult::run_us`] and [`UnitResult::steps`] — once, to the first unit
//! in unit order that uses it, so the units of a report add up to the time
//! and the steps the report cost.
//!
//! Every launch runs under a bounded [`cldrive::ExecLimits`] budget (see
//! [`DriverOptions::total_step_budget`]) and every piece of work inside
//! `catch_unwind`, so a hostile kernel that panics the interpreter or burns
//! its budget becomes a typed [`UnitError`] on the units that needed that
//! work — the other kernels' units, the worker pool and the caller are
//! unaffected.
//!
//! # Determinism
//!
//! For a fixed (source, sizes, seed) the report — and its NDJSON rendering —
//! is **byte-identical at any worker count**. Every piece of work is a pure
//! function of its inputs and the fan-out preserves input order, mirroring
//! the thread-invariance guarantee of the numeric core. The only intentional
//! exception is an expired [`Deadline`], which cuts the units whose launch
//! (or whose kernel's preparation) has not started.
//!
//! ```
//! use clgen_harness::{Harness, HarnessConfig};
//!
//! let harness = Harness::new(HarnessConfig::quick(), None);
//! let report = harness
//!     .drive_source(
//!         "__kernel void A(__global float* a, const int n) {
//!              int i = get_global_id(0);
//!              if (i < n) { a[i] = a[i] * 2.0f; }
//!          }",
//!         &clgen_harness::Deadline::none(),
//!     )
//!     .unwrap();
//! assert_eq!(report.units.len(), harness.config().sizes.len());
//! assert!(report.counters().units_ok > 0);
//! ```

#![warn(missing_docs)]

use cl_frontend::{compile, CompileOptions, CompileResult, StaticCounts};
use cldrive::{
    DriveError, DriverOptions, ExecError, HostDriver, KernelRun, Platform, PreparedKernel, Profile,
};
use clgen_obs::escaped;
use grewe_features::{FeatureSet, GreweFeatures};
use predictive::{MappingModel, CLASS_CPU};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Default launch-wide interpreter step budget per work unit.
pub const DEFAULT_UNIT_STEP_BUDGET: u64 = 16_000_000;

/// Default payload sizes driven per kernel when the caller does not specify
/// any (small / medium / large, exercising both sides of the CPU–GPU divide).
pub const DEFAULT_SIZES: &[usize] = &[256, 4096, 65536];

/// An optional wall-clock cutoff shared by every unit of a drive call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: units always run to completion (fully deterministic).
    pub fn none() -> Deadline {
        Deadline { at: None }
    }

    /// Cut off units whose launch has not *started* by `at`.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at) }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// Harness configuration: which platform to estimate for, how to drive, which
/// payload sizes to fan out, and which feature representation to extract.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// The CPU/GPU pairing runtimes are estimated for.
    pub platform: Platform,
    /// Driver options (seed, profiling caps, per-unit step budget).
    pub driver: DriverOptions,
    /// Payload (global) sizes driven for every kernel function.
    pub sizes: Vec<usize>,
    /// Feature representation extracted per successful unit.
    pub feature_set: FeatureSet,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            platform: Platform::amd(),
            driver: DriverOptions {
                total_step_budget: DEFAULT_UNIT_STEP_BUDGET,
                ..DriverOptions::default()
            },
            sizes: DEFAULT_SIZES.to_vec(),
            feature_set: FeatureSet::Grewe,
        }
    }
}

impl HarnessConfig {
    /// A fast configuration for tests and smoke runs (no checker, small
    /// profiling caps).
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            platform: Platform::amd(),
            driver: DriverOptions {
                total_step_budget: DEFAULT_UNIT_STEP_BUDGET,
                ..DriverOptions::quick()
            },
            sizes: DEFAULT_SIZES.to_vec(),
            feature_set: FeatureSet::Grewe,
        }
    }
}

/// Why the whole drive call (not an individual unit) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// The source failed to compile; the payload is the diagnostic text.
    Compile(String),
    /// The source compiled but contains no kernel functions.
    NoKernel,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Compile(d) => write!(f, "compile error: {d}"),
            HarnessError::NoKernel => write!(f, "no kernel in source"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Why one work unit produced no record.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitError {
    /// The unit exceeded an execution budget (step or resource limit) — the
    /// typed outcome the bounded `ExecLimits` abort hooks to.
    BudgetExceeded(String),
    /// The interpreter panicked; the panic was contained to this unit.
    Panicked,
    /// The shared deadline expired before the unit started.
    DeadlineExceeded,
    /// Any other typed driver failure (payload, checker, exec).
    Drive(String),
}

/// The `outcome` label values of `clgen_harness_units_total`, in the order
/// every rendering lists them. A unit ends in exactly one, so the five
/// series partition the units driven.
pub const UNIT_OUTCOMES: [&str; 5] = ["ok", "budget_killed", "panicked", "deadline", "drive_error"];

impl UnitError {
    /// Short machine-readable kind tag used in NDJSON lines.
    pub fn kind(&self) -> &'static str {
        match self {
            UnitError::BudgetExceeded(_) => "budget_exceeded",
            UnitError::Panicked => "panicked",
            UnitError::DeadlineExceeded => "deadline_exceeded",
            UnitError::Drive(_) => "drive_error",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> String {
        match self {
            UnitError::BudgetExceeded(d) | UnitError::Drive(d) => d.clone(),
            UnitError::Panicked => "interpreter panicked".into(),
            UnitError::DeadlineExceeded => "deadline expired before unit started".into(),
        }
    }
}

impl std::fmt::Display for UnitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

/// The complete result for one (kernel function, payload size) work unit.
///
/// The `*_us` wall-clock fields are observability metadata: they feed trace
/// spans, metrics and benchmark stage breakdowns, but are deliberately
/// excluded from the NDJSON rendering so reports stay byte-identical across
/// runs and worker counts.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// Kernel function name.
    pub kernel: String,
    /// Payload (global) size driven.
    pub global_size: usize,
    /// The driver record, if the unit succeeded.
    pub run: Option<KernelRun>,
    /// The extracted feature vector, if the unit succeeded.
    pub features: Option<Vec<f64>>,
    /// The predicted mapping class, if a model was attached.
    pub prediction: Option<usize>,
    /// The typed error, if the unit failed.
    pub error: Option<UnitError>,
    /// Wall-clock of the drive (interpreter) phase charged to this unit,
    /// microseconds: its launch and its kernel's preparation, unless an
    /// earlier unit shared and paid for them.
    pub run_us: u64,
    /// Interpreter steps charged to this unit, dynamic check included, on the
    /// same rule as `run_us`. A killed launch counts the steps it reached.
    pub steps: u64,
    /// Wall-clock of feature extraction, microseconds.
    pub features_us: u64,
    /// Wall-clock of mapping inference, microseconds.
    pub predict_us: u64,
}

impl UnitResult {
    /// A unit nothing is known about yet.
    fn new(kernel: &str, global_size: usize) -> UnitResult {
        UnitResult {
            kernel: kernel.to_string(),
            global_size,
            run: None,
            features: None,
            prediction: None,
            error: None,
            run_us: 0,
            steps: 0,
            features_us: 0,
            predict_us: 0,
        }
    }
}

/// Aggregate counters over one drive call. The five unit outcomes partition
/// `units_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarnessCounters {
    /// Sources that compiled and entered the drive pool.
    pub kernels_driven: u64,
    /// Work units attempted.
    pub units_total: u64,
    /// Units that produced a record.
    pub units_ok: u64,
    /// Units cut off by a step/resource budget.
    pub units_budget_killed: u64,
    /// Units whose interpreter panicked (contained).
    pub units_panicked: u64,
    /// Units cut by the shared deadline before their work started.
    pub units_deadline: u64,
    /// Units that failed with any other typed driver error (payload,
    /// dynamic check, execution).
    pub units_drive_error: u64,
    /// Mapping predictions produced.
    pub predictions: u64,
}

/// The report for one driven source.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// One result per work unit, in deterministic (kernel-major, size-minor)
    /// order — independent of worker count.
    pub units: Vec<UnitResult>,
}

impl HarnessReport {
    /// Total wall-clock per pipeline stage across all units, microseconds:
    /// `(drive, features, predict)`. Feeds the serving traces and the
    /// ledger's `harness.*_us` metrics.
    pub fn stage_timing_us(&self) -> (u64, u64, u64) {
        self.units.iter().fold((0, 0, 0), |(r, f, p), u| {
            (r + u.run_us, f + u.features_us, p + u.predict_us)
        })
    }

    /// Derive aggregate counters for this report.
    pub fn counters(&self) -> HarnessCounters {
        let mut c = HarnessCounters {
            kernels_driven: 1,
            units_total: self.units.len() as u64,
            ..HarnessCounters::default()
        };
        for u in &self.units {
            if u.prediction.is_some() {
                c.predictions += 1;
            }
            match u.error {
                None => c.units_ok += 1,
                Some(UnitError::BudgetExceeded(_)) => c.units_budget_killed += 1,
                Some(UnitError::Panicked) => c.units_panicked += 1,
                Some(UnitError::DeadlineExceeded) => c.units_deadline += 1,
                Some(UnitError::Drive(_)) => c.units_drive_error += 1,
            }
        }
        c
    }

    /// Render the report as NDJSON lines, stage by stage: every `run` event,
    /// then every `features` event, then every `prediction` event (unit
    /// errors appear in the run stage). The rendering is byte-deterministic
    /// for a fixed report.
    pub fn ndjson(&self) -> Vec<String> {
        let mut lines = self.ndjson_runs();
        lines.extend(self.ndjson_features());
        lines.extend(self.ndjson_predictions());
        lines
    }

    /// The `run` stage lines only (plus `unit_error` lines for failed units).
    pub fn ndjson_runs(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for u in &self.units {
            lines.push(match (&u.run, &u.error) {
                (Some(run), _) => format!(
                    "{{\"event\":\"run\",\"kernel\":{},\"global_size\":{},\
                     \"cpu_time\":{},\"gpu_time\":{},\"oracle\":\"{}\"}}",
                    escaped(&u.kernel),
                    u.global_size,
                    json_f64(run.cpu_time),
                    json_f64(run.gpu_time),
                    device_name(run.cpu_time <= run.gpu_time),
                ),
                (None, Some(e)) => format!(
                    "{{\"event\":\"unit_error\",\"kernel\":{},\"global_size\":{},\
                     \"error\":\"{}\",\"detail\":{}}}",
                    escaped(&u.kernel),
                    u.global_size,
                    e.kind(),
                    escaped(&e.detail()),
                ),
                (None, None) => unreachable!("unit has neither run nor error"),
            });
        }
        lines
    }

    /// The `features` stage lines only (successful units with extracted
    /// vectors).
    pub fn ndjson_features(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for u in &self.units {
            if let Some(features) = &u.features {
                let mut vec = String::new();
                for (i, v) in features.iter().enumerate() {
                    if i > 0 {
                        vec.push(',');
                    }
                    vec.push_str(&json_f64(*v));
                }
                lines.push(format!(
                    "{{\"event\":\"features\",\"kernel\":{},\"global_size\":{},\"features\":[{vec}]}}",
                    escaped(&u.kernel),
                    u.global_size,
                ));
            }
        }
        lines
    }

    /// The `prediction` stage lines only (units a mapping model classified).
    pub fn ndjson_predictions(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for u in &self.units {
            if let Some(class) = u.prediction {
                lines.push(format!(
                    "{{\"event\":\"prediction\",\"kernel\":{},\"global_size\":{},\
                     \"class\":\"{}\"}}",
                    escaped(&u.kernel),
                    u.global_size,
                    device_name(class == CLASS_CPU),
                ));
            }
        }
        lines
    }
}

/// The batched drive-and-predict pipeline.
#[derive(Debug, Clone)]
pub struct Harness {
    config: HarnessConfig,
    model: Option<Arc<MappingModel>>,
    metrics: Option<Arc<clgen_obs::Registry>>,
}

impl Harness {
    /// Build a harness; attach a trained mapping model to get predictions.
    pub fn new(config: HarnessConfig, model: Option<Arc<MappingModel>>) -> Harness {
        Harness {
            config,
            model,
            metrics: None,
        }
    }

    /// Report unit outcomes, per-unit run time, kernels driven and
    /// predictions into `registry` (the `clgen_harness_*` families). Without
    /// a registry the harness records nothing — drives are unobserved, not
    /// slower.
    pub fn with_metrics(mut self, registry: Arc<clgen_obs::Registry>) -> Harness {
        self.metrics = Some(registry);
        self
    }

    /// The configuration this harness drives with.
    pub fn config(&self) -> &HarnessConfig {
        &self.config
    }

    /// Is a mapping model attached?
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }

    /// Compile `source` once and drive every (kernel, size) unit across the
    /// worker pool. Per-unit failures are typed results inside the report;
    /// only compile failures fail the call as a whole.
    ///
    /// # Errors
    ///
    /// Returns a [`HarnessError`] when the source does not compile or holds
    /// no kernels.
    pub fn drive_source(
        &self,
        source: &str,
        deadline: &Deadline,
    ) -> Result<HarnessReport, HarnessError> {
        self.drive_compiled(&compile(source, &CompileOptions::default()), deadline)
    }

    /// Serial reference implementation: identical results to
    /// [`Harness::drive_source`], but the work runs piece after piece on the
    /// calling thread. This is the baseline the ledger's
    /// `harness.pool_speedup` compares the batched pool against.
    ///
    /// # Errors
    ///
    /// Same as [`Harness::drive_source`].
    pub fn drive_source_serial(
        &self,
        source: &str,
        deadline: &Deadline,
    ) -> Result<HarnessReport, HarnessError> {
        let compiled = compile(source, &CompileOptions::default());
        self.drive(&compiled, deadline, false)
    }

    /// [`Harness::drive_source`] for a source the caller has already
    /// compiled (and may want more from: the experiment datasets sum
    /// [`CompileResult::kernel_counts`] over a benchmark's kernels).
    ///
    /// # Errors
    ///
    /// Same as [`Harness::drive_source`].
    pub fn drive_compiled(
        &self,
        compiled: &CompileResult,
        deadline: &Deadline,
    ) -> Result<HarnessReport, HarnessError> {
        self.drive(compiled, deadline, true)
    }

    fn drive(
        &self,
        compiled: &CompileResult,
        deadline: &Deadline,
        parallel: bool,
    ) -> Result<HarnessReport, HarnessError> {
        if !compiled.is_ok() {
            return Err(HarnessError::Compile(compiled.diagnostics.to_string()));
        }
        if compiled.kernels.is_empty() {
            return Err(HarnessError::NoKernel);
        }
        let unit = &compiled.unit;
        let kernels = &compiled.kernels;
        let driver =
            HostDriver::with_options(self.config.platform.clone(), self.config.driver.clone());
        // Once per kernel: lower it and run the dynamic check.
        let prepared: Vec<Shared<PreparedKernel>> =
            fan_out(parallel, (0..kernels.len()).collect(), |k| {
                Shared::run(deadline, || driver.prepare(unit, &kernels[k]))
            });
        // Once per kernel and distinct profiling size: the profile launch.
        let mut launches: Vec<(usize, usize)> = Vec::new();
        for (k, kernel) in prepared.iter().enumerate() {
            if kernel
                .outcome()
                .is_ok_and(|kernel| kernel.rejection().is_none())
            {
                for &size in &self.config.sizes {
                    let launch = (k, driver.profile_size(size));
                    if !launches.contains(&launch) {
                        launches.push(launch);
                    }
                }
            }
        }
        let profiles: Vec<Shared<Profile>> = fan_out(parallel, launches.clone(), |(k, size)| {
            let kernel = prepared[k].outcome().expect("only prepared kernels launch");
            Shared::run(deadline, || driver.profile(kernel, size))
        });
        // Every unit, in order, from the work it shares.
        let mut charged = vec![false; launches.len()];
        let mut units = Vec::with_capacity(kernels.len() * self.config.sizes.len());
        for (k, sig) in kernels.iter().enumerate() {
            // Static counts once per kernel function (shared by all its
            // sizes): the ones `compile` already took.
            let statics = compiled
                .kernel_counts
                .iter()
                .find(|(name, _)| *name == sig.name)
                .map(|(_, counts)| counts);
            for (nth, &size) in self.config.sizes.iter().enumerate() {
                let mut unit = UnitResult::new(&sig.name, size);
                if nth == 0 {
                    unit.run_us += prepared[k].us();
                    unit.steps += prepared[k].outcome().map_or(0, PreparedKernel::check_steps);
                }
                let outcome = prepared[k].outcome().and_then(|kernel| {
                    if let Some(rejection) = kernel.rejection() {
                        return Err(classify_drive_error(rejection));
                    }
                    let launch = (k, driver.profile_size(size));
                    let at = launches
                        .iter()
                        .position(|l| *l == launch)
                        .expect("every size of a prepared kernel has a launch");
                    if !std::mem::replace(&mut charged[at], true) {
                        unit.run_us += profiles[at].us();
                        unit.steps += profiles[at].outcome().map_or(0, |p| p.steps);
                    }
                    let counts = profiles[at]
                        .outcome()?
                        .result
                        .as_ref()
                        .map_err(|e| classify_drive_error(e.clone()))?;
                    Ok(driver.record(kernel, counts, size))
                });
                match outcome {
                    Ok(run) => self.finish_unit(&mut unit, run, statics),
                    Err(e) => unit.error = Some(e),
                }
                self.record_unit(&unit);
                units.push(unit);
            }
        }
        if let Some(registry) = &self.metrics {
            registry
                .counter(
                    "clgen_harness_kernels_driven_total",
                    &[],
                    "Kernels driven through the harness",
                )
                .inc();
        }
        Ok(HarnessReport { units })
    }

    /// Featurize (and, with a model, classify) a unit that produced a record.
    fn finish_unit(&self, unit: &mut UnitResult, run: KernelRun, statics: Option<&StaticCounts>) {
        if let Some(counts) = statics {
            let features_started = Instant::now();
            let vector = self
                .config
                .feature_set
                .vector(&GreweFeatures::new(counts, &run));
            unit.features_us = features_started.elapsed().as_micros() as u64;
            if let Some(model) = &self.model {
                let predict_started = Instant::now();
                unit.prediction = Some(model.predict_vector(&vector));
                unit.predict_us = predict_started.elapsed().as_micros() as u64;
            }
            unit.features = Some(vector);
        }
        unit.run = Some(run);
    }

    /// Report one unit's outcome and run time into the attached registry
    /// (atomics only — safe from any rayon worker).
    fn record_unit(&self, result: &UnitResult) {
        let Some(registry) = &self.metrics else {
            return;
        };
        // One of `UNIT_OUTCOMES`.
        let outcome = match &result.error {
            None => "ok",
            Some(UnitError::BudgetExceeded(_)) => "budget_killed",
            Some(UnitError::Panicked) => "panicked",
            Some(UnitError::DeadlineExceeded) => "deadline",
            Some(UnitError::Drive(_)) => "drive_error",
        };
        registry
            .counter(
                "clgen_harness_units_total",
                &[("outcome", outcome)],
                "Harness work units by outcome",
            )
            .inc();
        registry
            .histogram(
                "clgen_harness_unit_run_us",
                &[],
                "Per-unit drive wall-clock in microseconds",
            )
            .observe(result.run_us);
        registry
            .histogram(
                "clgen_harness_unit_steps",
                &[],
                "Per-unit interpreter steps, dynamic check included",
            )
            .observe(result.steps);
        if result.prediction.is_some() {
            registry
                .counter(
                    "clgen_harness_predictions_total",
                    &[],
                    "CPU/GPU mapping predictions produced",
                )
                .inc();
        }
    }
}

/// A piece of driving work several units may share (a kernel's preparation,
/// a profile launch): how it ended and what it cost.
enum Shared<T> {
    /// The deadline expired before it started.
    Cut,
    /// It panicked; the panic was contained.
    Panicked { us: u64 },
    /// It ran.
    Done { value: T, us: u64 },
}

impl<T> Shared<T> {
    /// Run `work` unless the deadline has passed. The vendored rayon pool
    /// treats a worker panic as fatal, so the `catch_unwind` MUST live inside
    /// the closure the pool runs: a hostile kernel takes down its own units,
    /// never the pool.
    fn run(deadline: &Deadline, work: impl FnOnce() -> T) -> Shared<T> {
        if deadline.expired() {
            return Shared::Cut;
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(work));
        let us = started.elapsed().as_micros() as u64;
        match outcome {
            Ok(value) => Shared::Done { value, us },
            Err(_) => Shared::Panicked { us },
        }
    }

    /// What the work produced, or the error of every unit that needed it.
    fn outcome(&self) -> Result<&T, UnitError> {
        match self {
            Shared::Cut => Err(UnitError::DeadlineExceeded),
            Shared::Panicked { .. } => Err(UnitError::Panicked),
            Shared::Done { value, .. } => Ok(value),
        }
    }

    fn us(&self) -> u64 {
        match self {
            Shared::Cut => 0,
            Shared::Panicked { us } | Shared::Done { us, .. } => *us,
        }
    }
}

/// Map `f` over `items` in order, on the worker pool or on this thread.
fn fan_out<T: Send, R: Send>(parallel: bool, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Map a typed driver failure onto the unit-error taxonomy.
fn classify_drive_error(e: DriveError) -> UnitError {
    match &e {
        DriveError::Exec(
            ExecError::StepLimitExceeded
            | ExecError::TotalStepLimitExceeded
            | ExecError::ResourceLimitExceeded(_),
        ) => UnitError::BudgetExceeded(e.to_string()),
        _ => UnitError::Drive(e.to_string()),
    }
}

fn device_name(is_cpu: bool) -> &'static str {
    if is_cpu {
        "cpu"
    } else {
        "gpu"
    }
}

/// Render an `f64` as a JSON value: `{}` Display (shortest round-trip, fully
/// deterministic) for finite values, `null` otherwise.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Rust renders whole floats without a fraction ("3"); keep JSON
        // number-typed but unambiguous by leaving them as-is (still valid).
        s
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_frontend::analysis::analyze_function;
    use predictive::{Dataset, Example};

    const VECADD: &str =
        "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
        int e = get_global_id(0);
        if (e < d) { c[e] = a[e] + b[e]; }
    }";

    const TWO_KERNELS: &str = "__kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        if (i < n) { a[i] = a[i] * 2.0f; }
    }
    __kernel void B(__global float* a, __global float* b, const int n) {
        int i = get_global_id(0);
        if (i < n) { b[i] = a[i] + 1.0f; }
    }";

    fn assert_outcomes_partition(c: &HarnessCounters) {
        let outcomes = c.units_ok
            + c.units_budget_killed
            + c.units_panicked
            + c.units_deadline
            + c.units_drive_error;
        assert_eq!(c.units_total, outcomes, "{c:?}");
    }

    fn toy_model() -> Arc<MappingModel> {
        let mut d = Dataset::new();
        for i in 0..16 {
            let f1 = (i + 1) as f64 * 100.0;
            let gpu_better = f1 > 800.0;
            d.push(Example {
                features: vec![f1, 0.0, 0.0, 1.0],
                benchmark: format!("b{}", i / 2),
                suite: "S".into(),
                id: format!("b{i}"),
                cpu_time: if gpu_better { 10.0 } else { 1.0 },
                gpu_time: if gpu_better { 1.0 } else { 10.0 },
            });
        }
        Arc::new(MappingModel::train(&d))
    }

    #[test]
    fn drives_every_kernel_size_pair_in_order() {
        let harness = Harness::new(HarnessConfig::quick(), None);
        let report = harness
            .drive_source(TWO_KERNELS, &Deadline::none())
            .unwrap();
        let expected: Vec<(String, usize)> = ["A", "B"]
            .iter()
            .flat_map(|k| DEFAULT_SIZES.iter().map(|&s| (k.to_string(), s)))
            .collect();
        let got: Vec<(String, usize)> = report
            .units
            .iter()
            .map(|u| (u.kernel.clone(), u.global_size))
            .collect();
        assert_eq!(got, expected);
        assert!(report.units.iter().all(|u| u.run.is_some()));
        assert_eq!(report.counters().units_ok, 6);
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let harness = Harness::new(HarnessConfig::quick(), Some(toy_model()));
        let parallel = harness
            .drive_source(TWO_KERNELS, &Deadline::none())
            .unwrap();
        let serial = harness
            .drive_source_serial(TWO_KERNELS, &Deadline::none())
            .unwrap();
        assert_eq!(parallel.ndjson(), serial.ndjson());
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let harness = Harness::new(HarnessConfig::quick(), Some(toy_model()));
        let baseline =
            rayon::with_num_threads(1, || harness.drive_source(TWO_KERNELS, &Deadline::none()))
                .unwrap()
                .ndjson();
        for workers in [2, 4, 8] {
            let got = rayon::with_num_threads(workers, || {
                harness.drive_source(TWO_KERNELS, &Deadline::none())
            })
            .unwrap()
            .ndjson();
            assert_eq!(got, baseline, "divergence at {workers} workers");
        }
    }

    #[test]
    fn predictions_rendered_when_model_attached() {
        let harness = Harness::new(HarnessConfig::quick(), Some(toy_model()));
        let report = harness.drive_source(VECADD, &Deadline::none()).unwrap();
        assert!(report.units.iter().all(|u| u.prediction.is_some()));
        let lines = report.ndjson();
        assert!(lines.iter().any(|l| l.contains("\"event\":\"prediction\"")));
        assert!(lines.iter().any(|l| l.contains("\"event\":\"features\"")));
        assert_eq!(report.counters().predictions, 3);
    }

    #[test]
    fn compile_failure_is_a_call_error() {
        let harness = Harness::new(HarnessConfig::quick(), None);
        assert!(matches!(
            harness.drive_source(
                "__kernel void A(__global float* a) { a[0] = oops; }",
                &Deadline::none()
            ),
            Err(HarnessError::Compile(_))
        ));
        assert!(matches!(
            harness.drive_source("int helper(int x) { return x; }", &Deadline::none()),
            Err(HarnessError::NoKernel)
        ));
    }

    #[test]
    fn budget_kill_is_a_typed_unit_error() {
        let mut config = HarnessConfig::quick();
        config.driver.total_step_budget = 1_000;
        let harness = Harness::new(config, None);
        let hog = "__kernel void A(__global float* a, const int n) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int r = 0; r < 100000; r++) { acc += a[i % 16] * 0.5f; }
            a[i % 16] = acc;
        }";
        let report = harness.drive_source(hog, &Deadline::none()).unwrap();
        assert!(report
            .units
            .iter()
            .all(|u| matches!(u.error, Some(UnitError::BudgetExceeded(_)))));
        let counters = report.counters();
        assert_eq!(counters.units_budget_killed, counters.units_total);
        assert!(report
            .ndjson()
            .iter()
            .any(|l| l.contains("\"error\":\"budget_exceeded\"")));
    }

    #[test]
    fn expired_deadline_yields_typed_errors_not_hangs() {
        let harness = Harness::new(HarnessConfig::quick(), None);
        let past = Deadline::at(Instant::now() - std::time::Duration::from_secs(1));
        let report = harness.drive_source(VECADD, &past).unwrap();
        assert!(report
            .units
            .iter()
            .all(|u| matches!(u.error, Some(UnitError::DeadlineExceeded))));
        let counters = report.counters();
        assert_eq!(counters.units_deadline, counters.units_total);
        assert_outcomes_partition(&counters);
    }

    #[test]
    fn ndjson_lines_are_valid_shape() {
        let harness = Harness::new(HarnessConfig::quick(), Some(toy_model()));
        let report = harness.drive_source(VECADD, &Deadline::none()).unwrap();
        for line in report.ndjson() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
        }
    }

    /// The report as it was before any work was shared, and by the reference
    /// executor: every unit driven on its own — check, profile, scale — each
    /// launch made by the tree-walker.
    fn reference_report(harness: &Harness, source: &str) -> HarnessReport {
        let compiled = compile(source, &CompileOptions::default());
        assert!(compiled.is_ok(), "{}", compiled.diagnostics);
        let config = harness.config();
        let driver = HostDriver::with_options(config.platform.clone(), config.driver.clone());
        let mut units = Vec::new();
        for sig in &compiled.kernels {
            let statics = compiled
                .unit
                .function(&sig.name)
                .map(|f| analyze_function(&compiled.unit, f));
            for &size in &config.sizes {
                let mut unit = UnitResult::new(&sig.name, size);
                match cldrive::reference::drive_kernel(&driver, &compiled.unit, sig, size) {
                    Ok(run) => harness.finish_unit(&mut unit, run, statics.as_ref()),
                    Err(e) => unit.error = Some(classify_drive_error(e)),
                }
                units.push(unit);
            }
        }
        HarnessReport { units }
    }

    #[test]
    fn every_suite_source_matches_the_reference_report_at_1_and_4_workers() {
        // The configuration `clgen-serve` drives with (checker on), under a
        // unit budget the walker can afford in a debug build: the expensive
        // kernels are budget-killed, which has to match as well.
        let mut config = HarnessConfig::default();
        config.driver.total_step_budget = 80_000;
        let harness = Harness::new(config, Some(toy_model()));
        let benchmarks = suites::all_benchmarks();
        assert_eq!(benchmarks.len(), 50);
        let (mut ok, mut killed, mut rejected) = (0, 0, 0);
        for benchmark in &benchmarks {
            let expected = reference_report(&harness, &benchmark.source);
            ok += expected.counters().units_ok;
            killed += expected.counters().units_budget_killed;
            rejected += expected.counters().units_drive_error;
            for workers in [1, 4] {
                let got = rayon::with_num_threads(workers, || {
                    harness.drive_source(&benchmark.source, &Deadline::none())
                })
                .unwrap();
                assert_outcomes_partition(&got.counters());
                assert_eq!(
                    got.ndjson(),
                    expected.ndjson(),
                    "{} at {workers} workers",
                    benchmark.id()
                );
            }
        }
        // The six `NoOutput` units are the outcome `/stats` used to drop.
        assert!(
            ok > 50 && killed > 5 && rejected > 0,
            "{ok} ok, {killed} killed, {rejected} rejected"
        );
    }

    #[test]
    fn shared_work_is_charged_once_to_the_first_unit_that_uses_it() {
        let harness = Harness::new(HarnessConfig::default(), None);
        let report = harness.drive_source(VECADD, &Deadline::none()).unwrap();
        let steps: Vec<u64> = report.units.iter().map(|u| u.steps).collect();
        // 256 carries the dynamic check and its own launch, 4096 its launch;
        // 65536 profiles at the cap like 4096 and rides on that launch.
        assert_eq!(DEFAULT_SIZES, &[256, 4096, 65536]);
        assert!(steps[0] > steps[1] && steps[1] > 0, "{steps:?}");
        assert_eq!(steps[2], 0, "{steps:?}");
        assert_eq!(report.units[2].run_us, 0);
        let runs: Vec<_> = report
            .units
            .iter()
            .map(|u| u.run.as_ref().unwrap())
            .collect();
        assert_eq!(runs[1].counts, runs[2].counts);
        assert!(runs[2].workload.work_items > runs[1].workload.work_items);
        // A killed launch is charged the steps it reached: one past the budget.
        let mut config = HarnessConfig::quick();
        config.driver.total_step_budget = 1_000;
        config.sizes = vec![64];
        let hog = "__kernel void A(__global float* a, const int n) {
            for (int r = 0; r < 100000; r++) { a[0] += 0.5f; }
        }";
        let report = Harness::new(config, None)
            .drive_source(hog, &Deadline::none())
            .unwrap();
        assert!(matches!(
            report.units[0].error,
            Some(UnitError::BudgetExceeded(_))
        ));
        assert_eq!(report.units[0].steps, 1_001);
    }

    #[test]
    fn json_helpers_handle_edge_values() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
