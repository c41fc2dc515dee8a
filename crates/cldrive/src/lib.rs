//! # cldrive
//!
//! The benchmark-execution substrate of the CLgen reproduction (§5 of the
//! paper): a host driver that generates payloads for arbitrary OpenCL kernels,
//! validates them with the dynamic checker, executes them on an NDRange
//! interpreter, and estimates runtimes on analytic models of the paper's
//! CPU/GPU platforms (Table 4).
//!
//! * [`runtime`] — values, buffers and scalar semantics,
//! * `value` (crate-private) — the arithmetic on them, shared by both
//!   executors,
//! * [`interp`] — what a launch is (NDRange, limits, counters, errors, what a
//!   *step* is) and [`execute`],
//! * [`program`] — the executor production runs: a kernel lowered once to
//!   register bytecode, launched many times,
//! * [`mod@reference`] — the tree-walking interpreter `program` replaced, kept as
//!   its differential oracle (tests only),
//! * [`payload`] — rule-based payload generation (§5.1),
//! * [`checker`] — the four-execution dynamic checker (§5.2),
//! * [`device`] — roofline-style device models of Table 4's platforms,
//! * [`driver`] — the host driver producing per-(kernel, dataset) records.
//!
//! ```
//! use cldrive::{DriverOptions, HostDriver, Platform};
//!
//! let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
//! let runs = driver
//!     .run_source(
//!         "__kernel void A(__global float* a, __global float* b, const int n) {
//!              int i = get_global_id(0);
//!              if (i < n) { b[i] = a[i] * 2.0f; }
//!          }",
//!         &[1024],
//!     )
//!     .unwrap();
//! assert_eq!(runs.len(), 1);
//! assert!(runs[0].cpu_time > 0.0);
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod device;
pub mod driver;
pub mod interp;
pub mod payload;
pub mod program;
pub mod reference;
pub mod runtime;
pub(crate) mod value;

pub use checker::{check_kernel, CheckOutcome, CheckerOptions};
pub use device::{Device, DeviceKind, Platform, RuntimeEstimate, WorkloadProfile};
pub use driver::{DriveError, DriverOptions, HostDriver, KernelRun, PreparedKernel, Profile};
pub use interp::{
    execute, ArgBinding, ExecError, ExecLimits, ExecutionCounts, NDRange, MAX_SCRATCH_ELEMENTS,
};
pub use payload::{generate_payload, Payload, PayloadError, PayloadOptions};
pub use program::{Launch, Program};
pub use runtime::{Buffer, BufferSpace, Scalar, Value};
