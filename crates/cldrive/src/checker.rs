//! The dynamic checker (§5.2 of the paper).
//!
//! For performance benchmarking we do not care whether a kernel computes a
//! *correct* value, only that it "predictably computes some result". The
//! checker executes a kernel four times on two distinct payloads (each
//! executed twice) and asserts that:
//!
//! * the outputs differ from the inputs (the kernel has output),
//! * the outputs for different inputs differ (the kernel is input sensitive),
//! * repeated executions of the same input agree (the kernel is
//!   deterministic),
//!
//! with an epsilon for floating point comparisons and a timeout (here: a step
//! budget) to catch non-terminating kernels.

use crate::interp::{ArgBinding, ExecError, ExecLimits, NDRange};
use crate::payload::{generate_payload_pair, PayloadError, PayloadOptions};
use crate::program::{Launch, Program};
use crate::runtime::Buffer;
use cl_frontend::ast::TranslationUnit;
use cl_frontend::sema::KernelSignature;

/// The verdict of the dynamic checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The kernel performs useful, deterministic, input-sensitive work.
    UsefulWork,
    /// No global buffer was modified by execution.
    NoOutput,
    /// Outputs are identical for different inputs.
    InputInsensitive,
    /// Repeated executions of the same input disagree.
    NonDeterministic,
    /// The kernel exceeded its step budget (assumed non-terminating).
    Timeout,
    /// The kernel could not be executed or given a payload.
    Failed(String),
}

impl CheckOutcome {
    /// True if the kernel should be kept as a benchmark.
    pub fn is_useful(&self) -> bool {
        *self == CheckOutcome::UsefulWork
    }
}

/// Relative epsilon for floating point output comparison.
const EPSILON: f64 = 1e-5;

/// RNG seed of the two check payloads.
const PAYLOAD_SEED: u64 = 0xC4EC;

/// Configuration of the dynamic checker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckerOptions {
    /// Global size used for the four check executions (small, for speed).
    pub global_size: usize,
    /// Local size for the check executions.
    pub local_size: usize,
    /// Step budget per work item (the "timeout threshold").
    pub steps_per_work_item: u64,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            global_size: 256,
            local_size: 32,
            steps_per_work_item: 2_000_000,
        }
    }
}

/// Snapshot of the global buffers of a payload (inputs or outputs).
fn global_buffers(args: &[ArgBinding]) -> Vec<Buffer> {
    args.iter()
        .filter_map(|a| match a {
            ArgBinding::GlobalBuffer(b) => Some(b.clone()),
            _ => None,
        })
        .collect()
}

fn buffers_differ(a: &[Buffer], b: &[Buffer]) -> bool {
    if a.len() != b.len() {
        return true;
    }
    a.iter()
        .zip(b.iter())
        .any(|(x, y)| x.differs_from(y, EPSILON))
}

/// Run the four-execution dynamic check on one kernel.
pub fn check_kernel(
    unit: &TranslationUnit,
    sig: &KernelSignature,
    options: &CheckerOptions,
) -> CheckOutcome {
    let program = Program::lower(unit, &sig.name);
    check_by(
        &|args, ndrange, limits| program.launch(args, ndrange, limits),
        sig,
        options,
        0,
    )
    .0
}

/// How the driver launches the kernel it is driving: the lowered program in
/// production, the reference walker for the tests that compare the two.
pub(crate) type Launcher<'a> =
    dyn Fn(Vec<ArgBinding>, NDRange, &ExecLimits) -> Launch + Send + Sync + 'a;

/// The dynamic check of a kernel launched by `launch`, each of the four
/// launches under a launch-wide budget of `total_steps` (0 = unbounded;
/// exhausting it is a timeout like any other). Returns the verdict and the
/// steps the launches consumed.
pub(crate) fn check_by(
    launch: &Launcher,
    sig: &KernelSignature,
    options: &CheckerOptions,
    total_steps: u64,
) -> (CheckOutcome, u64) {
    let payload_options = PayloadOptions {
        global_size: options.global_size,
        local_size: options.local_size,
        seed: PAYLOAD_SEED,
    };
    let (payload_a, payload_b) = match generate_payload_pair(sig, &payload_options) {
        Ok(p) => p,
        Err(PayloadError::UnsupportedArgument(why)) => return (CheckOutcome::Failed(why), 0),
    };
    let ndrange = NDRange::linear(options.global_size, options.local_size);
    let limits = ExecLimits {
        steps_per_work_item: options.steps_per_work_item,
        total_steps,
        ..ExecLimits::default()
    };

    let a_in = global_buffers(&payload_a.args);
    let b_in = global_buffers(&payload_b.args);
    if a_in.is_empty() {
        // Without global buffers there is no observable output at all.
        return (CheckOutcome::NoOutput, 0);
    }

    // k(A1) -> A1out, k(B1) -> B1out, k(A2) -> A2out, k(B2) -> B2out
    let mut steps = 0;
    let mut outs = Vec::with_capacity(4);
    for payload in [&payload_a, &payload_b, &payload_a, &payload_b] {
        let launched = launch(payload.args.clone(), ndrange, &limits);
        steps += launched.steps;
        match launched.result {
            Ok(result) => outs.push(global_buffers(&result.args)),
            Err(ExecError::StepLimitExceeded | ExecError::TotalStepLimitExceeded) => {
                return (CheckOutcome::Timeout, steps)
            }
            Err(e) => return (CheckOutcome::Failed(e.to_string()), steps),
        }
    }
    let (a1_out, b1_out, a2_out, b2_out) = (&outs[0], &outs[1], &outs[2], &outs[3]);

    // Assert: outputs differ from inputs, else no output for these inputs.
    let outcome = if !buffers_differ(a1_out, &a_in) && !buffers_differ(b1_out, &b_in) {
        CheckOutcome::NoOutput
    // Assert: outputs differ across inputs, else input-insensitive.
    } else if !buffers_differ(a1_out, b1_out) || !buffers_differ(a2_out, b2_out) {
        CheckOutcome::InputInsensitive
    // Assert: repeated executions agree, else non-deterministic.
    } else if buffers_differ(a1_out, a2_out) || buffers_differ(b1_out, b2_out) {
        CheckOutcome::NonDeterministic
    } else {
        CheckOutcome::UsefulWork
    };
    (outcome, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_frontend::{compile, CompileOptions};

    fn check(src: &str) -> CheckOutcome {
        let r = compile(src, &CompileOptions::default());
        assert!(r.is_ok(), "{}", r.diagnostics);
        let options = CheckerOptions {
            global_size: 64,
            local_size: 16,
            ..Default::default()
        };
        check_kernel(&r.unit, &r.kernels[0], &options)
    }

    #[test]
    fn useful_kernel_passes() {
        let outcome = check(
            "__kernel void A(__global float* a, __global float* b, const int n) {
                int i = get_global_id(0);
                if (i < n) { b[i] = a[i] * 2.0f + 1.0f; }
            }",
        );
        assert_eq!(outcome, CheckOutcome::UsefulWork);
    }

    #[test]
    fn no_output_detected() {
        let outcome = check(
            "__kernel void A(__global float* a, const int n) {
                int i = get_global_id(0);
                float x = a[i] * 2.0f;
                x = x + 1.0f;
            }",
        );
        assert_eq!(outcome, CheckOutcome::NoOutput);
    }

    #[test]
    fn input_insensitive_detected() {
        let outcome = check(
            "__kernel void A(__global float* a, const int n) {
                int i = get_global_id(0);
                if (i < n) { a[i] = 42.0f; }
            }",
        );
        assert_eq!(outcome, CheckOutcome::InputInsensitive);
    }

    #[test]
    fn timeout_detected() {
        let r = compile(
            "__kernel void A(__global float* a) { while (1) { a[0] += 1.0f; } }",
            &CompileOptions::default(),
        );
        let options = CheckerOptions {
            global_size: 8,
            local_size: 4,
            steps_per_work_item: 5_000,
        };
        let outcome = check_kernel(&r.unit, &r.kernels[0], &options);
        assert_eq!(outcome, CheckOutcome::Timeout);
    }

    #[test]
    fn struct_args_fail_gracefully() {
        let r = compile(
            "typedef struct { float x; } P;\n__kernel void A(__global P* ps, __global float* out) { out[0] = 1.0f; }",
            &CompileOptions::default(),
        );
        let outcome = check_kernel(&r.unit, &r.kernels[0], &CheckerOptions::default());
        assert!(matches!(outcome, CheckOutcome::Failed(_)));
        assert!(!outcome.is_useful());
    }

    #[test]
    fn paper_figure6b_kernel_is_useful() {
        // The zip kernel of Figure 6b: c_i = 3a_i + 2b_i + 4.
        let outcome = check(
            "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
                int e = get_global_id(0);
                if (e >= d) { return; }
                c[e] = a[e] + b[e] + 2 * a[e] + b[e] + 4;
            }",
        );
        assert_eq!(outcome, CheckOutcome::UsefulWork);
    }
}
