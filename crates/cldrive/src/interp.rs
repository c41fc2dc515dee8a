//! Launching kernels: the NDRange, limits, counters and errors of a launch,
//! and [`execute`], which runs one.
//!
//! The paper executes synthesized kernels on real GPUs; this reproduction
//! interprets them. Work-items are executed sequentially (work-group by
//! work-group, in work-item order), which keeps execution simple at the cost
//! of not modelling true barrier concurrency; barriers are treated as
//! sequencing no-ops. Execution gathers dynamic instruction/memory counts
//! which feed the analytic device models.
//!
//! A *step* is one tick of the interpreter's clock, the unit every budget in
//! [`ExecLimits`] is written in and [`ExecutionCounts::instructions`] counts:
//! one per operator, call, subscript, member access, declaration, `return`
//! and loop/branch decision that executes. Steps are defined by the source,
//! not by the executor: [`crate::program`] and [`crate::reference`] charge
//! the same steps at the same points.

use crate::program::Program;
use crate::runtime::{Buffer, BufferSpace, Scalar};
use cl_frontend::ast::{ParamDecl, ScalarType, TranslationUnit, Type};

/// The iteration space of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NDRange {
    /// Global work size per dimension.
    pub global: [usize; 3],
    /// Local (work-group) size per dimension.
    pub local: [usize; 3],
}

impl NDRange {
    /// A 1-D NDRange.
    pub fn linear(global: usize, local: usize) -> NDRange {
        NDRange {
            global: [global.max(1), 1, 1],
            local: [local.max(1), 1, 1],
        }
    }

    /// A 2-D NDRange.
    pub fn two_d(gx: usize, gy: usize, lx: usize, ly: usize) -> NDRange {
        NDRange {
            global: [gx.max(1), gy.max(1), 1],
            local: [lx.max(1), ly.max(1), 1],
        }
    }

    /// Total number of work items.
    pub fn work_items(&self) -> usize {
        self.global[0] * self.global[1] * self.global[2]
    }

    /// Number of work groups (rounding up in each dimension).
    pub fn num_groups(&self) -> usize {
        let gx = self.global[0].div_ceil(self.local[0]);
        let gy = self.global[1].div_ceil(self.local[1]);
        let gz = self.global[2].div_ceil(self.local[2]);
        gx * gy * gz
    }
}

/// Dynamic execution counts accumulated over interpreted work items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionCounts {
    /// Work items actually interpreted.
    pub work_items_executed: u64,
    /// Total interpreted operations (a proxy for dynamic instructions).
    pub instructions: u64,
    /// Arithmetic operations (including math builtins).
    pub compute_ops: u64,
    /// Loads from `__global` / `__constant` buffers.
    pub global_loads: u64,
    /// Stores to `__global` buffers.
    pub global_stores: u64,
    /// Coalesced global accesses (consecutive work items touch consecutive
    /// elements; approximated per-access by index == global id ± const).
    pub coalesced_accesses: u64,
    /// Accesses to `__local` buffers.
    pub local_accesses: u64,
    /// Branch decisions taken.
    pub branches: u64,
    /// Barrier executions.
    pub barriers: u64,
    /// Math builtin calls.
    pub math_calls: u64,
    /// Out-of-bounds accesses that were clamped.
    pub out_of_bounds: u64,
}

impl ExecutionCounts {
    /// Total global memory accesses.
    pub fn global_accesses(&self) -> u64 {
        self.global_loads + self.global_stores
    }

    /// Accumulate counts from another execution (e.g. summing kernels of a
    /// multi-kernel benchmark).
    pub fn merge(&mut self, other: &ExecutionCounts) {
        self.work_items_executed += other.work_items_executed;
        self.instructions += other.instructions;
        self.compute_ops += other.compute_ops;
        self.global_loads += other.global_loads;
        self.global_stores += other.global_stores;
        self.coalesced_accesses += other.coalesced_accesses;
        self.local_accesses += other.local_accesses;
        self.branches += other.branches;
        self.barriers += other.barriers;
        self.math_calls += other.math_calls;
        self.out_of_bounds += other.out_of_bounds;
    }
}

/// Errors raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The named kernel does not exist in the translation unit.
    MissingKernel(String),
    /// The provided argument bindings do not match the kernel signature.
    ArgumentMismatch(String),
    /// The per-work-item step budget was exhausted (likely non-termination).
    StepLimitExceeded,
    /// The launch-wide step budget was exhausted (the sum over all interpreted
    /// work items crossed [`ExecLimits::total_steps`]).
    TotalStepLimitExceeded,
    /// The kernel asked for more memory than the interpreter allows (e.g. a
    /// private/local array with an absurd or overflowing element count).
    ResourceLimitExceeded(String),
    /// A language construct the interpreter does not support was reached.
    Unsupported(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingKernel(k) => write!(f, "kernel `{k}` not found"),
            ExecError::ArgumentMismatch(m) => write!(f, "argument mismatch: {m}"),
            ExecError::StepLimitExceeded => write!(f, "work item exceeded its step budget"),
            ExecError::TotalStepLimitExceeded => write!(f, "launch exceeded its total step budget"),
            ExecError::ResourceLimitExceeded(what) => write!(f, "resource limit exceeded: {what}"),
            ExecError::Unsupported(c) => write!(f, "unsupported construct: {c}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The errors a reachable construct raises, worded once for both executors.
impl ExecError {
    pub(crate) fn unbound_identifier(name: &str) -> ExecError {
        ExecError::Unsupported(format!("unbound identifier `{name}`"))
    }

    pub(crate) fn unknown_function(callee: &str) -> ExecError {
        ExecError::Unsupported(format!("call to unknown function `{callee}`"))
    }

    pub(crate) fn call_depth_exceeded() -> ExecError {
        ExecError::Unsupported("call depth exceeded".into())
    }

    pub(crate) fn atomic_without_pointer(callee: &str) -> ExecError {
        ExecError::Unsupported(format!("`{callee}` without a pointer argument"))
    }

    // Error nodes only exist in units that failed to compile, which the
    // driver refuses to launch; reaching one is a logic error surfaced as an
    // unsupported-construct failure, not a panic.
    pub(crate) fn error_statement() -> ExecError {
        ExecError::Unsupported("parse-error placeholder statement".into())
    }

    pub(crate) fn error_expression() -> ExecError {
        ExecError::Unsupported("parse-error placeholder expression".into())
    }
}

/// Deepest chain of user-function calls a work item may be in when it makes
/// another call (the kernel body is depth 0).
pub(crate) const MAX_CALL_DEPTH: usize = 16;

/// How a kernel argument is bound at launch.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgBinding {
    /// A global (or constant) buffer; updated in place and returned.
    GlobalBuffer(Buffer),
    /// A local buffer of the given element count, allocated per work group.
    LocalElements(usize),
    /// A scalar passed by value.
    Scalar(Scalar),
}

/// Most scratch (private/local array) elements one work item may hold at a
/// time, over all the array declarations it has executed. A declaration that
/// would cross it is treated as hostile and aborted with
/// [`ExecError::ResourceLimitExceeded`] instead of attempting the allocation.
pub const MAX_SCRATCH_ELEMENTS: usize = 1 << 22;

/// Elements an array of these dimensions holds (a dimension of zero counts
/// as one); `None` when the product overflows.
pub(crate) fn scratch_elements(dims: &[usize]) -> Option<usize> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d.max(1)))
}

/// Charge an executing array declaration against the work item's scratch
/// allowance `live`. Scratch is freed when the work item ends, so a
/// declaration in a loop is charged every time it executes.
pub(crate) fn claim_scratch(
    live: &mut usize,
    name: &str,
    elements: Option<usize>,
) -> Result<usize, ExecError> {
    let elements = elements
        .filter(|n| live.saturating_add(*n) <= MAX_SCRATCH_ELEMENTS)
        .ok_or_else(|| {
            ExecError::ResourceLimitExceeded(format!(
                "array `{name}` takes the work item's scratch memory above \
                 {MAX_SCRATCH_ELEMENTS} elements"
            ))
        })?;
    *live += elements;
    Ok(elements)
}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum interpreted operations per work item.
    pub steps_per_work_item: u64,
    /// Execute at most this many work items (0 = all). When sampling, work
    /// items are taken evenly from the start of each work group.
    pub max_work_items: usize,
    /// Maximum interpreted operations across the whole launch (0 = unbounded).
    /// This is the per-unit abort hook the batched harness leans on: a hostile
    /// kernel cannot burn `steps_per_work_item * work_items` steps, it is cut
    /// off with [`ExecError::TotalStepLimitExceeded`] as soon as the launch-
    /// wide sum crosses this budget.
    pub total_steps: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            steps_per_work_item: 2_000_000,
            max_work_items: 0,
            total_steps: 0,
        }
    }
}

/// The result of a kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult {
    /// Argument bindings after execution (global buffers contain results).
    pub args: Vec<ArgBinding>,
    /// Dynamic execution counts (over the interpreted work items).
    pub counts: ExecutionCounts,
    /// Fraction of the NDRange that was actually interpreted (1.0 unless
    /// work-item sampling was requested).
    pub sampled_fraction: f64,
}

/// Execute `kernel_name` from `unit` over `ndrange` with the given argument
/// bindings: lower the kernel to a [`Program`] and launch it once. Callers
/// that launch a kernel more than once keep the `Program`.
///
/// # Errors
///
/// Returns an [`ExecError`] if the kernel is missing, the bindings do not
/// match its signature, a step budget is exhausted, or an unsupported
/// construct is reached.
pub fn execute(
    unit: &TranslationUnit,
    kernel_name: &str,
    args: Vec<ArgBinding>,
    ndrange: NDRange,
    limits: &ExecLimits,
) -> Result<LaunchResult, ExecError> {
    Program::lower(unit, kernel_name)
        .launch(args, ndrange, limits)
        .result
}

/// A kernel argument as both executors see it once bound: buffers live in
/// the launch's buffer table (global ones first moved in, local ones
/// allocated), scalars are converted to the parameter's type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BoundArg {
    /// A `__global` / `__constant` buffer at this index of the buffer table.
    Buffer(usize),
    /// A `__local` buffer at this index of the buffer table.
    LocalBuffer(usize),
    /// A by-value scalar.
    Scalar(Scalar),
}

/// Bind launch arguments to a kernel's parameters, in order. Returns the
/// buffer table and one [`BoundArg`] per parameter.
pub(crate) fn bind_args(
    kernel_name: &str,
    params: &[ParamDecl],
    args: Vec<ArgBinding>,
) -> Result<(Vec<Buffer>, Vec<BoundArg>), ExecError> {
    if params.len() != args.len() {
        return Err(ExecError::ArgumentMismatch(format!(
            "kernel `{kernel_name}` has {} parameters but {} bindings were provided",
            params.len(),
            args.len()
        )));
    }
    let mut buffers = Vec::new();
    let mut bound = Vec::with_capacity(args.len());
    for (param, arg) in params.iter().zip(args) {
        bound.push(match arg {
            ArgBinding::GlobalBuffer(buffer) => {
                buffers.push(buffer);
                BoundArg::Buffer(buffers.len() - 1)
            }
            ArgBinding::LocalElements(elements) => {
                let elem = param.ty.element_scalar().unwrap_or(ScalarType::Float);
                let lanes = match &param.ty {
                    Type::Pointer { pointee, .. } => pointee.lanes().unwrap_or(1) as usize,
                    _ => 1,
                };
                buffers.push(Buffer::zeroed(
                    elem,
                    lanes,
                    elements.max(1),
                    BufferSpace::Local,
                ));
                BoundArg::LocalBuffer(buffers.len() - 1)
            }
            ArgBinding::Scalar(s) => {
                BoundArg::Scalar(s.convert_to(param.ty.element_scalar().unwrap_or(ScalarType::Int)))
            }
        });
    }
    Ok((buffers, bound))
}

/// The argument bindings a finished launch hands back, in parameter order:
/// global buffers hold the kernel's results.
pub(crate) fn unbind_args(buffers: Vec<Buffer>, bound: &[BoundArg]) -> Vec<ArgBinding> {
    let mut buffers: Vec<Option<Buffer>> = buffers.into_iter().map(Some).collect();
    bound
        .iter()
        .map(|arg| match *arg {
            BoundArg::Buffer(index) => ArgBinding::GlobalBuffer(
                buffers[index]
                    .take()
                    .expect("each argument owns one buffer"),
            ),
            BoundArg::LocalBuffer(_) => ArgBinding::LocalElements(0),
            BoundArg::Scalar(value) => ArgBinding::Scalar(value),
        })
        .collect()
}

/// Fraction of the NDRange that was interpreted.
pub(crate) fn sampled_fraction(executed: usize, ndrange: &NDRange) -> f64 {
    match ndrange.work_items() {
        0 => 1.0,
        total => executed as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Value;
    use cl_frontend::parser::parse;

    fn run_kernel(
        src: &str,
        kernel: &str,
        args: Vec<ArgBinding>,
        ndrange: NDRange,
    ) -> LaunchResult {
        let parsed = parse(src);
        assert!(parsed.is_ok(), "{}", parsed.diagnostics);
        execute(&parsed.unit, kernel, args, ndrange, &ExecLimits::default())
            .expect("execution failed")
    }

    fn float_buffer(values: &[f64]) -> Buffer {
        let mut b = Buffer::zeroed(ScalarType::Float, 1, values.len(), BufferSpace::Global);
        for (i, v) in values.iter().enumerate() {
            b.store(i as i64, &Value::float(*v));
        }
        b
    }

    fn buffer_values(b: &Buffer) -> Vec<f64> {
        (0..b.elements())
            .map(|i| b.load(i as i64).as_scalar().as_f64())
            .collect()
    }

    #[test]
    fn vector_add_executes_correctly() {
        let src = "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
            int e = get_global_id(0);
            if (e < d) { c[e] = a[e] + b[e]; }
        }";
        let n = 8;
        let a = float_buffer(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = float_buffer(&[10.0; 8]);
        let c = float_buffer(&[0.0; 8]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(a),
                ArgBinding::GlobalBuffer(b),
                ArgBinding::GlobalBuffer(c),
                ArgBinding::Scalar(Scalar::I(n as i64)),
            ],
            NDRange::linear(n, 4),
        );
        let ArgBinding::GlobalBuffer(c_out) = &result.args[2] else {
            panic!()
        };
        assert_eq!(
            buffer_values(c_out),
            vec![11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0]
        );
        assert_eq!(result.counts.work_items_executed, 8);
        assert!(result.counts.global_loads >= 16);
        assert!(result.counts.global_stores >= 8);
        assert!(result.counts.coalesced_accesses > 0);
    }

    #[test]
    fn guard_prevents_out_of_range_writes() {
        let src = "__kernel void A(__global float* a, const int n) {
            int i = get_global_id(0);
            if (i < n) { a[i] = 1.0f; }
        }";
        let a = float_buffer(&[0.0; 4]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(a),
                ArgBinding::Scalar(Scalar::I(2)),
            ],
            NDRange::linear(4, 2),
        );
        let ArgBinding::GlobalBuffer(out) = &result.args[0] else {
            panic!()
        };
        assert_eq!(buffer_values(out), vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn saxpy_with_helper_function() {
        let src = "inline float A(float a) { return 3.5f * a; }
        __kernel void B(__global float* b, __global float* c, const int d) {
            unsigned int e = get_global_id(0);
            if (e < d) { c[e] += A(b[e]); }
        }";
        let b = float_buffer(&[2.0, 4.0]);
        let c = float_buffer(&[1.0, 1.0]);
        let result = run_kernel(
            src,
            "B",
            vec![
                ArgBinding::GlobalBuffer(b),
                ArgBinding::GlobalBuffer(c),
                ArgBinding::Scalar(Scalar::I(2)),
            ],
            NDRange::linear(2, 2),
        );
        let ArgBinding::GlobalBuffer(out) = &result.args[1] else {
            panic!()
        };
        assert_eq!(buffer_values(out), vec![8.0, 15.0]);
    }

    #[test]
    fn for_loop_matmul() {
        // 2x2 matrix multiply with a 2-D NDRange.
        let src = "__kernel void A(__global float* a, __global float* b, __global float* c, const int w) {
            int row = get_global_id(1);
            int col = get_global_id(0);
            float acc = 0.0f;
            for (int k = 0; k < w; k++) {
                acc += a[row * w + k] * b[k * w + col];
            }
            c[row * w + col] = acc;
        }";
        let a = float_buffer(&[1.0, 2.0, 3.0, 4.0]);
        let b = float_buffer(&[5.0, 6.0, 7.0, 8.0]);
        let c = float_buffer(&[0.0; 4]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(a),
                ArgBinding::GlobalBuffer(b),
                ArgBinding::GlobalBuffer(c),
                ArgBinding::Scalar(Scalar::I(2)),
            ],
            NDRange::two_d(2, 2, 2, 2),
        );
        let ArgBinding::GlobalBuffer(out) = &result.args[2] else {
            panic!()
        };
        assert_eq!(buffer_values(out), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn local_memory_and_barrier() {
        // Copy via local memory; with sequential execution this is exact.
        let src = "__kernel void A(__global float* in, __global float* out, __local float* tmp) {
            int lid = get_local_id(0);
            int gid = get_global_id(0);
            tmp[lid] = in[gid] * 2.0f;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[gid] = tmp[lid];
        }";
        let input = float_buffer(&[1.0, 2.0, 3.0, 4.0]);
        let output = float_buffer(&[0.0; 4]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(input),
                ArgBinding::GlobalBuffer(output),
                ArgBinding::LocalElements(2),
            ],
            NDRange::linear(4, 2),
        );
        let ArgBinding::GlobalBuffer(out) = &result.args[1] else {
            panic!()
        };
        assert_eq!(buffer_values(out), vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(result.counts.barriers, 4);
        assert!(result.counts.local_accesses >= 8);
    }

    #[test]
    fn atomic_histogram() {
        let src = "__kernel void A(__global uint* data, __global uint* hist, const int n) {
            int i = get_global_id(0);
            if (i < n) { atomic_inc(&hist[data[i] % 4u]); }
        }";
        let mut data = Buffer::zeroed(ScalarType::UInt, 1, 8, BufferSpace::Global);
        for (i, v) in [0, 1, 2, 3, 0, 1, 0, 2].iter().enumerate() {
            data.store(i as i64, &Value::int(*v));
        }
        let hist = Buffer::zeroed(ScalarType::UInt, 1, 4, BufferSpace::Global);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(data),
                ArgBinding::GlobalBuffer(hist),
                ArgBinding::Scalar(Scalar::I(8)),
            ],
            NDRange::linear(8, 4),
        );
        let ArgBinding::GlobalBuffer(out) = &result.args[1] else {
            panic!()
        };
        let values: Vec<i64> = (0..4).map(|i| out.load(i).as_scalar().as_i64()).collect();
        assert_eq!(values, vec![3, 2, 2, 1]);
    }

    #[test]
    fn vector_types_and_components() {
        let src = "__kernel void A(__global float4* a, __global float* out, const int n) {
            int i = get_global_id(0);
            if (i < n) {
                float4 v = a[i];
                out[i] = v.x + v.y + v.z + v.w;
            }
        }";
        let mut a = Buffer::zeroed(ScalarType::Float, 4, 2, BufferSpace::Global);
        a.store(
            0,
            &Value::Vector(vec![
                Scalar::F(1.0),
                Scalar::F(2.0),
                Scalar::F(3.0),
                Scalar::F(4.0),
            ]),
        );
        a.store(
            1,
            &Value::Vector(vec![
                Scalar::F(5.0),
                Scalar::F(6.0),
                Scalar::F(7.0),
                Scalar::F(8.0),
            ]),
        );
        let out = float_buffer(&[0.0; 2]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(a),
                ArgBinding::GlobalBuffer(out),
                ArgBinding::Scalar(Scalar::I(2)),
            ],
            NDRange::linear(2, 2),
        );
        let ArgBinding::GlobalBuffer(o) = &result.args[1] else {
            panic!()
        };
        assert_eq!(buffer_values(o), vec![10.0, 26.0]);
    }

    #[test]
    fn math_builtins() {
        let src = "__kernel void A(__global float* a, const int n) {
            int i = get_global_id(0);
            if (i < n) { a[i] = sqrt(fabs(a[i])) + fmax(a[i], 0.0f) + clamp(a[i], 0.0f, 1.0f); }
        }";
        let a = float_buffer(&[4.0, -9.0]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(a),
                ArgBinding::Scalar(Scalar::I(2)),
            ],
            NDRange::linear(2, 2),
        );
        let ArgBinding::GlobalBuffer(out) = &result.args[0] else {
            panic!()
        };
        let v = buffer_values(out);
        assert!((v[0] - (2.0 + 4.0 + 1.0)).abs() < 1e-6);
        assert!((v[1] - (3.0 + 0.0 + 0.0)).abs() < 1e-6);
        assert!(result.counts.math_calls > 0);
    }

    #[test]
    fn non_terminating_kernel_hits_step_limit() {
        let src = "__kernel void A(__global int* a) {
            int i = 0;
            while (1) { i = i + 1; }
            a[0] = i;
        }";
        let parsed = parse(src);
        let a = Buffer::zeroed(ScalarType::Int, 1, 1, BufferSpace::Global);
        let limits = ExecLimits {
            steps_per_work_item: 10_000,
            ..ExecLimits::default()
        };
        let result = execute(
            &parsed.unit,
            "A",
            vec![ArgBinding::GlobalBuffer(a)],
            NDRange::linear(1, 1),
            &limits,
        );
        assert_eq!(result.unwrap_err(), ExecError::StepLimitExceeded);
    }

    #[test]
    fn work_item_sampling_limits_execution() {
        let src = "__kernel void A(__global float* a) { a[get_global_id(0)] = 1.0f; }";
        let a = float_buffer(&[0.0; 64]);
        let parsed = parse(src);
        let limits = ExecLimits {
            steps_per_work_item: 10_000,
            max_work_items: 8,
            ..ExecLimits::default()
        };
        let result = execute(
            &parsed.unit,
            "A",
            vec![ArgBinding::GlobalBuffer(a)],
            NDRange::linear(64, 16),
            &limits,
        )
        .unwrap();
        assert_eq!(result.counts.work_items_executed, 8);
        assert!((result.sampled_fraction - 0.125).abs() < 1e-9);
    }

    #[test]
    fn missing_kernel_and_bad_args_error() {
        let parsed = parse("__kernel void A(__global int* a) { a[0] = 1; }");
        let err = execute(
            &parsed.unit,
            "B",
            vec![],
            NDRange::linear(1, 1),
            &ExecLimits::default(),
        );
        assert!(matches!(err.unwrap_err(), ExecError::MissingKernel(_)));
        let err = execute(
            &parsed.unit,
            "A",
            vec![],
            NDRange::linear(1, 1),
            &ExecLimits::default(),
        );
        assert!(matches!(err.unwrap_err(), ExecError::ArgumentMismatch(_)));
    }

    #[test]
    fn out_of_bounds_counted_not_fatal() {
        let src = "__kernel void A(__global float* a, const int n) {
            int i = get_global_id(0);
            a[i + n] = 1.0f;
        }";
        let a = float_buffer(&[0.0; 4]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(a),
                ArgBinding::Scalar(Scalar::I(100)),
            ],
            NDRange::linear(4, 4),
        );
        assert!(result.counts.out_of_bounds > 0);
    }

    #[test]
    fn reduction_kernel_runs_and_produces_output() {
        let src = "__kernel void A(__global float* in, __global float* out, __local float* tmp, const int n) {
            int gid = get_global_id(0);
            int lid = get_local_id(0);
            tmp[lid] = (gid < n) ? in[gid] : 0.0f;
            barrier(CLK_LOCAL_MEM_FENCE);
            for (int s = get_local_size(0) / 2; s > 0; s >>= 1) {
                if (lid < s) { tmp[lid] += tmp[lid + s]; }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            if (lid == 0) { out[get_group_id(0)] = tmp[0]; }
        }";
        let input = float_buffer(&[1.0; 8]);
        let output = float_buffer(&[0.0; 2]);
        let result = run_kernel(
            src,
            "A",
            vec![
                ArgBinding::GlobalBuffer(input),
                ArgBinding::GlobalBuffer(output),
                ArgBinding::LocalElements(4),
                ArgBinding::Scalar(Scalar::I(8)),
            ],
            NDRange::linear(8, 4),
        );
        let ArgBinding::GlobalBuffer(out) = &result.args[1] else {
            panic!()
        };
        let v = buffer_values(out);
        // Sequential work-item execution does not reproduce the true barrier
        // semantics of the tree reduction, but the kernel must still run,
        // produce a non-zero deterministic result and touch local memory.
        assert!(v[0] != 0.0);
        assert!(result.counts.local_accesses > 0);
        assert!(result.counts.barriers > 0);
    }
}
