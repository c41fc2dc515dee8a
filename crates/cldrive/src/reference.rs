//! The reference executor: a tree-walking interpreter over the `cl-frontend`
//! AST, kept as the differential oracle of [`crate::program`].
//!
//! This is the executor the crate grew up with. It resolves every name,
//! clones every scope and re-parses every builtin spelling as it goes, which
//! makes it slow and makes it obviously a transcription of the language's
//! rules — the role `LstmModel::step` has for the packed kernels. Production
//! code never calls it: [`crate::interp::execute`], the checker and the
//! driver all run a lowered [`crate::program::Program`], and
//! `tests/differential.rs` holds the two to the same
//! `Result<LaunchResult, ExecError>` — every buffer bit, every counter, every
//! error at the same step. It shares the value layer (`value.rs`) with the program, so
//! there is one arithmetic and two drivers.

use crate::driver::{DriveError, HostDriver, KernelRun};
use crate::interp::{
    bind_args, claim_scratch, sampled_fraction, scratch_elements, unbind_args, ArgBinding,
    BoundArg, ExecError, ExecLimits, ExecutionCounts, LaunchResult, NDRange, MAX_CALL_DEPTH,
};
use crate::program::Launch;
use crate::runtime::{Buffer, BufferSpace, PtrValue, Scalar, Value};
use crate::value::{
    self, apply_binop, apply_math, array_shape, coerce_to_type, component_lane, default_value,
    AtomicOp, MathFn, VectorDataFn, WorkItem, WorkItemFn,
};
use cl_frontend::ast::*;
use cl_frontend::builtins::{builtin_function_kind, is_vector_component, BuiltinKind};
use cl_frontend::sema::KernelSignature;
use std::collections::HashMap;

/// Execute `kernel_name` from `unit` over `ndrange` with the given argument
/// bindings, by walking the AST.
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
    launch(unit, kernel_name, args, ndrange, limits).result
}

/// [`execute`], with the step count the launch reached (what
/// [`crate::Program::launch`] reports).
pub fn launch(
    unit: &TranslationUnit,
    kernel_name: &str,
    args: Vec<ArgBinding>,
    ndrange: NDRange,
    limits: &ExecLimits,
) -> Launch {
    let failed = |e| Launch {
        result: Err(e),
        steps: 0,
    };
    let Some(kernel) = unit.function(kernel_name).filter(|f| f.is_kernel) else {
        return failed(ExecError::MissingKernel(kernel_name.to_string()));
    };
    let (buffers, bindings) = match bind_args(kernel_name, &kernel.params, args) {
        Ok(bound) => bound,
        Err(e) => return failed(e),
    };
    let mut machine = Machine {
        unit,
        buffers,
        counts: ExecutionCounts::default(),
        limits: *limits,
        steps_this_item: 0,
        scratch_live: 0,
        work_item: WorkItem::default(),
    };
    let executed = machine.run(kernel, &bindings, ndrange);
    let steps = machine.counts.instructions;
    Launch {
        result: executed.map(|executed| {
            machine.counts.work_items_executed = executed as u64;
            LaunchResult {
                args: unbind_args(machine.buffers, &bindings),
                counts: machine.counts,
                sampled_fraction: sampled_fraction(executed, &ndrange),
            }
        }),
        steps,
    }
}

/// [`crate::HostDriver::run_kernel`] as it was before anything was shared
/// between sizes: the dynamic check, the profile launch and the scaling of one
/// (kernel, size) unit, every launch made by the walker. For tests that hold
/// whole reports against the reference.
///
/// # Errors
///
/// What [`crate::HostDriver::run_kernel`] returns.
pub fn drive_kernel(
    driver: &HostDriver,
    unit: &TranslationUnit,
    sig: &KernelSignature,
    global_size: usize,
) -> Result<KernelRun, DriveError> {
    let walker =
        move |args, ndrange, limits: &ExecLimits| launch(unit, &sig.name, args, ndrange, limits);
    driver.run_prepared(&driver.prepare_by(unit, sig, Box::new(walker)), global_size)
}

// ---------------------------------------------------------------------------

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// An assignable location.
enum Place {
    Var {
        name: String,
        lane: Option<usize>,
    },
    BufferElem {
        buffer: usize,
        index: i64,
        lane: Option<usize>,
    },
}

struct Machine<'a> {
    unit: &'a TranslationUnit,
    buffers: Vec<Buffer>,
    counts: ExecutionCounts,
    limits: ExecLimits,
    steps_this_item: u64,
    /// Scratch elements the current work item has allocated.
    scratch_live: usize,
    work_item: WorkItem,
}

type Env = Vec<HashMap<String, Value>>;

impl<'a> Machine<'a> {
    /// Run every (sampled) work item, group by group, `lx` fastest. Returns
    /// how many ran.
    fn run(
        &mut self,
        kernel: &FunctionDef,
        bindings: &[BoundArg],
        ndrange: NDRange,
    ) -> Result<usize, ExecError> {
        let sample_budget = if self.limits.max_work_items == 0 {
            ndrange.work_items()
        } else {
            self.limits.max_work_items
        };
        let mut executed = 0usize;
        let groups = [
            ndrange.global[0].div_ceil(ndrange.local[0]),
            ndrange.global[1].div_ceil(ndrange.local[1]),
            ndrange.global[2].div_ceil(ndrange.local[2]),
        ];
        'outer: for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    // Fresh local memory per work group.
                    for b in self.buffers.iter_mut() {
                        if b.space == BufferSpace::Local {
                            b.data.iter_mut().for_each(|s| *s = Scalar::zero_of(b.elem));
                        }
                    }
                    for lz in 0..ndrange.local[2] {
                        for ly in 0..ndrange.local[1] {
                            for lx in 0..ndrange.local[0] {
                                let global = [
                                    gx * ndrange.local[0] + lx,
                                    gy * ndrange.local[1] + ly,
                                    gz * ndrange.local[2] + lz,
                                ];
                                if global[0] >= ndrange.global[0]
                                    || global[1] >= ndrange.global[1]
                                    || global[2] >= ndrange.global[2]
                                {
                                    continue;
                                }
                                if executed >= sample_budget {
                                    break 'outer;
                                }
                                self.work_item = WorkItem {
                                    global,
                                    local: [lx, ly, lz],
                                    group: [gx, gy, gz],
                                    global_size: ndrange.global,
                                    local_size: ndrange.local,
                                    num_groups: groups,
                                };
                                self.run_work_item(kernel, bindings)?;
                                executed += 1;
                            }
                        }
                    }
                }
            }
        }
        Ok(executed)
    }

    fn run_work_item(
        &mut self,
        kernel: &FunctionDef,
        bindings: &[BoundArg],
    ) -> Result<(), ExecError> {
        self.steps_this_item = 0;
        self.scratch_live = 0;
        let mut env: Env = vec![HashMap::new()];
        for (param, binding) in kernel.params.iter().zip(bindings) {
            let value = match *binding {
                BoundArg::Buffer(buffer) | BoundArg::LocalBuffer(buffer) => Value::Ptr(PtrValue {
                    buffer,
                    offset: 0,
                    dims: vec![],
                }),
                BoundArg::Scalar(value) => Value::Scalar(value),
            };
            env[0].insert(param.name.clone(), value);
        }
        let body = kernel
            .body
            .as_ref()
            .ok_or_else(|| ExecError::MissingKernel(kernel.name.clone()))?;
        // Private/local arrays declared in the body allocate scratch buffers;
        // remember how many buffers existed so they can be freed afterwards.
        let base_buffers = self.buffers.len();
        self.exec_block(body, &mut env, 0)?;
        self.buffers.truncate(base_buffers);
        Ok(())
    }

    fn tick(&mut self, n: u64) -> Result<(), ExecError> {
        self.counts.instructions += n;
        self.steps_this_item += n;
        if self.steps_this_item > self.limits.steps_per_work_item {
            Err(ExecError::StepLimitExceeded)
        } else if self.limits.total_steps > 0 && self.counts.instructions > self.limits.total_steps
        {
            Err(ExecError::TotalStepLimitExceeded)
        } else {
            Ok(())
        }
    }

    // ----- environment ----------------------------------------------------

    fn lookup(&self, env: &Env, name: &str) -> Option<Value> {
        for scope in env.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn assign_var(&mut self, env: &mut Env, name: &str, value: Value) {
        for scope in env.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return;
            }
        }
        // Undeclared (should not happen for sema-clean kernels): declare in the
        // innermost scope so execution can continue.
        env.last_mut()
            .expect("env never empty")
            .insert(name.to_string(), value);
    }

    // ----- statements -------------------------------------------------------

    fn exec_block(
        &mut self,
        block: &Block,
        env: &mut Env,
        depth: usize,
    ) -> Result<Flow, ExecError> {
        env.push(HashMap::new());
        let mut flow = Flow::Normal;
        for stmt in &block.stmts {
            flow = self.exec_stmt(stmt, env, depth)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        env.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env, depth: usize) -> Result<Flow, ExecError> {
        match stmt {
            Stmt::Block(b) => self.exec_block(b, env, depth),
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Error(_) => Err(ExecError::error_statement()),
            Stmt::Decl(d) => {
                self.exec_decl(d, env, depth)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, env, depth)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.counts.branches += 1;
                self.tick(1)?;
                let c = self.eval(cond, env, depth)?.as_bool();
                if c {
                    self.exec_stmt(then_branch, env, depth)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e, env, depth)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                env.push(HashMap::new());
                if let Some(init) = init {
                    self.exec_stmt(init, env, depth)?;
                }
                let result = loop {
                    self.counts.branches += 1;
                    self.tick(1)?;
                    let keep_going = match cond {
                        Some(c) => self.eval(c, env, depth)?.as_bool(),
                        None => true,
                    };
                    if !keep_going {
                        break Flow::Normal;
                    }
                    match self.exec_stmt(body, env, depth)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return(v) => break Flow::Return(v),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(step) = step {
                        self.eval(step, env, depth)?;
                    }
                };
                env.pop();
                Ok(result)
            }
            Stmt::While { cond, body } => {
                loop {
                    self.counts.branches += 1;
                    self.tick(1)?;
                    if !self.eval(cond, env, depth)?.as_bool() {
                        break;
                    }
                    match self.exec_stmt(body, env, depth)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    match self.exec_stmt(body, env, depth)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    self.counts.branches += 1;
                    self.tick(1)?;
                    if !self.eval(cond, env, depth)?.as_bool() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Switch { cond, cases } => {
                self.counts.branches += 1;
                self.tick(1)?;
                let scrutinee = self.eval(cond, env, depth)?.as_scalar().as_i64();
                // Find the matching case (or default), then fall through until a
                // break, matching C semantics.
                let mut start = None;
                for (i, case) in cases.iter().enumerate() {
                    match &case.value {
                        Some(v) => {
                            let val = self.eval(v, env, depth)?.as_scalar().as_i64();
                            if val == scrutinee {
                                start = Some(i);
                                break;
                            }
                        }
                        None => {
                            if start.is_none() {
                                start = Some(i);
                            }
                        }
                    }
                }
                if let Some(start) = start {
                    'cases: for case in &cases[start..] {
                        for stmt in &case.body {
                            match self.exec_stmt(stmt, env, depth)? {
                                Flow::Break => break 'cases,
                                Flow::Return(v) => return Ok(Flow::Return(v)),
                                Flow::Normal | Flow::Continue => {}
                            }
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                self.tick(1)?;
                let v = match value {
                    Some(e) => self.eval(e, env, depth)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn exec_decl(&mut self, d: &Declaration, env: &mut Env, depth: usize) -> Result<(), ExecError> {
        for v in &d.vars {
            self.tick(1)?;
            let value = match (&v.ty, &v.init) {
                (Type::Array { .. }, _) => {
                    // Allocate a scratch buffer for the array. Hostile sources
                    // can declare arrays whose element product overflows usize
                    // or is simply absurd, or declare a modest one in a loop;
                    // all become a typed error rather than an allocation
                    // panic/OOM.
                    let (elem, lanes, dims) = array_shape(&v.ty);
                    let elements =
                        claim_scratch(&mut self.scratch_live, &v.name, scratch_elements(&dims))?;
                    let space = if d.address_space == AddressSpace::Local {
                        BufferSpace::Local
                    } else {
                        BufferSpace::Private
                    };
                    let idx = self.buffers.len();
                    self.buffers
                        .push(Buffer::zeroed(elem, lanes, elements, space));
                    Value::Ptr(PtrValue {
                        buffer: idx,
                        offset: 0,
                        dims: if dims.len() > 1 {
                            dims[1..].to_vec()
                        } else {
                            vec![]
                        },
                    })
                }
                (_, Some(init)) => {
                    let val = self.eval(init, env, depth)?;
                    coerce_to_type(val, &v.ty)
                }
                (ty, None) => default_value(ty),
            };
            env.last_mut()
                .expect("env never empty")
                .insert(v.name.clone(), value);
        }
        Ok(())
    }

    // ----- expressions ------------------------------------------------------

    fn eval(&mut self, e: &Expr, env: &mut Env, depth: usize) -> Result<Value, ExecError> {
        match e {
            Expr::IntLit { value, .. } => Ok(Value::int(*value)),
            Expr::Error(_) => Err(ExecError::error_expression()),
            Expr::FloatLit { value, .. } => Ok(Value::float(*value)),
            Expr::CharLit(c) => Ok(Value::int(*c as i64)),
            Expr::StrLit(_) => Ok(Value::int(0)),
            Expr::Ident(name) => self
                .lookup(env, name)
                .or_else(|| value::builtin_constant(name).map(Value::Scalar))
                .ok_or_else(|| ExecError::unbound_identifier(name)),
            Expr::Binary { op, lhs, rhs } => {
                self.tick(1)?;
                if op.is_arithmetic() {
                    self.counts.compute_ops += 1;
                }
                if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
                    self.counts.branches += 1;
                    // short-circuit evaluation
                    let l = self.eval(lhs, env, depth)?.as_bool();
                    let result = match op {
                        BinOp::LogAnd => l && self.eval(rhs, env, depth)?.as_bool(),
                        _ => l || self.eval(rhs, env, depth)?.as_bool(),
                    };
                    return Ok(Value::int(i64::from(result)));
                }
                let l = self.eval(lhs, env, depth)?;
                let r = self.eval(rhs, env, depth)?;
                Ok(apply_binop(*op, &l, &r))
            }
            Expr::Unary { op, expr } => {
                self.tick(1)?;
                match op {
                    UnOp::Deref => {
                        let v = self.eval(expr, env, depth)?;
                        if let Value::Ptr(p) = v {
                            Ok(self.load_ptr(&p))
                        } else {
                            Ok(v)
                        }
                    }
                    UnOp::AddrOf => {
                        // Address of an lvalue: produce a pointer when possible.
                        match self.eval_place(expr, env, depth)? {
                            Some(Place::BufferElem { buffer, index, .. }) => {
                                Ok(Value::Ptr(PtrValue {
                                    buffer,
                                    offset: index,
                                    dims: vec![],
                                }))
                            }
                            _ => Ok(Value::int(0)),
                        }
                    }
                    UnOp::PreInc | UnOp::PreDec => {
                        let delta = if *op == UnOp::PreInc { 1 } else { -1 };
                        self.counts.compute_ops += 1;
                        let current = self.eval(expr, env, depth)?;
                        let updated = apply_binop(BinOp::Add, &current, &Value::int(delta));
                        self.store_to(expr, updated.clone(), env, depth)?;
                        Ok(updated)
                    }
                    UnOp::Neg => {
                        self.counts.compute_ops += 1;
                        let v = self.eval(expr, env, depth)?;
                        Ok(value::negate(&v))
                    }
                    UnOp::Plus => self.eval(expr, env, depth),
                    UnOp::Not => {
                        let v = self.eval(expr, env, depth)?;
                        Ok(Value::int(i64::from(!v.as_bool())))
                    }
                    UnOp::BitNot => {
                        self.counts.compute_ops += 1;
                        let v = self.eval(expr, env, depth)?;
                        Ok(value::bit_not(&v))
                    }
                }
            }
            Expr::Postfix { expr, inc } => {
                self.tick(1)?;
                self.counts.compute_ops += 1;
                let current = self.eval(expr, env, depth)?;
                let delta = if *inc { 1 } else { -1 };
                let updated = apply_binop(BinOp::Add, &current, &Value::int(delta));
                self.store_to(expr, updated, env, depth)?;
                Ok(current)
            }
            Expr::Assign { op, lhs, rhs } => {
                self.tick(1)?;
                let rhs_val = self.eval(rhs, env, depth)?;
                let value = match op.binary_op() {
                    None => rhs_val,
                    Some(bin) => {
                        self.counts.compute_ops += 1;
                        let current = self.eval(lhs, env, depth)?;
                        apply_binop(bin, &current, &rhs_val)
                    }
                };
                self.store_to(lhs, value.clone(), env, depth)?;
                Ok(value)
            }
            Expr::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                self.tick(1)?;
                self.counts.branches += 1;
                if self.eval(cond, env, depth)?.as_bool() {
                    self.eval(then_expr, env, depth)
                } else {
                    self.eval(else_expr, env, depth)
                }
            }
            Expr::Call { callee, args } => self.eval_call(callee, args, env, depth),
            Expr::Index { .. } | Expr::Member { .. } => {
                self.tick(1)?;
                match self.eval_place(e, env, depth)? {
                    Some(place) => Ok(self.load_place(&place, env)),
                    None => Ok(Value::int(0)),
                }
            }
            Expr::Cast { ty, expr } => {
                let v = self.eval(expr, env, depth)?;
                Ok(coerce_to_type(v, ty))
            }
            Expr::VectorLit { ty, elems } => {
                self.tick(1)?;
                let mut values = Vec::with_capacity(elems.len());
                for e in elems {
                    values.push(self.eval(e, env, depth)?);
                }
                Ok(value::vector_literal(ty, values.into_iter()))
            }
            Expr::SizeOf { ty, expr } => {
                let size = match (ty, expr) {
                    (Some(ty), _) => ty.size_bytes(),
                    (None, Some(_)) => 4,
                    (None, None) => 4,
                };
                Ok(Value::int(size as i64))
            }
            Expr::Comma(elems) => {
                let mut last = Value::Void;
                for e in elems {
                    last = self.eval(e, env, depth)?;
                }
                Ok(last)
            }
        }
    }

    /// Evaluate an expression used as an assignment target.
    fn store_to(
        &mut self,
        lhs: &Expr,
        value: Value,
        env: &mut Env,
        depth: usize,
    ) -> Result<(), ExecError> {
        match self.eval_place(lhs, env, depth)? {
            Some(Place::Var { name, lane }) => {
                match lane {
                    None => self.assign_var(env, &name, value),
                    Some(lane) => {
                        let mut current = self.lookup(env, &name).unwrap_or(Value::int(0));
                        if let Value::Vector(v) = &mut current {
                            if lane < v.len() {
                                v[lane] = value.as_scalar();
                            }
                        } else {
                            current = value;
                        }
                        self.assign_var(env, &name, current);
                    }
                }
                Ok(())
            }
            Some(Place::BufferElem {
                buffer,
                index,
                lane,
            }) => {
                self.record_access(buffer, index, true);
                if let Some(buf) = self.buffers.get_mut(buffer) {
                    match lane {
                        None => buf.store(index, &value),
                        Some(lane) => buf.store_lane(index, lane, value.as_scalar()),
                    }
                }
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Resolve an expression to a place, if it denotes one.
    fn eval_place(
        &mut self,
        e: &Expr,
        env: &mut Env,
        depth: usize,
    ) -> Result<Option<Place>, ExecError> {
        match e {
            Expr::Ident(name) => Ok(Some(Place::Var {
                name: name.clone(),
                lane: None,
            })),
            Expr::Unary {
                op: UnOp::Deref,
                expr,
            } => {
                let v = self.eval(expr, env, depth)?;
                if let Value::Ptr(p) = v {
                    Ok(Some(Place::BufferElem {
                        buffer: p.buffer,
                        index: p.offset,
                        lane: None,
                    }))
                } else {
                    Ok(None)
                }
            }
            Expr::Index { base, index } => {
                let base_val = self.eval(base, env, depth)?;
                let idx = self.eval(index, env, depth)?.as_scalar().as_i64();
                match base_val {
                    Value::Ptr(p) => {
                        let stride = p.dims.iter().product::<usize>().max(1) as i64;
                        // A subscript that selects a row of a
                        // multi-dimensional array is not an element access.
                        if (p.dims.is_empty() || stride == 1)
                            && value::is_coalesced(idx, self.work_item.linear_global_id())
                        {
                            self.counts.coalesced_accesses += 1;
                        }
                        Ok(Some(Place::BufferElem {
                            buffer: p.buffer,
                            index: value::element_index(p.offset, idx, stride),
                            lane: None,
                        }))
                    }
                    Value::Vector(_) => {
                        // Indexing a vector value: treat as lane access on the
                        // base variable when the base is a simple identifier.
                        if let Expr::Ident(name) = &**base {
                            Ok(Some(Place::Var {
                                name: name.clone(),
                                lane: Some(idx.max(0) as usize),
                            }))
                        } else {
                            Ok(None)
                        }
                    }
                    _ => Ok(None),
                }
            }
            Expr::Member { base, member, .. } => {
                if !is_vector_component(member) {
                    // Struct member accesses are not supported as stores; loads
                    // return 0 via eval_place -> None.
                    return Ok(None);
                }
                let lane = component_lane(member);
                match &**base {
                    Expr::Ident(name) => Ok(Some(Place::Var {
                        name: name.clone(),
                        lane: Some(lane),
                    })),
                    Expr::Index { .. } => {
                        let inner = self.eval_place(base, env, depth)?;
                        match inner {
                            Some(Place::BufferElem { buffer, index, .. }) => {
                                Ok(Some(Place::BufferElem {
                                    buffer,
                                    index,
                                    lane: Some(lane),
                                }))
                            }
                            other => Ok(other),
                        }
                    }
                    _ => Ok(None),
                }
            }
            _ => Ok(None),
        }
    }

    fn load_place(&mut self, place: &Place, env: &Env) -> Value {
        match place {
            Place::Var { name, lane } => {
                let v = self.lookup(env, name).unwrap_or(Value::int(0));
                match lane {
                    None => v,
                    Some(l) => Value::Scalar(v.lane(*l)),
                }
            }
            Place::BufferElem {
                buffer,
                index,
                lane,
            } => {
                self.record_access(*buffer, *index, false);
                match self.buffers.get(*buffer) {
                    None => Value::int(0),
                    Some(buf) => match lane {
                        None => buf.load(*index),
                        Some(l) => Value::Scalar(buf.load_lane(*index, *l)),
                    },
                }
            }
        }
    }

    fn load_ptr(&mut self, p: &PtrValue) -> Value {
        self.record_access(p.buffer, p.offset, false);
        self.buffers
            .get(p.buffer)
            .map(|b| b.load(p.offset))
            .unwrap_or(Value::int(0))
    }

    fn record_access(&mut self, buffer: usize, index: i64, is_store: bool) {
        let Some(buf) = self.buffers.get(buffer) else {
            return;
        };
        if index < 0 || index as usize >= buf.elements().max(1) {
            self.counts.out_of_bounds += 1;
        }
        match buf.space {
            BufferSpace::Global | BufferSpace::Constant => {
                if is_store {
                    self.counts.global_stores += 1;
                } else {
                    self.counts.global_loads += 1;
                }
            }
            BufferSpace::Local => self.counts.local_accesses += 1,
            BufferSpace::Private => {}
        }
    }

    // ----- calls ------------------------------------------------------------

    fn eval_call(
        &mut self,
        callee: &str,
        args: &[Expr],
        env: &mut Env,
        depth: usize,
    ) -> Result<Value, ExecError> {
        self.tick(1)?;
        // Work-item functions first (cheap, extremely common).
        if let Some(kind) = builtin_function_kind(callee) {
            return self.eval_builtin(callee, kind, args, env, depth);
        }
        // User-defined function.
        let func = self
            .unit
            .function(callee)
            .ok_or_else(|| ExecError::unknown_function(callee))?
            .clone();
        if depth > MAX_CALL_DEPTH {
            return Err(ExecError::call_depth_exceeded());
        }
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval(a, env, depth)?);
        }
        let mut callee_env: Env = vec![HashMap::new()];
        // The callee still needs access to file-scope constants; copy the
        // outermost scope (cheap: only globals and kernel args live there).
        callee_env[0] = env[0].clone();
        callee_env.push(HashMap::new());
        for (param, value) in func.params.iter().zip(arg_values) {
            let v = coerce_to_type(value, &param.ty);
            callee_env
                .last_mut()
                .expect("scope")
                .insert(param.name.clone(), v);
        }
        let body = match &func.body {
            Some(b) => b.clone(),
            None => return Ok(Value::int(0)),
        };
        match self.exec_block(&body, &mut callee_env, depth + 1)? {
            Flow::Return(v) => Ok(coerce_to_type(v, &func.return_type)),
            _ => Ok(Value::int(0)),
        }
    }

    fn eval_builtin(
        &mut self,
        callee: &str,
        kind: BuiltinKind,
        args: &[Expr],
        env: &mut Env,
        depth: usize,
    ) -> Result<Value, ExecError> {
        match kind {
            BuiltinKind::WorkItem => {
                let dim = match args.first() {
                    Some(arg) => self.eval(arg, env, depth)?.as_scalar().as_i64(),
                    None => 0,
                };
                let f = WorkItemFn::from_name(callee);
                Ok(Value::int(self.work_item.query(f, dim)))
            }
            BuiltinKind::Sync => {
                self.counts.barriers += 1;
                // Evaluate arguments for their side effects (they rarely have
                // any) and continue: sequential execution makes barriers no-ops.
                for a in args {
                    self.eval(a, env, depth)?;
                }
                Ok(Value::Void)
            }
            BuiltinKind::Math => {
                self.counts.math_calls += 1;
                self.counts.compute_ops += 1;
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, env, depth)?);
                }
                Ok(apply_math(MathFn::from_name(callee), &values))
            }
            BuiltinKind::Atomic => {
                self.counts.compute_ops += 1;
                let target = args
                    .first()
                    .ok_or_else(|| ExecError::atomic_without_pointer(callee))?;
                let ptr = self.eval(target, env, depth)?;
                let operand = match args.get(1) {
                    Some(arg) => self.eval(arg, env, depth)?.as_scalar().as_i64(),
                    None => 1,
                };
                let Value::Ptr(p) = ptr else {
                    return Ok(Value::int(0));
                };
                let op = AtomicOp::from_name(callee);
                let old = self.load_ptr(&p).as_scalar().as_i64();
                let desired = match args.get(2) {
                    Some(arg) if op == AtomicOp::CmpXchg => {
                        self.eval(arg, env, depth)?.as_scalar().as_i64()
                    }
                    _ => operand,
                };
                self.record_access(p.buffer, p.offset, true);
                if let Some(buf) = self.buffers.get_mut(p.buffer) {
                    buf.store(p.offset, &Value::int(op.apply(old, operand, desired)));
                }
                Ok(Value::int(old))
            }
            BuiltinKind::Convert => {
                let v = match args.first() {
                    Some(arg) => self.eval(arg, env, depth)?,
                    None => Value::int(0),
                };
                Ok(match value::convert_target(callee) {
                    Some(ty) => coerce_to_type(v, &ty),
                    None => v,
                })
            }
            BuiltinKind::VectorData => {
                // vloadN(offset, ptr) and vstoreN(data, offset, ptr).
                let f = VectorDataFn::from_name(callee).map_err(ExecError::Unsupported)?;
                if f.load && args.len() >= 2 {
                    let offset = self.eval(&args[0], env, depth)?.as_scalar().as_i64();
                    let ptr = self.eval(&args[1], env, depth)?;
                    if let Value::Ptr(p) = ptr {
                        let mut v = Vec::with_capacity(f.lanes);
                        for lane in 0..f.lanes {
                            let pv = PtrValue {
                                buffer: p.buffer,
                                offset: value::vector_data_index(offset, f.lanes, lane),
                                dims: vec![],
                            };
                            v.push(self.load_ptr(&pv).as_scalar());
                        }
                        return Ok(Value::Vector(v));
                    }
                    return Ok(Value::int(0));
                }
                if !f.load && args.len() >= 3 {
                    let data = self.eval(&args[0], env, depth)?;
                    let offset = self.eval(&args[1], env, depth)?.as_scalar().as_i64();
                    let ptr = self.eval(&args[2], env, depth)?;
                    if let Value::Ptr(p) = ptr {
                        for lane in 0..f.lanes {
                            let index = value::vector_data_index(offset, f.lanes, lane);
                            self.record_access(p.buffer, index, true);
                            if let Some(buf) = self.buffers.get_mut(p.buffer) {
                                buf.store(index, &Value::Scalar(data.lane(lane)));
                            }
                        }
                    }
                    return Ok(Value::Void);
                }
                Ok(Value::int(0))
            }
            BuiltinKind::Image | BuiltinKind::Async | BuiltinKind::Other => {
                // Evaluate arguments for side effects; images and async copies
                // are outside the supported subset (CLgen never generates them).
                for a in args {
                    self.eval(a, env, depth)?;
                }
                Ok(Value::int(0))
            }
        }
    }
}
