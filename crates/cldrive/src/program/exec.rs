//! Running a [`Program`]: the NDRange loop and the dispatch loop.
//!
//! Registers are 16-byte `Copy` values in one flat file; a frame is a window
//! of it. A vector register's lanes live beside the file, at the same index,
//! so the scalar paths never pay for them. Operations try the all-scalar case
//! first and fall back to [`Val`], an owned value the shared value layer
//! ([`crate::value`]) computes with.

use super::{Chain, Launch, Missing, Op, Program, Slot, VarRef, CHAIN, NONE};
use crate::interp::{
    bind_args, claim_scratch, sampled_fraction, unbind_args, ArgBinding, BoundArg, ExecError,
    ExecLimits, ExecutionCounts, LaunchResult, NDRange, MAX_CALL_DEPTH,
};
use crate::runtime::{Buffer, BufferSpace, Scalar};
use crate::value::{
    self, apply_binop, apply_math, coerce_to_type, default_value, int_binop, scalar_binop,
    MathShape, Operand, WorkItem, MAX_LANES,
};
use cl_frontend::ast::{BinOp, Type};

pub(super) fn launch(
    program: &Program,
    args: Vec<ArgBinding>,
    ndrange: NDRange,
    limits: &ExecLimits,
) -> Launch {
    let (buffers, bound) = match bind_args(&program.kernel_name, &program.params, args) {
        Ok(bound) => bound,
        Err(e) => {
            return Launch {
                result: Err(e),
                steps: 0,
            }
        }
    };
    let mut exec = Exec::new(program, buffers, limits);
    let result = exec.run(&bound, ndrange);
    let steps = exec.m.counts.instructions;
    Launch {
        result: result.map(|executed| {
            exec.m.counts.work_items_executed = executed as u64;
            LaunchResult {
                args: unbind_args(exec.m.mem, &bound),
                counts: exec.m.counts,
                sampled_fraction: sampled_fraction(executed, &ndrange),
            }
        }),
        steps,
    }
}

/// A 24-bit unsigned integer: an array stride, which the scratch allowance
/// keeps below 2^22.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct U24([u8; 3]);

impl U24 {
    const ONE: U24 = U24([1, 0, 0]);

    fn new(v: u32) -> U24 {
        let [a, b, c, _] = v.to_le_bytes();
        U24([a, b, c])
    }

    fn get(self) -> i64 {
        let [a, b, c] = self.0;
        i64::from(u32::from_le_bytes([a, b, c, 0]))
    }
}

/// A register.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reg {
    I(i64),
    F(f64),
    /// A pointer to element `offset` of buffer `buffer`; subscripting it
    /// moves `stride` elements (more than 1 only for the rows of a
    /// multi-dimensional array).
    Ptr {
        buffer: u32,
        stride: U24,
        offset: i64,
    },
    /// A vector of `len` lanes, held in the lane store at this register's
    /// index.
    Vector {
        len: u8,
    },
    Void,
    /// A conditionally-declared variable whose declaration has not run.
    Unbound,
}

const _: () = assert!(std::mem::size_of::<Reg>() == 16);

impl From<Scalar> for Reg {
    fn from(s: Scalar) -> Reg {
        match s {
            Scalar::I(v) => Reg::I(v),
            Scalar::F(v) => Reg::F(v),
        }
    }
}

type LaneStore = [Scalar; MAX_LANES];

/// An owned value of any kind: what a register (and its lanes) holds, in the
/// form the value layer computes with. Only the slow paths build one, and a
/// vector's lanes inline are what keeps them off the heap.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::large_enum_variant)]
enum Val {
    Scalar(Scalar),
    Vector {
        len: u8,
        lanes: LaneStore,
    },
    Ptr {
        buffer: u32,
        stride: U24,
        offset: i64,
    },
    Void,
}

impl Operand for Val {
    fn from_scalar(s: Scalar) -> Val {
        Val::Scalar(s)
    }
    fn from_lanes(n: usize, mut lane: impl FnMut(usize) -> Scalar) -> Val {
        let len = n.min(MAX_LANES);
        let mut lanes = [Scalar::I(0); MAX_LANES];
        for (i, slot) in lanes.iter_mut().enumerate().take(len) {
            *slot = lane(i);
        }
        Val::Vector {
            len: len as u8,
            lanes,
        }
    }
    fn as_scalar(&self) -> Scalar {
        match self {
            Val::Scalar(s) => *s,
            Val::Vector { len, lanes } => {
                if *len > 0 {
                    lanes[0]
                } else {
                    Scalar::I(0)
                }
            }
            Val::Ptr { offset, .. } => Scalar::I(*offset),
            Val::Void => Scalar::I(0),
        }
    }
    fn is_vector(&self) -> bool {
        matches!(self, Val::Vector { .. })
    }
    fn lanes(&self) -> usize {
        match self {
            Val::Vector { len, .. } => *len as usize,
            _ => 1,
        }
    }
    fn lane(&self, i: usize) -> Scalar {
        match self {
            Val::Vector { len, lanes } => {
                if i < *len as usize {
                    lanes[i]
                } else {
                    Scalar::I(0)
                }
            }
            other => other.as_scalar(),
        }
    }
    fn ptr_offset(&self) -> Option<i64> {
        match self {
            Val::Ptr { offset, .. } => Some(*offset),
            _ => None,
        }
    }
    fn with_ptr_offset(&self, offset: i64) -> Val {
        match *self {
            Val::Ptr { buffer, stride, .. } => Val::Ptr {
                buffer,
                stride,
                offset,
            },
            other => other,
        }
    }
}

/// A suspended caller.
#[derive(Debug, Clone, Copy)]
struct Frame {
    return_to: usize,
    base: usize,
    dst: Slot,
    /// The function that was called (for its return type).
    func: u32,
}

/// The register file: registers, and beside them the lanes of those that
/// hold vectors. A borrowed view, so the dispatch loop can keep the slice in
/// machine registers and lend it to the slow paths.
struct File<'a> {
    regs: &'a mut [Reg],
    lanes: &'a mut Vec<LaneStore>,
}

impl File<'_> {
    fn lanes_at(&mut self, at: usize) -> &mut LaneStore {
        if self.lanes.len() <= at {
            self.lanes.resize(at + 1, [Scalar::I(0); MAX_LANES]);
        }
        &mut self.lanes[at]
    }

    /// The value of the register at absolute index `at`.
    fn get(&self, at: usize) -> Val {
        match self.regs[at] {
            Reg::I(v) => Val::Scalar(Scalar::I(v)),
            Reg::F(v) => Val::Scalar(Scalar::F(v)),
            Reg::Ptr {
                buffer,
                stride,
                offset,
            } => Val::Ptr {
                buffer,
                stride,
                offset,
            },
            Reg::Vector { len } => Val::Vector {
                len,
                lanes: self.lanes[at],
            },
            Reg::Void | Reg::Unbound => Val::Void,
        }
    }

    fn set(&mut self, at: usize, value: Val) {
        self.regs[at] = match value {
            Val::Scalar(s) => s.into(),
            Val::Ptr {
                buffer,
                stride,
                offset,
            } => Reg::Ptr {
                buffer,
                stride,
                offset,
            },
            Val::Vector { len, lanes } => {
                *self.lanes_at(at) = lanes;
                Reg::Vector { len }
            }
            Val::Void => Reg::Void,
        };
    }

    fn copy(&mut self, dst: usize, src: usize) {
        let reg = self.regs[src];
        if let Reg::Vector { .. } = reg {
            let lanes = self.lanes[src];
            *self.lanes_at(dst) = lanes;
        }
        self.regs[dst] = reg;
    }

    /// The scalar content of a register (`Value::as_scalar`).
    fn scalar(&self, at: usize) -> Scalar {
        match self.regs[at] {
            Reg::I(v) => Scalar::I(v),
            Reg::F(v) => Scalar::F(v),
            Reg::Ptr { offset, .. } => Scalar::I(offset),
            Reg::Vector { len } if len > 0 => self.lanes[at][0],
            Reg::Vector { .. } | Reg::Void | Reg::Unbound => Scalar::I(0),
        }
    }

    fn is_vector(&self, at: usize) -> bool {
        matches!(self.regs[at], Reg::Vector { .. })
    }

    // ----- variables bound at run time --------------------------------------

    /// The register currently bound to the chain's name, if any.
    fn bound(&self, base: usize, chain: &Chain) -> Option<usize> {
        chain
            .candidates
            .iter()
            .map(|&slot| base + slot as usize)
            .find(|&at| self.regs[at] != Reg::Unbound)
            .or(chain.bound.map(|slot| base + slot as usize))
    }

    /// The register a place operation finds `var` in. A write binds the name
    /// in the innermost scope when nothing holds it yet.
    fn var_at(&self, chains: &[Chain], base: usize, var: VarRef, write: bool) -> Option<usize> {
        match var {
            NONE => None,
            var if var & CHAIN != 0 => {
                let chain = &chains[(var & !CHAIN) as usize];
                let implicit = Some(chain.implicit).filter(|&slot| write && slot != NONE);
                self.bound(base, chain)
                    .or(implicit.map(|slot| base + slot as usize))
            }
            slot => Some(base + slot as usize),
        }
    }

    /// `var.<lane> = value`: a vector gets the lane replaced (if it has it),
    /// anything else is replaced whole.
    fn set_lane(&mut self, chains: &[Chain], base: usize, var: VarRef, lane: usize, src: usize) {
        let Some(dst) = self.var_at(chains, base, var, true) else {
            return;
        };
        let current = self
            .var_at(chains, base, var, false)
            .map_or(Reg::I(0), |at| self.regs[at]);
        match current {
            Reg::Vector { len } => {
                if lane < len as usize {
                    let value = self.scalar(src);
                    self.lanes_at(dst)[lane] = value;
                }
            }
            _ => self.copy(dst, src),
        }
    }

    fn get_lane(&self, chains: &[Chain], base: usize, var: VarRef, lane: usize) -> Reg {
        match self.var_at(chains, base, var, false) {
            Some(at) => self.get(at).lane(lane).into(),
            None => Reg::I(0),
        }
    }

    // ----- the slow halves of the arithmetic operations ----------------------

    /// `dst = a op b`.
    fn binary(&mut self, op: BinOp, dst: usize, a: usize, b: &Val) {
        let value = apply_binop(op, &self.get(a), b);
        self.set(dst, value);
    }

    /// `dst = -src` or `dst = ~src`.
    fn unary(&mut self, dst: usize, src: usize, negate: bool) {
        if self.is_vector(src) {
            let v = self.get(src);
            let value = if negate {
                value::negate(&v)
            } else {
                value::bit_not(&v)
            };
            self.set(dst, value);
        } else {
            let s = self.scalar(src);
            self.regs[dst] = if negate {
                value::negate_scalar(s)
            } else {
                value::bit_not_scalar(s)
            }
            .into();
        }
    }

    /// `dst = (ty) src`.
    fn coerce(&mut self, dst: usize, src: usize, ty: &Type) {
        match ty {
            Type::Scalar(s) => self.regs[dst] = self.scalar(src).convert_to(*s).into(),
            Type::Vector(..) => {
                let value = coerce_to_type(self.get(src), ty);
                self.set(dst, value);
            }
            _ => self.copy(dst, src),
        }
    }
}

impl Reg {
    /// The register's content when it is a plain number.
    #[inline(always)]
    fn number(self) -> Option<Scalar> {
        if let Reg::I(v) = self {
            Some(Scalar::I(v))
        } else if let Reg::F(v) = self {
            Some(Scalar::F(v))
        } else {
            None
        }
    }
}

/// Everything a launch holds besides the register file.
struct Machine<'p> {
    program: &'p Program,
    /// Argument buffers, then the running work item's scratch arrays.
    mem: Vec<Buffer>,
    arg_buffers: usize,
    scratch_live: usize,
    counts: ExecutionCounts,
    /// `counts.instructions` when the running work item began.
    item_start: u64,
    /// `counts.instructions` beyond which a budget is exhausted.
    item_end: u64,
    limits: ExecLimits,
    item: WorkItem,
    linear_global_id: i64,
}

impl Machine<'_> {
    /// Count one access to element `index` of `buffer`.
    fn record_access(&mut self, buffer: u32, index: i64, is_store: bool) {
        let buf = &self.mem[buffer as usize];
        if index < 0 || index as usize >= buf.elements().max(1) {
            self.counts.out_of_bounds += 1;
        }
        count_access(&mut self.counts, buf.space, is_store);
    }

    /// The fast path of a subscript: the element `pointer[idx]` touches when
    /// the buffer holds scalars (and is not empty) — counted as
    /// [`Machine::element`] and [`Machine::record_access`] would, or not at
    /// all (`None`: take the general path).
    #[inline(always)]
    fn scalar_element(
        &mut self,
        pointer: Reg,
        idx: i64,
        is_store: bool,
    ) -> Option<(&mut Buffer, usize)> {
        let Reg::Ptr { buffer, .. } = pointer else {
            return None;
        };
        let buf = &self.mem[buffer as usize];
        if buf.lanes != 1 || buf.data.is_empty() {
            return None;
        }
        let (buffer, index) = self.element(pointer, idx)?;
        let buf = &mut self.mem[buffer as usize];
        let at = buf.locate(index)?;
        if at as i64 != index {
            self.counts.out_of_bounds += 1;
        }
        count_access(&mut self.counts, buf.space, is_store);
        Some((buf, at))
    }

    /// Load element `index` of `buffer` (lane `lane` of it unless [`NONE`])
    /// into register `dst`, counting the access.
    #[inline]
    fn load(&mut self, file: &mut File, dst: usize, buffer: u32, index: i64, lane: u32) {
        self.record_access(buffer, index, false);
        let buf = &self.mem[buffer as usize];
        match lane {
            NONE => file.set(dst, buf.load_as(index)),
            lane => file.regs[dst] = buf.load_lane(index, lane as usize).into(),
        }
    }

    /// Store register `src` to element `index` of `buffer` (lane `lane` of it
    /// unless [`NONE`]), counting the access.
    #[inline]
    fn store(&mut self, file: &File, buffer: u32, index: i64, lane: u32, src: usize) {
        self.record_access(buffer, index, true);
        let buf = &mut self.mem[buffer as usize];
        match lane {
            NONE => buf.store_from(index, &file.get(src)),
            lane => buf.store_lane(index, lane as usize, file.scalar(src)),
        }
    }

    /// The element `base[idx]` designates when `base` is a pointer, counting
    /// a coalesced access where the subscript tracks the global id.
    #[inline(always)]
    fn element(&mut self, base: Reg, idx: i64) -> Option<(u32, i64)> {
        let Reg::Ptr {
            buffer,
            stride,
            offset,
        } = base
        else {
            return None;
        };
        // A subscript that selects a row of a multi-dimensional array is not
        // an element access at all.
        if stride == U24::ONE && value::is_coalesced(idx, self.linear_global_id) {
            self.counts.coalesced_accesses += 1;
        }
        Some((buffer, value::element_index(offset, idx, stride.get())))
    }

    /// A budget ran out somewhere in the `steps` just charged: which one, and
    /// at which step, tick by tick as the walker would have found.
    #[cold]
    fn budget_error(&mut self, steps: u64) -> ExecError {
        let before = self.counts.instructions - steps;
        let item_at = self
            .item_start
            .saturating_add(self.limits.steps_per_work_item)
            .saturating_add(1);
        let total_at = match self.limits.total_steps {
            0 => u64::MAX,
            total => total.saturating_add(1),
        };
        debug_assert!(item_at.min(total_at) > before);
        self.counts.instructions = item_at.min(total_at);
        if item_at <= total_at {
            ExecError::StepLimitExceeded
        } else {
            ExecError::TotalStepLimitExceeded
        }
    }
}

/// Count one load or store in an address space.
#[inline(always)]
fn count_access(counts: &mut ExecutionCounts, space: BufferSpace, is_store: bool) {
    match space {
        BufferSpace::Global | BufferSpace::Constant if is_store => counts.global_stores += 1,
        BufferSpace::Global | BufferSpace::Constant => counts.global_loads += 1,
        BufferSpace::Local => counts.local_accesses += 1,
        BufferSpace::Private => {}
    }
}

struct Exec<'p> {
    regs: Vec<Reg>,
    lanes: Vec<LaneStore>,
    calls: Vec<Frame>,
    m: Machine<'p>,
}

/// Why the dispatch loop handed control back.
enum Pause {
    /// The work item finished.
    Done,
    /// A call needs a frame (the file may have to grow).
    Call {
        func: u32,
        frame: Slot,
        args: u32,
        dst: Slot,
    },
}

impl<'p> Exec<'p> {
    fn new(program: &'p Program, buffers: Vec<Buffer>, limits: &ExecLimits) -> Exec<'p> {
        Exec {
            regs: vec![Reg::Void; program.funcs[0].frame as usize],
            lanes: Vec::new(),
            calls: Vec::new(),
            m: Machine {
                program,
                arg_buffers: buffers.len(),
                mem: buffers,
                scratch_live: 0,
                counts: ExecutionCounts::default(),
                item_start: 0,
                item_end: 0,
                limits: *limits,
                item: WorkItem::default(),
                linear_global_id: 0,
            },
        }
    }

    /// Run every (sampled) work item, in the walker's order. Returns how
    /// many ran.
    fn run(&mut self, bound: &[BoundArg], ndrange: NDRange) -> Result<usize, ExecError> {
        let sample_budget = match self.m.limits.max_work_items {
            0 => ndrange.work_items(),
            n => n,
        };
        let mut executed = 0usize;
        let groups = [0, 1, 2].map(|d| ndrange.global[d].div_ceil(ndrange.local[d]));
        'launch: for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    // Fresh local memory per work group.
                    for b in self.m.mem.iter_mut() {
                        if b.space == BufferSpace::Local {
                            b.data.fill(Scalar::zero_of(b.elem));
                        }
                    }
                    for lz in 0..ndrange.local[2] {
                        for ly in 0..ndrange.local[1] {
                            for lx in 0..ndrange.local[0] {
                                let group = [gx, gy, gz];
                                let local = [lx, ly, lz];
                                let global =
                                    [0, 1, 2].map(|d| group[d] * ndrange.local[d] + local[d]);
                                if (0..3).any(|d| global[d] >= ndrange.global[d]) {
                                    continue;
                                }
                                if executed >= sample_budget {
                                    break 'launch;
                                }
                                self.m.item = WorkItem {
                                    global,
                                    local,
                                    group,
                                    global_size: ndrange.global,
                                    local_size: ndrange.local,
                                    num_groups: groups,
                                };
                                self.run_item(bound)?;
                                executed += 1;
                            }
                        }
                    }
                }
            }
        }
        Ok(executed)
    }

    fn run_item(&mut self, bound: &[BoundArg]) -> Result<(), ExecError> {
        let program = self.m.program;
        let scope0 = program.params.len();
        let m = &mut self.m;
        m.item_start = m.counts.instructions;
        m.item_end = {
            let item = m.item_start.saturating_add(m.limits.steps_per_work_item);
            match m.limits.total_steps {
                0 => item,
                total => item.min(total),
            }
        };
        m.scratch_live = 0;
        m.linear_global_id = m.item.linear_global_id();
        for (slot, arg) in bound.iter().enumerate() {
            self.regs[slot] = match *arg {
                BoundArg::Buffer(buffer) | BoundArg::LocalBuffer(buffer) => Reg::Ptr {
                    buffer: buffer as u32,
                    stride: U24::ONE,
                    offset: 0,
                },
                BoundArg::Scalar(value) => value.into(),
            };
        }
        let mut base = 0usize;
        let mut pc = program.funcs[0].entry as usize;
        loop {
            match self.dispatch(&mut base, &mut pc)? {
                Pause::Done => break,
                Pause::Call {
                    func,
                    frame,
                    args,
                    dst,
                } => {
                    let callee = &program.funcs[func as usize];
                    let new_base = base + frame as usize;
                    let needed = new_base + callee.frame as usize;
                    if self.regs.len() < needed {
                        self.regs.resize(needed, Reg::Void);
                    }
                    let mut file = File {
                        regs: &mut self.regs,
                        lanes: &mut self.lanes,
                    };
                    // Scope 0 travels by value: a callee sees (and may
                    // change) its own copy of the kernel's arguments.
                    for slot in 0..scope0 {
                        file.copy(new_base + slot, base + slot);
                    }
                    for (i, ty) in callee.params.iter().enumerate() {
                        let at = new_base + scope0 + i;
                        if i < args as usize {
                            file.coerce(at, at, ty);
                        } else {
                            file.regs[at] = Reg::Unbound;
                        }
                    }
                    self.calls.push(Frame {
                        return_to: pc,
                        base,
                        dst,
                        func,
                    });
                    base = new_base;
                    pc = callee.entry as usize;
                }
            }
        }
        // The work item's scratch arrays die with it.
        self.m.mem.truncate(self.m.arg_buffers);
        Ok(())
    }

    /// The dispatch loop: run from `pc` in the frame at `base` until the work
    /// item ends or a call needs a new frame. Only the operations inner loops
    /// are made of are handled here, and only for plain numbers; everything
    /// else is [`Machine::rarely`], out of line, so this loop's state stays in
    /// machine registers.
    fn dispatch(&mut self, base_io: &mut usize, pc_io: &mut usize) -> Result<Pause, ExecError> {
        let m = &mut self.m;
        let program = m.program;
        let code = &program.code[..];
        let consts = &program.consts[..];
        let regs = &mut self.regs[..];
        let lanes = &mut self.lanes;
        let calls = &mut self.calls;
        let mut base = *base_io;
        let mut pc = *pc_io;
        macro_rules! at {
            ($slot:expr) => {
                base + $slot as usize
            };
        }
        loop {
            let at = pc;
            pc += 1;
            // Matching the place (not a copy) loads only the fields the
            // operation reads.
            match code[at] {
                Op::Tick {
                    steps,
                    compute,
                    branches,
                    math,
                    barriers,
                } => {
                    let c = &mut m.counts;
                    c.compute_ops += u64::from(compute);
                    c.branches += u64::from(branches);
                    c.math_calls += u64::from(math);
                    c.barriers += u64::from(barriers);
                    c.instructions += u64::from(steps);
                    if c.instructions > m.item_end {
                        return Err(m.budget_error(u64::from(steps)));
                    }
                    continue;
                }
                Op::Jump { to } => {
                    pc = to as usize;
                    continue;
                }
                Op::JumpIfBin { op, when, a, b, to } => {
                    if let (Some(x), Some(y)) = (regs[at!(a)].number(), regs[at!(b)].number()) {
                        if scalar_binop(op, x, y).as_bool() == when {
                            pc = to as usize;
                        }
                        continue;
                    }
                }
                Op::JumpIfBinConst { op, when, a, k, to } => {
                    if let Some(x) = regs[at!(a)].number() {
                        if scalar_binop(op, x, consts[k as usize]).as_bool() == when {
                            pc = to as usize;
                        }
                        continue;
                    }
                }
                Op::Move { dst, src } => {
                    let reg = regs[at!(src)];
                    if !matches!(reg, Reg::Vector { .. }) {
                        regs[at!(dst)] = reg;
                        continue;
                    }
                }
                Op::Const { dst, k } => {
                    regs[at!(dst)] = consts[k as usize].into();
                    continue;
                }
                Op::Bin { op, dst, a, b } => {
                    let (x, y) = (regs[at!(a)], regs[at!(b)]);
                    if let (Reg::I(x), Reg::I(y)) = (x, y) {
                        regs[at!(dst)] = int_binop(op, x, y).into();
                        continue;
                    } else if let (Some(x), Some(y)) = (x.number(), y.number()) {
                        regs[at!(dst)] = scalar_binop(op, x, y).into();
                        continue;
                    }
                }
                Op::BinConst { op, dst, a, k } => {
                    let (x, y) = (regs[at!(a)], consts[k as usize]);
                    if let (Reg::I(x), Scalar::I(y)) = (x, y) {
                        regs[at!(dst)] = int_binop(op, x, y).into();
                        continue;
                    } else if let Some(x) = x.number() {
                        regs[at!(dst)] = scalar_binop(op, x, y).into();
                        continue;
                    }
                }
                Op::MulAdd {
                    flipped,
                    dst,
                    a,
                    b,
                    c,
                } => {
                    if let (Some(x), Some(y), Some(z)) = (
                        regs[at!(a)].number(),
                        regs[at!(b)].number(),
                        regs[at!(c)].number(),
                    ) {
                        let product = scalar_binop(BinOp::Mul, x, y);
                        regs[at!(dst)] = if flipped {
                            scalar_binop(BinOp::Add, z, product)
                        } else {
                            scalar_binop(BinOp::Add, product, z)
                        }
                        .into();
                        continue;
                    }
                }
                Op::CoerceInt { dst, src } => {
                    if let Some(x) = regs[at!(src)].number() {
                        regs[at!(dst)] = Reg::I(x.as_i64());
                        continue;
                    }
                }
                Op::CoerceFloat { dst, src } => {
                    if let Some(x) = regs[at!(src)].number() {
                        regs[at!(dst)] = Reg::F(x.as_f64());
                        continue;
                    }
                }
                Op::LoadIndex {
                    dst,
                    base: b,
                    idx,
                    lane: NONE,
                    ..
                } => {
                    if let (Reg::Ptr { .. }, Reg::I(idx)) = (regs[at!(b)], regs[at!(idx)]) {
                        if let Some((buf, i)) = m.scalar_element(regs[at!(b)], idx, false) {
                            regs[at!(dst)] = buf.data[i].into();
                            continue;
                        }
                    }
                }
                Op::StoreIndex {
                    base: b,
                    idx,
                    lane: NONE,
                    src,
                    ..
                } => {
                    if let (Reg::Ptr { .. }, Reg::I(idx), Some(value)) =
                        (regs[at!(b)], regs[at!(idx)], regs[at!(src)].number())
                    {
                        if let Some((buf, i)) = m.scalar_element(regs[at!(b)], idx, true) {
                            buf.data[i] = value.convert_to(buf.elem);
                            continue;
                        }
                    }
                }
                Op::WorkItemAt { f, dst, dim } => {
                    regs[at!(dst)] = Reg::I(m.item.query(f, i64::from(dim)));
                    continue;
                }
                _ => {}
            }
            let mut file = File {
                regs: &mut *regs,
                lanes: &mut *lanes,
            };
            if let Some(pause) = m.rarely(&mut file, calls, code[at], &mut base, &mut pc)? {
                *base_io = base;
                *pc_io = pc;
                return Ok(pause);
            }
        }
    }
}

impl Machine<'_> {
    /// Every operation, for every kind of value: what [`Exec::dispatch`]
    /// falls back to. Returns a [`Pause`] when the dispatch loop has to hand
    /// control back.
    #[inline(never)]
    fn rarely(
        &mut self,
        file: &mut File,
        calls: &mut Vec<Frame>,
        op: Op,
        base_io: &mut usize,
        pc: &mut usize,
    ) -> Result<Option<Pause>, ExecError> {
        let m = self;
        let program = m.program;
        let consts = &program.consts[..];
        let chains = &program.chains[..];
        let base = *base_io;
        macro_rules! at {
            ($slot:expr) => {
                base + $slot as usize
            };
        }
        match op {
            Op::Tick { .. } | Op::Jump { .. } | Op::Const { .. } | Op::WorkItemAt { .. } => {
                unreachable!("{op:?} is handled by the dispatch loop")
            }
            Op::JumpIfFalse { cond, to } => {
                if !file.scalar(at!(cond)).as_bool() {
                    *pc = to as usize;
                }
            }
            Op::JumpIfTrue { cond, to } => {
                if file.scalar(at!(cond)).as_bool() {
                    *pc = to as usize;
                }
            }
            Op::JumpIfBin { op, when, a, b, to } => {
                let (lhs, rhs) = (file.get(at!(a)), file.get(at!(b)));
                if apply_binop(op, &lhs, &rhs).as_scalar().as_bool() == when {
                    *pc = to as usize;
                }
            }
            Op::JumpIfBinConst { op, when, a, k, to } => {
                let (lhs, rhs) = (file.get(at!(a)), Val::Scalar(consts[k as usize]));
                if apply_binop(op, &lhs, &rhs).as_scalar().as_bool() == when {
                    *pc = to as usize;
                }
            }
            Op::JumpIfCase {
                scrutinee,
                value,
                to,
            } => {
                let value = file.scalar(at!(value)).as_i64();
                if file.regs[at!(scrutinee)] == Reg::I(value) {
                    *pc = to as usize;
                }
            }
            Op::JumpIfNotPtr { src, to } => {
                if !matches!(file.regs[at!(src)], Reg::Ptr { .. }) {
                    *pc = to as usize;
                }
            }
            Op::Trap { error } => return Err(program.errors[error as usize].clone()),
            Op::CallGuard => {
                if calls.len() > MAX_CALL_DEPTH {
                    return Err(ExecError::call_depth_exceeded());
                }
            }
            Op::Call {
                func,
                frame,
                args,
                dst,
            } => {
                return Ok(Some(Pause::Call {
                    func,
                    frame,
                    args,
                    dst,
                }))
            }
            Op::Return { src } => {
                let Some(frame) = calls.pop() else {
                    return Ok(Some(Pause::Done));
                };
                let ty = &program.funcs[frame.func as usize].return_type;
                file.coerce(frame.base + frame.dst as usize, at!(src), ty);
                *base_io = frame.base;
                *pc = frame.return_to;
            }
            Op::ReturnZero => {
                let Some(frame) = calls.pop() else {
                    return Ok(Some(Pause::Done));
                };
                file.regs[frame.base + frame.dst as usize] = Reg::I(0);
                *base_io = frame.base;
                *pc = frame.return_to;
            }
            Op::Move { dst, src } => file.copy(at!(dst), at!(src)),
            Op::Void { dst } => file.regs[at!(dst)] = Reg::Void,
            Op::Default { dst, ty } => {
                let value = default_value::<Val>(&program.types[ty as usize]);
                file.set(at!(dst), value);
            }
            Op::Unbind { slot } => file.regs[at!(slot)] = Reg::Unbound,
            Op::LoadVar { dst, chain } => {
                let chain = &chains[chain as usize];
                match (file.bound(base, chain), &chain.missing) {
                    (Some(src), _) => file.copy(at!(dst), src),
                    (None, Missing::Value(value)) => file.regs[at!(dst)] = (*value).into(),
                    (None, Missing::Error(e)) => return Err(program.errors[*e as usize].clone()),
                }
            }
            Op::StoreVar { chain, src } => {
                let chain = &chains[chain as usize];
                let dst = file
                    .bound(base, chain)
                    .unwrap_or(base + chain.implicit as usize);
                file.copy(dst, at!(src));
            }
            Op::Bin { op, dst, a, b } => {
                let rhs = file.get(at!(b));
                file.binary(op, at!(dst), at!(a), &rhs);
            }
            Op::BinConst { op, dst, a, k } => {
                file.binary(op, at!(dst), at!(a), &Val::Scalar(consts[k as usize]));
            }
            Op::MulAdd {
                flipped,
                dst,
                a,
                b,
                c,
            } => {
                let product = apply_binop(BinOp::Mul, &file.get(at!(a)), &file.get(at!(b)));
                let c = file.get(at!(c));
                let value = if flipped {
                    apply_binop(BinOp::Add, &c, &product)
                } else {
                    apply_binop(BinOp::Add, &product, &c)
                };
                file.set(at!(dst), value);
            }
            Op::Neg { dst, src } => file.unary(at!(dst), at!(src), true),
            Op::BitNot { dst, src } => file.unary(at!(dst), at!(src), false),
            Op::Not { dst, src } => {
                let truth = file.scalar(at!(src)).as_bool();
                file.regs[at!(dst)] = Reg::I(i64::from(!truth));
            }
            Op::Truth { dst, src } => {
                let truth = file.scalar(at!(src)).as_bool();
                file.regs[at!(dst)] = Reg::I(i64::from(truth));
            }
            Op::CoerceInt { dst, src } => {
                file.regs[at!(dst)] = Reg::I(file.scalar(at!(src)).as_i64());
            }
            Op::CoerceFloat { dst, src } => {
                file.regs[at!(dst)] = Reg::F(file.scalar(at!(src)).as_f64());
            }
            Op::Coerce { dst, src, ty } => {
                file.coerce(at!(dst), at!(src), &program.types[ty as usize])
            }
            Op::VectorLit {
                dst,
                ty,
                first,
                count,
            } => {
                let first = at!(first);
                let elems = (first..first + count as usize).map(|at| file.get(at));
                let value = value::vector_literal(&program.types[ty as usize], elems);
                file.set(at!(dst), value);
            }
            Op::GetLane { dst, var, lane } => {
                file.regs[at!(dst)] = file.get_lane(chains, base, var, lane as usize);
            }
            Op::SetLane { var, lane, src } => {
                file.set_lane(chains, base, var, lane as usize, at!(src))
            }
            Op::LoadIndex {
                dst,
                base: b,
                idx,
                var,
                lane,
            } => {
                let idx = file.scalar(at!(idx)).as_i64();
                let pointer = file.regs[at!(b)];
                if let Some((buffer, index)) = m.element(pointer, idx) {
                    m.load(file, at!(dst), buffer, index, lane);
                } else if matches!(pointer, Reg::Vector { .. }) && var != NONE {
                    // A subscript of a vector variable selects a lane.
                    file.regs[at!(dst)] = file.get_lane(chains, base, var, idx.max(0) as usize);
                } else {
                    file.regs[at!(dst)] = Reg::I(0);
                }
            }
            Op::StoreIndex {
                base: b,
                idx,
                var,
                lane,
                src,
            } => {
                let idx = file.scalar(at!(idx)).as_i64();
                let pointer = file.regs[at!(b)];
                if let Some((buffer, index)) = m.element(pointer, idx) {
                    m.store(file, buffer, index, lane, at!(src));
                } else if matches!(pointer, Reg::Vector { .. }) {
                    file.set_lane(chains, base, var, idx.max(0) as usize, at!(src));
                }
            }
            Op::AddrIndex { dst, base: b, idx } => {
                let idx = file.scalar(at!(idx)).as_i64();
                file.regs[at!(dst)] = match m.element(file.regs[at!(b)], idx) {
                    Some((buffer, offset)) => Reg::Ptr {
                        buffer,
                        stride: U24::ONE,
                        offset,
                    },
                    None => Reg::I(0),
                };
            }
            Op::Deref { dst, src } => match file.regs[at!(src)] {
                Reg::Ptr { buffer, offset, .. } => m.load(file, at!(dst), buffer, offset, NONE),
                _ => file.copy(at!(dst), at!(src)),
            },
            Op::StoreDeref { ptr, src } => {
                if let Reg::Ptr { buffer, offset, .. } = file.regs[at!(ptr)] {
                    m.store(file, buffer, offset, NONE, at!(src));
                }
            }
            Op::AddrDeref { dst, src } => {
                file.regs[at!(dst)] = match file.regs[at!(src)] {
                    Reg::Ptr { buffer, offset, .. } => Reg::Ptr {
                        buffer,
                        stride: U24::ONE,
                        offset,
                    },
                    _ => Reg::I(0),
                };
            }
            Op::Alloc { dst, array } => {
                let array = &program.arrays[array as usize];
                let elements = claim_scratch(&mut m.scratch_live, &array.name, array.elements)?;
                m.mem.push(Buffer::zeroed(
                    array.elem,
                    array.lanes,
                    elements,
                    array.space,
                ));
                file.regs[at!(dst)] = Reg::Ptr {
                    buffer: m.mem.len() as u32 - 1,
                    stride: U24::new(array.stride),
                    offset: 0,
                };
            }
            Op::WorkItem { f, dst, dim } => {
                let dim = file.scalar(at!(dim)).as_i64();
                file.regs[at!(dst)] = Reg::I(m.item.query(f, dim));
            }
            Op::Math { f, dst, a, b, c } => {
                let present = |slot: Slot| (slot != NONE).then(|| base + slot as usize);
                let operands = [present(a), present(b), present(c)];
                let any_vector = operands.iter().flatten().any(|&at| file.is_vector(at));
                if f.shape() != MathShape::Whole && !any_vector {
                    let [a, b, c] =
                        operands.map(|at| at.map_or(Scalar::F(0.0), |at| file.scalar(at)));
                    file.regs[at!(dst)] = f.lane(a, b, c).into();
                } else {
                    let given = operands.iter().flatten().count();
                    let args = operands.map(|at| at.map_or(Val::Void, |at| file.get(at)));
                    let value = apply_math(f, &args[..given]);
                    file.set(at!(dst), value);
                }
            }
            Op::Atomic {
                op,
                dst,
                ptr,
                operand,
                desired,
            } => {
                let int = |slot: Slot, file: &File| {
                    (slot != NONE).then(|| file.scalar(base + slot as usize).as_i64())
                };
                let operand = int(operand, file).unwrap_or(1);
                let desired = int(desired, file).unwrap_or(operand);
                let dst = at!(dst);
                match file.regs[at!(ptr)] {
                    Reg::Ptr { buffer, offset, .. } => {
                        m.load(file, dst, buffer, offset, NONE);
                        let old = file.scalar(dst).as_i64();
                        file.regs[dst] = Reg::I(op.apply(old, operand, desired));
                        m.store(file, buffer, offset, NONE, dst);
                        file.regs[dst] = Reg::I(old);
                    }
                    _ => file.regs[dst] = Reg::I(0),
                }
            }
            Op::VLoad {
                dst,
                lanes: width,
                offset,
                ptr,
            } => {
                let dst = at!(dst);
                let offset = file.scalar(at!(offset)).as_i64();
                match file.regs[at!(ptr)] {
                    Reg::Ptr { buffer, .. } => {
                        let width = width as usize;
                        let mut loaded = [Scalar::I(0); MAX_LANES];
                        for (lane, slot) in loaded.iter_mut().enumerate().take(width) {
                            let index = value::vector_data_index(offset, width, lane);
                            m.load(file, dst, buffer, index, NONE);
                            *slot = file.scalar(dst);
                        }
                        *file.lanes_at(dst) = loaded;
                        file.regs[dst] = Reg::Vector { len: width as u8 };
                    }
                    _ => file.regs[dst] = Reg::I(0),
                }
            }
            Op::VStore {
                lanes: width,
                data,
                offset,
                ptr,
            } => {
                let offset = file.scalar(at!(offset)).as_i64();
                if let Reg::Ptr { buffer, .. } = file.regs[at!(ptr)] {
                    let data = file.get(at!(data));
                    let width = width as usize;
                    for lane in 0..width {
                        let index = value::vector_data_index(offset, width, lane);
                        m.record_access(buffer, index, true);
                        m.mem[buffer as usize].store_from(index, &Val::Scalar(data.lane(lane)));
                    }
                }
            }
        }
        Ok(None)
    }
}
