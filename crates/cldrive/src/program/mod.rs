//! The production executor: a kernel lowered **once** to a flat register
//! bytecode, launched as often as the driver needs.
//!
//! [`Program::lower`] resolves everything the tree-walker
//! ([`crate::reference`]) looks up each time a node executes: identifiers
//! become frame slots, builtin / math / atomic / convert / `vloadN` spellings
//! become enum-keyed operations, user functions become indices, vector
//! components become lane numbers, named constants become immediates and
//! array shapes become strides. [`Program::launch`] then runs one dispatch
//! loop over `Copy` registers — no `String`, `HashMap` or heap `Vec` is
//! touched per step.
//!
//! What the program must *not* change is anything a caller can observe. It
//! runs work items in the walker's order (group-major, `lx` fastest, one at a
//! time — reductions and atomics make the order visible), charges the same
//! steps and the same ten other counters at the same points, and raises the
//! same error at the same dynamic point. Lowering never fails: a construct
//! the walker rejects when *reached* lowers to a trap carrying the same
//! [`ExecError`]. Values are computed by the value layer (`value.rs`), which both
//! executors share.
//!
//! Steps are accounted per straight-line run of operations, not per
//! operation: a run's steps are charged in one `Tick` placed before the first
//! operation that could raise a different error, so budget verdicts (and the
//! step count a killed launch reached) are exactly the walker's.

mod exec;
mod lower;

use crate::interp::{ArgBinding, ExecError, ExecLimits, LaunchResult, NDRange};
use crate::runtime::{BufferSpace, Scalar};
use crate::value::{AtomicOp, MathFn, WorkItemFn};
use cl_frontend::ast::{BinOp, ParamDecl, ScalarType, TranslationUnit, Type};

/// A kernel lowered to bytecode. Immutable once built: one `Program` serves
/// any number of launches, from any number of threads.
#[derive(Debug, Clone, Default)]
pub struct Program {
    kernel_name: String,
    /// The kernel's parameters, for binding launch arguments.
    params: Vec<ParamDecl>,
    /// Every function's code, back to back.
    code: Vec<Op>,
    /// The functions the kernel can reach; `funcs[0]` is the kernel. Empty
    /// when the unit does not define the kernel.
    funcs: Vec<Func>,
    consts: Vec<Scalar>,
    errors: Vec<ExecError>,
    types: Vec<Type>,
    arrays: Vec<ArrayDecl>,
    chains: Vec<Chain>,
}

/// One launch of a [`Program`].
#[derive(Debug, Clone)]
pub struct Launch {
    /// What [`crate::execute`] returns for the same launch.
    pub result: Result<LaunchResult, ExecError>,
    /// Steps the launch consumed: `counts.instructions` when it finished, the
    /// count it had reached when an error cut it short.
    pub steps: u64,
}

impl Program {
    /// Lower kernel `kernel_name` of `unit`, with every function it can
    /// reach. Lowering never fails: a unit that defines no such kernel lowers
    /// to a program every launch of which is [`ExecError::MissingKernel`].
    pub fn lower(unit: &TranslationUnit, kernel_name: &str) -> Program {
        match unit.function(kernel_name).filter(|f| f.is_kernel) {
            Some(kernel) => lower::lower(unit, kernel),
            None => Program {
                kernel_name: kernel_name.to_string(),
                ..Program::default()
            },
        }
    }

    /// Run the kernel over `ndrange` with the given argument bindings.
    pub fn launch(&self, args: Vec<ArgBinding>, ndrange: NDRange, limits: &ExecLimits) -> Launch {
        if self.funcs.is_empty() {
            return Launch {
                result: Err(ExecError::MissingKernel(self.kernel_name.clone())),
                steps: 0,
            };
        }
        exec::launch(self, args, ndrange, limits)
    }
}

/// A frame slot, relative to the running function's frame base.
type Slot = u32;

/// "No operand" in a [`Slot`] or [`VarRef`] field.
const NONE: u32 = u32::MAX;

/// A variable named by a place expression (`v.x = ..`, `v[i]`): a frame slot,
/// or — with [`VarRef::CHAIN`] set — an index into [`Program::chains`], or
/// [`NONE`] for a name nothing can bind.
type VarRef = u32;

/// Flag bit of a [`VarRef`] that indexes [`Program::chains`].
const CHAIN: u32 = 1 << 31;

/// One bytecode operation. Operands are frame slots unless named otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Charge a straight-line run's static counts and check both budgets.
    Tick {
        steps: u32,
        compute: u32,
        branches: u32,
        math: u32,
        barriers: u32,
    },
    Jump {
        to: u32,
    },
    JumpIfFalse {
        cond: Slot,
        to: u32,
    },
    JumpIfTrue {
        cond: Slot,
        to: u32,
    },
    /// Jump when the truth of `a op b` is `when`.
    JumpIfBin {
        op: BinOp,
        when: bool,
        a: Slot,
        b: Slot,
        to: u32,
    },
    /// Jump when the truth of `a op consts[k]` is `when`.
    JumpIfBinConst {
        op: BinOp,
        when: bool,
        a: Slot,
        k: u32,
        to: u32,
    },
    /// Jump when `value`, as an integer, equals the switch scrutinee (already
    /// an integer).
    JumpIfCase {
        scrutinee: Slot,
        value: Slot,
        to: u32,
    },
    JumpIfNotPtr {
        src: Slot,
        to: u32,
    },
    /// Raise `errors[error]`.
    Trap {
        error: u32,
    },
    /// Refuse a call made from beyond the call-depth limit (before its
    /// arguments are evaluated, as the walker does).
    CallGuard,
    /// Call `funcs[func]`: its frame starts at slot `frame` of this one, with
    /// `args` evaluated arguments already in its parameter slots.
    Call {
        func: u32,
        frame: Slot,
        args: u32,
        dst: Slot,
    },
    /// Return `src`, converted to the function's return type.
    Return {
        src: Slot,
    },
    /// Leave the function without a `return`: integer zero, unconverted.
    ReturnZero,
    Move {
        dst: Slot,
        src: Slot,
    },
    Const {
        dst: Slot,
        k: u32,
    },
    Void {
        dst: Slot,
    },
    /// The value of a declaration of `types[ty]` without an initialiser.
    Default {
        dst: Slot,
        ty: u32,
    },
    /// Mark a conditionally-declared variable's slot as not (yet) bound.
    Unbind {
        slot: Slot,
    },
    /// Read / write a variable whose binding is decided at run time.
    LoadVar {
        dst: Slot,
        chain: u32,
    },
    StoreVar {
        chain: u32,
        src: Slot,
    },
    Bin {
        op: BinOp,
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    /// `a op consts[k]`.
    BinConst {
        op: BinOp,
        dst: Slot,
        a: Slot,
        k: u32,
    },
    /// `a * b + c`, or `c + a * b` when `flipped`: subscript arithmetic and
    /// accumulation, the two things inner loops are made of.
    MulAdd {
        flipped: bool,
        dst: Slot,
        a: Slot,
        b: Slot,
        c: Slot,
    },
    Neg {
        dst: Slot,
        src: Slot,
    },
    BitNot {
        dst: Slot,
        src: Slot,
    },
    Not {
        dst: Slot,
        src: Slot,
    },
    /// Integer 1 or 0 from a value's truthiness.
    Truth {
        dst: Slot,
        src: Slot,
    },
    /// The value's scalar content as an integer.
    CoerceInt {
        dst: Slot,
        src: Slot,
    },
    CoerceFloat {
        dst: Slot,
        src: Slot,
    },
    /// Convert to `types[ty]` (a vector type).
    Coerce {
        dst: Slot,
        src: Slot,
        ty: u32,
    },
    /// Build a `types[ty]` literal from `count` slots starting at `first`.
    VectorLit {
        dst: Slot,
        ty: u32,
        first: Slot,
        count: u32,
    },
    GetLane {
        dst: Slot,
        var: VarRef,
        lane: u32,
    },
    SetLane {
        var: VarRef,
        lane: u32,
        src: Slot,
    },
    /// `base[idx]` (lane `lane` of it unless [`NONE`]); `var` names `base`
    /// when it is a plain identifier, for subscripts of vector variables.
    LoadIndex {
        dst: Slot,
        base: Slot,
        idx: Slot,
        var: VarRef,
        lane: u32,
    },
    StoreIndex {
        base: Slot,
        idx: Slot,
        var: VarRef,
        lane: u32,
        src: Slot,
    },
    AddrIndex {
        dst: Slot,
        base: Slot,
        idx: Slot,
    },
    Deref {
        dst: Slot,
        src: Slot,
    },
    StoreDeref {
        ptr: Slot,
        src: Slot,
    },
    AddrDeref {
        dst: Slot,
        src: Slot,
    },
    /// Execute array declaration `arrays[array]`.
    Alloc {
        dst: Slot,
        array: u32,
    },
    WorkItem {
        f: WorkItemFn,
        dst: Slot,
        dim: Slot,
    },
    /// A work-item function of a constant dimension.
    WorkItemAt {
        f: WorkItemFn,
        dst: Slot,
        dim: u8,
    },
    /// Operand fields are [`NONE`] for arguments the call did not pass.
    Math {
        f: MathFn,
        dst: Slot,
        a: Slot,
        b: Slot,
        c: Slot,
    },
    Atomic {
        op: AtomicOp,
        dst: Slot,
        ptr: Slot,
        operand: Slot,
        desired: Slot,
    },
    VLoad {
        dst: Slot,
        lanes: u32,
        offset: Slot,
        ptr: Slot,
    },
    VStore {
        lanes: u32,
        data: Slot,
        offset: Slot,
        ptr: Slot,
    },
}

/// A lowered function.
#[derive(Debug, Clone)]
struct Func {
    /// Index of its first operation in [`Program::code`].
    entry: u32,
    /// Slots its frame needs.
    frame: u32,
    /// Declared parameter types, in order; parameter `i` lives in slot
    /// `scope0 + i` (the kernel's parameters *are* scope 0).
    params: Vec<Type>,
    return_type: Type,
}

/// An array declaration, resolved to what executing it allocates.
#[derive(Debug, Clone)]
struct ArrayDecl {
    name: String,
    elem: ScalarType,
    lanes: usize,
    /// `None` when the dimensions overflow: executing it is an error.
    elements: Option<usize>,
    space: BufferSpace,
    /// Elements one step of the first subscript moves (1 for a
    /// one-dimensional array).
    stride: u32,
}

/// How to find a variable whose binding depends on the path taken to it: a
/// declaration under an `if`, a name only ever assigned, a parameter the call
/// did not pass. The first candidate slot that is bound wins, then `bound`,
/// then the fallback for the access.
#[derive(Debug, Clone)]
struct Chain {
    /// Slots of enclosing scopes that may hold a binding, innermost first.
    candidates: Vec<Slot>,
    /// The slot of the nearest binding that certainly exists, if any.
    bound: Option<Slot>,
    /// What a read finds when nothing is bound.
    missing: Missing,
    /// The slot a write binds when nothing is bound (the innermost scope's).
    implicit: Slot,
}

/// What reading an unbound name yields.
#[derive(Debug, Clone)]
enum Missing {
    Value(Scalar),
    Error(u32),
}
