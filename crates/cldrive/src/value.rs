//! The value layer: the arithmetic both executors share.
//!
//! [`crate::program`] (the bytecode executor production runs) and
//! [`crate::reference`] (the tree-walking oracle) differ in how they find the
//! next operation, never in what an operation computes. Everything that maps
//! values to values lives here, generic over the executor's value
//! representation ([`Operand`]): binary and unary operators, the math table,
//! type coercion, the atomic read-modify-write table, and the parsers that
//! turn builtin *names* into the enums those tables are keyed by. The
//! reference resolves a name each time a call executes; the program resolves
//! it once, at lowering.
//!
//! All `i64` arithmetic wraps: the same source must produce the same bytes in
//! a debug build (tier-1) and a release build (production).

use crate::runtime::{PtrValue, Scalar, Value};
use cl_frontend::ast::{BinOp, ScalarType, Type};

/// Most lanes a vector value can have (OpenCL's widest vector type).
pub const MAX_LANES: usize = 16;

/// A runtime value as an executor represents it: a scalar, a short vector, a
/// pointer or `void`. The value layer reads operands lane by lane and builds
/// results lane by lane, so it never sees the representation.
pub trait Operand: Sized + Clone {
    /// A scalar value.
    fn from_scalar(s: Scalar) -> Self;
    /// A vector of `n` lanes, lane `i` being `lane(i)`.
    fn from_lanes(n: usize, lane: impl FnMut(usize) -> Scalar) -> Self;
    /// The scalar content (vectors yield their first lane, pointers their
    /// offset, `void` zero).
    fn as_scalar(&self) -> Scalar;
    /// True for vector values (of any lane count).
    fn is_vector(&self) -> bool;
    /// Number of lanes (1 unless a vector).
    fn lanes(&self) -> usize;
    /// Lane `i`, broadcasting non-vectors; out-of-range lanes of a vector
    /// read as integer zero.
    fn lane(&self, i: usize) -> Scalar;
    /// The element offset, if this is a pointer.
    fn ptr_offset(&self) -> Option<i64>;
    /// This pointer moved to `offset` (only called on pointers).
    fn with_ptr_offset(&self, offset: i64) -> Self;
}

impl Operand for Value {
    fn from_scalar(s: Scalar) -> Value {
        Value::Scalar(s)
    }
    fn from_lanes(n: usize, lane: impl FnMut(usize) -> Scalar) -> Value {
        Value::Vector((0..n).map(lane).collect())
    }
    fn as_scalar(&self) -> Scalar {
        Value::as_scalar(self)
    }
    fn is_vector(&self) -> bool {
        matches!(self, Value::Vector(_))
    }
    fn lanes(&self) -> usize {
        Value::lanes(self)
    }
    fn lane(&self, i: usize) -> Scalar {
        Value::lane(self, i)
    }
    fn ptr_offset(&self) -> Option<i64> {
        match self {
            Value::Ptr(p) => Some(p.offset),
            _ => None,
        }
    }
    fn with_ptr_offset(&self, offset: i64) -> Value {
        match self {
            Value::Ptr(p) => Value::Ptr(PtrValue {
                buffer: p.buffer,
                offset,
                dims: p.dims.clone(),
            }),
            other => other.clone(),
        }
    }
}

fn truth(b: bool) -> Scalar {
    Scalar::I(i64::from(b))
}

/// Apply `f` to every lane (vectors stay vectors, everything else becomes a
/// scalar).
pub fn map_unary<V: Operand>(v: &V, f: impl Fn(Scalar) -> Scalar) -> V {
    if v.is_vector() {
        V::from_lanes(v.lanes(), |i| f(v.lane(i)))
    } else {
        V::from_scalar(f(v.as_scalar()))
    }
}

/// Apply `f` lane-wise over two operands, broadcasting the narrower one.
pub fn map_binary<V: Operand>(a: &V, b: &V, f: impl Fn(Scalar, Scalar) -> Scalar) -> V {
    let lanes = a.lanes().max(b.lanes());
    if lanes == 1 {
        V::from_scalar(f(a.as_scalar(), b.as_scalar()))
    } else {
        V::from_lanes(lanes, |i| f(a.lane(i), b.lane(i)))
    }
}

/// Apply `f(i)` over `lanes` lanes (one lane yields a scalar).
fn map_lanes<V: Operand>(lanes: usize, f: impl Fn(usize) -> Scalar) -> V {
    if lanes == 1 {
        V::from_scalar(f(0))
    } else {
        V::from_lanes(lanes, f)
    }
}

/// One binary operator on two scalars. Mixed operands compute in floating
/// point; integer arithmetic wraps; division by zero yields zero; shifts and
/// bitwise operators work on the integer content.
#[inline]
pub fn scalar_binop(op: BinOp, a: Scalar, b: Scalar) -> Scalar {
    use BinOp::*;
    let (x, y) = match (a, b) {
        (Scalar::I(x), Scalar::I(y)) => return int_binop(op, x, y),
        _ => (a.as_f64(), b.as_f64()),
    };
    match op {
        Add => Scalar::F(x + y),
        Sub => Scalar::F(x - y),
        Mul => Scalar::F(x * y),
        Div | Rem if y == 0.0 => Scalar::F(0.0),
        Div => Scalar::F(x / y),
        Rem => Scalar::F(x % y),
        Lt => truth(x < y),
        Gt => truth(x > y),
        Le => truth(x <= y),
        Ge => truth(x >= y),
        Eq => truth(x == y),
        Ne => truth(x != y),
        LogAnd => truth(a.as_bool() && b.as_bool()),
        LogOr => truth(a.as_bool() || b.as_bool()),
        Shl | Shr | BitAnd | BitOr | BitXor => int_binop(op, a.as_i64(), b.as_i64()),
    }
}

/// [`scalar_binop`] on two integers.
#[inline]
pub fn int_binop(op: BinOp, x: i64, y: i64) -> Scalar {
    use BinOp::*;
    match op {
        Add => Scalar::I(x.wrapping_add(y)),
        Sub => Scalar::I(x.wrapping_sub(y)),
        Mul => Scalar::I(x.wrapping_mul(y)),
        Div | Rem if y == 0 => Scalar::I(0),
        Div => Scalar::I(x.wrapping_div(y)),
        Rem => Scalar::I(x.wrapping_rem(y)),
        Shl => Scalar::I(x.wrapping_shl((y & 63) as u32)),
        Shr => Scalar::I(x.wrapping_shr((y & 63) as u32)),
        BitAnd => Scalar::I(x & y),
        BitOr => Scalar::I(x | y),
        BitXor => Scalar::I(x ^ y),
        Lt => truth(x < y),
        Gt => truth(x > y),
        Le => truth(x <= y),
        Ge => truth(x >= y),
        Eq => truth(x == y),
        Ne => truth(x != y),
        LogAnd => truth(x != 0 && y != 0),
        LogOr => truth(x != 0 || y != 0),
    }
}

/// A binary operator on two values: pointer ± integer moves the element
/// offset (wrapping), everything else is lane-wise [`scalar_binop`].
pub fn apply_binop<V: Operand>(op: BinOp, a: &V, b: &V) -> V {
    if let Some(offset) = a.ptr_offset() {
        let delta = b.as_scalar().as_i64();
        match op {
            BinOp::Add => return a.with_ptr_offset(offset.wrapping_add(delta)),
            BinOp::Sub => return a.with_ptr_offset(offset.wrapping_sub(delta)),
            _ => {}
        }
    }
    if let (BinOp::Add, Some(offset)) = (op, b.ptr_offset()) {
        return b.with_ptr_offset(offset.wrapping_add(a.as_scalar().as_i64()));
    }
    map_binary(a, b, |x, y| scalar_binop(op, x, y))
}

/// `-s` (integers wrap).
pub fn negate_scalar(s: Scalar) -> Scalar {
    match s {
        Scalar::I(i) => Scalar::I(i.wrapping_neg()),
        Scalar::F(f) => Scalar::F(-f),
    }
}

/// `~s`, on the integer content.
pub fn bit_not_scalar(s: Scalar) -> Scalar {
    Scalar::I(!s.as_i64())
}

/// `-v`, lane-wise.
pub fn negate<V: Operand>(v: &V) -> V {
    map_unary(v, negate_scalar)
}

/// `~v`, lane-wise.
pub fn bit_not<V: Operand>(v: &V) -> V {
    map_unary(v, bit_not_scalar)
}

/// Flat element index of `base[idx]` for a pointer at `offset` whose
/// remaining dimensions multiply to `stride` (wrapping).
pub fn element_index(offset: i64, idx: i64, stride: i64) -> i64 {
    offset.wrapping_add(idx.wrapping_mul(stride))
}

/// Element index of lane `lane` of the `offset`-th `lanes`-wide vector
/// (`vloadN` / `vstoreN` addressing, wrapping).
pub fn vector_data_index(offset: i64, lanes: usize, lane: usize) -> i64 {
    offset.wrapping_mul(lanes as i64).wrapping_add(lane as i64)
}

/// Heuristic: an access whose element index equals the linear global id
/// plus/minus a small constant is coalesced across neighbouring work items.
pub fn is_coalesced(idx: i64, linear_global_id: i64) -> bool {
    idx.wrapping_sub(linear_global_id).wrapping_abs() <= 4
}

/// Convert `v` to declared type `ty` (scalars convert representation class,
/// vectors convert every lane and broadcast scalars; other types keep the
/// value as it is).
pub fn coerce_to_type<V: Operand>(v: V, ty: &Type) -> V {
    match ty {
        Type::Scalar(s) => V::from_scalar(v.as_scalar().convert_to(*s)),
        Type::Vector(s, n) => {
            let broadcast = v.lanes() == 1;
            V::from_lanes(*n as usize, |i| {
                if broadcast {
                    v.as_scalar().convert_to(*s)
                } else {
                    v.lane(i).convert_to(*s)
                }
            })
        }
        _ => v,
    }
}

/// The value of a variable declared without an initialiser.
pub fn default_value<V: Operand>(ty: &Type) -> V {
    match ty {
        Type::Vector(s, n) => V::from_lanes(*n as usize, |_| Scalar::zero_of(*s)),
        Type::Scalar(s) => V::from_scalar(Scalar::zero_of(*s)),
        _ => V::from_scalar(Scalar::I(0)),
    }
}

/// Build the vector literal `(ty)(elems...)`: the elements' lanes in order,
/// converted to the element type, the last one repeated up to the lane count.
pub fn vector_literal<V: Operand>(ty: &Type, elems: impl Iterator<Item = V>) -> V {
    let lanes = ty.lanes().unwrap_or(1) as usize;
    let elem_ty = ty.element_scalar().unwrap_or(ScalarType::Float);
    let mut flat =
        elems.flat_map(|e| (0..e.lanes()).map(move |lane| e.lane(lane).convert_to(elem_ty)));
    let mut last = Scalar::zero_of(elem_ty);
    V::from_lanes(lanes, |_| {
        if let Some(next) = flat.next() {
            last = next;
        }
        last
    })
}

/// Element type, lanes per element and dimensions (outermost first) of an
/// array type.
pub fn array_shape(ty: &Type) -> (ScalarType, usize, Vec<usize>) {
    let mut dims = Vec::new();
    let mut current = ty;
    while let Type::Array { elem, size } = current {
        dims.push(size.unwrap_or(1));
        current = elem;
    }
    dims.reverse();
    let elem = current.element_scalar().unwrap_or(ScalarType::Float);
    let lanes = current.lanes().unwrap_or(1) as usize;
    (elem, lanes, dims)
}

/// The lane a vector component name selects (`.x`, `.s3`, `.hi`, ...).
pub fn component_lane(member: &str) -> usize {
    match member {
        "x" => 0,
        "y" => 1,
        "z" => 2,
        "w" => 3,
        "lo" | "even" => 0,
        "hi" | "odd" => 1,
        _ => {
            if let Some(rest) = member
                .strip_prefix('s')
                .or_else(|| member.strip_prefix('S'))
            {
                usize::from_str_radix(rest, 16).unwrap_or(0)
            } else {
                0
            }
        }
    }
}

/// The value of a builtin named constant (`M_PI`, `INT_MAX`, ...).
pub fn builtin_constant(name: &str) -> Option<Scalar> {
    use Scalar::{F, I};
    Some(match name {
        "M_PI" | "M_PI_F" => F(std::f64::consts::PI),
        "M_E" | "M_E_F" => F(std::f64::consts::E),
        "MAXFLOAT" | "FLT_MAX" | "HUGE_VALF" | "INFINITY" => F(f32::MAX as f64),
        "FLT_MIN" => F(f32::MIN_POSITIVE as f64),
        "FLT_EPSILON" => F(f32::EPSILON as f64),
        "DBL_MAX" => F(f64::MAX),
        "DBL_MIN" => F(f64::MIN_POSITIVE),
        "NAN" => F(f64::NAN),
        "INT_MAX" => I(i32::MAX as i64),
        "INT_MIN" => I(i32::MIN as i64),
        "UINT_MAX" => I(u32::MAX as i64),
        "LONG_MAX" => I(i64::MAX),
        "LONG_MIN" => I(i64::MIN),
        "CHAR_BIT" => I(8),
        "CLK_LOCAL_MEM_FENCE" => I(1),
        "CLK_GLOBAL_MEM_FENCE" => I(2),
        "true" => I(1),
        "false" | "NULL" => I(0),
        _ => return None,
    })
}

/// The target type of a `convert_<type>[_sat][_rte]` / `as_<type>` call, if
/// the name spells one (reinterpretation is not modelled: values keep their
/// numeric content).
pub fn convert_target(callee: &str) -> Option<Type> {
    let target = callee
        .trim_start_matches("convert_")
        .trim_start_matches("as_");
    Type::from_name(target.trim_end_matches("_sat").trim_end_matches("_rte"))
}

/// A `vloadN` / `vstoreN` builtin, decoded from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorDataFn {
    /// True for `vload*`, false for `vstore*`.
    pub load: bool,
    /// Lanes moved per call (4 when the name carries no width).
    pub lanes: usize,
}

impl VectorDataFn {
    /// Decode a name the builtin table classified as vector data.
    ///
    /// # Errors
    ///
    /// A width above [`MAX_LANES`] is no OpenCL vector; the message is the
    /// `Unsupported` detail both executors raise when the call is reached.
    pub fn from_name(callee: &str) -> Result<VectorDataFn, String> {
        let lanes: usize = callee
            .trim_start_matches("vload")
            .trim_start_matches("vstore")
            .parse()
            .unwrap_or(4);
        if lanes > MAX_LANES {
            return Err(format!(
                "`{callee}`: vectors have at most {MAX_LANES} lanes"
            ));
        }
        Ok(VectorDataFn {
            load: callee.starts_with("vload"),
            lanes,
        })
    }
}

/// The work-item functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkItemFn {
    /// `get_global_id`.
    GlobalId,
    /// `get_local_id`.
    LocalId,
    /// `get_group_id`.
    GroupId,
    /// `get_global_size`.
    GlobalSize,
    /// `get_local_size`.
    LocalSize,
    /// `get_num_groups`.
    NumGroups,
    /// `get_work_dim`.
    WorkDim,
    /// `get_global_offset` and anything else: zero.
    Zero,
}

impl WorkItemFn {
    /// Decode a name the builtin table classified as a work-item function.
    pub fn from_name(callee: &str) -> WorkItemFn {
        match callee {
            "get_global_id" => WorkItemFn::GlobalId,
            "get_local_id" => WorkItemFn::LocalId,
            "get_group_id" => WorkItemFn::GroupId,
            "get_global_size" => WorkItemFn::GlobalSize,
            "get_local_size" => WorkItemFn::LocalSize,
            "get_num_groups" => WorkItemFn::NumGroups,
            "get_work_dim" => WorkItemFn::WorkDim,
            _ => WorkItemFn::Zero,
        }
    }
}

/// The position of the work item being executed.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkItem {
    /// Global id per dimension.
    pub global: [usize; 3],
    /// Local id per dimension.
    pub local: [usize; 3],
    /// Work-group id per dimension.
    pub group: [usize; 3],
    /// Global size per dimension.
    pub global_size: [usize; 3],
    /// Work-group size per dimension.
    pub local_size: [usize; 3],
    /// Number of work groups per dimension.
    pub num_groups: [usize; 3],
}

impl WorkItem {
    /// The value of work-item function `f` in dimension `dim` (clamped to
    /// the three dimensions there are).
    pub fn query(&self, f: WorkItemFn, dim: i64) -> i64 {
        let dim = dim.clamp(0, 2) as usize;
        (match f {
            WorkItemFn::GlobalId => self.global[dim],
            WorkItemFn::LocalId => self.local[dim],
            WorkItemFn::GroupId => self.group[dim],
            WorkItemFn::GlobalSize => self.global_size[dim],
            WorkItemFn::LocalSize => self.local_size[dim],
            WorkItemFn::NumGroups => self.num_groups[dim],
            WorkItemFn::WorkDim => {
                if self.global_size[1] > 1 {
                    2
                } else {
                    1
                }
            }
            WorkItemFn::Zero => 0,
        }) as i64
    }

    /// The id [`is_coalesced`] compares element indices against.
    pub fn linear_global_id(&self) -> i64 {
        self.global[0] as i64 + (self.global[1] * self.global_size[0]) as i64
    }
}

/// The atomic read-modify-write operations (`atomic_*` and `atom_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `old + operand`.
    Add,
    /// `old - operand`.
    Sub,
    /// `old + 1`.
    Inc,
    /// `old - 1`.
    Dec,
    /// `operand`.
    Xchg,
    /// `desired` if `old == operand`.
    CmpXchg,
    /// `min(old, operand)`.
    Min,
    /// `max(old, operand)`.
    Max,
    /// `old & operand`.
    And,
    /// `old | operand`.
    Or,
    /// `old ^ operand`.
    Xor,
    /// An unrecognised spelling: the location keeps its value.
    Keep,
}

impl AtomicOp {
    /// Decode a name the builtin table classified as atomic.
    pub fn from_name(callee: &str) -> AtomicOp {
        match callee
            .trim_start_matches("atomic_")
            .trim_start_matches("atom_")
        {
            "add" => AtomicOp::Add,
            "sub" => AtomicOp::Sub,
            "inc" => AtomicOp::Inc,
            "dec" => AtomicOp::Dec,
            "xchg" => AtomicOp::Xchg,
            "cmpxchg" => AtomicOp::CmpXchg,
            "min" => AtomicOp::Min,
            "max" => AtomicOp::Max,
            "and" => AtomicOp::And,
            "or" => AtomicOp::Or,
            "xor" => AtomicOp::Xor,
            _ => AtomicOp::Keep,
        }
    }

    /// The value stored back, given the value read (`desired` is only
    /// consulted by `cmpxchg`).
    pub fn apply(self, old: i64, operand: i64, desired: i64) -> i64 {
        match self {
            AtomicOp::Add => old.wrapping_add(operand),
            AtomicOp::Sub => old.wrapping_sub(operand),
            AtomicOp::Inc => old.wrapping_add(1),
            AtomicOp::Dec => old.wrapping_sub(1),
            AtomicOp::Xchg => operand,
            AtomicOp::CmpXchg => {
                if old == operand {
                    desired
                } else {
                    old
                }
            }
            AtomicOp::Min => old.min(operand),
            AtomicOp::Max => old.max(operand),
            AtomicOp::And => old & operand,
            AtomicOp::Or => old | operand,
            AtomicOp::Xor => old ^ operand,
            AtomicOp::Keep => old,
        }
    }
}

/// The math builtins, one variant per distinct behaviour (aliases such as
/// `native_sqrt` / `half_sqrt` share a variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MathFn {
    Sqrt,
    Rsqrt,
    Cbrt,
    Fabs,
    Abs,
    AbsDiff,
    Exp,
    Exp2,
    Exp10,
    Log,
    Log2,
    Log10,
    Sin,
    Cos,
    Tan,
    Sinh,
    Cosh,
    Tanh,
    Asin,
    Acos,
    Atan,
    Atan2,
    Floor,
    Ceil,
    Round,
    Trunc,
    Fract,
    Sign,
    Degrees,
    Radians,
    Fmod,
    Pow,
    Fmin,
    Fmax,
    Min,
    Max,
    Clamp,
    Mix,
    Step,
    Smoothstep,
    Mad,
    Mul24,
    Hadd,
    Rotate,
    Clz,
    Popcount,
    IsNan,
    IsInf,
    IsFinite,
    IsEqual,
    IsNotEqual,
    IsGreater,
    IsLess,
    Any,
    All,
    Select,
    BitSelect,
    Dot,
    Cross,
    Length,
    Distance,
    Normalize,
    Ldexp,
    Hypot,
    CopySign,
    NativeDivide,
    Recip,
    /// `nextafter`, `frexp` and unmodelled names: the first argument.
    First,
}

impl MathFn {
    /// Decode a name the builtin table classified as math.
    pub fn from_name(name: &str) -> MathFn {
        use MathFn::*;
        match name {
            "sqrt" | "native_sqrt" | "half_sqrt" => Sqrt,
            "rsqrt" | "native_rsqrt" => Rsqrt,
            "cbrt" => Cbrt,
            "fabs" => Fabs,
            "abs" => Abs,
            "abs_diff" => AbsDiff,
            "exp" | "native_exp" | "half_exp" => Exp,
            "exp2" => Exp2,
            "exp10" => Exp10,
            "log" | "native_log" | "half_log" => Log,
            "log2" => Log2,
            "log10" => Log10,
            "sin" | "native_sin" | "sinpi" => Sin,
            "cos" | "native_cos" | "cospi" => Cos,
            "tan" => Tan,
            "sinh" => Sinh,
            "cosh" => Cosh,
            "tanh" => Tanh,
            "asin" => Asin,
            "acos" => Acos,
            "atan" => Atan,
            "atan2" => Atan2,
            "floor" => Floor,
            "ceil" => Ceil,
            "round" | "rint" => Round,
            "trunc" => Trunc,
            "fract" => Fract,
            "sign" => Sign,
            "degrees" => Degrees,
            "radians" => Radians,
            "fmod" | "remainder" => Fmod,
            "pow" | "powr" | "pown" | "native_powr" | "half_powr" => Pow,
            "fmin" => Fmin,
            "fmax" | "maxmag" => Fmax,
            "min" | "minmag" => Min,
            "max" => Max,
            "clamp" => Clamp,
            "mix" => Mix,
            "step" => Step,
            "smoothstep" => Smoothstep,
            "mad" | "fma" | "mad24" => Mad,
            "mul24" | "mul_hi" => Mul24,
            "hadd" | "rhadd" => Hadd,
            "rotate" => Rotate,
            "clz" => Clz,
            "popcount" => Popcount,
            "isnan" => IsNan,
            "isinf" => IsInf,
            "isfinite" => IsFinite,
            "isequal" => IsEqual,
            "isnotequal" => IsNotEqual,
            "isgreater" => IsGreater,
            "isless" => IsLess,
            "any" => Any,
            "all" => All,
            "select" => Select,
            "bitselect" => BitSelect,
            "dot" => Dot,
            "cross" => Cross,
            "length" | "fast_length" => Length,
            "distance" | "fast_distance" => Distance,
            "normalize" | "fast_normalize" => Normalize,
            "ldexp" => Ldexp,
            "hypot" => Hypot,
            "copysign" => CopySign,
            "native_divide" => NativeDivide,
            "native_recip" | "half_recip" => Recip,
            _ => First,
        }
    }

    /// How the function maps operand lanes to result lanes.
    pub fn shape(self) -> MathShape {
        use MathFn::*;
        match self {
            Sqrt | Rsqrt | Cbrt | Fabs | Abs | Exp | Exp2 | Exp10 | Log | Log2 | Log10 | Sin
            | Cos | Tan | Sinh | Cosh | Tanh | Asin | Acos | Atan | Floor | Ceil | Round
            | Trunc | Fract | Sign | Degrees | Radians | Recip | Clz | Popcount | IsNan | IsInf
            | IsFinite => MathShape::Unary,
            AbsDiff | Atan2 | Fmod | Pow | Fmin | Fmax | Min | Max | Step | Mul24 | Hadd
            | Rotate | IsEqual | IsNotEqual | IsGreater | IsLess | BitSelect | Ldexp | Hypot
            | CopySign | NativeDivide => MathShape::Binary,
            Clamp | Mix | Mad | Select => MathShape::Ternary,
            Smoothstep => MathShape::TernaryOuter,
            Any | All | Dot | Cross | Length | Distance | Normalize | First => MathShape::Whole,
        }
    }

    /// One result lane from one lane of each operand (operands the function
    /// does not take are ignored). Only meaningful for the lane-wise shapes;
    /// a [`MathShape::Whole`] function yields its first operand.
    pub fn lane(self, a: Scalar, b: Scalar, c: Scalar) -> Scalar {
        use MathFn::*;
        use Scalar::{F, I};
        let (x, y, z) = (a.as_f64(), b.as_f64(), c.as_f64());
        match self {
            Sqrt => F(x.sqrt()),
            Rsqrt => F(1.0 / x.sqrt().max(1e-30)),
            Cbrt => F(x.cbrt()),
            Fabs => F(x.abs()),
            Abs => match a {
                I(i) => I(i.wrapping_abs()),
                F(f) => F(f.abs()),
            },
            Exp => F(x.exp()),
            Exp2 => F(x.exp2()),
            Exp10 => F(10f64.powf(x)),
            Log => F(x.max(1e-30).ln()),
            Log2 => F(x.max(1e-30).log2()),
            Log10 => F(x.max(1e-30).log10()),
            Sin => F(x.sin()),
            Cos => F(x.cos()),
            Tan => F(x.tan()),
            Sinh => F(x.sinh()),
            Cosh => F(x.cosh()),
            Tanh => F(x.tanh()),
            Asin => F(x.clamp(-1.0, 1.0).asin()),
            Acos => F(x.clamp(-1.0, 1.0).acos()),
            Atan => F(x.atan()),
            Floor => F(x.floor()),
            Ceil => F(x.ceil()),
            Round => F(x.round()),
            Trunc => F(x.trunc()),
            Fract => F(x.fract()),
            Sign => F(x.signum()),
            Degrees => F(x.to_degrees()),
            Radians => F(x.to_radians()),
            Recip => F(if x == 0.0 { 0.0 } else { 1.0 / x }),
            Clz => I(i64::from((a.as_i64() as u32).leading_zeros())),
            Popcount => I(i64::from(a.as_i64().count_ones())),
            IsNan => truth(x.is_nan()),
            IsInf => truth(x.is_infinite()),
            IsFinite => truth(x.is_finite()),
            AbsDiff => I(a.as_i64().wrapping_sub(b.as_i64()).wrapping_abs()),
            Atan2 => F(x.atan2(y)),
            Fmod | NativeDivide if y == 0.0 => F(0.0),
            Fmod => F(x % y),
            NativeDivide => F(x / y),
            Pow => F(x.powf(y)),
            Fmin => F(x.min(y)),
            Fmax => F(x.max(y)),
            Min | Max if a.is_float() || b.is_float() => {
                F(if self == Min { x.min(y) } else { x.max(y) })
            }
            Min => I(a.as_i64().min(b.as_i64())),
            Max => I(a.as_i64().max(b.as_i64())),
            Step => F(if y < x { 0.0 } else { 1.0 }),
            Mul24 => I(a.as_i64().wrapping_mul(b.as_i64())),
            Hadd => I(a.as_i64().wrapping_add(b.as_i64()) / 2),
            Rotate => I(a.as_i64().rotate_left((b.as_i64() & 63) as u32)),
            IsEqual => truth(x == y),
            IsNotEqual => truth(x != y),
            IsGreater => truth(x > y),
            IsLess => truth(x < y),
            BitSelect => I(a.as_i64() ^ b.as_i64()),
            // The exponent wraps to 32 bits, as the cast always has.
            Ldexp => F(x * 2f64.powi(b.as_i64() as i32)),
            Hypot => F(x.hypot(y)),
            CopySign => F(x.copysign(y)),
            // `f64::clamp` panics on a NaN bound; a NaN lower bound bounds nothing.
            Clamp if y.is_nan() => F(x),
            Clamp => F(x.clamp(y, z.max(y))),
            Mix => F(x + (y - x) * z),
            Mad => F(x * y + z),
            Select => {
                if c.as_bool() {
                    b
                } else {
                    a
                }
            }
            Smoothstep => {
                let t = ((z - x) / (y - x).max(1e-30)).clamp(0.0, 1.0);
                F(t * t * (3.0 - 2.0 * t))
            }
            Any | All | Dot | Cross | Length | Distance | Normalize | First => a,
        }
    }
}

/// How a math builtin maps operand lanes to result lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathShape {
    /// Lane-wise over the first operand (a vector stays a vector).
    Unary,
    /// Lane-wise over two operands, the narrower one broadcast.
    Binary,
    /// Lane-wise over three operands.
    Ternary,
    /// Lane-wise over three operands, as wide as the first or third
    /// (`smoothstep`).
    TernaryOuter,
    /// Reads whole operands: reductions, `cross`, `normalize`, and the
    /// pass-through of unmodelled names.
    Whole,
}

/// Apply a math builtin to its evaluated arguments (missing ones read as
/// float zero, extra ones are ignored).
pub fn apply_math<V: Operand>(f: MathFn, args: &[V]) -> V {
    let zero = V::from_scalar(Scalar::F(0.0));
    let a = args.first().unwrap_or(&zero);
    let b = args.get(1).unwrap_or(&zero);
    let c = args.get(2).unwrap_or(&zero);
    let z = Scalar::F(0.0);
    let lanes_of = |operands: &[&V]| operands.iter().map(|v| v.lanes()).max().unwrap_or(1);
    let ternary = |lanes: usize| map_lanes(lanes, |i| f.lane(a.lane(i), b.lane(i), c.lane(i)));
    let sum = |lanes: usize, term: &dyn Fn(usize) -> f64| {
        let mut acc = 0.0;
        for i in 0..lanes {
            acc += term(i);
        }
        acc
    };
    let square = |x: f64| x.powi(2);
    match f.shape() {
        MathShape::Unary => map_unary(a, |s| f.lane(s, z, z)),
        MathShape::Binary => map_binary(a, b, |x, y| f.lane(x, y, z)),
        MathShape::Ternary => ternary(lanes_of(&[a, b, c])),
        MathShape::TernaryOuter => ternary(lanes_of(&[a, c])),
        MathShape::Whole => match f {
            MathFn::Any => V::from_scalar(truth((0..a.lanes()).any(|i| a.lane(i).as_bool()))),
            MathFn::All => V::from_scalar(truth((0..a.lanes()).all(|i| a.lane(i).as_bool()))),
            MathFn::Dot => V::from_scalar(Scalar::F(sum(lanes_of(&[a, b]), &|i| {
                a.lane(i).as_f64() * b.lane(i).as_f64()
            }))),
            MathFn::Cross => {
                let [ax, ay, az] = [0, 1, 2].map(|i| a.lane(i).as_f64());
                let [bx, by, bz] = [0, 1, 2].map(|i| b.lane(i).as_f64());
                let out = [ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx, 0.0];
                V::from_lanes(4, |i| Scalar::F(out[i]))
            }
            MathFn::Length => V::from_scalar(Scalar::F(
                sum(a.lanes(), &|i| square(a.lane(i).as_f64())).sqrt(),
            )),
            MathFn::Distance => V::from_scalar(Scalar::F(
                sum(lanes_of(&[a, b]), &|i| {
                    square(a.lane(i).as_f64() - b.lane(i).as_f64())
                })
                .sqrt(),
            )),
            MathFn::Normalize => {
                let len = sum(a.lanes(), &|i| square(a.lane(i).as_f64()))
                    .sqrt()
                    .max(1e-30);
                map_unary(a, |s| Scalar::F(s.as_f64() / len))
            }
            _ => a.clone(),
        },
    }
}
