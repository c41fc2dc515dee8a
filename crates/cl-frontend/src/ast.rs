//! Abstract syntax tree for the OpenCL C subset.
//!
//! The AST is deliberately concrete (close to the source) because three very
//! different consumers walk it: the static feature extractor, the identifier
//! rewriter / pretty printer, and the NDRange interpreter in `cldrive`.

use crate::token::Span;
use std::fmt;

/// Scalar element types of OpenCL C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// `void` (only valid as a return type or pointee).
    Void,
    /// `bool`.
    Bool,
    /// `char` (8-bit signed).
    Char,
    /// `uchar` / `unsigned char`.
    UChar,
    /// `short`.
    Short,
    /// `ushort`.
    UShort,
    /// `int`.
    Int,
    /// `uint` / `unsigned int` / `size_t` (we model size_t as 32-bit uint).
    UInt,
    /// `long`.
    Long,
    /// `ulong`.
    ULong,
    /// `half` (treated as f32 for interpretation).
    Half,
    /// `float`.
    Float,
    /// `double`.
    Double,
}

impl ScalarType {
    /// True for all integer types (including bool and char).
    pub fn is_integer(self) -> bool {
        !matches!(
            self,
            ScalarType::Float | ScalarType::Double | ScalarType::Half | ScalarType::Void
        )
    }

    /// True for floating point types.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            ScalarType::Float | ScalarType::Double | ScalarType::Half
        )
    }

    /// True for unsigned integer types.
    pub fn is_unsigned(self) -> bool {
        matches!(
            self,
            ScalarType::Bool
                | ScalarType::UChar
                | ScalarType::UShort
                | ScalarType::UInt
                | ScalarType::ULong
        )
    }

    /// Size of the scalar in bytes (as used for payload/transfer accounting).
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarType::Void => 0,
            ScalarType::Bool | ScalarType::Char | ScalarType::UChar => 1,
            ScalarType::Short | ScalarType::UShort | ScalarType::Half => 2,
            ScalarType::Int | ScalarType::UInt | ScalarType::Float => 4,
            ScalarType::Long | ScalarType::ULong | ScalarType::Double => 8,
        }
    }

    /// Canonical OpenCL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ScalarType::Void => "void",
            ScalarType::Bool => "bool",
            ScalarType::Char => "char",
            ScalarType::UChar => "uchar",
            ScalarType::Short => "short",
            ScalarType::UShort => "ushort",
            ScalarType::Int => "int",
            ScalarType::UInt => "uint",
            ScalarType::Long => "long",
            ScalarType::ULong => "ulong",
            ScalarType::Half => "half",
            ScalarType::Float => "float",
            ScalarType::Double => "double",
        }
    }

    /// Parse a scalar type name (including `size_t` and friends).
    pub fn from_name(name: &str) -> Option<ScalarType> {
        Some(match name {
            "void" => ScalarType::Void,
            "bool" => ScalarType::Bool,
            "char" => ScalarType::Char,
            "uchar" => ScalarType::UChar,
            "short" => ScalarType::Short,
            "ushort" => ScalarType::UShort,
            "int" => ScalarType::Int,
            "uint" => ScalarType::UInt,
            "size_t" | "uintptr_t" => ScalarType::UInt,
            "ptrdiff_t" | "intptr_t" => ScalarType::Int,
            "long" => ScalarType::Long,
            "ulong" => ScalarType::ULong,
            "half" => ScalarType::Half,
            "float" => ScalarType::Float,
            "double" => ScalarType::Double,
            _ => return None,
        })
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// OpenCL address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressSpace {
    /// `__global`.
    Global,
    /// `__local`.
    Local,
    /// `__constant`.
    Constant,
    /// `__private` (default for automatics and value parameters).
    #[default]
    Private,
}

impl AddressSpace {
    /// Canonical spelling with the double-underscore prefix.
    pub fn as_str(self) -> &'static str {
        match self {
            AddressSpace::Global => "__global",
            AddressSpace::Local => "__local",
            AddressSpace::Constant => "__constant",
            AddressSpace::Private => "__private",
        }
    }
}

/// Image/pointer access qualifiers (`__read_only` etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessQualifier {
    /// `__read_only`.
    ReadOnly,
    /// `__write_only`.
    WriteOnly,
    /// `__read_write`.
    ReadWrite,
}

/// A (possibly derived) OpenCL C type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar type such as `int` or `float`.
    Scalar(ScalarType),
    /// A vector type such as `float4` (element type and lane count 2/3/4/8/16).
    Vector(ScalarType, u8),
    /// A pointer, annotated with the address space of the pointee.
    Pointer {
        /// The pointed-to type.
        pointee: Box<Type>,
        /// The address space of the pointed-to memory.
        address_space: AddressSpace,
        /// Whether the pointee is `const`-qualified.
        is_const: bool,
    },
    /// A fixed-size array (size may be unknown when the bound is not a literal).
    Array {
        /// Element type.
        elem: Box<Type>,
        /// Declared element count, if it was a constant literal.
        size: Option<usize>,
    },
    /// A named type we could not resolve (typedef from outside the shim,
    /// struct type, OpenCL image type, ...). The paper's CLgen treats kernels
    /// using such argument types as unsupported (§6.2).
    Named(String),
    /// A struct type declared in the same translation unit.
    Struct(String),
}

impl Type {
    /// Shorthand for a scalar type.
    pub fn scalar(s: ScalarType) -> Type {
        Type::Scalar(s)
    }

    /// Shorthand for a global pointer to a scalar element type.
    pub fn global_ptr(elem: ScalarType) -> Type {
        Type::Pointer {
            pointee: Box::new(Type::Scalar(elem)),
            address_space: AddressSpace::Global,
            is_const: false,
        }
    }

    /// True if the type is a scalar or vector of integers.
    pub fn is_integer(&self) -> bool {
        match self {
            Type::Scalar(s) | Type::Vector(s, _) => s.is_integer(),
            _ => false,
        }
    }

    /// True if the type is a scalar or vector of floats.
    pub fn is_float(&self) -> bool {
        match self {
            Type::Scalar(s) | Type::Vector(s, _) => s.is_float(),
            _ => false,
        }
    }

    /// The element scalar type of a scalar, vector, pointer-to-scalar or array
    /// type, if there is one.
    pub fn element_scalar(&self) -> Option<ScalarType> {
        match self {
            Type::Scalar(s) | Type::Vector(s, _) => Some(*s),
            Type::Pointer { pointee, .. } => pointee.element_scalar(),
            Type::Array { elem, .. } => elem.element_scalar(),
            _ => None,
        }
    }

    /// Number of vector lanes (1 for scalars, None for non-numeric types).
    pub fn lanes(&self) -> Option<u8> {
        match self {
            Type::Scalar(_) => Some(1),
            Type::Vector(_, n) => Some(*n),
            _ => None,
        }
    }

    /// Address space, if the type is a pointer.
    pub fn address_space(&self) -> Option<AddressSpace> {
        match self {
            Type::Pointer { address_space, .. } => Some(*address_space),
            _ => None,
        }
    }

    /// Size of one element of this type in bytes (vectors count all lanes).
    pub fn size_bytes(&self) -> usize {
        match self {
            Type::Scalar(s) => s.size_bytes(),
            Type::Vector(s, n) => s.size_bytes() * (*n as usize),
            Type::Pointer { .. } => 8,
            Type::Array { elem, size } => elem.size_bytes() * size.unwrap_or(1),
            Type::Named(_) | Type::Struct(_) => 8,
        }
    }

    /// Parse a type name that may be a scalar or vector spelling
    /// (e.g. `float`, `uint4`, `double16`).
    pub fn from_name(name: &str) -> Option<Type> {
        if let Some(s) = ScalarType::from_name(name) {
            return Some(Type::Scalar(s));
        }
        // vector types: scalar name followed by 2, 3, 4, 8 or 16
        for width in [16u8, 8, 4, 3, 2] {
            let suffix = width.to_string();
            if let Some(base) = name.strip_suffix(&suffix) {
                if let Some(s) = ScalarType::from_name(base) {
                    if s != ScalarType::Void && s != ScalarType::Bool {
                        return Some(Type::Vector(s, width));
                    }
                }
            }
        }
        None
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Vector(s, n) => write!(f, "{s}{n}"),
            Type::Pointer {
                pointee,
                address_space,
                is_const,
            } => {
                if *is_const {
                    write!(f, "const ")?;
                }
                write!(f, "{} {}*", address_space.as_str(), pointee)
            }
            Type::Array { elem, size } => match size {
                Some(n) => write!(f, "{elem}[{n}]"),
                None => write!(f, "{elem}[]"),
            },
            Type::Named(n) => write!(f, "{n}"),
            Type::Struct(n) => write!(f, "struct {n}"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl BinOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
        }
    }

    /// True for comparison / logical operators (result is boolean-like).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt
                | BinOp::Gt
                | BinOp::Le
                | BinOp::Ge
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::LogAnd
                | BinOp::LogOr
        )
    }

    /// True for arithmetic operators counted as compute instructions.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Sub
                | BinOp::Mul
                | BinOp::Div
                | BinOp::Rem
                | BinOp::Shl
                | BinOp::Shr
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
        )
    }
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `+x`
    Plus,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*p`
    Deref,
    /// `&x`
    AddrOf,
    /// `++x`
    PreInc,
    /// `--x`
    PreDec,
}

impl UnOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Plus => "+",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
            UnOp::PreInc => "++",
            UnOp::PreDec => "--",
        }
    }
}

/// Compound assignment operators (plain `=` is `Assign`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `&=`
    And,
    /// `|=`
    Or,
    /// `^=`
    Xor,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
}

impl AssignOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::And => "&=",
            AssignOp::Or => "|=",
            AssignOp::Xor => "^=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
        }
    }

    /// The underlying binary operator for compound assignments.
    pub fn binary_op(self) -> Option<BinOp> {
        Some(match self {
            AssignOp::Assign => return None,
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Div => BinOp::Div,
            AssignOp::Rem => BinOp::Rem,
            AssignOp::And => BinOp::BitAnd,
            AssignOp::Or => BinOp::BitOr,
            AssignOp::Xor => BinOp::BitXor,
            AssignOp::Shl => BinOp::Shl,
            AssignOp::Shr => BinOp::Shr,
        })
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit {
        /// Literal value.
        value: i64,
        /// Whether the literal carried a `u` suffix.
        unsigned: bool,
    },
    /// Floating point literal.
    FloatLit {
        /// Literal value.
        value: f64,
        /// Whether the literal carried an `f` suffix.
        single: bool,
    },
    /// Character literal (treated as an int).
    CharLit(char),
    /// String literal (rare in kernels; kept for fidelity).
    StrLit(String),
    /// A named variable or enumerator reference.
    Ident(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Prefix unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Postfix increment / decrement.
    Postfix {
        /// Operand.
        expr: Box<Expr>,
        /// True for `++`, false for `--`.
        inc: bool,
    },
    /// Assignment (possibly compound).
    Assign {
        /// Operator.
        op: AssignOp,
        /// Target lvalue.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// Ternary conditional `c ? t : e`.
    Conditional {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
    /// Function call. OpenCL C has no function pointers so the callee is a name.
    Call {
        /// Called function name (builtin or user function).
        callee: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Array subscript `base[index]`.
    Index {
        /// Base (pointer or array expression).
        base: Box<Expr>,
        /// Index.
        index: Box<Expr>,
    },
    /// Member access `base.member` or `base->member` (covers vector components
    /// like `.x` / `.s0` as well as struct fields).
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Member name.
        member: String,
        /// True for `->`.
        arrow: bool,
    },
    /// C-style cast `(type)expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// OpenCL vector literal `(float4)(a, b, c, d)`.
    VectorLit {
        /// Target vector type.
        ty: Type,
        /// Element expressions (may be fewer than the lane count: broadcast).
        elems: Vec<Expr>,
    },
    /// `sizeof(type)` or `sizeof expr`.
    SizeOf {
        /// Type operand, if `sizeof(type)`.
        ty: Option<Type>,
        /// Expression operand otherwise.
        expr: Option<Box<Expr>>,
    },
    /// Comma expression `a, b`.
    Comma(Vec<Expr>),
    /// A resilient-parse placeholder: the parser could not make sense of the
    /// tokens at `Span` and produced a localized error node instead of
    /// abandoning the surrounding expression. Error nodes never survive the
    /// rejection filter (the diagnostic that produced them marks the unit as
    /// failed); they exist so downstream walkers always see a complete tree.
    Error(Span),
}

impl Expr {
    /// Shorthand integer literal.
    pub fn int(value: i64) -> Expr {
        Expr::IntLit {
            value,
            unsigned: false,
        }
    }

    /// Shorthand identifier.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Shorthand call.
    pub fn call(callee: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            callee: callee.into(),
            args,
        }
    }

    /// If this expression is a constant integer, return its value.
    pub fn const_int(&self) -> Option<i64> {
        match self {
            Expr::IntLit { value, .. } => Some(*value),
            Expr::CharLit(c) => Some(*c as i64),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => expr.const_int().map(|v| -v),
            Expr::Binary { op, lhs, rhs } => {
                let (l, r) = (lhs.const_int()?, rhs.const_int()?);
                Some(match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => {
                        if r == 0 {
                            return None;
                        }
                        l / r
                    }
                    BinOp::Shl => l.checked_shl(r as u32)?,
                    BinOp::Shr => l.checked_shr(r as u32)?,
                    BinOp::BitAnd => l & r,
                    BinOp::BitOr => l | r,
                    BinOp::BitXor => l ^ r,
                    _ => return None,
                })
            }
            _ => None,
        }
    }
}

/// One declared variable within a declaration statement.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDeclarator {
    /// Variable name.
    pub name: String,
    /// Full type of the variable (with pointer/array derivations applied).
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// A declaration statement (`__local float tmp[256];`, `int i = 0, j;` ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Address space qualifier applied to the declaration.
    pub address_space: AddressSpace,
    /// Whether the declaration is `const`-qualified.
    pub is_const: bool,
    /// The declared variables.
    pub vars: Vec<VarDeclarator>,
}

/// A switch case.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// Case label value (None for `default:`).
    pub value: Option<Expr>,
    /// Statements of the case body.
    pub body: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A braced block.
    Block(Block),
    /// A local declaration.
    Decl(Declaration),
    /// An expression statement.
    Expr(Expr),
    /// `if`/`else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `for` loop.
    For {
        /// Initialiser (declaration or expression statement).
        init: Option<Box<Stmt>>,
        /// Loop condition.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `do { } while (c);` loop.
    DoWhile {
        /// Body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
    },
    /// `switch` statement.
    Switch {
        /// Scrutinee.
        cond: Expr,
        /// Cases in source order.
        cases: Vec<SwitchCase>,
    },
    /// `return` with optional value.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Empty statement `;`.
    Empty,
    /// A resilient-parse placeholder: a statement the parser had to give up
    /// on (recovery skipped to the next `;`/`}`). Carries the span where the
    /// failure was detected. Like [`Expr::Error`], these nodes keep the tree
    /// complete for walkers but always co-occur with an error diagnostic.
    Error(Span),
}

/// A braced sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A function parameter declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name (may be empty for unnamed prototype parameters).
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Access qualifier, if one was written (images / pipes).
    pub access: Option<AccessQualifier>,
    /// Whether the parameter itself is `const`.
    pub is_const: bool,
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub return_type: Type,
    /// Parameters in order.
    pub params: Vec<ParamDecl>,
    /// True if declared `__kernel`.
    pub is_kernel: bool,
    /// True if declared `inline` or `static`.
    pub is_inline: bool,
    /// Body; `None` for prototypes.
    pub body: Option<Block>,
    /// Source span of the definition.
    pub span: Span,
}

impl FunctionDef {
    /// True if the function has a body.
    pub fn is_definition(&self) -> bool {
        self.body.is_some()
    }
}

/// A struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct tag name (may be empty for anonymous structs in typedefs).
    pub name: String,
    /// Fields in order.
    pub fields: Vec<StructField>,
}

/// Top-level items of a translation unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition or prototype.
    Function(FunctionDef),
    /// A file-scope variable declaration (e.g. `__constant float k = 2.0f;`).
    GlobalVar(Declaration),
    /// A typedef (`typedef float FLOAT_T;`).
    Typedef {
        /// New type name.
        name: String,
        /// Aliased type.
        ty: Type,
    },
    /// A struct definition.
    Struct(StructDef),
}

/// A parsed translation unit (one content file / one kernel source string).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl TranslationUnit {
    /// Iterate over all function definitions (with bodies).
    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) if f.is_definition() => Some(f),
            _ => None,
        })
    }

    /// Iterate over all `__kernel` function definitions.
    pub fn kernels(&self) -> impl Iterator<Item = &FunctionDef> {
        self.functions().filter(|f| f.is_kernel)
    }

    /// Find a function definition by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions().find(|f| f.name == name)
    }

    /// Number of kernel definitions in the unit.
    pub fn kernel_count(&self) -> usize {
        self.kernels().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_type_names() {
        assert_eq!(ScalarType::from_name("float"), Some(ScalarType::Float));
        assert_eq!(ScalarType::from_name("size_t"), Some(ScalarType::UInt));
        assert_eq!(ScalarType::from_name("float4"), None);
        assert!(ScalarType::Float.is_float());
        assert!(ScalarType::UInt.is_unsigned());
        assert_eq!(ScalarType::Double.size_bytes(), 8);
    }

    #[test]
    fn vector_type_names() {
        assert_eq!(
            Type::from_name("float4"),
            Some(Type::Vector(ScalarType::Float, 4))
        );
        assert_eq!(
            Type::from_name("uint16"),
            Some(Type::Vector(ScalarType::UInt, 16))
        );
        assert_eq!(
            Type::from_name("int3"),
            Some(Type::Vector(ScalarType::Int, 3))
        );
        assert_eq!(Type::from_name("notatype"), None);
        assert_eq!(Type::from_name("float4").unwrap().size_bytes(), 16);
    }

    #[test]
    fn type_display() {
        let t = Type::global_ptr(ScalarType::Float);
        assert_eq!(t.to_string(), "__global float*");
        assert_eq!(Type::Vector(ScalarType::Float, 16).to_string(), "float16");
    }

    #[test]
    fn const_int_folding() {
        let e = Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(Expr::int(4)),
            rhs: Box::new(Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::int(2)),
                rhs: Box::new(Expr::int(3)),
            }),
        };
        assert_eq!(e.const_int(), Some(20));
        assert_eq!(Expr::ident("x").const_int(), None);
    }

    #[test]
    fn translation_unit_kernel_queries() {
        let mut tu = TranslationUnit::default();
        tu.items.push(Item::Function(FunctionDef {
            name: "A".into(),
            return_type: Type::scalar(ScalarType::Void),
            params: vec![],
            is_kernel: true,
            is_inline: false,
            body: Some(Block::default()),
            span: Span::default(),
        }));
        tu.items.push(Item::Function(FunctionDef {
            name: "helper".into(),
            return_type: Type::scalar(ScalarType::Float),
            params: vec![],
            is_kernel: false,
            is_inline: true,
            body: Some(Block::default()),
            span: Span::default(),
        }));
        assert_eq!(tu.kernel_count(), 1);
        assert!(tu.function("helper").is_some());
        assert!(tu.function("missing").is_none());
    }

    #[test]
    fn assign_op_to_binop() {
        assert_eq!(AssignOp::Add.binary_op(), Some(BinOp::Add));
        assert_eq!(AssignOp::Assign.binary_op(), None);
        assert!(BinOp::Add.is_arithmetic());
        assert!(BinOp::Le.is_comparison());
    }
}
