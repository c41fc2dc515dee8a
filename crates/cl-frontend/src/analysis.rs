//! Static analysis over kernel ASTs.
//!
//! Produces the static instruction counts used by (a) the rejection filter's
//! "minimum static instruction count of three" check (§4.1) and (b) the
//! static half of the Grewe et al. feature vector (Table 2a): compute
//! operations, global/local memory accesses, coalesced accesses, plus the
//! branch count used by the extended model of §8.2.

use crate::ast::*;
use crate::builtins::{self, BuiltinKind};
use std::collections::HashMap;

/// Static instruction counts for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticCounts {
    /// Total static "instructions" (operators + assignments + calls + memory
    /// accesses). This approximates the PTX static instruction count used by
    /// the paper's rejection filter.
    pub instructions: usize,
    /// Compute operations: arithmetic/bitwise operators and math builtins.
    pub compute_ops: usize,
    /// Accesses (loads or stores) to `__global` memory.
    pub global_mem_accesses: usize,
    /// Accesses to `__local` memory.
    pub local_mem_accesses: usize,
    /// Accesses to `__constant` memory.
    pub constant_mem_accesses: usize,
    /// Global accesses whose index is affine in `get_global_id(0)` with unit
    /// coefficient — the classic coalesced-access pattern.
    pub coalesced_accesses: usize,
    /// Branch operations: `if`, loops, `switch`, ternary, `&&`, `||`.
    pub branches: usize,
    /// Loop statements (`for`, `while`, `do`).
    pub loops: usize,
    /// Barrier / fence calls.
    pub barriers: usize,
    /// Atomic operations.
    pub atomics: usize,
    /// Operations on vector types (operands or results with more than 1 lane).
    pub vector_ops: usize,
    /// Calls to user-defined functions.
    pub user_calls: usize,
    /// Calls to math builtins (subset of `compute_ops`).
    pub math_calls: usize,
    /// Stores (assignments through memory).
    pub stores: usize,
    /// Loads (memory reads).
    pub loads: usize,
}

impl StaticCounts {
    /// Merge counts from another kernel/function (used when a kernel calls
    /// user-defined helper functions: their bodies are accumulated).
    pub fn merge(&mut self, other: &StaticCounts) {
        self.instructions += other.instructions;
        self.compute_ops += other.compute_ops;
        self.global_mem_accesses += other.global_mem_accesses;
        self.local_mem_accesses += other.local_mem_accesses;
        self.constant_mem_accesses += other.constant_mem_accesses;
        self.coalesced_accesses += other.coalesced_accesses;
        self.branches += other.branches;
        self.loops += other.loops;
        self.barriers += other.barriers;
        self.atomics += other.atomics;
        self.vector_ops += other.vector_ops;
        self.user_calls += other.user_calls;
        self.math_calls += other.math_calls;
        self.stores += other.stores;
        self.loads += other.loads;
    }
}

/// Which address space a variable name refers to (for memory-access
/// classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarClass {
    GlobalPtr,
    LocalPtr,
    ConstantPtr,
    PrivatePtrOrArray,
    /// A scalar holding (an affine function of) `get_global_id(0)`.
    GlobalIdAlias,
    Other,
}

/// Analyze one function definition, resolving helper calls against `unit`.
pub fn analyze_function(unit: &TranslationUnit, func: &FunctionDef) -> StaticCounts {
    let mut analyzer = Analyzer::new(unit);
    analyzer.function(func, 0)
}

/// Analyze every kernel in a translation unit. Returns `(kernel name, counts)`
/// pairs in declaration order.
pub fn analyze_kernels(unit: &TranslationUnit) -> Vec<(String, StaticCounts)> {
    unit.kernels()
        .map(|k| (k.name.clone(), analyze_function(unit, k)))
        .collect()
}

struct Analyzer<'a> {
    unit: &'a TranslationUnit,
    vars: Vec<HashMap<String, VarClass>>,
    counts: StaticCounts,
}

impl<'a> Analyzer<'a> {
    fn new(unit: &'a TranslationUnit) -> Self {
        Analyzer {
            unit,
            vars: vec![HashMap::new()],
            counts: StaticCounts::default(),
        }
    }

    fn function(&mut self, func: &FunctionDef, depth: usize) -> StaticCounts {
        self.vars.push(HashMap::new());
        for p in &func.params {
            let class = classify_type(&p.ty);
            self.vars.last_mut().unwrap().insert(p.name.clone(), class);
        }
        if let Some(body) = &func.body {
            self.block(body, depth);
        }
        self.vars.pop();
        self.counts
    }

    fn classify_var(&self, name: &str) -> VarClass {
        for scope in self.vars.iter().rev() {
            if let Some(c) = scope.get(name) {
                return *c;
            }
        }
        VarClass::Other
    }

    fn declare(&mut self, name: &str, class: VarClass) {
        self.vars
            .last_mut()
            .unwrap()
            .insert(name.to_string(), class);
    }

    fn block(&mut self, block: &Block, depth: usize) {
        self.vars.push(HashMap::new());
        for stmt in &block.stmts {
            self.stmt(stmt, depth);
        }
        self.vars.pop();
    }

    fn stmt(&mut self, stmt: &Stmt, depth: usize) {
        match stmt {
            Stmt::Block(b) => self.block(b, depth),
            Stmt::Decl(d) => self.decl(d, depth),
            Stmt::Expr(e) => {
                self.expr(e, depth);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.counts.branches += 1;
                self.counts.instructions += 1;
                self.expr(cond, depth);
                self.stmt(then_branch, depth);
                if let Some(e) = else_branch {
                    self.stmt(e, depth);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.counts.branches += 1;
                self.counts.loops += 1;
                self.counts.instructions += 1;
                self.vars.push(HashMap::new());
                if let Some(init) = init {
                    self.stmt(init, depth);
                }
                if let Some(cond) = cond {
                    self.expr(cond, depth);
                }
                if let Some(step) = step {
                    self.expr(step, depth);
                }
                self.stmt(body, depth);
                self.vars.pop();
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.counts.branches += 1;
                self.counts.loops += 1;
                self.counts.instructions += 1;
                self.expr(cond, depth);
                self.stmt(body, depth);
            }
            Stmt::Switch { cond, cases } => {
                self.counts.branches += 1;
                self.counts.instructions += 1;
                self.expr(cond, depth);
                for c in cases {
                    if let Some(v) = &c.value {
                        self.expr(v, depth);
                    }
                    for s in &c.body {
                        self.stmt(s, depth);
                    }
                }
            }
            Stmt::Return(Some(e)) => {
                self.counts.instructions += 1;
                self.expr(e, depth);
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {
                self.counts.instructions += 1;
            }
            Stmt::Empty => {}
            // Error placeholders contribute nothing to the static counts.
            Stmt::Error(_) => {}
        }
    }

    fn decl(&mut self, d: &Declaration, depth: usize) {
        for v in &d.vars {
            let mut class = classify_type(&v.ty);
            if d.address_space == AddressSpace::Local {
                class = VarClass::LocalPtr;
            }
            if let Some(init) = &v.init {
                self.counts.instructions += 1;
                if is_global_id_expr(init, &|n| self.classify_var(n)) {
                    class = VarClass::GlobalIdAlias;
                }
                self.expr(init, depth);
            }
            self.declare(&v.name, class);
        }
    }

    /// Analyze an expression. `is_store_target` marks lvalue positions.
    fn expr(&mut self, e: &Expr, depth: usize) {
        self.expr_inner(e, depth, false);
    }

    fn expr_inner(&mut self, e: &Expr, depth: usize, is_store_target: bool) {
        match e {
            Expr::Binary { op, lhs, rhs } => {
                self.counts.instructions += 1;
                if op.is_arithmetic() {
                    self.counts.compute_ops += 1;
                } else if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
                    self.counts.branches += 1;
                }
                self.expr_inner(lhs, depth, false);
                self.expr_inner(rhs, depth, false);
            }
            Expr::Unary { op, expr } => {
                self.counts.instructions += 1;
                if matches!(op, UnOp::Neg | UnOp::BitNot | UnOp::PreInc | UnOp::PreDec) {
                    self.counts.compute_ops += 1;
                }
                let deref_store = *op == UnOp::Deref && is_store_target;
                self.expr_inner(expr, depth, false);
                if *op == UnOp::Deref {
                    self.record_pointer_access(expr, None, deref_store);
                }
            }
            Expr::Postfix { expr, .. } => {
                self.counts.instructions += 1;
                self.counts.compute_ops += 1;
                self.expr_inner(expr, depth, false);
            }
            Expr::Assign { op, lhs, rhs } => {
                self.counts.instructions += 1;
                if op.binary_op().map(BinOp::is_arithmetic).unwrap_or(false) {
                    self.counts.compute_ops += 1;
                }
                self.expr_inner(lhs, depth, true);
                self.expr_inner(rhs, depth, false);
            }
            Expr::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                self.counts.instructions += 1;
                self.counts.branches += 1;
                self.expr_inner(cond, depth, false);
                self.expr_inner(then_expr, depth, false);
                self.expr_inner(else_expr, depth, false);
            }
            Expr::Call { callee, args } => {
                self.counts.instructions += 1;
                match builtins::builtin_function_kind(callee) {
                    Some(BuiltinKind::Math) => {
                        self.counts.compute_ops += 1;
                        self.counts.math_calls += 1;
                    }
                    Some(BuiltinKind::Sync) => self.counts.barriers += 1,
                    Some(BuiltinKind::Atomic) => {
                        self.counts.atomics += 1;
                        // Atomics touch memory; classify by their first argument.
                        if let Some(first) = args.first() {
                            self.record_pointer_access(first, None, true);
                        }
                    }
                    Some(BuiltinKind::VectorData) => {
                        self.counts.vector_ops += 1;
                        // vloadN(offset, ptr) / vstoreN(data, offset, ptr): the
                        // pointer is the last argument.
                        if let Some(last) = args.last() {
                            let store = callee.starts_with("vstore");
                            self.record_pointer_access(last, None, store);
                        }
                    }
                    Some(BuiltinKind::Image) => {
                        self.counts.global_mem_accesses += 1;
                        if callee.starts_with("write_") {
                            self.counts.stores += 1;
                        } else {
                            self.counts.loads += 1;
                        }
                    }
                    Some(_) => {}
                    None => {
                        self.counts.user_calls += 1;
                        // Inline the callee's counts (bounded depth guards
                        // against recursion, which OpenCL C forbids anyway).
                        if depth < 4 {
                            if let Some(f) = self.unit.function(callee) {
                                let mut inner = Analyzer::new(self.unit);
                                let sub = inner.function(f, depth + 1);
                                self.counts.merge(&sub);
                            }
                        }
                    }
                }
                for a in args {
                    self.expr_inner(a, depth, false);
                }
            }
            Expr::Index { base, index } => {
                self.counts.instructions += 1;
                self.record_pointer_access(base, Some(index), is_store_target);
                self.expr_inner(base, depth, false);
                self.expr_inner(index, depth, false);
            }
            Expr::Member { base, member, .. } => {
                if builtins::is_vector_component(member) {
                    self.counts.vector_ops += 1;
                }
                self.expr_inner(base, depth, is_store_target);
            }
            Expr::Cast { expr, ty } => {
                if ty.lanes().unwrap_or(1) > 1 {
                    self.counts.vector_ops += 1;
                }
                self.expr_inner(expr, depth, is_store_target);
            }
            Expr::VectorLit { elems, .. } => {
                self.counts.instructions += 1;
                self.counts.vector_ops += 1;
                for e in elems {
                    self.expr_inner(e, depth, false);
                }
            }
            Expr::SizeOf { expr, .. } => {
                if let Some(e) = expr {
                    self.expr_inner(e, depth, false);
                }
            }
            Expr::Comma(elems) => {
                for e in elems {
                    self.expr_inner(e, depth, false);
                }
            }
            Expr::Ident(_)
            | Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::CharLit(_)
            | Expr::StrLit(_)
            | Expr::Error(_) => {}
        }
    }

    /// Record a memory access through `base` (an expression expected to be a
    /// pointer or array) with optional index expression.
    fn record_pointer_access(&mut self, base: &Expr, index: Option<&Expr>, is_store: bool) {
        let class = match base {
            Expr::Ident(name) => self.classify_var(name),
            Expr::Member { base, .. } => match &**base {
                Expr::Ident(name) => self.classify_var(name),
                _ => VarClass::Other,
            },
            Expr::Binary { lhs, .. } => match &**lhs {
                Expr::Ident(name) => self.classify_var(name),
                _ => VarClass::Other,
            },
            _ => VarClass::Other,
        };
        match class {
            VarClass::GlobalPtr => {
                self.counts.global_mem_accesses += 1;
                if let Some(index) = index {
                    if is_global_id_expr(index, &|n| self.classify_var(n)) {
                        self.counts.coalesced_accesses += 1;
                    }
                }
            }
            VarClass::LocalPtr => self.counts.local_mem_accesses += 1,
            VarClass::ConstantPtr => self.counts.constant_mem_accesses += 1,
            VarClass::PrivatePtrOrArray | VarClass::GlobalIdAlias | VarClass::Other => {}
        }
        if matches!(
            class,
            VarClass::GlobalPtr | VarClass::LocalPtr | VarClass::ConstantPtr
        ) {
            if is_store {
                self.counts.stores += 1;
            } else {
                self.counts.loads += 1;
            }
        }
    }
}

fn classify_type(ty: &Type) -> VarClass {
    match ty {
        Type::Pointer { address_space, .. } => match address_space {
            AddressSpace::Global => VarClass::GlobalPtr,
            AddressSpace::Local => VarClass::LocalPtr,
            AddressSpace::Constant => VarClass::ConstantPtr,
            AddressSpace::Private => VarClass::PrivatePtrOrArray,
        },
        Type::Array { .. } => VarClass::PrivatePtrOrArray,
        _ => VarClass::Other,
    }
}

/// Is `e` (syntactically) an affine function of `get_global_id(0)` with unit
/// coefficient? Also true for variables previously initialised from it.
fn is_global_id_expr(e: &Expr, classify: &dyn Fn(&str) -> VarClass) -> bool {
    match e {
        Expr::Call { callee, args } => {
            callee == "get_global_id" && args.first().and_then(Expr::const_int).unwrap_or(0) == 0
        }
        Expr::Ident(name) => classify(name) == VarClass::GlobalIdAlias,
        Expr::Binary {
            op: BinOp::Add | BinOp::Sub,
            lhs,
            rhs,
        } => {
            (is_global_id_expr(lhs, classify) && !contains_global_id(rhs, classify))
                || (is_global_id_expr(rhs, classify) && !contains_global_id(lhs, classify))
        }
        Expr::Cast { expr, .. } => is_global_id_expr(expr, classify),
        _ => false,
    }
}

fn contains_global_id(e: &Expr, classify: &dyn Fn(&str) -> VarClass) -> bool {
    match e {
        Expr::Call { callee, .. } => callee == "get_global_id",
        Expr::Ident(name) => classify(name) == VarClass::GlobalIdAlias,
        Expr::Binary { lhs, rhs, .. } => {
            contains_global_id(lhs, classify) || contains_global_id(rhs, classify)
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => contains_global_id(expr, classify),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn counts_of(src: &str) -> StaticCounts {
        let parsed = parse(src);
        assert!(parsed.is_ok(), "parse failed: {}", parsed.diagnostics);
        let kernel = parsed.unit.kernels().next().expect("no kernel").clone();
        analyze_function(&parsed.unit, &kernel)
    }

    #[test]
    fn vector_add_counts() {
        let c = counts_of(
            "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
                int e = get_global_id(0);
                if (e < d) { c[e] = a[e] + b[e]; }
            }",
        );
        assert_eq!(c.global_mem_accesses, 3);
        assert_eq!(c.coalesced_accesses, 3);
        assert!(c.compute_ops >= 1);
        assert_eq!(c.branches, 1);
        assert_eq!(c.loops, 0);
        assert_eq!(c.stores, 1);
        assert_eq!(c.loads, 2);
        assert!(c.instructions >= 3);
    }

    #[test]
    fn local_memory_counts() {
        let c = counts_of(
            "__kernel void A(__global float* a, __local float* tmp) {
                int i = get_local_id(0);
                tmp[i] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[get_global_id(0)] = tmp[i] * 2.0f;
            }",
        );
        assert_eq!(c.local_mem_accesses, 2);
        assert_eq!(c.global_mem_accesses, 2);
        assert_eq!(c.barriers, 1);
        assert_eq!(c.coalesced_accesses, 2);
    }

    #[test]
    fn local_array_declaration_counts_as_local() {
        let c = counts_of(
            "__kernel void A(__global float* a) {
                __local float tile[64];
                tile[get_local_id(0)] = a[get_global_id(0)];
            }",
        );
        assert_eq!(c.local_mem_accesses, 1);
        assert_eq!(c.global_mem_accesses, 1);
    }

    #[test]
    fn noncoalesced_access_detected() {
        let c = counts_of(
            "__kernel void A(__global float* a, const int n) {
                int i = get_global_id(0);
                a[i * n] = a[i * n] + 1.0f;
            }",
        );
        assert_eq!(c.global_mem_accesses, 2);
        assert_eq!(c.coalesced_accesses, 0);
    }

    #[test]
    fn offset_access_still_coalesced() {
        let c = counts_of(
            "__kernel void A(__global float* a, const int n) {
                int i = get_global_id(0);
                a[i + 1] = a[i] * 2.0f;
            }",
        );
        assert_eq!(c.coalesced_accesses, 2);
    }

    #[test]
    fn loops_and_branches() {
        let c = counts_of(
            "__kernel void A(__global int* a, const int n) {
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) { a[i] = i; } else { a[i] = -i; }
                }
                int j = 0;
                while (j < n) { j++; }
            }",
        );
        assert_eq!(c.loops, 2);
        // for + while + if = 3 branch statements
        assert_eq!(c.branches, 3);
    }

    #[test]
    fn ternary_and_logical_count_as_branches() {
        let c = counts_of(
            "__kernel void A(__global int* a, const int n) {
                int i = get_global_id(0);
                a[i] = (i < n && i > 0) ? 1 : 0;
            }",
        );
        // `&&` + ternary
        assert_eq!(c.branches, 2);
    }

    #[test]
    fn math_builtin_counts_as_compute() {
        let c = counts_of(
            "__kernel void A(__global float* a) {
                int i = get_global_id(0);
                a[i] = sqrt(a[i]) + exp(a[i]);
            }",
        );
        assert_eq!(c.math_calls, 2);
        assert!(c.compute_ops >= 3);
    }

    #[test]
    fn helper_function_body_included() {
        let c = counts_of(
            "inline float square(float x) { return x * x; }
             __kernel void A(__global float* a) {
                int i = get_global_id(0);
                a[i] = square(a[i]);
             }",
        );
        assert_eq!(c.user_calls, 1);
        // the helper's multiply is merged in
        assert!(c.compute_ops >= 1);
    }

    #[test]
    fn atomic_counts() {
        let c = counts_of(
            "__kernel void A(__global int* hist, __global int* data) {
                atomic_add(&hist[data[get_global_id(0)]], 1);
            }",
        );
        assert_eq!(c.atomics, 1);
        assert!(c.global_mem_accesses >= 1);
    }

    #[test]
    fn vector_ops_counted() {
        let c = counts_of(
            "__kernel void A(__global float4* a, __global float* out) {
                float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
                out[0] = v.x + v.y + a[0].z;
            }",
        );
        assert!(c.vector_ops >= 3);
    }

    #[test]
    fn minimal_kernel_under_three_instructions() {
        let c = counts_of("__kernel void A(__global int* a) { }");
        assert!(c.instructions < 3);
    }

    #[test]
    fn analyze_kernels_returns_all() {
        let parsed = parse(
            "__kernel void A(__global int* a) { a[0] = 1; }
             __kernel void B(__global int* b) { b[0] = 2; b[1] = 3; }",
        );
        let all = analyze_kernels(&parsed.unit);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "A");
        assert!(all[1].1.global_mem_accesses >= 2);
    }
}
