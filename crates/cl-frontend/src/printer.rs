//! Pretty printer: serialises ASTs back to OpenCL C in a single canonical
//! style (the paper enforces "a variant of the Google C++ code style" so that
//! the language model sees consistent brace/whitespace usage, §4.1).

use crate::ast::*;
use std::fmt::Write as _;

/// Spaces per indentation level of the canonical style.
const INDENT_WIDTH: usize = 2;

/// Print a whole translation unit in canonical style.
pub fn print_unit(unit: &TranslationUnit) -> String {
    let mut p = Printer::default();
    for (i, item) in unit.items.iter().enumerate() {
        if i > 0 {
            p.out.push('\n');
        }
        p.item(item);
    }
    p.out
}

/// Print a single function definition in canonical style.
pub fn print_function(func: &FunctionDef) -> String {
    let mut p = Printer::default();
    p.function(func);
    p.out
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent * INDENT_WIDTH {
            self.out.push(' ');
        }
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Function(f) => self.function(f),
            Item::GlobalVar(d) => {
                self.declaration(d);
                self.out.push('\n');
            }
            Item::Typedef { name, ty } => {
                let _ = writeln!(self.out, "typedef {ty} {name};");
            }
            Item::Struct(s) => {
                let _ = write!(self.out, "typedef struct {{");
                self.indent += 1;
                for f in &s.fields {
                    self.newline();
                    let _ = write!(self.out, "{} {};", f.ty, f.name);
                }
                self.indent -= 1;
                self.newline();
                let _ = writeln!(self.out, "}} {};", s.name);
            }
        }
    }

    fn function(&mut self, f: &FunctionDef) {
        if f.is_kernel {
            self.out.push_str("__kernel ");
        } else if f.is_inline {
            self.out.push_str("inline ");
        }
        let _ = write!(self.out, "{} {}(", f.return_type, f.name);
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.param(p);
        }
        self.out.push(')');
        match &f.body {
            Some(body) => {
                self.out.push(' ');
                self.compound(body);
                self.out.push('\n');
            }
            None => self.out.push_str(";\n"),
        }
    }

    fn param(&mut self, p: &ParamDecl) {
        if let Some(access) = p.access {
            let s = match access {
                AccessQualifier::ReadOnly => "__read_only ",
                AccessQualifier::WriteOnly => "__write_only ",
                AccessQualifier::ReadWrite => "__read_write ",
            };
            self.out.push_str(s);
        }
        match &p.ty {
            Type::Pointer {
                pointee,
                address_space,
                is_const,
            } => {
                if *is_const {
                    self.out.push_str("const ");
                }
                let _ = write!(
                    self.out,
                    "{} {}* {}",
                    address_space.as_str(),
                    pointee,
                    p.name
                );
            }
            ty => {
                if p.is_const {
                    self.out.push_str("const ");
                }
                let _ = write!(self.out, "{ty} {}", p.name);
            }
        }
    }

    fn compound(&mut self, block: &Block) {
        self.out.push('{');
        self.indent += 1;
        for stmt in &block.stmts {
            self.newline();
            self.stmt(stmt);
        }
        self.indent -= 1;
        self.newline();
        self.out.push('}');
    }

    fn stmt_as_block(&mut self, stmt: &Stmt) {
        // Google style: always brace bodies.
        match stmt {
            Stmt::Block(b) => self.compound(b),
            other => {
                let block = Block {
                    stmts: vec![other.clone()],
                };
                self.compound(&block);
            }
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Block(b) => self.compound(b),
            Stmt::Decl(d) => self.declaration(d),
            Stmt::Expr(e) => {
                self.expr(e);
                self.out.push(';');
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.out.push_str("if (");
                self.expr(cond);
                self.out.push_str(") ");
                self.stmt_as_block(then_branch);
                if let Some(else_branch) = else_branch {
                    self.out.push_str(" else ");
                    if matches!(**else_branch, Stmt::If { .. }) {
                        self.stmt(else_branch);
                    } else {
                        self.stmt_as_block(else_branch);
                    }
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.out.push_str("for (");
                match init {
                    Some(s) => match &**s {
                        Stmt::Decl(d) => self.declaration_no_newline(d),
                        Stmt::Expr(e) => {
                            self.expr(e);
                            self.out.push(';');
                        }
                        _ => self.out.push(';'),
                    },
                    None => self.out.push(';'),
                }
                self.out.push(' ');
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(s) = step {
                    self.expr(s);
                }
                self.out.push_str(") ");
                self.stmt_as_block(body);
            }
            Stmt::While { cond, body } => {
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push_str(") ");
                self.stmt_as_block(body);
            }
            Stmt::DoWhile { body, cond } => {
                self.out.push_str("do ");
                self.stmt_as_block(body);
                self.out.push_str(" while (");
                self.expr(cond);
                self.out.push_str(");");
            }
            Stmt::Switch { cond, cases } => {
                self.out.push_str("switch (");
                self.expr(cond);
                self.out.push_str(") {");
                self.indent += 1;
                for case in cases {
                    self.newline();
                    match &case.value {
                        Some(v) => {
                            self.out.push_str("case ");
                            self.expr(v);
                            self.out.push(':');
                        }
                        None => self.out.push_str("default:"),
                    }
                    self.indent += 1;
                    for s in &case.body {
                        self.newline();
                        self.stmt(s);
                    }
                    self.indent -= 1;
                }
                self.indent -= 1;
                self.newline();
                self.out.push('}');
            }
            Stmt::Return(value) => {
                self.out.push_str("return");
                if let Some(v) = value {
                    self.out.push(' ');
                    self.expr(v);
                }
                self.out.push(';');
            }
            Stmt::Break => self.out.push_str("break;"),
            Stmt::Continue => self.out.push_str("continue;"),
            Stmt::Empty => self.out.push(';'),
            // Error nodes only appear in units that failed to parse (which
            // the filter rejects); print a placeholder that reparses so the
            // printer is total over every tree the parser can produce.
            Stmt::Error(_) => self.out.push(';'),
        }
    }

    fn declaration(&mut self, d: &Declaration) {
        self.declaration_no_newline(d);
    }

    fn declaration_no_newline(&mut self, d: &Declaration) {
        if d.address_space != AddressSpace::Private {
            let _ = write!(self.out, "{} ", d.address_space.as_str());
        }
        if d.is_const {
            self.out.push_str("const ");
        }
        for (i, v) in d.vars.iter().enumerate() {
            if i == 0 {
                // base type from the first declarator
                match &v.ty {
                    Type::Array { .. } => {
                        let (base, dims) = flatten_array(&v.ty);
                        let _ = write!(self.out, "{base} {}", v.name);
                        for dim in dims {
                            match dim {
                                Some(n) => {
                                    let _ = write!(self.out, "[{n}]");
                                }
                                None => self.out.push_str("[]"),
                            }
                        }
                    }
                    Type::Pointer {
                        pointee,
                        address_space,
                        ..
                    } => {
                        let _ = write!(
                            self.out,
                            "{} {}* {}",
                            address_space.as_str(),
                            pointee,
                            v.name
                        );
                    }
                    ty => {
                        let _ = write!(self.out, "{ty} {}", v.name);
                    }
                }
            } else {
                let _ = write!(self.out, ", {}", v.name);
                if matches!(&v.ty, Type::Array { .. }) {
                    let (_, dims) = flatten_array(&v.ty);
                    for dim in dims {
                        match dim {
                            Some(n) => {
                                let _ = write!(self.out, "[{n}]");
                            }
                            None => self.out.push_str("[]"),
                        }
                    }
                }
            }
            if let Some(init) = &v.init {
                self.out.push_str(" = ");
                self.expr(init);
            }
        }
        self.out.push(';');
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::IntLit { value, unsigned } => {
                let _ = write!(self.out, "{value}");
                if *unsigned {
                    self.out.push('u');
                }
            }
            Expr::FloatLit { value, single } => {
                let mut s = format!("{value}");
                if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN")
                {
                    s.push_str(".0");
                }
                self.out.push_str(&s);
                if *single {
                    self.out.push('f');
                }
            }
            Expr::CharLit(c) => {
                let _ = write!(self.out, "'{c}'");
            }
            Expr::StrLit(s) => {
                let _ = write!(self.out, "\"{}\"", s.escape_default());
            }
            Expr::Ident(name) => self.out.push_str(name),
            Expr::Binary { op, lhs, rhs } => {
                self.maybe_paren(lhs, precedence(lhs) < bin_precedence(*op));
                let _ = write!(self.out, " {} ", op.as_str());
                self.maybe_paren(rhs, precedence(rhs) <= bin_precedence(*op) && !is_leaf(rhs));
            }
            Expr::Unary { op, expr } => {
                self.out.push_str(op.as_str());
                self.maybe_paren(expr, !is_leaf(expr));
            }
            Expr::Postfix { expr, inc } => {
                self.maybe_paren(expr, !is_leaf(expr));
                self.out.push_str(if *inc { "++" } else { "--" });
            }
            Expr::Assign { op, lhs, rhs } => {
                self.expr(lhs);
                let _ = write!(self.out, " {} ", op.as_str());
                self.expr(rhs);
            }
            Expr::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                self.maybe_paren(cond, !is_leaf(cond));
                self.out.push_str(" ? ");
                self.expr(then_expr);
                self.out.push_str(" : ");
                self.expr(else_expr);
            }
            Expr::Call { callee, args } => {
                self.out.push_str(callee);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            Expr::Index { base, index } => {
                self.maybe_paren(base, !is_leaf(base));
                self.out.push('[');
                self.expr(index);
                self.out.push(']');
            }
            Expr::Member {
                base,
                member,
                arrow,
            } => {
                self.maybe_paren(base, !is_leaf(base));
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(member);
            }
            Expr::Cast { ty, expr } => {
                let _ = write!(self.out, "({ty})");
                self.maybe_paren(expr, !is_leaf(expr));
            }
            Expr::VectorLit { ty, elems } => {
                let _ = write!(self.out, "({ty})(");
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e);
                }
                self.out.push(')');
            }
            Expr::SizeOf { ty, expr } => match (ty, expr) {
                (Some(ty), _) => {
                    let _ = write!(self.out, "sizeof({ty})");
                }
                (None, Some(e)) => {
                    self.out.push_str("sizeof(");
                    self.expr(e);
                    self.out.push(')');
                }
                (None, None) => self.out.push_str("sizeof(int)"),
            },
            Expr::Comma(elems) => {
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e);
                }
            }
            // See Stmt::Error: a reparseable placeholder keeps the printer
            // total; error trees never reach the canonical corpus anyway.
            Expr::Error(_) => self.out.push('0'),
        }
    }

    fn maybe_paren(&mut self, e: &Expr, paren: bool) {
        if paren {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        } else {
            self.expr(e);
        }
    }
}

/// Flatten a (possibly nested) array type into its scalar/base element type and
/// the list of dimensions from outermost to innermost, so that
/// `float x[16][8]` prints in C declarator order.
fn flatten_array(ty: &Type) -> (&Type, Vec<Option<usize>>) {
    let mut dims = Vec::new();
    let mut current = ty;
    // The parser builds `x[16][8]` as Array{Array{float,16},8}: the *outer*
    // node carries the innermost (last written) dimension, so collect and then
    // reverse to recover source order.
    while let Type::Array { elem, size } = current {
        dims.push(*size);
        current = elem;
    }
    dims.reverse();
    (current, dims)
}

fn is_leaf(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Ident(_)
            | Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::CharLit(_)
            | Expr::Call { .. }
            | Expr::Index { .. }
            | Expr::Member { .. }
            | Expr::VectorLit { .. }
            | Expr::SizeOf { .. }
            | Expr::Error(_)
    )
}

fn bin_precedence(op: BinOp) -> u8 {
    match op {
        BinOp::LogOr => 1,
        BinOp::LogAnd => 2,
        BinOp::BitOr => 3,
        BinOp::BitXor => 4,
        BinOp::BitAnd => 5,
        BinOp::Eq | BinOp::Ne => 6,
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 7,
        BinOp::Shl | BinOp::Shr => 8,
        BinOp::Add | BinOp::Sub => 9,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
    }
}

fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => bin_precedence(*op),
        Expr::Assign { .. } | Expr::Conditional { .. } | Expr::Comma(_) => 0,
        _ => 11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) -> String {
        let parsed = parse(src);
        assert!(parsed.is_ok(), "parse failed: {}", parsed.diagnostics);
        print_unit(&parsed.unit)
    }

    #[test]
    fn print_simple_kernel() {
        let out = roundtrip("__kernel void A(__global float* a, const int b) { int c = get_global_id(0); if (c < b) { a[c] = 0.0f; } }");
        assert!(out.contains("__kernel void A(__global float* a, const int b) {"));
        assert!(out.contains("int c = get_global_id(0);"));
        assert!(out.contains("if (c < b) {"));
        assert!(out.ends_with("}\n"));
    }

    #[test]
    fn printed_output_reparses() {
        let src = "__kernel void A(__global float* a, __global float* b, const int n) {
            for (int i = get_global_id(0); i < n; i += get_global_size(0)) {
                b[i] = sqrt(a[i]) * 2.0f + (a[i] > 0.5f ? 1.0f : 0.0f);
            }
        }";
        let printed = roundtrip(src);
        let reparsed = parse(&printed);
        assert!(
            reparsed.is_ok(),
            "printed output failed to reparse:\n{printed}\n{}",
            reparsed.diagnostics
        );
        // And printing again is a fixpoint.
        assert_eq!(print_unit(&reparsed.unit), printed);
    }

    #[test]
    fn braces_added_to_single_statement_bodies() {
        let out = roundtrip("__kernel void A(__global int* a) { if (a[0]) a[1] = 2; }");
        assert!(out.contains("if (a[0]) {"));
    }

    #[test]
    fn vector_literal_printed() {
        let out = roundtrip(
            "__kernel void A(__global float4* a) { a[0] = (float4)(1.0f, 2.0f, 3.0f, 4.0f); }",
        );
        assert!(out.contains("(float4)(1.0f, 2.0f, 3.0f, 4.0f)"));
    }

    #[test]
    fn float_literals_keep_decimal_point() {
        let out = roundtrip("__kernel void A(__global float* a) { a[0] = 2.0f * a[1] + 3.0f; }");
        assert!(out.contains("2.0f"));
        assert!(out.contains("3.0f"));
    }

    #[test]
    fn local_array_printed() {
        let out =
            roundtrip("__kernel void A(__global float* a) { __local float t[64]; t[0] = a[0]; }");
        assert!(out.contains("__local float t[64];"));
    }

    #[test]
    fn typedef_and_struct_printed() {
        let out = roundtrip("typedef float myf;\ntypedef struct { float x; int y; } P;\n__kernel void A(__global float* a) { a[0] = 1.0f; }");
        assert!(out.contains("typedef float myf;"));
        assert!(out.contains("float x;"));
        assert!(out.contains("} P;"));
    }

    #[test]
    fn switch_printed_and_reparses() {
        let src = "__kernel void A(__global int* a, const int n) { switch (n) { case 0: a[0] = 1; break; default: a[0] = 2; } }";
        let printed = roundtrip(src);
        assert!(printed.contains("switch (n) {"));
        assert!(printed.contains("case 0:"));
        assert!(parse(&printed).is_ok());
    }

    #[test]
    fn operator_precedence_preserved() {
        let src = "__kernel void A(__global int* a) { a[0] = (a[1] + a[2]) * a[3]; }";
        let printed = roundtrip(src);
        assert!(printed.contains("(a[1] + a[2]) * a[3]"));
    }
}
