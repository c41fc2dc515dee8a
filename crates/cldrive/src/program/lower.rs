//! Lowering: one pass over a kernel's AST (and every function it can reach)
//! that emits the bytecode [`super::exec`] runs.
//!
//! The lowerer is a transcription of the reference walker with "do it"
//! replaced by "emit the operation that does it": the same evaluation order,
//! the same tick points, the same double evaluation of a compound
//! assignment's target. What it adds is static name resolution.
//!
//! # Names
//!
//! The walker keeps a stack of scopes and inserts a name when its declaration
//! *executes*. Almost always that is decidable here: a declaration that is a
//! direct statement of a block (or a `for` initialiser, or a parameter) has
//! executed by the time anything after it in that block runs, so the name is
//! a slot. The rest — a declaration that is the body of an `if`, a name that
//! is only ever assigned (the walker binds it in the innermost scope), a
//! parameter a call did not pass — may or may not be bound when a use runs.
//! Those (scope, name) pairs are collected as [`Facts`]; their slots are
//! unbound on scope entry and uses walk a [`Chain`] of candidates. A use
//! lowered before its conditional declaration was seen cannot know to check
//! it, so lowering repeats with the facts of the previous round until a round
//! discovers nothing new (one round for every kernel a sane generator
//! writes).

use super::{ArrayDecl, Chain, Func, Missing, Op, Program, Slot, VarRef, CHAIN, NONE};
use crate::interp::{scratch_elements, ExecError};
use crate::runtime::{BufferSpace, Scalar};
use crate::value::{
    array_shape, builtin_constant, component_lane, convert_target, AtomicOp, MathFn, VectorDataFn,
    WorkItemFn,
};
use cl_frontend::ast::*;
use cl_frontend::builtins::{builtin_function_kind, is_vector_component, BuiltinKind};
use std::collections::{BTreeSet, HashMap};

/// Lower `kernel` of `unit`.
pub(super) fn lower(unit: &TranslationUnit, kernel: &FunctionDef) -> Program {
    let mut facts = Facts::default();
    loop {
        let mut lowerer = Lowerer::new(unit, kernel, &facts);
        lowerer.run();
        if lowerer.found.is_subset(&facts) {
            return lowerer.program;
        }
        facts.extend(lowerer.found);
    }
}

/// What a round of lowering learned about names it could not bind statically.
/// Function indices are stable across rounds (they follow first reference in
/// the source), as are scope numbers (pre-order within a function).
#[derive(Debug, Default)]
struct Facts {
    /// `(function, scope, name)`: a name that may be bound in that scope by
    /// something other than a dominating declaration.
    conditional: BTreeSet<(u32, u32, String)>,
    /// Functions some call passes fewer arguments than parameters.
    short_called: BTreeSet<u32>,
}

impl Facts {
    fn is_subset(&self, of: &Facts) -> bool {
        self.conditional.is_subset(&of.conditional) && self.short_called.is_subset(&of.short_called)
    }

    fn extend(&mut self, more: Facts) {
        self.conditional.extend(more.conditional);
        self.short_called.extend(more.short_called);
    }
}

/// Where an expression's value should end up.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Want {
    /// Wherever is cheapest (a variable's own slot, or a fresh temporary).
    Any,
    /// This slot.
    Into(Slot),
    /// Nowhere: only the effects matter.
    Discard,
}

#[derive(Debug, Clone, Copy)]
struct Binding {
    slot: Slot,
    /// A dominating declaration has executed wherever this is looked up.
    definite: bool,
}

#[derive(Debug)]
struct Scope {
    id: u32,
    names: HashMap<String, Binding>,
    /// `top` on entry (everything above is released on exit).
    entry_top: Slot,
    /// First slot above this scope's variables: temporaries start here.
    vars_top: Slot,
}

/// Where `break` and `continue` go.
#[derive(Debug, Clone, Copy)]
struct Targets {
    on_break: u32,
    on_continue: u32,
}

/// The statically accumulated counts of the straight-line run being emitted.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Pending {
    steps: u32,
    compute: u32,
    branches: u32,
    math: u32,
    barriers: u32,
}

struct Lowerer<'a> {
    unit: &'a TranslationUnit,
    facts: &'a Facts,
    found: Facts,
    program: Program,
    /// Kernel parameter name → slot (scope 0 of every frame).
    scope0: HashMap<&'a str, Slot>,
    /// Functions referenced so far, by name, and the queue still to lower.
    by_name: HashMap<&'a str, u32>,
    queue: Vec<(u32, &'a FunctionDef)>,
    const_index: HashMap<(bool, u64), u32>,
    // ---- the function being lowered
    func: u32,
    scopes: Vec<Scope>,
    next_scope: u32,
    top: Slot,
    frame: Slot,
    pending: Pending,
    targets: Vec<Targets>,
    /// Label → code index once bound; jumps carry labels until the function
    /// is complete.
    labels: Vec<u32>,
    /// Whether a jump to the label has been emitted.
    targeted: Vec<bool>,
    jumps: Vec<usize>,
}

impl<'a> Lowerer<'a> {
    fn new(unit: &'a TranslationUnit, kernel: &'a FunctionDef, facts: &'a Facts) -> Lowerer<'a> {
        let mut scope0 = HashMap::new();
        for (i, p) in kernel.params.iter().enumerate() {
            scope0.insert(p.name.as_str(), i as Slot);
        }
        Lowerer {
            unit,
            facts,
            found: Facts::default(),
            program: Program {
                kernel_name: kernel.name.clone(),
                params: kernel.params.clone(),
                ..Program::default()
            },
            scope0,
            by_name: HashMap::new(),
            queue: vec![(0, kernel)],
            const_index: HashMap::new(),
            func: 0,
            scopes: Vec::new(),
            next_scope: 0,
            top: 0,
            frame: 0,
            pending: Pending::default(),
            targets: Vec::new(),
            labels: Vec::new(),
            targeted: Vec::new(),
            jumps: Vec::new(),
        }
    }

    /// Slots of scope 0: the kernel's parameters, copied into every frame.
    fn scope0_len(&self) -> Slot {
        self.program.params.len() as Slot
    }

    fn run(&mut self) {
        // The kernel is function 0; callees join the queue as calls to them
        // are lowered.
        self.program.funcs.push(Func {
            entry: 0,
            frame: 0,
            params: Vec::new(),
            return_type: Type::Scalar(ScalarType::Void),
        });
        let mut next = 0;
        while next < self.queue.len() {
            let (index, def) = self.queue[next];
            next += 1;
            self.function(index, def);
        }
    }

    fn function(&mut self, index: u32, def: &'a FunctionDef) {
        self.func = index;
        self.scopes.clear();
        self.next_scope = 0;
        self.targets.clear();
        self.labels.clear();
        self.targeted.clear();
        self.jumps.clear();
        self.pending = Pending::default();
        self.top = self.scope0_len();
        self.frame = self.top;
        let entry = self.program.code.len() as u32;
        if index != 0 {
            // A callee's parameters are a scope of their own above scope 0,
            // filled in by the call.
            let short_called = self.facts.short_called.contains(&index);
            self.enter_scope();
            for p in &def.params {
                let slot = self.alloc();
                self.scope_mut().names.insert(
                    p.name.clone(),
                    Binding {
                        slot,
                        definite: !short_called,
                    },
                );
            }
            self.scope_mut().vars_top = self.top;
        }
        if let Some(body) = &def.body {
            self.block(body);
        }
        self.emit_checked(Op::ReturnZero);
        for &at in &self.jumps {
            let labels = &self.labels;
            match &mut self.program.code[at] {
                Op::Jump { to }
                | Op::JumpIfFalse { to, .. }
                | Op::JumpIfTrue { to, .. }
                | Op::JumpIfBin { to, .. }
                | Op::JumpIfBinConst { to, .. }
                | Op::JumpIfCase { to, .. }
                | Op::JumpIfNotPtr { to, .. } => *to = labels[*to as usize],
                other => unreachable!("{other:?} is not a jump"),
            }
        }
        let func = &mut self.program.funcs[index as usize];
        func.entry = entry;
        func.frame = self.frame;
        if index != 0 {
            func.params = def.params.iter().map(|p| p.ty.clone()).collect();
            func.return_type = def.return_type.clone();
        }
    }

    // ----- emission ---------------------------------------------------------

    fn emit(&mut self, op: Op) {
        self.program.code.push(op);
    }

    /// Charge the pending counts now: whatever comes next can raise an error
    /// of its own, or is a point control flow joins or leaves.
    fn flush(&mut self) {
        let p = std::mem::take(&mut self.pending);
        if p != Pending::default() {
            self.emit(Op::Tick {
                steps: p.steps,
                compute: p.compute,
                branches: p.branches,
                math: p.math,
                barriers: p.barriers,
            });
        }
    }

    /// Emit an operation that can fail or transfers control.
    fn emit_checked(&mut self, op: Op) {
        self.flush();
        self.emit(op);
    }

    fn step(&mut self) {
        self.pending.steps += 1;
    }

    fn label(&mut self) -> u32 {
        self.labels.push(NONE);
        self.targeted.push(false);
        self.labels.len() as u32 - 1
    }

    /// Bind a label every jump to which has been emitted. Where none was,
    /// control only falls through, and the straight-line run goes on.
    fn bind(&mut self, label: u32) {
        if self.targeted[label as usize] {
            self.flush();
        }
        self.labels[label as usize] = self.program.code.len() as u32;
    }

    /// Bind a label that code yet to be emitted jumps back to.
    fn bind_head(&mut self, label: u32) {
        self.targeted[label as usize] = true;
        self.bind(label);
    }

    fn jump(&mut self, op: Op) {
        self.flush();
        match op {
            Op::Jump { to }
            | Op::JumpIfFalse { to, .. }
            | Op::JumpIfTrue { to, .. }
            | Op::JumpIfBin { to, .. }
            | Op::JumpIfBinConst { to, .. }
            | Op::JumpIfCase { to, .. }
            | Op::JumpIfNotPtr { to, .. } => self.targeted[to as usize] = true,
            other => unreachable!("{other:?} is not a jump"),
        }
        self.jumps.push(self.program.code.len());
        self.emit(op);
    }

    /// Jump to `to` when `cond`'s truth is `when`. A comparison (or any other
    /// strict binary operator) at the top of `cond` is folded into the jump.
    fn jump_if(&mut self, cond: &'a Expr, when: bool, to: u32) {
        if let Some(value) = self.as_const(cond) {
            // `while (1)`: decided here.
            if value.as_bool() == when {
                self.jump(Op::Jump { to });
            }
            return;
        }
        let mark = self.top;
        match cond {
            Expr::Binary { op, lhs, rhs } if !matches!(op, BinOp::LogAnd | BinOp::LogOr) => {
                self.step();
                if op.is_arithmetic() {
                    self.pending.compute += 1;
                }
                let op = *op;
                let a = self.expr(lhs, Want::Any);
                let a = self.hold(a, &[rhs]);
                match self.as_const(rhs) {
                    Some(value) => {
                        let k = self.constant(value);
                        self.jump(Op::JumpIfBinConst { op, when, a, k, to });
                    }
                    None => {
                        let b = self.expr(rhs, Want::Any);
                        self.jump(Op::JumpIfBin { op, when, a, b, to });
                    }
                }
            }
            _ => {
                let cond = self.expr(cond, Want::Any);
                self.jump(if when {
                    Op::JumpIfTrue { cond, to }
                } else {
                    Op::JumpIfFalse { cond, to }
                });
            }
        }
        self.top = mark;
    }

    fn trap(&mut self, error: ExecError) {
        self.program.errors.push(error);
        let error = self.program.errors.len() as u32 - 1;
        self.emit_checked(Op::Trap { error });
    }

    fn constant(&mut self, value: Scalar) -> u32 {
        let key = match value {
            Scalar::I(i) => (false, i as u64),
            Scalar::F(f) => (true, f.to_bits()),
        };
        let consts = &mut self.program.consts;
        *self.const_index.entry(key).or_insert_with(|| {
            consts.push(value);
            consts.len() as u32 - 1
        })
    }

    fn ty(&mut self, ty: &Type) -> u32 {
        self.program.types.push(ty.clone());
        self.program.types.len() as u32 - 1
    }

    // ----- slots and scopes -------------------------------------------------

    fn alloc(&mut self) -> Slot {
        let slot = self.top;
        self.top += 1;
        self.frame = self.frame.max(self.top);
        slot
    }

    fn scope_mut(&mut self) -> &mut Scope {
        self.scopes.last_mut().expect("inside a function body")
    }

    fn vars_top(&self) -> Slot {
        self.scopes.last().map_or(self.scope0_len(), |s| s.vars_top)
    }

    /// Drop every temporary: nothing is live between statements.
    fn release(&mut self) {
        self.top = self.vars_top();
    }

    fn is_temporary(&self, slot: Slot) -> bool {
        slot >= self.vars_top()
    }

    fn enter_scope(&mut self) {
        let id = self.next_scope;
        self.next_scope += 1;
        self.scopes.push(Scope {
            id,
            names: HashMap::new(),
            entry_top: self.top,
            vars_top: self.top,
        });
        // Names this scope may bind conditionally get their slot now, unbound.
        let facts = self.facts;
        let func = self.func;
        let conditional = facts
            .conditional
            .range((func, id, String::new())..)
            .take_while(|(f, s, _)| (*f, *s) == (func, id));
        for (_, _, name) in conditional {
            let slot = self.variable_slot(name);
            self.emit(Op::Unbind { slot });
        }
    }

    fn exit_scope(&mut self) {
        let scope = self.scopes.pop().expect("balanced scopes");
        self.top = scope.entry_top;
    }

    /// The slot `name` has in the innermost scope, allocated on first use.
    fn variable_slot(&mut self, name: &str) -> Slot {
        if let Some(binding) = self.scope_mut().names.get(name) {
            return binding.slot;
        }
        let slot = self.alloc();
        let scope = self.scope_mut();
        scope.vars_top = slot + 1;
        scope.names.insert(
            name.to_string(),
            Binding {
                slot,
                definite: false,
            },
        );
        slot
    }

    /// The slot of the variable `e` names, when that is known statically.
    fn own_slot(&self, e: &Expr) -> Option<Slot> {
        match e {
            Expr::Ident(name) => match self.resolve(name) {
                (candidates, Some(slot)) if candidates.is_empty() => Some(slot),
                _ => None,
            },
            _ => None,
        }
    }

    /// The walker's `lookup`, done statically: slots that may hold `name`
    /// (innermost first) and the nearest one that certainly does.
    fn resolve(&self, name: &str) -> (Vec<Slot>, Option<Slot>) {
        let mut candidates = Vec::new();
        for scope in self.scopes.iter().rev() {
            if let Some(binding) = scope.names.get(name) {
                if binding.definite {
                    return (candidates, Some(binding.slot));
                }
                candidates.push(binding.slot);
            }
        }
        (candidates, self.scope0.get(name).copied())
    }

    /// A chain for an access to `name` that cannot be resolved to one slot.
    /// A write through it may bind the name in the innermost scope, which is
    /// a fact later rounds (and earlier code) need.
    fn chain(
        &mut self,
        name: &str,
        candidates: Vec<Slot>,
        bound: Option<Slot>,
        missing: Missing,
        writes: bool,
    ) -> u32 {
        let implicit = if writes && bound.is_none() {
            let scope = self.scope_mut().id;
            self.found
                .conditional
                .insert((self.func, scope, name.to_string()));
            self.variable_slot(name)
        } else {
            NONE
        };
        self.program.chains.push(Chain {
            candidates,
            bound,
            missing,
            implicit,
        });
        self.program.chains.len() as u32 - 1
    }

    /// The variable a place expression names, for the operations that read
    /// and write variables in place (lanes, subscripts of vector variables).
    /// A name nothing binds reads as integer zero there.
    fn var_ref(&mut self, name: &str, writes: bool) -> VarRef {
        match self.resolve(name) {
            (candidates, Some(slot)) if candidates.is_empty() => slot,
            (candidates, None) if candidates.is_empty() && !writes => NONE,
            (candidates, bound) => {
                CHAIN
                    | self.chain(
                        name,
                        candidates,
                        bound,
                        Missing::Value(Scalar::I(0)),
                        writes,
                    )
            }
        }
    }

    // ----- statements -------------------------------------------------------

    fn block(&mut self, block: &'a Block) {
        self.enter_scope();
        for stmt in &block.stmts {
            self.stmt(stmt, true);
        }
        self.exit_scope();
    }

    /// Lower one statement. `direct` says it is a statement of the innermost
    /// scope's own list (so a declaration here dominates what follows it).
    fn stmt(&mut self, stmt: &'a Stmt, direct: bool) {
        self.release();
        match stmt {
            Stmt::Block(b) => self.block(b),
            Stmt::Empty => {}
            Stmt::Error(_) => self.trap(ExecError::error_statement()),
            Stmt::Decl(d) => self.decl(d, direct),
            Stmt::Expr(e) => {
                self.expr(e, Want::Discard);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.pending.branches += 1;
                self.step();
                let otherwise = self.label();
                self.jump_if(cond, false, otherwise);
                self.stmt(then_branch, false);
                match else_branch {
                    Some(else_branch) => {
                        let end = self.label();
                        self.jump(Op::Jump { to: end });
                        self.bind(otherwise);
                        self.stmt(else_branch, false);
                        self.bind(end);
                    }
                    None => self.bind(otherwise),
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.enter_scope();
                if let Some(init) = init {
                    self.stmt(init, true);
                    self.release();
                }
                let (next, exit) = (self.label(), self.label());
                self.looping(cond.as_ref(), body, next, exit, |l| {
                    if let Some(step) = step {
                        l.release();
                        l.expr(step, Want::Discard);
                    }
                });
                self.exit_scope();
            }
            Stmt::While { cond, body } => {
                let (next, exit) = (self.label(), self.label());
                self.looping(Some(cond), body, next, exit, |_| {});
            }
            Stmt::DoWhile { body, cond } => {
                let (again, test, exit) = (self.label(), self.label(), self.label());
                self.bind_head(again);
                self.body(body, exit, test);
                self.bind(test);
                self.release();
                self.pending.branches += 1;
                self.step();
                self.jump_if(cond, true, again);
                self.bind(exit);
            }
            Stmt::Switch { cond, cases } => self.switch(cond, cases),
            Stmt::Return(value) => {
                self.step();
                let src = match value {
                    Some(e) => self.expr(e, Want::Any),
                    None => {
                        let dst = self.alloc();
                        self.emit(Op::Void { dst });
                        dst
                    }
                };
                self.emit_checked(Op::Return { src });
            }
            Stmt::Break => self.leave(|t| t.on_break),
            Stmt::Continue => self.leave(|t| t.on_continue),
        }
        self.release();
    }

    /// A `for` or `while` loop: test, then body / `step` / test again until
    /// the test fails (the test is emitted at the top and at the bottom, so an
    /// iteration is one straight-line run and one jump). `continue` goes to
    /// `next`, `break` to `exit`.
    fn looping(
        &mut self,
        cond: Option<&'a Expr>,
        body: &'a Stmt,
        next: u32,
        exit: u32,
        step: impl Fn(&mut Self),
    ) {
        let again = self.label();
        self.pending.branches += 1;
        self.step();
        if let Some(cond) = cond {
            self.jump_if(cond, false, exit);
        }
        self.bind_head(again);
        self.body(body, exit, next);
        self.bind(next);
        step(self);
        self.release();
        self.pending.branches += 1;
        self.step();
        match cond {
            Some(cond) => self.jump_if(cond, true, again),
            None => self.jump(Op::Jump { to: again }),
        }
        self.bind(exit);
    }

    /// A loop body, with `break` and `continue` bound to the loop.
    fn body(&mut self, body: &'a Stmt, on_break: u32, on_continue: u32) {
        self.targets.push(Targets {
            on_break,
            on_continue,
        });
        self.stmt(body, false);
        self.targets.pop();
    }

    /// `break` / `continue`: to the enclosing construct's label, or — outside
    /// any — out of the function, as the walker's unwinding does.
    fn leave(&mut self, pick: impl Fn(&Targets) -> u32) {
        match self.targets.last().map(pick) {
            Some(to) => self.jump(Op::Jump { to }),
            None => self.emit_checked(Op::ReturnZero),
        }
    }

    fn switch(&mut self, cond: &'a Expr, cases: &'a [SwitchCase]) {
        self.pending.branches += 1;
        self.step();
        let value = self.expr(cond, Want::Any);
        let scrutinee = self.alloc();
        self.emit(Op::CoerceInt {
            dst: scrutinee,
            src: value,
        });
        // Compare against each case value in order; `default` is where no
        // value matches, and the first one wins.
        let entries: Vec<u32> = cases.iter().map(|_| self.label()).collect();
        let end = self.label();
        let mut default = None;
        for (case, &entry) in cases.iter().zip(&entries) {
            match &case.value {
                Some(v) => {
                    let mark = self.top;
                    let value = self.expr(v, Want::Any);
                    self.jump(Op::JumpIfCase {
                        scrutinee,
                        value,
                        to: entry,
                    });
                    self.top = mark;
                }
                None => {
                    default.get_or_insert(entry);
                }
            }
        }
        self.jump(Op::Jump {
            to: default.unwrap_or(end),
        });
        // Bodies run in the enclosing scope and fall through. `break` leaves
        // the switch; `continue` is swallowed by it (the walker's `switch`
        // treats it as the end of the statement that raised it).
        for (case, &entry) in cases.iter().zip(&entries) {
            self.bind(entry);
            for stmt in &case.body {
                let after = self.label();
                self.targets.push(Targets {
                    on_break: end,
                    on_continue: after,
                });
                self.stmt(stmt, false);
                self.targets.pop();
                self.bind(after);
            }
        }
        self.bind(end);
    }

    fn decl(&mut self, d: &'a Declaration, direct: bool) {
        for v in &d.vars {
            self.release();
            self.step();
            // The name is bound once the initialiser has run: until then it
            // means whatever it meant before (`int x = x + 1;`).
            let earlier = self.scope_mut().names.get(&v.name).copied();
            let slot = match earlier {
                Some(binding) => binding.slot,
                None => {
                    let slot = self.alloc();
                    self.scope_mut().vars_top = slot + 1;
                    slot
                }
            };
            match (&v.ty, &v.init) {
                (Type::Array { .. }, _) => {
                    let (elem, lanes, dims) = array_shape(&v.ty);
                    // An overflowing or oversized stride belongs to an array
                    // the allocation refuses, so is never used.
                    let stride = dims
                        .iter()
                        .skip(1)
                        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                        .map_or(1, |n| n.max(1));
                    self.program.arrays.push(ArrayDecl {
                        name: v.name.clone(),
                        elem,
                        lanes,
                        elements: scratch_elements(&dims),
                        space: if d.address_space == AddressSpace::Local {
                            BufferSpace::Local
                        } else {
                            BufferSpace::Private
                        },
                        stride: u32::try_from(stride).unwrap_or(1),
                    });
                    let array = self.program.arrays.len() as u32 - 1;
                    self.emit_checked(Op::Alloc { dst: slot, array });
                }
                (ty, Some(init)) => {
                    self.expr(init, Want::Into(slot));
                    self.coerce(slot, slot, ty);
                }
                (Type::Vector(..), None) => {
                    let ty = self.ty(&v.ty);
                    self.emit(Op::Default { dst: slot, ty });
                }
                (ty, None) => {
                    let zero = match ty {
                        Type::Scalar(s) => Scalar::zero_of(*s),
                        _ => Scalar::I(0),
                    };
                    let k = self.constant(zero);
                    self.emit(Op::Const { dst: slot, k });
                }
            }
            let definite = direct || earlier.is_some_and(|b| b.definite);
            let scope = self.scope_mut();
            scope
                .names
                .insert(v.name.clone(), Binding { slot, definite });
            if !definite {
                let scope = scope.id;
                self.found
                    .conditional
                    .insert((self.func, scope, v.name.clone()));
            }
        }
    }

    /// Convert `src` to declared type `ty` into `dst`.
    fn coerce(&mut self, dst: Slot, src: Slot, ty: &Type) {
        match ty {
            Type::Scalar(s) if s.is_float() => self.emit(Op::CoerceFloat { dst, src }),
            Type::Scalar(_) => self.emit(Op::CoerceInt { dst, src }),
            Type::Vector(..) => {
                let ty = self.ty(ty);
                self.emit(Op::Coerce { dst, src, ty });
            }
            _ => self.mov(dst, src),
        }
    }

    fn mov(&mut self, dst: Slot, src: Slot) {
        if dst != src {
            self.emit(Op::Move { dst, src });
        }
    }

    // ----- expressions ------------------------------------------------------

    /// The slot `want` asks for, or a fresh temporary.
    fn dst(&mut self, want: Want) -> Slot {
        match want {
            Want::Into(slot) => slot,
            _ => self.alloc(),
        }
    }

    /// Hand a value that lives in `slot` to whoever wanted it.
    fn deliver(&mut self, slot: Slot, want: Want) -> Slot {
        match want {
            Want::Into(dst) => {
                self.mov(dst, slot);
                dst
            }
            _ => slot,
        }
    }

    /// Keep a value that was read out of a variable's own slot safe from
    /// assignments in expressions evaluated after it but before its use.
    fn hold(&mut self, slot: Slot, later: &[&Expr]) -> Slot {
        if self.is_temporary(slot) || !later.iter().any(|e| assigns(e)) {
            return slot;
        }
        let copy = self.alloc();
        self.emit(Op::Move {
            dst: copy,
            src: slot,
        });
        copy
    }

    fn const_into(&mut self, value: Scalar, want: Want) -> Slot {
        if want == Want::Discard {
            return NONE;
        }
        let dst = self.dst(want);
        let k = self.constant(value);
        self.emit(Op::Const { dst, k });
        dst
    }

    /// The value of `e` if it is a constant the walker evaluates without a
    /// tick, a counter or an effect.
    fn as_const(&self, e: &Expr) -> Option<Scalar> {
        Some(match e {
            Expr::IntLit { value, .. } => Scalar::I(*value),
            Expr::FloatLit { value, .. } => Scalar::F(*value),
            Expr::CharLit(c) => Scalar::I(*c as i64),
            Expr::StrLit(_) => Scalar::I(0),
            Expr::SizeOf { ty, .. } => Scalar::I(ty.as_ref().map_or(4, Type::size_bytes) as i64),
            Expr::Ident(name) => match self.resolve(name) {
                (candidates, None) if candidates.is_empty() => builtin_constant(name)?,
                _ => return None,
            },
            _ => return None,
        })
    }

    fn expr(&mut self, e: &'a Expr, want: Want) -> Slot {
        if let Some(value) = self.as_const(e) {
            return self.const_into(value, want);
        }
        match e {
            Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::CharLit(_)
            | Expr::StrLit(_)
            | Expr::SizeOf { .. } => unreachable!("constants were handled above"),
            Expr::Error(_) => {
                self.trap(ExecError::error_expression());
                self.dst(want)
            }
            Expr::Ident(name) => match self.resolve(name) {
                (candidates, Some(slot)) if candidates.is_empty() => self.deliver(slot, want),
                (candidates, bound) => {
                    let missing = match builtin_constant(name) {
                        Some(value) => Missing::Value(value),
                        None => {
                            self.program
                                .errors
                                .push(ExecError::unbound_identifier(name));
                            Missing::Error(self.program.errors.len() as u32 - 1)
                        }
                    };
                    let chain = self.chain(name, candidates, bound, missing, false);
                    let dst = self.dst(want);
                    self.emit_checked(Op::LoadVar { dst, chain });
                    dst
                }
            },
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, want),
            Expr::Unary { op, expr } => self.unary(*op, expr, want),
            Expr::Postfix { expr, inc } => {
                self.step();
                self.pending.compute += 1;
                let k = self.constant(Scalar::I(if *inc { 1 } else { -1 }));
                let op = BinOp::Add;
                // The value is the one before the update.
                match self.own_slot(expr) {
                    Some(var) => {
                        let old = match want {
                            Want::Discard => NONE,
                            _ => {
                                let old = self.alloc();
                                self.emit(Op::Move { dst: old, src: var });
                                old
                            }
                        };
                        self.emit(Op::BinConst {
                            op,
                            dst: var,
                            a: var,
                            k,
                        });
                        self.deliver(old, want)
                    }
                    None => {
                        let a = self.expr(expr, Want::Any);
                        let dst = self.alloc();
                        self.emit(Op::BinConst { op, dst, a, k });
                        self.store_to(expr, dst);
                        self.deliver(a, want)
                    }
                }
            }
            Expr::Assign { op, lhs, rhs } => self.assign(*op, lhs, rhs, want),
            Expr::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                self.step();
                self.pending.branches += 1;
                let dst = match want {
                    Want::Discard => NONE,
                    _ => self.dst(want),
                };
                let arm = if dst == NONE {
                    Want::Discard
                } else {
                    Want::Into(dst)
                };
                let mark = self.top;
                let (otherwise, end) = (self.label(), self.label());
                self.jump_if(cond, false, otherwise);
                self.expr(then_expr, arm);
                self.jump(Op::Jump { to: end });
                self.bind(otherwise);
                self.top = mark;
                self.expr(else_expr, arm);
                self.bind(end);
                self.top = mark;
                dst
            }
            Expr::Call { callee, args } => self.call(callee, args, want),
            Expr::Index { base, index } => {
                self.step();
                self.load_index(base, index, NONE, want)
            }
            Expr::Member { base, member, .. } => {
                self.step();
                if !is_vector_component(member) {
                    // Struct fields are not modelled: they read as zero.
                    return self.const_into(Scalar::I(0), want);
                }
                let lane = component_lane(member) as u32;
                match &**base {
                    Expr::Ident(name) => match self.var_ref(name, false) {
                        NONE => self.const_into(Scalar::I(0), want),
                        var => {
                            let dst = self.dst(want);
                            self.emit(Op::GetLane { dst, var, lane });
                            dst
                        }
                    },
                    Expr::Index { base, index } => self.load_index(base, index, lane, want),
                    _ => self.const_into(Scalar::I(0), want),
                }
            }
            Expr::Cast { ty, expr } => match ty {
                Type::Scalar(_) | Type::Vector(..) => {
                    let dst = self.dst(want);
                    let mark = self.top;
                    let src = self.expr(expr, Want::Any);
                    self.coerce(dst, src, ty);
                    self.top = mark;
                    dst
                }
                _ => self.expr(expr, want),
            },
            Expr::VectorLit { ty, elems } => {
                self.step();
                let dst = self.dst(want);
                let mark = self.top;
                let first = self.top;
                for _ in elems {
                    self.alloc();
                }
                for (i, elem) in elems.iter().enumerate() {
                    let mark = self.top;
                    self.expr(elem, Want::Into(first + i as Slot));
                    self.top = mark;
                }
                let ty = self.ty(ty);
                self.emit(Op::VectorLit {
                    dst,
                    ty,
                    first,
                    count: elems.len() as u32,
                });
                self.top = mark;
                dst
            }
            Expr::Comma(elems) => match elems.split_last() {
                Some((last, rest)) => {
                    for e in rest {
                        let mark = self.top;
                        self.expr(e, Want::Discard);
                        self.top = mark;
                    }
                    self.expr(last, want)
                }
                None => {
                    let dst = self.dst(want);
                    self.emit(Op::Void { dst });
                    dst
                }
            },
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &'a Expr, rhs: &'a Expr, want: Want) -> Slot {
        self.step();
        if op.is_arithmetic() {
            self.pending.compute += 1;
        }
        let dst = self.dst(want);
        let mark = self.top;
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            self.pending.branches += 1;
            // Short circuit: the right operand only runs when it decides.
            let decided = op == BinOp::LogOr;
            let (short, end) = (self.label(), self.label());
            self.jump_if(lhs, decided, short);
            let src = self.expr(rhs, Want::Any);
            self.emit(Op::Truth { dst, src });
            self.jump(Op::Jump { to: end });
            self.bind(short);
            let k = self.constant(Scalar::I(i64::from(decided)));
            self.emit(Op::Const { dst, k });
            self.bind(end);
        } else if let (BinOp::Add, Some(product), None) =
            (op, self.product(lhs), self.as_const(rhs))
        {
            let (a, b) = self.factors(product, &[rhs]);
            let c = self.expr(rhs, Want::Any);
            let flipped = false;
            self.emit(Op::MulAdd {
                flipped,
                dst,
                a,
                b,
                c,
            });
        } else if let (BinOp::Add, Some(product)) = (op, self.product(rhs)) {
            let c = self.expr(lhs, Want::Any);
            let c = self.hold(c, &[product.0, product.1]);
            let (a, b) = self.factors(product, &[]);
            let flipped = true;
            self.emit(Op::MulAdd {
                flipped,
                dst,
                a,
                b,
                c,
            });
        } else {
            let a = self.expr(lhs, Want::Any);
            let a = self.hold(a, &[rhs]);
            match self.as_const(rhs) {
                Some(value) => {
                    let k = self.constant(value);
                    self.emit(Op::BinConst { op, dst, a, k });
                }
                None => {
                    let b = self.expr(rhs, Want::Any);
                    self.emit(Op::Bin { op, dst, a, b });
                }
            }
        }
        self.top = mark;
        dst
    }

    /// `e` as a product of two non-constant operands: one the addition that
    /// consumes it can compute (a product has no effect of its own, so when
    /// it is computed cannot be observed).
    fn product(&self, e: &'a Expr) -> Option<(&'a Expr, &'a Expr)> {
        match e {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
            } if self.as_const(rhs).is_none() => Some((lhs, rhs)),
            _ => None,
        }
    }

    /// Evaluate the factors of a fused product (charging its tick), keeping
    /// them safe from whatever is evaluated `later`.
    fn factors(&mut self, (lhs, rhs): (&'a Expr, &'a Expr), later: &[&Expr]) -> (Slot, Slot) {
        self.step();
        self.pending.compute += 1;
        let a = self.expr(lhs, Want::Any);
        let a = self.hold(a, &[&[rhs], later].concat());
        let b = self.expr(rhs, Want::Any);
        let b = self.hold(b, later);
        (a, b)
    }

    fn unary(&mut self, op: UnOp, operand: &'a Expr, want: Want) -> Slot {
        self.step();
        match op {
            UnOp::Plus => self.expr(operand, want),
            UnOp::Deref | UnOp::Neg | UnOp::BitNot | UnOp::Not => {
                if matches!(op, UnOp::Neg | UnOp::BitNot) {
                    self.pending.compute += 1;
                }
                let dst = self.dst(want);
                let mark = self.top;
                let src = self.expr(operand, Want::Any);
                self.emit(match op {
                    UnOp::Deref => Op::Deref { dst, src },
                    UnOp::Neg => Op::Neg { dst, src },
                    UnOp::BitNot => Op::BitNot { dst, src },
                    _ => Op::Not { dst, src },
                });
                self.top = mark;
                dst
            }
            UnOp::AddrOf => self.address_of(operand, want),
            UnOp::PreInc | UnOp::PreDec => {
                self.pending.compute += 1;
                let k = self.constant(Scalar::I(if op == UnOp::PreInc { 1 } else { -1 }));
                let op = BinOp::Add;
                let updated = match self.own_slot(operand) {
                    Some(var) => {
                        self.emit(Op::BinConst {
                            op,
                            dst: var,
                            a: var,
                            k,
                        });
                        var
                    }
                    None => {
                        let a = self.expr(operand, Want::Any);
                        let dst = self.alloc();
                        self.emit(Op::BinConst { op, dst, a, k });
                        self.store_to(operand, dst);
                        dst
                    }
                };
                self.deliver(updated, want)
            }
        }
    }

    /// `&place`: a pointer for buffer elements, zero for everything else
    /// (variables have no address here).
    fn address_of(&mut self, place: &'a Expr, want: Want) -> Slot {
        let element = match place {
            Expr::Member { base, member, .. } if is_vector_component(member) => match &**base {
                index @ Expr::Index { .. } => index,
                _ => return self.const_into(Scalar::I(0), want),
            },
            other => other,
        };
        match element {
            Expr::Index { base, index } => {
                let dst = self.dst(want);
                let mark = self.top;
                let (base, idx) = self.base_and_index(base, index);
                self.emit(Op::AddrIndex { dst, base, idx });
                self.top = mark;
                dst
            }
            Expr::Unary {
                op: UnOp::Deref,
                expr,
            } => {
                let dst = self.dst(want);
                let mark = self.top;
                let src = self.expr(expr, Want::Any);
                self.emit(Op::AddrDeref { dst, src });
                self.top = mark;
                dst
            }
            _ => self.const_into(Scalar::I(0), want),
        }
    }

    fn base_and_index(&mut self, base: &'a Expr, index: &'a Expr) -> (Slot, Slot) {
        let b = self.expr(base, Want::Any);
        let b = self.hold(b, &[index]);
        let idx = self.expr(index, Want::Any);
        (b, idx)
    }

    /// The variable `base` names, if it is a plain identifier.
    fn base_var(&mut self, base: &Expr, writes: bool) -> VarRef {
        match base {
            Expr::Ident(name) => self.var_ref(name, writes),
            _ => NONE,
        }
    }

    fn load_index(&mut self, base: &'a Expr, index: &'a Expr, lane: u32, want: Want) -> Slot {
        let dst = self.dst(want);
        let mark = self.top;
        let var = self.base_var(base, false);
        let (base, idx) = self.base_and_index(base, index);
        self.emit(Op::LoadIndex {
            dst,
            base,
            idx,
            var,
            lane,
        });
        self.top = mark;
        dst
    }

    fn assign(&mut self, op: AssignOp, lhs: &'a Expr, rhs: &'a Expr, want: Want) -> Slot {
        self.step();
        let own_slot = self.own_slot(lhs);
        let value = match (op.binary_op(), own_slot) {
            (None, Some(slot)) => self.expr(rhs, Want::Into(slot)),
            (None, None) => {
                let value = self.expr(rhs, Want::Any);
                let value = self.hold(value, &[lhs]);
                self.store_to(lhs, value);
                value
            }
            (Some(bin), _) => {
                self.pending.compute += 1;
                // The target is evaluated (after the value) as a value, then
                // again as a place.
                let dst = if let Some(value) = self.as_const(rhs) {
                    let a = self.expr(lhs, Want::Any);
                    let dst = own_slot.unwrap_or_else(|| self.alloc());
                    let k = self.constant(value);
                    self.emit(Op::BinConst { op: bin, dst, a, k });
                    dst
                } else if let (BinOp::Add, Some(product)) = (bin, self.product(rhs)) {
                    let (a, b) = self.factors(product, &[lhs]);
                    let c = self.expr(lhs, Want::Any);
                    let dst = own_slot.unwrap_or_else(|| self.alloc());
                    let flipped = true;
                    self.emit(Op::MulAdd {
                        flipped,
                        dst,
                        a,
                        b,
                        c,
                    });
                    dst
                } else {
                    let b = self.expr(rhs, Want::Any);
                    let b = self.hold(b, &[lhs]);
                    let a = self.expr(lhs, Want::Any);
                    let dst = own_slot.unwrap_or_else(|| self.alloc());
                    self.emit(Op::Bin { op: bin, dst, a, b });
                    dst
                };
                if own_slot.is_none() {
                    self.store_to(lhs, dst);
                }
                dst
            }
        };
        self.deliver(value, want)
    }

    /// The walker's `store_to`: evaluate `lhs` as a place and store `src`
    /// there. An expression that is not a place is not evaluated at all.
    fn store_to(&mut self, lhs: &'a Expr, src: Slot) {
        match lhs {
            Expr::Ident(name) => match self.resolve(name) {
                (candidates, Some(slot)) if candidates.is_empty() => self.mov(slot, src),
                (candidates, bound) => {
                    let chain =
                        self.chain(name, candidates, bound, Missing::Value(Scalar::I(0)), true);
                    self.emit(Op::StoreVar { chain, src });
                }
            },
            Expr::Unary {
                op: UnOp::Deref,
                expr,
            } => {
                let ptr = self.expr(expr, Want::Any);
                self.emit(Op::StoreDeref { ptr, src });
            }
            Expr::Index { base, index } => self.store_index(base, index, NONE, src),
            Expr::Member { base, member, .. } if is_vector_component(member) => {
                let lane = component_lane(member) as u32;
                match &**base {
                    Expr::Ident(name) => {
                        let var = self.var_ref(name, true);
                        self.emit(Op::SetLane { var, lane, src });
                    }
                    Expr::Index { base, index } => self.store_index(base, index, lane, src),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn store_index(&mut self, base: &'a Expr, index: &'a Expr, lane: u32, src: Slot) {
        let var = self.base_var(base, true);
        let (base, idx) = self.base_and_index(base, index);
        self.emit(Op::StoreIndex {
            base,
            idx,
            var,
            lane,
            src,
        });
    }

    // ----- calls ------------------------------------------------------------

    fn call(&mut self, callee: &'a str, args: &'a [Expr], want: Want) -> Slot {
        self.step();
        if let Some(kind) = builtin_function_kind(callee) {
            return self.builtin(callee, kind, args, want);
        }
        let Some(def) = self.unit.function(callee) else {
            self.trap(ExecError::unknown_function(callee));
            return self.dst(want);
        };
        self.emit_checked(Op::CallGuard);
        let func = match self.by_name.get(callee) {
            Some(&index) => index,
            None => {
                let index = self.program.funcs.len() as u32;
                self.program.funcs.push(Func {
                    entry: 0,
                    frame: 0,
                    params: Vec::new(),
                    return_type: Type::Scalar(ScalarType::Void),
                });
                self.by_name.insert(callee, index);
                self.queue.push((index, def));
                index
            }
        };
        if args.len() < def.params.len() {
            self.found.short_called.insert(func);
        }
        let dst = self.dst(want);
        let mark = self.top;
        // The callee's frame begins here: its copy of scope 0, then the
        // arguments, evaluated straight into its parameter slots.
        let frame = self.top;
        let first = frame + self.scope0_len();
        self.top = first + args.len() as Slot;
        self.frame = self.frame.max(self.top);
        for (i, arg) in args.iter().enumerate() {
            let mark = self.top;
            self.expr(arg, Want::Into(first + i as Slot));
            self.top = mark;
        }
        self.emit_checked(Op::Call {
            func,
            frame,
            args: args.len() as u32,
            dst,
        });
        self.top = mark;
        dst
    }

    /// Evaluate `args`: the first `N` into slots ([`NONE`] for absent ones),
    /// the rest only for their effects. `later` is what the caller evaluates
    /// after them and before the operation uses the slots.
    fn operands<const N: usize>(&mut self, args: &'a [Expr], later: &[&Expr]) -> [Slot; N] {
        let mut slots = [NONE; N];
        for (i, arg) in args.iter().enumerate() {
            if i < N {
                let later: Vec<&Expr> = args[i + 1..].iter().chain(later.iter().copied()).collect();
                let slot = self.expr(arg, Want::Any);
                slots[i] = self.hold(slot, &later);
            } else {
                let mark = self.top;
                self.expr(arg, Want::Discard);
                self.top = mark;
            }
        }
        slots
    }

    fn builtin(
        &mut self,
        callee: &'a str,
        kind: BuiltinKind,
        args: &'a [Expr],
        want: Want,
    ) -> Slot {
        let dst = self.dst(want);
        let mark = self.top;
        match kind {
            BuiltinKind::WorkItem => {
                let f = WorkItemFn::from_name(callee);
                match args.first() {
                    Some(arg) => match self.as_const(arg) {
                        Some(dim) => self.emit(Op::WorkItemAt {
                            f,
                            dst,
                            dim: dim.as_i64().clamp(0, 2) as u8,
                        }),
                        None => {
                            let dim = self.expr(arg, Want::Any);
                            self.emit(Op::WorkItem { f, dst, dim });
                        }
                    },
                    None => self.emit(Op::WorkItemAt { f, dst, dim: 0 }),
                }
            }
            BuiltinKind::Sync => {
                self.pending.barriers += 1;
                self.operands::<0>(args, &[]);
                self.emit(Op::Void { dst });
            }
            BuiltinKind::Math => {
                self.pending.math += 1;
                self.pending.compute += 1;
                let [a, b, c] = self.operands::<3>(args, &[]);
                self.emit(Op::Math {
                    f: MathFn::from_name(callee),
                    dst,
                    a,
                    b,
                    c,
                });
            }
            BuiltinKind::Atomic if args.is_empty() => {
                self.trap(ExecError::atomic_without_pointer(callee));
            }
            BuiltinKind::Atomic => {
                self.pending.compute += 1;
                let op = AtomicOp::from_name(callee);
                let exchange = args.get(2).filter(|_| op == AtomicOp::CmpXchg);
                let [ptr, operand] =
                    self.operands::<2>(&args[..args.len().min(2)], exchange.as_slice());
                let mut desired = NONE;
                if let Some(arg) = exchange {
                    // Only evaluated when there is a location to exchange.
                    desired = self.alloc();
                    let skip = self.label();
                    self.jump(Op::JumpIfNotPtr { src: ptr, to: skip });
                    self.expr(arg, Want::Into(desired));
                    self.bind(skip);
                }
                self.emit(Op::Atomic {
                    op,
                    dst,
                    ptr,
                    operand,
                    desired,
                });
            }
            BuiltinKind::Convert => {
                let src = match args.first() {
                    Some(arg) => self.expr(arg, Want::Any),
                    None => self.const_into(Scalar::I(0), Want::Any),
                };
                match convert_target(callee) {
                    Some(ty) => self.coerce(dst, src, &ty),
                    None => self.mov(dst, src),
                }
            }
            BuiltinKind::VectorData => match VectorDataFn::from_name(callee) {
                Err(why) => self.trap(ExecError::Unsupported(why)),
                Ok(f) if f.load && args.len() >= 2 => {
                    let [offset, ptr] = self.operands::<2>(&args[..2], &[]);
                    self.emit(Op::VLoad {
                        dst,
                        lanes: f.lanes as u32,
                        offset,
                        ptr,
                    });
                }
                Ok(f) if !f.load && args.len() >= 3 => {
                    let [data, offset, ptr] = self.operands::<3>(&args[..3], &[]);
                    self.emit(Op::VStore {
                        lanes: f.lanes as u32,
                        data,
                        offset,
                        ptr,
                    });
                    self.emit(Op::Void { dst });
                }
                Ok(_) => {
                    let k = self.constant(Scalar::I(0));
                    self.emit(Op::Const { dst, k });
                }
            },
            BuiltinKind::Image | BuiltinKind::Async | BuiltinKind::Other => {
                // Outside the supported subset (CLgen never generates them):
                // arguments run for their effects, the call yields zero.
                self.operands::<0>(args, &[]);
                let k = self.constant(Scalar::I(0));
                self.emit(Op::Const { dst, k });
            }
        }
        self.top = mark;
        dst
    }
}

/// Does evaluating `e` assign to any variable? (Calls cannot: a callee's
/// frame is its own.)
fn assigns(e: &Expr) -> bool {
    match e {
        Expr::Assign { .. } | Expr::Postfix { .. } => true,
        Expr::Unary { op, expr } => matches!(op, UnOp::PreInc | UnOp::PreDec) || assigns(expr),
        Expr::Binary { lhs, rhs, .. } => assigns(lhs) || assigns(rhs),
        Expr::Conditional {
            cond,
            then_expr,
            else_expr,
        } => assigns(cond) || assigns(then_expr) || assigns(else_expr),
        Expr::Call { args, .. } => args.iter().any(assigns),
        Expr::Index { base, index } => assigns(base) || assigns(index),
        Expr::Member { base, .. } => assigns(base),
        Expr::Cast { expr, .. } => assigns(expr),
        Expr::VectorLit { elems, .. } | Expr::Comma(elems) => elems.iter().any(assigns),
        Expr::IntLit { .. }
        | Expr::FloatLit { .. }
        | Expr::CharLit(_)
        | Expr::StrLit(_)
        | Expr::Ident(_)
        | Expr::SizeOf { .. }
        | Expr::Error(_) => false,
    }
}
