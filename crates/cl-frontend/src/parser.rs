//! Recursive-descent parser for the OpenCL C subset.
//!
//! The parser is *resilient*: syntax errors produce diagnostics and localized
//! [`Expr::Error`] / [`Stmt::Error`] placeholder nodes, then recovery resumes
//! (skipping to the next `;` or `}`). The result is always a complete
//! best-effort tree — the corpus rejection filter can classify *why* a
//! content file fails rather than aborting on the first problem, and the
//! candidate-repair stage can inspect how much of a sampled kernel survived.
//!
//! Diagnostics are bounded: at most [`MAX_PARSE_DIAGNOSTICS`] parse errors
//! are recorded per unit (a final note marks suppression), and the
//! recursion-depth cap reports exactly once, so pathological input can never
//! produce a diagnostic cascade proportional to its length.

use crate::ast::*;
use crate::error::{DiagnosticKind, Diagnostics};
use crate::lexer::tokenize;
use crate::token::{Keyword, Punct, Span, Token, TokenKind};
use std::collections::HashSet;

/// The result of parsing a translation unit.
#[derive(Debug, Clone)]
pub struct ParseResult {
    /// The parsed AST (possibly partial if errors occurred).
    pub unit: TranslationUnit,
    /// Diagnostics produced while parsing.
    pub diagnostics: Diagnostics,
}

impl ParseResult {
    /// True if parsing completed without errors.
    pub fn is_ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }
}

/// Parse preprocessed OpenCL C source into a [`TranslationUnit`].
pub fn parse(src: &str) -> ParseResult {
    let (tokens, mut diags) = tokenize(src);
    let mut parser = Parser::new(tokens);
    let unit = parser.parse_unit();
    diags.extend(parser.diags);
    ParseResult {
        unit,
        diagnostics: diags,
    }
}

/// OpenCL opaque types that we accept as named types without definition.
const OPAQUE_TYPES: &[&str] = &[
    "image1d_t",
    "image2d_t",
    "image3d_t",
    "image2d_array_t",
    "sampler_t",
    "event_t",
    "queue_t",
    "pipe",
];

/// Maximum statement/expression nesting depth. The parser is recursive
/// descent, so pathologically nested input (`((((…))))`, `{{{{…}}}}`) would
/// otherwise exhaust the thread stack — an abort no caller can catch. Past
/// this depth the parser emits a diagnostic (once) and recovers with error
/// nodes instead.
pub const MAX_NESTING_DEPTH: usize = 200;

/// Maximum parse diagnostics recorded per translation unit. Recovery on
/// badly-broken input (e.g. random sampled bytes) can fail once per token;
/// without a cap that is a diagnostic cascade proportional to input length.
/// The unit is already marked failed by the first error, so further
/// diagnostics only aid debugging — one suppression note replaces the rest.
pub const MAX_PARSE_DIAGNOSTICS: usize = 24;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
    /// Names introduced by `typedef` (plus the opaque OpenCL types).
    type_names: HashSet<String>,
    /// Struct tags defined so far.
    struct_names: HashSet<String>,
    /// Current statement/expression nesting depth (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
    /// Parse errors recorded so far (see [`MAX_PARSE_DIAGNOSTICS`]).
    errors_emitted: usize,
    /// Whether the "further diagnostics suppressed" note has been recorded.
    suppression_noted: bool,
    /// Whether the depth-cap diagnostic has been recorded (reported once).
    depth_diagnosed: bool,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            diags: Diagnostics::new(),
            type_names: OPAQUE_TYPES.iter().map(|t| (*t).to_string()).collect(),
            struct_names: HashSet::new(),
            depth: 0,
            errors_emitted: 0,
            suppression_noted: false,
            depth_diagnosed: false,
        }
    }

    /// Enter one nesting level; false past the cap. The cap diagnostic is
    /// recorded exactly once per parse — pathologically nested input trips
    /// the guard on every subsequent recursion, and repeating the message
    /// would be a cascade proportional to the nesting depth.
    fn enter_nesting(&mut self) -> bool {
        if self.depth >= MAX_NESTING_DEPTH {
            if !self.depth_diagnosed {
                self.depth_diagnosed = true;
                self.error(format!(
                    "nesting exceeds the maximum depth of {MAX_NESTING_DEPTH}"
                ));
            }
            false
        } else {
            self.depth += 1;
            true
        }
    }

    // ----- token helpers -------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek().is_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct, context: &str) -> bool {
        if self.eat_punct(p) {
            true
        } else {
            self.error(format!(
                "expected `{}` {}, found `{}`",
                p.as_str(),
                context,
                self.peek()
            ));
            false
        }
    }

    fn error(&mut self, message: String) {
        let span = self.span();
        if self.errors_emitted >= MAX_PARSE_DIAGNOSTICS {
            if !self.suppression_noted {
                self.suppression_noted = true;
                self.diags.error(
                    DiagnosticKind::Parse,
                    format!("too many parse errors ({MAX_PARSE_DIAGNOSTICS}); further diagnostics suppressed"),
                    Some(span),
                );
            }
            return;
        }
        self.errors_emitted += 1;
        self.diags.error(DiagnosticKind::Parse, message, Some(span));
    }

    /// Skip tokens until (and including) the next `;`, or until a `}` / EOF.
    fn recover_to_semicolon(&mut self) {
        let mut depth = 0usize;
        while !self.at_eof() {
            match self.peek() {
                TokenKind::Punct(Punct::LBrace) => depth += 1,
                TokenKind::Punct(Punct::RBrace) => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Punct(Punct::Semicolon) if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip a balanced `(...)` group (used for `__attribute__((...))`).
    fn skip_balanced_parens(&mut self) {
        if !self.peek().is_punct(Punct::LParen) {
            return;
        }
        let mut depth = 0usize;
        while !self.at_eof() {
            match self.peek() {
                TokenKind::Punct(Punct::LParen) => depth += 1,
                TokenKind::Punct(Punct::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn skip_attributes(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Ident(name) if name == "__attribute__" || name == "__attribute" => {
                    self.bump();
                    self.skip_balanced_parens();
                }
                _ => break,
            }
        }
    }

    // ----- type parsing ---------------------------------------------------

    fn is_type_name(&self, name: &str) -> bool {
        Type::from_name(name).is_some() || self.type_names.contains(name)
    }

    /// Does the current token begin a type (declaration-specifier)?
    fn at_type_start(&self) -> bool {
        match self.peek() {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Const
                    | Keyword::Volatile
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Struct
                    | Keyword::Union
                    | Keyword::Enum
                    | Keyword::Global
                    | Keyword::Local
                    | Keyword::Constant
                    | Keyword::Private
                    | Keyword::ReadOnly
                    | Keyword::WriteOnly
                    | Keyword::ReadWrite
                    | Keyword::Static
                    | Keyword::Inline
                    | Keyword::Kernel
                    | Keyword::Typedef
                    | Keyword::Extern
                    | Keyword::Restrict
            ),
            TokenKind::Ident(name) => self.is_type_name(name),
            _ => false,
        }
    }

    /// Parsed declaration specifiers (qualifiers plus a base type).
    fn parse_decl_specifiers(&mut self) -> DeclSpecifiers {
        let mut spec = DeclSpecifiers::default();
        loop {
            self.skip_attributes();
            match self.peek().clone() {
                TokenKind::Keyword(Keyword::Kernel) => {
                    spec.is_kernel = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Inline) | TokenKind::Keyword(Keyword::Static) => {
                    spec.is_inline = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Extern)
                | TokenKind::Keyword(Keyword::Volatile)
                | TokenKind::Keyword(Keyword::Restrict) => {
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Typedef) => {
                    spec.is_typedef = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Const) => {
                    spec.is_const = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Global) => {
                    spec.address_space = AddressSpace::Global;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Local) => {
                    spec.address_space = AddressSpace::Local;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Constant) => {
                    spec.address_space = AddressSpace::Constant;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Private) => {
                    spec.address_space = AddressSpace::Private;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::ReadOnly) => {
                    spec.access = Some(AccessQualifier::ReadOnly);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::WriteOnly) => {
                    spec.access = Some(AccessQualifier::WriteOnly);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::ReadWrite) => {
                    spec.access = Some(AccessQualifier::ReadWrite);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Unsigned) => {
                    spec.unsigned = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Signed) => {
                    spec.signed = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union) => {
                    self.bump();
                    if let TokenKind::Ident(tag) = self.peek().clone() {
                        self.bump();
                        spec.base = Some(Type::Struct(tag.clone()));
                        spec.struct_tag = Some(tag);
                    } else {
                        spec.base = Some(Type::Struct(String::new()));
                    }
                    // Inline struct body is handled by the caller for
                    // definitions; here we only accept a reference.
                    break;
                }
                TokenKind::Keyword(Keyword::Enum) => {
                    self.bump();
                    if let TokenKind::Ident(_) = self.peek().clone() {
                        self.bump();
                    }
                    spec.base = Some(Type::Scalar(ScalarType::Int));
                    break;
                }
                TokenKind::Ident(name) => {
                    if spec.base.is_none()
                        && (self.is_type_name(&name) || spec.unsigned || spec.signed)
                    {
                        if let Some(t) = Type::from_name(&name) {
                            spec.base = Some(t);
                            self.bump();
                        } else if self.type_names.contains(&name) {
                            spec.base = Some(Type::Named(name.clone()));
                            self.bump();
                        } else {
                            // `unsigned x` with no base type: int is implied and
                            // `x` is the declarator.
                            break;
                        }
                    } else if spec.base.is_none()
                        && matches!(
                            self.peek_at(1),
                            TokenKind::Ident(_) | TokenKind::Punct(Punct::Star)
                        )
                    {
                        // An unknown name in type position (`FLOAT_T x`,
                        // `FLOAT_T* p`): accept it as a named type so that the
                        // failure is classified as "unknown type" by sema rather
                        // than a cascade of parse errors. This mirrors how clang
                        // reports `unknown type name 'FLOAT_T'`.
                        spec.base = Some(Type::Named(name.clone()));
                        self.bump();
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        spec
    }

    /// Apply `unsigned`/`signed` adjustments and default the base type.
    fn resolve_base_type(&mut self, spec: &DeclSpecifiers) -> Type {
        let base = spec.base.clone().unwrap_or(Type::Scalar(ScalarType::Int));
        if spec.unsigned {
            if let Type::Scalar(s) = base {
                let u = match s {
                    ScalarType::Char => ScalarType::UChar,
                    ScalarType::Short => ScalarType::UShort,
                    ScalarType::Int => ScalarType::UInt,
                    ScalarType::Long => ScalarType::ULong,
                    other => other,
                };
                return Type::Scalar(u);
            }
        }
        base
    }

    /// Parse pointer declarator suffixes (`*`, `* const`, `* restrict`).
    fn parse_pointers(
        &mut self,
        mut ty: Type,
        address_space: AddressSpace,
        is_const: bool,
    ) -> Type {
        while self.peek().is_punct(Punct::Star) {
            self.bump();
            // trailing qualifiers on the pointer itself
            while matches!(
                self.peek(),
                TokenKind::Keyword(Keyword::Const)
                    | TokenKind::Keyword(Keyword::Restrict)
                    | TokenKind::Keyword(Keyword::Volatile)
            ) {
                self.bump();
            }
            ty = Type::Pointer {
                pointee: Box::new(ty),
                address_space,
                is_const,
            };
        }
        ty
    }

    // ----- top level ------------------------------------------------------

    fn parse_unit(&mut self) -> TranslationUnit {
        let mut unit = TranslationUnit::default();
        while !self.at_eof() {
            let before = self.pos;
            match self.parse_top_level_item() {
                Some(item) => unit.items.push(item),
                None => {
                    if self.pos == before {
                        // Ensure forward progress even on unexpected tokens.
                        self.bump();
                    }
                }
            }
        }
        unit
    }

    fn parse_top_level_item(&mut self) -> Option<Item> {
        self.skip_attributes();
        // stray semicolons
        if self.eat_punct(Punct::Semicolon) {
            return None;
        }
        // struct definitions: `struct Tag { ... };` or `typedef struct {...} Name;`
        if self.peek().is_keyword(Keyword::Typedef) || self.peek().is_keyword(Keyword::Struct) {
            if let Some(item) = self.try_parse_struct_or_typedef() {
                return Some(item);
            }
        }
        if !self.at_type_start() {
            self.error(format!("expected declaration, found `{}`", self.peek()));
            self.recover_to_semicolon();
            return None;
        }
        let spec = self.parse_decl_specifiers();
        let base = self.resolve_base_type(&spec);
        self.skip_attributes();

        // Function or variable: look for `name (` vs `name ...`
        let name = match self.peek().clone() {
            TokenKind::Ident(n) => n,
            _ => {
                // e.g. a lone `struct S;` forward declaration
                self.recover_to_semicolon();
                return None;
            }
        };
        // pointer return types: `float* foo(...)`
        // (pointers are parsed before the name, so re-check)
        let base = if self.peek().is_punct(Punct::Star) {
            self.parse_pointers(base, spec.address_space, spec.is_const)
        } else {
            base
        };
        let name = if let TokenKind::Ident(n) = self.peek().clone() {
            self.bump();
            n
        } else {
            name
        };
        self.skip_attributes();

        if self.peek().is_punct(Punct::LParen) {
            // function definition or prototype
            let func = self.parse_function_rest(name, base, &spec);
            return func.map(Item::Function);
        }

        // Global variable declaration (possibly multiple declarators).
        let decl = self.parse_declaration_rest(name, base, &spec);
        if spec.is_typedef {
            // `typedef float myfloat;` — register the last declarator name.
            for var in &decl.vars {
                self.type_names.insert(var.name.clone());
            }
            let var = decl.vars.into_iter().next()?;
            return Some(Item::Typedef {
                name: var.name,
                ty: var.ty,
            });
        }
        Some(Item::GlobalVar(decl))
    }

    fn try_parse_struct_or_typedef(&mut self) -> Option<Item> {
        let start = self.pos;
        let is_typedef = self.eat_keyword(Keyword::Typedef);
        if self.eat_keyword(Keyword::Struct) || self.eat_keyword(Keyword::Union) {
            let tag = if let TokenKind::Ident(n) = self.peek().clone() {
                self.bump();
                n
            } else {
                String::new()
            };
            if self.peek().is_punct(Punct::LBrace) {
                self.bump();
                let mut fields = Vec::new();
                while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
                    let spec = self.parse_decl_specifiers();
                    let base = self.resolve_base_type(&spec);
                    loop {
                        let ty =
                            self.parse_pointers(base.clone(), spec.address_space, spec.is_const);
                        let fname = if let TokenKind::Ident(n) = self.peek().clone() {
                            self.bump();
                            n
                        } else {
                            break;
                        };
                        let ty = self.parse_array_suffix(ty);
                        fields.push(StructField { name: fname, ty });
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    if !self.eat_punct(Punct::Semicolon) {
                        self.recover_to_semicolon();
                    }
                }
                self.expect_punct(Punct::RBrace, "after struct body");
                let mut struct_name = tag.clone();
                // typedef struct { ... } Name;
                if is_typedef {
                    if let TokenKind::Ident(alias) = self.peek().clone() {
                        self.bump();
                        self.type_names.insert(alias.clone());
                        if struct_name.is_empty() {
                            struct_name = alias;
                        }
                    }
                }
                self.eat_punct(Punct::Semicolon);
                if !struct_name.is_empty() {
                    self.struct_names.insert(struct_name.clone());
                    self.type_names.insert(struct_name.clone());
                }
                return Some(Item::Struct(StructDef {
                    name: struct_name,
                    fields,
                }));
            }
            // Not a struct body: rewind and let normal parsing handle it.
            self.pos = start;
            if is_typedef {
                return self.parse_plain_typedef();
            }
            return None;
        }
        if is_typedef {
            self.pos = start;
            return self.parse_plain_typedef();
        }
        self.pos = start;
        None
    }

    /// `typedef <type> <name>;`
    fn parse_plain_typedef(&mut self) -> Option<Item> {
        if !self.eat_keyword(Keyword::Typedef) {
            return None;
        }
        let spec = self.parse_decl_specifiers();
        let base = self.resolve_base_type(&spec);
        let ty = self.parse_pointers(base, spec.address_space, spec.is_const);
        let name = if let TokenKind::Ident(n) = self.peek().clone() {
            self.bump();
            n
        } else {
            self.error("expected typedef name".into());
            self.recover_to_semicolon();
            return None;
        };
        let ty = self.parse_array_suffix(ty);
        if !self.eat_punct(Punct::Semicolon) {
            self.recover_to_semicolon();
        }
        self.type_names.insert(name.clone());
        Some(Item::Typedef { name, ty })
    }

    fn parse_function_rest(
        &mut self,
        name: String,
        return_type: Type,
        spec: &DeclSpecifiers,
    ) -> Option<FunctionDef> {
        let span = self.span();
        self.expect_punct(Punct::LParen, "after function name");
        let mut params = Vec::new();
        if !self.peek().is_punct(Punct::RParen) {
            loop {
                if self.peek().is_punct(Punct::Ellipsis) {
                    self.bump();
                    break;
                }
                if let Some(p) = self.parse_param() {
                    params.push(p);
                }
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen, "after parameter list");
        self.skip_attributes();
        // `void` single parameter means no parameters
        if params.len() == 1
            && params[0].name.is_empty()
            && params[0].ty == Type::Scalar(ScalarType::Void)
        {
            params.clear();
        }
        let body = if self.peek().is_punct(Punct::LBrace) {
            Some(self.parse_block())
        } else {
            self.eat_punct(Punct::Semicolon);
            None
        };
        Some(FunctionDef {
            name,
            return_type,
            params,
            is_kernel: spec.is_kernel,
            is_inline: spec.is_inline,
            body,
            span,
        })
    }

    fn parse_param(&mut self) -> Option<ParamDecl> {
        self.skip_attributes();
        let spec = self.parse_decl_specifiers();
        let base = self.resolve_base_type(&spec);
        let ty = self.parse_pointers(base, spec.address_space, spec.is_const);
        let name = if let TokenKind::Ident(n) = self.peek().clone() {
            self.bump();
            n
        } else {
            String::new()
        };
        let ty = self.parse_array_suffix(ty);
        Some(ParamDecl {
            name,
            ty,
            access: spec.access,
            is_const: spec.is_const,
        })
    }

    fn parse_array_suffix(&mut self, mut ty: Type) -> Type {
        while self.peek().is_punct(Punct::LBracket) {
            self.bump();
            let size = if self.peek().is_punct(Punct::RBracket) {
                None
            } else {
                let e = self.parse_expr();
                e.const_int().map(|v| v.max(0) as usize)
            };
            self.expect_punct(Punct::RBracket, "after array size");
            ty = Type::Array {
                elem: Box::new(ty),
                size,
            };
        }
        ty
    }

    // ----- statements -----------------------------------------------------

    fn parse_block(&mut self) -> Block {
        let mut block = Block::default();
        self.expect_punct(Punct::LBrace, "to open block");
        while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
            let before = self.pos;
            let stmt = self.parse_stmt();
            block.stmts.push(stmt);
            if self.pos == before {
                self.bump();
            }
        }
        self.expect_punct(Punct::RBrace, "to close block");
        block
    }

    fn parse_stmt(&mut self) -> Stmt {
        if !self.enter_nesting() {
            let span = self.span();
            self.recover_to_semicolon();
            return Stmt::Error(span);
        }
        let stmt = self.parse_stmt_inner();
        self.depth -= 1;
        stmt
    }

    fn parse_stmt_inner(&mut self) -> Stmt {
        self.skip_attributes();
        match self.peek().clone() {
            TokenKind::Punct(Punct::LBrace) => Stmt::Block(self.parse_block()),
            TokenKind::Punct(Punct::Semicolon) => {
                self.bump();
                Stmt::Empty
            }
            TokenKind::Keyword(Keyword::If) => self.parse_if(),
            TokenKind::Keyword(Keyword::For) => self.parse_for(),
            TokenKind::Keyword(Keyword::While) => self.parse_while(),
            TokenKind::Keyword(Keyword::Do) => self.parse_do_while(),
            TokenKind::Keyword(Keyword::Switch) => self.parse_switch(),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek().is_punct(Punct::Semicolon) {
                    None
                } else {
                    Some(self.parse_expr())
                };
                if !self.eat_punct(Punct::Semicolon) {
                    self.error("expected `;` after return".into());
                    self.recover_to_semicolon();
                }
                Stmt::Return(value)
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.eat_punct(Punct::Semicolon);
                Stmt::Break
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.eat_punct(Punct::Semicolon);
                Stmt::Continue
            }
            TokenKind::Keyword(Keyword::Goto) => {
                // goto is rare in kernels; consume `goto label;` as empty.
                self.bump();
                self.recover_to_semicolon();
                Stmt::Empty
            }
            _ if self.at_decl_start() => {
                let decl = self.parse_local_declaration();
                Stmt::Decl(decl)
            }
            _ => {
                let e = self.parse_expr();
                if !self.eat_punct(Punct::Semicolon) {
                    self.error(format!(
                        "expected `;` after expression, found `{}`",
                        self.peek()
                    ));
                    self.recover_to_semicolon();
                }
                Stmt::Expr(e)
            }
        }
    }

    /// Does the current position start a local declaration?
    fn at_decl_start(&self) -> bool {
        match self.peek() {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Const
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Struct
                    | Keyword::Union
                    | Keyword::Enum
                    | Keyword::Global
                    | Keyword::Local
                    | Keyword::Constant
                    | Keyword::Private
                    | Keyword::Volatile
                    | Keyword::Static
            ),
            TokenKind::Ident(name) => {
                if self.is_type_name(name) {
                    // A type name followed by an identifier or `*` begins a
                    // declaration; a type name followed by `(` is a
                    // constructor-like call (vector literal cast is handled in
                    // expressions).
                    return matches!(
                        self.peek_at(1),
                        TokenKind::Ident(_) | TokenKind::Punct(Punct::Star)
                    );
                }
                // Two adjacent identifiers (`FLOAT_T x`) can only be a
                // declaration with an unknown type name; parse it as such so the
                // error is classified as unknown-type rather than a parse error.
                matches!(self.peek_at(1), TokenKind::Ident(_))
            }
            _ => false,
        }
    }

    fn parse_local_declaration(&mut self) -> Declaration {
        let spec = self.parse_decl_specifiers();
        let base = self.resolve_base_type(&spec);
        let name = if let TokenKind::Ident(n) = self.peek().clone() {
            n
        } else {
            String::new()
        };
        // parse_declaration_rest expects the name not yet consumed if pointers
        // come first; handle pointer-star before name.
        let base = if self.peek().is_punct(Punct::Star) {
            self.parse_pointers(base, spec.address_space, spec.is_const)
        } else {
            base
        };
        let name = if let TokenKind::Ident(n) = self.peek().clone() {
            self.bump();
            n
        } else {
            name
        };
        self.parse_declaration_rest(name, base, &spec)
    }

    /// Parse the remainder of a declaration after the base type and first
    /// declarator name have been consumed.
    fn parse_declaration_rest(
        &mut self,
        first_name: String,
        base: Type,
        spec: &DeclSpecifiers,
    ) -> Declaration {
        let mut vars = Vec::new();
        let mut name = first_name;
        loop {
            let ty = self.parse_array_suffix(base.clone());
            let init = if self.eat_punct(Punct::Eq) {
                Some(self.parse_initializer())
            } else {
                None
            };
            vars.push(VarDeclarator {
                name: name.clone(),
                ty,
                init,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
            // subsequent declarators may have their own pointer stars
            let mut ty2 = base.clone();
            // strip pointer derivations from base for subsequent declarators:
            // C semantics say the star binds to the declarator, but for the
            // kernel subset we accept the simpler interpretation.
            if self.peek().is_punct(Punct::Star) {
                ty2 = self.parse_pointers(ty2, spec.address_space, spec.is_const);
            }
            let _ = ty2;
            name = if let TokenKind::Ident(n) = self.peek().clone() {
                self.bump();
                n
            } else {
                self.error("expected declarator name".into());
                break;
            };
        }
        if !self.eat_punct(Punct::Semicolon) {
            self.error(format!(
                "expected `;` after declaration, found `{}`",
                self.peek()
            ));
            self.recover_to_semicolon();
        }
        Declaration {
            address_space: spec.address_space,
            is_const: spec.is_const,
            vars,
        }
    }

    /// Initializers: a plain assignment expression or a braced list.
    fn parse_initializer(&mut self) -> Expr {
        if self.peek().is_punct(Punct::LBrace) {
            self.bump();
            let mut elems = Vec::new();
            while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
                elems.push(self.parse_initializer());
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace, "after initializer list");
            Expr::Comma(elems)
        } else {
            self.parse_assignment_expr()
        }
    }

    fn parse_if(&mut self) -> Stmt {
        self.bump(); // if
        self.expect_punct(Punct::LParen, "after `if`");
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen, "after if condition");
        let then_branch = Box::new(self.parse_stmt());
        let else_branch = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.parse_stmt()))
        } else {
            None
        };
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        }
    }

    fn parse_for(&mut self) -> Stmt {
        self.bump(); // for
        self.expect_punct(Punct::LParen, "after `for`");
        let init = if self.peek().is_punct(Punct::Semicolon) {
            self.bump();
            None
        } else if self.at_decl_start() {
            Some(Box::new(Stmt::Decl(self.parse_local_declaration())))
        } else {
            let e = self.parse_expr();
            self.expect_punct(Punct::Semicolon, "after for initializer");
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.peek().is_punct(Punct::Semicolon) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect_punct(Punct::Semicolon, "after for condition");
        let step = if self.peek().is_punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect_punct(Punct::RParen, "after for clauses");
        let body = Box::new(self.parse_stmt());
        Stmt::For {
            init,
            cond,
            step,
            body,
        }
    }

    fn parse_while(&mut self) -> Stmt {
        self.bump(); // while
        self.expect_punct(Punct::LParen, "after `while`");
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen, "after while condition");
        let body = Box::new(self.parse_stmt());
        Stmt::While { cond, body }
    }

    fn parse_do_while(&mut self) -> Stmt {
        self.bump(); // do
        let body = Box::new(self.parse_stmt());
        if !self.eat_keyword(Keyword::While) {
            self.error("expected `while` after do-body".into());
        }
        self.expect_punct(Punct::LParen, "after `while`");
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen, "after do-while condition");
        self.eat_punct(Punct::Semicolon);
        Stmt::DoWhile { body, cond }
    }

    fn parse_switch(&mut self) -> Stmt {
        self.bump(); // switch
        self.expect_punct(Punct::LParen, "after `switch`");
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen, "after switch scrutinee");
        self.expect_punct(Punct::LBrace, "to open switch body");
        let mut cases = Vec::new();
        while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
            let value = if self.eat_keyword(Keyword::Case) {
                let v = self.parse_expr();
                self.expect_punct(Punct::Colon, "after case value");
                Some(v)
            } else if self.eat_keyword(Keyword::Default) {
                self.expect_punct(Punct::Colon, "after `default`");
                None
            } else {
                // statements outside a case label: attach to previous case
                if let Some(last) = cases.last_mut() {
                    let case: &mut SwitchCase = last;
                    case.body.push(self.parse_stmt());
                    continue;
                }
                self.error("expected `case` or `default` in switch body".into());
                self.recover_to_semicolon();
                continue;
            };
            let mut body = Vec::new();
            while !self.peek().is_keyword(Keyword::Case)
                && !self.peek().is_keyword(Keyword::Default)
                && !self.peek().is_punct(Punct::RBrace)
                && !self.at_eof()
            {
                body.push(self.parse_stmt());
            }
            cases.push(SwitchCase { value, body });
        }
        self.expect_punct(Punct::RBrace, "to close switch body");
        Stmt::Switch { cond, cases }
    }

    // ----- expressions ------------------------------------------------------

    fn parse_expr(&mut self) -> Expr {
        let first = self.parse_assignment_expr();
        if self.peek().is_punct(Punct::Comma) {
            let mut elems = vec![first];
            while self.eat_punct(Punct::Comma) {
                elems.push(self.parse_assignment_expr());
            }
            Expr::Comma(elems)
        } else {
            first
        }
    }

    fn parse_assignment_expr(&mut self) -> Expr {
        let lhs = self.parse_conditional_expr();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Eq) => AssignOp::Assign,
            TokenKind::Punct(Punct::PlusEq) => AssignOp::Add,
            TokenKind::Punct(Punct::MinusEq) => AssignOp::Sub,
            TokenKind::Punct(Punct::StarEq) => AssignOp::Mul,
            TokenKind::Punct(Punct::SlashEq) => AssignOp::Div,
            TokenKind::Punct(Punct::PercentEq) => AssignOp::Rem,
            TokenKind::Punct(Punct::AmpEq) => AssignOp::And,
            TokenKind::Punct(Punct::PipeEq) => AssignOp::Or,
            TokenKind::Punct(Punct::CaretEq) => AssignOp::Xor,
            TokenKind::Punct(Punct::ShlEq) => AssignOp::Shl,
            TokenKind::Punct(Punct::ShrEq) => AssignOp::Shr,
            _ => return lhs,
        };
        self.bump();
        let rhs = self.parse_assignment_expr();
        Expr::Assign {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    fn parse_conditional_expr(&mut self) -> Expr {
        let cond = self.parse_binary_expr(0);
        if self.eat_punct(Punct::Question) {
            let then_expr = self.parse_assignment_expr();
            self.expect_punct(Punct::Colon, "in conditional expression");
            let else_expr = self.parse_conditional_expr();
            Expr::Conditional {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
            }
        } else {
            cond
        }
    }

    fn binop_for(&self) -> Option<(BinOp, u8)> {
        // precedence: higher binds tighter
        let (op, prec) = match self.peek() {
            TokenKind::Punct(Punct::PipePipe) => (BinOp::LogOr, 1),
            TokenKind::Punct(Punct::AmpAmp) => (BinOp::LogAnd, 2),
            TokenKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            TokenKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            TokenKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            TokenKind::Punct(Punct::EqEq) => (BinOp::Eq, 6),
            TokenKind::Punct(Punct::Ne) => (BinOp::Ne, 6),
            TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
            TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
            TokenKind::Punct(Punct::Le) => (BinOp::Le, 7),
            TokenKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
            TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
            TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
            TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        Some((op, prec))
    }

    fn parse_binary_expr(&mut self, min_prec: u8) -> Expr {
        let mut lhs = self.parse_unary_expr();
        while let Some((op, prec)) = self.binop_for() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary_expr(prec + 1);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        lhs
    }

    fn parse_unary_expr(&mut self) -> Expr {
        if !self.enter_nesting() {
            // Consume one token so every caller keeps making progress, then
            // yield a localized error node; the (once-only) depth diagnostic
            // already marks the unit as failed.
            let span = self.span();
            if !self.at_eof() {
                self.bump();
            }
            return Expr::Error(span);
        }
        let expr = self.parse_unary_expr_inner();
        self.depth -= 1;
        expr
    }

    fn parse_unary_expr_inner(&mut self) -> Expr {
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnOp::Plus),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::AddrOf),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnOp::PreDec),
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                if self.peek().is_punct(Punct::LParen) && self.type_starts_at(1) {
                    self.bump();
                    let ty = self.parse_type_name();
                    self.expect_punct(Punct::RParen, "after sizeof type");
                    return Expr::SizeOf {
                        ty: Some(ty),
                        expr: None,
                    };
                }
                let e = self.parse_unary_expr();
                return Expr::SizeOf {
                    ty: None,
                    expr: Some(Box::new(e)),
                };
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.parse_unary_expr();
            return Expr::Unary {
                op,
                expr: Box::new(expr),
            };
        }
        // cast or parenthesised expression
        if self.peek().is_punct(Punct::LParen) && self.type_starts_at(1) {
            self.bump(); // (
            let ty = self.parse_type_name();
            self.expect_punct(Punct::RParen, "after cast type");
            // OpenCL vector literal: `(float4)(a, b, c, d)`
            if matches!(ty, Type::Vector(..)) && self.peek().is_punct(Punct::LParen) {
                self.bump();
                let mut elems = Vec::new();
                if !self.peek().is_punct(Punct::RParen) {
                    loop {
                        elems.push(self.parse_assignment_expr());
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen, "after vector literal");
                let lit = Expr::VectorLit { ty, elems };
                return self.parse_postfix_suffixes(lit);
            }
            let expr = self.parse_unary_expr();
            return Expr::Cast {
                ty,
                expr: Box::new(expr),
            };
        }
        self.parse_postfix_expr()
    }

    /// Does a type name start at token offset `off` (used for cast detection)?
    fn type_starts_at(&self, off: usize) -> bool {
        match self.peek_at(off) {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Const
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Struct
                    | Keyword::Global
                    | Keyword::Local
                    | Keyword::Constant
                    | Keyword::Private
            ),
            TokenKind::Ident(name) => {
                if !self.is_type_name(name) {
                    return false;
                }
                // `(float)` / `(float*)` / `(float4)(..` are casts; `(foo)(x)`
                // where foo is a variable is not. Since we checked the name is
                // a type, look at what follows: `)` or `*`.
                matches!(
                    self.peek_at(off + 1),
                    TokenKind::Punct(Punct::RParen) | TokenKind::Punct(Punct::Star)
                )
            }
            _ => false,
        }
    }

    /// Parse a type-name as used in casts and `sizeof`.
    fn parse_type_name(&mut self) -> Type {
        let spec = self.parse_decl_specifiers();
        let base = self.resolve_base_type(&spec);
        self.parse_pointers(base, spec.address_space, spec.is_const)
    }

    fn parse_postfix_expr(&mut self) -> Expr {
        let primary = self.parse_primary_expr();
        self.parse_postfix_suffixes(primary)
    }

    fn parse_postfix_suffixes(&mut self, mut expr: Expr) -> Expr {
        loop {
            match self.peek().clone() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.parse_expr();
                    self.expect_punct(Punct::RBracket, "after subscript");
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                TokenKind::Punct(Punct::LParen) => {
                    // call: only valid when the callee is a plain identifier
                    let callee = match &expr {
                        Expr::Ident(name) => name.clone(),
                        _ => {
                            self.error("call of non-identifier expression".into());
                            String::from("<invalid>")
                        }
                    };
                    self.bump();
                    let mut args = Vec::new();
                    if !self.peek().is_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assignment_expr());
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen, "after call arguments");
                    expr = Expr::Call { callee, args };
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    if let TokenKind::Ident(member) = self.peek().clone() {
                        self.bump();
                        expr = Expr::Member {
                            base: Box::new(expr),
                            member,
                            arrow: false,
                        };
                    } else {
                        self.error("expected member name after `.`".into());
                        break;
                    }
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    if let TokenKind::Ident(member) = self.peek().clone() {
                        self.bump();
                        expr = Expr::Member {
                            base: Box::new(expr),
                            member,
                            arrow: true,
                        };
                    } else {
                        self.error("expected member name after `->`".into());
                        break;
                    }
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    expr = Expr::Postfix {
                        expr: Box::new(expr),
                        inc: true,
                    };
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    expr = Expr::Postfix {
                        expr: Box::new(expr),
                        inc: false,
                    };
                }
                _ => break,
            }
        }
        expr
    }

    fn parse_primary_expr(&mut self) -> Expr {
        let span = self.span();
        // Tokens that end the enclosing construct are *not* consumed on
        // failure: the statement/list machinery recovers on them, so eating
        // one here would silently swallow the next statement. Anything else
        // is consumed to guarantee forward progress.
        if matches!(
            self.peek(),
            TokenKind::Eof
                | TokenKind::Punct(Punct::Semicolon)
                | TokenKind::Punct(Punct::RParen)
                | TokenKind::Punct(Punct::RBracket)
                | TokenKind::Punct(Punct::RBrace)
                | TokenKind::Punct(Punct::Comma)
        ) {
            self.error(format!("expected expression, found `{}`", self.peek()));
            return Expr::Error(span);
        }
        match self.bump() {
            TokenKind::IntLit {
                value, unsigned, ..
            } => Expr::IntLit { value, unsigned },
            TokenKind::FloatLit { value, single } => Expr::FloatLit { value, single },
            TokenKind::CharLit(c) => Expr::CharLit(c),
            TokenKind::StrLit(s) => Expr::StrLit(s),
            TokenKind::Ident(name) => Expr::Ident(name),
            TokenKind::Punct(Punct::LParen) => {
                let e = self.parse_expr();
                self.expect_punct(Punct::RParen, "after parenthesised expression");
                e
            }
            other => {
                self.error(format!("unexpected token `{other}` in expression"));
                Expr::Error(span)
            }
        }
    }
}

/// Collected declaration specifiers.
#[derive(Debug, Clone, Default)]
struct DeclSpecifiers {
    is_kernel: bool,
    is_inline: bool,
    is_const: bool,
    is_typedef: bool,
    unsigned: bool,
    signed: bool,
    address_space: AddressSpace,
    access: Option<AccessQualifier>,
    base: Option<Type>,
    struct_tag: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        let result = parse(src);
        assert!(result.is_ok(), "parse errors: {}", result.diagnostics);
        result.unit
    }

    #[test]
    fn parse_empty_kernel() {
        let tu = parse_ok("__kernel void A() {}");
        assert_eq!(tu.kernel_count(), 1);
        let k = tu.kernels().next().unwrap();
        assert_eq!(k.name, "A");
        assert!(k.params.is_empty());
    }

    #[test]
    fn parse_saxpy_like_kernel() {
        let src = r#"
            __kernel void A(__global float* a, __global float* b, const int c) {
                int d = get_global_id(0);
                if (d < c) {
                    b[d] += 3.5f * a[d];
                }
            }
        "#;
        let tu = parse_ok(src);
        let k = tu.kernels().next().unwrap();
        assert_eq!(k.params.len(), 3);
        assert_eq!(k.params[0].ty, Type::global_ptr(ScalarType::Float));
        assert_eq!(k.params[2].ty, Type::Scalar(ScalarType::Int));
        assert!(k.params[2].is_const);
        let body = k.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        assert!(matches!(body.stmts[1], Stmt::If { .. }));
    }

    #[test]
    fn parse_helper_function_and_kernel() {
        let src = r#"
            inline float A(float a) { return 3.5f * a; }
            __kernel void B(__global float* b, __global float* c, const int d) {
                unsigned int e = get_global_id(0);
                if (e < d) {
                    c[e] += A(b[e]);
                }
            }
        "#;
        let tu = parse_ok(src);
        assert_eq!(tu.functions().count(), 2);
        assert_eq!(tu.kernel_count(), 1);
        let helper = tu.function("A").unwrap();
        assert!(helper.is_inline);
        assert!(!helper.is_kernel);
    }

    #[test]
    fn parse_for_loop_and_barrier() {
        let src = r#"
            __kernel void A(__global float* a, __local float* tmp, const int n) {
                for (int i = 0; i < n; i++) {
                    tmp[i] = a[i];
                }
                barrier(1);
                a[get_global_id(0)] = 2 * tmp[get_local_id(0)];
            }
        "#;
        let tu = parse_ok(src);
        let k = tu.kernels().next().unwrap();
        assert_eq!(k.params[1].ty.address_space(), Some(AddressSpace::Local));
        let body = k.body.as_ref().unwrap();
        assert!(matches!(body.stmts[0], Stmt::For { .. }));
    }

    #[test]
    fn parse_vector_types_and_literals() {
        let src = r#"
            __kernel void A(__global float16* a, __global float* b) {
                float16 f = (float16)(0.0);
                float4 g = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
                f.s0 += g.x;
                b[0] = f.s0;
            }
        "#;
        let tu = parse_ok(src);
        let k = tu.kernels().next().unwrap();
        let body = k.body.as_ref().unwrap();
        match &body.stmts[0] {
            Stmt::Decl(d) => {
                assert_eq!(d.vars[0].ty, Type::Vector(ScalarType::Float, 16));
                assert!(matches!(d.vars[0].init, Some(Expr::VectorLit { .. })));
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parse_typedef_and_use() {
        let src = "typedef float FLOAT_T;\n__kernel void A(__global FLOAT_T* a) { a[0] = 1.0f; }";
        let tu = parse_ok(src);
        assert!(matches!(&tu.items[0], Item::Typedef { name, .. } if name == "FLOAT_T"));
        let k = tu.kernels().next().unwrap();
        match &k.params[0].ty {
            Type::Pointer { pointee, .. } => assert_eq!(**pointee, Type::Named("FLOAT_T".into())),
            other => panic!("expected pointer, got {other:?}"),
        }
    }

    #[test]
    fn parse_struct_definition() {
        let src = r#"
            typedef struct { float x; float y; int tag; } Point;
            __kernel void A(__global float* out) { out[0] = 0.0f; }
        "#;
        let tu = parse_ok(src);
        match &tu.items[0] {
            Item::Struct(s) => {
                assert_eq!(s.fields.len(), 3);
                assert_eq!(s.name, "Point");
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn parse_while_do_switch() {
        let src = r#"
            __kernel void A(__global int* a, const int n) {
                int i = 0;
                while (i < n) { a[i] = i; i++; }
                do { i--; } while (i > 0);
                switch (n) {
                    case 0: a[0] = 1; break;
                    case 1: a[0] = 2; break;
                    default: a[0] = 3;
                }
            }
        "#;
        let tu = parse_ok(src);
        let k = tu.kernels().next().unwrap();
        let body = k.body.as_ref().unwrap();
        assert!(matches!(body.stmts[1], Stmt::While { .. }));
        assert!(matches!(body.stmts[2], Stmt::DoWhile { .. }));
        match &body.stmts[3] {
            Stmt::Switch { cases, .. } => assert_eq!(cases.len(), 3),
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parse_ternary_and_compound_assign() {
        let src = "__kernel void A(__global float* a, const int n) { a[0] = n > 4 ? 1.0f : 0.0f; a[1] *= 2.0f; }";
        let tu = parse_ok(src);
        let body = tu.kernels().next().unwrap().body.clone().unwrap();
        match &body.stmts[0] {
            Stmt::Expr(Expr::Assign { rhs, .. }) => {
                assert!(matches!(**rhs, Expr::Conditional { .. }));
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parse_attribute_skipped() {
        let src = "__kernel __attribute__((reqd_work_group_size(64, 1, 1))) void A(__global int* a) { a[0] = 1; }";
        let tu = parse_ok(src);
        assert_eq!(tu.kernel_count(), 1);
    }

    #[test]
    fn parse_local_array_declaration() {
        let src = "__kernel void A(__global float* a) { __local float tmp[128]; tmp[0] = a[0]; }";
        let tu = parse_ok(src);
        let body = tu.kernels().next().unwrap().body.clone().unwrap();
        match &body.stmts[0] {
            Stmt::Decl(d) => {
                assert_eq!(d.address_space, AddressSpace::Local);
                assert_eq!(
                    d.vars[0].ty,
                    Type::Array {
                        elem: Box::new(Type::Scalar(ScalarType::Float)),
                        size: Some(128)
                    }
                );
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parse_error_recovers() {
        let result = parse("__kernel void A(__global float* a) { a[0] = ; a[1] = 2.0f; }");
        assert!(!result.is_ok());
        // despite the error we still get a kernel with a body
        assert_eq!(result.unit.kernel_count(), 1);
        // ... and the failure is a localized error node, so recovery did not
        // swallow the following statement.
        let body = result.unit.kernels().next().unwrap().body.clone().unwrap();
        assert_eq!(body.stmts.len(), 2, "{:?}", body.stmts);
        assert!(matches!(
            &body.stmts[0],
            Stmt::Expr(Expr::Assign { rhs, .. }) if matches!(**rhs, Expr::Error(_))
        ));
        assert!(matches!(&body.stmts[1], Stmt::Expr(Expr::Assign { .. })));
    }

    /// Satellite regression: pathologically nested input trips the recursion
    /// cap without panicking, yields a partial tree with localized error
    /// nodes, and records a *bounded* number of diagnostics (one depth-cap
    /// error, no cascade proportional to the nesting depth).
    #[test]
    fn pathological_nesting_bounded_recovery() {
        let depth = MAX_NESTING_DEPTH * 4;
        // Deep expression nesting: ((((…1…))))
        let expr_bomb = format!(
            "__kernel void A(__global int* a) {{ a[0] = {}1{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let result = parse(&expr_bomb);
        assert!(!result.is_ok());
        assert_eq!(result.unit.kernel_count(), 1, "partial tree still returned");
        assert!(
            result.diagnostics.iter().count() <= MAX_PARSE_DIAGNOSTICS + 1,
            "diagnostic cascade: {} diagnostics",
            result.diagnostics.iter().count()
        );

        // Deep statement nesting: {{{{…}}}}
        let stmt_bomb = format!(
            "__kernel void A(__global int* a) {{ {} a[0] = 1; {} }}",
            "{".repeat(depth),
            "}".repeat(depth)
        );
        let result = parse(&stmt_bomb);
        assert!(!result.is_ok());
        assert_eq!(result.unit.kernel_count(), 1);
        assert!(
            result.diagnostics.iter().count() <= MAX_PARSE_DIAGNOSTICS + 1,
            "diagnostic cascade: {} diagnostics",
            result.diagnostics.iter().count()
        );
    }

    /// A unit riddled with errors records at most the diagnostic cap plus
    /// the suppression note.
    #[test]
    fn diagnostics_are_bounded_on_garbage() {
        let garbage = "= ; = ; ".repeat(200);
        let result = parse(&format!("__kernel void A() {{ {garbage} }}"));
        assert!(!result.is_ok());
        assert!(
            result.diagnostics.iter().count() <= MAX_PARSE_DIAGNOSTICS + 1,
            "{} diagnostics",
            result.diagnostics.iter().count()
        );
    }

    #[test]
    fn parse_prototype_without_body() {
        let tu =
            parse_ok("float helper(float x);\n__kernel void A(__global float* a) { a[0] = 1.0f; }");
        // prototype is not a definition
        assert_eq!(tu.functions().count(), 1);
        assert_eq!(tu.items.len(), 2);
    }

    #[test]
    fn parse_multiple_declarators() {
        let tu = parse_ok("__kernel void A(__global int* a) { int i = 0, j = 1, k; a[i] = j; }");
        let body = tu.kernels().next().unwrap().body.clone().unwrap();
        match &body.stmts[0] {
            Stmt::Decl(d) => assert_eq!(d.vars.len(), 3),
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parse_global_constant() {
        let tu = parse_ok(
            "__constant float PI = 3.14f;\n__kernel void A(__global float* a) { a[0] = PI; }",
        );
        assert!(
            matches!(&tu.items[0], Item::GlobalVar(d) if d.address_space == AddressSpace::Constant)
        );
    }

    #[test]
    fn parse_unsigned_types() {
        let tu = parse_ok("__kernel void A(__global unsigned int* a, unsigned long b) { a[0] = (unsigned int)b; }");
        let k = tu.kernels().next().unwrap();
        assert_eq!(k.params[0].ty, Type::global_ptr(ScalarType::UInt));
        assert_eq!(k.params[1].ty, Type::Scalar(ScalarType::ULong));
    }

    #[test]
    fn parse_image_param() {
        let tu = parse_ok(
            "__kernel void A(__read_only image2d_t img, __global float* out) { out[0] = 0.0f; }",
        );
        let k = tu.kernels().next().unwrap();
        assert_eq!(k.params[0].ty, Type::Named("image2d_t".into()));
        assert_eq!(k.params[0].access, Some(AccessQualifier::ReadOnly));
    }

    #[test]
    fn parse_sizeof() {
        let tu =
            parse_ok("__kernel void A(__global int* a) { a[0] = sizeof(float4) + sizeof a[0]; }");
        assert_eq!(tu.kernel_count(), 1);
    }
}
