//! A small C preprocessor tailored to the needs of the corpus pipeline.
//!
//! The paper's code-rewriting stage (§4.1) begins by pre-processing content
//! files "to remove macros, conditional compilation, and source comments".
//! This module implements exactly that: comment stripping, line splicing,
//! object-like and function-like `#define` expansion, `#undef`,
//! `#if`/`#ifdef`/`#ifndef`/`#elif`/`#else`/`#endif` with a small constant
//! expression evaluator, and `#include` resolution against a caller-provided
//! map of virtual headers (this is the hook through which the shim header of
//! Listing 1 is injected).

use crate::error::{DiagnosticKind, Diagnostics};
use std::collections::HashMap;

/// A macro definition (the value under its name in the macro table).
#[derive(Debug, Clone)]
struct MacroDef {
    /// Parameter names for function-like macros, `None` for object-like ones.
    params: Option<Vec<String>>,
    /// Replacement token text.
    body: String,
}

/// Macro expansion depth past which the preprocessor gives up (guards
/// recursion).
const MAX_EXPANSION_DEPTH: usize = 32;

/// Preprocessor configuration.
#[derive(Debug, Clone, Default)]
pub struct PreprocessOptions {
    /// Virtual include files: `#include "name"` or `<name>` resolves against
    /// this map; unresolved includes are dropped with a warning.
    pub includes: HashMap<String, String>,
}

impl PreprocessOptions {
    /// Options with no virtual includes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a virtual include file.
    pub fn include(mut self, name: &str, content: &str) -> Self {
        self.includes.insert(name.to_string(), content.to_string());
        self
    }
}

/// The result of preprocessing.
#[derive(Debug, Clone)]
pub struct PreprocessOutput {
    /// The preprocessed source text.
    pub text: String,
    /// Diagnostics (unterminated conditionals, unknown includes, ...).
    pub diagnostics: Diagnostics,
}

/// Strip `//` and `/* */` comments, preserving newlines so that line numbers
/// in later diagnostics stay meaningful. String literals are respected.
pub fn strip_comments(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let mut in_str = false;
    let mut in_char = false;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if in_str {
            out.push(c as char);
            if c == b'\\' {
                if let Some(n) = next {
                    out.push(n as char);
                    i += 2;
                    continue;
                }
            }
            if c == b'"' {
                in_str = false;
            }
            i += 1;
        } else if in_char {
            out.push(c as char);
            if c == b'\\' {
                if let Some(n) = next {
                    out.push(n as char);
                    i += 2;
                    continue;
                }
            }
            if c == b'\'' {
                in_char = false;
            }
            i += 1;
        } else if c == b'"' {
            in_str = true;
            out.push('"');
            i += 1;
        } else if c == b'\'' {
            in_char = true;
            out.push('\'');
            i += 1;
        } else if c == b'/' && next == Some(b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && next == Some(b'*') {
            i += 2;
            while i < bytes.len() {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    i += 2;
                    break;
                }
                if bytes[i] == b'\n' {
                    out.push('\n');
                }
                i += 1;
            }
            out.push(' ');
        } else {
            out.push(c as char);
            i += 1;
        }
    }
    out
}

/// Join lines ending in a backslash with the following line.
pub fn splice_lines(src: &str) -> String {
    src.replace("\\\r\n", " ").replace("\\\n", " ")
}

/// Run the full preprocessor over `src`.
pub fn preprocess(src: &str, options: &PreprocessOptions) -> PreprocessOutput {
    let mut pp = Preprocessor::new(options);
    let text = pp.process(src, 0);
    PreprocessOutput {
        text,
        diagnostics: pp.diags,
    }
}

struct Preprocessor<'a> {
    options: &'a PreprocessOptions,
    macros: HashMap<String, MacroDef>,
    diags: Diagnostics,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CondState {
    /// This branch is active and a previous branch has not already been taken.
    Active,
    /// This branch is inactive but a later `#elif`/`#else` may activate.
    Waiting,
    /// Some branch of this conditional was already taken; skip the rest.
    Done,
}

impl<'a> Preprocessor<'a> {
    fn new(options: &'a PreprocessOptions) -> Self {
        Preprocessor {
            options,
            macros: HashMap::new(),
            diags: Diagnostics::new(),
        }
    }

    fn process(&mut self, src: &str, depth: usize) -> String {
        if depth > 8 {
            self.diags
                .error(DiagnosticKind::Preprocess, "include nesting too deep", None);
            return String::new();
        }
        let src = splice_lines(&strip_comments(src));
        let mut out = String::with_capacity(src.len());
        // Stack of conditional states; text is emitted only when all are Active.
        let mut cond_stack: Vec<CondState> = Vec::new();
        for line in src.lines() {
            let trimmed = line.trim_start();
            if let Some(directive) = trimmed.strip_prefix('#') {
                let directive = directive.trim_start();
                let (name, rest) = split_directive(directive);
                match name {
                    "if" => {
                        let taken = self.cond_active(&cond_stack) && self.eval_condition(rest);
                        cond_stack.push(if taken {
                            CondState::Active
                        } else {
                            CondState::Waiting
                        });
                    }
                    "ifdef" => {
                        let taken =
                            self.cond_active(&cond_stack) && self.macros.contains_key(rest.trim());
                        cond_stack.push(if taken {
                            CondState::Active
                        } else {
                            CondState::Waiting
                        });
                    }
                    "ifndef" => {
                        let taken =
                            self.cond_active(&cond_stack) && !self.macros.contains_key(rest.trim());
                        cond_stack.push(if taken {
                            CondState::Active
                        } else {
                            CondState::Waiting
                        });
                    }
                    "elif" => match cond_stack.last().copied() {
                        Some(CondState::Active) => {
                            *cond_stack.last_mut().unwrap() = CondState::Done;
                        }
                        Some(CondState::Waiting) => {
                            let parent_active =
                                self.cond_active(&cond_stack[..cond_stack.len() - 1]);
                            if parent_active && self.eval_condition(rest) {
                                *cond_stack.last_mut().unwrap() = CondState::Active;
                            }
                        }
                        Some(CondState::Done) => {}
                        None => self.diags.error(
                            DiagnosticKind::Preprocess,
                            "#elif without matching #if",
                            None,
                        ),
                    },
                    "else" => match cond_stack.last().copied() {
                        Some(CondState::Active) => {
                            *cond_stack.last_mut().unwrap() = CondState::Done;
                        }
                        Some(CondState::Waiting) => {
                            let parent_active =
                                self.cond_active(&cond_stack[..cond_stack.len() - 1]);
                            *cond_stack.last_mut().unwrap() = if parent_active {
                                CondState::Active
                            } else {
                                CondState::Done
                            };
                        }
                        Some(CondState::Done) => {}
                        None => self.diags.error(
                            DiagnosticKind::Preprocess,
                            "#else without matching #if",
                            None,
                        ),
                    },
                    "endif" => {
                        if cond_stack.pop().is_none() {
                            self.diags.error(
                                DiagnosticKind::Preprocess,
                                "#endif without matching #if",
                                None,
                            );
                        }
                    }
                    _ if !self.cond_active(&cond_stack) => {}
                    "define" => self.handle_define(rest),
                    "undef" => {
                        self.macros.remove(rest.trim());
                    }
                    "include" => {
                        let name = rest
                            .trim()
                            .trim_start_matches(['"', '<'])
                            .trim_end_matches(['"', '>'])
                            .to_string();
                        if let Some(content) = self.options.includes.get(&name).cloned() {
                            let expanded = self.process(&content, depth + 1);
                            out.push_str(&expanded);
                            out.push('\n');
                        } else {
                            self.diags.warning(
                                DiagnosticKind::Preprocess,
                                format!("include `{name}` not found; skipped"),
                                None,
                            );
                        }
                    }
                    "pragma" | "line" | "error" | "warning" | "" => {
                        // #pragma OPENCL EXTENSION etc. are dropped; the corpus
                        // rewriter removes them anyway.
                    }
                    other => {
                        self.diags.warning(
                            DiagnosticKind::Preprocess,
                            format!("unknown directive `#{other}`"),
                            None,
                        );
                    }
                }
                out.push('\n');
                continue;
            }
            if self.cond_active(&cond_stack) {
                let expanded = self.expand_line(line, 0);
                out.push_str(&expanded);
            }
            out.push('\n');
        }
        if !cond_stack.is_empty() {
            self.diags.error(
                DiagnosticKind::Preprocess,
                "unterminated conditional directive",
                None,
            );
        }
        out
    }

    fn cond_active(&self, stack: &[CondState]) -> bool {
        stack.iter().all(|s| *s == CondState::Active)
    }

    fn handle_define(&mut self, rest: &str) {
        let rest = rest.trim();
        let Some(first_non_ident) = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        else {
            // `#define NAME` with no body.
            if !rest.is_empty() {
                self.macros.insert(
                    rest.to_string(),
                    MacroDef {
                        params: None,
                        body: String::new(),
                    },
                );
            }
            return;
        };
        let name = rest[..first_non_ident].to_string();
        if name.is_empty() {
            self.diags
                .error(DiagnosticKind::Preprocess, "malformed #define", None);
            return;
        }
        let after = &rest[first_non_ident..];
        if after.starts_with('(') {
            // Function-like macro.
            if let Some(close) = after.find(')') {
                let params: Vec<String> = after[1..close]
                    .split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect();
                let body = after[close + 1..].trim().to_string();
                self.macros.insert(
                    name,
                    MacroDef {
                        params: Some(params),
                        body,
                    },
                );
            } else {
                self.diags.error(
                    DiagnosticKind::Preprocess,
                    "unterminated macro parameter list",
                    None,
                );
            }
        } else {
            let body = after.trim().to_string();
            self.macros.insert(name, MacroDef { params: None, body });
        }
    }

    /// Expand macros in one line of text.
    fn expand_line(&mut self, line: &str, depth: usize) -> String {
        if depth > MAX_EXPANSION_DEPTH {
            self.diags
                .error(DiagnosticKind::Preprocess, "macro expansion too deep", None);
            return line.to_string();
        }
        let bytes = line.as_bytes();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        let mut changed = false;
        while i < bytes.len() {
            let c = bytes[i];
            if c == b'"' {
                // copy string literal verbatim
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    out.push(bytes[i] as char);
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        out.push(bytes[i + 1] as char);
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'"' {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
            if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &line[start..i];
                if let Some(def) = self.macros.get(word).cloned() {
                    match def.params {
                        None => {
                            out.push_str(&def.body);
                            changed = true;
                        }
                        Some(ref params) => {
                            // Need an argument list right after (whitespace allowed).
                            let mut j = i;
                            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                                j += 1;
                            }
                            if j < bytes.len() && bytes[j] == b'(' {
                                if let Some((args, consumed)) = parse_macro_args(&line[j..]) {
                                    let mut body = def.body.clone();
                                    body = substitute_params(&body, params, &args);
                                    out.push_str(&body);
                                    i = j + consumed;
                                    changed = true;
                                    continue;
                                }
                            }
                            // Not an invocation: leave the identifier alone.
                            out.push_str(word);
                        }
                    }
                } else {
                    out.push_str(word);
                }
                continue;
            }
            out.push(c as char);
            i += 1;
        }
        if changed {
            self.expand_line(&out, depth + 1)
        } else {
            out
        }
    }

    /// Evaluate a `#if`/`#elif` condition. Supports `defined(X)`, `defined X`,
    /// integer literals, `!`, `&&`, `||`, comparisons and parentheses over
    /// already-defined object-like macros. Unknown identifiers evaluate to 0,
    /// matching the C standard.
    fn eval_condition(&mut self, expr: &str) -> bool {
        let expanded = self.expand_defined(expr);
        let expanded = self.expand_line(&expanded, 0);
        match CondParser::new(&expanded).parse_or() {
            Some(v) => v != 0,
            None => {
                self.diags.warning(
                    DiagnosticKind::Preprocess,
                    format!("could not evaluate condition `{expr}`; assuming false"),
                    None,
                );
                false
            }
        }
    }

    fn expand_defined(&self, expr: &str) -> String {
        let mut out = String::new();
        let mut rest = expr;
        while let Some(pos) = rest.find("defined") {
            out.push_str(&rest[..pos]);
            let after = &rest[pos + "defined".len()..];
            let after_trim = after.trim_start();
            let (name, consumed_extra) = if let Some(stripped) = after_trim.strip_prefix('(') {
                let close = stripped.find(')').unwrap_or(stripped.len());
                (stripped[..close].trim().to_string(), close + 2)
            } else {
                let end = after_trim
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(after_trim.len());
                (after_trim[..end].to_string(), end)
            };
            let leading_ws = after.len() - after_trim.len();
            out.push_str(if self.macros.contains_key(&name) {
                "1"
            } else {
                "0"
            });
            rest = &after[leading_ws + consumed_extra.min(after_trim.len())..];
        }
        out.push_str(rest);
        out
    }
}

fn split_directive(directive: &str) -> (&str, &str) {
    match directive.find(|c: char| c.is_ascii_whitespace()) {
        Some(pos) => (&directive[..pos], &directive[pos + 1..]),
        None => (directive, ""),
    }
}

/// Parse a parenthesised macro argument list starting at `(`.
/// Returns the arguments and the number of bytes consumed (including both parens).
fn parse_macro_args(s: &str) -> Option<(Vec<String>, usize)> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'(') {
        return None;
    }
    let mut depth = 0usize;
    let mut args = Vec::new();
    let mut current = String::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'(' => {
                depth += 1;
                if depth > 1 {
                    current.push('(');
                }
            }
            b')' => {
                depth -= 1;
                if depth == 0 {
                    if !current.trim().is_empty() || !args.is_empty() {
                        args.push(current.trim().to_string());
                    }
                    return Some((args, i + 1));
                }
                current.push(')');
            }
            b',' if depth == 1 => {
                args.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c as char),
        }
        i += 1;
    }
    None
}

fn substitute_params(body: &str, params: &[String], args: &[String]) -> String {
    let bytes = body.as_bytes();
    let mut out = String::with_capacity(body.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &body[start..i];
            if let Some(idx) = params.iter().position(|p| p == word) {
                out.push_str(args.get(idx).map(String::as_str).unwrap_or(""));
            } else {
                out.push_str(word);
            }
        } else {
            out.push(c as char);
            i += 1;
        }
    }
    out
}

/// Tiny recursive descent parser for preprocessor constant expressions.
struct CondParser<'a> {
    toks: Vec<&'a str>,
    pos: usize,
}

impl<'a> CondParser<'a> {
    fn new(src: &'a str) -> Self {
        let mut toks = Vec::new();
        let mut rest = src.trim();
        while !rest.is_empty() {
            let len = if rest.starts_with("&&")
                || rest.starts_with("||")
                || rest.starts_with("==")
                || rest.starts_with("!=")
                || rest.starts_with(">=")
                || rest.starts_with("<=")
            {
                2
            } else if rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len())
            } else {
                1
            };
            let (tok, r) = rest.split_at(len);
            if !tok.trim().is_empty() {
                toks.push(tok);
            }
            rest = r.trim_start();
        }
        CondParser { toks, pos: 0 }
    }

    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<&str> {
        let t = self.toks.get(self.pos).copied();
        self.pos += 1;
        t
    }

    fn parse_or(&mut self) -> Option<i64> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some("||") {
            self.next();
            let rhs = self.parse_and()?;
            lhs = i64::from(lhs != 0 || rhs != 0);
        }
        Some(lhs)
    }

    fn parse_and(&mut self) -> Option<i64> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == Some("&&") {
            self.next();
            let rhs = self.parse_cmp()?;
            lhs = i64::from(lhs != 0 && rhs != 0);
        }
        Some(lhs)
    }

    fn parse_cmp(&mut self) -> Option<i64> {
        let lhs = self.parse_unary()?;
        let op = match self.peek() {
            Some(op @ ("==" | "!=" | ">" | "<" | ">=" | "<=")) => op.to_string(),
            _ => return Some(lhs),
        };
        self.next();
        let rhs = self.parse_unary()?;
        Some(i64::from(match op.as_str() {
            "==" => lhs == rhs,
            "!=" => lhs != rhs,
            ">" => lhs > rhs,
            "<" => lhs < rhs,
            ">=" => lhs >= rhs,
            "<=" => lhs <= rhs,
            _ => unreachable!(),
        }))
    }

    fn parse_unary(&mut self) -> Option<i64> {
        match self.peek() {
            Some("!") => {
                self.next();
                Some(i64::from(self.parse_unary()? == 0))
            }
            Some("(") => {
                self.next();
                let v = self.parse_or()?;
                if self.peek() == Some(")") {
                    self.next();
                }
                Some(v)
            }
            Some(tok) => {
                let tok = tok.to_string();
                self.next();
                if let Ok(v) = tok.parse::<i64>() {
                    Some(v)
                } else if tok
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                {
                    // Unknown identifier in a #if evaluates to 0.
                    Some(0)
                } else {
                    None
                }
            }
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let out = strip_comments("int x; // trailing\n/* block\nspans lines */ float y;");
        assert!(!out.contains("trailing"));
        assert!(!out.contains("block"));
        assert!(out.contains("int x;"));
        assert!(out.contains("float y;"));
        // newlines preserved
        assert_eq!(out.matches('\n').count(), 2);
    }

    #[test]
    fn comments_in_strings_preserved() {
        let out = strip_comments(r#"char* s = "// not a comment";"#);
        assert!(out.contains("// not a comment"));
    }

    #[test]
    fn object_macro_expansion() {
        let out = preprocess(
            "#define DTYPE float\nDTYPE x = (DTYPE)1;",
            &PreprocessOptions::new(),
        );
        assert!(out.text.contains("float x = (float)1;"));
        assert!(!out.diagnostics.has_errors());
    }

    #[test]
    fn function_macro_expansion() {
        let out = preprocess(
            "#define ALPHA(a) 3.5f * a\nfloat y = ALPHA(x);",
            &PreprocessOptions::new(),
        );
        assert!(out.text.contains("float y = 3.5f * x;"));
    }

    #[test]
    fn nested_macro_expansion() {
        let out = preprocess(
            "#define A 4\n#define B (A + 1)\nint v = B;",
            &PreprocessOptions::new(),
        );
        assert!(out.text.contains("int v = (4 + 1);"));
    }

    #[test]
    fn conditional_compilation_ifdef() {
        let src = "#define USE_FLOAT\n#ifdef USE_FLOAT\nfloat x;\n#else\ndouble x;\n#endif\n";
        let out = preprocess(src, &PreprocessOptions::new());
        assert!(out.text.contains("float x;"));
        assert!(!out.text.contains("double x;"));
    }

    #[test]
    fn conditional_compilation_if_defined() {
        let src = "#if defined(MISSING) && OTHER > 2\nint a;\n#elif 1\nint b;\n#endif\n";
        let out = preprocess(src, &PreprocessOptions::new());
        assert!(!out.text.contains("int a;"));
        assert!(out.text.contains("int b;"));
    }

    #[test]
    fn include_resolution() {
        let options = PreprocessOptions::new().include("clc/clc.h", "typedef float FLOAT_T;");
        let out = preprocess("#include <clc/clc.h>\nFLOAT_T v;", &options);
        assert!(out.text.contains("typedef float FLOAT_T;"));
        assert!(out.text.contains("FLOAT_T v;"));
        assert!(!out.diagnostics.has_errors());
    }

    #[test]
    fn missing_include_is_warning_not_error() {
        let out = preprocess("#include \"missing.h\"\nint x;", &PreprocessOptions::new());
        assert!(!out.diagnostics.has_errors());
        assert!(out.text.contains("int x;"));
    }

    #[test]
    fn unterminated_conditional_is_error() {
        let out = preprocess("#ifdef FOO\nint x;\n", &PreprocessOptions::new());
        assert!(out.diagnostics.has_errors());
    }

    #[test]
    fn undef_removes_macro() {
        let src = "#define N 4\n#undef N\nint x = N;";
        let out = preprocess(src, &PreprocessOptions::new());
        assert!(out.text.contains("int x = N;"));
    }

    #[test]
    fn line_splicing() {
        let out = preprocess(
            "#define SUM(a, b) \\\n  (a + b)\nint x = SUM(1, 2);",
            &PreprocessOptions::new(),
        );
        assert!(out.text.contains("int x = (1 + 2);"));
    }

    #[test]
    fn nested_conditionals() {
        let src = "#ifdef A\n#ifdef B\nint both;\n#endif\nint onlya;\n#endif\nint always;";
        let out = preprocess(src, &PreprocessOptions::new());
        assert!(!out.text.contains("both"));
        assert!(!out.text.contains("onlya"));
        assert!(out.text.contains("always"));
    }

    #[test]
    fn function_macro_with_nested_parens() {
        let out = preprocess(
            "#define CALL(x) foo(x)\nint y = CALL(bar(1, 2));",
            &PreprocessOptions::new(),
        );
        assert!(out.text.contains("int y = foo(bar(1, 2));"));
    }
}
