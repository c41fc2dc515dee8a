//! Argument specifications for directed synthesis (§4.3).
//!
//! CLgen supports two sampling modes: one where the caller provides an
//! *argument specification* — the types and qualifiers of every kernel
//! argument — and the model completes a kernel with that exact signature, and
//! one where the signature itself is sampled. The specification is turned
//! into the seed text of Algorithm 1
//! (e.g. `__kernel void A(__global float* a, __global float* b, const int c) {`).

use std::fmt;

/// One argument in an argument specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgSpec {
    /// A `__global` buffer of the given element type (e.g. `"float"`).
    GlobalBuffer {
        /// OpenCL element type spelling.
        elem: String,
    },
    /// A `__local` buffer of the given element type.
    LocalBuffer {
        /// OpenCL element type spelling.
        elem: String,
    },
    /// A read-only scalar passed by value (e.g. `const int`).
    Scalar {
        /// OpenCL scalar type spelling.
        ty: String,
    },
}

impl ArgSpec {
    /// Shorthand for a global float buffer.
    pub fn global_float() -> ArgSpec {
        ArgSpec::GlobalBuffer {
            elem: "float".into(),
        }
    }

    /// Shorthand for a read-only signed integer scalar.
    pub fn const_int() -> ArgSpec {
        ArgSpec::Scalar { ty: "int".into() }
    }
}

/// A full argument specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArgumentSpec {
    /// Arguments in order.
    pub args: Vec<ArgSpec>,
}

impl ArgumentSpec {
    /// The specification used throughout the paper's examples (Figure 6):
    /// "three single-precision floating-point arrays and a read-only signed
    /// integer".
    pub fn paper_default() -> ArgumentSpec {
        ArgumentSpec {
            args: vec![
                ArgSpec::global_float(),
                ArgSpec::global_float(),
                ArgSpec::global_float(),
                ArgSpec::const_int(),
            ],
        }
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.args.len()
    }

    /// True if the specification has no arguments.
    pub fn is_empty(&self) -> bool {
        self.args.is_empty()
    }

    /// Render the Algorithm-1 seed text for this specification. Parameter
    /// names follow the rewritten corpus convention (`a`, `b`, `c`, ...), so
    /// the seed is maximally in-distribution for the model.
    pub fn seed_text(&self) -> String {
        let mut out = String::from("__kernel void A(");
        for (i, arg) in self.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let name = cl_frontend::rewrite::variable_name(i);
            match arg {
                ArgSpec::GlobalBuffer { elem } => {
                    out.push_str(&format!("__global {elem}* {name}"));
                }
                ArgSpec::LocalBuffer { elem } => {
                    out.push_str(&format!("__local {elem}* {name}"));
                }
                ArgSpec::Scalar { ty } => {
                    out.push_str(&format!("const {ty} {name}"));
                }
            }
        }
        out.push_str(") {");
        out
    }
}

impl fmt::Display for ArgumentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.seed_text())
    }
}

/// The seed used when no argument specification is given: the model is free to
/// complete the argument list as well as the body.
pub const FREE_SEED: &str = "__kernel void A(";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_seed_matches_figure6() {
        let spec = ArgumentSpec::paper_default();
        assert_eq!(
            spec.seed_text(),
            "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {"
        );
        assert_eq!(spec.len(), 4);
    }

    #[test]
    fn seed_text_parses_when_closed() {
        let spec = ArgumentSpec {
            args: vec![
                ArgSpec::GlobalBuffer { elem: "int".into() },
                ArgSpec::LocalBuffer {
                    elem: "float".into(),
                },
                ArgSpec::Scalar { ty: "uint".into() },
            ],
        };
        let full = format!("{}}}", spec.seed_text());
        let parsed = cl_frontend::parser::parse(&full);
        assert!(parsed.is_ok(), "{}", parsed.diagnostics);
        let kernel = parsed.unit.kernels().next().unwrap();
        assert_eq!(kernel.params.len(), 3);
    }

    #[test]
    fn empty_spec_and_free_seed() {
        let spec = ArgumentSpec::default();
        assert!(spec.is_empty());
        assert_eq!(spec.seed_text(), "__kernel void A() {");
        assert!(FREE_SEED.starts_with("__kernel"));
    }
}
