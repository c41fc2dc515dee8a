//! # cl-frontend
//!
//! A from-scratch frontend for the subset of OpenCL C needed to reproduce the
//! CLgen paper (*Synthesizing Benchmarks for Predictive Modeling*, CGO 2017):
//!
//! * a [`lexer`] and small [`preprocess`]or (comment stripping, macro
//!   expansion, conditional compilation, virtual `#include` resolution — the
//!   hook used to inject the paper's shim header),
//! * a tolerant recursive-descent [`parser`] producing the [`ast`],
//! * [`sema`]ntic analysis with undeclared-identifier classification and
//!   kernel signature extraction,
//! * static [`analysis`] producing the instruction/memory/branch counts used
//!   by the rejection filter and the Grewe et al. features,
//! * an identifier [`rewrite`]r and canonical-style [`printer`] implementing
//!   the paper's code-rewriting stage,
//! * a deterministic candidate [`mod@repair`] module with an incremental
//!   [`PrefixValidator`], used by the synthesis pipeline to fix trivially
//!   broken samples and to abort hopeless ones mid-sampling.
//!
//! The one-call entry point used by the corpus pipeline is [`compile`]:
//!
//! ```
//! use cl_frontend::{compile, CompileOptions};
//!
//! let result = compile(
//!     "__kernel void A(__global float* a, const int n) {
//!          int i = get_global_id(0);
//!          if (i < n) { a[i] = 2.0f * a[i]; }
//!      }",
//!     &CompileOptions::default(),
//! );
//! assert!(result.is_ok());
//! assert_eq!(result.kernels.len(), 1);
//! assert!(result.kernel_counts[0].1.instructions >= 3);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod preprocess;
pub mod printer;
pub mod repair;
pub mod rewrite;
pub mod sema;
pub mod token;

pub use analysis::{analyze_kernels, StaticCounts};
pub use ast::{FunctionDef, TranslationUnit, Type};
pub use error::{Diagnostic, DiagnosticKind, Diagnostics, Severity};
pub use preprocess::PreprocessOptions;
pub use repair::{
    repair, repair_candidates, HopelessReason, PrefixValidator, Repair, RepairAction,
};
pub use sema::{KernelArg, KernelSignature};

/// Options controlling the full [`compile`] pipeline.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Preprocessor configuration (virtual includes).
    pub preprocess: PreprocessOptions,
}

/// The output of the full frontend pipeline.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The preprocessed source text.
    pub preprocessed: String,
    /// The parsed translation unit (possibly partial when errors occurred).
    pub unit: TranslationUnit,
    /// All diagnostics from every stage.
    pub diagnostics: Diagnostics,
    /// Kernel signatures extracted by semantic analysis.
    pub kernels: Vec<KernelSignature>,
    /// Per-kernel static instruction counts (kernel name, counts).
    pub kernel_counts: Vec<(String, StaticCounts)>,
    /// Undeclared identifiers and their use counts (for corpus statistics).
    pub undeclared: std::collections::HashMap<String, usize>,
}

impl CompileResult {
    /// True if the unit preprocessed, parsed and semantically checked without
    /// errors.
    pub fn is_ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }

    /// Maximum static instruction count over all kernels (0 if none).
    pub fn max_kernel_instructions(&self) -> usize {
        self.kernel_counts
            .iter()
            .map(|(_, c)| c.instructions)
            .max()
            .unwrap_or(0)
    }
}

/// Run the full pipeline: preprocess → parse → semantic analysis → static
/// analysis.
pub fn compile(source: &str, options: &CompileOptions) -> CompileResult {
    let pp = preprocess::preprocess(source, &options.preprocess);
    let mut diagnostics = pp.diagnostics.clone();
    let parsed = parser::parse(&pp.text);
    diagnostics.extend(parsed.diagnostics.clone());
    let sema = sema::analyze(&parsed.unit);
    diagnostics.extend(sema.diagnostics.clone());
    let kernel_counts = analysis::analyze_kernels(&parsed.unit);
    CompileResult {
        preprocessed: pp.text,
        unit: parsed.unit,
        diagnostics,
        kernels: sema.kernels,
        kernel_counts,
        undeclared: sema.undeclared,
    }
}

/// Convenience: parse and semantically check a source string that is already
/// preprocessed, returning the unit only if everything is clean.
///
/// # Errors
///
/// Returns the collected [`Diagnostics`] if any stage reported an error.
pub fn parse_and_check(source: &str) -> Result<TranslationUnit, Diagnostics> {
    let result = compile(source, &CompileOptions::default());
    if result.is_ok() {
        Ok(result.unit)
    } else {
        Err(result.diagnostics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_clean_kernel() {
        let r = compile(
            "__kernel void A(__global float* a) { a[get_global_id(0)] = 1.0f; }",
            &CompileOptions::default(),
        );
        assert!(r.is_ok(), "{}", r.diagnostics);
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.kernel_counts.len(), 1);
    }

    #[test]
    fn compile_with_macros_and_comments() {
        let src = r#"
            // saxpy kernel
            #define DTYPE float
            #define ALPHA(x) 3.5f * x
            __kernel void saxpy(__global DTYPE* in, __global DTYPE* out, const int n) {
                unsigned int idx = get_global_id(0); /* work item id */
                if (idx < n) { out[idx] += ALPHA(in[idx]); }
            }
        "#;
        let r = compile(src, &CompileOptions::default());
        assert!(r.is_ok(), "{}", r.diagnostics);
        assert!(r.preprocessed.contains("3.5f"));
        assert!(!r.preprocessed.contains("ALPHA"));
    }

    #[test]
    fn compile_undeclared_identifier_fails() {
        let r = compile(
            "__kernel void A(__global float* a) { a[0] = SCALE * 2.0f; }",
            &CompileOptions::default(),
        );
        assert!(!r.is_ok());
        assert_eq!(r.undeclared.get("SCALE"), Some(&1));
    }

    #[test]
    fn shim_include_fixes_undeclared_type() {
        let shim = "typedef float FLOAT_T;\n#define WG_SIZE 128\n";
        let bad = "#include <shim.h>\n__kernel void A(__global FLOAT_T* a) { a[0] = WG_SIZE; }";
        // Without the shim the file fails...
        let r_without = compile(
            &bad.replace("#include <shim.h>\n", ""),
            &CompileOptions::default(),
        );
        assert!(!r_without.is_ok());
        // ... and with it, it compiles.
        let options = CompileOptions {
            preprocess: PreprocessOptions::new().include("shim.h", shim),
        };
        let r_with = compile(bad, &options);
        assert!(r_with.is_ok(), "{}", r_with.diagnostics);
    }

    #[test]
    fn parse_and_check_result_type() {
        assert!(parse_and_check("__kernel void A(__global int* a) { a[0] = 1; }").is_ok());
        assert!(parse_and_check("__kernel void A(__global int* a) { a[0] = oops; }").is_err());
    }
}
