//! Raw "content files" as mined from repositories (§4.1).

/// Why a content file was rejected by the rejection filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The file did not compile (parse or semantic errors other than
    /// undeclared identifiers).
    CompileError,
    /// The file failed only because of undeclared identifiers — the failure
    /// mode the shim header targets.
    UndeclaredIdentifiers,
    /// The file compiled but contains no `__kernel` function.
    NoKernel,
    /// The file compiled but every kernel has fewer than the minimum number of
    /// static instructions.
    TooFewInstructions,
    /// The rejection filter itself panicked on this candidate. Produced only
    /// by supervised filter stages (the synthesis service) that isolate a
    /// per-candidate panic into a typed verdict instead of letting one
    /// poisoned candidate take down the whole filter fan-out.
    FilterPanicked,
    /// Sampling of this candidate was aborted mid-kernel because the
    /// incremental prefix validator proved the emitted prefix unrecoverable
    /// (stray closing delimiter, illegal character, unterminated literal,
    /// pathological nesting). Produced only by the synthesis pipeline —
    /// mined content files are always complete texts — and counted as a
    /// rejection so `accepted + rejected == attempts` keeps holding.
    AbortedMidstream,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::CompileError => "compile error",
            RejectReason::UndeclaredIdentifiers => "undeclared identifiers",
            RejectReason::NoKernel => "no kernel function",
            RejectReason::TooFewInstructions => "fewer than minimum static instructions",
            RejectReason::FilterPanicked => "filter panicked",
            RejectReason::AbortedMidstream => "aborted midstream",
        };
        f.write_str(s)
    }
}

/// A raw content file as produced by the miner: text that *potentially*
/// contains OpenCL code, plus provenance metadata.
#[derive(Debug, Clone)]
pub struct ContentFile {
    /// Synthetic repository identifier (e.g. `github.com/user42/project-7`).
    pub repository: String,
    /// Path of the file within the repository.
    pub path: String,
    /// Raw file contents.
    pub text: String,
}

impl ContentFile {
    /// Construct a content file.
    pub fn new(
        repository: impl Into<String>,
        path: impl Into<String>,
        text: impl Into<String>,
    ) -> Self {
        ContentFile {
            repository: repository.into(),
            path: path.into(),
            text: text.into(),
        }
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.text.lines().count()
    }
}

/// A kernel that survived the rejection filter and code rewriting: part of the
/// final language corpus.
#[derive(Debug, Clone)]
pub struct CorpusKernel {
    /// Rewritten, canonically formatted source of exactly one kernel function
    /// (plus any helper functions it needs).
    pub source: String,
    /// Repository the kernel came from.
    pub repository: String,
    /// Static instruction count of the kernel (post-rewrite).
    pub instructions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_file_lines() {
        let f = ContentFile::new("github.com/a/b", "kernels/foo.cl", "a\nb\nc");
        assert_eq!(f.line_count(), 3);
        assert_eq!(f.repository, "github.com/a/b");
    }

    #[test]
    fn reject_reason_display() {
        assert_eq!(RejectReason::NoKernel.to_string(), "no kernel function");
        assert_eq!(
            RejectReason::UndeclaredIdentifiers.to_string(),
            "undeclared identifiers"
        );
    }
}
