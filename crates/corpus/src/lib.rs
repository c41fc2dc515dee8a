//! # clgen-corpus
//!
//! The OpenCL language-corpus pipeline of the CLgen paper (§4.1): a synthetic
//! GitHub [`miner`], the inferred-identifier [`shim`] header, the rejection
//! [`filter`] (compile check + minimum static instruction count), the code
//! [`rewriter`] (macro expansion, comment removal, identifier normalisation,
//! canonical style) and [`corpus`] assembly with the statistics the paper
//! reports (discard rates, vocabulary reduction, corpus size). The
//! [`encoding`] module provides the character vocabulary used by the language
//! model, and [`kernelgen`] is the generator of human-style kernels that
//! stands in for GitHub-hosted code.
//!
//! ```
//! use clgen_corpus::{Corpus, CorpusOptions};
//!
//! let corpus = Corpus::build(&CorpusOptions::small(42));
//! assert!(corpus.len() > 0);
//! let text = corpus.training_text();
//! assert!(text.contains("__kernel"));
//! ```

#![warn(missing_docs)]

pub mod content;
pub mod corpus;
pub mod encoding;
pub mod filter;
pub mod kernelgen;
pub mod miner;
pub mod rewriter;
pub mod shim;

pub use content::{ContentFile, CorpusKernel, RejectReason};
pub use corpus::{Corpus, CorpusOptions, CorpusStats};
pub use encoding::Vocabulary;
pub use filter::{filter_source, FilterConfig, FilterStats, FilterVerdict};
pub use kernelgen::{generate_population, GeneratedKernel, KernelFamily};
pub use miner::{mine, MinerConfig};
pub use shim::shim_header;
