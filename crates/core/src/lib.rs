//! # clgen
//!
//! The core of the reproduction of *Synthesizing Benchmarks for Predictive
//! Modeling* (CGO 2017): CLgen, an undirected, general-purpose OpenCL
//! benchmark synthesizer driven by a language model learned from a corpus of
//! human-written code.
//!
//! The pipeline (Figure 4 of the paper) is exposed as explicit,
//! individually-usable stages:
//!
//! 1. [`ClgenBuilder`] builds (or loads) a [`CorpusStage`] — the mined,
//!    filtered, rewritten corpus plus its character vocabulary
//!    ([`clgen_corpus`]),
//! 2. the corpus stage trains a [`TrainedModel`] — any
//!    [`LanguageModelBackend`](clgen_neural::LanguageModelBackend)
//!    behind one object, with versioned [`save`](TrainedModel::save) /
//!    [`load`](TrainedModel::load) checkpoints that sample byte-identically
//!    to the original,
//! 3. a trained model opens [`Sampler`] sessions whose lazy
//!    [`SynthesisStream`] iterator samples candidates (Algorithm 1,
//!    batched multi-stream with continuous dispatch into free lanes),
//!    rejection-filters them on a concurrent [`spawn_filter_stage`], and
//!    yields accepted kernels in candidate order with per-kernel
//!    statistics, kept by the same [`Session`] tally the synthesis service
//!    runs per request, its engines stepped by the same shell ([`crew`]).
//!
//! ```
//! use clgen::{ArgumentSpec, ClgenBuilder, ClgenOptions, SamplerConfig};
//!
//! let stage = ClgenBuilder::with_options(ClgenOptions::small(42))
//!     .build_corpus()
//!     .expect("corpus");
//! let model = stage.train().expect("training");
//! let sampler = model.sampler(
//!     SamplerConfig::new(42)
//!         .with_spec(ArgumentSpec::paper_default())
//!         .with_max_attempts(100),
//! );
//! for accepted in sampler.stream().take(2) {
//!     assert!(accepted.kernel.source.contains("__kernel"));
//!     assert!(accepted.stats.attempts >= 1);
//! }
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod crew;
pub mod engine;
pub mod error;
pub mod model;
pub mod sampler;
pub mod spec;
pub mod stream;
pub mod synthesizer;

pub use builder::{ClgenBuilder, CorpusStage, CORPUS_STAGE_MAGIC, CORPUS_STAGE_VERSION};
pub use engine::BatchEngine;
pub use error::ClgenError;
pub use model::{TrainedModel, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use sampler::{
    sample_kernel, sample_kernels_batched, SampleOptions, SampledCandidate, StopReason,
};
pub use spec::{ArgSpec, ArgumentSpec};
pub use stream::{
    filter_candidate, lane_split, spawn_filter_stage, stream_seed, FilterBatch, Filtered,
    KernelStats, LaneSplit, Sampler, SamplerConfig, Session, StreamedKernel, SynthesisStream,
};
pub use synthesizer::{
    ClgenOptions, ModelBackend, SynthesisReport, SynthesisStats, SynthesizedKernel,
};
