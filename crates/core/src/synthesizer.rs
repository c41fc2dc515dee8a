//! The data types the pipeline stages share: what to train
//! ([`ModelBackend`], [`ClgenOptions`]), what synthesis yields
//! ([`SynthesizedKernel`]) and how a run is tallied ([`SynthesisStats`],
//! [`SynthesisReport`]).
//!
//! The stages themselves (Figure 4 of the paper) live beside this module:
//! [`ClgenBuilder`](crate::builder::ClgenBuilder) builds or loads a
//! [`CorpusStage`](crate::builder::CorpusStage), which trains or loads a
//! [`TrainedModel`](crate::model::TrainedModel), which opens
//! [`Sampler`](crate::stream::Sampler) sessions exposing the lazy
//! [`SynthesisStream`](crate::stream::SynthesisStream) iterator.

use clgen_corpus::{CorpusOptions, RejectReason};
use clgen_neural::ngram::NgramConfig;
use clgen_neural::train::TrainConfig;
use std::collections::HashMap;

/// Which model class the training stage builds.
///
/// This enum is *training configuration*: it names a built-in backend and its
/// hyper-parameters. The trained artifact itself is a
/// `Box<dyn LanguageModelBackend>` inside
/// [`TrainedModel`](crate::model::TrainedModel).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelBackend {
    /// The paper's character-level LSTM. `hidden_size`/`num_layers` scale the
    /// network; `train` controls the SGD schedule.
    Lstm {
        /// Hidden units per layer.
        hidden_size: usize,
        /// Number of stacked layers.
        num_layers: usize,
        /// Training schedule.
        train: TrainConfig,
    },
    /// Back-off n-gram baseline / compute-feasible stand-in.
    Ngram(NgramConfig),
}

impl Default for ModelBackend {
    fn default() -> Self {
        ModelBackend::Ngram(NgramConfig::default())
    }
}

/// Options controlling an end-to-end CLgen instance.
#[derive(Debug, Clone, Default)]
pub struct ClgenOptions {
    /// Corpus construction options.
    pub corpus: CorpusOptions,
    /// Model backend.
    pub backend: ModelBackend,
    /// Run seed (weight initialisation).
    pub seed: u64,
}

impl ClgenOptions {
    /// Options sized for unit tests: a small corpus and the n-gram backend.
    pub fn small(seed: u64) -> ClgenOptions {
        ClgenOptions {
            corpus: CorpusOptions::small(seed),
            backend: ModelBackend::Ngram(NgramConfig::default()),
            seed,
        }
    }
}

/// A synthesized benchmark that passed the rejection filter.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizedKernel {
    /// Canonically formatted, self-contained kernel source.
    pub source: String,
    /// The raw sampled text before repair and re-formatting.
    pub raw: String,
    /// Static instruction count.
    pub instructions: usize,
    /// True if the accepted source is a deterministic repair of the raw
    /// sample (the raw text itself was rejected, a
    /// [`cl_frontend::repair_candidates`] proposal re-passed the full
    /// filter).
    pub repaired: bool,
}

/// Statistics over a synthesis run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthesisStats {
    /// Number of candidates sampled.
    pub attempts: usize,
    /// Number accepted by the rejection filter (natively-valid plus
    /// repaired).
    pub accepted: usize,
    /// Of the accepted candidates, how many passed only after deterministic
    /// repair (always ≤ `accepted`).
    pub repaired: usize,
    /// Rejections by reason. Candidates aborted mid-sampling by the
    /// incremental validator appear under
    /// [`RejectReason::AbortedMidstream`], so
    /// `accepted + rejected == attempts` still holds.
    pub rejected: HashMap<RejectReason, usize>,
    /// Total characters generated.
    pub generated_chars: usize,
}

impl SynthesisStats {
    /// Fraction of sampled candidates that were accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.accepted as f64 / self.attempts as f64
        }
    }

    /// Candidates aborted mid-sampling by the incremental validator.
    pub fn aborted_midstream(&self) -> usize {
        self.rejected
            .get(&RejectReason::AbortedMidstream)
            .copied()
            .unwrap_or(0)
    }
}

/// The result of a synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthesisReport {
    /// Kernels that passed the rejection filter.
    pub kernels: Vec<SynthesizedKernel>,
    /// Run statistics.
    pub stats: SynthesisStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClgenBuilder;
    use crate::error::ClgenError;
    use crate::sampler::SampleOptions;
    use crate::spec::ArgumentSpec;
    use crate::stream::SamplerConfig;
    use clgen_corpus::Corpus;
    use rand::SeedableRng;

    /// Mine, train (n-gram) and synthesize through the staged pipeline.
    fn synthesize(
        seed: u64,
        target: usize,
        max_attempts: usize,
        spec: Option<ArgumentSpec>,
    ) -> SynthesisReport {
        let mut options = ClgenOptions::small(seed);
        // a slightly larger corpus gives the n-gram model more to work with
        options.corpus.miner.repositories = 40;
        options.corpus.miner.files_per_repo = (1, 4);
        let model = ClgenBuilder::with_options(options)
            .build_corpus()
            .expect("corpus")
            .train()
            .expect("training");
        let mut config = SamplerConfig::new(seed).with_max_attempts(max_attempts);
        config.spec = spec;
        model.sampler(config).synthesize(target)
    }

    #[test]
    fn synthesizes_accepted_kernels_with_ngram_backend() {
        let report = synthesize(101, 5, 200, Some(ArgumentSpec::paper_default()));
        assert!(
            report.kernels.len() >= 3,
            "expected at least 3 accepted kernels, got {} after {} attempts",
            report.kernels.len(),
            report.stats.attempts
        );
        for k in &report.kernels {
            assert!(k.source.contains("__kernel"));
            assert!(k.instructions >= 3);
            assert!(
                cl_frontend::parse_and_check(&k.source).is_ok(),
                "{}",
                k.source
            );
        }
        assert!(report.stats.acceptance_rate() > 0.0);
    }

    #[test]
    fn argument_spec_constrains_signature() {
        let report = synthesize(7, 3, 200, Some(ArgumentSpec::paper_default()));
        assert!(!report.kernels.is_empty());
        for k in &report.kernels {
            let parsed = cl_frontend::parser::parse(&k.raw);
            let kernel = parsed.unit.kernels().next().expect("kernel");
            assert_eq!(
                kernel.params.len(),
                4,
                "signature should match the spec: {}",
                k.raw
            );
        }
    }

    #[test]
    fn free_mode_synthesizes_arbitrary_signatures() {
        // Free-mode sampling is harder; just require at least one acceptance
        // and that whatever was accepted is valid. The seed is pinned for the
        // vendored `rand` stream: 44 accepts 3 of 96 candidates, seeds
        // 40..60 accept 0-4 of 300.
        let report = synthesize(44, 3, 300, None);
        assert!(
            !report.kernels.is_empty(),
            "no kernels accepted in free mode"
        );
        for k in &report.kernels {
            assert!(cl_frontend::parse_and_check(&k.source).is_ok());
        }
    }

    #[test]
    fn stats_track_rejections() {
        let report = synthesize(55, 1000, 50, Some(ArgumentSpec::paper_default()));
        assert_eq!(report.stats.attempts, 50, "should stop at max_attempts");
        assert_eq!(
            report.stats.accepted + report.stats.rejected.values().sum::<usize>(),
            report.stats.attempts
        );
    }

    #[test]
    fn empty_corpus_returns_typed_error() {
        let empty = Corpus {
            kernels: Vec::new(),
            stats: Default::default(),
        };
        assert!(matches!(
            ClgenBuilder::with_options(ClgenOptions::small(1)).adopt_corpus(empty),
            Err(ClgenError::EmptyCorpus)
        ));
    }

    #[test]
    fn lstm_backend_trains_and_samples() {
        // Tiny LSTM on a tiny corpus: we only require the pipeline to run end
        // to end and produce syntactically trackable output, not high quality.
        let mut options = ClgenOptions::small(3);
        options.corpus.miner.repositories = 6;
        options.backend = ModelBackend::Lstm {
            hidden_size: 32,
            num_layers: 1,
            train: TrainConfig {
                epochs: 1,
                learning_rate: 0.05,
                decay_factor: 0.9,
                decay_every: 2,
                unroll: 32,
                clip_norm: 5.0,
                batch_size: 1,
            },
        };
        let mut model = ClgenBuilder::with_options(options)
            .build_corpus()
            .expect("corpus")
            .train()
            .expect("training");
        let sample = SampleOptions {
            max_chars: 200,
            temperature: 0.8,
        };
        let candidate = model.sample_serial(
            &ArgumentSpec::paper_default().seed_text(),
            &sample,
            &mut rand::rngs::StdRng::seed_from_u64(3),
        );
        assert!(candidate.text.starts_with("__kernel void A("));
        assert!(candidate.generated_chars > 0);
    }
}
