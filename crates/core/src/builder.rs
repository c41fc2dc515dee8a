//! The entry stage of the pipeline: [`ClgenBuilder`] configures a run and
//! produces a [`CorpusStage`] — a built (or loaded) corpus with its character
//! vocabulary — from which models are trained.
//!
//! The stages mirror Figure 4 of the paper explicitly:
//!
//! ```text
//! ClgenBuilder ──build_corpus()──▶ CorpusStage ──train()──▶ TrainedModel
//!                                      │                        │
//!                                   save/load              save/load
//!                                      ▼                        ▼
//!                                 corpus file             checkpoint file
//! ```
//!
//! Each stage is individually usable: a corpus can be built once and saved,
//! then reloaded to train several model variants; a trained model can be
//! saved and later reopened for sampling in a fresh process without its
//! corpus.

use crate::error::ClgenError;
use crate::model::TrainedModel;
use crate::synthesizer::{ClgenOptions, ModelBackend};
use clgen_corpus::{Corpus, Vocabulary};
use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_neural::ngram::NgramModel;
use clgen_neural::train::{train, EpochReport};
use clgen_neural::{LanguageModelBackend, StatefulLstm};
use clgen_wire::{Decoder, Encoder, WireError};
use std::path::Path;

/// Magic header of a saved corpus stage file.
pub const CORPUS_STAGE_MAGIC: &str = "CLGENCRP";
/// Current corpus stage container version.
pub const CORPUS_STAGE_VERSION: u32 = 1;

/// Configures a pipeline run and produces its first stage.
#[derive(Debug, Clone, Default)]
pub struct ClgenBuilder {
    options: ClgenOptions,
}

impl ClgenBuilder {
    /// A builder with default options.
    pub fn new() -> ClgenBuilder {
        ClgenBuilder::default()
    }

    /// A builder starting from explicit options.
    pub fn with_options(options: ClgenOptions) -> ClgenBuilder {
        ClgenBuilder { options }
    }

    /// Set the model backend to train.
    pub fn backend(mut self, backend: ModelBackend) -> ClgenBuilder {
        self.options.backend = backend;
        self
    }

    /// Set the run seed (weight initialisation).
    pub fn seed(mut self, seed: u64) -> ClgenBuilder {
        self.options.seed = seed;
        self
    }

    /// The accumulated options.
    pub fn options(&self) -> &ClgenOptions {
        &self.options
    }

    /// Build the corpus stage by mining synthetic repositories and running
    /// the full filter + rewrite pipeline.
    pub fn build_corpus(self) -> Result<CorpusStage, ClgenError> {
        let corpus = Corpus::build(&self.options.corpus);
        CorpusStage::from_corpus(corpus, self.options)
    }

    /// Build the corpus stage from an already-assembled corpus.
    pub fn adopt_corpus(self, corpus: Corpus) -> Result<CorpusStage, ClgenError> {
        CorpusStage::from_corpus(corpus, self.options)
    }

    /// Load a corpus stage previously saved with [`CorpusStage::save`].
    pub fn load_corpus(self, path: impl AsRef<Path>) -> Result<CorpusStage, ClgenError> {
        CorpusStage::load(path, self.options)
    }
}

/// The corpus stage: a built or loaded corpus plus the character vocabulary
/// and encoded training text derived from it.
#[derive(Debug, Clone)]
pub struct CorpusStage {
    corpus: Corpus,
    vocab: Vocabulary,
    encoded: Vec<u32>,
    options: ClgenOptions,
}

impl CorpusStage {
    fn from_corpus(corpus: Corpus, options: ClgenOptions) -> Result<CorpusStage, ClgenError> {
        if corpus.is_empty() {
            return Err(ClgenError::EmptyCorpus);
        }
        let text = corpus.training_text();
        let vocab = Vocabulary::from_text(&text);
        if vocab.is_empty() {
            return Err(ClgenError::EmptyVocabulary);
        }
        let encoded = vocab.encode(&text);
        Ok(CorpusStage {
            corpus,
            vocab,
            encoded,
            options,
        })
    }

    /// The corpus backing this stage.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The character vocabulary of the corpus.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The options the stage was built with.
    pub fn options(&self) -> &ClgenOptions {
        &self.options
    }

    /// Train the backend configured in the options over this corpus.
    pub fn train(&self) -> Result<TrainedModel, ClgenError> {
        self.train_backend(&self.options.backend, self.options.seed)
    }

    /// Train an explicit backend over this corpus (the same corpus stage can
    /// train several model variants).
    pub fn train_backend(
        &self,
        backend: &ModelBackend,
        seed: u64,
    ) -> Result<TrainedModel, ClgenError> {
        self.train_backend_with_progress(backend, seed, None)
    }

    /// [`train_backend`](CorpusStage::train_backend) with a per-epoch
    /// progress callback: each LSTM [`EpochReport`] (loss, learning rate,
    /// characters, wall-clock seconds, chars/sec throughput, mean gradient
    /// norm and clip rate) is delivered as it is produced, so long
    /// paper-scale runs can log or checkpoint as they go. The n-gram backend
    /// trains in one shot and reports nothing.
    ///
    /// Every epoch also reports into the process-global metric registry
    /// ([`clgen_obs::global`]): the `clgen_training_epochs_total` counter
    /// plus loss / throughput / learning-rate / gradient-norm / clip-rate
    /// gauges — so a `clgen-serve` process that trains in-process surfaces
    /// training progress on `GET /metrics`.
    ///
    /// An invalid [`clgen_neural::TrainConfig`] (zero epochs, unroll, decay
    /// interval or batch size) or a corpus too short for the requested
    /// stream count is a typed [`ClgenError::InvalidConfig`], never a panic
    /// or a hang.
    pub fn train_backend_with_progress(
        &self,
        backend: &ModelBackend,
        seed: u64,
        on_epoch: Option<&mut dyn FnMut(&EpochReport)>,
    ) -> Result<TrainedModel, ClgenError> {
        let trained: Box<dyn LanguageModelBackend> = match backend {
            ModelBackend::Lstm {
                hidden_size,
                num_layers,
                train: tc,
            } => {
                tc.validate()
                    .map_err(|what| ClgenError::InvalidConfig { what })?;
                if self.encoded.len() <= tc.batch_size {
                    return Err(ClgenError::InvalidConfig {
                        what: "training corpus is too short for the requested batch size \
                               (each stream needs at least one input/target transition)",
                    });
                }
                let config = LstmConfig {
                    vocab_size: self.vocab.len(),
                    hidden_size: *hidden_size,
                    num_layers: *num_layers,
                    seed,
                };
                // Guard huge-model configs before any weight allocation:
                // hidden/vocab combinations whose `4 * hidden * input`
                // tensors would overflow or exceed the element cap are
                // typed errors, not capacity panics.
                config
                    .validate()
                    .map_err(|what| ClgenError::InvalidConfig { what })?;
                let mut lstm = LstmModel::new(config);
                let registry = clgen_obs::global();
                let mut caller = on_epoch;
                let mut observe = |report: &EpochReport| {
                    registry
                        .counter(
                            "clgen_training_epochs_total",
                            &[],
                            "Training epochs completed",
                        )
                        .inc();
                    for (name, help, value) in [
                        (
                            "clgen_training_loss_per_char",
                            "Last epoch loss per character",
                            f64::from(report.loss_per_char),
                        ),
                        (
                            "clgen_training_chars_per_sec",
                            "Last epoch training throughput",
                            report.chars_per_sec,
                        ),
                        (
                            "clgen_training_learning_rate",
                            "Last epoch learning rate",
                            f64::from(report.learning_rate),
                        ),
                        (
                            "clgen_training_grad_norm",
                            "Last epoch mean gradient norm before clipping",
                            f64::from(report.mean_grad_norm),
                        ),
                        (
                            "clgen_training_clip_rate",
                            "Last epoch fraction of chunks whose gradient was clipped",
                            f64::from(report.clip_rate),
                        ),
                    ] {
                        registry.gauge(name, &[], help).set(value);
                    }
                    if let Some(cb) = caller.as_deref_mut() {
                        cb(report);
                    }
                };
                train(&mut lstm, &self.encoded, tc, Some(&mut observe));
                Box::new(StatefulLstm::new(lstm))
            }
            ModelBackend::Ngram(config) => {
                Box::new(NgramModel::train(&self.encoded, self.vocab.len(), *config))
            }
        };
        TrainedModel::from_parts(self.vocab.clone(), trained)
    }

    /// Serialize the stage (corpus + vocabulary) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.magic(CORPUS_STAGE_MAGIC);
        enc.u32(CORPUS_STAGE_VERSION);
        self.vocab.encode_into(&mut enc);
        self.corpus.encode_into(&mut enc);
        enc.into_bytes()
    }

    /// Write the stage to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ClgenError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Load a stage saved with [`CorpusStage::save`]. The stored vocabulary
    /// is used as-is (ids must match any model trained from the stage before
    /// it was saved), and the encoded training text is rebuilt from it.
    pub fn load(path: impl AsRef<Path>, options: ClgenOptions) -> Result<CorpusStage, ClgenError> {
        let bytes = std::fs::read(path)?;
        CorpusStage::from_bytes(&bytes, options)
    }

    /// Decode a stage serialized by [`CorpusStage::to_bytes`]. Truncated or
    /// corrupt input is a typed [`ClgenError`], never a panic.
    pub fn from_bytes(bytes: &[u8], options: ClgenOptions) -> Result<CorpusStage, ClgenError> {
        let mut dec = Decoder::new(bytes);
        dec.magic(CORPUS_STAGE_MAGIC)?;
        let version = dec.u32()?;
        if version != CORPUS_STAGE_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: CORPUS_STAGE_VERSION,
            }
            .into());
        }
        let vocab = Vocabulary::decode_from(&mut dec)?;
        let corpus = Corpus::decode_from(&mut dec)?;
        dec.finish()?;
        if corpus.is_empty() {
            return Err(ClgenError::EmptyCorpus);
        }
        if vocab.is_empty() {
            return Err(ClgenError::EmptyVocabulary);
        }
        let encoded = vocab.encode(&corpus.training_text());
        Ok(CorpusStage {
            corpus,
            vocab,
            encoded,
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgen_corpus::CorpusStats;

    #[test]
    fn empty_corpus_is_a_typed_error_not_a_panic() {
        let empty = Corpus {
            kernels: Vec::new(),
            stats: CorpusStats::default(),
        };
        let result = ClgenBuilder::new().adopt_corpus(empty);
        assert!(matches!(result, Err(ClgenError::EmptyCorpus)));
    }

    #[test]
    fn corpus_stage_roundtrips_through_a_file() {
        let stage = ClgenBuilder::with_options(ClgenOptions::small(23))
            .build_corpus()
            .expect("small corpus builds");
        let path = std::env::temp_dir().join(format!(
            "clgen-corpus-stage-{}-{}.bin",
            std::process::id(),
            line!()
        ));
        stage.save(&path).unwrap();
        let loaded = ClgenBuilder::with_options(ClgenOptions::small(23))
            .load_corpus(&path)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.vocabulary(), stage.vocabulary());
        assert_eq!(
            loaded.corpus().training_text(),
            stage.corpus().training_text()
        );
        assert_eq!(loaded.encoded, stage.encoded);
    }

    #[test]
    fn invalid_train_configs_are_typed_errors_not_hangs() {
        let stage = ClgenBuilder::with_options(ClgenOptions::small(29))
            .build_corpus()
            .unwrap();
        let base = clgen_neural::TrainConfig {
            epochs: 1,
            learning_rate: 0.05,
            decay_factor: 0.9,
            decay_every: 2,
            unroll: 16,
            clip_norm: 5.0,
            batch_size: 1,
        };
        let broken = [
            clgen_neural::TrainConfig { epochs: 0, ..base },
            clgen_neural::TrainConfig { unroll: 0, ..base },
            clgen_neural::TrainConfig {
                decay_every: 0,
                ..base
            },
            clgen_neural::TrainConfig {
                batch_size: 0,
                ..base
            },
            // A batch wider than the corpus has streams with nothing to
            // learn from.
            clgen_neural::TrainConfig {
                batch_size: usize::MAX,
                ..base
            },
        ];
        for tc in broken {
            let backend = ModelBackend::Lstm {
                hidden_size: 8,
                num_layers: 1,
                train: tc,
            };
            assert!(
                matches!(
                    stage.train_backend(&backend, 1),
                    Err(ClgenError::InvalidConfig { .. })
                ),
                "config {tc:?} should be rejected"
            );
        }
    }

    #[test]
    fn huge_model_configs_are_typed_errors_not_capacity_panics() {
        let stage = ClgenBuilder::with_options(ClgenOptions::small(41))
            .build_corpus()
            .unwrap();
        let train = clgen_neural::TrainConfig {
            epochs: 1,
            learning_rate: 0.05,
            decay_factor: 0.9,
            decay_every: 2,
            unroll: 16,
            clip_norm: 5.0,
            batch_size: 1,
        };
        // Each of these would overflow `4 * hidden * input` or blow the
        // element cap long before training could start; the pipeline must
        // reject them without attempting the allocation.
        for (hidden_size, num_layers) in [
            (usize::MAX / 2, 1usize),
            (usize::MAX / 8, 2),
            (1 << 40, 1),
            (1 << 16, 3), // 4 * 65536 * 65536 = 2^34 > the 2^31 element cap
        ] {
            let backend = ModelBackend::Lstm {
                hidden_size,
                num_layers,
                train,
            };
            assert!(
                matches!(
                    stage.train_backend(&backend, 1),
                    Err(ClgenError::InvalidConfig { .. })
                ),
                "hidden_size={hidden_size} should be rejected"
            );
        }
    }

    #[test]
    fn training_progress_reports_throughput() {
        let stage = ClgenBuilder::with_options(ClgenOptions::small(37))
            .build_corpus()
            .unwrap();
        let backend = ModelBackend::Lstm {
            hidden_size: 8,
            num_layers: 1,
            train: clgen_neural::TrainConfig {
                epochs: 2,
                learning_rate: 0.05,
                decay_factor: 0.9,
                decay_every: 2,
                unroll: 16,
                clip_norm: 5.0,
                batch_size: 4,
            },
        };
        let mut reports = Vec::new();
        let mut cb = |r: &EpochReport| reports.push(*r);
        stage
            .train_backend_with_progress(&backend, 7, Some(&mut cb))
            .expect("training succeeds");
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.chars_per_sec > 0.0));
        assert!(reports.iter().all(|r| r.characters > 0));
        assert!(reports.iter().all(|r| r.mean_grad_norm > 0.0));
        let exposition = clgen_obs::global().render_prometheus();
        for gauge in ["clgen_training_grad_norm", "clgen_training_clip_rate"] {
            assert!(exposition.contains(gauge), "{gauge} is not exported");
        }
    }

    #[test]
    fn one_corpus_stage_trains_multiple_backends() {
        let stage = ClgenBuilder::with_options(ClgenOptions::small(31))
            .build_corpus()
            .unwrap();
        let ngram = stage.train().unwrap();
        assert_eq!(ngram.backend_kind(), "ngram");
        let lstm = stage
            .train_backend(
                &ModelBackend::Lstm {
                    hidden_size: 8,
                    num_layers: 1,
                    train: clgen_neural::TrainConfig {
                        epochs: 1,
                        learning_rate: 0.05,
                        decay_factor: 0.9,
                        decay_every: 2,
                        unroll: 16,
                        clip_norm: 5.0,
                        batch_size: 1,
                    },
                },
                31,
            )
            .unwrap();
        assert_eq!(lstm.backend_kind(), "lstm");
        assert_eq!(lstm.vocabulary(), ngram.vocabulary());
    }
}
