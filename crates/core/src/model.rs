//! The trained-model stage: a sample-ready language model plus its
//! vocabulary, independent of how it was produced (trained in this process or
//! loaded from a checkpoint).
//!
//! # Checkpoint format
//!
//! [`TrainedModel::save`] writes a versioned binary container:
//!
//! | field | encoding |
//! |---|---|
//! | magic | 8 raw bytes `CLGENCKP` |
//! | format version | `u32` little-endian (currently 1) |
//! | backend tag | length-prefixed UTF-8 (`"lstm"`, `"ngram"`, …) |
//! | vocabulary | length-prefixed UTF-8 alphabet in id order |
//! | weights | backend-specific versioned block (see `clgen_neural::checkpoint`) |
//!
//! All floats are stored as IEEE-754 bit patterns, so a loaded model is
//! **bit-identical** to the model that was saved — and therefore produces
//! byte-identical sample streams given the same seeds (property-tested in
//! `tests/checkpoint_roundtrip.rs`).

use crate::error::ClgenError;
use crate::stream::{Sampler, SamplerConfig};
use clgen_corpus::Vocabulary;
use clgen_neural::{LanguageModelBackend, StreamBatch};
use clgen_wire::{Decoder, Encoder, WireError};
use std::path::Path;

/// Magic header of a model checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "CLGENCKP";
/// Current model checkpoint container version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A trained, sample-ready language model: the artifact produced by the
/// training stage (or loaded from a checkpoint) and consumed by
/// [`Sampler`] sessions.
pub struct TrainedModel {
    vocab: Vocabulary,
    backend: Box<dyn LanguageModelBackend>,
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("backend", &self.backend.kind())
            .field("vocab_size", &self.vocab.len())
            .finish()
    }
}

impl TrainedModel {
    /// Assemble a trained model from a vocabulary and a backend
    /// implementation.
    pub fn from_parts(
        vocab: Vocabulary,
        backend: Box<dyn LanguageModelBackend>,
    ) -> Result<TrainedModel, ClgenError> {
        if vocab.is_empty() {
            return Err(ClgenError::EmptyVocabulary);
        }
        if backend.vocab_size() != vocab.len() {
            return Err(ClgenError::InvalidConfig {
                what: "model vocabulary size does not match the vocabulary",
            });
        }
        Ok(TrainedModel { vocab, backend })
    }

    /// Wrap a raw LSTM (e.g. one resumed from a
    /// [`clgen_neural::TrainSnapshot`] mid-training checkpoint) into a
    /// sample-ready pipeline artifact. The vocabulary must be the one the
    /// model was trained over — ids are matched by size here and by content
    /// nowhere, exactly like any other [`TrainedModel::from_parts`] call.
    pub fn from_lstm(
        vocab: Vocabulary,
        model: clgen_neural::lstm::LstmModel,
    ) -> Result<TrainedModel, ClgenError> {
        TrainedModel::from_parts(vocab, Box::new(clgen_neural::StatefulLstm::new(model)))
    }

    /// The character vocabulary the model predicts over.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The checkpoint tag of the model class backing this artifact.
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// `n` independent sample streams sharing the model's weights.
    pub fn streams(&self, n: usize) -> Box<dyn StreamBatch + Send + '_> {
        self.backend.streams(n)
    }

    /// Sample one raw candidate through the serial (single-stream) path,
    /// seeding the model with `seed_text` and drawing characters from `rng`
    /// (Algorithm 1 of the paper).
    pub fn sample_serial(
        &mut self,
        seed_text: &str,
        options: &crate::sampler::SampleOptions,
        rng: &mut rand::rngs::StdRng,
    ) -> crate::sampler::SampledCandidate {
        let TrainedModel { vocab, backend } = self;
        crate::sampler::sample_kernel(backend.serial(), vocab, seed_text, options, rng)
    }

    /// Open a sampling session over this model.
    pub fn sampler(&self, config: SamplerConfig) -> Sampler<'_> {
        Sampler::new(self, config)
    }

    /// Serialize the model (vocabulary + weights) to checkpoint bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.magic(CHECKPOINT_MAGIC);
        enc.u32(CHECKPOINT_VERSION);
        enc.str(self.backend.kind());
        self.vocab.encode_into(&mut enc);
        self.backend.encode_weights(&mut enc);
        enc.into_bytes()
    }

    /// Decode a checkpoint produced by [`TrainedModel::to_bytes`]. A backend
    /// tag this build does not know is [`ClgenError::UnknownBackend`].
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainedModel, ClgenError> {
        let mut dec = Decoder::new(bytes);
        dec.magic(CHECKPOINT_MAGIC)?;
        let version = dec.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            }
            .into());
        }
        let kind = dec.str()?.to_string();
        let vocab = Vocabulary::decode_from(&mut dec)?;
        let backend = clgen_neural::checkpoint::decode_backend(&kind, &mut dec)
            .ok_or(ClgenError::UnknownBackend { kind })??;
        dec.finish()?;
        TrainedModel::from_parts(vocab, backend)
    }

    /// Write the model checkpoint to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ClgenError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Load a model checkpoint from a file. The loaded model samples
    /// **byte-identically** to the model that was saved.
    pub fn load(path: impl AsRef<Path>) -> Result<TrainedModel, ClgenError> {
        let bytes = std::fs::read(path)?;
        TrainedModel::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgen_neural::ngram::NgramConfig;
    use clgen_neural::NgramModel;

    fn tiny_model() -> TrainedModel {
        let text = "__kernel void A() { }\n";
        let vocab = Vocabulary::from_text(text);
        let encoded = vocab.encode(text);
        let model = NgramModel::train(&encoded, vocab.len(), NgramConfig::default());
        TrainedModel::from_parts(vocab, Box::new(model)).unwrap()
    }

    #[test]
    fn checkpoint_bytes_roundtrip() {
        let model = tiny_model();
        let bytes = model.to_bytes();
        let back = TrainedModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.backend_kind(), "ngram");
        assert_eq!(back.vocabulary(), model.vocabulary());
        assert_eq!(back.to_bytes(), bytes, "re-encoding is deterministic");
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors() {
        let model = tiny_model();
        let bytes = model.to_bytes();
        assert!(matches!(
            TrainedModel::from_bytes(&bytes[..4]),
            Err(ClgenError::Checkpoint(_))
        ));
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        assert!(matches!(
            TrainedModel::from_bytes(&flipped),
            Err(ClgenError::Checkpoint(WireError::BadMagic { .. }))
        ));
        // The same checkpoint under a tag no decoder knows.
        let mut enc = Encoder::new();
        enc.magic(CHECKPOINT_MAGIC);
        enc.u32(CHECKPOINT_VERSION);
        enc.str("transformer");
        model.vocab.encode_into(&mut enc);
        model.backend.encode_weights(&mut enc);
        assert!(matches!(
            TrainedModel::from_bytes(&enc.into_bytes()),
            Err(ClgenError::UnknownBackend { kind }) if kind == "transformer"
        ));
    }

    #[test]
    fn vocab_mismatch_is_rejected() {
        let text = "abcabc";
        let vocab = Vocabulary::from_text(text);
        let model = NgramModel::train(&vocab.encode(text), 99, NgramConfig::default());
        assert!(matches!(
            TrainedModel::from_parts(vocab, Box::new(model)),
            Err(ClgenError::InvalidConfig { .. })
        ));
    }
}
