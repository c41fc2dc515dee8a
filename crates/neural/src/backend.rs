//! Backend abstraction for trained language models.
//!
//! [`LanguageModelBackend`] is the object-safe trait a trained model class
//! implements once: it exposes the serial sampling interface, the
//! multi-stream batched sampling interface, and a versioned weight codec.
//! The LSTM and the n-gram baseline implement it;
//! [`decode_backend`](crate::checkpoint::decode_backend) maps a checkpoint
//! tag back to the class that wrote it.

use crate::checkpoint;
use crate::lm::{LanguageModel, LstmStreams, NgramStreams, StatefulLstm, StreamBatch};
use crate::ngram::NgramModel;
use clgen_wire::Encoder;

/// A trained, sample-ready language model of any class.
///
/// This is the artifact that flows between pipeline stages: training (or
/// checkpoint loading) produces a `Box<dyn LanguageModelBackend>`, and the
/// sampler consumes it without knowing the model class. Implementations must
/// guarantee that [`streams`](LanguageModelBackend::streams) produces batched
/// sampling byte-identical to serial sampling through
/// [`serial`](LanguageModelBackend::serial) (see the `StreamBatch` contract).
///
/// Backends are `Send + Sync`: a checkpoint-loaded model is shared by
/// reference across the request-handling threads of the synthesis service
/// (weights are read-only during sampling; all mutable sampling state lives
/// in the per-session `StreamBatch`, not the backend).
pub trait LanguageModelBackend: Send + Sync {
    /// Stable tag identifying the model class in checkpoints
    /// (e.g. `"lstm"`, `"ngram"`).
    fn kind(&self) -> &'static str;

    /// Size of the character vocabulary the model predicts over.
    fn vocab_size(&self) -> usize;

    /// The stateful serial sampling interface (Algorithm 1's single-stream
    /// view of the model).
    fn serial(&mut self) -> &mut dyn LanguageModel;

    /// `n` independent sample streams sharing this model's weights. Model
    /// classes with a batched kernel (the LSTM's GEMM path) return it here;
    /// classes whose per-character work is a table lookup return lightweight
    /// per-stream histories. The batch is `Send`, so a sampler can step it
    /// on a thread of its own.
    fn streams(&self, n: usize) -> Box<dyn StreamBatch + Send + '_>;

    /// Append this model's weights to a checkpoint. The encoding must be
    /// self-delimiting and versioned;
    /// [`decode_backend`](crate::checkpoint::decode_backend) routes the
    /// matching decoder by [`kind`](LanguageModelBackend::kind).
    fn encode_weights(&self, enc: &mut Encoder);
}

impl LanguageModelBackend for StatefulLstm {
    fn kind(&self) -> &'static str {
        checkpoint::LSTM_KIND
    }

    fn vocab_size(&self) -> usize {
        self.model().config.vocab_size
    }

    fn serial(&mut self) -> &mut dyn LanguageModel {
        self
    }

    fn streams(&self, n: usize) -> Box<dyn StreamBatch + Send + '_> {
        Box::new(LstmStreams::new(self.model(), n))
    }

    fn encode_weights(&self, enc: &mut Encoder) {
        checkpoint::encode_lstm(self.model(), enc);
    }
}

impl LanguageModelBackend for NgramModel {
    fn kind(&self) -> &'static str {
        checkpoint::NGRAM_KIND
    }

    fn vocab_size(&self) -> usize {
        LanguageModel::vocab_size(self)
    }

    fn serial(&mut self) -> &mut dyn LanguageModel {
        self
    }

    fn streams(&self, n: usize) -> Box<dyn StreamBatch + Send + '_> {
        Box::new(NgramStreams::new(self, n))
    }

    fn encode_weights(&self, enc: &mut Encoder) {
        checkpoint::encode_ngram(self, enc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::{LstmConfig, LstmModel};
    use crate::ngram::NgramConfig;
    use crate::tensor::softmax_in_place;

    #[test]
    fn boxed_backends_expose_serial_and_streams() {
        let data: Vec<u32> = (0..200).map(|i| i % 7).collect();
        let mut backends: Vec<Box<dyn LanguageModelBackend>> = vec![
            Box::new(StatefulLstm::new(LstmModel::new(LstmConfig {
                vocab_size: 7,
                hidden_size: 8,
                num_layers: 1,
                seed: 5,
            }))),
            Box::new(NgramModel::train(&data, 7, NgramConfig::default())),
        ];
        for backend in &mut backends {
            assert_eq!(backend.vocab_size(), 7);
            let lm = backend.serial();
            lm.reset();
            lm.feed(3);
            let mut probs = Vec::new();
            lm.logits_into(&mut probs);
            softmax_in_place(&mut probs);
            assert_eq!(probs.len(), 7);
            let sum: f32 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3);
            let mut streams = backend.streams(2);
            assert_eq!(streams.num_streams(), 2);
            streams.feed_many(&[(0, 1), (1, 2)]);
            let mut out = Vec::new();
            streams.probs_into(0, &mut out);
            assert_eq!(out.len(), 7);
        }
    }
}
