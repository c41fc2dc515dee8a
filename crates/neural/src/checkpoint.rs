//! Versioned binary weight codecs for the built-in model classes.
//!
//! Each model class encodes its weights as a self-contained, versioned block
//! (the version is the first field, so the layout can evolve without breaking
//! old checkpoints). Floats are stored as IEEE-754 bit patterns, which makes
//! a decoded model **bit-identical** to the encoded one — and therefore
//! sample-stream-identical, the checkpoint guarantee the synthesizer's
//! persistence layer is built on.
//!
//! The container framing (magic, format version, backend tag, vocabulary) is
//! owned by the synthesizer crate; this module only codes the weights
//! themselves, routed by tag through [`decode_backend`].
//!
//! The wire format carries only the raw row-major weights — the packed
//! row-panel copies the hot kernels consume
//! ([`PackedMatrix`](crate::tensor::PackedMatrix)) are derived data, rebuilt
//! when the loaded model's first sampling workspace is created (checkpoint
//! load wraps the model in a `StatefulLstm`, whose workspace packs eagerly).
//! Decoded dimensions pass the same [`LstmConfig::validate`] guard the
//! pipeline applies at build time, so a corrupt header cannot drive a
//! capacity panic.

use crate::backend::LanguageModelBackend;
use crate::lm::StatefulLstm;
use crate::lstm::{LstmConfig, LstmLayer, LstmModel};
use crate::ngram::{NgramConfig, NgramModel, NgramTable};
use crate::tensor::Matrix;
use crate::train::TrainSnapshot;
use clgen_wire::{Decoder, Encoder, WireError};

/// Checkpoint tag of the LSTM backend.
pub const LSTM_KIND: &str = "lstm";
/// Checkpoint tag of the n-gram backend.
pub const NGRAM_KIND: &str = "ngram";

/// Current version of the LSTM weight block.
pub const LSTM_WEIGHTS_VERSION: u32 = 1;
/// Current version of the n-gram weight block.
pub const NGRAM_WEIGHTS_VERSION: u32 = 1;

/// Magic header of a mid-training snapshot.
pub const TRAIN_SNAPSHOT_MAGIC: &str = "CLGENTSN";
/// Current version of the training snapshot container.
pub const TRAIN_SNAPSHOT_VERSION: u32 = 1;

/// Decode the weight block of the model class tagged `kind` into a
/// sample-ready backend; `None` if no built-in class has that tag.
pub fn decode_backend(
    kind: &str,
    dec: &mut Decoder<'_>,
) -> Option<Result<Box<dyn LanguageModelBackend>, WireError>> {
    Some(match kind {
        LSTM_KIND => decode_lstm(dec).map(|model| Box::new(StatefulLstm::new(model)) as _),
        NGRAM_KIND => decode_ngram(dec).map(|model| Box::new(model) as _),
        _ => return None,
    })
}

fn encode_matrix(m: &Matrix, enc: &mut Encoder) {
    enc.usize(m.rows());
    enc.usize(m.cols());
    enc.f32_slice(m.data());
}

fn decode_matrix(dec: &mut Decoder<'_>) -> Result<Matrix, WireError> {
    let rows = dec.usize("matrix rows")?;
    let cols = dec.usize("matrix cols")?;
    let data = dec.f32_vec()?;
    // Checked multiply: corrupt dimensions must not wrap around and
    // accidentally match the (length-bounded) data vector.
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(WireError::Invalid {
            what: "matrix data length does not match its shape",
        });
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Encode an LSTM's hyper-parameters and weights (versioned).
pub fn encode_lstm(model: &LstmModel, enc: &mut Encoder) {
    enc.u32(LSTM_WEIGHTS_VERSION);
    enc.usize(model.config.vocab_size);
    enc.usize(model.config.hidden_size);
    enc.usize(model.config.num_layers);
    enc.u64(model.config.seed);
    for layer in &model.layers {
        encode_matrix(&layer.w_x, enc);
        encode_matrix(&layer.w_h, enc);
        enc.f32_slice(&layer.b);
    }
    encode_matrix(&model.w_out, enc);
    enc.f32_slice(&model.b_out);
}

/// Decode an LSTM weight block written by [`encode_lstm`].
pub fn decode_lstm(dec: &mut Decoder<'_>) -> Result<LstmModel, WireError> {
    let version = dec.u32()?;
    if version != LSTM_WEIGHTS_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: LSTM_WEIGHTS_VERSION,
        });
    }
    let vocab_size = dec.usize("vocab size")?;
    let hidden_size = dec.usize("hidden size")?;
    // Every layer occupies at least two 24-byte matrix headers plus a bias
    // length, so bounding by the remaining input keeps a corrupt layer count
    // from driving a huge allocation.
    let num_layers = dec.usize_bounded(8, "layer count")?;
    let seed = dec.u64()?;
    let config = LstmConfig {
        vocab_size,
        hidden_size,
        num_layers,
        seed,
    };
    // The same dimension guard the pipeline applies at build time: corrupt
    // or absurd hidden/vocab combinations (zero sizes, weight tensors past
    // the element cap) are typed errors before any weight allocation.
    config
        .validate()
        .map_err(|what| WireError::Invalid { what })?;
    let hs4 = 4 * hidden_size;
    let mut layers = Vec::with_capacity(num_layers);
    for l in 0..num_layers {
        let w_x = decode_matrix(dec)?;
        let w_h = decode_matrix(dec)?;
        let b = dec.f32_vec()?;
        let input = if l == 0 { vocab_size } else { hidden_size };
        if w_x.rows() != hs4
            || w_x.cols() != input
            || w_h.rows() != hs4
            || w_h.cols() != hidden_size
            || b.len() != hs4
        {
            return Err(WireError::Invalid {
                what: "LSTM layer tensor shape does not match the config",
            });
        }
        layers.push(LstmLayer { w_x, w_h, b });
    }
    let w_out = decode_matrix(dec)?;
    let b_out = dec.f32_vec()?;
    if w_out.rows() != vocab_size || w_out.cols() != hidden_size || b_out.len() != vocab_size {
        return Err(WireError::Invalid {
            what: "LSTM output tensor shape does not match the config",
        });
    }
    Ok(LstmModel {
        config,
        layers,
        w_out,
        b_out,
    })
}

/// Encode a resumable mid-training snapshot: magic, container version, the
/// schedule position, then the full LSTM weight block (bit-exact).
pub fn encode_train_snapshot(snapshot: &TrainSnapshot, enc: &mut Encoder) {
    enc.magic(TRAIN_SNAPSHOT_MAGIC);
    enc.u32(TRAIN_SNAPSHOT_VERSION);
    enc.usize(snapshot.next_epoch);
    encode_lstm(&snapshot.model, enc);
}

/// Decode a snapshot written by [`encode_train_snapshot`].
pub fn decode_train_snapshot(dec: &mut Decoder<'_>) -> Result<TrainSnapshot, WireError> {
    dec.magic(TRAIN_SNAPSHOT_MAGIC)?;
    let version = dec.u32()?;
    if version != TRAIN_SNAPSHOT_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: TRAIN_SNAPSHOT_VERSION,
        });
    }
    let next_epoch = dec.usize("snapshot epoch")?;
    let model = decode_lstm(dec)?;
    Ok(TrainSnapshot { model, next_epoch })
}

/// Encode an n-gram model's count tables (versioned). Contexts are written in
/// sorted order so the encoding of a given model is deterministic.
pub fn encode_ngram(model: &NgramModel, enc: &mut Encoder) {
    enc.u32(NGRAM_WEIGHTS_VERSION);
    enc.usize(model.config().context);
    enc.u32(model.config().smoothing_tenths);
    enc.usize(LanguageModelVocab::vocab_size(model));
    enc.u32_slice(model.unigrams());
    let tables = model.tables();
    enc.usize(tables.len());
    for table in tables {
        let mut contexts: Vec<&Vec<u32>> = table.keys().collect();
        contexts.sort_unstable();
        enc.usize(contexts.len());
        for ctx in contexts {
            enc.u32_slice(ctx);
            let counts = &table[ctx];
            let mut entries: Vec<(u32, u32)> = counts.iter().map(|(&c, &n)| (c, n)).collect();
            entries.sort_unstable();
            enc.usize(entries.len());
            for (c, n) in entries {
                enc.u32(c);
                enc.u32(n);
            }
        }
    }
}

/// Decode an n-gram weight block written by [`encode_ngram`].
pub fn decode_ngram(dec: &mut Decoder<'_>) -> Result<NgramModel, WireError> {
    let version = dec.u32()?;
    if version != NGRAM_WEIGHTS_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: NGRAM_WEIGHTS_VERSION,
        });
    }
    let context = dec.usize("ngram context")?;
    let smoothing_tenths = dec.u32()?;
    let vocab_size = dec.usize("vocab size")?;
    if vocab_size == 0 {
        return Err(WireError::Invalid {
            what: "ngram vocabulary must be non-empty",
        });
    }
    let unigrams = dec.u32_vec()?;
    if unigrams.len() != vocab_size {
        return Err(WireError::Invalid {
            what: "unigram table length does not match the vocabulary",
        });
    }
    let table_count = dec.usize_bounded(8, "ngram table count")?;
    if table_count != context {
        return Err(WireError::Invalid {
            what: "ngram table count does not match the context length",
        });
    }
    let mut tables: Vec<NgramTable> = Vec::with_capacity(table_count);
    for order in 0..table_count {
        let num_contexts = dec.usize_bounded(8, "ngram context count")?;
        let mut table = NgramTable::with_capacity(num_contexts);
        for _ in 0..num_contexts {
            let ctx = dec.u32_vec()?;
            if ctx.len() != order + 1 {
                return Err(WireError::Invalid {
                    what: "ngram context length does not match its table order",
                });
            }
            let num_entries = dec.usize_bounded(8, "ngram entry count")?;
            let mut counts = std::collections::HashMap::with_capacity(num_entries);
            for _ in 0..num_entries {
                let c = dec.u32()?;
                let n = dec.u32()?;
                counts.insert(c, n);
            }
            table.insert(ctx, counts);
        }
        tables.push(table);
    }
    Ok(NgramModel::from_parts(
        NgramConfig {
            context,
            smoothing_tenths,
        },
        vocab_size,
        tables,
        unigrams,
    ))
}

// `LanguageModel::vocab_size` needs a named import to call on a concrete
// type without shadowing confusion; alias the trait locally.
use crate::lm::LanguageModel as LanguageModelVocab;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::LanguageModel;

    #[test]
    fn lstm_roundtrip_is_bit_identical() {
        let model = LstmModel::new(LstmConfig {
            vocab_size: 13,
            hidden_size: 10,
            num_layers: 2,
            seed: 99,
        });
        let mut enc = Encoder::new();
        encode_lstm(&model, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = decode_lstm(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(model, back);
        // Bit-identical weights, not merely approximately equal.
        for (a, b) in model.w_out.data().iter().zip(back.w_out.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ngram_roundtrip_preserves_distributions_and_bytes() {
        let data: Vec<u32> = "the quick brown fox jumps over the lazy dog the quick"
            .bytes()
            .map(u32::from)
            .collect();
        let model = NgramModel::train(&data, 128, NgramConfig::default());
        let mut enc = Encoder::new();
        encode_ngram(&model, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = decode_ngram(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(LanguageModel::vocab_size(&back), 128);
        for history in [&data[..0], &data[..3], &data[..9]] {
            let a = model.distribution_for(history);
            let b = back.distribution_for(history);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        // Deterministic encoding: re-encoding the decoded model reproduces
        // the same bytes (contexts are sorted on the way out).
        let mut enc2 = Encoder::new();
        encode_ngram(&back, &mut enc2);
        assert_eq!(bytes, enc2.into_bytes());
    }

    #[test]
    fn corrupt_blocks_are_typed_errors() {
        let model = LstmModel::new(LstmConfig::small(5));
        let mut enc = Encoder::new();
        encode_lstm(&model, &mut enc);
        let mut bytes = enc.into_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(decode_lstm(&mut Decoder::new(&bytes)).is_err());

        let mut enc = Encoder::new();
        enc.u32(LSTM_WEIGHTS_VERSION + 7);
        let bytes = enc.into_bytes();
        assert!(matches!(
            decode_lstm(&mut Decoder::new(&bytes)),
            Err(WireError::UnsupportedVersion { .. })
        ));
    }
}
