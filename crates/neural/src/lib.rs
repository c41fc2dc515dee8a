//! # clgen-neural
//!
//! Pure-Rust neural language modelling for the CLgen reproduction (§4.2 of
//! *Synthesizing Benchmarks for Predictive Modeling*, CGO 2017):
//!
//! * [`tensor`] — the small dense-matrix kernel the models are built on,
//! * [`lstm`] — a stacked character-level LSTM with exact backpropagation
//!   through time (the paper's 3×2048 Torch network, scaled by configuration),
//! * [`train`](mod@crate::train) — SGD with the paper's learning-rate schedule, truncated BPTT
//!   and gradient clipping,
//! * [`ngram`] — a back-off n-gram model used as an ablation baseline and as a
//!   compute-feasible stand-in for the three-GPU-week LSTM,
//! * [`lm`] — the [`LanguageModel`] trait and temperature
//!   sampling shared by the synthesizer.
//!
//! ```
//! use clgen_neural::lstm::{LstmConfig, LstmModel};
//! use clgen_neural::train::{train, TrainConfig};
//!
//! // Learn a toy cyclic sequence.
//! let data: Vec<u32> = (0..400).map(|i| i % 5).collect();
//! let mut model = LstmModel::new(LstmConfig { vocab_size: 5, hidden_size: 16, num_layers: 1, seed: 1 });
//! let reports = train(&mut model, &data, &TrainConfig::quick(), None);
//! assert!(reports.last().unwrap().loss_per_char < reports[0].loss_per_char);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod checkpoint;
pub mod lm;
pub mod lstm;
pub mod ngram;
pub mod tensor;
pub mod train;

pub use backend::LanguageModelBackend;
pub use lm::{sample_logits, LanguageModel, LstmStreams, NgramStreams, StatefulLstm, StreamBatch};
pub use lstm::{BatchState, BatchStepCache, LstmConfig, LstmModel, TrainBatch, Workspace};
pub use ngram::{NgramConfig, NgramModel};
pub use train::{
    evaluate, train, train_chunk_batch, train_range, EpochReport, TrainConfig, TrainSnapshot,
};
