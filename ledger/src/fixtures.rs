//! The fixed artefacts every workload runs over, and the in-process set-up
//! that builds them (timed as `setup_s`).

use crate::stats::fnv1a64;
use clgen::{ClgenBuilder, ClgenOptions, CorpusStage, ModelBackend, TrainedModel};
use clgen_corpus::Vocabulary;
use clgen_harness::{Harness, HarnessConfig};
use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_neural::{EpochReport, LstmStreams, TrainConfig};
use clgen_serve::{Server, ServerConfig, ServerHandle};
use predictive::{Dataset, Example, MappingModel};
use std::sync::Arc;
use suites::Benchmark;

/// `fx-lstm64`: the committed trained 2x64 checkpoint. The bytes — not the
/// recipe below — define what sampling and serving are measured on.
pub const LSTM64_BYTES: &[u8] = include_bytes!("../fixtures/lstm-2x64.ckpt");
/// FNV-1a-64 of [`LSTM64_BYTES`]; set-up refuses any other bytes.
pub const LSTM64_DIGEST: u64 = 0xc01b_042f_5ed0_e390;

/// Seed of the fixture corpus and of the fixture model's initial weights.
pub const RECIPE_SEED: u64 = 42;
const RECIPE_REPOSITORIES: usize = 60;
const RECIPE_EPOCHS: usize = 24;

/// Seed text of `fx-wide512`: brace-free, so the engine never sees a closer.
pub const WIDE_SEED_TEXT: &str = "kernel void A ";
const WIDE_ALPHABET: &str = "kernel void A abcdefghij0123456789=+;\n";

/// The recipe's training schedule at a given epoch count (`train` runs the
/// same schedule for fewer epochs).
pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        learning_rate: 0.2,
        decay_factor: 0.8,
        decay_every: 4,
        unroll: 64,
        clip_norm: 5.0,
        batch_size: 8,
    }
}

/// The 2x64 LSTM backend of the recipe at a given epoch count.
pub fn lstm64_backend(epochs: usize) -> ModelBackend {
    ModelBackend::Lstm {
        hidden_size: 64,
        num_layers: 2,
        train: train_config(epochs),
    }
}

/// The fixture corpus: `ClgenOptions::small(42)` mined from 60 repositories.
pub fn corpus_stage() -> CorpusStage {
    let mut options = ClgenOptions::small(RECIPE_SEED);
    options.corpus.miner.repositories = RECIPE_REPOSITORIES;
    ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("the fixture corpus is not empty")
}

/// Re-run the recipe that produced `fx-lstm64`, returning checkpoint bytes.
pub fn train_lstm64(on_epoch: &mut dyn FnMut(&EpochReport)) -> Vec<u8> {
    corpus_stage()
        .train_backend_with_progress(&lstm64_backend(RECIPE_EPOCHS), RECIPE_SEED, Some(on_epoch))
        .expect("the recipe's training configuration is valid")
        .to_bytes()
}

/// Decode `fx-lstm64` after verifying the committed bytes' digest.
pub fn lstm64() -> TrainedModel {
    let digest = fnv1a64(LSTM64_BYTES);
    assert_eq!(
        digest, LSTM64_DIGEST,
        "fixtures/lstm-2x64.ckpt does not have the digest recorded in fixtures/README.md"
    );
    TrainedModel::from_bytes(LSTM64_BYTES).expect("the committed checkpoint decodes")
}

/// `fx-wide512`: an untrained 2x512 model over a closer-free vocabulary whose
/// unknown id (an illegal character to the validator) is never drawn, so every
/// candidate runs its full character budget.
pub fn wide512() -> (LstmModel, Vocabulary) {
    let vocab = Vocabulary::from_text(WIDE_ALPHABET);
    let mut model = LstmModel::new(LstmConfig {
        vocab_size: vocab.len(),
        hidden_size: 512,
        num_layers: 2,
        seed: 7,
    });
    model.b_out[0] = -1.0e4;
    (model, vocab)
}

/// `fx-mapping`: a toy CPU/GPU mapping model, so driving includes prediction.
pub fn mapping() -> Arc<MappingModel> {
    let mut d = Dataset::new();
    for i in 0..16 {
        let f1 = (i + 1) as f64 * 100.0;
        let gpu_better = f1 > 800.0;
        d.push(Example {
            features: vec![f1, 0.0, 0.0, 1.0],
            benchmark: format!("b{}", i / 2),
            suite: "S".into(),
            id: format!("b{i}"),
            cpu_time: if gpu_better { 10.0 } else { 1.0 },
            gpu_time: if gpu_better { 1.0 } else { 10.0 },
        });
    }
    Arc::new(MappingModel::train(&d))
}

/// Lanes of every batched sampler in the benchmark (offline, wide, served).
pub const LANES: usize = 16;

/// Everything the workloads run over. Building it is the benchmark's set-up.
pub struct Fixtures {
    pub lstm64: TrainedModel,
    pub wide: LstmModel,
    pub wide_vocab: Vocabulary,
    pub corpus: CorpusStage,
    pub harness: Harness,
    pub suites: Vec<Benchmark>,
    /// Serves `fx-lstm64` with `fx-mapping` attached; shut down on drop.
    pub server: ServerHandle,
}

impl Fixtures {
    /// The whole in-process set-up, the same for every workload: decode and
    /// verify the checkpoint (twice: one copy is served), build and pack the
    /// wide model, mine the fixture corpus, train the mapping model, boot the
    /// server.
    pub fn setup() -> Fixtures {
        let (wide, wide_vocab) = wide512();
        // `sample-wide` packs these weights again for its own streams; packing
        // here keeps that cost in `setup_s`, where work moved into set-up shows.
        drop(LstmStreams::new(&wide, LANES));
        let mapping = mapping();
        let server = Server::start(
            lstm64(),
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                lanes: LANES,
                queue_cap: 256,
                mapping_model: Some(mapping.clone()),
                ..ServerConfig::default()
            },
        )
        .expect("a loopback port is free");
        Fixtures {
            lstm64: lstm64(),
            wide,
            wide_vocab,
            corpus: corpus_stage(),
            harness: Harness::new(HarnessConfig::default(), Some(mapping)),
            suites: suites::all_benchmarks(),
            server,
        }
    }
}
