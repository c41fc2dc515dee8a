//! Checkpointed model persistence, end to end: train a model, save it, load
//! it back and verify the loaded model synthesizes **byte-identical** kernels
//! to the original.
//!
//! Run modes:
//!
//! ```bash
//! # everything in one process (train, save, load, compare):
//! cargo run --release --example checkpoint_roundtrip
//!
//! # split across two processes, so the load side starts cold — this is the
//! # mode CI uses to prove checkpoints survive a process boundary:
//! cargo run --release --example checkpoint_roundtrip -- save  /tmp/m.ckpt /tmp/m.expected
//! cargo run --release --example checkpoint_roundtrip -- check /tmp/m.ckpt /tmp/m.expected
//! ```
//!
//! `save` trains a model, writes the checkpoint, runs a fixed sampling
//! session and records every accepted kernel to the expected-output file.
//! `check` loads the checkpoint in a fresh process, repeats the session and
//! exits non-zero unless the output matches byte for byte.

use clgen::{ArgumentSpec, ClgenBuilder, ClgenOptions, SampleOptions, SamplerConfig, TrainedModel};
use std::process::ExitCode;

const RUN_SEED: u64 = 2017;

/// The fixed sampling session both sides run.
fn session_output(model: &TrainedModel) -> String {
    let sampler = model.sampler(
        SamplerConfig::new(RUN_SEED)
            .with_spec(ArgumentSpec::paper_default())
            .with_sample(SampleOptions {
                max_chars: 512,
                temperature: 0.8,
            })
            .with_lanes(8)
            .with_max_attempts(160),
    );
    let mut out = String::new();
    for accepted in sampler.stream() {
        out.push_str(&format!(
            "=== candidate {} (attempts {})\n{}\n",
            accepted.stats.candidate_index, accepted.stats.attempts, accepted.kernel.source
        ));
    }
    out
}

fn train() -> TrainedModel {
    let mut options = ClgenOptions::small(RUN_SEED);
    options.corpus.miner.repositories = 40;
    println!("building corpus and training the model...");
    ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus construction failed")
        .train()
        .expect("model training failed")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            // Single-process demonstration.
            let model = train();
            let expected = session_output(&model);
            let path = std::env::temp_dir()
                .join(format!("clgen-checkpoint-demo-{}.ckpt", std::process::id()));
            model.save(&path).expect("checkpoint save failed");
            let loaded = TrainedModel::load(&path).expect("checkpoint load failed");
            std::fs::remove_file(&path).ok();
            let actual = session_output(&loaded);
            if actual == expected {
                println!(
                    "OK: loaded {} model reproduced {} bytes of synthesis output byte-for-byte",
                    loaded.backend_kind(),
                    actual.len()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("MISMATCH: loaded model diverged from the original");
                ExitCode::FAILURE
            }
        }
        [mode, ckpt, expected_path] if mode == "save" => {
            let model = train();
            model.save(ckpt).expect("checkpoint save failed");
            std::fs::write(expected_path, session_output(&model))
                .expect("expected-output write failed");
            println!("saved checkpoint to {ckpt} and expected output to {expected_path}");
            ExitCode::SUCCESS
        }
        [mode, ckpt, expected_path] if mode == "check" => {
            let model = TrainedModel::load(ckpt).expect("checkpoint load failed");
            let expected = std::fs::read_to_string(expected_path).expect("expected output");
            let actual = session_output(&model);
            if actual == expected {
                println!(
                    "OK: fresh-process load of {} model reproduced the original's output",
                    model.backend_kind()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("MISMATCH: checkpoint did not reproduce the original output");
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: checkpoint_roundtrip [save|check <checkpoint> <expected-output>]");
            ExitCode::FAILURE
        }
    }
}
