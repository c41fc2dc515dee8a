//! The synthesis service, end to end: train a model, save its checkpoint,
//! serve it over a real socket, and drive the endpoints as a client.
//!
//! Run modes:
//!
//! ```bash
//! # everything in one process (train, checkpoint, serve on an ephemeral
//! # port, client round trips, graceful shutdown):
//! cargo run --release --example serve_roundtrip
//!
//! # train + save a checkpoint only — CI uses this to produce the model the
//! # standalone `clgen-serve` binary then boots in the background:
//! cargo run --release --example serve_roundtrip -- train /tmp/model.ckpt
//!
//! # train + save a CLGENPRD CPU/GPU mapping model only — CI hands this to
//! # `clgen-serve --mapping-model` so `/pipeline` streams prediction events:
//! cargo run --release --example serve_roundtrip -- train-mapping /tmp/model.prd
//! ```

use cldrive::Platform;
use clgen::{ClgenBuilder, ClgenOptions, TrainedModel};
use clgen_serve::{client, json, Server, ServerConfig, SynthesisParams};
use experiments::{build_suite_dataset, DatasetConfig};
use predictive::MappingModel;
use std::process::ExitCode;
use std::sync::Arc;

fn train() -> TrainedModel {
    let mut options = ClgenOptions::small(2017);
    options.corpus.miner.repositories = 40;
    println!("building corpus and training the model...");
    ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus construction failed")
        .train()
        .expect("model training failed")
}

/// Train the Grewe et al. CPU/GPU mapping model on the benchmark-suite
/// dataset (the paper's §7 baseline) — what `/pipeline` predicts with.
fn train_mapping() -> MappingModel {
    println!("building the benchmark-suite dataset and training the mapping model...");
    let dataset = build_suite_dataset(&Platform::amd(), &DatasetConfig::default());
    MappingModel::train(&dataset)
}

fn roundtrip() -> ExitCode {
    // Stage 1-2: train once, persist, reload — the server always boots from
    // a checkpoint, never from an in-process model.
    let path = std::env::temp_dir().join(format!("clgen-serve-demo-{}.ckpt", std::process::id()));
    train().save(&path).expect("checkpoint save failed");
    let model = TrainedModel::load(&path).expect("checkpoint load failed");
    std::fs::remove_file(&path).ok();

    // Stage 3: serve it.
    let handle = Server::start(
        model,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            mapping_model: Some(Arc::new(train_mapping())),
            ..ServerConfig::default()
        },
    )
    .expect("server start failed");
    let addr = handle.addr();
    println!("serving on http://{addr}");

    let health = client::get(addr, "/healthz").expect("healthz failed");
    println!("GET /healthz -> {} {}", health.status, health.text().trim());

    let reply = client::synthesize(
        addr,
        &SynthesisParams {
            count: 2,
            temperature: 0.8,
            max_chars: 512,
            seed: 7,
            max_attempts: 192,
            deadline_ms: None,
        },
    )
    .expect("synthesize failed");
    println!(
        "POST /synthesize -> {} ({} lines)",
        reply.status,
        reply.lines().len()
    );
    for line in reply.lines() {
        match json::extract_str(&line, "kernel") {
            Some(kernel) => println!("--- accepted kernel ---\n{kernel}"),
            None => println!("summary: {line}"),
        }
    }

    // The drive-and-predict harness: POST raw source to /drive, then close
    // the full loop over one socket with /pipeline (kernel, run, features
    // and prediction events interleaved per synthesized kernel).
    let vecadd = "__kernel void A(__global float* a, __global float* b, const int n) {\n\
                      int i = get_global_id(0);\n\
                      if (i < n) { b[i] = a[i] + b[i]; }\n\
                  }";
    let driven =
        client::post_body(addr, "/drive?sizes=256,4096", vecadd.as_bytes()).expect("drive failed");
    println!(
        "POST /drive -> {} ({} lines)",
        driven.status,
        driven.lines().len()
    );
    for line in driven.lines() {
        println!("  {line}");
    }
    let pipeline =
        client::post(addr, "/pipeline?count=1&seed=7&max_attempts=192").expect("pipeline failed");
    println!(
        "POST /pipeline -> {} ({} lines)",
        pipeline.status,
        pipeline.lines().len()
    );
    let predictions = pipeline
        .lines()
        .iter()
        .filter(|l| l.starts_with("{\"event\":\"prediction\""))
        .count();
    println!("  prediction events: {predictions}");
    assert!(
        predictions > 0,
        "mapping model attached, so predictions flow"
    );

    let stats = client::get(addr, "/stats").expect("stats failed");
    println!("GET /stats -> {}", stats.text().trim());

    handle.shutdown();
    println!("OK: graceful shutdown complete");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => roundtrip(),
        [mode, ckpt] if mode == "train" => {
            train().save(ckpt).expect("checkpoint save failed");
            println!("saved checkpoint to {ckpt}");
            ExitCode::SUCCESS
        }
        [mode, path] if mode == "train-mapping" => {
            train_mapping()
                .save(path)
                .expect("mapping model save failed");
            println!("saved CLGENPRD mapping model to {path}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: serve_roundtrip [train <checkpoint> | train-mapping <model.prd>]");
            ExitCode::FAILURE
        }
    }
}
