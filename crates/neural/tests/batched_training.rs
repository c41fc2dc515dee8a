//! Property tests for minibatched truncated-BPTT training.
//!
//! Three guarantees anchor the batched training path:
//!
//! 1. **B=1 bitwise identity** — `train()` at one stream produces weights
//!    bitwise identical to a loop of reference `train_chunk`s over a
//!    multi-chunk, multi-epoch run (the training-side analogue of the
//!    batched sampler's determinism guarantee).
//! 2. **Gradient correctness at B>1** — the batched backward pass agrees
//!    with central finite differences of the batched loss, catching
//!    sign/transpose bugs the bitwise-equality test cannot (it would accept
//!    a backward pass that is wrong in the same way in both paths).
//! 3. **Resumability** — stop at an epoch boundary, round-trip a
//!    `TrainSnapshot` through bytes, continue, and land on weights bitwise
//!    identical to a never-interrupted run.

use clgen_neural::lstm::{BatchState, LstmConfig, LstmModel};
use clgen_neural::train::{
    evaluate, train, train_chunk, train_chunk_batch, train_range, TrainConfig, TrainSnapshot,
};

/// A corpus-like sequence with enough structure to produce non-trivial
/// gradients but full coverage of the vocabulary.
fn toy_data(vocab: usize, len: usize) -> Vec<u32> {
    (0..len).map(|i| ((i * 7 + i / 3) % vocab) as u32).collect()
}

fn assert_models_bitwise_equal(a: &LstmModel, b: &LstmModel, context: &str) {
    for (l, (la, lb)) in a.layers.iter().zip(b.layers.iter()).enumerate() {
        for (x, y) in la.w_x.data().iter().zip(lb.w_x.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: layer {l} w_x differs");
        }
        for (x, y) in la.w_h.data().iter().zip(lb.w_h.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: layer {l} w_h differs");
        }
        for (x, y) in la.b.iter().zip(lb.b.iter()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: layer {l} bias differs"
            );
        }
    }
    for (x, y) in a.w_out.data().iter().zip(b.w_out.data().iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: w_out differs");
    }
    for (x, y) in a.b_out.iter().zip(b.b_out.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: b_out differs");
    }
}

/// The training determinism guarantee: `train()` at `batch_size == 1` takes
/// bitwise-identical SGD steps to the reference `train_chunk` over a
/// multi-chunk, multi-epoch run, across model shapes and data lengths that
/// exercise ragged final chunks — and reports the same per-epoch loss.
#[test]
fn train_at_batch1_bitwise_equals_reference_chunks() {
    for (vocab, hidden, layers, len, unroll, seed) in [
        (7, 12, 2, 257, 24, 11u64),
        (5, 8, 1, 96, 32, 3),
        (11, 16, 3, 140, 17, 99),
    ] {
        let config = LstmConfig {
            vocab_size: vocab,
            hidden_size: hidden,
            num_layers: layers,
            seed,
        };
        let data = toy_data(vocab, len);
        let tc = TrainConfig {
            epochs: 3,
            learning_rate: 0.08,
            decay_factor: 0.6,
            decay_every: 2,
            unroll,
            clip_norm: 2.0,
            batch_size: 1,
        };

        // The reference, driven chunk by chunk over one stream.
        let mut reference = LstmModel::new(config);
        let mut losses = Vec::new();
        for epoch in 0..tc.epochs {
            let lr = tc.lr_at_epoch(epoch);
            let mut state = reference.initial_state();
            let mut total = 0.0f64;
            let mut pos = 0usize;
            while pos + 1 < data.len() {
                let end = (pos + tc.unroll).min(data.len() - 1);
                total += f64::from(train_chunk(
                    &mut reference,
                    &mut state,
                    &data[pos..end],
                    &data[pos + 1..end + 1],
                    lr,
                    tc.clip_norm,
                ));
                pos = end;
            }
            losses.push((total / (data.len() - 1) as f64) as f32);
        }

        let mut trained = LstmModel::new(config);
        let reports = train(&mut trained, &data, &tc, None);
        assert_models_bitwise_equal(
            &reference,
            &trained,
            &format!("vocab={vocab} hidden={hidden} layers={layers} len={len} unroll={unroll}"),
        );
        let reported: Vec<f32> = reports.iter().map(|r| r.loss_per_char).collect();
        assert_eq!(losses, reported, "per-epoch loss differs");
    }
}

/// Finite-difference check of the batched backward pass at width > 1: for a
/// tiny LSTM, the analytic gradient of the summed-over-lanes chunk loss must
/// match central differences in every tensor.
#[test]
fn batched_backward_matches_finite_differences() {
    let config = LstmConfig {
        vocab_size: 5,
        hidden_size: 4,
        num_layers: 2,
        seed: 17,
    };
    let width = 3;
    let steps = 4;
    // Fixed per-lane sequences (inputs and targets), timestep-major.
    let inputs: Vec<u32> = (0..steps * width).map(|i| (i as u32 * 3 + 1) % 5).collect();
    let targets: Vec<u32> = (0..steps * width).map(|i| (i as u32 * 2 + 3) % 5).collect();

    // Batched forward + backward loss over fresh zero states.
    let loss_of = |m: &LstmModel| -> f32 {
        let mut bs = BatchState::new(&m.config, width);
        let mut tb = m.train_batch(width);
        let mut grads = m.zero_gradients();
        // lr = 0: train_chunk_batch computes loss + grads without moving the
        // weights, so it doubles as a pure loss evaluation.
        let mut m = m.clone();
        let (loss, _) = train_chunk_batch(
            &mut m, &mut bs, &inputs, &targets, 0.0, 0.0, &mut tb, &mut grads,
        );
        loss
    };

    let mut model = LstmModel::new(config);
    let base_loss = loss_of(&model);
    assert!(base_loss.is_finite() && base_loss > 0.0);

    // Analytic gradients from the batched backward pass.
    let mut grads = model.zero_gradients();
    {
        let mut bs = BatchState::new(&model.config, width);
        let mut tb = model.train_batch(width);
        let mut m = model.clone();
        train_chunk_batch(
            &mut m, &mut bs, &inputs, &targets, 0.0, 0.0, &mut tb, &mut grads,
        );
    }

    let eps = 1e-3f32;
    let tolerance = |numeric: f32, analytic: f32| {
        (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs()))
    };

    // A spread of entries in every tensor class: recurrent weights, input
    // weights (embedding column and dense), biases, output projection.
    for (l, r, c) in [(0usize, 0usize, 1usize), (0, 9, 3), (1, 5, 2), (1, 14, 0)] {
        let orig = model.layers[l].w_h.get(r, c);
        model.layers[l].w_h.set(r, c, orig + eps);
        let plus = loss_of(&model);
        model.layers[l].w_h.set(r, c, orig - eps);
        let minus = loss_of(&model);
        model.layers[l].w_h.set(r, c, orig);
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = grads.layers[l].w_h.get(r, c);
        assert!(
            tolerance(numeric, analytic),
            "w_h gradient mismatch at layer {l} ({r},{c}): numeric {numeric} vs analytic {analytic}"
        );
    }
    for (l, r, c) in [(0usize, 2usize, 1usize), (0, 11, 4), (1, 7, 3)] {
        let orig = model.layers[l].w_x.get(r, c);
        model.layers[l].w_x.set(r, c, orig + eps);
        let plus = loss_of(&model);
        model.layers[l].w_x.set(r, c, orig - eps);
        let minus = loss_of(&model);
        model.layers[l].w_x.set(r, c, orig);
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = grads.layers[l].w_x.get(r, c);
        assert!(
            tolerance(numeric, analytic),
            "w_x gradient mismatch at layer {l} ({r},{c}): numeric {numeric} vs analytic {analytic}"
        );
    }
    for (l, r) in [(0usize, 3usize), (1, 12)] {
        let orig = model.layers[l].b[r];
        model.layers[l].b[r] = orig + eps;
        let plus = loss_of(&model);
        model.layers[l].b[r] = orig - eps;
        let minus = loss_of(&model);
        model.layers[l].b[r] = orig;
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = grads.layers[l].b[r];
        assert!(
            tolerance(numeric, analytic),
            "bias gradient mismatch at layer {l} row {r}: numeric {numeric} vs analytic {analytic}"
        );
    }
    for (r, c) in [(0usize, 0usize), (2, 3), (4, 1)] {
        let orig = model.w_out.get(r, c);
        model.w_out.set(r, c, orig + eps);
        let plus = loss_of(&model);
        model.w_out.set(r, c, orig - eps);
        let minus = loss_of(&model);
        model.w_out.set(r, c, orig);
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = grads.w_out.get(r, c);
        assert!(
            tolerance(numeric, analytic),
            "w_out gradient mismatch at ({r},{c}): numeric {numeric} vs analytic {analytic}"
        );
    }
    {
        let orig = model.b_out[1];
        model.b_out[1] = orig + eps;
        let plus = loss_of(&model);
        model.b_out[1] = orig - eps;
        let minus = loss_of(&model);
        model.b_out[1] = orig;
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = grads.b_out[1];
        assert!(
            tolerance(numeric, analytic),
            "b_out gradient mismatch: numeric {numeric} vs analytic {analytic}"
        );
    }
}

/// Minibatch training at a real batch width must still learn: on a regular
/// sequence the final validation loss lands in the same neighbourhood as
/// one-stream training's.
#[test]
fn minibatch_training_reduces_loss_like_serial() {
    let vocab = 6;
    let data: Vec<u32> = (0..1200).map(|i| (i % vocab) as u32).collect();
    let config = LstmConfig {
        vocab_size: vocab,
        hidden_size: 24,
        num_layers: 1,
        seed: 11,
    };
    let tc_serial = TrainConfig {
        epochs: 6,
        learning_rate: 0.1,
        decay_factor: 0.8,
        decay_every: 3,
        unroll: 32,
        clip_norm: 5.0,
        batch_size: 1,
    };
    let tc_batched = TrainConfig {
        batch_size: 4,
        ..tc_serial
    };

    let mut serial = LstmModel::new(config);
    train(&mut serial, &data, &tc_serial, None);
    let serial_loss = evaluate(&serial, &data);

    let mut batched = LstmModel::new(config);
    let reports = train(&mut batched, &data, &tc_batched, None);
    let batched_loss = evaluate(&batched, &data);

    let before = evaluate(&LstmModel::new(config), &data);
    assert!(
        batched_loss < before * 0.7,
        "batched training should substantially reduce loss: before={before}, after={batched_loss}"
    );
    assert!(
        (batched_loss - serial_loss).abs() < 0.5 * serial_loss.max(0.1),
        "batched final loss should be near serial's: serial={serial_loss}, batched={batched_loss}"
    );
    // Stream-aware accounting: each epoch processed every stream's segment.
    let seg = (data.len() - 1) / 4;
    assert!(reports.iter().all(|r| r.characters == 4 * seg));
    assert!(reports.iter().all(|r| r.chars_per_sec > 0.0));
}

/// Stop/reload/continue at an epoch boundary matches an uninterrupted run
/// bitwise, at one stream and at four, across a snapshot byte round-trip.
#[test]
fn snapshot_resume_matches_uninterrupted_run() {
    let vocab = 8;
    let data = toy_data(vocab, 400);
    let config = LstmConfig {
        vocab_size: vocab,
        hidden_size: 12,
        num_layers: 2,
        seed: 5,
    };
    for batch_size in [1usize, 4] {
        let full = TrainConfig {
            epochs: 5,
            learning_rate: 0.05,
            decay_factor: 0.5,
            decay_every: 2,
            unroll: 20,
            clip_norm: 5.0,
            batch_size,
        };

        // Uninterrupted reference run.
        let mut uninterrupted = LstmModel::new(config);
        train(&mut uninterrupted, &data, &full, None);

        // Interrupted run: first 2 epochs, snapshot, byte round-trip,
        // resume the remaining 3 with the *full* schedule.
        let stop_at = 2usize;
        let mut first_leg = LstmModel::new(config);
        let partial = TrainConfig {
            epochs: stop_at,
            ..full
        };
        train(&mut first_leg, &data, &partial, None);
        let snapshot = TrainSnapshot::capture(&first_leg, stop_at);
        let bytes = snapshot.to_bytes();
        let reloaded = TrainSnapshot::from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(reloaded.next_epoch, stop_at);
        let (resumed, reports) = reloaded.resume(&data, &full, None);
        assert_eq!(reports.len(), full.epochs - stop_at);
        assert_eq!(reports[0].epoch, stop_at);
        assert_eq!(
            reports[0].learning_rate,
            full.lr_at_epoch(stop_at),
            "resume must pick up the decayed learning rate"
        );
        assert_models_bitwise_equal(
            &uninterrupted,
            &resumed,
            &format!("snapshot resume at batch_size={batch_size}"),
        );
    }

    // Corrupt snapshots are typed errors, never panics.
    let snapshot = TrainSnapshot::capture(&LstmModel::new(config), 1);
    let bytes = snapshot.to_bytes();
    assert!(TrainSnapshot::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    let mut stomped = bytes.clone();
    stomped[0] ^= 0xFF;
    assert!(TrainSnapshot::from_bytes(&stomped).is_err());
}

/// `train_range` is the primitive under `train` and `resume`: running `0..k`
/// then `k..n` in place equals `0..n`.
#[test]
fn train_range_split_equals_whole() {
    let vocab = 5;
    let data = toy_data(vocab, 160);
    let config = LstmConfig {
        vocab_size: vocab,
        hidden_size: 8,
        num_layers: 1,
        seed: 23,
    };
    let tc = TrainConfig {
        epochs: 4,
        learning_rate: 0.07,
        decay_factor: 0.6,
        decay_every: 2,
        unroll: 16,
        clip_norm: 5.0,
        batch_size: 2,
    };
    let mut whole = LstmModel::new(config);
    train(&mut whole, &data, &tc, None);

    let mut split = LstmModel::new(config);
    let first = train_range(&mut split, &data, &TrainConfig { epochs: 2, ..tc }, 0, None);
    let second = train_range(&mut split, &data, &tc, 2, None);
    assert_eq!(first.len(), 2);
    assert_eq!(second.len(), 2);
    assert_models_bitwise_equal(&whole, &split, "train_range split");
}
