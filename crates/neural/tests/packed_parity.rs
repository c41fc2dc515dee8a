//! Kernel-parity and determinism guarantees of the packed numeric core, at
//! paper-adjacent hidden sizes.
//!
//! Three claims anchor this suite (CI's kernel-parity job runs it, with the
//! rest of this crate's tests, in release mode):
//!
//! 1. **Sampling parity across scale** — multi-stream batched prediction
//!    (which consumes the packed, k-blocked, possibly row-parallel kernels)
//!    is bitwise identical to serial prediction at hidden ∈ {64, 192, 512},
//!    straddling the sizes where the `BlockPlan` starts k-blocking (kc < H)
//!    and row-parallelising.
//! 2. **Training parity across scale** — `train()` at one stream takes
//!    bitwise-identical SGD steps to the naive `train_chunk` reference at
//!    the same hidden sizes.
//! 3. **Thread-count independence** — forcing the row-parallel kernels
//!    through 1 and N rayon workers produces bitwise-identical probabilities
//!    and weights (disjoint output rows + the unified per-element fold).

use clgen_neural::lstm::{BatchState, LstmConfig, LstmModel};
use clgen_neural::train::{train, train_chunk, train_chunk_batch, TrainConfig};
use clgen_neural::{LanguageModel, LstmStreams, StatefulLstm, StreamBatch};

/// Hidden sizes the guarantees are asserted at: the bench config, an
/// odd-multiple mid size, and a paper-adjacent size past the parallel
/// threshold. Layer counts shrink as hidden grows to keep the (debug-mode)
/// tier-1 run fast.
fn sweep() -> [(usize, usize); 3] {
    [(64, 2), (192, 2), (512, 1)]
}

fn toy_data(vocab: usize, len: usize) -> Vec<u32> {
    (0..len).map(|i| ((i * 5 + i / 7) % vocab) as u32).collect()
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

/// Batched multi-stream prediction through the packed kernels equals serial
/// prediction bitwise at every sweep size, including partial feeds (the
/// serving `BatchEngine`'s steady state).
#[test]
fn packed_batched_sampling_bitwise_matches_serial_across_hidden_sweep() {
    for (hidden, layers) in sweep() {
        let vocab = 11;
        let model = LstmModel::new(LstmConfig {
            vocab_size: vocab,
            hidden_size: hidden,
            num_layers: layers,
            seed: 0xC0DE + hidden as u64,
        });
        let n = 3;
        let mut streams = LstmStreams::new(&model, n);
        let mut serial: Vec<StatefulLstm> =
            (0..n).map(|_| StatefulLstm::new(model.clone())).collect();
        // Full-width rounds plus a partial feed.
        let rounds: Vec<Vec<(usize, u32)>> = vec![
            vec![(0, 1), (1, 4), (2, 9)],
            vec![(1, 2)],
            vec![(0, 10), (1, 0), (2, 3)],
        ];
        let mut probs = Vec::new();
        for pairs in rounds {
            for &(stream, id) in &pairs {
                serial[stream].feed(id);
            }
            streams.feed_many(&pairs);
            for (stream, reference) in serial.iter().enumerate() {
                streams.probs_into(stream, &mut probs);
                let expect = reference.predict();
                assert_eq!(probs.len(), expect.len());
                for (a, b) in probs.iter().zip(expect.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "hidden={hidden} stream {stream} diverged from serial"
                    );
                }
            }
        }
    }
}

/// `train()` at one stream takes bitwise-identical SGD steps to the naive
/// `train_chunk` reference at every sweep size (multi-chunk, so the
/// per-chunk re-pack is exercised).
#[test]
fn packed_minibatch_width1_bitwise_matches_serial_across_hidden_sweep() {
    for (hidden, layers) in sweep() {
        let vocab = 7;
        let config = LstmConfig {
            vocab_size: vocab,
            hidden_size: hidden,
            num_layers: layers,
            seed: 0xBEEF + hidden as u64,
        };
        // Small data, two chunks, one epoch: enough to take several packed
        // SGD steps without making the debug-mode tier-1 run slow.
        let data = toy_data(vocab, 33);
        let tc = TrainConfig {
            epochs: 1,
            learning_rate: 0.05,
            decay_factor: 0.5,
            decay_every: 2,
            unroll: 16,
            clip_norm: 2.0,
            batch_size: 1,
        };

        let mut reference = LstmModel::new(config);
        let mut state = reference.initial_state();
        let mut pos = 0usize;
        while pos + 1 < data.len() {
            let end = (pos + tc.unroll).min(data.len() - 1);
            train_chunk(
                &mut reference,
                &mut state,
                &data[pos..end],
                &data[pos + 1..end + 1],
                tc.lr_at_epoch(0),
                tc.clip_norm,
            );
            pos = end;
        }

        let mut trained = LstmModel::new(config);
        train(&mut trained, &data, &tc, None);
        assert_models_bitwise_equal(&reference, &trained, &format!("hidden={hidden}"));
    }
}

/// The row-parallel forward kernels are bitwise independent of the rayon
/// thread count: the hidden-512 operands cross the parallel threshold, and
/// 1, 2 and 6 workers must produce identical probabilities and states.
#[test]
fn packed_sampling_is_thread_count_invariant() {
    let vocab = 13;
    let model = LstmModel::new(LstmConfig {
        vocab_size: vocab,
        hidden_size: 512,
        num_layers: 1,
        seed: 77,
    });
    let inputs = [3u32, 9, 0, 12];
    let run = |threads: usize| {
        rayon::with_num_threads(threads, || {
            let mut bs = BatchState::new(&model.config, 4);
            let mut ws = model.workspace(4);
            let mut all_probs = Vec::new();
            for step in 0..3 {
                let ids: Vec<u32> = inputs.iter().map(|&i| (i + step) % vocab as u32).collect();
                model.predict_batch_resident(&mut bs, &ids, &mut ws);
                for lane in 0..4 {
                    all_probs.extend_from_slice(ws.probs_lane(lane));
                }
            }
            let states: Vec<_> = (0..4)
                .map(|lane| {
                    let mut state = model.initial_state();
                    bs.store_lane(lane, &mut state);
                    state
                })
                .collect();
            (states, all_probs)
        })
    };
    let (states_1, probs_1) = run(1);
    for threads in [2usize, 6] {
        let (states_n, probs_n) = run(threads);
        assert_eq!(states_1, states_n, "states differ at {threads} threads");
        for (a, b) in probs_1.iter().zip(probs_n.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "probs differ at {threads} threads"
            );
        }
    }
}

/// The row-parallel training kernels (forward GEMMs, transposed-pack
/// backward products, parallel outer-product gradient accumulation) are
/// bitwise independent of the rayon thread count across a full BPTT chunk.
#[test]
fn packed_training_is_thread_count_invariant() {
    let vocab = 9;
    let config = LstmConfig {
        vocab_size: vocab,
        hidden_size: 512,
        num_layers: 1,
        seed: 5150,
    };
    let width = 4;
    let steps = 3;
    let inputs: Vec<u32> = (0..steps * width).map(|i| (i as u32 * 3 + 1) % 9).collect();
    let targets: Vec<u32> = (0..steps * width).map(|i| (i as u32 * 2 + 5) % 9).collect();
    let run = |threads: usize| {
        rayon::with_num_threads(threads, || {
            let mut model = LstmModel::new(config);
            let mut bs = BatchState::new(&model.config, width);
            let mut tb = model.train_batch(width);
            let mut grads = model.zero_gradients();
            let (loss, _) = train_chunk_batch(
                &mut model, &mut bs, &inputs, &targets, 0.05, 2.0, &mut tb, &mut grads,
            );
            (model, loss)
        })
    };
    let (model_1, loss_1) = run(1);
    for threads in [2usize, 5] {
        let (model_n, loss_n) = run(threads);
        assert_eq!(
            loss_1.to_bits(),
            loss_n.to_bits(),
            "loss differs at {threads} threads"
        );
        assert_models_bitwise_equal(&model_1, &model_n, &format!("{threads} threads"));
    }
}

/// `LstmConfig::validate` rejects dimensions whose weight tensors would
/// overflow `usize` or exceed the element cap, without attempting any
/// allocation; sane configurations pass.
#[test]
fn packed_scale_guard_rejects_overflowing_configs() {
    let ok = LstmConfig {
        vocab_size: 128,
        hidden_size: 2048,
        num_layers: 3,
        seed: 1,
    };
    assert!(ok.validate().is_ok(), "the paper config must validate");
    let cases = [
        LstmConfig {
            hidden_size: 0,
            ..ok
        },
        LstmConfig {
            vocab_size: 0,
            ..ok
        },
        LstmConfig {
            num_layers: 0,
            ..ok
        },
        LstmConfig {
            hidden_size: usize::MAX / 2,
            ..ok
        },
        LstmConfig {
            hidden_size: usize::MAX / 8,
            vocab_size: 9,
            ..ok
        },
        // 4 * 2^16 * 2^16 = 2^34 elements: over the 2^31 cap but far from
        // overflowing usize — the explicit cap must catch it.
        LstmConfig {
            hidden_size: 1 << 16,
            vocab_size: 1 << 16,
            ..ok
        },
    ];
    for config in cases {
        assert!(
            config.validate().is_err(),
            "config {config:?} should be rejected"
        );
    }
}
