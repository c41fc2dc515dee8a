//! Training loop for the LSTM language model (§4.2).
//!
//! The paper trains with Stochastic Gradient Descent for 50 epochs with an
//! initial learning rate of 0.002, decayed by one half every 5 epochs. This
//! module implements that schedule with truncated back-propagation through
//! time and global-norm gradient clipping.
//!
//! There is one driver, [`train`]: the corpus is sliced into
//! [`TrainConfig::batch_size`] parallel streams (one included) advanced in
//! lockstep through the packed GEMM kernels, one [`train_chunk_batch`] per
//! chunk. [`train_chunk`] is the naive single-stream reference the test
//! suites hold it against: at `batch_size == 1` the two take
//! bitwise-identical SGD steps.
//!
//! Training can be suspended and resumed at epoch boundaries through
//! [`TrainSnapshot`], which persists the weights plus the schedule position
//! with the same bit-exact wire codec model checkpoints use.

use crate::checkpoint::{decode_train_snapshot, encode_train_snapshot};
use crate::lstm::{BatchState, LstmGradients, LstmModel, LstmState, TrainBatch};
use crate::tensor::softmax_in_place;
use clgen_wire::{Decoder, Encoder, WireError};
use std::time::Instant;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the corpus (the paper uses 50).
    pub epochs: usize,
    /// Initial learning rate (the paper uses 0.002).
    pub learning_rate: f32,
    /// Multiply the learning rate by this factor every `decay_every` epochs
    /// (the paper halves it every 5 epochs).
    pub decay_factor: f32,
    /// Epoch interval between learning-rate decays.
    pub decay_every: usize,
    /// Truncated BPTT unroll length in characters.
    pub unroll: usize,
    /// Clip gradients to this global L2 norm.
    pub clip_norm: f32,
    /// Number of parallel training streams the corpus is sliced into (`1`
    /// by default). Gradients are summed over the streams of a chunk, so
    /// larger batches take proportionally larger (and fewer) SGD steps per
    /// epoch — the standard char-RNN trade-off.
    pub batch_size: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            learning_rate: 0.002,
            decay_factor: 0.5,
            decay_every: 5,
            unroll: 64,
            clip_norm: 5.0,
            batch_size: 1,
        }
    }
}

impl TrainConfig {
    /// A configuration small enough for unit tests (few epochs, short unroll).
    pub fn quick() -> TrainConfig {
        TrainConfig {
            epochs: 4,
            learning_rate: 0.05,
            decay_factor: 0.7,
            decay_every: 2,
            unroll: 24,
            clip_norm: 5.0,
            batch_size: 1,
        }
    }

    /// Learning rate in effect at the given (0-based) epoch.
    pub fn lr_at_epoch(&self, epoch: usize) -> f32 {
        let decays = epoch.checked_div(self.decay_every).unwrap_or(0);
        self.learning_rate * self.decay_factor.powi(decays as i32)
    }

    /// Check the configuration for values that would make training loop
    /// forever or divide by zero. Returns a description of the first violated
    /// constraint; the pipeline surfaces it as a typed
    /// `ClgenError::InvalidConfig` instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.epochs == 0 {
            return Err("training epochs must be at least 1");
        }
        if self.unroll == 0 {
            return Err("BPTT unroll length must be at least 1");
        }
        if self.decay_every == 0 {
            return Err("learning-rate decay interval must be at least 1");
        }
        if self.batch_size == 0 {
            return Err("training batch size must be at least 1");
        }
        Ok(())
    }
}

/// Progress report for one epoch of training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean cross-entropy loss per character (nats).
    pub loss_per_char: f32,
    /// Learning rate used this epoch.
    pub learning_rate: f32,
    /// Characters processed.
    pub characters: usize,
    /// Wall-clock seconds the epoch took.
    pub seconds: f64,
    /// Training throughput in characters per second.
    pub chars_per_sec: f64,
    /// Mean global L2 norm of the chunk gradients before clipping.
    pub mean_grad_norm: f32,
    /// Fraction of the epoch's chunks whose gradient was clipped.
    pub clip_rate: f32,
}

/// Train `model` on an encoded character sequence.
///
/// `data` is the corpus encoded with the model's vocabulary. Returns one
/// [`EpochReport`] per epoch. An optional callback receives each report as it
/// is produced (useful for progress logging in long runs).
///
/// `data` is sliced into `B = config.batch_size` parallel streams advanced
/// in lockstep: stream `b` covers `data[b*seg ..= (b+1)*seg]` where
/// `seg = (data.len() - 1) / B` (the classic char-RNN layout; up to `B - 1`
/// trailing characters are dropped so every stream has equal length). Each
/// chunk runs `min(unroll, remaining)` timesteps across all streams as one
/// batched forward/backward, sums the gradients over streams, and takes one
/// clipped SGD step. Loss is averaged over all streams' characters.
///
/// The learning-rate schedule is indexed by absolute epoch, so a run can be
/// suspended and resumed via [`TrainSnapshot`] + [`train_range`].
///
/// # Panics
///
/// Panics if `config` fails [`TrainConfig::validate`] or `data` is shorter
/// than `batch_size + 1` characters (each stream needs at least one
/// input/target transition). The staged pipeline checks both up front and
/// returns a typed error instead.
pub fn train(
    model: &mut LstmModel,
    data: &[u32],
    config: &TrainConfig,
    on_epoch: Option<&mut dyn FnMut(&EpochReport)>,
) -> Vec<EpochReport> {
    train_range(model, data, config, 0, on_epoch)
}

/// [`train`] restricted to epochs `start_epoch..config.epochs`: the resume
/// entry point. Epoch indices, the learning-rate schedule and the stream
/// slicing all use absolute positions, and every epoch starts from a fresh
/// recurrent state, so training epochs `0..k` + resuming `k..n` (e.g. from a
/// reloaded [`TrainSnapshot`]) reproduces an uninterrupted `0..n` run
/// bitwise.
pub fn train_range(
    model: &mut LstmModel,
    data: &[u32],
    config: &TrainConfig,
    start_epoch: usize,
    mut on_epoch: Option<&mut dyn FnMut(&EpochReport)>,
) -> Vec<EpochReport> {
    if let Err(what) = config.validate() {
        panic!("invalid TrainConfig: {what}");
    }
    let width = config.batch_size;
    assert!(
        data.len() > width,
        "training data must hold at least one transition per stream"
    );
    // Equal-length stream segments: stream b reads inputs from
    // data[b*seg .. b*seg+seg] and targets one character ahead.
    let seg = (data.len() - 1) / width;
    let mut reports = Vec::with_capacity(config.epochs.saturating_sub(start_epoch));
    // One state, one scratch and one gradient buffer serve the whole run:
    // steady-state training performs no heap allocation.
    let mut bs = BatchState::new(&model.config, width);
    let mut tb = model.train_batch(width);
    let mut grads = model.zero_gradients();
    // Chunk staging buffers, timestep-major and lane-interleaved: the
    // character of stream b at relative step t sits at [t * width + b].
    let mut inputs = vec![0u32; config.unroll * width];
    let mut targets = vec![0u32; config.unroll * width];
    for epoch in start_epoch..config.epochs {
        let start = Instant::now();
        let lr = config.lr_at_epoch(epoch);
        let mut total_loss = 0.0f64;
        let mut total_norm = 0.0f64;
        let (mut chunks, mut clipped) = (0usize, 0usize);
        // Every epoch starts every stream from the start-of-sequence state.
        for lane in 0..width {
            bs.reset_lane(lane);
        }
        let mut pos = 0usize;
        while pos < seg {
            let steps = config.unroll.min(seg - pos);
            for t in 0..steps {
                for lane in 0..width {
                    let at = lane * seg + pos + t;
                    inputs[t * width + lane] = data[at];
                    targets[t * width + lane] = data[at + 1];
                }
            }
            let (loss, grad_norm) = train_chunk_batch(
                model,
                &mut bs,
                &inputs[..steps * width],
                &targets[..steps * width],
                lr,
                config.clip_norm,
                &mut tb,
                &mut grads,
            );
            total_loss += loss as f64;
            total_norm += grad_norm as f64;
            chunks += 1;
            clipped += usize::from(config.clip_norm > 0.0 && grad_norm > config.clip_norm);
            pos += steps;
        }
        let characters = seg * width;
        let seconds = start.elapsed().as_secs_f64();
        let report = EpochReport {
            epoch,
            loss_per_char: (total_loss / characters as f64) as f32,
            learning_rate: lr,
            characters,
            seconds,
            chars_per_sec: if seconds > 0.0 {
                characters as f64 / seconds
            } else {
                0.0
            },
            mean_grad_norm: (total_norm / chunks as f64) as f32,
            clip_rate: clipped as f32 / chunks as f32,
        };
        if let Some(cb) = on_epoch.as_deref_mut() {
            cb(&report);
        }
        reports.push(report);
    }
    reports
}

/// Run one minibatched truncated-BPTT chunk: forward `steps` characters
/// across every stream of `bs`, backprop against `targets`, clip the
/// lane-summed gradients and apply one SGD step. Returns the summed loss
/// over all steps and streams, and the gradient's global L2 norm before
/// clipping.
///
/// `inputs` and `targets` are timestep-major and lane-interleaved
/// (`[t * width + lane]`), `steps * width` elements each. The chunk reuses
/// the caller's [`TrainBatch`] scratch and gradient buffer, so steady-state
/// minibatch training performs no heap allocation.
///
/// # Panics
///
/// Panics if the buffer lengths are not equal multiples of `bs.width()`.
#[allow(clippy::too_many_arguments)]
pub fn train_chunk_batch(
    model: &mut LstmModel,
    bs: &mut BatchState,
    inputs: &[u32],
    targets: &[u32],
    lr: f32,
    clip_norm: f32,
    tb: &mut TrainBatch,
    grads: &mut LstmGradients,
) -> (f32, f32) {
    let width = bs.width();
    assert_eq!(inputs.len(), targets.len());
    assert_eq!(inputs.len() % width.max(1), 0, "ragged chunk");
    let steps = inputs.len() / width.max(1);
    tb.ensure_steps(steps);
    // Weights moved last chunk (or this is the first): refresh the
    // weight-derived caches — the transposed embedding the layer-0 input
    // add reads, and the packed forward/backward weights the GEMMs stream.
    tb.rebuild_weight_caches(model);
    {
        let (caches, step_probs, z, logits, embed_t, packs) = tb.forward_buffers();
        for t in 0..steps {
            model.step_batch_core(
                bs,
                &inputs[t * width..(t + 1) * width],
                &mut caches[t],
                &mut step_probs[t],
                z,
                logits,
                embed_t,
                packs,
            );
        }
    }
    grads.fill_zero();
    let loss = {
        let (caches, step_probs, scratch, packs) = tb.backward_buffers();
        model.backward_batch_core(
            &caches[..steps],
            &step_probs[..steps],
            targets,
            width,
            grads,
            scratch,
            packs,
        )
    };
    let grad_norm = clip_gradients(grads, clip_norm);
    model.apply_gradients(grads, lr);
    (loss, grad_norm)
}

/// A resumable mid-training snapshot: the model weights plus the training
/// schedule position, persisted with the bit-exact `clgen-wire` codec model
/// checkpoints use.
///
/// Snapshots are taken at epoch boundaries (every epoch starts from a fresh
/// recurrent state, so the boundary is a clean cut). Because the weights
/// round-trip bit-identically and [`train_range`] indexes the learning-rate
/// schedule by absolute epoch, stopping after epoch `k`, reloading the
/// snapshot in a fresh process and continuing produces **bitwise-identical**
/// weights to a never-interrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSnapshot {
    /// The model as of the end of epoch `next_epoch - 1`.
    pub model: LstmModel,
    /// The epoch training should resume from.
    pub next_epoch: usize,
}

impl TrainSnapshot {
    /// Snapshot `model` after `completed_epochs` finished epochs.
    pub fn capture(model: &LstmModel, completed_epochs: usize) -> TrainSnapshot {
        TrainSnapshot {
            model: model.clone(),
            next_epoch: completed_epochs,
        }
    }

    /// Serialize the snapshot (versioned, magic `CLGENTSN`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        encode_train_snapshot(self, &mut enc);
        enc.into_bytes()
    }

    /// Decode a snapshot written by [`TrainSnapshot::to_bytes`]. Truncated
    /// or corrupt input is a typed error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainSnapshot, WireError> {
        let mut dec = Decoder::new(bytes);
        let snapshot = decode_train_snapshot(&mut dec)?;
        dec.finish()?;
        Ok(snapshot)
    }

    /// Resume training where the snapshot left off: runs epochs
    /// `next_epoch..config.epochs` over `data` and returns the model and the
    /// resumed epochs' reports.
    pub fn resume(
        self,
        data: &[u32],
        config: &TrainConfig,
        on_epoch: Option<&mut dyn FnMut(&EpochReport)>,
    ) -> (LstmModel, Vec<EpochReport>) {
        let TrainSnapshot {
            mut model,
            next_epoch,
        } = self;
        let reports = train_range(&mut model, data, config, next_epoch, on_epoch);
        (model, reports)
    }
}

/// The reference truncated-BPTT chunk over one stream: [`LstmModel::step`]
/// over `inputs`, [`LstmModel::backward`] against `targets`, clip, apply.
/// Returns the summed loss. Called only by the test suites, which hold
/// [`train`] at `batch_size == 1` bitwise equal to a loop of these.
pub fn train_chunk(
    model: &mut LstmModel,
    state: &mut LstmState,
    inputs: &[u32],
    targets: &[u32],
    lr: f32,
    clip_norm: f32,
) -> f32 {
    assert_eq!(inputs.len(), targets.len());
    let mut caches = Vec::with_capacity(inputs.len());
    let mut probs_and_targets = Vec::with_capacity(inputs.len());
    for (&x, &target) in inputs.iter().zip(targets) {
        let (probs, cache) = model.step(state, x);
        caches.push(cache);
        probs_and_targets.push((probs, target));
    }
    let mut grads = model.zero_gradients();
    let loss = model.backward(&caches, &probs_and_targets, &mut grads);
    clip_gradients(&mut grads, clip_norm);
    model.apply_gradients(&grads, lr);
    loss
}

/// Scale gradients so their global L2 norm does not exceed `max_norm` (a
/// non-positive `max_norm` disables clipping). Returns the norm before
/// clipping.
pub fn clip_gradients(grads: &mut LstmGradients, max_norm: f32) -> f32 {
    let norm = grads.sq_norm().sqrt();
    if max_norm > 0.0 && norm > max_norm {
        grads.scale(max_norm / norm);
    }
    norm
}

/// Average per-character cross entropy of `model` on `data` (validation loss).
pub fn evaluate(model: &LstmModel, data: &[u32]) -> f32 {
    if data.len() < 2 {
        return 0.0;
    }
    let mut state = model.initial_state();
    let mut ws = model.workspace(1);
    let mut probs = Vec::new();
    let mut loss = 0.0f64;
    for w in data.windows(2) {
        probs.clear();
        probs.extend_from_slice(model.predict_into(&mut state, w[0], &mut ws));
        softmax_in_place(&mut probs);
        loss -= f64::from(probs[w[1] as usize % probs.len()].max(1e-12).ln());
    }
    (loss / (data.len() - 1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::LstmConfig;

    fn toy_data(vocab: usize, len: usize) -> Vec<u32> {
        // A highly regular sequence the model can learn quickly.
        (0..len).map(|i| (i % vocab) as u32).collect()
    }

    #[test]
    fn lr_schedule_matches_paper_shape() {
        let config = TrainConfig::default();
        assert!((config.lr_at_epoch(0) - 0.002).abs() < 1e-9);
        assert!((config.lr_at_epoch(4) - 0.002).abs() < 1e-9);
        assert!((config.lr_at_epoch(5) - 0.001).abs() < 1e-9);
        assert!((config.lr_at_epoch(10) - 0.0005).abs() < 1e-9);
    }

    #[test]
    fn training_reduces_loss_on_regular_sequence() {
        let vocab = 6;
        let data = toy_data(vocab, 600);
        let mut model = LstmModel::new(LstmConfig {
            vocab_size: vocab,
            hidden_size: 24,
            num_layers: 1,
            seed: 11,
        });
        let before = evaluate(&model, &data);
        let config = TrainConfig {
            epochs: 6,
            learning_rate: 0.1,
            decay_factor: 0.8,
            decay_every: 3,
            unroll: 32,
            clip_norm: 5.0,
            batch_size: 1,
        };
        let reports = train(&mut model, &data, &config, None);
        let after = evaluate(&model, &data);
        assert_eq!(reports.len(), 6);
        assert!(
            after < before * 0.7,
            "training should substantially reduce loss: before={before}, after={after}"
        );
        // Per-epoch loss is non-increasing overall (first vs last).
        assert!(reports.last().unwrap().loss_per_char < reports[0].loss_per_char);
    }

    #[test]
    fn trained_model_predicts_cycle() {
        let vocab = 4;
        let data = toy_data(vocab, 800);
        let mut model = LstmModel::new(LstmConfig {
            vocab_size: vocab,
            hidden_size: 16,
            num_layers: 1,
            seed: 2,
        });
        let config = TrainConfig {
            epochs: 10,
            learning_rate: 0.15,
            decay_factor: 0.9,
            decay_every: 4,
            unroll: 16,
            clip_norm: 5.0,
            batch_size: 1,
        };
        train(&mut model, &data, &config, None);
        // After 0,1,2 the model should put most probability on 3.
        let mut state = model.initial_state();
        model.predict(&mut state, 0);
        model.predict(&mut state, 1);
        let probs = model.predict(&mut state, 2);
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(
            argmax, 3,
            "model failed to learn the cyclic sequence: {probs:?}"
        );
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let model = LstmModel::new(LstmConfig::small(8));
        let mut grads = model.zero_gradients();
        grads.b_out.iter_mut().for_each(|v| *v = 100.0);
        let norm = 100.0 * (8.0f32).sqrt();
        // A non-positive bound disables clipping; the norm is still reported.
        assert!((clip_gradients(&mut grads, 0.0) - norm).abs() < 1e-3);
        assert!((grads.sq_norm().sqrt() - norm).abs() < 1e-3);
        // The reported norm is the one before clipping.
        assert!((clip_gradients(&mut grads, 1.0) - norm).abs() < 1e-3);
        assert!(grads.sq_norm().sqrt() <= 1.0 + 1e-4);
    }

    #[test]
    fn epoch_reports_carry_gradient_norm_and_clip_rate() {
        let data = toy_data(4, 200);
        let config = LstmConfig {
            vocab_size: 4,
            hidden_size: 8,
            num_layers: 1,
            seed: 5,
        };
        // A tiny clip norm clips every chunk, a huge one none.
        for (clip_norm, clip_rate) in [(1e-3, 1.0), (1e9, 0.0)] {
            let tc = TrainConfig {
                clip_norm,
                batch_size: 2,
                ..TrainConfig::quick()
            };
            let reports = train(&mut LstmModel::new(config), &data, &tc, None);
            assert!(reports.iter().all(|r| r.clip_rate == clip_rate));
            assert!(reports.iter().all(|r| r.mean_grad_norm > 1e-3));
        }
    }

    /// The width > 1 oracle: a batched chunk at `lr = 0` gives each lane's
    /// per-step softmax and final state bitwise equal to the reference
    /// `step` on that lane's sequence, and a loss and gradients equal to the
    /// sums of the per-lane reference `backward`s up to rounding (the
    /// batched fold is lane-inner, so not bitwise). The widths put 1-lane
    /// leftovers beside 8-lane GEMM tiles; the last shape crosses the GEMM
    /// kernels' row-parallel threshold.
    #[test]
    fn batched_chunk_matches_per_lane_reference() {
        const { assert!(4 * 512 * 512 * 2 >= crate::tensor::PAR_MIN_WORK) };
        let cases: [(usize, usize, usize, &[usize]); 2] =
            [(12, 2, 6, &[1, 2, 3, 5, 8, 9, 16]), (512, 1, 3, &[2, 9])];
        for (hidden_size, num_layers, steps, widths) in cases {
            let nv = 7;
            let model = LstmModel::new(LstmConfig {
                vocab_size: nv,
                hidden_size,
                num_layers,
                seed: 41,
            });
            for &width in widths {
                let context = format!("{num_layers}x{hidden_size} width {width}");
                let inputs: Vec<u32> = (0..steps * width)
                    .map(|i| (i * 3 + i / 4) as u32 % 7)
                    .collect();
                let targets: Vec<u32> =
                    (0..steps * width).map(|i| (i * 5 + 2) as u32 % 7).collect();
                let mut bs = BatchState::new(&model.config, width);
                let mut tb = model.train_batch(width);
                let mut grads = model.zero_gradients();
                let (loss, _) = train_chunk_batch(
                    &mut model.clone(),
                    &mut bs,
                    &inputs,
                    &targets,
                    0.0,
                    0.0,
                    &mut tb,
                    &mut grads,
                );

                let mut want = model.zero_gradients();
                let mut want_loss = 0.0f32;
                for lane in 0..width {
                    let mut state = model.initial_state();
                    let (mut caches, mut probs_and_targets) = (Vec::new(), Vec::new());
                    for t in 0..steps {
                        let (probs, cache) = model.step(&mut state, inputs[t * width + lane]);
                        let got = &tb.step_probs[t][lane * nv..(lane + 1) * nv];
                        for (a, b) in got.iter().zip(probs.iter()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{context}: lane {lane} step {t}");
                        }
                        caches.push(cache);
                        probs_and_targets.push((probs, targets[t * width + lane]));
                    }
                    let mut got_state = model.initial_state();
                    bs.store_lane(lane, &mut got_state);
                    assert_eq!(got_state, state, "{context}: lane {lane} final state");
                    want_loss += model.backward(&caches, &probs_and_targets, &mut want);
                }

                assert!(
                    (loss - want_loss).abs() <= 1e-5 * want_loss,
                    "{context}: loss {loss} vs {want_loss}"
                );
                let tensors = |g: &'_ LstmGradients| -> Vec<Vec<f32>> {
                    let layers = g
                        .layers
                        .iter()
                        .flat_map(|l| [l.w_x.data().to_vec(), l.w_h.data().to_vec(), l.b.clone()]);
                    layers
                        .chain([g.w_out.data().to_vec(), g.b_out.clone()])
                        .collect()
                };
                for (i, (got, want)) in tensors(&grads).iter().zip(tensors(&want)).enumerate() {
                    let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    assert!(scale > 0.0, "{context}: tensor {i} has no gradient");
                    for (a, b) in got.iter().zip(want.iter()) {
                        assert!(
                            (a - b).abs() <= 1e-4 * scale,
                            "{context}: tensor {i}: {a} vs {b} (scale {scale})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn epoch_callback_invoked() {
        let data = toy_data(4, 100);
        let mut model = LstmModel::new(LstmConfig {
            vocab_size: 4,
            hidden_size: 8,
            num_layers: 1,
            seed: 5,
        });
        let mut seen = 0usize;
        let mut cb = |_r: &EpochReport| seen += 1;
        train(&mut model, &data, &TrainConfig::quick(), Some(&mut cb));
        assert_eq!(seen, TrainConfig::quick().epochs);
    }
}
