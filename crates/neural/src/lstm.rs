//! A multi-layer character-level LSTM language model (§4.2 of the paper).
//!
//! The paper uses a 3-layer, 2048-wide LSTM trained in Torch for three weeks
//! on a GTX Titan. The network here implements the same architecture —
//! stacked LSTM layers over a 1-of-K character encoding with a softmax output
//! layer — scaled by configuration to sizes a CPU can train in minutes. The
//! forward pass doubles as the sampling engine used by the synthesizer.

use crate::tensor::{
    fast_tanh, lstm_cell_cached_batch, lstm_cell_fused_batch, sigmoid, softmax_in_place,
    softmax_lanes, tile_width, Matrix, PackedMatrix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hard cap on the element count of any single weight tensor
/// (`4 * hidden * input` for layer weights): 2^31 f32 elements (8 GiB).
/// [`LstmConfig::validate`] rejects configurations above it with a typed
/// error before any allocation is attempted, so absurd hidden/vocab
/// combinations surface as [`InvalidConfig`] instead of a capacity panic or
/// an OOM abort mid-build.
///
/// [`InvalidConfig`]: crate::train::TrainConfig::validate
pub const MAX_WEIGHT_ELEMS: usize = 1 << 31;

/// Hyper-parameters of the LSTM network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmConfig {
    /// Size of the character vocabulary (input and output dimension).
    pub vocab_size: usize,
    /// Hidden units per layer (the paper uses 2048).
    pub hidden_size: usize,
    /// Number of stacked LSTM layers (the paper uses 3).
    pub num_layers: usize,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl LstmConfig {
    /// A small configuration suitable for unit tests and CPU-scale training.
    pub fn small(vocab_size: usize) -> LstmConfig {
        LstmConfig {
            vocab_size,
            hidden_size: 64,
            num_layers: 2,
            seed: 0x15F3,
        }
    }

    /// Check the configuration for dimensions that cannot be built: zero
    /// sizes, gate blocks (`4 * hidden`) or weight tensors
    /// (`4 * hidden * input` for `input ∈ {vocab, hidden}`) that would
    /// overflow `usize` or exceed [`MAX_WEIGHT_ELEMS`]. Returns a description
    /// of the first violated constraint; the pipeline surfaces it as a typed
    /// `ClgenError::InvalidConfig` instead of a capacity panic.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.vocab_size == 0 {
            return Err("vocabulary must be non-empty");
        }
        if self.hidden_size == 0 {
            return Err("hidden size must be at least 1");
        }
        if self.num_layers == 0 {
            return Err("at least one LSTM layer is required");
        }
        let hs4 = self
            .hidden_size
            .checked_mul(4)
            .ok_or("hidden size overflows the 4H gate block")?;
        for input in [self.vocab_size, self.hidden_size] {
            let elems = hs4
                .checked_mul(input)
                .ok_or("weight tensor element count overflows usize")?;
            if elems > MAX_WEIGHT_ELEMS {
                return Err("weight tensor exceeds the supported element cap (2^31 f32)");
            }
        }
        // The output projection (V x H) is never larger than the layer-0
        // input weights (4H x V) unless hidden < 4, where it still fits.
        self.vocab_size
            .checked_mul(self.hidden_size)
            .ok_or("output projection element count overflows usize")?;
        Ok(())
    }
}

/// Weights of a single LSTM layer. Gate order within the stacked `4H` blocks is
/// input, forget, cell (candidate), output.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmLayer {
    /// Input-to-hidden weights, `4H x I`.
    pub w_x: Matrix,
    /// Hidden-to-hidden (recurrent) weights, `4H x H`.
    pub w_h: Matrix,
    /// Gate biases, length `4H`.
    pub b: Vec<f32>,
}

impl LstmLayer {
    fn new(input_size: usize, hidden_size: usize, rng: &mut StdRng) -> LstmLayer {
        let scale = (1.0 / input_size.max(1) as f32).sqrt();
        let rscale = (1.0 / hidden_size.max(1) as f32).sqrt();
        let mut layer = LstmLayer {
            w_x: Matrix::uniform(4 * hidden_size, input_size, scale, rng),
            w_h: Matrix::uniform(4 * hidden_size, hidden_size, rscale, rng),
            b: vec![0.0; 4 * hidden_size],
        };
        // Standard trick: bias the forget gate towards remembering.
        for v in layer.b[hidden_size..2 * hidden_size].iter_mut() {
            *v = 1.0;
        }
        layer
    }

    fn zeros_like(&self) -> LstmLayer {
        LstmLayer {
            w_x: Matrix::zeros(self.w_x.rows(), self.w_x.cols()),
            w_h: Matrix::zeros(self.w_h.rows(), self.w_h.cols()),
            b: vec![0.0; self.b.len()],
        }
    }
}

/// Recurrent state (hidden and cell vectors for every layer).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden vectors per layer.
    pub h: Vec<Vec<f32>>,
    /// Cell vectors per layer.
    pub c: Vec<Vec<f32>>,
}

/// Per-timestep, per-layer activations cached for backpropagation by the
/// reference step ([`LstmModel::step`] → [`LstmModel::backward`]).
#[derive(Debug, Clone)]
pub struct StepCache {
    /// Layer inputs (`x_t` for layer 0 is the one-hot index, stored separately).
    pub inputs: Vec<Vec<f32>>,
    /// Input gate activations per layer.
    pub i: Vec<Vec<f32>>,
    /// Forget gate activations per layer.
    pub f: Vec<Vec<f32>>,
    /// Candidate cell activations per layer.
    pub g: Vec<Vec<f32>>,
    /// Output gate activations per layer.
    pub o: Vec<Vec<f32>>,
    /// New cell state per layer.
    pub c: Vec<Vec<f32>>,
    /// `tanh(c)` per layer.
    pub tanh_c: Vec<Vec<f32>>,
    /// Previous hidden state per layer.
    pub h_prev: Vec<Vec<f32>>,
    /// Previous cell state per layer.
    pub c_prev: Vec<Vec<f32>>,
    /// New hidden state per layer.
    pub h: Vec<Vec<f32>>,
    /// Input character id at this step.
    pub input_id: u32,
}

/// Gradients with the same shape as the model parameters.
#[derive(Debug, Clone)]
pub struct LstmGradients {
    /// Per-layer gradients.
    pub layers: Vec<LstmLayer>,
    /// Output projection gradient.
    pub w_out: Matrix,
    /// Output bias gradient.
    pub b_out: Vec<f32>,
}

impl LstmGradients {
    /// Total squared norm over all gradient tensors.
    pub fn sq_norm(&self) -> f32 {
        let mut total = 0.0;
        for l in &self.layers {
            total += l.w_x.sq_norm() + l.w_h.sq_norm();
            total += l.b.iter().map(|v| v * v).sum::<f32>();
        }
        total += self.w_out.sq_norm();
        total += self.b_out.iter().map(|v| v * v).sum::<f32>();
        total
    }

    /// Scale every gradient by `s` (used for norm clipping).
    pub fn scale(&mut self, s: f32) {
        for l in &mut self.layers {
            l.w_x.scale(s);
            l.w_h.scale(s);
            l.b.iter_mut().for_each(|v| *v *= s);
        }
        self.w_out.scale(s);
        self.b_out.iter_mut().for_each(|v| *v *= s);
    }

    /// Reset every gradient to zero so the buffers can be reused across
    /// truncated-BPTT chunks without reallocating.
    pub fn fill_zero(&mut self) {
        for l in &mut self.layers {
            l.w_x.fill_zero();
            l.w_h.fill_zero();
            l.b.iter_mut().for_each(|v| *v = 0.0);
        }
        self.w_out.fill_zero();
        self.b_out.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Per-timestep activations of a whole training minibatch, cached for the
/// batched backward pass. The batch-wide analogue of [`StepCache`].
///
/// Buffers consumed element-wise by the backward pass (gate activations,
/// `tanh(c)`, the previous cell state) are lane-interleaved like
/// [`BatchState`], so the forward pass writes them with no gather or
/// scatter. Buffers consumed as the right-hand side of batched outer
/// products (previous hidden states, layer inputs, the top hidden state)
/// are cached **lane-major** — each lane's vector contiguous — because that
/// is the layout [`Matrix::add_outer_batch_spans`] turns into a
/// reduction-free vectorised AXPY; the forward pass pays one cheap
/// transposing copy per buffer per step for it.
#[derive(Debug, Clone)]
pub struct BatchStepCache {
    /// Layer inputs for layers above 0 (`H` per lane, lane-major). Layer 0
    /// reads the one-hot ids in `input_ids`, so its slot stays empty.
    input_lanes: Vec<Vec<f32>>,
    /// Input gate activations per layer (interleaved).
    i: Vec<Vec<f32>>,
    /// Forget gate activations per layer (interleaved).
    f: Vec<Vec<f32>>,
    /// Candidate cell activations per layer (interleaved).
    g: Vec<Vec<f32>>,
    /// Output gate activations per layer (interleaved).
    o: Vec<Vec<f32>>,
    /// `tanh(c)` per layer (interleaved).
    tanh_c: Vec<Vec<f32>>,
    /// Previous cell state per layer (interleaved).
    c_prev: Vec<Vec<f32>>,
    /// Previous hidden state per layer (lane-major).
    h_prev_lanes: Vec<Vec<f32>>,
    /// New top-layer hidden state (lane-major), the output projection's
    /// gradient operand.
    h_top_lanes: Vec<f32>,
    /// Input character id per lane at this step.
    input_ids: Vec<u32>,
}

impl BatchStepCache {
    /// An empty cache; [`BatchStepCache::ensure_shape`] sizes it.
    pub fn empty() -> BatchStepCache {
        BatchStepCache {
            input_lanes: Vec::new(),
            i: Vec::new(),
            f: Vec::new(),
            g: Vec::new(),
            o: Vec::new(),
            tanh_c: Vec::new(),
            c_prev: Vec::new(),
            h_prev_lanes: Vec::new(),
            h_top_lanes: Vec::new(),
            input_ids: Vec::new(),
        }
    }

    /// Resize every buffer for a `config`-shaped model at `width` lanes
    /// (idempotent), so caches can be reused across timesteps and chunks
    /// without reallocating.
    pub fn ensure_shape(&mut self, config: &LstmConfig, width: usize) {
        let len = config.hidden_size * width;
        let layers = config.num_layers;
        let fit = |bufs: &mut Vec<Vec<f32>>| {
            bufs.resize_with(layers, Vec::new);
            for buf in bufs.iter_mut() {
                buf.resize(len, 0.0);
            }
        };
        self.input_lanes.resize_with(layers, Vec::new);
        self.input_lanes[0].clear();
        for buf in self.input_lanes.iter_mut().skip(1) {
            buf.resize(len, 0.0);
        }
        for bufs in [
            &mut self.i,
            &mut self.f,
            &mut self.g,
            &mut self.o,
            &mut self.tanh_c,
            &mut self.c_prev,
            &mut self.h_prev_lanes,
        ] {
            fit(bufs);
        }
        self.h_top_lanes.resize(len, 0.0);
        self.input_ids.resize(width, 0);
    }
}

/// Transposing copy from the lane-interleaved layout (element `j` of lane
/// `b` at `j * width + b`) to lane-major (lane `b`'s vector contiguous at
/// `b * hs..`). At `width == 1` the layouts coincide and this is a plain
/// copy.
fn interleaved_to_lanes(src: &[f32], width: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    if width <= 1 {
        dst.copy_from_slice(src);
        return;
    }
    let hs = src.len() / width;
    for (b, out) in dst.chunks_exact_mut(hs).enumerate() {
        for (j, v) in out.iter_mut().enumerate() {
            *v = src[j * width + b];
        }
    }
}

/// Per-model packed weights for the forward pass: every weight matrix a
/// forward step multiplies by, repacked into the cache-friendly
/// [`PackedMatrix`] row-panel layout. Layer 0's input weights are consumed
/// through the transposed embedding instead (one row add per one-hot
/// input), so `wx[0]` stays empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct ForwardPacks {
    /// `w_x` per layer (empty for layer 0).
    pub(crate) wx: Vec<PackedMatrix>,
    /// `w_h` per layer.
    pub(crate) wh: Vec<PackedMatrix>,
    /// The output projection.
    pub(crate) w_out: PackedMatrix,
}

impl ForwardPacks {
    /// (Re-)pack from `model`'s current weights, reusing the buffers (the
    /// training loop re-packs every chunk).
    pub(crate) fn rebuild(&mut self, model: &LstmModel) {
        let layers = model.layers.len();
        self.wx.resize_with(layers, PackedMatrix::default);
        self.wh.resize_with(layers, PackedMatrix::default);
        for (l, layer) in model.layers.iter().enumerate() {
            if l > 0 {
                self.wx[l].repack(&layer.w_x);
            }
            self.wh[l].repack(&layer.w_h);
        }
        self.w_out.repack(&model.w_out);
    }
}

/// Transposed packed weights for the batched backward pass: each weight
/// matrix `W` is packed as `W^T`, so the backward products `y += W^T x`
/// (gradient flowing into hidden states) run through the same packed GEMM
/// kernel as the forward ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct BackwardPacks {
    /// `w_x^T` per layer (empty for layer 0, whose input gradient is never
    /// propagated — there is nothing below it).
    pub(crate) wx_t: Vec<PackedMatrix>,
    /// `w_h^T` per layer.
    pub(crate) wh_t: Vec<PackedMatrix>,
    /// The output projection, transposed.
    pub(crate) w_out_t: PackedMatrix,
}

impl BackwardPacks {
    /// (Re-)pack from `model`'s current weights, reusing the buffers.
    pub(crate) fn rebuild(&mut self, model: &LstmModel) {
        let layers = model.layers.len();
        self.wx_t.resize_with(layers, PackedMatrix::default);
        self.wh_t.resize_with(layers, PackedMatrix::default);
        for (l, layer) in model.layers.iter().enumerate() {
            if l > 0 {
                self.wx_t[l].repack_transpose(&layer.w_x);
            }
            self.wh_t[l].repack_transpose(&layer.w_h);
        }
        self.w_out_t.repack_transpose(&model.w_out);
    }
}

/// Write the transpose of the layer-0 input weights (`4H x V`) into `out`
/// (`V x 4H`), so the one-hot embedding add reads one contiguous row per
/// character instead of a strided column.
fn transpose_embedding(w_x: &Matrix, out: &mut Vec<f32>) {
    let (hs4, nv) = (w_x.rows(), w_x.cols());
    out.resize(nv * hs4, 0.0);
    for r in 0..hs4 {
        for (col, &w) in w_x.row(r).iter().enumerate() {
            out[col * hs4 + r] = w;
        }
    }
}

/// Backpropagation scratch for a whole minibatch (one set per
/// [`TrainBatch`]), lane-interleaved.
#[derive(Debug, Clone, Default)]
pub(crate) struct BackwardScratch {
    /// Per-layer gradient flowing into the next-older hidden state.
    dh_next: Vec<Vec<f32>>,
    /// Per-layer gradient flowing into the next-older cell state.
    dc_next: Vec<Vec<f32>>,
    dh_above: Vec<f32>,
    dh: Vec<f32>,
    dc_prev: Vec<f32>,
    /// Per-timestep softmax gradients (`V x width` each), retained across
    /// the backward sweep so the output-projection gradient can be
    /// accumulated in t-blocks (see [`Matrix::add_outer_batch_spans`]).
    dlogits_steps: Vec<Vec<f32>>,
    /// Per-timestep gate gradients (`num_layers * 4H * width` each,
    /// layer-major), retained for the same blocked accumulation.
    dz_steps: Vec<Vec<f32>>,
}

impl BackwardScratch {
    /// Size every buffer for `steps` timesteps at `width` lanes (idempotent).
    fn ensure_shape(&mut self, config: &LstmConfig, width: usize, steps: usize) {
        let hw = config.hidden_size * width;
        for bufs in [&mut self.dh_next, &mut self.dc_next] {
            bufs.resize_with(config.num_layers, Vec::new);
            for buf in bufs.iter_mut() {
                buf.resize(hw, 0.0);
            }
        }
        self.dh_above.resize(hw, 0.0);
        self.dh.resize(hw, 0.0);
        self.dc_prev.resize(hw, 0.0);
        if self.dlogits_steps.len() < steps {
            self.dlogits_steps.resize_with(steps, Vec::new);
            self.dz_steps.resize_with(steps, Vec::new);
        }
        for buf in self.dlogits_steps.iter_mut().take(steps) {
            buf.resize(config.vocab_size * width, 0.0);
        }
        for buf in self.dz_steps.iter_mut().take(steps) {
            buf.resize(config.num_layers * 4 * hw, 0.0);
        }
    }
}

/// Preallocated scratch for minibatched truncated-BPTT training: the
/// training-side mirror of [`Workspace`], sized for a fixed lane width.
///
/// A `TrainBatch` owns everything one batched BPTT chunk would otherwise
/// allocate: the interleaved gate and logit buffers, a pool of per-timestep
/// [`BatchStepCache`]s, per-timestep softmax outputs, and the batched
/// backpropagation scratch. Create one with [`LstmModel::train_batch`] and
/// reuse it across every chunk of every epoch; steady-state minibatch
/// training performs no heap allocation.
#[derive(Debug, Clone)]
pub struct TrainBatch {
    config: LstmConfig,
    width: usize,
    /// Gate pre-activations, `4H` rows of `width` interleaved lanes.
    z: Vec<f32>,
    /// Output logits, `V x width` (lane-interleaved).
    logits: Vec<f32>,
    /// Transposed layer-0 input weights (`V x 4H`), so the one-hot
    /// embedding add reads a contiguous row per lane. Weights move every
    /// chunk, so [`TrainBatch::rebuild_weight_caches`] refreshes this at
    /// each chunk start — the rebuild is amortised over `unroll * width`
    /// steps.
    pub(crate) embed_t: Vec<f32>,
    /// Packed forward weights, re-packed every chunk alongside `embed_t`.
    pub(crate) fwd: ForwardPacks,
    /// Transposed packed weights for the backward hidden-gradient products.
    pub(crate) bwd: BackwardPacks,
    /// Reusable per-timestep activation caches.
    pub(crate) caches: Vec<BatchStepCache>,
    /// Per-timestep softmax outputs, batch-major: lane `b` of step `t` at
    /// `step_probs[t][b*V..(b+1)*V]`.
    pub(crate) step_probs: Vec<Vec<f32>>,
    /// Batched backpropagation scratch.
    pub(crate) bptt: BackwardScratch,
}

impl TrainBatch {
    /// A training scratch for `config` at `width` parallel streams.
    pub fn new(config: &LstmConfig, width: usize) -> TrainBatch {
        let width = width.max(1);
        TrainBatch {
            config: *config,
            width,
            z: vec![0.0; 4 * config.hidden_size * width],
            logits: vec![0.0; config.vocab_size * width],
            embed_t: Vec::new(),
            fwd: ForwardPacks::default(),
            bwd: BackwardPacks::default(),
            caches: Vec::new(),
            step_probs: Vec::new(),
            bptt: BackwardScratch::default(),
        }
    }

    /// Number of parallel training streams this scratch serves.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Refresh every weight-derived cache from `model`'s current weights:
    /// the transposed layer-0 embedding, the packed forward weights and the
    /// transposed backward packs. Call after every weight update (the chunk
    /// driver does); all caches are exact bit copies or bit-exact
    /// permutations of the weights. The rebuild is amortised over
    /// `unroll * width` timesteps.
    pub(crate) fn rebuild_weight_caches(&mut self, model: &LstmModel) {
        transpose_embedding(&model.layers[0].w_x, &mut self.embed_t);
        self.fwd.rebuild(model);
        self.bwd.rebuild(model);
    }

    /// Grow the per-timestep cache pool to at least `steps` timesteps.
    pub(crate) fn ensure_steps(&mut self, steps: usize) {
        let (config, width) = (self.config, self.width);
        if self.caches.len() < steps {
            self.caches.resize_with(steps, BatchStepCache::empty);
        }
        for cache in self.caches.iter_mut().take(steps) {
            cache.ensure_shape(&config, width);
        }
        if self.step_probs.len() < steps {
            self.step_probs.resize_with(steps, Vec::new);
        }
        for probs in self.step_probs.iter_mut().take(steps) {
            probs.resize(config.vocab_size * width, 0.0);
        }
        self.bptt.ensure_shape(&config, width, steps);
    }

    /// Disjoint borrows of the forward-pass buffers: cache pool, per-step
    /// softmax outputs, gate scratch, logit scratch, embedding cache and
    /// packed forward weights.
    #[allow(clippy::type_complexity)]
    pub(crate) fn forward_buffers(
        &mut self,
    ) -> (
        &mut [BatchStepCache],
        &mut [Vec<f32>],
        &mut [f32],
        &mut [f32],
        &[f32],
        &ForwardPacks,
    ) {
        (
            &mut self.caches,
            &mut self.step_probs,
            &mut self.z,
            &mut self.logits,
            &self.embed_t,
            &self.fwd,
        )
    }

    /// Disjoint borrows of the backward-pass buffers, plus the transposed
    /// packed weights.
    #[allow(clippy::type_complexity)]
    pub(crate) fn backward_buffers(
        &mut self,
    ) -> (
        &[BatchStepCache],
        &[Vec<f32>],
        &mut BackwardScratch,
        &BackwardPacks,
    ) {
        (&self.caches, &self.step_probs, &mut self.bptt, &self.bwd)
    }
}

/// Recurrent state for a fixed-width batch of independent streams, stored
/// lane-interleaved (element `j` of lane `b` at `j * width + b`) so the
/// batched forward pass reads and writes it directly — no per-step gather or
/// scatter. Lanes are independent columns; resetting one lane never touches
/// the others.
#[derive(Debug, Clone)]
pub struct BatchState {
    width: usize,
    /// Hidden vectors per layer, interleaved.
    h: Vec<Vec<f32>>,
    /// Cell vectors per layer, interleaved.
    c: Vec<Vec<f32>>,
}

impl BatchState {
    /// A zero state for `width` lanes of a `config`-shaped model.
    pub fn new(config: &LstmConfig, width: usize) -> BatchState {
        BatchState {
            width,
            h: vec![vec![0.0; config.hidden_size * width]; config.num_layers],
            c: vec![vec![0.0; config.hidden_size * width]; config.num_layers],
        }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reset one lane to the start-of-sequence state.
    pub fn reset_lane(&mut self, lane: usize) {
        assert!(lane < self.width, "lane out of range");
        for buf in self.h.iter_mut().chain(self.c.iter_mut()) {
            for v in buf[lane..].iter_mut().step_by(self.width) {
                *v = 0.0;
            }
        }
    }

    /// Re-shape to `width` zeroed lanes, keeping the allocation.
    pub(crate) fn reset_to_width(&mut self, width: usize) {
        let hidden = self.h[0].len() / self.width;
        for buf in self.h.iter_mut().chain(self.c.iter_mut()) {
            buf.clear();
            buf.resize(hidden * width, 0.0);
        }
        self.width = width;
    }

    /// Compact lanes `lanes` of `from` (a state of any width over the same
    /// model shape) into lanes `0..lanes.len()`.
    pub(crate) fn gather(&mut self, from: &BatchState, lanes: &[usize]) {
        assert!(lanes.len() <= self.width, "more lanes than width");
        let map = lanes.iter().copied().enumerate();
        copy_lanes(&mut self.h, self.width, &from.h, from.width, map.clone());
        copy_lanes(&mut self.c, self.width, &from.c, from.width, map);
    }

    /// The inverse of [`gather`](BatchState::gather): write lanes
    /// `0..lanes.len()` back over lanes `lanes` of `into`, leaving its other
    /// lanes untouched.
    pub(crate) fn scatter(&self, into: &mut BatchState, lanes: &[usize]) {
        assert!(lanes.len() <= self.width, "more lanes than width");
        let map = lanes.iter().enumerate().map(|(pos, &lane)| (lane, pos));
        copy_lanes(&mut into.h, into.width, &self.h, self.width, map.clone());
        copy_lanes(&mut into.c, into.width, &self.c, self.width, map);
    }

    /// Copy a per-stream [`LstmState`] into one lane.
    pub fn load_lane(&mut self, lane: usize, state: &LstmState) {
        let map = std::iter::once((lane, 0));
        copy_lanes(&mut self.h, self.width, &state.h, 1, map.clone());
        copy_lanes(&mut self.c, self.width, &state.c, 1, map);
    }

    /// Copy one lane out into a per-stream [`LstmState`].
    pub fn store_lane(&self, lane: usize, state: &mut LstmState) {
        let map = std::iter::once((0, lane));
        copy_lanes(&mut state.h, 1, &self.h, self.width, map.clone());
        copy_lanes(&mut state.c, 1, &self.c, self.width, map);
    }
}

/// The crate's one compaction routine: for every `(dst_lane, src_lane)` of
/// `map`, copy that lane of the per-layer lane-interleaved buffers `src`
/// (`src_width` lanes; an [`LstmState`] is the one-lane case) over that lane
/// of `dst`. Rows are the outer loop, so both sides are walked front to back
/// whatever the lanes: a lane-at-a-time copy would touch one cache line per
/// element of a resident state the weight stream has since evicted.
///
/// # Panics
///
/// Panics if a lane is out of range.
fn copy_lanes(
    dst: &mut [Vec<f32>],
    dst_width: usize,
    src: &[Vec<f32>],
    src_width: usize,
    map: impl Iterator<Item = (usize, usize)> + Clone,
) {
    for (dst, src) in dst.iter_mut().zip(src) {
        let rows = dst.chunks_exact_mut(dst_width);
        for (dst_row, src_row) in rows.zip(src.chunks_exact(src_width)) {
            for (d, s) in map.clone() {
                dst_row[d] = src_row[s];
            }
        }
    }
}

/// Preallocated per-model scratch buffers for the sampling forward pass.
///
/// A `Workspace` owns everything the forward step would otherwise allocate
/// per character — the gate pre-activation block and the logits/softmax
/// buffers — plus the weight-derived caches it reads: the transposed
/// embedding and the packed forward weights. Create one with
/// [`LstmModel::workspace`] and reuse it across calls; the batched entry
/// points grow it on demand, so a workspace sized for batch 1 can later
/// serve batch 32.
///
/// The caches are built once, from the model the workspace was created
/// from: a workspace must not be shared between models or outlive a weight
/// update (the stream types enforce this by borrowing or owning the model).
#[derive(Debug, Clone)]
pub struct Workspace {
    config: LstmConfig,
    /// Lane capacity the interleaved buffers are currently sized for.
    capacity: usize,
    /// Gate pre-activations, `4H` rows of `capacity` interleaved lanes.
    z: Vec<f32>,
    /// Output logits, `V x capacity` (lane-interleaved).
    logits: Vec<f32>,
    /// Per-stream softmax outputs, batch-major: lane `b` occupies
    /// `probs[b*V..(b+1)*V]`.
    probs: Vec<f32>,
    /// Transposed layer-0 input weights (`V x 4H`).
    embed_t: Vec<f32>,
    /// Packed forward weights (row-panel layout; see [`PackedMatrix`]).
    packs: ForwardPacks,
    /// Scratch batch state the gathering entry points
    /// ([`LstmModel::predict_into`], [`LstmModel::predict_batch_gathered`])
    /// step in.
    batch_scratch: Option<BatchState>,
}

impl Workspace {
    /// Grow the interleaved buffers to hold at least `width` lanes.
    fn ensure_lanes(&mut self, width: usize) {
        if width <= self.capacity {
            return;
        }
        self.z.resize(4 * self.config.hidden_size * width, 0.0);
        self.logits.resize(self.config.vocab_size * width, 0.0);
        self.probs.resize(self.config.vocab_size * width, 0.0);
        self.capacity = width;
    }

    /// The scratch batch state as `width` zeroed lanes (zeroed so that tile
    /// padding never inherits a stale state to decay into denormals); the
    /// caller puts it back into `batch_scratch` when done.
    fn take_scratch(&mut self, width: usize) -> BatchState {
        let mut scratch = self
            .batch_scratch
            .take()
            .unwrap_or_else(|| BatchState::new(&self.config, width));
        scratch.reset_to_width(width);
        scratch
    }

    /// The softmax output of lane `lane` from the most recent batched
    /// prediction.
    pub fn probs_lane(&self, lane: usize) -> &[f32] {
        let v = self.config.vocab_size;
        &self.probs[lane * v..(lane + 1) * v]
    }
}

/// The LSTM character language model.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmModel {
    /// Hyper-parameters.
    pub config: LstmConfig,
    /// Stacked LSTM layers (layer 0 reads the one-hot character).
    pub layers: Vec<LstmLayer>,
    /// Output projection `V x H`.
    pub w_out: Matrix,
    /// Output bias, length `V`.
    pub b_out: Vec<f32>,
}

impl LstmModel {
    /// Initialise a model with random weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`LstmConfig::validate`] (zero
    /// dimensions, or weight tensors past the element cap). The staged
    /// pipeline validates up front and returns a typed error instead.
    pub fn new(config: LstmConfig) -> LstmModel {
        if let Err(what) = config.validate() {
            panic!("invalid LstmConfig: {what}");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let input = if l == 0 {
                config.vocab_size
            } else {
                config.hidden_size
            };
            layers.push(LstmLayer::new(input, config.hidden_size, &mut rng));
        }
        let w_out = Matrix::uniform(
            config.vocab_size,
            config.hidden_size,
            (1.0 / config.hidden_size as f32).sqrt(),
            &mut rng,
        );
        LstmModel {
            config,
            layers,
            w_out,
            b_out: vec![0.0; config.vocab_size],
        }
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        let mut n = self.w_out.len() + self.b_out.len();
        for l in &self.layers {
            n += l.w_x.len() + l.w_h.len() + l.b.len();
        }
        n
    }

    /// A fresh zero state.
    pub fn initial_state(&self) -> LstmState {
        LstmState {
            h: vec![vec![0.0; self.config.hidden_size]; self.config.num_layers],
            c: vec![vec![0.0; self.config.hidden_size]; self.config.num_layers],
        }
    }

    /// Zero-valued gradients with the same shapes as the parameters.
    pub fn zero_gradients(&self) -> LstmGradients {
        LstmGradients {
            layers: self.layers.iter().map(LstmLayer::zeros_like).collect(),
            w_out: Matrix::zeros(self.w_out.rows(), self.w_out.cols()),
            b_out: vec![0.0; self.b_out.len()],
        }
    }

    /// The reference forward step: advance the recurrent state by one
    /// character and return the softmax distribution over the next character
    /// together with the activation cache [`LstmModel::backward`] needs.
    ///
    /// Written for inspection, not speed — it allocates every buffer and
    /// runs the naive [`Matrix::matvec_add`] — and called by nothing but the
    /// test suites, which hold every lane of the batched sampling and
    /// training steps bitwise equal to it.
    pub fn step(&self, state: &mut LstmState, input_id: u32) -> (Vec<f32>, StepCache) {
        let hs = self.config.hidden_size;
        let num_layers = self.config.num_layers;
        let mut cache = StepCache {
            inputs: Vec::with_capacity(num_layers),
            i: Vec::with_capacity(num_layers),
            f: Vec::with_capacity(num_layers),
            g: Vec::with_capacity(num_layers),
            o: Vec::with_capacity(num_layers),
            c: Vec::with_capacity(num_layers),
            tanh_c: Vec::with_capacity(num_layers),
            h_prev: state.h.clone(),
            c_prev: state.c.clone(),
            h: Vec::with_capacity(num_layers),
            input_id,
        };
        let mut layer_input: Vec<f32> = Vec::new();
        for (l, layer) in self.layers.iter().enumerate() {
            // z = W_x * x + W_h * h_prev + b
            let mut z = layer.b.clone();
            if l == 0 {
                // One-hot input: add the id-th column of W_x.
                let col = input_id as usize % self.config.vocab_size;
                for (r, zv) in z.iter_mut().enumerate() {
                    *zv += layer.w_x.get(r, col);
                }
                cache.inputs.push(Vec::new());
            } else {
                layer.w_x.matvec_add(&layer_input, &mut z);
                cache.inputs.push(layer_input.clone());
            }
            layer.w_h.matvec_add(&state.h[l], &mut z);

            let mut gi = vec![0.0; hs];
            let mut gf = vec![0.0; hs];
            let mut gg = vec![0.0; hs];
            let mut go = vec![0.0; hs];
            let mut c_new = vec![0.0; hs];
            let mut tanh_c = vec![0.0; hs];
            let mut h_new = vec![0.0; hs];
            for j in 0..hs {
                gi[j] = sigmoid(z[j]);
                gf[j] = sigmoid(z[hs + j]);
                gg[j] = fast_tanh(z[2 * hs + j]);
                go[j] = sigmoid(z[3 * hs + j]);
                c_new[j] = gf[j] * state.c[l][j] + gi[j] * gg[j];
                tanh_c[j] = fast_tanh(c_new[j]);
                h_new[j] = go[j] * tanh_c[j];
            }
            state.c[l] = c_new.clone();
            state.h[l] = h_new.clone();
            cache.i.push(gi);
            cache.f.push(gf);
            cache.g.push(gg);
            cache.o.push(go);
            cache.c.push(c_new);
            cache.tanh_c.push(tanh_c);
            cache.h.push(h_new.clone());
            layer_input = h_new;
        }
        // Output projection + softmax.
        let mut logits = self.b_out.clone();
        self.w_out.matvec_add(&layer_input, &mut logits);
        softmax_in_place(&mut logits);
        (logits, cache)
    }

    /// Forward-only reference step (discards the cache).
    pub fn predict(&self, state: &mut LstmState, input_id: u32) -> Vec<f32> {
        self.step(state, input_id).0
    }

    /// A scratch workspace sized for `capacity` parallel sample streams,
    /// holding this model's transposed embedding and packed weights.
    pub fn workspace(&self, capacity: usize) -> Workspace {
        let mut ws = Workspace {
            config: self.config,
            capacity: 0,
            z: Vec::new(),
            logits: Vec::new(),
            probs: Vec::new(),
            embed_t: Vec::new(),
            packs: ForwardPacks::default(),
            batch_scratch: None,
        };
        ws.ensure_lanes(capacity.max(1));
        transpose_embedding(&self.layers[0].w_x, &mut ws.embed_t);
        ws.packs.rebuild(self);
        ws
    }

    /// Allocation-free forward step for serial sampling: advances `state` by
    /// one character and returns the softmax distribution from the
    /// workspace. This is [`predict_batch_resident`] at one lane — bitwise
    /// identical to [`LstmModel::predict`].
    ///
    /// [`predict_batch_resident`]: LstmModel::predict_batch_resident
    pub fn predict_into<'w>(
        &self,
        state: &mut LstmState,
        input_id: u32,
        ws: &'w mut Workspace,
    ) -> &'w [f32] {
        let mut scratch = ws.take_scratch(1);
        scratch.load_lane(0, state);
        self.predict_batch_resident(&mut scratch, &[input_id], ws);
        scratch.store_lane(0, state);
        ws.batch_scratch = Some(scratch);
        ws.probs_lane(0)
    }

    /// Advance only lanes `sel` of the resident state `bs` — lane `sel[i]`
    /// with `inputs[i]`, its distribution landing in `ws.probs_lane(i)` —
    /// leaving every other lane untouched: the selected lanes are gathered
    /// into a scratch state of [`tile_width`]`(sel.len())` lanes, stepped
    /// there and scattered back, so the step costs what the live lanes cost
    /// rather than what `bs` is wide. Lane count and lane position are
    /// bitwise invisible to the kernels, so each lane ends exactly where a
    /// full-width step would have left it.
    ///
    /// The caller guarantees `sel` names each lane at most once.
    pub fn predict_batch_gathered(
        &self,
        bs: &mut BatchState,
        sel: &[usize],
        inputs: &[u32],
        ws: &mut Workspace,
    ) {
        let mut scratch = ws.take_scratch(tile_width(sel.len()));
        scratch.gather(bs, sel);
        self.predict_batch_resident(&mut scratch, inputs, ws);
        scratch.scatter(bs, sel);
        ws.batch_scratch = Some(scratch);
    }

    /// The batched sampling forward step: advance lane `i` of `bs` by the
    /// character `inputs[i]` as one GEMM per weight matrix, with no gather
    /// or scatter of the recurrent state; lane `i`'s softmax distribution
    /// lands in `ws.probs_lane(i)`. `bs` may be wider than `inputs`: the
    /// lanes past `inputs.len()` are padding up to a [`tile_width`] — they
    /// advance on the bias alone and their contents mean nothing.
    ///
    /// The packed GEMM accumulates every output element in the order of the
    /// reference [`Matrix::matvec_add`] and the fused cell update is
    /// element-wise, so every lane's new state and distribution are bitwise
    /// identical to [`LstmModel::predict`] on that stream — the foundation
    /// of the batched sampler's determinism guarantee.
    pub fn predict_batch_resident(&self, bs: &mut BatchState, inputs: &[u32], ws: &mut Workspace) {
        let hs = self.config.hidden_size;
        let nv = self.config.vocab_size;
        let width = bs.width();
        assert!(inputs.len() <= width, "more inputs than lanes");
        ws.ensure_lanes(width);
        let Workspace {
            z,
            logits,
            probs,
            embed_t,
            packs,
            ..
        } = ws;
        let z = &mut z[..4 * hs * width];
        let hs4 = 4 * hs;

        for (l, layer) in self.layers.iter().enumerate() {
            // z = b, broadcast across lanes.
            for (r, &bias) in layer.b.iter().enumerate() {
                z[r * width..(r + 1) * width].fill(bias);
            }
            // z += W_x * x: layer 0 adds the embedding row of each lane's
            // character (contiguous thanks to the transposed cache), higher
            // layers run a GEMM over the freshly-updated hidden state below.
            if l == 0 {
                for (lane, &id) in inputs.iter().enumerate() {
                    let col = id as usize % nv;
                    let row = &embed_t[col * hs4..(col + 1) * hs4];
                    for (r, &w) in row.iter().enumerate() {
                        z[r * width + lane] += w;
                    }
                }
            } else {
                packs.wx[l].matmul_add_into(&bs.h[l - 1], width, z);
            }
            // z += W_h * h_prev (this layer's resident state, pre-update).
            packs.wh[l].matmul_add_into(&bs.h[l], width, z);
            // Fused gate activation + state update across all lanes.
            lstm_cell_fused_batch(z, width, &mut bs.c[l], &mut bs.h[l]);
        }

        // Output projection over the resident top hidden state, then softmax
        // for the fed lanes.
        let logits = &mut logits[..nv * width];
        for (r, &bias) in self.b_out.iter().enumerate() {
            logits[r * width..(r + 1) * width].fill(bias);
        }
        let top = &bs.h[self.config.num_layers - 1];
        packs.w_out.matmul_add_into(top, width, logits);
        softmax_lanes(logits, width, inputs.len(), &mut probs[..inputs.len() * nv]);
    }

    /// Recompute one lane's next-character distribution from its resident
    /// hidden state, without advancing anything. Bitwise identical to the
    /// softmax [`predict_batch_resident`](LstmModel::predict_batch_resident)
    /// produced for that lane at its last step: the logits reduce in the
    /// unified left-fold order (seed the bias, add terms in ascending `k`),
    /// exactly as the packed GEMM does.
    pub fn lane_distribution(&self, bs: &BatchState, lane: usize, out: &mut Vec<f32>) {
        let width = bs.width();
        assert!(lane < width, "lane out of range");
        let top = &bs.h[self.config.num_layers - 1];
        out.clear();
        out.extend_from_slice(&self.b_out);
        for (dst, row) in out
            .iter_mut()
            .zip(self.w_out.data().chunks_exact(self.w_out.cols()))
        {
            let mut acc = *dst;
            for (&w, &h) in row.iter().zip(top[lane..].iter().step_by(width)) {
                acc += w * h;
            }
            *dst = acc;
        }
        softmax_in_place(out);
    }

    /// A minibatch training scratch sized for `width` parallel streams.
    pub fn train_batch(&self, width: usize) -> TrainBatch {
        TrainBatch::new(&self.config, width)
    }

    /// Minibatched training forward step: advance every lane of `bs` by one
    /// character (`inputs[lane]`) as one GEMM per weight matrix, caching the
    /// gate activations every lane's backward pass needs and writing each
    /// lane's softmax output into `probs` batch-major (lane `b` at
    /// `probs[b*V..(b+1)*V]`).
    ///
    /// This is [`predict_batch_resident`](LstmModel::predict_batch_resident)
    /// retaining its activations — same bias broadcast, embedding add, packed
    /// GEMMs and element-wise cell update — so every lane is bitwise
    /// identical to the reference [`LstmModel::step`]. `embed_t` (`V x 4H`)
    /// and `packs` are the [`TrainBatch`]'s weight caches; `gate_scratch`
    /// must hold at least `4H * width` elements and `logit_scratch` at least
    /// `V * width`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != bs.width()` or a scratch buffer is too
    /// small.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_batch_core(
        &self,
        bs: &mut BatchState,
        inputs: &[u32],
        cache: &mut BatchStepCache,
        probs: &mut Vec<f32>,
        gate_scratch: &mut [f32],
        logit_scratch: &mut [f32],
        embed_t: &[f32],
        packs: &ForwardPacks,
    ) {
        let hs = self.config.hidden_size;
        let nv = self.config.vocab_size;
        let width = bs.width();
        assert_eq!(inputs.len(), width, "one input per lane");
        cache.ensure_shape(&self.config, width);
        cache.input_ids.copy_from_slice(inputs);
        let z = &mut gate_scratch[..4 * hs * width];
        let hs4 = 4 * hs;
        for (l, layer) in self.layers.iter().enumerate() {
            // Cache the backward operands before the state advances:
            // the cell state interleaved (consumed element-wise), the
            // hidden state lane-major (consumed by the batched outer
            // product).
            cache.c_prev[l].copy_from_slice(&bs.c[l]);
            interleaved_to_lanes(&bs.h[l], width, &mut cache.h_prev_lanes[l]);
            for (r, &bias) in layer.b.iter().enumerate() {
                z[r * width..(r + 1) * width].fill(bias);
            }
            if l == 0 {
                // One-hot input: add each lane's row of the transposed
                // embedding.
                for (lane, &id) in inputs.iter().enumerate() {
                    let col = id as usize % nv;
                    let row = &embed_t[col * hs4..(col + 1) * hs4];
                    for (zr, &w) in z.chunks_exact_mut(width).zip(row.iter()) {
                        zr[lane] += w;
                    }
                }
            } else {
                // The layer input is the hidden state below, updated this
                // step; its lane-major copy feeds the backward outer
                // product while the GEMM reads the resident state.
                interleaved_to_lanes(&bs.h[l - 1], width, &mut cache.input_lanes[l]);
                packs.wx[l].matmul_add_into(&bs.h[l - 1], width, z);
            }
            packs.wh[l].matmul_add_into(&bs.h[l], width, z);
            // The fused cell reads the cached previous state and writes the
            // new state straight into the resident batch — no copy-back.
            lstm_cell_cached_batch(
                z,
                width,
                &cache.c_prev[l],
                &mut cache.i[l],
                &mut cache.f[l],
                &mut cache.g[l],
                &mut cache.o[l],
                &mut bs.c[l],
                &mut cache.tanh_c[l],
                &mut bs.h[l],
            );
        }
        let top = &bs.h[self.config.num_layers - 1];
        interleaved_to_lanes(top, width, &mut cache.h_top_lanes);
        // Output projection over every lane, then every lane's softmax.
        let logits = &mut logit_scratch[..nv * width];
        for (r, &bias) in self.b_out.iter().enumerate() {
            logits[r * width..(r + 1) * width].fill(bias);
        }
        packs.w_out.matmul_add_into(top, width, logits);
        probs.resize(nv * width, 0.0);
        softmax_lanes(logits, width, width, probs);
    }

    /// Backpropagate through a sequence of minibatched cached steps,
    /// accumulating gradients summed over every lane.
    ///
    /// `step_probs[t]` is the batch-major softmax output the forward step
    /// produced at step `t`, and `targets[t * width + lane]` the target
    /// character of `lane` at that step. Returns the total cross-entropy
    /// loss over all steps and lanes.
    ///
    /// This is the reference [`LstmModel::backward`] widened across lanes:
    /// per gradient element every accumulation runs in the reference order
    /// with lanes innermost, so a one-lane minibatch accumulates
    /// bitwise-identical gradients — and therefore takes bitwise-identical
    /// SGD steps — to it. The hidden-state gradient products stream the
    /// transposed packed panels (above the parallel threshold, output rows
    /// split across rayon workers — bitwise identical at any thread count).
    ///
    /// Per-timestep gate/softmax gradients are retained so the big parameter
    /// gradients can be accumulated in t-blocks after the sweep — each
    /// gradient element is then loaded and stored once per block instead of
    /// once per timestep, removing the dominant backward memory traffic. The
    /// fold order per gradient element (timesteps descending, lanes
    /// ascending) is exactly the per-timestep sequence.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_batch_core(
        &self,
        caches: &[BatchStepCache],
        step_probs: &[Vec<f32>],
        targets: &[u32],
        width: usize,
        grads: &mut LstmGradients,
        scratch: &mut BackwardScratch,
        packs: &BackwardPacks,
    ) -> f32 {
        assert_eq!(caches.len(), step_probs.len());
        assert_eq!(targets.len(), caches.len() * width);
        let hs = self.config.hidden_size;
        let nv = self.config.vocab_size;
        let num_layers = self.config.num_layers;
        let hw = hs * width;
        let steps = caches.len();
        let mut loss = 0.0f32;
        scratch.ensure_shape(&self.config, width, steps);
        let BackwardScratch {
            dh_next,
            dc_next,
            dh_above,
            dh,
            dc_prev,
            dlogits_steps,
            dz_steps,
        } = scratch;
        for buf in dh_next.iter_mut().chain(dc_next.iter_mut()) {
            buf.iter_mut().for_each(|v| *v = 0.0);
        }
        for t in (0..steps).rev() {
            let cache = &caches[t];
            let probs = &step_probs[t];
            // Loss and dlogits = probs - one_hot(target), scattered into the
            // interleaved layout the backward GEMMs read.
            let dl = &mut dlogits_steps[t];
            for lane in 0..width {
                let target = targets[t * width + lane] as usize % nv;
                let p = &probs[lane * nv..(lane + 1) * nv];
                loss -= p[target].max(1e-12).ln();
                for (v, &pv) in p.iter().enumerate() {
                    dl[v * width + lane] = pv;
                }
                dl[target * width + lane] -= 1.0;
            }
            // Output bias gradient (the projection matrix is deferred).
            for (r, db) in grads.b_out.iter_mut().enumerate() {
                for &d in &dl[r * width..(r + 1) * width] {
                    *db += d;
                }
            }
            // Gradient flowing into the top layer's hidden state.
            dh_above.iter_mut().for_each(|v| *v = 0.0);
            packs.w_out_t.matmul_add_into(dl, width, dh_above);
            for l in (0..num_layers).rev() {
                let glayer = &mut grads.layers[l];
                dh.copy_from_slice(dh_above);
                for (dst, src) in dh.iter_mut().zip(dh_next[l].iter()) {
                    *dst += src;
                }
                let dzt = &mut dz_steps[t][l * 4 * hw..(l + 1) * 4 * hw];
                {
                    // Fixed-length subslices let the whole gate-gradient
                    // computation run as one bounds-check-free elementwise
                    // pass.
                    let (dzi, rest) = dzt.split_at_mut(hw);
                    let (dzf, rest) = rest.split_at_mut(hw);
                    let (dzg, dzo) = rest.split_at_mut(hw);
                    let os = &cache.o[l][..hw];
                    let tcs = &cache.tanh_c[l][..hw];
                    let is = &cache.i[l][..hw];
                    let fs = &cache.f[l][..hw];
                    let gs = &cache.g[l][..hw];
                    let cps = &cache.c_prev[l][..hw];
                    let dcn = &dc_next[l][..hw];
                    let dhs = &dh[..hw];
                    let dcp = &mut dc_prev[..hw];
                    for e in 0..hw {
                        let o = os[e];
                        let tanh_c = tcs[e];
                        let i = is[e];
                        let f = fs[e];
                        let g = gs[e];
                        let c_prev = cps[e];
                        let do_ = dhs[e] * tanh_c;
                        let dc = dhs[e] * o * (1.0 - tanh_c * tanh_c) + dcn[e];
                        let di = dc * g;
                        let dg = dc * i;
                        let df = dc * c_prev;
                        dcp[e] = dc * f;
                        dzi[e] = di * i * (1.0 - i);
                        dzf[e] = df * f * (1.0 - f);
                        dzg[e] = dg * (1.0 - g * g);
                        dzo[e] = do_ * o * (1.0 - o);
                    }
                }
                dc_next[l].copy_from_slice(dc_prev);
                // Parameter gradients. The dense matrices are deferred to
                // the t-block pass; the layer-0 one-hot columns (a sparse
                // scatter) and the biases stay per-timestep.
                if l == 0 {
                    for (lane, &id) in cache.input_ids.iter().enumerate() {
                        let col = id as usize % nv;
                        for r in 0..4 * hs {
                            let v = glayer.w_x.get(r, col) + dzt[r * width + lane];
                            glayer.w_x.set(r, col, v);
                        }
                    }
                }
                for (r, db) in glayer.b.iter_mut().enumerate() {
                    for &d in &dzt[r * width..(r + 1) * width] {
                        *db += d;
                    }
                }
                // Gradient into the previous hidden state (recurrent path).
                let dh_prev = &mut dh_next[l];
                dh_prev.iter_mut().for_each(|v| *v = 0.0);
                packs.wh_t[l].matmul_add_into(dzt, width, dh_prev);
                // Gradient into the layer below's hidden output at this step.
                if l > 0 {
                    dh_above.iter_mut().for_each(|v| *v = 0.0);
                    packs.wx_t[l].matmul_add_into(dzt, width, dh_above);
                }
            }
        }
        // Deferred accumulation of the dense parameter gradients, in
        // t-blocks: per block, each gradient matrix streams through the cache
        // once while the block's retained dz/dlogits and the forward caches
        // (a few hundred KiB) stay hot. Blocks walk t from the top down and
        // spans within a block are t-descending, so per element the fold is
        // globally (t desc, lane asc) — bitwise the per-timestep order.
        const GRAD_T_BLOCK: usize = 16;
        let mut spans: [(&[f32], &[f32]); GRAD_T_BLOCK] = [(&[][..], &[][..]); GRAD_T_BLOCK];
        let mut t_hi = steps;
        while t_hi > 0 {
            let t_lo = t_hi.saturating_sub(GRAD_T_BLOCK);
            let block = t_lo..t_hi;
            let mut n = 0;
            for t in block.clone().rev() {
                spans[n] = (&dlogits_steps[t], &caches[t].h_top_lanes);
                n += 1;
            }
            grads.w_out.add_outer_batch_spans(&spans[..n], width);
            for l in 0..num_layers {
                let mut n = 0;
                for t in block.clone().rev() {
                    spans[n] = (
                        &dz_steps[t][l * 4 * hw..(l + 1) * 4 * hw],
                        &caches[t].h_prev_lanes[l],
                    );
                    n += 1;
                }
                grads.layers[l]
                    .w_h
                    .add_outer_batch_spans(&spans[..n], width);
                if l > 0 {
                    let mut n = 0;
                    for t in block.clone().rev() {
                        spans[n] = (
                            &dz_steps[t][l * 4 * hw..(l + 1) * 4 * hw],
                            &caches[t].input_lanes[l],
                        );
                        n += 1;
                    }
                    grads.layers[l]
                        .w_x
                        .add_outer_batch_spans(&spans[..n], width);
                }
            }
            t_hi = t_lo;
        }
        loss
    }

    /// The reference backward pass: backpropagate through a sequence of
    /// steps cached by [`LstmModel::step`].
    ///
    /// `probs_and_targets` holds, for each timestep, the softmax output of the
    /// forward pass and the target character id. Gradients are accumulated
    /// into `grads`. Returns the total cross-entropy loss over the sequence.
    /// Like `step` it allocates freely, runs the naive [`Matrix`] loops and
    /// is called only by the test suites.
    pub fn backward(
        &self,
        caches: &[StepCache],
        probs_and_targets: &[(Vec<f32>, u32)],
        grads: &mut LstmGradients,
    ) -> f32 {
        assert_eq!(caches.len(), probs_and_targets.len());
        let hs = self.config.hidden_size;
        let num_layers = self.config.num_layers;
        let mut loss = 0.0f32;
        // Backward-through-time carried gradients start at zero.
        let mut dh_next = vec![vec![0.0f32; hs]; num_layers];
        let mut dc_next = vec![vec![0.0f32; hs]; num_layers];
        let mut dh_above = vec![0.0f32; hs];
        let mut dh = vec![0.0f32; hs];
        let mut dz = vec![0.0f32; 4 * hs];
        let mut dc_prev = vec![0.0f32; hs];
        for (cache, (step_probs, target)) in caches.iter().zip(probs_and_targets).rev() {
            let target = *target as usize % self.config.vocab_size;
            loss -= step_probs[target].max(1e-12).ln();
            // dlogits = probs - one_hot(target)
            let mut dlogits = step_probs.clone();
            dlogits[target] -= 1.0;
            // Output layer gradients.
            let h_top = &cache.h[num_layers - 1];
            grads.w_out.add_outer(&dlogits, h_top);
            for (db, dl) in grads.b_out.iter_mut().zip(dlogits.iter()) {
                *db += dl;
            }
            // Gradient flowing into the top layer's hidden state.
            dh_above.iter_mut().for_each(|v| *v = 0.0);
            self.w_out.matvec_transpose_add(&dlogits, &mut dh_above);
            for l in (0..num_layers).rev() {
                let layer = &self.layers[l];
                let glayer = &mut grads.layers[l];
                dh.copy_from_slice(&dh_above);
                for (dst, src) in dh.iter_mut().zip(dh_next[l].iter()) {
                    *dst += src;
                }
                for j in 0..hs {
                    let o = cache.o[l][j];
                    let tanh_c = cache.tanh_c[l][j];
                    let i = cache.i[l][j];
                    let f = cache.f[l][j];
                    let g = cache.g[l][j];
                    let c_prev = cache.c_prev[l][j];
                    let do_ = dh[j] * tanh_c;
                    let dc = dh[j] * o * (1.0 - tanh_c * tanh_c) + dc_next[l][j];
                    let di = dc * g;
                    let dg = dc * i;
                    let df = dc * c_prev;
                    dc_prev[j] = dc * f;
                    dz[j] = di * i * (1.0 - i);
                    dz[hs + j] = df * f * (1.0 - f);
                    dz[2 * hs + j] = dg * (1.0 - g * g);
                    dz[3 * hs + j] = do_ * o * (1.0 - o);
                }
                dc_next[l].copy_from_slice(&dc_prev);
                // Parameter gradients.
                if l == 0 {
                    let col = cache.input_id as usize % self.config.vocab_size;
                    for (r, &dzv) in dz.iter().enumerate() {
                        let v = glayer.w_x.get(r, col) + dzv;
                        glayer.w_x.set(r, col, v);
                    }
                } else {
                    glayer.w_x.add_outer(&dz, &cache.inputs[l]);
                }
                glayer.w_h.add_outer(&dz, &cache.h_prev[l]);
                for (db, d) in glayer.b.iter_mut().zip(dz.iter()) {
                    *db += d;
                }
                // Gradient into the previous hidden state (recurrent path).
                let dh_prev = &mut dh_next[l];
                dh_prev.iter_mut().for_each(|v| *v = 0.0);
                layer.w_h.matvec_transpose_add(&dz, dh_prev);
                // Gradient into the layer below's hidden output at this step.
                if l > 0 {
                    dh_above.iter_mut().for_each(|v| *v = 0.0);
                    layer.w_x.matvec_transpose_add(&dz, &mut dh_above);
                }
            }
        }
        loss
    }

    /// Apply a gradient update: `params -= lr * grads`.
    pub fn apply_gradients(&mut self, grads: &LstmGradients, lr: f32) {
        for (layer, glayer) in self.layers.iter_mut().zip(grads.layers.iter()) {
            layer.w_x.axpy(-lr, &glayer.w_x);
            layer.w_h.axpy(-lr, &glayer.w_h);
            for (p, g) in layer.b.iter_mut().zip(glayer.b.iter()) {
                *p -= lr * g;
            }
        }
        self.w_out.axpy(-lr, &grads.w_out);
        for (p, g) in self.b_out.iter_mut().zip(grads.b_out.iter()) {
            *p -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_count_matches_config() {
        let config = LstmConfig {
            vocab_size: 10,
            hidden_size: 8,
            num_layers: 2,
            seed: 1,
        };
        let model = LstmModel::new(config);
        // layer0: 32*10 + 32*8 + 32; layer1: 32*8 + 32*8 + 32; out: 10*8 + 10
        let expected = (32 * 10 + 32 * 8 + 32) + (32 * 8 + 32 * 8 + 32) + (10 * 8 + 10);
        assert_eq!(model.parameter_count(), expected);
    }

    #[test]
    fn step_produces_probability_distribution() {
        let model = LstmModel::new(LstmConfig::small(20));
        let mut state = model.initial_state();
        let (probs, _) = model.step(&mut state, 3);
        assert_eq!(probs.len(), 20);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(probs.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn state_evolves_with_input() {
        let model = LstmModel::new(LstmConfig::small(10));
        let mut state = model.initial_state();
        let before = state.clone();
        model.predict(&mut state, 1);
        assert_ne!(state, before, "state should change after a step");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LstmModel::new(LstmConfig {
            vocab_size: 12,
            hidden_size: 16,
            num_layers: 2,
            seed: 7,
        });
        let b = LstmModel::new(LstmConfig {
            vocab_size: 12,
            hidden_size: 16,
            num_layers: 2,
            seed: 7,
        });
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_check_small_model() {
        // Numerical gradient check on a tiny model and short sequence.
        let config = LstmConfig {
            vocab_size: 5,
            hidden_size: 4,
            num_layers: 2,
            seed: 3,
        };
        let mut model = LstmModel::new(config);
        let sequence: Vec<u32> = vec![1, 2, 3, 4, 0, 2];
        let loss_of = |m: &LstmModel| -> f32 {
            let mut state = m.initial_state();
            let mut loss = 0.0;
            for w in sequence.windows(2) {
                let (probs, _) = m.step(&mut state, w[0]);
                loss -= probs[w[1] as usize].max(1e-12).ln();
            }
            loss
        };
        // Analytic gradients.
        let mut grads = model.zero_gradients();
        let mut state = model.initial_state();
        let mut caches = Vec::new();
        let mut pt = Vec::new();
        for w in sequence.windows(2) {
            let (probs, cache) = model.step(&mut state, w[0]);
            caches.push(cache);
            pt.push((probs, w[1]));
        }
        let analytic_loss = model.backward(&caches, &pt, &mut grads);
        assert!((analytic_loss - loss_of(&model)).abs() < 1e-4);
        // Check a few weights in each tensor numerically.
        let eps = 1e-3f32;
        let checks: Vec<(usize, usize, usize)> = vec![
            // (layer, row, col) into w_x
            (0, 0, 1),
            (0, 7, 2),
            (1, 3, 3),
        ];
        for (l, r, c) in checks {
            let orig = model.layers[l].w_x.get(r, c);
            model.layers[l].w_x.set(r, c, orig + eps);
            let plus = loss_of(&model);
            model.layers[l].w_x.set(r, c, orig - eps);
            let minus = loss_of(&model);
            model.layers[l].w_x.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads.layers[l].w_x.get(r, c);
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
                "gradient mismatch at layer {l} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
        // And one output-layer weight.
        let orig = model.w_out.get(2, 1);
        model.w_out.set(2, 1, orig + eps);
        let plus = loss_of(&model);
        model.w_out.set(2, 1, orig - eps);
        let minus = loss_of(&model);
        model.w_out.set(2, 1, orig);
        let numeric = (plus - minus) / (2.0 * eps);
        let analytic = grads.w_out.get(2, 1);
        assert!(
            (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
            "output gradient mismatch: numeric {numeric} vs analytic {analytic}"
        );
    }

    /// The alloc-free sampling path must be bitwise identical to the
    /// reference `step()` — batched sampling's determinism guarantee begins
    /// here.
    #[test]
    fn predict_into_bitwise_matches_step() {
        let model = LstmModel::new(LstmConfig {
            vocab_size: 17,
            hidden_size: 24,
            num_layers: 3,
            seed: 9,
        });
        let mut state_ref = model.initial_state();
        let mut state_new = model.initial_state();
        let mut ws = model.workspace(1);
        for id in [3u32, 0, 16, 7, 7, 1, 12] {
            let (probs_ref, _) = model.step(&mut state_ref, id);
            let probs_new = model.predict_into(&mut state_new, id, &mut ws).to_vec();
            for (a, b) in probs_ref.iter().zip(probs_new.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "probs diverge");
            }
            assert_eq!(state_ref, state_new, "states diverge");
        }
    }

    /// Stepping a subset of a resident batch's lanes equals the reference
    /// `step` on each of those streams, bitwise, and leaves the other lanes
    /// untouched.
    #[test]
    fn predict_batch_gathered_bitwise_matches_reference_step() {
        let model = LstmModel::new(LstmConfig {
            vocab_size: 11,
            hidden_size: 16,
            num_layers: 2,
            seed: 4,
        });
        let n = 5;
        let mut reference: Vec<LstmState> = (0..n).map(|_| model.initial_state()).collect();
        let mut bs = BatchState::new(&model.config, n);
        let mut ws = model.workspace(n);
        // Rounds feed different subsets with different characters.
        let rounds: Vec<Vec<(usize, u32)>> = vec![
            (0..n).map(|i| (i, i as u32)).collect(),
            vec![(4, 1), (0, 9), (2, 10)],
            vec![(3, 5)],
            (0..n).map(|i| (i, (10 - i) as u32)).collect(),
        ];
        for pairs in rounds {
            let sel: Vec<usize> = pairs.iter().map(|p| p.0).collect();
            let ids: Vec<u32> = pairs.iter().map(|p| p.1).collect();
            model.predict_batch_gathered(&mut bs, &sel, &ids, &mut ws);
            for (lane, &(stream, id)) in pairs.iter().enumerate() {
                let (probs, _) = model.step(&mut reference[stream], id);
                for (a, b) in probs.iter().zip(ws.probs_lane(lane).iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "stream {stream} probs diverge");
                }
            }
            for (stream, expect) in reference.iter().enumerate() {
                let mut got = model.initial_state();
                bs.store_lane(stream, &mut got);
                assert_eq!(expect, &got, "stream {stream} state diverges");
            }
        }
    }

    /// A workspace sized for one lane grows transparently to serve a batch.
    #[test]
    fn workspace_grows_on_demand() {
        let model = LstmModel::new(LstmConfig {
            vocab_size: 8,
            hidden_size: 8,
            num_layers: 1,
            seed: 1,
        });
        let mut ws = model.workspace(1);
        let mut bs = BatchState::new(&model.config, 6);
        let inputs: Vec<u32> = (0..6).collect();
        model.predict_batch_resident(&mut bs, &inputs, &mut ws);
        let sum: f32 = ws.probs_lane(5).iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn apply_gradients_moves_parameters() {
        let mut model = LstmModel::new(LstmConfig::small(8));
        let before = model.clone();
        let mut grads = model.zero_gradients();
        grads.b_out[0] = 1.0;
        grads.layers[0].b[0] = 1.0;
        model.apply_gradients(&grads, 0.1);
        assert!((model.b_out[0] - (before.b_out[0] - 0.1)).abs() < 1e-6);
        assert!((model.layers[0].b[0] - (before.layers[0].b[0] - 0.1)).abs() < 1e-6);
    }
}
