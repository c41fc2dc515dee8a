//! The language-model abstraction used by the synthesizer.
//!
//! CLgen's sampling loop (Algorithm 1) only needs a model that, given the
//! characters emitted so far, yields logits over the next character.
//! Both the LSTM (the paper's model) and the n-gram ablation baseline
//! implement this trait, so the synthesizer is generic over the model class.
//!
//! A character is drawn by [`sample_logits`], the one draw of the batched
//! engine and the serial sampler alike: the temperature divides the logits,
//! one [`softmax_in_place`] normalises them and one uniform walks the
//! cumulative distribution. Every step of it is this crate's own f32 and f64
//! arithmetic, and so are the LSTM's logits, so the bytes an LSTM draws do
//! not depend on the host's libm. The n-gram's logits (and those of the
//! default [`StreamBatch::logits_into`]) are still libm `ln` of a
//! distribution.

use crate::lstm::{BatchState, LstmModel, LstmState, Workspace};
use crate::tensor::{softmax_in_place, tile_width};
use rand::rngs::StdRng;
use rand::Rng;

/// A stateful character-level language model.
pub trait LanguageModel {
    /// Size of the character vocabulary.
    fn vocab_size(&self) -> usize;

    /// Reset the internal state to the start-of-sequence state.
    fn reset(&mut self);

    /// Feed one character id, advancing the internal state.
    fn feed(&mut self, id: u32);

    /// Write the logits over the next character given everything fed so far
    /// into `out` (replacing its contents): a distribution up to
    /// [`softmax_in_place`].
    fn logits_into(&self, out: &mut Vec<f32>);
}

/// Adapter making [`LstmModel`] usable through the [`LanguageModel`] trait by
/// carrying its recurrent state, a scratch [`Workspace`] and the last
/// logits. Feeding a character performs no heap allocation.
#[derive(Debug, Clone)]
pub struct StatefulLstm {
    model: LstmModel,
    state: LstmState,
    ws: Workspace,
    /// All zeros (the uniform distribution) until the first feed.
    last_logits: Vec<f32>,
}

impl StatefulLstm {
    /// Wrap a trained LSTM for sampling.
    pub fn new(model: LstmModel) -> StatefulLstm {
        let state = model.initial_state();
        let ws = model.workspace(1);
        let vocab = model.config.vocab_size;
        StatefulLstm {
            model,
            state,
            ws,
            last_logits: vec![0.0; vocab],
        }
    }

    /// Access the wrapped model.
    pub fn model(&self) -> &LstmModel {
        &self.model
    }
}

impl LanguageModel for StatefulLstm {
    fn vocab_size(&self) -> usize {
        self.model.config.vocab_size
    }

    fn reset(&mut self) {
        self.state = self.model.initial_state();
        self.last_logits.fill(0.0);
    }

    fn feed(&mut self, id: u32) {
        let logits = self.model.predict_into(&mut self.state, id, &mut self.ws);
        self.last_logits.copy_from_slice(logits);
    }

    fn logits_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.last_logits);
    }
}

/// A set of independent sample streams advancing through shared model
/// weights, the engine behind multi-stream batched sampling.
///
/// Streams are identified by their index `0..num_streams()`. The caller
/// drives them with [`feed_many`](StreamBatch::feed_many) (one character per
/// listed stream) and reads each stream's current next-character logits
/// with [`logits_into`](StreamBatch::logits_into) or its distribution with
/// [`probs_into`](StreamBatch::probs_into). A stream that has not been
/// fed since the last [`reset`](StreamBatch::reset) predicts the uniform
/// distribution, mirroring [`StatefulLstm`].
pub trait StreamBatch {
    /// Size of the character vocabulary.
    fn vocab_size(&self) -> usize;

    /// Number of streams in the batch.
    fn num_streams(&self) -> usize;

    /// Reset every stream to the start-of-sequence state.
    fn reset(&mut self);

    /// Reset a single stream to the start-of-sequence state, leaving the
    /// others untouched. This is what lets a sampler recycle a finished
    /// stream's lane for a fresh candidate (continuous batching).
    fn reset_stream(&mut self, stream: usize);

    /// Advance the listed streams by one character each: for every
    /// `(stream, id)` pair, feed `id` into `stream`. A stream may appear at
    /// most once per call.
    fn feed_many(&mut self, pairs: &[(usize, u32)]);

    /// Write stream `stream`'s distribution over the next character into
    /// `out` (replacing its contents).
    fn probs_into(&self, stream: usize, out: &mut Vec<f32>);

    /// Write stream `stream`'s logits over the next character into `out`
    /// (replacing its contents): what [`sample_logits`] draws from. The
    /// default is the log of [`probs_into`](StreamBatch::probs_into), so it
    /// is complete for every implementor, and exact for a batch whose
    /// distribution is its own (the n-gram's). A batch that has logits (the
    /// LSTM's output layer) overrides it, and the default then matches those
    /// logits only up to rounding: `ln(softmax(z))` is `z` minus a constant
    /// to within an ulp or so, and a uniform on a rounding boundary draws
    /// another character. A wrapper of such a batch must forward this
    /// method to keep its draws byte-identical to the batch's own.
    fn logits_into(&self, stream: usize, out: &mut Vec<f32>) {
        self.probs_into(stream, out);
        for v in out.iter_mut() {
            *v = v.ln();
        }
    }

    /// Put `stream` in the state a fresh stream reaches after being fed
    /// `ids` in order, leaving the others untouched. The default does just
    /// that, so it is complete for every implementor; a batch that can get
    /// there cheaper (every candidate of a run shares one seed) overrides it.
    fn prime(&mut self, stream: usize, ids: &[u32]) {
        self.reset_stream(stream);
        for &id in ids {
            self.feed_many(&[(stream, id)]);
        }
    }
}

/// A borrowed or boxed batch is the batch it points at, `prime` included, so
/// an owner of `impl StreamBatch` can be handed either.
macro_rules! forward_stream_batch {
    ($($batch:ty),*) => {$(
        impl<S: StreamBatch + ?Sized> StreamBatch for $batch {
            fn vocab_size(&self) -> usize {
                (**self).vocab_size()
            }
            fn num_streams(&self) -> usize {
                (**self).num_streams()
            }
            fn reset(&mut self) {
                (**self).reset();
            }
            fn reset_stream(&mut self, stream: usize) {
                (**self).reset_stream(stream);
            }
            fn feed_many(&mut self, pairs: &[(usize, u32)]) {
                (**self).feed_many(pairs);
            }
            fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
                (**self).probs_into(stream, out);
            }
            fn logits_into(&self, stream: usize, out: &mut Vec<f32>) {
                (**self).logits_into(stream, out);
            }
            fn prime(&mut self, stream: usize, ids: &[u32]) {
                (**self).prime(stream, ids);
            }
        }
    )*};
}

forward_stream_batch!(&mut S, Box<S>);

/// Multi-stream sampling over a shared [`LstmModel`]: every
/// [`feed_many`](StreamBatch::feed_many) advances the listed streams as one
/// batched matrix product per layer, so weights are read once per batch
/// instead of once per stream, and the per-lane arithmetic is bitwise
/// identical to serial sampling. A step costs what the streams it feeds
/// cost, not what the batch is wide: a feed of all `n` streams steps the
/// resident state in place, a feed of fewer gathers just those lanes into a
/// narrower scratch batch ([`LstmModel::predict_batch_gathered`]).
#[derive(Debug)]
pub struct LstmStreams<'a> {
    model: &'a LstmModel,
    /// Lane-interleaved recurrent state, resident across steps; lanes past
    /// the stream count are tile padding.
    bs: BatchState,
    ws: Workspace,
    /// For each stream, its lane in the workspace's most recent logits
    /// (`None` if not part of the last feed).
    logits_pos: Vec<Option<usize>>,
    /// Whether each stream has been fed since its last reset.
    fed: Vec<bool>,
    sel: Vec<usize>,
    ids: Vec<u32>,
    /// The last prefix [`prime`](StreamBatch::prime)d and the state after it
    /// (valid while the batch lives: `model` is borrowed, weights are fixed).
    primed: Option<(Vec<u32>, LstmState)>,
}

impl<'a> LstmStreams<'a> {
    /// `n` fresh streams over `model`. Holding `&LstmModel` guarantees the
    /// weights cannot change while the batch is alive, so the workspace's
    /// embedding cache stays valid.
    pub fn new(model: &'a LstmModel, n: usize) -> LstmStreams<'a> {
        assert!(n > 0, "need at least one stream");
        LstmStreams {
            model,
            bs: BatchState::new(&model.config, tile_width(n)),
            ws: model.workspace(tile_width(n)),
            logits_pos: vec![None; n],
            fed: vec![false; n],
            sel: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            primed: None,
        }
    }
}

impl StreamBatch for LstmStreams<'_> {
    fn vocab_size(&self) -> usize {
        self.model.config.vocab_size
    }

    fn num_streams(&self) -> usize {
        self.fed.len()
    }

    fn reset(&mut self) {
        for stream in 0..self.num_streams() {
            self.reset_stream(stream);
        }
    }

    fn reset_stream(&mut self, stream: usize) {
        self.bs.reset_lane(stream);
        self.logits_pos[stream] = None;
        self.fed[stream] = false;
    }

    /// Panics if a stream is out of range or listed twice.
    fn feed_many(&mut self, pairs: &[(usize, u32)]) {
        if pairs.is_empty() {
            return;
        }
        // The logits buffer is about to be rewritten: streams not in this
        // batch fall back to recomputing from their untouched hidden state.
        self.logits_pos.fill(None);
        self.sel.clear();
        self.ids.clear();
        for (pos, &(stream, id)) in pairs.iter().enumerate() {
            assert!(stream < self.fed.len(), "stream {stream} out of range");
            assert!(
                self.logits_pos[stream].is_none(),
                "stream {stream} fed twice in one call"
            );
            self.logits_pos[stream] = Some(pos);
            self.fed[stream] = true;
            self.sel.push(stream);
            self.ids.push(id);
        }
        if self.sel.iter().copied().eq(0..self.fed.len()) {
            // Every stream, in lane order: step the resident state in place.
            self.model
                .predict_batch_resident(&mut self.bs, &self.ids, &mut self.ws);
        } else {
            self.model
                .predict_batch_gathered(&mut self.bs, &self.sel, &self.ids, &mut self.ws);
        }
    }

    /// The softmax of [`logits_into`](StreamBatch::logits_into), computed
    /// on demand: bitwise what training's forward makes of the lane.
    fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
        self.logits_into(stream, out);
        softmax_in_place(out);
    }

    /// An unfed stream's logits are zeros, i.e. uniform.
    fn logits_into(&self, stream: usize, out: &mut Vec<f32>) {
        out.clear();
        match self.logits_pos[stream] {
            Some(pos) => out.extend(self.ws.logits_lane(pos)),
            None if self.fed[stream] => self.model.lane_logits(&self.bs, stream, out),
            None => out.resize(self.vocab_size(), 0.0),
        }
    }

    /// One forward pass over `ids` at width 1 the first time a prefix is
    /// seen, a [`BatchState::load_lane`] of the remembered state afterwards.
    fn prime(&mut self, stream: usize, ids: &[u32]) {
        if !matches!(&self.primed, Some((memo, _)) if memo == ids) {
            let mut state = self.model.initial_state();
            for &id in ids {
                self.model.predict_into(&mut state, id, &mut self.ws);
            }
            // The pass went through the shared logits buffer.
            self.logits_pos.fill(None);
            self.primed = Some((ids.to_vec(), state));
        }
        let (_, state) = self.primed.as_ref().expect("set above");
        self.bs.load_lane(stream, state);
        self.logits_pos[stream] = None;
        self.fed[stream] = !ids.is_empty();
    }
}

/// Multi-stream sampling over a shared [`NgramModel`]: every stream carries
/// only its rolling character history while the (potentially large) count
/// tables are borrowed, so spawning a batch costs nothing. Prediction per
/// stream is exactly [`NgramModel::distribution_for`] over that history,
/// and its logits (the default [`logits_into`](StreamBatch::logits_into),
/// `ln p`) are exactly the model's.
///
/// [`NgramModel`]: crate::ngram::NgramModel
/// [`NgramModel::distribution_for`]: crate::ngram::NgramModel::distribution_for
#[derive(Debug)]
pub struct NgramStreams<'a> {
    model: &'a crate::ngram::NgramModel,
    histories: Vec<Vec<u32>>,
}

impl<'a> NgramStreams<'a> {
    /// `n` fresh streams over `model`.
    pub fn new(model: &'a crate::ngram::NgramModel, n: usize) -> NgramStreams<'a> {
        NgramStreams {
            model,
            histories: vec![Vec::new(); n],
        }
    }
}

impl StreamBatch for NgramStreams<'_> {
    fn vocab_size(&self) -> usize {
        self.model.vocab_size()
    }

    fn num_streams(&self) -> usize {
        self.histories.len()
    }

    fn reset(&mut self) {
        for h in &mut self.histories {
            h.clear();
        }
    }

    fn reset_stream(&mut self, stream: usize) {
        self.histories[stream].clear();
    }

    fn feed_many(&mut self, pairs: &[(usize, u32)]) {
        // Mirrors `NgramModel::feed`: keep only the context window.
        let keep = self.model.config().context;
        for &(stream, id) in pairs {
            let history = &mut self.histories[stream];
            history.push(id);
            if history.len() > keep {
                let excess = history.len() - keep;
                history.drain(..excess);
            }
        }
    }

    fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
        self.model.distribution_into(&self.histories[stream], out);
    }
}

/// Draw the next character from `logits` at `temperature`: the softmax of
/// `logits / temperature` (temperature clamped to at least `1e-3`), which
/// is `p^(1/T)` renormalised, walked by one uniform `rng.gen::<f64>()`.
/// Temperature 1.0 samples the model's distribution as-is; lower values
/// sharpen it (more deterministic), higher values flatten it. `scratch`
/// holds the scaled distribution, so hot sampling loops perform no
/// per-character allocation.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn sample_logits(
    logits: &[f32],
    temperature: f32,
    rng: &mut StdRng,
    scratch: &mut Vec<f32>,
) -> u32 {
    assert!(!logits.is_empty(), "no logits to sample from");
    let inv_t = 1.0 / temperature.max(1e-3);
    scratch.clear();
    scratch.extend(logits.iter().map(|&z| z * inv_t));
    softmax_in_place(scratch);
    // Walk the cumulative distribution subtractively in f64. The f32
    // probabilities may sum to a little less than 1; a uniform past the sum
    // draws the last character, whose probability `softmax_in_place` keeps
    // positive (its exponential never underflows to 0).
    let mut draw = rng.gen::<f64>();
    for (i, &p) in scratch.iter().enumerate() {
        let p = f64::from(p);
        if draw < p {
            return i as u32;
        }
        draw -= p;
    }
    (scratch.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::LstmConfig;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The softmax of a model's logits: its next-character distribution.
    fn distribution(model: &impl LanguageModel) -> Vec<f32> {
        let mut probs = Vec::new();
        model.logits_into(&mut probs);
        softmax_in_place(&mut probs);
        probs
    }

    #[test]
    fn stateful_lstm_roundtrip() {
        let lstm = LstmModel::new(LstmConfig::small(12));
        let mut wrapped = StatefulLstm::new(lstm);
        assert_eq!(wrapped.vocab_size(), 12);
        let uniform = distribution(&wrapped);
        assert!((uniform[0] - 1.0 / 12.0).abs() < 1e-6);
        wrapped.feed(3);
        let after = distribution(&wrapped);
        let sum: f32 = after.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        wrapped.reset();
        assert!((distribution(&wrapped)[0] - 1.0 / 12.0).abs() < 1e-6);
    }

    /// `ln p`, the logits of a given distribution.
    fn logits_of(probs: &[f32]) -> Vec<f32> {
        probs.iter().map(|p| p.ln()).collect()
    }

    /// Draw `n` characters from `logits` at `temperature` and count them.
    fn counts(logits: &[f32], temperature: f32, n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut scratch, mut counts) = (Vec::new(), vec![0; logits.len()]);
        for _ in 0..n {
            counts[sample_logits(logits, temperature, &mut rng, &mut scratch) as usize] += 1;
        }
        counts
    }

    #[test]
    fn sampling_respects_distribution() {
        let counts = counts(&logits_of(&[0.0, 0.9, 0.1, 0.0]), 1.0, 1000, 1);
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 800);
        assert!(counts[2] > 20);
    }

    #[test]
    fn low_temperature_is_nearly_greedy() {
        let counts = counts(&logits_of(&[0.3, 0.4, 0.3]), 0.05, 500, 2);
        assert!(
            counts[1] > 480,
            "low temperature should pick the mode almost always: {counts:?}"
        );
    }

    #[test]
    fn high_temperature_flattens() {
        let counts = counts(&logits_of(&[0.05, 0.9, 0.05]), 3.0, 2000, 3);
        // With a hot temperature the minority classes appear far more often
        // than their base probability would suggest.
        assert!(counts[0] + counts[2] > 400, "{counts:?}");
    }

    /// A logit of `-1e4` — the benchmark's wide fixture sets its first
    /// output bias to that so no candidate stops early — is not drawn, at
    /// any temperature: its probability is at most ~1e-38 (the floor of
    /// `softmax_in_place`'s exponential over the vocabulary), so only a
    /// uniform of exactly 0 (one in 2^53) would pick it, and a uniform past
    /// the cumulative sum draws the last character, not the first.
    #[test]
    fn a_logit_of_minus_1e4_is_never_drawn() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut logits: Vec<f32> = (0..72).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        logits[0] = -1e4;
        for (i, temperature) in [0.05f32, 0.8, 1.0, 3.0].into_iter().enumerate() {
            let counts = counts(&logits, temperature, 50_000, i as u64);
            assert_eq!(counts[0], 0, "T = {temperature}");
        }
    }

    /// Drive a `width`-stream [`LstmStreams`] through `rounds` random
    /// operations — subset feeds in any order, single-stream and whole-batch
    /// resets, primes with repeated, alternating and empty prefixes — and
    /// after each one require every stream's distribution to be bitwise that
    /// of an independent serial model fed the same characters.
    fn check_random_schedule(model: &LstmModel, width: usize, rounds: usize, seed: u64) {
        let vocab = model.config.vocab_size as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut streams = LstmStreams::new(model, width);
        assert_eq!(streams.num_streams(), width);
        let mut serial: Vec<StatefulLstm> = (0..width)
            .map(|_| StatefulLstm::new(model.clone()))
            .collect();
        let prefixes: [&[u32]; 3] = [&[1, 4, 2, 0, 3], &[5, 5, 1], &[]];
        let (mut probs, mut pairs) = (Vec::new(), Vec::new());
        for round in 0..rounds {
            match rng.gen_range(0..10u32) {
                0 => {
                    streams.reset();
                    serial.iter_mut().for_each(|s| s.reset());
                }
                1 => {
                    let stream = rng.gen_range(0..width);
                    streams.reset_stream(stream);
                    serial[stream].reset();
                }
                2..=4 => {
                    // Mostly the same prefix (memo hits), sometimes another.
                    let stream = rng.gen_range(0..width);
                    let ids = prefixes[[0, 0, 0, 1, 2][rng.gen_range(0..5usize)]];
                    streams.prime(stream, ids);
                    serial[stream].reset();
                    ids.iter().for_each(|&id| serial[stream].feed(id));
                }
                _ => {
                    let keep = [0.2, 0.5, 1.0][rng.gen_range(0..3usize)];
                    pairs.clear();
                    for stream in 0..width {
                        if rng.gen_bool(keep) {
                            pairs.push((stream, rng.gen_range(0..vocab)));
                        }
                    }
                    if rng.gen_bool(0.25) {
                        pairs.reverse();
                    }
                    pairs
                        .iter()
                        .for_each(|&(stream, id)| serial[stream].feed(id));
                    streams.feed_many(&pairs);
                }
            }
            for (stream, reference) in serial.iter().enumerate() {
                streams.probs_into(stream, &mut probs);
                let expect = distribution(reference);
                assert_eq!(probs.len(), expect.len());
                for (a, b) in probs.iter().zip(expect.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "width {width} seed {seed} round {round}: stream {stream} diverged"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The `StreamBatch` contract at every batch width: whichever subset
        /// a call feeds, resets or primes, the other streams are untouched
        /// and every stream stays bitwise identical to serial sampling —
        /// through the resident, the gathered and the memoised paths, below
        /// and above the GEMM kernels' row-parallel threshold.
        #[test]
        fn lstm_streams_match_serial_under_random_schedules(seed in any::<u64>()) {
            let small = LstmModel::new(LstmConfig {
                vocab_size: 7,
                hidden_size: 12,
                num_layers: 2,
                seed: 21,
            });
            for width in 1..=16 {
                check_random_schedule(&small, width, 24, seed ^ width as u64);
            }
            // 4H x H x width >= PAR_MIN_WORK from two lanes up: one width
            // per tile class, few rounds (a debug-build step is ~10 ms).
            let large = LstmModel::new(LstmConfig {
                vocab_size: 7,
                hidden_size: 512,
                num_layers: 1,
                seed: 22,
            });
            const { assert!(4 * 512 * 512 * 2 >= crate::tensor::PAR_MIN_WORK) };
            let width = [2, 5, 8, 11, 16][(seed % 5) as usize];
            check_random_schedule(&large, width, 6, seed);
        }
    }

    #[test]
    #[should_panic(expected = "fed twice")]
    fn lstm_streams_reject_a_stream_fed_twice_in_one_call() {
        let model = LstmModel::new(LstmConfig::small(7));
        LstmStreams::new(&model, 3).feed_many(&[(1, 0), (2, 3), (1, 4)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lstm_streams_reject_an_out_of_range_stream() {
        let model = LstmModel::new(LstmConfig::small(7));
        // Seven streams are resident at eight lanes: lane 7 is padding.
        LstmStreams::new(&model, 7).feed_many(&[(7, 0)]);
    }
}
