//! The language-model abstraction used by the synthesizer.
//!
//! CLgen's sampling loop (Algorithm 1) only needs a model that, given the
//! characters emitted so far, yields a distribution over the next character.
//! Both the LSTM (the paper's model) and the n-gram ablation baseline
//! implement this trait, so the synthesizer is generic over the model class.

use crate::lstm::{BatchState, LstmModel, LstmState, Workspace};
use crate::tensor::tile_width;
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

    /// Distribution over the next character given everything fed so far.
    fn predict(&self) -> Vec<f32>;
}

/// Adapter making [`LstmModel`] usable through the [`LanguageModel`] trait by
/// carrying its recurrent state, a scratch [`Workspace`] and the last
/// prediction. Feeding a character performs no heap allocation.
#[derive(Debug, Clone)]
pub struct StatefulLstm {
    model: LstmModel,
    state: LstmState,
    ws: Workspace,
    last_probs: Vec<f32>,
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
            last_probs: vec![1.0 / vocab as f32; vocab],
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
        let vocab = self.vocab_size();
        self.last_probs.clear();
        self.last_probs.resize(vocab, 1.0 / vocab as f32);
    }

    fn feed(&mut self, id: u32) {
        let probs = self.model.predict_into(&mut self.state, id, &mut self.ws);
        self.last_probs.copy_from_slice(probs);
    }

    fn predict(&self) -> Vec<f32> {
        self.last_probs.clone()
    }
}

/// A set of independent sample streams advancing through shared model
/// weights, the engine behind multi-stream batched sampling.
///
/// Streams are identified by their index `0..num_streams()`. The caller
/// drives them with [`feed_many`](StreamBatch::feed_many) (one character per
/// listed stream) and reads each stream's current next-character distribution
/// with [`probs_into`](StreamBatch::probs_into). A stream that has not been
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
    /// For each stream, its position in the most recent softmax set
    /// (`None` if not part of the last feed).
    probs_pos: Vec<Option<usize>>,
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
            probs_pos: vec![None; n],
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
        self.probs_pos[stream] = None;
        self.fed[stream] = false;
    }

    /// Panics if a stream is out of range or listed twice.
    fn feed_many(&mut self, pairs: &[(usize, u32)]) {
        if pairs.is_empty() {
            return;
        }
        // The probs buffer is about to be rewritten: streams not in this
        // batch fall back to recomputing from their untouched hidden state.
        self.probs_pos.fill(None);
        self.sel.clear();
        self.ids.clear();
        for (pos, &(stream, id)) in pairs.iter().enumerate() {
            assert!(stream < self.fed.len(), "stream {stream} out of range");
            assert!(
                self.probs_pos[stream].is_none(),
                "stream {stream} fed twice in one call"
            );
            self.probs_pos[stream] = Some(pos);
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

    fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
        out.clear();
        match self.probs_pos[stream] {
            Some(pos) => out.extend_from_slice(self.ws.probs_lane(pos)),
            None if self.fed[stream] => self.model.lane_distribution(&self.bs, stream, out),
            None => out.resize(self.vocab_size(), 1.0 / self.vocab_size() as f32),
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
            // The pass went through the shared probs buffer.
            self.probs_pos.fill(None);
            self.primed = Some((ids.to_vec(), state));
        }
        let (_, state) = self.primed.as_ref().expect("set above");
        self.bs.load_lane(stream, state);
        self.probs_pos[stream] = None;
        self.fed[stream] = !ids.is_empty();
    }
}

/// Multi-stream sampling over a shared [`NgramModel`]: every stream carries
/// only its rolling character history while the (potentially large) count
/// tables are borrowed, so spawning a batch costs nothing. Prediction per
/// stream is exactly [`NgramModel::predict`] over that history.
///
/// [`NgramModel`]: crate::ngram::NgramModel
/// [`NgramModel::predict`]: crate::lm::LanguageModel::predict
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

/// Sample an index from a probability distribution with a temperature
/// adjustment. Temperature 1.0 samples the distribution as-is; lower values
/// sharpen it (more deterministic), higher values flatten it.
pub fn sample_distribution(probs: &[f32], temperature: f32, rng: &mut StdRng) -> u32 {
    let mut weights = Vec::new();
    sample_distribution_with(probs, temperature, rng, &mut weights)
}

/// [`sample_distribution`] over a caller-provided weight buffer, so hot
/// sampling loops perform no per-character allocation. The draw (and RNG
/// consumption) is identical to [`sample_distribution`].
pub fn sample_distribution_with(
    probs: &[f32],
    temperature: f32,
    rng: &mut StdRng,
    weights: &mut Vec<f64>,
) -> u32 {
    assert!(!probs.is_empty());
    let temperature = temperature.max(1e-3);
    // Re-weight: p^(1/T), renormalise.
    weights.clear();
    weights.extend(
        probs
            .iter()
            .map(|&p| f64::from(p.max(1e-12)).powf(1.0 / f64::from(temperature))),
    );
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..probs.len()) as u32;
    }
    for w in weights.iter_mut() {
        *w /= total;
    }
    let mut draw: f64 = rng.gen();
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return i as u32;
        }
        draw -= w;
    }
    (probs.len() - 1) as u32
}

/// Greedy argmax over a distribution.
pub fn argmax(probs: &[f32]) -> u32 {
    probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i as u32)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::LstmConfig;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn stateful_lstm_roundtrip() {
        let lstm = LstmModel::new(LstmConfig::small(12));
        let mut wrapped = StatefulLstm::new(lstm);
        assert_eq!(wrapped.vocab_size(), 12);
        let uniform = wrapped.predict();
        assert!((uniform[0] - 1.0 / 12.0).abs() < 1e-6);
        wrapped.feed(3);
        let after = wrapped.predict();
        let sum: f32 = after.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        wrapped.reset();
        assert!((wrapped.predict()[0] - 1.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = vec![0.0, 0.9, 0.1, 0.0];
        let mut counts = [0usize; 4];
        for _ in 0..1000 {
            counts[sample_distribution(&probs, 1.0, &mut rng) as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 800);
        assert!(counts[2] > 20);
    }

    #[test]
    fn low_temperature_is_nearly_greedy() {
        let mut rng = StdRng::seed_from_u64(2);
        let probs = vec![0.3, 0.4, 0.3];
        let mut counts = [0usize; 3];
        for _ in 0..500 {
            counts[sample_distribution(&probs, 0.05, &mut rng) as usize] += 1;
        }
        assert!(
            counts[1] > 480,
            "low temperature should pick the mode almost always: {counts:?}"
        );
        assert_eq!(argmax(&probs), 1);
    }

    #[test]
    fn high_temperature_flattens() {
        let mut rng = StdRng::seed_from_u64(3);
        let probs = vec![0.05, 0.9, 0.05];
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[sample_distribution(&probs, 3.0, &mut rng) as usize] += 1;
        }
        // With a hot temperature the minority classes appear far more often
        // than their base probability would suggest.
        assert!(counts[0] + counts[2] > 400, "{counts:?}");
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
                let expect = reference.predict();
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
