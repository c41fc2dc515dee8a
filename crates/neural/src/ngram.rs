//! Back-off character n-gram language model.
//!
//! This is not part of the paper's pipeline — the paper uses only the LSTM —
//! but serves two purposes in the reproduction:
//!
//! 1. an *ablation baseline* for the "deep learning vs simpler language model"
//!    design choice, and
//! 2. a compute-feasible stand-in when experiments need thousands of accepted
//!    synthesis samples and the CPU budget does not allow training a large
//!    LSTM (the paper spent three GPU-weeks on theirs). A high-order
//!    character n-gram with back-off models the corpus distribution closely
//!    enough to exercise the identical sampling, rejection-filtering and
//!    driver pipeline.

use crate::lm::LanguageModel;
use std::collections::HashMap;

/// One back-off order's count table: context ids → next-character counts.
pub(crate) type NgramTable = HashMap<Vec<u32>, HashMap<u32, u32>>;

/// Hyper-parameters for the n-gram model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NgramConfig {
    /// Maximum context length in characters (order = context + 1).
    pub context: usize,
    /// Additive (Laplace) smoothing mass spread over the vocabulary at the
    /// shortest context, expressed in tenths to keep the type `Eq`-friendly.
    pub smoothing_tenths: u32,
}

impl Default for NgramConfig {
    fn default() -> Self {
        NgramConfig {
            context: 8,
            smoothing_tenths: 1,
        }
    }
}

/// A back-off character n-gram model.
#[derive(Debug, Clone)]
pub struct NgramModel {
    config: NgramConfig,
    vocab_size: usize,
    /// For each context length 1..=context, a map from the context string
    /// (encoded ids) to next-character counts.
    tables: Vec<HashMap<Vec<u32>, HashMap<u32, u32>>>,
    /// Unigram counts.
    unigrams: Vec<u32>,
    /// Rolling history used by the stateful [`LanguageModel`] interface.
    history: Vec<u32>,
}

impl NgramModel {
    /// Train an n-gram model on an encoded corpus.
    pub fn train(data: &[u32], vocab_size: usize, config: NgramConfig) -> NgramModel {
        assert!(vocab_size > 0);
        let mut tables: Vec<HashMap<Vec<u32>, HashMap<u32, u32>>> =
            vec![HashMap::new(); config.context];
        let mut unigrams = vec![0u32; vocab_size];
        for (idx, &c) in data.iter().enumerate() {
            unigrams[c as usize % vocab_size] += 1;
            for ctx_len in 1..=config.context {
                if idx < ctx_len {
                    continue;
                }
                let ctx = data[idx - ctx_len..idx].to_vec();
                *tables[ctx_len - 1]
                    .entry(ctx)
                    .or_default()
                    .entry(c)
                    .or_insert(0) += 1;
            }
        }
        NgramModel {
            config,
            vocab_size,
            tables,
            unigrams,
            history: Vec::new(),
        }
    }

    /// Reassemble a model from decoded checkpoint parts (crate-internal; the
    /// public path is the checkpoint codec).
    pub(crate) fn from_parts(
        config: NgramConfig,
        vocab_size: usize,
        tables: Vec<NgramTable>,
        unigrams: Vec<u32>,
    ) -> NgramModel {
        NgramModel {
            config,
            vocab_size,
            tables,
            unigrams,
            history: Vec::new(),
        }
    }

    /// The per-order count tables (index `k` holds contexts of length `k+1`).
    pub(crate) fn tables(&self) -> &[NgramTable] {
        &self.tables
    }

    /// The unigram counts.
    pub(crate) fn unigrams(&self) -> &[u32] {
        &self.unigrams
    }

    /// Number of distinct contexts stored at the maximum order.
    pub fn context_count(&self) -> usize {
        self.tables.last().map(HashMap::len).unwrap_or(0)
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> NgramConfig {
        self.config
    }

    /// Distribution over the next character given an explicit history.
    pub fn distribution_for(&self, history: &[u32]) -> Vec<f32> {
        let mut dist = Vec::new();
        self.distribution_into(history, &mut dist);
        dist
    }

    /// [`distribution_for`](NgramModel::distribution_for) into a
    /// caller-provided buffer, so hot sampling loops (the multi-stream
    /// sampler queries one distribution per stream per character) perform no
    /// per-step allocation. The computed values are identical to
    /// [`distribution_for`](NgramModel::distribution_for).
    pub fn distribution_into(&self, history: &[u32], out: &mut Vec<f32>) {
        // Back off from the longest matching context to shorter ones; fall back
        // to smoothed unigrams.
        let max_ctx = self.config.context.min(history.len());
        for ctx_len in (1..=max_ctx).rev() {
            let ctx = &history[history.len() - ctx_len..];
            if let Some(counts) = self.tables[ctx_len - 1].get(ctx) {
                let total: u32 = counts.values().sum();
                if total > 0 {
                    out.clear();
                    out.resize(self.vocab_size, 0.0);
                    for (&c, &n) in counts {
                        out[c as usize % self.vocab_size] = n as f32 / total as f32;
                    }
                    return;
                }
            }
        }
        // Unigram fallback with additive smoothing.
        let alpha = self.config.smoothing_tenths as f32 / 10.0;
        let total: f32 =
            self.unigrams.iter().map(|&n| n as f32).sum::<f32>() + alpha * self.vocab_size as f32;
        out.clear();
        out.extend(
            self.unigrams
                .iter()
                .map(|&n| (n as f32 + alpha) / total.max(1e-9)),
        );
    }
}

impl LanguageModel for NgramModel {
    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn reset(&mut self) {
        self.history.clear();
    }

    fn feed(&mut self, id: u32) {
        self.history.push(id);
        let keep = self.config.context;
        if self.history.len() > keep {
            let excess = self.history.len() - keep;
            self.history.drain(..excess);
        }
    }

    /// `ln p`: the n-gram has counts, not logits.
    fn logits_into(&self, out: &mut Vec<f32>) {
        self.distribution_into(&self.history, out);
        for v in out.iter_mut() {
            *v = v.ln();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::LanguageModel;

    fn encode(s: &str) -> (Vec<u32>, usize) {
        // simple local encoding: byte value as id
        (s.bytes().map(u32::from).collect(), 128)
    }

    #[test]
    fn learns_deterministic_continuations() {
        let (data, vocab) = encode("abcabcabcabcabcabc");
        let model = NgramModel::train(
            &data,
            vocab,
            NgramConfig {
                context: 3,
                smoothing_tenths: 1,
            },
        );
        let dist = model.distribution_for(&encode("ab").0);
        let argmax = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax as u8 as char, 'c');
    }

    #[test]
    fn backs_off_for_unseen_context() {
        let (data, vocab) = encode("hello hello hello");
        let model = NgramModel::train(&data, vocab, NgramConfig::default());
        // Unseen context: still returns a valid distribution (unigram backoff).
        let dist = model.distribution_for(&encode("zzzz").0);
        let sum: f32 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(dist.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn stateful_interface_tracks_history() {
        let (data, vocab) = encode("xyxyxyxyxy");
        let mut model = NgramModel::train(
            &data,
            vocab,
            NgramConfig {
                context: 2,
                smoothing_tenths: 1,
            },
        );
        model.reset();
        model.feed(u32::from(b'x'));
        // The argmax of the logits (`ln p`) is the distribution's.
        let mut logits = Vec::new();
        model.logits_into(&mut logits);
        let argmax = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax as u8 as char, 'y');
        assert_eq!(model.vocab_size(), vocab);
    }

    #[test]
    fn distribution_sums_to_one_at_all_orders() {
        let (data, vocab) = encode("__kernel void A(__global float* a) { a[0] = 1.0f; }");
        let model = NgramModel::train(
            &data,
            vocab,
            NgramConfig {
                context: 6,
                smoothing_tenths: 1,
            },
        );
        for history in ["", "_", "__ker", "float* a", "unseen!!"] {
            let dist = model.distribution_for(&encode(history).0);
            let sum: f32 = dist.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-3,
                "history {history:?} sums to {sum}"
            );
        }
    }

    #[test]
    fn distribution_into_matches_distribution_for_bitwise() {
        let (data, vocab) = encode("__kernel void A(__global float* a) { a[0] = 1.0f; }");
        let model = NgramModel::train(&data, vocab, NgramConfig::default());
        let mut buf = vec![9.0f32; 3]; // stale contents must be fully replaced
        for history in ["", "_", "__ker", "float* a", "unseen!!"] {
            let expect = model.distribution_for(&encode(history).0);
            model.distribution_into(&encode(history).0, &mut buf);
            assert_eq!(buf.len(), expect.len());
            for (a, b) in buf.iter().zip(expect.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn context_count_grows_with_data() {
        let (small, vocab) = encode("abcd");
        let (large, _) = encode("abcdefghijklmnopqrstuvwxyz0123456789");
        let m_small = NgramModel::train(&small, vocab, NgramConfig::default());
        let m_large = NgramModel::train(&large, vocab, NgramConfig::default());
        assert!(m_large.context_count() > m_small.context_count());
    }
}
