//! Model sampling (Algorithm 1 of the paper).
//!
//! A candidate kernel is produced by seeding the language model with the start
//! of a kernel definition and sampling character by character, tracking the
//! brace depth of the emitted text, until the kernel's closing brace is
//! reached or a maximum length is exceeded.

use crate::engine::BatchEngine;
use cl_frontend::PrefixValidator;
use clgen_corpus::Vocabulary;
use clgen_neural::{sample_distribution_with, LanguageModel, StreamBatch};
use rand::rngs::StdRng;

/// Sampling parameters ("synthesis parameters" in Figure 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleOptions {
    /// Maximum number of characters to generate after the seed.
    pub max_chars: usize,
    /// Sampling temperature (1.0 = model distribution).
    pub temperature: f32,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions {
            max_chars: 2048,
            temperature: 0.9,
        }
    }
}

/// Why sampling of one candidate stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The function's closing brace was reached (depth returned to zero).
    ClosedKernel,
    /// The maximum character budget was exhausted first.
    MaxLength,
    /// The incremental prefix validator proved the candidate unrecoverable
    /// (stray closing delimiter, illegal character, unterminated literal,
    /// pathological nesting) and sampling was aborted mid-kernel. The verdict
    /// is a pure function of the candidate's bytes, so serial and batched
    /// sampling abort at the identical character.
    Hopeless,
}

/// A raw sampled candidate (before rejection filtering).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCandidate {
    /// The complete sampled text (seed + generated characters).
    pub text: String,
    /// Why sampling stopped.
    pub stop: StopReason,
    /// Number of characters generated (excluding the seed).
    pub generated_chars: usize,
}

/// Sample one candidate kernel from `model`, seeded with `seed`
/// (Algorithm 1).
///
/// The model is reset, fed the seed, and then sampled one character at a time.
/// Brace depth starts at the depth implied by the seed (normally 1, because
/// the seed ends with the kernel's opening `{`) and sampling stops when it
/// returns to zero.
pub fn sample_kernel(
    model: &mut dyn LanguageModel,
    vocab: &Vocabulary,
    seed: &str,
    options: &SampleOptions,
    rng: &mut StdRng,
) -> SampledCandidate {
    model.reset();
    let mut text = String::with_capacity(seed.len() + options.max_chars);
    let mut depth: i32 = 0;
    // The incremental validator sees every character the candidate text sees
    // (seed included), so its hopelessness verdict is a pure function of the
    // candidate bytes — identical in this serial path and the batched engine.
    let mut validator = PrefixValidator::new();
    // Feed the seed.
    for c in seed.chars() {
        model.feed(vocab.encode_char(c));
        text.push(c);
        validator.feed(c);
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
    }
    let mut generated = 0usize;
    let mut stop = StopReason::MaxLength;
    let mut weights = Vec::new();
    while generated < options.max_chars {
        let probs = model.predict();
        let id = sample_distribution_with(&probs, options.temperature, rng, &mut weights);
        let c = vocab.decode_char(id);
        model.feed(id);
        text.push(c);
        generated += 1;
        validator.feed(c);
        if validator.is_hopeless() {
            // Damage no suffix can undo: stop paying for this candidate.
            stop = StopReason::Hopeless;
            break;
        }
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth <= 0 {
                    stop = StopReason::ClosedKernel;
                    break;
                }
            }
            _ => {}
        }
    }
    SampledCandidate {
        text,
        stop,
        generated_chars: generated,
    }
}

/// Sample one candidate kernel per entry of `stream_seeds`, advancing up to
/// `streams.num_streams()` candidates in lock-step through the model's
/// batched path (Algorithm 1, multi-stream, with continuous batching).
///
/// Candidate `i` draws its characters from
/// `StdRng::seed_from_u64(stream_seeds[i])`. There may be more candidates
/// than streams: each stream is a *lane*, and as soon as a lane's candidate
/// finishes, the lane is refilled with the next pending candidate
/// (continuous batching, via [`BatchEngine`]), so the batch stays at full
/// width until the work runs out, and steps at the width the live lanes
/// fill while it drains. A refilled lane does not feed its seed prefix
/// again: the engine [`prime`](StreamBatch::prime)s it, so the model runs
/// `seed` once per `streams` and every candidate starts generating from
/// the remembered post-seed state in its first round.
///
/// Determinism guarantee: the result is **byte-identical** to
/// `stream_seeds.len()` serial [`sample_kernel`] calls over the same model,
/// each with a fresh model state and the corresponding candidate RNG —
/// batching and lane scheduling change throughput, never output. (For
/// [`LstmStreams`] this rests on the batched GEMM's bitwise equivalence to
/// serial matrix-vector products; see `clgen_neural::tensor`.)
///
/// [`LstmStreams`]: clgen_neural::LstmStreams
///
/// # Panics
///
/// Panics if `streams` has no lanes.
pub fn sample_kernels_batched(
    streams: &mut dyn StreamBatch,
    vocab: &Vocabulary,
    seed: &str,
    options: &SampleOptions,
    stream_seeds: &[u64],
) -> Vec<SampledCandidate> {
    let total = stream_seeds.len();
    assert!(streams.num_streams() > 0, "need at least one sample stream");
    streams.reset();
    let mut engine = BatchEngine::new(streams, vocab);

    let mut results: Vec<Option<SampledCandidate>> = (0..total).map(|_| None).collect();
    let mut next_candidate = 0usize;
    let mut completed: Vec<(u64, SampledCandidate)> = Vec::new();
    loop {
        // Continuous batching: refill every free lane with the next pending
        // candidate before advancing, so the batch stays at full width until
        // the work runs out.
        while next_candidate < total {
            let Some(lane) = engine.free_lane() else {
                break;
            };
            let ticket = next_candidate as u64;
            if let Some(done) =
                engine.admit(lane, ticket, seed, *options, stream_seeds[next_candidate])
            {
                // Zero-budget candidates complete at admission.
                results[next_candidate] = Some(done);
            }
            next_candidate += 1;
        }
        if engine.occupied_lanes() == 0 {
            break;
        }
        engine.step_into(&mut completed);
        for (ticket, candidate) in completed.drain(..) {
            results[ticket as usize] = Some(candidate);
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every candidate completes before the sampler returns"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A deterministic fake model that always continues with a fixed string,
    /// character by character, regardless of history.
    struct ScriptedModel {
        vocab: Vocabulary,
        script: Vec<char>,
        pos: usize,
    }

    impl ScriptedModel {
        fn new(vocab: &Vocabulary, script: &str) -> ScriptedModel {
            ScriptedModel {
                vocab: vocab.clone(),
                script: script.chars().collect(),
                pos: 0,
            }
        }
    }

    impl LanguageModel for ScriptedModel {
        fn vocab_size(&self) -> usize {
            self.vocab.len()
        }
        fn reset(&mut self) {
            self.pos = 0;
        }
        fn feed(&mut self, _id: u32) {}
        fn predict(&self) -> Vec<f32> {
            let mut dist = vec![0.0f32; self.vocab.len()];
            let c = self
                .script
                .get(self.pos.min(self.script.len() - 1))
                .copied()
                .unwrap_or('}');
            dist[self.vocab.encode_char(c) as usize] = 1.0;
            dist
        }
    }

    // The scripted model needs its position advanced as characters are drawn;
    // wrap it so `feed` advances the script only after the seed has been fed.
    struct AdvancingScripted {
        inner: ScriptedModel,
        seed_len: usize,
        fed: usize,
    }

    impl LanguageModel for AdvancingScripted {
        fn vocab_size(&self) -> usize {
            self.inner.vocab_size()
        }
        fn reset(&mut self) {
            self.inner.reset();
            self.fed = 0;
        }
        fn feed(&mut self, id: u32) {
            self.fed += 1;
            if self.fed > self.seed_len {
                self.inner.pos += 1;
            }
            self.inner.feed(id);
        }
        fn predict(&self) -> Vec<f32> {
            self.inner.predict()
        }
    }

    #[test]
    fn stops_at_closing_brace_with_depth_tracking() {
        let body = "\n  int e = get_global_id(0);\n  if (e < d) {\n    c[e] = a[e] + b[e];\n  }\n}";
        let seed = "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {";
        let all_text = format!("{seed}{body} extra text that must not be sampled");
        let vocab = Vocabulary::from_text(&all_text);
        let mut model = AdvancingScripted {
            inner: ScriptedModel::new(&vocab, &all_text[seed.len()..]),
            seed_len: seed.chars().count(),
            fed: 0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let out = sample_kernel(
            &mut model,
            &vocab,
            seed,
            &SampleOptions::default(),
            &mut rng,
        );
        assert_eq!(out.stop, StopReason::ClosedKernel);
        assert!(out.text.ends_with('}'), "{}", out.text);
        assert!(!out.text.contains("extra text"));
        // The inner `if` block's closing brace must not terminate sampling.
        assert!(out.text.contains("c[e] = a[e] + b[e];"));
    }

    #[test]
    fn respects_max_length() {
        let seed = "__kernel void A() {";
        let filler = "x = x + 1; ".repeat(50);
        let text = format!("{seed}{filler}");
        let vocab = Vocabulary::from_text(&text);
        let mut model = AdvancingScripted {
            inner: ScriptedModel::new(&vocab, &filler),
            seed_len: seed.chars().count(),
            fed: 0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let options = SampleOptions {
            max_chars: 40,
            temperature: 1.0,
        };
        let out = sample_kernel(&mut model, &vocab, seed, &options, &mut rng);
        assert_eq!(out.stop, StopReason::MaxLength);
        assert_eq!(out.generated_chars, 40);
    }
}
