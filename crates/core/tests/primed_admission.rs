//! Primed admission keeps the engine's reproducibility contract: a lane that
//! starts from the model's remembered post-seed state — admitted while other
//! lanes are mid-kernel, beside lanes that are reaped mid-step, under seed
//! texts that alternate — emits the bytes serial `sample_kernel` emits for
//! the same seed text, options and RNG seed. The same holds through a
//! `StreamBatch` that does not know `prime` exists (the benchmark's timing
//! wrapper forwards the six original methods and inherits the default).

use clgen::sampler::{sample_kernel, SampleOptions, SampledCandidate};
use clgen::BatchEngine;
use clgen_corpus::Vocabulary;
use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_neural::ngram::{NgramConfig, NgramModel};
use clgen_neural::{LanguageModel, LstmStreams, NgramStreams, StatefulLstm, StreamBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [&str; 2] = [
    "__kernel void A(__global float* a, const int b) {",
    "__kernel void A(__global int* a) {",
];
const LANES: usize = 5;
const CANDIDATES: u64 = 14;

fn corpus_text() -> String {
    format!(
        "{}\n  int c = get_global_id(0);\n  if (c < b) {{\n    a[c] = a[c] * 2.0f;\n  }}\n}}\n{}\n  a[0] += 1;\n}}\n",
        SEEDS[0], SEEDS[1]
    )
}

/// Forwards the six methods `StreamBatch` had before `prime`, and nothing
/// else.
struct SixMethods<'a>(Box<dyn StreamBatch + 'a>);

impl StreamBatch for SixMethods<'_> {
    fn vocab_size(&self) -> usize {
        self.0.vocab_size()
    }
    fn num_streams(&self) -> usize {
        self.0.num_streams()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn reset_stream(&mut self, stream: usize) {
        self.0.reset_stream(stream);
    }
    fn feed_many(&mut self, pairs: &[(usize, u32)]) {
        self.0.feed_many(pairs);
    }
    fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
        self.0.probs_into(stream, out);
    }
}

/// Candidate `i`'s seed text, options and RNG seed: mostly the first seed
/// text, every fourth candidate the other one, budgets that differ.
fn candidate(i: u64, base_seed: u64) -> (&'static str, SampleOptions, u64) {
    let options = SampleOptions {
        max_chars: 24 + 9 * (i as usize % 4),
        temperature: 0.8,
    };
    (
        SEEDS[usize::from(i % 4 == 3)],
        options,
        base_seed.wrapping_add(i * 7919),
    )
}

/// Run `CANDIDATES` candidates through an engine over `streams`: two lanes
/// start, every later round admits at most one more (so admissions land
/// mid-flight), and the candidates in `reaped` are aborted through the step
/// predicate four rounds in. Returns each surviving candidate by index.
fn run_engine(
    streams: &mut dyn StreamBatch,
    vocab: &Vocabulary,
    base_seed: u64,
    reaped: &[u64],
) -> Vec<Option<SampledCandidate>> {
    let mut results = vec![None; CANDIDATES as usize];
    let mut engine = BatchEngine::new(streams, vocab);
    let mut completed = Vec::new();
    let mut next = 0;
    let mut round = 0;
    loop {
        let mut budget = if round == 0 { 2 } else { 1 };
        while next < CANDIDATES && budget > 0 {
            let Some(lane) = engine.free_lane() else {
                break;
            };
            let (seed_text, options, rng_seed) = candidate(next, base_seed);
            assert!(engine
                .admit(lane, next, seed_text, options, rng_seed)
                .is_none());
            next += 1;
            budget -= 1;
        }
        if engine.occupied_lanes() == 0 {
            break;
        }
        engine.step_into_abortable(&mut completed, |ticket| {
            round >= 4 && reaped.contains(&ticket)
        });
        for (ticket, done) in completed.drain(..) {
            results[ticket as usize] = Some(done);
        }
        round += 1;
    }
    results
}

/// Every survivor equals serial sampling from a fresh `serial()` model.
fn assert_matches_serial<M: LanguageModel>(
    results: &[Option<SampledCandidate>],
    vocab: &Vocabulary,
    base_seed: u64,
    reaped: &[u64],
    serial: impl Fn() -> M,
) {
    for (i, result) in results.iter().enumerate() {
        if reaped.contains(&(i as u64)) {
            continue;
        }
        let (seed_text, options, rng_seed) = candidate(i as u64, base_seed);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let expect = sample_kernel(&mut serial(), vocab, seed_text, &options, &mut rng);
        assert_eq!(result.as_ref(), Some(&expect), "candidate {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn primed_lstm_engine_matches_serial_sampling(base_seed in any::<u64>()) {
        let vocab = Vocabulary::from_text(&corpus_text());
        let model = LstmModel::new(LstmConfig {
            vocab_size: vocab.len(),
            hidden_size: 16,
            num_layers: 2,
            seed: base_seed ^ 0x5A5A,
        });
        // Long budgets: the reaped candidates are still sampling in round 4.
        let reaped = [1, 2];
        let primed = run_engine(&mut LstmStreams::new(&model, LANES), &vocab, base_seed, &reaped);
        assert_matches_serial(&primed, &vocab, base_seed, &reaped, || {
            StatefulLstm::new(model.clone())
        });
        let mut unaware = SixMethods(Box::new(LstmStreams::new(&model, LANES)));
        prop_assert_eq!(run_engine(&mut unaware, &vocab, base_seed, &reaped), primed);
    }

    #[test]
    fn primed_ngram_engine_matches_serial_sampling(base_seed in any::<u64>()) {
        let text = corpus_text().repeat(3);
        let vocab = Vocabulary::from_text(&text);
        let model = NgramModel::train(&vocab.encode(&text), vocab.len(), NgramConfig::default());
        let reaped = [0];
        let primed = run_engine(&mut NgramStreams::new(&model, LANES), &vocab, base_seed, &reaped);
        assert_matches_serial(&primed, &vocab, base_seed, &reaped, || model.clone());
        let mut unaware = SixMethods(Box::new(NgramStreams::new(&model, LANES)));
        prop_assert_eq!(run_engine(&mut unaware, &vocab, base_seed, &reaped), primed);
    }
}
