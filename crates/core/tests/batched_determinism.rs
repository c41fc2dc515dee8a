//! The batched sampler's reproducibility contract: multi-stream batched
//! sampling produces **byte-identical** kernels to the same number of serial
//! `sample_kernel` calls given the same per-stream seeds. For the LSTM this
//! exercises the whole batched numeric stack (GEMM lanes, fused gates,
//! softmax transpose); for the n-gram baseline it exercises the per-stream
//! histories of `NgramStreams`.

use clgen::sampler::{sample_kernel, sample_kernels_batched, SampleOptions};
use clgen::{ArgumentSpec, ClgenBuilder, ClgenOptions, SamplerConfig, TrainedModel};
use clgen_corpus::Vocabulary;
use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_neural::ngram::{NgramConfig, NgramModel};
use clgen_neural::{LstmStreams, NgramStreams, StatefulLstm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED_TEXT: &str = "__kernel void A(__global float* a, __global float* b, const int c) {";

/// Corpus-like text whose characters define the vocabulary for the toy
/// models (must cover the seed text).
fn vocab_text() -> String {
    format!(
        "{SEED_TEXT}\n  int d = get_global_id(0);\n  if (d < c) {{\n    b[d] = a[d] + 1.0f;\n  }}\n}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// LSTM: batched multi-stream sampling == N serial runs, byte for byte.
    #[test]
    fn lstm_batched_sampling_is_byte_identical_to_serial(
        n in 1usize..9,
        base_seed in any::<u64>(),
        temperature in 0.5f32..1.5,
    ) {
        let text = vocab_text();
        let vocab = Vocabulary::from_text(&text);
        let model = LstmModel::new(LstmConfig {
            vocab_size: vocab.len(),
            hidden_size: 16,
            num_layers: 2,
            seed: base_seed ^ 0xA5A5,
        });
        let options = SampleOptions { max_chars: 96, temperature };
        let stream_seeds: Vec<u64> = (0..n as u64).map(|i| base_seed.wrapping_add(i * 7919)).collect();

        // Serial baseline: a fresh stateful model per stream, seeded RNG.
        let serial: Vec<_> = stream_seeds
            .iter()
            .map(|&s| {
                let mut stateful = StatefulLstm::new(model.clone());
                let mut rng = StdRng::seed_from_u64(s);
                sample_kernel(&mut stateful, &vocab, SEED_TEXT, &options, &mut rng)
            })
            .collect();

        // Batched multi-stream run over the shared weights.
        let mut streams = LstmStreams::new(&model, n);
        let batched = sample_kernels_batched(&mut streams, &vocab, SEED_TEXT, &options, &stream_seeds);

        prop_assert_eq!(batched.len(), serial.len());
        for (s, b) in serial.iter().zip(batched.iter()) {
            prop_assert_eq!(&s.text, &b.text, "sampled text diverged");
            prop_assert_eq!(s.stop, b.stop);
            prop_assert_eq!(s.generated_chars, b.generated_chars);
        }
    }

    /// N-gram baseline through `NgramStreams`: same contract.
    #[test]
    fn ngram_batched_sampling_is_byte_identical_to_serial(
        n in 1usize..7,
        base_seed in any::<u64>(),
    ) {
        let text = vocab_text().repeat(3);
        let vocab = Vocabulary::from_text(&text);
        let encoded = vocab.encode(&text);
        let model = NgramModel::train(&encoded, vocab.len(), NgramConfig::default());
        let options = SampleOptions { max_chars: 64, temperature: 0.9 };
        let stream_seeds: Vec<u64> = (0..n as u64).map(|i| base_seed.wrapping_mul(31).wrapping_add(i)).collect();

        let serial: Vec<_> = stream_seeds
            .iter()
            .map(|&s| {
                let mut m = model.clone();
                let mut rng = StdRng::seed_from_u64(s);
                sample_kernel(&mut m, &vocab, SEED_TEXT, &options, &mut rng)
            })
            .collect();

        let mut streams = NgramStreams::new(&model, n);
        let batched = sample_kernels_batched(&mut streams, &vocab, SEED_TEXT, &options, &stream_seeds);

        for (s, b) in serial.iter().zip(batched.iter()) {
            prop_assert_eq!(&s.text, &b.text);
            prop_assert_eq!(s.stop, b.stop);
        }
    }
}

/// The sampler-level determinism contract at paper-adjacent scale: batched
/// sampling through the packed, k-blocked (and, at hidden 512, row-parallel)
/// kernels stays byte-identical to serial sampling at hidden ∈ {64, 192,
/// 512} — the sizes straddling where the packed layout starts cutting
/// k-blocks and the kernels fan rows out. Budgets are tiny so the debug-mode
/// tier-1 run stays fast; the kernels' bitwise parity itself is exercised
/// exhaustively in `clgen-neural`'s `packed_parity` suite.
#[test]
fn lstm_batched_sampling_matches_serial_across_hidden_sweep() {
    let short_seed = "__kernel void A() {";
    let text = format!("{short_seed}\n  int b = 0;\n  b = b + 1;\n}}\n");
    let vocab = Vocabulary::from_text(&text);
    for (hidden, layers) in [(64usize, 2usize), (192, 2), (512, 1)] {
        let model = LstmModel::new(LstmConfig {
            vocab_size: vocab.len(),
            hidden_size: hidden,
            num_layers: layers,
            seed: 0x5EED ^ hidden as u64,
        });
        let options = SampleOptions {
            max_chars: 6,
            temperature: 0.9,
        };
        let stream_seeds = [11u64, 22];

        let serial: Vec<_> = stream_seeds
            .iter()
            .map(|&s| {
                let mut stateful = StatefulLstm::new(model.clone());
                let mut rng = StdRng::seed_from_u64(s);
                sample_kernel(&mut stateful, &vocab, short_seed, &options, &mut rng)
            })
            .collect();

        let mut streams = LstmStreams::new(&model, stream_seeds.len());
        let batched =
            sample_kernels_batched(&mut streams, &vocab, short_seed, &options, &stream_seeds);

        assert_eq!(batched.len(), serial.len());
        for (s, b) in serial.iter().zip(batched.iter()) {
            assert_eq!(s.text, b.text, "hidden={hidden}: sampled text diverged");
            assert_eq!(s.stop, b.stop, "hidden={hidden}");
            assert_eq!(s.generated_chars, b.generated_chars, "hidden={hidden}");
        }
    }
}

fn train(options: ClgenOptions) -> TrainedModel {
    ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus")
        .train()
        .expect("training")
}

/// The model and session configuration of the seed-404 synthesis tests.
fn seed_404() -> (TrainedModel, SamplerConfig) {
    let mut options = ClgenOptions::small(404);
    options.corpus.miner.repositories = 40;
    options.corpus.miner.files_per_repo = (1, 4);
    let config = SamplerConfig::new(404)
        .with_spec(ArgumentSpec::paper_default())
        .with_max_attempts(200);
    (train(options), config)
}

/// Batched synthesis end-to-end: deterministic for a fixed run seed, with
/// fully-consistent statistics and valid accepted kernels.
#[test]
fn synthesize_batched_is_deterministic_and_consistent() {
    let run = || {
        let (model, config) = seed_404();
        model.sampler(config).synthesize(5)
    };
    let report_a = run();
    let report_b = run();

    assert_eq!(
        report_a.stats, report_b.stats,
        "batched synthesis must be reproducible"
    );
    assert_eq!(report_a.kernels.len(), report_b.kernels.len());
    for (ka, kb) in report_a.kernels.iter().zip(report_b.kernels.iter()) {
        assert_eq!(ka.source, kb.source);
        assert_eq!(ka.raw, kb.raw);
    }

    assert!(report_a.stats.attempts <= 200, "the attempt cap is hard");
    assert_eq!(
        report_a.stats.accepted + report_a.stats.rejected.values().sum::<usize>(),
        report_a.stats.attempts,
        "every sampled candidate is accounted for"
    );
    assert_eq!(report_a.stats.accepted, report_a.kernels.len());
    assert!(
        !report_a.kernels.is_empty(),
        "expected acceptances from the small corpus"
    );
    for k in &report_a.kernels {
        assert!(k.source.contains("__kernel"));
        assert!(
            cl_frontend::parse_and_check(&k.source).is_ok(),
            "{}",
            k.source
        );
    }
}

/// What a session reports does not depend on how many lanes sample it:
/// `synthesize` returns the same kernels and statistics, and a stream the
/// same per-kernel statistics, at every width.
#[test]
fn synthesis_is_independent_of_lanes() {
    let (model, config) = seed_404();
    let at = |lanes: usize| model.sampler(config.clone().with_lanes(lanes));
    let reference = at(1).synthesize(5);
    let reference_stream: Vec<_> = at(1).stream().take(5).map(|k| k.stats).collect();
    assert_eq!(reference.kernels.len(), 5, "the seed-404 session finds 5");
    assert_eq!(reference.stats.accepted, 5);
    assert_eq!(
        reference.stats.attempts as u64,
        reference_stream[4].candidate_index + 1,
        "the report ends at the fifth acceptance"
    );
    for lanes in [3, 8, 16] {
        let report = at(lanes).synthesize(5);
        assert_eq!(report.stats, reference.stats, "lanes={lanes}: stats");
        assert_eq!(report.kernels.len(), reference.kernels.len());
        for (k, r) in report.kernels.iter().zip(&reference.kernels) {
            assert_eq!(k.source, r.source, "lanes={lanes}: source");
            assert_eq!(k.raw, r.raw, "lanes={lanes}: raw");
        }
        let stream: Vec<_> = at(lanes).stream().take(5).map(|k| k.stats).collect();
        assert_eq!(stream, reference_stream, "lanes={lanes}: kernel stats");
    }
}

/// What a session reports does not depend on how many threads sample it
/// either: a stream steps one engine per rayon thread (at most one per
/// lane), and `synthesize` and the stream's per-kernel statistics are the
/// same at every thread count and lane count.
#[test]
fn synthesis_is_independent_of_sampling_threads() {
    let (model, config) = seed_404();
    let run = |threads: usize, lanes: usize| {
        rayon::with_num_threads(threads, || {
            let sampler = model.sampler(config.clone().with_lanes(lanes));
            let report = sampler.synthesize(5);
            let stream: Vec<_> = sampler.stream().take(5).map(|k| k.stats).collect();
            (report, stream)
        })
    };
    let (reference, reference_stream) = run(1, 1);
    assert_eq!(reference.kernels.len(), 5, "the seed-404 session finds 5");
    for threads in [1, 2, 3] {
        for lanes in [1, 3, 16] {
            let (report, stream) = run(threads, lanes);
            let at = format!("threads={threads} lanes={lanes}");
            assert_eq!(report.stats, reference.stats, "{at}: stats");
            assert_eq!(report.kernels.len(), reference.kernels.len(), "{at}");
            for (k, r) in report.kernels.iter().zip(&reference.kernels) {
                assert_eq!(k.source, r.source, "{at}: source");
                assert_eq!(k.raw, r.raw, "{at}: raw");
            }
            assert_eq!(stream, reference_stream, "{at}: kernel stats");
        }
    }
}

/// A pull leaves no sampling thread behind: a stream on two engines returns
/// its first kernel, then drops with candidates still in its lanes.
#[test]
fn a_stream_dropped_after_one_pull_returns_and_drops() {
    let (model, config) = seed_404();
    rayon::with_num_threads(2, || {
        let mut stream = model.sampler(config.with_lanes(16)).stream();
        let first = stream.next().expect("the seed-404 session finds a kernel");
        assert_eq!(stream.stats().accepted, 1);
        assert_eq!(
            stream.stats().attempts as u64,
            first.stats.candidate_index + 1
        );
        drop(stream);
    });
}

/// The batched LSTM driver end-to-end (tiny model): we only require it runs,
/// accounts for every candidate, and respects the attempt cap.
#[test]
fn synthesize_batched_lstm_backend_runs() {
    use clgen::ModelBackend;
    use clgen_neural::train::TrainConfig;

    let mut options = ClgenOptions::small(3);
    options.corpus.miner.repositories = 6;
    options.backend = ModelBackend::Lstm {
        hidden_size: 32,
        num_layers: 1,
        train: TrainConfig {
            epochs: 1,
            learning_rate: 0.05,
            decay_factor: 0.9,
            decay_every: 2,
            unroll: 32,
            clip_norm: 5.0,
            batch_size: 1,
        },
    };
    let model = train(options);
    let sampler = model.sampler(
        SamplerConfig::new(3)
            .with_spec(ArgumentSpec::paper_default())
            .with_sample(SampleOptions {
                max_chars: 150,
                temperature: 0.8,
            })
            .with_max_attempts(24),
    );
    let report = sampler.synthesize(2);
    assert!(report.stats.attempts >= 8 && report.stats.attempts <= 24);
    // The report ends exactly at the second acceptance, or at the cap.
    let found: Vec<_> = sampler.stream().take(2).collect();
    let expected = match found.get(1) {
        Some(second) => second.stats.candidate_index as usize + 1,
        None => 24,
    };
    assert_eq!(report.stats.attempts, expected);
    assert_eq!(
        report.stats.accepted + report.stats.rejected.values().sum::<usize>(),
        report.stats.attempts
    );
}
