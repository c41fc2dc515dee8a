//! Property-based tests for the neural substrate: probability outputs are
//! well-formed for arbitrary inputs and sampling stays in range.

use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_neural::ngram::{NgramConfig, NgramModel};
use clgen_neural::tensor::{softmax_in_place, Matrix};
use clgen_neural::{sample_logits, LanguageModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Softmax output is a probability distribution for any finite input.
    #[test]
    fn softmax_is_distribution(values in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
        let mut x = values;
        softmax_in_place(&mut x);
        let sum: f32 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3, "sum = {sum}");
        prop_assert!(x.iter().all(|p| *p >= 0.0 && *p <= 1.0 + 1e-6));
    }

    /// Temperature sampling always returns an index inside the distribution.
    #[test]
    fn sampling_in_range(
        logits in proptest::collection::vec(-8.0f32..8.0, 1..64),
        temperature in 0.05f32..3.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = sample_logits(&logits, temperature, &mut rng, &mut Vec::new());
        prop_assert!((idx as usize) < logits.len());
    }

    /// Matrix-vector multiplication is linear: A(x + y) = Ax + Ay.
    #[test]
    fn matvec_linearity(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::uniform(rows, cols, 1.0, &mut rng);
        let x: Vec<f32> = (0..cols).map(|i| (i as f32) * 0.5 - 1.0).collect();
        let y: Vec<f32> = (0..cols).map(|i| 2.0 - (i as f32) * 0.25).collect();
        let xy: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let matvec = |v: &[f32]| {
            let mut out = vec![0.0f32; rows];
            m.matvec_add(v, &mut out);
            out
        };
        let (lhs, ax, ay) = (matvec(&xy), matvec(&x), matvec(&y));
        for i in 0..rows {
            prop_assert!((lhs[i] - (ax[i] + ay[i])).abs() < 1e-4);
        }
    }

    /// The LSTM always emits a normalised distribution, whatever characters it
    /// is fed.
    #[test]
    fn lstm_output_normalised(inputs in proptest::collection::vec(0u32..20, 1..16)) {
        let model = LstmModel::new(LstmConfig { vocab_size: 20, hidden_size: 12, num_layers: 2, seed: 1 });
        let mut state = model.initial_state();
        for &c in &inputs {
            let probs = model.predict(&mut state, c);
            let sum: f32 = probs.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3);
        }
    }

    /// The n-gram model emits normalised distributions for arbitrary histories
    /// over arbitrary training data.
    #[test]
    fn ngram_output_normalised(
        data in proptest::collection::vec(0u32..30, 2..200),
        history in proptest::collection::vec(0u32..30, 0..12),
    ) {
        let mut model = NgramModel::train(&data, 30, NgramConfig { context: 4, smoothing_tenths: 1 });
        model.reset();
        for &c in &history {
            model.feed(c);
        }
        // The logits are `ln p`: their exponentials are the distribution.
        let mut logits = Vec::new();
        model.logits_into(&mut logits);
        prop_assert_eq!(logits.len(), 30);
        let sum: f32 = logits.iter().map(|z| z.exp()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-3, "sum = {sum}");
    }
}
