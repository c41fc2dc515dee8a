//! `sample_logits` is the former draw up to rounding: the softmax of
//! `z / T` walked by one uniform picks the character that re-weighting the
//! T = 1 distribution by `p^(1/T)` in f64 picked, except where the uniform
//! lands within rounding of a cumulative boundary.

use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_neural::tensor::softmax_in_place;
use clgen_neural::{sample_logits, LanguageModel, StatefulLstm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The draw `sample_logits` replaced, kept here as its oracle: every
/// probability raised to `1/T` in f64, renormalised, walked by one uniform.
fn powf_draw(probs: &[f32], temperature: f32, rng: &mut StdRng) -> u32 {
    let temperature = temperature.max(1e-3);
    let weights: Vec<f64> = probs
        .iter()
        .map(|&p| f64::from(p.max(1e-12)).powf(1.0 / f64::from(temperature)))
        .collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..probs.len()) as u32;
    }
    let mut draw: f64 = rng.gen();
    for (i, w) in weights.iter().enumerate() {
        let w = w / total;
        if draw < w {
            return i as u32;
        }
        draw -= w;
    }
    (probs.len() - 1) as u32
}

#[test]
fn sample_logits_agrees_with_the_powf_draw() {
    const STEPS: usize = 5_000;
    const DRAWS_PER_STEP: u64 = 5;
    let mut lm = StatefulLstm::new(LstmModel::new(LstmConfig {
        vocab_size: 72,
        hidden_size: 64,
        num_layers: 2,
        seed: 35,
    }));
    let mut input = StdRng::seed_from_u64(7);
    let temperatures = [0.05f32, 0.5, 0.8, 1.0, 3.0];
    let mut agree = [0usize; 5];
    let (mut logits, mut scratch) = (Vec::new(), Vec::new());
    for step in 0..STEPS {
        lm.feed(input.gen_range(0..72));
        lm.logits_into(&mut logits);
        let mut probs = logits.clone();
        softmax_in_place(&mut probs);
        for (t, &temperature) in temperatures.iter().enumerate() {
            for k in 0..DRAWS_PER_STEP {
                let seed = (step as u64 * DRAWS_PER_STEP + k) ^ ((t as u64) << 40);
                let old = powf_draw(&probs, temperature, &mut StdRng::seed_from_u64(seed));
                let new = sample_logits(
                    &logits,
                    temperature,
                    &mut StdRng::seed_from_u64(seed),
                    &mut scratch,
                );
                agree[t] += usize::from(old == new);
            }
        }
    }
    let per_temperature = STEPS * DRAWS_PER_STEP as usize;
    for (temperature, agreed) in temperatures.iter().zip(agree) {
        assert!(
            agreed * 1000 >= per_temperature * 999,
            "T = {temperature}: {agreed} of {per_temperature} draws agree"
        );
    }
}
