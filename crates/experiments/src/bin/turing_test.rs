//! §6.1: likeness of synthesized code to hand-written code.
//!
//! The paper runs a double-blind human study: 15 OpenCL developers judging
//! whether kernels are human- or machine-written. CLgen output is judged at
//! chance level (52% accuracy) while the CLSmith control group is spotted
//! almost always (96%). We cannot run a human study, so this binary trains a
//! *machine* judge — a decision tree over code-style features — under the
//! same protocol: if even a trained discriminator cannot separate CLgen code
//! from the (rewritten) human corpus while easily separating CLSmith, the
//! paper's qualitative finding is reproduced.

use clgen::{ArgumentSpec, ClgenBuilder, SamplerConfig};
use clsmith::ClsmithConfig;
use experiments::data::SAMPLE;
use experiments::{print_table, scaled, SyntheticConfig};
use predictive::{DecisionTree, TreeConfig};

/// Style features of one kernel source: argument count, loop count, arithmetic
/// density, identifier/character statistics — the kinds of "tells" a human
/// judge reads.
fn style_features(source: &str) -> Vec<f64> {
    let compiled = cl_frontend::compile(source, &Default::default());
    let counts = compiled
        .kernel_counts
        .first()
        .map(|(_, c)| *c)
        .unwrap_or_default();
    let args = compiled.kernels.first().map(|k| k.args.len()).unwrap_or(0);
    let chars = source.len() as f64;
    let lines = source.lines().count().max(1) as f64;
    let bitwise =
        source.matches('^').count() + source.matches('&').count() + source.matches(">>").count();
    let float_lits =
        source.matches("f;").count() + source.matches("f)").count() + source.matches("0f").count();
    vec![
        args as f64,
        counts.instructions as f64,
        counts.compute_ops as f64,
        counts.global_mem_accesses as f64,
        counts.local_mem_accesses as f64,
        counts.loops as f64,
        counts.branches as f64,
        counts.math_calls as f64,
        bitwise as f64,
        float_lits as f64,
        chars / lines,
        source.matches("get_global_id").count() as f64,
        source.matches("ulong").count() as f64,
    ]
}

/// Train/test a judge distinguishing `machine` sources (label 1) from `human`
/// sources (label 0); returns held-out accuracy.
fn judge_accuracy(human: &[String], machine: &[String]) -> f64 {
    let mut samples: Vec<(Vec<f64>, usize)> = Vec::new();
    for (i, src) in human.iter().enumerate() {
        let _ = i;
        samples.push((style_features(src), 0));
    }
    for src in machine {
        samples.push((style_features(src), 1));
    }
    // interleaved split: even indices train, odd test (deterministic, balanced)
    let train: Vec<_> = samples
        .iter()
        .cloned()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, s)| s)
        .collect();
    let test: Vec<_> = samples
        .iter()
        .cloned()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, s)| s)
        .collect();
    let tree = DecisionTree::train(
        &train,
        &TreeConfig {
            max_depth: 6,
            min_samples_split: 4,
            min_samples_leaf: 2,
        },
    );
    tree.accuracy(&test)
}

fn main() {
    let pool = scaled(100, 30);
    let synth_config = SyntheticConfig::default();
    eprintln!("building corpus and synthesizing {pool} CLgen kernels...");
    let stage = ClgenBuilder::with_options(synth_config.clgen.clone())
        .build_corpus()
        .expect("corpus construction failed");
    let model = stage.train().expect("model training failed");
    let sampler = model.sampler(
        SamplerConfig::new(synth_config.clgen.seed)
            .with_spec(ArgumentSpec::paper_default())
            .with_sample(SAMPLE)
            .with_max_attempts(pool * 30),
    );
    let report = sampler.synthesize(pool);
    let clgen_sources: Vec<String> = report.kernels.iter().map(|k| k.source.clone()).collect();
    // Human pool: rewritten kernels from the (GitHub-style) corpus, as in the
    // paper's study where all kernels were passed through the code rewriter.
    let human_sources: Vec<String> = stage
        .corpus()
        .sources()
        .take(pool)
        .map(str::to_string)
        .collect();
    let clsmith_sources: Vec<String> =
        clsmith::generate_population(3, pool, &ClsmithConfig::default())
            .into_iter()
            .map(|k| k.source)
            .collect();

    let clgen_accuracy = judge_accuracy(&human_sources, &clgen_sources);
    let clsmith_accuracy = judge_accuracy(&human_sources, &clsmith_sources);

    let rows = vec![
        vec![
            "CLgen vs hand-written".into(),
            format!("{:.0}%", clgen_accuracy * 100.0),
            "52% (chance)".into(),
        ],
        vec![
            "CLSmith vs hand-written (control)".into(),
            format!("{:.0}%", clsmith_accuracy * 100.0),
            "96%".into(),
        ],
    ];
    print_table(
        "§6.1 likeness to hand-written code (machine judge accuracy; 50% = indistinguishable)",
        &["comparison", "judge accuracy", "paper (human judges)"],
        &rows,
    );
    println!("\nCLgen code should be near chance; CLSmith should be easily identified.");
}
