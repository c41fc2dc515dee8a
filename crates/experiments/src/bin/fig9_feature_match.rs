//! Figure 9: the number of kernels whose static code features exactly match a
//! benchmark kernel, as a function of how many kernels are taken from each
//! source (GitHub-style corpus, CLSmith, CLgen).
//!
//! The paper finds that more than a third of 10,000 CLgen kernels match a
//! benchmark's static features while only 0.53% of CLSmith kernels do, and
//! the GitHub corpus is finite. The reproduction checks the ordering
//! CLgen >> CLSmith and CLgen ~ GitHub at equal counts.

use clgen::{ArgumentSpec, ClgenBuilder, SamplerConfig};
use clsmith::ClsmithConfig;
use experiments::data::{static_features_of_sources, SAMPLE};
use experiments::{print_table, scaled, SyntheticConfig};
use std::collections::HashSet;
use suites::all_benchmarks;

fn match_count(
    features: &[grewe_features::StaticFeatures],
    benchmark_keys: &HashSet<(u64, u64, u64, u64, u64)>,
) -> usize {
    features
        .iter()
        .filter(|f| benchmark_keys.contains(&f.match_key_with_branches()))
        .count()
}

fn main() {
    // Static feature keys (including the branch feature, §8.3) of the benchmarks.
    let benchmark_sources: Vec<String> =
        all_benchmarks().iter().map(|b| b.source.clone()).collect();
    let benchmark_features =
        static_features_of_sources(benchmark_sources.iter().map(String::as_str));
    let benchmark_keys: HashSet<_> = benchmark_features
        .iter()
        .map(|f| f.match_key_with_branches())
        .collect();
    eprintln!(
        "{} benchmark kernels, {} distinct feature keys",
        benchmark_features.len(),
        benchmark_keys.len()
    );

    let total = scaled(1000, 100);
    let checkpoints: Vec<usize> = vec![total / 10, total / 4, total / 2, total];

    // CLgen kernels, through the staged pipeline.
    let synth_config = SyntheticConfig::default();
    let stage = ClgenBuilder::with_options(synth_config.clgen.clone())
        .build_corpus()
        .expect("corpus construction failed");
    let model = stage.train().expect("model training failed");
    eprintln!("sampling {total} CLgen kernels...");
    let sampler = model.sampler(
        SamplerConfig::new(synth_config.clgen.seed)
            .with_spec(ArgumentSpec::paper_default())
            .with_sample(SAMPLE)
            .with_max_attempts(total * 30),
    );
    let clgen_report = sampler.synthesize(total);
    let clgen_features =
        static_features_of_sources(clgen_report.kernels.iter().map(|k| k.source.as_str()));

    // CLSmith kernels.
    eprintln!("generating {total} CLSmith kernels...");
    let clsmith_kernels = clsmith::generate_population(0xC15, total, &ClsmithConfig::default());
    let clsmith_features =
        static_features_of_sources(clsmith_kernels.iter().map(|k| k.source.as_str()));

    // "GitHub" corpus kernels (the synthetic miner population, rewritten).
    eprintln!("building GitHub-style corpus...");
    let github_features = static_features_of_sources(stage.corpus().sources());

    let mut rows = Vec::new();
    for &n in &checkpoints {
        let clgen_n = match_count(
            &clgen_features[..n.min(clgen_features.len())],
            &benchmark_keys,
        );
        let clsmith_n = match_count(
            &clsmith_features[..n.min(clsmith_features.len())],
            &benchmark_keys,
        );
        let github_n = match_count(
            &github_features[..n.min(github_features.len())],
            &benchmark_keys,
        );
        rows.push(vec![
            n.to_string(),
            format!(
                "{github_n} ({} kernels available)",
                github_features.len().min(n)
            ),
            clsmith_n.to_string(),
            clgen_n.to_string(),
        ]);
    }
    print_table(
        "Figure 9: kernels with static features matching a benchmark, by source",
        &["#kernels sampled", "GitHub", "CLSmith", "CLgen"],
        &rows,
    );
    let clgen_rate =
        match_count(&clgen_features, &benchmark_keys) as f64 / clgen_features.len().max(1) as f64;
    let clsmith_rate = match_count(&clsmith_features, &benchmark_keys) as f64
        / clsmith_features.len().max(1) as f64;
    println!(
        "\nMatch rates: CLgen {:.1}%, CLSmith {:.2}% (paper: >33% vs 0.53%).",
        clgen_rate * 100.0,
        clsmith_rate * 100.0
    );
    println!(
        "GitHub corpus is finite ({} kernels); CLgen sampling is unbounded.",
        github_features.len()
    );
}
