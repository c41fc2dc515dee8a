//! Quickstart: run the staged CLgen pipeline — build a corpus, train a
//! model, open a sampling session, stream synthesized OpenCL benchmarks and
//! execute one through the host driver.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cldrive::{DriverOptions, HostDriver, Platform};
use clgen::{ArgumentSpec, ClgenBuilder, ClgenOptions, SamplerConfig};

fn main() {
    // 1. Corpus stage: mine the synthetic GitHub population, filter and
    //    rewrite it, derive the character vocabulary.
    println!("building corpus (small configuration)...");
    let mut options = ClgenOptions::small(42);
    options.corpus.miner.repositories = 60;
    let stage = ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus construction failed");
    println!(
        "corpus: {} kernels, vocabulary of {} characters",
        stage.corpus().len(),
        stage.vocabulary().len()
    );

    // 2. Training stage: fit the configured language model (n-gram default).
    println!("training the language model...");
    let model = stage.train().expect("model training failed");

    // 3. Sampling stage: open a session constrained by the paper's argument
    //    specification — three float arrays and a read-only integer
    //    (Figure 6) — and pull kernels lazily from the synthesis stream.
    let sampler = model.sampler(
        SamplerConfig::new(42)
            .with_spec(ArgumentSpec::paper_default())
            .with_max_attempts(500),
    );
    let mut kernels = Vec::new();
    for accepted in sampler.stream().take(5) {
        println!(
            "\n--- synthesized kernel {} ({} static instructions, {} attempts to find) ---",
            kernels.len(),
            accepted.kernel.instructions,
            accepted.stats.attempts
        );
        println!("{}", accepted.kernel.source.trim());
        kernels.push(accepted.kernel);
    }
    println!("\nsynthesized {} kernels", kernels.len());

    // 4. Execute the first kernel with the host driver on the AMD platform
    //    and report which device the analytic models prefer.
    if let Some(kernel) = kernels.first() {
        let driver = HostDriver::with_options(Platform::amd(), DriverOptions::quick());
        match driver.run_source(&kernel.source, &[4096, 1 << 20]) {
            Ok(runs) => {
                println!("\nhost driver results (AMD platform):");
                for run in runs {
                    println!(
                        "  global size {:>8}: cpu {:.3} ms, gpu {:.3} ms -> best: {:?}",
                        run.global_size,
                        run.cpu_time * 1e3,
                        run.gpu_time * 1e3,
                        run.oracle()
                    );
                }
            }
            Err(e) => println!("\ndriver could not execute the kernel: {e}"),
        }
    }
}
