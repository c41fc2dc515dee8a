//! The corpus pipeline in isolation: mine synthetic repositories, watch the
//! rejection filter and shim header at work, and inspect the code rewriter's
//! output on a single content file (the paper's Figure 5 walkthrough).
//!
//! ```bash
//! cargo run --release --example corpus_pipeline
//! ```

use clgen_corpus::filter::{filter_source, FilterConfig};
use clgen_corpus::rewriter::process_content_file;
use clgen_corpus::{ContentFile, Corpus, CorpusOptions, MinerConfig};

fn main() {
    // 1. The Figure 5 walkthrough: a hand-written saxpy content file with
    //    macros, comments and descriptive identifiers...
    let content = ContentFile::new(
        "github.com/example/project",
        "kernels/saxpy.cl",
        r#"#define DTYPE float
#define ALPHA(a) 3.5f * a
inline DTYPE ax(DTYPE x) { return ALPHA(x); }

__kernel void saxpy(/* SAXPY kernel */
    __global DTYPE* input1,
    __global DTYPE* input2,
    const int nelem)
{
  unsigned int idx = get_global_id(0);
  // = ax + y
  if (idx < nelem) {
    input2[idx] += ax(input1[idx]); }}
"#,
    );
    println!("--- raw content file ---\n{}", content.text);
    let rewritten = process_content_file(&content, &FilterConfig::default()).expect("accepted");
    println!("--- after rejection filter + code rewriting (Figure 5b) ---");
    for kernel in &rewritten.kernels {
        println!("{}", kernel.source.trim());
    }

    // 2. The shim header in action: device code relying on host-side typedefs.
    let needs_shim = "__kernel void scale(__global FLOAT_T* data, const int n) {\n  int i = get_global_id(0);\n  if (i < n) { data[i] *= 2.0f + WG_SIZE; }\n}";
    let without = filter_source(needs_shim, &FilterConfig::without_shim());
    let with = filter_source(needs_shim, &FilterConfig::default());
    println!(
        "\nshim header demo: without shim accepted = {}, with shim accepted = {}",
        without.accepted(),
        with.accepted()
    );

    // 3. Corpus-scale statistics (a small run of the §4.1 numbers).
    println!("\nbuilding a corpus from 80 synthetic repositories...");
    let options = CorpusOptions {
        miner: MinerConfig {
            repositories: 80,
            files_per_repo: (1, 6),
            seed: 7,
        },
        measure_no_shim_ablation: true,
        ..Default::default()
    };
    let corpus = Corpus::build(&options);
    let s = &corpus.stats;
    println!("  content files:        {}", s.content_files);
    println!(
        "  discard rate no shim: {:.1}%",
        s.discard_rate_without_shim * 100.0
    );
    println!(
        "  discard rate w/ shim: {:.1}%",
        s.discard_rate_with_shim * 100.0
    );
    println!("  corpus kernels:       {}", s.corpus_kernels);
    println!(
        "  vocabulary reduction: {:.0}%",
        s.vocabulary_reduction() * 100.0
    );
}
