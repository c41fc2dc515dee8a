//! Corpus assembly: mining → filtering → rewriting → a language corpus ready
//! for model training, plus the statistics reported in §4.1 of the paper.

use crate::content::{ContentFile, CorpusKernel};
use crate::filter::{filter_corpus, FilterConfig, FilterStats};
use crate::miner::{mine, mining_stats, MinerConfig, MiningStats};
use crate::rewriter::rewrite_file;
use clgen_wire::{Decoder, Encoder, WireError};
use std::collections::BTreeSet;

/// Version of the corpus wire block written by [`Corpus::encode_into`].
pub const CORPUS_WIRE_VERSION: u32 = 1;

/// A fully assembled language corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The per-kernel corpus entries (rewritten, canonical style).
    pub kernels: Vec<CorpusKernel>,
    /// Statistics gathered while building the corpus.
    pub stats: CorpusStats,
}

/// Statistics over the corpus construction pipeline, mirroring §4.1.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Repositories mined.
    pub repositories: usize,
    /// Raw content files mined.
    pub content_files: usize,
    /// Raw lines mined.
    pub raw_lines: usize,
    /// Content files accepted by the rejection filter.
    pub accepted_files: usize,
    /// Discard rate with the shim header enabled.
    pub discard_rate_with_shim: f64,
    /// Discard rate without the shim header (ablation).
    pub discard_rate_without_shim: f64,
    /// Number of distinct undeclared identifiers observed without the shim.
    pub distinct_undeclared_identifiers: usize,
    /// Fraction of undeclared-identifier occurrences covered by the most
    /// frequent 60 identifiers (the paper reports 50%).
    pub top60_undeclared_coverage: f64,
    /// Kernel functions in the final corpus.
    pub corpus_kernels: usize,
    /// Lines of code in the final corpus (rewritten).
    pub corpus_lines: usize,
    /// Distinct whitespace-delimited words before rewriting (bag-of-words
    /// vocabulary of accepted files).
    pub vocabulary_before: usize,
    /// Distinct words after rewriting.
    pub vocabulary_after: usize,
}

impl CorpusStats {
    /// Vocabulary reduction achieved by identifier rewriting
    /// (the paper reports 84%).
    pub fn vocabulary_reduction(&self) -> f64 {
        if self.vocabulary_before == 0 {
            0.0
        } else {
            1.0 - self.vocabulary_after as f64 / self.vocabulary_before as f64
        }
    }
}

/// Options for corpus construction.
#[derive(Debug, Clone, Default)]
pub struct CorpusOptions {
    /// Mining configuration.
    pub miner: MinerConfig,
    /// Filter configuration (shim on by default).
    pub filter: FilterConfig,
    /// Also run the no-shim filter to record the ablation discard rate.
    /// Disable to halve corpus construction time in tests.
    pub measure_no_shim_ablation: bool,
}

impl CorpusOptions {
    /// Options sized for unit tests.
    pub fn small(seed: u64) -> Self {
        CorpusOptions {
            miner: MinerConfig::small(seed),
            filter: FilterConfig::default(),
            measure_no_shim_ablation: false,
        }
    }
}

impl Corpus {
    /// Build a corpus by mining synthetic repositories and running the full
    /// filter + rewrite pipeline.
    pub fn build(options: &CorpusOptions) -> Corpus {
        let files = mine(&options.miner);
        Corpus::from_content_files(&files, options)
    }

    /// Build a corpus from pre-mined content files.
    pub fn from_content_files(files: &[ContentFile], options: &CorpusOptions) -> Corpus {
        let mining: MiningStats = mining_stats(files);
        let (verdicts, filter_stats) = filter_corpus(files, &options.filter);
        let no_shim_stats: Option<FilterStats> = if options.measure_no_shim_ablation {
            Some(filter_corpus(files, &FilterConfig::without_shim()).1)
        } else {
            None
        };

        let mut kernels = Vec::new();
        let mut corpus_lines = 0usize;
        let mut raw_words: BTreeSet<String> = BTreeSet::new();
        let mut rewritten_words: BTreeSet<String> = BTreeSet::new();
        for (file, verdict) in &verdicts {
            if !verdict.accepted() {
                continue;
            }
            for w in words(&file.text) {
                raw_words.insert(w);
            }
            let rewritten = rewrite_file(file, verdict);
            for k in &rewritten.kernels {
                for w in words(&k.source) {
                    rewritten_words.insert(w);
                }
                corpus_lines += k.source.lines().count();
            }
            kernels.extend(rewritten.kernels);
        }

        let undeclared_stats = no_shim_stats.as_ref().unwrap_or(&filter_stats);
        let mut undeclared_counts: Vec<usize> = undeclared_stats
            .undeclared_identifiers
            .values()
            .copied()
            .collect();
        undeclared_counts.sort_unstable_by(|a, b| b.cmp(a));
        let total_undeclared: usize = undeclared_counts.iter().sum();
        let top60: usize = undeclared_counts.iter().take(60).sum();
        let top60_coverage = if total_undeclared == 0 {
            0.0
        } else {
            top60 as f64 / total_undeclared as f64
        };

        let stats = CorpusStats {
            repositories: mining.repositories,
            content_files: mining.files,
            raw_lines: mining.lines,
            accepted_files: filter_stats.accepted,
            discard_rate_with_shim: filter_stats.discard_rate(),
            discard_rate_without_shim: no_shim_stats
                .as_ref()
                .map(FilterStats::discard_rate)
                .unwrap_or(f64::NAN),
            distinct_undeclared_identifiers: undeclared_stats.undeclared_identifiers.len(),
            top60_undeclared_coverage: top60_coverage,
            corpus_kernels: kernels.len(),
            corpus_lines,
            vocabulary_before: raw_words.len(),
            vocabulary_after: rewritten_words.len(),
        };
        Corpus { kernels, stats }
    }

    /// The concatenated corpus text used for language-model training: every
    /// kernel separated by a blank line, in a deterministic order.
    pub fn training_text(&self) -> String {
        let mut out = String::new();
        for k in &self.kernels {
            out.push_str(k.source.trim_end());
            out.push_str("\n\n");
        }
        out
    }

    /// Number of kernels in the corpus.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True if the corpus contains no kernels.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Iterate over corpus kernel sources.
    pub fn sources(&self) -> impl Iterator<Item = &str> {
        self.kernels.iter().map(|k| k.source.as_str())
    }

    /// Append this corpus (kernels + construction statistics) to a
    /// checkpoint as a versioned block.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.u32(CORPUS_WIRE_VERSION);
        enc.usize(self.kernels.len());
        for k in &self.kernels {
            enc.str(&k.source);
            enc.str(&k.repository);
            enc.usize(k.instructions);
        }
        let s = &self.stats;
        enc.usize(s.repositories);
        enc.usize(s.content_files);
        enc.usize(s.raw_lines);
        enc.usize(s.accepted_files);
        enc.f64(s.discard_rate_with_shim);
        enc.f64(s.discard_rate_without_shim);
        enc.usize(s.distinct_undeclared_identifiers);
        enc.f64(s.top60_undeclared_coverage);
        enc.usize(s.corpus_kernels);
        enc.usize(s.corpus_lines);
        enc.usize(s.vocabulary_before);
        enc.usize(s.vocabulary_after);
    }

    /// Decode a corpus written by [`Corpus::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Corpus, WireError> {
        let version = dec.u32()?;
        if version != CORPUS_WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: CORPUS_WIRE_VERSION,
            });
        }
        // Every kernel occupies at least two string length prefixes and its
        // instruction count.
        let count = dec.usize_bounded(24, "corpus kernel count")?;
        let mut kernels = Vec::with_capacity(count);
        for _ in 0..count {
            let source = dec.str()?.to_string();
            let repository = dec.str()?.to_string();
            let instructions = dec.usize("instruction count")?;
            kernels.push(CorpusKernel {
                source,
                repository,
                instructions,
            });
        }
        let stats = CorpusStats {
            repositories: dec.usize("repositories")?,
            content_files: dec.usize("content files")?,
            raw_lines: dec.usize("raw lines")?,
            accepted_files: dec.usize("accepted files")?,
            discard_rate_with_shim: dec.f64()?,
            discard_rate_without_shim: dec.f64()?,
            distinct_undeclared_identifiers: dec.usize("undeclared identifiers")?,
            top60_undeclared_coverage: dec.f64()?,
            corpus_kernels: dec.usize("corpus kernels")?,
            corpus_lines: dec.usize("corpus lines")?,
            vocabulary_before: dec.usize("vocabulary before")?,
            vocabulary_after: dec.usize("vocabulary after")?,
        };
        Ok(Corpus { kernels, stats })
    }
}

/// Split text into identifier-ish words (bag-of-words vocabulary).
fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            current.push(c);
        } else if !current.is_empty() {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_corpus() {
        let corpus = Corpus::build(&CorpusOptions::small(13));
        assert!(!corpus.is_empty(), "corpus should contain kernels");
        assert!(corpus.stats.accepted_files > 0);
        assert!(corpus.stats.corpus_kernels >= corpus.stats.accepted_files);
        assert!(corpus.stats.corpus_lines > 0);
        // every corpus kernel is standalone-compilable
        for src in corpus.sources() {
            assert!(
                cl_frontend::parse_and_check(src).is_ok(),
                "not self contained:\n{src}"
            );
        }
    }

    #[test]
    fn vocabulary_shrinks_after_rewriting() {
        let corpus = Corpus::build(&CorpusOptions::small(29));
        assert!(
            corpus.stats.vocabulary_after < corpus.stats.vocabulary_before,
            "rewriting should shrink the vocabulary: {} -> {}",
            corpus.stats.vocabulary_before,
            corpus.stats.vocabulary_after
        );
        assert!(corpus.stats.vocabulary_reduction() > 0.1);
    }

    #[test]
    fn training_text_is_nonempty_and_separated() {
        let corpus = Corpus::build(&CorpusOptions::small(5));
        let text = corpus.training_text();
        assert!(text.contains("__kernel"));
        assert!(text.contains("\n\n"));
    }

    #[test]
    fn ablation_records_both_discard_rates() {
        let mut options = CorpusOptions::small(41);
        options.miner.repositories = 30;
        options.measure_no_shim_ablation = true;
        let corpus = Corpus::build(&options);
        assert!(
            corpus.stats.discard_rate_with_shim <= corpus.stats.discard_rate_without_shim + 1e-9
        );
        assert!(corpus.stats.discard_rate_without_shim.is_finite());
    }

    #[test]
    fn corpus_wire_roundtrip() {
        let corpus = Corpus::build(&CorpusOptions::small(17));
        let mut enc = Encoder::new();
        corpus.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Corpus::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.len(), corpus.len());
        assert_eq!(back.training_text(), corpus.training_text());
        assert_eq!(back.stats.corpus_kernels, corpus.stats.corpus_kernels);
        assert_eq!(
            back.stats.discard_rate_with_shim.to_bits(),
            corpus.stats.discard_rate_with_shim.to_bits()
        );
    }

    #[test]
    fn words_tokenizer() {
        assert_eq!(words("int x_1 = y;"), vec!["int", "x_1", "y"]);
        assert_eq!(words(""), Vec::<String>::new());
    }
}
