//! Integration tests for the repair/abort policies of `filter_candidate`:
//! repaired acceptances always re-pass the full filter, hopeless candidates
//! short-circuit to `AbortedMidstream`, and both serial and batched sampling
//! apply the identical mid-kernel abort.

use clgen::stream::filter_candidate;
use clgen::synthesizer::{ModelBackend, SynthesizedKernel};
use clgen::{
    ClgenBuilder, ClgenOptions, SampleOptions, SampledCandidate, SamplerConfig, StopReason,
};
use clgen_corpus::filter::{filter_source, FilterConfig};
use clgen_corpus::RejectReason;

/// The synthesis-path filter: standalone code, paper's instruction minimum.
fn synthesis_filter() -> FilterConfig {
    FilterConfig::without_shim()
}

fn candidate(text: &str) -> SampledCandidate {
    SampledCandidate {
        text: text.to_string(),
        stop: StopReason::MaxLength,
        generated_chars: text.len(),
    }
}

const COMPLETE: &str = "__kernel void A(__global float* a, __global float* b, const int c) {
  int d = get_global_id(0);
  if (d < c) {
    b[d] = a[d] + b[d];
  }
}";

/// Every truncation point of a valid kernel either rejects or accepts; when
/// it accepts via repair, the accepted source re-passes the full filter and
/// the raw text is preserved. At least one truncation point must be saved by
/// repair (the whole point of the module).
#[test]
fn repaired_acceptances_repass_the_full_filter() {
    let filter = synthesis_filter();
    let mut repaired_accepts = 0usize;
    for (cut, _) in COMPLETE.char_indices().chain([(COMPLETE.len(), ' ')]) {
        let truncated = &COMPLETE[..cut];
        match filter_candidate(&filter, &candidate(truncated)) {
            Ok(kernel) => {
                assert_eq!(kernel.raw, truncated, "raw text preserved");
                assert!(
                    filter_source(&kernel.source, &filter).decision.is_ok(),
                    "accepted source must re-pass the filter at cut {cut}:\n{}",
                    kernel.source
                );
                if kernel.repaired {
                    repaired_accepts += 1;
                    // The raw text alone must NOT pass — repair made the
                    // difference, it didn't just re-confirm.
                    assert!(
                        filter_source(truncated, &filter).decision.is_err(),
                        "repaired=true but raw already passed at cut {cut}"
                    );
                }
            }
            Err(reason) => {
                assert_ne!(
                    reason,
                    RejectReason::AbortedMidstream,
                    "prefixes of a valid kernel are never hopeless (cut {cut})"
                );
            }
        }
    }
    assert!(
        repaired_accepts >= 3,
        "expected several truncation points to be saved by repair, got {repaired_accepts}"
    );
}

/// A candidate the incremental validator aborted mid-sampling is rejected as
/// `AbortedMidstream` without a repair attempt, even if its text happens to
/// be repairable.
#[test]
fn hopeless_candidates_short_circuit() {
    let filter = synthesis_filter();
    let mut hopeless = candidate("__kernel void A() { a[0] = )); }");
    hopeless.stop = StopReason::Hopeless;
    assert_eq!(
        filter_candidate(&filter, &hopeless),
        Err(RejectReason::AbortedMidstream)
    );
}

/// Unrepairable garbage keeps its original rejection reason (the repair
/// attempt is transparent when no proposal passes).
#[test]
fn unrepairable_candidates_keep_their_reason() {
    let filter = synthesis_filter();
    assert_eq!(
        filter_candidate(&filter, &candidate("this is not opencl")),
        Err(RejectReason::CompileError)
    );
}

/// The mid-sampling abort is applied identically by the serial and batched
/// samplers: same run seed, same candidates, byte-identical texts and stop
/// reasons — and the stream's accounting keeps `accepted + rejected ==
/// attempts` with repairs counted inside the accepts.
#[test]
fn stream_accounting_holds_with_repair_and_abort() {
    let mut options = ClgenOptions::small(17);
    options.corpus.miner.repositories = 40;
    options.backend = ModelBackend::default();
    let model = ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus builds")
        .train()
        .expect("training succeeds");
    let sampler = model.sampler(
        SamplerConfig::new(17)
            .with_sample(SampleOptions {
                max_chars: 512,
                temperature: 1.1,
            })
            .with_lanes(4)
            .with_max_attempts(160),
    );
    let report = sampler.synthesize(usize::MAX);
    let stats = &report.stats;
    assert_eq!(stats.attempts, 160);
    assert_eq!(
        stats.accepted + stats.rejected.values().sum::<usize>(),
        stats.attempts,
        "outcomes must partition attempts: {stats:?}"
    );
    assert!(
        stats.repaired <= stats.accepted,
        "repaired accepts are a subset of accepts: {stats:?}"
    );
    let repaired_kernels = report
        .kernels
        .iter()
        .filter(|k: &&SynthesizedKernel| k.repaired)
        .count();
    assert_eq!(stats.repaired, repaired_kernels);
    for k in &report.kernels {
        assert!(
            cl_frontend::parse_and_check(&k.source).is_ok(),
            "every accepted kernel (repaired or not) is valid:\n{}",
            k.source
        );
    }
}
