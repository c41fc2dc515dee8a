//! The sampling stage: [`Sampler`] sessions over a [`TrainedModel`] and the
//! lazy, pull-based [`SynthesisStream`] they expose.
//!
//! A `SynthesisStream` is an iterator over accepted kernels. Internally it
//! runs the batched production pipeline of the synthesizer: rounds of
//! candidates advance through the model's multi-stream sampler (continuous
//! batching keeps the batched GEMM at full width), and each finished round is
//! handed to a rejection-filter worker thread that fans out over the rayon
//! pool — so filtering of round `k` overlaps with sampling of round `k + 1`.
//! The stream stays lazy at the granularity of rounds: nothing is sampled
//! until the consumer pulls, and at most [`PIPELINE_DEPTH`] rounds are ever
//! in flight.
//!
//! Every accepted kernel carries [`KernelStats`] — what it cost to find it —
//! and the stream accumulates whole-run [`SynthesisStats`]; both are kept by
//! [`absorb_candidate`], the one tally this stream and the synthesis
//! service's scheduler share.

use crate::model::TrainedModel;
use crate::sampler::{sample_kernels_batched, SampleOptions, SampledCandidate, StopReason};
use crate::spec::{ArgumentSpec, FREE_SEED};
use crate::synthesizer::{SynthesisReport, SynthesisStats, SynthesizedKernel};
use clgen_corpus::filter::{filter_source, FilterConfig};
use clgen_corpus::rewriter::rewrite_unit_to_kernels;
use clgen_corpus::{RejectReason, Vocabulary};
use clgen_neural::StreamBatch;
use rayon::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;

/// Candidates assigned per lane per round of batched synthesis.
/// Oversubscribing the lanes lets continuous batching keep the batched GEMM
/// at full width even as individual kernels finish at different lengths; the
/// cost is coarser stopping granularity (overshoot is bounded by the
/// in-flight rounds).
pub(crate) const ROUND_OVERSUBSCRIPTION: usize = 4;

/// Maximum sampled-but-unfiltered rounds in flight: round `k` filters on the
/// worker thread while round `k + 1` samples on the caller's thread.
pub const PIPELINE_DEPTH: usize = 2;

/// Derive the RNG seed of sample stream `index` from the run seed
/// (SplitMix64 finaliser: well-distributed, deterministic, independent of
/// batch size).
///
/// This derivation is shared by every consumer of the batched sampler — the
/// [`SynthesisStream`] rounds here and the per-request candidate streams of
/// the synthesis service — so candidate `index` of a given run seed samples
/// identically no matter which driver dispatched it.
pub fn stream_seed(run_seed: u64, index: u64) -> u64 {
    let mut z = run_seed
        ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x5EED_CAFE);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one source text through the rejection filter, returning the formatted
/// kernel if accepted (the `raw` and `repaired` fields are filled in by the
/// caller).
fn accept_source(filter: &FilterConfig, text: &str) -> Result<SynthesizedKernel, RejectReason> {
    let verdict = filter_source(text, filter);
    verdict.decision?;
    // Re-format through the corpus rewriter so the output is in the
    // same canonical style as the training corpus.
    let rewritten = rewrite_unit_to_kernels(verdict.compile.unit.clone(), "clgen", 0);
    let kernel = rewritten
        .kernels
        .into_iter()
        .max_by_key(|k| k.instructions)
        .ok_or(RejectReason::NoKernel)?;
    Ok(SynthesizedKernel {
        source: kernel.source,
        raw: String::new(),
        instructions: kernel.instructions,
        repaired: false,
    })
}

/// Run one candidate through the rejection filter, returning the formatted
/// kernel if accepted. Pure function of the candidate text and filter
/// configuration, so batches of candidates can be filtered on worker threads
/// while the synthesizer keeps sampling — the [`SynthesisStream`] pipeline
/// and the synthesis service both fan this out over the rayon pool.
///
/// Two resilient-frontend policies live here, both pure functions of the
/// candidate bytes (so batched ≡ serial and thread-count invariance survive):
///
/// * candidates aborted mid-sampling by the incremental validator
///   ([`StopReason::Hopeless`]) short-circuit to
///   [`RejectReason::AbortedMidstream`] without compiling — the validator
///   already proved no repair can save them cheaply;
/// * candidates the filter rejects are offered to
///   [`cl_frontend::repair_candidates`] and every *changed* proposal is
///   re-verified through the full filter; the first proposal to pass is
///   accepted with [`SynthesizedKernel::repaired`] set. The original
///   rejection reason is reported when no proposal passes.
///
/// Corpus mining never reaches this function (it filters complete mined
/// files through `filter_source` directly), so repair cannot inflate corpus
/// acceptance statistics.
pub fn filter_candidate(
    filter: &FilterConfig,
    candidate: &SampledCandidate,
) -> Result<SynthesizedKernel, RejectReason> {
    if candidate.stop == StopReason::Hopeless {
        return Err(RejectReason::AbortedMidstream);
    }
    let first_rejection = match accept_source(filter, &candidate.text) {
        Ok(mut kernel) => {
            kernel.raw = candidate.text.clone();
            return Ok(kernel);
        }
        Err(reason) => reason,
    };
    for proposal in cl_frontend::repair_candidates(&candidate.text) {
        if !proposal.changed() {
            continue;
        }
        if let Ok(mut kernel) = accept_source(filter, &proposal.text) {
            kernel.raw = candidate.text.clone();
            kernel.repaired = true;
            return Ok(kernel);
        }
    }
    Err(first_rejection)
}

/// Configuration of a [`Sampler`] session.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Per-candidate sampling parameters (length budget, temperature).
    pub sample: SampleOptions,
    /// Argument specification constraining the kernel signature; `None`
    /// samples in free mode.
    pub spec: Option<ArgumentSpec>,
    /// Sample-stream lanes advanced together through the model's batched
    /// path. 1 degrades gracefully to serial sampling.
    pub lanes: usize,
    /// Run seed: candidate `i` of the session draws its characters from a
    /// deterministic function of this seed and `i`.
    pub seed: u64,
    /// Hard cap on candidates sampled across the session (`None` = no cap;
    /// the stream then only ends when the consumer stops pulling).
    pub max_attempts: Option<usize>,
    /// Rejection-filter configuration. The default requires synthesized code
    /// to stand alone: no shim header, the paper's minimum of 3 static
    /// instructions.
    pub filter: FilterConfig,
}

impl SamplerConfig {
    /// The default session configuration for a given run seed.
    pub fn new(seed: u64) -> SamplerConfig {
        SamplerConfig {
            sample: SampleOptions::default(),
            spec: None,
            lanes: 8,
            seed,
            max_attempts: None,
            filter: FilterConfig::without_shim(),
        }
    }

    /// Constrain sampled kernels to an argument specification.
    pub fn with_spec(mut self, spec: ArgumentSpec) -> SamplerConfig {
        self.spec = Some(spec);
        self
    }

    /// Set the per-candidate sampling parameters.
    pub fn with_sample(mut self, sample: SampleOptions) -> SamplerConfig {
        self.sample = sample;
        self
    }

    /// Set the number of batched sample lanes (clamped to at least 1).
    pub fn with_lanes(mut self, lanes: usize) -> SamplerConfig {
        self.lanes = lanes.max(1);
        self
    }

    /// Cap the total candidates sampled by the session.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> SamplerConfig {
        self.max_attempts = Some(max_attempts);
        self
    }
}

/// What it cost to find one accepted kernel: the candidates consumed since
/// the previous accepted kernel (or the start of the stream), inclusive of
/// the accepted one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Candidates sampled for this kernel (rejected ones plus the accept).
    pub attempts: usize,
    /// Characters generated across those candidates.
    pub generated_chars: usize,
    /// 1 if the accepted kernel passed the filter only after deterministic
    /// repair, 0 otherwise (aggregates to [`SynthesisStats::repaired`]).
    pub repaired: usize,
    /// Rejections by reason among those candidates (mid-sampling aborts
    /// under [`RejectReason::AbortedMidstream`]).
    pub rejected: HashMap<RejectReason, usize>,
    /// Zero-based index of the accepted candidate in the session's sample
    /// sequence (its RNG stream is a deterministic function of the run seed
    /// and this index).
    pub candidate_index: u64,
}

/// One accepted kernel pulled from a [`SynthesisStream`], with the per-kernel
/// cost of finding it.
#[derive(Debug, Clone)]
pub struct StreamedKernel {
    /// The accepted, canonically formatted kernel.
    pub kernel: SynthesizedKernel,
    /// What it cost to find.
    pub stats: KernelStats,
}

/// Fold one filtered candidate into a run's `totals` and into the cost
/// `window` open since the previous accepted kernel. An acceptance closes the
/// window: it is returned with the kernel, stamped with `candidate_index`
/// (the candidate's position in its run's sample sequence), and a fresh one
/// starts. Candidates must arrive in sample order.
pub fn absorb_candidate(
    totals: &mut SynthesisStats,
    window: &mut KernelStats,
    candidate_index: u64,
    generated_chars: usize,
    verdict: Result<SynthesizedKernel, RejectReason>,
) -> Option<StreamedKernel> {
    totals.attempts += 1;
    totals.generated_chars += generated_chars;
    window.attempts += 1;
    window.generated_chars += generated_chars;
    match verdict {
        Ok(kernel) => {
            let repaired = usize::from(kernel.repaired);
            totals.accepted += 1;
            totals.repaired += repaired;
            let stats = KernelStats {
                repaired,
                candidate_index,
                ..std::mem::take(window)
            };
            Some(StreamedKernel { kernel, stats })
        }
        Err(reason) => {
            *totals.rejected.entry(reason).or_insert(0) += 1;
            *window.rejected.entry(reason).or_insert(0) += 1;
            None
        }
    }
}

/// A sampling session over a [`TrainedModel`].
///
/// The sampler owns the session configuration and opens pull-based
/// [`SynthesisStream`]s; the convenience driver
/// [`synthesize`](Sampler::synthesize) collects a stream into the classic
/// [`SynthesisReport`].
#[derive(Debug)]
pub struct Sampler<'m> {
    model: &'m TrainedModel,
    config: SamplerConfig,
}

impl<'m> Sampler<'m> {
    pub(crate) fn new(model: &'m TrainedModel, config: SamplerConfig) -> Sampler<'m> {
        Sampler { model, config }
    }

    /// The session configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Open a lazy stream of accepted kernels. Nothing is sampled until the
    /// first pull.
    pub fn stream(&self) -> SynthesisStream<'m> {
        SynthesisStream::new(self.model, self.config.clone())
    }

    /// Pull kernels until `target` have been accepted or the session's
    /// attempt cap is exhausted, returning the classic report. Candidates
    /// already sampled when the target is reached are fully accounted (the
    /// report can therefore exceed `target` by up to the in-flight rounds).
    pub fn synthesize(&self, target: usize) -> SynthesisReport {
        let mut stream = self.stream();
        let mut report = SynthesisReport::default();
        while report.kernels.len() < target {
            match stream.next() {
                Some(k) => report.kernels.push(k.kernel),
                None => break,
            }
        }
        for k in stream.drain_ready() {
            report.kernels.push(k.kernel);
        }
        report.stats = stream.stats().clone();
        report
    }
}

type FilteredBatch = Vec<(SampledCandidate, Result<SynthesizedKernel, RejectReason>)>;

/// A lazy, pull-based iterator over accepted kernels (see the module docs
/// for the pipeline it runs internally).
///
/// The stream ends (`None`) when the session's attempt cap is exhausted;
/// without a cap it is unbounded and the consumer decides when to stop.
/// Dropping the stream shuts the filter worker down cleanly.
///
/// Determinism: for a given model and configuration, the sequence of
/// accepted kernels and the final statistics are independent of thread
/// scheduling (rounds are absorbed in dispatch order,
/// and per-candidate RNG streams are derived, never shared).
pub struct SynthesisStream<'m> {
    streams: Box<dyn StreamBatch + 'm>,
    vocab: &'m Vocabulary,
    seed_text: String,
    sample: SampleOptions,
    run_seed: u64,
    round_size: usize,
    /// Candidates the session may still dispatch.
    budget: usize,
    /// Next candidate index (global across the session).
    next_candidate: u64,
    /// Rounds dispatched to the filter worker but not yet absorbed.
    in_flight: usize,
    batch_tx: Option<mpsc::Sender<Vec<SampledCandidate>>>,
    result_rx: mpsc::Receiver<FilteredBatch>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// Accepted kernels absorbed but not yet pulled.
    ready: VecDeque<StreamedKernel>,
    stats: SynthesisStats,
    /// Per-kernel accumulation since the last accepted kernel.
    window: KernelStats,
}

impl<'m> SynthesisStream<'m> {
    fn new(model: &'m TrainedModel, config: SamplerConfig) -> Self {
        let lanes = config.lanes.max(1);
        let seed_text = match &config.spec {
            Some(spec) => spec.seed_text(),
            None => FREE_SEED.to_string(),
        };
        let (batch_tx, batch_rx) = mpsc::channel::<Vec<SampledCandidate>>();
        let (result_tx, result_rx) = mpsc::channel::<FilteredBatch>();
        let filter = config.filter.clone();
        // Filter stage: each incoming batch fans out over the rayon worker
        // pool; result order inside a batch follows candidate order, and
        // batches complete in dispatch order (single worker, FIFO channels).
        let worker = std::thread::spawn(move || {
            while let Ok(batch) = batch_rx.recv() {
                let filtered: FilteredBatch = batch
                    .into_par_iter()
                    .map(|candidate| {
                        let verdict = filter_candidate(&filter, &candidate);
                        (candidate, verdict)
                    })
                    .collect();
                if result_tx.send(filtered).is_err() {
                    break;
                }
            }
        });
        SynthesisStream {
            streams: model.streams(lanes),
            vocab: model.vocabulary(),
            seed_text,
            sample: config.sample,
            run_seed: config.seed,
            round_size: lanes * ROUND_OVERSUBSCRIPTION,
            budget: config.max_attempts.unwrap_or(usize::MAX),
            next_candidate: 0,
            in_flight: 0,
            batch_tx: Some(batch_tx),
            result_rx,
            worker: Some(worker),
            ready: VecDeque::new(),
            stats: SynthesisStats::default(),
            window: KernelStats::default(),
        }
    }

    /// Whole-run statistics over every candidate absorbed so far.
    pub fn stats(&self) -> &SynthesisStats {
        &self.stats
    }

    /// True if the session's attempt cap still allows sampling.
    pub fn can_sample(&self) -> bool {
        self.budget > 0
    }

    /// Sample one round of candidates and hand it to the filter worker.
    fn dispatch_round(&mut self) {
        let n = self.round_size.min(self.budget);
        debug_assert!(n > 0);
        let seeds: Vec<u64> = (0..n as u64)
            .map(|i| stream_seed(self.run_seed, self.next_candidate + i))
            .collect();
        self.next_candidate += n as u64;
        self.budget -= n;
        let candidates = sample_kernels_batched(
            self.streams.as_mut(),
            self.vocab,
            &self.seed_text,
            &self.sample,
            &seeds,
        );
        let tx = self
            .batch_tx
            .as_ref()
            .expect("filter worker is alive while the stream is");
        tx.send(candidates).expect("filter worker hung up early");
        self.in_flight += 1;
    }

    /// Receive one filtered round and fold it into stats and the ready queue.
    fn absorb_one(&mut self) {
        let batch = self.result_rx.recv().expect("filter worker hung up early");
        self.in_flight -= 1;
        // Rounds are absorbed in dispatch order, so a candidate's index is
        // the count absorbed before it.
        for (candidate, verdict) in batch {
            let index = self.stats.attempts as u64;
            debug_assert!(index < self.next_candidate);
            self.ready.extend(absorb_candidate(
                &mut self.stats,
                &mut self.window,
                index,
                candidate.generated_chars,
                verdict,
            ));
        }
    }

    /// Absorb every in-flight round and return all ready kernels without
    /// sampling anything new. After this, `stats()` accounts for every
    /// candidate ever dispatched.
    pub fn drain_ready(&mut self) -> Vec<StreamedKernel> {
        while self.in_flight > 0 {
            self.absorb_one();
        }
        self.ready.drain(..).collect()
    }
}

impl Iterator for SynthesisStream<'_> {
    type Item = StreamedKernel;

    fn next(&mut self) -> Option<StreamedKernel> {
        loop {
            if let Some(kernel) = self.ready.pop_front() {
                return Some(kernel);
            }
            if self.in_flight == 0 && !self.can_sample() {
                return None;
            }
            // Keep the pipeline primed (sampling of the next round overlaps
            // filtering of the previous one), then absorb the oldest round.
            while self.in_flight < PIPELINE_DEPTH && self.can_sample() {
                self.dispatch_round();
            }
            self.absorb_one();
        }
    }
}

impl Drop for SynthesisStream<'_> {
    fn drop(&mut self) {
        // Closing the batch channel ends the worker's receive loop; the
        // result channel is unbounded, so pending sends cannot block it.
        drop(self.batch_tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
