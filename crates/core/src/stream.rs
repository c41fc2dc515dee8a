//! The sampling stage: [`Sampler`] sessions over a [`TrainedModel`] and the
//! lazy, pull-based [`SynthesisStream`] they expose.
//!
//! A `SynthesisStream` is an iterator over accepted kernels, and a
//! single-request instance of the synthesis service's scheduler that samples
//! on every core. It splits its `lanes` over `K = min(threads, lanes)`
//! [`BatchEngine`]s — one per rayon thread, 16 lanes on 2 threads as 8 + 8 —
//! and keeps them alive across pulls. A pull steps engine 0 on the caller's
//! thread and engines `1..K` on scoped helper threads; every engine admits
//! candidates into its lanes the moment they free up (continuous batching
//! keeps each batched GEMM at full width) and hands finished candidates to
//! the rejection-filter stage ([`spawn_filter_stage`]), whose own thread
//! filters them while sampling goes on. The caller absorbs the verdicts and
//! the pull returns as soon as the next kernel in candidate order is
//! accepted: the helpers finish their step and are joined, so no thread
//! outlives a pull and nothing is sampled until the consumer pulls. At
//! `K = 1` no thread is spawned.
//!
//! Both drivers keep a run's books in a [`Session`]: which candidate goes out
//! next, how many may be outstanding, and the in-order tally of filter
//! verdicts into per-kernel [`KernelStats`] and whole-run
//! [`SynthesisStats`]. A stream's engines share its one session behind a
//! lock, taken to dispatch a candidate or deliver verdicts. Verdicts are
//! absorbed in candidate order and absorption stops at the session's target,
//! and a candidate's bytes depend only on its index, never on the engine
//! that ran it, so what a run reports is a pure function of the model, the
//! configuration and the seed — never of `lanes`, of the thread count or of
//! thread timing.

use crate::engine::BatchEngine;
use crate::model::TrainedModel;
use crate::sampler::{SampleOptions, SampledCandidate, StopReason};
use crate::spec::{ArgumentSpec, FREE_SEED};
use crate::synthesizer::{SynthesisReport, SynthesisStats, SynthesizedKernel};
use clgen_corpus::filter::{filter_source, FilterConfig};
use clgen_corpus::rewriter::rewrite_unit_to_kernels;
use clgen_corpus::RejectReason;
use clgen_neural::StreamBatch;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Candidates a [`Session`] may keep outstanding — dispatched but not yet
/// absorbed — per kernel it still waits for, counting at most two kernels per
/// lane. Running ahead keeps lanes busy while earlier candidates filter; the
/// cap keeps one session from holding more than `8 × lanes` candidates.
const OVERSUBSCRIPTION: usize = 4;

/// Derive the RNG seed of sample stream `index` from the run seed
/// (SplitMix64 finaliser: well-distributed, deterministic, independent of
/// batch size).
///
/// Every [`Session`] dispatches its candidates with this derivation — a
/// [`SynthesisStream`] and each request of the synthesis service alike — so
/// candidate `index` of a given run seed samples identically no matter which
/// driver dispatched it.
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
/// configuration, so candidates can be filtered on another thread while the
/// synthesizer keeps sampling — the [`SynthesisStream`] and the
/// synthesis service both run it in their [`spawn_filter_stage`].
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
    /// Candidates sampled at once: the lanes of the model's batched path,
    /// split over one engine per rayon thread (at most one per lane), each
    /// stepping its share as one batch. 1 degrades gracefully to serial
    /// sampling.
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

/// One candidate's filter verdict, as [`spawn_filter_stage`] delivers it.
#[derive(Debug)]
pub struct Filtered {
    /// The ticket the candidate was sent to the stage with.
    pub ticket: u64,
    /// Characters the candidate generated.
    pub generated_chars: usize,
    /// The accepted kernel, or why the candidate was rejected.
    pub verdict: Result<SynthesizedKernel, RejectReason>,
    /// Wall-clock cost of the verdict (µs).
    pub filter_us: u64,
}

/// Finished candidates on their way to the filter stage, each with its
/// ticket.
pub type FilterBatch = Vec<(u64, SampledCandidate)>;

/// Spawn the rejection-filter stage of a sampling driver: a thread that takes
/// batches from the returned sender, runs each batch's verdicts in order, and
/// hands them, in batch order, to `deliver` — until the sender is dropped or
/// `deliver` returns `false` (nobody listens any more). A verdict costs tens
/// of microseconds, less than spawning a thread for it, so the stage keeps
/// to one thread and leaves the cores to the sampling engines.
///
/// Each call of `verdict` runs under `catch_unwind` and is timed into
/// [`Filtered::filter_us`]. A candidate whose verdict panics is rejected with
/// [`RejectReason::FilterPanicked`] and the rest of its batch is delivered as
/// usual, so one poisoned candidate cannot stop a run.
pub fn spawn_filter_stage(
    verdict: impl Fn(&SampledCandidate) -> Result<SynthesizedKernel, RejectReason>
        + Send
        + Sync
        + 'static,
    mut deliver: impl FnMut(Vec<Filtered>) -> bool + Send + 'static,
) -> (mpsc::Sender<FilterBatch>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<FilterBatch>();
    let worker = std::thread::spawn(move || {
        while let Ok(batch) = rx.recv() {
            let filtered = batch
                .into_iter()
                .map(|(ticket, candidate)| {
                    let started = Instant::now();
                    let verdict = catch_unwind(AssertUnwindSafe(|| verdict(&candidate)))
                        .unwrap_or(Err(RejectReason::FilterPanicked));
                    Filtered {
                        ticket,
                        generated_chars: candidate.generated_chars,
                        verdict,
                        filter_us: started.elapsed().as_micros() as u64,
                    }
                })
                .collect();
            if !deliver(filtered) {
                break;
            }
        }
    });
    (tx, worker)
}

/// The books of one sampling run — a [`SynthesisStream`], or one request of
/// the synthesis service: which candidate is dispatched next, and the
/// in-order tally of the verdicts that come back.
///
/// Candidate `i` samples from [`stream_seed`]`(seed, i)`. Verdicts may be
/// [`deliver`](Session::deliver)ed in any order; they are absorbed in
/// candidate order, and absorption stops once the session
/// [`is_complete`](Session::is_complete): `target` kernels accepted, or every
/// candidate up to `max_attempts` absorbed. What a session reports therefore
/// covers exactly the candidates up to that cut, however many were sampled
/// past it.
#[derive(Debug, Default)]
pub struct Session {
    seed: u64,
    target: usize,
    max_attempts: u64,
    /// Candidates dispatched so far.
    next_dispatch: u64,
    /// The next candidate to absorb.
    next_absorb: u64,
    /// Verdicts delivered ahead of `next_absorb`.
    pending: HashMap<u64, Filtered>,
    /// Accumulation since the last accepted kernel.
    window: KernelStats,
    stats: SynthesisStats,
    filter_us: u64,
}

impl Session {
    /// A session over run seed `seed` that wants `target` kernels and may
    /// sample at most `max_attempts` candidates.
    pub fn new(seed: u64, target: usize, max_attempts: usize) -> Session {
        Session {
            seed,
            target,
            max_attempts: max_attempts as u64,
            ..Session::default()
        }
    }

    /// Whether another candidate should go out on an engine of `lanes`
    /// lanes: kernels are still wanted, the attempt cap allows one more, and
    /// fewer than `min(wanted, 2 · lanes) · 4` candidates are outstanding.
    pub fn wants_dispatch(&self, lanes: usize) -> bool {
        let wanted = self.target.saturating_sub(self.stats.accepted);
        let outstanding = self.next_dispatch - self.next_absorb;
        wanted > 0
            && self.next_dispatch < self.max_attempts
            && outstanding < (wanted.min(2 * lanes) * OVERSUBSCRIPTION) as u64
    }

    /// Dispatch the next candidate: its index in the session and the seed of
    /// its RNG stream.
    pub fn dispatch(&mut self) -> (u64, u64) {
        let index = self.next_dispatch;
        self.next_dispatch += 1;
        (index, stream_seed(self.seed, index))
    }

    /// Hand over the verdict of candidate `index`.
    pub fn deliver(&mut self, index: u64, filtered: Filtered) {
        self.pending.insert(index, filtered);
    }

    /// Absorb delivered verdicts in candidate order up to the next accepted
    /// kernel and return it, with what it cost to find. `None` when the next
    /// verdict in order has not been delivered yet, or the session is
    /// complete.
    pub fn next_kernel(&mut self) -> Option<StreamedKernel> {
        while !self.is_complete() {
            let filtered = self.pending.remove(&self.next_absorb)?;
            if let Some(kernel) = self.absorb(filtered) {
                return Some(kernel);
            }
        }
        None
    }

    /// Whether `target` kernels have been accepted.
    pub fn target_met(&self) -> bool {
        self.stats.accepted >= self.target
    }

    /// Whether the session is over: its target is met, or every candidate up
    /// to `max_attempts` has been absorbed.
    pub fn is_complete(&self) -> bool {
        self.target_met() || self.next_absorb >= self.max_attempts
    }

    /// Totals over every candidate absorbed so far.
    pub fn stats(&self) -> &SynthesisStats {
        &self.stats
    }

    /// Filter wall-clock of every candidate absorbed so far (µs).
    pub fn filter_us(&self) -> u64 {
        self.filter_us
    }

    /// Fold the next candidate's verdict into the totals and into the cost
    /// window open since the previous accepted kernel. An acceptance closes
    /// the window: it is returned with the kernel, stamped with the
    /// candidate's index, and a fresh one starts.
    fn absorb(&mut self, filtered: Filtered) -> Option<StreamedKernel> {
        let candidate_index = self.next_absorb;
        self.next_absorb += 1;
        self.filter_us += filtered.filter_us;
        let (totals, window) = (&mut self.stats, &mut self.window);
        totals.attempts += 1;
        totals.generated_chars += filtered.generated_chars;
        window.attempts += 1;
        window.generated_chars += filtered.generated_chars;
        match filtered.verdict {
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
        SynthesisStream::new(self.model, self.config.clone(), usize::MAX)
    }

    /// Synthesize the first `target` kernels of the session (fewer if its
    /// attempt cap runs out first), returning the classic report. Its
    /// statistics cover exactly the candidates up to the `target`-th
    /// acceptance, or every candidate up to the cap — the same cut, and so
    /// the same report, at any number of lanes.
    pub fn synthesize(&self, target: usize) -> SynthesisReport {
        let mut stream = SynthesisStream::new(self.model, self.config.clone(), target);
        let kernels = stream.by_ref().map(|k| k.kernel).collect();
        SynthesisReport {
            kernels,
            stats: stream.stats().clone(),
        }
    }
}

/// A lazy, pull-based iterator over accepted kernels (see the module docs
/// for the pipeline it runs internally).
///
/// The stream ends (`None`) when the session's attempt cap is exhausted;
/// without a cap it is unbounded and the consumer decides when to stop.
/// Dropping the stream ends its filter stage.
///
/// Determinism: for a given model and configuration, the sequence of
/// accepted kernels, their [`KernelStats`] and the statistics after each
/// pull are independent of `lanes`, of the number of sampling threads and of
/// thread scheduling (verdicts are absorbed in candidate order, and
/// per-candidate RNG streams are derived, never shared).
pub struct SynthesisStream<'m> {
    /// One engine per sampling thread, the session's lanes split between
    /// them: engine 0 steps on the puller's thread, the rest on helpers.
    engines: Vec<BatchEngine<'m, dyn StreamBatch + Send + 'm>>,
    /// The rayon threads each engine's own kernels may fan out over (a
    /// paper-scale model's GEMMs cross the parallel threshold): the pool
    /// shared out between the engines, which already keep every thread busy.
    engine_threads: usize,
    seed_text: String,
    sample: SampleOptions,
    session: Session,
    to_filter: mpsc::Sender<FilterBatch>,
    verdicts: mpsc::Receiver<Vec<Filtered>>,
}

/// How a stream of `lanes` lanes splits them between its engines: one per
/// thread of a pool of `threads`, but never an engine without a lane, and
/// the lanes as even as they go, the larger shares first.
fn lane_split(lanes: usize, threads: usize) -> Vec<usize> {
    let engines = threads.clamp(1, lanes.max(1));
    (0..engines)
        .map(|i| lanes / engines + usize::from(i < lanes % engines))
        .collect()
}

impl<'m> SynthesisStream<'m> {
    fn new(model: &'m TrainedModel, config: SamplerConfig, target: usize) -> Self {
        let seed_text = match &config.spec {
            Some(spec) => spec.seed_text(),
            None => FREE_SEED.to_string(),
        };
        let filter = config.filter;
        let (verdicts_tx, verdicts) = mpsc::channel();
        // Not joined: the stage ends on its own once the stream, and with it
        // the sender, is gone. Verdicts run under `catch_unwind`, so the
        // thread has no panic to hide; were it to die anyway, the next pull
        // fails on the closed channel.
        let (to_filter, _) = spawn_filter_stage(
            move |candidate| filter_candidate(&filter, candidate),
            move |batch| verdicts_tx.send(batch).is_ok(),
        );
        let threads = rayon::current_num_threads();
        let engines: Vec<_> = lane_split(config.lanes.max(1), threads)
            .into_iter()
            .map(|lanes| BatchEngine::boxed(model.streams(lanes), model.vocabulary()))
            .collect();
        SynthesisStream {
            engine_threads: (threads / engines.len()).max(1),
            engines,
            seed_text,
            sample: config.sample,
            session: Session::new(
                config.seed,
                target,
                config.max_attempts.unwrap_or(usize::MAX),
            ),
            to_filter,
            verdicts,
        }
    }

    /// Whole-run statistics over every candidate absorbed so far: after a
    /// pull, exactly the candidates up to the kernel it returned.
    pub fn stats(&self) -> &SynthesisStats {
        self.session.stats()
    }
}

impl Iterator for SynthesisStream<'_> {
    type Item = StreamedKernel;

    fn next(&mut self) -> Option<StreamedKernel> {
        if let Some(kernel) = self.session.next_kernel() {
            return Some(kernel);
        }
        if self.session.is_complete() {
            return None;
        }
        let pull = Pull {
            session: Mutex::new(std::mem::take(&mut self.session)),
            dispatchable: Condvar::new(),
            stop: AtomicBool::new(false),
            lanes: self.engines.iter().map(BatchEngine::num_lanes).sum(),
            seed_text: &self.seed_text,
            sample: self.sample,
        };
        let threads = self.engine_threads;
        let (lead, helpers) = self
            .engines
            .split_first_mut()
            .expect("a stream has an engine");
        let (to_filter, verdicts) = (&self.to_filter, &self.verdicts);
        let found = std::thread::scope(|scope| {
            let pull = &pull;
            for engine in helpers {
                scope.spawn(move || {
                    rayon::with_num_threads(threads, || pull.help(engine, to_filter))
                });
            }
            rayon::with_num_threads(threads, || pull.lead(lead, to_filter, verdicts))
        });
        self.session = pull
            .session
            .into_inner()
            .expect("the session outlives its pull");
        found
    }
}

const STAGE_ALIVE: &str = "the filter stage outlives the stream";

/// What the sampling threads of one [`SynthesisStream`] pull share: the
/// session — locked only to dispatch a candidate or deliver verdicts — and
/// the flag that ends the pull.
struct Pull<'s> {
    session: Mutex<Session>,
    /// Wakes helpers waiting, with every lane idle, for a dispatch.
    dispatchable: Condvar,
    /// Raised, under the session lock, when the pull ends.
    stop: AtomicBool,
    /// Lanes over all engines: what [`Session::wants_dispatch`] bounds.
    lanes: usize,
    seed_text: &'s str,
    sample: SampleOptions,
}

impl Pull<'_> {
    fn session(&self) -> MutexGuard<'_, Session> {
        self.session
            .lock()
            .expect("no sampling thread panics holding the session")
    }

    /// One round of one engine: fill its free lanes while the session lets
    /// candidates out, advance every occupied lane by one character, and
    /// hand the candidates that finished to the filter stage.
    fn round(
        &self,
        engine: &mut BatchEngine<'_, impl StreamBatch + ?Sized>,
        to_filter: &mpsc::Sender<FilterBatch>,
    ) {
        let mut completed = Vec::new();
        while let Some(lane) = engine.free_lane() {
            let dispatched = {
                let mut session = self.session();
                session
                    .wants_dispatch(self.lanes)
                    .then(|| session.dispatch())
            };
            let Some((index, rng_seed)) = dispatched else {
                break;
            };
            // Zero-budget candidates complete at admission.
            let done = engine.admit(lane, index, self.seed_text, self.sample, rng_seed);
            completed.extend(done.map(|candidate| (index, candidate)));
        }
        engine.step_into(&mut completed);
        if !completed.is_empty() {
            to_filter.send(completed).expect(STAGE_ALIVE);
        }
    }

    /// The puller's part: step engine 0 and absorb verdicts, in candidate
    /// order, until the next accepted kernel (`Some`) or the end of the
    /// session (`None`).
    fn lead(
        &self,
        engine: &mut BatchEngine<'_, impl StreamBatch + ?Sized>,
        to_filter: &mpsc::Sender<FilterBatch>,
        verdicts: &mpsc::Receiver<Vec<Filtered>>,
    ) -> Option<StreamedKernel> {
        let _leave = Leave {
            pull: self,
            nudge: None,
        };
        let mut received: Vec<Vec<Filtered>> = Vec::new();
        loop {
            {
                let mut session = self.session();
                let delivered = !received.is_empty();
                for filtered in received.drain(..).flatten() {
                    session.deliver(filtered.ticket, filtered);
                }
                if let Some(kernel) = session.next_kernel() {
                    return Some(kernel);
                }
                if session.is_complete() {
                    return None;
                }
                if delivered && session.wants_dispatch(self.lanes) {
                    self.dispatchable.notify_all();
                }
            }
            self.round(engine, to_filter);
            // With every lane of this engine idle, each outstanding
            // candidate is on a helper or in the filter stage: wait for it.
            if engine.occupied_lanes() == 0 {
                received.push(verdicts.recv().expect(STAGE_ALIVE));
            }
            received.extend(verdicts.try_iter());
            if self.stop.load(Ordering::Acquire) {
                // A helper unwound; the scope re-raises its panic.
                return None;
            }
        }
    }

    /// A helper's part: step its engine until the pull stops, sleeping
    /// while it has no lane to step and the session lets nothing out.
    fn help(
        &self,
        engine: &mut BatchEngine<'_, impl StreamBatch + ?Sized>,
        to_filter: &mpsc::Sender<FilterBatch>,
    ) {
        let _leave = Leave {
            pull: self,
            nudge: Some(to_filter),
        };
        while !self.stop.load(Ordering::Acquire) {
            self.round(engine, to_filter);
            if engine.occupied_lanes() == 0 {
                let idle = self.session();
                let _idle = self
                    .dispatchable
                    .wait_while(idle, |session| {
                        !self.stop.load(Ordering::Acquire) && !session.wants_dispatch(self.lanes)
                    })
                    .expect("no sampling thread panics holding the session");
            }
        }
    }
}

/// Ends its thread's part of a pull, however it ends: raises `stop` and
/// wakes the helpers, so none outlives the pull. A helper that unwinds also
/// nudges the filter stage, whose (empty) delivery wakes a puller waiting
/// for verdicts the helper's lanes will never produce.
struct Leave<'p, 's> {
    pull: &'p Pull<'s>,
    nudge: Option<&'p mpsc::Sender<FilterBatch>>,
}

impl Drop for Leave<'_, '_> {
    fn drop(&mut self) {
        // Raised under the lock, so a helper cannot miss it between testing
        // the flag and going to sleep; a poisoned lock is still a lock.
        let session = self
            .pull
            .session
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.pull.stop.store(true, Ordering::Release);
        drop(session);
        self.pull.dispatchable.notify_all();
        if std::thread::panicking() {
            if let Some(to_filter) = self.nudge {
                let _ = to_filter.send(Vec::new());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(text: &str, generated_chars: usize) -> SampledCandidate {
        SampledCandidate {
            text: text.to_string(),
            stop: StopReason::ClosedKernel,
            generated_chars,
        }
    }

    fn filtered(ticket: u64, accept: bool) -> Filtered {
        let kernel = SynthesizedKernel {
            source: format!("kernel {ticket}"),
            raw: String::new(),
            instructions: 3,
            repaired: false,
        };
        Filtered {
            ticket,
            generated_chars: 10,
            verdict: if accept {
                Ok(kernel)
            } else {
                Err(RejectReason::NoKernel)
            },
            filter_us: 1,
        }
    }

    #[test]
    fn a_panicking_verdict_rejects_only_its_candidate() {
        let (tx, rx) = mpsc::channel();
        let (stage, worker) = spawn_filter_stage(
            |candidate| {
                if candidate.text == "poison" {
                    panic!("poisoned candidate");
                }
                Err(RejectReason::NoKernel)
            },
            move |batch| tx.send(batch).is_ok(),
        );
        let batch = vec![
            (0, candidate("a", 1)),
            (1, candidate("poison", 2)),
            (2, candidate("c", 3)),
        ];
        stage.send(batch).expect("stage is alive");
        let got: Vec<_> = rx
            .recv()
            .expect("the batch is delivered")
            .into_iter()
            .map(|f| (f.ticket, f.generated_chars, f.verdict))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 1, Err(RejectReason::NoKernel)),
                (1, 2, Err(RejectReason::FilterPanicked)),
                (2, 3, Err(RejectReason::NoKernel)),
            ]
        );
        // The stage outlives the panic.
        stage
            .send(vec![(3, candidate("d", 4))])
            .expect("stage is alive");
        assert_eq!(rx.recv().expect("second batch").len(), 1);
        drop(stage);
        worker.join().expect("the stage exits cleanly");
    }

    #[test]
    fn session_absorbs_in_candidate_order_up_to_its_target() {
        let mut session = Session::new(9, 1, 100);
        for expected in 0..4 {
            assert_eq!(session.dispatch(), (expected, stream_seed(9, expected)));
        }
        session.deliver(3, filtered(3, true));
        session.deliver(2, filtered(2, true));
        session.deliver(1, filtered(1, false));
        assert!(
            session.next_kernel().is_none(),
            "candidate 0 is outstanding"
        );
        session.deliver(0, filtered(0, false));
        let found = session.next_kernel().expect("candidate 2 is accepted");
        assert_eq!(found.kernel.source, "kernel 2");
        assert_eq!(found.stats.candidate_index, 2);
        assert_eq!(found.stats.attempts, 3);
        assert_eq!(found.stats.generated_chars, 30);
        assert_eq!(found.stats.rejected[&RejectReason::NoKernel], 2);
        assert!(session.is_complete() && session.target_met());
        assert!(
            session.next_kernel().is_none(),
            "candidate 3 is past the cut"
        );
        assert_eq!(session.stats().attempts, 3);
        assert_eq!(session.filter_us(), 3);
    }

    #[test]
    fn session_attempt_cap_completes_it_unmet() {
        let mut session = Session::new(1, 5, 2);
        session.dispatch();
        session.dispatch();
        assert!(!session.wants_dispatch(8), "the cap allows no third");
        session.deliver(0, filtered(0, false));
        session.deliver(1, filtered(1, true));
        assert!(session.next_kernel().is_some());
        assert!(session.next_kernel().is_none());
        assert!(session.is_complete() && !session.target_met());
    }

    /// A batch whose every step panics.
    struct Panicking<S>(S);

    impl<S: StreamBatch> StreamBatch for Panicking<S> {
        fn vocab_size(&self) -> usize {
            self.0.vocab_size()
        }
        fn num_streams(&self) -> usize {
            self.0.num_streams()
        }
        fn reset(&mut self) {
            self.0.reset();
        }
        fn reset_stream(&mut self, stream: usize) {
            self.0.reset_stream(stream);
        }
        fn feed_many(&mut self, _: &[(usize, u32)]) {
            panic!("a poisoned step");
        }
        fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
            self.0.probs_into(stream, out);
        }
    }

    /// A helper that panics ends the pull in its panic: the puller, left
    /// waiting for candidates that will never finish, is woken, and no
    /// thread is left behind.
    #[test]
    fn a_helper_that_panics_ends_the_pull_in_its_panic() {
        use clgen_corpus::Vocabulary;
        use clgen_neural::ngram::{NgramConfig, NgramModel};
        use clgen_neural::NgramStreams;

        let text = "__kernel void A() { int a = 0; a = a + 1; }\n".repeat(4);
        let vocab = Vocabulary::from_text(&text);
        let model = NgramModel::train(&vocab.encode(&text), vocab.len(), NgramConfig::default());
        let (verdicts_tx, verdicts) = mpsc::channel();
        let (to_filter, _) = spawn_filter_stage(
            |_| Err(RejectReason::NoKernel),
            move |batch| verdicts_tx.send(batch).is_ok(),
        );
        let pull = Pull {
            session: Mutex::new(Session::new(1, 1, usize::MAX)),
            dispatchable: Condvar::new(),
            stop: AtomicBool::new(false),
            lanes: 2,
            seed_text: "__kernel void A() {",
            sample: SampleOptions {
                max_chars: 64,
                temperature: 0.9,
            },
        };
        let mut lead = BatchEngine::boxed(Box::new(NgramStreams::new(&model, 1)), &vocab);
        let mut helper =
            BatchEngine::boxed(Box::new(Panicking(NgramStreams::new(&model, 1))), &vocab);
        let ended = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let (pull, to_filter) = (&pull, &to_filter);
                scope.spawn(move || pull.help(&mut helper, to_filter));
                pull.lead(&mut lead, to_filter, &verdicts)
            })
        }));
        assert!(ended.is_err(), "the helper's panic ends the pull");
        assert!(pull.stop.load(Ordering::Acquire));
    }

    #[test]
    fn lanes_split_evenly_over_at_most_one_engine_per_thread() {
        assert_eq!(lane_split(16, 2), [8, 8]);
        assert_eq!(lane_split(3, 2), [2, 1]);
        assert_eq!(lane_split(1, 2), [1]);
        assert_eq!(lane_split(16, 1), [16]);
        assert_eq!(lane_split(7, 3), [3, 2, 2]);
    }

    #[test]
    fn dispatch_bound_is_four_per_wanted_kernel_up_to_two_per_lane() {
        let outstanding = |target: usize, lanes: usize| {
            let mut session = Session::new(0, target, usize::MAX);
            while session.wants_dispatch(lanes) {
                session.dispatch();
            }
            session.next_dispatch
        };
        assert_eq!(outstanding(1, 16), 4);
        assert_eq!(outstanding(8, 16), 32);
        assert_eq!(outstanding(32, 16), 128);
        assert_eq!(outstanding(usize::MAX, 16), 128);
        assert_eq!(outstanding(usize::MAX, 1), 8);
        assert_eq!(outstanding(0, 4), 0);
    }
}
