//! Lane-level batched sampling: the [`BatchEngine`] admission/step machinery
//! underneath offline synthesis and the synthesis service alike.
//!
//! [`sample_kernels_batched`](crate::sampler::sample_kernels_batched) runs a
//! *closed* workload — a fixed list of candidate seeds, drained to
//! completion. A [`SynthesisStream`](crate::stream::SynthesisStream) and the
//! synthesis service run *open* ones: candidates are dispatched while the
//! batch is mid-flight — the next of a session the moment a lane frees up,
//! the first of a newly arrived request without waiting for the others —
//! and throughput depends on folding them into the already-running batched
//! forward pass instead of queueing behind it. The engine owns its
//! [`StreamBatch`] (or a `&mut` borrow of one), so a driver can keep it
//! alive across pulls — a `SynthesisStream` keeps one per sampling thread,
//! each over its share of the lanes
//! ([`LaneSplit::engines`](crate::LaneSplit::engines)), and it and the
//! synthesis service step theirs concurrently through one engine shell
//! ([`crew`](crate::crew)), which needs only that the boxed batch be `Send`
//! — and exposes exactly the hooks that distinction needs:
//!
//! * [`admit`](BatchEngine::admit) starts one candidate on one free lane —
//!   with its *own* seed text, sampling options and RNG stream, so candidates
//!   from different requests (different temperatures, different length
//!   budgets) share one batch. The lane is
//!   [`prime`](clgen_neural::StreamBatch::prime)d with the seed text — an
//!   LSTM batch runs it through the model once and reloads the result for
//!   every later candidate — so it generates from its first round;
//! * [`step_into`](BatchEngine::step_into) draws each occupied lane's next
//!   character from its [`logits`](clgen_neural::StreamBatch::logits_into)
//!   by [`sample_logits`] at the candidate's temperature, then advances the
//!   lanes through a single batched
//!   [`feed_many`](clgen_neural::StreamBatch::feed_many) over exactly them —
//!   an LSTM batch steps at the width they fill, not the width it has —
//!   returning finished candidates as their lanes free up;
//! * [`abort`](BatchEngine::abort) abandons a lane mid-candidate (a request
//!   was satisfied early or its client went away).
//!
//! Determinism: a candidate's output is a pure function of the model, its
//! seed text, its sampling options and its RNG seed. Lane assignment, refill
//! timing and whichever other candidates share the batch never influence it
//! (the [`StreamBatch`] contract keeps per-lane state bitwise identical to a
//! serial model fed the same characters), which is what lets a service built
//! on this engine guarantee byte-identical responses regardless of request
//! arrival order. The numeric core underneath
//! ([`feed_many`](clgen_neural::StreamBatch::feed_many) → packed k-blocked
//! GEMMs, row-parallel above the scale threshold) preserves this end to end:
//! its kernels reduce every output element in one unified fold, so neither
//! the packed weight layout nor the rayon worker count can change a byte of
//! a response — paper-scale models batch across requests with the same
//! guarantee the small ones have. The draw is the serial sampler's
//! [`sample_logits`]: f32 softmax and f64 walk, this code's own arithmetic.
//! An LSTM's logits are too, so no libm routine chosen by the host's CPU
//! moves one of its bytes; the n-gram's logits are still libm `ln` of its
//! probabilities, as is the default
//! [`logits_into`](clgen_neural::StreamBatch::logits_into).

use crate::sampler::{SampleOptions, SampledCandidate, StopReason};
use cl_frontend::PrefixValidator;
use clgen_corpus::Vocabulary;
use clgen_neural::{sample_logits, StreamBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seed text as every lane starting from it needs it (the common case:
/// every candidate of a run or request starts from one seed): encoded for
/// the model, and run through the prefix validator and the brace counter.
struct SeedPrefix {
    text: String,
    ids: Vec<u32>,
    validator: PrefixValidator,
    depth: i32,
}

/// One candidate mid-flight on a lane.
struct LaneRun {
    /// Caller-chosen identifier returned with the finished candidate.
    ticket: u64,
    text: String,
    depth: i32,
    generated: usize,
    options: SampleOptions,
    rng: StdRng,
    /// Incremental prefix validator fed every character of the candidate
    /// text (seed included), mirroring the serial sampler, so hopeless lanes
    /// are reaped mid-kernel at the identical character.
    validator: PrefixValidator,
}

/// A continuously-batched sampling engine over the lanes of one
/// [`StreamBatch`] it owns (see the module docs).
///
/// `B` is the boxed batch's type. The default, `dyn StreamBatch`, takes any
/// batch; a [`SynthesisStream`](crate::stream::SynthesisStream) holds
/// `dyn StreamBatch + Send` engines, so it can step them on other threads.
pub struct BatchEngine<'a, B: StreamBatch + ?Sized + 'a = dyn StreamBatch + 'a> {
    streams: Box<B>,
    vocab: &'a Vocabulary,
    lanes: Vec<Option<LaneRun>>,
    occupied: usize,
    pairs: Vec<(usize, u32)>,
    logits: Vec<f32>,
    /// [`sample_logits`]'s scaled distribution.
    scratch: Vec<f32>,
    /// Most recently admitted seed text, reused across admissions so the
    /// steady state (every candidate sharing one seed text) prepares it once.
    seed_memo: Option<SeedPrefix>,
}

impl<B: StreamBatch + ?Sized> std::fmt::Debug for BatchEngine<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("lanes", &self.lanes.len())
            .field("occupied", &self.occupied)
            .finish()
    }
}

impl<'a> BatchEngine<'a> {
    /// An engine over `streams` — owned, or borrowed as `&mut` — with every
    /// lane free. The engine does not reset the streams; each lane is reset
    /// when a candidate is admitted to it.
    ///
    /// # Panics
    ///
    /// Panics if `streams` has no lanes.
    pub fn new(streams: impl StreamBatch + 'a, vocab: &'a Vocabulary) -> BatchEngine<'a> {
        BatchEngine::boxed(Box::new(streams), vocab)
    }
}

impl<'a, B: StreamBatch + ?Sized + 'a> BatchEngine<'a, B> {
    /// [`new`](BatchEngine::new) over a batch that is boxed already, keeping
    /// its type: `BatchEngine::boxed(model.streams(n), vocab)` is `Send`
    /// because [`TrainedModel::streams`](crate::TrainedModel::streams) is.
    ///
    /// # Panics
    ///
    /// Panics if `streams` has no lanes.
    pub fn boxed(streams: Box<B>, vocab: &'a Vocabulary) -> BatchEngine<'a, B> {
        let n = streams.num_streams();
        assert!(n > 0, "need at least one sample lane");
        BatchEngine {
            streams,
            vocab,
            lanes: (0..n).map(|_| None).collect(),
            occupied: 0,
            pairs: Vec::with_capacity(n),
            logits: Vec::new(),
            scratch: Vec::new(),
            seed_memo: None,
        }
    }

    /// Total number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of lanes currently running a candidate.
    pub fn occupied_lanes(&self) -> usize {
        self.occupied
    }

    /// The lowest-indexed free lane, if any.
    pub fn free_lane(&self) -> Option<usize> {
        self.lanes.iter().position(Option::is_none)
    }

    /// The ticket of the candidate running on `lane` (`None` if free).
    pub fn lane_ticket(&self, lane: usize) -> Option<u64> {
        self.lanes[lane].as_ref().map(|run| run.ticket)
    }

    /// Start a candidate on a free lane: the lane's model state is
    /// [`prime`](StreamBatch::prime)d with the seed text, its validator and
    /// brace depth start where the seed leaves them, and generated characters
    /// are drawn from `StdRng::seed_from_u64(rng_seed)` from the next
    /// [`step_into`](BatchEngine::step_into) round on.
    ///
    /// A candidate with a zero character budget completes immediately (its
    /// text is the seed alone, as in serial sampling, where the fed seed
    /// influences nothing observable) and is returned here instead of
    /// occupying the lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is already occupied.
    pub fn admit(
        &mut self,
        lane: usize,
        ticket: u64,
        seed_text: &str,
        options: SampleOptions,
        rng_seed: u64,
    ) -> Option<SampledCandidate> {
        assert!(self.lanes[lane].is_none(), "lane {lane} is occupied");
        if options.max_chars == 0 {
            return Some(SampledCandidate {
                text: seed_text.to_string(),
                stop: StopReason::MaxLength,
                generated_chars: 0,
            });
        }
        if !matches!(&self.seed_memo, Some(memo) if memo.text == seed_text) {
            // As the serial sampler treats its seed: every character goes to
            // the model, the validator and the brace counter.
            let mut validator = PrefixValidator::new();
            seed_text.chars().for_each(|c| validator.feed(c));
            let braces = |b: char| seed_text.matches(b).count() as i32;
            self.seed_memo = Some(SeedPrefix {
                text: seed_text.to_string(),
                ids: seed_text
                    .chars()
                    .map(|c| self.vocab.encode_char(c))
                    .collect(),
                validator,
                depth: braces('{') - braces('}'),
            });
        }
        let seed = self.seed_memo.as_ref().expect("set above");
        self.streams.prime(lane, &seed.ids);
        let mut text = String::with_capacity(seed_text.len() + options.max_chars);
        text.push_str(seed_text);
        self.lanes[lane] = Some(LaneRun {
            ticket,
            text,
            depth: seed.depth,
            generated: 0,
            options,
            rng: StdRng::seed_from_u64(rng_seed),
            validator: seed.validator.clone(),
        });
        self.occupied += 1;
        None
    }

    /// Abandon the candidate on `lane`, freeing it without producing a
    /// result. Returns the abandoned candidate's ticket, or `None` if the
    /// lane was already free.
    pub fn abort(&mut self, lane: usize) -> Option<u64> {
        let run = self.lanes[lane].take()?;
        self.occupied -= 1;
        Some(run.ticket)
    }

    /// Advance every occupied lane by one character, drawn from the lane's
    /// current logits by [`sample_logits`] (the serial sampler's draw),
    /// through a single batched feed. Candidates that reach their closing
    /// brace or length budget this round are appended to `completed` as
    /// `(ticket, candidate)` and their lanes freed.
    ///
    /// As in serial sampling, a candidate's final character is never fed back
    /// into the model (serial sampling feeds it and immediately stops, so it
    /// influences nothing observable).
    pub fn step_into(&mut self, completed: &mut Vec<(u64, SampledCandidate)>) {
        self.step_into_abortable(completed, |_| false);
    }

    /// [`step_into`](BatchEngine::step_into) with a **lane-abort predicate**:
    /// before the round's batched feed, every occupied lane's ticket is
    /// offered to `abort`, and lanes it flags are freed without producing a
    /// result — exactly like [`abort`](BatchEngine::abort), but mid-step, so
    /// a serving scheduler can reap lanes whose request expired (deadline) or
    /// whose client vanished without waiting for the candidates to finish.
    ///
    /// Aborting through the predicate cannot influence surviving lanes: their
    /// per-lane state only depends on the characters they themselves were fed
    /// (the [`StreamBatch`] contract), so a response stays byte-identical
    /// whether or not other lanes were reaped around it.
    pub fn step_into_abortable(
        &mut self,
        completed: &mut Vec<(u64, SampledCandidate)>,
        mut abort: impl FnMut(u64) -> bool,
    ) {
        self.pairs.clear();
        for lane in 0..self.lanes.len() {
            if let Some(run) = self.lanes[lane].as_ref() {
                if abort(run.ticket) {
                    self.lanes[lane] = None;
                    self.occupied -= 1;
                    continue;
                }
            }
            let Some(run) = self.lanes[lane].as_mut() else {
                continue;
            };
            self.streams.logits_into(lane, &mut self.logits);
            let id = sample_logits(
                &self.logits,
                run.options.temperature,
                &mut run.rng,
                &mut self.scratch,
            );
            let c = self.vocab.decode_char(id);
            run.text.push(c);
            run.generated += 1;
            run.validator.feed(c);
            let mut stop = None;
            if run.validator.is_hopeless() {
                // Same check, same precedence as the serial sampler: damage
                // no suffix can undo reaps the lane mid-kernel.
                stop = Some(StopReason::Hopeless);
            } else {
                match c {
                    '{' => run.depth += 1,
                    '}' => {
                        run.depth -= 1;
                        if run.depth <= 0 {
                            stop = Some(StopReason::ClosedKernel);
                        }
                    }
                    _ => {}
                }
            }
            if stop.is_none() && run.generated >= run.options.max_chars {
                stop = Some(StopReason::MaxLength);
            }
            match stop {
                None => self.pairs.push((lane, id)),
                Some(stop) => {
                    let run = self.lanes[lane].take().expect("lane was active");
                    self.occupied -= 1;
                    completed.push((
                        run.ticket,
                        SampledCandidate {
                            text: run.text,
                            stop,
                            generated_chars: run.generated,
                        },
                    ));
                }
            }
        }
        if !self.pairs.is_empty() {
            self.streams.feed_many(&self.pairs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgen_neural::ngram::{NgramConfig, NgramModel};
    use clgen_neural::{LanguageModel, NgramStreams};

    fn tiny_model() -> (NgramModel, Vocabulary) {
        let text = "__kernel void A() { int a = 0; a = a + 1; }\n".repeat(4);
        let vocab = Vocabulary::from_text(&text);
        let encoded = vocab.encode(&text);
        let model = NgramModel::train(&encoded, vocab.len(), NgramConfig::default());
        (model, vocab)
    }

    #[test]
    fn admission_and_abort_track_occupancy() {
        let (model, vocab) = tiny_model();
        let mut streams = NgramStreams::new(&model, 3);
        let mut engine = BatchEngine::new(&mut streams, &vocab);
        assert_eq!(engine.num_lanes(), 3);
        assert_eq!(engine.free_lane(), Some(0));

        let options = SampleOptions {
            max_chars: 32,
            temperature: 0.9,
        };
        assert!(engine
            .admit(0, 7, "__kernel void A() {", options, 1)
            .is_none());
        assert_eq!(engine.occupied_lanes(), 1);
        assert_eq!(engine.lane_ticket(0), Some(7));
        assert_eq!(engine.free_lane(), Some(1));

        assert_eq!(engine.abort(0), Some(7));
        assert_eq!(engine.abort(0), None);
        assert_eq!(engine.occupied_lanes(), 0);
    }

    #[test]
    fn zero_budget_candidates_complete_at_admission() {
        let (model, vocab) = tiny_model();
        let mut streams = NgramStreams::new(&model, 1);
        let mut engine = BatchEngine::new(&mut streams, &vocab);
        let options = SampleOptions {
            max_chars: 0,
            temperature: 0.9,
        };
        let done = engine.admit(0, 3, "seed {", options, 9).expect("immediate");
        assert_eq!(done.text, "seed {");
        assert_eq!(done.generated_chars, 0);
        assert_eq!(engine.occupied_lanes(), 0);
    }

    /// Per-lane output only depends on the candidate's own seed text, options
    /// and RNG seed — not on which other candidates share the batch.
    #[test]
    fn lane_sharing_does_not_influence_output() {
        let (model, vocab) = tiny_model();
        let options = SampleOptions {
            max_chars: 48,
            temperature: 0.9,
        };
        let seed_text = "__kernel void A() {";

        let run_alone = |rng_seed: u64| {
            let mut streams = NgramStreams::new(&model, 1);
            let mut engine = BatchEngine::new(&mut streams, &vocab);
            engine.admit(0, 0, seed_text, options, rng_seed);
            let mut completed = Vec::new();
            while engine.occupied_lanes() > 0 {
                engine.step_into(&mut completed);
            }
            completed.pop().expect("one candidate").1
        };

        let mut streams = NgramStreams::new(&model, 2);
        let mut engine = BatchEngine::new(&mut streams, &vocab);
        engine.admit(0, 0, seed_text, options, 11);
        let mut completed = Vec::new();
        // Admit the second candidate a few rounds late, so the lanes are
        // deliberately out of phase.
        for _ in 0..5 {
            engine.step_into(&mut completed);
        }
        engine.admit(1, 1, seed_text, options, 22);
        while engine.occupied_lanes() > 0 {
            engine.step_into(&mut completed);
        }
        completed.sort_by_key(|(ticket, _)| *ticket);
        assert_eq!(completed[0].1, run_alone(11));
        assert_eq!(completed[1].1, run_alone(22));
        // Sanity: the model itself is well-formed for this vocabulary.
        assert_eq!(LanguageModel::vocab_size(&model), vocab.len());
    }

    /// The lane-abort predicate frees flagged lanes mid-step without
    /// producing a result, and survivors are byte-identical to a run where
    /// the aborted lane never existed.
    #[test]
    fn step_abort_predicate_reaps_lanes_without_disturbing_survivors() {
        let (model, vocab) = tiny_model();
        let options = SampleOptions {
            max_chars: 48,
            temperature: 0.9,
        };
        let seed_text = "__kernel void A() {";

        let run_alone = |rng_seed: u64| {
            let mut streams = NgramStreams::new(&model, 1);
            let mut engine = BatchEngine::new(&mut streams, &vocab);
            engine.admit(0, 0, seed_text, options, rng_seed);
            let mut completed = Vec::new();
            while engine.occupied_lanes() > 0 {
                engine.step_into(&mut completed);
            }
            completed.pop().expect("one candidate").1
        };

        let mut streams = NgramStreams::new(&model, 2);
        let mut engine = BatchEngine::new(&mut streams, &vocab);
        engine.admit(0, 10, seed_text, options, 5);
        engine.admit(1, 20, seed_text, options, 6);
        let mut completed = Vec::new();
        for round in 0..256 {
            // Reap ticket 20 mid-flight on the 4th round.
            let reap = round == 3;
            engine.step_into_abortable(&mut completed, |ticket| reap && ticket == 20);
            if engine.occupied_lanes() == 0 {
                break;
            }
        }
        assert_eq!(completed.len(), 1, "aborted lane produced no result");
        assert_eq!(completed[0].0, 10);
        assert_eq!(completed[0].1, run_alone(5), "survivor is undisturbed");
        assert_eq!(engine.free_lane(), Some(0));
    }
}
