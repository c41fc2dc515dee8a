//! Per-layer measurements of the traced run: probes that time one layer's
//! public entry point in isolation, and the replay that splits a
//! `synth-offline` session into engine steps, model calls and filter calls.

use crate::fixtures::{Fixtures, LANES, LSTM64_BYTES, RECIPE_SEED};
use crate::http;
use crate::stats::median;
use crate::trace::{self, Tracer, NONE};
use crate::workloads::{self, POPULATION_SEED, SAMPLE};
use clgen::{
    filter_candidate, sample_kernels_batched, stream_seed, ArgumentSpec, BatchEngine, ClgenOptions,
    SampledCandidate, StopReason, TrainedModel,
};
use clgen_corpus::{Corpus, RejectReason};
use clgen_neural::tensor::{Matrix, PackedMatrix};
use clgen_neural::{LstmStreams, StreamBatch};
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median seconds per call of `f`: one warm-up call, then as many timed calls
/// as fit `budget`, at least three.
fn median_time(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` on every core at once; seconds until the last one is done.
fn on_every_core(f: impl Fn() + Sync) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cores() {
            scope.spawn(&f);
        }
    });
    started.elapsed().as_secs_f64()
}

/// The host's measured compute roof: independent fused multiply-adds on
/// twelve 8-lane accumulators per core, which is what the FMA units can retire.
fn peak_gflops(budget: Duration) -> f64 {
    // ~15 ms a call: long enough for the scheduler to spread the threads.
    const ITERS: usize = 1 << 23;
    let seconds = median_time(budget, || {
        on_every_core(|| {
            let (a, b) = (black_box(0.999_f32), black_box(0.001_f32));
            let mut acc = [[1.0_f32; 8]; 12];
            for _ in 0..ITERS {
                for lanes in acc.iter_mut() {
                    for v in lanes.iter_mut() {
                        *v = v.mul_add(a, b);
                    }
                }
            }
            black_box(acc);
        });
    });
    (ITERS * 12 * 8 * 2 * cores()) as f64 / seconds / 1e9
}

/// The host's measured memory roof: every core sums the same 32 MB, which no
/// cache level holds, four times over.
fn stream_gbps(budget: Duration) -> f64 {
    const FLOATS: usize = 8 << 20;
    const SWEEPS: usize = 4;
    let data = vec![1.0_f32; FLOATS];
    let seconds = median_time(budget, || {
        on_every_core(|| {
            let mut acc = [0.0_f32; 32];
            for _ in 0..SWEEPS {
                for chunk in black_box(&data).chunks_exact(32) {
                    for (a, v) in acc.iter_mut().zip(chunk) {
                        *a += v;
                    }
                }
            }
            black_box(acc);
        });
    });
    (FLOATS * 4 * SWEEPS * cores()) as f64 / seconds / 1e9
}

/// `PackedMatrix::matmul_add_into` on one LSTM gate matrix (`4H x H`) at
/// `width` lanes: `(GFLOP/s, GB/s)`, bytes computed from the tensor sizes.
fn gemm(hidden: usize, width: usize, budget: Duration) -> (f64, f64) {
    let (rows, cols) = (4 * hidden, hidden);
    let weights = (0..rows * cols)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.01)
        .collect();
    let packed = PackedMatrix::pack(&Matrix::from_vec(rows, cols, weights));
    let x = vec![0.5_f32; cols * width];
    let mut y = vec![0.0_f32; rows * width];
    // Small products are over in microseconds: time them in batches.
    let reps = (1 << 24) / (rows * cols * width).max(1) + 1;
    let seconds = median_time(budget, || {
        for _ in 0..reps {
            packed.matmul_add_into(black_box(&x), width, &mut y);
        }
        black_box(&y);
    }) / reps as f64;
    let flops = (2 * rows * cols * width) as f64;
    let bytes = (4 * (rows * cols + x.len() + 2 * y.len())) as f64;
    (flops / seconds / 1e9, bytes / seconds / 1e9)
}

/// Microseconds per `feed_many` with the lanes in `fed` fed.
fn step_us(streams: &mut dyn StreamBatch, fed: usize, budget: Duration) -> f64 {
    const REPS: usize = 64;
    streams.reset();
    let pairs: Vec<(usize, u32)> = (0..fed).map(|lane| (lane, 1)).collect();
    let seconds = median_time(budget, || {
        for _ in 0..REPS {
            streams.feed_many(&pairs);
        }
    });
    seconds / REPS as f64 * 1e6
}

/// The frontend on sampled text: validator per character, `compile` per
/// closed candidate, `repair_candidates` per candidate that does not compile.
fn frontend(fx: &Fixtures, budget: Duration) -> Vec<(&'static str, f64)> {
    let seeds: Vec<u64> = (0..64).map(|i| stream_seed(POPULATION_SEED, i)).collect();
    let candidates = sample_kernels_batched(
        fx.lstm64.streams(LANES).as_mut(),
        fx.lstm64.vocabulary(),
        &ArgumentSpec::paper_default().seed_text(),
        &SAMPLE,
        &seeds,
    );
    let mut out = Vec::new();
    let chars: usize = candidates.iter().map(|c| c.text.chars().count()).sum();
    let validate = median_time(budget, || {
        for c in &candidates {
            let mut validator = cl_frontend::PrefixValidator::new();
            c.text.chars().for_each(|ch| validator.feed(ch));
            black_box(validator.is_hopeless());
        }
    });
    out.push((
        "cl-frontend.validator_ns_per_char",
        validate / chars.max(1) as f64 * 1e9,
    ));

    let closed: Vec<&str> = candidates
        .iter()
        .filter(|c| c.stop == StopReason::ClosedKernel)
        .map(|c| c.text.as_str())
        .collect();
    let compile = |text: &str| cl_frontend::compile(text, &Default::default());
    let compiling = median_time(budget, || {
        for text in &closed {
            black_box(compile(text));
        }
    });
    out.push((
        "cl-frontend.compile_us_per_kernel",
        compiling / closed.len().max(1) as f64 * 1e6,
    ));

    let broken: Vec<&str> = closed
        .iter()
        .copied()
        .filter(|text| !compile(text).is_ok())
        .collect();
    let repairing = median_time(budget, || {
        for text in &broken {
            black_box(cl_frontend::repair_candidates(text));
        }
    });
    out.push((
        "cl-frontend.repair_us_per_candidate",
        repairing / broken.len().max(1) as f64 * 1e6,
    ));
    out
}

/// Time every layer's entry point in isolation, spending about `budget`.
pub fn probes(fx: &Fixtures, budget: Duration) -> Vec<(&'static str, f64)> {
    let slice = budget / 18;
    let mut out = Vec::new();

    let peak = peak_gflops(slice);
    out.push(("host.peak_gflops", peak));
    out.push(("host.stream_gbps", stream_gbps(slice)));
    out.push(("neural.gemm_gflops.h64_w16", gemm(64, 16, slice).0));
    let (gflops, gbps) = gemm(512, 1, slice);
    out.push(("neural.gemm_gflops.h512_w1", gflops));
    out.push(("neural.gemm_gbps.h512_w1", gbps));
    let wide16 = gemm(512, 16, slice).0;
    out.push(("neural.gemm_gflops.h512_w16", wide16));
    out.push(("neural.gemm_roofline_frac.h512_w16", wide16 / peak));

    let gate = Matrix::from_vec(2048, 512, vec![0.25; 2048 * 512]);
    let pack = median_time(slice, || {
        black_box(PackedMatrix::pack(black_box(&gate)));
    });
    out.push(("neural.pack_ms.h512", pack * 1e3));

    let mut h64 = fx.lstm64.streams(LANES);
    out.push((
        "neural.step_us.h64_full16",
        step_us(h64.as_mut(), LANES, slice),
    ));
    out.push((
        "neural.step_us.h64_occ4of16",
        step_us(h64.as_mut(), 4, slice),
    ));
    let mut probs = Vec::new();
    let reading = median_time(slice, || {
        for _ in 0..1024 {
            h64.probs_into(0, &mut probs);
            black_box(&probs);
        }
    });
    out.push(("neural.probs_ns.h64", reading / 1024.0 * 1e9));
    let mut h64_narrow = fx.lstm64.streams(4);
    out.push((
        "neural.step_us.h64_full4",
        step_us(h64_narrow.as_mut(), 4, slice),
    ));
    let mut h512 = LstmStreams::new(&fx.wide, LANES);
    out.push((
        "neural.step_us.h512_full16",
        step_us(&mut h512, LANES, slice),
    ));
    out.push(("neural.step_us.h512_occ4of16", step_us(&mut h512, 4, slice)));

    out.extend(frontend(fx, slice));

    // One build at ten times the fixture corpus is 0.3 s: steady enough alone.
    let mut options = ClgenOptions::small(RECIPE_SEED).corpus;
    options.miner.repositories = 600;
    let started = Instant::now();
    let corpus = Corpus::build(&options);
    let built = started.elapsed().as_secs_f64();
    out.push(("corpus.build_kernels_per_s", corpus.len() as f64 / built));

    let decode = median_time(slice, || {
        black_box(TrainedModel::from_bytes(LSTM64_BYTES).expect("the fixture decodes"));
    });
    out.push(("wire.ckpt_decode_ms", decode * 1e3));
    let render = median_time(slice, || {
        black_box(http::request(fx.server.addr(), "GET", "/metrics").ok());
    });
    out.push(("obs.metrics_render_us", render * 1e6));
    out
}

/// A [`StreamBatch`] that records a span around every model call, under
/// whichever engine step is current, and counts the lane-steps it is fed.
struct Timed<'a> {
    inner: Box<dyn StreamBatch + 'a>,
    tracer: &'a Tracer,
    step: &'a Cell<u32>,
    fed: &'a Cell<u64>,
}

impl StreamBatch for Timed<'_> {
    fn vocab_size(&self) -> usize {
        self.inner.vocab_size()
    }
    fn num_streams(&self) -> usize {
        self.inner.num_streams()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn reset_stream(&mut self, stream: usize) {
        self.inner.reset_stream(stream);
    }
    fn feed_many(&mut self, pairs: &[(usize, u32)]) {
        self.fed.set(self.fed.get() + pairs.len() as u64);
        let span = self.tracer.begin("neural.feed_many", self.step.get(), 0);
        self.inner.feed_many(pairs);
        self.tracer.end(span);
    }
    fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
        let span = self.tracer.begin("neural.probs_into", self.step.get(), 0);
        self.inner.probs_into(stream, out);
        self.tracer.end(span);
    }
}

/// Run session `item` of `synth-offline` through `Sampler::synthesize`, then
/// again with ledger's own loop over the engine — round by round, as
/// `SynthesisStream` dispatches it — and a serial filter, timing every step,
/// model call and filter call. Returns the `core.*` timing metrics, or the
/// reason the replay does not reproduce the sampler's kernels.
pub fn replay_session(
    fx: &Fixtures,
    item: usize,
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let config = workloads::session_config(item);
    let vocab = fx.lstm64.vocabulary();
    let seed_text = ArgumentSpec::paper_default().seed_text();
    let (step, fed) = (Cell::new(NONE), Cell::new(0));
    let mut timed = Timed {
        inner: fx.lstm64.streams(LANES),
        tracer,
        step: &step,
        fed: &fed,
    };

    let root = tracer.begin("replay", NONE, item as u32);
    let session = tracer.begin("core.sampler.synthesize", root, item as u32);
    let started = Instant::now();
    let report = fx.lstm64.sampler(config.clone()).synthesize(usize::MAX);
    let synthesize_s = started.elapsed().as_secs_f64();
    tracer.end(session);

    let sampling = tracer.begin("core.engine", root, item as u32);
    let round_size = 4 * LANES;
    let mut candidates: Vec<SampledCandidate> = Vec::new();
    for first in (0..workloads::SESSION_ATTEMPTS).step_by(round_size) {
        let mut results: Vec<Option<SampledCandidate>> = vec![None; round_size];
        let mut next = 0;
        let mut completed = Vec::new();
        timed.reset();
        let mut engine = BatchEngine::new(&mut timed, vocab);
        loop {
            while next < round_size {
                let Some(lane) = engine.free_lane() else {
                    break;
                };
                let rng_seed = stream_seed(config.seed, (first + next) as u64);
                results[next] = engine.admit(lane, next as u64, &seed_text, SAMPLE, rng_seed);
                next += 1;
            }
            if engine.occupied_lanes() == 0 {
                break;
            }
            step.set(tracer.begin("core.engine.step", sampling, 0));
            engine.step_into(&mut completed);
            tracer.end(step.get());
            for (ticket, candidate) in completed.drain(..) {
                results[ticket as usize] = Some(candidate);
            }
        }
        candidates.extend(results.into_iter().flatten());
    }
    tracer.end(sampling);

    let filtering = tracer.begin("core.filter", root, item as u32);
    let mut sources = Vec::new();
    for candidate in &candidates {
        let started = Instant::now();
        let verdict = filter_candidate(&config.filter, candidate);
        let name = match &verdict {
            Ok(_) => "core.filter.accept",
            Err(RejectReason::AbortedMidstream) => "core.filter.aborted",
            Err(_) => "core.filter.reject",
        };
        tracer.record(name, filtering, 0, started, Instant::now());
        sources.extend(verdict.ok().map(|kernel| kernel.source));
    }
    tracer.end(filtering);
    tracer.end(root);

    let generated: usize = candidates.iter().map(|c| c.generated_chars).sum();
    if generated != report.stats.generated_chars
        || !sources.iter().eq(report.kernels.iter().map(|k| &k.source))
    {
        return Err(
            "ledger's engine loop and serial filter differ from Sampler::synthesize".into(),
        );
    }

    let by_name = trace::totals(&tracer.spans());
    let of = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let steps = of("core.engine.step");
    let model_ns = of("neural.feed_many").total_ns + of("neural.probs_into").total_ns;
    let seed_chars = (candidates.len() * seed_text.chars().count()) as f64;
    Ok(vec![
        ("core.engine_step_us", steps.mean_us()),
        ("core.engine_self_us", steps.mean_self_us()),
        (
            "core.model_share",
            model_ns as f64 / steps.total_ns.max(1) as f64,
        ),
        (
            "core.lane_utilisation",
            fed.get() as f64 / (steps.count.max(1) * LANES as u64) as f64,
        ),
        (
            "core.seed_prefix_share",
            seed_chars / fed.get().max(1) as f64,
        ),
        ("core.steps", steps.count as f64),
        ("core.filter_us_accept", of("core.filter.accept").mean_us()),
        ("core.filter_us_reject", of("core.filter.reject").mean_us()),
        (
            "core.filter_us_aborted",
            of("core.filter.aborted").mean_us(),
        ),
        // What the sampler session adds to the bare engine on the sampling
        // thread: round hand-off, waiting for the filter at the drain, stats.
        (
            "core.sampler_self_s",
            synthesize_s - of("core.engine").total_ns as f64 / 1e9,
        ),
    ])
}
